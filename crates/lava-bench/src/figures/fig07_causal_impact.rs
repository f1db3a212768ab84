//! Figure 7: CausalImpact-style analysis of a whole-pool NILAS rollout —
//! observed vs counterfactual empty hosts, point-wise effect and cumulative
//! effect.
//!
//! Usage: `repro fig07_causal_impact [--seed N] [--days N] [--threads N]`

use crate::{args::ExperimentArgs, harness::suite_from_specs};
use lava_core::time::{Duration, SimTime};
use lava_sched::Algorithm;
use lava_sim::causal::{pre_post_arms, pre_post_impact};
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let switch_at = Duration::from_secs(args.duration.as_secs() / 2);
    // The treated arm runs the baseline until the warm-up boundary, then
    // NILAS; the control arm replays the baseline on the same trace; the
    // causal analysis runs on the treated-minus-control series.
    let treated = Experiment::builder()
        .name("fig07-causal-impact")
        .workload(PoolConfig {
            hosts: args.hosts.unwrap_or(120),
            duration: args.duration,
            seed: args.seed + 7,
            ..PoolConfig::default()
        })
        .algorithm(Algorithm::Nilas)
        .warmup(switch_at)
        .build()
        .expect("valid spec");
    let arms = suite_from_specs(pre_post_arms(treated), args).run();
    let (observed, control) = (&arms[0].result, &arms[1].result);
    let boundary = SimTime::ZERO + switch_at;
    let causal = pre_post_impact(observed, control, boundary);

    println!("# Figure 7: whole-pool rollout causal analysis (policy switches from baseline to NILAS at mid-trace)");
    println!(
        "average effect = {:+.2} pp   95% CI [{:+.2}, {:+.2}]   p = {:.3}",
        causal.average_effect * 100.0,
        causal.ci_low * 100.0,
        causal.ci_high * 100.0,
        causal.p_value
    );

    // The post-switch (treatment) portion of both series, aligned with the
    // causal report's point-wise and cumulative effects.
    let observed: Vec<f64> = observed.series.since(boundary).empty_host_series();
    let control_series: Vec<f64> = control.series.since(boundary).empty_host_series();
    println!(
        "\n{:<8} {:>10} {:>16} {:>12} {:>12}",
        "hour", "observed", "control", "pointwise", "cumulative"
    );
    for (i, ((obs, cf), (pw, cum))) in observed
        .iter()
        .zip(&control_series)
        .zip(
            causal
                .pointwise_effect
                .iter()
                .zip(&causal.cumulative_effect),
        )
        .enumerate()
        .step_by(12)
    {
        println!(
            "{:<8} {:>9.1}% {:>15.1}% {:>11.2}pp {:>11.1}pp",
            i,
            obs * 100.0,
            cf * 100.0,
            pw * 100.0,
            cum * 100.0
        );
    }
    println!();
    println!("# Paper: the observed empty-host series departs upward from the counterfactual after launch;");
    println!(
        "#        the cumulative effect grows steadily (Wave 3: +4.9 pp, 95% CI [0.54, 9.2])."
    );
    Ok(())
}

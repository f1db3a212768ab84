//! Figure 10: model accuracy in the weeks after training, under workload
//! drift — driven through the chaos layer.
//!
//! The original figure evaluated a week-1-trained GBDT offline against
//! each later week of a smoothly drifting trace. This version tells the
//! same decay story end-to-end through the simulator: the production
//! GBDT ([`PredictorSpec::Learned`], trained on a pre-drift historical
//! trace) serves a cluster whose workload takes a step
//! [`Incident::DriftShift`](lava_sim::Incident) one week in — every VM
//! created from then on lives `lifetime_scale` times longer than the
//! training distribution said it would. Two arms replay the identical
//! drifted workload:
//!
//! * **frozen** — the model is never touched after deployment; its live
//!   accuracy probe (mean |log10| prediction error over resident VMs)
//!   jumps by ~log10(scale) at the shift and never comes back.
//! * **recalibrating** — the online recalibrator observes exit residuals
//!   and re-centres the served quantiles
//!   ([`SwappablePredictor::apply_offset`](lava_model::adaptive::SwappablePredictor));
//!   a constant multiplicative drift is exactly the form a global
//!   log-space offset can absorb, so the probe recovers toward its
//!   pre-drift floor within a week.
//!
//! The weekly table (and the `BENCH_accuracy_decay.json` artifact under
//! `--json`) reports both arms' probe error per week after training; the
//! figure fails unless the recalibrating arm ends the run with materially
//! lower error than the frozen arm.
//!
//! Usage: `repro fig10_accuracy_decay [--full] [--seed N] [--json BENCH_accuracy_decay.json]`

use crate::{args::ExperimentArgs, harness::ensure};
use lava_core::time::{Duration, SimTime};
use lava_sim::experiment::{Experiment, PredictorSpec};
use lava_sim::metrics::MetricSeries;
use lava_sim::workload::PoolConfig;
use lava_sim::{AdaptationSpec, Incident, IncidentPlan, RecalibrationSpec};

/// The step drift: VMs created after the shift live 4x longer
/// (~0.6 decades) than the training distribution predicts.
const LIFETIME_SCALE: f64 = 4.0;

fn weekly_errors(series: &MetricSeries, weeks: u64) -> Vec<f64> {
    (0..weeks)
        .map(|week| {
            let start = SimTime::ZERO + Duration::from_days(7 * week);
            let end = SimTime::ZERO + Duration::from_days(7 * (week + 1));
            series.between(start, end).mean_abs_log10_error()
        })
        .collect()
}

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    // Week 1 matches the training distribution; the shift lands at its
    // end, leaving `weeks - 1` drifted weeks to watch the two arms
    // diverge. `--full` runs the original figure's eight-week horizon.
    let weeks: u64 = if args.full { 8 } else { 4 };
    let workload = PoolConfig {
        duration: Duration::from_days(7 * weeks),
        target_utilization: 0.5,
        seed: args.seed + 13,
        ..PoolConfig::default()
    };
    let incidents = IncidentPlan {
        seed: args.seed,
        incidents: vec![Incident::DriftShift {
            at: Duration::from_days(7),
            lifetime_scale: LIFETIME_SCALE,
        }],
    };
    let recalibration = AdaptationSpec {
        recalibration: Some(RecalibrationSpec {
            cadence: Duration::from_hours(1),
            min_samples: 32,
        }),
    };

    let run = |name: &str, adaptation: AdaptationSpec| {
        Experiment::builder()
            .name(format!("fig10-{name}"))
            .workload(workload.clone())
            .warmup(Duration::from_hours(12))
            .tick_interval(Duration::from_mins(30))
            .predictor(PredictorSpec::Learned)
            .incidents(incidents.clone())
            .adaptation(adaptation)
            .build()
            .and_then(Experiment::new)
            .expect("valid spec")
            .run()
    };

    println!(
        "# Figure 10: live accuracy in the weeks after training \
         (step drift: lifetimes x{LIFETIME_SCALE} at week 1)"
    );
    let frozen = run("frozen", AdaptationSpec::default());
    let adaptive = run("recalibrating", recalibration);
    let frozen_err = weekly_errors(&frozen.result.series, weeks);
    let adaptive_err = weekly_errors(&adaptive.result.series, weeks);

    println!(
        "{:<18} {:>12} {:>15}",
        "weeks-after-train", "frozen", "recalibrating"
    );
    for week in 0..weeks as usize {
        println!(
            "{:<18} {:>12.3} {:>15.3}",
            week, frozen_err[week], adaptive_err[week]
        );
    }

    let last = weeks as usize - 1;
    println!();
    println!(
        "# final week: frozen {:.3} vs recalibrating {:.3} \
         (pre-drift floor {:.3})",
        frozen_err[last], adaptive_err[last], frozen_err[0]
    );
    println!(
        "# Paper: accuracy degrades after training as the workload drifts; \
         online recalibration wins it back without retraining."
    );

    // The decay and the recovery, asserted: the shift must register on
    // the frozen arm, and the recalibrator must win back a material part
    // of it by the final week.
    ensure!(
        frozen_err[last] > frozen_err[0] + 0.1,
        "a x{LIFETIME_SCALE} drift must degrade the frozen model: week 0 {:.3}, \
         final week {:.3}",
        frozen_err[0],
        frozen_err[last]
    );
    // The probe floor is the GBDT's intrinsic blur, which recalibration
    // cannot remove — so the recovery claim is relative to the
    // drift-induced *rise* above that floor.
    let rise = frozen_err[last] - frozen_err[0];
    let recovered = frozen_err[last] - adaptive_err[last];
    ensure!(
        recovered > rise * 0.25,
        "recalibration must win back a material part of the drift-induced rise: \
         recovered {recovered:.3} of {rise:.3} (needs > 25%)"
    );

    if let Some(path) = &args.json {
        let week_rows: Vec<String> = (0..weeks as usize)
            .map(|w| {
                format!(
                    "    {{ \"week\": {w}, \"frozen_err\": {:.4}, \
                     \"recalibrating_err\": {:.4} }}",
                    frozen_err[w], adaptive_err[w]
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"mode\": \"{}\",\n  \"weeks\": {weeks},\n  \"seed\": {},\n  \
             \"lifetime_scale\": {LIFETIME_SCALE},\n  \"shift_at_days\": 7,\n  \
             \"final_frozen_err\": {:.4},\n  \"final_recalibrating_err\": {:.4},\n  \
             \"weekly\": [\n{}\n  ]\n}}\n",
            if args.full { "full" } else { "default" },
            args.seed,
            frozen_err[last],
            adaptive_err[last],
            week_rows.join(",\n")
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("fig10_accuracy_decay: wrote {path}");
    }
    Ok(())
}

//! Figure 2: lifetime distribution (PDF) of a hard-to-predict VM category
//! and the conditional expected remaining lifetime E(T_r | T_u).
//!
//! Usage: `repro fig02_conditional_lifetime [--seed N]`

use crate::args::ExperimentArgs;
use lava_core::time::Duration;
use lava_model::survival::EmpiricalDistribution;
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let experiment = Experiment::builder()
        .name("fig02-conditional-lifetime")
        .workload(PoolConfig {
            duration: Duration::from_days(7),
            initial_fill_fraction: 0.0,
            seed: args.seed,
            ..PoolConfig::default()
        })
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let trace = experiment.trace();
    // Category 2 is the bi-modal interactive/dev category (minutes or days).
    let lifetimes: Vec<Duration> = trace
        .observations()
        .into_iter()
        .filter(|(s, _)| s.category() == 2)
        .map(|(_, l)| l)
        .collect();
    let dist = EmpiricalDistribution::from_lifetimes(lifetimes.iter().copied());

    println!("# Figure 2: lifetime PDF and conditional expected remaining lifetime (category 2)");
    println!("# observations={}", dist.len());
    println!("\n## Lifetime PDF (log-spaced buckets)");
    let edges_hours = [
        0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0, 48.0, 96.0, 240.0,
    ];
    let mut prev = Duration::ZERO;
    for &h in &edges_hours {
        let bound = Duration::from_hours_f64(h);
        let frac = dist.cdf(bound) - dist.cdf(prev);
        println!(
            "  ({:>6.2}h, {:>6.2}h] {:>6.2}%  {}",
            prev.as_hours(),
            h,
            frac * 100.0,
            "#".repeat((frac * 200.0) as usize)
        );
        prev = bound;
    }

    println!("\n## Expected remaining lifetime given uptime (the reprediction signal)");
    println!("{:<14} {:>26}", "uptime", "E[remaining lifetime]");
    for (label, uptime) in [
        ("at schedule", Duration::ZERO),
        ("30 minutes", Duration::from_mins(30)),
        ("2 hours", Duration::from_hours(2)),
        ("1 day", Duration::from_days(1)),
        ("3 days", Duration::from_days(3)),
        ("7 days", Duration::from_days(7)),
    ] {
        println!(
            "{:<14} {:>26}",
            label,
            format!("{}", dist.expected_remaining(uptime))
        );
    }
    println!();
    println!("# Paper: expected lifetime at schedule 0.2 days; after surviving 1 day -> ~4 days remaining;");
    println!("#        after 7 days -> ~10 days remaining. The shape (expectation grows with uptime) is the point.");
    Ok(())
}

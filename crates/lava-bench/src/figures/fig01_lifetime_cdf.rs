//! Figure 1: distribution of VM lifetimes of scheduled VMs vs. their
//! resource consumption (CDF by VM count and by CPU·time).
//!
//! Usage: `repro fig01_lifetime_cdf [--days N] [--seed N] [--trace-out PATH] [--trace-in PATH]`

use crate::{args::ExperimentArgs, harness::apply_trace_io};
use lava_core::time::Duration;
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let experiment = Experiment::builder()
        .name("fig01-lifetime-cdf")
        .workload(PoolConfig {
            duration: args.duration,
            initial_fill_fraction: 0.0,
            seed: args.seed,
            ..PoolConfig::default()
        })
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    apply_trace_io(args, &experiment)?;
    let trace = experiment.trace();
    let obs = trace.observations();

    let buckets = [
        ("1 min", Duration::from_mins(1)),
        ("10 min", Duration::from_mins(10)),
        ("30 min", Duration::from_mins(30)),
        ("1 hour", Duration::from_hours(1)),
        ("6 hours", Duration::from_hours(6)),
        ("1 day", Duration::from_days(1)),
        ("7 days", Duration::from_days(7)),
        ("30 days", Duration::from_days(30)),
    ];

    let total_vms = obs.len() as f64;
    let core_hours = |spec: &lava_core::vm::VmSpec, l: Duration| {
        spec.resources().cpu_milli as f64 / 1000.0 * l.as_hours()
    };
    let total_core_hours: f64 = obs.iter().map(|(s, l)| core_hours(s, *l)).sum();

    println!("# Figure 1: VM lifetime CDF by count and by resource consumption");
    println!(
        "# VMs={} total core-hours={:.0}",
        obs.len(),
        total_core_hours
    );
    println!(
        "{:<10} {:>16} {:>22}",
        "lifetime<=", "% of VMs", "% of core-hours"
    );
    for (label, bound) in buckets {
        let vms = obs.iter().filter(|(_, l)| *l <= bound).count() as f64;
        let ch: f64 = obs
            .iter()
            .filter(|(_, l)| *l <= bound)
            .map(|(s, l)| core_hours(s, *l))
            .sum();
        println!(
            "{:<10} {:>15.1}% {:>21.1}%",
            label,
            100.0 * vms / total_vms,
            100.0 * ch / total_core_hours
        );
    }
    println!();
    println!(
        "# Paper: 88% of VMs live < 1 hour; 98% of resources are consumed by VMs living >= 1 hour."
    );
    Ok(())
}

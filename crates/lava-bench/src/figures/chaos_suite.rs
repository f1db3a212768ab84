//! Chaos suite: incident scenarios × model management on a sharded fleet.
//!
//! Every other figure measures the steady state; this one measures what
//! happens when things go wrong. A fixed incident plan — a hard-kill cell
//! outage with recovery, plus a fleet-wide predictor degradation (every
//! prediction biased an order of magnitude *long*, never repaired — the
//! direction that wrecks NILAS's exit-aligned packing, since a uniformly
//! short bias just collapses the lifetime classes toward best-fit) — is
//! replayed against four arms of the same NILAS fleet:
//!
//! | arm              | model management      | fleet router         |
//! |------------------|-----------------------|----------------------|
//! | `frozen+static`  | none                  | lifetime-aware       |
//! | `frozen+penalty` | none                  | misprediction-aware  |
//! | `adaptive+static`| online recalibration  | lifetime-aware       |
//! | `adaptive+penalty`| online recalibration | misprediction-aware  |
//!
//! plus an incident-free `baseline`. Each arm reports fleet-wide
//! empty-host %, the rejection rate, and the live accuracy probe
//! (mean |log10| prediction error) **before**, **during** and **after**
//! the incidents, where "after" is the final quarter of the run — long
//! past the outage recovery, and far enough beyond the degradation for
//! the recalibrator to have observed the residuals and re-centred the
//! live model.
//!
//! The suite then *asserts* the recovery claim instead of only printing
//! it. The default (and `--quick`) run is a **pinned demo** — workload
//! seed, fleet shape and duration are fixed to a configuration where the
//! incident measurably hurts the frozen arm — and there the full claim is
//! asserted: over the after-window the adaptive arm must win back at
//! least half of the empty-host percentage the frozen arm loses against
//! the incident-free baseline. A regression in the recalibration loop
//! fails the figure (`repro` exits 1, and so does the CI `chaos-smoke`
//! job), not just a chart.
//!
//! `--full` honours `--seed`/`--hosts`/`--days`/`--cells` for sweeps.
//! Packing is chaotic in the small: across arbitrary seeds the *sign* of
//! the empty-host gap flips (a uniformly long bias sometimes collapses
//! into accidental best-fit density), so the sweep mode prints the gap
//! but asserts only the seed-stable half of the claim — the live-probe
//! error of both adaptive arms must re-centre well below the frozen
//! arm's, which stays pinned at the injected bias.
//!
//! Usage: `repro chaos_suite [--quick|--full] [--json BENCH_chaos.json]`
//! (`--json` writes the measurements as a JSON artifact).

use crate::{args::ExperimentArgs, harness::ensure};
use lava_core::time::{Duration, SimTime};
use lava_sched::Algorithm;
use lava_sim::chaos::DegradedPredictor;
use lava_sim::experiment::{Experiment, ExperimentSpec, PredictorSpec};
use lava_sim::fleet::{FleetConfig, RouterSpec};
use lava_sim::metrics::MetricSeries;
use lava_sim::workload::PoolConfig;
use lava_sim::{AdaptationSpec, Incident, IncidentPlan, OutageMode, RecalibrationSpec};

/// One measured arm of the suite.
struct ArmRow {
    name: &'static str,
    /// Empty-host % over the after-window (the comparison window).
    empty_pct: f64,
    /// Rejected creations as a % of all placement attempts.
    rejection_pct: f64,
    /// Live accuracy probe (mean |log10| error) per window.
    err_before: f64,
    err_during: f64,
    err_after: f64,
}

struct Windows {
    before: (SimTime, SimTime),
    during: (SimTime, SimTime),
    after: (SimTime, SimTime),
}

fn window_means(series: &MetricSeries, windows: &Windows) -> (f64, f64, f64, f64) {
    let slice = |(start, end): (SimTime, SimTime)| series.between(start, end);
    (
        slice(windows.after).mean_empty_host_fraction() * 100.0,
        slice(windows.before).mean_abs_log10_error(),
        slice(windows.during).mean_abs_log10_error(),
        slice(windows.after).mean_abs_log10_error(),
    )
}

fn run_arm(name: &'static str, spec: ExperimentSpec, windows: &Windows) -> ArmRow {
    let report = Experiment::new(spec).expect("valid chaos spec").run();
    let result = &report.result;
    let attempts = result.scheduler_stats.placed + result.rejected_vms;
    let rejection_pct = if attempts == 0 {
        0.0
    } else {
        result.rejected_vms as f64 / attempts as f64 * 100.0
    };
    let (empty_pct, err_before, err_during, err_after) = window_means(&result.series, windows);
    ArmRow {
        name,
        empty_pct,
        rejection_pct,
        err_before,
        err_during,
        err_after,
    }
}

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    // The whole five-arm suite takes well under a second at demo scale,
    // so `--quick` and the default both run the *pinned* configuration
    // the recovery assertions are validated against — seed included,
    // because the sign of the empty-host gap is seed-chaotic at any scale
    // that fits a smoke budget (the after-window needs the full four days
    // to give the recalibrator its runway). `--full` honours the sweep
    // flags instead; a router comparison needs several cells, so an unset
    // --cells still defaults to 4 (like fleet_compare's 8, scaled down).
    let (cells, hosts, duration, seed) = if args.full {
        let cells = if args.cells > 1 { args.cells } else { 4 };
        let hosts = args.hosts.unwrap_or(512).max(cells * 12);
        (cells, hosts, args.duration, args.seed)
    } else {
        (4, 128, Duration::from_days(4), 1)
    };

    // Incident timeline: both incidents land a third of the way in. The
    // outage heals on its own; the degradation never does — only the
    // recalibrator can.
    let incident_at = Duration((duration.0 / 3).max(3_600 * 8));
    let outage_recovery = Duration((duration.0 / 6).max(3_600 * 4));
    let hour = |h: u64| SimTime::ZERO + Duration::from_hours(h);
    let at_h = incident_at.0 / 3_600;
    let end_h = duration.0 / 3_600;
    let windows = Windows {
        before: (hour(4), hour(at_h)),
        during: (hour(at_h), hour(at_h + (end_h - at_h) / 3)),
        after: (hour(end_h - end_h / 4), hour(end_h)),
    };

    let workload = PoolConfig {
        hosts,
        duration,
        seed,
        ..PoolConfig::default()
    };
    let incidents = IncidentPlan {
        seed,
        incidents: vec![
            Incident::CellOutage {
                cell: 0,
                hosts: Some((hosts / cells) / 3),
                mode: OutageMode::HardKill,
                at: incident_at,
                recovery: Some(outage_recovery),
            },
            Incident::PredictorDegradation {
                degraded: DegradedPredictor::Biased { bias_pct: 900 },
                at: incident_at,
                recovery: None,
            },
        ],
    };
    // A tight cadence with a low sample floor: cells the router herds
    // load away from see only a trickle of exits, and a high floor would
    // leave their models uncorrected for days (the fleet probe is
    // host-weighted, so one starved cell drags the whole aggregate).
    let recalibration = AdaptationSpec {
        recalibration: Some(RecalibrationSpec {
            cadence: Duration::from_mins(30),
            min_samples: 4,
        }),
    };

    let fleet = |router: RouterSpec| {
        FleetConfig::new(cells)
            .with_threads(args.threads)
            .with_router(router)
    };
    let spec =
        |name: &str, router: RouterSpec, plan: &IncidentPlan, adaptation: &AdaptationSpec| {
            Experiment::builder()
                .name(format!("chaos-{name}"))
                .workload(workload.clone())
                .warmup(Duration::from_hours(2))
                .tick_interval(Duration::from_mins(30))
                .predictor(PredictorSpec::Oracle)
                .algorithm(Algorithm::Nilas)
                .fleet(fleet(router))
                .incidents(plan.clone())
                .adaptation(*adaptation)
                .build()
                .expect("valid chaos spec")
        };

    println!("# Chaos suite: incidents x model management, NILAS fleet of {cells} cells");
    println!(
        "# {} hosts={hosts} days={:.0} seed={seed} threads={} | outage: hard-kill {} hosts of \
         cell 0 at h{at_h} (+{}h recovery) | degradation: predictions biased 10x long from \
         h{at_h}, never repaired | recalibration: every 30 min after 4 exit residuals",
        if args.full { "sweep:" } else { "pinned demo:" },
        duration.as_days(),
        args.threads,
        (hosts / cells) / 3,
        outage_recovery.0 / 3_600,
    );
    println!(
        "{:<18} {:>13} {:>10} {:>24}",
        "arm", "empty-hosts %", "reject %", "probe err (b / d / a)"
    );

    // The baseline runs the same recalibration loop (a no-op on an
    // un-degraded oracle) so its accuracy probe is live too.
    let no_incidents = IncidentPlan::default();
    let frozen = AdaptationSpec::default();
    let arms: Vec<ArmRow> = [
        (
            "baseline",
            RouterSpec::LifetimeAware,
            &no_incidents,
            &recalibration,
        ),
        (
            "frozen+static",
            RouterSpec::LifetimeAware,
            &incidents,
            &frozen,
        ),
        (
            "frozen+penalty",
            RouterSpec::MispredictionAware,
            &incidents,
            &frozen,
        ),
        (
            "adaptive+static",
            RouterSpec::LifetimeAware,
            &incidents,
            &recalibration,
        ),
        (
            "adaptive+penalty",
            RouterSpec::MispredictionAware,
            &incidents,
            &recalibration,
        ),
    ]
    .into_iter()
    .map(|(name, router, plan, adaptation)| {
        let row = run_arm(name, spec(name, router, plan, adaptation), &windows);
        println!(
            "{:<18} {:>13.2} {:>10.2} {:>24}",
            row.name,
            row.empty_pct,
            row.rejection_pct,
            format!(
                "{:.3} / {:.3} / {:.3}",
                row.err_before, row.err_during, row.err_after
            )
        );
        row
    })
    .collect();

    let empty = |name: &str| arms.iter().find(|a| a.name == name).expect("arm").empty_pct;
    let baseline = empty("baseline");
    let frozen_static = empty("frozen+static");
    let adaptive_static = empty("adaptive+static");
    let gap = baseline - frozen_static;
    let recovered = adaptive_static - frozen_static;
    println!();
    println!(
        "# after-window empty-host gap: frozen loses {gap:.2} pp vs baseline; \
         recalibration wins back {recovered:.2} pp"
    );

    // The recovery claim, asserted — but only against the pinned demo,
    // where the incident demonstrably hurts the frozen arm: the adaptive
    // arm must recover at least half of what the frozen arm lost. Under
    // `--full` the gap's sign is at the mercy of the sweep's seed and
    // scale, so it is reported, not asserted.
    if !args.full {
        ensure!(
            gap > 2.0,
            "the pinned incident must measurably hurt the frozen arm, \
             got a {gap:.2} pp gap"
        );
        ensure!(
            recovered >= gap * 0.5,
            "recalibration recovered only {recovered:.2} pp of a {gap:.2} pp loss \
             (needs >= 50%)"
        );
    }
    // The degradation must actually register: the frozen probe stays hot
    // after the incident, and the adaptive probe must come back down.
    //
    // The static arm cannot fully re-centre: residuals are placement-time
    // evidence, so a cell the static router stops sending creates to sees
    // only exits of healthily-predicted old VMs — zero signal about the
    // degraded live model — and its probe error stays pinned while its
    // recalibrator correctly reports "nothing to fix". The penalty router
    // resolves exactly this: by steering load *around* mispredicting
    // cells rather than herding everything to one, it keeps every cell's
    // exit stream (and therefore its recalibration loop) fed, so the
    // full adaptive stack must re-centre much further.
    let probe = |name: &str| arms.iter().find(|a| a.name == name).expect("arm");
    let frozen_probe = probe("frozen+static");
    let adaptive_probe = probe("adaptive+static");
    let penalty_probe = probe("adaptive+penalty");
    ensure!(
        frozen_probe.err_after > 0.3,
        "a 10x bias must keep the frozen probe hot, got {:.3}",
        frozen_probe.err_after
    );
    ensure!(
        adaptive_probe.err_after < frozen_probe.err_after * 0.75,
        "recalibration must pull the live model back: adaptive {:.3} vs frozen {:.3}",
        adaptive_probe.err_after,
        frozen_probe.err_after
    );
    // Only the pinned demo pins the stronger penalty-router bound: under
    // sweep seeds the penalty arm sometimes lands near the static arm's
    // partial re-centre instead of beating it outright.
    let penalty_bound = if args.full { 0.75 } else { 0.5 };
    ensure!(
        penalty_probe.err_after < frozen_probe.err_after * penalty_bound,
        "the penalty router keeps starved cells' recalibration fed; adaptive+penalty \
         {:.3} must re-centre below {penalty_bound} of frozen {:.3}",
        penalty_probe.err_after,
        frozen_probe.err_after
    );
    println!("# recovery assertions passed: adaptive arms recover the frozen arm's loss");

    if let Some(path) = &args.json {
        let arm_json: Vec<String> = arms
            .iter()
            .map(|a| {
                format!(
                    "    {{\n      \"arm\": \"{}\",\n      \"empty_host_pct\": {:.4},\n      \
                     \"rejection_pct\": {:.4},\n      \"probe_error_before\": {:.4},\n      \
                     \"probe_error_during\": {:.4},\n      \"probe_error_after\": {:.4}\n    }}",
                    a.name, a.empty_pct, a.rejection_pct, a.err_before, a.err_during, a.err_after
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"mode\": \"{}\",\n  \"cells\": {},\n  \"hosts\": {},\n  \"days\": {:.1},\n  \
             \"seed\": {},\n  \"incident_at_hours\": {},\n  \"frozen_loss_pp\": {:.4},\n  \
             \"recalibration_recovered_pp\": {:.4},\n  \"arms\": [\n{}\n  ]\n}}\n",
            if args.full { "full" } else { "pinned" },
            cells,
            hosts,
            duration.as_days(),
            seed,
            at_h,
            gap,
            recovered,
            arm_json.join(",\n")
        );
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("chaos_suite: wrote {path}");
    }
    Ok(())
}

//! Pluggable simulation observers.
//!
//! The experiment loop ([`crate::experiment::drive`]) owns the event-driven
//! replay; everything that *measures* a run is an observer implementing
//! [`SimObserver`]. Observers hear what the scheduler did (placements,
//! rejections, exits — the loop dispatches them from the results of
//! `Scheduler::schedule` / `Scheduler::exit`) plus the loop's own cadence
//! hooks (ticks, periodic samples, warm-up end, finish), so metric
//! collection is *composed into* a run instead of hard-coded in the
//! simulator.
//!
//! Provided observers:
//!
//! * [`MetricRecorder`] — records the [`MetricSeries`] the paper's
//!   evaluation is built on (the component `SimulationResult` is
//!   assembled from); every run attaches one first,
//! * [`StrandingProbe`] — runs the inflation-simulation stranding pipeline
//!   every N samples and averages the reports: the §2.3 stranding study
//!   is a run with a probe passed to
//!   [`Experiment::run_with_observers`](crate::experiment::Experiment::run_with_observers),
//!   read back with [`StrandingProbe::average`],
//! * [`EvacuationCollector`](crate::defrag::EvacuationCollector) (in
//!   [`crate::defrag`]) — records defragmentation drains at the run's
//!   trigger cadence.

use crate::metrics::{sample_pool, MetricSeries};
use crate::stranding::{measure_stranding, InflationMix, StrandingReport};
use lava_core::host::HostId;
use lava_core::time::SimTime;
use lava_core::vm::VmId;
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;

/// Read-only view of the running simulation handed to every observer hook.
pub struct ObserverContext<'a> {
    /// The cluster state (pool, hosts, live VM records).
    pub cluster: &'a Cluster,
    /// The lifetime predictor driving the run.
    pub predictor: &'a dyn LifetimePredictor,
    /// Name of the policy currently in control.
    pub policy: &'a str,
    /// Simulation time of the hook.
    pub now: SimTime,
}

/// A composable simulation observer.
///
/// All hooks have empty default bodies so observers implement only what
/// they care about. Hooks are invoked in the order observers were
/// registered; every observer sees the identical event stream.
pub trait SimObserver {
    /// A VM was placed on a host.
    fn on_placed(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId, _host: HostId) {}

    /// A VM placement request found no feasible host.
    fn on_rejected(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId) {}

    /// A VM exited from a host.
    fn on_exited(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId, _host: HostId) {}

    /// A VM was live-migrated between hosts. Never called (nothing
    /// migrates); stays because `bench/` implements it, until ROADMAP
    /// item (f) shrinks the benchmark's frozen surface.
    fn on_migrated(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId, _from: HostId, _to: HostId) {}

    /// A periodic policy tick ran.
    fn on_tick(&mut self, _ctx: &ObserverContext<'_>) {}

    /// A periodic metric sample point was reached.
    fn on_sample(&mut self, _ctx: &ObserverContext<'_>) {}

    /// A defragmentation trigger point was reached (scheduled on the
    /// unified timeline at the exact trigger cadence, firing *before* the
    /// events of its timestamp — drain decisions see the pool as of just
    /// before the trigger time).
    fn on_defrag_trigger(&mut self, _ctx: &ObserverContext<'_>) {}

    /// The warm-up policy was swapped out for the evaluated policy.
    fn on_policy_switched(&mut self, _ctx: &ObserverContext<'_>) {}

    /// The trace has been fully replayed.
    fn on_finish(&mut self, _ctx: &ObserverContext<'_>) {}
}

/// Records a [`MetricSeries`] at every sample point — the observer behind
/// `SimulationResult::series`.
#[derive(Debug, Clone, Default)]
pub struct MetricRecorder {
    series: MetricSeries,
    accuracy_probe: bool,
}

/// Cap on VMs repredicted per accuracy-probe sample (strided over the
/// live set, so the probe's cost is bounded regardless of pool size).
const ACCURACY_PROBE_CAP: usize = 64;

impl MetricRecorder {
    /// Create an empty recorder.
    pub fn new() -> MetricRecorder {
        MetricRecorder::default()
    }

    /// A recorder that additionally measures live prediction accuracy at
    /// every sample: the mean |log10 predicted − log10 actual| remaining
    /// lifetime over a strided sample of at most `ACCURACY_PROBE_CAP`
    /// live VMs, stored in [`crate::metrics::MetricSample::mean_abs_log10_error`].
    ///
    /// Off by default because the probe issues extra predictor calls,
    /// which would perturb prediction-recording runs; the experiment
    /// layer enables it on chaos/adaptation runs.
    pub fn with_accuracy_probe() -> MetricRecorder {
        MetricRecorder {
            series: MetricSeries::new(),
            accuracy_probe: true,
        }
    }

    /// The series recorded so far.
    pub fn series(&self) -> &MetricSeries {
        &self.series
    }

    /// Consume the recorder, yielding the series.
    pub fn into_series(self) -> MetricSeries {
        self.series
    }
}

/// Mean |log10| error of the live predictions, strided to at most
/// [`ACCURACY_PROBE_CAP`] VMs. Iteration order is the cluster's VM-id
/// order, so the probe is deterministic.
fn live_prediction_error(ctx: &ObserverContext<'_>) -> f64 {
    let live = ctx.cluster.vm_count();
    if live == 0 {
        return 0.0;
    }
    let stride = live.div_ceil(ACCURACY_PROBE_CAP);
    let mut sum = 0.0;
    let mut count = 0usize;
    for vm in ctx.cluster.vms().step_by(stride) {
        let predicted = ctx.predictor.predict_remaining(vm, ctx.now);
        let actual = (vm.created_at() + vm.actual_lifetime()).saturating_since(ctx.now);
        sum += (predicted.log10_secs() - actual.log10_secs()).abs();
        count += 1;
    }
    sum / count as f64
}

impl SimObserver for MetricRecorder {
    fn on_sample(&mut self, ctx: &ObserverContext<'_>) {
        let mut sample = sample_pool(ctx.cluster.pool(), ctx.now);
        if self.accuracy_probe {
            sample.mean_abs_log10_error = live_prediction_error(ctx);
        }
        self.series.push(sample);
    }
}

/// Runs the stranding inflation pipeline every `every` samples and averages
/// the reports (the paper's §2.3 measurement cadence).
#[derive(Debug, Clone)]
pub struct StrandingProbe {
    every: usize,
    mix: InflationMix,
    sample_index: usize,
    reports: Vec<StrandingReport>,
}

impl StrandingProbe {
    /// Probe every `every` samples with the given VM mix. `every == 0`
    /// disables probing.
    pub fn new(every: usize, mix: InflationMix) -> StrandingProbe {
        StrandingProbe {
            every,
            mix,
            sample_index: 0,
            reports: Vec::new(),
        }
    }

    /// Number of stranding measurements taken.
    pub fn measurements(&self) -> usize {
        self.reports.len()
    }

    /// The average report, or `None` if no measurement ran.
    pub fn average(&self) -> Option<StrandingReport> {
        if self.reports.is_empty() {
            return None;
        }
        let n = self.reports.len() as f64;
        Some(StrandingReport {
            stranded_cpu_fraction: self
                .reports
                .iter()
                .map(|r| r.stranded_cpu_fraction)
                .sum::<f64>()
                / n,
            stranded_memory_fraction: self
                .reports
                .iter()
                .map(|r| r.stranded_memory_fraction)
                .sum::<f64>()
                / n,
            vms_packed: (self.reports.iter().map(|r| r.vms_packed).sum::<usize>() as f64 / n)
                .round() as usize,
        })
    }
}

impl SimObserver for StrandingProbe {
    fn on_sample(&mut self, ctx: &ObserverContext<'_>) {
        if self.every > 0 && self.sample_index.is_multiple_of(self.every) {
            self.reports
                .push(measure_stranding(ctx.cluster.pool(), &self.mix));
        }
        self.sample_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::HostSpec;
    use lava_core::resources::Resources;
    use lava_model::predictor::OraclePredictor;

    fn ctx_cluster() -> Cluster {
        Cluster::with_uniform_hosts(4, HostSpec::new(Resources::cores_gib(32, 128)))
    }

    fn with_ctx<F: FnMut(&ObserverContext<'_>)>(cluster: &Cluster, now: u64, mut f: F) {
        let predictor = OraclePredictor::new();
        let ctx = ObserverContext {
            cluster,
            predictor: &predictor,
            policy: "test-policy",
            now: SimTime(now),
        };
        f(&ctx);
    }

    #[test]
    fn metric_recorder_collects_samples() {
        let cluster = ctx_cluster();
        let mut recorder = MetricRecorder::new();
        with_ctx(&cluster, 100, |ctx| recorder.on_sample(ctx));
        with_ctx(&cluster, 200, |ctx| recorder.on_sample(ctx));
        assert_eq!(recorder.series().len(), 2);
        assert_eq!(recorder.series().samples()[0].time, SimTime(100));
        let series = recorder.into_series();
        assert_eq!(series.mean_empty_host_fraction(), 1.0);
    }

    #[test]
    fn stranding_probe_probes_on_cadence() {
        let cluster = ctx_cluster();
        let mut probe = StrandingProbe::new(2, InflationMix::default());
        assert!(probe.average().is_none());
        for i in 0..5 {
            with_ctx(&cluster, i, |ctx| probe.on_sample(ctx));
        }
        // Samples 0, 2 and 4 probe.
        assert_eq!(probe.measurements(), 3);
        let avg = probe.average().unwrap();
        assert!(
            avg.stranded_cpu_fraction < 1e-9,
            "empty pool strands nothing"
        );
        assert!(avg.vms_packed > 0);

        let mut disabled = StrandingProbe::new(0, InflationMix::default());
        with_ctx(&cluster, 0, |ctx| disabled.on_sample(ctx));
        assert_eq!(disabled.measurements(), 0);
        assert!(disabled.average().is_none());
    }
}

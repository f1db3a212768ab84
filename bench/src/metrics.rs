//! The benchmark's metric tables. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; a unit test
//! keeps the two in step.
//!
//! Every metric is reported on every workload (the benchmark contract
//! asks for that). Where a layer does not exist on a workload the metric
//! is a count, share or ratio that reads 0 there; every time-valued
//! metric is measured on all five.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// What it measures, and for per-layer metrics which end-to-end
    /// metric it should move on which workload.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off.
///
/// `BENCHMARK.json` holds one bound per metric, so each is sized by the
/// workload on which the metric is noisiest (`fleet_pooled` for the two
/// host-time metrics). `bench/run.sh --sets 2` judges host time by each
/// workload's own, tighter `Workload::host_time_bound` and the simulated
/// `empty_host_frac` seed by seed, exactly.
#[rustfmt::skip] // one table row per metric
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25,
        "median seconds to make the input: workload or arrival generation, LVTR write, GBDT \
         train + compile, plus the median per-repetition pool/cell/service build"),
    e2e("events_per_s", "1/s", Higher, 0.25,
        "simulated events (serve_open: requests + releases) per second of host time, file-open \
         (first offer) to report-out, in the run's fastest repetition"),
    e2e("decision_us", "us", Lower, 0.25,
        "wall us one placement decision costs its caller. serve_open: p99 of one \
         PlacementService::offer call (~67k samples per repetition, lowest over repetitions). \
         A batch replay has no per-request boundary: there it is the mean, wall time / decisions"),
    e2e("peak_rss_mb", "MiB", Lower, 0.15,
        "peak resident set (VmHWM) of the benchmark process, set-up included"),
    e2e("empty_host_frac", "share", Higher, 0.08,
        "mean empty-host fraction of the run (MetricSeries mean; serve_open: mean over decisions \
         of the routed cell's fraction) - simulated, repeats exactly for a seed; guards a host-time \
         win bought with worse packing"),
];

/// One traced repetition's view of the layers, plus the direct-call
/// probes. "->" names what the metric should move.
#[rustfmt::skip] // one table row per metric
pub const PER_LAYER: [MetricDef; 44] = [
    layer("trace.decode_ns_per_event", "ns", Lower,
        "probe: BinaryTraceSource::next_event -> events_per_s on replay_engine, fleet_pooled"),
    layer("trace.encode_ns_per_event", "ns", Lower,
        "probe: BinaryTraceWriter::push -> setup_s"),
    layer("trace.bytes_per_event", "B", Lower, "probe: LVTR bytes per event -> setup_s"),
    layer("workload.gen_ns_per_event", "ns", Lower,
        "probe: StreamingWorkload::next_event -> setup_s (it is the load generator)"),
    layer("arrivals.gen_ns_per_request", "ns", Lower,
        "probe: ArrivalGenerator::next_request -> setup_s on serve_open"),
    layer("core.pool_place_ns", "ns", Lower,
        "probe: Pool::place_vm -> events_per_s on replay_engine, fleet_pooled"),
    layer("core.pool_remove_ns", "ns", Lower,
        "probe: Pool::remove_vm -> events_per_s on replay_engine, fleet_pooled"),
    layer("timeline.push_pop_ns", "ns", Lower,
        "probe: Timeline::schedule_event + pop -> events_per_s on replay_engine, fleet_pooled"),
    layer("router.ns_per_route", "ns", Lower,
        "probe: Router::route, least-loaded over 16 cells -> events_per_s on fleet_pooled"),
    layer("setup.model_share", "share", Lower,
        "GBDT train + compile as a share of input generation -> setup_s on replay_lava_gbdt"),
    layer("source.busy_share", "share", Lower,
        "LVTR decode (source pulls) as a share of the run -> events_per_s on replay_engine, \
         fleet_pooled (there it is the coordinator's pull share); 0 on serve_open"),
    layer("model.predictions", "count", Lower, "lifetime predictions made"),
    layer("model.batch_calls", "count", Lower, "predict_remaining_batch calls"),
    layer("model.mean_batch_size", "count", Higher, "predictions per batch call"),
    layer("model.predictions_per_placement", "count", Lower,
        "repredictions per decision -> events_per_s on replay_lava_gbdt"),
    layer("model.ns_per_prediction", "ns", Lower,
        "predictor time per prediction -> events_per_s on replay_lava_gbdt"),
    layer("model.busy_share", "share", Lower,
        "lava-model time as a share of the run -> events_per_s on replay_lava_gbdt; near 0 on \
         the oracle workloads"),
    layer("policy.choose_calls", "count", Lower, "choose_host calls"),
    layer("policy.choose_self_us", "us", Lower,
        "mean choose_host self time (minus nested predictor) -> events_per_s on \
         replay_lava_oracle; events_per_s on serve_open"),
    layer("policy.choose_p50_us", "us", Lower, "median choose_host span"),
    layer("policy.choose_p99_us", "us", Lower,
        "p99 choose_host span -> decision_us on serve_open"),
    layer("policy.hooks_ns_per_event", "ns", Lower,
        "placed/exited/tick/model-health hook self time per event"),
    layer("policy.busy_share", "share", Lower,
        "lava-sched policy self time as a share of the run -> events_per_s on \
         replay_lava_oracle, events_per_s on serve_open; near 0 on replay_engine, fleet_pooled"),
    layer("policy.exit_cache_hit_ratio", "ratio", Higher,
        "host exit times served from the exit cache / looked up (0 for most-free-first)"),
    layer("policy.deadline_corrections", "count", Lower, "LAVA deadline-expiry corrections"),
    layer("observer.busy_share", "share", Lower,
        "MetricRecorder hooks as a share of the run -> events_per_s on replay_engine; 0 where \
         the observers are inside the engine (fleet_pooled) or absent (serve_open)"),
    layer("observer.sample_calls", "count", Lower, "on_sample calls seen by the benchmark"),
    layer("engine.residual_ns_per_event", "ns", Lower,
        "run wall time minus source, model, policy and observer self time, per event: drive + \
         timeline + scheduler commit + pool mutation (serve_open: queue, router, releases) -> \
         events_per_s on replay_engine, fleet_pooled; events_per_s on serve_open"),
    layer("engine.residual_share", "share", Lower, "that residual as a share of the run"),
    layer("engine.cold_run_s", "s", Lower,
        "wall seconds of the first, discarded repetition (page faults, cold caches)"),
    layer("fleet.workers", "count", Higher, "cell worker threads (0 off fleet_pooled)"),
    layer("fleet.epochs", "count", Lower, "summary-refresh epochs in the horizon"),
    layer("fleet.cell_routed_skew", "ratio", Lower, "max / mean creations routed per cell"),
    layer("fleet.events_per_s_1worker", "1/s", Higher,
        "the same fleet replay on one worker (the serial reference loop)"),
    layer("fleet.parallel_speedup", "ratio", Higher,
        "median of one-worker wall time / two-worker wall time over the rounds that ran both \
         -> events_per_s on fleet_pooled"),
    layer("mem.rss_kb_per_host", "kB/host", Lower,
        "peak RSS per host of the pool -> peak_rss_mb"),
    layer("serve.offer_p999_over_p50", "ratio", Lower,
        "p99.9 / p50 wall time of one offer call -> decision_us on serve_open"),
    layer("serve.finish_drain_share", "share", Lower,
        "PlacementService::finish as a share of the run"),
    layer("serve.queue_high_water", "count", Lower, "deepest the place queue got"),
    layer("serve.releases", "count", Lower, "releases processed through the heap"),
    layer("serve.virt_p50_over_service", "ratio", Lower,
        "virtual-clock median placement latency / modelled service time"),
    layer("serve.virt_p99_over_service", "ratio", Lower,
        "virtual-clock p99 placement latency / modelled service time (queueing delay)"),
    layer("serve.virt_us_per_wall_us", "ratio", Lower,
        "modelled service time / measured wall time per decision: how far the ServiceModel \
         constants are from this machine"),
    layer("trace_overhead_pct", "%", Lower,
        "median slow-down of a traced repetition against the untraced one run just before it; \
         a run that reads 10 or more fails"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.field(name).unwrap_or_else(|e| panic!("{e}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let crate::report::Json(doc) = serde_json::from_str(&json).expect("valid JSON");

        let listed: Vec<(&str, &str)> = field(&doc, "workloads")
            .items()
            .unwrap()
            .iter()
            .map(|w| (text(field(w, "name")), text(field(w, "why"))))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = field(&doc, key).items().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(text(field(entry, "name")), def.name);
                assert_eq!(text(field(entry, "unit")), def.unit, "{}", def.name);
                assert_eq!(
                    text(field(entry, "better")),
                    def.better.as_str(),
                    "{}",
                    def.name
                );
                match def.bound {
                    Some(bound) => assert_eq!(field(entry, "bound"), &Value::F64(bound)),
                    None => assert!(entry.field("bound").is_err()),
                }
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}

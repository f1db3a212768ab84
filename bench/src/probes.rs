//! Direct-call probes of the layers the decorators cannot isolate: the
//! load generators, the LVTR codec, the timeline heap, pool mutation and
//! the fleet router, each called in a tight loop on a prefix of the
//! workload's own event stream. They run once per traced benchmark run,
//! outside every timed repetition.

use lava_core::cell::{CellId, CellSummary};
use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::host::HostId;
use lava_core::pool::Pool;
use lava_core::resources::Resources;
use lava_core::serve::Micros;
use lava_core::source::EventSource;
use lava_core::time::SimTime;
use lava_core::vm::VmId;
use lava_model::predictor::OraclePredictor;
use lava_sim::arrivals::{ArrivalGenerator, ArrivalProcess};
use lava_sim::fleet::{Router, RouterSpec};
use lava_sim::timeline::{Timeline, TimelineAction};
use lava_sim::trace::{BinaryTraceSource, BinaryTraceWriter};
use lava_sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Events of the stream each probe works on.
const PROBE_EVENTS: usize = 100_000;
/// Requests the arrival-generator probe draws.
const PROBE_REQUESTS: usize = 50_000;
/// Hosts of the pool the mutation probe fills and empties.
const PROBE_HOSTS: usize = 4_096;
/// Cells of the router the routing probe drives.
const PROBE_CELLS: usize = 16;

/// Nanoseconds per operation, by probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `StreamingWorkload::next_event`.
    pub gen_ns_per_event: f64,
    /// `ArrivalGenerator::next_request`.
    pub arrivals_ns_per_request: f64,
    /// `BinaryTraceWriter::push`.
    pub encode_ns_per_event: f64,
    /// `BinaryTraceSource::next_event`.
    pub decode_ns_per_event: f64,
    /// Encoded bytes per event.
    pub bytes_per_event: f64,
    /// `Timeline::schedule_event` + `pop`.
    pub timeline_push_pop_ns: f64,
    /// `Pool::place_vm`.
    pub pool_place_ns: f64,
    /// `Pool::remove_vm`.
    pub pool_remove_ns: f64,
    /// `Router::route` (least-loaded, 16 cells).
    pub route_ns: f64,
}

fn per_op(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Run every probe on a prefix of `pool`'s event stream.
pub fn run(pool: &PoolConfig) -> Result<Probes, String> {
    let mut probes = Probes::default();

    let mut generator = StreamingWorkload::new(pool.clone());
    let started = Instant::now();
    let mut events = Vec::with_capacity(PROBE_EVENTS);
    while events.len() < PROBE_EVENTS {
        match generator.next_event() {
            Some(event) => events.push(event),
            None => break,
        }
    }
    probes.gen_ns_per_event = per_op(started, events.len());

    let mut arrivals = ArrivalGenerator::new(
        WorkloadGenerator::new(pool.clone()),
        ArrivalProcess::Poisson,
        1_000.0,
        Micros(u64::MAX),
    );
    let started = Instant::now();
    let mut drawn = 0;
    while drawn < PROBE_REQUESTS && black_box(arrivals.next_request()).is_some() {
        drawn += 1;
    }
    probes.arrivals_ns_per_request = per_op(started, drawn);

    let mut writer = BinaryTraceWriter::new(Cursor::new(Vec::new()), pool.pool_id)
        .map_err(|e| format!("probe: LVTR header: {e}"))?;
    let started = Instant::now();
    for event in &events {
        writer
            .push(event)
            .map_err(|e| format!("probe: LVTR push: {e}"))?;
    }
    let bytes = writer
        .finish()
        .map_err(|e| format!("probe: LVTR finish: {e}"))?
        .into_inner();
    probes.encode_ns_per_event = per_op(started, events.len());
    probes.bytes_per_event = bytes.len() as f64 / events.len().max(1) as f64;

    let started = Instant::now();
    let mut source =
        BinaryTraceSource::new(bytes.as_slice()).map_err(|e| format!("probe: decode: {e}"))?;
    let mut decoded = 0;
    while let Some(event) = source.next_event() {
        black_box(event);
        decoded += 1;
    }
    probes.decode_ns_per_event = per_op(started, decoded);
    if decoded != events.len() || source.error().is_some() {
        return Err(format!(
            "probe: decoded {decoded} of {} events ({:?})",
            events.len(),
            source.error()
        ));
    }

    // The timeline as `drive` keeps it: the cadence entries plus one
    // buffered source event.
    let mut timeline = Timeline::new();
    timeline.schedule(TimelineAction::Tick, SimTime(u64::MAX));
    timeline.schedule(TimelineAction::Sample, SimTime(u64::MAX));
    let queued: Vec<TraceEvent> = events.clone();
    let started = Instant::now();
    for event in queued {
        timeline.schedule_event(event);
        black_box(timeline.pop());
    }
    probes.timeline_push_pop_ns = per_op(started, events.len());

    // Fill every host with one VM, then empty it again, round after round.
    let creates: Vec<(VmId, Resources)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Create { vm, spec, .. } => Some((*vm, spec.resources())),
            TraceEventKind::Exit { .. } => None,
        })
        .collect();
    let mut hosts = Pool::with_uniform_hosts(pool.pool_id, PROBE_HOSTS, pool.host_spec());
    let (mut place_ns, mut remove_ns, mut moved) = (0u128, 0u128, 0usize);
    for round in creates.chunks(PROBE_HOSTS) {
        let started = Instant::now();
        for (slot, (vm, request)) in round.iter().enumerate() {
            hosts
                .place_vm(HostId(slot as u64), *vm, *request)
                .map_err(|e| format!("probe: place: {e}"))?;
        }
        place_ns += started.elapsed().as_nanos();
        let started = Instant::now();
        for (vm, _) in round {
            hosts
                .remove_vm(*vm)
                .map_err(|e| format!("probe: remove: {e}"))?;
        }
        remove_ns += started.elapsed().as_nanos();
        moved += round.len();
    }
    probes.pool_place_ns = place_ns as f64 / moved.max(1) as f64;
    probes.pool_remove_ns = remove_ns as f64 / moved.max(1) as f64;

    let mut router = Router::new(RouterSpec::LeastLoaded, PROBE_CELLS);
    let (host, n) = (pool.host_spec().capacity(), PROBE_HOSTS as u64);
    let capacity = Resources::new(host.cpu_milli * n, host.memory_mib * n, host.ssd_gib * n);
    let summaries = (0..PROBE_CELLS as u32)
        .map(|cell| CellSummary::empty(CellId(cell), SimTime::ZERO, PROBE_HOSTS, capacity))
        .collect();
    router.refresh(summaries);
    let oracle = OraclePredictor::new();
    let started = Instant::now();
    for event in &events {
        black_box(router.route(event, &oracle));
    }
    probes.route_ns = per_op(started, events.len());

    Ok(probes)
}

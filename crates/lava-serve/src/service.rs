//! The placement service engine: a virtual-time single-server queueing
//! system over the fleet router and per-cell schedulers.

use crate::health::HealthTracker;
use crate::queue::BoundedQueue;
use lava_core::cell::CellId;
use lava_core::events::TraceEvent;
use lava_core::hash::mix64;
use lava_core::latency::LatencyHistogram;
use lava_core::serve::{Micros, PlaceOutcome, PlaceRequest, Rejected};
use lava_core::time::Duration;
use lava_core::vm::{Vm, VmId};
use lava_model::adaptive::SwappablePredictor;
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::scheduler::Scheduler;
use lava_sim::arrivals::{AdmissionPolicy, ArrivalGenerator, ServeConfig, MAX_EPOCHS};
use lava_sim::chaos::{AdaptationSpec, ChaosArrivals, ChaosController, Incident, IncidentPlan};
use lava_sim::experiment::{ExperimentSpec, SpecError};
use lava_sim::fleet::{FleetConfig, Router, SUMMARY_SAMPLE_CAP};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

pub use crate::report::{EpochStats, ServeError, ServeReport};

/// What a timeline entry does when it comes due. The declaration order is
/// the tiebreak between entries due at the same instant; the `u64` beside
/// each rank in a timeline key is noted per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ServeRank {
    /// An incident recovers (plan index). Ends precede starts, so a
    /// recovery due with the next incident's start applies first.
    IncidentEnd,
    /// An incident starts (plan index).
    IncidentStart,
    /// The router's cell summaries refresh (always 0).
    Refresh,
    /// A placed VM exits (VM id), freeing capacity before a decision at
    /// the same instant could use it.
    Release,
    /// A retry's backoff ends and it re-enters the queue (park sequence
    /// number), before the decision at the same instant takes the head.
    Retry,
    /// The queue head's decision starts. Never pushed: it is the
    /// candidate `(max(server free, head arrival), Decide, 0)`.
    Decide,
}

/// A timeline key: due instant, rank, and the rank's `u64`.
type Entry = (Micros, ServeRank, u64);

/// The request-driven placement engine.
///
/// One `PlacementService` wraps a fleet — a [`Router`] and one
/// [`Scheduler`] per cell — behind a bounded place queue and runs it as a
/// single-server queueing system in microsecond virtual time ([`Micros`]):
///
/// 1. **Admission** happens at arrival time: a physically full queue
///    rejects with [`Rejected::QueueFull`]; otherwise the configured
///    [`AdmissionPolicy`] may shed with a retry-after hint.
/// 2. **Service** consumes the queue in FIFO order. A decision starts at
///    `max(server free, request arrival)`, routes the request through the
///    fleet router, asks the routed cell's scheduler for a host
///    ([`Scheduler::schedule_costed`]) and completes after the virtual
///    service time the [`ServiceModel`](lava_sim::arrivals::ServiceModel)
///    assigns to that decision's cost.
/// 3. **Releases** — each placed VM's exit, scheduled when it is placed —
///    share one virtual timeline with decisions, so capacity frees exactly
///    when it should relative to them.
///
/// The timeline is one min-heap of `(due, rank, u64)` keys plus the queue
/// head's decision candidate; the engine always takes the smaller of the
/// two. Entries due at the same instant run in rank order:
///
/// | rank | `u64` | notes |
/// |---|---|---|
/// | incident end | plan index | a recovery precedes a start at the same instant |
/// | incident start | plan index | every later entry sees the new fault state |
/// | refresh | 0 | fires only while another entry or a queued request is pending |
/// | release | VM id | capacity frees before the decision that could use it |
/// | retry | park sequence number | re-enters the queue before the decision takes the head |
/// | decide | — | never pushed: `max(server free, head arrival)` |
///
/// Everything is a pure function of (config, seed): no wall clock, no
/// thread scheduling, no hashing nondeterminism — the decision digest of
/// a run replays bit-identically.
///
/// With [`PlacementService::attach_incidents`] the engine also executes a
/// deterministic [`IncidentPlan`] on its own clock (outage/degradation
/// starts and recoveries fire between decisions, in virtual-timestamp
/// order), and with [`ServeConfig::breakers`] a [`HealthTracker`] layers
/// per-cell circuit breakers, failover and brownout over the router.
pub struct PlacementService {
    config: ServeConfig,
    /// The latest arrival instant offered so far.
    now: Micros,
    /// When the decision server frees up.
    busy_until: Micros,
    /// Virtual service time of the most recent decision (retry-after
    /// estimates).
    last_service: Micros,
    queue: BoundedQueue<Queued>,
    router: Router,
    cells: Vec<Scheduler>,
    /// Per-cell breakers (present when `config.breakers` is set).
    health: Option<HealthTracker>,
    /// Executes runtime incidents against the cells (attached plans only).
    chaos: Option<ChaosController>,
    /// The attached plan's incidents, for target-cell lookup.
    incidents: Vec<Incident>,
    /// Shared by the router and the admission policy (the cells predict
    /// through their policies' own clones).
    predictor: Arc<dyn LifetimePredictor>,
    /// Every pending entry but the queue head's decision (see the rank
    /// table above).
    timeline: BinaryHeap<Reverse<Entry>>,
    /// Retries sitting out their backoff, by park sequence number, with
    /// the cell whose failure parked them. They live outside the FIFO
    /// queue so a delayed retry never head-of-line blocks ready requests
    /// behind it — the server stays work-conserving through breaker
    /// cooldowns.
    backoff: BTreeMap<u64, (usize, Queued)>,
    retry_seq: u64,
    refresh_every: Micros,
    offered: u64,
    placed: u64,
    no_capacity: u64,
    shed: u64,
    queue_full: u64,
    deadline_exceeded: u64,
    retried: u64,
    failovers: u64,
    released: u64,
    latency: LatencyHistogram,
    epochs: Vec<EpochStats>,
    digest: u64,
}

/// A queue entry: the (possibly re-queued) request plus its *original*
/// submission time, which terminal latency is measured from — a request
/// that failed over through two retries still reports one end-to-end
/// latency.
#[derive(Debug)]
struct Queued {
    request: PlaceRequest,
    enqueued: Micros,
}

impl PlacementService {
    /// Build a service over pre-built cells.
    ///
    /// `cells` are (pool, policy) pairs as produced by
    /// [`FleetConfig::build_cells`]; `fleet` supplies the router spec and
    /// the summary-refresh cadence; `predictor` is shared by the router
    /// and the admission policy (the per-cell schedulers hold their own
    /// clone of it via their policies).
    /// `seed` feeds the health layer's backoff-jitter streams (ignored
    /// when `config.breakers` is off); pass the workload seed so the whole
    /// run remains a function of one seed.
    pub fn new(
        config: ServeConfig,
        fleet: &FleetConfig,
        cells: Vec<lava_sim::fleet::FleetCell>,
        predictor: Arc<dyn LifetimePredictor>,
        seed: u64,
    ) -> PlacementService {
        let router = Router::new(fleet.router, cells.len());
        let schedulers: Vec<Scheduler> = cells
            .into_iter()
            .map(|cell| Scheduler::new(Cluster::new(cell.pool), cell.policy, predictor.clone()))
            .collect();
        let mut timeline = BinaryHeap::new();
        // Summary routers get their first snapshot before the first
        // decision, mirroring the batch fleet engine's epoch-start refresh.
        if router.needs_summaries() {
            timeline.push(Reverse((Micros::ZERO, ServeRank::Refresh, 0)));
        }
        let queue = BoundedQueue::new(config.queue_bound);
        let health = config
            .breakers
            .map(|breakers| HealthTracker::new(breakers, schedulers.len(), seed));
        PlacementService {
            config,
            now: Micros::ZERO,
            busy_until: Micros::ZERO,
            last_service: Micros::ZERO,
            queue,
            router,
            cells: schedulers,
            health,
            chaos: None,
            incidents: Vec::new(),
            predictor,
            timeline,
            backoff: BTreeMap::new(),
            retry_seq: 0,
            refresh_every: Micros::from_duration(fleet.summary_refresh),
            offered: 0,
            placed: 0,
            no_capacity: 0,
            shed: 0,
            queue_full: 0,
            deadline_exceeded: 0,
            retried: 0,
            failovers: 0,
            released: 0,
            latency: LatencyHistogram::new(),
            epochs: Vec::new(),
            digest: 0,
        }
    }

    /// Attach an [`IncidentPlan`]: its runtime incidents (cell outages,
    /// predictor degradations) are executed on this service's virtual
    /// clock, bridged from the plan's second-resolution offsets via
    /// [`Micros::from_duration`]. `adaptive` is the predictor hot-swap
    /// seam degradations act through (pass the [`SwappablePredictor`] the
    /// cells were built over, or `None` to ignore degradations).
    ///
    /// Stream-level incidents (storms, drift) are not handled here — wrap
    /// the arrival stream in [`ChaosArrivals`] for those.
    ///
    /// # Errors
    ///
    /// Whatever [`IncidentPlan::validate`] rejects for this fleet size.
    pub fn attach_incidents(
        &mut self,
        plan: &IncidentPlan,
        adaptive: Option<Arc<SwappablePredictor>>,
    ) -> Result<(), SpecError> {
        plan.validate(self.cells.len())?;
        for (index, incident) in (0u64..).zip(&plan.incidents) {
            if !incident.is_runtime() {
                continue;
            }
            let start = Micros::from_duration(incident.start_offset());
            self.timeline
                .push(Reverse((start, ServeRank::IncidentStart, index)));
            if let Some(end) = incident.end_offset() {
                let end = Micros::from_duration(end);
                self.timeline
                    .push(Reverse((end, ServeRank::IncidentEnd, index)));
            }
        }
        self.incidents = plan.incidents.clone();
        self.chaos = Some(ChaosController::new(
            plan,
            &AdaptationSpec::default(),
            0,
            adaptive,
        ));
        Ok(())
    }

    /// Offer one placement request. Returns `Ok(())` if it was admitted to
    /// the queue, or the backpressure signal if it was rejected.
    pub fn offer(&mut self, request: PlaceRequest) -> Result<(), Rejected> {
        self.now = self.now.max(request.submitted);
        let now = self.now;
        self.drain_until(now);
        self.offered += 1;
        if let Some(epoch) = self.epoch_mut(now) {
            epoch.offered += 1;
        }

        if self.queue.len() >= self.queue.bound() {
            self.queue_full += 1;
            return Err(Rejected::QueueFull);
        }
        if let Some(threshold) = self.config.admission.shed_threshold() {
            // Brownout tightens shedding: with most cells tripped the
            // fleet's effective decision capacity is a fraction of
            // nominal, so the backlog worth queueing is too.
            let threshold = if self.health.as_ref().is_some_and(|h| h.in_brownout()) {
                (threshold / 2).max(1)
            } else {
                threshold
            };
            if self.queue.len() >= threshold && !self.spared(&request, now) {
                self.shed += 1;
                // Advisory backoff: the excess backlog times a typical
                // decision, i.e. roughly when the queue drains back below
                // the threshold.
                let excess = (self.queue.len() + 1 - threshold) as u64;
                let typical = self
                    .last_service
                    .as_micros()
                    .max(self.config.service.base_decision_us);
                return Err(Rejected::Shed {
                    retry_after: Micros(excess.saturating_mul(typical)),
                });
            }
        }
        let enqueued = request.submitted;
        self.queue
            .push(Queued { request, enqueued })
            .expect("depth checked against bound above");
        Ok(())
    }

    /// Whether a lifetime-aware policy spares this request from shedding.
    fn spared(&self, request: &PlaceRequest, now: Micros) -> bool {
        match self.config.admission {
            AdmissionPolicy::LifetimeShed { min_predicted, .. } => {
                let at = now.to_sim_time();
                let record = Vm::new(request.vm, request.spec.clone(), at, request.lifetime);
                self.predictor.predict_remaining(&record, at) >= min_predicted
            }
            _ => false,
        }
    }

    /// Run every timeline entry and queued decision due up to `now`, in
    /// `(due, rank, u64)` order.
    fn drain_until(&mut self, now: Micros) {
        loop {
            let decide = self.queue.peek().map(|head| {
                let start = self.busy_until.max(head.request.submitted);
                (start, ServeRank::Decide, 0)
            });
            let Some((at, rank, key)) = self
                .timeline
                .peek()
                .map(|e| e.0)
                .into_iter()
                .chain(decide)
                .min()
            else {
                break;
            };
            // A refresh only matters to a later entry or decision; alone,
            // it would keep an idle service (and `finish`) looping.
            let idle = self.timeline.len() == 1 && self.queue.is_empty();
            if at > now || (rank == ServeRank::Refresh && idle) {
                break;
            }
            if rank != ServeRank::Decide {
                self.timeline.pop();
            }
            match rank {
                ServeRank::IncidentEnd | ServeRank::IncidentStart => {
                    self.apply_incident(at, rank, key)
                }
                ServeRank::Refresh => self.refresh_summaries(at),
                ServeRank::Release => self.apply_release(at, VmId(key)),
                ServeRank::Retry => self.unpark(at, key),
                ServeRank::Decide => {
                    let queued = self.queue.pop().expect("the candidate is the queue head");
                    self.decide(queued, at);
                }
            }
        }
    }

    /// Execute one incident action through the attached controller,
    /// against the incident's target cell (degradations act through the
    /// predictor seam; the scheduler argument is inert for them).
    fn apply_incident(&mut self, at: Micros, rank: ServeRank, index: u64) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let cell = match self.incidents.get(index as usize) {
            Some(Incident::CellOutage { cell, .. }) => *cell as usize,
            _ => 0,
        };
        if rank == ServeRank::IncidentStart {
            chaos.start(index as u32, &mut self.cells[cell], at.to_sim_time());
        } else {
            chaos.end(index as u32, &mut self.cells[cell]);
        }
    }

    /// The epoch stats bucket containing `at` (grown on demand), or `None`
    /// when the epoch series is disabled.
    fn epoch_mut(&mut self, at: Micros) -> Option<&mut EpochStats> {
        let len_us = self.config.epoch?.as_micros().max(1);
        let idx = ((at.as_micros() / len_us) as usize).min(MAX_EPOCHS - 1);
        while self.epochs.len() <= idx {
            let start = Micros(self.epochs.len() as u64 * len_us);
            self.epochs.push(EpochStats {
                start,
                offered: 0,
                placed: 0,
                deadline_exceeded: 0,
                latency: LatencyHistogram::new(),
            });
        }
        Some(&mut self.epochs[idx])
    }

    /// Refresh the router's frozen cell summaries at an epoch boundary,
    /// and schedule the next boundary.
    fn refresh_summaries(&mut self, at: Micros) {
        let sim_now = at.to_sim_time();
        let summaries = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| cell.cell_summary(CellId(i as u32), sim_now, SUMMARY_SAMPLE_CAP))
            .collect();
        self.router.refresh(summaries);
        let next = at + self.refresh_every;
        self.timeline.push(Reverse((next, ServeRank::Refresh, 0)));
    }

    /// Re-inject a parked retry whose backoff has elapsed. If the queue
    /// filled while the retry waited, it resolves terminally instead —
    /// NoCapacity against the cell whose failure parked it — so parked
    /// work can never be lost or overflow the bound.
    fn unpark(&mut self, due: Micros, seq: u64) {
        let (cell, queued) = self
            .backoff
            .remove(&seq)
            .expect("a retry entry has a parked request");
        if let Err(queued) = self.queue.push(queued) {
            let Queued { request, enqueued } = queued;
            self.no_capacity += 1;
            let latency_us = due.as_micros().saturating_sub(enqueued.as_micros()) as f64;
            self.latency.record(latency_us);
            if let Some(epoch) = self.epoch_mut(due) {
                epoch.latency.record(latency_us);
            }
            self.digest = mix64(
                self.digest
                    ^ mix64(request.id.0)
                    ^ mix64(due.as_micros())
                    ^ mix64(2 ^ ((cell as u64) << 8)),
            );
        }
    }

    /// Apply one VM exit: route it to the cell that placed the VM and free
    /// the capacity there.
    fn apply_release(&mut self, due: Micros, vm: VmId) {
        let sim_now = due.to_sim_time();
        let cell = self
            .router
            .route(&TraceEvent::exit(sim_now, vm), &*self.predictor);
        // A release for a VM the cell rejected (or never saw) is a no-op.
        if self.cells[cell].exit(vm, sim_now).is_ok() {
            self.released += 1;
        }
    }

    /// Serve one admitted request: expire, or route (with health-layer
    /// failover), place, and account the decision.
    fn decide(&mut self, queued: Queued, start: Micros) {
        let Queued { request, enqueued } = queued;
        // A request whose deadline passed before its decision could start
        // resolves to `deadline_exceeded` without consuming the server — the
        // caller is gone, so burning a decision slot would only delay live
        // requests. The same rule governs the final drain in `finish`: a
        // still-queued request past its deadline is never silently placed
        // late.
        if request.deadline.is_some_and(|deadline| start > deadline) {
            self.deadline_exceeded += 1;
            if let Some(epoch) = self.epoch_mut(start) {
                epoch.deadline_exceeded += 1;
            }
            self.digest =
                mix64(self.digest ^ mix64(request.id.0) ^ mix64(start.as_micros()) ^ mix64(3));
            return;
        }

        let sim_now = start.to_sim_time();
        let event = TraceEvent::create(sim_now, request.vm, request.spec.clone(), request.lifetime);
        // Always consult the router first — its bookkeeping (pins,
        // in-flight CPU, cursor) must advance identically whether or not
        // the health layer overrides the choice.
        let primary = self.router.route(&event, &*self.predictor);
        let mut cell = primary;
        if let Some(health) = self.health.as_mut() {
            if health.in_brownout() {
                // Most summaries describe tripped cells: hash over the
                // closed ones instead of trusting the policy's choice.
                if let Some(target) = health.brownout_target(request.vm.0, start) {
                    cell = target;
                }
            } else if !health.primary_routable(primary, start) {
                if let Some(target) = health.failover_target(primary, start) {
                    cell = target;
                }
            }
            if cell != primary {
                self.failovers += 1;
                self.router.repin(
                    request.vm,
                    primary,
                    cell,
                    request.spec.resources().cpu_milli,
                );
            }
        }

        let record = Vm::new(request.vm, request.spec.clone(), sim_now, request.lifetime);
        let (placed, cost) = self.cells[cell].schedule_costed(record, sim_now);
        let service_time = self.config.service.service_time(cost.hosts, cost.live_vms);
        let decided = start + service_time;
        self.busy_until = decided;
        self.last_service = service_time;

        let outcome = match placed {
            Ok(host) => {
                if let Some(health) = self.health.as_mut() {
                    health.on_success(cell, decided);
                }
                self.placed += 1;
                // Schedule the VM's own exit so capacity frees itself —
                // the internal half of the release stream.
                let exit =
                    decided + Micros::from_duration(request.lifetime.max(Duration::from_secs(1)));
                self.timeline
                    .push(Reverse((exit, ServeRank::Release, request.vm.0)));
                PlaceOutcome::Placed {
                    cell: CellId(cell as u32),
                    host,
                }
            }
            Err(_) => {
                if let Some(health) = self.health.as_mut() {
                    health.on_failure(cell, decided);
                }
                // Retry budget left and queue space for it: park the
                // request (non-terminal) until the failed cell's breaker
                // backoff — or one typical service time when the breaker
                // is closed/absent — elapses. Parked retries sit outside
                // the FIFO queue and re-enter when due, so the backoff
                // delays only the retry, never the requests behind it.
                if request.retries > 0 && self.queue.len() < self.queue.bound() {
                    let backoff = self
                        .health
                        .as_mut()
                        .and_then(|h| h.retry_backoff(cell, decided))
                        .unwrap_or(service_time)
                        .max(Micros(1));
                    let mut retry = request;
                    retry.retries -= 1;
                    retry.submitted = decided + backoff;
                    self.retried += 1;
                    self.digest = mix64(
                        self.digest
                            ^ mix64(retry.id.0)
                            ^ mix64(decided.as_micros())
                            ^ mix64(4 ^ ((cell as u64) << 8)),
                    );
                    self.retry_seq += 1;
                    let entry = (retry.submitted, ServeRank::Retry, self.retry_seq);
                    self.timeline.push(Reverse(entry));
                    let queued = Queued {
                        request: retry,
                        enqueued,
                    };
                    self.backoff.insert(self.retry_seq, (cell, queued));
                    return;
                }
                self.no_capacity += 1;
                PlaceOutcome::NoCapacity {
                    cell: CellId(cell as u32),
                }
            }
        };
        let latency_us = decided.saturating_since(enqueued).as_micros() as f64;
        self.latency.record(latency_us);
        if let Some(epoch) = self.epoch_mut(decided) {
            if matches!(outcome, PlaceOutcome::Placed { .. }) {
                epoch.placed += 1;
            }
            epoch.latency.record(latency_us);
        }
        self.digest = mix64(
            self.digest
                ^ mix64(request.id.0)
                ^ mix64(decided.as_micros())
                ^ match outcome {
                    PlaceOutcome::Placed { cell, host } => {
                        mix64(1 ^ ((cell.0 as u64) << 8) ^ (host.0 << 24))
                    }
                    PlaceOutcome::NoCapacity { cell } => mix64(2 ^ ((cell.0 as u64) << 8)),
                },
        );
    }

    /// Pre-size every cell's VM bookkeeping for a run of ids up to
    /// `max_id` with at most `live` concurrently-live VMs (see
    /// [`Cluster::reserve_vm_capacity`]). With this done up front,
    /// steady-state decisions never grow the flat id tables — the
    /// serve-path allocation test pins decisions at zero heap allocs.
    pub fn reserve_vm_capacity(&mut self, max_id: u64, live: usize) {
        for cell in &mut self.cells {
            cell.cluster_mut().reserve_vm_capacity(max_id, live);
        }
    }

    /// Drain every queued decision and pending release, then produce the
    /// run's report. `horizon` is the offered-arrival window goodput is
    /// normalised over.
    pub fn finish(mut self, horizon: Micros) -> ServeReport {
        // Everything still queued gets served — except requests whose
        // deadline has already passed by the time their decision could
        // start, which `decide` resolves to `deadline_exceeded`; releases
        // beyond the horizon just unwind bookkeeping.
        self.drain_until(Micros(u64::MAX));
        ServeReport {
            offered: self.offered,
            placed: self.placed,
            no_capacity: self.no_capacity,
            shed: self.shed,
            queue_full: self.queue_full,
            deadline_exceeded: self.deadline_exceeded,
            retried: self.retried,
            failovers: self.failovers,
            breaker_trips: self.health.as_ref().map_or(0, |h| h.trips()),
            released: self.released,
            latency: self.latency,
            queue_high_water: self.queue.high_water(),
            decision_digest: self.digest,
            horizon,
            epochs: self.epochs,
        }
    }
}

/// Run the serving scenario an [`ExperimentSpec`] describes: build the
/// fleet (or a single default cell), generate the open-loop arrival
/// stream, offer every request, and report.
///
/// # Errors
///
/// [`ServeError::MissingServeConfig`] when the spec has no `serve`
/// section; [`ServeError::Spec`] when validation fails.
pub fn run_serve(spec: &ExperimentSpec) -> Result<ServeReport, ServeError> {
    spec.validate()?;
    let serve = spec.serve.clone().ok_or(ServeError::MissingServeConfig)?;
    let fleet = spec.fleet.clone().unwrap_or_else(|| FleetConfig::new(1));
    let base_predictor = spec.predictor.build(&spec.workload);
    // The hot-swap seam is interposed only when incidents are scheduled,
    // so incident-free runs stay bit-identical to the pre-chaos engine.
    let chaos_active = !spec.incidents.is_empty();
    let (predictor, swap): (Arc<dyn LifetimePredictor>, Option<Arc<SwappablePredictor>>) =
        if chaos_active {
            let swap = SwappablePredictor::new(base_predictor);
            (swap.clone(), Some(swap))
        } else {
            (base_predictor, None)
        };
    let cells = fleet.build_cells(&spec.workload, |_| {
        (spec.policy.build(predictor.clone()), None)
    });
    let mut service =
        PlacementService::new(serve.clone(), &fleet, cells, predictor, spec.workload.seed);
    if chaos_active {
        service.attach_incidents(&spec.incidents, swap)?;
    }

    let workload = lava_sim::workload::WorkloadGenerator::new(spec.workload.clone());
    let horizon = Micros::from_duration(spec.workload.duration);
    let arrivals = ArrivalGenerator::from_config(workload, &serve, horizon);
    let mut stream = ChaosArrivals::new(arrivals, &spec.incidents, &serve);
    while let Some(request) = stream.next_request() {
        let _ = service.offer(request);
    }
    Ok(service.finish(horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::time::Duration;
    use lava_sched::Algorithm;
    use lava_sim::arrivals::ArrivalProcess;
    use lava_sim::experiment::{Experiment, PredictorSpec};
    use lava_sim::RouterSpec;

    fn serve_spec(seed: u64, rate: f64) -> ExperimentSpec {
        Experiment::builder()
            .name("serve-test")
            .hosts(24)
            .duration(Duration::from_mins(30))
            .seed(seed)
            .predictor(PredictorSpec::Oracle)
            .algorithm(Algorithm::Nilas)
            .serve(ServeConfig::at_rate(rate))
            .build()
            .expect("valid spec")
    }

    /// An overload scenario that stays cheap to execute: a deliberately
    /// slow decision server (~500 decisions/s) offered 2× its capacity
    /// for 20 virtual seconds.
    fn overload_spec(seed: u64) -> (ExperimentSpec, ServeConfig) {
        let mut spec = serve_spec(seed, 1000.0);
        spec.workload.duration = Duration::from_secs(20);
        let serve = ServeConfig::at_rate(1000.0).with_service(lava_sim::arrivals::ServiceModel {
            base_decision_us: 2000,
            per_host_ns: 500,
            per_vm_ns: 100,
        });
        (spec, serve)
    }

    #[test]
    fn documented_tiebreak_order_at_equal_timestamps() {
        let t = Micros(100);
        // Pushed in reverse rank order, with keys that would invert the
        // order if they, rather than the rank, broke the tie.
        let mut timeline: BinaryHeap<Reverse<Entry>> = [
            (ServeRank::Retry, 0),
            (ServeRank::Release, 1),
            (ServeRank::Refresh, 0),
            (ServeRank::IncidentStart, 2),
            (ServeRank::IncidentEnd, 3),
        ]
        .into_iter()
        .map(|(rank, key)| Reverse((t, rank, key)))
        .collect();
        let decide = (t, ServeRank::Decide, 0);
        let order: Vec<ServeRank> = std::iter::from_fn(|| timeline.pop())
            .map(|Reverse(entry)| {
                assert!(entry < decide, "{entry:?} must precede the decision");
                entry.1
            })
            .collect();
        assert_eq!(
            order,
            [
                ServeRank::IncidentEnd,
                ServeRank::IncidentStart,
                ServeRank::Refresh,
                ServeRank::Release,
                ServeRank::Retry,
            ]
        );
        // Within one rank the key orders: releases by VM id.
        timeline.push(Reverse((t, ServeRank::Release, 9)));
        timeline.push(Reverse((t, ServeRank::Release, 4)));
        assert_eq!(timeline.pop(), Some(Reverse((t, ServeRank::Release, 4))));
    }

    #[test]
    fn missing_serve_config_is_an_error() {
        let mut spec = serve_spec(1, 10.0);
        spec.serve = None;
        assert_eq!(
            run_serve(&spec).map(|_| ()),
            Err(ServeError::MissingServeConfig)
        );
    }

    #[test]
    fn invalid_spec_is_surfaced() {
        let mut spec = serve_spec(1, 10.0);
        spec.serve = Some(ServeConfig::at_rate(0.0));
        assert!(matches!(run_serve(&spec), Err(ServeError::Spec(_))));
    }

    #[test]
    fn light_decision_load_keeps_latency_near_service_time() {
        // 5 req/s against a ~4000/s decision server: the queue never
        // builds, so every admitted request's latency is one service time.
        // (The 24-host *pool* does saturate — lifetimes are hours — so
        // NoCapacity decisions are expected physics; the serving tier's
        // own observables are what this test pins.)
        let report = run_serve(&serve_spec(3, 5.0)).expect("runs");
        assert!(report.offered > 1000, "offered {}", report.offered);
        assert_eq!(report.shed, 0);
        assert_eq!(report.queue_full, 0);
        assert_eq!(report.placed + report.no_capacity, report.offered);
        assert!(report.placed > 0);
        assert_eq!(report.latency.count(), report.offered);
        assert!(
            report.latency.quantile(0.5) < 5_000.0,
            "p50 {}",
            report.latency.quantile(0.5)
        );
        assert_eq!(report.shed_rate(), 0.0);
        assert!(report.queue_high_water <= 2);
    }

    #[test]
    fn replay_is_bit_identical() {
        let a = run_serve(&serve_spec(7, 20.0)).expect("runs");
        let b = run_serve(&serve_spec(7, 20.0)).expect("runs");
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
        let c = run_serve(&serve_spec(8, 20.0)).expect("runs");
        assert_ne!(a.decision_digest, c.decision_digest);
    }

    #[test]
    fn tiny_queue_signals_queue_full() {
        let (mut spec, serve) = overload_spec(5);
        spec.serve = Some(serve.with_queue_bound(4));
        let report = run_serve(&spec).expect("runs");
        assert!(report.queue_full > 0, "expected QueueFull rejections");
        assert!(report.queue_high_water <= 4);
        assert!(report.shed_rate() > 0.0);
    }

    #[test]
    fn depth_shed_keeps_queue_below_bound() {
        let (mut spec, serve) = overload_spec(5);
        spec.serve = Some(
            serve
                .with_queue_bound(64)
                .with_admission(AdmissionPolicy::DepthShed { shed_threshold: 8 }),
        );
        let report = run_serve(&spec).expect("runs");
        assert!(report.shed > 0, "expected sheds");
        assert_eq!(report.queue_full, 0, "shedding must preempt QueueFull");
        // The shed threshold caps the backlog well below the bound.
        assert!(
            report.queue_high_water <= 9,
            "high water {}",
            report.queue_high_water
        );
    }

    #[test]
    fn lifetime_shed_spares_long_lived_vms() {
        let (mut spec, serve) = overload_spec(5);
        spec.serve = Some(serve.with_queue_bound(64).with_admission(
            AdmissionPolicy::LifetimeShed {
                shed_threshold: 8,
                min_predicted: Duration::from_hours(12),
            },
        ));
        let report = run_serve(&spec).expect("runs");
        assert!(report.shed > 0);
        // Sparing long-lived VMs lets the queue exceed the bare threshold.
        assert!(report.queue_high_water > 8);
    }

    #[test]
    fn fleet_run_routes_across_cells() {
        let mut spec = serve_spec(11, 40.0);
        spec.workload.hosts = 32;
        spec.workload.duration = Duration::from_mins(10);
        spec.fleet = Some(FleetConfig::new(4).with_router(RouterSpec::LifetimeAware));
        let report = run_serve(&spec).expect("runs");
        assert!(report.offered > 1000);
        assert!(report.placed > 0);
        assert_eq!(report.placed + report.no_capacity, report.offered);
    }

    #[test]
    fn overload_with_deadlines_expires_requests() {
        let (mut spec, serve) = overload_spec(5);
        spec.serve = Some(serve.with_deadline(Micros::from_millis(50)));
        let report = run_serve(&spec).expect("runs");
        assert!(
            report.deadline_exceeded > 0,
            "expected expiries in overload"
        );
        assert!(report.conservation_holds());
        // Expiries never consume the decision server: latency covers
        // exactly the decided (terminal) requests.
        assert_eq!(report.latency.count(), report.placed + report.no_capacity);
    }

    #[test]
    fn retry_budget_requeues_capacity_failures() {
        let (mut spec, serve) = overload_spec(5);
        spec.serve = Some(serve.with_retry_budget(2));
        let report = run_serve(&spec).expect("runs");
        assert!(report.retried > 0, "expected retries under saturation");
        assert!(report.conservation_holds());
        // Retries are non-terminal: each request still reports exactly one
        // end-to-end latency.
        assert_eq!(report.latency.count(), report.placed + report.no_capacity);
        let replay = {
            let (mut spec, serve) = overload_spec(5);
            spec.serve = Some(serve.with_retry_budget(2));
            run_serve(&spec).expect("runs")
        };
        assert_eq!(report.decision_digest, replay.decision_digest);
    }

    #[test]
    fn finish_expires_still_queued_requests_past_deadline() {
        use lava_core::resources::Resources;
        use lava_core::serve::RequestId;
        use lava_core::vm::VmSpec;
        use lava_model::predictor::OraclePredictor;
        use lava_sched::baseline::BestFitPolicy;
        use lava_sched::policy::PlacementPolicy;
        use lava_sim::workload::PoolConfig;

        // A 1s-per-decision server offered 5 requests at ~t=0 with 5ms
        // deadlines: the first decision starts on time, the rest are still
        // queued when the run finishes and must resolve `deadline_exceeded` —
        // not be silently placed long past their deadline.
        let config = ServeConfig::at_rate(10.0)
            .with_service(lava_sim::arrivals::ServiceModel {
                base_decision_us: 1_000_000,
                per_host_ns: 0,
                per_vm_ns: 0,
            })
            .with_deadline(Micros::from_millis(5));
        let fleet = FleetConfig::new(1);
        let pool = PoolConfig {
            hosts: 4,
            initial_fill_fraction: 0.0,
            ..PoolConfig::default()
        };
        let cells = fleet.build_cells(&pool, |_| {
            (Box::new(BestFitPolicy) as Box<dyn PlacementPolicy>, None)
        });
        let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let mut service = PlacementService::new(config, &fleet, cells, predictor, 1);
        for i in 0..5u64 {
            let request = PlaceRequest {
                id: RequestId(i),
                vm: VmId(i),
                spec: VmSpec::builder(Resources::cores_gib(2, 8)).build(),
                lifetime: Duration::from_hours(1),
                submitted: Micros(i),
                deadline: Some(Micros(i) + Micros::from_millis(5)),
                retries: 0,
            };
            service.offer(request).expect("queue has room");
        }
        let report = service.finish(Micros::from_secs(1));
        assert_eq!(report.offered, 5);
        assert_eq!(report.placed, 1);
        assert_eq!(report.deadline_exceeded, 4);
        assert!(report.conservation_holds());
        assert_eq!(report.latency.count(), 1);
    }

    fn outage_spec(
        seed: u64,
        breakers: Option<lava_sim::arrivals::BreakerConfig>,
    ) -> ExperimentSpec {
        use lava_sim::chaos::OutageMode;
        let mut spec = serve_spec(seed, 20.0);
        spec.workload.hosts = 120;
        spec.workload.initial_fill_fraction = 0.0;
        spec.workload.duration = Duration::from_mins(5);
        spec.fleet = Some(FleetConfig::new(4).with_router(RouterSpec::Hash));
        let mut serve = ServeConfig::at_rate(20.0);
        serve.breakers = breakers;
        spec.serve = Some(serve);
        spec.incidents = IncidentPlan {
            seed: 5,
            incidents: vec![Incident::CellOutage {
                cell: 1,
                hosts: None,
                mode: OutageMode::Drain,
                at: Duration::from_secs(60),
                recovery: Some(Duration::from_secs(120)),
            }],
        };
        spec
    }

    #[test]
    fn outage_trips_breakers_and_fails_over() {
        let breakers = lava_sim::arrivals::BreakerConfig::default();
        let plain = run_serve(&outage_spec(21, None)).expect("runs");
        let armed = run_serve(&outage_spec(21, Some(breakers))).expect("runs");
        // Without a health layer the outage burns every cell-1 request.
        assert!(plain.no_capacity > 0, "outage must surface as no_capacity");
        assert_eq!(plain.breaker_trips, 0);
        assert_eq!(plain.failovers, 0);
        // With breakers, cell 1 trips and traffic fails over to live cells.
        assert!(armed.breaker_trips >= 1, "trips {}", armed.breaker_trips);
        assert!(armed.failovers > 0, "failovers {}", armed.failovers);
        assert!(
            armed.placed > plain.placed,
            "failover goodput: armed {} vs plain {}",
            armed.placed,
            plain.placed
        );
        assert!(
            armed.no_capacity < plain.no_capacity,
            "armed {} vs plain {}",
            armed.no_capacity,
            plain.no_capacity
        );
        assert!(plain.conservation_holds());
        assert!(armed.conservation_holds());
        // Bit-replay holds with the incident layer and health layer active.
        let replay = run_serve(&outage_spec(21, Some(breakers))).expect("runs");
        assert_eq!(armed.decision_digest, replay.decision_digest);
    }

    #[test]
    fn arrival_storm_inflates_offered_load() {
        let mut calm_spec = serve_spec(17, 20.0);
        calm_spec.workload.duration = Duration::from_mins(5);
        let calm = run_serve(&calm_spec).expect("runs");
        let mut stormy_spec = calm_spec.clone();
        stormy_spec.incidents = IncidentPlan {
            seed: 9,
            incidents: vec![Incident::ArrivalStorm {
                at: Duration::from_secs(60),
                duration: Duration::from_secs(30),
                vms: 500,
                cores: None,
                lifetime: None,
            }],
        };
        let stormy = run_serve(&stormy_spec).expect("runs");
        assert_eq!(stormy.offered, calm.offered + 500);
        assert!(stormy.conservation_holds());
        let replay = run_serve(&stormy_spec).expect("runs");
        assert_eq!(stormy.decision_digest, replay.decision_digest);
    }

    #[test]
    fn epoch_series_partitions_the_run() {
        let mut spec = serve_spec(19, 20.0);
        spec.workload.duration = Duration::from_mins(2);
        spec.serve = Some(ServeConfig::at_rate(20.0).with_epoch(Micros::from_secs(10)));
        let report = run_serve(&spec).expect("runs");
        assert!(!report.epochs.is_empty());
        assert!(report.epochs.len() <= 14, "epochs {}", report.epochs.len());
        let offered: u64 = report.epochs.iter().map(|e| e.offered).sum();
        assert_eq!(offered, report.offered);
        let placed: u64 = report.epochs.iter().map(|e| e.placed).sum();
        assert_eq!(placed, report.placed);
        for pair in report.epochs.windows(2) {
            assert!(pair[0].start < pair[1].start);
        }
    }

    #[test]
    fn burst_arrivals_run_end_to_end() {
        let mut spec = serve_spec(13, 50.0);
        spec.workload.duration = Duration::from_mins(10);
        spec.serve = Some(
            ServeConfig::at_rate(50.0).with_arrival(ArrivalProcess::Burst {
                period: Duration::from_secs(120),
                burst_len: Duration::from_secs(15),
                amplitude: 6.0,
            }),
        );
        let report = run_serve(&spec).expect("runs");
        assert!(report.offered > 1000);
        assert_eq!(report.placed + report.no_capacity, report.offered);
    }
}

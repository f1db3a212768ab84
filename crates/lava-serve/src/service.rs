//! The placement service engine: a virtual-time single-server queueing
//! system over the fleet router and per-cell schedulers.

use crate::health::HealthTracker;
use crate::queue::BoundedQueue;
use lava_core::cell::CellId;
use lava_core::events::TraceEvent;
use lava_core::hash::mix64;
use lava_core::latency::LatencyHistogram;
use lava_core::serve::{
    Micros, PlaceOutcome, PlaceRequest, PlaceResponse, Rejected, ReleaseRequest, VirtualClock,
};
use lava_core::time::Duration;
use lava_core::vm::{Vm, VmId};
use lava_model::adaptive::SwappablePredictor;
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::scheduler::Scheduler;
use lava_sim::arrivals::{AdmissionPolicy, ArrivalGenerator, ServeConfig};
use lava_sim::chaos::{AdaptationSpec, ChaosArrivals, ChaosController, Incident, IncidentPlan};
use lava_sim::experiment::{ExperimentSpec, SpecError};
use lava_sim::fleet::{FleetConfig, Router, SUMMARY_SAMPLE_CAP};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One epoch's slice of the serving run, for SLO-recovery analysis: the
/// chaos bench computes "epochs until p99 re-enters the steady band" over
/// this series.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// The epoch's start instant.
    pub start: Micros,
    /// Requests offered during the epoch (by arrival time).
    pub offered: u64,
    /// Requests placed during the epoch (by decision time).
    pub placed: u64,
    /// Requests that expired during the epoch (by expiry time).
    pub deadline_exceeded: u64,
    /// Latency of every terminal decision landing in the epoch.
    pub latency: LatencyHistogram,
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests offered (admitted + rejected).
    pub offered: u64,
    /// Requests placed on a host.
    pub placed: u64,
    /// Admitted requests that terminally failed for capacity: the routed
    /// cell had no feasible host and the retry budget was exhausted (or
    /// the retry could not be re-queued).
    pub no_capacity: u64,
    /// Requests shed by the admission policy.
    pub shed: u64,
    /// Requests rejected because the queue was physically full.
    pub queue_full: u64,
    /// Admitted requests whose deadline passed before their decision
    /// could start.
    pub deadline_exceeded: u64,
    /// Failed decisions that were re-queued under a retry budget
    /// (non-terminal; each re-queue counts once).
    pub retried: u64,
    /// Decisions redirected away from their primary cell by the health
    /// layer (breaker failover or brownout routing).
    pub failovers: u64,
    /// Circuit-breaker trips over the run.
    pub breaker_trips: u64,
    /// VM exits applied (internally scheduled ones plus external
    /// releases).
    pub released: u64,
    /// Enqueue-to-decision latency of every admitted request, in
    /// microseconds.
    pub latency: LatencyHistogram,
    /// Deepest the place queue ever was.
    pub queue_high_water: usize,
    /// Largest backlog of pending releases/exits.
    pub release_backlog_high_water: usize,
    /// Rolling hash over the full decision sequence (request id, outcome,
    /// cell/host, decision time — including expiries, retries and
    /// failover placements). Two runs of the same seed must produce the
    /// same digest — the deterministic-replay contract, incidents and all.
    pub decision_digest: u64,
    /// The offered-arrival horizon the run covered.
    pub horizon: Micros,
    /// Virtual time of the last decision.
    pub finished_at: Micros,
    /// Per-epoch series (empty unless [`ServeConfig::epoch`] is set).
    pub epochs: Vec<EpochStats>,
}

impl ServeReport {
    /// Successfully placed requests per offered second — the "useful work"
    /// rate the saturation sweep watches for collapse.
    pub fn goodput_per_sec(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.placed as f64 / secs
        }
    }

    /// Fraction of offered requests rejected before placement (shed or
    /// queue-full).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed + self.queue_full) as f64 / self.offered as f64
        }
    }

    /// The terminal-outcome conservation law: every offered request ends
    /// in exactly one of the five terminal buckets. Retries and failovers
    /// are non-terminal and deliberately absent.
    pub fn conservation_holds(&self) -> bool {
        self.offered
            == self.placed + self.no_capacity + self.shed + self.queue_full + self.deadline_exceeded
    }
}

/// Errors a serving run can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The spec has no `serve` section.
    MissingServeConfig,
    /// The spec failed validation.
    Spec(SpecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MissingServeConfig => {
                write!(f, "experiment spec has no serve configuration")
            }
            ServeError::Spec(e) => write!(f, "invalid spec: {e}"),
        }
    }
}

impl Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> ServeError {
        ServeError::Spec(e)
    }
}

/// The request-driven placement engine.
///
/// One `PlacementService` wraps a fleet — a [`Router`] and one
/// [`Scheduler`] per cell — behind a bounded place queue and runs it as a
/// single-server queueing system on a microsecond [`VirtualClock`]:
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
/// 3. **Releases** (internally scheduled VM exits, plus any external
///    [`ReleaseRequest`]s) are merged into the same virtual timeline, so
///    capacity frees exactly when it should relative to decisions.
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
    clock: VirtualClock,
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
    /// Pending incident actions as `(due, phase, index)`; phase 0 = end,
    /// 1 = start, so a recovery due at the same instant as the next
    /// incident's start applies first (plans forbid true overlap).
    incident_events: BinaryHeap<Reverse<(Micros, u8, u32)>>,
    /// Shared by the router and the admission policy (the cells predict
    /// through their policies' own clones).
    predictor: Arc<dyn LifetimePredictor>,
    /// Pending capacity releases: internally scheduled exits of placed
    /// VMs plus external release requests, ordered by due time then VM id.
    releases: BinaryHeap<Reverse<(Micros, VmId)>>,
    /// Retries sitting out their backoff, re-injected into the queue when
    /// due (see [`ParkedRetry`]).
    parked: BinaryHeap<Reverse<ParkedRetry>>,
    parked_seq: u64,
    release_backlog_high_water: usize,
    /// Next summary-refresh boundary (`Micros::MAX`-like sentinel when the
    /// router does not consume summaries).
    next_refresh: Option<Micros>,
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
    finished_at: Micros,
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

/// A retry waiting out its backoff before re-entering the decision
/// queue. Parked retries live outside the FIFO queue so a delayed retry
/// can never head-of-line block ready requests behind it — the server
/// stays work-conserving through breaker cooldowns. Ordered by due time,
/// with a parking sequence number breaking ties deterministically.
#[derive(Debug)]
struct ParkedRetry {
    due: Micros,
    seq: u64,
    /// The cell whose failure parked the retry (digest attribution if the
    /// queue is full at re-injection).
    cell: usize,
    queued: Queued,
}

impl PartialEq for ParkedRetry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl Eq for ParkedRetry {}

impl PartialOrd for ParkedRetry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ParkedRetry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Incident-action phases in [`PlacementService::incident_events`].
const INCIDENT_END: u8 = 0;
const INCIDENT_START: u8 = 1;

/// Hard cap on the per-epoch series; later activity is attributed to the
/// final epoch so a pathological drain can't balloon the report.
const MAX_EPOCHS: usize = 1 << 20;

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
        let refresh_every = Micros::from_duration(fleet.summary_refresh);
        // Summary routers get their first snapshot before the first
        // decision, mirroring the batch fleet engine's epoch-start refresh.
        let next_refresh = router.needs_summaries().then_some(Micros::ZERO);
        let queue = BoundedQueue::new(config.queue_bound);
        let health = config
            .breakers
            .map(|breakers| HealthTracker::new(breakers, schedulers.len(), seed));
        PlacementService {
            config,
            clock: VirtualClock::new(),
            busy_until: Micros::ZERO,
            last_service: Micros::ZERO,
            queue,
            router,
            cells: schedulers,
            health,
            chaos: None,
            incidents: Vec::new(),
            incident_events: BinaryHeap::new(),
            predictor,
            releases: BinaryHeap::new(),
            parked: BinaryHeap::new(),
            parked_seq: 0,
            release_backlog_high_water: 0,
            next_refresh,
            refresh_every,
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
            finished_at: Micros::ZERO,
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
        for (index, incident) in plan.incidents.iter().enumerate() {
            if !incident.is_runtime() {
                continue;
            }
            self.incident_events.push(Reverse((
                Micros::from_duration(incident.start_offset()),
                INCIDENT_START,
                index as u32,
            )));
            if let Some(end) = incident.end_offset() {
                self.incident_events.push(Reverse((
                    Micros::from_duration(end),
                    INCIDENT_END,
                    index as u32,
                )));
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
        let now = self.clock.advance_to(request.submitted);
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

    /// Submit an external release (VM exit). Releases are merged into the
    /// virtual timeline and applied at their submission time; they must
    /// name a VM this service placed.
    pub fn release(&mut self, release: ReleaseRequest) {
        let now = self.clock.advance_to(release.submitted);
        self.schedule_release(release.submitted.max(now), release.vm);
        self.drain_until(now);
    }

    fn schedule_release(&mut self, due: Micros, vm: VmId) {
        self.releases.push(Reverse((due, vm)));
        self.release_backlog_high_water = self.release_backlog_high_water.max(self.releases.len());
    }

    /// Process every incident action, release, refresh and queued decision
    /// due up to `now`, in virtual-timestamp order.
    fn drain_until(&mut self, now: Micros) {
        loop {
            // Next decision start, if the server could begin one.
            let decision_start = self
                .queue
                .peek()
                .map(|head| self.busy_until.max(head.request.submitted));
            let release_due = self.releases.peek().map(|Reverse((due, _))| *due);
            let retry_due = self.parked.peek().map(|Reverse(parked)| parked.due);
            // The earliest actionable service event; releases break ties
            // so capacity frees before the decision that could use it, and
            // parked retries re-enter the queue before the decision at the
            // same instant picks its next request.
            let next = [decision_start, release_due, retry_due]
                .into_iter()
                .flatten()
                .min();
            // Incident actions fire before any service event due at the
            // same instant (and fire up to `now` even when the service is
            // otherwise idle), so every decision sees the current fault
            // state.
            let bound = next.map_or(now, |n| n.min(now));
            if let Some(&Reverse((due, phase, index))) = self.incident_events.peek() {
                if due <= bound {
                    self.incident_events.pop();
                    self.apply_incident(due, phase, index);
                    continue;
                }
            }
            let Some(next) = next else { break };
            if next > now {
                break;
            }
            if let Some(refresh_at) = self.next_refresh {
                if refresh_at <= next {
                    self.refresh_summaries(refresh_at);
                    continue;
                }
            }
            if release_due.is_some_and(|e| e <= next) {
                let Reverse((due, vm)) = self.releases.pop().expect("peeked above");
                self.apply_release(due, vm);
            } else if retry_due.is_some_and(|d| d <= next) {
                let Reverse(parked) = self.parked.pop().expect("peeked above");
                self.unpark(parked);
            } else {
                let start = next;
                let queued = self.queue.pop().expect("peeked above");
                self.decide(queued, start);
            }
        }
    }

    /// Execute one incident action through the attached controller,
    /// against the incident's target cell (degradations act through the
    /// predictor seam; the scheduler argument is inert for them).
    fn apply_incident(&mut self, at: Micros, phase: u8, index: u32) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let cell = match self.incidents.get(index as usize) {
            Some(Incident::CellOutage { cell, .. }) => *cell as usize,
            _ => 0,
        };
        if phase == INCIDENT_START {
            chaos.start(index, &mut self.cells[cell], at.to_sim_time());
        } else {
            chaos.end(index, &mut self.cells[cell]);
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

    /// Refresh the router's frozen cell summaries at an epoch boundary.
    fn refresh_summaries(&mut self, at: Micros) {
        let sim_now = at.to_sim_time();
        let summaries = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| cell.cell_summary(CellId(i as u32), sim_now, SUMMARY_SAMPLE_CAP))
            .collect();
        self.router.refresh(summaries);
        self.next_refresh = Some(at + self.refresh_every);
    }

    /// Re-inject a parked retry whose backoff has elapsed. If the queue
    /// filled while the retry waited, it resolves terminally instead —
    /// NoCapacity against the cell whose failure parked it — so parked
    /// work can never be lost or overflow the bound.
    fn unpark(&mut self, parked: ParkedRetry) {
        let ParkedRetry {
            due, cell, queued, ..
        } = parked;
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
        // resolves to DeadlineExceeded without consuming the server — the
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
        self.finished_at = decided;

        let outcome = match placed {
            Ok(host) => {
                if let Some(health) = self.health.as_mut() {
                    health.on_success(cell, decided);
                }
                self.placed += 1;
                // Schedule the VM's own exit so capacity frees itself —
                // the internal half of the release stream.
                self.schedule_release(
                    decided + Micros::from_duration(request.lifetime.max(Duration::from_secs(1))),
                    request.vm,
                );
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
                    self.parked_seq += 1;
                    self.parked.push(Reverse(ParkedRetry {
                        due: retry.submitted,
                        seq: self.parked_seq,
                        cell,
                        queued: Queued {
                            request: retry,
                            enqueued,
                        },
                    }));
                    return;
                }
                self.no_capacity += 1;
                PlaceOutcome::NoCapacity {
                    cell: CellId(cell as u32),
                }
            }
        };
        let response = PlaceResponse {
            request: request.id,
            vm: request.vm,
            outcome,
            enqueued,
            decided,
        };
        let latency_us = response.latency().as_micros() as f64;
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
        // start, which `decide` resolves to DeadlineExceeded; releases
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
            release_backlog_high_water: self.release_backlog_high_water,
            decision_digest: self.digest,
            horizon,
            finished_at: self.finished_at,
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
        // queued when the run finishes and must resolve DeadlineExceeded —
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

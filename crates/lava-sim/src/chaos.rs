//! Deterministic fault injection and adaptive model management.
//!
//! Production fleets are not steady-state: cells lose capacity, model
//! serving pipelines go stale, and workload mixes shift faster than the
//! smooth `weekly_drift` the generator models. This module adds a
//! first-class **incident layer** to the experiment spec — seeded,
//! timeline-scheduled injections that perturb a run at exact simulation
//! times — plus the **adaptation loop** that reacts to them (online
//! quantile recalibration through the
//! [`SwappablePredictor`] seam).
//!
//! # Incident kinds
//!
//! * [`Incident::CellOutage`] — at time `at`, the first `hosts` hosts of a
//!   cell (in host-id order) become unavailable; `Drain` lets resident VMs
//!   run out, `HardKill` exits them immediately (in VM-id order). An
//!   optional `recovery` brings the hosts back.
//! * [`Incident::PredictorDegradation`] — the live predictor is swapped
//!   for a degraded variant ([`DegradedPredictor`]) mid-run and restored
//!   at `at + recovery`.
//! * [`Incident::DriftShift`] — a step change in the workload: every VM
//!   created at or after `at` has its ground-truth lifetime multiplied by
//!   `lifetime_scale` (its exit is re-synthesised accordingly). Models
//!   trained on the pre-shift distribution become systematically wrong.
//! * [`Incident::ArrivalStorm`] — a burst of correlated arrivals:
//!   `vms` extra VMs land uniformly inside `[at, at + duration)`, each
//!   exiting `lifetime` later.
//!
//! # Determinism
//!
//! Everything is derived from [`IncidentPlan::seed`] and the plan itself:
//! storm events are pre-generated at construction with a dedicated
//! [`ChaCha8Rng`] stream and merged in canonical
//! [`TraceEvent::sort_key`] order, outage host/VM selections iterate in
//! sorted-id order, and incident start/end actions are scheduled on the
//! per-cell [`Timeline`] with a documented
//! tiebreak (ends before starts, then plan order). Fleet runs with active
//! incidents therefore stay bit-identical at any worker-thread count —
//! enforced by the property tests in `tests/fleet_tier.rs`.
//!
//! # The adaptation loop
//!
//! [`AdaptationSpec`] adds a recalibration cadence: every
//! `recalibration.cadence`, the controller drains the scheduler's observed
//! signed residuals (`log10(actual) − log10(predicted)` at exit, see
//! [`Scheduler::take_model_residuals`]) and, given at least `min_samples`
//! observations, nudges the live predictor by the **damped median
//! residual** — the quantile-recalibration fit of
//! [`median_log10_residual`],
//! scaled by [`ChaosController::RECAL_GAIN`] and clamped per round.
//! Damping matters because residuals are recorded against placement-time
//! predictions: right after a correction the window still holds exits
//! fitted under the old offset, and a full-gain integrator double-counts
//! them and rings. A constant multiplicative bias (a drift shift, a
//! biased model) is cancelled within a handful of rounds; cells starved
//! of exits fall back to fitting whatever trickle they have
//! ([`ChaosController::RECAL_STARVATION_ROUNDS`]). The complementary
//! *degradation* path (misprediction-aware policy fallback toward
//! best-fit) lives in `lava-sched`
//! ([`FallbackSpec`](lava_sched::policy::FallbackSpec)).

use crate::arrivals::{ArrivalGenerator, ServeConfig};
use crate::experiment::SpecError;
use crate::timeline::{Timeline, TimelineAction};
use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::host::HostId;
use lava_core::resources::Resources;
use lava_core::serve::{Micros, PlaceRequest, RequestId};
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{VmId, VmSpec};
use lava_model::adaptive::{
    median_log10_residual, BiasedPredictor, StalePredictor, SwappablePredictor,
};
use lava_model::predictor::{LifetimePredictor, NoisyOraclePredictor};
use lava_sched::scheduler::Scheduler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Base of the VM-id range synthesized arrivals (storm VMs) draw from —
/// far above anything the workload generator produces, so storm ids never
/// collide with trace ids. The incident's plan index occupies bits 32–47
/// and the VM's number within its storm bits 0–31.
pub const STORM_VM_ID_BASE: u64 = 1 << 48;

/// How a cell outage removes capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OutageMode {
    /// Mark the hosts unavailable for new placements; resident VMs run to
    /// their natural exits (a graceful drain).
    #[default]
    Drain,
    /// Mark the hosts unavailable and exit every resident VM immediately
    /// (a correlated crash).
    HardKill,
}

/// Which degraded variant replaces the live predictor during a
/// [`Incident::PredictorDegradation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedPredictor {
    /// Freeze every VM at its scheduling-time prediction (a model-serving
    /// pipeline that stopped refreshing).
    Stale,
    /// Scale predictions by `1 + bias_pct / 100` (systematic train/serve
    /// skew).
    Biased {
        /// Bias percentage (−90 = predictions shrink to 10 %).
        bias_pct: i16,
    },
    /// Replace the model with a noisy oracle at the given per-VM accuracy.
    Noisy {
        /// Probability (percent) a prediction lands in the right bucket.
        accuracy_pct: u8,
    },
}

impl DegradedPredictor {
    /// Build the degraded variant around `base`, seeded from the plan.
    pub fn build(&self, base: Arc<dyn LifetimePredictor>, seed: u64) -> Arc<dyn LifetimePredictor> {
        match self {
            DegradedPredictor::Stale => Arc::new(StalePredictor::new(base)),
            DegradedPredictor::Biased { bias_pct } => {
                Arc::new(BiasedPredictor::new(base, *bias_pct))
            }
            DegradedPredictor::Noisy { accuracy_pct } => Arc::new(NoisyOraclePredictor::new(
                *accuracy_pct as f64 / 100.0,
                seed ^ 0xdecaf,
            )),
        }
    }
}

/// One scheduled injection. Times are offsets from simulation time zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Incident {
    /// A cell loses capacity at `at`.
    CellOutage {
        /// The affected cell (index into the fleet; 0 for single-cluster
        /// runs).
        #[serde(default)]
        cell: u32,
        /// Number of hosts taken out, lowest host ids first (`None` = the
        /// whole cell).
        #[serde(default)]
        hosts: Option<usize>,
        /// Drain or hard-kill.
        #[serde(default)]
        mode: OutageMode,
        /// When the outage starts.
        at: Duration,
        /// How long until the hosts come back (`None` = never).
        #[serde(default)]
        recovery: Option<Duration>,
    },
    /// The live predictor degrades at `at`.
    PredictorDegradation {
        /// The degraded variant to serve.
        degraded: DegradedPredictor,
        /// When the degradation starts.
        at: Duration,
        /// How long until the base model is restored (`None` = never).
        #[serde(default)]
        recovery: Option<Duration>,
    },
    /// A step change in the lifetime distribution at `at`: creates from
    /// then on have their ground-truth lifetime multiplied by
    /// `lifetime_scale`. When several shifts are present the latest one at
    /// or before a create applies (scales are absolute, not cumulative).
    DriftShift {
        /// When the shift lands.
        at: Duration,
        /// Multiplier on ground-truth lifetimes (finite, > 0).
        lifetime_scale: f64,
    },
    /// A burst of correlated arrivals inside `[at, at + duration)`.
    ArrivalStorm {
        /// When the storm starts.
        at: Duration,
        /// Length of the arrival window.
        duration: Duration,
        /// Number of extra VMs.
        vms: u32,
        /// Cores per storm VM; `None` = 4 (memory is 4 GiB per core).
        /// (`Option` rather than a named serde default because field
        /// defaults by path are not honoured inside enum variants.)
        #[serde(default)]
        cores: Option<u64>,
        /// Lifetime of each storm VM; `None` = 1 hour.
        #[serde(default)]
        lifetime: Option<Duration>,
    },
}

/// Storm VM shape defaults (see [`Incident::ArrivalStorm`]).
const STORM_DEFAULT_CORES: u64 = 4;
const STORM_DEFAULT_LIFETIME: Duration = Duration(3_600);

impl Incident {
    /// Whether this incident is executed by the per-cell
    /// [`ChaosController`] (as opposed to being applied entirely inside
    /// the event stream by [`ChaosSource`] / [`ChaosArrivals`]). Public so
    /// the serving tier can schedule runtime incidents on its own clock.
    pub fn is_runtime(&self) -> bool {
        matches!(
            self,
            Incident::CellOutage { .. } | Incident::PredictorDegradation { .. }
        )
    }

    /// The incident's start offset.
    pub fn start_offset(&self) -> Duration {
        match self {
            Incident::CellOutage { at, .. }
            | Incident::PredictorDegradation { at, .. }
            | Incident::DriftShift { at, .. }
            | Incident::ArrivalStorm { at, .. } => *at,
        }
    }

    /// The recovery offset (from time zero), when one is scheduled.
    pub fn end_offset(&self) -> Option<Duration> {
        match self {
            Incident::CellOutage { at, recovery, .. }
            | Incident::PredictorDegradation { at, recovery, .. } => {
                recovery.map(|r| Duration(at.0 + r.0))
            }
            _ => None,
        }
    }
}

/// The spec's fault-injection plan: a seed plus a list of scheduled
/// incidents. Serde-defaulted everywhere, so pre-incident spec JSON parses
/// unchanged and an empty plan leaves runs bit-identical to the
/// incident-free engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct IncidentPlan {
    /// Seed for the incident layer's own randomness (storm arrival jitter,
    /// degraded noisy-oracle draws). Independent of the workload seed.
    #[serde(default)]
    pub seed: u64,
    /// The scheduled incidents, in plan order (which is also the tiebreak
    /// for same-instant starts).
    #[serde(default)]
    pub incidents: Vec<Incident>,
}

impl IncidentPlan {
    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Whether any incident requires wrapping the run's event source.
    pub fn needs_source(&self) -> bool {
        self.incidents.iter().any(|i| {
            matches!(
                i,
                Incident::DriftShift { .. } | Incident::ArrivalStorm { .. }
            )
        })
    }

    /// Validate the plan against a fleet of `cells` cells.
    pub fn validate(&self, cells: usize) -> Result<(), SpecError> {
        // Same-cell outages (and, separately, predictor degradations) must
        // not overlap: the controller stores one host selection / one live
        // variant per target, so overlap would corrupt recovery.
        let mut outages: Vec<(u32, Duration, Option<Duration>, usize)> = Vec::new();
        let mut degradations: Vec<(Duration, Option<Duration>, usize)> = Vec::new();
        for (index, incident) in self.incidents.iter().enumerate() {
            match incident {
                Incident::CellOutage {
                    cell,
                    hosts,
                    recovery,
                    at,
                    ..
                } => {
                    if *cell as usize >= cells {
                        return Err(SpecError::IncidentCellOutOfRange { index });
                    }
                    if hosts == &Some(0) || recovery.is_some_and(|r| r.is_zero()) {
                        return Err(SpecError::ZeroDurationIncident { index });
                    }
                    for (other_cell, start, end, first) in &outages {
                        if other_cell == cell
                            && overlaps((*start, *end), (*at, incident.end_offset()))
                        {
                            return Err(SpecError::OverlappingIncidents {
                                first: *first,
                                second: index,
                            });
                        }
                    }
                    outages.push((*cell, *at, incident.end_offset(), index));
                }
                Incident::PredictorDegradation { at, recovery, .. } => {
                    if recovery.is_some_and(|r| r.is_zero()) {
                        return Err(SpecError::ZeroDurationIncident { index });
                    }
                    for (start, end, first) in &degradations {
                        if overlaps((*start, *end), (*at, incident.end_offset())) {
                            return Err(SpecError::OverlappingIncidents {
                                first: *first,
                                second: index,
                            });
                        }
                    }
                    degradations.push((*at, incident.end_offset(), index));
                }
                Incident::DriftShift { lifetime_scale, .. } => {
                    if !lifetime_scale.is_finite() || *lifetime_scale <= 0.0 {
                        return Err(SpecError::InvalidDriftScale { index });
                    }
                }
                Incident::ArrivalStorm {
                    duration,
                    vms,
                    cores,
                    lifetime,
                    ..
                } => {
                    check_storm_index(index)?;
                    if duration.is_zero()
                        || *vms == 0
                        || cores == &Some(0)
                        || lifetime.is_some_and(|l| l.is_zero())
                    {
                        return Err(SpecError::ZeroDurationIncident { index });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Half-open interval overlap, where `None` means "forever".
fn overlaps(a: (Duration, Option<Duration>), b: (Duration, Option<Duration>)) -> bool {
    let a_before_b = a.1.is_some_and(|end| end <= b.0);
    let b_before_a = b.1.is_some_and(|end| end <= a.0);
    !(a_before_b || b_before_a)
}

/// Online-recalibration cadence of the adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecalibrationSpec {
    /// How often the recalibrator runs.
    pub cadence: Duration,
    /// Minimum observed exits (since the last recalibration) before a fit
    /// is attempted; below this the residual window is left accumulating.
    #[serde(default = "default_min_samples")]
    pub min_samples: usize,
}

fn default_min_samples() -> usize {
    16
}

impl Default for RecalibrationSpec {
    fn default() -> RecalibrationSpec {
        RecalibrationSpec {
            cadence: Duration::from_hours(6),
            min_samples: default_min_samples(),
        }
    }
}

/// The spec's adaptive model-management knobs. Defaulted (all off) so
/// pre-existing spec JSON parses unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AdaptationSpec {
    /// Online quantile recalibration, when enabled.
    #[serde(default)]
    pub recalibration: Option<RecalibrationSpec>,
}

impl AdaptationSpec {
    /// Whether every adaptation mechanism is disabled.
    pub fn is_empty(&self) -> bool {
        self.recalibration.is_none()
    }
}

// --- stream-level incidents, shared by both stream wrappers --------------

/// The id of VM `i` of the storm at plan `index`.
fn storm_vm_id(index: usize, i: u32) -> VmId {
    VmId(STORM_VM_ID_BASE | ((index as u64) << 32) | i as u64)
}

/// [`storm_vm_id`] has 16 bits for the plan index; a storm past them
/// would reuse the ids of the storm 65 536 places before it.
fn check_storm_index(index: usize) -> Result<(), SpecError> {
    if index < 1 << 16 {
        Ok(())
    } else {
        Err(SpecError::StormIndexOutOfRange { index })
    }
}

/// One storm VM: its id, arrival (at the wrapper's clock resolution) and
/// shape.
struct StormVm<T> {
    vm: VmId,
    arrival: T,
    spec: VmSpec,
    lifetime: Duration,
}

/// Every storm VM of `plan`, storm by storm in plan order. Each storm
/// draws from its own stream, seeded by the plan seed and the storm's plan
/// index, so reordering the plan never changes any single storm's draws.
/// `arrival(rng, at, duration)` draws one VM's arrival inside the storm
/// window.
fn storm_vms<T>(
    plan: &IncidentPlan,
    mut arrival: impl FnMut(&mut ChaCha8Rng, Duration, Duration) -> T,
) -> Vec<StormVm<T>> {
    let mut storm = Vec::new();
    for (index, incident) in plan.incidents.iter().enumerate() {
        let Incident::ArrivalStorm {
            at,
            duration,
            vms,
            cores,
            lifetime,
        } = incident
        else {
            continue;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(
            plan.seed ^ 0x57a2_0000_0000 ^ (index as u64).wrapping_mul(0x9e37_79b9),
        );
        let cores = cores.unwrap_or(STORM_DEFAULT_CORES);
        let lifetime = lifetime.unwrap_or(STORM_DEFAULT_LIFETIME);
        let spec = VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build();
        storm.extend((0..*vms).map(|i| StormVm {
            vm: storm_vm_id(index, i),
            arrival: arrival(&mut rng, *at, *duration),
            spec: spec.clone(),
            lifetime,
        }));
    }
    storm
}

/// The plan's drift shifts as `(shift time, scale)` in time order; the
/// latest at or before a create applies.
struct DriftShifts(Vec<(SimTime, f64)>);

impl DriftShifts {
    fn new(plan: &IncidentPlan) -> DriftShifts {
        let mut shifts: Vec<(SimTime, f64)> = plan
            .incidents
            .iter()
            .filter_map(|i| match i {
                Incident::DriftShift { at, lifetime_scale } => {
                    Some((SimTime::ZERO + *at, *lifetime_scale))
                }
                _ => None,
            })
            .collect();
        shifts.sort_by_key(|(at, _)| *at);
        DriftShifts(shifts)
    }

    /// `lifetime` scaled by the shift in force at `t`, or `None` before
    /// the first shift.
    fn rescale(&self, t: SimTime, lifetime: Duration) -> Option<Duration> {
        let (_, scale) = self.0.iter().rev().find(|(at, _)| *at <= t)?;
        Some(Duration::from_secs_f64(
            (lifetime.as_secs() as f64 * scale).max(1.0),
        ))
    }
}

// --- the chaos event source ----------------------------------------------

/// Entry of the synthesized-exit queue: `(exit time, vm id)`, min-ordered.
type PendingExit = Reverse<(SimTime, u64)>;

/// An [`EventSource`] wrapper applying the plan's *stream-level* incidents
/// (drift shifts and arrival storms) to an inner source.
///
/// * **Drift shifts** scale the ground-truth lifetime of every create at
///   or after the shift time; the VM's original exit event is suppressed
///   and a re-timed exit synthesized instead.
/// * **Arrival storms** are pre-generated at construction (seeded, sorted
///   canonically) and merged with the inner stream by
///   [`TraceEvent::sort_key`].
///
/// The wrapper preserves the `EventSource` ordering contract: its output
/// is non-decreasing in sort key because each constituent stream is, and
/// merging picks the minimum. Runtime incidents (outages, degradations)
/// do not involve the source — they are executed by [`ChaosController`].
pub struct ChaosSource<'a> {
    inner: Box<dyn EventSource + 'a>,
    shifts: DriftShifts,
    /// VMs whose lifetime was rescaled; their inner exit is suppressed.
    drifted: HashSet<u64>,
    /// Synthesized (re-timed) exits for drifted VMs.
    scaled_exits: BinaryHeap<PendingExit>,
    /// Pre-generated storm events, canonically sorted.
    storm: Vec<TraceEvent>,
    storm_next: usize,
    /// Latest storm create time (None when no storms are planned).
    storm_last_arrival: Option<SimTime>,
    /// The merged head, buffered for `peek`.
    current: Option<TraceEvent>,
    /// The inner source's head, buffered (post-transformation).
    inner_buffered: Option<TraceEvent>,
}

impl<'a> ChaosSource<'a> {
    /// Wrap `inner` with the plan's stream-level incidents.
    pub fn new(inner: Box<dyn EventSource + 'a>, plan: &IncidentPlan) -> ChaosSource<'a> {
        let storm_vms = storm_vms(plan, |rng, at, duration| {
            SimTime::ZERO + at + Duration(rng.gen_range(0..duration.as_secs().max(1)))
        });
        let storm_last_arrival = storm_vms.iter().map(|v| v.arrival).max();
        let mut storm: Vec<TraceEvent> = storm_vms
            .into_iter()
            .flat_map(|v| {
                [
                    TraceEvent::create(v.arrival, v.vm, v.spec, v.lifetime),
                    TraceEvent::exit(v.arrival + v.lifetime, v.vm),
                ]
            })
            .collect();
        storm.sort_by_key(|e| e.sort_key());

        ChaosSource {
            inner,
            shifts: DriftShifts::new(plan),
            drifted: HashSet::new(),
            scaled_exits: BinaryHeap::new(),
            storm,
            storm_next: 0,
            storm_last_arrival,
            current: None,
            inner_buffered: None,
        }
    }

    /// Pull inner events until one survives transformation (suppressed
    /// exits of drifted VMs are skipped; drifted creates are rescaled).
    fn refill_inner(&mut self) {
        while self.inner_buffered.is_none() {
            let Some(event) = self.inner.next_event() else {
                return;
            };
            match event.kind {
                TraceEventKind::Exit { vm } if self.drifted.remove(&vm.0) => continue,
                TraceEventKind::Create {
                    vm,
                    ref spec,
                    lifetime,
                } => {
                    if let Some(scaled) = self.shifts.rescale(event.time, lifetime) {
                        self.drifted.insert(vm.0);
                        self.scaled_exits.push(Reverse((event.time + scaled, vm.0)));
                        self.inner_buffered =
                            Some(TraceEvent::create(event.time, vm, spec.clone(), scaled));
                    } else {
                        self.inner_buffered = Some(event);
                    }
                    return;
                }
                _ => {
                    self.inner_buffered = Some(event);
                    return;
                }
            }
        }
    }

    /// Merge the three streams into `current` (min sort key wins; the
    /// streams' VM-id ranges are disjoint, so keys never tie across
    /// streams).
    fn ensure_current(&mut self) {
        if self.current.is_some() {
            return;
        }
        self.refill_inner();
        let inner_key = self.inner_buffered.as_ref().map(|e| e.sort_key());
        let storm_key = self.storm.get(self.storm_next).map(|e| e.sort_key());
        let scaled_key = self
            .scaled_exits
            .peek()
            .map(|Reverse((t, vm))| (*t, 0u8, VmId(*vm)));

        let min_of = [inner_key, storm_key, scaled_key]
            .into_iter()
            .flatten()
            .min();
        let Some(min) = min_of else {
            return;
        };
        if inner_key == Some(min) {
            self.current = self.inner_buffered.take();
        } else if storm_key == Some(min) {
            self.current = Some(self.storm[self.storm_next].clone());
            self.storm_next += 1;
        } else {
            let Reverse((t, vm)) = self.scaled_exits.pop().expect("peeked non-empty");
            self.current = Some(TraceEvent::exit(t, VmId(vm)));
        }
    }
}

impl EventSource for ChaosSource<'_> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.ensure_current();
        self.current.take()
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.ensure_current();
        self.current.as_ref()
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        // Known only once the inner source knows its own final arrival
        // (drift shifts never move arrivals; storms are pre-generated).
        let inner = self.inner.last_arrival_time()?;
        Some(self.storm_last_arrival.map_or(inner, |s| inner.max(s)))
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
            + usize::from(self.current.is_some())
            + usize::from(self.inner_buffered.is_some())
            + self.scaled_exits.len()
            + (self.storm.len() - self.storm_next)
    }
}

// --- the serving-tier stream wrapper --------------------------------------

/// The serving-tier analogue of [`ChaosSource`]: wraps an open-loop
/// [`ArrivalGenerator`] with the plan's *stream-level* incidents on the
/// microsecond clock.
///
/// * [`Incident::ArrivalStorm`] — storm [`PlaceRequest`]s are
///   pre-generated with the same per-storm seeded stream the batch
///   wrapper uses (ids from [`STORM_VM_ID_BASE`], so they never collide
///   with generator ids) but jittered at microsecond resolution across
///   the storm window, then merged with the generator's output in
///   `(submitted, vm)` order. Storm requests carry the same
///   deadline/retry stamps the [`ServeConfig`] gives organic arrivals.
/// * [`Incident::DriftShift`] — generator requests submitted at or after
///   a shift have their ground-truth lifetime rescaled, exactly like
///   batch creates.
///
/// Runtime incidents (outages, degradations) are not the stream's
/// business — attach the plan to the `PlacementService` for those.
pub struct ChaosArrivals {
    inner: ArrivalGenerator,
    /// Pre-generated storm requests in `(submitted, vm)` order.
    storm: Vec<PlaceRequest>,
    storm_next: usize,
    shifts: DriftShifts,
    /// The generator's head, buffered (post-drift).
    buffered: Option<PlaceRequest>,
}

impl ChaosArrivals {
    /// Wrap `inner` with `plan`'s stream-level incidents, stamping storm
    /// requests with `config`'s deadline and retry budget.
    pub fn new(
        inner: ArrivalGenerator,
        plan: &IncidentPlan,
        config: &ServeConfig,
    ) -> ChaosArrivals {
        let mut storm: Vec<PlaceRequest> = storm_vms(plan, |rng, at, duration| {
            let window_us = Micros::from_duration(duration).as_micros().max(1);
            Micros::from_duration(at) + Micros(rng.gen_range(0..window_us))
        })
        .into_iter()
        .map(|v| PlaceRequest {
            id: RequestId(v.vm.0),
            vm: v.vm,
            spec: v.spec,
            lifetime: v.lifetime,
            submitted: v.arrival,
            deadline: config.deadline.map(|d| v.arrival + d),
            retries: config.retry_budget,
        })
        .collect();
        storm.sort_by_key(|r| (r.submitted, r.vm.0));

        ChaosArrivals {
            inner,
            storm,
            storm_next: 0,
            shifts: DriftShifts::new(plan),
            buffered: None,
        }
    }

    /// Apply the drift scale in force at the request's arrival (shifts
    /// start on whole seconds, so the arrival's second decides).
    fn drift(&self, mut request: PlaceRequest) -> PlaceRequest {
        let submitted = request.submitted.to_sim_time();
        if let Some(scaled) = self.shifts.rescale(submitted, request.lifetime) {
            request.lifetime = scaled;
        }
        request
    }

    /// The next request in `(submitted, vm)` order, merged across the
    /// generator and storm streams.
    pub fn next_request(&mut self) -> Option<PlaceRequest> {
        if self.buffered.is_none() {
            self.buffered = self.inner.next_request().map(|r| self.drift(r));
        }
        let storm_head = self.storm.get(self.storm_next);
        match (&self.buffered, storm_head) {
            (None, None) => None,
            (Some(_), None) => self.buffered.take(),
            (None, Some(_)) => {
                self.storm_next += 1;
                Some(self.storm[self.storm_next - 1].clone())
            }
            (Some(inner), Some(storm)) => {
                if (inner.submitted, inner.vm.0) <= (storm.submitted, storm.vm.0) {
                    self.buffered.take()
                } else {
                    self.storm_next += 1;
                    Some(self.storm[self.storm_next - 1].clone())
                }
            }
        }
    }
}

// --- the per-cell controller ---------------------------------------------

/// Executes a plan's *runtime* incidents against one cell's scheduler, and
/// runs the adaptation loop's recalibration fits.
///
/// One controller per cell: cell outages apply only to the controller's
/// own cell, predictor degradations to every cell (the fleet shares one
/// serving pipeline, modelled as one degradation window applied to each
/// cell's [`SwappablePredictor`]). All iteration is in sorted-id order, so
/// execution is deterministic regardless of fleet thread count.
pub struct ChaosController {
    incidents: Vec<Incident>,
    plan_seed: u64,
    cell: u32,
    recalibration: Option<RecalibrationSpec>,
    /// The run's hot-swap seam (absent when the caller only wants
    /// outages — degradations and recalibrations are then no-ops).
    adaptive: Option<Arc<SwappablePredictor>>,
    /// Host selection of each active outage, for recovery.
    outage_hosts: HashMap<u32, Vec<HostId>>,
    /// Consecutive recalibration rounds skipped below the sample floor
    /// (drives the starvation escape).
    starved_rounds: u32,
}

impl ChaosController {
    /// A controller for `cell`, executing `plan` with the given adaptation
    /// knobs through `adaptive` (the scheduler's predictor seam).
    pub fn new(
        plan: &IncidentPlan,
        adaptation: &AdaptationSpec,
        cell: u32,
        adaptive: Option<Arc<SwappablePredictor>>,
    ) -> ChaosController {
        ChaosController {
            incidents: plan.incidents.clone(),
            plan_seed: plan.seed,
            cell,
            recalibration: adaptation.recalibration,
            adaptive,
            outage_hosts: HashMap::new(),
            starved_rounds: 0,
        }
    }

    /// The recalibration cadence, when the adaptation loop is on.
    pub fn recalibration(&self) -> Option<RecalibrationSpec> {
        self.recalibration
    }

    /// Schedule this cell's incident start/end actions (and the first
    /// recalibration) on the cell's timeline.
    pub fn schedule(&self, timeline: &mut Timeline) {
        for (index, incident) in self.incidents.iter().enumerate() {
            if !incident.is_runtime() || !self.applies_here(incident) {
                continue;
            }
            timeline.schedule(
                TimelineAction::IncidentStart(index as u32),
                SimTime::ZERO + incident.start_offset(),
            );
            if let Some(end) = incident.end_offset() {
                timeline.schedule(
                    TimelineAction::IncidentEnd(index as u32),
                    SimTime::ZERO + end,
                );
            }
        }
        if let Some(spec) = self.recalibration {
            timeline.schedule(TimelineAction::Recalibrate, SimTime::ZERO + spec.cadence);
        }
    }

    fn applies_here(&self, incident: &Incident) -> bool {
        match incident {
            Incident::CellOutage { cell, .. } => *cell == self.cell,
            Incident::PredictorDegradation { .. } => true,
            _ => false,
        }
    }

    /// Execute the start of incident `index` (a no-op for indices that do
    /// not apply to this cell — the timeline only carries applicable ones).
    /// Returns the VMs a hard-kill outage exited, with the hosts they were
    /// on, in id order.
    pub fn start(
        &mut self,
        index: u32,
        scheduler: &mut Scheduler,
        now: SimTime,
    ) -> Vec<(VmId, HostId)> {
        let mut exited = Vec::new();
        match self.incidents.get(index as usize) {
            Some(Incident::CellOutage { hosts, mode, .. }) => {
                let mut ids: Vec<HostId> = scheduler.cluster().hosts().map(|h| h.id()).collect();
                ids.sort();
                let take = hosts.unwrap_or(ids.len()).min(ids.len());
                ids.truncate(take);
                for &id in &ids {
                    if let Some(mut host) = scheduler.cluster_mut().host_mut(id) {
                        host.set_unavailable(true);
                    }
                }
                if matches!(mode, OutageMode::HardKill) {
                    let mut victims: Vec<VmId> = ids
                        .iter()
                        .filter_map(|id| scheduler.cluster().host(*id))
                        .flat_map(|h| h.vm_ids())
                        .collect();
                    victims.sort();
                    for vm in victims {
                        if let Ok(host) = scheduler.exit(vm, now) {
                            exited.push((vm, host));
                        }
                    }
                }
                self.outage_hosts.insert(index, ids);
            }
            Some(Incident::PredictorDegradation { degraded, .. }) => {
                if let Some(adaptive) = &self.adaptive {
                    adaptive.degrade(degraded.build(adaptive.base().clone(), self.plan_seed));
                }
            }
            _ => {}
        }
        exited
    }

    /// Execute the recovery of incident `index`.
    pub fn end(&mut self, index: u32, scheduler: &mut Scheduler) {
        match self.incidents.get(index as usize) {
            Some(Incident::CellOutage { .. }) => {
                for id in self.outage_hosts.remove(&index).unwrap_or_default() {
                    if let Some(mut host) = scheduler.cluster_mut().host_mut(id) {
                        host.set_unavailable(false);
                    }
                }
            }
            Some(Incident::PredictorDegradation { .. }) => {
                if let Some(adaptive) = &self.adaptive {
                    adaptive.restore();
                }
            }
            _ => {}
        }
    }

    /// Medians smaller than this (log10 domain, ≈ ±5 %) are sampling
    /// noise: the round leaves the offset alone rather than jittering it.
    pub const RECAL_DEADBAND_LOG10: f64 = 0.02;

    /// Damping gain applied to each fitted median. Residuals are recorded
    /// against *placement-time* predictions, so right after a correction
    /// the drained window still contains exits fitted under the old
    /// offset; applying the full median every round double-counts those
    /// stale observations and rings around the true bias. Half-gain turns
    /// the loop into a damped integrator: any stale contribution decays
    /// geometrically while fresh windows still converge in a few rounds.
    pub const RECAL_GAIN: f64 = 0.5;

    /// Per-round step clamp (log10 domain): one round may move the live
    /// model by at most half an order of magnitude, whatever the window
    /// claims.
    pub const RECAL_MAX_STEP_LOG10: f64 = 0.5;

    /// Starvation escape: after this many consecutive rounds below the
    /// sample floor, a round fits on whatever residuals *have* trickled
    /// in. A cell the fleet router has herded load away from (routing
    /// reacts to the same degraded predictions) may see only a handful of
    /// exits per cadence; without the escape its floor is never met and
    /// its model stays wrong forever, even though the evidence to correct
    /// it is sitting in the window.
    pub const RECAL_STARVATION_ROUNDS: u32 = 4;

    /// One recalibration round: drain the scheduler's observed residuals
    /// and nudge the live model by the damped, clamped median (skipped
    /// below the sample floor, leaving the window to keep accumulating,
    /// and inside the deadband, leaving a converged offset in peace).
    pub fn recalibrate(&mut self, scheduler: &mut Scheduler) {
        let (Some(adaptive), Some(spec)) = (&self.adaptive, self.recalibration) else {
            return;
        };
        let (_, samples) = scheduler.model_health();
        if samples < spec.min_samples
            && (samples == 0 || self.starved_rounds < Self::RECAL_STARVATION_ROUNDS)
        {
            self.starved_rounds += 1;
            return;
        }
        self.starved_rounds = 0;
        let residuals = scheduler.take_model_residuals();
        if let Some(median) = median_log10_residual(&residuals) {
            if median.abs() < Self::RECAL_DEADBAND_LOG10 {
                return;
            }
            let step = (median * Self::RECAL_GAIN)
                .clamp(-Self::RECAL_MAX_STEP_LOG10, Self::RECAL_MAX_STEP_LOG10);
            adaptive.apply_offset(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::HostSpec;
    use lava_core::pool::{Pool, PoolId};
    use lava_core::vm::Vm;
    use lava_model::predictor::OraclePredictor;
    use lava_sched::cluster::Cluster;
    use lava_sched::Algorithm;

    fn plan(incidents: Vec<Incident>) -> IncidentPlan {
        IncidentPlan { seed: 7, incidents }
    }

    fn outage(cell: u32, at_hours: u64, recovery_hours: Option<u64>) -> Incident {
        Incident::CellOutage {
            cell,
            hosts: Some(2),
            mode: OutageMode::Drain,
            at: Duration::from_hours(at_hours),
            recovery: recovery_hours.map(Duration::from_hours),
        }
    }

    #[test]
    fn plan_json_round_trips_and_defaults_to_empty() {
        let empty: IncidentPlan = serde_json::from_str("{}").expect("defaults parse");
        assert!(empty.is_empty());
        assert_eq!(empty, IncidentPlan::default());

        let full = plan(vec![
            outage(1, 10, Some(4)),
            Incident::PredictorDegradation {
                degraded: DegradedPredictor::Biased { bias_pct: -90 },
                at: Duration::from_hours(5),
                recovery: None,
            },
            Incident::DriftShift {
                at: Duration::from_hours(20),
                lifetime_scale: 4.0,
            },
            Incident::ArrivalStorm {
                at: Duration::from_hours(30),
                duration: Duration::from_mins(30),
                vms: 64,
                cores: Some(8),
                lifetime: Some(Duration::from_hours(2)),
            },
        ]);
        let json = serde_json::to_string(&full).expect("serializes");
        let back: IncidentPlan = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, full);

        // Stripped-default syntax: an outage with only the required keys.
        let terse: IncidentPlan =
            serde_json::from_str(r#"{"incidents":[{"CellOutage":{"at":3600}}]}"#)
                .expect("defaults fill in");
        assert_eq!(
            terse.incidents[0],
            Incident::CellOutage {
                cell: 0,
                hosts: None,
                mode: OutageMode::Drain,
                at: Duration::from_hours(1),
                recovery: None,
            }
        );
    }

    #[test]
    fn validation_rejects_degenerate_plans() {
        assert_eq!(
            plan(vec![outage(3, 1, None)]).validate(2),
            Err(SpecError::IncidentCellOutOfRange { index: 0 })
        );
        assert_eq!(
            plan(vec![outage(0, 1, Some(0))]).validate(1),
            Err(SpecError::ZeroDurationIncident { index: 0 })
        );
        let overlapping = plan(vec![outage(0, 1, Some(10)), outage(0, 5, Some(2))]);
        assert_eq!(
            overlapping.validate(1),
            Err(SpecError::OverlappingIncidents {
                first: 0,
                second: 1
            })
        );
        // Same window, different cells: fine.
        assert_eq!(
            plan(vec![outage(0, 1, Some(10)), outage(1, 5, Some(2))]).validate(2),
            Ok(())
        );
        // Unrecovered outage overlaps everything after it in its cell.
        assert_eq!(
            plan(vec![outage(0, 1, None), outage(0, 500, Some(1))]).validate(1),
            Err(SpecError::OverlappingIncidents {
                first: 0,
                second: 1
            })
        );
        // Back-to-back (end == next start) does not overlap.
        assert_eq!(
            plan(vec![outage(0, 1, Some(4)), outage(0, 5, Some(2))]).validate(1),
            Ok(())
        );
        assert_eq!(
            plan(vec![Incident::DriftShift {
                at: Duration::ZERO,
                lifetime_scale: f64::NAN,
            }])
            .validate(1),
            Err(SpecError::InvalidDriftScale { index: 0 })
        );
        assert_eq!(
            plan(vec![Incident::ArrivalStorm {
                at: Duration::ZERO,
                duration: Duration::ZERO,
                vms: 10,
                cores: Some(2),
                lifetime: Some(Duration::from_hours(1)),
            }])
            .validate(1),
            Err(SpecError::ZeroDurationIncident { index: 0 })
        );
        // Storm ids hold the plan index in 16 bits: drift shifts pad a
        // storm to index 65 535 (the last that fits) and 65 536 (which
        // would reuse the ids of a storm at index 0).
        let storm_at = |index: usize| {
            let mut incidents = vec![
                Incident::DriftShift {
                    at: Duration::ZERO,
                    lifetime_scale: 1.0,
                };
                index
            ];
            incidents.push(Incident::ArrivalStorm {
                at: Duration::ZERO,
                duration: Duration::from_secs(1),
                vms: 1,
                cores: None,
                lifetime: None,
            });
            plan(incidents)
        };
        assert_eq!(storm_at(65_535).validate(1), Ok(()));
        assert_eq!(
            storm_at(65_536).validate(1),
            Err(SpecError::StormIndexOutOfRange { index: 65_536 })
        );
        let degradations = plan(vec![
            Incident::PredictorDegradation {
                degraded: DegradedPredictor::Stale,
                at: Duration::from_hours(1),
                recovery: Some(Duration::from_hours(10)),
            },
            Incident::PredictorDegradation {
                degraded: DegradedPredictor::Noisy { accuracy_pct: 50 },
                at: Duration::from_hours(5),
                recovery: None,
            },
        ]);
        assert_eq!(
            degradations.validate(1),
            Err(SpecError::OverlappingIncidents {
                first: 0,
                second: 1
            })
        );
    }

    /// A tiny inner source over a fixed event list.
    struct ListSource {
        events: Vec<TraceEvent>,
        next: usize,
    }

    impl ListSource {
        fn new(mut events: Vec<TraceEvent>) -> ListSource {
            events.sort_by_key(|e| e.sort_key());
            ListSource { events, next: 0 }
        }
    }

    impl EventSource for ListSource {
        fn next_event(&mut self) -> Option<TraceEvent> {
            let e = self.events.get(self.next).cloned();
            self.next += usize::from(e.is_some());
            e
        }

        fn peek(&mut self) -> Option<&TraceEvent> {
            self.events.get(self.next)
        }

        fn last_arrival_time(&mut self) -> Option<SimTime> {
            self.events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Create { .. }))
                .map(|e| e.time)
                .max()
        }

        fn pending_len(&self) -> usize {
            self.events.len() - self.next
        }
    }

    fn vm_spec() -> VmSpec {
        VmSpec::builder(Resources::cores_gib(2, 8)).build()
    }

    fn create_exit_pair(vm: u64, at: u64, lifetime_hours: u64) -> [TraceEvent; 2] {
        let lifetime = Duration::from_hours(lifetime_hours);
        [
            TraceEvent::create(SimTime(at), VmId(vm), vm_spec(), lifetime),
            TraceEvent::exit(SimTime(at) + lifetime, VmId(vm)),
        ]
    }

    fn drain(source: &mut dyn EventSource) -> Vec<TraceEvent> {
        std::iter::from_fn(|| source.next_event()).collect()
    }

    #[test]
    fn empty_plan_source_is_a_transparent_wrapper() {
        let events: Vec<TraceEvent> = create_exit_pair(1, 0, 2)
            .into_iter()
            .chain(create_exit_pair(2, 100, 1))
            .collect();
        let inner = ListSource::new(events.clone());
        let mut chaos = ChaosSource::new(Box::new(inner), &IncidentPlan::default());
        assert_eq!(chaos.pending_len(), 4);
        assert_eq!(chaos.last_arrival_time(), Some(SimTime(100)));
        let mut sorted = events;
        sorted.sort_by_key(|e| e.sort_key());
        assert_eq!(drain(&mut chaos), sorted);
    }

    #[test]
    fn drift_shift_rescales_lifetimes_and_retimes_exits() {
        let shift_at = 50u64;
        let events: Vec<TraceEvent> = create_exit_pair(1, 0, 1) // pre-shift: untouched
            .into_iter()
            .chain(create_exit_pair(2, 100, 1)) // post-shift: scaled 4x
            .collect();
        let plan = plan(vec![Incident::DriftShift {
            at: Duration(shift_at),
            lifetime_scale: 4.0,
        }]);
        let mut chaos = ChaosSource::new(Box::new(ListSource::new(events)), &plan);
        let out = drain(&mut chaos);
        assert_eq!(out.len(), 4, "one exit suppressed, one synthesized");
        let scaled_create = out
            .iter()
            .find_map(|e| match &e.kind {
                TraceEventKind::Create { vm, lifetime, .. } if *vm == VmId(2) => Some(*lifetime),
                _ => None,
            })
            .expect("post-shift create present");
        assert_eq!(scaled_create, Duration::from_hours(4));
        let exit2 = out
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Exit { vm } if vm == VmId(2)))
            .expect("re-timed exit present");
        assert_eq!(exit2.time, SimTime(100) + Duration::from_hours(4));
        // Ordering stays canonical.
        let mut sorted = out.clone();
        sorted.sort_by_key(|e| e.sort_key());
        assert_eq!(out, sorted);
    }

    #[test]
    fn storms_merge_deterministically_and_extend_last_arrival() {
        let base: Vec<TraceEvent> = create_exit_pair(1, 0, 200).into_iter().collect();
        let storm_plan = plan(vec![Incident::ArrivalStorm {
            at: Duration::from_hours(10),
            duration: Duration::from_hours(1),
            vms: 16,
            cores: None,
            lifetime: Some(Duration::from_hours(2)),
        }]);
        let mut a = ChaosSource::new(Box::new(ListSource::new(base.clone())), &storm_plan);
        let mut b = ChaosSource::new(Box::new(ListSource::new(base.clone())), &storm_plan);
        let out_a = drain(&mut a);
        assert_eq!(out_a, drain(&mut b), "same plan, same stream");
        assert_eq!(out_a.len(), 2 + 2 * 16);
        let mut sorted = out_a.clone();
        sorted.sort_by_key(|e| e.sort_key());
        assert_eq!(out_a, sorted, "merged stream stays canonical");
        // Storm ids live in their own range; last arrival covers the storm.
        let storm_creates: Vec<&TraceEvent> = out_a
            .iter()
            .filter(
                |e| matches!(e.kind, TraceEventKind::Create { vm, .. } if vm.0 >= STORM_VM_ID_BASE),
            )
            .collect();
        assert_eq!(storm_creates.len(), 16);
        let mut c = ChaosSource::new(Box::new(ListSource::new(base)), &storm_plan);
        let last = c.last_arrival_time().expect("known");
        assert!(last >= SimTime::ZERO + Duration::from_hours(10));

        // A different seed yields a different storm timing.
        let mut reseeded = storm_plan.clone();
        reseeded.seed = 8;
        let mut d = ChaosSource::new(
            Box::new(ListSource::new(create_exit_pair(1, 0, 200).into())),
            &reseeded,
        );
        assert_ne!(drain(&mut d), out_a);
    }

    fn test_scheduler(hosts: usize) -> Scheduler {
        let pool = Pool::with_uniform_hosts(
            PoolId(0),
            hosts,
            HostSpec::new(Resources::cores_gib(32, 128)),
        );
        let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        Scheduler::new(
            Cluster::new(pool),
            Algorithm::Baseline.build_policy(predictor.clone()),
            predictor,
        )
    }

    #[test]
    fn outage_marks_hosts_unavailable_and_recovers_the_same_set() {
        let mut scheduler = test_scheduler(4);
        let plan = plan(vec![outage(0, 1, Some(1))]);
        let mut controller = ChaosController::new(&plan, &AdaptationSpec::default(), 0, None);
        controller.start(0, &mut scheduler, SimTime::ZERO + Duration::from_hours(1));
        let down: Vec<bool> = scheduler
            .cluster()
            .hosts()
            .map(|h| h.is_unavailable())
            .collect();
        assert_eq!(down, vec![true, true, false, false], "first two host ids");
        controller.end(0, &mut scheduler);
        assert!(scheduler.cluster().hosts().all(|h| !h.is_unavailable()));
    }

    #[test]
    fn hard_kill_exits_resident_vms() {
        let mut scheduler = test_scheduler(2);
        for id in 0..4u64 {
            let vm = Vm::new(
                VmId(id),
                vm_spec(),
                SimTime::ZERO,
                Duration::from_hours(100),
            );
            scheduler
                .cluster_mut()
                .place(vm, HostId(id % 2))
                .expect("fits");
        }
        assert_eq!(scheduler.cluster().vm_count(), 4);
        let kill = IncidentPlan {
            seed: 0,
            incidents: vec![Incident::CellOutage {
                cell: 0,
                hosts: Some(1),
                mode: OutageMode::HardKill,
                at: Duration::from_hours(1),
                recovery: None,
            }],
        };
        let mut controller = ChaosController::new(&kill, &AdaptationSpec::default(), 0, None);
        controller.start(0, &mut scheduler, SimTime::ZERO + Duration::from_hours(1));
        assert_eq!(
            scheduler.cluster().vm_count(),
            2,
            "host 0's residents exited, host 1's survive"
        );
        let host0 = scheduler.cluster().host(HostId(0)).expect("exists");
        assert!(host0.is_unavailable());
        assert_eq!(host0.vm_ids().count(), 0);
    }

    #[test]
    fn controller_ignores_other_cells_outages() {
        let plan = plan(vec![outage(1, 1, None)]);
        let controller = ChaosController::new(&plan, &AdaptationSpec::default(), 0, None);
        let mut timeline = Timeline::new();
        controller.schedule(&mut timeline);
        assert!(
            timeline.is_empty(),
            "cell 1's outage not scheduled on cell 0"
        );

        let controller1 = ChaosController::new(&plan, &AdaptationSpec::default(), 1, None);
        let mut timeline1 = Timeline::new();
        controller1.schedule(&mut timeline1);
        assert_eq!(timeline1.len(), 1);
    }

    #[test]
    fn degradation_swaps_and_recalibration_corrects() {
        let base: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let swap = SwappablePredictor::new(base);
        let run_predictor: Arc<dyn LifetimePredictor> = swap.clone();
        let pool =
            Pool::with_uniform_hosts(PoolId(0), 4, HostSpec::new(Resources::cores_gib(32, 128)));
        let mut scheduler = Scheduler::new(
            Cluster::new(pool),
            Algorithm::Baseline.build_policy(run_predictor.clone()),
            run_predictor,
        );
        let plan = plan(vec![Incident::PredictorDegradation {
            degraded: DegradedPredictor::Biased { bias_pct: -90 },
            at: Duration::from_hours(1),
            recovery: Some(Duration::from_hours(5)),
        }]);
        let adaptation = AdaptationSpec {
            recalibration: Some(RecalibrationSpec {
                cadence: Duration::from_hours(1),
                min_samples: 4,
            }),
        };
        let mut controller = ChaosController::new(&plan, &adaptation, 0, Some(swap.clone()));

        controller.start(0, &mut scheduler, SimTime::ZERO + Duration::from_hours(1));
        assert_eq!(swap.live_name(), "biased");

        // Schedule VMs while the biased variant is live: their initial
        // predictions come out 10x short, so exits record +1 log10
        // residuals. Recalibration is a *damped* integrator — each round
        // closes [`ChaosController::RECAL_GAIN`] of the remaining gap, so
        // the first round lands at exactly the gain and a few more rounds
        // converge on the full +1 correction.
        let lifetime = Duration::from_hours(10);
        let mut next_id = 10u64;
        let mut round =
            |scheduler: &mut Scheduler, controller: &mut ChaosController, hours: u64| {
                let now = SimTime::ZERO + Duration::from_hours(hours);
                let ids: Vec<u64> = (next_id..next_id + 8).collect();
                next_id += 8;
                for &id in &ids {
                    let vm = Vm::new(VmId(id), vm_spec(), now, lifetime);
                    scheduler.schedule(vm, now).expect("fits");
                }
                let exit_at = now + lifetime;
                for &id in &ids {
                    scheduler.exit(VmId(id), exit_at).expect("present");
                }
                controller.recalibrate(scheduler);
            };
        round(&mut scheduler, &mut controller, 1);
        let first = swap.offset_log10();
        assert!(
            (first - ChaosController::RECAL_GAIN).abs() < 0.05,
            "first round applies the damped median, got offset {first}"
        );
        let (_, samples) = scheduler.model_health();
        assert_eq!(samples, 0, "recalibration drains the residual window");
        for i in 1..6 {
            round(&mut scheduler, &mut controller, 1 + i * 20);
        }
        let offset = swap.offset_log10();
        assert!(
            (offset - 1.0).abs() < 0.1,
            "damped rounds converge on the +1 log10 bias, got offset {offset}"
        );

        // Recovery restores the base model and clears the learned offset.
        controller.end(0, &mut scheduler);
        assert_eq!(swap.live_name(), "oracle");
        assert_eq!(swap.offset_log10(), 0.0);
    }

    #[test]
    fn recalibrate_waits_for_the_sample_floor() {
        let base: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let swap = SwappablePredictor::new(base);
        let mut scheduler = test_scheduler(4);
        let adaptation = AdaptationSpec {
            recalibration: Some(RecalibrationSpec {
                cadence: Duration::from_hours(1),
                min_samples: 1_000,
            }),
        };
        let mut controller =
            ChaosController::new(&IncidentPlan::default(), &adaptation, 0, Some(swap.clone()));
        controller.recalibrate(&mut scheduler);
        assert_eq!(swap.offset_log10(), 0.0, "below the floor: no fit");
    }

    #[test]
    fn starved_cells_escape_the_sample_floor() {
        let base: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let swap = SwappablePredictor::new(base);
        swap.degrade(Arc::new(BiasedPredictor::new(swap.base().clone(), -90)));
        // The scheduler must predict through the swap, or exits would
        // record oracle-exact residuals instead of the biased ones.
        let run_predictor: Arc<dyn LifetimePredictor> = swap.clone();
        let pool =
            Pool::with_uniform_hosts(PoolId(0), 4, HostSpec::new(Resources::cores_gib(32, 128)));
        let mut scheduler = Scheduler::new(
            Cluster::new(pool),
            Algorithm::Baseline.build_policy(run_predictor.clone()),
            run_predictor,
        );
        let adaptation = AdaptationSpec {
            recalibration: Some(RecalibrationSpec {
                cadence: Duration::from_mins(30),
                min_samples: 64,
            }),
        };
        let mut controller =
            ChaosController::new(&IncidentPlan::default(), &adaptation, 0, Some(swap.clone()));
        // A trickle of exits: far below the 64-sample floor, but real
        // evidence of the 10x-short bias.
        let now = SimTime::ZERO;
        let lifetime = Duration::from_hours(10);
        for id in 10..13u64 {
            let vm = Vm::new(VmId(id), vm_spec(), now, lifetime);
            scheduler.schedule(vm, now).expect("fits");
            scheduler.exit(VmId(id), now + lifetime).expect("present");
        }
        // The floor holds for RECAL_STARVATION_ROUNDS consecutive rounds…
        for _ in 0..ChaosController::RECAL_STARVATION_ROUNDS {
            controller.recalibrate(&mut scheduler);
            assert_eq!(swap.offset_log10(), 0.0, "floor holds while counting");
        }
        // …then the escape fits on whatever the window has.
        controller.recalibrate(&mut scheduler);
        let offset = swap.offset_log10();
        assert!(
            (offset - ChaosController::RECAL_GAIN).abs() < 0.05,
            "starved round fits the damped median, got offset {offset}"
        );
        // A zero-sample window never fits, no matter how starved.
        let mut empty = ChaosController::new(
            &IncidentPlan::default(),
            &adaptation,
            0,
            Some(SwappablePredictor::new(
                Arc::new(OraclePredictor::new()) as Arc<dyn LifetimePredictor>
            )),
        );
        let mut idle = test_scheduler(4);
        for _ in 0..20 {
            empty.recalibrate(&mut idle);
        }
    }

    fn serve_stream(config: &ServeConfig, plan: &IncidentPlan) -> Vec<PlaceRequest> {
        use crate::workload::{PoolConfig, WorkloadGenerator};
        let generator = ArrivalGenerator::from_config(
            WorkloadGenerator::new(PoolConfig::small(7)),
            config,
            Micros::from_secs(10),
        );
        let mut stream = ChaosArrivals::new(generator, plan, config);
        let mut out = Vec::new();
        while let Some(request) = stream.next_request() {
            out.push(request);
        }
        out
    }

    #[test]
    fn chaos_arrivals_merges_storms_in_order_and_replays() {
        let config = ServeConfig::at_rate(50.0)
            .with_deadline(Micros::from_millis(100))
            .with_retry_budget(2);
        let storm_plan = plan(vec![Incident::ArrivalStorm {
            at: Duration::from_secs(2),
            duration: Duration::from_secs(3),
            vms: 40,
            cores: None,
            lifetime: None,
        }]);
        let merged = serve_stream(&config, &storm_plan);
        let bare = serve_stream(&config, &IncidentPlan::default());
        assert_eq!(merged.len(), bare.len() + 40);
        // The merged stream is globally ordered by (submitted, vm).
        for pair in merged.windows(2) {
            assert!(
                (pair[0].submitted, pair[0].vm.0) <= (pair[1].submitted, pair[1].vm.0),
                "stream out of order at {:?} -> {:?}",
                pair[0].submitted,
                pair[1].submitted
            );
        }
        // Storm requests live in their own id space, land inside the storm
        // window at microsecond jitter, and carry the config's
        // deadline/retry stamps like organic arrivals.
        let storm: Vec<&PlaceRequest> = merged
            .iter()
            .filter(|r| r.vm.0 >= STORM_VM_ID_BASE)
            .collect();
        assert_eq!(storm.len(), 40);
        for request in &storm {
            assert!(request.submitted >= Micros::from_secs(2));
            assert!(request.submitted < Micros::from_secs(5));
            assert_eq!(
                request.deadline,
                Some(request.submitted + Micros::from_millis(100))
            );
            assert_eq!(request.retries, 2);
        }
        assert!(
            storm
                .iter()
                .any(|r| r.submitted.as_micros() % Micros::PER_SEC != 0),
            "storm jitter is sub-second on the serve clock"
        );
        // The generator's own requests pass through untouched.
        let organic: Vec<&PlaceRequest> = merged
            .iter()
            .filter(|r| r.vm.0 < STORM_VM_ID_BASE)
            .collect();
        assert_eq!(organic.len(), bare.len());
        assert!(organic.iter().zip(&bare).all(|(a, b)| **a == *b));
        // Same plan, same draws: the wrapper replays bit-identically.
        assert_eq!(merged, serve_stream(&config, &storm_plan));
    }

    #[test]
    fn chaos_arrivals_applies_drift_to_generator_lifetimes() {
        let config = ServeConfig::at_rate(50.0);
        let shift_at = Duration::from_secs(5);
        let drift_plan = plan(vec![Incident::DriftShift {
            at: shift_at,
            lifetime_scale: 3.0,
        }]);
        let drifted = serve_stream(&config, &drift_plan);
        let bare = serve_stream(&config, &IncidentPlan::default());
        assert_eq!(drifted.len(), bare.len());
        let boundary = Micros::from_duration(shift_at);
        let mut scaled = 0;
        for (a, b) in drifted.iter().zip(&bare) {
            assert_eq!(a.submitted, b.submitted);
            if a.submitted < boundary {
                assert_eq!(a.lifetime, b.lifetime);
            } else {
                let expected =
                    Duration::from_secs_f64((b.lifetime.as_secs() as f64 * 3.0).max(1.0));
                assert_eq!(a.lifetime, expected);
                scaled += 1;
            }
        }
        assert!(scaled > 0, "the shift window must cover some arrivals");
    }
}

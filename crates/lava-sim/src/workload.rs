//! Synthetic production-like workload generation.
//!
//! We do not have Google's production traces, so this module generates
//! synthetic pools calibrated to the statistics the paper publishes:
//!
//! * most VMs are short-lived but most core-hours belong to long-lived VMs
//!   (Fig. 1: 88 % of VMs live under an hour, 98 % of resources are consumed
//!   by VMs living an hour or more);
//! * per-category lifetime distributions are multi-modal (Fig. 2), so a
//!   category's *average* lifetime is a poor predictor but its
//!   *distribution* is informative;
//! * pools differ in size, utilisation and workload mix (§6.1 notes the 24
//!   evaluated pools vary significantly);
//! * workloads drift over time (§6.6), which we model with a slow
//!   multiplicative shift of category lifetime scales.
//!
//! Lifetimes are drawn from per-category log-normal mixtures; arrivals are a
//! Poisson process whose rate is chosen so the pool reaches a target
//! steady-state utilisation.

use crate::trace::Trace;
use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::host::HostSpec;
use lava_core::pool::PoolId;
use lava_core::resources::Resources;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{ProvisioningModel, VmFamily, VmId, VmPriority, VmSpec};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One mode of a category's lifetime mixture: a log-normal component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeMode {
    /// Mixture weight (normalised internally).
    pub weight: f64,
    /// Median lifetime of this mode, in hours.
    pub median_hours: f64,
    /// Log10-domain standard deviation of this mode.
    pub sigma_log10: f64,
}

/// A VM category: a group of VMs with a common shape distribution and
/// lifetime mixture (the generator's analogue of the paper's "VM category" /
/// "metadata id" features).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmCategory {
    /// The categorical id exposed to the model features.
    pub category_id: u32,
    /// Relative arrival weight of this category.
    pub arrival_weight: f64,
    /// Lifetime mixture components.
    pub lifetime_modes: Vec<LifetimeMode>,
    /// Candidate shapes (cores, memory GiB) drawn uniformly.
    pub shapes: Vec<(u64, u64)>,
    /// Probability that a VM of this category attaches local SSD.
    pub ssd_probability: f64,
    /// Whether VMs of this category are spot instances.
    pub spot: bool,
}

impl VmCategory {
    /// Mean CPU·seconds consumed by one VM of this category (used to size
    /// the arrival rate).
    fn mean_core_seconds(&self) -> f64 {
        let mean_cores = self.shapes.iter().map(|(c, _)| *c as f64).sum::<f64>()
            / self.shapes.len().max(1) as f64;
        let total_weight: f64 = self.lifetime_modes.iter().map(|m| m.weight).sum();
        let mean_secs: f64 = self
            .lifetime_modes
            .iter()
            .map(|m| {
                // Mean of a log-normal with median m and sigma in log10:
                // exp(mu + s^2/2) where mu = ln(median), s = sigma*ln(10).
                let s = m.sigma_log10 * std::f64::consts::LN_10;
                let mean = (m.median_hours * 3600.0) * (s * s / 2.0).exp();
                m.weight / total_weight * mean
            })
            .sum();
        mean_cores * mean_secs
    }
}

/// Configuration of one synthetic pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Pool identifier.
    pub pool_id: PoolId,
    /// Number of hosts.
    pub hosts: usize,
    /// Host shape.
    pub host_cores: u64,
    /// Host memory in GiB.
    pub host_memory_gib: u64,
    /// Host local SSD in GiB.
    pub host_ssd_gib: u64,
    /// VM family served by this pool.
    pub family: VmFamily,
    /// Target steady-state CPU utilisation in `[0, 1]`.
    pub target_utilization: f64,
    /// Trace duration (excluding warm-up).
    pub duration: Duration,
    /// Workload mix.
    pub categories: Vec<VmCategory>,
    /// Multiplicative drift of lifetime medians per week of trace time
    /// (1.0 = no drift); models §6.6's workload shift.
    pub weekly_drift: f64,
    /// Fraction of the steady-state standing population materialised at the
    /// start of the trace (the pool is not born empty; the paper's traces
    /// start from a running production pool).
    pub initial_fill_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PoolConfig {
    /// The host spec for this pool.
    pub fn host_spec(&self) -> HostSpec {
        HostSpec::new(Resources::new(
            self.host_cores * 1000,
            self.host_memory_gib * 1024,
            self.host_ssd_gib,
        ))
    }

    /// Total CPU capacity of the pool, in milli-cores.
    pub fn total_cpu_milli(&self) -> u64 {
        self.host_cores * 1000 * self.hosts as u64
    }
}

/// The default workload mix, calibrated so that ~88 % of VMs live under an
/// hour while long-lived VMs dominate core-hours (Fig. 1).
///
/// The absolute scale of the long tail is compressed relative to a
/// production fleet (the longest category has a median of ~10 days rather
/// than months) so that host churn — the phenomenon lifetime-aware
/// scheduling exploits — happens within the 1–2 simulated weeks the
/// experiments run for, instead of the 7-week production traces the paper
/// uses. The *shape* (most VMs short, long VMs holding most core-hours,
/// bi-modal per-category distributions) is preserved; see DESIGN.md.
pub fn default_categories() -> Vec<VmCategory> {
    vec![
        // Short batch / CI jobs: minutes. The bulk of arrivals.
        VmCategory {
            category_id: 1,
            arrival_weight: 70.0,
            lifetime_modes: vec![
                LifetimeMode {
                    weight: 0.8,
                    median_hours: 0.12,
                    sigma_log10: 0.25,
                },
                LifetimeMode {
                    weight: 0.2,
                    median_hours: 0.4,
                    sigma_log10: 0.2,
                },
            ],
            shapes: vec![(2, 8), (4, 16)],
            ssd_probability: 0.05,
            spot: true,
        },
        // Interactive dev/test VMs: tens of minutes, occasionally a day
        // (bi-modal, hard to predict — the Fig. 2 example).
        VmCategory {
            category_id: 2,
            arrival_weight: 19.0,
            lifetime_modes: vec![
                LifetimeMode {
                    weight: 0.75,
                    median_hours: 0.5,
                    sigma_log10: 0.3,
                },
                LifetimeMode {
                    weight: 0.25,
                    median_hours: 20.0,
                    sigma_log10: 0.35,
                },
            ],
            shapes: vec![(2, 8), (4, 16), (8, 32)],
            ssd_probability: 0.1,
            spot: false,
        },
        // Batch analytics: hours.
        VmCategory {
            category_id: 3,
            arrival_weight: 7.0,
            lifetime_modes: vec![
                LifetimeMode {
                    weight: 0.7,
                    median_hours: 4.0,
                    sigma_log10: 0.3,
                },
                LifetimeMode {
                    weight: 0.3,
                    median_hours: 16.0,
                    sigma_log10: 0.3,
                },
            ],
            shapes: vec![(8, 32), (16, 64)],
            ssd_probability: 0.3,
            spot: false,
        },
        // Services / web servers: days. Few arrivals, most core-hours.
        VmCategory {
            category_id: 4,
            arrival_weight: 3.5,
            lifetime_modes: vec![
                LifetimeMode {
                    weight: 0.5,
                    median_hours: 40.0,
                    sigma_log10: 0.3,
                },
                LifetimeMode {
                    weight: 0.5,
                    median_hours: 110.0,
                    sigma_log10: 0.25,
                },
            ],
            shapes: vec![(4, 16), (8, 32), (16, 64)],
            ssd_probability: 0.2,
            spot: false,
        },
        // Databases / stateful services: the long tail (~1–2 weeks).
        VmCategory {
            category_id: 5,
            arrival_weight: 0.5,
            lifetime_modes: vec![LifetimeMode {
                weight: 1.0,
                median_hours: 250.0,
                sigma_log10: 0.2,
            }],
            shapes: vec![(16, 64), (32, 128)],
            ssd_probability: 0.6,
            spot: false,
        },
    ]
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            pool_id: PoolId(0),
            hosts: 120,
            host_cores: 64,
            host_memory_gib: 256,
            host_ssd_gib: 3000,
            family: VmFamily::C2,
            target_utilization: 0.75,
            duration: Duration::from_days(7),
            categories: default_categories(),
            weekly_drift: 1.0,
            initial_fill_fraction: 0.85,
            seed: 1,
        }
    }
}

impl PoolConfig {
    /// A small configuration for unit tests and smoke runs.
    pub fn small(seed: u64) -> PoolConfig {
        PoolConfig {
            hosts: 24,
            duration: Duration::from_days(2),
            seed,
            ..PoolConfig::default()
        }
    }

    /// The fleet of varied pools used for the Fig. 6-style sweep: pools of
    /// different sizes, utilisations and mixes (deterministic per index).
    pub fn fleet(count: usize) -> Vec<PoolConfig> {
        (0..count)
            .map(|i| {
                let mut categories = default_categories();
                // Vary the workload mix across pools: tilt between
                // short-dominated and service-dominated pools.
                let tilt = 0.6 + 0.8 * (i % 5) as f64 / 4.0;
                for c in &mut categories {
                    if c.category_id >= 4 {
                        c.arrival_weight *= tilt;
                    }
                }
                PoolConfig {
                    pool_id: PoolId(i as u32),
                    hosts: 60 + 30 * (i % 4),
                    host_cores: if i % 3 == 0 { 96 } else { 64 },
                    host_memory_gib: if i % 3 == 0 { 384 } else { 256 },
                    host_ssd_gib: 3000,
                    family: if i % 2 == 0 {
                        VmFamily::C2
                    } else {
                        VmFamily::E2
                    },
                    target_utilization: 0.70 + 0.04 * (i % 5) as f64,
                    duration: Duration::from_days(14),
                    categories,
                    weekly_drift: 1.0,
                    initial_fill_fraction: 0.85,
                    seed: 1000 + i as u64,
                }
            })
            .collect()
    }
}

/// Generates synthetic traces from a [`PoolConfig`].
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: PoolConfig,
}

impl WorkloadGenerator {
    /// Create a generator for a pool configuration.
    pub fn new(config: PoolConfig) -> WorkloadGenerator {
        WorkloadGenerator { config }
    }

    /// The configuration being generated.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The Poisson arrival rate (VMs per second) that achieves the target
    /// utilisation in steady state.
    pub fn arrival_rate(&self) -> f64 {
        let total_weight: f64 = self
            .config
            .categories
            .iter()
            .map(|c| c.arrival_weight)
            .sum();
        let mean_core_seconds: f64 = self
            .config
            .categories
            .iter()
            .map(|c| c.arrival_weight / total_weight * c.mean_core_seconds())
            .sum();
        let target_cores =
            self.config.total_cpu_milli() as f64 / 1000.0 * self.config.target_utilization;
        if mean_core_seconds <= 0.0 {
            0.0
        } else {
            target_cores / mean_core_seconds
        }
    }

    fn sample_category<'a>(&'a self, rng: &mut ChaCha8Rng) -> &'a VmCategory {
        let total: f64 = self
            .config
            .categories
            .iter()
            .map(|c| c.arrival_weight)
            .sum();
        let mut draw = rng.gen_range(0.0..total);
        for c in &self.config.categories {
            if draw < c.arrival_weight {
                return c;
            }
            draw -= c.arrival_weight;
        }
        self.config
            .categories
            .last()
            .expect("pool config has at least one category")
    }

    fn sample_lifetime(
        &self,
        category: &VmCategory,
        at: SimTime,
        rng: &mut ChaCha8Rng,
    ) -> Duration {
        let total: f64 = category.lifetime_modes.iter().map(|m| m.weight).sum();
        let mut draw = rng.gen_range(0.0..total);
        let mut mode = category.lifetime_modes[0];
        for m in &category.lifetime_modes {
            if draw < m.weight {
                mode = *m;
                break;
            }
            draw -= m.weight;
        }
        // Workload drift: lifetime medians shift multiplicatively per week.
        let weeks = at.as_days() / 7.0;
        let drift = self.config.weekly_drift.powf(weeks);
        // Log-normal in the log10 domain via Box-Muller.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let log10_hours = (mode.median_hours * drift).log10() + mode.sigma_log10 * gauss;
        let hours = 10f64.powf(log10_hours.clamp(-3.0, 3.2));
        Duration::from_hours_f64(hours).max(Duration::from_secs(30))
    }

    fn sample_spec(&self, category: &VmCategory, rng: &mut ChaCha8Rng) -> VmSpec {
        let (cores, mem) = category.shapes[rng.gen_range(0..category.shapes.len())];
        let has_ssd = rng.gen_bool(category.ssd_probability);
        let ssd_gib = if has_ssd { 375 } else { 0 };
        VmSpec::builder(Resources::new(cores * 1000, mem * 1024, ssd_gib))
            .family(self.config.family)
            .zone(self.config.pool_id.0)
            .category(category.category_id)
            .metadata_id(category.category_id * 10 + rng.gen_range(0..3u32))
            .has_ssd(has_ssd)
            .provisioning(if category.spot {
                ProvisioningModel::Spot
            } else {
                ProvisioningModel::OnDemand
            })
            .priority(if category.spot {
                VmPriority::Preemptible
            } else {
                VmPriority::Production
            })
            .admission_bypass(category.category_id == 5)
            .build()
    }

    /// Sample one request-shaped VM at virtual time `at`: a category draw,
    /// then a spec and a (ground-truth) lifetime from that category. This
    /// is the hook the serving tier's open-loop arrival generators use to
    /// give their request streams the same workload mix, shapes and
    /// drifting lifetime distributions as the batch traces, without going
    /// through trace materialisation.
    pub fn sample_request_vm(&self, at: SimTime, rng: &mut ChaCha8Rng) -> (VmSpec, Duration) {
        let category = self.sample_category(rng);
        let lifetime = self.sample_lifetime(category, at, rng);
        let spec = self.sample_spec(category, rng);
        (spec, lifetime)
    }

    /// The standing population the pool would hold in steady state: VMs
    /// that were created before the trace window and are still running at
    /// its start. Their count per category follows Little's law
    /// (`λ_cat · E[lifetime]`); their *remaining* lifetime is sampled from
    /// the equilibrium residual-life distribution (length-biased lifetime,
    /// uniform age). They appear as creations in the first minutes of the
    /// trace, which is exactly the left-censored state the paper's warm-up
    /// phase reconstructs (Appendix F).
    fn standing_population(&self, rng: &mut ChaCha8Rng, next_id: &mut u64) -> Vec<TraceEvent> {
        let rate = self.arrival_rate();
        let total_weight: f64 = self
            .config
            .categories
            .iter()
            .map(|c| c.arrival_weight)
            .sum();
        let mut events = Vec::new();
        for category in &self.config.categories {
            let cat_rate = rate * category.arrival_weight / total_weight;
            // Mean lifetime of the category's mixture, in seconds.
            let mode_weight: f64 = category.lifetime_modes.iter().map(|m| m.weight).sum();
            let mean_lifetime: f64 = category
                .lifetime_modes
                .iter()
                .map(|m| {
                    let s = m.sigma_log10 * std::f64::consts::LN_10;
                    m.weight / mode_weight * (m.median_hours * 3600.0) * (s * s / 2.0).exp()
                })
                .sum();
            let expected_standing =
                cat_rate * mean_lifetime * self.config.initial_fill_fraction.clamp(0.0, 1.0);
            // Poisson sample of the standing count (normal approximation for
            // large means keeps this cheap and deterministic enough).
            let count = sample_poisson(expected_standing, rng);
            for _ in 0..count {
                // Length-biased mode choice, then length-biased log-normal
                // lifetime (log-normal with mean shifted by s²), then a
                // uniform age.
                let mode = pick_length_biased_mode(category, rng);
                let s = mode.sigma_log10 * std::f64::consts::LN_10;
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let ln_lifetime = (mode.median_hours * 3600.0).ln() + s * s + s * gauss;
                let lifetime_secs = ln_lifetime.exp().clamp(30.0, 5.0e7);
                let age = rng.gen_range(0.0..lifetime_secs);
                let remaining = (lifetime_secs - age).max(30.0);
                // Stagger the synthetic creations over the first 10 minutes
                // so event ordering stays deterministic but not degenerate.
                let at = SimTime(rng.gen_range(0..600));
                let spec = self.sample_spec(category, rng);
                let vm = VmId(*next_id);
                *next_id += 1;
                let remaining = Duration::from_secs_f64(remaining);
                events.push(TraceEvent::create(at, vm, spec, remaining));
                events.push(TraceEvent::exit(at + remaining, vm));
            }
        }
        events
    }

    /// Advance the Poisson arrival process by one arrival: draw the
    /// exponential inter-arrival gap and, if the clock stays inside the
    /// horizon, the arrival's category, lifetime and spec. Returns the
    /// `(create, exit)` event pair, or `None` once the clock crosses the
    /// horizon (after which no further RNG draws are made).
    fn next_arrival(
        &self,
        rng: &mut ChaCha8Rng,
        clock: &mut f64,
        rate: f64,
        next_id: &mut u64,
    ) -> Option<(TraceEvent, TraceEvent)> {
        let horizon = self.config.duration.as_secs() as f64;
        // Exponential inter-arrival times.
        let u: f64 = rng.gen_range(1e-12..1.0);
        *clock += -u.ln() / rate.max(1e-12);
        if *clock >= horizon {
            return None;
        }
        let at = SimTime(*clock as u64);
        let category = self.sample_category(rng).clone();
        let lifetime = self.sample_lifetime(&category, at, rng);
        let spec = self.sample_spec(&category, rng);
        let vm = VmId(*next_id);
        *next_id += 1;
        Some((
            TraceEvent::create(at, vm, spec, lifetime),
            TraceEvent::exit(at + lifetime, vm),
        ))
    }

    /// Generate a trace covering `[0, duration)` (plus exits that may fall
    /// after the end of the arrival window): the whole
    /// [`WorkloadGenerator::stream`], collected.
    pub fn generate(&self) -> Trace {
        let mut stream = self.clone().stream();
        let events = std::iter::from_fn(|| stream.next_event()).collect();
        Trace::new(self.config.pool_id, events)
    }

    /// Turn the generator into a lazy, pull-based [`StreamingWorkload`].
    pub fn stream(self) -> StreamingWorkload {
        StreamingWorkload::from_generator(self)
    }
}

/// A lazy, pull-based [`EventSource`] over the synthetic workload;
/// [`WorkloadGenerator::generate`] is this stream, collected.
///
/// Instead of materialising the whole horizon as a `Vec<TraceEvent>`, the
/// source draws arrivals from the seeded distributions *on demand* and
/// keeps only what it cannot know yet: the exit events of VMs that have
/// been created but not yet retired, plus one look-ahead arrival. Memory
/// is therefore O(pending VMs) — proportional to the standing population
/// the pool can hold — and independent of the horizon length, which is
/// what makes multi-million-event runs feasible.
///
/// The internal heap pops events in [`TraceEvent::sort_key`] order — the
/// canonical order [`Trace::new`](crate::trace::Trace::new) sorts into —
/// so the stream is already canonical (property-tested in
/// `tests/streaming_engine.rs`).
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    generator: WorkloadGenerator,
    rng: ChaCha8Rng,
    rate: f64,
    /// Arrival-process clock, in (fractional) seconds.
    clock: f64,
    next_id: u64,
    /// Buffered future events: pending exits of live VMs, the staggered
    /// standing-population events not yet replayed, and the look-ahead
    /// arrival. Pops in `sort_key` order.
    pending: BinaryHeap<Reverse<TraceEvent>>,
    /// Sort key of the most recently generated create. Every event the
    /// generator has *not* produced yet sorts strictly after it (arrival
    /// times are non-decreasing, ids increase, and lifetimes are ≥ 30 s),
    /// so heap entries at or below this frontier are safe to emit.
    frontier: Option<(SimTime, u8, VmId)>,
    arrivals_done: bool,
    last_create_time: SimTime,
    max_pending: usize,
}

impl StreamingWorkload {
    /// Create a streaming source for a pool configuration.
    pub fn new(config: PoolConfig) -> StreamingWorkload {
        WorkloadGenerator::new(config).stream()
    }

    fn from_generator(generator: WorkloadGenerator) -> StreamingWorkload {
        let mut rng = ChaCha8Rng::seed_from_u64(generator.config.seed);
        let rate = generator.arrival_rate();
        let mut next_id = 0u64;
        // The standing population is drawn eagerly: it is O(pool size),
        // not O(horizon).
        let standing = generator.standing_population(&mut rng, &mut next_id);
        let mut last_create_time = SimTime::ZERO;
        let mut pending = BinaryHeap::with_capacity(standing.len() + 2);
        for event in standing {
            if matches!(event.kind, TraceEventKind::Create { .. }) {
                last_create_time = last_create_time.max(event.time);
            }
            pending.push(Reverse(event));
        }
        let max_pending = pending.len();
        StreamingWorkload {
            generator,
            rng,
            rate,
            clock: 0.0,
            next_id,
            pending,
            frontier: None,
            arrivals_done: false,
            last_create_time,
            max_pending,
        }
    }

    /// The configuration being streamed.
    pub fn config(&self) -> &PoolConfig {
        &self.generator.config
    }

    /// High-water mark of the pending-event buffer — the source's peak
    /// memory footprint in events. Stays O(live VMs) regardless of the
    /// horizon (asserted by `pending_buffer_is_bounded_and_horizon_independent`
    /// in `tests/streaming_engine.rs`).
    pub fn max_pending_len(&self) -> usize {
        self.max_pending
    }

    fn generate_one_arrival(&mut self) {
        let generator = &self.generator;
        match generator.next_arrival(&mut self.rng, &mut self.clock, self.rate, &mut self.next_id) {
            Some((create, exit)) => {
                self.frontier = Some(create.sort_key());
                self.last_create_time = self.last_create_time.max(create.time);
                self.pending.push(Reverse(exit));
                self.pending.push(Reverse(create));
                self.max_pending = self.max_pending.max(self.pending.len());
            }
            None => self.arrivals_done = true,
        }
    }

    /// Generate arrivals until the heap's minimum is safe to emit: every
    /// not-yet-generated event sorts strictly after the frontier, so the
    /// minimum may only be released once it is at or below it (or the
    /// arrival process has crossed the horizon).
    fn refill(&mut self) {
        while !self.arrivals_done {
            let safe = match (self.pending.peek(), self.frontier) {
                (Some(Reverse(min)), Some(frontier)) => min.sort_key() <= frontier,
                _ => false,
            };
            if safe {
                break;
            }
            self.generate_one_arrival();
        }
    }
}

impl EventSource for StreamingWorkload {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.refill();
        self.pending.pop().map(|Reverse(event)| event)
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.refill();
        self.pending.peek().map(|Reverse(event)| event)
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        if self.arrivals_done {
            Some(self.last_create_time)
        } else {
            None
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Sample a Poisson random variate with the given mean. Uses Knuth's method
/// for small means and a clamped normal approximation for large ones.
fn sample_poisson(mean: f64, rng: &mut ChaCha8Rng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0f64..1.0);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    } else {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + mean.sqrt() * gauss).round().max(0.0) as u64
    }
}

/// Pick a lifetime mode with probability proportional to `weight × mean`
/// (length-biased across modes, as required for the standing population).
fn pick_length_biased_mode(category: &VmCategory, rng: &mut ChaCha8Rng) -> LifetimeMode {
    let biased_weight = |m: &LifetimeMode| {
        let s = m.sigma_log10 * std::f64::consts::LN_10;
        m.weight * m.median_hours * (s * s / 2.0).exp()
    };
    let total: f64 = category.lifetime_modes.iter().map(biased_weight).sum();
    let mut draw = rng.gen_range(0.0..total.max(1e-12));
    for m in &category.lifetime_modes {
        let w = biased_weight(m);
        if draw < w {
            return *m;
        }
        draw -= w;
    }
    *category
        .lifetime_modes
        .last()
        .expect("category has at least one lifetime mode")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_nonempty_sorted_trace() {
        let generator = WorkloadGenerator::new(PoolConfig::small(7));
        let trace = generator.generate();
        assert!(trace.vm_count() > 100, "only {} VMs", trace.vm_count());
        let times: Vec<_> = trace.events().iter().map(|e| e.sort_key()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace not sorted");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorkloadGenerator::new(PoolConfig::small(11)).generate();
        let b = WorkloadGenerator::new(PoolConfig::small(11)).generate();
        assert_eq!(a.events(), b.events());
        let c = WorkloadGenerator::new(PoolConfig::small(12)).generate();
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn lifetime_distribution_matches_paper_shape() {
        // Fig. 1: ~88 % of VMs live under 1 hour, but VMs living ≥ 1 hour
        // consume the overwhelming majority of core-hours. Measured over
        // fresh arrivals (the standing population at t≈0 is length-biased
        // by construction).
        let generator = WorkloadGenerator::new(PoolConfig {
            duration: Duration::from_days(4),
            initial_fill_fraction: 0.0,
            ..PoolConfig::default()
        });
        let trace = generator.generate();
        let obs = trace.observations();
        let total = obs.len() as f64;
        let short = obs
            .iter()
            .filter(|(_, l)| *l < Duration::from_hours(1))
            .count() as f64;
        let short_fraction = short / total;
        assert!(
            (0.75..0.95).contains(&short_fraction),
            "short fraction {short_fraction}"
        );

        let core_hours =
            |spec: &VmSpec, l: &Duration| spec.resources().cpu_milli as f64 / 1000.0 * l.as_hours();
        let total_core_hours: f64 = obs.iter().map(|(s, l)| core_hours(s, l)).sum();
        let long_core_hours: f64 = obs
            .iter()
            .filter(|(_, l)| *l >= Duration::from_hours(1))
            .map(|(s, l)| core_hours(s, l))
            .sum();
        let long_share = long_core_hours / total_core_hours;
        assert!(long_share > 0.9, "long-lived core-hour share {long_share}");
    }

    #[test]
    fn standing_population_brings_pool_near_target_utilization() {
        // With the standing population materialised, the trace-implied CPU
        // utilisation at mid-trace should be in the neighbourhood of the
        // target rather than near zero.
        let config = PoolConfig::default();
        let trace = WorkloadGenerator::new(config.clone()).generate();
        let mid = SimTime::ZERO + Duration::from_days(3);
        let util =
            crate::validation::trace_utilization(&trace, &[mid], config.total_cpu_milli())[0];
        assert!(
            (0.4..=1.0).contains(&util),
            "mid-trace utilisation {util} too far from target {}",
            config.target_utilization
        );
    }

    #[test]
    fn arrival_rate_scales_with_utilization() {
        let low = WorkloadGenerator::new(PoolConfig {
            target_utilization: 0.3,
            ..PoolConfig::default()
        });
        let high = WorkloadGenerator::new(PoolConfig {
            target_utilization: 0.9,
            ..PoolConfig::default()
        });
        assert!(high.arrival_rate() > low.arrival_rate() * 2.0);
    }

    #[test]
    fn fleet_produces_varied_pools() {
        let fleet = PoolConfig::fleet(24);
        assert_eq!(fleet.len(), 24);
        let sizes: std::collections::BTreeSet<_> = fleet.iter().map(|p| p.hosts).collect();
        assert!(sizes.len() > 1, "pools should vary in size");
        let ids: std::collections::BTreeSet<_> = fleet.iter().map(|p| p.pool_id).collect();
        assert_eq!(ids.len(), 24, "pool ids must be unique");
    }

    #[test]
    fn streaming_source_matches_materialized_generator() {
        let config = PoolConfig::small(21);
        let trace = WorkloadGenerator::new(config.clone()).generate();
        let mut source = StreamingWorkload::new(config);
        assert_eq!(source.last_arrival_time(), None, "arrivals still coming");
        let streamed: Vec<_> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(streamed, trace.events(), "streams diverged");
        assert_eq!(source.last_arrival_time(), Some(trace.last_arrival_time()));
        assert_eq!(source.pending_len(), 0);
        assert!(
            source.max_pending_len() < trace.events().len(),
            "pending buffer ({}) should stay below the full event count ({})",
            source.max_pending_len(),
            trace.events().len()
        );
    }

    #[test]
    fn streaming_peek_is_stable_and_non_consuming() {
        let mut source = StreamingWorkload::new(PoolConfig::small(22));
        let peeked = source.peek().cloned().expect("non-empty stream");
        assert_eq!(source.peek(), Some(&peeked), "peek must not consume");
        assert_eq!(source.next_event(), Some(peeked));
    }

    #[test]
    fn drift_shifts_lifetimes_over_time() {
        let config = PoolConfig {
            weekly_drift: 3.0,
            duration: Duration::from_days(14),
            target_utilization: 0.4,
            initial_fill_fraction: 0.0,
            ..PoolConfig::default()
        };
        let trace = WorkloadGenerator::new(config).generate();
        // Average log lifetime in the first vs last 3 days should increase.
        let mut early = Vec::new();
        let mut late = Vec::new();
        for e in trace.events() {
            if let lava_core::events::TraceEventKind::Create { lifetime, .. } = &e.kind {
                if e.time < SimTime::ZERO + Duration::from_days(3) {
                    early.push(lifetime.log10_secs());
                } else if e.time > SimTime::ZERO + Duration::from_days(11) {
                    late.push(lifetime.log10_secs());
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&late) > mean(&early) + 0.1);
    }
}

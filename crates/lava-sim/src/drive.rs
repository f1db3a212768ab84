//! The streaming drive loop every run goes through: [`drive`] replays one
//! event source against one scheduler, merging source events with the
//! tick/sample cadences, defragmentation triggers, incident actions and
//! the warm-up policy switch on one [`Timeline`], and fans everything out
//! to the observers. Placements, rejections and exits reach the observers
//! straight from what `Scheduler::schedule` / `Scheduler::exit` return;
//! the exit of a VM whose create was rejected finds nothing to remove and
//! reaches no observer. [`DriveLoop`] is the same loop in resumable form,
//! so the fleet tier can step cells in bounded epochs.
//!
//! Policy ticks and metric samples stop at the source's last arrival, so
//! a run's cadence work follows its arrival window, not its latest exit;
//! [`drive`] says why that changes no placement.

use crate::chaos::ChaosController;
use crate::observer::{ObserverContext, SimObserver};
use crate::timeline::{Timeline, TimelineAction, TimelineItem};
use lava_core::events::TraceEventKind;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::Vm;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::Scheduler;

/// Timing parameters of one [`drive`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveTiming {
    /// Length of the warm-up phase.
    pub warmup: Duration,
    /// Whether warm-up placements use the lifetime-agnostic baseline (the
    /// caller swaps in the evaluated policy via `deferred_policy`).
    pub warmup_with_baseline: bool,
    /// Interval between policy ticks. Ticks fire at time zero and every
    /// interval after it up to the source's last arrival, and no further
    /// (see [`drive`](crate::experiment::drive)): a run ticks
    /// `⌊last arrival / interval⌋ + 1` times however late its last exit.
    pub tick_interval: Duration,
    /// Interval between metric samples.
    pub sample_interval: Duration,
    /// Record samples during warm-up too (pre/post analyses need the
    /// pre-intervention series).
    pub sample_during_warmup: bool,
    /// When set, schedule defragmentation trigger checks on the timeline
    /// at this exact cadence (first trigger one interval in), dispatched
    /// to [`SimObserver::on_defrag_trigger`].
    pub defrag_trigger: Option<Duration>,
}

fn dispatch<F>(
    scheduler: &Scheduler,
    now: SimTime,
    observers: &mut [&mut dyn SimObserver],
    mut hook: F,
) where
    F: FnMut(&mut dyn SimObserver, &ObserverContext<'_>),
{
    let ctx = ObserverContext {
        cluster: scheduler.cluster(),
        predictor: scheduler.predictor().as_ref(),
        policy: scheduler.policy_name(),
        now,
    };
    for observer in observers.iter_mut() {
        hook(&mut **observer, &ctx);
    }
}

/// Whether a cadence entry due at `at` falls inside the source's arrival
/// window, i.e. no later than its last arrival. When the source cannot
/// know its final arrival yet (`None`), at least one more create is
/// coming — necessarily at a time ≥ `at` (the stream is ordered and
/// everything before `at` has already been delivered), so `at` is inside
/// the window.
fn in_arrival_window(source: &mut dyn EventSource, at: SimTime) -> bool {
    source
        .last_arrival_time()
        .is_none_or(|last_arrival| at <= last_arrival)
}

/// The unified, streaming event loop: pull events from `source`, merge
/// them with the tick/sample cadences, defragmentation triggers and the
/// warm-up policy switch on one [`Timeline`], and fan everything out to
/// `observers`.
///
/// The loop keeps exactly one source event buffered on the timeline (the
/// source cursor), so total memory is the source's pending buffer plus a
/// handful of cadence entries — O(pending VMs) with a streaming source.
/// Cadence entries fire only up to the time of the source's last event;
/// policy ticks and metric samples stop earlier, at the source's last
/// arrival. For samples that is the definition of the measured window.
/// For ticks it changes no decision: a tick (LAVA's deadline check,
/// Fig. 5c) changes only a LAVA host's class, state, deadline and
/// residual set; only LAVA's own host choice reads them, and no placement
/// happens after the last arrival (incidents never schedule, and the
/// serving tier never ticks). The tiebreak at equal timestamps is the
/// timeline's documented order (policy switch, defrag triggers, exits,
/// creates, ticks, samples — see [`crate::timeline`]).
///
/// Returns the number of creation events that could not be placed.
/// A thin wrapper over `DriveLoop`, the loop the fleet tier
/// ([`crate::fleet`]) steps per cell in bounded epochs — and so the loop
/// every [`Experiment::run`](crate::experiment::Experiment::run) goes
/// through. Runs that hand over a lazy source and a hand-built
/// [`Scheduler`] call it directly.
pub fn drive(
    source: &mut dyn EventSource,
    scheduler: &mut Scheduler,
    deferred_policy: Option<Box<dyn PlacementPolicy>>,
    timing: &DriveTiming,
    observers: &mut [&mut dyn SimObserver],
) -> u64 {
    let mut driver = DriveLoop::new(deferred_policy, timing);
    driver.step(source, scheduler, observers, None, false);
    driver.finish(scheduler, observers)
}

/// The resumable state of one [`drive`] pass.
///
/// [`drive`] runs a loop to completion over one source; the fleet tier
/// needs the *same* loop but stepped in bounded time slices, so the loop
/// state (timeline, rejection count, source cursor, deferred policy) lives in
/// this struct and [`DriveLoop::step`] processes items due before a limit.
/// A full run is `new` → `step(.., None, false)` → `finish`, which is
/// exactly what [`drive`] does; a fleet cell interleaves
/// `step(.., Some(epoch_end), true)` calls with router epochs and ends
/// with the same final step + `finish`.
pub(crate) struct DriveLoop {
    timing: DriveTiming,
    timeline: Timeline,
    deferred_policy: Option<Box<dyn PlacementPolicy>>,
    rejected_count: u64,
    cursor_buffered: bool,
    source_exhausted: bool,
    last_event_time: Option<SimTime>,
    /// Run the cadence at least until this time, even past the source's
    /// final event. A fleet cell sets this to the *fleet-wide* last
    /// arrival so every cell samples the identical grid regardless of
    /// when its own routed events end; `None` (the plain [`drive`] path)
    /// keeps the classic stop-at-last-event behaviour.
    cadence_horizon: Option<SimTime>,
    /// The cell's incident controller, when the spec schedules chaos.
    chaos: Option<ChaosController>,
}

impl DriveLoop {
    /// Set up the loop: schedule the initial cadence entries (tick,
    /// sample, defrag trigger, policy switch).
    pub(crate) fn new(
        deferred_policy: Option<Box<dyn PlacementPolicy>>,
        timing: &DriveTiming,
    ) -> DriveLoop {
        let warmup_end = SimTime::ZERO + timing.warmup;
        let sample_start = if timing.sample_during_warmup {
            SimTime::ZERO
        } else {
            warmup_end
        };

        let mut timeline = Timeline::new();
        timeline.schedule(TimelineAction::Tick, SimTime::ZERO);
        timeline.schedule(TimelineAction::Sample, sample_start);
        if let Some(interval) = timing.defrag_trigger {
            timeline.schedule(TimelineAction::DefragTrigger, SimTime::ZERO + interval);
        }
        if deferred_policy.is_some() {
            timeline.schedule(TimelineAction::PolicySwitch, warmup_end);
        }
        DriveLoop {
            timing: *timing,
            timeline,
            deferred_policy,
            rejected_count: 0,
            cursor_buffered: false,
            source_exhausted: false,
            last_event_time: None,
            cadence_horizon: None,
            chaos: None,
        }
    }

    /// Attach an incident controller: its start/end actions (and the
    /// recalibration cadence, when enabled) are scheduled on this loop's
    /// timeline and executed by [`DriveLoop::step`].
    pub(crate) fn attach_chaos(&mut self, controller: ChaosController) {
        controller.schedule(&mut self.timeline);
        self.chaos = Some(controller);
    }

    /// Extend the cadence window to at least `horizon` (see
    /// [`DriveLoop::cadence_horizon`]). A no-op when the source's own
    /// final event is later — for a single-cell fleet the cell's last
    /// event *is* the fleet's, so this never changes the 1-cell runs.
    pub(crate) fn set_cadence_horizon(&mut self, horizon: Option<SimTime>) {
        self.cadence_horizon = horizon;
    }

    /// Process every timeline item due strictly before `limit` (all items
    /// when `None`).
    ///
    /// `stream_open` declares whether more events may still be *fed into*
    /// `source` later (the fleet router appends to a cell's queue between
    /// epochs): when `true`, a `None` from the source means "nothing more
    /// yet" rather than end-of-stream, so the loop keeps processing cadence
    /// entries up to the limit and resumes cleanly on the next call. When
    /// `false`, a `None` latches exhaustion and the loop stops once every
    /// item at or before the final event has been processed — the classic
    /// [`drive`] behaviour.
    pub(crate) fn step(
        &mut self,
        source: &mut dyn EventSource,
        scheduler: &mut Scheduler,
        observers: &mut [&mut dyn SimObserver],
        limit: Option<SimTime>,
        stream_open: bool,
    ) {
        loop {
            // Keep the source cursor (its next event) on the timeline.
            if !self.cursor_buffered && !self.source_exhausted {
                match source.next_event() {
                    Some(event) => {
                        self.last_event_time = Some(event.time);
                        self.timeline.schedule_event(event);
                        self.cursor_buffered = true;
                    }
                    None if !stream_open => self.source_exhausted = true,
                    None => {}
                }
            }
            let Some(next_time) = self.timeline.next_time() else {
                break;
            };
            // Items at or past the limit belong to a later epoch.
            if limit.is_some_and(|l| next_time >= l) {
                break;
            }
            // Cadence entries do not outlive the event stream: once the
            // source is exhausted, anything scheduled past its final event
            // (or past the fleet-wide cadence horizon, whichever is later)
            // is moot. `Option`'s ordering makes `None` earlier than any
            // time, so the plain path reduces to the classic
            // stop-at-last-event rule.
            let cadence_end = self.last_event_time.max(self.cadence_horizon);
            if !stream_open
                && self.source_exhausted
                && cadence_end.is_none_or(|last| next_time > last)
            {
                break;
            }

            match self.timeline.pop().expect("peeked non-empty") {
                TimelineItem::Action(TimelineAction::PolicySwitch, at) => {
                    if let Some(policy) = self.deferred_policy.take() {
                        scheduler.set_policy(policy);
                        dispatch(scheduler, at, observers, |o, ctx| o.on_policy_switched(ctx));
                    }
                }
                TimelineItem::Action(TimelineAction::IncidentStart(index), at) => {
                    if let Some(chaos) = &mut self.chaos {
                        // Observers hear of a hard-kill outage's exits once
                        // all of its victims are gone.
                        for (vm, host) in chaos.start(index, scheduler, at) {
                            dispatch(scheduler, at, observers, |o, ctx| {
                                o.on_exited(ctx, vm, host)
                            });
                        }
                    }
                }
                TimelineItem::Action(TimelineAction::IncidentEnd(index), _) => {
                    if let Some(chaos) = &mut self.chaos {
                        chaos.end(index, scheduler);
                    }
                }
                TimelineItem::Action(TimelineAction::Recalibrate, at) => {
                    if let Some(chaos) = &mut self.chaos {
                        chaos.recalibrate(scheduler);
                        let cadence = chaos
                            .recalibration()
                            .expect("recalibrations are scheduled only with a cadence")
                            .cadence;
                        self.timeline
                            .schedule(TimelineAction::Recalibrate, at + cadence);
                    }
                }
                TimelineItem::Action(TimelineAction::DefragTrigger, at) => {
                    dispatch(scheduler, at, observers, |o, ctx| o.on_defrag_trigger(ctx));
                    let interval = self
                        .timing
                        .defrag_trigger
                        .expect("defrag triggers are scheduled only when an interval is set");
                    self.timeline
                        .schedule(TimelineAction::DefragTrigger, at + interval);
                }
                // Ticks stop at the last arrival: a tick only steers later
                // placements (see `drive`).
                TimelineItem::Action(TimelineAction::Tick, at) => {
                    if in_arrival_window(source, at) {
                        scheduler.tick(at);
                        dispatch(scheduler, at, observers, |o, ctx| o.on_tick(ctx));
                        self.timeline
                            .schedule(TimelineAction::Tick, at + self.timing.tick_interval);
                    }
                }
                TimelineItem::Action(TimelineAction::Sample, at) => {
                    if in_arrival_window(source, at) {
                        dispatch(scheduler, at, observers, |o, ctx| o.on_sample(ctx));
                        self.timeline
                            .schedule(TimelineAction::Sample, at + self.timing.sample_interval);
                    }
                }
                TimelineItem::Event(event) => {
                    self.cursor_buffered = false;
                    let (at, vm) = (event.time, event.kind.vm());
                    match &event.kind {
                        TraceEventKind::Create { spec, lifetime, .. } => {
                            let record = Vm::new(vm, spec.clone(), at, *lifetime);
                            match scheduler.schedule(record, at) {
                                Ok(host) => dispatch(scheduler, at, observers, |o, ctx| {
                                    o.on_placed(ctx, vm, host)
                                }),
                                Err(_) => {
                                    self.rejected_count += 1;
                                    dispatch(scheduler, at, observers, |o, ctx| {
                                        o.on_rejected(ctx, vm)
                                    });
                                }
                            }
                        }
                        // The exit of a VM that was never placed (its create
                        // was rejected) finds nothing and changes nothing.
                        TraceEventKind::Exit { .. } => {
                            if let Ok(host) = scheduler.exit(vm, at) {
                                dispatch(scheduler, at, observers, |o, ctx| {
                                    o.on_exited(ctx, vm, host)
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    /// The `on_finish` dispatch; returns the number of creation events
    /// that could not be placed.
    pub(crate) fn finish(
        &mut self,
        scheduler: &Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> u64 {
        dispatch(
            scheduler,
            self.last_event_time.unwrap_or(SimTime::ZERO),
            observers,
            |o, ctx| o.on_finish(ctx),
        );
        self.rejected_count
    }
}

//! Pull-based event sources: the input side of the streaming
//! discrete-event engine.
//!
//! A simulation consumes a time-ordered stream of [`TraceEvent`]s. The
//! original engine required the whole stream to be materialised as a
//! `Vec<TraceEvent>` up front, so memory grew with the *total* number of
//! events in the horizon. [`EventSource`] inverts that: the engine *pulls*
//! events one at a time, so a source only has to keep the events it cannot
//! know yet — for a generative source that is the exits of currently-live
//! VMs plus one look-ahead arrival, i.e. O(pending VMs) instead of
//! O(total events).
//!
//! Implementations live where their data lives:
//!
//! * `lava_sim::trace::TraceSource` — replays a recorded/materialised
//!   trace (preserving the legacy semantics exactly); the one feed of every
//!   `lava_sim::experiment::Experiment` run, so all arms of a comparison
//!   see the same recorded trace;
//! * `lava_sim::trace::BinaryTraceSource` — decodes a binary trace file on
//!   demand in O(read-buffer) memory;
//! * `lava_sim::workload::StreamingWorkload` — generates arrivals lazily
//!   from the seeded workload distributions, emitting event-for-event the
//!   same stream as the materialised generator for the same seed.
//!
//! The lazy sources are not a spec option: a caller that needs their
//! footprint passes one to `lava_sim::experiment::drive` or
//! `lava_sim::fleet::run_fleet` itself.
//!
//! # Contract
//!
//! Sources must emit events in canonical order — non-decreasing
//! [`TraceEvent::sort_key`]: by time, then exits before creates, then by VM
//! id. Every `Create` must eventually be followed by exactly one `Exit` of
//! the same VM (possibly beyond the arrival horizon).

use crate::events::TraceEvent;
use crate::time::SimTime;

/// A pull-based, time-ordered stream of trace events.
///
/// See the [module docs](self) for the ordering contract.
pub trait EventSource {
    /// Pull the next event, or `None` when the stream is exhausted.
    fn next_event(&mut self) -> Option<TraceEvent>;

    /// Peek at the next event without consuming it.
    fn peek(&mut self) -> Option<&TraceEvent>;

    /// The time of the last `Create` event this source will ever emit, if
    /// already known.
    ///
    /// `None` means "unknown yet, but at least one more `Create` is
    /// coming" — a generative source cannot know its final arrival until
    /// its arrival process crosses the horizon. Replay sources know it up
    /// front. The engine uses this to decide whether a metric sample at
    /// time `t` still falls inside the arrival window: when `None`, a
    /// later create (necessarily at a time ≥ any currently due sample)
    /// guarantees it does.
    fn last_arrival_time(&mut self) -> Option<SimTime>;

    /// Number of future events the source currently holds buffered.
    ///
    /// This is the source's memory footprint knob: a replay source reports
    /// its remaining events, a streaming source its pending (undelivered)
    /// exits plus look-ahead arrivals — the quantity that stays O(live
    /// VMs) on an unbounded horizon.
    fn pending_len(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceEvent;
    use crate::resources::Resources;
    use crate::time::Duration;
    use crate::vm::{VmId, VmSpec};

    /// A minimal in-memory source used to exercise the trait's object
    /// safety and default-free surface.
    struct VecSource {
        events: Vec<TraceEvent>,
        next: usize,
        last_arrival: Option<SimTime>,
    }

    impl EventSource for VecSource {
        fn next_event(&mut self) -> Option<TraceEvent> {
            let event = self.events.get(self.next).cloned();
            if event.is_some() {
                self.next += 1;
            }
            event
        }

        fn peek(&mut self) -> Option<&TraceEvent> {
            self.events.get(self.next)
        }

        fn last_arrival_time(&mut self) -> Option<SimTime> {
            self.last_arrival
        }

        fn pending_len(&self) -> usize {
            self.events.len() - self.next
        }
    }

    #[test]
    fn trait_is_object_safe_and_pullable() {
        let spec = VmSpec::builder(Resources::cores_gib(2, 8)).build();
        let events = vec![
            TraceEvent::create(SimTime(5), VmId(1), spec, Duration::from_hours(1)),
            TraceEvent::exit(SimTime(3605), VmId(1)),
        ];
        let mut source: Box<dyn EventSource> = Box::new(VecSource {
            events,
            next: 0,
            last_arrival: Some(SimTime(5)),
        });
        assert_eq!(source.pending_len(), 2);
        assert_eq!(source.peek().unwrap().time, SimTime(5));
        assert_eq!(source.next_event().unwrap().time, SimTime(5));
        assert_eq!(source.last_arrival_time(), Some(SimTime(5)));
        assert_eq!(source.next_event().unwrap().time, SimTime(3605));
        assert_eq!(source.next_event(), None);
        assert_eq!(source.pending_len(), 0);
    }
}

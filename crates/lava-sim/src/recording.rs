//! A predictor wrapper that records every prediction it makes, together
//! with the ground truth, so that experiments can analyse prediction error
//! (Fig. 12) and latency-style counters without touching the scheduler.

use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One recorded prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    /// Which VM was predicted.
    pub vm: VmId,
    /// The VM's uptime at prediction time (zero for the initial prediction).
    pub uptime: Duration,
    /// The predicted remaining lifetime.
    pub predicted: Duration,
    /// The ground-truth remaining lifetime.
    pub actual: Duration,
}

impl PredictionRecord {
    /// True if this was a reprediction (uptime > 0) rather than the initial
    /// scheduling-time prediction.
    pub fn is_reprediction(&self) -> bool {
        !self.uptime.is_zero()
    }

    /// Absolute prediction error in the log10 domain.
    pub fn log10_error(&self) -> f64 {
        lava_model::metrics::log10_error(self.predicted, self.actual)
    }
}

/// Wraps a predictor and records every call (up to a configurable cap).
pub struct RecordingPredictor {
    inner: Arc<dyn LifetimePredictor>,
    records: Mutex<Vec<PredictionRecord>>,
    capacity: usize,
}

impl RecordingPredictor {
    /// Default maximum number of records kept (matches the paper's "first
    /// 10 M predictions" instrumentation, scaled down).
    pub const DEFAULT_CAPACITY: usize = 2_000_000;

    /// Wrap a predictor with the default record capacity.
    pub fn new(inner: Arc<dyn LifetimePredictor>) -> Arc<RecordingPredictor> {
        RecordingPredictor::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wrap a predictor, keeping at most `capacity` records.
    pub fn with_capacity(
        inner: Arc<dyn LifetimePredictor>,
        capacity: usize,
    ) -> Arc<RecordingPredictor> {
        Arc::new(RecordingPredictor {
            inner,
            records: Mutex::new(Vec::new()),
            capacity,
        })
    }

    /// The recorded predictions (clone of the internal buffer).
    pub fn records(&self) -> Vec<PredictionRecord> {
        self.records.lock().clone()
    }
}

impl LifetimePredictor for RecordingPredictor {
    fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
        let predicted = self.inner.predict_remaining(vm, now);
        let mut records = self.records.lock();
        if records.len() < self.capacity {
            records.push(PredictionRecord {
                vm: vm.id(),
                uptime: vm.uptime(now),
                predicted,
                actual: vm.actual_remaining(now),
            });
        }
        predicted
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::resources::Resources;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;

    fn vm(id: u64, hours: u64) -> Vm {
        Vm::new(
            VmId(id),
            VmSpec::builder(Resources::cores_gib(2, 8)).build(),
            SimTime::ZERO,
            Duration::from_hours(hours),
        )
    }

    #[test]
    fn records_predictions_and_ground_truth() {
        let rec = RecordingPredictor::new(Arc::new(OraclePredictor::new()));
        let v = vm(1, 10);
        let p = rec.predict_remaining(&v, SimTime::ZERO + Duration::from_hours(4));
        assert_eq!(p, Duration::from_hours(6));
        let records = rec.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].uptime, Duration::from_hours(4));
        assert!(records[0].is_reprediction());
        assert_eq!(records[0].log10_error(), 0.0);
        assert_eq!(rec.name(), "oracle");
    }

    #[test]
    fn capacity_caps_records_but_not_calls() {
        let rec = RecordingPredictor::with_capacity(Arc::new(OraclePredictor::new()), 2);
        for i in 0..5 {
            let _ = rec.predict_remaining(&vm(i, 1), SimTime::ZERO);
        }
        assert_eq!(rec.records().len(), 2);
    }
}

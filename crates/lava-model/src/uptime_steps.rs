//! Uptime step tables: the compiled GBDT, specialised per [`VmSpec`].
//!
//! Of the model's features only `uptime_log` changes during a VM's life,
//! and a tree reads it only through `uptime_log <= threshold` tests. For
//! a fixed spec the whole ensemble is therefore a **step function of the
//! integer uptime**, with at most one step per distinct uptime threshold
//! (63 for a 64-bin model, whatever the tree count). Repredicting a
//! resident VM by walking every tree recomputes a constant.
//!
//! `uptime_breaks` turns the thresholds into integer seconds once per
//! model; `SpecTables` then keeps, per spec, the prediction on each
//! step. Every stored value comes out of the ordinary tree walk at the
//! step's first second, so a table answer is the tree walk's answer bit
//! for bit — provided `Duration::log10_secs` is monotone on integers,
//! which `tests/compiled_parity.rs` checks exhaustively.

use lava_core::hash::Mix64BuildHasher;
use lava_core::time::Duration;
use lava_core::vm::VmSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// How many specs a predictor keeps tables for. A table is at most a few
/// hundred bytes (one `Duration` per step), so a full store is a few MiB.
/// Specs beyond the limit are answered by the tree walk and counted in
/// `SpecTables::overflows`; nothing is ever evicted, so an answer never
/// depends on arrival order.
pub const SPEC_TABLE_CAPACITY: usize = 4096;

/// Convert uptime-feature thresholds into the integer domain: for each
/// threshold, the first whole second at which `uptime_log <= threshold`
/// stops holding. The result is ascending and distinct; uptime `u` lies
/// on step `breaks.partition_point(|&b| b <= u)`.
///
/// The conversion binary-searches `Duration::log10_secs` itself — the
/// function the feature encoder calls — and never inverts it with
/// `10^t`, whose rounding could land a second off. Thresholds no uptime
/// exceeds produce no break; thresholds every uptime exceeds (negative
/// ones: `log10_secs` floors at 0) would put a break at second 0, before
/// the first step, and are dropped likewise.
pub(crate) fn uptime_breaks(thresholds: &[f64]) -> Vec<u64> {
    // The tree walk's own test, so that a NaN threshold (`<=` is false)
    // sends every uptime right here as it does there.
    let goes_left = |secs: u64, t: f64| Duration(secs).log10_secs() <= t;
    let mut breaks: Vec<u64> = thresholds
        .iter()
        .filter(|&&t| !goes_left(u64::MAX, t))
        .map(|&t| {
            // First second that goes right; `hi` always does.
            let (mut lo, mut hi) = (0u64, u64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if goes_left(mid, t) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .filter(|&b| b > 0)
        .collect();
    breaks.sort_unstable();
    breaks.dedup();
    breaks
}

/// The tables themselves: one row of `steps` predictions per known spec,
/// back to back in one vector.
#[derive(Debug, Clone)]
pub(crate) struct TableSet {
    steps: usize,
    row_of: HashMap<VmSpec, u32, Mix64BuildHasher>,
    values: Vec<Duration>,
}

impl TableSet {
    /// The prediction for `spec` on `step`, if the spec has a table.
    #[inline]
    pub(crate) fn get(&self, spec: &VmSpec, step: usize) -> Option<Duration> {
        let row = *self.row_of.get(spec)? as usize;
        Some(self.values[row * self.steps + step])
    }

    /// Whether the store has reached [`SPEC_TABLE_CAPACITY`].
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.row_of.len() >= SPEC_TABLE_CAPACITY
    }
}

/// The per-spec table store of one compiled predictor: read-mostly,
/// shared by every thread that predicts through it.
///
/// A table is a pure function of (model, spec), so two threads that miss
/// on the same spec build the same row and it does not matter whose is
/// kept.
#[derive(Debug)]
pub(crate) struct SpecTables {
    tables: RwLock<TableSet>,
    overflows: AtomicU64,
}

impl Clone for SpecTables {
    fn clone(&self) -> SpecTables {
        SpecTables {
            tables: RwLock::new(self.read().clone()),
            overflows: AtomicU64::new(self.overflows()),
        }
    }
}

impl SpecTables {
    /// An empty store for tables of `steps` predictions each.
    pub(crate) fn new(steps: usize) -> SpecTables {
        SpecTables {
            tables: RwLock::new(TableSet {
                steps,
                row_of: HashMap::default(),
                values: Vec::new(),
            }),
            overflows: AtomicU64::new(0),
        }
    }

    /// Lock the tables for reading. One guard serves a whole batch.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, TableSet> {
        // Writers only append a finished row, so the tables are valid
        // even if one panicked.
        self.tables
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Keep `row` (one prediction per step) as `spec`'s table, unless the
    /// spec already has one or the store is full.
    pub(crate) fn insert(&self, spec: &VmSpec, row: &[Duration]) {
        let mut tables = self
            .tables
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(row.len(), tables.steps, "one prediction per step");
        if tables.is_full() || tables.row_of.contains_key(spec) {
            return;
        }
        let index = tables.row_of.len() as u32;
        tables.row_of.insert(spec.clone(), index);
        tables.values.extend_from_slice(row);
    }

    /// Count one prediction answered by the tree walk because the store
    /// was full.
    pub(crate) fn count_overflow(&self) {
        self.overflows.fetch_add(1, Ordering::Relaxed);
    }

    /// Predictions answered by the tree walk because the store was full.
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Specs that have a table.
    pub(crate) fn len(&self) -> usize {
        self.read().row_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaks_are_the_first_second_past_each_threshold() {
        // log10(1000) = 3 exactly, so `<= 3.0` still holds at 1000 s.
        assert_eq!(uptime_breaks(&[3.0]), vec![1001]);
        // Ascending, and two thresholds inside one second share a break.
        assert_eq!(
            uptime_breaks(&[2.0, 0.5, 0.500_000_1, 0.499_999_9]),
            vec![4, 101]
        );
        // 0 s and 1 s both encode as 0.0: a threshold of 0 breaks at 2 s.
        assert_eq!(uptime_breaks(&[0.0]), vec![2]);
    }

    #[test]
    fn unreachable_thresholds_make_no_step() {
        // Below every uptime (all go right), above every uptime (all go
        // left; log10(u64::MAX) < 19.3), and NaN (`<=` is false: right).
        assert!(uptime_breaks(&[-1.0, -f64::MIN_POSITIVE, 19.3, f64::INFINITY]).is_empty());
        assert!(uptime_breaks(&[f64::NAN, f64::NEG_INFINITY]).is_empty());
        // The largest reachable threshold still resolves without overflow.
        let top = Duration(u64::MAX - 1).log10_secs();
        let breaks = uptime_breaks(&[top - 1e-9]);
        assert_eq!(breaks.len(), 1);
        assert!(Duration(breaks[0]).log10_secs() > top - 1e-9);
        assert!(Duration(breaks[0] - 1).log10_secs() <= top - 1e-9);
    }

    #[test]
    fn store_keeps_the_first_row_and_stops_at_capacity() {
        use lava_core::resources::Resources;
        let spec = |i: u32| {
            VmSpec::builder(Resources::cores_gib(2, 8))
                .metadata_id(i)
                .build()
        };
        let store = SpecTables::new(2);
        store.insert(&spec(0), &[Duration(1), Duration(2)]);
        store.insert(&spec(0), &[Duration(9), Duration(9)]);
        assert_eq!(store.read().get(&spec(0), 1), Some(Duration(2)));
        assert_eq!(store.read().get(&spec(1), 0), None);
        for i in 1..SPEC_TABLE_CAPACITY as u32 + 10 {
            store.insert(&spec(i), &[Duration(u64::from(i)), Duration(0)]);
        }
        assert_eq!(store.len(), SPEC_TABLE_CAPACITY);
        assert!(store.read().is_full());
        let last = SPEC_TABLE_CAPACITY as u32 - 1;
        assert_eq!(
            store.read().get(&spec(last), 0),
            Some(Duration(u64::from(last)))
        );
        assert_eq!(store.read().get(&spec(last + 1), 0), None);
        assert_eq!(store.clone().len(), SPEC_TABLE_CAPACITY);
    }
}

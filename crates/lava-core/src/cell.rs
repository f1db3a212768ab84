//! Fleet cells: the sharding unit above a pool.
//!
//! A production fleet is not one flat pool: it is many heterogeneous
//! *cells* (clusters), each running its own allocator over its own pool,
//! fronted by an admission/routing tier that assigns every VM creation to
//! a cell. The routing tier never sees live per-host state — it consumes
//! periodically refreshed, *bounded-staleness* summaries of each cell
//! (free capacity, empty-host count, a predicted exit-time profile).
//!
//! This module holds the vocabulary shared across the layers: [`CellId`]
//! names a cell, and [`CellSummary`] is the snapshot a router reads. The
//! summary extraction lives with the scheduler (it needs the predictor);
//! the router and the fleet drive loop live in `lava-sim`.

use crate::resources::Resources;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a cell (one shard of the fleet, owning one pool and one
/// scheduler instance).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CellId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell-{}", self.0)
    }
}

/// A bounded-staleness snapshot of one cell, as consumed by a fleet
/// router.
///
/// Summaries are extracted on a refresh cadence — not per event — so a
/// router's view of a cell is stale by up to one refresh interval
/// (`as_of` records the snapshot time). Everything a summary carries is
/// cheap to compute from the cell's pool plus a *sampled* reprediction
/// pass; nothing requires walking per-host state at routing time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Which cell this summarises.
    pub cell: CellId,
    /// When the snapshot was taken (staleness bound: routers may act on it
    /// for up to one refresh interval past this time).
    pub as_of: SimTime,
    /// Number of hosts in the cell.
    pub hosts: usize,
    /// Number of completely empty hosts.
    pub empty_hosts: usize,
    /// Total capacity across the cell's hosts.
    pub capacity: Resources,
    /// Total free resources across the cell's hosts.
    pub free: Resources,
    /// Number of live VMs in the cell.
    pub live_vms: usize,
    /// The cell's predicted exit-time profile: the mean predicted exit
    /// time (`as_of + predicted remaining lifetime`) over a deterministic
    /// sample of the cell's live VMs. Equal to `as_of` for an empty cell.
    pub mean_predicted_exit: SimTime,
    /// How wrong the cell's exit profile has recently been: the mean
    /// absolute log10 error between the scheduling-time lifetime
    /// prediction and the observed lifetime, over a bounded window of the
    /// cell's most recent VM exits. Zero until the first exit is observed.
    pub misprediction_log10: f64,
}

impl CellSummary {
    /// A summary of an empty cell with the given shape.
    pub fn empty(cell: CellId, as_of: SimTime, hosts: usize, capacity: Resources) -> CellSummary {
        CellSummary {
            cell,
            as_of,
            hosts,
            empty_hosts: hosts,
            capacity,
            free: capacity,
            live_vms: 0,
            mean_predicted_exit: as_of,
            misprediction_log10: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(CellId(3).to_string(), "cell-3");
        assert!(CellId(1) < CellId(2));
    }

    #[test]
    fn empty_summary_is_fully_free() {
        let capacity = Resources::cores_gib(64, 256);
        let s = CellSummary::empty(CellId(0), SimTime(100), 8, capacity);
        assert_eq!(s.free, capacity);
        assert_eq!(s.empty_hosts, 8);
        assert_eq!(s.live_vms, 0);
        assert_eq!(s.mean_predicted_exit, SimTime(100));
    }
}

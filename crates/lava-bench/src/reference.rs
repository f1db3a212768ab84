//! A faithful reconstruction of the **pre-SoA** simulation state layout,
//! kept as the head-to-head baseline for the `sim_scale` bench.
//!
//! Before the arena refactor, hot state lived in pointer-chasing
//! node-based maps: each host tracked its VMs in a `BTreeMap`, the pool
//! mapped VM → host in a `BTreeMap`, and the cluster's VM registry was a
//! `BTreeMap<VmId, Vm>`. [`ReferenceCluster`] preserves exactly that
//! layout (including the same ascending `(cpu, memory, ssd, id)`
//! free-capacity index the live engine still uses), so replaying one
//! event stream through both isolates the cost of the data layout: the
//! decision rule — most-free first-fit — is identical, the decision
//! digests must match bit-for-bit, and any throughput gap is the arena /
//! structure-of-arrays representation.

use lava_core::arena::VmArena;
use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::hash::mix64;
use lava_core::host::{HostId, HostSpec};
use lava_core::pool::Pool;
use lava_core::resources::Resources;
use lava_core::vm::{Vm, VmId};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of a bare most-free-first replay: enough to compare engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Events consumed (creates + exits of live VMs).
    pub events: u64,
    /// VMs placed.
    pub placed: u64,
    /// VMs rejected (no host fit).
    pub rejected: u64,
    /// Order-sensitive digest over every decision (placements with their
    /// host, rejections, exits). Two engines replaying the same stream
    /// with the same rule must produce the same digest.
    pub digest: u64,
}

fn fold(digest: u64, value: u64) -> u64 {
    mix64(digest ^ value)
}

fn digest_placed(digest: u64, vm: VmId, host: HostId) -> u64 {
    fold(digest, 1 ^ vm.0.rotate_left(8) ^ host.0.rotate_left(40))
}

fn digest_rejected(digest: u64, vm: VmId) -> u64 {
    fold(digest, 2 ^ vm.0.rotate_left(8))
}

fn digest_exit(digest: u64, vm: VmId) -> u64 {
    fold(digest, 3 ^ vm.0.rotate_left(8))
}

/// Pre-refactor host record: occupancy in a node-based map.
struct RefHost {
    free: Resources,
    vms: BTreeMap<VmId, Resources>,
}

/// The pre-SoA cluster: every lookup on the placement path goes through
/// a `BTreeMap`/`BTreeSet`.
pub struct ReferenceCluster {
    hosts: Vec<RefHost>,
    /// Ascending free-capacity index, same key as the live engine's.
    by_free: BTreeSet<(u64, u64, u64, HostId)>,
    /// VM → host, as the pre-refactor pool kept it.
    vm_index: BTreeMap<VmId, HostId>,
    /// Live VM registry, as the pre-refactor cluster kept it.
    registry: BTreeMap<VmId, Vm>,
}

impl ReferenceCluster {
    /// Build a uniform pool of `hosts` hosts of shape `spec`.
    pub fn new(hosts: usize, spec: HostSpec) -> ReferenceCluster {
        let capacity = spec.capacity();
        let mut by_free = BTreeSet::new();
        let hosts: Vec<RefHost> = (0..hosts)
            .map(|i| {
                by_free.insert(free_key(capacity, HostId(i as u64)));
                RefHost {
                    free: capacity,
                    vms: BTreeMap::new(),
                }
            })
            .collect();
        ReferenceCluster {
            hosts,
            by_free,
            vm_index: BTreeMap::new(),
            registry: BTreeMap::new(),
        }
    }

    /// Most-free first-fit: walk the free index from the top, take the
    /// first host the request fits on — the same rule
    /// [`MostFreeFirstPolicy`](crate::MostFreeFirstPolicy) applies.
    fn choose_host(&self, request: Resources) -> Option<HostId> {
        self.by_free
            .iter()
            .rev()
            .find(|(cpu, memory, ssd, _)| {
                request.cpu_milli <= *cpu
                    && request.memory_mib <= *memory
                    && request.ssd_gib <= *ssd
            })
            .map(|&(_, _, _, id)| id)
    }

    fn place(&mut self, vm: Vm, host: HostId) {
        let request = vm.resources();
        let record = &mut self.hosts[host.0 as usize];
        self.by_free.remove(&free_key(record.free, host));
        record.free = record.free.saturating_sub(&request);
        record.vms.insert(vm.id(), request);
        self.by_free.insert(free_key(record.free, host));
        self.vm_index.insert(vm.id(), host);
        self.registry.insert(vm.id(), vm);
    }

    fn remove(&mut self, vm: VmId) -> bool {
        let Some(host) = self.vm_index.remove(&vm) else {
            return false;
        };
        let record = &mut self.hosts[host.0 as usize];
        let request = record.vms.remove(&vm).expect("indexed VM on host");
        self.by_free.remove(&free_key(record.free, host));
        record.free = record
            .free
            .checked_add(&request)
            .expect("freeing cannot overflow");
        self.by_free.insert(free_key(record.free, host));
        self.registry.remove(&vm);
        true
    }

    /// Live VM count (for sanity checks).
    pub fn vm_count(&self) -> usize {
        self.registry.len()
    }

    /// Replay `events` through the pre-SoA layout.
    pub fn replay(&mut self, events: &[TraceEvent]) -> ReplayOutcome {
        let mut outcome = ReplayOutcome {
            events: 0,
            placed: 0,
            rejected: 0,
            digest: 0,
        };
        for event in events {
            match &event.kind {
                TraceEventKind::Create { vm, spec, lifetime } => {
                    outcome.events += 1;
                    let record = Vm::new(*vm, spec.clone(), event.time, *lifetime);
                    match self.choose_host(record.resources()) {
                        Some(host) => {
                            self.place(record, host);
                            outcome.placed += 1;
                            outcome.digest = digest_placed(outcome.digest, *vm, host);
                        }
                        None => {
                            outcome.rejected += 1;
                            outcome.digest = digest_rejected(outcome.digest, *vm);
                        }
                    }
                }
                TraceEventKind::Exit { vm } => {
                    // Exits of rejected VMs are suppressed, as in the engine.
                    if self.remove(*vm) {
                        outcome.events += 1;
                        outcome.digest = digest_exit(outcome.digest, *vm);
                    }
                }
            }
        }
        outcome
    }
}

fn free_key(free: Resources, id: HostId) -> (u64, u64, u64, HostId) {
    (free.cpu_milli, free.memory_mib, free.ssd_gib, id)
}

/// Replay the same stream through the live arena/SoA state — the real
/// [`Pool`] (paged vm → host table, SoA free-capacity index) plus a
/// [`VmArena`] registry — with the identical most-free first-fit rule.
/// This is a state-layer vs state-layer comparison: neither side pays
/// scheduler bookkeeping (exit caches, policy epochs), so the throughput
/// gap isolates the data layout. Digest-compatible with
/// [`ReferenceCluster::replay`].
pub fn replay_soa(pool: &mut Pool, vms: &mut VmArena, events: &[TraceEvent]) -> ReplayOutcome {
    let mut outcome = ReplayOutcome {
        events: 0,
        placed: 0,
        rejected: 0,
        digest: 0,
    };
    for event in events {
        match &event.kind {
            TraceEventKind::Create { vm, spec, lifetime } => {
                outcome.events += 1;
                let mut record = Vm::new(*vm, spec.clone(), event.time, *lifetime);
                let request = record.resources();
                let choice = pool
                    .hosts_by_free()
                    .rev()
                    .find(|h| h.can_fit(request))
                    .map(|h| h.id());
                match choice {
                    Some(host) => {
                        pool.place_vm(host, *vm, request).expect("chosen host fits");
                        record.assign_host(host);
                        vms.insert(record);
                        outcome.placed += 1;
                        outcome.digest = digest_placed(outcome.digest, *vm, host);
                    }
                    None => {
                        outcome.rejected += 1;
                        outcome.digest = digest_rejected(outcome.digest, *vm);
                    }
                }
            }
            TraceEventKind::Exit { vm } => {
                if vms.remove(*vm).is_some() {
                    pool.remove_vm(*vm).expect("live VM removes");
                    outcome.events += 1;
                    outcome.digest = digest_exit(outcome.digest, *vm);
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::pool::{Pool, PoolId};
    use lava_core::time::Duration;
    use lava_sim::workload::{PoolConfig, WorkloadGenerator};

    fn workload() -> PoolConfig {
        PoolConfig {
            hosts: 48,
            duration: Duration::from_days(2),
            seed: 1234,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn reference_and_soa_replays_are_bit_identical() {
        let config = workload();
        let trace = WorkloadGenerator::new(config.clone()).generate();
        let mut reference = ReferenceCluster::new(config.hosts, config.host_spec());
        let ref_outcome = reference.replay(trace.events());

        let mut pool = Pool::with_uniform_hosts(PoolId(0), config.hosts, config.host_spec());
        let mut vms = VmArena::new();
        let soa_outcome = replay_soa(&mut pool, &mut vms, trace.events());

        assert_eq!(ref_outcome, soa_outcome);
        assert!(ref_outcome.placed > 0, "degenerate workload");
        assert_eq!(reference.vm_count(), vms.len());
        assert_eq!(
            ref_outcome.events + ref_outcome.rejected,
            trace.events().len() as u64
        );
    }

    #[test]
    fn digest_is_order_and_decision_sensitive() {
        let d0 = digest_placed(0, VmId(1), HostId(2));
        assert_ne!(d0, digest_placed(0, VmId(2), HostId(1)));
        assert_ne!(d0, digest_rejected(0, VmId(1)));
        assert_ne!(
            digest_exit(digest_placed(0, VmId(1), HostId(2)), VmId(3)),
            digest_placed(digest_exit(0, VmId(3)), VmId(1), HostId(2))
        );
    }
}

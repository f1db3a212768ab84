//! Criterion benchmark for scheduling throughput: how long one placement
//! decision takes for each algorithm at 100 / 1 000 / 10 000 hosts with a
//! standing population (Section 5 reports 10-100 requests/second per
//! cluster with negligible added latency from lifetime scoring).
//!
//! NILAS and LAVA walk Algorithm 3's preference levels / the exit-time
//! order through the candidate indexes and stop early; that the walk picks
//! the host a brute-force scoring of every feasible host picks is
//! property-tested in `tests/scan_parity.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lava_core::host::HostSpec;
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId, VmSpec};
use lava_model::predictor::{LifetimePredictor, OraclePredictor};
use lava_sched::cluster::Cluster;
use lava_sched::scheduler::Scheduler;
use lava_sched::Algorithm;
use std::sync::Arc;

const SIZES: &[usize] = &[100, 1_000, 10_000];

fn standing_vm(i: u64, now: SimTime) -> Vm {
    let cores = if i.is_multiple_of(3) { 2 } else { 4 };
    Vm::new(
        VmId(i),
        VmSpec::builder(Resources::cores_gib(cores, cores * 4))
            .category((i % 5) as u32)
            .build(),
        now,
        Duration::from_hours(1 + (i % 200)),
    )
}

/// Build a scheduler with a standing population of ~3 VMs per host.
fn build_scheduler(algorithm: Algorithm, hosts: usize) -> Scheduler {
    let cluster = Cluster::with_uniform_hosts(hosts, HostSpec::new(Resources::cores_gib(64, 256)));
    let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
    let mut scheduler = Scheduler::new(
        cluster,
        algorithm.build_policy(predictor.clone()),
        predictor,
    );
    for i in 0..(hosts as u64 * 3) {
        let _ = scheduler.schedule(standing_vm(i, SimTime::ZERO), SimTime::ZERO);
    }
    scheduler
}

fn bench_request(next_id: u64, now: SimTime) -> Vm {
    Vm::new(
        VmId(next_id),
        VmSpec::builder(Resources::cores_gib(2, 8))
            .category(1)
            .build(),
        now,
        Duration::from_mins(30),
    )
}

fn run_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_throughput");
    for &hosts in SIZES {
        for algorithm in [
            Algorithm::Baseline,
            Algorithm::LaBinary,
            Algorithm::Nilas,
            Algorithm::Lava,
        ] {
            let mut scheduler = build_scheduler(algorithm, hosts);
            let mut next_id = 10_000_000u64;
            let now = SimTime::ZERO + Duration::from_hours(1);
            group.bench_with_input(
                BenchmarkId::new(format!("{algorithm}"), hosts),
                &hosts,
                |b, _| {
                    b.iter(|| {
                        let placed = scheduler.schedule(bench_request(next_id, now), now);
                        next_id += 1;
                        if placed.is_ok() {
                            let _ = scheduler.exit(VmId(next_id - 1), now);
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, run_benches);
criterion_main!(benches);

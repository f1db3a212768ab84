//! Property tests: the compiled flat-GBDT engine is bit-identical to the
//! reference tree-walking engine on every input it can see.
//!
//! Randomised over ensemble shape (tree count, leaf budget, feature
//! count — including more features than [`FEATURE_COUNT`], which forces
//! the batch fallback), training data, full-length rows, short rows and
//! the `predict` / `predict_batch` pair. "Bit-identical" means exact
//! `f64::to_bits` equality, which is what lets `PredictorSpec::Learned`
//! serve the compiled engine without changing a single decision the
//! tree-walking model would have made.
//!
//! The second half holds the compiled *predictor* to the same standard:
//! its per-spec uptime step tables (`lava_model::uptime_steps`) must
//! answer exactly what the reference tree walk answers, at every uptime
//! where a step could be off by one, from any number of threads, and
//! past the table store's capacity.

use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId, VmSpec};
use lava_model::compiled::CompiledGbdt;
use lava_model::features::{FeatureRow, FeatureSchema, FEATURE_COUNT, UPTIME_FEATURE};
use lava_model::gbdt::{GbdtConfig, GbdtRegressor};
use lava_model::predictor::{CompiledGbdtPredictor, GbdtPredictor, LifetimePredictor};
use lava_model::uptime_steps::SPEC_TABLE_CAPACITY;
use lava_model::LIFETIME_CAP;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// Deterministically generate a training set and fit both engines.
fn fit(
    num_rows: usize,
    num_features: usize,
    num_trees: usize,
    max_leaves: usize,
    seed: u64,
    constant_labels: bool,
) -> (GbdtRegressor, CompiledGbdt, Vec<Vec<f64>>) {
    // Cheap deterministic value stream (keeps the test independent of any
    // RNG crate details).
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(num_rows);
    let mut labels = Vec::with_capacity(num_rows);
    for _ in 0..num_rows {
        let row: Vec<f64> = (0..num_features).map(|_| next() * 10.0).collect();
        let label = if constant_labels {
            42.0
        } else {
            // A mild non-linear relationship plus noise so trees have
            // something to split on.
            row.iter()
                .enumerate()
                .map(|(i, v)| {
                    if i % 2 == 0 {
                        *v
                    } else {
                        (v > &5.0) as u8 as f64 * 3.0
                    }
                })
                .sum::<f64>()
                + next()
        };
        rows.push(row);
        labels.push(label);
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let config = GbdtConfig {
        num_trees,
        max_leaves,
        min_samples_leaf: 3,
        ..GbdtConfig::default()
    };
    let model = GbdtRegressor::fit(config, &refs, &labels);
    let compiled = CompiledGbdt::compile(&model);
    (model, compiled, rows)
}

proptest! {
    #[test]
    fn prop_predict_bit_identical(
        num_rows in 20usize..120,
        num_features in 1usize..14,
        num_trees in 1usize..24,
        max_leaves in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let (model, compiled, rows) = fit(num_rows, num_features, num_trees, max_leaves, seed, false);
        for row in &rows {
            let reference = model.predict(row);
            let fast = compiled.predict(row);
            prop_assert_eq!(
                reference.to_bits(), fast.to_bits(),
                "engines diverged: reference {} vs compiled {}", reference, fast
            );
        }
    }

    #[test]
    fn prop_short_rows_bit_identical(
        num_features in 2usize..10,
        num_trees in 1usize..16,
        max_leaves in 2usize..16,
        seed in 0u64..1_000_000,
        cut in 0usize..9,
    ) {
        let (model, compiled, rows) = fit(60, num_features, num_trees, max_leaves, seed, false);
        // Truncate every row below the trained feature count: the one
        // documented fallback (missing features read as 0.0) must agree
        // across engines.
        let cut = cut.min(num_features.saturating_sub(1));
        for row in &rows {
            let short = &row[..cut];
            prop_assert_eq!(model.predict(short).to_bits(), compiled.predict(short).to_bits());
        }
    }

    #[test]
    fn prop_predict_batch_matches_predict(
        num_features in 1usize..14,
        num_trees in 1usize..24,
        max_leaves in 1usize..24,
        seed in 0u64..1_000_000,
        batch in 1usize..70,
    ) {
        let (model, compiled, rows) = fit(80, num_features, num_trees, max_leaves, seed, false);
        // Pack the generated rows into fixed-width FeatureRows. Models
        // trained on more than FEATURE_COUNT features exercise the batch
        // fallback path (every FeatureRow is then a "short" row).
        let feature_rows: Vec<FeatureRow> = rows
            .iter()
            .take(batch)
            .map(|r| {
                let mut packed = FeatureRow::ZERO;
                for (slot, v) in packed.as_mut_slice().iter_mut().zip(r.iter()) {
                    *slot = *v;
                }
                packed
            })
            .collect();
        let mut out = vec![0.0f64; feature_rows.len()];
        compiled.predict_batch(&feature_rows, &mut out);
        for (row, batched) in feature_rows.iter().zip(&out) {
            let single = compiled.predict(row.as_slice());
            let reference = model.predict(row.as_slice());
            prop_assert_eq!(batched.to_bits(), single.to_bits());
            prop_assert_eq!(batched.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn prop_degenerate_single_leaf_ensembles(
        num_features in 1usize..6,
        num_trees in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        // Constant labels make every tree a single leaf; max_leaves: 1
        // forbids splits outright. Both degenerate shapes must compile and
        // agree with the reference.
        for constant in [true, false] {
            let max_leaves = if constant { 8 } else { 1 };
            let (model, compiled, rows) =
                fit(40, num_features, num_trees, max_leaves, seed, constant);
            prop_assert_eq!(compiled.internal_node_count(), 0);
            for row in &rows {
                prop_assert_eq!(model.predict(row).to_bits(), compiled.predict(row).to_bits());
            }
        }
    }
}

#[test]
fn feature_row_width_matches_schema() {
    // The batch kernel's once-per-batch validation hinges on this.
    assert_eq!(FeatureRow::ZERO.as_slice().len(), FEATURE_COUNT);
}

// --- uptime step tables ---------------------------------------------------

/// The only assumption the step tables add to the tree walk: the uptime
/// feature never decreases as the integer uptime grows. Exhaustive over
/// twice the lifetime cap (every uptime a capped VM reaches, and then as
/// much again).
#[test]
fn log10_secs_is_monotone_on_whole_seconds() {
    let mut previous = Duration(0).log10_secs();
    for secs in 1..=2 * LIFETIME_CAP.0 {
        let current = Duration(secs).log10_secs();
        assert!(current >= previous, "log10_secs decreases at {secs} s");
        previous = current;
    }
}

/// Uptime-feature values chosen to put thresholds where a step table
/// could go wrong: below every uptime (negative), exactly on a whole
/// second, several inside one second (1000 s..1001 s spans 3.0..3.00043),
/// around the lifetime cap (5.78), and above every uptime (log10 of
/// `u64::MAX` is 19.27).
const CRAFTED_UPTIME_LOGS: [f64; 18] = [
    -3.0, -0.5, 0.0, 0.3, 1.0, 2.5, 3.0, 3.000_01, 3.000_02, 3.000_3, 4.2, 5.5, 5.781_6, 6.5, 12.0,
    19.0, 19.5, 25.0,
];

fn spec(shape: u64, category: u32, metadata: u32) -> VmSpec {
    VmSpec::builder(Resources::cores_gib(1 << (shape % 4), 4 << (shape % 4)))
        .zone(category % 3)
        .category(category)
        .metadata_id(metadata)
        .build()
}

/// Train a predictor whose uptime thresholds come from `uptime_logs`
/// (bin edges are training values, so these are the thresholds the trees
/// can pick). With a single value the uptime feature is constant and no
/// tree splits on it.
fn crafted_predictor(
    seed: u64,
    uptime_logs: &[f64],
    num_trees: usize,
    max_leaves: usize,
) -> GbdtPredictor {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 11
    };
    let specs: Vec<VmSpec> = (0..320u64)
        .map(|i| spec(i, (i % 4) as u32, (i % 2) as u32))
        .collect();
    let schema = FeatureSchema::fit(specs.iter());
    let mut rows = Vec::with_capacity(specs.len());
    let mut labels = Vec::with_capacity(specs.len());
    for s in &specs {
        let pick = next() as usize % uptime_logs.len();
        let mut row = schema.encode(s, Duration::ZERO);
        row[UPTIME_FEATURE] = uptime_logs[pick];
        // A different level for every crafted value, so that every gap
        // between neighbours is worth a split.
        let level = ((pick as u64 * 7 + seed) % 11) as f64;
        labels.push(level * 0.4 + s.category() as f64 * 0.3 + (next() % 100) as f64 * 1e-3);
        rows.push(row);
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let config = GbdtConfig {
        num_trees,
        max_leaves,
        min_samples_leaf: 2,
        ..GbdtConfig::default()
    };
    GbdtPredictor::from_parts(GbdtRegressor::fit(config, &refs, &labels), schema)
}

/// Uptimes where a table answer could differ from the tree walk: both
/// ends of the range, the cap, and each break with its neighbours.
fn probe_uptimes(compiled: &CompiledGbdtPredictor) -> Vec<u64> {
    let mut probes = vec![0, 1, LIFETIME_CAP.0 - 1, LIFETIME_CAP.0, LIFETIME_CAP.0 + 1];
    probes.extend([u64::MAX - 1, u64::MAX]);
    for &b in compiled.uptime_breaks() {
        probes.extend([b - 1, b, b.saturating_add(1)]);
    }
    probes
}

/// A VM that has been up for `uptime` seconds when the clock reads
/// `u64::MAX` (so one batch at that instant covers every probe).
fn vm_up_for(id: u64, spec: &VmSpec, uptime: u64) -> Vm {
    Vm::new(
        VmId(id),
        spec.clone(),
        SimTime(u64::MAX - uptime),
        Duration::from_hours(1),
    )
}

const END_OF_TIME: SimTime = SimTime(u64::MAX);

/// Check single and batched table answers against the reference walk for
/// every probe uptime of every spec.
fn assert_tables_match_walk(
    reference: &GbdtPredictor,
    compiled: &CompiledGbdtPredictor,
    specs: &[VmSpec],
) -> Result<(), proptest::TestCaseError> {
    let probes = probe_uptimes(compiled);
    for spec in specs {
        let vms: Vec<Vm> = probes
            .iter()
            .enumerate()
            .map(|(i, &u)| vm_up_for(i as u64, spec, u))
            .collect();
        let mut batched = Vec::with_capacity(vms.len());
        compiled.predict_remaining_batch(&mut vms.iter(), END_OF_TIME, &mut |_, remaining| {
            batched.push(remaining)
        });
        prop_assert_eq!(batched.len(), vms.len());
        for ((vm, &uptime), batched) in vms.iter().zip(&probes).zip(batched) {
            let walked = reference.predict_spec(spec, Duration(uptime));
            prop_assert_eq!(
                compiled.predict_remaining(vm, END_OF_TIME),
                walked,
                "single, uptime {}",
                uptime
            );
            prop_assert_eq!(batched, walked, "batched, uptime {}", uptime);
            prop_assert_eq!(compiled.predict_spec(spec, Duration(uptime)), walked);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn prop_step_tables_match_the_tree_walk(
        seed in 0u64..1_000_000,
        num_trees in 1usize..20,
        max_leaves in 2usize..24,
        // 1 keeps the uptime feature constant (no uptime split at all).
        crafted in 1usize..=CRAFTED_UPTIME_LOGS.len(),
        offset in 0usize..CRAFTED_UPTIME_LOGS.len(),
        shapes in proptest::collection::vec((0u64..6, 0u32..6, 0u32..4), 1..6),
    ) {
        let logs: Vec<f64> = (0..crafted)
            .map(|i| CRAFTED_UPTIME_LOGS[(offset + i) % CRAFTED_UPTIME_LOGS.len()])
            .collect();
        let reference = crafted_predictor(seed, &logs, num_trees, max_leaves);
        let compiled = reference.compile();
        let breaks = compiled.uptime_breaks();
        prop_assert!(breaks.windows(2).all(|w| w[0] < w[1]), "breaks not ascending: {:?}", breaks);
        prop_assert!(breaks.len() <= compiled.model().thresholds_on(UPTIME_FEATURE).len());
        for &b in breaks {
            prop_assert!(b > 0);
            prop_assert!(Duration(b - 1).log10_secs() <= Duration(b).log10_secs());
        }
        // Specs the schema knows, and ones it collapses to "Other".
        let specs: Vec<VmSpec> = shapes.iter().map(|&(s, c, m)| spec(s, c, m)).collect();
        assert_tables_match_walk(&reference, &compiled, &specs)?;
        prop_assert!(compiled.spec_tables() <= specs.len());
        prop_assert_eq!(compiled.table_overflows(), 0);
    }
}

/// The crafted thresholds really are in the model, and each kind lands
/// where the table builder says it does.
#[test]
fn crafted_thresholds_cover_the_edge_cases() {
    let reference = crafted_predictor(7, &CRAFTED_UPTIME_LOGS, 40, 24);
    let compiled = reference.compile();
    let thresholds = compiled.model().thresholds_on(UPTIME_FEATURE);
    let breaks = compiled.uptime_breaks();
    assert!(
        thresholds.iter().any(|&t| t < 0.0),
        "no negative threshold: {thresholds:?}"
    );
    assert!(
        thresholds.iter().any(|&t| t > 19.3),
        "no unreachable threshold: {thresholds:?}"
    );
    let inside_one_second = thresholds
        .iter()
        .filter(|&&t| (3.0..3.000_4).contains(&t))
        .count();
    assert!(
        inside_one_second >= 2,
        "no two thresholds share a second: {thresholds:?}"
    );
    // Negative and unreachable thresholds make no step, and the ones that
    // share second 1001 make one between them.
    assert!(breaks.len() + 2 < thresholds.len(), "{breaks:?}");
    assert_eq!(breaks.iter().filter(|&&b| b == 1001).count(), 1);
    assert!(*breaks.last().unwrap() > LIFETIME_CAP.0);

    // No uptime split at all: one step, one value per spec.
    let flat = crafted_predictor(7, &[2.0], 10, 8).compile();
    assert!(flat.uptime_breaks().is_empty());
    let s = spec(1, 1, 0);
    assert_eq!(
        flat.predict_remaining(&vm_up_for(0, &s, 0), END_OF_TIME),
        flat.predict_remaining(&vm_up_for(1, &s, u64::MAX), END_OF_TIME),
    );
}

#[test]
fn more_specs_than_the_store_holds_still_predict_exactly() {
    let reference = crafted_predictor(3, &CRAFTED_UPTIME_LOGS, 6, 8);
    let compiled = reference.compile();
    let extra = 37;
    let specs: Vec<VmSpec> = (0..(SPEC_TABLE_CAPACITY + extra) as u32)
        .map(|i| spec(u64::from(i), i % 5, i))
        .collect();
    let uptime = 1001;
    let check = |from: usize| {
        for (i, spec) in specs.iter().enumerate().skip(from) {
            assert_eq!(
                compiled.predict_remaining(&vm_up_for(i as u64, spec, uptime), END_OF_TIME),
                reference.predict_spec(spec, Duration(uptime)),
                "spec {i}"
            );
        }
    };
    check(0);
    assert_eq!(compiled.spec_tables(), SPEC_TABLE_CAPACITY);
    assert_eq!(compiled.table_overflows(), extra as u64);
    // Specs past the limit keep falling back (and keep being counted);
    // nothing was evicted to make room for them.
    check(SPEC_TABLE_CAPACITY);
    assert_eq!(compiled.spec_tables(), SPEC_TABLE_CAPACITY);
    assert_eq!(compiled.table_overflows(), 2 * extra as u64);
    check(0);
    assert_eq!(compiled.table_overflows(), 3 * extra as u64);
}

#[test]
fn threads_sharing_one_predictor_get_the_single_thread_answers() {
    const THREADS: usize = 4;
    let reference = crafted_predictor(11, &CRAFTED_UPTIME_LOGS, 12, 16);
    let specs: Vec<VmSpec> = (0..96u32).map(|i| spec(u64::from(i), i % 6, i)).collect();
    let uptimes = [0u64, 3, 1000, 1001, 15_000, LIFETIME_CAP.0, u64::MAX];
    let expected: Vec<Vec<Duration>> = specs
        .iter()
        .map(|s| {
            uptimes
                .iter()
                .map(|&u| reference.predict_spec(s, Duration(u)))
                .collect()
        })
        .collect();

    let compiled = Arc::new(reference.compile());
    // All threads start on an empty store at once, each walking the specs
    // from a different offset, so fills of one spec race with reads and
    // fills of the others.
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (compiled, specs, expected, start) = (&compiled, &specs, &expected, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..3 {
                    for k in 0..specs.len() {
                        let i = (k + t * specs.len() / THREADS) % specs.len();
                        let vms: Vec<Vm> = uptimes
                            .iter()
                            .map(|&u| vm_up_for(i as u64, &specs[i], u))
                            .collect();
                        let mut got = Vec::with_capacity(vms.len());
                        if (round + t) % 2 == 0 {
                            compiled.predict_remaining_batch(
                                &mut vms.iter(),
                                END_OF_TIME,
                                &mut |_, remaining| got.push(remaining),
                            );
                        } else {
                            got.extend(
                                vms.iter()
                                    .map(|vm| compiled.predict_remaining(vm, END_OF_TIME)),
                            );
                        }
                        assert_eq!(got, expected[i], "thread {t}, spec {i}");
                    }
                }
            });
        }
    });
    assert_eq!(compiled.spec_tables(), specs.len());
    assert_eq!(compiled.table_overflows(), 0);
}

//! Compiled flat-GBDT inference (the paper's §5 "compile the model into
//! the binary" production story, Fig. 8).
//!
//! The reference [`GbdtRegressor`](crate::gbdt::GbdtRegressor) walks a
//! `Vec` of enum nodes per tree: every step pattern-matches a 40-byte
//! variant, bounds-checks the node index and bounds-checks the feature
//! lookup. That is fine for training but dominates the placement hot path,
//! where NILAS/LAVA repredict every VM on every candidate host.
//! [`CompiledGbdt`] flattens a trained ensemble once into
//! structure-of-arrays form:
//!
//! * one contiguous node arena holding **all trees back-to-back** —
//!   `u16` feature index, `f64` threshold and two *leaf-tagged* `u32`
//!   child slots per internal node;
//! * a separate leaf-value array with the learning rate **pre-folded** into
//!   every value (`fl(lr * leaf)` is exactly what the reference adds, so
//!   folding preserves bit-identical sums);
//! * a tagged root per tree (a degenerate single-leaf tree compiles to a
//!   leaf-tagged root and costs one load at inference time).
//!
//! Row length is validated **once per row** (or once per batch); the
//! traversal loop itself runs without bounds checks. Single-row prediction
//! steps [`INTERLEAVE_LANES`] trees in lock-step so several dependent node
//! loads are in flight at once (the arena of a paper-scale ensemble is a
//! few MiB — latency, not arithmetic, is the bottleneck), and
//! [`CompiledGbdt::predict_batch`] walks trees in the outer loop so each
//! tree's nodes stay cache-hot across all rows of a batch. Every path
//! produces **bit-identical** predictions to the reference engine — the
//! property tests in `tests/compiled_parity.rs` hold both engines to
//! exact `f64` equality.

use crate::features::FeatureRow;
use crate::gbdt::{GbdtRegressor, Node};

/// Tag bit marking a child (or root) slot as a leaf reference: the low 31
/// bits index the leaf-value array instead of the node arena.
const LEAF_BIT: u32 = 1 << 31;

/// Number of trees the single-row kernel steps in lock-step. Eight lanes
/// keep enough node loads in flight to cover L2/L3 latency on a
/// paper-scale arena without starving the issue ports (measured: 8 beats
/// both 4 and 16 for one row).
pub const INTERLEAVE_LANES: usize = 8;

/// Number of rows the batched kernel steps in lock-step per tree. Rows
/// share the (cache-hot) tree nodes, so wider interleaving keeps paying
/// off longer than it does for the single-row kernel (measured: 16 beats
/// 8 for batches).
pub const BATCH_LANES: usize = 16;

/// A trained GBDT flattened for fast inference.
///
/// Build one with [`CompiledGbdt::compile`]; predictions are bit-identical
/// to [`GbdtRegressor::predict`] on every row (full-length or short).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledGbdt {
    base_prediction: f64,
    num_features: usize,
    /// Split feature per internal node (arena order, all trees
    /// back-to-back).
    feature: Vec<u16>,
    /// Split threshold per internal node; `row[feature] <= threshold` goes
    /// left.
    threshold: Vec<f64>,
    /// Leaf-tagged left child per internal node.
    left: Vec<u32>,
    /// Leaf-tagged right child per internal node.
    right: Vec<u32>,
    /// Leaf values with the learning rate pre-folded in.
    leaf_value: Vec<f64>,
    /// Leaf-tagged entry point of every tree, in boosting order.
    roots: Vec<u32>,
}

impl CompiledGbdt {
    /// Flatten a trained ensemble.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble is too large for the compact index encoding
    /// (more than 2³¹ internal nodes or leaves, or more than 2¹⁶ features)
    /// — far beyond any configuration this crate can train — or if a
    /// split references a feature index at or beyond
    /// `model.num_features()`, which `fit` never produces but a model
    /// deserialized from corrupt JSON could (the traversal loop's
    /// unchecked row indexing relies on that invariant).
    pub fn compile(model: &GbdtRegressor) -> CompiledGbdt {
        let learning_rate = model.config().learning_rate;
        let num_features = model.num_features();
        assert!(
            num_features <= u16::MAX as usize,
            "feature count {num_features} exceeds the compiled u16 encoding"
        );

        let mut compiled = CompiledGbdt {
            base_prediction: model.base_prediction(),
            num_features,
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_value: Vec::new(),
            roots: Vec::with_capacity(model.tree_count()),
        };

        for tree in model.trees() {
            let nodes = tree.nodes();
            // First pass: assign every node its slot — internal nodes get
            // arena positions (in original node order, so each tree stays
            // contiguous), leaves get leaf-value positions.
            let mut slot = Vec::with_capacity(nodes.len());
            for node in nodes {
                match node {
                    Node::Leaf { value } => {
                        slot.push(compiled.leaf_value.len() as u32 | LEAF_BIT);
                        compiled.leaf_value.push(learning_rate * value);
                    }
                    Node::Split { .. } => {
                        slot.push(compiled.feature.len() as u32);
                        // Reserve the arena entry; filled in the second
                        // pass once every child knows its slot.
                        compiled.feature.push(0);
                        compiled.threshold.push(0.0);
                        compiled.left.push(0);
                        compiled.right.push(0);
                    }
                }
            }
            // Second pass: fill the internal nodes' split data and child
            // slots.
            for (node, &s) in nodes.iter().zip(&slot) {
                if let Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } = node
                {
                    let i = s as usize;
                    // Hard assert, not debug: the traversal loop indexes
                    // rows with `get_unchecked` on the strength of this
                    // invariant, and a `GbdtRegressor` can arrive from
                    // unvalidated JSON (`Deserialize`), not just from
                    // `fit`.
                    assert!(
                        *feature < num_features,
                        "trained split on feature {feature} >= num_features {num_features}"
                    );
                    compiled.feature[i] = *feature as u16;
                    compiled.threshold[i] = *threshold;
                    compiled.left[i] = slot[*left];
                    compiled.right[i] = slot[*right];
                }
            }
            compiled.roots.push(slot[0]);
        }
        assert!(
            compiled.feature.len() < LEAF_BIT as usize
                && compiled.leaf_value.len() < LEAF_BIT as usize,
            "ensemble too large for the 31-bit compiled index encoding"
        );
        compiled
    }

    /// Number of input features the source model was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees in the compiled ensemble.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total internal nodes in the arena (across all trees).
    pub fn internal_node_count(&self) -> usize {
        self.feature.len()
    }

    /// Total leaves (across all trees).
    pub fn leaf_count(&self) -> usize {
        self.leaf_value.len()
    }

    /// The distinct thresholds the ensemble splits `feature` on,
    /// ascending (by `f64::total_cmp`, so a NaN from a hand-edited model
    /// has a place too). Between two neighbours, every split on
    /// `feature` goes the same way.
    pub fn thresholds_on(&self, feature: usize) -> Vec<f64> {
        let mut thresholds: Vec<f64> = self
            .feature
            .iter()
            .zip(&self.threshold)
            .filter(|&(&f, _)| f as usize == feature)
            .map(|(_, &t)| t)
            .collect();
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup_by(|a, b| a.to_bits() == b.to_bits());
        thresholds
    }

    /// Step one lane: an internal reference loads its split and descends
    /// one level; a leaf reference is returned unchanged (self-loop), so
    /// lanes that finish early can keep "stepping" harmlessly while their
    /// interleave partners catch up.
    ///
    /// # Safety
    ///
    /// `row` must cover every feature index stored in the arena (validated
    /// once per row by the callers) and `node` must be a slot produced by
    /// [`CompiledGbdt::compile`] for this ensemble.
    #[inline(always)]
    unsafe fn step(&self, node: u32, row: &[f64]) -> u32 {
        if node & LEAF_BIT != 0 {
            return node;
        }
        let i = node as usize;
        let f = *self.feature.get_unchecked(i) as usize;
        let t = *self.threshold.get_unchecked(i);
        let v = *row.get_unchecked(f);
        if v <= t {
            *self.left.get_unchecked(i)
        } else {
            *self.right.get_unchecked(i)
        }
    }

    /// Descend from a tagged slot to its leaf and return the (pre-scaled)
    /// leaf value.
    ///
    /// # Safety
    ///
    /// Same contract as [`CompiledGbdt::step`].
    #[inline(always)]
    unsafe fn descend(&self, mut node: u32, row: &[f64]) -> f64 {
        while node & LEAF_BIT == 0 {
            node = self.step(node, row);
        }
        *self.leaf_value.get_unchecked((node ^ LEAF_BIT) as usize)
    }

    /// Predict the response for one feature row.
    ///
    /// The row's length is validated once: full-length rows take the
    /// bounds-check-free interleaved kernel, shorter rows take the
    /// documented legacy fallback (missing features read as `0.0`,
    /// matching [`GbdtRegressor::predict`] bit-for-bit).
    pub fn predict(&self, row: &[f64]) -> f64 {
        if row.len() >= self.num_features {
            self.predict_full(row)
        } else {
            self.predict_short(row)
        }
    }

    /// The bounds-check-free kernel for validated rows: trees are traversed
    /// [`INTERLEAVE_LANES`] at a time so the dependent node loads of
    /// several trees overlap, each group running a fixed (max-of-lanes)
    /// padded step count; leaf contributions are then added in exact
    /// boosting order.
    fn predict_full(&self, row: &[f64]) -> f64 {
        debug_assert!(row.len() >= self.num_features);
        let mut pred = self.base_prediction;
        let mut chunks = self.roots.chunks_exact(INTERLEAVE_LANES);
        for chunk in &mut chunks {
            let mut lanes = [0u32; INTERLEAVE_LANES];
            lanes.copy_from_slice(chunk);
            // SAFETY: the row covers `num_features` (checked by the
            // caller) and every slot comes from `compile`.
            unsafe {
                while lanes.iter().any(|&n| n & LEAF_BIT == 0) {
                    for lane in &mut lanes {
                        *lane = self.step(*lane, row);
                    }
                }
                for &lane in &lanes {
                    pred += *self.leaf_value.get_unchecked((lane ^ LEAF_BIT) as usize);
                }
            }
        }
        for &root in chunks.remainder() {
            // SAFETY: as above.
            pred += unsafe { self.descend(root, row) };
        }
        pred
    }

    /// The legacy short-row fallback: replicates the reference engine's
    /// per-node `features.get(f).unwrap_or(0.0)` semantics exactly.
    fn predict_short(&self, row: &[f64]) -> f64 {
        let mut pred = self.base_prediction;
        for &root in &self.roots {
            let mut node = root;
            while node & LEAF_BIT == 0 {
                let i = node as usize;
                let f = self.feature[i] as usize;
                let v = row.get(f).copied().unwrap_or(0.0);
                node = if v <= self.threshold[i] {
                    self.left[i]
                } else {
                    self.right[i]
                };
            }
            pred += self.leaf_value[(node ^ LEAF_BIT) as usize];
        }
        pred
    }

    /// Predict a batch of rows, writing one prediction per row into `out`.
    ///
    /// Row length is a compile-time property of [`FeatureRow`], so the
    /// whole batch is validated with a single comparison; the kernel then
    /// walks **trees in the outer loop** (each tree's few cache lines stay
    /// hot across every row of the batch) and steps
    /// [`BATCH_LANES`] *rows* of that tree in lock-step — rows are
    /// independent, so their node loads overlap instead of forming one
    /// serial dependency chain. Predictions are bit-identical to calling
    /// [`CompiledGbdt::predict`] per row (each row still accumulates base
    /// value, then trees in boosting order). Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` have different lengths.
    pub fn predict_batch(&self, rows: &[FeatureRow], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "rows/out length mismatch");
        if crate::features::FEATURE_COUNT < self.num_features {
            // A model trained on wider rows than the schema produces:
            // every row is "short" — take the legacy fallback per row.
            for (row, o) in rows.iter().zip(out.iter_mut()) {
                *o = self.predict_short(row.as_slice());
            }
            return;
        }
        out.fill(self.base_prediction);
        for &root in &self.roots {
            let mut row_chunks = rows.chunks_exact(BATCH_LANES);
            let mut out_chunks = out.chunks_exact_mut(BATCH_LANES);
            for (row_chunk, out_chunk) in (&mut row_chunks).zip(&mut out_chunks) {
                let mut lanes = [root; BATCH_LANES];
                // SAFETY: `FeatureRow` rows always carry `FEATURE_COUNT`
                // values, and `FEATURE_COUNT >= num_features` was checked
                // once for the whole batch.
                unsafe {
                    while lanes.iter().any(|&n| n & LEAF_BIT == 0) {
                        for (lane, row) in lanes.iter_mut().zip(row_chunk) {
                            *lane = self.step(*lane, row.as_slice());
                        }
                    }
                    for (&lane, o) in lanes.iter().zip(out_chunk.iter_mut()) {
                        *o += *self.leaf_value.get_unchecked((lane ^ LEAF_BIT) as usize);
                    }
                }
            }
            for (row, o) in row_chunks
                .remainder()
                .iter()
                .zip(out_chunks.into_remainder().iter_mut())
            {
                // SAFETY: as above.
                *o += unsafe { self.descend(root, row.as_slice()) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtConfig;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn synthetic_model(n: usize, seed: u64, config: GbdtConfig) -> (GbdtRegressor, Vec<Vec<f64>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(0.0..10.0);
            let x1: f64 = rng.gen_range(0.0..5.0);
            let x2: f64 = rng.gen_range(0.0..1.0);
            labels.push(if x0 > 5.0 { 3.0 } else { 1.0 } + 0.5 * x1 + 0.1 * x2);
            rows.push(vec![x0, x1, x2]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (GbdtRegressor::fit(config, &refs, &labels), rows)
    }

    #[test]
    fn compiled_matches_reference_bit_for_bit() {
        let (model, rows) = synthetic_model(800, 11, GbdtConfig::fast());
        let compiled = CompiledGbdt::compile(&model);
        assert_eq!(compiled.tree_count(), model.tree_count());
        for row in &rows {
            let reference = model.predict(row);
            let fast = compiled.predict(row);
            assert_eq!(reference.to_bits(), fast.to_bits(), "row {row:?}");
        }
    }

    #[test]
    fn short_rows_match_reference() {
        let (model, _) = synthetic_model(400, 5, GbdtConfig::fast());
        let compiled = CompiledGbdt::compile(&model);
        for short in [&[][..], &[4.2][..], &[9.9, 1.0][..]] {
            assert_eq!(
                model.predict(short).to_bits(),
                compiled.predict(short).to_bits(),
                "short row {short:?}"
            );
        }
    }

    #[test]
    fn degenerate_single_leaf_trees_compile() {
        // Constant labels: every tree after the first has nothing to fit,
        // so the ensemble is dominated by single-leaf trees.
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let labels = vec![7.0; 3];
        let model = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &labels);
        let compiled = CompiledGbdt::compile(&model);
        assert_eq!(compiled.internal_node_count(), 0);
        for row in &rows {
            assert_eq!(
                model.predict(row).to_bits(),
                compiled.predict(row).to_bits()
            );
        }
    }

    #[test]
    fn node_accounting_is_exact() {
        let (model, _) = synthetic_model(600, 3, GbdtConfig::fast());
        let compiled = CompiledGbdt::compile(&model);
        let leaves: usize = model.trees().iter().map(|t| t.leaf_count()).sum();
        assert_eq!(compiled.leaf_count(), leaves);
        // A binary tree with L leaves has L - 1 internal nodes.
        assert_eq!(compiled.internal_node_count(), leaves - model.tree_count());
    }
}

//! Gradient-boosted decision trees (GBDT) for remaining-lifetime regression.
//!
//! This is a from-scratch stand-in for the Yggdrasil Decision Forests model
//! used in the paper (Appendix B): squared-error gradient boosting over
//! regression trees grown **best-first** (the paper's "Best First Global"
//! growing strategy) with a bounded number of leaves (32 in the paper).
//! Split finding uses per-feature quantile histograms, and split gains are
//! accumulated per feature to provide the *split score* feature importance
//! used in Fig. 11.
//!
//! # The training kernel
//!
//! One `fit` allocates its working set once and every tree reuses it:
//!
//! - **A flat binned matrix.** Every example is binned once into a
//!   row-major `Vec<u8>` that holds only the features with at least two
//!   bins (a constant column can never split, so it is never read). Bins
//!   fit a byte because `max_bins` is clamped to 256.
//! - **One histogram pass per node.** A node's split search walks its
//!   examples once and feeds every feature's `(sum, count)` slots in one
//!   interleaved buffer, instead of one walk per feature.
//! - **Nodes are ranges of one index array.** Applying a split is a
//!   *stable* in-place partition of the node's range (one scratch `Vec`),
//!   which also yields the two child sums; a candidate that is never
//!   applied costs nothing beyond its histogram.
//! - **Residuals follow leaf membership.** After a tree is grown each
//!   leaf's range receives `learning_rate * leaf_value`; no raw row is
//!   walked through the new tree (training-time binning and predict-time
//!   `value <= threshold` route every value, `NaN` and `±inf` included, to
//!   the same leaf).
//!
//! **Accumulation order is fixed.** Floating-point addition is not
//! associative, so the trees depend on the order residuals are summed in.
//! Every tree starts from the indices `0..n` ascending and the partition is
//! stable, so every node's range is ascending and every bin sum, node sum
//! and leaf mean adds its residuals in ascending example order; features
//! are scanned in ascending order with a strict `>` so the first feature
//! wins a tie; the growth heap compares `gain` only and is pushed left
//! child first. Those are the rules of the straightforward trainer this
//! kernel replaced, which lives on as `reference_fit` in
//! `tests/trainer_parity.rs` and pins this one to the same serialised model
//! byte for byte. Sub-histogram subtraction, parallel reduction or any
//! other reordering would train a *different* (if equally good) model and
//! move every digest downstream.

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Hyperparameters for [`GbdtRegressor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees). The paper uses 2000; the default
    /// here is smaller so that simulation-scale retraining stays fast —
    /// accuracy on the synthetic traces saturates well below that.
    pub num_trees: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Maximum number of leaves per tree (paper: 32, best-first growth).
    pub max_leaves: usize,
    /// Minimum number of examples in a leaf.
    pub min_samples_leaf: usize,
    /// Number of histogram bins per feature used for split finding.
    /// Training stores bins as bytes, so [`GbdtRegressor::fit`] clamps this
    /// to 256: any larger value trains, and is recorded in the model as,
    /// `256`.
    pub max_bins: usize,
    /// Minimum total gain required to apply a split.
    pub min_gain: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            num_trees: 120,
            learning_rate: 0.1,
            max_leaves: 32,
            min_samples_leaf: 20,
            max_bins: 64,
            min_gain: 1e-9,
        }
    }
}

impl GbdtConfig {
    /// The configuration reported in the paper (Appendix B): 2000 trees,
    /// 32 leaves, best-first growth. Training cost is linear in the tree
    /// count: about 5 s on one core for 34 000 examples of 11 features (the
    /// repo benchmark's training set), against 0.3 s for the default.
    pub fn paper() -> GbdtConfig {
        GbdtConfig {
            num_trees: 2000,
            ..GbdtConfig::default()
        }
    }

    /// A fast configuration for unit tests and smoke runs.
    pub fn fast() -> GbdtConfig {
        GbdtConfig {
            num_trees: 30,
            max_leaves: 16,
            min_samples_leaf: 5,
            ..GbdtConfig::default()
        }
    }
}

/// A node in a regression tree (flat representation). Crate-visible so
/// [`crate::compiled::CompiledGbdt`] can flatten trained trees into its
/// arena without a public node API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Examples with `features[feature] <= threshold` go left.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A single regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Predict the response for one feature row.
    ///
    /// **Short-row fallback:** a feature index beyond the end of `features`
    /// reads as `0.0` instead of panicking. This is the one documented
    /// missing-feature semantic shared by every inference engine in this
    /// crate (see [`GbdtRegressor::predict`], which validates row length
    /// once and only routes genuinely short rows through this fallback, and
    /// the compiled engine, which replicates it bit-for-bit).
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict for a row already validated to cover every feature the
    /// ensemble was trained on: plain indexing, no per-node `Option`.
    fn predict_full(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The tree's flat node storage (for the compiled engine).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

/// Largest number of bins per feature: a bin index is stored in a `u8`.
const MAX_BINS: usize = 256;

/// Per-feature quantile bin edges used for histogram split finding.
struct Binner {
    /// `edges[f]` are the upper edges of the bins of feature `f`
    /// (ascending). A value is assigned to the first bin whose edge is
    /// `>=` the value.
    edges: Vec<Vec<f64>>,
}

impl Binner {
    fn fit(rows: &[&[f64]], num_features: usize, max_bins: usize) -> Binner {
        let mut edges = Vec::with_capacity(num_features);
        let mut values: Vec<f64> = Vec::with_capacity(rows.len());
        for f in 0..num_features {
            values.clear();
            values.extend(
                rows.iter()
                    .map(|r| r.get(f).copied().unwrap_or(0.0))
                    .filter(|v| v.is_finite()),
            );
            // Stable, so which of `-0.0` / `0.0` survives the dedup (and is
            // serialised as a threshold) depends on the rows alone.
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            values.dedup();
            let feature_edges = if values.len() <= max_bins {
                values.clone()
            } else {
                // Quantile edges.
                (1..=max_bins)
                    .map(|i| {
                        let q = i as f64 / max_bins as f64;
                        let pos = ((values.len() - 1) as f64 * q).round() as usize;
                        values[pos]
                    })
                    .collect::<Vec<f64>>()
            };
            edges.push(feature_edges);
        }
        Binner { edges }
    }

    fn num_bins(&self, feature: usize) -> usize {
        self.edges[feature].len()
    }

    /// The bin of `value`: the first whose edge is `>=` it, the last for
    /// anything above every edge. `NaN` also takes the last bin — the side
    /// of every split that predict-time `value <= threshold` (false for
    /// `NaN`) sends it to.
    fn bin(&self, feature: usize, value: f64) -> usize {
        let edges = &self.edges[feature];
        let last = edges.len().saturating_sub(1);
        if value.is_nan() {
            return last;
        }
        edges.partition_point(|e| *e < value).min(last)
    }

    /// The split threshold corresponding to a bin boundary: the upper edge
    /// of the bin.
    fn threshold(&self, feature: usize, bin: usize) -> f64 {
        self.edges[feature][bin]
    }
}

/// One histogram bin of one feature: the residuals that fell in it.
#[derive(Clone, Copy, Default)]
struct Slot {
    sum: f64,
    count: u32,
}

/// A node's best split, waiting in the best-first growth queue. The node is
/// the range `start..end` of [`Trainer::indices`].
struct GrowthEntry {
    gain: f64,
    node_index: usize,
    /// Column of the binned matrix (index into [`Trainer::active`]).
    column: usize,
    /// Bins `0..=bin` of that column go left.
    bin: usize,
    start: usize,
    end: usize,
}

impl PartialEq for GrowthEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain
    }
}
impl Eq for GrowthEntry {}
impl PartialOrd for GrowthEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GrowthEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// The working set of one [`GbdtRegressor::fit`]: allocated once, reused
/// by every tree (see the module docs for why each loop runs in the order
/// it does).
struct Trainer<'a> {
    config: &'a GbdtConfig,
    binner: Binner,
    /// Features with at least two bins, ascending: the columns of `binned`.
    active: Vec<usize>,
    /// `offsets[c]..offsets[c + 1]` are column `c`'s slots in `hist`.
    offsets: Vec<usize>,
    /// Row-major bin indices, `active.len()` bytes per example.
    binned: Vec<u8>,
    /// What the current tree is fitted to: `label - prediction`.
    residuals: Vec<f64>,
    /// Example indices; every node of the current tree is a range of it.
    indices: Vec<u32>,
    /// The right-hand side of the partition in progress.
    scratch: Vec<u32>,
    hist: Vec<Slot>,
    heap: BinaryHeap<GrowthEntry>,
    /// `leaf_ranges[node]` is the range of `indices` that reached `node`.
    leaf_ranges: Vec<(usize, usize)>,
    /// Nodes of a tree grown to its leaf budget.
    max_nodes: usize,
}

impl<'a> Trainer<'a> {
    fn new(config: &'a GbdtConfig, rows: &[&[f64]]) -> Trainer<'a> {
        let n = rows.len();
        assert!(
            u32::try_from(n).is_ok(),
            "cannot train on more than u32::MAX examples"
        );
        let binner = Binner::fit(rows, rows[0].len(), config.max_bins);
        let active: Vec<usize> = (0..binner.edges.len())
            .filter(|&f| binner.num_bins(f) >= 2)
            .collect();
        let mut offsets = Vec::with_capacity(active.len() + 1);
        let mut total_bins = 0;
        offsets.push(0);
        for &f in &active {
            total_bins += binner.num_bins(f);
            offsets.push(total_bins);
        }
        let mut binned = Vec::with_capacity(n * active.len());
        for row in rows {
            binned.extend(
                active
                    .iter()
                    .map(|&f| binner.bin(f, row.get(f).copied().unwrap_or(0.0)) as u8),
            );
        }
        // A tree has at most one leaf per example.
        let max_leaves = config.max_leaves.clamp(1, n);
        Trainer {
            config,
            binner,
            active,
            offsets,
            binned,
            residuals: vec![0.0; n],
            indices: Vec::with_capacity(n),
            scratch: Vec::with_capacity(n),
            hist: vec![Slot::default(); total_bins],
            heap: BinaryHeap::with_capacity(max_leaves),
            leaf_ranges: Vec::with_capacity(2 * max_leaves - 1),
            max_nodes: 2 * max_leaves - 1,
        }
    }

    /// Grow one tree on the current `residuals`, best-first.
    fn grow_tree(&mut self, importance: &mut [f64]) -> RegressionTree {
        let n = self.residuals.len();
        self.indices.clear();
        self.indices.extend(0..n as u32);
        self.heap.clear();
        self.leaf_ranges.clear();

        let root_sum: f64 = self.residuals.iter().sum();
        let mut nodes = Vec::with_capacity(self.max_nodes);
        nodes.push(Node::Leaf {
            value: root_sum / n as f64,
        });
        self.leaf_ranges.push((0, n));
        self.push_best_split(0, 0, n, root_sum);

        let mut leaves = 1;
        while leaves < self.config.max_leaves {
            let Some(entry) = self.heap.pop() else { break };
            if entry.gain < self.config.min_gain {
                break;
            }
            let (mid, left_sum, right_sum) = self.partition(&entry);
            let feature = self.active[entry.column];
            let left_index = nodes.len();
            let right_index = nodes.len() + 1;
            nodes.push(Node::Leaf {
                value: left_sum / (mid - entry.start) as f64,
            });
            nodes.push(Node::Leaf {
                value: right_sum / (entry.end - mid) as f64,
            });
            nodes[entry.node_index] = Node::Split {
                feature,
                threshold: self.binner.threshold(feature, entry.bin),
                left: left_index,
                right: right_index,
            };
            self.leaf_ranges.push((entry.start, mid));
            self.leaf_ranges.push((mid, entry.end));
            importance[feature] += entry.gain;
            leaves += 1;

            // The children of the tree's last split are never split
            // themselves, so their search is skipped.
            if leaves < self.config.max_leaves {
                self.push_best_split(left_index, entry.start, mid, left_sum);
                self.push_best_split(right_index, mid, entry.end, right_sum);
            }
        }
        RegressionTree { nodes }
    }

    /// Find the best histogram split of the node `start..end`, whose
    /// residuals sum to `total_sum`, and queue it if it clears `min_gain`.
    fn push_best_split(&mut self, node_index: usize, start: usize, end: usize, total_sum: f64) {
        let n = end - start;
        let min_leaf = self.config.min_samples_leaf;
        if n < 2 * min_leaf {
            return;
        }
        let columns = self.active.len();

        self.hist.fill(Slot::default());
        for &i in &self.indices[start..end] {
            let i = i as usize;
            let residual = self.residuals[i];
            let row = &self.binned[i * columns..(i + 1) * columns];
            for (&bin, &offset) in row.iter().zip(&self.offsets) {
                let slot = &mut self.hist[offset + bin as usize];
                slot.sum += residual;
                slot.count += 1;
            }
        }

        let parent_score = total_sum * total_sum / n as f64;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, column, bin)
        for (column, bounds) in self.offsets.windows(2).enumerate() {
            let slots = &self.hist[bounds[0]..bounds[1]];
            let mut left_sum = 0.0;
            let mut left_count = 0u32;
            // A split after bin b sends bins [0, b] left.
            for (b, slot) in slots[..slots.len() - 1].iter().enumerate() {
                left_sum += slot.sum;
                left_count += slot.count;
                let right_count = n as u32 - left_count;
                if (left_count as usize) < min_leaf || (right_count as usize) < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / left_count as f64
                    + right_sum * right_sum / right_count as f64;
                let gain = score - parent_score;
                if best
                    .map(|(g, _, _)| gain > g)
                    .unwrap_or(gain > self.config.min_gain)
                {
                    best = Some((gain, column, b));
                }
            }
        }

        if let Some((gain, column, bin)) = best {
            self.heap.push(GrowthEntry {
                gain,
                node_index,
                column,
                bin,
                start,
                end,
            });
        }
    }

    /// Apply `entry`'s split to its range of `indices`, keeping both sides
    /// in ascending order. Returns where the right side starts and the two
    /// sides' residual sums.
    fn partition(&mut self, entry: &GrowthEntry) -> (usize, f64, f64) {
        let columns = self.active.len();
        // `-0.0` is the identity `Iterator::sum` starts from.
        let (mut left_sum, mut right_sum) = (-0.0, -0.0);
        let mut mid = entry.start;
        self.scratch.clear();
        for at in entry.start..entry.end {
            let i = self.indices[at];
            let residual = self.residuals[i as usize];
            if self.binned[i as usize * columns + entry.column] as usize <= entry.bin {
                self.indices[mid] = i;
                mid += 1;
                left_sum += residual;
            } else {
                self.scratch.push(i);
                right_sum += residual;
            }
        }
        self.indices[mid..entry.end].copy_from_slice(&self.scratch);
        (mid, left_sum, right_sum)
    }

    /// Add the grown tree's shrunken leaf values to its examples'
    /// `predictions`: what `tree.predict(row)` would return for each, read
    /// off leaf membership instead.
    fn apply_leaves(&self, tree: &RegressionTree, predictions: &mut [f64]) {
        for (node, &(start, end)) in tree.nodes.iter().zip(&self.leaf_ranges) {
            if let Node::Leaf { value } = node {
                let step = self.config.learning_rate * value;
                for &i in &self.indices[start..end] {
                    predictions[i as usize] += step;
                }
            }
        }
    }
}

/// A trained gradient-boosted regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtRegressor {
    config: GbdtConfig,
    base_prediction: f64,
    trees: Vec<RegressionTree>,
    /// Accumulated split gain per feature (the "split score" importance).
    feature_importance: Vec<f64>,
    num_features: usize,
}

impl GbdtRegressor {
    /// Train a model on the given feature rows and labels.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `labels` have different lengths, `rows` is
    /// empty, or there are more than `u32::MAX` rows.
    pub fn fit(config: GbdtConfig, rows: &[&[f64]], labels: &[f64]) -> GbdtRegressor {
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        assert!(!rows.is_empty(), "cannot train on an empty dataset");
        let config = GbdtConfig {
            max_bins: config.max_bins.min(MAX_BINS),
            ..config
        };
        let num_features = rows[0].len();
        let mut trainer = Trainer::new(&config, rows);

        let base_prediction = labels.iter().sum::<f64>() / labels.len() as f64;
        let mut predictions = vec![base_prediction; labels.len()];
        let mut trees = Vec::with_capacity(config.num_trees);
        let mut feature_importance = vec![0.0; num_features];

        for _ in 0..config.num_trees {
            for ((residual, y), p) in trainer.residuals.iter_mut().zip(labels).zip(&predictions) {
                *residual = y - p;
            }
            let tree = trainer.grow_tree(&mut feature_importance);
            trainer.apply_leaves(&tree, &mut predictions);
            trees.push(tree);
        }

        GbdtRegressor {
            config,
            base_prediction,
            trees,
            feature_importance,
            num_features,
        }
    }

    /// Predict the response for one feature row.
    ///
    /// Row length is validated **once** here, at the ensemble boundary:
    /// full-length rows (covering every feature seen in training) take a
    /// branch-free indexing path through all trees. Shorter rows fall back
    /// to the legacy per-node semantics where a missing feature reads as
    /// `0.0` (see [`RegressionTree::predict`]); both paths produce
    /// bit-identical results whenever both apply.
    ///
    /// # Panics
    ///
    /// Panics (index out of bounds) on a model whose trees reference a
    /// feature index at or beyond `num_features`. [`GbdtRegressor::fit`]
    /// never produces such a model; only a corrupt or hand-edited
    /// deserialized model can (the same invariant is hard-asserted with a
    /// clearer message by [`crate::compiled::CompiledGbdt::compile`]).
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut pred = self.base_prediction;
        if features.len() >= self.num_features {
            for tree in &self.trees {
                pred += self.config.learning_rate * tree.predict_full(features);
            }
        } else {
            for tree in &self.trees {
                pred += self.config.learning_rate * tree.predict(features);
            }
        }
        pred
    }

    /// The trained trees (for the compiled engine).
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The constant prediction every tree's contribution is added to.
    pub(crate) fn base_prediction(&self) -> f64 {
        self.base_prediction
    }

    /// Number of trees in the ensemble.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features the model was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The configuration used for training.
    pub fn config(&self) -> &GbdtConfig {
        &self.config
    }

    /// Split-score feature importance, normalised to sum to 1 (all zeros if
    /// no splits were made).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.feature_importance.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.feature_importance.len()];
        }
        self.feature_importance.iter().map(|g| g / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn synthetic_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(0.0..10.0);
            let x1: f64 = rng.gen_range(0.0..5.0);
            let x2: f64 = rng.gen_range(0.0..1.0); // irrelevant
            let y = if x0 > 5.0 { 3.0 } else { 1.0 } + 0.5 * x1;
            rows.push(vec![x0, x1, x2]);
            labels.push(y);
        }
        (rows, labels)
    }

    #[test]
    fn learns_a_step_function() {
        let (rows, labels) = synthetic_data(2000, 1);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &labels);
        assert_eq!(model.tree_count(), GbdtConfig::fast().num_trees);
        assert_eq!(model.num_features(), 3);

        // In-sample error should be small.
        let mse: f64 = rows
            .iter()
            .zip(&labels)
            .map(|(r, y)| (model.predict(r) - y).powi(2))
            .sum::<f64>()
            / labels.len() as f64;
        assert!(mse < 0.05, "mse too high: {mse}");
    }

    #[test]
    fn feature_importance_identifies_relevant_features() {
        let (rows, labels) = synthetic_data(2000, 2);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &labels);
        let imp = model.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x0 dominates, x2 is irrelevant.
        assert!(imp[0] > 0.5, "importance {imp:?}");
        assert!(imp[2] < 0.05, "importance {imp:?}");
    }

    #[test]
    fn constant_labels_yield_constant_prediction() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let labels = vec![7.0; 3];
        let model = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &labels);
        for r in &rows {
            assert!((model.predict(r) - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn respects_max_leaves() {
        let (rows, labels) = synthetic_data(500, 3);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = GbdtConfig {
            num_trees: 5,
            max_leaves: 4,
            min_samples_leaf: 5,
            ..GbdtConfig::default()
        };
        let model = GbdtRegressor::fit(config, &refs, &labels);
        for tree in &model.trees {
            assert!(tree.leaf_count() <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "rows/labels length mismatch")]
    fn mismatched_lengths_panic() {
        let rows = [vec![1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let _ = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &[1.0, 2.0]);
    }

    #[test]
    fn nan_features_train_and_route_as_predict_routes_them() {
        // Four pure groups on x0; the NaN rows carry the top group's label.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let group = (i % 4) as f64;
            rows.push(vec![if i % 8 == 3 { f64::NAN } else { group }, 1.0]);
            labels.push(10.0 * group);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();

        // Training time: NaN shares the last bin, so it is right of every
        // candidate split, where `NaN <= threshold` (false) sends it.
        let binner = Binner::fit(&refs, 2, 64);
        assert_eq!(binner.num_bins(0), 4);
        let nan = rows[3][0];
        assert!(nan.is_nan());
        assert_eq!(binner.bin(0, nan), 3);
        for bin in 0..3 {
            let predict_goes_left = nan <= binner.threshold(0, bin);
            assert!(!predict_goes_left && binner.bin(0, nan) > bin);
        }

        // One unshrunk tree with a leaf per group fits every row exactly —
        // only if the leaf a NaN row trained is the leaf it is read from
        // (binned left, it would drag group 0's leaf to a mixed mean).
        let config = GbdtConfig {
            num_trees: 1,
            learning_rate: 1.0,
            max_leaves: 4,
            min_samples_leaf: 1,
            ..GbdtConfig::default()
        };
        let model = GbdtRegressor::fit(config, &refs, &labels);
        assert_eq!(model.trees[0].leaf_count(), 4);
        for (row, y) in rows.iter().zip(&labels) {
            assert!((model.predict(row) - y).abs() < 1e-9, "{row:?} -> {y}");
        }
    }

    #[test]
    fn predict_handles_short_rows() {
        let (rows, labels) = synthetic_data(200, 4);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = GbdtRegressor::fit(GbdtConfig::fast(), &refs, &labels);
        // Missing features are treated as 0.0 rather than panicking.
        let _ = model.predict(&[1.0]);
    }
}

//! The shipped training kernel grows **exactly** the trees the
//! straightforward trainer grew.
//!
//! `lava_model::gbdt`'s kernel (flat `u8` binned matrix, one histogram pass
//! per node, in-place stable partition, residuals from leaf membership) is
//! an optimisation of a trainer that walked `Vec<Vec<u16>>` once per
//! feature per node and pushed every example through every new tree. That
//! trainer produced every recorded benchmark digest, so it stays here as
//! [`reference_fit`] and the grid below holds the kernel to it byte for
//! byte: `serde_json::to_string` of the whole `GbdtRegressor` — trees,
//! thresholds, leaf values, `feature_importance`, `base_prediction` — must
//! be equal. One split chosen differently, or one sum added in another
//! order, fails this file before it can move a digest.

use lava_core::time::Duration;
use lava_model::dataset::DatasetBuilder;
use lava_model::gbdt::{GbdtConfig, GbdtRegressor};
use lava_sim::workload::{PoolConfig, WorkloadGenerator};

/// The trainer `gbdt.rs` shipped before the flat kernel replaced it, kept
/// as the executable spec. Types, `Binner`, `fit`, `fit_tree`, `best_split`
/// and `mean` are that file's text, indented and otherwise unedited (hence
/// the shadowed type names and doc comments that mention the compiled
/// engine).
mod reference {
    use lava_model::gbdt::GbdtConfig;
    use serde::{Deserialize, Serialize};
    use std::collections::BinaryHeap;

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
    }

    /// Per-feature quantile bin edges used for histogram split finding.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Binner {
        /// `edges[f]` are the upper edges of the bins of feature `f`
        /// (ascending). A value is assigned to the first bin whose edge is
        /// `>=` the value.
        edges: Vec<Vec<f64>>,
    }

    impl Binner {
        fn fit(rows: &[&[f64]], num_features: usize, max_bins: usize) -> Binner {
            let mut edges = Vec::with_capacity(num_features);
            for f in 0..num_features {
                let mut values: Vec<f64> = rows
                    .iter()
                    .map(|r| r.get(f).copied().unwrap_or(0.0))
                    .filter(|v| v.is_finite())
                    .collect();
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
                values.dedup();
                let feature_edges = if values.len() <= max_bins {
                    values
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

        fn bin(&self, feature: usize, value: f64) -> usize {
            let edges = &self.edges[feature];
            if edges.is_empty() {
                return 0;
            }
            match edges.binary_search_by(|e| e.partial_cmp(&value).expect("finite")) {
                Ok(idx) => idx,
                Err(idx) => idx.min(edges.len() - 1),
            }
        }

        /// The split threshold corresponding to a bin boundary: the upper edge
        /// of the bin.
        fn threshold(&self, feature: usize, bin: usize) -> f64 {
            self.edges[feature][bin]
        }
    }

    #[derive(Debug, Clone)]
    struct SplitCandidate {
        gain: f64,
        feature: usize,
        bin: usize,
        left_indices: Vec<u32>,
        right_indices: Vec<u32>,
        left_value: f64,
        right_value: f64,
    }

    /// Entry in the best-first growth priority queue.
    struct GrowthEntry {
        gain: f64,
        node_index: usize,
        candidate: SplitCandidate,
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
        pub fn fit(config: GbdtConfig, rows: &[&[f64]], labels: &[f64]) -> GbdtRegressor {
            assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
            assert!(!rows.is_empty(), "cannot train on an empty dataset");
            let num_features = rows[0].len();
            let binner = Binner::fit(rows, num_features, config.max_bins);

            // Pre-bin every example once.
            let binned: Vec<Vec<u16>> = rows
                .iter()
                .map(|r| {
                    (0..num_features)
                        .map(|f| binner.bin(f, r.get(f).copied().unwrap_or(0.0)) as u16)
                        .collect()
                })
                .collect();

            let base_prediction = labels.iter().sum::<f64>() / labels.len() as f64;
            let mut predictions = vec![base_prediction; labels.len()];
            let mut trees = Vec::with_capacity(config.num_trees);
            let mut feature_importance = vec![0.0; num_features];

            for _ in 0..config.num_trees {
                let residuals: Vec<f64> = labels
                    .iter()
                    .zip(&predictions)
                    .map(|(y, p)| y - p)
                    .collect();
                let tree = Self::fit_tree(
                    &config,
                    &binner,
                    &binned,
                    &residuals,
                    &mut feature_importance,
                );
                for (i, row) in rows.iter().enumerate() {
                    predictions[i] += config.learning_rate * tree.predict(row);
                }
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

        fn fit_tree(
            config: &GbdtConfig,
            binner: &Binner,
            binned: &[Vec<u16>],
            residuals: &[f64],
            importance: &mut [f64],
        ) -> RegressionTree {
            let all_indices: Vec<u32> = (0..binned.len() as u32).collect();
            let root_value = mean(residuals, &all_indices);
            let mut nodes = vec![Node::Leaf { value: root_value }];
            let mut heap: BinaryHeap<GrowthEntry> = BinaryHeap::new();
            if let Some(cand) = Self::best_split(config, binner, binned, residuals, &all_indices) {
                heap.push(GrowthEntry {
                    gain: cand.gain,
                    node_index: 0,
                    candidate: cand,
                });
            }
            let mut leaves = 1;
            while leaves < config.max_leaves {
                let Some(entry) = heap.pop() else { break };
                if entry.gain < config.min_gain {
                    break;
                }
                let cand = entry.candidate;
                let left_index = nodes.len();
                let right_index = nodes.len() + 1;
                nodes.push(Node::Leaf {
                    value: cand.left_value,
                });
                nodes.push(Node::Leaf {
                    value: cand.right_value,
                });
                nodes[entry.node_index] = Node::Split {
                    feature: cand.feature,
                    threshold: binner.threshold(cand.feature, cand.bin),
                    left: left_index,
                    right: right_index,
                };
                importance[cand.feature] += cand.gain;
                leaves += 1;

                for (child_index, indices) in [
                    (left_index, &cand.left_indices),
                    (right_index, &cand.right_indices),
                ] {
                    if indices.len() >= 2 * config.min_samples_leaf {
                        if let Some(child_cand) =
                            Self::best_split(config, binner, binned, residuals, indices)
                        {
                            heap.push(GrowthEntry {
                                gain: child_cand.gain,
                                node_index: child_index,
                                candidate: child_cand,
                            });
                        }
                    }
                }
            }
            RegressionTree { nodes }
        }

        /// Find the best histogram split over the given example indices.
        fn best_split(
            config: &GbdtConfig,
            binner: &Binner,
            binned: &[Vec<u16>],
            residuals: &[f64],
            indices: &[u32],
        ) -> Option<SplitCandidate> {
            let n = indices.len();
            if n < 2 * config.min_samples_leaf {
                return None;
            }
            let total_sum: f64 = indices.iter().map(|&i| residuals[i as usize]).sum();
            let parent_score = total_sum * total_sum / n as f64;

            let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
            #[allow(clippy::needless_range_loop)]
            for f in 0..binner.edges.len() {
                let bins = binner.num_bins(f);
                if bins < 2 {
                    continue;
                }
                let mut sums = vec![0.0f64; bins];
                let mut counts = vec![0u32; bins];
                for &i in indices {
                    let b = binned[i as usize][f] as usize;
                    sums[b] += residuals[i as usize];
                    counts[b] += 1;
                }
                let mut left_sum = 0.0;
                let mut left_count = 0u32;
                // A split after bin b sends bins [0, b] left.
                for b in 0..bins - 1 {
                    left_sum += sums[b];
                    left_count += counts[b];
                    let right_count = n as u32 - left_count;
                    if (left_count as usize) < config.min_samples_leaf
                        || (right_count as usize) < config.min_samples_leaf
                    {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let score = left_sum * left_sum / left_count as f64
                        + right_sum * right_sum / right_count as f64;
                    let gain = score - parent_score;
                    if best
                        .map(|(g, _, _)| gain > g)
                        .unwrap_or(gain > config.min_gain)
                    {
                        best = Some((gain, f, b));
                    }
                }
            }

            let (gain, feature, bin) = best?;
            if gain <= config.min_gain {
                return None;
            }
            let mut left_indices = Vec::new();
            let mut right_indices = Vec::new();
            for &i in indices {
                if (binned[i as usize][feature] as usize) <= bin {
                    left_indices.push(i);
                } else {
                    right_indices.push(i);
                }
            }
            let left_value = mean(residuals, &left_indices);
            let right_value = mean(residuals, &right_indices);
            Some(SplitCandidate {
                gain,
                feature,
                bin,
                left_indices,
                right_indices,
                left_value,
                right_value,
            })
        }
    }

    fn mean(values: &[f64], indices: &[u32]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        indices.iter().map(|&i| values[i as usize]).sum::<f64>() / indices.len() as f64
    }
}

/// Train with the reference trainer; the serialised model.
fn reference_fit(config: &GbdtConfig, rows: &[Vec<f64>], labels: &[f64]) -> String {
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let model = reference::GbdtRegressor::fit(config.clone(), &refs, labels);
    serde_json::to_string(&model).expect("a model serialises")
}

/// Train with the shipped kernel; the serialised model.
fn kernel_fit(config: &GbdtConfig, rows: &[Vec<f64>], labels: &[f64]) -> String {
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let model = GbdtRegressor::fit(config.clone(), &refs, labels);
    serde_json::to_string(&model).expect("a model serialises")
}

/// Both trainers on one dataset; the (equal) serialised model.
fn assert_parity(what: &str, config: &GbdtConfig, rows: &[Vec<f64>], labels: &[f64]) -> String {
    let expected = reference_fit(config, rows, labels);
    let got = kernel_fit(config, rows, labels);
    assert!(
        got == expected,
        "{what}: the kernel and the reference trained different models\n\
         kernel:    {:.400}\nreference: {:.400}",
        got,
        expected
    );
    got
}

/// `GbdtConfig::fast()` cut to a handful of trees: every code path of a
/// tree runs on the first few rounds, and the reference is slow in debug.
fn few_trees(num_trees: usize) -> GbdtConfig {
    GbdtConfig {
        num_trees,
        ..GbdtConfig::fast()
    }
}

/// A pool history through the production dataset path: generated trace,
/// `DatasetBuilder` (schema fit, uptime augmentation, label cap).
fn history(seed: u64, hosts: usize, days: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let pool = PoolConfig {
        hosts,
        duration: Duration::from_days(days),
        ..PoolConfig::small(seed)
    };
    let trace = WorkloadGenerator::new(pool).generate();
    let mut builder = DatasetBuilder::new();
    builder.extend(trace.observations());
    let dataset = builder.build();
    let rows = dataset
        .examples
        .iter()
        .map(|e| e.features.clone())
        .collect();
    (rows, dataset.labels())
}

/// Uniform values in `[0, 1)` from a seed (xorshift; no RNG crate details).
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` rows of `features` continuous columns and a label with a step, a
/// slope and noise, so trees have real and near-tied splits to choose from.
fn synthetic(n: usize, features: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut next = stream(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..features).map(|_| next() * 10.0).collect();
        let step = if row[0] > 5.0 { 3.0 } else { 1.0 };
        labels.push(step + 0.5 * row[features - 1] + 0.1 * next());
        rows.push(row);
    }
    (rows, labels)
}

#[test]
fn pool_histories_train_the_same_model() {
    for seed in [3, 17, 0x1a7a] {
        let (rows, labels) = history(seed, 24, 2);
        assert!(rows.len() > 3000, "seed {seed}: {} examples", rows.len());
        assert_parity(
            &format!("history {seed}, fast"),
            &few_trees(6),
            &rows,
            &labels,
        );
        let default = GbdtConfig {
            num_trees: 4,
            ..GbdtConfig::default()
        };
        assert_parity(
            &format!("history {seed}, default"),
            &default,
            &rows,
            &labels,
        );
    }
}

/// The size the repo benchmark trains at (64 hosts, 7 days, ~34 k examples
/// with schema columns of 1 to 64 bins), for the first rounds of boosting.
#[test]
fn a_benchmark_sized_history_trains_the_same_model() {
    let (rows, labels) = history(0x1a7a, 64, 7);
    assert!(rows.len() > 30_000, "{} examples", rows.len());
    let config = GbdtConfig {
        num_trees: 3,
        ..GbdtConfig::default()
    };
    assert_parity("benchmark-sized history", &config, &rows, &labels);
}

#[test]
fn full_configs_train_the_same_model() {
    let (rows, labels) = history(11, 12, 2);
    assert_parity("default config", &GbdtConfig::default(), &rows, &labels);
    assert_parity("fast config", &GbdtConfig::fast(), &rows, &labels);
}

#[test]
fn a_constant_column_is_never_split_on() {
    let (mut rows, labels) = synthetic(400, 3, 1);
    for row in &mut rows {
        row[1] = 7.5;
    }
    let model = assert_parity("constant column", &few_trees(5), &rows, &labels);
    assert!(
        !model.contains("\"feature\":1,"),
        "split on a constant: {model:.300}"
    );
}

#[test]
fn the_first_of_two_identical_columns_wins_the_tie() {
    let (mut rows, labels) = synthetic(400, 3, 2);
    for row in &mut rows {
        row[1] = row[0];
    }
    let model = assert_parity("identical columns", &few_trees(5), &rows, &labels);
    assert!(model.contains("\"feature\":0,"), "{model:.300}");
    assert!(!model.contains("\"feature\":1,"), "{model:.300}");
}

#[test]
fn short_rows_read_as_zero() {
    let (mut rows, labels) = synthetic(400, 4, 3);
    for (i, row) in rows.iter_mut().enumerate().skip(1) {
        row.truncate(4 - i % 4);
    }
    assert_parity("short rows", &few_trees(5), &rows, &labels);
}

#[test]
fn infinite_values_take_the_outer_bins() {
    let (mut rows, labels) = synthetic(400, 3, 4);
    for (i, row) in rows.iter_mut().enumerate() {
        match i % 7 {
            0 => row[0] = f64::INFINITY,
            1 => row[0] = f64::NEG_INFINITY,
            2 => row[2] = f64::INFINITY,
            _ => {}
        }
    }
    assert_parity("infinities", &few_trees(5), &rows, &labels);
}

#[test]
fn too_few_examples_leave_a_root_only_tree() {
    let config = few_trees(3);
    let (rows, labels) = synthetic(2 * config.min_samples_leaf - 1, 3, 5);
    let model = assert_parity("n < 2 * min_samples_leaf", &config, &rows, &labels);
    assert!(!model.contains("Split"), "{model:.300}");
}

#[test]
fn two_leaves_is_one_split() {
    let (rows, labels) = synthetic(400, 3, 6);
    let config = GbdtConfig {
        max_leaves: 2,
        ..few_trees(5)
    };
    let model = assert_parity("max_leaves = 2", &config, &rows, &labels);
    assert_eq!(model.matches("Split").count(), config.num_trees);
}

#[test]
fn equal_labels_never_split() {
    let (rows, _) = synthetic(400, 3, 7);
    let model = assert_parity("all-equal labels", &few_trees(3), &rows, &[2.5; 400]);
    assert!(!model.contains("Split"), "{model:.300}");
}

#[test]
fn max_bins_beyond_a_byte_trains_what_256_trains() {
    // 2 000 distinct values per column, so the bin budget binds.
    let (rows, labels) = synthetic(2000, 2, 8);
    let bins = |max_bins| GbdtConfig {
        max_bins,
        ..few_trees(3)
    };
    let at_256 = assert_parity("max_bins = 256", &bins(256), &rows, &labels);
    assert!(kernel_fit(&bins(1000), &rows, &labels) == at_256);
    assert!(kernel_fit(&bins(255), &rows, &labels) != at_256);
}

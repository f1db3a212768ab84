//! Feature schema and encoding (Appendix A of the paper).
//!
//! The model features are: zone, VM shape (CPU / memory / SSD), VM category,
//! metadata id, SSD attachment, provisioning model, priority, admission
//! policy and the uptime of the VM so far (in the log10 domain). High
//! cardinality categoricals are collapsed: any category value with fewer
//! than [`FeatureSchema::MIN_CATEGORY_EXAMPLES`] training examples is mapped
//! to a catch-all "Other" code.

use lava_core::time::Duration;
use lava_core::vm::{ProvisioningModel, VmPriority, VmSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of numeric features produced by [`FeatureSchema::encode`].
pub const FEATURE_COUNT: usize = 11;

/// Human-readable names of the encoded features, index-aligned with
/// [`FeatureSchema::encode`]. Used for feature-importance reporting
/// (Fig. 11).
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "zone",
    "vm_category",
    "metadata_id",
    "cpu_log",
    "memory_log",
    "ssd_log",
    "has_ssd",
    "provisioning_model",
    "priority",
    "admission_policy",
    "uptime_log",
];

/// Index of `uptime_log`, the only feature that changes during a VM's
/// life (every other one is a function of its [`VmSpec`] alone).
pub const UPTIME_FEATURE: usize = FEATURE_COUNT - 1;

/// The categorical code reserved for collapsed ("Other") categories.
pub const OTHER_CATEGORY: u32 = u32::MAX;

/// A fixed-capacity, inline feature row.
///
/// This is the encoding-side analogue of the scheduler's `ScoreVector`: the
/// prediction hot path encodes one of these per (VM, uptime) pair, and the
/// whole row lives on the stack — no heap allocation per prediction. The
/// row always has exactly [`FEATURE_COUNT`] entries, which is what lets the
/// compiled inference engine validate row length once per row instead of
/// per tree node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureRow {
    values: [f64; FEATURE_COUNT],
}

impl FeatureRow {
    /// The all-zero row (every feature at its "missing" value).
    pub const ZERO: FeatureRow = FeatureRow {
        values: [0.0; FEATURE_COUNT],
    };

    /// The row as a slice (always [`FEATURE_COUNT`] long).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the row's values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Re-encode the uptime feature in place, leaving the spec features
    /// as they are: the row then equals what
    /// [`FeatureSchema::encode_into`] writes for the same spec at
    /// `uptime`.
    #[inline]
    pub fn set_uptime(&mut self, uptime: Duration) {
        self.values[UPTIME_FEATURE] = uptime.log10_secs();
    }
}

impl Default for FeatureRow {
    fn default() -> FeatureRow {
        FeatureRow::ZERO
    }
}

impl AsRef<[f64]> for FeatureRow {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl std::ops::Index<usize> for FeatureRow {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

/// Feature schema: the vocabulary of categorical values observed during
/// training, used to collapse rare categories consistently at inference
/// time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeatureSchema {
    zone_counts: HashMap<u32, u32>,
    category_counts: HashMap<u32, u32>,
    metadata_counts: HashMap<u32, u32>,
}

impl FeatureSchema {
    /// Categories with fewer training examples than this are collapsed to
    /// "Other" (Appendix A uses 10).
    pub const MIN_CATEGORY_EXAMPLES: u32 = 10;

    /// Create an empty schema (all categories collapse to "Other").
    pub fn new() -> FeatureSchema {
        FeatureSchema::default()
    }

    /// Build a schema by counting categorical values over the training
    /// specs.
    pub fn fit<'a, I>(specs: I) -> FeatureSchema
    where
        I: IntoIterator<Item = &'a VmSpec>,
    {
        let mut schema = FeatureSchema::new();
        for spec in specs {
            *schema.zone_counts.entry(spec.zone()).or_insert(0) += 1;
            *schema.category_counts.entry(spec.category()).or_insert(0) += 1;
            *schema
                .metadata_counts
                .entry(spec.metadata_id())
                .or_insert(0) += 1;
        }
        schema
    }

    fn collapse(counts: &HashMap<u32, u32>, value: u32) -> u32 {
        match counts.get(&value) {
            Some(&n) if n >= Self::MIN_CATEGORY_EXAMPLES => value,
            _ => OTHER_CATEGORY,
        }
    }

    /// Collapsed zone code for a spec.
    pub fn zone_code(&self, spec: &VmSpec) -> u32 {
        Self::collapse(&self.zone_counts, spec.zone())
    }

    /// Collapsed category code for a spec.
    pub fn category_code(&self, spec: &VmSpec) -> u32 {
        Self::collapse(&self.category_counts, spec.category())
    }

    /// Collapsed metadata-id code for a spec.
    pub fn metadata_code(&self, spec: &VmSpec) -> u32 {
        Self::collapse(&self.metadata_counts, spec.metadata_id())
    }

    /// Encode a VM spec plus uptime into a fixed-length numeric feature
    /// vector (see [`FEATURE_NAMES`] for the layout).
    ///
    /// Allocates a fresh `Vec`; the prediction hot path uses
    /// [`FeatureSchema::encode_into`] with a stack-resident [`FeatureRow`]
    /// instead. Both produce identical values.
    pub fn encode(&self, spec: &VmSpec, uptime: Duration) -> Vec<f64> {
        let mut row = FeatureRow::ZERO;
        self.encode_into(spec, uptime, &mut row);
        row.as_slice().to_vec()
    }

    /// Encode a VM spec plus uptime into a caller-provided inline row.
    ///
    /// Lifetime-like quantities (shape dimensions, uptime) are encoded in
    /// the log10 domain as in the paper. Performs no heap allocation.
    pub fn encode_into(&self, spec: &VmSpec, uptime: Duration, row: &mut FeatureRow) {
        let r = spec.resources();
        row.values = [
            self.zone_code(spec) as f64,
            self.category_code(spec) as f64,
            self.metadata_code(spec) as f64,
            (r.cpu_milli.max(1) as f64).log10(),
            (r.memory_mib.max(1) as f64).log10(),
            (r.ssd_gib.max(1) as f64).log10(),
            if spec.has_ssd() { 1.0 } else { 0.0 },
            match spec.provisioning() {
                ProvisioningModel::OnDemand => 0.0,
                ProvisioningModel::Spot => 1.0,
            },
            match spec.priority() {
                VmPriority::Preemptible => 0.0,
                VmPriority::Production => 1.0,
                VmPriority::System => 2.0,
            },
            if spec.admission_bypass() { 1.0 } else { 0.0 },
            uptime.log10_secs(),
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::resources::Resources;

    fn spec(category: u32) -> VmSpec {
        VmSpec::builder(Resources::cores_gib(4, 16))
            .zone(1)
            .category(category)
            .metadata_id(5)
            .build()
    }

    #[test]
    fn encode_has_fixed_length() {
        let schema = FeatureSchema::new();
        let v = schema.encode(&spec(0), Duration::from_hours(1));
        assert_eq!(v.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }

    #[test]
    fn rare_categories_collapse_to_other() {
        // Category 1 appears 12 times (kept), category 2 appears 3 times
        // (collapsed).
        let mut specs = Vec::new();
        for _ in 0..12 {
            specs.push(spec(1));
        }
        for _ in 0..3 {
            specs.push(spec(2));
        }
        let schema = FeatureSchema::fit(specs.iter());
        assert_eq!(schema.category_code(&spec(1)), 1);
        assert_eq!(schema.category_code(&spec(2)), OTHER_CATEGORY);
        assert_eq!(schema.category_code(&spec(99)), OTHER_CATEGORY);
    }

    #[test]
    fn uptime_is_logged() {
        let schema = FeatureSchema::new();
        let v0 = schema.encode(&spec(0), Duration::ZERO);
        let v1 = schema.encode(&spec(0), Duration::from_secs(1000));
        assert_eq!(v0[FEATURE_COUNT - 1], 0.0);
        assert!((v1[FEATURE_COUNT - 1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn encode_into_matches_encode() {
        let mut specs = Vec::new();
        for _ in 0..12 {
            specs.push(spec(1));
        }
        let schema = FeatureSchema::fit(specs.iter());
        for (s, uptime) in [
            (spec(1), Duration::ZERO),
            (spec(2), Duration::from_hours(7)),
            (spec(99), Duration::from_secs(123_456)),
        ] {
            let vec = schema.encode(&s, uptime);
            let mut row = FeatureRow::ZERO;
            schema.encode_into(&s, uptime, &mut row);
            assert_eq!(vec.as_slice(), row.as_slice());
        }
    }

    #[test]
    fn set_uptime_matches_a_fresh_encode() {
        let schema = FeatureSchema::new();
        assert_eq!(FEATURE_NAMES[UPTIME_FEATURE], "uptime_log");
        let mut patched = FeatureRow::ZERO;
        schema.encode_into(&spec(3), Duration::ZERO, &mut patched);
        for uptime in [
            Duration::ZERO,
            Duration(1),
            Duration(86_399),
            Duration(u64::MAX),
        ] {
            let mut fresh = FeatureRow::ZERO;
            schema.encode_into(&spec(3), uptime, &mut fresh);
            patched.set_uptime(uptime);
            assert_eq!(patched, fresh);
        }
    }

    #[test]
    fn boolean_features_encoded() {
        let schema = FeatureSchema::new();
        let s = VmSpec::builder(Resources::new(1000, 1024, 375))
            .admission_bypass(true)
            .provisioning(ProvisioningModel::Spot)
            .priority(VmPriority::System)
            .build();
        let v = schema.encode(&s, Duration::ZERO);
        assert_eq!(v[6], 1.0); // has_ssd
        assert_eq!(v[7], 1.0); // spot
        assert_eq!(v[8], 2.0); // system priority
        assert_eq!(v[9], 1.0); // admission bypass
    }
}

//! Feature-based edge-cost model (Section 3.4, Equation 1).
//!
//! Every edge cost is the dot product `C(e) = w · f(e)` of a global learned
//! weight vector with the edge's sparse feature vector. The standard features
//! created for an association edge are:
//!
//! * a *default* feature shared by all edges (its weight is the uniform cost
//!   offset that keeps edge costs positive),
//! * one indicator feature per (matcher, confidence-bin) pair — the paper
//!   bins real-valued matcher confidences into empirically determined bins
//!   before feeding them to MIRA (Section 4),
//! * one indicator feature per relation touched by the edge (its weight is
//!   the negated log-authoritativeness of the relation), and
//! * one indicator feature unique to the edge itself.
//!
//! Foreign-key and keyword-match edges use the same machinery with their own
//! feature names, so the learner can adjust every cost in the graph through
//! one weight vector.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Number of confidence bins used when converting real-valued matcher
/// confidence scores into indicator features.
pub const CONFIDENCE_BINS: usize = 5;

/// Map a matcher confidence in `[0, 1]` to a bin index in
/// `0..CONFIDENCE_BINS`. Higher confidence maps to a higher bin.
pub fn bin_confidence(confidence: f64) -> usize {
    let c = confidence.clamp(0.0, 1.0);
    let b = (c * CONFIDENCE_BINS as f64).floor() as usize;
    b.min(CONFIDENCE_BINS - 1)
}

/// Identifier of a feature within a [`FeatureSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// Raw index into the weight vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interning table mapping feature names to dense [`FeatureId`]s, together
/// with the *default weight* each feature starts with before learning.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeatureSpace {
    names: Vec<String>,
    default_weights: Vec<f64>,
    by_name: HashMap<String, FeatureId>,
}

impl FeatureSpace {
    /// Create an empty feature space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a feature name, creating it with the given default weight if it
    /// does not exist yet. Returns the feature id.
    pub fn intern(&mut self, name: &str, default_weight: f64) -> FeatureId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = FeatureId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.default_weights.push(default_weight);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an existing feature id.
    pub fn get(&self, name: &str) -> Option<FeatureId> {
        self.by_name.get(name).copied()
    }

    /// Name of a feature.
    pub fn name(&self, id: FeatureId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no feature has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Build a weight vector initialised with every feature's default weight.
    pub fn default_weights(&self) -> WeightVector {
        WeightVector {
            weights: self.default_weights.clone(),
        }
    }

    /// Default weight of one feature.
    fn default_weight(&self, id: FeatureId) -> f64 {
        self.default_weights.get(id.index()).copied().unwrap_or(0.0)
    }

    /// All interned feature names, in id order (what a persistent snapshot
    /// stores).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// All default weights, in id order.
    pub fn default_weight_slice(&self) -> &[f64] {
        &self.default_weights
    }

    /// Reassemble a feature space from its persisted columns, rebuilding the
    /// name-lookup map.
    pub fn from_parts(names: Vec<String>, default_weights: Vec<f64>) -> Self {
        debug_assert_eq!(names.len(), default_weights.len());
        let by_name = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), FeatureId(i as u32)))
            .collect();
        FeatureSpace {
            names,
            default_weights,
            by_name,
        }
    }
}

/// Sparse feature vector attached to an edge. Kept sorted by feature id.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureVector {
    entries: Vec<(FeatureId, f64)>,
}

impl FeatureVector {
    /// Create an empty feature vector (used for fixed zero-cost edges).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add `value` to the coefficient of `feature`.
    pub fn add(&mut self, feature: FeatureId, value: f64) {
        match self.entries.binary_search_by_key(&feature, |(f, _)| *f) {
            Ok(pos) => self.entries[pos].1 += value,
            Err(pos) => self.entries.insert(pos, (feature, value)),
        }
    }

    /// Build from `(feature, value)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (FeatureId, f64)>>(pairs: I) -> Self {
        let mut fv = FeatureVector::empty();
        for (f, v) in pairs {
            fv.add(f, v);
        }
        fv
    }

    /// Iterate over `(feature, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries (cost is identically zero).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value of one feature (0 if absent).
    pub fn get(&self, feature: FeatureId) -> f64 {
        self.entries
            .binary_search_by_key(&feature, |(f, _)| *f)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Dot product with a weight vector.
    pub fn dot(&self, weights: &WeightVector) -> f64 {
        self.entries.iter().map(|(f, v)| weights.get(*f) * v).sum()
    }

    /// `self += other` (used to accumulate Φ(T) = Σ_{e ∈ T} f(e)).
    pub fn add_assign(&mut self, other: &FeatureVector) {
        for (f, v) in other.iter() {
            self.add(f, v);
        }
    }

    /// `self -= other` (used for constraint direction Φ(T) − Φ(T_r)).
    pub fn sub_assign(&mut self, other: &FeatureVector) {
        for (f, v) in other.iter() {
            self.add(f, -v);
        }
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|(_, v)| v * v).sum()
    }
}

/// Dense learned weight vector indexed by [`FeatureId`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WeightVector {
    weights: Vec<f64>,
}

impl WeightVector {
    /// Wrap a raw weight array (what a persistent snapshot stores).
    pub fn from_raw(weights: Vec<f64>) -> Self {
        WeightVector { weights }
    }

    /// The raw weight array, in feature-id order.
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }

    /// Weight of a feature, 0 if the vector has not grown to cover it yet.
    #[inline]
    pub fn get(&self, feature: FeatureId) -> f64 {
        self.weights.get(feature.index()).copied().unwrap_or(0.0)
    }

    /// Set the weight of a feature, growing the vector as needed.
    pub fn set(&mut self, feature: FeatureId, value: f64) {
        if feature.index() >= self.weights.len() {
            self.weights.resize(feature.index() + 1, 0.0);
        }
        self.weights[feature.index()] = value;
    }

    /// Add `delta * direction` to the weights (a MIRA update step).
    pub fn add_scaled(&mut self, direction: &FeatureVector, delta: f64) {
        for (f, v) in direction.iter() {
            let current = self.get(f);
            self.set(f, current + delta * v);
        }
    }

    /// Number of weights stored.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if no weights are stored.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Ensure the vector covers all features of a space (new features get
    /// their default weight).
    pub fn sync_with(&mut self, space: &FeatureSpace) {
        while self.weights.len() < space.len() {
            let id = FeatureId(self.weights.len() as u32);
            self.weights.push(space.default_weight(id));
        }
    }

    /// The *weight delta* between two pricings: every feature whose weight
    /// differs, with implicit zero padding for the shorter vector. This is
    /// what a MIRA re-pricing surfaces to the serving layer — cached answers
    /// touching none of these features are provably unaffected by the
    /// update.
    pub fn changed_features(&self, before: &WeightVector) -> Vec<FeatureId> {
        let longest = self.weights.len().max(before.weights.len());
        (0..longest)
            .map(|i| FeatureId(i as u32))
            .filter(|id| self.get(*id) != before.get(*id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_covers_unit_interval() {
        assert_eq!(bin_confidence(0.0), 0);
        assert_eq!(bin_confidence(0.19), 0);
        assert_eq!(bin_confidence(0.2), 1);
        assert_eq!(bin_confidence(0.55), 2);
        assert_eq!(bin_confidence(0.99), 4);
        assert_eq!(bin_confidence(1.0), 4);
        assert_eq!(bin_confidence(7.0), 4);
        assert_eq!(bin_confidence(-1.0), 0);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut space = FeatureSpace::new();
        let a = space.intern("default", 1.0);
        let b = space.intern("default", 2.0);
        assert_eq!(a, b);
        assert_eq!(space.len(), 1);
        assert_eq!(space.default_weight(a), 1.0);
        assert_eq!(space.name(a), Some("default"));
    }

    #[test]
    fn feature_vector_dot_product() {
        let mut space = FeatureSpace::new();
        let d = space.intern("default", 1.0);
        let m = space.intern("matcher:mad:bin4", 0.2);
        let fv = FeatureVector::from_pairs([(d, 1.0), (m, 1.0)]);
        let w = space.default_weights();
        assert!((fv.dot(&w) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn feature_vector_accumulates_duplicates() {
        let mut fv = FeatureVector::empty();
        fv.add(FeatureId(3), 1.0);
        fv.add(FeatureId(3), 2.0);
        assert_eq!(fv.get(FeatureId(3)), 3.0);
        assert_eq!(fv.len(), 1);
    }

    #[test]
    fn add_and_sub_assign_compose() {
        let a = FeatureVector::from_pairs([(FeatureId(0), 1.0), (FeatureId(2), 2.0)]);
        let b = FeatureVector::from_pairs([(FeatureId(2), 1.0), (FeatureId(5), 3.0)]);
        let mut phi = FeatureVector::empty();
        phi.add_assign(&a);
        phi.add_assign(&b);
        assert_eq!(phi.get(FeatureId(2)), 3.0);
        phi.sub_assign(&a);
        assert_eq!(phi.get(FeatureId(0)), 0.0);
        assert_eq!(phi.get(FeatureId(2)), 1.0);
        assert_eq!(phi.get(FeatureId(5)), 3.0);
    }

    #[test]
    fn weight_vector_updates_grow_on_demand() {
        let mut w = WeightVector::default();
        w.set(FeatureId(4), 2.5);
        assert_eq!(w.get(FeatureId(4)), 2.5);
        assert_eq!(w.get(FeatureId(2)), 0.0);
        let dir = FeatureVector::from_pairs([(FeatureId(4), 1.0), (FeatureId(6), -1.0)]);
        w.add_scaled(&dir, 2.0);
        assert_eq!(w.get(FeatureId(4)), 4.5);
        assert_eq!(w.get(FeatureId(6)), -2.0);
    }

    #[test]
    fn sync_with_fills_defaults_for_new_features() {
        let mut space = FeatureSpace::new();
        let a = space.intern("a", 1.0);
        let mut w = space.default_weights();
        let b = space.intern("b", 0.7);
        w.sync_with(&space);
        assert_eq!(w.get(a), 1.0);
        assert_eq!(w.get(b), 0.7);
    }

    #[test]
    fn empty_feature_vector_costs_zero() {
        let space = FeatureSpace::new();
        let w = space.default_weights();
        assert_eq!(FeatureVector::empty().dot(&w), 0.0);
    }
}

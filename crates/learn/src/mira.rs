//! The MIRA association-cost learner.

use serde::{Deserialize, Serialize};

use q_graph::{EdgeId, FeatureVector, SearchGraph, SteinerTree, WeightVector};

/// Learner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiraConfig {
    /// Maximum number of cyclic passes over the constraint set per update.
    pub max_passes: usize,
    /// Optional aggressiveness cap `C` on each constraint's step size
    /// (PA-I style). `None` reproduces the unbounded MIRA update.
    pub aggressiveness: Option<f64>,
    /// Violations smaller than this are considered satisfied.
    pub tolerance: f64,
}

impl Default for MiraConfig {
    fn default() -> Self {
        MiraConfig {
            max_passes: 25,
            aggressiveness: None,
            tolerance: 1e-9,
        }
    }
}

/// One ranking constraint: `w · phi_diff ≥ loss`, where
/// `phi_diff = Φ(T) − Φ(T_r)` for a candidate tree `T` and the feedback
/// target tree `T_r`, and `loss = L(T_r, T)` (Equation 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConstraint {
    /// Feature-vector difference between the candidate and the target tree.
    pub phi_diff: FeatureVector,
    /// Required margin.
    pub loss: f64,
}

/// What an update did.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MiraUpdateSummary {
    /// Constraints that were violated when the update began.
    pub initially_violated: usize,
    /// Constraints still violated (beyond tolerance) when the update stopped.
    pub remaining_violations: usize,
    /// Number of cyclic passes performed.
    pub passes: usize,
    /// Total squared norm of the applied weight change.
    pub update_norm_sq: f64,
}

/// The Margin Infused Relaxed Algorithm, adapted as in the paper to
/// real-valued (binned) features and fixed zero-cost edges.
#[derive(Debug, Clone, Default)]
pub struct Mira {
    config: MiraConfig,
}

impl Mira {
    /// Learner with default configuration.
    pub fn new() -> Self {
        Mira {
            config: MiraConfig::default(),
        }
    }

    /// Learner with custom configuration.
    pub fn with_config(config: MiraConfig) -> Self {
        Mira { config }
    }

    /// Current configuration.
    pub fn config(&self) -> &MiraConfig {
        &self.config
    }

    /// Apply one online update: change `weights` as little as possible so
    /// every constraint `w · phi_diff ≥ loss` is (approximately) satisfied.
    ///
    /// Constraints whose `phi_diff` is empty (the candidate equals the
    /// target) are trivially satisfied because their loss is zero.
    pub fn update(
        &self,
        weights: &mut WeightVector,
        constraints: &[TreeConstraint],
    ) -> MiraUpdateSummary {
        let mut summary = MiraUpdateSummary {
            initially_violated: constraints
                .iter()
                .filter(|c| self.violation(weights, c) > self.config.tolerance)
                .count(),
            ..MiraUpdateSummary::default()
        };
        if summary.initially_violated == 0 {
            return summary;
        }

        for pass in 0..self.config.max_passes {
            summary.passes = pass + 1;
            let mut any_violated = false;
            for c in constraints {
                let v = self.violation(weights, c);
                if v <= self.config.tolerance {
                    continue;
                }
                let norm_sq = c.phi_diff.norm_sq();
                if norm_sq <= 0.0 {
                    // Loss demanded on an identical tree: unsatisfiable,
                    // skip (L(T_r, T_r) = 0 so this only happens with a
                    // degenerate loss function).
                    continue;
                }
                let mut tau = v / norm_sq;
                if let Some(c_cap) = self.config.aggressiveness {
                    tau = tau.min(c_cap);
                }
                weights.add_scaled(&c.phi_diff, tau);
                summary.update_norm_sq += tau * tau * norm_sq;
                any_violated = true;
            }
            if !any_violated {
                break;
            }
        }
        summary.remaining_violations = constraints
            .iter()
            .filter(|c| self.violation(weights, c) > self.config.tolerance)
            .count();
        summary
    }

    fn violation(&self, weights: &WeightVector, c: &TreeConstraint) -> f64 {
        c.loss - c.phi_diff.dot(weights)
    }
}

/// Accumulate the feature vectors of a tree's edges: `Φ(T) = Σ_{e ∈ T} f(e)`.
fn tree_feature_vector<F>(tree: &SteinerTree, mut edge_features: F) -> FeatureVector
where
    F: FnMut(EdgeId) -> FeatureVector,
{
    let mut phi = FeatureVector::empty();
    for e in &tree.edges {
        let fv = edge_features(*e);
        phi.add_assign(&fv);
    }
    phi
}

/// Build the MIRA constraints for one feedback interaction: the target tree
/// must beat every candidate tree by the symmetric edge loss (Equation 2).
pub fn constraints_from_candidates<F>(
    target: &SteinerTree,
    candidates: &[SteinerTree],
    mut edge_features: F,
) -> Vec<TreeConstraint>
where
    F: FnMut(EdgeId) -> FeatureVector,
{
    let phi_target = tree_feature_vector(target, &mut edge_features);
    candidates
        .iter()
        .map(|t| {
            let mut phi_diff = tree_feature_vector(t, &mut edge_features);
            phi_diff.sub_assign(&phi_target);
            TreeConstraint {
                phi_diff,
                loss: target.symmetric_loss(t),
            }
        })
        .collect()
}

/// Keep every learnable edge cost at or above `min_cost` by raising the
/// shared `default` feature weight (the uniform cost offset of Section 4).
///
/// Returns the amount added to the default weight (0 if nothing changed).
pub fn enforce_positive_costs(graph: &mut SearchGraph, min_cost: f64) -> f64 {
    let Some(current_min) = graph.min_learnable_edge_cost() else {
        return 0.0;
    };
    if current_min >= min_cost {
        return 0.0;
    }
    let bump = min_cost - current_min;
    let default_feature = graph
        .feature_space()
        .get("default")
        .expect("search graph has a default feature");
    let mut weights = graph.weights().clone();
    weights.set(default_feature, weights.get(default_feature) + bump);
    graph.set_weights(weights);
    bump
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_graph::{FeatureId, NodeId};

    fn tree(edges: &[u32]) -> SteinerTree {
        SteinerTree {
            edges: edges.iter().map(|e| EdgeId(*e)).collect(),
            nodes: vec![NodeId(0)],
            cost: 0.0,
        }
    }

    /// Edge e gets a single indicator feature with id e.
    fn indicator(edge: EdgeId) -> FeatureVector {
        FeatureVector::from_pairs([(FeatureId(edge.0), 1.0)])
    }

    #[test]
    fn satisfied_constraints_leave_weights_untouched() {
        let mira = Mira::new();
        let mut w = WeightVector::default();
        w.set(FeatureId(1), 10.0); // candidate-only edge already very costly
        let target = tree(&[0]);
        let candidate = tree(&[1]);
        let constraints = constraints_from_candidates(&target, &[candidate], indicator);
        let before = w.clone();
        let summary = mira.update(&mut w, &constraints);
        assert_eq!(summary.initially_violated, 0);
        assert_eq!(w, before);
    }

    #[test]
    fn violated_constraint_is_repaired() {
        let mira = Mira::new();
        let mut w = WeightVector::default();
        let target = tree(&[0]);
        let candidate = tree(&[1]);
        let constraints = constraints_from_candidates(&target, &[candidate], indicator);
        // Loss is |{0}| + |{1}| = 2; initially both trees cost 0, so the
        // constraint is violated by 2.
        let summary = mira.update(&mut w, &constraints);
        assert_eq!(summary.initially_violated, 1);
        assert_eq!(summary.remaining_violations, 0);
        // After the update the candidate must cost at least `loss` more than
        // the target.
        let phi_diff = &constraints[0].phi_diff;
        assert!(phi_diff.dot(&w) >= constraints[0].loss - 1e-9);
        // The update pushes the candidate's edge weight up and the target's
        // edge weight down.
        assert!(w.get(FeatureId(1)) > 0.0);
        assert!(w.get(FeatureId(0)) < 0.0);
    }

    #[test]
    fn identical_target_candidate_is_trivially_satisfied() {
        let mira = Mira::new();
        let mut w = WeightVector::default();
        let target = tree(&[0, 1]);
        let constraints = constraints_from_candidates(&target, &[tree(&[0, 1])], indicator);
        assert_eq!(constraints[0].loss, 0.0);
        let summary = mira.update(&mut w, &constraints);
        assert_eq!(summary.initially_violated, 0);
    }

    #[test]
    fn multiple_constraints_are_all_satisfied() {
        let mira = Mira::new();
        let mut w = WeightVector::default();
        let target = tree(&[0]);
        let candidates = vec![tree(&[1]), tree(&[2]), tree(&[1, 2])];
        let constraints = constraints_from_candidates(&target, &candidates, indicator);
        mira.update(&mut w, &constraints);
        for c in &constraints {
            assert!(c.phi_diff.dot(&w) >= c.loss - 1e-6);
        }
    }

    #[test]
    fn aggressiveness_caps_the_step_size() {
        let capped = Mira::with_config(MiraConfig {
            aggressiveness: Some(0.01),
            max_passes: 1,
            ..MiraConfig::default()
        });
        let mut w = WeightVector::default();
        let target = tree(&[0]);
        let candidate = tree(&[1]);
        let constraints = constraints_from_candidates(&target, &[candidate], indicator);
        let summary = capped.update(&mut w, &constraints);
        // One pass with tau <= 0.01 over a norm-2 direction cannot fix a
        // violation of 2.
        assert!(summary.remaining_violations > 0);
        assert!(w.get(FeatureId(1)) <= 0.01 + 1e-12);
    }

    #[test]
    fn tree_feature_vector_sums_edge_features() {
        let t = tree(&[0, 2]);
        let phi = tree_feature_vector(&t, indicator);
        assert_eq!(phi.get(FeatureId(0)), 1.0);
        assert_eq!(phi.get(FeatureId(2)), 1.0);
        assert_eq!(phi.get(FeatureId(1)), 0.0);
    }

    #[test]
    fn update_moves_weights_minimally_in_direction_of_constraint() {
        // With a single constraint the MIRA step is the analytic
        // passive-aggressive update: tau = violation / ||phi_diff||^2.
        let mira = Mira::new();
        let mut w = WeightVector::default();
        let target = tree(&[0]);
        let candidate = tree(&[1, 2]);
        let constraints = constraints_from_candidates(&target, &[candidate], indicator);
        let loss = constraints[0].loss; // 3
        let norm_sq = constraints[0].phi_diff.norm_sq(); // 3 (1,1,-1)
        mira.update(&mut w, &constraints);
        let expected_tau = loss / norm_sq;
        assert!((w.get(FeatureId(1)) - expected_tau).abs() < 1e-9);
        assert!((w.get(FeatureId(2)) - expected_tau).abs() < 1e-9);
        assert!((w.get(FeatureId(0)) + expected_tau).abs() < 1e-9);
    }

    #[test]
    fn learner_weight_updates_bump_the_graph_weight_epoch() {
        use q_storage::{Catalog, RelationSpec, SourceSpec};
        let mut cat = Catalog::new();
        SourceSpec::new("a")
            .relation(RelationSpec::new("r1", &["x"]))
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("b")
            .relation(RelationSpec::new("r2", &["y"]))
            .load_into(&mut cat)
            .unwrap();
        let mut graph = SearchGraph::from_catalog(&cat);
        let x = cat.resolve_qualified("r1.x").unwrap();
        let y = cat.resolve_qualified("r2.y").unwrap();
        graph.add_association(x, y, "mad", 0.9);

        // The learner's write path is `set_weights` — every MIRA re-pricing
        // goes through it and must advance the epoch so caches keyed on it
        // drop their stale answers.
        let before = graph.weight_epoch();
        let mut w = graph.weights().clone();
        let default = graph.feature_space().get("default").unwrap();
        w.set(default, -5.0);
        graph.set_weights(w);
        assert!(graph.weight_epoch() > before, "set_weights must bump");

        // `enforce_positive_costs` re-prices (it raises the default weight
        // here), so it must bump too.
        let before = graph.weight_epoch();
        assert!(enforce_positive_costs(&mut graph, 0.05) > 0.0);
        assert!(graph.weight_epoch() > before, "positivity repair must bump");

        // A no-op repair changes no cost and must leave the epoch alone.
        let before = graph.weight_epoch();
        assert_eq!(enforce_positive_costs(&mut graph, 0.05), 0.0);
        assert_eq!(graph.weight_epoch(), before, "no-op must not bump");
    }

    #[test]
    fn enforce_positive_costs_raises_default_weight() {
        use q_storage::{Catalog, RelationSpec, SourceSpec};
        let mut cat = Catalog::new();
        SourceSpec::new("a")
            .relation(RelationSpec::new("r1", &["x"]))
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("b")
            .relation(RelationSpec::new("r2", &["y"]))
            .load_into(&mut cat)
            .unwrap();
        let mut graph = SearchGraph::from_catalog(&cat);
        let x = cat.resolve_qualified("r1.x").unwrap();
        let y = cat.resolve_qualified("r2.y").unwrap();
        let edge = graph.add_association(x, y, "mad", 0.9);
        // Push the association edge cost negative by sabotaging the weights.
        let mut w = graph.weights().clone();
        let default = graph.feature_space().get("default").unwrap();
        w.set(default, -5.0);
        graph.set_weights(w);
        assert!(graph.edge_cost(edge) < 0.0);
        let bump = enforce_positive_costs(&mut graph, 0.05);
        assert!(bump > 0.0);
        assert!(graph.edge_cost(edge) >= 0.05 - 1e-9);
        assert!(graph.min_learnable_edge_cost().unwrap() >= 0.05 - 1e-9);
        // Second call is a no-op.
        assert_eq!(enforce_positive_costs(&mut graph, 0.05), 0.0);
    }
}

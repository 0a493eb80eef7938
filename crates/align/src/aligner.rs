//! The three alignment search strategies: Exhaustive, ViewBasedAligner
//! (Algorithm 2) and PreferentialAligner (Algorithm 3).

use std::collections::HashSet;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use q_graph::{NodeId, SearchGraph};
use q_matchers::{keep_top_y_per_attribute, AttributeAlignment, SchemaMatcher};
use q_storage::{Catalog, RelationId, SourceId, ValueIndex};

use crate::stats::AlignmentStats;

pub use q_matchers::matcher::keep_top_y_per_attribute as keep_top_y;

/// Shared aligner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlignerConfig {
    /// How many candidate alignments to keep per new-source attribute
    /// (`Y`, typically 2 or 3).
    pub top_y: usize,
    /// If true, count comparisons but skip the actual matcher invocation.
    /// Used by the scaling experiment of Figure 8, whose synthetic relations
    /// have no realistic labels to match on.
    pub count_only: bool,
}

impl Default for AlignerConfig {
    fn default() -> Self {
        AlignerConfig {
            top_y: 2,
            count_only: false,
        }
    }
}

/// Result of aligning one new source.
#[derive(Debug, Clone, Default)]
pub struct AlignmentOutcome {
    /// Proposed alignments (top-Y per new attribute).
    pub alignments: Vec<AttributeAlignment>,
    /// Cost accounting for the run.
    pub stats: AlignmentStats,
}

/// Shared pairwise-matching loop: compare each relation of `new_source`
/// against each candidate relation, counting comparisons and collecting
/// alignments. With a `value_index`, `filtered_comparisons` counts only the
/// value-overlapping pairs; without one it equals `attribute_comparisons`.
fn align_against_candidates(
    catalog: &Catalog,
    matcher: &dyn SchemaMatcher,
    new_source: SourceId,
    candidates: &[RelationId],
    value_index: Option<&ValueIndex>,
    config: &AlignerConfig,
) -> AlignmentOutcome {
    let start = Instant::now();
    let mut stats = AlignmentStats {
        candidate_relations: candidates.len(),
        ..AlignmentStats::default()
    };
    let mut alignments: Vec<AttributeAlignment> = Vec::new();

    let new_relations: Vec<RelationId> = catalog
        .source(new_source)
        .map(|s| s.relations.clone())
        .unwrap_or_default();
    let new_relation_set: HashSet<RelationId> = new_relations.iter().copied().collect();

    for new_rel in &new_relations {
        let new_arity = catalog.relation(*new_rel).map(|r| r.arity()).unwrap_or(0);
        for candidate in candidates {
            if new_relation_set.contains(candidate) {
                continue;
            }
            let cand_arity = catalog.relation(*candidate).map(|r| r.arity()).unwrap_or(0);
            stats.matcher_calls += 1;
            stats.attribute_comparisons += new_arity * cand_arity;
            if let Some(index) = value_index {
                let new_attrs = &catalog.relation(*new_rel).unwrap().attributes;
                let cand_attrs = &catalog.relation(*candidate).unwrap().attributes;
                for a in new_attrs {
                    for b in cand_attrs {
                        if index.overlaps(*a, *b) {
                            stats.filtered_comparisons += 1;
                        }
                    }
                }
            } else {
                stats.filtered_comparisons += new_arity * cand_arity;
            }
            if !config.count_only {
                let found = matcher.match_relations(catalog, *new_rel, *candidate, config.top_y);
                stats.alignments_proposed += found.len();
                alignments.extend(found);
            }
        }
    }

    let alignments = keep_top_y_per_attribute(alignments, config.top_y);
    stats.elapsed = start.elapsed();
    AlignmentOutcome { alignments, stats }
}

/// EXHAUSTIVE: match the new source against every existing relation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveAligner;

impl ExhaustiveAligner {
    /// Align `new_source` against every relation of every other source.
    pub fn align(
        &self,
        catalog: &Catalog,
        matcher: &dyn SchemaMatcher,
        new_source: SourceId,
        value_index: Option<&ValueIndex>,
        config: &AlignerConfig,
    ) -> AlignmentOutcome {
        let candidates: Vec<RelationId> = catalog
            .relations()
            .iter()
            .filter(|r| r.source != new_source)
            .map(|r| r.id)
            .collect();
        align_against_candidates(
            catalog,
            matcher,
            new_source,
            &candidates,
            value_index,
            config,
        )
    }
}

/// VIEWBASEDALIGNER (Algorithm 2): restrict candidates to relations inside
/// the α-cost neighbourhood of the view's keyword-matched nodes.
///
/// `alpha` is the cost of the view's k-th best answer; because edge costs are
/// non-negative, a new source can only affect the top-k answers by attaching
/// inside this neighbourhood, so the pruning preserves the view's results
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewBasedAligner {
    /// Cost threshold α (the k-th best answer's cost).
    pub alpha: f64,
}

impl ViewBasedAligner {
    /// Construct with the given cost threshold.
    pub fn new(alpha: f64) -> Self {
        ViewBasedAligner { alpha }
    }

    /// Candidate existing relations: those whose nodes lie within cost
    /// `alpha` of any of the view's keyword-matched nodes.
    pub fn candidate_relations(
        &self,
        graph: &SearchGraph,
        view_nodes: &[NodeId],
        new_source: SourceId,
        catalog: &Catalog,
    ) -> Vec<RelationId> {
        let neighborhood = graph.cost_neighborhood(view_nodes, self.alpha);
        graph
            .relations_in(&neighborhood)
            .into_iter()
            .filter(|r| {
                catalog
                    .relation(*r)
                    .map(|rel| rel.source != new_source)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Align `new_source` against the α-cost neighbourhood of `view_nodes`.
    #[allow(clippy::too_many_arguments)]
    pub fn align(
        &self,
        catalog: &Catalog,
        graph: &SearchGraph,
        matcher: &dyn SchemaMatcher,
        new_source: SourceId,
        view_nodes: &[NodeId],
        value_index: Option<&ValueIndex>,
        config: &AlignerConfig,
    ) -> AlignmentOutcome {
        let candidates = self.candidate_relations(graph, view_nodes, new_source, catalog);
        align_against_candidates(
            catalog,
            matcher,
            new_source,
            &candidates,
            value_index,
            config,
        )
    }
}

/// PREFERENTIALALIGNER (Algorithm 3): order existing relations by a vertex
/// prior and only match against the most-preferred `limit` relations.
///
/// The prior is a cost (lower = more preferred); in the experiments it is
/// estimated from the learned relation-authoritativeness feature weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreferentialAligner {
    /// Number of top-priority relations to compare against.
    pub limit: usize,
}

impl PreferentialAligner {
    /// Construct with the given candidate limit.
    pub fn new(limit: usize) -> Self {
        PreferentialAligner { limit }
    }

    /// Candidate relations in prior order (ties broken by relation id for
    /// determinism), truncated to `limit`.
    pub fn candidate_relations<P>(
        &self,
        catalog: &Catalog,
        new_source: SourceId,
        prior: P,
    ) -> Vec<RelationId>
    where
        P: Fn(RelationId) -> f64,
    {
        let mut rels: Vec<(RelationId, f64)> = catalog
            .relations()
            .iter()
            .filter(|r| r.source != new_source)
            .map(|r| (r.id, prior(r.id)))
            .collect();
        rels.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        rels.truncate(self.limit);
        rels.into_iter().map(|(r, _)| r).collect()
    }

    /// Align `new_source` against the `limit` most-preferred relations.
    #[allow(clippy::too_many_arguments)]
    pub fn align<P>(
        &self,
        catalog: &Catalog,
        matcher: &dyn SchemaMatcher,
        new_source: SourceId,
        prior: P,
        value_index: Option<&ValueIndex>,
        config: &AlignerConfig,
    ) -> AlignmentOutcome
    where
        P: Fn(RelationId) -> f64,
    {
        let candidates = self.candidate_relations(catalog, new_source, prior);
        align_against_candidates(
            catalog,
            matcher,
            new_source,
            &candidates,
            value_index,
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_matchers::MetadataMatcher;
    use q_storage::{RelationSpec, SourceSpec};

    /// Three existing sources plus a new source whose attributes align with
    /// the first one.
    fn setup() -> (Catalog, SourceId) {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name"])
                    .row(["GO:1", "plasma membrane"])
                    .row(["GO:2", "kinase activity"]),
            )
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("interpro_entry", &["entry_ac", "name"])
                    .row(["IPR01", "Kringle"]),
            )
            .relation(
                RelationSpec::new("interpro_pub", &["pub_id", "title"]).row(["P1", "Some paper"]),
            )
            .load_into(&mut cat)
            .unwrap();
        let new_source = SourceSpec::new("new_go_annotations")
            .relation(
                RelationSpec::new("go_annotation", &["go_acc", "annotation"])
                    .row(["GO:1", "annotated in liver"])
                    .row(["GO:3", "annotated in brain"]),
            )
            .load_into(&mut cat)
            .unwrap();
        (cat, new_source)
    }

    #[test]
    fn exhaustive_considers_every_other_relation() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let outcome =
            ExhaustiveAligner.align(&cat, &matcher, new_source, None, &AlignerConfig::default());
        // 1 new relation x 3 existing relations.
        assert_eq!(outcome.stats.matcher_calls, 3);
        assert_eq!(outcome.stats.candidate_relations, 3);
        // 2 attributes x (2 + 2 + 2) attributes.
        assert_eq!(outcome.stats.attribute_comparisons, 12);
        // Unfiltered comparisons equal filtered when no index is supplied.
        assert_eq!(outcome.stats.filtered_comparisons, 12);
    }

    #[test]
    fn value_overlap_filter_reduces_comparisons() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let index = ValueIndex::build(&cat);
        let outcome = ExhaustiveAligner.align(
            &cat,
            &matcher,
            new_source,
            Some(&index),
            &AlignerConfig::default(),
        );
        // Only go_annotation.go_acc shares values (GO:1 with go_term.acc).
        assert!(outcome.stats.filtered_comparisons < outcome.stats.attribute_comparisons);
        assert_eq!(outcome.stats.filtered_comparisons, 1);
    }

    #[test]
    fn view_based_restricts_to_cost_neighborhood() {
        let (cat, new_source) = setup();
        let graph = SearchGraph::from_catalog(&cat);
        let matcher = MetadataMatcher::new();
        // The view's keywords matched only go_term.name.
        let name = cat.resolve_qualified("go_term.name").unwrap();
        let view_nodes = vec![graph.attribute_node(name).unwrap()];
        let aligner = ViewBasedAligner::new(0.5);
        let outcome = aligner.align(
            &cat,
            &graph,
            &matcher,
            new_source,
            &view_nodes,
            None,
            &AlignerConfig::default(),
        );
        // Only go_term is inside the neighbourhood (no FK edges connect it to
        // the interpro relations in this catalog).
        assert_eq!(outcome.stats.candidate_relations, 1);
        assert_eq!(outcome.stats.matcher_calls, 1);
        assert!(outcome.stats.attribute_comparisons < 12);
    }

    #[test]
    fn view_based_with_large_alpha_degenerates_to_connected_component() {
        let (cat, new_source) = setup();
        let mut graph = SearchGraph::from_catalog(&cat);
        // Connect go_term to interpro_entry with an association so the
        // neighbourhood can spread across sources.
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        let entry_ac = cat.resolve_qualified("interpro_entry.entry_ac").unwrap();
        graph.add_association(acc, entry_ac, "manual", 0.9);
        let name = cat.resolve_qualified("go_term.name").unwrap();
        let view_nodes = vec![graph.attribute_node(name).unwrap()];
        let matcher = MetadataMatcher::new();
        let small = ViewBasedAligner::new(0.5).align(
            &cat,
            &graph,
            &matcher,
            new_source,
            &view_nodes,
            None,
            &AlignerConfig::default(),
        );
        let large = ViewBasedAligner::new(100.0).align(
            &cat,
            &graph,
            &matcher,
            new_source,
            &view_nodes,
            None,
            &AlignerConfig::default(),
        );
        assert!(large.stats.candidate_relations > small.stats.candidate_relations);
        assert_eq!(large.stats.candidate_relations, 2); // go_term + interpro_entry
    }

    #[test]
    fn preferential_orders_by_prior_and_truncates() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let go_term = cat.relation_by_name("go_term").unwrap().id;
        // Prior: go_term most preferred.
        let prior = |r: RelationId| if r == go_term { 0.0 } else { 1.0 };
        let aligner = PreferentialAligner::new(1);
        let candidates = aligner.candidate_relations(&cat, new_source, prior);
        assert_eq!(candidates, vec![go_term]);
        let outcome = aligner.align(
            &cat,
            &matcher,
            new_source,
            prior,
            None,
            &AlignerConfig::default(),
        );
        assert_eq!(outcome.stats.matcher_calls, 1);
    }

    #[test]
    fn count_only_mode_skips_matcher_invocation() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let outcome = ExhaustiveAligner.align(
            &cat,
            &matcher,
            new_source,
            None,
            &AlignerConfig {
                count_only: true,
                ..AlignerConfig::default()
            },
        );
        assert!(outcome.alignments.is_empty());
        assert_eq!(outcome.stats.alignments_proposed, 0);
        assert_eq!(outcome.stats.attribute_comparisons, 12);
    }

    #[test]
    fn top_y_bounds_alignments_per_new_attribute() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let outcome = ExhaustiveAligner.align(
            &cat,
            &matcher,
            new_source,
            None,
            &AlignerConfig {
                top_y: 1,
                ..AlignerConfig::default()
            },
        );
        let mut counts: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
        for a in &outcome.alignments {
            *counts.entry(a.new_attribute).or_default() += 1;
        }
        for (_, c) in counts {
            assert!(c <= 1);
        }
    }

    #[test]
    fn exhaustive_finds_the_expected_alignment() {
        let (cat, new_source) = setup();
        let matcher = MetadataMatcher::new();
        let outcome =
            ExhaustiveAligner.align(&cat, &matcher, new_source, None, &AlignerConfig::default());
        let go_acc = cat.resolve_qualified("go_annotation.go_acc").unwrap();
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        assert!(outcome
            .alignments
            .iter()
            .any(|a| a.new_attribute == go_acc && a.existing_attribute == acc));
    }
}

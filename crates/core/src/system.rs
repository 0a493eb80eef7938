//! The `QSystem` façade: view creation, source registration with its
//! alignment strategies, and feedback — what the paper's experiments drive.
//!
//! [`QSystem::answer`] answers one typed [`QueryRequest`] uncached, exactly
//! as [`GraphSnapshot::answer`](crate::GraphSnapshot::answer) does on the
//! same state. Cached, batched and concurrent serving is
//! [`LiveServer`](crate::LiveServer)'s job.

use serde::{Deserialize, Serialize};

use q_align::{
    AlignerConfig, AlignmentStats, ExhaustiveAligner, PreferentialAligner, ViewBasedAligner,
};
use q_graph::keyword::MatchTarget;
use q_graph::{
    approx_top_k, approx_top_k_detailed_fanned, exact_minimum_steiner, KeywordIndex, KeywordMatch,
    NodeId, QueryGraph, SearchGraph, SteinerConfig, SteinerScratch, SteinerStats,
};
use q_learn::{constraints_from_candidates, enforce_positive_costs, Mira};
use q_matchers::{AttributeAlignment, SchemaMatcher};
use q_storage::{AttributeId, Catalog, SourceId, SourceSpec, ValueIndex};

use crate::answer::{RankedQuery, RankedView, ViewId};
use crate::cache::{CostTerm, RevalidationModel, TreeCostModel};
use crate::config::{AlignmentStrategy, QConfig};
use crate::error::QError;
use crate::feedback::{Feedback, FeedbackOutcome, FeedbackRequest};
use crate::request::{QueryRequest, SearchStrategy};
use crate::translate::{materialize_view, tree_to_query};

/// Report returned by [`QSystem::register_source`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistrationReport {
    /// Id assigned to the new source.
    pub source: SourceId,
    /// Alignments added to the search graph, merged across matchers.
    pub alignments: Vec<AttributeAlignment>,
    /// Per-matcher alignment-cost statistics (matcher name, stats).
    pub stats_per_matcher: Vec<(String, AlignmentStats)>,
    /// Views refreshed after incorporating the source.
    pub refreshed_views: Vec<ViewId>,
}

/// The Q data-integration system (Figure 1 of the paper).
pub struct QSystem {
    catalog: Catalog,
    graph: SearchGraph,
    keyword_index: KeywordIndex,
    value_index: ValueIndex,
    config: QConfig,
    matchers: Vec<Box<dyn SchemaMatcher + Send + Sync>>,
    views: Vec<RankedView>,
    mira: Mira,
    /// Steiner scratch reused across view computations — the
    /// generation-stamped buffers make starting the next search O(1), so
    /// they must not be rebuilt per view.
    scratch: SteinerScratch,
}

impl QSystem {
    /// Build a Q system over an existing catalog. The initial search graph,
    /// keyword index and value index are constructed immediately
    /// (Section 2.1). No matchers are registered yet.
    pub fn new(catalog: Catalog, config: QConfig) -> Self {
        let graph = SearchGraph::from_catalog(&catalog);
        let keyword_index = KeywordIndex::build(&catalog);
        let value_index = ValueIndex::build(&catalog);
        QSystem {
            catalog,
            graph,
            keyword_index,
            value_index,
            config,
            matchers: Vec::new(),
            views: Vec::new(),
            mira: Mira::new(),
            scratch: SteinerScratch::default(),
        }
    }

    /// Register a schema matcher (e.g. the metadata matcher or MAD). Matchers
    /// are consulted in registration order when new sources arrive.
    pub fn add_matcher(&mut self, matcher: Box<dyn SchemaMatcher + Send + Sync>) {
        self.matchers.push(matcher);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The catalog of registered sources.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current search graph.
    pub fn graph(&self) -> &SearchGraph {
        &self.graph
    }

    /// Mutable access to the search graph (used by experiment harnesses that
    /// manipulate weights directly).
    pub fn graph_mut(&mut self) -> &mut SearchGraph {
        &mut self.graph
    }

    /// The system configuration.
    pub fn config(&self) -> &QConfig {
        &self.config
    }

    /// A view by id.
    pub fn view(&self, id: ViewId) -> Option<&RankedView> {
        self.views.get(id)
    }

    /// All views.
    pub fn views(&self) -> &[RankedView] {
        &self.views
    }

    // ------------------------------------------------------------------
    // View creation & output (Section 2.2)
    // ------------------------------------------------------------------

    /// Create a persistent ranked view for a keyword query and materialise
    /// its current answers. A view with no reachable answers is still
    /// created (it simply has no queries yet); it will populate as new
    /// sources and alignments arrive.
    pub fn create_view(&mut self, keywords: &[&str]) -> Result<ViewId, QError> {
        let view = self.compute_view_reusing_scratch(keywords)?;
        self.views.push(view);
        Ok(self.views.len() - 1)
    }

    /// Recompute every view's definition and contents against the current
    /// search graph and weights; returns the refreshed ids.
    fn refresh_all_views(&mut self) -> Vec<ViewId> {
        for id in 0..self.views.len() {
            let keywords = self.views[id].keywords.clone();
            let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
            // Keywords always re-resolve, so refresh cannot fail here.
            if let Ok(view) = self.compute_view_reusing_scratch(&refs) {
                self.views[id] = view;
            }
        }
        (0..self.views.len()).collect()
    }

    /// Compute a view through the shared scratch — the feedback loop
    /// refreshes every persistent view per interaction, which must not
    /// rebuild the search buffers per view. [`QSystem::serving`] borrows
    /// all of `self`, so the scratch steps out for the call.
    fn compute_view_reusing_scratch(&mut self, keywords: &[&str]) -> Result<RankedView, QError> {
        let params = ServeParams::defaults(&self.config);
        let mut scratch = std::mem::take(&mut self.scratch);
        let answered = self
            .serving()
            .answer_keywords(keywords, params, false, &mut scratch);
        self.scratch = scratch;
        answered.map(|(view, _, _)| view)
    }

    /// The state a query is answered against.
    fn serving(&self) -> ServingState<'_> {
        ServingState {
            catalog: &self.catalog,
            graph: &self.graph,
            keyword_index: &self.keyword_index,
            config: &self.config,
        }
    }

    /// Answer one typed [`QueryRequest`] against the current graph and
    /// weights, with its per-request `top_k` / [`SearchStrategy`] /
    /// cost-budget overrides. The non-persistent sibling of
    /// [`QSystem::create_view`]: it registers no view and caches nothing.
    /// Byte-identical to [`GraphSnapshot::answer`](crate::GraphSnapshot::answer)
    /// on the same catalog, graph and index.
    pub fn answer(&self, request: &QueryRequest) -> Result<RankedView, QError> {
        self.serving().answer(request)
    }

    /// Search-graph nodes matched by a view's keywords (value matches map to
    /// their attribute node). These are the start nodes of the α-cost
    /// neighbourhood used by ViewBasedAligner.
    pub fn view_nodes(&self, id: ViewId) -> Vec<NodeId> {
        let Some(view) = self.views.get(id) else {
            return Vec::new();
        };
        let mut nodes = Vec::new();
        for keyword in &view.keywords {
            for m in self
                .keyword_index
                .matches(keyword, &self.config.match_config)
            {
                let node = match m.target {
                    MatchTarget::Relation(r) => self.graph.relation_node(r),
                    MatchTarget::Attribute(a) => self.graph.attribute_node(a),
                    MatchTarget::Value { attribute, .. } => self.graph.attribute_node(attribute),
                };
                if let Some(n) = node {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
        }
        nodes
    }

    // ------------------------------------------------------------------
    // Search graph maintenance: new sources (Section 3)
    // ------------------------------------------------------------------

    /// Register a new data source: load it into the catalog, extend the
    /// search graph and indexes, run the configured matchers through the
    /// configured alignment strategy, add the resulting association edges,
    /// and refresh every view.
    pub fn register_source(&mut self, spec: &SourceSpec) -> Result<RegistrationReport, QError> {
        let source = spec
            .load_into(&mut self.catalog)
            .map_err(|source| QError::SourceLoad {
                source_name: spec.name.clone(),
                source,
            })?;
        self.graph.add_source(&self.catalog, source);
        if let Some(src) = self.catalog.source(source) {
            for rel in src.relations.clone() {
                self.keyword_index.add_relation(&self.catalog, rel);
                self.value_index.index_relation(&self.catalog, rel);
            }
        }

        let mut report = RegistrationReport {
            source,
            alignments: Vec::new(),
            stats_per_matcher: Vec::new(),
            refreshed_views: Vec::new(),
        };

        let matcher_count = self.matchers.len();
        for m in 0..matcher_count {
            let (alignments, stats) = self.run_strategy(source, m);
            let name = self.matchers[m].name().to_string();
            for a in &alignments {
                self.graph.add_association(
                    a.new_attribute,
                    a.existing_attribute,
                    &name,
                    a.confidence,
                );
            }
            report.alignments.extend(alignments);
            report.stats_per_matcher.push((name, stats));
        }

        report.refreshed_views = self.refresh_all_views();
        Ok(report)
    }

    fn run_strategy(
        &self,
        source: SourceId,
        matcher_index: usize,
    ) -> (Vec<AttributeAlignment>, AlignmentStats) {
        let matcher = self.matchers[matcher_index].as_ref();
        let aligner_config = AlignerConfig {
            top_y: self.config.top_y,
            ..AlignerConfig::default()
        };
        match self.config.strategy {
            AlignmentStrategy::Exhaustive => {
                let outcome = ExhaustiveAligner.align(
                    &self.catalog,
                    matcher,
                    source,
                    Some(&self.value_index),
                    &aligner_config,
                );
                (outcome.alignments, outcome.stats)
            }
            AlignmentStrategy::ViewBased => {
                // Align within the neighbourhood of every existing view; if
                // there are no views yet, fall back to exhaustive matching so
                // the source is still incorporated.
                if self.views.is_empty() {
                    let outcome = ExhaustiveAligner.align(
                        &self.catalog,
                        matcher,
                        source,
                        Some(&self.value_index),
                        &aligner_config,
                    );
                    return (outcome.alignments, outcome.stats);
                }
                let mut alignments = Vec::new();
                let mut stats = AlignmentStats::default();
                for (view_id, view) in self.views.iter().enumerate() {
                    // A view with no answers yet has no α bound: any
                    // alignment reachable from its keyword nodes could give
                    // it its first results, so the neighbourhood is unbounded
                    // (but still restricted to the keywords' component).
                    let alpha = view.alpha().unwrap_or(f64::INFINITY);
                    let nodes = self.view_nodes(view_id);
                    let outcome = ViewBasedAligner::new(alpha).align(
                        &self.catalog,
                        &self.graph,
                        matcher,
                        source,
                        &nodes,
                        Some(&self.value_index),
                        &aligner_config,
                    );
                    alignments.extend(outcome.alignments);
                    stats.merge(&outcome.stats);
                }
                (
                    q_matchers::keep_top_y_per_attribute(alignments, self.config.top_y),
                    stats,
                )
            }
            AlignmentStrategy::Preferential { limit } => {
                let outcome = PreferentialAligner::new(limit).align(
                    &self.catalog,
                    matcher,
                    source,
                    |r| self.graph.relation_feature_weight(r),
                    Some(&self.value_index),
                    &aligner_config,
                );
                (outcome.alignments, outcome.stats)
            }
        }
    }

    /// Add a hand-coded (or externally computed) association edge between two
    /// attributes.
    pub fn add_manual_association(&mut self, a: AttributeId, b: AttributeId, confidence: f64) {
        self.graph.add_association(a, b, "manual", confidence);
    }

    /// Add a batch of matcher alignments to the search graph under the given
    /// matcher name (used when driving matchers outside `register_source`,
    /// e.g. the Section 5.2 experiments that align a fixed set of sources).
    pub fn add_alignments(&mut self, alignments: &[AttributeAlignment], matcher_name: &str) {
        for a in alignments {
            self.graph.add_association(
                a.new_attribute,
                a.existing_attribute,
                matcher_name,
                a.confidence,
            );
        }
    }

    // ------------------------------------------------------------------
    // User feedback & corrections (Section 4, Algorithm 4)
    // ------------------------------------------------------------------

    /// Apply one typed [`FeedbackRequest`] to the persistent view with its
    /// keywords (creating that view when none exists): generalise the
    /// annotated answer to its originating query tree, build margin
    /// constraints against the current K-best trees, update the weights with
    /// MIRA, keep edge costs positive, and refresh every view.
    pub fn apply_feedback(&mut self, request: &FeedbackRequest) -> Result<FeedbackOutcome, QError> {
        let keywords = request.keywords();
        let view_id = match self.views.iter().position(|v| v.keywords == keywords) {
            Some(id) => id,
            None => {
                let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
                self.create_view(&refs)?
            }
        };
        let outcome = learn_feedback(
            &mut self.graph,
            &self.keyword_index,
            &self.config,
            &mut self.mira,
            &self.views[view_id],
            view_id,
            request.feedback(),
        )?;
        self.refresh_all_views();
        Ok(outcome)
    }
}

/// The MIRA learning step shared by [`QSystem::apply_feedback`] and
/// [`LiveServer::feedback`](crate::LiveServer::feedback): generalise the
/// annotated answers of `view` to their originating query trees, build
/// margin constraints against the current K-best list, update the weights,
/// and keep every edge cost positive. Mutates `graph` (weights only — the
/// topology is untouched, so this is always a pure re-pricing) and `mira`;
/// the caller decides what to do with the re-priced graph (refresh views, or
/// publish it as the next snapshot).
///
/// `view_label` is only used to label [`QError::UnknownAnswer`] — the live
/// path, which has no persistent views, passes 0.
pub(crate) fn learn_feedback(
    graph: &mut SearchGraph,
    keyword_index: &KeywordIndex,
    config: &QConfig,
    mira: &mut Mira,
    view: &RankedView,
    view_label: ViewId,
    feedback: Feedback,
) -> Result<FeedbackOutcome, QError> {
    if view.queries.is_empty() {
        return Err(QError::NoQueryTrees);
    }

    // Resolve the feedback to a target query and the candidate set.
    let resolve = |answer: usize| -> Result<usize, QError> {
        view.answers
            .get(answer)
            .map(|a| a.query_index)
            .ok_or(QError::UnknownAnswer {
                view: view_label,
                answer,
            })
    };
    let (target_query, candidate_queries): (usize, Vec<usize>) = match feedback {
        Feedback::Correct { answer } => {
            let t = resolve(answer)?;
            (t, (0..view.queries.len()).collect())
        }
        Feedback::Invalid { answer } => {
            let bad = resolve(answer)?;
            let target = (0..view.queries.len()).find(|q| *q != bad);
            match target {
                Some(t) => (t, vec![bad]),
                None => return Err(QError::NoQueryTrees),
            }
        }
        Feedback::Prefer { better, worse } => (resolve(better)?, vec![resolve(worse)?]),
    };

    // Rebuild the query graph (deterministic, so edge ids line up with
    // the stored trees) and recompute the K-best list under the current
    // weights, per Algorithm 4.
    let keywords: Vec<&str> = view.keywords.iter().map(String::as_str).collect();
    let query_graph = QueryGraph::build(graph, keyword_index, &keywords, &config.match_config);
    let steiner = SteinerConfig {
        k: config.top_k,
        ..config.steiner
    };
    let mut candidates = approx_top_k(&query_graph, &query_graph.terminals(), &steiner);
    for q in candidate_queries {
        candidates.push(view.queries[q].tree.clone());
    }
    let target_tree = view.queries[target_query].tree.clone();

    let constraints = constraints_from_candidates(&target_tree, &candidates, |e| {
        query_graph.edge_features(e).clone()
    });
    let weights_before = graph.weights().clone();
    let mut weights = weights_before.clone();
    let summary = mira.update(&mut weights, &constraints);
    graph.set_weights(weights);
    let bump = enforce_positive_costs(graph, config.min_edge_cost);
    // Surface the weight delta of this re-pricing (MIRA step plus
    // positivity repair): the answer cache revalidates cached trees
    // against the new prices instead of cold-starting.
    let repriced_features = graph.weights().changed_features(&weights_before).len();

    Ok(FeedbackOutcome {
        target_query,
        constraints: constraints.len(),
        initially_violated: summary.initially_violated,
        remaining_violations: summary.remaining_violations,
        default_weight_bump: bump,
        repriced_features,
    })
}

/// The per-request serving parameters after merging a [`QueryRequest`]'s
/// overrides with the system [`QConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServeParams {
    top_k: usize,
    strategy: SearchStrategy,
    max_cost: f64,
}

impl ServeParams {
    /// The config-default parameters (what the persistent-view path serves
    /// with).
    pub(crate) fn defaults(config: &QConfig) -> Self {
        ServeParams {
            top_k: config.top_k,
            strategy: SearchStrategy::Approx {
                max_roots: config.steiner.max_roots,
            },
            max_cost: config.steiner.max_cost,
        }
    }

    /// Merge a request's overrides over the config defaults.
    pub(crate) fn resolve(config: &QConfig, request: &QueryRequest) -> Self {
        let mut params = ServeParams::defaults(config);
        if let Some(top_k) = request.top_k_override() {
            params.top_k = top_k;
        }
        if let Some(strategy) = request.strategy_override() {
            params.strategy = strategy;
        }
        if let Some(budget) = request.cost_budget_override() {
            params.max_cost = budget;
        }
        params
    }

    /// Merge a cache key's recorded overrides over the config defaults: the
    /// re-validation lane recomputes a parked entry exactly as the request
    /// that priced it would be served today.
    pub(crate) fn resolve_key(config: &QConfig, key: &crate::request::QueryParamsKey) -> Self {
        let mut params = ServeParams::defaults(config);
        if let Some(top_k) = key.top_k {
            params.top_k = top_k;
        }
        if let Some(strategy) = key.strategy {
            params.strategy = strategy;
        }
        if let Some(bits) = key.budget_bits {
            params.max_cost = f64::from_bits(bits);
        }
        params
    }
}

/// What one miss computes: the ranked view, the search's statistics and —
/// when the answer is destined for the cache — its re-pricing model.
pub(crate) type Answered = (RankedView, SteinerStats, Option<RevalidationModel>);

/// The frozen serving state one keyword query is answered against, borrowed
/// from whoever owns it ([`QSystem`] or a published
/// [`GraphSnapshot`](crate::live::GraphSnapshot)).
#[derive(Clone, Copy)]
pub(crate) struct ServingState<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) graph: &'a SearchGraph,
    pub(crate) keyword_index: &'a KeywordIndex,
    pub(crate) config: &'a QConfig,
}

impl ServingState<'_> {
    /// The sequential reference answer to a request: validate it, merge its
    /// overrides over the config and answer it through a fresh scratch,
    /// with no cache involvement. [`QSystem::answer`] and
    /// [`GraphSnapshot::answer`](crate::GraphSnapshot::answer) are this.
    pub(crate) fn answer(&self, request: &QueryRequest) -> Result<RankedView, QError> {
        request.validate()?;
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        self.answer_keywords(
            &refs,
            ServeParams::resolve(self.config, request),
            false,
            &mut SteinerScratch::default(),
        )
        .map(|(view, _, _)| view)
    }

    /// Answer one keyword query: match the keywords, build the query graph,
    /// run the requested Steiner search (into the caller's scratch buffers),
    /// translate trees to conjunctive queries and materialise the ranked
    /// view. Pure in its inputs — readers call this concurrently holding
    /// only shared references.
    ///
    /// When `build_model` is set (the answer is destined for the cache), it
    /// also returns the [`RevalidationModel`] the cache needs to judge the
    /// answer at a later publish: per-tree cost terms (base edges by id —
    /// the graph stays authoritative for their features — and copies of the
    /// query-local edge features, which die with the query graph), the
    /// effective cost budget, and whether the strategy is revalidatable at
    /// all.
    pub(crate) fn answer_keywords(
        &self,
        keywords: &[&str],
        params: ServeParams,
        build_model: bool,
        scratch: &mut SteinerScratch,
    ) -> Result<Answered, QError> {
        let ServingState {
            catalog,
            graph,
            keyword_index,
            config,
        } = *self;
        let match_lists: Vec<Vec<KeywordMatch>> = keywords
            .iter()
            .map(|keyword| keyword_index.matches(keyword, &config.match_config))
            .collect();
        let query_graph = QueryGraph::build_with_matches(graph, keywords, match_lists);
        let terminals = query_graph.terminals();
        let (trees, stats) = match params.strategy {
            SearchStrategy::Approx { max_roots } => {
                let steiner = SteinerConfig {
                    k: params.top_k,
                    max_roots,
                    max_cost: params.max_cost,
                };
                // The per-terminal backward Dijkstras fan across
                // `shard_workers` threads; the fan-out is byte-identical to
                // the sequential search, so it moves wall-clock only.
                approx_top_k_detailed_fanned(
                    &query_graph,
                    &terminals,
                    &steiner,
                    scratch,
                    config.shard_workers,
                )
            }
            SearchStrategy::Exact => {
                let found = exact_minimum_steiner(&query_graph, &terminals);
                let candidates = usize::from(found.is_some());
                let trees: Vec<_> = found
                    .into_iter()
                    .filter(|t| t.cost <= params.max_cost + 1e-9)
                    .collect();
                let stats = SteinerStats {
                    terminals: terminals.len(),
                    candidates_generated: candidates,
                    // A found-but-too-expensive tree must read as "over budget",
                    // not as "terminals unconnected".
                    trees_over_budget: candidates - trees.len(),
                    trees_returned: trees.len(),
                    ..SteinerStats::default()
                };
                (trees, stats)
            }
        };
        let mut queries: Vec<RankedQuery> = Vec::new();
        for tree in trees {
            if let Some(query) = tree_to_query(catalog, &query_graph, &tree) {
                queries.push(RankedQuery {
                    cost: tree.cost,
                    tree,
                    query,
                });
            }
        }
        queries.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        // Cost models in final rank order: term order mirrors the sorted edge
        // list so a re-priced sum is bit-identical to this computation's. Only
        // built when the answer will enter the cache — the bypass path (the hot
        // sequential baseline) would throw the feature-vector clones away.
        let model = build_model.then(|| {
            let models: Vec<TreeCostModel> = queries
                .iter()
                .map(|rq| {
                    let terms = rq
                        .tree
                        .edges
                        .iter()
                        .map(|e| {
                            if e.index() < graph.edge_count() {
                                CostTerm::Base(*e)
                            } else {
                                let edge = query_graph.edge(*e);
                                if edge.kind.is_fixed_zero() {
                                    CostTerm::Local(q_graph::FeatureVector::empty())
                                } else {
                                    CostTerm::Local(edge.features.clone())
                                }
                            }
                        })
                        .collect();
                    TreeCostModel::new(terms)
                })
                .collect();
            RevalidationModel {
                trees: models,
                budget: params.max_cost,
                revalidatable: matches!(params.strategy, SearchStrategy::Approx { .. }),
                top_k: params.top_k,
            }
        });
        let (columns, column_sources, answers) = materialize_view(
            catalog,
            graph,
            &queries,
            config.column_merge_threshold,
            config.max_answers,
        )
        .map_err(|source| QError::ViewMaterialization {
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
            source,
        })?;
        Ok((
            RankedView {
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                columns,
                column_sources,
                queries,
                answers,
            },
            stats,
            model,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_matchers::{MadMatcher, MetadataMatcher};
    use q_storage::{RelationSpec, Value};

    fn base_specs() -> Vec<SourceSpec> {
        vec![
            SourceSpec::new("go").relation(
                RelationSpec::new("go_term", &["acc", "name"])
                    .row(["GO:1", "plasma membrane"])
                    .row(["GO:2", "kinase activity"])
                    .row(["GO:3", "insulin secretion"]),
            ),
            SourceSpec::new("interpro")
                .relation(
                    RelationSpec::new("interpro2go", &["go_id", "entry_ac"])
                        .row(["GO:1", "IPR01"])
                        .row(["GO:2", "IPR02"])
                        .row(["GO:3", "IPR03"]),
                )
                .relation(
                    RelationSpec::new("entry", &["entry_ac", "name"])
                        .row(["IPR01", "Kringle domain"])
                        .row(["IPR02", "Cytokine receptor"])
                        .row(["IPR03", "Insulin family"]),
                )
                .foreign_key("interpro2go.entry_ac", "entry.entry_ac"),
        ]
    }

    fn new_pub_source() -> SourceSpec {
        SourceSpec::new("pubdb").relation(
            RelationSpec::new("pub", &["pub_id", "entry_ac", "title"])
                .row(["P1", "IPR01", "Kringle structure determination"])
                .row(["P2", "IPR02", "Cytokine signalling review"]),
        )
    }

    fn system() -> QSystem {
        let catalog = q_storage::loader::load_catalog(&base_specs()).expect("base catalog loads");
        let mut q = QSystem::new(catalog, QConfig::default());
        q.add_matcher(Box::new(MetadataMatcher::new()));
        q.add_matcher(Box::new(MadMatcher::new()));
        q
    }

    #[test]
    fn create_view_produces_ranked_answers_with_provenance() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);
        let view_id = q.create_view(&["plasma membrane", "entry"]).unwrap();
        let view = q.view(view_id).unwrap();
        assert!(!view.queries.is_empty());
        assert!(!view.answers.is_empty());
        assert!(view.alpha().unwrap() > 0.0);
        // The InterPro entry IPR01 (or its name) is reachable through the
        // GO:1 association, so the join across sources shows up in the view.
        let found = view.answers.iter().any(|a| {
            a.values.iter().flatten().any(
                |v| matches!(v, Value::Text(s) if s.contains("Kringle") || s.contains("IPR01")),
            )
        });
        assert!(found, "answers: {:?}", view.answers);
    }

    #[test]
    fn view_without_matches_is_created_empty() {
        let mut q = system();
        let view_id = q.create_view(&["qqqq", "zzzz"]).unwrap();
        let view = q.view(view_id).unwrap();
        assert!(view.queries.is_empty());
        assert!(view.answers.is_empty());
        assert_eq!(view.alpha(), None);
    }

    #[test]
    fn register_source_adds_alignments_and_refreshes_views() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);
        let view_id = q.create_view(&["plasma membrane", "title"]).unwrap();
        // Before the publication source arrives, "title" matches nothing.
        assert!(q.view(view_id).unwrap().answers.is_empty());

        let report = q.register_source(&new_pub_source()).unwrap();
        assert!(!report.alignments.is_empty());
        assert_eq!(report.stats_per_matcher.len(), 2);
        assert!(report.refreshed_views.contains(&view_id));
        // The new source's entry_ac should align with entry.entry_ac.
        let pub_entry_ac = q.catalog().resolve_qualified("pub.entry_ac").unwrap();
        let entry_ac = q.catalog().resolve_qualified("entry.entry_ac").unwrap();
        assert!(q
            .graph()
            .association_between(pub_entry_ac, entry_ac)
            .is_some());
        // And the refreshed view now reaches publication titles.
        let view = q.view(view_id).unwrap();
        let found = view.answers.iter().any(|a| {
            a.values
                .iter()
                .flatten()
                .any(|v| matches!(v, Value::Text(s) if s.contains("Kringle structure")))
        });
        assert!(found, "answers: {:?}", view.answers);
    }

    #[test]
    fn exhaustive_strategy_counts_more_comparisons_than_view_based() {
        let mut exhaustive = QSystem::new(
            q_storage::loader::load_catalog(&base_specs()).unwrap(),
            QConfig {
                strategy: AlignmentStrategy::Exhaustive,
                ..QConfig::default()
            },
        );
        exhaustive.add_matcher(Box::new(MetadataMatcher::new()));
        let acc = exhaustive
            .catalog()
            .resolve_qualified("go_term.acc")
            .unwrap();
        let go_id = exhaustive
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        exhaustive.add_manual_association(acc, go_id, 0.95);
        exhaustive
            .create_view(&["plasma membrane", "entry"])
            .unwrap();
        let ex_report = exhaustive.register_source(&new_pub_source()).unwrap();

        let mut view_based = QSystem::new(
            q_storage::loader::load_catalog(&base_specs()).unwrap(),
            QConfig {
                strategy: AlignmentStrategy::ViewBased,
                ..QConfig::default()
            },
        );
        view_based.add_matcher(Box::new(MetadataMatcher::new()));
        let acc = view_based
            .catalog()
            .resolve_qualified("go_term.acc")
            .unwrap();
        let go_id = view_based
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        view_based.add_manual_association(acc, go_id, 0.95);
        view_based
            .create_view(&["plasma membrane", "entry"])
            .unwrap();
        let vb_report = view_based.register_source(&new_pub_source()).unwrap();

        let ex_comparisons = ex_report.stats_per_matcher[0].1.attribute_comparisons;
        let vb_comparisons = vb_report.stats_per_matcher[0].1.attribute_comparisons;
        assert!(
            vb_comparisons <= ex_comparisons,
            "view-based ({vb_comparisons}) should not exceed exhaustive ({ex_comparisons})"
        );
    }

    #[test]
    fn feedback_demotes_the_tree_of_an_invalid_answer() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        let entry_name = q.catalog().resolve_qualified("entry.name").unwrap();
        let term_name = q.catalog().resolve_qualified("go_term.name").unwrap();
        // One good association and one bad one.
        q.add_manual_association(acc, go_id, 0.9);
        q.graph_mut()
            .add_association(term_name, entry_name, "metadata", 0.9);
        let view_id = q.create_view(&["plasma membrane", "entry"]).unwrap();
        let view = q.view(view_id).unwrap();
        assert!(view.queries.len() >= 2, "need alternative trees");

        // Mark the best answer correct; weights must change such that its
        // query stays cheapest and all views refresh without error.
        let outcome = q
            .apply_feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Correct { answer: 0 },
            ))
            .unwrap();
        assert!(outcome.constraints > 0);
        assert_eq!(q.views().len(), 1, "the keywords resolved to the view");
        let view = q.view(view_id).unwrap();
        assert!(!view.queries.is_empty());
        // All edge costs remain positive after learning.
        assert!(q.graph().min_learnable_edge_cost().unwrap() > 0.0);
    }

    #[test]
    fn keyword_feedback_creates_the_view_once_and_then_reuses_it() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        let entry_name = q.catalog().resolve_qualified("entry.name").unwrap();
        let term_name = q.catalog().resolve_qualified("go_term.name").unwrap();
        q.add_manual_association(acc, go_id, 0.9);
        q.add_manual_association(term_name, entry_name, 0.9);
        let keywords = ["plasma membrane", "entry"];
        assert!(q.views().is_empty());

        // No view has these keywords yet: the annotation creates one and
        // learns from it.
        let outcome = q
            .apply_feedback(&FeedbackRequest::on_keywords(
                keywords,
                Feedback::Correct { answer: 0 },
            ))
            .unwrap();
        assert!(outcome.constraints > 0);
        assert_eq!(q.views().len(), 1);
        assert_eq!(q.views()[0].keywords, keywords);

        // A second annotation of the same keywords reuses that view.
        q.apply_feedback(&FeedbackRequest::on_keywords(
            keywords,
            Feedback::Correct { answer: 0 },
        ))
        .unwrap();
        assert_eq!(q.views().len(), 1);
    }

    #[test]
    fn feedback_on_missing_answer_errors() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.9);
        let err = q
            .apply_feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Correct { answer: 10_000 },
            ))
            .unwrap_err();
        assert!(matches!(err, QError::UnknownAnswer { .. }));
    }

    #[test]
    fn answer_is_the_snapshot_answer_and_the_view_without_registering_one() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);
        let request = QueryRequest::new(["plasma membrane", "entry"]);
        let answered = q.answer(&request).unwrap();
        assert!(!answered.answers.is_empty());
        assert!(q.views().is_empty(), "answer registers no view");
        // The same bytes as the persistent view of the same keywords...
        let view_id = q.create_view(&["plasma membrane", "entry"]).unwrap();
        assert_eq!(q.view(view_id).unwrap(), &answered);
        // ...and as a snapshot of the same state.
        let snapshot = crate::GraphSnapshot::assemble(q.catalog().clone(), q.graph().clone(), 0);
        assert_eq!(snapshot.answer(q.config(), &request).unwrap(), answered);
        // Invalid requests are rejected, not served.
        let err = q
            .answer(&QueryRequest::new(["plasma membrane"]).top_k(0))
            .unwrap_err();
        assert!(matches!(err, QError::InvalidRequest { field: "top_k", .. }));
    }

    #[test]
    fn view_nodes_map_keywords_to_graph_nodes() {
        let mut q = system();
        let view_id = q.create_view(&["plasma membrane", "entry"]).unwrap();
        let nodes = q.view_nodes(view_id);
        assert!(!nodes.is_empty());
        let name_attr = q.catalog().resolve_qualified("go_term.name").unwrap();
        let name_node = q.graph().attribute_node(name_attr).unwrap();
        assert!(nodes.contains(&name_node));
    }
}

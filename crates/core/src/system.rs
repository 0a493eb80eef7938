//! The `QSystem` façade: view creation, source registration, feedback and
//! the typed, cached, batched query-serving path.
//!
//! Serving goes through the typed request/response API:
//! [`QSystem::query`] answers one [`QueryRequest`], [`QSystem::query_batch`]
//! answers a workload of them, and [`QSystem::query_shared`] is the `&self`
//! path for cache-bypassing callers behind a shared reference; all return
//! [`QueryOutcome`]s carrying the ranked view plus serving provenance.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
use crate::cache::{
    normalize_keywords, CostTerm, Publish, QueryCache, QueryKey, RevalidationModel, TreeCostModel,
};
use crate::config::{AlignmentStrategy, QConfig};
use crate::error::QError;
use crate::feedback::{Feedback, FeedbackOutcome, FeedbackRequest, FeedbackTarget};
use crate::request::{CachePolicy, CacheStatus, QueryOutcome, QueryRequest, SearchStrategy};
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

/// Options for [`QSystem::query_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchOptions {
    /// Worker threads answering cache misses. `0` (the default) uses the
    /// machine's available parallelism. Results are deterministic regardless
    /// of the value — workers only change wall-clock time.
    pub workers: usize,
}

impl BatchOptions {
    /// Resolve the configured worker count against `pending` computations:
    /// `0` expands to the machine's available parallelism, the result is
    /// capped at `pending` (no idle workers) and clamped to at least 1 (a
    /// request for zero workers is a configuration mistake, not a reason to
    /// hang or panic).
    pub fn effective_workers(&self, pending: usize) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            w => w,
        }
        .min(pending)
        .max(1)
    }
}

/// Outcome of [`QSystem::query_batch`]: one [`QueryOutcome`] (or error) per
/// request, in request order, plus batch-level cache accounting.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, in the order the requests were given. A request
    /// that fails validation gets its error here without affecting the rest
    /// of the batch.
    pub outcomes: Vec<Result<QueryOutcome, QError>>,
    /// Requests served without a fresh computation: cache hits as the batch
    /// started, plus duplicates of an earlier in-batch request (answered
    /// once, shared).
    pub cache_hits: usize,
    /// Distinct computations the batch performed.
    pub cache_misses: usize,
    /// Worker threads actually used.
    pub workers: usize,
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
    cache: QueryCache,
    /// Steiner scratch reused across sequential cache misses (batch workers
    /// carry their own, one per thread) — the generation-stamped buffers
    /// make starting the next search O(1), so they must not be rebuilt per
    /// query.
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
            cache: QueryCache::default(),
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

    /// The pre-built value index.
    pub fn value_index(&self) -> &ValueIndex {
        &self.value_index
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

    /// Recompute one view's definition and contents against the current
    /// search graph and weights.
    pub fn refresh_view(&mut self, id: ViewId) -> Result<(), QError> {
        let keywords: Vec<String> = self
            .views
            .get(id)
            .ok_or(QError::UnknownView(id))?
            .keywords
            .clone();
        let keyword_refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        let view = self.compute_view_reusing_scratch(&keyword_refs)?;
        self.views[id] = view;
        Ok(())
    }

    /// Refresh every view; returns the refreshed ids.
    pub fn refresh_all_views(&mut self) -> Vec<ViewId> {
        let ids: Vec<ViewId> = (0..self.views.len()).collect();
        for id in &ids {
            // Keywords always re-resolve, so refresh cannot fail here.
            let _ = self.refresh_view(*id);
        }
        ids
    }

    /// Compute a view through the shared scratch — the feedback loop
    /// refreshes every persistent view per interaction, which must not
    /// rebuild the search buffers per view.
    fn compute_view_reusing_scratch(&mut self, keywords: &[&str]) -> Result<RankedView, QError> {
        let params = ServeParams::defaults(&self.config);
        self.answer_reusing_scratch(keywords, params, false)
            .map(|(view, _, _)| view)
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

    /// One miss through the system's own scratch. [`QSystem::serving`]
    /// borrows all of `self`, so the scratch steps out for the call.
    fn answer_reusing_scratch(
        &mut self,
        keywords: &[&str],
        params: ServeParams,
        build_model: bool,
    ) -> Result<Answered, QError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let answered = self
            .serving()
            .answer_keywords(keywords, params, build_model, &mut scratch);
        self.scratch = scratch;
        answered
    }

    // ------------------------------------------------------------------
    // Typed query serving
    // ------------------------------------------------------------------

    /// Answer one typed [`QueryRequest`].
    ///
    /// The request's [`CachePolicy`] decides how the weight-epoch-keyed
    /// answer cache participates: `Cached` serves repeats under unchanged
    /// weights from the cache (any re-pricing or topology change bumps the
    /// graph's epoch and forces a recomputation), `Bypass` recomputes
    /// without touching the cache, `Refresh` recomputes and overwrites the
    /// cached entry. Per-request `top_k` / [`SearchStrategy`] / cost-budget
    /// overrides are threaded down into the Steiner search — and into the
    /// cache key, so differently-parameterised requests never share an
    /// entry. Unlike [`QSystem::create_view`] this registers no persistent
    /// view.
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryOutcome, QError> {
        request.validate()?;
        let epoch = self.graph.weight_epoch();
        let params = ServeParams::resolve(&self.config, request);
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        // Bypass requests never touch the cache, so they skip key
        // construction entirely — this is the hot sequential baseline.
        let key = (request.cache() != CachePolicy::Bypass).then(|| {
            self.cache.sync(epoch, &Publish::Epoch(&self.graph));
            QueryKey {
                keywords: normalize_keywords(&refs),
                params: request.params_key(),
            }
        });
        if request.cache() == CachePolicy::Cached {
            let key = key.as_ref().expect("cached policy builds a key");
            if let Some(hit) = self.cache.get(key) {
                return Ok(QueryOutcome {
                    view: hit.view,
                    cache: if hit.revalidated {
                        CacheStatus::Revalidated
                    } else {
                        CacheStatus::Hit
                    },
                    weight_epoch: epoch,
                    steiner: None,
                    wall_time: Duration::ZERO,
                    snapshot: None,
                });
            }
        }

        let start = Instant::now();
        let (view, stats, model) =
            self.answer_reusing_scratch(&refs, params, request.cache() != CachePolicy::Bypass)?;
        let wall_time = start.elapsed();
        let view = Arc::new(view);
        let cache = match request.cache() {
            CachePolicy::Bypass => CacheStatus::Bypassed,
            policy => {
                self.cache.insert(
                    key.expect("non-bypass policy builds a key"),
                    Arc::clone(&view),
                    model.expect("non-bypass policy builds a model"),
                    epoch,
                    false,
                );
                if policy == CachePolicy::Refresh {
                    CacheStatus::Refreshed
                } else {
                    CacheStatus::Miss
                }
            }
        };
        Ok(QueryOutcome {
            view,
            cache,
            weight_epoch: epoch,
            steiner: Some(stats),
            wall_time,
            snapshot: None,
        })
    }

    /// Answer a workload of typed requests, filling the required
    /// computations across `std::thread::scope` workers.
    ///
    /// Outcomes come back in request order and are byte-identical to
    /// answering each request sequentially through [`QSystem::query`],
    /// regardless of worker count: each distinct `(keywords, overrides)`
    /// combination is computed exactly once by a pure function of the
    /// (immutable during the batch) graph, and written to its own slot.
    /// Requests that fail validation receive their error in their slot
    /// without affecting the rest of the batch.
    pub fn query_batch(
        &mut self,
        requests: &[QueryRequest],
        options: &BatchOptions,
    ) -> BatchOutcome {
        let epoch = self.graph.weight_epoch();
        self.cache.sync(epoch, &Publish::Epoch(&self.graph));

        // Resolve each request against the cache; collect the distinct
        // computations (first occurrence wins, duplicates share it).
        let mut outcomes: Vec<Option<Result<QueryOutcome, QError>>> = vec![None; requests.len()];
        let mut miss_of: Vec<Option<usize>> = vec![None; requests.len()];
        let mut first_miss: HashMap<QueryKey, usize> = HashMap::new();
        // Per distinct computation: requester index, key, params, whether
        // any requester wants the result cached.
        let mut miss_requester: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<QueryKey> = Vec::new();
        let mut miss_params: Vec<ServeParams> = Vec::new();
        let mut miss_cache_it: Vec<bool> = Vec::new();
        let mut cache_hits = 0usize;
        for (i, request) in requests.iter().enumerate() {
            if let Err(e) = request.validate() {
                outcomes[i] = Some(Err(e));
                continue;
            }
            let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
            let key = QueryKey {
                keywords: normalize_keywords(&refs),
                params: request.params_key(),
            };
            if let Some(&first) = first_miss.get(&key) {
                // Duplicate of an earlier in-batch computation: answered
                // once, and the cache's own counters see only the first
                // occurrence.
                miss_of[i] = Some(first);
                miss_cache_it[first] |= request.cache() != CachePolicy::Bypass;
                cache_hits += 1;
                continue;
            }
            if request.cache() == CachePolicy::Cached {
                if let Some(hit) = self.cache.get(&key) {
                    outcomes[i] = Some(Ok(QueryOutcome {
                        view: hit.view,
                        cache: if hit.revalidated {
                            CacheStatus::Revalidated
                        } else {
                            CacheStatus::Hit
                        },
                        weight_epoch: epoch,
                        steiner: None,
                        wall_time: Duration::ZERO,
                        snapshot: None,
                    }));
                    cache_hits += 1;
                    continue;
                }
            }
            first_miss.insert(key.clone(), miss_requester.len());
            miss_of[i] = Some(miss_requester.len());
            miss_requester.push(i);
            miss_keys.push(key);
            miss_params.push(ServeParams::resolve(&self.config, request));
            miss_cache_it.push(request.cache() != CachePolicy::Bypass);
        }

        let workers = options.effective_workers(miss_requester.len());

        // Fan the computations out over scoped workers on a strided
        // schedule; each worker reuses one Steiner scratch across its
        // queries and returns `(miss index, result)` pairs, so no slot is
        // written twice and the merged outcome is independent of scheduling.
        // A fully-warm batch skips the scope entirely.
        let serving = self.serving();
        let mut computed: Vec<Option<(Result<Answered, QError>, Duration)>> =
            vec![None; miss_requester.len()];
        if !miss_requester.is_empty() {
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let miss_requester = &miss_requester;
                    let miss_params = &miss_params;
                    let miss_cache_it = &miss_cache_it;
                    let requests = &requests;
                    handles.push(s.spawn(move || {
                        let mut scratch = SteinerScratch::default();
                        let mut out = Vec::new();
                        let mut i = w;
                        while i < miss_requester.len() {
                            let request = &requests[miss_requester[i]];
                            let refs: Vec<&str> =
                                request.keywords().iter().map(String::as_str).collect();
                            let start = Instant::now();
                            let result = serving.answer_keywords(
                                &refs,
                                miss_params[i],
                                miss_cache_it[i],
                                &mut scratch,
                            );
                            out.push((i, (result, start.elapsed())));
                            i += workers;
                        }
                        out
                    }));
                }
                for handle in handles {
                    for (i, result) in handle.join().expect("batch worker panicked") {
                        computed[i] = Some(result);
                    }
                }
            });
        }

        // Cache the fresh views and resolve every slot in request order.
        type Shared = (
            Result<(Arc<RankedView>, SteinerStats, Option<RevalidationModel>), QError>,
            Duration,
        );
        let computed: Vec<Shared> = computed
            .into_iter()
            .map(|slot| {
                let (result, elapsed) = slot.expect("every miss computed");
                (
                    result.map(|(view, stats, model)| (Arc::new(view), stats, model)),
                    elapsed,
                )
            })
            .collect();
        for (m, (result, _)) in computed.iter().enumerate() {
            // A model exists exactly when some requester wants the result
            // cached (`miss_cache_it` was passed as `build_model`).
            if let (Ok((view, _, Some(model))), true) = (result, miss_cache_it[m]) {
                self.cache.insert(
                    miss_keys[m].clone(),
                    Arc::clone(view),
                    model.clone(),
                    epoch,
                    false,
                );
            }
        }
        let outcomes = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(r) => r,
                None => {
                    let m = miss_of[i].expect("slot is hit, error or miss");
                    let (result, elapsed) = &computed[m];
                    result.clone().map(|(view, stats, _)| {
                        if miss_requester[m] == i {
                            // The requester that triggered the computation.
                            let cache = match requests[i].cache() {
                                CachePolicy::Cached => CacheStatus::Miss,
                                CachePolicy::Refresh => CacheStatus::Refreshed,
                                CachePolicy::Bypass => CacheStatus::Bypassed,
                            };
                            QueryOutcome {
                                view,
                                cache,
                                weight_epoch: epoch,
                                steiner: Some(stats),
                                wall_time: *elapsed,
                                snapshot: None,
                            }
                        } else {
                            // In-batch duplicate: shares the computation.
                            QueryOutcome {
                                view,
                                cache: CacheStatus::Hit,
                                weight_epoch: epoch,
                                steiner: None,
                                wall_time: Duration::ZERO,
                                snapshot: None,
                            }
                        }
                    })
                }
            })
            .collect();
        BatchOutcome {
            outcomes,
            cache_hits,
            cache_misses: miss_requester.len(),
            workers,
        }
    }

    /// Answer one typed [`QueryRequest`] through a *shared* reference: the
    /// `&self` serving path for callers that hold the system behind a read
    /// lock. Because the answer cache needs `&mut self`, the
    /// request's policy must be [`CachePolicy::Bypass`] — anything else is
    /// rejected as [`QError::InvalidRequest`] rather than silently served
    /// uncached. Answers are byte-identical to [`QSystem::query`] with the
    /// same request.
    pub fn query_shared(&self, request: &QueryRequest) -> Result<QueryOutcome, QError> {
        request.validate()?;
        if request.cache() != CachePolicy::Bypass {
            return Err(QError::InvalidRequest {
                field: "cache",
                reason: "query_shared serves through `&self` and cannot touch the answer \
                         cache — use `CachePolicy::Bypass` (or `QSystem::query`)"
                    .into(),
            });
        }
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        let start = Instant::now();
        let (view, stats, _) = self.serving().answer_keywords(
            &refs,
            ServeParams::resolve(&self.config, request),
            false,
            &mut SteinerScratch::default(),
        )?;
        Ok(QueryOutcome {
            view: Arc::new(view),
            cache: CacheStatus::Bypassed,
            weight_epoch: self.graph.weight_epoch(),
            steiner: Some(stats),
            wall_time: start.elapsed(),
            snapshot: None,
        })
    }

    /// The answer cache and its statistics.
    pub fn query_cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Replace the answer cache with an empty one holding `capacity` views
    /// (clamped to at least 1). Cached entries and counters are dropped;
    /// subsequent queries repopulate under the current weight epoch.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = QueryCache::with_capacity(capacity);
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

    /// Apply one typed [`FeedbackRequest`]: resolve its target to a
    /// persistent view (a [`FeedbackTarget::Keywords`] target reuses the
    /// existing view with those keywords, creating one when none exists),
    /// run the MIRA update, and refresh every view.
    pub fn apply_feedback(&mut self, request: &FeedbackRequest) -> Result<FeedbackOutcome, QError> {
        let view_id = match request.target() {
            FeedbackTarget::View(id) => *id,
            FeedbackTarget::Keywords(keywords) => {
                match self.views.iter().position(|v| &v.keywords == keywords) {
                    Some(id) => id,
                    None => {
                        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
                        self.create_view(&refs)?
                    }
                }
            }
        };
        let view = self
            .views
            .get(view_id)
            .ok_or(QError::UnknownView(view_id))?;
        let outcome = learn_feedback(
            &mut self.graph,
            &self.keyword_index,
            &self.config,
            &mut self.mira,
            view,
            view_id,
            request.feedback(),
        )?;
        self.refresh_all_views();
        Ok(outcome)
    }

    /// Apply one piece of user feedback to a view: generalise the annotated
    /// answer to its originating query tree, build margin constraints against
    /// the current K-best trees, update the weights with MIRA, keep edge
    /// costs positive, and refresh every view.
    ///
    /// Thin wrapper over [`QSystem::apply_feedback`] with a
    /// [`FeedbackTarget::View`] target.
    pub fn feedback(
        &mut self,
        view_id: ViewId,
        feedback: Feedback,
    ) -> Result<FeedbackOutcome, QError> {
        self.apply_feedback(&FeedbackRequest::on_view(view_id, feedback))
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
/// path, which has no persistent views, passes the id its caller targeted.
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
/// overrides with the system [`QConfig`]. Copyable so batch workers can
/// carry one per pending computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServeParams {
    top_k: usize,
    strategy: SearchStrategy,
    max_cost: f64,
}

impl ServeParams {
    /// The config-default parameters (what the deprecated slice-taking
    /// methods and the persistent-view path serve with).
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
    /// Answer one keyword query: match the keywords, build the query graph,
    /// run the requested Steiner search (into the caller's scratch buffers),
    /// translate trees to conjunctive queries and materialise the ranked
    /// view. Pure in its inputs — the batch path calls this from worker
    /// threads holding only shared references.
    ///
    /// When `build_model` is set (the answer is destined for the cache), it
    /// also returns the [`RevalidationModel`] the cache needs to re-price the
    /// answer on a later weight-epoch delta: per-tree cost terms (base edges
    /// by id — the graph stays authoritative for their features — and copies
    /// of the query-local edge features, which die with the query graph),
    /// the effective cost budget, and whether the strategy is revalidatable
    /// at all.
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
            .feedback(view_id, Feedback::Correct { answer: 0 })
            .unwrap();
        assert!(outcome.constraints > 0);
        let view = q.view(view_id).unwrap();
        assert!(!view.queries.is_empty());
        // All edge costs remain positive after learning.
        assert!(q.graph().min_learnable_edge_cost().unwrap() > 0.0);
    }

    #[test]
    fn feedback_on_missing_answer_errors() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.9);
        let view_id = q.create_view(&["plasma membrane", "entry"]).unwrap();
        let err = q
            .feedback(view_id, Feedback::Correct { answer: 10_000 })
            .unwrap_err();
        assert!(matches!(err, QError::UnknownAnswer { .. }));
        assert!(matches!(
            q.feedback(99, Feedback::Correct { answer: 0 }).unwrap_err(),
            QError::UnknownView(99)
        ));
    }

    #[test]
    fn cached_query_hits_on_normalized_repeats() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);

        let o1 = q
            .query(&QueryRequest::new(["plasma membrane", "entry"]))
            .unwrap();
        assert!(!o1.view.answers.is_empty());
        assert_eq!(o1.cache, CacheStatus::Miss);
        assert!(o1.steiner.is_some(), "a miss reports search stats");
        // Case / whitespace variants normalise to the same key: served from
        // the cache, same allocation.
        let o2 = q
            .query(&QueryRequest::new(["  Plasma Membrane ", "ENTRY"]))
            .unwrap();
        assert!(Arc::ptr_eq(&o1.view, &o2.view));
        assert_eq!(o2.cache, CacheStatus::Hit);
        assert!(o2.steiner.is_none(), "a hit ran no search");
        assert_eq!(o1.weight_epoch, o2.weight_epoch);
        assert_eq!(q.query_cache().hits(), 1);
        assert_eq!(q.query_cache().misses(), 1);
        // A different query is its own entry.
        let o3 = q.query(&QueryRequest::new(["kinase activity"])).unwrap();
        assert!(!Arc::ptr_eq(&o1.view, &o3.view));
        assert_eq!(q.query_cache().len(), 2);
        // A blank extra keyword adds an unreachable Steiner terminal and
        // empties the view — it must be a distinct cache entry, not a hit
        // on the two-keyword query.
        let o4 = q
            .query(&QueryRequest::new(["plasma membrane", "entry", "  "]))
            .unwrap();
        assert!(!Arc::ptr_eq(&o1.view, &o4.view));
        assert!(o4.view.answers.is_empty());
        assert_eq!(q.query_cache().len(), 3);
    }

    #[test]
    fn cache_policies_bypass_and_refresh_behave_as_documented() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);
        let keywords = ["plasma membrane", "entry"];

        // Bypass never touches the cache.
        let bypass = q
            .query(&QueryRequest::new(keywords).cache_policy(CachePolicy::Bypass))
            .unwrap();
        assert_eq!(bypass.cache, CacheStatus::Bypassed);
        assert!(q.query_cache().is_empty());
        assert_eq!(q.query_cache().misses(), 0);

        // A cached miss populates; a refresh recomputes and replaces the
        // entry (fresh allocation, same bytes under an unchanged epoch).
        let miss = q.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(miss.cache, CacheStatus::Miss);
        let refreshed = q
            .query(&QueryRequest::new(keywords).cache_policy(CachePolicy::Refresh))
            .unwrap();
        assert_eq!(refreshed.cache, CacheStatus::Refreshed);
        assert!(!Arc::ptr_eq(&miss.view, &refreshed.view));
        assert_eq!(&*miss.view, &*refreshed.view);
        // The refreshed allocation is what the cache now serves.
        let hit = q.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&refreshed.view, &hit.view));
    }

    #[test]
    fn per_request_overrides_change_answers_without_rebuilding() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        let entry_name = q.catalog().resolve_qualified("entry.name").unwrap();
        let term_name = q.catalog().resolve_qualified("go_term.name").unwrap();
        q.add_manual_association(acc, go_id, 0.9);
        q.graph_mut()
            .add_association(term_name, entry_name, "metadata", 0.9);
        let keywords = ["plasma membrane", "entry"];

        let default = q.query(&QueryRequest::new(keywords)).unwrap();
        assert!(default.view.queries.len() >= 2, "need alternative trees");

        // top_k = 1 keeps only the best tree — on the same system instance.
        let top1 = q.query(&QueryRequest::new(keywords).top_k(1)).unwrap();
        assert_eq!(top1.view.queries.len(), 1);
        assert_eq!(top1.view.queries[0], default.view.queries[0]);

        // The exact strategy also ranks exactly one (provably cheapest) tree.
        let exact = q
            .query(&QueryRequest::new(keywords).strategy(SearchStrategy::Exact))
            .unwrap();
        assert_eq!(exact.view.queries.len(), 1);
        assert!(exact.view.queries[0].cost <= default.view.queries[0].cost + 1e-9);

        // A budget below the second tree's cost prunes the tail.
        let cutoff = default.view.queries[0].cost + 1e-6;
        let budgeted = q
            .query(&QueryRequest::new(keywords).cost_budget(cutoff))
            .unwrap();
        assert_eq!(budgeted.view.queries.len(), 1);
        assert!(budgeted.steiner.unwrap().trees_over_budget >= 1);

        // Differently-parameterised requests never share cache entries: the
        // default request still hits its own (unchanged) entry.
        let again = q.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(again.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&default.view, &again.view));

        // An exact-strategy tree dropped by the budget reads as "over
        // budget", not as "terminals unconnected".
        let starved = q
            .query(
                &QueryRequest::new(keywords)
                    .strategy(SearchStrategy::Exact)
                    .cost_budget(exact.view.queries[0].cost / 2.0),
            )
            .unwrap();
        assert!(starved.view.queries.is_empty());
        let stats = starved.steiner.unwrap();
        assert_eq!(stats.candidates_generated, 1);
        assert_eq!(stats.trees_over_budget, 1);
        assert_eq!(stats.trees_returned, 0);
    }

    #[test]
    fn invalid_requests_are_rejected_not_served() {
        let mut q = system();
        let err = q
            .query(&QueryRequest::new(["plasma membrane"]).top_k(0))
            .unwrap_err();
        assert!(matches!(err, QError::InvalidRequest { field: "top_k", .. }));
        let err = q
            .query(&QueryRequest::new(["plasma membrane"]).cost_budget(-1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            QError::InvalidRequest {
                field: "cost_budget",
                ..
            }
        ));
        // Nothing was cached or counted.
        assert!(q.query_cache().is_empty());
        assert_eq!(q.query_cache().misses(), 0);
    }

    #[test]
    fn feedback_repricing_invalidates_the_cache_and_recomputes_costs() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        let entry_name = q.catalog().resolve_qualified("entry.name").unwrap();
        let term_name = q.catalog().resolve_qualified("go_term.name").unwrap();
        q.add_manual_association(acc, go_id, 0.9);
        q.graph_mut()
            .add_association(term_name, entry_name, "metadata", 0.9);

        let keywords = ["plasma membrane", "entry"];
        let before = q.query(&QueryRequest::new(keywords)).unwrap();
        assert!(before.view.queries.len() >= 2, "need alternative trees");

        // MIRA re-prices association edges through a persistent view.
        let view_id = q.create_view(&keywords).unwrap();
        q.feedback(view_id, Feedback::Correct { answer: 0 })
            .unwrap();

        // The repeat must miss (epoch moved) and reflect the new costs: the
        // recomputed view equals the freshly computed persistent view, not
        // the stale cached one.
        let after = q.query(&QueryRequest::new(keywords)).unwrap();
        assert!(!Arc::ptr_eq(&before.view, &after.view), "stale cache hit");
        assert_eq!(after.cache, CacheStatus::Miss);
        assert!(
            after.weight_epoch > before.weight_epoch,
            "feedback must bump the weight epoch"
        );
        assert!(q.query_cache().invalidations() > 0);
        let fresh = q.view(view_id).unwrap();
        assert_eq!(&*after.view, fresh);
        let costs_before: Vec<f64> = before.view.queries.iter().map(|rq| rq.cost).collect();
        let costs_after: Vec<f64> = after.view.queries.iter().map(|rq| rq.cost).collect();
        assert_ne!(costs_before, costs_after, "feedback did not re-price");
    }

    #[test]
    fn batch_matches_sequential_and_counts_hits() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);

        let requests: Vec<QueryRequest> = [
            vec!["plasma membrane", "entry"],
            vec!["kinase activity"],
            vec!["plasma membrane", "entry"], // in-batch duplicate
            vec!["qqzzvv"],                   // matches nothing
        ]
        .iter()
        .map(|kws| QueryRequest::new(kws.iter().copied()))
        .collect();

        // Sequential reference on an identically prepared system.
        let mut q_seq = system();
        q_seq.add_manual_association(acc, go_id, 0.95);
        let sequential: Vec<Arc<RankedView>> = requests
            .iter()
            .map(|r| q_seq.query(r).unwrap().view)
            .collect();

        let batch = q.query_batch(&requests, &BatchOptions { workers: 3 });
        assert_eq!(batch.outcomes.len(), requests.len());
        assert_eq!(batch.cache_misses, 3, "three distinct queries");
        assert_eq!(batch.cache_hits, 1, "the in-batch duplicate");
        for (outcome, seq) in batch.outcomes.iter().zip(&sequential) {
            assert_eq!(&*outcome.as_ref().unwrap().view, &**seq);
        }
        // Duplicate slots share one computation; provenance says which one
        // triggered it.
        let first = batch.outcomes[0].as_ref().unwrap();
        let duplicate = batch.outcomes[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(&first.view, &duplicate.view));
        assert_eq!(first.cache, CacheStatus::Miss);
        assert_eq!(duplicate.cache, CacheStatus::Hit);
        assert!(first.steiner.is_some());
        assert!(duplicate.steiner.is_none());

        // A second batch under unchanged weights is all hits.
        let warm = q.query_batch(&requests, &BatchOptions::default());
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, requests.len());
        for (w, c) in warm.outcomes.iter().zip(&batch.outcomes) {
            let (w, c) = (w.as_ref().unwrap(), c.as_ref().unwrap());
            assert!(Arc::ptr_eq(&w.view, &c.view));
            assert_eq!(w.cache, CacheStatus::Hit);
        }
    }

    #[test]
    fn batch_isolates_invalid_requests_and_mixes_policies() {
        let mut q = system();
        let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = q.catalog().resolve_qualified("interpro2go.go_id").unwrap();
        q.add_manual_association(acc, go_id, 0.95);

        let requests = vec![
            QueryRequest::new(["plasma membrane", "entry"]),
            QueryRequest::new(["kinase activity"]).top_k(0), // invalid
            QueryRequest::new(["kinase activity"]).cache_policy(CachePolicy::Bypass),
        ];
        let batch = q.query_batch(&requests, &BatchOptions { workers: 2 });
        assert!(batch.outcomes[0].is_ok());
        assert!(matches!(
            batch.outcomes[1],
            Err(QError::InvalidRequest { field: "top_k", .. })
        ));
        let bypass = batch.outcomes[2].as_ref().unwrap();
        assert_eq!(bypass.cache, CacheStatus::Bypassed);
        // The error slot counted as neither hit nor miss; the bypass request
        // computed but did not populate the cache.
        assert_eq!(batch.cache_misses, 2);
        assert_eq!(batch.cache_hits, 0);
        assert_eq!(q.query_cache().len(), 1, "only the cached request stored");
    }

    #[test]
    fn effective_workers_resolves_and_clamps() {
        // Explicit counts are capped by pending work and floored at 1.
        assert_eq!(BatchOptions { workers: 8 }.effective_workers(3), 3);
        assert_eq!(BatchOptions { workers: 2 }.effective_workers(10), 2);
        assert_eq!(BatchOptions { workers: 5 }.effective_workers(0), 1);
        // `0` = auto-detect; whatever the machine reports, the result is
        // at least 1 and never exceeds the pending count.
        let auto = BatchOptions::default().effective_workers(2);
        assert!((1..=2).contains(&auto));
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

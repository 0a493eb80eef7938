//! Live-ingestion serving: snapshot-isolated concurrent reads while new
//! sources are incorporated end-to-end.
//!
//! The paper's headline capability is *automatically incorporating new
//! sources* into a running keyword-search integration system. This module
//! is the one engine for reads and writes alike — cached, concurrent, and
//! never stopped by a topology change:
//!
//! * **[`GraphSnapshot`]** — one immutable serving state: catalog +
//!   search graph (packed CSR) + keyword index, stamped with a snapshot id
//!   (the graph's weight epoch at publish). The catalog and the index are
//!   held by `Arc`, and so is each of the catalog's relations: a publish
//!   shares with its base snapshot every part it does not change. Readers
//!   answer queries against a snapshot without any lock; answers are a
//!   pure function of `(snapshot, request)`.
//! * **[`LiveServer`]** — holds the current snapshot behind an
//!   `RwLock<Arc<GraphSnapshot>>` (the lock is held only long enough to
//!   clone the `Arc`), a shared answer cache behind a `Mutex`, and a writer
//!   lane behind its own `Mutex`. [`LiveServer::query`] serves from the
//!   current snapshot through `&self`; [`LiveServer::ingest_source`]
//!   incorporates a source end-to-end — incremental catalog registration
//!   ([`SourceSpec::load_incremental`]), delta-grown CSR
//!   ([`q_graph::CsrDelta`] inside the graph's topology epilogue),
//!   keyword-index append, matcher scoring of only the new columns
//!   ([`SchemaMatcher::match_source`]) — and publishes the next snapshot
//!   atomically. Readers in flight keep their snapshot; new readers see the
//!   new one. [`LiveServer::ingest_source_with`] runs the same ingest with
//!   another alignment strategy (e.g. [`view_based_alignments`]), and
//!   [`LiveServer::feedback`] / [`LiveServer::publish_association`] publish
//!   re-priced or newly associated graphs the same way.
//!
//! # Epoch/publish protocol and the cache verdict
//!
//! Every publish (ingest, association, feedback) runs one epilogue, which
//! syncs the shared cache *before* swapping the current snapshot pointer:
//!
//! 1. The writer builds the next snapshot off to the side (readers are
//!    untouched).
//! 2. It gives every cache entry one verdict on what changed, a
//!    [`Publish`], in [`QueryCache::sync`], which holds the cache lock only
//!    at the two ends: it raises the cache epoch to the new id and copies
//!    out the entries, computes the verdicts with the lock released (hits
//!    keep serving the bytes stamped on each entry), and applies them. A
//!    re-pricing keeps the entries whose costs are bit-identical under the
//!    new prices. A growth publish carries an [`IngestionDelta`] — the new
//!    relations and the *bridge seeds*, every new edge incident to the
//!    pre-existing graph with its cost — and an entry is **kept** when the
//!    cheapest bridge-crossing path into its keywords' match nodes
//!    ([`q_graph::DeltaPricer`], the writer lane's, run only when the
//!    first entry needs a price) is strictly above its displacement
//!    threshold, **dropped** when it carries no re-validation model, and
//!    **parked** otherwise. A kept entry keeps its stamp: it serves the
//!    bytes of the snapshot that priced it.
//! 3. It swaps the snapshot pointer and deposits the parked entries with
//!    the background [`RevalidationLane`](crate::revalidate), which settles
//!    each one by fresh recompute — re-admitting identical bytes under
//!    their original snapshot, changed bytes under the new one — so the
//!    next hit serves a provably-fresh entry or misses normally, never a
//!    cold start caused purely by the bound's conservatism.
//!
//! A reader that computed an answer against snapshot `N` concurrently with
//! the publish cannot pollute the cache: from the epoch bump on, inserts
//! are guarded by the cache's epoch (now `N+1`), so stale computations are
//! served to their requester and discarded, and the entries judged are
//! exactly the entries the verdicts are applied to. Every served answer is
//! therefore byte-identical to the sequential answer of *some published
//! snapshot*, and [`QueryOutcome::snapshot`] says which — the `live_ingest`
//! stress test replays exactly this claim against the publish log.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use q_align::{
    AlignerConfig, AlignmentOutcome, AlignmentStats, ExhaustiveAligner, ViewBasedAligner,
};
use q_graph::keyword::MatchConfig;
use q_graph::{
    approx_top_k, approx_top_k_detailed_fanned, exact_minimum_steiner, DeltaPricer, KeywordIndex,
    KeywordMatch, NodeId, QueryGraph, SearchGraph, ShardSet, SteinerConfig, SteinerScratch,
    SteinerStats,
};
use q_learn::{constraints_from_candidates, enforce_positive_costs, Mira};
use q_matchers::{AttributeAlignment, SchemaMatcher};
use q_storage::{AttributeId, Catalog, RelationId, SourceId, SourceSpec, ValueIndex};

use crate::answer::{RankedQuery, RankedView};
use crate::cache::{
    normalize_keywords, CostTerm, IngestionDelta, Publish, QueryCache, QueryKey, RevalidationModel,
    TreeCostModel, DEFAULT_CACHE_CAPACITY,
};
use crate::config::QConfig;
use crate::error::QError;
use crate::feedback::{Feedback, FeedbackOutcome, FeedbackRequest};
use crate::request::{CachePolicy, CacheStatus, QueryOutcome, QueryRequest, SearchStrategy};
use crate::revalidate::{RevalidationLane, RevalidationStats};
use crate::snapstore::{PersistStats, SnapshotPersister};
use crate::translate::{materialize_view, tree_to_query};

/// One immutable published serving state: everything a reader needs to
/// answer a query, frozen at publish time. Cheap to share (`Arc`) and safe
/// to read from any number of threads. The catalog and the keyword index
/// are shared by refcount with every snapshot published from this one that
/// leaves them unchanged.
#[derive(Debug)]
pub struct GraphSnapshot {
    id: u64,
    catalog: Arc<Catalog>,
    graph: SearchGraph,
    keyword_index: Arc<KeywordIndex>,
    /// [`q_snap::accounted_bytes`] of the graph and index, computed once
    /// when the snapshot is built or loaded.
    snapshot_bytes: u64,
}

impl GraphSnapshot {
    fn build(catalog: Arc<Catalog>, graph: SearchGraph, keyword_index: Arc<KeywordIndex>) -> Self {
        GraphSnapshot {
            id: graph.weight_epoch(),
            snapshot_bytes: q_snap::accounted_bytes(&graph, &keyword_index),
            catalog,
            graph,
            keyword_index,
        }
    }

    /// Build a snapshot directly from a prepared catalog and search graph:
    /// the keyword index is derived here, the id is stamped from the
    /// graph's weight epoch. This is the entry point for harnesses that
    /// assemble serving state out-of-band (e.g. `qbench`'s generated
    /// corpus) and then [`save`](Self::save) it or serve it via
    /// [`LiveServer::from_snapshot`]. The shard count is ignored: kept for
    /// `benchmark/`; removed in ROADMAP 1(b).
    pub fn assemble(catalog: Catalog, graph: SearchGraph, _shards: usize) -> GraphSnapshot {
        let keyword_index = KeywordIndex::build(&catalog);
        GraphSnapshot::build(Arc::new(catalog), graph, Arc::new(keyword_index))
    }

    /// Snapshot id: the graph's weight epoch at publish time. Strictly
    /// increasing across publishes of one [`LiveServer`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Persist this snapshot to `path` in the versioned on-disk format
    /// (atomic: temp sibling + fsync + rename). The returned
    /// [`q_snap::SnapshotInfo`] reports per-section payload sizes.
    pub fn save(&self, path: &std::path::Path) -> Result<q_snap::SnapshotInfo, q_snap::SnapError> {
        q_snap::write_snapshot(
            path,
            &q_snap::SnapshotComponents {
                id: self.id,
                catalog: &self.catalog,
                graph: &self.graph,
                keyword: &self.keyword_index,
            },
        )
    }

    /// Load a previously persisted snapshot, reconstructing the full
    /// serving state — catalog, search graph with packed CSR, keyword
    /// index — without re-running matching or finalization. Every
    /// validation layer of the format (magic, version, checksums, decode
    /// invariants, cross-section consistency) runs before anything is
    /// assembled; any failure is a typed [`q_snap::SnapError`] and no
    /// partially-loaded snapshot escapes.
    pub fn load(
        path: &std::path::Path,
    ) -> Result<(GraphSnapshot, q_snap::SnapshotInfo), q_snap::SnapError> {
        let (parts, info) = q_snap::read_snapshot(path)?;
        // The id doubles as the cache epoch, and publishing stamps it from
        // the weight epoch — a file where they disagree was not produced by
        // `save`.
        if parts.id != parts.graph.weight_epoch() {
            return Err(q_snap::SnapError::Corrupt {
                context: "snapshot id disagrees with the graph's weight epoch",
            });
        }
        Ok((
            GraphSnapshot {
                id: parts.id,
                catalog: Arc::new(parts.catalog),
                graph: parts.graph,
                keyword_index: Arc::new(parts.keyword),
                snapshot_bytes: parts.accounted_bytes,
            },
            info,
        ))
    }

    /// The catalog frozen into this snapshot.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The search graph frozen into this snapshot.
    pub fn graph(&self) -> &SearchGraph {
        &self.graph
    }

    /// The keyword index frozen into this snapshot.
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword_index
    }

    /// Kept for `benchmark/`; removed in ROADMAP 1(b).
    pub fn shard_set(&self) -> &ShardSet {
        &ShardSet
    }

    /// Accounted heap bytes of the snapshot's packed search structures
    /// ([`q_snap::accounted_bytes`]: the global CSR plus the keyword
    /// postings estimate), computed when the snapshot was built or loaded.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// The sequential reference answer of this snapshot for a request: a
    /// pure function of `(snapshot, request)`, computed fresh with no cache
    /// involvement. Concurrent serving is pinned against exactly this — the
    /// stress harness replays every observed outcome through it.
    pub fn answer(&self, config: &QConfig, request: &QueryRequest) -> Result<RankedView, QError> {
        self.serving(config).answer(request)
    }

    /// This snapshot as the state a query is answered against.
    pub(crate) fn serving<'a>(&'a self, config: &'a QConfig) -> ServingState<'a> {
        ServingState {
            catalog: &self.catalog,
            graph: &self.graph,
            keyword_index: &self.keyword_index,
            config,
        }
    }

    /// Recompute the answer a cache key describes against this snapshot,
    /// together with the re-validation model a re-admitted entry needs —
    /// the [`RevalidationLane`](crate::revalidate)'s ground-truth recompute.
    /// Cache keys hold normalized keywords, and normalization never changes
    /// the answer (that is what makes cache sharing across equivalent
    /// requests sound in the first place), so these are the bytes the
    /// original request would be served fresh.
    pub(crate) fn recompute_for_key(
        &self,
        config: &QConfig,
        key: &QueryKey,
        scratch: &mut SteinerScratch,
    ) -> Result<(RankedView, RevalidationModel), QError> {
        let refs: Vec<&str> = key.keywords.iter().map(String::as_str).collect();
        let (view, _, model) = self.serving(config).answer_keywords(
            &refs,
            ServeParams::resolve_key(config, &key.params),
            true,
            scratch,
        )?;
        Ok((view, model.expect("build_model always yields a model")))
    }
}

/// Report of one [`LiveServer::ingest_source`] publish.
#[derive(Debug)]
pub struct IngestReport {
    /// Id assigned to the new source.
    pub source: SourceId,
    /// The snapshot this ingestion published (readers switch to it).
    pub snapshot: Arc<GraphSnapshot>,
    /// Alignments the matchers proposed for the new columns, in the order
    /// their association edges were added.
    pub alignments: Vec<AttributeAlignment>,
    /// Cheapest new edge bridging the new source into the pre-existing
    /// graph ([`f64::INFINITY`] when unbridged) — the cheapest seed the
    /// per-entry reachability pricing started from.
    pub bridge_floor: f64,
    /// Cached entries the pricing proved safe at publish time.
    pub cache_kept: u64,
    /// Cached entries handed to the background re-validation lane (they
    /// miss until the lane re-admits them).
    pub cache_parked: u64,
    /// Cached entries dropped outright by the publish.
    pub cache_dropped: u64,
    /// Distinct keywords the cache verdict priced against the new graph.
    pub keywords_priced: u64,
    /// Distinct keywords the cache verdict tested for a match among the new
    /// relations.
    pub keywords_checked_new: u64,
}

/// What an ingest's alignment strategy reads for one matcher (see
/// [`LiveServer::ingest_source_with`]): the next snapshot as far as it is
/// built.
pub struct IngestDraft<'a> {
    /// The catalog with the new source loaded.
    pub catalog: &'a Catalog,
    /// The keyword index with the new source's relations appended.
    pub keyword_index: &'a KeywordIndex,
    /// The grown search graph, holding the associations of every matcher
    /// that ran before this one.
    pub graph: &'a SearchGraph,
    /// The source being ingested.
    pub source: SourceId,
    /// The server's configuration.
    pub config: &'a QConfig,
}

/// VIEWBASEDALIGNER (Algorithm 2) as an ingest's alignment strategy, for
/// [`LiveServer::ingest_source_with`]: align the new source inside the
/// α-cost neighbourhood of each view, where α is the view's k-th best cost
/// and the neighbourhood starts at its keywords' nodes on the grown index,
/// then keep the top-Y alignments per new attribute across views. With no
/// views it falls back to exhaustive matching, so the source is still
/// incorporated.
pub fn view_based_alignments(
    draft: &IngestDraft<'_>,
    matcher: &dyn SchemaMatcher,
    views: &[RankedView],
) -> AlignmentOutcome {
    let value_index = ValueIndex::build(draft.catalog);
    let aligner_config = AlignerConfig {
        top_y: draft.config.top_y,
        ..AlignerConfig::default()
    };
    if views.is_empty() {
        return ExhaustiveAligner.align(
            draft.catalog,
            matcher,
            draft.source,
            Some(&value_index),
            &aligner_config,
        );
    }
    let mut alignments = Vec::new();
    let mut stats = AlignmentStats::default();
    for view in views {
        // A view with no answers yet has no α bound: any alignment
        // reachable from its keyword nodes could give it its first results,
        // so the neighbourhood is unbounded (but still restricted to the
        // keywords' component).
        let alpha = view.alpha().unwrap_or(f64::INFINITY);
        let nodes = view_nodes(
            draft.graph,
            draft.keyword_index,
            &draft.config.match_config,
            &view.keywords,
        );
        let outcome = ViewBasedAligner::new(alpha).align(
            draft.catalog,
            draft.graph,
            matcher,
            draft.source,
            &nodes,
            Some(&value_index),
            &aligner_config,
        );
        alignments.extend(outcome.alignments);
        stats.merge(&outcome.stats);
    }
    AlignmentOutcome {
        alignments: q_matchers::keep_top_y_per_attribute(alignments, draft.config.top_y),
        stats,
    }
}

/// The search-graph nodes `keywords` match, each once in match order (a
/// value match lands on its attribute's node): where a view's α-cost
/// neighbourhood starts.
pub fn view_nodes(
    graph: &SearchGraph,
    keyword_index: &KeywordIndex,
    match_config: &MatchConfig,
    keywords: &[String],
) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for keyword in keywords {
        for m in keyword_index.matches(keyword, match_config) {
            if let Some(n) = graph.match_node(&m.target) {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
    }
    nodes
}

/// Point-in-time counters of a [`LiveServer`]'s shared answer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh computation.
    pub misses: u64,
    /// Entries dropped at publish/sync time.
    pub invalidations: u64,
    /// Entries kept by a publish's cache verdict, plus re-validation lane
    /// re-admissions.
    pub revalidations: u64,
    /// Live entries.
    pub len: usize,
}

struct WriterState {
    matchers: Vec<Box<dyn SchemaMatcher + Send>>,
    /// MIRA learner state for the network feedback lane — feedback is a
    /// writer-lane operation (it re-prices the graph and publishes), so the
    /// learner lives with the other writer state.
    mira: Mira,
    /// Dijkstra buffers of the growth verdict's reachability pricing
    /// (grown once, reused by every publish; one publish at a time).
    pricer: DeltaPricer,
}

/// Report of one [`LiveServer::feedback`] publish.
#[derive(Debug)]
pub struct LiveFeedbackReport {
    /// What the MIRA update did (constraints, violations, re-priced
    /// features).
    pub outcome: FeedbackOutcome,
    /// The re-priced snapshot this feedback published (readers switch to
    /// it).
    pub snapshot: Arc<GraphSnapshot>,
    /// Cached entries whose costs were bit-identical under the new prices
    /// (a re-pricing publish never parks).
    pub cache_kept: u64,
    /// Cached entries the re-pricing dropped.
    pub cache_dropped: u64,
}

/// What a live publish changed: new prices on the same topology, or a
/// grown graph (new edges, plus the relations a new source added).
enum Change<'a> {
    Reprice,
    Growth(&'a [RelationId]),
}

/// What one publish did: the snapshot, the cache verdicts' counts, and
/// the cheapest bridge seed (∞ when none).
struct Published {
    snapshot: Arc<GraphSnapshot>,
    kept: u64,
    parked: u64,
    dropped: u64,
    keywords_priced: u64,
    keywords_checked_new: u64,
    bridge_floor: f64,
}

/// Snapshot-isolated serving engine: concurrent `&self` reads from an
/// immutable published [`GraphSnapshot`], a writer lane that incorporates
/// new sources without stopping them. See the module docs for the protocol.
pub struct LiveServer {
    config: QConfig,
    current: RwLock<Arc<GraphSnapshot>>,
    /// Shared with the re-validation lane's worker, which re-admits settled
    /// entries under this lock.
    cache: Arc<Mutex<QueryCache>>,
    writer: Mutex<WriterState>,
    /// Background re-validation lane: publishes deposit their parked cache
    /// entries here; the worker settles each by fresh recompute.
    revalidator: RevalidationLane,
    /// Background snapshot persistence lane ([`SnapshotPersister`]), off by
    /// default. Publishes deposit into its latest-only mailbox and never
    /// wait for the disk.
    persister: Option<SnapshotPersister>,
}

thread_local! {
    /// Per-thread Steiner scratch: readers answer many misses in a row, and
    /// the generation-stamped buffers make starting the next search O(1) —
    /// they must not be rebuilt per query.
    static SCRATCH: std::cell::RefCell<SteinerScratch> =
        std::cell::RefCell::new(SteinerScratch::default());
}

impl LiveServer {
    /// Build a live server over an initial catalog: the initial search
    /// graph and keyword index are constructed and published as snapshot
    /// zero's state. No matchers are registered yet.
    pub fn new(catalog: Catalog, config: QConfig) -> Self {
        let graph = SearchGraph::from_catalog(&catalog);
        let keyword_index = KeywordIndex::build(&catalog);
        let snapshot = GraphSnapshot::build(Arc::new(catalog), graph, Arc::new(keyword_index));
        Self::from_snapshot(snapshot, config)
    }

    /// Build a live server directly over an existing snapshot — the
    /// boot-from-disk path: pair with [`GraphSnapshot::load`] to start
    /// serving the persisted state without re-running graph construction,
    /// matching or finalization.
    pub fn from_snapshot(snapshot: GraphSnapshot, config: QConfig) -> Self {
        let snapshot = Arc::new(snapshot);
        let cache = Arc::new(Mutex::new(QueryCache::new(
            DEFAULT_CACHE_CAPACITY,
            snapshot.id,
        )));
        LiveServer {
            revalidator: RevalidationLane::start(config, Arc::clone(&cache)),
            config,
            current: RwLock::new(snapshot),
            cache,
            writer: Mutex::new(WriterState {
                matchers: Vec::new(),
                mira: Mira::new(),
                pricer: DeltaPricer::default(),
            }),
            persister: None,
        }
    }

    /// Turn on the background persistence lane: every publish (ingestion,
    /// association, feedback) deposits its snapshot for asynchronous
    /// persistence into `dir`, keeping the newest `keep_last` files. The
    /// currently published snapshot is deposited immediately, so a freshly
    /// built server persists its boot state without waiting for the first
    /// publish.
    pub fn enable_persistence(
        &mut self,
        dir: std::path::PathBuf,
        keep_last: usize,
    ) -> Result<(), q_snap::SnapError> {
        let persister = SnapshotPersister::start(dir, keep_last)?;
        persister.enqueue(self.snapshot());
        self.persister = Some(persister);
        Ok(())
    }

    /// Counters of the persistence lane (`None` while persistence is off).
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persister.as_ref().map(SnapshotPersister::stats)
    }

    /// Block until every deposited snapshot has been written. No-op while
    /// persistence is off.
    pub fn flush_persistence(&self) {
        if let Some(p) = &self.persister {
            p.flush();
        }
    }

    fn deposit_for_persistence(&self, snapshot: &Arc<GraphSnapshot>) {
        if let Some(p) = &self.persister {
            p.enqueue(Arc::clone(snapshot));
        }
    }

    /// Register a schema matcher consulted (in registration order) when new
    /// sources are ingested. `Send` because the writer lane may run from any
    /// thread.
    pub fn add_matcher(&mut self, matcher: Box<dyn SchemaMatcher + Send>) {
        self.writer
            .get_mut()
            .expect("writer lock poisoned")
            .matchers
            .push(matcher);
    }

    /// Replace the answer cache with an empty one holding `capacity` views.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        let cache = QueryCache::new(capacity, self.snapshot().id);
        *self.cache.lock().expect("cache lock poisoned") = cache;
    }

    /// Counters of the background re-validation lane.
    pub fn revalidation_stats(&self) -> RevalidationStats {
        self.revalidator.stats()
    }

    /// Block until every parked cache entry has been settled by the
    /// re-validation lane.
    pub fn flush_revalidation(&self) {
        self.revalidator.flush();
    }

    /// The serving configuration.
    pub fn config(&self) -> &QConfig {
        &self.config
    }

    /// The currently published snapshot. The internal lock is held only for
    /// the `Arc` clone; the returned snapshot stays valid (and immutable)
    /// however many publishes happen after.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Counters of the shared answer cache.
    pub fn cache_stats(&self) -> LiveCacheStats {
        let cache = self.cache.lock().expect("cache lock poisoned");
        LiveCacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            invalidations: cache.invalidations(),
            revalidations: cache.revalidations(),
            len: cache.len(),
        }
    }

    /// Answer one typed request against the currently published snapshot,
    /// through `&self` — any number of readers serve concurrently, and none
    /// of them blocks on the writer lane.
    ///
    /// The returned [`QueryOutcome::snapshot`] names the snapshot the
    /// answer is a sequential answer of: the captured one for a fresh
    /// computation, the entry's original pricing snapshot for a cache hit
    /// (an entry surviving a publish keeps reporting its own snapshot).
    pub fn query(&self, request: &QueryRequest) -> Result<QueryOutcome, QError> {
        request.validate()?;
        let snapshot = self.snapshot();
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        let key = (request.cache() != CachePolicy::Bypass).then(|| QueryKey {
            keywords: normalize_keywords(&refs),
            params: request.params_key(),
        });
        if request.cache() == CachePolicy::Cached {
            let key = key.as_ref().expect("cached policy builds a key");
            let hit = self.cache.lock().expect("cache lock poisoned").get(key);
            if let Some(hit) = hit {
                return Ok(QueryOutcome {
                    view: hit.view,
                    cache: if hit.revalidated {
                        CacheStatus::Revalidated
                    } else {
                        CacheStatus::Hit
                    },
                    weight_epoch: hit.snapshot,
                    steiner: None,
                    wall_time: std::time::Duration::ZERO,
                    snapshot: Some(hit.snapshot),
                });
            }
        }

        let start = Instant::now();
        let params = ServeParams::resolve_key(&self.config, &request.params_key());
        let build_model = request.cache() != CachePolicy::Bypass;
        let (view, stats, model) = SCRATCH.with(|scratch| {
            snapshot.serving(&self.config).answer_keywords(
                &refs,
                params,
                build_model,
                &mut scratch.borrow_mut(),
            )
        })?;
        let wall_time = start.elapsed();
        let view = Arc::new(view);
        let cache = match request.cache() {
            CachePolicy::Bypass => CacheStatus::Bypassed,
            policy => {
                // Admitted only when the computed answer still belongs to
                // the cache's epoch: a publish that raced this computation
                // has raised it for its own snapshot, and a stale insert
                // would undo that publish's verdicts. The requester still
                // gets its (snapshot-consistent) answer either way.
                self.cache.lock().expect("cache lock poisoned").insert(
                    snapshot.id,
                    key.expect("non-bypass policy builds a key"),
                    Arc::clone(&view),
                    model.expect("non-bypass policy builds a model"),
                    snapshot.id,
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
            weight_epoch: snapshot.graph.weight_epoch(),
            steiner: Some(stats),
            wall_time,
            snapshot: Some(snapshot.id),
        })
    }

    /// Incorporate a new source end-to-end and publish the next snapshot,
    /// without stopping reads: incremental catalog registration, search
    /// graph growth (delta-merged CSR), keyword-index append, matcher
    /// scoring of only the new columns, cache verdict, pointer swap.
    ///
    /// Writers serialize on the writer lane; readers never wait on it.
    pub fn ingest_source(&self, spec: &SourceSpec) -> Result<IngestReport, QError> {
        self.ingest_source_with(spec, |draft, matcher| {
            matcher.match_source(draft.catalog, draft.source, draft.config.top_y)
        })
    }

    /// [`ingest_source`](Self::ingest_source) with the alignment strategy
    /// given: for each registered matcher in order, `align` proposes the
    /// new source's alignments from the [`IngestDraft`], and they join the
    /// graph under the matcher's name before the next matcher runs, so a
    /// later matcher sees an earlier one's edges.
    ///
    /// Every alignment must start at an attribute of the new source: the
    /// growth publish judges the cache as if each association were a new
    /// edge, and one merged into an existing edge would re-price it behind
    /// that verdict's back. Any other alignment fails the ingest with
    /// [`QError::MisplacedAlignment`] and publishes nothing.
    pub fn ingest_source_with<F>(
        &self,
        spec: &SourceSpec,
        mut align: F,
    ) -> Result<IngestReport, QError>
    where
        F: FnMut(&IngestDraft<'_>, &dyn SchemaMatcher) -> Vec<AttributeAlignment>,
    {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();

        // Build the next snapshot off to the side.
        let (catalog, source) =
            spec.load_incremental(&base.catalog)
                .map_err(|source| QError::SourceLoad {
                    source_name: spec.name.clone(),
                    source,
                })?;
        let mut graph = base.graph.clone();
        graph.add_source(&catalog, source);
        // The index is appended to in place, so an ingest still copies it
        // (ROADMAP 6(b)).
        let mut keyword_index = KeywordIndex::clone(&base.keyword_index);
        let new_relations: Vec<RelationId> = catalog
            .source(source)
            .map(|s| s.relations.clone())
            .unwrap_or_default();
        for rel in &new_relations {
            keyword_index.add_relation(&catalog, *rel);
        }
        let mut alignments: Vec<AttributeAlignment> = Vec::new();
        for matcher in &writer.matchers {
            let draft = IngestDraft {
                catalog: &catalog,
                keyword_index: &keyword_index,
                graph: &graph,
                source,
                config: &self.config,
            };
            let proposed = align(&draft, matcher.as_ref());
            let misplaced = proposed.iter().find(|a| {
                catalog
                    .attribute(a.new_attribute)
                    .is_none_or(|at| !new_relations.contains(&at.relation))
            });
            if let Some(a) = misplaced {
                return Err(QError::MisplacedAlignment {
                    source_name: spec.name.clone(),
                    attribute: a.new_attribute,
                });
            }
            for a in &proposed {
                graph.add_association(
                    a.new_attribute,
                    a.existing_attribute,
                    matcher.name(),
                    a.confidence,
                );
            }
            alignments.extend(proposed);
        }

        let published = self.publish(
            &mut writer.pricer,
            &base,
            Arc::new(catalog),
            graph,
            Arc::new(keyword_index),
            Change::Growth(&new_relations),
        );
        Ok(IngestReport {
            source,
            snapshot: published.snapshot,
            alignments,
            bridge_floor: published.bridge_floor,
            cache_kept: published.kept,
            cache_parked: published.parked,
            cache_dropped: published.dropped,
            keywords_priced: published.keywords_priced,
            keywords_checked_new: published.keywords_checked_new,
        })
    }

    /// Add a hand-coded association edge between two attributes and publish
    /// the resulting snapshot. A brand-new edge is a growth publish (a pure
    /// bridge: no new relations); an update merged into an existing edge is
    /// a re-pricing publish.
    pub fn publish_association(
        &self,
        a: AttributeId,
        b: AttributeId,
        confidence: f64,
    ) -> Arc<GraphSnapshot> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        let mut graph = base.graph.clone();
        graph.add_association(a, b, "manual", confidence);
        // A merged opinion keeps the topology and re-prices an edge.
        let change = if graph.edge_count() > base.graph.edge_count() {
            Change::Growth(&[])
        } else {
            Change::Reprice
        };
        let published = self.publish(
            &mut writer.pricer,
            &base,
            Arc::clone(&base.catalog),
            graph,
            Arc::clone(&base.keyword_index),
            change,
        );
        published.snapshot
    }

    /// Apply user feedback to the live model and publish the re-priced
    /// snapshot, without stopping reads.
    ///
    /// The annotated answers are the current snapshot's sequential answer
    /// for the request's keywords — exactly the bytes a
    /// [`query`](Self::query) against this snapshot serves, so answer
    /// indices in the annotation line up with what the user saw.
    ///
    /// The MIRA update re-prices association edges (same topology, new
    /// weights), so this is a re-pricing publish: cached entries whose costs
    /// moved drop, bit-identical ones are kept.
    pub fn feedback(&self, request: &FeedbackRequest) -> Result<LiveFeedbackReport, QError> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();

        // The view being annotated: the snapshot's sequential answer.
        let query = QueryRequest::new(request.keywords().iter().cloned());
        let view = base.answer(&self.config, &query)?;

        let mut graph = base.graph.clone();
        let outcome = learn_feedback(
            &mut graph,
            &base.keyword_index,
            &self.config,
            &mut writer.mira,
            &view,
            request.feedback(),
        )?;
        let published = self.publish(
            &mut writer.pricer,
            &base,
            Arc::clone(&base.catalog),
            graph,
            Arc::clone(&base.keyword_index),
            Change::Reprice,
        );
        Ok(LiveFeedbackReport {
            outcome,
            snapshot: published.snapshot,
            cache_kept: published.kept,
            cache_dropped: published.dropped,
        })
    }

    /// The one publish epilogue: build the next snapshot, sync the cache
    /// against it, swap the pointer, hand the parked entries to the
    /// re-validation lane and deposit the snapshot for persistence. `base`
    /// is the snapshot the next one grew from, and `pricer` is the writer
    /// lane's.
    fn publish(
        &self,
        pricer: &mut DeltaPricer,
        base: &GraphSnapshot,
        catalog: Arc<Catalog>,
        graph: SearchGraph,
        keyword_index: Arc<KeywordIndex>,
        change: Change,
    ) -> Published {
        let next = Arc::new(GraphSnapshot::build(catalog, graph, keyword_index));
        let mut seeds: Vec<(NodeId, f64)> = Vec::new();
        let publish = match change {
            Change::Reprice => Publish::Reprice(&next.graph),
            Change::Growth(new_relations) => {
                // Every new edge touching the pre-existing graph is a
                // bridge — any join tree the publish enables for an old
                // query crosses one — so both its endpoints seed the
                // pricing at the bridge's cost.
                let old_nodes = base.graph.node_count();
                seeds = next.graph.edges()[base.graph.edge_count()..]
                    .iter()
                    .filter(|e| e.a.index() < old_nodes || e.b.index() < old_nodes)
                    .flat_map(|e| {
                        let cost = next.graph.edge_cost(e.id);
                        [(e.a, cost), (e.b, cost)]
                    })
                    .collect();
                Publish::Growth(IngestionDelta {
                    catalog: &next.catalog,
                    keyword_index: &next.keyword_index,
                    match_config: &self.config.match_config,
                    new_relations,
                    graph: &next.graph,
                    bridge_seeds: &seeds,
                })
            }
        };
        // Sync the cache before the pointer swap. Raising its epoch first
        // makes every in-flight computation on an older snapshot fail the
        // insert guard from this moment on; the verdicts are computed with
        // the lock released, so readers keep hitting meanwhile.
        let sync = QueryCache::sync(&self.cache, next.id, &publish, pricer);
        *self.current.write().expect("snapshot lock poisoned") = Arc::clone(&next);
        let parked = sync.parked.len() as u64;
        self.revalidator.enqueue(Arc::clone(&next), sync.parked);
        self.deposit_for_persistence(&next);
        Published {
            bridge_floor: seeds
                .iter()
                .map(|&(_, cost)| cost)
                .fold(f64::INFINITY, f64::min),
            snapshot: next,
            kept: sync.kept,
            parked,
            dropped: sync.dropped,
            keywords_priced: sync.keywords_priced,
            keywords_checked_new: sync.keywords_checked_new,
        }
    }
}

/// The MIRA learning step of [`LiveServer::feedback`]: generalise the
/// annotated answers of `view` to their originating query trees, build
/// margin constraints against the current K-best list, update the weights,
/// and keep every edge cost positive. Mutates `graph` (weights only — the
/// topology is untouched, so this is always a pure re-pricing) and `mira`;
/// the caller publishes the re-priced graph as the next snapshot.
fn learn_feedback(
    graph: &mut SearchGraph,
    keyword_index: &KeywordIndex,
    config: &QConfig,
    mira: &mut Mira,
    view: &RankedView,
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
                answers: view.answers.len(),
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
    /// The config-default parameters.
    pub(crate) fn defaults(config: &QConfig) -> Self {
        ServeParams {
            top_k: config.top_k,
            strategy: SearchStrategy::Approx {
                max_roots: config.steiner.max_roots,
            },
            max_cost: config.steiner.max_cost,
        }
    }

    /// Merge a request's overrides, as recorded in its cache key, over the
    /// config defaults. Serving a request resolves its
    /// [`params_key`](QueryRequest::params_key), so the re-validation lane
    /// recomputes a parked entry exactly as the request that priced it
    /// would be served today (the budget round-trips bit-exactly).
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
/// from a published [`GraphSnapshot`].
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
    /// with no cache involvement. [`GraphSnapshot::answer`] is this.
    pub(crate) fn answer(&self, request: &QueryRequest) -> Result<RankedView, QError> {
        request.validate()?;
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        self.answer_keywords(
            &refs,
            ServeParams::resolve_key(self.config, &request.params_key()),
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
                    .row(["GO:2", "kinase activity"]),
            ),
            SourceSpec::new("interpro")
                .relation(
                    RelationSpec::new("interpro2go", &["go_id", "entry_ac"])
                        .row(["GO:1", "IPR01"])
                        .row(["GO:2", "IPR02"]),
                )
                .relation(
                    RelationSpec::new("entry", &["entry_ac", "name"])
                        .row(["IPR01", "Kringle domain"])
                        .row(["IPR02", "Cytokine receptor"]),
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

    fn server() -> LiveServer {
        let catalog = q_storage::loader::load_catalog(&base_specs()).expect("catalog loads");
        let mut server = LiveServer::new(catalog, QConfig::default());
        server.add_matcher(Box::new(MetadataMatcher::new()));
        server
    }

    #[test]
    fn serves_through_shared_references_with_snapshot_provenance() {
        let server = server();
        let snap = server.snapshot();
        let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        let published = server.publish_association(acc, go_id, 0.95);
        assert!(published.id() > snap.id());

        let request = QueryRequest::new(["plasma membrane", "entry"]);
        let miss = server.query(&request).unwrap();
        assert_eq!(miss.cache, CacheStatus::Miss);
        assert_eq!(miss.snapshot, Some(published.id()));
        assert!(!miss.view.answers.is_empty());
        // The outcome is byte-identical to the snapshot's sequential answer.
        let reference = published.answer(server.config(), &request).unwrap();
        assert_eq!(&*miss.view, &reference);

        let hit = server.query(&request).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&miss.view, &hit.view));
        assert_eq!(hit.snapshot, Some(published.id()));
        assert_eq!(server.cache_stats().hits, 1);
    }

    /// The fixture server with the GO ↔ InterPro association published, and
    /// with a second (bad) association too when `alternatives` is set, so
    /// `["plasma membrane", "entry"]` ranks more than one tree.
    fn associated_server(alternatives: bool) -> LiveServer {
        let server = server();
        let snap = server.snapshot();
        let resolve = |name: &str| snap.catalog().resolve_qualified(name).unwrap();
        server.publish_association(resolve("go_term.acc"), resolve("interpro2go.go_id"), 0.9);
        if alternatives {
            server.publish_association(resolve("go_term.name"), resolve("entry.name"), 0.9);
        }
        server
    }

    #[test]
    fn normalized_spellings_share_one_entry() {
        let server = associated_server(false);
        let o1 = server
            .query(&QueryRequest::new(["plasma membrane", "entry"]))
            .unwrap();
        assert!(!o1.view.answers.is_empty());
        assert_eq!(o1.cache, CacheStatus::Miss);
        assert!(o1.steiner.is_some(), "a miss reports search stats");
        // Case / whitespace variants normalise to the same key: served from
        // the cache, same allocation.
        let o2 = server
            .query(&QueryRequest::new(["  Plasma Membrane ", "ENTRY"]))
            .unwrap();
        assert!(Arc::ptr_eq(&o1.view, &o2.view));
        assert_eq!(o2.cache, CacheStatus::Hit);
        assert!(o2.steiner.is_none(), "a hit ran no search");
        assert_eq!(o1.snapshot, o2.snapshot);
        assert_eq!(server.cache_stats().hits, 1);
        assert_eq!(server.cache_stats().misses, 1);
        // A different query is its own entry.
        let o3 = server
            .query(&QueryRequest::new(["kinase activity"]))
            .unwrap();
        assert!(!Arc::ptr_eq(&o1.view, &o3.view));
        assert_eq!(server.cache_stats().len, 2);
        // A blank extra keyword adds an unreachable Steiner terminal and
        // empties the view — it must be a distinct cache entry, not a hit
        // on the two-keyword query.
        let o4 = server
            .query(&QueryRequest::new(["plasma membrane", "entry", "  "]))
            .unwrap();
        assert!(!Arc::ptr_eq(&o1.view, &o4.view));
        assert!(o4.view.answers.is_empty());
        assert_eq!(server.cache_stats().len, 3);
    }

    #[test]
    fn cache_policies_bypass_and_refresh_behave_as_documented() {
        let server = associated_server(false);
        let keywords = ["plasma membrane", "entry"];

        // Bypass never touches the cache.
        let bypass = server
            .query(&QueryRequest::new(keywords).cache_policy(CachePolicy::Bypass))
            .unwrap();
        assert_eq!(bypass.cache, CacheStatus::Bypassed);
        assert_eq!(server.cache_stats().len, 0);
        assert_eq!(server.cache_stats().misses, 0);

        // A cached miss populates; a refresh recomputes and replaces the
        // entry (fresh allocation, same bytes on an unchanged snapshot).
        let miss = server.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(miss.cache, CacheStatus::Miss);
        let refreshed = server
            .query(&QueryRequest::new(keywords).cache_policy(CachePolicy::Refresh))
            .unwrap();
        assert_eq!(refreshed.cache, CacheStatus::Refreshed);
        assert!(!Arc::ptr_eq(&miss.view, &refreshed.view));
        assert_eq!(&*miss.view, &*refreshed.view);
        // The refreshed allocation is what the cache now serves.
        let hit = server.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&refreshed.view, &hit.view));
    }

    #[test]
    fn per_request_overrides_never_share_an_entry() {
        let server = associated_server(true);
        let keywords = ["plasma membrane", "entry"];

        let default = server.query(&QueryRequest::new(keywords)).unwrap();
        assert!(default.view.queries.len() >= 2, "need alternative trees");

        // top_k = 1 keeps only the best tree — on the same snapshot.
        let top1 = server.query(&QueryRequest::new(keywords).top_k(1)).unwrap();
        assert_eq!(top1.cache, CacheStatus::Miss);
        assert_eq!(top1.view.queries.len(), 1);
        assert_eq!(top1.view.queries[0], default.view.queries[0]);

        // The exact strategy also ranks exactly one (provably cheapest) tree.
        let exact = server
            .query(&QueryRequest::new(keywords).strategy(SearchStrategy::Exact))
            .unwrap();
        assert_eq!(exact.cache, CacheStatus::Miss);
        assert_eq!(exact.view.queries.len(), 1);
        assert!(exact.view.queries[0].cost <= default.view.queries[0].cost + 1e-9);

        // A budget below the second tree's cost prunes the tail.
        let cutoff = default.view.queries[0].cost + 1e-6;
        let budgeted = server
            .query(&QueryRequest::new(keywords).cost_budget(cutoff))
            .unwrap();
        assert_eq!(budgeted.cache, CacheStatus::Miss);
        assert_eq!(budgeted.view.queries.len(), 1);
        assert!(budgeted.steiner.unwrap().trees_over_budget >= 1);

        // Differently-parameterised requests never share cache entries: the
        // default request still hits its own (unchanged) entry.
        let again = server.query(&QueryRequest::new(keywords)).unwrap();
        assert_eq!(again.cache, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&default.view, &again.view));
        assert_eq!(server.cache_stats().len, 4);

        // An exact-strategy tree dropped by the budget reads as "over
        // budget", not as "terminals unconnected".
        let starved = server
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
        let server = server();
        let err = server
            .query(&QueryRequest::new(["plasma membrane"]).top_k(0))
            .unwrap_err();
        assert!(matches!(err, QError::InvalidRequest { field: "top_k", .. }));
        let err = server
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
        assert_eq!(server.cache_stats().len, 0);
        assert_eq!(server.cache_stats().misses, 0);
    }

    #[test]
    fn ingest_publishes_a_new_snapshot_without_touching_old_readers() {
        let server = server();
        let snap0 = server.snapshot();
        let acc = snap0.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap0
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        server.publish_association(acc, go_id, 0.95);
        let before = server.snapshot();
        let request = QueryRequest::new(["plasma membrane", "title"]);
        let empty = server.query(&request).unwrap();
        assert!(empty.view.answers.is_empty(), "no title column yet");

        let report = server.ingest_source(&new_pub_source()).unwrap();
        assert!(!report.alignments.is_empty(), "matcher scored new columns");
        assert!(report.bridge_floor.is_finite(), "source is bridged");
        assert!(report.snapshot.id() > before.id());
        assert_eq!(server.snapshot().id(), report.snapshot.id());
        // The new source's columns landed in the catalog/graph/index.
        assert!(report
            .snapshot
            .catalog()
            .resolve_qualified("pub.title")
            .is_some());

        // A reader holding the old snapshot still gets the old bytes.
        let stale = before.answer(server.config(), &request).unwrap();
        assert!(stale.answers.is_empty());
        // New queries see the publication titles.
        let fresh = server.query(&request).unwrap();
        assert_eq!(fresh.snapshot, Some(report.snapshot.id()));
        assert!(
            fresh
                .view
                .answers
                .iter()
                .any(|a| a.values.iter().flatten().any(
                    |v| matches!(v, q_storage::Value::Text(s) if s.contains("Kringle structure"))
                )),
            "answers: {:?}",
            fresh.view.answers
        );
    }

    #[test]
    fn ingest_applies_the_cache_survival_rule() {
        let server = server();
        let snap0 = server.snapshot();
        let acc = snap0.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap0
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        server.publish_association(acc, go_id, 0.95);
        // Warm two entries: one whose keywords the new source matches (it
        // must at least leave the cache for re-validation) and one with
        // keywords the new source cannot touch *and* a full ranked list
        // (may be kept outright if the pricing allows).
        let touched = QueryRequest::new(["entry ac", "title"]);
        let safe = QueryRequest::new(["plasma membrane"]).top_k(1);
        server.query(&touched).unwrap();
        let safe_before = server.query(&safe).unwrap();

        let report = server.ingest_source(&new_pub_source()).unwrap();
        assert!(
            report.cache_parked >= 1,
            "the touched entry cannot be proven safe at publish time"
        );
        // Settle the lane so the outcome below is deterministic. Whatever
        // each entry's fate was, a repeat request must be byte-consistent
        // with the sequential answer of the snapshot it reports.
        server.flush_revalidation();
        let after = server.query(&safe).unwrap();
        let snapshot_of = after.snapshot.expect("live serving stamps snapshots");
        if after.cache == CacheStatus::Revalidated {
            if snapshot_of == safe_before.snapshot.unwrap() {
                // Kept — at publish time or by the lane's byte-equal proof.
                assert!(Arc::ptr_eq(&safe_before.view, &after.view));
            } else {
                // Re-priced by the lane: fresh bytes under the new snapshot.
                assert_eq!(snapshot_of, report.snapshot.id());
                let reference = report.snapshot.answer(server.config(), &safe).unwrap();
                assert_eq!(&*after.view, &reference);
            }
        } else {
            assert_eq!(snapshot_of, report.snapshot.id());
            let reference = report.snapshot.answer(server.config(), &safe).unwrap();
            assert_eq!(&*after.view, &reference);
        }
        // The lane settled everything it was handed.
        let lane = server.revalidation_stats();
        assert_eq!(lane.depth, 0);
        assert_eq!(
            lane.kept + lane.repriced + lane.dropped,
            report.cache_parked
        );
    }

    #[test]
    fn bypass_and_exact_strategies_serve_from_the_snapshot_too() {
        let server = server();
        let snap = server.snapshot();
        let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        let published = server.publish_association(acc, go_id, 0.95);
        let request = QueryRequest::new(["plasma membrane", "entry"])
            .cache_policy(CachePolicy::Bypass)
            .strategy(SearchStrategy::Exact);
        let outcome = server.query(&request).unwrap();
        assert_eq!(outcome.cache, CacheStatus::Bypassed);
        assert_eq!(outcome.snapshot, Some(published.id()));
        assert_eq!(server.cache_stats().len, 0, "bypass never populates");
        let reference = published.answer(server.config(), &request).unwrap();
        assert_eq!(&*outcome.view, &reference);
    }

    #[test]
    fn merge_repricing_publish_never_serves_repriced_bytes_under_an_old_snapshot() {
        let server = server();
        let snap = server.snapshot();
        let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        let first = server.publish_association(acc, go_id, 0.5);

        // Two warm entries: one whose trees cross the association edge, one
        // (single-keyword, single-relation) that cannot.
        let crossing = QueryRequest::new(["plasma membrane", "entry"]);
        let local = QueryRequest::new(["kinase activity"]);
        let crossing_before = server.query(&crossing).unwrap();
        let local_before = server.query(&local).unwrap();
        assert!(!crossing_before.view.queries.is_empty());

        // Re-assert the same pair at a different confidence: the opinion
        // merges into the existing edge — same topology, new price.
        let second = server.publish_association(acc, go_id, 0.9);
        assert!(second.id() > first.id());
        assert_eq!(
            second.graph().edge_count(),
            first.graph().edge_count(),
            "fixture: the publish must be a merge, not a new edge"
        );

        // The touched entry dropped: recomputed against (and stamped with)
        // the new snapshot, byte-identical to its sequential answer.
        let crossing_after = server.query(&crossing).unwrap();
        assert_eq!(crossing_after.cache, CacheStatus::Miss);
        assert_eq!(crossing_after.snapshot, Some(second.id()));
        let reference = second.answer(server.config(), &crossing).unwrap();
        assert_eq!(&*crossing_after.view, &reference);
        assert_ne!(
            crossing_before.view.queries[0].cost.to_bits(),
            crossing_after.view.queries[0].cost.to_bits(),
            "fixture: the merge must actually re-price the crossing query"
        );

        // The untouched entry survived verbatim: same bytes, and still the
        // provenance of the snapshot that priced it — which still replays
        // exactly.
        let local_after = server.query(&local).unwrap();
        assert_eq!(local_after.cache, CacheStatus::Revalidated);
        assert!(Arc::ptr_eq(&local_before.view, &local_after.view));
        assert_eq!(local_after.snapshot, local_before.snapshot);
        let old_reference = first.answer(server.config(), &local).unwrap();
        assert_eq!(&*local_after.view, &old_reference);
    }

    #[test]
    fn feedback_republishes_a_repriced_snapshot() {
        let server = server();
        let snap = server.snapshot();
        let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        let entry_name = snap.catalog().resolve_qualified("entry.name").unwrap();
        let term_name = snap.catalog().resolve_qualified("go_term.name").unwrap();
        // One good association and one bad one, so the annotated view has
        // alternative trees to rank against.
        server.publish_association(acc, go_id, 0.9);
        server.publish_association(term_name, entry_name, 0.9);

        // Warm two cache entries: one whose trees cross the association
        // edges (its price will move) and one single-relation query that
        // cannot be touched by a weights-only publish.
        let crossing = QueryRequest::new(["plasma membrane", "entry"]);
        let local = QueryRequest::new(["kinase activity"]);
        let crossing_before = server.query(&crossing).unwrap();
        let local_before = server.query(&local).unwrap();
        assert!(
            crossing_before.view.queries.len() >= 2,
            "fixture: need alternative trees"
        );
        let before = server.snapshot();

        // Marking the top answer invalid forces its (currently cheapest)
        // query to cost more than the best alternative — the constraint is
        // violated by construction, so weights must move.
        let report = server
            .feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Invalid { answer: 0 },
            ))
            .unwrap();
        assert!(report.outcome.constraints > 0);
        assert!(report.outcome.initially_violated > 0);
        assert!(report.outcome.repriced_features > 0);
        assert!(report.snapshot.id() > before.id());
        assert_eq!(server.snapshot().id(), report.snapshot.id());
        assert!(
            report.snapshot.graph().min_learnable_edge_cost().unwrap() > 0.0,
            "edge costs stay positive after learning"
        );

        // The re-priced entry dropped: a repeat is recomputed against (and
        // stamped with) the feedback snapshot, byte-identical to its
        // sequential answer.
        let crossing_after = server.query(&crossing).unwrap();
        assert_eq!(crossing_after.cache, CacheStatus::Miss);
        assert_eq!(crossing_after.snapshot, Some(report.snapshot.id()));
        let reference = report.snapshot.answer(server.config(), &crossing).unwrap();
        assert_eq!(&*crossing_after.view, &reference);

        // The untouched entry survived verbatim with its original
        // provenance.
        let local_after = server.query(&local).unwrap();
        assert_eq!(local_after.cache, CacheStatus::Revalidated);
        assert!(Arc::ptr_eq(&local_before.view, &local_after.view));
        assert_eq!(local_after.snapshot, local_before.snapshot);
    }

    #[test]
    fn feedback_publishes_nothing_on_error() {
        let server = server();
        let before = server.snapshot();

        // Annotating an answer the query does not have fails without
        // publishing.
        let snap = server.snapshot();
        let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = snap
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        let published = server.publish_association(acc, go_id, 0.9);
        let err = server
            .feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Correct { answer: 10_000 },
            ))
            .unwrap_err();
        // The message names how many answers the view has, not a view id.
        let answers = published
            .answer(
                server.config(),
                &QueryRequest::new(["plasma membrane", "entry"]),
            )
            .unwrap()
            .answers
            .len();
        assert_eq!(
            err,
            QError::UnknownAnswer {
                answers,
                answer: 10_000
            }
        );
        assert_eq!(err.to_string(), "no answer #10000: the view has 1 answer");
        assert_eq!(server.snapshot().id(), published.id());
        assert!(server.snapshot().id() > before.id());
    }

    #[test]
    fn feedback_demotes_the_tree_of_an_invalid_answer() {
        let server = associated_server(true);
        let request = QueryRequest::new(["plasma membrane", "entry"]);
        let view = server.snapshot().answer(server.config(), &request).unwrap();
        assert!(view.queries.len() >= 2, "need alternative trees");

        // Mark the best answer correct; weights must change such that its
        // query stays cheapest and the re-priced snapshot still answers.
        let report = server
            .feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Correct { answer: 0 },
            ))
            .unwrap();
        assert!(report.outcome.constraints > 0);
        let view = report.snapshot.answer(server.config(), &request).unwrap();
        assert!(!view.queries.is_empty());
        // All edge costs remain positive after learning.
        assert!(report.snapshot.graph().min_learnable_edge_cost().unwrap() > 0.0);
    }

    #[test]
    fn snapshot_answer_joins_sources_through_an_association_with_provenance() {
        let server = associated_server(false);
        let request = QueryRequest::new(["plasma membrane", "entry"]);
        let view = server.snapshot().answer(server.config(), &request).unwrap();
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
    fn unmatched_keywords_answer_an_empty_view_with_no_alpha() {
        let server = server();
        let request = QueryRequest::new(["qqqq", "zzzz"]);
        let view = server.snapshot().answer(server.config(), &request).unwrap();
        assert!(view.queries.is_empty());
        assert!(view.answers.is_empty());
        assert_eq!(view.alpha(), None);
    }

    #[test]
    fn view_nodes_map_keywords_to_graph_nodes() {
        let server = server();
        let snap = server.snapshot();
        let keywords = ["plasma membrane".to_string(), "entry".to_string()];
        let nodes = view_nodes(
            snap.graph(),
            snap.keyword_index(),
            &server.config().match_config,
            &keywords,
        );
        assert!(!nodes.is_empty());
        // "plasma membrane" is a go_term.name value: it lands on that
        // attribute's node.
        let name_attr = snap.catalog().resolve_qualified("go_term.name").unwrap();
        let name_node = snap.graph().attribute_node(name_attr).unwrap();
        assert!(nodes.contains(&name_node));
        let mut distinct = nodes.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), nodes.len(), "each node once");
    }

    #[test]
    fn view_based_ingest_adds_alignments_and_the_view_reaches_the_new_source() {
        let mut server = associated_server(false);
        server.add_matcher(Box::new(MadMatcher::new()));
        let request = QueryRequest::new(["plasma membrane", "title"]);
        let view = server.snapshot().answer(server.config(), &request).unwrap();
        // Before the publication source arrives, "title" matches nothing.
        assert!(view.answers.is_empty());

        let mut matchers_run = 0;
        let report = server
            .ingest_source_with(&new_pub_source(), |draft, matcher| {
                matchers_run += 1;
                view_based_alignments(draft, matcher, std::slice::from_ref(&view)).alignments
            })
            .unwrap();
        assert!(!report.alignments.is_empty());
        assert_eq!(matchers_run, 2, "one call per registered matcher");
        // The new source's entry_ac aligns with entry.entry_ac.
        let snap = &report.snapshot;
        let pub_entry_ac = snap.catalog().resolve_qualified("pub.entry_ac").unwrap();
        let entry_ac = snap.catalog().resolve_qualified("entry.entry_ac").unwrap();
        assert!(snap
            .graph()
            .association_between(pub_entry_ac, entry_ac)
            .is_some());
        // And the view now reaches publication titles.
        let view = snap.answer(server.config(), &request).unwrap();
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
        // Register the same source with the same matcher on two identical
        // servers, once inside the view's α-neighbourhood and once through
        // the no-views fallback, which is exhaustive.
        let comparisons = |view_based: bool| {
            let server = associated_server(false);
            let request = QueryRequest::new(["plasma membrane", "entry"]);
            let view = server.snapshot().answer(server.config(), &request).unwrap();
            let views = if view_based { vec![view] } else { Vec::new() };
            let mut comparisons = 0;
            server
                .ingest_source_with(&new_pub_source(), |draft, matcher| {
                    let outcome = view_based_alignments(draft, matcher, &views);
                    comparisons += outcome.stats.attribute_comparisons;
                    outcome.alignments
                })
                .unwrap();
            comparisons
        };
        let (ex_comparisons, vb_comparisons) = (comparisons(false), comparisons(true));
        assert!(
            vb_comparisons <= ex_comparisons,
            "view-based ({vb_comparisons}) should not exceed exhaustive ({ex_comparisons})"
        );
    }

    #[test]
    fn ingest_source_with_rejects_an_alignment_from_an_existing_attribute() {
        let server = server();
        let before = server.snapshot();
        let acc = before.catalog().resolve_qualified("go_term.acc").unwrap();
        let go_id = before
            .catalog()
            .resolve_qualified("interpro2go.go_id")
            .unwrap();
        // Both ends already exist: not an alignment of the new source.
        let err = server
            .ingest_source_with(&new_pub_source(), |_, _| {
                vec![AttributeAlignment::new(acc, go_id, 0.9)]
            })
            .unwrap_err();
        assert_eq!(
            err,
            QError::MisplacedAlignment {
                source_name: "pubdb".into(),
                attribute: acc,
            }
        );
        assert_eq!(server.snapshot().id(), before.id(), "nothing published");
        assert!(server
            .snapshot()
            .catalog()
            .source_by_name("pubdb")
            .is_none());
    }

    /// Every relation's tuples, in relation order.
    fn tuples(snapshot: &GraphSnapshot) -> Vec<Vec<q_storage::Tuple>> {
        let relations = snapshot.catalog().relations();
        relations.iter().map(|r| r.tuples.clone()).collect()
    }

    #[test]
    fn failed_ingest_publishes_nothing() {
        let server = server();
        let before = server.snapshot();
        let tuples_before = tuples(&before);
        // The row loads before the foreign key fails.
        let bad = SourceSpec::new("bad")
            .relation(RelationSpec::new("t", &["a"]).row(["x"]))
            .foreign_key("t.a", "missing.b");
        let err = server.ingest_source(&bad).unwrap_err();
        assert!(matches!(err, QError::SourceLoad { .. }));
        let after = server.snapshot();
        assert_eq!(before.id(), after.id());
        assert!(Arc::ptr_eq(&before, &after));
        assert!(after.catalog().source_by_name("bad").is_none());
        assert_eq!(tuples(&before), tuples_before);
    }

    #[test]
    fn publishes_share_every_part_they_leave_unchanged() {
        let server = server();
        let boot = server.snapshot();
        let resolve = |name: &str| boot.catalog().resolve_qualified(name).unwrap();

        // An association and a feedback change the graph alone: the next
        // snapshot holds its base's catalog and index, not copies.
        let associated =
            server.publish_association(resolve("go_term.acc"), resolve("interpro2go.go_id"), 0.9);
        server.publish_association(resolve("go_term.name"), resolve("entry.name"), 0.9);
        let base = server.snapshot();
        assert!(base.id() > associated.id());
        for snapshot in [&associated, &base] {
            assert!(Arc::ptr_eq(&snapshot.catalog, &boot.catalog));
            assert!(Arc::ptr_eq(&snapshot.keyword_index, &boot.keyword_index));
        }
        let fed = server
            .feedback(&FeedbackRequest::on_keywords(
                ["plasma membrane", "entry"],
                Feedback::Invalid { answer: 0 },
            ))
            .unwrap()
            .snapshot;
        assert!(fed.id() > base.id());
        assert!(Arc::ptr_eq(&fed.catalog, &base.catalog));
        assert!(Arc::ptr_eq(&fed.keyword_index, &base.keyword_index));

        // An ingest shares every pre-existing relation with its base and
        // leaves the base's relations and tuples as they were.
        let relations_before = fed.catalog().relations().len();
        let tuples_before = tuples(&fed);
        let ingested = server.ingest_source(&new_pub_source()).unwrap().snapshot;
        let (old, new) = ingested.catalog().relations().split_at(relations_before);
        assert_eq!(new.len(), 1, "the new source's one relation");
        for (shared, original) in old.iter().zip(fed.catalog().relations()) {
            assert!(Arc::ptr_eq(shared, original), "{} copied", original.name);
        }
        assert_eq!(fed.catalog().relations().len(), relations_before);
        assert_eq!(tuples(&fed), tuples_before);
        // `failed_ingest_publishes_nothing` pins the failed ingest.
    }
}

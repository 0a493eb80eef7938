//! Live-ingestion serving: snapshot-isolated concurrent reads while new
//! sources are incorporated end-to-end.
//!
//! The paper's headline capability is *automatically incorporating new
//! sources* into a running keyword-search integration system. A plain
//! [`QSystem`](crate::QSystem) does incorporate sources, but through
//! `&mut self` — registration and serving exclude each other, so every
//! topology change is a stop-the-world event for readers. This module
//! removes that coupling:
//!
//! * **[`GraphSnapshot`]** — one immutable, self-contained serving state:
//!   catalog + search graph (packed CSR) + keyword index, stamped with a
//!   snapshot id (the graph's weight epoch at publish). Readers answer
//!   queries against a snapshot without any lock; answers are a pure
//!   function of `(snapshot, request)`.
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
//!   new one.
//!
//! # Epoch/publish protocol and the cache verdict
//!
//! Every publish (ingest, association, feedback) runs one epilogue, which
//! syncs the shared cache *before* swapping the current snapshot pointer:
//!
//! 1. The writer builds the next snapshot off to the side (readers are
//!    untouched).
//! 2. It passes what changed as a [`Publish`] to [`QueryCache::sync`],
//!    which gives every entry one verdict. A re-pricing keeps the entries
//!    whose costs are bit-identical under the new prices. A growth publish
//!    carries an [`IngestionDelta`] — the new relations and the *bridge
//!    seeds*, every new edge incident to the pre-existing graph with its
//!    cost — and an entry is **kept** when the cheapest bridge-crossing
//!    path into its keywords' match nodes ([`q_graph::DeltaPricer`]) is
//!    strictly above its displacement threshold, **dropped** when it
//!    carries no re-validation model, and **parked** otherwise. A kept
//!    entry keeps its stamp: it serves the bytes of the snapshot that
//!    priced it.
//! 3. It swaps the snapshot pointer and deposits the parked entries with
//!    the background [`RevalidationLane`](crate::revalidate), which settles
//!    each one by fresh recompute — re-admitting identical bytes under
//!    their original snapshot, changed bytes under the new one — so the
//!    next hit serves a provably-fresh entry or misses normally, never a
//!    cold start caused purely by the bound's conservatism.
//!
//! A reader that computed an answer against snapshot `N` concurrently with
//! the publish cannot pollute the cache: inserts are guarded by the cache's
//! epoch (now `N+1`), so stale computations are served to their requester
//! and discarded. Every served answer is therefore byte-identical to the
//! sequential answer of *some published snapshot*, and
//! [`QueryOutcome::snapshot`] says which — the `live_ingest` stress test
//! replays exactly this claim against the publish log.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use q_graph::{KeywordIndex, NodeId, SearchGraph, ShardSet, SteinerScratch};
use q_learn::Mira;
use q_matchers::{AttributeAlignment, SchemaMatcher};
use q_storage::{AttributeId, Catalog, RelationId, SourceId, SourceSpec};

use crate::answer::RankedView;
use crate::cache::{
    normalize_keywords, IngestionDelta, Publish, QueryCache, QueryKey, RevalidationModel,
};
use crate::config::QConfig;
use crate::error::QError;
use crate::feedback::{FeedbackOutcome, FeedbackRequest, FeedbackTarget};
use crate::request::{CachePolicy, CacheStatus, QueryOutcome, QueryRequest};
use crate::revalidate::{RevalidationLane, RevalidationStats};
use crate::snapstore::{PersistStats, SnapshotPersister};
use crate::system::{learn_feedback, ServeParams, ServingState};

/// One immutable published serving state: everything a reader needs to
/// answer a query, frozen at publish time. Cheap to share (`Arc`) and safe
/// to read from any number of threads.
#[derive(Debug)]
pub struct GraphSnapshot {
    id: u64,
    catalog: Catalog,
    graph: SearchGraph,
    keyword_index: KeywordIndex,
    /// [`q_snap::accounted_bytes`] of the graph and index, computed once
    /// when the snapshot is built or loaded.
    snapshot_bytes: u64,
}

impl GraphSnapshot {
    fn build(catalog: Catalog, graph: SearchGraph, keyword_index: KeywordIndex) -> Self {
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
    /// assemble serving state out-of-band (e.g. the boot benchmark's
    /// synthetic corpus expansion) and then [`save`](Self::save) it or
    /// serve it via [`LiveServer::from_snapshot`]. The shard count is
    /// ignored: kept for `benchmark/`; removed in ROADMAP 1(b).
    pub fn assemble(catalog: Catalog, graph: SearchGraph, _shards: usize) -> GraphSnapshot {
        let keyword_index = KeywordIndex::build(&catalog);
        GraphSnapshot::build(catalog, graph, keyword_index)
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
                catalog: parts.catalog,
                graph: parts.graph,
                keyword_index: parts.keyword,
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
        request.validate()?;
        let refs: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        self.serving(config)
            .answer_keywords(
                &refs,
                ServeParams::resolve(config, request),
                false,
                &mut SteinerScratch::default(),
            )
            .map(|(view, _, _)| view)
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

/// What one publish did: the snapshot, the cache verdicts, and the
/// cheapest bridge seed (∞ when none).
struct Published {
    snapshot: Arc<GraphSnapshot>,
    kept: u64,
    parked: u64,
    dropped: u64,
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
    /// they must not be rebuilt per query (mirrors the batch workers).
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
        let snapshot = GraphSnapshot::build(catalog, graph, keyword_index);
        Self::from_snapshot(snapshot, config)
    }

    /// Build a live server directly over an existing snapshot — the
    /// boot-from-disk path: pair with [`GraphSnapshot::load`] to start
    /// serving the persisted state without re-running graph construction,
    /// matching or finalization.
    pub fn from_snapshot(snapshot: GraphSnapshot, config: QConfig) -> Self {
        let snapshot = Arc::new(snapshot);
        let mut cache = QueryCache::default();
        cache.sync(snapshot.id, &Publish::Epoch(&snapshot.graph));
        let cache = Arc::new(Mutex::new(cache));
        LiveServer {
            revalidator: RevalidationLane::start(config, Arc::clone(&cache)),
            config,
            current: RwLock::new(snapshot),
            cache,
            writer: Mutex::new(WriterState {
                matchers: Vec::new(),
                mira: Mira::new(),
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
        let snapshot = self.snapshot();
        let mut cache = QueryCache::with_capacity(capacity);
        cache.sync(snapshot.id, &Publish::Epoch(&snapshot.graph));
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
        let params = ServeParams::resolve(&self.config, request);
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
                // Insert only when the computed answer still belongs to the
                // current epoch: a publish that raced this computation has
                // already re-validated the cache for its own snapshot, and a
                // stale insert would undo that. The requester still gets its
                // (snapshot-consistent) answer either way.
                let mut cache = self.cache.lock().expect("cache lock poisoned");
                if cache.epoch() == snapshot.id {
                    cache.insert(
                        key.expect("non-bypass policy builds a key"),
                        Arc::clone(&view),
                        model.expect("non-bypass policy builds a model"),
                        snapshot.id,
                        false,
                    );
                }
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
        let writer = self.writer.lock().expect("writer lock poisoned");
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
        let mut keyword_index = base.keyword_index.clone();
        let new_relations: Vec<RelationId> = catalog
            .source(source)
            .map(|s| s.relations.clone())
            .unwrap_or_default();
        for rel in &new_relations {
            keyword_index.add_relation(&catalog, *rel);
        }
        let mut alignments: Vec<AttributeAlignment> = Vec::new();
        for matcher in &writer.matchers {
            let proposed = matcher.match_source(&catalog, source, self.config.top_y);
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
            catalog,
            graph,
            keyword_index,
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
        let _writer = self.writer.lock().expect("writer lock poisoned");
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
            base.catalog.clone(),
            graph,
            base.keyword_index.clone(),
            change,
        );
        published.snapshot
    }

    /// Apply user feedback to the live model and publish the re-priced
    /// snapshot, without stopping reads.
    ///
    /// Live serving has no persistent views, so the request must target a
    /// keyword query ([`FeedbackTarget::Keywords`]); the annotated answers
    /// are the current snapshot's sequential answer for those keywords —
    /// exactly the bytes a [`query`](Self::query) against this snapshot
    /// serves, so answer indices in the annotation line up with what the
    /// user saw. [`FeedbackTarget::View`] is rejected as an invalid request.
    ///
    /// The MIRA update re-prices association edges (same topology, new
    /// weights), so this is a re-pricing publish: cached entries whose costs
    /// moved drop, bit-identical ones are kept.
    pub fn feedback(&self, request: &FeedbackRequest) -> Result<LiveFeedbackReport, QError> {
        let FeedbackTarget::Keywords(keywords) = request.target() else {
            return Err(QError::InvalidRequest {
                field: "target",
                reason: "live serving has no persistent views — target feedback by \
                         keywords"
                    .into(),
            });
        };
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();

        // The view being annotated: the snapshot's sequential answer.
        let query = QueryRequest::new(keywords.iter().cloned());
        let view = base.answer(&self.config, &query)?;

        let mut graph = base.graph.clone();
        let outcome = learn_feedback(
            &mut graph,
            &base.keyword_index,
            &self.config,
            &mut writer.mira,
            &view,
            0,
            request.feedback(),
        )?;
        let published = self.publish(
            base.catalog.clone(),
            graph,
            base.keyword_index.clone(),
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
    /// re-validation lane and deposit the snapshot for persistence. The
    /// caller holds the writer lane, so the current snapshot is the base
    /// the next one grew from.
    fn publish(
        &self,
        catalog: Catalog,
        graph: SearchGraph,
        keyword_index: KeywordIndex,
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
                let base = &self.snapshot().graph;
                let old_nodes = base.node_count();
                seeds = next.graph.edges()[base.edge_count()..]
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
        // Sync the cache before the pointer swap: from this moment on,
        // stale in-flight computations fail the insert epoch guard.
        let sync = self
            .cache
            .lock()
            .expect("cache lock poisoned")
            .sync(next.id, &publish);
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Feedback;
    use crate::request::SearchStrategy;
    use q_matchers::MetadataMatcher;
    use q_storage::RelationSpec;

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
    fn feedback_rejects_view_targets_and_publishes_nothing_on_error() {
        let server = server();
        let before = server.snapshot();
        let err = server
            .feedback(&FeedbackRequest::on_view(
                0,
                Feedback::Correct { answer: 0 },
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            QError::InvalidRequest {
                field: "target",
                ..
            }
        ));

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
        assert!(matches!(err, QError::UnknownAnswer { .. }));
        assert_eq!(server.snapshot().id(), published.id());
        assert!(server.snapshot().id() > before.id());
    }

    #[test]
    fn failed_ingest_publishes_nothing() {
        let server = server();
        let before = server.snapshot();
        let bad = SourceSpec::new("bad")
            .relation(RelationSpec::new("t", &["a"]))
            .foreign_key("t.a", "missing.b");
        let err = server.ingest_source(&bad).unwrap_err();
        assert!(matches!(err, QError::SourceLoad { .. }));
        let after = server.snapshot();
        assert_eq!(before.id(), after.id());
        assert!(after.catalog().source_by_name("bad").is_none());
    }
}

//! Weight-epoch-keyed answer cache, judged by one verdict per publish.
//!
//! Every answer a Q view serves is a pure function of (the keyword query,
//! the per-request serving parameters, the search graph's topology, the
//! edge-cost weights). The search graph collapses the last two into one
//! monotone counter — its *weight epoch*, bumped by every MIRA re-pricing
//! and every topology change (see
//! [`SearchGraph::weight_epoch`](q_graph::SearchGraph::weight_epoch)). The
//! cache keys entries on [`QueryKey`] — normalized keywords plus the
//! request's parameter fingerprint — and tracks the epoch its entries were
//! priced under.
//!
//! # One verdict per entry per publish
//!
//! Every moved epoch reaches the cache through one sync, with what changed
//! passed as data ([`Publish`]). The publish-level facts are computed at
//! most once per publish; then each entry gets one verdict. **Keep**: it
//! stays cached with its stamp
//! and FIFO position, and hits report
//! [`CacheStatus::Revalidated`](crate::CacheStatus). **Park**: it leaves
//! the cache (lookups miss) and is returned in [`SyncReport::parked`] for
//! the [re-validation lane](crate::revalidate). **Drop**: it leaves the
//! cache; the next lookup recomputes.
//!
//! * [`Publish::Reprice`] (live feedback, a live merged opinion). A live
//!   hit must be byte-identical to the snapshot it names, so nothing is
//!   re-priced in place: an entry whose costs are all bit-identical under
//!   the new prices is kept, any other dropped.
//! * [`Publish::Growth`] (a live ingest, a new association edge). Keep,
//!   park or drop by per-entry reachability pricing; see
//!   [`QueryCache::sync`].
//! * Lane admission ([`QueryCache::insert`] with `revalidated` set): the
//!   re-validation lane re-admits a parked entry it settled.
//!
//! # A sync in three steps, two of them under the lock
//!
//! A growth verdict prices keywords against the whole new graph, which
//! takes far longer than a reader may wait for the cache mutex. So
//! [`QueryCache::sync`] holds the lock only to read and to write:
//!
//! 1. Locked: raise the epoch to the new snapshot's id and copy out what
//!    the verdicts read: each entry's key, view and model, all shared
//!    (`Arc`), none deep-copied. From here on [`QueryCache::insert`]
//!    refuses every answer computed on an older snapshot, a reader's miss
//!    and a lane re-admission alike.
//! 2. Unlocked: compute every verdict. Meanwhile hits serve the bytes
//!    stamped on each entry before the publish, which the replay contract
//!    allows: they are the answer of the stamped snapshot.
//! 3. Locked: apply the verdicts in one pass. A verdict applies only to
//!    the very view it judged (`Arc::ptr_eq`); an entry admitted or
//!    overwritten under the new epoch in between is an answer of the new
//!    snapshot and stays as it is.
//!
//! The caller owns the publish's [`DeltaPricer`] — in live serving, the
//! writer lane, which runs one publish at a time — and the sync runs it
//! only when the first entry needs a price.
//!
//! # What "kept" means
//!
//! A kept entry serves the bytes of the snapshot stamped on it, and only
//! a lane re-admission or a recompute moves that stamp. After a growth
//! publish, the kept entry is *not* the new snapshot's answer byte for
//! byte: keyword idf, `ln(1 + N/df)`, moves with every ingest, so the
//! keyword-edge costs of old trees move too. What keep promises is that
//! no tree the publish enabled displaces the ranked list; the costs
//! echoed stay those of the stamped snapshot, which is why the stamp must
//! not advance.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use q_graph::keyword::MatchConfig;
use q_graph::{DeltaPricer, EdgeId, FeatureVector, KeywordIndex, NodeId, SearchGraph};
use q_storage::{text, Catalog, RelationId};

use crate::answer::RankedView;
use crate::request::QueryParamsKey;

/// Normalise a keyword query into the keyword half of its cache key:
/// per-keyword [`text::normalize`], order and arity preserved. Order
/// determines view column order and every keyword — even a blank one —
/// becomes a Steiner terminal (a blank keyword matches nothing, leaving its
/// terminal unreachable and the view empty), so both are part of the key.
///
/// Two spellings with equal keys produce identical ranked answers; only the
/// verbatim `keywords` echo in the cached [`RankedView`] may differ.
pub fn normalize_keywords(keywords: &[&str]) -> Vec<String> {
    keywords.iter().map(|k| text::normalize(k)).collect()
}

/// Cache key of one query: the normalized keywords plus the request's
/// answer-changing overrides (see
/// [`QueryRequest::params_key`](crate::QueryRequest::params_key)). Two
/// requests with equal keys produce byte-identical ranked answers under
/// equal weight epochs; a request with no overrides has the default
/// `params`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Normalized keywords, order and arity preserved.
    pub keywords: Vec<String>,
    /// The request's overrides; `QueryParamsKey::default()` for a default
    /// request.
    pub params: QueryParamsKey,
}

/// One summand of a cached tree's cost under arbitrary weights.
///
/// Terms are kept in the tree's sorted-edge order so the re-priced sum is
/// bit-identical to what a fresh
/// [`SteinerTree::from_edges`](q_graph::SteinerTree) accumulation would
/// produce — cached and recomputed costs must compare equal, not merely
/// close.
#[derive(Debug, Clone, PartialEq)]
pub enum CostTerm {
    /// A search-graph edge: the graph stays authoritative for its features
    /// (an edge can gain matcher-bin features after the answer was cached).
    Base(EdgeId),
    /// A query-local keyword/value edge: its features exist only while the
    /// query graph lives, so the cache keeps the copy needed to re-price it
    /// (empty for the fixed-zero value-attachment edges).
    Local(FeatureVector),
}

/// Cost model of one cached ranked query: enough to re-price its tree in
/// O(edges) without rebuilding the query graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeCostModel {
    terms: Vec<CostTerm>,
}

impl TreeCostModel {
    /// Model from cost terms in sorted-edge order.
    pub fn new(terms: Vec<CostTerm>) -> Self {
        TreeCostModel { terms }
    }

    /// The tree's cost under the graph's current weights.
    pub fn cost(&self, graph: &SearchGraph) -> f64 {
        let weights = graph.weights();
        let mut cost = 0.0;
        for term in &self.terms {
            cost += match term {
                CostTerm::Base(e) => graph.edge_cost(*e),
                CostTerm::Local(fv) => fv.dot(weights),
            };
        }
        cost
    }
}

/// Everything the cache needs to re-price one entry on an epoch delta:
/// per-ranked-query cost models plus the serving constraints the answer was
/// computed under.
#[derive(Debug, Clone, PartialEq)]
pub struct RevalidationModel {
    /// One cost model per ranked query of the view, in rank order.
    pub trees: Vec<TreeCostModel>,
    /// Effective cost budget of the request (`f64::INFINITY` when none):
    /// the growth verdict's displacement threshold for a partial ranked
    /// list.
    pub budget: f64,
    /// False for answers whose strategy cannot be revalidated by re-costing
    /// (e.g. an exact-minimum search: new weights may crown a different
    /// provably-minimum tree). Such entries are dropped at every publish.
    pub revalidatable: bool,
    /// Effective `top_k` the answer was computed under. The growth verdict
    /// needs it to know whether the ranked list is *full*:
    /// a full list is only disturbed by a new tree cheaper than its worst
    /// entry, while a partial list accepts any tree within budget.
    pub top_k: usize,
}

impl Default for RevalidationModel {
    fn default() -> Self {
        RevalidationModel {
            trees: Vec::new(),
            budget: f64::INFINITY,
            revalidatable: true,
            // "Never provably full": the conservative default for models
            // built outside the serving path (tests, manual inserts).
            top_k: usize::MAX,
        }
    }
}

/// A successful cache lookup: the view plus whether it was carried across
/// at least one publish since it was computed (serving layers report that
/// as [`CacheStatus::Revalidated`](crate::CacheStatus)).
#[derive(Debug, Clone)]
pub struct CacheLookup {
    /// The cached view.
    pub view: Arc<RankedView>,
    /// True when the entry was kept across a publish or re-admitted by the
    /// re-validation lane.
    pub revalidated: bool,
    /// Epoch (in live serving: published snapshot id) the entry was computed
    /// under. A kept entry keeps reporting the snapshot that actually
    /// priced it — serving layers surface this as "answered from snapshot
    /// N" provenance.
    pub snapshot: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    view: Arc<RankedView>,
    model: Arc<RevalidationModel>,
    revalidated: bool,
    /// Epoch/snapshot the entry's answer was computed under; verdicts never
    /// advance it.
    snapshot: u64,
}

/// What one live growth publish changed: the input of
/// [`Publish::Growth`]. Built by the live serving layer from the
/// difference between the outgoing and incoming snapshots.
#[derive(Debug, Clone, Copy)]
pub struct IngestionDelta<'a> {
    /// The *new* snapshot's catalog (new documents' owning relations are
    /// resolved against it).
    pub catalog: &'a Catalog,
    /// The new snapshot's keyword index.
    pub keyword_index: &'a KeywordIndex,
    /// The match configuration queries are served with.
    pub match_config: &'a MatchConfig,
    /// Relations the ingestion added (the new source's relations; empty for
    /// a pure association publish).
    pub new_relations: &'a [RelationId],
    /// The *new* snapshot's merged search graph: per-entry reachability
    /// pricing runs over it, so new join paths may route through the grown
    /// part and still be priced correctly.
    pub graph: &'a SearchGraph,
    /// Seeds of the reachability pricing: both endpoints of every *bridge*
    /// edge — a new edge with at least one endpoint in the pre-existing
    /// graph — each carrying that bridge's cost as its starting distance.
    /// Any join tree the ingestion enables for an old query must contain a
    /// bridge, so the multi-source distance into an entry's match nodes
    /// lower-bounds every new competing tree. Empty when the ingestion
    /// added no bridge (nothing new is reachable from the old graph).
    pub bridge_seeds: &'a [(NodeId, f64)],
}

/// What a publish changed, as [`QueryCache::sync`] sees it. See the
/// module docs for the verdicts each kind produces.
#[derive(Debug, Clone, Copy)]
pub enum Publish<'a> {
    /// A live same-topology publish with new prices, over the new graph.
    Reprice(&'a SearchGraph),
    /// A live publish that grew the graph.
    Growth(IngestionDelta<'a>),
}

/// One entry parked by a [`Publish::Growth`] verdict and handed to the
/// background re-validation lane instead of being forgotten: everything the
/// lane needs to recompute the answer against the new snapshot and decide
/// whether the old bytes still stand.
#[derive(Debug, Clone)]
pub struct ParkedEntry {
    /// Cache key (normalized keywords plus parameter fingerprint).
    pub key: QueryKey,
    /// The view the entry served before the publish.
    pub view: Arc<RankedView>,
    /// The view's cost model, in search-graph terms (stable across
    /// publishes — the lane compares it against the recompute's model to
    /// detect answers that only shifted query-graph terminal ids).
    pub model: Arc<RevalidationModel>,
    /// Snapshot that priced `view`.
    pub snapshot: u64,
}

/// Outcome of one [`QueryCache::sync`]: what stayed, what was
/// handed to the re-validation lane, what dropped outright, and what the
/// verdicts cost.
#[derive(Debug, Default)]
pub struct SyncReport {
    /// Entries kept: still cached, and hits report
    /// [`CacheStatus::Revalidated`](crate::CacheStatus).
    pub kept: u64,
    /// Entries parked: removed from the cache (lookups miss — no stale
    /// bytes can be served) and returned for background re-validation.
    pub parked: Vec<ParkedEntry>,
    /// Entries dropped outright.
    pub dropped: u64,
    /// Distinct keywords whose price (the bridge-seeded distance into their
    /// match nodes) a growth verdict computed.
    pub keywords_priced: u64,
    /// Distinct keywords a growth verdict tested for a match among the new
    /// relations.
    pub keywords_checked_new: u64,
}

/// One entry's verdict at a publish (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Verdict {
    Keep,
    Park,
    Drop,
}

/// What one entry's verdict reads, copied out of the cache at the epoch
/// bump.
#[derive(Debug)]
struct Pending {
    key: QueryKey,
    view: Arc<RankedView>,
    model: Arc<RevalidationModel>,
}

/// One publish's verdicts by key, one per entry present at its epoch bump,
/// each with the view it judged.
type Verdicts = HashMap<QueryKey, (Arc<RankedView>, Verdict)>;

/// The publish-level facts every verdict reads, computed at most once per
/// sync.
enum Facts<'a> {
    /// A live same-topology re-pricing over the new graph.
    Reprice(&'a SearchGraph),
    /// A live growth publish.
    Growth(KeywordFacts<'a>),
}

/// What a growth publish means for each keyword, memoised by normalised
/// keyword. Both facts are pure functions of (keyword, publish), so each
/// is computed at most once per publish — and only when a verdict asks for
/// it — and shared by every entry that uses the keyword.
struct KeywordFacts<'a> {
    delta: IngestionDelta<'a>,
    /// The publish's bridge-seeded distances, run before the first price.
    pricer: &'a mut DeltaPricer,
    priced: bool,
    /// Keyword → it matches a document of the new relations.
    in_new: HashMap<String, bool>,
    /// Keyword → cheapest bridge-seeded distance into its match nodes in
    /// the new graph: ∞ when it has no match (or none that resolves to a
    /// graph node) — a tree cannot connect what does not exist.
    price: HashMap<String, f64>,
}

impl KeywordFacts<'_> {
    fn in_new(&mut self, keyword: &str) -> bool {
        if let Some(&in_new) = self.in_new.get(keyword) {
            return in_new;
        }
        let d = &self.delta;
        let in_new =
            d.keyword_index
                .keyword_matches_in(keyword, d.catalog, d.new_relations, d.match_config);
        self.in_new.insert(keyword.to_owned(), in_new);
        in_new
    }

    fn price(&mut self, keyword: &str) -> f64 {
        if let Some(&price) = self.price.get(keyword) {
            return price;
        }
        let d = &self.delta;
        if !self.priced {
            self.pricer.run(d.graph, d.bridge_seeds, f64::INFINITY);
            self.priced = true;
        }
        let price = d
            .keyword_index
            .matches(keyword, d.match_config)
            .iter()
            // A value node attaches to its attribute at zero cost, so the
            // attribute's distance bounds the value's too.
            .filter_map(|m| d.graph.match_node(&m.target))
            .map(|n| self.pricer.dist(n))
            .fold(f64::INFINITY, f64::min);
        self.price.insert(keyword.to_owned(), price);
        price
    }
}

/// Answer cache for the query path. See the module docs for the coherence
/// rule; capacity-bounded with FIFO eviction (the workloads Q serves repeat
/// whole query sets, where FIFO and LRU behave identically and FIFO needs no
/// bookkeeping on hits). Kept entries retain their original insertion
/// order — surviving a publish does not make an entry young.
#[derive(Debug, Clone)]
pub struct QueryCache {
    /// The last publish synced ([`QueryCache::sync`]): the only epoch
    /// [`QueryCache::insert`] admits answers computed on.
    epoch: u64,
    entries: HashMap<QueryKey, CacheEntry>,
    insertion_order: VecDeque<QueryKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
    revalidations: u64,
}

/// Default maximum number of cached views.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl QueryCache {
    /// Empty cache holding at most `capacity` views, synced at `epoch`:
    /// answers computed against that epoch (in live serving: the published
    /// snapshot id) are admitted, older ones are not. A capacity of `0` is
    /// clamped to 1 rather than panicking or silently caching nothing — the
    /// serving path relies on "insert then get" succeeding at least for the
    /// entry just computed.
    pub fn new(capacity: usize, epoch: u64) -> Self {
        QueryCache {
            epoch,
            entries: HashMap::new(),
            insertion_order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            invalidations: 0,
            revalidations: 0,
        }
    }

    /// Align the shared cache with a publish at `epoch`: every entry
    /// present at the epoch bump gets one verdict, and the cache takes
    /// `epoch` as the stamp fresh inserts are guarded by. `cache` is locked
    /// twice, briefly — to raise the epoch and copy the entries out, then
    /// to apply the verdicts — and the verdicts are computed in between
    /// with the lock released (see the module docs).
    ///
    /// For [`Publish::Growth`], one multi-source Dijkstra over the new
    /// graph, seeded at the bridge edges ([`IngestionDelta::bridge_seeds`]),
    /// yields `dist(v)` — a lower bound on any new join tree that touches
    /// `v`. It runs on `pricer` (the caller's reusable buffers) only when
    /// the first entry needs a price. An entry's price is the max over its
    /// keywords of the cheapest distance into that keyword's match nodes
    /// (every new competing tree must reach *all* of them), and the entry
    /// is **kept** when
    ///
    /// 1. not every one of its keywords matches a document of the new
    ///    relations (a tree living entirely inside the new source crosses
    ///    no bridge, so no price covers it), and
    /// 2. its price is strictly above its displacement threshold: the worst
    ///    ranked cost when the list is full, the request's cost budget when
    ///    it is not.
    ///
    /// Entries failing the bound are **parked**; only entries with no
    /// re-costing argument at all (non-revalidatable strategy, malformed
    /// model) drop outright.
    pub fn sync(
        cache: &Mutex<QueryCache>,
        epoch: u64,
        publish: &Publish,
        pricer: &mut DeltaPricer,
    ) -> SyncReport {
        let pending = cache.lock().expect("cache lock poisoned").begin_sync(epoch);
        let (verdicts, report) = judge(pending, publish, pricer);
        cache
            .lock()
            .expect("cache lock poisoned")
            .finish_sync(verdicts, report)
    }

    /// Step 1 of [`sync`](Self::sync): raise the epoch fresh inserts are
    /// guarded by, and copy out what each entry's verdict reads. The copy
    /// shares every view and model (`Arc`), so it is short enough to hold
    /// the cache lock for.
    fn begin_sync(&mut self, epoch: u64) -> Vec<Pending> {
        self.epoch = epoch;
        self.entries
            .iter()
            .map(|(key, entry)| Pending {
                key: key.clone(),
                view: Arc::clone(&entry.view),
                model: Arc::clone(&entry.model),
            })
            .collect()
    }

    /// Step 3 of [`sync`](Self::sync): apply one publish's verdicts in one
    /// pass, counting them into `report`. Kept entries stay (in their FIFO positions) and report
    /// `Revalidated` on hits, parked ones leave for [`SyncReport::parked`],
    /// dropped ones leave. A verdict applies only to the view it judged:
    /// an entry with no verdict, or whose view was overwritten after
    /// [`begin_sync`](Self::begin_sync), was admitted under the new epoch —
    /// an answer of the new snapshot — and stays as it is.
    fn finish_sync(&mut self, mut verdicts: Verdicts, mut report: SyncReport) -> SyncReport {
        self.entries
            .retain(|key, entry| match verdicts.remove(key) {
                Some((judged, verdict)) if Arc::ptr_eq(&judged, &entry.view) => match verdict {
                    Verdict::Keep => {
                        entry.revalidated = true;
                        report.kept += 1;
                        true
                    }
                    Verdict::Park => {
                        report.parked.push(ParkedEntry {
                            key: key.clone(),
                            view: judged,
                            model: Arc::clone(&entry.model),
                            snapshot: entry.snapshot,
                        });
                        false
                    }
                    Verdict::Drop => {
                        report.dropped += 1;
                        false
                    }
                },
                _ => true,
            });
        self.invalidations += report.dropped;
        self.revalidations += report.kept;
        if report.dropped > 0 || !report.parked.is_empty() {
            // Kept entries stay in their original FIFO positions.
            self.insertion_order
                .retain(|k| self.entries.contains_key(k));
        }
        self.enforce_capacity();
        report
    }

    /// Look up a query key, counting the hit or miss.
    pub fn get(&mut self, key: &QueryKey) -> Option<CacheLookup> {
        match self.entries.get(key) {
            Some(entry) => {
                self.hits += 1;
                Some(CacheLookup {
                    view: Arc::clone(&entry.view),
                    revalidated: entry.revalidated,
                    snapshot: entry.snapshot,
                })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The one admission path: cache a view under a key together with the
    /// cost model later verdicts need, stamped with `snapshot` — the epoch
    /// (in live serving: the snapshot id) whose answer the view is — if it
    /// was `computed_on` the cache's current epoch (the last publish
    /// synced), and say whether it was admitted. An answer computed on an
    /// older epoch was superseded by a publish that already raised it, so
    /// it is refused. `revalidated` marks a re-admission by the re-validation
    /// lane: its hits report [`CacheStatus::Revalidated`](crate::CacheStatus)
    /// and it counts as a revalidation. Overwriting an existing key keeps
    /// its FIFO position; a new key evicts the oldest entry when full.
    pub fn insert(
        &mut self,
        computed_on: u64,
        key: QueryKey,
        view: Arc<RankedView>,
        model: RevalidationModel,
        snapshot: u64,
        revalidated: bool,
    ) -> bool {
        if computed_on != self.epoch {
            return false;
        }
        self.revalidations += u64::from(revalidated);
        let entry = CacheEntry {
            view,
            model: Arc::new(model),
            revalidated,
            snapshot,
        };
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = entry;
            return true;
        }
        self.insertion_order.push_back(key.clone());
        self.entries.insert(key, entry);
        self.enforce_capacity();
        true
    }

    /// The single place the FIFO capacity bound is enforced: both mutations
    /// (`insert` and `sync`) funnel through here, so the map can never be
    /// observed over capacity.
    fn enforce_capacity(&mut self) {
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.insertion_order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
        debug_assert!(self.entries.len() <= self.capacity);
        debug_assert!(self.insertion_order.len() == self.entries.len());
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh computation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by a sync verdict (not capacity eviction or
    /// parking): costs moved by a re-pricing, or no re-costing model.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Entries kept by a sync verdict, plus lane re-admissions.
    pub fn revalidations(&self) -> u64 {
        self.revalidations
    }
}

/// Step 2 of [`QueryCache::sync`]: every entry's verdict under `publish`,
/// with no cache lock held, and a report holding what the verdicts cost.
fn judge(
    entries: Vec<Pending>,
    publish: &Publish,
    pricer: &mut DeltaPricer,
) -> (Verdicts, SyncReport) {
    let mut facts = match *publish {
        Publish::Reprice(graph) => Facts::Reprice(graph),
        Publish::Growth(delta) => Facts::Growth(KeywordFacts {
            delta,
            pricer,
            priced: false,
            in_new: HashMap::new(),
            price: HashMap::new(),
        }),
    };
    let verdicts = entries
        .into_iter()
        .map(|entry| {
            let verdict = verdict(&entry, &mut facts);
            (entry.key, (entry.view, verdict))
        })
        .collect();
    let mut report = SyncReport::default();
    if let Facts::Growth(keywords) = &facts {
        report.keywords_priced = keywords.price.len() as u64;
        report.keywords_checked_new = keywords.in_new.len() as u64;
    }
    (verdicts, report)
}

/// One entry's verdict under the publish's facts.
fn verdict(entry: &Pending, facts: &mut Facts) -> Verdict {
    let model = &entry.model;
    let queries = &entry.view.queries;
    if !model.revalidatable || model.trees.len() != queries.len() {
        return Verdict::Drop;
    }
    match facts {
        Facts::Reprice(graph) => {
            let unchanged = model
                .trees
                .iter()
                .zip(queries)
                .all(|(m, q)| m.cost(graph).to_bits() == q.cost.to_bits());
            if unchanged {
                Verdict::Keep
            } else {
                Verdict::Drop
            }
        }
        Facts::Growth(keywords) => {
            // Displacement threshold: what a new tree would have to
            // beat. A full ranked list is guarded by its worst cost; a
            // partial list accepts anything within the request's budget.
            let threshold = match queries.last() {
                Some(worst) if queries.len() >= model.top_k => worst.cost,
                _ => model.budget,
            };
            // No price is strictly above an unbounded threshold, so
            // such an entry parks without pricing anything.
            if threshold == f64::INFINITY {
                return Verdict::Park;
            }
            // Every candidate tree a publish enables either touches the
            // new region — and must then cross a bridge edge, so the
            // price below bounds it — or uses only pre-existing nodes
            // and so is no new competitor. The one escape is a tree
            // living *entirely* inside the new source: it crosses no
            // bridge and no cost argument covers it. Such a tree needs
            // a match for every keyword among the new relations, so
            // only an entry whose whole keyword set matches there parks
            // unconditionally.
            let keys = &entry.key.keywords;
            if keys.iter().all(|kw| keywords.in_new(kw)) {
                return Verdict::Park;
            }
            // Any tree the publish enables connects *every* keyword's
            // match node across a bridge, so it costs at least the max
            // of the keywords' prices (edge costs are kept positive by
            // the learner). Strictly above: a tie could reorder a fresh
            // search's stable sort. The max only grows, so pricing stops
            // at the first keyword that clears the threshold.
            let mut price: f64 = 0.0;
            for kw in keys {
                price = price.max(keywords.price(kw));
                if price > threshold {
                    break;
                }
            }
            if price > threshold {
                Verdict::Keep
            } else {
                Verdict::Park
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::RankedQuery;
    use q_graph::SteinerTree;
    use q_storage::ConjunctiveQuery;

    fn view(tag: &str) -> Arc<RankedView> {
        Arc::new(RankedView {
            keywords: vec![tag.to_string()],
            ..RankedView::default()
        })
    }

    /// Key for a default request (no overrides) over raw keywords.
    fn key(keywords: &[&str]) -> QueryKey {
        QueryKey {
            keywords: normalize_keywords(keywords),
            params: QueryParamsKey::default(),
        }
    }

    /// Insert a freshly computed view, stamped with the cache's epoch.
    fn admit(
        cache: &mut QueryCache,
        key: QueryKey,
        view: Arc<RankedView>,
        model: RevalidationModel,
    ) {
        let epoch = cache.epoch;
        assert!(cache.insert(epoch, key, view, model, epoch, false));
    }

    /// One whole [`QueryCache::sync`] of a cache the test owns.
    fn run_sync(cache: &mut QueryCache, epoch: u64, publish: &Publish) -> SyncReport {
        let shared = Mutex::new(std::mem::replace(cache, QueryCache::new(1, 0)));
        let report = QueryCache::sync(&shared, epoch, publish, &mut DeltaPricer::default());
        *cache = shared.into_inner().expect("cache lock poisoned");
        report
    }

    /// Two single-attribute sources joined by one association edge whose
    /// cost the tests can steer through the weight vector (and which the
    /// cached view's single tree carries). Returns the catalog, graph and
    /// that edge.
    fn fixture() -> (q_storage::Catalog, SearchGraph, q_graph::EdgeId) {
        use q_storage::{RelationSpec, SourceSpec};
        let mut cat = q_storage::Catalog::new();
        SourceSpec::new("a")
            .relation(RelationSpec::new("r1", &["x"]))
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("b")
            .relation(RelationSpec::new("r2", &["y"]))
            .load_into(&mut cat)
            .unwrap();
        let mut g = SearchGraph::from_catalog(&cat);
        let x = cat.resolve_qualified("r1.x").unwrap();
        let y = cat.resolve_qualified("r2.y").unwrap();
        let e = g.add_association(x, y, "mad", 0.9);
        (cat, g, e)
    }

    /// The fixture's graph and association edge.
    fn graph() -> (SearchGraph, q_graph::EdgeId) {
        let (_, g, e) = fixture();
        (g, e)
    }

    /// A single-query view whose tree consists of the given base edge.
    fn priced_view(
        graph: &SearchGraph,
        edge: q_graph::EdgeId,
    ) -> (Arc<RankedView>, RevalidationModel) {
        let cost = graph.edge_cost(edge);
        let view = Arc::new(RankedView {
            keywords: vec!["q".into()],
            queries: vec![RankedQuery {
                tree: SteinerTree {
                    edges: vec![edge],
                    nodes: vec![],
                    cost,
                },
                query: ConjunctiveQuery::new(),
                cost,
            }],
            ..RankedView::default()
        });
        let model = RevalidationModel {
            trees: vec![TreeCostModel::new(vec![CostTerm::Base(edge)])],
            budget: f64::INFINITY,
            revalidatable: true,
            ..RevalidationModel::default()
        };
        (view, model)
    }

    #[test]
    fn normalization_trims_lowercases_and_keeps_order_and_arity() {
        assert_eq!(
            normalize_keywords(&["  Plasma ", "MEMBRANE", "", "entry"]),
            vec!["plasma", "membrane", "", "entry"]
        );
        // Order is part of the key.
        assert_ne!(
            normalize_keywords(&["a", "b"]),
            normalize_keywords(&["b", "a"])
        );
        // So is arity: a blank keyword still adds an (unreachable) Steiner
        // terminal, which empties the view — it must not share a key with
        // the query that lacks it.
        assert_ne!(normalize_keywords(&["a", "  "]), normalize_keywords(&["a"]));
    }

    #[test]
    fn params_distinguish_otherwise_equal_keys() {
        let plain = key(&["a"]);
        let tuned = QueryKey {
            keywords: normalize_keywords(&["a"]),
            params: crate::QueryRequest::new(["a"]).top_k(1).params_key(),
        };
        assert_ne!(plain, tuned);
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        admit(
            &mut cache,
            plain.clone(),
            view("plain"),
            RevalidationModel::default(),
        );
        admit(
            &mut cache,
            tuned.clone(),
            view("tuned"),
            RevalidationModel::default(),
        );
        assert_eq!(cache.get(&plain).unwrap().view.keywords, vec!["plain"]);
        assert_eq!(cache.get(&tuned).unwrap().view.keywords, vec!["tuned"]);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let (g, _) = graph();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let key = key(&["plasma membrane"]);
        assert!(cache.get(&key).is_none());
        admit(
            &mut cache,
            key.clone(),
            view("v"),
            RevalidationModel::default(),
        );
        let got = cache.get(&key).expect("cached");
        assert_eq!(got.view.keywords, vec!["v"]);
        assert!(!got.revalidated, "no epoch delta crossed yet");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn non_revalidatable_entries_drop_on_any_repricing() {
        let (mut g, e) = graph();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let (v, mut model) = priced_view(&g, e);
        model.revalidatable = false;
        admit(&mut cache, key(&["q"]), v, model);
        // Even a re-pricing that moves no cost (a revalidatable twin is
        // kept: see the next test) drops an entry with no re-costing model.
        let w = g.weights().clone();
        g.set_weights(w);
        run_sync(&mut cache, g.weight_epoch(), &Publish::Reprice(&g));
        assert!(cache.is_empty());
    }

    #[test]
    fn identical_weights_epoch_bump_keeps_entries_verbatim() {
        let (mut g, e) = graph();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let (v, model) = priced_view(&g, e);
        admit(&mut cache, key(&["q"]), Arc::clone(&v), model);
        // Re-setting the same weights bumps the epoch without changing any
        // cost: every price is bit-identical, so the entry survives with its
        // original allocation.
        let w = g.weights().clone();
        g.set_weights(w);
        run_sync(&mut cache, g.weight_epoch(), &Publish::Reprice(&g));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidations(), 0);
        assert_eq!(cache.revalidations(), 1);
        let hit = cache.get(&key(&["q"])).unwrap();
        assert!(Arc::ptr_eq(&hit.view, &v), "view must be kept verbatim");
    }

    /// The state after ingesting source `c` (relation `r3`, disjoint
    /// vocabulary) into the fixture, bridged to `r1.x`: everything a
    /// [`Publish::Growth`] borrows.
    struct Grown {
        cat: q_storage::Catalog,
        g: SearchGraph,
        idx: KeywordIndex,
        new_relations: [RelationId; 1],
        bridge: EdgeId,
        seeds: Vec<(NodeId, f64)>,
        match_config: MatchConfig,
    }

    impl Grown {
        fn publish(&self) -> Publish<'_> {
            Publish::Growth(IngestionDelta {
                catalog: &self.cat,
                keyword_index: &self.idx,
                match_config: &self.match_config,
                new_relations: &self.new_relations,
                graph: &self.g,
                bridge_seeds: &self.seeds,
            })
        }
    }

    /// Ingest source `c` with the given matcher confidence on its bridge.
    /// The reachability seeds are both endpoints of the bridge at its cost
    /// (exactly what the live serving layer builds).
    fn ingest_r3(mut cat: q_storage::Catalog, mut g: SearchGraph, confidence: f64) -> Grown {
        use q_storage::{RelationSpec, SourceSpec};
        SourceSpec::new("c")
            .relation(RelationSpec::new("r3", &["z"]))
            .load_into(&mut cat)
            .unwrap();
        let source = cat.source_by_name("c").unwrap().id;
        g.add_source(&cat, source);
        let x = cat.resolve_qualified("r1.x").unwrap();
        let z = cat.resolve_qualified("r3.z").unwrap();
        let bridge = g.add_association(x, z, "mad", confidence);
        let e = &g.edges()[bridge.index()];
        let seeds = vec![(e.a, g.edge_cost(bridge)), (e.b, g.edge_cost(bridge))];
        Grown {
            idx: KeywordIndex::build(&cat),
            new_relations: [cat.relation_by_name("r3").unwrap().id],
            cat,
            g,
            bridge,
            seeds,
            match_config: MatchConfig::default(),
        }
    }

    fn counts(sync: &SyncReport) -> (u64, usize, u64) {
        (sync.kept, sync.parked.len(), sync.dropped)
    }

    #[test]
    fn growth_keeps_entries_the_new_source_cannot_displace() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let snap0 = cache.epoch;
        let (v, mut model) = priced_view(&g, e);
        model.top_k = 1; // the ranked list is full
        let entry_cost = v.queries[0].cost;
        // The keyword resolves to relation r1 — right next to where the
        // bridge lands, so the price really is the bridge's own cost.
        admit(&mut cache, key(&["r1"]), v, model);

        // A low-confidence bridge prices every new join path into the
        // entry's terminals above the cached tree: the entry provably keeps
        // its top-k.
        let mut grown = ingest_r3(cat, g, 0.05);
        assert!(
            grown.g.edge_cost(grown.bridge) > entry_cost,
            "fixture: bridge costlier"
        );
        let sync = run_sync(&mut cache, 7, &grown.publish());
        assert_eq!(counts(&sync), (1, 0, 0));
        assert_eq!(cache.epoch, 7);
        let hit = cache.get(&key(&["r1"])).expect("entry survived");
        assert!(hit.revalidated, "survivors report Revalidated on hits");
        assert_eq!(
            hit.snapshot, snap0,
            "provenance stays at the pricing snapshot"
        );
        // A later re-pricing that moves no cost keeps the survivor too.
        let w = grown.g.weights().clone();
        grown.g.set_weights(w);
        run_sync(
            &mut cache,
            grown.g.weight_epoch(),
            &Publish::Reprice(&grown.g),
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn growth_parks_entries_the_bridge_prices_into() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let snap0 = cache.epoch;
        let (v, mut model) = priced_view(&g, e);
        model.top_k = 1;
        let view = Arc::clone(&v);
        admit(&mut cache, key(&["r1"]), v, model);
        // A high-confidence bridge reaches r1 at exactly the cached tree's
        // cost: even the tie must leave the cache (a fresh search may order
        // tied trees apart) — but it parks for re-validation, not drops.
        let grown = ingest_r3(cat, g, 0.9);
        let sync = run_sync(&mut cache, 7, &grown.publish());
        assert_eq!(counts(&sync), (0, 1, 0));
        assert!(cache.is_empty(), "parked entries leave the cache");
        let parked = &sync.parked[0];
        assert_eq!(parked.key, key(&["r1"]));
        assert_eq!(parked.snapshot, snap0);
        assert!(Arc::ptr_eq(&parked.view, &view));
    }

    #[test]
    fn pricing_is_per_entry_not_a_global_floor() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        // Two full-list entries with the same displacement threshold; they
        // differ only in where their keyword sits relative to the bridge.
        let (near, mut m_near) = priced_view(&g, e);
        m_near.top_k = 1;
        admit(&mut cache, key(&["r1"]), near, m_near);
        let (far, mut m_far) = priced_view(&g, e);
        m_far.top_k = 1;
        admit(&mut cache, key(&["r2"]), far, m_far);

        // The bridge lands on r1.x at exactly the entries' own cost: the
        // old global floor (floor > threshold fails) dropped *both*. The
        // per-entry price keeps r2 — reaching it costs bridge + association,
        // strictly above the threshold — and parks only r1.
        let grown = ingest_r3(cat, g, 0.9);
        let sync = run_sync(&mut cache, 7, &grown.publish());
        assert_eq!(counts(&sync), (1, 1, 0));
        assert_eq!(sync.parked[0].key, key(&["r1"]), "near entry parks");
        assert!(cache.get(&key(&["r2"])).is_some(), "far entry survives");
    }

    #[test]
    fn entries_sharing_a_keyword_get_the_verdicts_they_get_alone() {
        // The per-keyword facts are computed once per publish and shared by
        // every entry using the keyword: `["r1"]` (parks — the bridge
        // lands on r1 at its own cost) and `["r1", "r2"]` (kept — a new
        // tree must also reach r2) must be judged exactly as when each is
        // the only entry in the cache.
        let (cat, g, e) = fixture();
        let entries: Vec<(QueryKey, Arc<RankedView>, RevalidationModel)> =
            [&["r1"][..], &["r1", "r2"]]
                .iter()
                .map(|kws| {
                    let (v, mut m) = priced_view(&g, e);
                    m.top_k = 1;
                    (key(kws), v, m)
                })
                .collect();
        let grown = ingest_r3(cat, g, 0.9);
        let verdicts = |cache: &mut QueryCache| {
            let sync = run_sync(cache, 7, &grown.publish());
            let mut parked: Vec<QueryKey> = sync.parked.iter().map(|p| p.key.clone()).collect();
            parked.sort_by(|a, b| a.keywords.cmp(&b.keywords));
            (counts(&sync), parked)
        };
        let mut shared = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        for (k, v, m) in &entries {
            admit(&mut shared, k.clone(), Arc::clone(v), m.clone());
        }
        assert_eq!(verdicts(&mut shared), ((1, 1, 0), vec![key(&["r1"])]));
        let mut alone = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        let (k, v, m) = &entries[0];
        admit(&mut alone, k.clone(), Arc::clone(v), m.clone());
        assert_eq!(verdicts(&mut alone), ((0, 1, 0), vec![key(&["r1"])]));
        let mut alone = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        let (k, v, m) = &entries[1];
        admit(&mut alone, k.clone(), Arc::clone(v), m.clone());
        assert_eq!(verdicts(&mut alone), ((1, 0, 0), vec![]));
    }

    #[test]
    fn growth_parks_partial_lists_and_keyword_matches() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        // Entry 1: partial ranked list (top_k 5, one tree) with no budget —
        // any affordable new tree could extend it, so it cannot be kept.
        let (v1, mut m1) = priced_view(&g, e);
        m1.top_k = 5;
        admit(&mut cache, key(&["q"]), v1, m1);
        // Entry 2: full list but its keyword names the new relation.
        let (v2, mut m2) = priced_view(&g, e);
        m2.top_k = 1;
        admit(&mut cache, key(&["r3"]), v2, m2);
        // Entry 3: partial list guarded by a budget below every new path's
        // price — new trees are provably unaffordable, so it survives.
        let (v3, mut m3) = priced_view(&g, e);
        m3.top_k = 5;
        m3.budget = 1.0;
        admit(&mut cache, key(&["q", "also"]), v3, m3);

        let grown = ingest_r3(cat, g, 0.05);
        assert!(grown.g.edge_cost(grown.bridge) > 1.0);
        let sync = run_sync(&mut cache, 9, &grown.publish());
        assert_eq!(counts(&sync), (1, 2, 0));
        assert!(cache.get(&key(&["q"])).is_none(), "partial, unbounded");
        assert!(cache.get(&key(&["r3"])).is_none(), "keyword matches source");
        assert!(cache.get(&key(&["q", "also"])).is_some(), "budget-guarded");
    }

    #[test]
    fn non_revalidatable_entries_never_survive_growth() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let (v, mut model) = priced_view(&g, e);
        model.top_k = 1;
        model.revalidatable = false;
        admit(&mut cache, key(&["q"]), v, model);
        let grown = ingest_r3(cat, g, 0.05);
        let sync = run_sync(&mut cache, 3, &grown.publish());
        assert_eq!(counts(&sync), (0, 0, 1));
    }

    #[test]
    fn the_verdict_window_refuses_answers_of_the_superseded_snapshot() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, 3);
        let (v, mut m) = priced_view(&g, e);
        m.top_k = 1;
        admit(&mut cache, key(&["r1"]), Arc::clone(&v), m.clone());
        let grown = ingest_r3(cat, g, 0.9);
        let pending = cache.begin_sync(7);
        // Between the bump and the apply: a reader's miss computed on
        // snapshot 3, and a lane re-admission settled against it, are both
        // refused; the entry keeps serving its stamped bytes.
        let late = RevalidationModel::default();
        assert!(!cache.insert(3, key(&["late"]), view("late"), late, 3, false));
        assert!(!cache.insert(3, key(&["r1"]), view("lane"), m, 3, true));
        assert_eq!(
            cache.revalidations(),
            0,
            "a refused admission counts nothing"
        );
        let hit = cache
            .get(&key(&["r1"]))
            .expect("hits serve during the window");
        assert!(Arc::ptr_eq(&hit.view, &v));
        assert_eq!(hit.snapshot, 3);
        // An answer of the new epoch is admitted; it was not there at the
        // bump, so it gets no verdict and stays as it is.
        let (fresh, m) = priced_view(&grown.g, e);
        assert!(cache.insert(7, key(&["r2"]), Arc::clone(&fresh), m, 7, false));
        let (verdicts, report) = judge(pending, &grown.publish(), &mut DeltaPricer::default());
        let sync = cache.finish_sync(verdicts, report);
        assert_eq!(counts(&sync), (0, 1, 0));
        assert!(
            Arc::ptr_eq(&sync.parked[0].view, &v),
            "the judged entry is the one parked"
        );
        assert_eq!(cache.len(), 1);
        let hit = cache.get(&key(&["r2"])).expect("the unjudged entry stays");
        assert!(Arc::ptr_eq(&hit.view, &fresh) && !hit.revalidated);
    }

    #[test]
    fn a_judged_key_overwritten_in_the_window_keeps_its_new_answer() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, 3);
        // Two judged entries: "r1" would park (the bridge lands on r1 at
        // its own cost), "r2" would be kept.
        for kws in [&["r1"][..], &["r2"]] {
            let (v, mut m) = priced_view(&g, e);
            m.top_k = 1;
            admit(&mut cache, key(kws), v, m);
        }
        let grown = ingest_r3(cat, g, 0.9);
        let pending = cache.begin_sync(7);
        // Both keys are overwritten by answers of the new epoch before the
        // verdicts land. Neither verdict is for these views: the parking
        // one must not evict a fresh answer, the keeping one must not mark
        // it revalidated.
        let mut fresh = Vec::new();
        for kws in [&["r1"][..], &["r2"]] {
            let (v, m) = priced_view(&grown.g, e);
            assert!(cache.insert(7, key(kws), Arc::clone(&v), m, 7, false));
            fresh.push(v);
        }
        let (verdicts, report) = judge(pending, &grown.publish(), &mut DeltaPricer::default());
        let sync = cache.finish_sync(verdicts, report);
        assert_eq!(counts(&sync), (0, 0, 0));
        assert_eq!(cache.revalidations(), 0);
        for (kws, v) in [&["r1"][..], &["r2"]].into_iter().zip(&fresh) {
            let hit = cache.get(&key(kws)).expect("the new answer stays");
            assert!(Arc::ptr_eq(&hit.view, v));
            assert!(!hit.revalidated, "a fresh answer is not revalidated");
            assert_eq!(hit.snapshot, 7);
        }
    }

    #[test]
    fn every_entry_present_at_the_bump_gets_exactly_one_verdict() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        // With the bridge on r1 at the entries' own cost, entries reaching
        // only r1 park, entries that must also reach r2 are kept, and
        // entries with no re-costing model drop.
        let keys: [&[&str]; 7] = [
            &["r1"],
            &["r1", "r1"],
            &["r2"],
            &["r2", "r2"],
            &["r1", "r2"],
            &["x"],
            &["y"],
        ];
        for kws in keys {
            let (v, mut m) = priced_view(&g, e);
            m.top_k = 1;
            m.revalidatable = !matches!(kws, ["x"] | ["y"]);
            admit(&mut cache, key(kws), v, m);
        }
        let grown = ingest_r3(cat, g, 0.9);
        let pending = cache.begin_sync(7);
        assert_eq!(pending.len(), keys.len());
        let (verdicts, report) = judge(pending, &grown.publish(), &mut DeltaPricer::default());
        assert_eq!(verdicts.len(), keys.len(), "one verdict per key");
        let sync = cache.finish_sync(verdicts, report);
        assert_eq!(counts(&sync), (3, 2, 2));
        let mut judged: Vec<QueryKey> = cache.entries.keys().cloned().collect();
        judged.extend(sync.parked.iter().map(|p| p.key.clone()));
        judged.sort_by(|a, b| a.keywords.cmp(&b.keywords));
        judged.dedup();
        assert_eq!(judged.len() as u64 + sync.dropped, keys.len() as u64);
        // The distinct keywords "r1" and "r2", each tested and priced once.
        assert_eq!((sync.keywords_checked_new, sync.keywords_priced), (2, 2));
    }

    #[test]
    fn the_pricer_runs_only_when_an_entry_needs_a_price() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, 0);
        // No entry here needs a price: a partial list with no budget parks
        // unpriced, so does a full list whose every keyword matches the new
        // relation, and a non-revalidatable entry drops.
        for (kws, top_k, revalidatable) in [
            (&["q"][..], 5, true),
            (&["r3"], 1, true),
            (&["r1"], 1, false),
        ] {
            let (v, mut m) = priced_view(&g, e);
            m.top_k = top_k;
            m.revalidatable = revalidatable;
            admit(&mut cache, key(kws), v, m);
        }
        let grown = ingest_r3(cat, g, 0.9);
        let shared = Mutex::new(cache);
        let mut pricer = DeltaPricer::default();
        let sync = QueryCache::sync(&shared, 7, &grown.publish(), &mut pricer);
        assert_eq!(counts(&sync), (0, 2, 1));
        assert_eq!((sync.keywords_checked_new, sync.keywords_priced), (1, 0));
        assert_eq!(pricer.reached().count(), 0, "the pricer never ran");
        // One entry that needs a price runs it.
        let mut cache = shared.into_inner().expect("cache lock poisoned");
        let (v, mut m) = priced_view(&grown.g, e);
        m.top_k = 1;
        admit(&mut cache, key(&["r1"]), v, m);
        let shared = Mutex::new(cache);
        let sync = QueryCache::sync(&shared, 8, &grown.publish(), &mut pricer);
        assert_eq!(sync.keywords_priced, 1);
        assert!(pricer.reached().count() > 0, "the pricer ran");
    }

    #[test]
    fn lane_admission_restores_a_parked_entry_with_its_stamp() {
        let (cat, g, e) = fixture();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let (v, mut model) = priced_view(&g, e);
        model.top_k = 1;
        admit(&mut cache, key(&["r1"]), v, model);
        let grown = ingest_r3(cat, g, 0.9);
        let sync = run_sync(&mut cache, 7, &grown.publish());
        let parked = &sync.parked[0];
        assert!(cache.get(&parked.key).is_none());

        // The lane verified the old bytes still stand: re-admit them under
        // the original pricing snapshot.
        assert!(cache.insert(
            7,
            parked.key.clone(),
            Arc::clone(&parked.view),
            RevalidationModel {
                top_k: 1,
                ..RevalidationModel::default()
            },
            parked.snapshot,
            true,
        ));
        let hit = cache.get(&parked.key).expect("re-admitted");
        assert!(hit.revalidated, "lane survivors report Revalidated");
        assert_eq!(hit.snapshot, parked.snapshot);
        assert!(Arc::ptr_eq(&hit.view, &parked.view));
        assert_eq!(cache.revalidations(), 1, "a lane admission counts");
    }

    #[test]
    fn live_repricing_keeps_only_bit_identical_entries() {
        let (mut g, e) = graph();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        // One entry whose tree crosses the association edge, one with no
        // base edge at all: only the first sees the re-pricing.
        let (crossing, m_crossing) = priced_view(&g, e);
        admit(
            &mut cache,
            key(&["crossing"]),
            Arc::clone(&crossing),
            m_crossing,
        );
        admit(
            &mut cache,
            key(&["local"]),
            view("local"),
            RevalidationModel::default(),
        );
        let mut w = g.weights().clone();
        let default = g.feature_space().get("default").unwrap();
        w.set(default, w.get(default) + 0.25);
        g.set_weights(w);
        let sync = run_sync(&mut cache, g.weight_epoch(), &Publish::Reprice(&g));
        assert_eq!(counts(&sync), (1, 0, 1));
        assert!(cache.get(&key(&["crossing"])).is_none(), "moved costs drop");
        let local = cache.get(&key(&["local"])).expect("untouched entry stays");
        assert!(local.revalidated);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.revalidations(), 1);
    }

    #[test]
    fn lookups_carry_the_snapshot_that_priced_the_entry() {
        let (g, e) = graph();
        let mut cache = QueryCache::new(DEFAULT_CACHE_CAPACITY, g.weight_epoch());
        let (v, model) = priced_view(&g, e);
        admit(&mut cache, key(&["q"]), v, model);
        let hit = cache.get(&key(&["q"])).unwrap();
        assert_eq!(hit.snapshot, g.weight_epoch());
        assert!(!hit.revalidated);
    }

    #[test]
    fn capacity_invariant_holds_across_every_mutation() {
        let (cat, mut g, e) = fixture();
        let mut cache = QueryCache::new(2, g.weight_epoch());
        // Over-insert.
        for tag in ["a", "b", "c", "d"] {
            let (v, mut m) = priced_view(&g, e);
            m.top_k = 1;
            admit(&mut cache, key(&[tag]), v, m);
            assert!(cache.len() <= cache.capacity);
        }
        // Overwrite an existing key at capacity.
        let (v, mut m) = priced_view(&g, e);
        m.top_k = 1;
        admit(&mut cache, key(&["d"]), v, m);
        assert!(cache.len() <= cache.capacity);
        // Keeping syncs (a re-pricing that moves no cost, then growth)
        // stay bounded.
        let w = g.weights().clone();
        g.set_weights(w);
        run_sync(&mut cache, g.weight_epoch(), &Publish::Reprice(&g));
        assert!(cache.len() <= cache.capacity);
        let grown = ingest_r3(cat, g, 0.05);
        run_sync(&mut cache, 5, &grown.publish());
        assert!(cache.len() <= cache.capacity);
        assert!(!cache.is_empty(), "full budgetless lists survive via top_k");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut cache = QueryCache::new(2, 0);
        admit(
            &mut cache,
            key(&["a"]),
            view("a"),
            RevalidationModel::default(),
        );
        admit(
            &mut cache,
            key(&["b"]),
            view("b"),
            RevalidationModel::default(),
        );
        admit(
            &mut cache,
            key(&["c"]),
            view("c"),
            RevalidationModel::default(),
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(&["a"])).is_none());
        assert!(cache.get(&key(&["b"])).is_some());
        assert!(cache.get(&key(&["c"])).is_some());
    }

    #[test]
    fn revalidation_kept_entries_retain_their_insertion_order() {
        let (mut g, e) = graph();
        let mut cache = QueryCache::new(2, g.weight_epoch());
        // `old` inserted first, then `young`; both survive a re-pricing.
        let (v1, m1) = priced_view(&g, e);
        let (v2, m2) = priced_view(&g, e);
        admit(&mut cache, key(&["old"]), v1, m1);
        admit(&mut cache, key(&["young"]), v2, m2);
        let w = g.weights().clone();
        g.set_weights(w);
        run_sync(&mut cache, g.weight_epoch(), &Publish::Reprice(&g));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.revalidations(), 2);
        // Revalidation must not refresh `old`'s FIFO position: the next
        // insert over capacity evicts `old`, not `young`.
        let (v3, m3) = priced_view(&g, e);
        admit(&mut cache, key(&["newest"]), v3, m3);
        assert!(cache.get(&key(&["old"])).is_none(), "old must evict first");
        assert!(cache.get(&key(&["young"])).is_some());
        assert!(cache.get(&key(&["newest"])).is_some());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_instead_of_degrading() {
        let mut cache = QueryCache::new(0, 0);
        assert_eq!(cache.capacity, 1);
        // The just-inserted entry is still retrievable.
        admit(
            &mut cache,
            key(&["a"]),
            view("a"),
            RevalidationModel::default(),
        );
        assert!(cache.get(&key(&["a"])).is_some());
        // A second insert evicts the first, never panics.
        admit(
            &mut cache,
            key(&["b"]),
            view("b"),
            RevalidationModel::default(),
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(&["a"])).is_none());
        assert!(cache.get(&key(&["b"])).is_some());
    }
}

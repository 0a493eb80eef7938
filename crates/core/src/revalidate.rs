//! Background re-validation lane: parked cache entries are re-priced off
//! the publish path, so conservatism never costs a reader a cold start.
//!
//! A growth publish's cache verdict
//! ([`QueryCache::sync`](crate::QueryCache::sync) with
//! [`Publish::Growth`](crate::Publish::Growth)) is a cheap lower-bound
//! test — entries it cannot *prove* safe are parked, not dropped, because
//! most of them are in fact untouched (the bound prices the delta's reach,
//! not the actual new top-k). The `RevalidationLane`
//! settles each parked entry with the ground truth: a fresh recompute of
//! the entry's request against the snapshot that parked it, off the writer
//! and reader paths, on a single background thread fed through the same
//! **latest-only mailbox** (`mailbox.rs`) as the persistence lane
//! ([`SnapshotPersister`](crate::SnapshotPersister)). A publish deposits
//! its batch of parked entries and returns immediately; if a newer publish
//! lands before the worker drains the batch, the superseded batch is
//! discarded wholesale (counted as dropped — its snapshot is no longer
//! current, so its recomputes could never be re-admitted anyway).
//!
//! Per entry the worker recomputes, then re-admits under the cache lock —
//! through the cache's one admission path, [`QueryCache::insert`], with
//! the stamp below and the revalidated flag set — which admits it only if
//! the cache epoch still names the batch's snapshot:
//!
//! * **kept** — the recompute found the same answer (same trees, same
//!   costs, same projected columns; view bytes are compared in search-graph
//!   terms because each publish renumbers query-graph terminal ids): the
//!   ingestion did not touch this answer after all. The original `Arc` goes
//!   back in under its *original* pricing snapshot, whose sequential answer
//!   it is byte-identical to.
//! * **repriced** — the answer changed: the fresh view is admitted under
//!   the batch's snapshot id. The next hit serves the new bytes warm.
//! * **dropped** — a newer publish won the race (or superseded the batch):
//!   the entry misses normally next time.
//!
//! Either way the byte contract holds: everything the cache serves is the
//! sequential answer of the snapshot stamped on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use q_graph::SteinerScratch;

use crate::cache::{ParkedEntry, QueryCache};
use crate::config::QConfig;
use crate::live::GraphSnapshot;
use crate::mailbox::Mailbox;

/// Point-in-time counters of the re-validation lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevalidationStats {
    /// Parked entries whose recompute found the same answer (same trees,
    /// costs and columns) — re-admitted under their original pricing
    /// snapshot.
    pub kept: u64,
    /// Parked entries whose recompute differed — re-admitted with the fresh
    /// bytes under the parking snapshot.
    pub repriced: u64,
    /// Parked entries discarded: superseded by a newer publish, beaten to
    /// the cache by one, or failing recompute.
    pub dropped: u64,
    /// Parked entries deposited but not yet settled.
    pub depth: u64,
}

struct Batch {
    snapshot: Arc<GraphSnapshot>,
    entries: Vec<ParkedEntry>,
}

#[derive(Default)]
struct Counters {
    kept: AtomicU64,
    repriced: AtomicU64,
    dropped: AtomicU64,
    depth: AtomicU64,
}

/// Background re-validation lane. See the module docs for the protocol.
/// Dropping the lane settles any deposited batch and joins the worker.
pub(crate) struct RevalidationLane {
    mailbox: Mailbox<Batch>,
    counters: Arc<Counters>,
}

impl std::fmt::Debug for RevalidationLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevalidationLane")
            .field("stats", &self.stats())
            .finish()
    }
}

impl RevalidationLane {
    /// Start the lane re-admitting into `cache`, recomputing with `config`.
    pub(crate) fn start(config: QConfig, cache: Arc<Mutex<QueryCache>>) -> Self {
        let counters = Arc::new(Counters::default());
        let worker = Arc::clone(&counters);
        let mut scratch = SteinerScratch::default();
        let mailbox = Mailbox::start("q-revalidate", move |batch: Batch| {
            for parked in batch.entries {
                let counter = settle(&config, &batch.snapshot, &cache, parked, &mut scratch);
                counter(&worker).fetch_add(1, Ordering::Relaxed);
                worker.depth.fetch_sub(1, Ordering::Relaxed);
            }
        })
        .expect("spawning re-validation thread");
        RevalidationLane { mailbox, counters }
    }

    /// Deposit a publish's parked entries for re-validation against the
    /// snapshot that parked them, and return immediately. An unsettled
    /// earlier batch is superseded wholesale (counted as dropped — its
    /// snapshot is no longer the cache epoch).
    pub(crate) fn enqueue(&self, snapshot: Arc<GraphSnapshot>, entries: Vec<ParkedEntry>) {
        if entries.is_empty() {
            return;
        }
        // Counted before the deposit, so the worker never settles an entry
        // `depth` does not hold yet.
        let c = &self.counters;
        c.depth.fetch_add(entries.len() as u64, Ordering::Relaxed);
        if let Some(old) = self.mailbox.deposit(Batch { snapshot, entries }) {
            let n = old.entries.len() as u64;
            c.dropped.fetch_add(n, Ordering::Relaxed);
            c.depth.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Block until every deposited entry has been settled.
    pub(crate) fn flush(&self) {
        self.mailbox.flush();
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> RevalidationStats {
        let c = &self.counters;
        RevalidationStats {
            kept: c.kept.load(Ordering::Relaxed),
            repriced: c.repriced.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
            depth: c.depth.load(Ordering::Relaxed),
        }
    }
}

/// Settle one parked entry: recompute outside the cache lock, then re-admit
/// under it only if the batch's snapshot is still the cache epoch. Returns
/// which outcome counter to bump.
fn settle(
    config: &QConfig,
    snapshot: &Arc<GraphSnapshot>,
    cache: &Mutex<QueryCache>,
    parked: ParkedEntry,
    scratch: &mut SteinerScratch,
) -> fn(&Counters) -> &AtomicU64 {
    let Ok((view, model)) = snapshot.recompute_for_key(config, &parked.key, scratch) else {
        return |s| &s.dropped;
    };
    // Compare in search-graph terms, not view bytes: every publish appends
    // nodes, which renumbers the query-graph terminal ids baked into a
    // view's trees even when the answer itself is untouched. The cost
    // models (search-graph edge ids + local feature vectors) and the
    // projected columns are renumbering-stable; equal means the recompute
    // found the same trees at the same costs projecting the same columns.
    let identical = model.trees == parked.model.trees
        && view.columns == parked.view.columns
        && view.column_sources == parked.view.column_sources;
    let (view, stamp, outcome): (_, _, fn(&Counters) -> &AtomicU64) = if identical {
        // The ingestion did not touch this answer: the original bytes (and
        // Arc) go back in under their original pricing snapshot.
        (parked.view, parked.snapshot, |s| &s.kept)
    } else {
        // The answer really did change: serve the fresh bytes warm, stamped
        // with the snapshot they are the sequential answer of.
        (Arc::new(view), snapshot.id(), |s| &s.repriced)
    };
    // Refused when a newer publish raised the cache epoch while we
    // recomputed: this verdict is against a superseded snapshot.
    let mut cache = cache.lock().expect("cache lock poisoned");
    if cache.insert(snapshot.id(), parked.key, view, model, stamp, true) {
        outcome
    } else {
        |s| &s.dropped
    }
}

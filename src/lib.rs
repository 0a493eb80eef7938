//! # q-integration
//!
//! A reproduction of **"Automatically Incorporating New Sources in Keyword
//! Search-Based Data Integration"** (Talukdar, Ives, Pereira — SIGMOD 2010):
//! the Q system for pay-as-you-go data integration driven by keyword search,
//! ranked answers and user feedback.
//!
//! This façade crate re-exports the workspace's public API:
//!
//! * [`storage`] — in-memory relational substrate (catalog, relations,
//!   values, foreign keys, value index, conjunctive-query executor).
//! * [`graph`] — search graph, feature-based edge costs, keyword index,
//!   query graph and top-k Steiner tree search.
//! * [`matchers`] — schema matchers: the metadata matcher (COMA++
//!   substitute) and the MAD label-propagation matcher.
//! * [`align`] — alignment search strategies (Exhaustive, ViewBasedAligner,
//!   PreferentialAligner).
//! * [`learn`] — the MIRA association-cost learner.
//! * [`core`] — the [`LiveServer`] engine tying everything together.
//! * [`datasets`] — synthetic GBCO and InterPro-GO datasets, gold standards
//!   and workloads used by the experiments.
//! * [`serve`] — the network serving layer: an HTTP/1.1 front end over
//!   [`LiveServer`] with a versioned JSON wire API and Prometheus metrics.
//! * [`snap`] — the persistent snapshot store: a versioned, checksummed
//!   on-disk format for [`GraphSnapshot`] enabling millisecond
//!   boot-and-serve ([`GraphSnapshot::save`](q_core::GraphSnapshot::save) /
//!   [`GraphSnapshot::load`](q_core::GraphSnapshot::load), the
//!   [`SnapshotPersister`] background lane, `q-serve --snapshot-dir`).
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the reproduction methodology and experiment write-ups.
//!
//! ## Typed query API
//!
//! Queries go through the typed request/response surface: describe each
//! query with a [`QueryRequest`] (keywords + per-request `top_k`, search
//! strategy, cost budget, cache policy). [`LiveServer`] is the one engine —
//! cached, concurrent, live-ingesting — and returns a [`QueryOutcome`] (the
//! ranked view + cache/snapshot/search provenance); a published
//! [`GraphSnapshot`] answers a request uncached:
//!
//! | Task | Call |
//! |---|---|
//! | Start the engine | `let mut live = LiveServer::new(catalog, QConfig::default()); live.add_matcher(..);` |
//! | Answer a query (uncached) | `live.snapshot().answer(live.config(), &QueryRequest::new(["a", "b"]))?` |
//! | Serve a query (cached) | `live.query(&QueryRequest::new(["a", "b"]))?.view` |
//! | Serve without caching | `live.query(&QueryRequest::new(["a", "b"]).cache_policy(CachePolicy::Bypass))?` |
//! | Incorporate a source | `live.ingest_source(&spec)?`, or `live.ingest_source_with(&spec, align)?` |
//! | Apply feedback | `live.feedback(&FeedbackRequest::on_keywords(["a", "b"], feedback))?` |
//! | Override parameters per request | `QueryRequest::new(..).top_k(k).strategy(..).cost_budget(..)` |
//!
//! ## Live ingestion
//!
//! [`LiveServer`] serves *while* new sources arrive: readers
//! answer [`QueryRequest`]s through `&self` against an immutable published
//! [`GraphSnapshot`], and [`LiveServer::ingest_source`](q_core::LiveServer::ingest_source)
//! incorporates a source end-to-end and publishes the next snapshot without
//! stopping them. Every outcome carries "answered from snapshot N"
//! provenance; the `live_ingest` stress test replays each concurrent answer
//! against its snapshot's sequential answer. See DESIGN.md § Live ingestion.
//!
//! ## Network serving
//!
//! [`serve::QServe`] exposes a [`LiveServer`] over HTTP: `POST /query`,
//! `/query/batch`, `/ingest` and `/feedback` speak the versioned JSON wire
//! protocol (`"v":1`, typed error codes, bit-exact value round-trips), and
//! `GET /healthz` / `GET /metrics` serve operations. Every response names
//! the published snapshot it was computed against and replays byte-identical
//! against that snapshot's sequential answer. See DESIGN.md § Network
//! serving and the `q-serve` binary.

pub use q_align as align;
pub use q_core as core;
pub use q_datasets as datasets;
pub use q_graph as graph;
pub use q_learn as learn;
pub use q_matchers as matchers;
pub use q_serve as serve;
pub use q_snap as snap;
pub use q_storage as storage;

pub use q_core::{
    latest_snapshot_path, CachePolicy, CacheStatus, Feedback, FeedbackOutcome, FeedbackRequest,
    GraphSnapshot, IngestReport, LiveFeedbackReport, LiveServer, PersistStats, QConfig, QError,
    QueryOutcome, QueryRequest, SearchStrategy, SnapError, SnapshotInfo, SnapshotPersister,
};
pub use q_serve::{BootMode, BootStats, QServe, ServeOptions};
pub use q_storage::{Catalog, RelationSpec, SourceSpec, StorageError, Value};

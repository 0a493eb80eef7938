//! The Q system: keyword-search-based data integration with automatic
//! incorporation of new sources and feedback-driven correction of
//! alignments (Talukdar, Ives, Pereira — SIGMOD 2010).
//!
//! [`LiveServer`] is the one engine, mirroring Figure 1 of the paper:
//!
//! * **Search graph construction** — the catalog's relations, attributes and
//!   foreign keys become the initial search graph (`q-graph`), published as
//!   the first [`GraphSnapshot`].
//! * **View creation & output** — a keyword query is expanded into a query
//!   graph, top-k Steiner trees become ranked conjunctive queries, and their
//!   results are outer-unioned into a [`RankedView`] with provenance
//!   ([`GraphSnapshot::answer`] uncached, [`LiveServer::query`] through the
//!   one [`QueryCache`]).
//! * **Search graph maintenance** — [`LiveServer::ingest_source`]
//!   incorporates a new source: its schema joins the graph and the
//!   registered schema matchers propose alignments;
//!   [`LiveServer::ingest_source_with`] takes the alignment strategy
//!   instead (e.g. [`view_based_alignments`], over `q-align`).
//! * **Association cost learning** — [`LiveServer::feedback`] turns user
//!   feedback on answers into MIRA weight updates (`q-learn`), repairing bad
//!   alignments and re-weighting matchers.
//!
//! Every write publishes the next snapshot while readers keep answering
//! from theirs, and the cache judges every entry at every publish.
//!
//! The [`evaluation`] module provides the precision/recall machinery used by
//! the paper's Section 5.2 experiments.

pub mod answer;
pub mod cache;
pub mod config;
pub mod error;
pub mod evaluation;
pub mod feedback;
pub mod live;
mod mailbox;
pub mod request;
pub mod revalidate;
pub mod snapstore;
pub mod translate;

pub use answer::{Answer, RankedQuery, RankedView};
pub use cache::{
    normalize_keywords, CacheLookup, CostTerm, IngestionDelta, ParkedEntry, Publish, QueryCache,
    QueryKey, RevalidationModel, SyncReport, TreeCostModel,
};
pub use config::QConfig;
pub use error::QError;
pub use evaluation::{
    average_edge_costs, pr_curve_from_alignments, pr_curve_from_graph, precision_recall_graph,
    EdgeCostSummary, PrPoint,
};
pub use feedback::{Feedback, FeedbackOutcome, FeedbackRequest};
pub use live::{
    view_based_alignments, view_nodes, GraphSnapshot, IngestDraft, IngestReport, LiveCacheStats,
    LiveFeedbackReport, LiveServer,
};
pub use q_snap::{SnapError, SnapshotInfo};
pub use request::{
    CachePolicy, CacheStatus, QueryOutcome, QueryParamsKey, QueryRequest, SearchStrategy,
};
pub use revalidate::RevalidationStats;
pub use snapstore::{
    latest_snapshot_path, snapshot_paths_newest_first, PersistStats, SnapshotPersister,
};

//! The Q system: keyword-search-based data integration with automatic
//! incorporation of new sources and feedback-driven correction of
//! alignments (Talukdar, Ives, Pereira — SIGMOD 2010).
//!
//! [`QSystem`] ties the substrates together, mirroring Figure 1 of the
//! paper:
//!
//! * **Search graph construction** — the catalog's relations, attributes and
//!   foreign keys become the initial search graph (`q-graph`).
//! * **View creation & output** — a keyword query is expanded into a query
//!   graph, top-k Steiner trees become ranked conjunctive queries, and their
//!   results are outer-unioned into a persistent [`RankedView`] with
//!   provenance.
//! * **Search graph maintenance** — [`QSystem::register_source`] incorporates
//!   a new source: its schema joins the graph, the configured schema matchers
//!   propose alignments through one of the alignment strategies
//!   (`q-align`), and affected views are refreshed.
//! * **Association cost learning** — [`QSystem::apply_feedback`] turns user
//!   feedback on answers into MIRA weight updates (`q-learn`), repairing bad
//!   alignments and re-weighting matchers.
//!
//! [`QSystem::answer`] answers one typed [`QueryRequest`] uncached, for
//! the experiments. [`LiveServer`] is the one serving engine: cached,
//! concurrent `&self` reads from published [`GraphSnapshot`]s while sources
//! are ingested and feedback is applied, with one [`QueryCache`] judging
//! every entry at every publish.
//!
//! The [`evaluation`] module provides the precision/recall machinery used by
//! the paper's Section 5.2 experiments.

pub mod answer;
pub mod builder;
pub mod cache;
pub mod config;
pub mod error;
pub mod evaluation;
pub mod feedback;
pub mod live;
pub mod request;
pub mod revalidate;
pub mod snapstore;
pub mod system;
pub mod translate;

pub use answer::{Answer, RankedQuery, RankedView, ViewId};
pub use builder::QSystemBuilder;
pub use cache::{
    normalize_keywords, CacheLookup, CostTerm, IngestionDelta, ParkedEntry, Publish, QueryCache,
    QueryKey, RevalidationModel, SyncReport, TreeCostModel,
};
pub use config::{AlignmentStrategy, QConfig};
pub use error::QError;
pub use evaluation::{
    average_edge_costs, pr_curve_from_alignments, pr_curve_from_graph, precision_recall_graph,
    EdgeCostSummary, PrPoint,
};
pub use feedback::{Feedback, FeedbackOutcome, FeedbackRequest};
pub use live::{GraphSnapshot, IngestReport, LiveCacheStats, LiveFeedbackReport, LiveServer};
pub use q_snap::{SnapError, SnapshotInfo};
pub use request::{
    CachePolicy, CacheStatus, QueryOutcome, QueryParamsKey, QueryRequest, SearchStrategy,
};
pub use revalidate::RevalidationStats;
pub use snapstore::{
    latest_snapshot_path, snapshot_paths_newest_first, PersistStats, SnapshotPersister,
};
pub use system::{QSystem, RegistrationReport};

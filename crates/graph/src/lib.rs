//! Search graph, query graph, edge-cost model and Steiner tree search for
//! the Q keyword-search-based data-integration system.
//!
//! This crate implements Sections 2.1–2.2 and 3.4 of the paper:
//!
//! * [`SearchGraph`] — relations and attributes as nodes; zero-cost
//!   attribute–relation edges, foreign-key edges and matcher-proposed
//!   association edges, each carrying a sparse [`FeatureVector`] whose dot
//!   product with a learned [`WeightVector`] is the edge cost (Equation 1).
//! * [`KeywordIndex`] — tf-idf matching of query keywords against schema
//!   elements and pre-indexed data values.
//! * [`QueryGraph`] — the per-query expansion of the search graph with
//!   keyword nodes, match edges and lazily materialised value nodes.
//! * [`steiner`] — exact (Dreyfus–Wagner) and approximate top-k Steiner tree
//!   algorithms that turn the query graph into ranked join trees.

pub mod csr;
pub mod delta;
pub mod edge;
pub mod features;
pub mod heap;
pub mod keyword;
pub mod node;
pub mod query_graph;
pub mod search_graph;
pub mod shard;
pub mod steiner;

pub use csr::{Csr, CsrDelta};
pub use delta::DeltaPricer;
pub use edge::{Edge, EdgeId, EdgeKind};
pub use features::{
    bin_confidence, FeatureId, FeatureSpace, FeatureVector, WeightVector, CONFIDENCE_BINS,
};
pub use heap::IndexedHeap;
pub use keyword::{KeywordIndex, KeywordIndexParts, KeywordIndexView, KeywordMatch, MatchTarget};
pub use node::{Node, NodeId};
pub use query_graph::{KeywordNode, QueryGraph};
pub use search_graph::{AssociationProvenance, SearchGraph, SearchGraphParts};
pub use shard::ShardSet;
pub use steiner::{
    approx_top_k, approx_top_k_detailed, approx_top_k_detailed_fanned, exact_minimum_steiner,
    SteinerConfig, SteinerScratch, SteinerStats, SteinerTree,
};

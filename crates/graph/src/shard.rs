//! [`ShardSet`], a stub kept for `benchmark/`; removed in ROADMAP 1(b).
//!
//! Nothing partitions the search graph or the keyword index: Dijkstra
//! breaks distance ties by adjacency order, so answers stay byte-identical
//! only while the search walks the one global CSR, and keyword matching
//! runs over the one global index.

use q_storage::Catalog;

use crate::keyword::{KeywordIndex, KeywordMatch, MatchConfig};
use crate::search_graph::SearchGraph;

/// Kept for `benchmark/`; removed in ROADMAP 1(b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSet;

impl ShardSet {
    /// Kept for `benchmark/`; removed in ROADMAP 1(b). Builds nothing.
    pub fn build(
        _catalog: &Catalog,
        _graph: &SearchGraph,
        _index: &KeywordIndex,
        _shards: usize,
    ) -> Self {
        ShardSet
    }

    /// Kept for `benchmark/`; removed in ROADMAP 1(b). Exactly
    /// [`KeywordIndex::matches`].
    pub fn keyword_matches(
        &self,
        index: &KeywordIndex,
        keyword: &str,
        config: &MatchConfig,
    ) -> Vec<KeywordMatch> {
        index.matches(keyword, config)
    }
}

//! Q system configuration.

use serde::{Deserialize, Serialize};

use q_graph::keyword::MatchConfig;
use q_graph::SteinerConfig;

/// Which alignment search strategy `register_source` uses (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlignmentStrategy {
    /// Match the new source against every existing relation.
    Exhaustive,
    /// Algorithm 2: match only inside the α-cost neighbourhood of existing
    /// views (α = cost of each view's k-th best answer). Preserves every
    /// view's top-k exactly.
    ViewBased,
    /// Algorithm 3: match only against the `limit` most-preferred relations
    /// according to the learned relation-authoritativeness prior.
    Preferential {
        /// How many top-priority relations to consider.
        limit: usize,
    },
}

/// Tunable parameters of the Q system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QConfig {
    /// Number of ranked queries (Steiner trees) kept per view.
    pub top_k: usize,
    /// Candidate alignments kept per new-source attribute (`Y`).
    pub top_y: usize,
    /// Keyword matching thresholds.
    pub match_config: MatchConfig,
    /// Steiner search configuration.
    pub steiner: SteinerConfig,
    /// Alignment strategy used when registering new sources.
    pub strategy: AlignmentStrategy,
    /// Cost threshold below which association edges are considered usable
    /// when aligning output columns of the disjoint union (`t` in
    /// Section 2.2).
    pub column_merge_threshold: f64,
    /// Minimum edge cost enforced after each learning step.
    pub min_edge_cost: f64,
    /// Maximum number of answer rows materialised per view.
    pub max_answers: usize,
    /// Ignored: nothing is partitioned. Kept for `benchmark/`; removed in
    /// ROADMAP 1(b).
    pub shards: usize,
    /// The Dijkstra fan-out: worker threads running the independent
    /// per-terminal backward Dijkstras of one query miss. `1` keeps the miss
    /// single-threaded (batch serving already parallelises across queries);
    /// answers are byte-identical for any value.
    pub shard_workers: usize,
}

impl Default for QConfig {
    fn default() -> Self {
        QConfig {
            top_k: 5,
            top_y: 2,
            match_config: MatchConfig::default(),
            steiner: SteinerConfig {
                k: 5,
                ..SteinerConfig::default()
            },
            strategy: AlignmentStrategy::ViewBased,
            column_merge_threshold: 1.5,
            min_edge_cost: 0.05,
            max_answers: 200,
            shards: 4,
            shard_workers: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = QConfig::default();
        assert!(c.top_k >= 1);
        assert!(c.top_y >= 1);
        assert!(c.min_edge_cost > 0.0);
        assert_eq!(c.steiner.k, c.top_k);
        assert!(matches!(c.strategy, AlignmentStrategy::ViewBased));
        assert!(c.shard_workers >= 1);
    }

    #[test]
    fn strategies_compare() {
        assert_ne!(AlignmentStrategy::Exhaustive, AlignmentStrategy::ViewBased);
        assert_eq!(
            AlignmentStrategy::Preferential { limit: 3 },
            AlignmentStrategy::Preferential { limit: 3 }
        );
    }
}

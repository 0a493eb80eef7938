//! Q system configuration.

use serde::{Deserialize, Serialize};

use q_graph::keyword::MatchConfig;
use q_graph::SteinerConfig;

/// Tunable parameters of the Q system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QConfig {
    /// Number of ranked queries (Steiner trees) kept per view.
    pub top_k: usize,
    /// Candidate alignments kept per new-source attribute (`Y`).
    pub top_y: usize,
    /// Keyword matching thresholds.
    pub match_config: MatchConfig,
    /// Steiner search bounds: only `max_roots` and `max_cost` are read.
    /// Every search takes `k` from [`top_k`](Self::top_k), so `steiner.k`
    /// is never read.
    pub steiner: SteinerConfig,
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
    /// single-threaded; answers are byte-identical for any value.
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
        assert!(c.shard_workers >= 1);
    }
}

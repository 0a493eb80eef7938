//! Pins the Dijkstra fan-out to the byte-identity doctrine: fanning a
//! miss's per-terminal Dijkstras across W workers is a scheduling change,
//! never an answer change. Every property here compares fanned against
//! sequential byte for byte:
//!
//! * the fanned Steiner search splits only the *independent* per-terminal
//!   Dijkstras — the shared ranking tail is a pure function of their
//!   results;
//! * end to end, a `LiveServer` at any `shard_workers` answers the GBCO
//!   workload — misses, hits, and post-feedback revalidations — identically
//!   to the single-worker baseline, cache statuses included.

use proptest::prelude::*;

use q_core::{CacheStatus, Feedback, FeedbackRequest, LiveServer, QConfig, QueryRequest};
use q_datasets::{gbco_catalog, gbco_trials, GbcoConfig};
use q_graph::steiner::GraphView;
use q_graph::{
    approx_top_k_detailed, approx_top_k_detailed_fanned, Csr, EdgeId, NodeId, SteinerConfig,
    SteinerScratch,
};

// ---------------------------------------------------------------------------
// Fanned per-terminal search == sequential search, on random graphs.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    csr: Csr,
}

impl RandomGraph {
    fn new(n: usize, edges: Vec<(u32, u32, f64)>) -> Self {
        let csr = Csr::build(
            n,
            edges
                .iter()
                .enumerate()
                .map(|(i, (a, b, _))| (EdgeId(i as u32), NodeId(*a), NodeId(*b))),
        );
        RandomGraph { n, edges, csr }
    }
}

impl GraphView for RandomGraph {
    fn node_count(&self) -> usize {
        self.n
    }
    fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        self.csr.neighbors(node)
    }
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let (a, b, _) = self.edges[edge.index()];
        (NodeId(a), NodeId(b))
    }
    fn edge_cost(&self, edge: EdgeId) -> f64 {
        self.edges[edge.index()].2
    }
}

/// Ring + random chords (connected, cost ties possible — the fanned search
/// must reproduce the sequential tie-breaks bit for bit either way).
fn random_graph() -> impl Strategy<Value = RandomGraph> {
    (
        4usize..14,
        proptest::collection::vec((0u32..14, 0u32..14, 0.1f64..3.0), 0..20),
    )
        .prop_map(|(n, chords)| {
            let mut edges: Vec<(u32, u32, f64)> = (0..n as u32)
                .map(|i| (i, (i + 1) % n as u32, 1.0))
                .collect();
            for (a, b, w) in chords {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    edges.push((a, b, w));
                }
            }
            RandomGraph::new(n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fanning the per-terminal Dijkstras across any worker count returns
    /// byte-identical trees (edges, nodes, bit-equal costs, order) and
    /// search stats to the sequential implementation.
    #[test]
    fn fanned_search_is_byte_identical(
        graph in random_graph(),
        t1 in 0u32..14,
        t2 in 0u32..14,
        t3 in 0u32..14,
        t4 in 0u32..14,
        k in 1usize..6,
    ) {
        let n = graph.node_count() as u32;
        let mut terminals: Vec<NodeId> =
            [t1 % n, t2 % n, t3 % n, t4 % n].into_iter().map(NodeId).collect();
        terminals.sort();
        terminals.dedup();
        let config = SteinerConfig { k, ..SteinerConfig::default() };

        let mut scratch = SteinerScratch::default();
        let (reference_trees, reference_stats) =
            approx_top_k_detailed(&graph, &terminals, &config, &mut scratch);
        for workers in [2usize, 3, 5, 16] {
            let mut scratch = SteinerScratch::default();
            let (trees, stats) =
                approx_top_k_detailed_fanned(&graph, &terminals, &config, &mut scratch, workers);
            prop_assert_eq!(trees.len(), reference_trees.len(), "W = {}", workers);
            for (a, b) in trees.iter().zip(&reference_trees) {
                prop_assert_eq!(&a.edges, &b.edges);
                prop_assert_eq!(&a.nodes, &b.nodes);
                prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "costs must be bit-identical");
            }
            prop_assert_eq!(
                format!("{stats:?}"),
                format!("{reference_stats:?}"),
                "search stats diverged at W = {}",
                workers
            );
        }
    }
}

// ---------------------------------------------------------------------------
// End to end: the GBCO workload across worker counts.
// ---------------------------------------------------------------------------

fn system(shard_workers: usize) -> LiveServer {
    let catalog = gbco_catalog(&GbcoConfig::default());
    LiveServer::new(
        catalog,
        QConfig {
            shard_workers,
            ..QConfig::default()
        },
    )
}

/// Replay the full GBCO trial workload through `q` three ways — cold
/// (misses), warm (hits), and again after a MIRA re-pricing (revalidations
/// and recomputes) — returning every (cache status, rendered view) pair.
fn transcript(q: &LiveServer) -> Vec<(CacheStatus, String)> {
    let trials = gbco_trials();
    let requests: Vec<QueryRequest> = trials
        .iter()
        .map(|t| QueryRequest::new(t.keywords.iter().cloned()))
        .collect();
    let mut log = Vec::new();
    for pass in 0..2 {
        for (request, trial) in requests.iter().zip(&trials) {
            let outcome = q.query(request).expect("gbco query answers");
            if pass == 0 {
                assert_eq!(outcome.cache, CacheStatus::Miss, "{:?}", trial.keywords);
            } else {
                assert_eq!(outcome.cache, CacheStatus::Hit, "{:?}", trial.keywords);
            }
            log.push((outcome.cache, format!("{:?}", outcome.view)));
        }
    }
    // Re-price through feedback on the first trial's keywords, then replay:
    // the cache serves a mix of revalidations and recomputes — the mix
    // itself must be identical at every worker count.
    q.feedback(&FeedbackRequest::on_keywords(
        trials[0].keywords.iter().cloned(),
        Feedback::Correct { answer: 0 },
    ))
    .expect("feedback applies");
    for request in &requests {
        let outcome = q.query(request).expect("post-feedback query answers");
        assert!(
            matches!(outcome.cache, CacheStatus::Revalidated | CacheStatus::Miss),
            "post-feedback serves revalidations or recomputes, got {:?}",
            outcome.cache
        );
        log.push((outcome.cache, format!("{:?}", outcome.view)));
    }
    log
}

#[test]
fn gbco_workload_is_byte_identical_across_the_shard_worker_grid() {
    let baseline = transcript(&system(1));
    assert!(
        baseline.iter().any(|(s, _)| *s == CacheStatus::Revalidated),
        "the workload must exercise the revalidation path"
    );
    for workers in [2, 3] {
        let log = transcript(&system(workers));
        assert_eq!(
            log.len(),
            baseline.len(),
            "transcript length at W = {workers}"
        );
        for (i, (got, want)) in log.iter().zip(&baseline).enumerate() {
            assert_eq!(got.0, want.0, "cache status #{i} diverged at W = {workers}");
            assert_eq!(got.1, want.1, "answer #{i} diverged at W = {workers}");
        }
    }
}

//! Top-k Steiner tree search over the query graph (Section 2.2).
//!
//! Every tree whose leaves cover all keyword nodes represents a candidate
//! join query; Q ranks them by total edge cost and keeps the `k` cheapest.
//! The paper uses an exact algorithm at small scales and an approximation at
//! larger scales. We provide both:
//!
//! * [`exact_minimum_steiner`] — the Dreyfus–Wagner dynamic program over
//!   terminal subsets, returning a provably minimum-cost Steiner tree.
//! * [`approx_top_k`] — a BANKS/STAR-style heuristic that grows candidate
//!   trees by unioning shortest paths from every candidate root to each
//!   terminal, then prunes and ranks them. This is what the Q pipeline uses
//!   at query time and what the learner uses for its K-best list.
//!
//! # Miss hot path layout
//!
//! The approximation inverts the naive root×terminal expansion: it runs one
//! *backward* Dijkstra per keyword terminal (terminals ≪ roots) and reuses
//! those `m` shortest-path trees across **every** candidate root — a root's
//! candidate tree is just the union of its `m` stored parent walks. The
//! per-terminal searches run on an [`IndexedHeap`] (4-ary, in-place
//! decrease-key, `f64::total_cmp` ordering) over generation-stamped
//! `ShortestPaths` scratch, so starting the next search is O(1) — no
//! `O(n)` distance-array reset, no lazy-deletion churn. Candidate trees are
//! deduplicated allocation-free by a 128-bit fingerprint of the sorted edge
//! list: a repeated raw union is dropped before the MST/leaf-strip pruning
//! even runs, and distinct unions that prune to the same tree are caught by
//! a second fingerprint afterwards.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::edge::EdgeId;
use crate::heap::IndexedHeap;
use crate::node::NodeId;

/// Read-only adjacency/cost view shared by [`SearchGraph`](crate::SearchGraph)
/// and [`QueryGraph`](crate::QueryGraph), so the Steiner algorithms work over
/// either.
///
/// `neighbors` returns a *borrowed slice* — implementors keep a packed
/// adjacency index (see [`Csr`](crate::Csr)) so the search loops below never
/// allocate per visited node.
pub trait GraphView {
    /// Number of nodes (node ids are dense in `0..node_count`).
    fn node_count(&self) -> usize;
    /// Incident edges of a node, with the opposite endpoint.
    fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)];
    /// Endpoints of an edge.
    fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId);
    /// Non-negative cost of an edge under the current weights.
    fn edge_cost(&self, edge: EdgeId) -> f64;
}

/// A Steiner tree: a set of edges connecting all terminals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteinerTree {
    /// Edges of the tree, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Nodes touched by the tree (including isolated single-terminal case).
    pub nodes: Vec<NodeId>,
    /// Total cost (sum of distinct edge costs).
    pub cost: f64,
}

impl SteinerTree {
    /// Build from a sorted, deduplicated edge list.
    fn from_edges<G: GraphView>(graph: &G, edges: Vec<EdgeId>, terminals: &[NodeId]) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let mut nodes: Vec<NodeId> = terminals.to_vec();
        let mut cost = 0.0;
        for e in &edges {
            let (a, b) = graph.edge_endpoints(*e);
            nodes.push(a);
            nodes.push(b);
            cost += graph.edge_cost(*e);
        }
        nodes.sort();
        nodes.dedup();
        SteinerTree { edges, nodes, cost }
    }

    /// Symmetric edge-set difference with another tree — the loss function
    /// `L(T, T')` of Equation 2. Both edge lists are sorted (a `SteinerTree`
    /// invariant), so this is a linear merge: no per-call set building,
    /// which matters because the MIRA constraint builder calls it once per
    /// candidate tree on every feedback interaction.
    pub fn symmetric_loss(&self, other: &SteinerTree) -> f64 {
        debug_assert!(self.edges.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(other.edges.windows(2).all(|w| w[0] < w[1]));
        let (mut i, mut j, mut diff) = (0, 0, 0usize);
        while i < self.edges.len() && j < other.edges.len() {
            match self.edges[i].cmp(&other.edges[j]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        (diff + (self.edges.len() - i) + (other.edges.len() - j)) as f64
    }

    /// True if the tree uses the given edge.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }
}

/// Configuration of the approximate top-k search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteinerConfig {
    /// Number of trees to return.
    pub k: usize,
    /// Maximum number of candidate roots to expand (0 = consider every
    /// reachable node). Limiting roots bounds work on large graphs.
    pub max_roots: usize,
    /// Cost budget: trees costing more than this are dropped before the
    /// top-k cutoff (`f64::INFINITY` = no budget). Serving requests use this
    /// to refuse expensive join trees outright instead of ranking them.
    pub max_cost: f64,
}

impl Default for SteinerConfig {
    fn default() -> Self {
        SteinerConfig {
            k: 10,
            max_roots: 0,
            max_cost: f64::INFINITY,
        }
    }
}

/// Observability counters filled by one [`approx_top_k_detailed`] run — the
/// per-query search provenance the serving layer reports alongside answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteinerStats {
    /// Terminals the search had to connect.
    pub terminals: usize,
    /// Candidate roots expanded (nodes reachable from every terminal, after
    /// the `max_roots` cutoff).
    pub roots_considered: usize,
    /// Candidate trees generated before edge-set deduplication.
    pub candidates_generated: usize,
    /// Candidates discarded as duplicates of an earlier tree's edge set.
    pub duplicates_pruned: usize,
    /// Distinct trees dropped for exceeding [`SteinerConfig::max_cost`].
    pub trees_over_budget: usize,
    /// Trees surviving dedup, budget and the top-k cutoff.
    pub trees_returned: usize,
}

/// Sentinel marking "no predecessor" in the dense parent arrays.
const NO_PARENT: EdgeId = EdgeId(u32::MAX);

/// Dense single-source shortest-path state: distance and predecessor
/// `(edge, node)` per graph node, indexed by node id.
///
/// Entries are generation-stamped: starting a new search is a counter bump
/// (`begin`), not an `O(n)` re-fill of three arrays, and a slot's contents
/// are only meaningful while its stamp matches the current generation.
#[derive(Debug, Clone, Default)]
struct ShortestPaths {
    dist: Vec<f64>,
    parent_edge: Vec<EdgeId>,
    parent_node: Vec<NodeId>,
    stamp: Vec<u32>,
    generation: u32,
}

impl ShortestPaths {
    /// Start a fresh search over `n` nodes. O(1) except when the buffers
    /// grow to a larger graph than any seen before.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent_edge.resize(n, NO_PARENT);
            self.parent_node.resize(n, NodeId(0));
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Distance of a node in the current search (∞ if unreached).
    #[inline]
    fn dist(&self, node: usize) -> f64 {
        if self.stamp[node] == self.generation {
            self.dist[node]
        } else {
            f64::INFINITY
        }
    }

    /// Predecessor edge of a node (`NO_PARENT` for the source or unreached).
    #[inline]
    fn parent_edge(&self, node: usize) -> EdgeId {
        if self.stamp[node] == self.generation {
            self.parent_edge[node]
        } else {
            NO_PARENT
        }
    }

    #[inline]
    fn parent_node(&self, node: usize) -> NodeId {
        self.parent_node[node]
    }

    /// Record a settled or improved node.
    #[inline]
    fn visit(&mut self, node: usize, dist: f64, parent_edge: EdgeId, parent_node: NodeId) {
        self.dist[node] = dist;
        self.parent_edge[node] = parent_edge;
        self.parent_node[node] = parent_node;
        self.stamp[node] = self.generation;
    }
}

/// Reusable scratch buffers for [`approx_top_k`]: the per-terminal
/// shortest-path arrays, the indexed Dijkstra frontier, the per-root
/// candidate edge list and the two fingerprint dedup sets. One instance
/// serves any number of searches over graphs of any size (buffers grow to
/// the largest graph seen and are then reused) — batch workers keep one per
/// thread via [`approx_top_k_with`].
#[derive(Debug, Clone, Default)]
pub struct SteinerScratch {
    paths: Vec<ShortestPaths>,
    heap: IndexedHeap,
    /// Extra frontiers for [`approx_top_k_detailed_fanned`]: worker `i > 0`
    /// drives its per-terminal searches on `heap_pool[i - 1]` while worker 0
    /// keeps using `heap`. Grown on demand, reused across queries.
    heap_pool: Vec<IndexedHeap>,
    candidate_edges: Vec<EdgeId>,
    seen_raw: HashSet<u128>,
    seen_trees: HashSet<u128>,
}

/// 128-bit fingerprint of a sorted edge list (two independent FNV-1a lanes).
/// Dedup keys on this instead of cloning the edge list into a
/// `HashSet<Vec<EdgeId>>`: no allocation per candidate, and a collision
/// needs both 64-bit lanes to collide at once.
#[inline]
fn edge_fingerprint(edges: &[EdgeId]) -> u128 {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for e in edges {
        let x = u64::from(e.0);
        h1 = (h1 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        h2 = (h2 ^ x.rotate_left(17)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    }
    (u128::from(h1) << 64) | u128::from(h2)
}

/// Single-source Dijkstra into dense, generation-stamped buffers on the
/// indexed heap. With in-place decrease-key every popped entry is settled —
/// there is no stale-entry branch in the loop.
fn dijkstra_into<G: GraphView>(
    graph: &G,
    source: NodeId,
    paths: &mut ShortestPaths,
    heap: &mut IndexedHeap,
) {
    paths.begin(graph.node_count());
    heap.reset(graph.node_count());
    paths.visit(source.index(), 0.0, NO_PARENT, source);
    heap.push(0.0, source.0);
    while let Some((d, node)) = heap.pop() {
        for &(edge, next) in graph.neighbors(NodeId(node)) {
            let nd = d + graph.edge_cost(edge).max(0.0);
            if nd < paths.dist(next.index()) - 1e-12 {
                paths.visit(next.index(), nd, edge, NodeId(node));
                heap.push(nd, next.0);
            }
        }
    }
}

/// Approximate top-k Steiner trees connecting `terminals`.
///
/// For every candidate root the union of shortest paths from the root to
/// each terminal forms a candidate tree; candidates are pruned to proper
/// trees, deduplicated by edge set and ranked by cost.
pub fn approx_top_k<G: GraphView>(
    graph: &G,
    terminals: &[NodeId],
    config: &SteinerConfig,
) -> Vec<SteinerTree> {
    approx_top_k_with(graph, terminals, config, &mut SteinerScratch::default())
}

/// [`approx_top_k`] with caller-provided scratch buffers, for hot loops that
/// run many searches (the batched query path, the learner's K-best).
pub fn approx_top_k_with<G: GraphView>(
    graph: &G,
    terminals: &[NodeId],
    config: &SteinerConfig,
    scratch: &mut SteinerScratch,
) -> Vec<SteinerTree> {
    approx_top_k_detailed(graph, terminals, config, scratch).0
}

/// [`approx_top_k_with`], additionally reporting [`SteinerStats`] about the
/// search — how many roots were expanded, how many candidates were pruned as
/// duplicates or dropped over the cost budget. The serving layer surfaces
/// these stats as per-query provenance.
pub fn approx_top_k_detailed<G: GraphView>(
    graph: &G,
    terminals: &[NodeId],
    config: &SteinerConfig,
    scratch: &mut SteinerScratch,
) -> (Vec<SteinerTree>, SteinerStats) {
    let mut stats = SteinerStats {
        terminals: terminals.len(),
        ..SteinerStats::default()
    };
    if terminals.is_empty() || config.k == 0 {
        return (Vec::new(), stats);
    }
    if terminals.len() == 1 {
        stats.trees_returned = 1;
        return (
            vec![SteinerTree {
                edges: Vec::new(),
                nodes: vec![terminals[0]],
                cost: 0.0,
            }],
            stats,
        );
    }

    // One backward Dijkstra per terminal, into reused stamped buffers. The
    // m resulting shortest-path trees are shared by every candidate root
    // below — this is the terminal-inversion that keeps a miss O(m · search)
    // instead of O(roots · search).
    while scratch.paths.len() < terminals.len() {
        scratch.paths.push(ShortestPaths::default());
    }
    for (i, t) in terminals.iter().enumerate() {
        let paths = &mut scratch.paths[i];
        dijkstra_into(graph, *t, paths, &mut scratch.heap);
    }
    rank_candidate_trees(graph, terminals, config, scratch, stats)
}

/// [`approx_top_k_detailed`] with the independent per-terminal backward
/// Dijkstras fanned across `workers` threads (the serving miss path passes
/// `QConfig::shard_workers`). Each worker owns a contiguous
/// chunk of the per-terminal path buffers and its own [`IndexedHeap`]; the
/// search results per terminal do not depend on which thread ran them, and
/// every stage after the Dijkstras is shared with the sequential entry
/// point, so the returned trees are byte-identical for any worker count
/// (pinned by `tests/shard_equivalence.rs`).
pub fn approx_top_k_detailed_fanned<G: GraphView + Sync>(
    graph: &G,
    terminals: &[NodeId],
    config: &SteinerConfig,
    scratch: &mut SteinerScratch,
    workers: usize,
) -> (Vec<SteinerTree>, SteinerStats) {
    let workers = workers.clamp(1, terminals.len().max(1));
    if workers <= 1 || config.k == 0 || terminals.len() < 2 {
        return approx_top_k_detailed(graph, terminals, config, scratch);
    }
    let stats = SteinerStats {
        terminals: terminals.len(),
        ..SteinerStats::default()
    };
    while scratch.paths.len() < terminals.len() {
        scratch.paths.push(ShortestPaths::default());
    }
    while scratch.heap_pool.len() + 1 < workers {
        scratch.heap_pool.push(IndexedHeap::default());
    }
    let chunk = terminals.len().div_ceil(workers);
    {
        let paths = &mut scratch.paths[..terminals.len()];
        let heaps = std::iter::once(&mut scratch.heap).chain(scratch.heap_pool.iter_mut());
        std::thread::scope(|s| {
            for ((t_chunk, p_chunk), heap) in terminals
                .chunks(chunk)
                .zip(paths.chunks_mut(chunk))
                .zip(heaps)
            {
                s.spawn(move || {
                    for (t, p) in t_chunk.iter().zip(p_chunk.iter_mut()) {
                        dijkstra_into(graph, *t, p, heap);
                    }
                });
            }
        });
    }
    rank_candidate_trees(graph, terminals, config, scratch, stats)
}

/// The shared tail of the approximate search: given per-terminal shortest
/// paths already computed into `scratch.paths[..terminals.len()]`, collect
/// candidate roots, union their parent walks, dedup, prune and rank. This is
/// a pure function of the path buffers, which is what makes the fanned and
/// sequential Dijkstra phases interchangeable.
fn rank_candidate_trees<G: GraphView>(
    graph: &G,
    terminals: &[NodeId],
    config: &SteinerConfig,
    scratch: &mut SteinerScratch,
    mut stats: SteinerStats,
) -> (Vec<SteinerTree>, SteinerStats) {
    let per_terminal = &scratch.paths[..terminals.len()];

    // Candidate roots: nodes reachable from every terminal.
    let mut roots: Vec<(NodeId, f64)> = Vec::new();
    'outer: for n in 0..graph.node_count() {
        let mut total = 0.0;
        for paths in per_terminal {
            let d = paths.dist(n);
            if !d.is_finite() {
                continue 'outer;
            }
            total += d;
        }
        roots.push((NodeId(n as u32), total));
    }
    roots.sort_by(|a, b| a.1.total_cmp(&b.1));
    if config.max_roots > 0 {
        roots.truncate(config.max_roots);
    }

    stats.roots_considered = roots.len();

    scratch.seen_raw.clear();
    scratch.seen_trees.clear();
    let mut trees: Vec<SteinerTree> = Vec::new();
    for (root, _) in roots {
        let edges = &mut scratch.candidate_edges;
        edges.clear();
        for paths in per_terminal {
            // Walk from the root back towards the terminal.
            let mut cur = root;
            while paths.parent_edge(cur.index()) != NO_PARENT {
                edges.push(paths.parent_edge(cur.index()));
                cur = paths.parent_node(cur.index());
            }
        }
        edges.sort_unstable();
        edges.dedup();
        stats.candidates_generated += 1;
        // Roots whose path union was already produced yield the same pruned
        // tree (pruning is a pure function of the edge set): drop them
        // before paying for the MST + leaf-strip.
        if !scratch.seen_raw.insert(edge_fingerprint(edges)) {
            stats.duplicates_pruned += 1;
            continue;
        }
        let pruned = prune_to_tree(graph, edges, terminals);
        // Distinct unions can still prune to the same tree.
        if !scratch.seen_trees.insert(edge_fingerprint(&pruned)) {
            stats.duplicates_pruned += 1;
            continue;
        }
        trees.push(SteinerTree::from_edges(graph, pruned, terminals));
    }
    trees.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    if config.max_cost.is_finite() {
        let before = trees.len();
        trees.retain(|t| t.cost <= config.max_cost + 1e-9);
        stats.trees_over_budget = before - trees.len();
    }
    trees.truncate(config.k);
    stats.trees_returned = trees.len();
    (trees, stats)
}

/// Prune a candidate edge set (sorted, deduplicated) down to a tree that
/// still connects the terminals: build a minimum spanning forest of the
/// subgraph, then repeatedly strip non-terminal leaves. Returns a sorted
/// edge list. Works over node ids compacted to the candidate subgraph, so
/// the union-find and degree arrays are small dense vectors.
fn prune_to_tree<G: GraphView>(graph: &G, edges: &[EdgeId], terminals: &[NodeId]) -> Vec<EdgeId> {
    if edges.is_empty() {
        return Vec::new();
    }
    // Compact the touched nodes to local indices.
    let mut local_nodes: Vec<NodeId> = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        let (a, b) = graph.edge_endpoints(*e);
        local_nodes.push(a);
        local_nodes.push(b);
    }
    local_nodes.sort();
    local_nodes.dedup();
    let local = |n: NodeId| local_nodes.binary_search(&n).expect("touched node");

    // Kruskal MST over the candidate edges (connects everything the
    // candidate set connects, with minimum cost, and removes cycles). Cost
    // ties break by edge id so the result is independent of input order.
    let mut by_cost: Vec<EdgeId> = edges.to_vec();
    by_cost.sort_by(|a, b| {
        graph
            .edge_cost(*a)
            .total_cmp(&graph.edge_cost(*b))
            .then(a.cmp(b))
    });
    let mut uf: Vec<u32> = (0..local_nodes.len() as u32).collect();
    fn find(uf: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while uf[root as usize] != root {
            root = uf[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while uf[cur as usize] != root {
            let next = uf[cur as usize];
            uf[cur as usize] = root;
            cur = next;
        }
        root
    }
    let mut mst: Vec<EdgeId> = Vec::with_capacity(local_nodes.len());
    for e in by_cost {
        let (a, b) = graph.edge_endpoints(e);
        let ra = find(&mut uf, local(a) as u32);
        let rb = find(&mut uf, local(b) as u32);
        if ra != rb {
            uf[ra as usize] = rb;
            mst.push(e);
        }
    }

    // Strip non-terminal leaves until fixpoint.
    let mut is_terminal = vec![false; local_nodes.len()];
    for t in terminals {
        if let Ok(i) = local_nodes.binary_search(t) {
            is_terminal[i] = true;
        }
    }
    let mut alive = vec![true; mst.len()];
    let mut degree = vec![0u32; local_nodes.len()];
    loop {
        degree.iter_mut().for_each(|d| *d = 0);
        for (i, e) in mst.iter().enumerate() {
            if alive[i] {
                let (a, b) = graph.edge_endpoints(*e);
                degree[local(a)] += 1;
                degree[local(b)] += 1;
            }
        }
        let mut removed_any = false;
        for (i, e) in mst.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let (a, b) = graph.edge_endpoints(*e);
            let (la, lb) = (local(a), local(b));
            if (degree[la] == 1 && !is_terminal[la]) || (degree[lb] == 1 && !is_terminal[lb]) {
                alive[i] = false;
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }
    let mut kept: Vec<EdgeId> = mst
        .into_iter()
        .zip(alive)
        .filter_map(|(e, keep)| keep.then_some(e))
        .collect();
    kept.sort();
    kept
}

/// Exact minimum Steiner tree via the Dreyfus–Wagner dynamic program.
///
/// Returns `None` when the terminals cannot all be connected. Falls back to
/// the approximation when there are more than 12 terminals (the DP is
/// exponential in the number of terminals).
pub fn exact_minimum_steiner<G: GraphView>(graph: &G, terminals: &[NodeId]) -> Option<SteinerTree> {
    if terminals.is_empty() {
        return None;
    }
    if terminals.len() == 1 {
        return Some(SteinerTree {
            edges: Vec::new(),
            nodes: vec![terminals[0]],
            cost: 0.0,
        });
    }
    if terminals.len() > 12 {
        let config = SteinerConfig {
            k: 1,
            ..SteinerConfig::default()
        };
        return approx_top_k(graph, terminals, &config).into_iter().next();
    }

    let n = graph.node_count();
    let t = terminals.len();
    let full = (1usize << t) - 1;
    const INF: f64 = f64::INFINITY;

    #[derive(Clone, Copy, Debug)]
    enum Choice {
        /// Terminal itself: the empty tree.
        Root,
        /// Extend from a neighbouring node along an edge (same subset).
        Extend { from: NodeId, edge: EdgeId },
        /// Merge two disjoint subsets at this node.
        Merge { subset: usize },
        /// Unreached.
        None,
    }

    let mut heap = IndexedHeap::new();
    let mut dp = vec![vec![INF; n]; full + 1];
    let mut choice = vec![vec![Choice::None; n]; full + 1];

    for (i, term) in terminals.iter().enumerate() {
        dp[1 << i][term.index()] = 0.0;
        choice[1 << i][term.index()] = Choice::Root;
    }

    for mask in 1..=full {
        // Merge step: combine proper sub-subsets meeting at v.
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask ^ sub;
            if sub < other {
                // Each unordered pair considered once.
                for v in 0..n {
                    if dp[sub][v] < INF && dp[other][v] < INF {
                        let c = dp[sub][v] + dp[other][v];
                        if c < dp[mask][v] - 1e-12 {
                            dp[mask][v] = c;
                            choice[mask][v] = Choice::Merge { subset: sub };
                        }
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        // Propagate step: Dijkstra relaxation within this subset level, on
        // the same indexed heap the serving search uses.
        heap.reset(n);
        for (v, &d) in dp[mask].iter().enumerate() {
            if d < INF {
                heap.push(d, v as u32);
            }
        }
        while let Some((d, node)) = heap.pop() {
            let node = NodeId(node);
            for &(edge, next) in graph.neighbors(node) {
                let nd = d + graph.edge_cost(edge).max(0.0);
                if nd < dp[mask][next.index()] - 1e-12 {
                    dp[mask][next.index()] = nd;
                    choice[mask][next.index()] = Choice::Extend { from: node, edge };
                    heap.push(nd, next.0);
                }
            }
        }
    }

    // Best meeting node for the full terminal set.
    let (best_v, best_cost) = (0..n)
        .map(|v| (v, dp[full][v]))
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    if !best_cost.is_finite() {
        return None;
    }

    // Reconstruct the edge set.
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut stack = vec![(full, best_v)];
    while let Some((mask, v)) = stack.pop() {
        match choice[mask][v] {
            Choice::Root | Choice::None => {}
            Choice::Extend { from, edge } => {
                edges.push(edge);
                stack.push((mask, from.index()));
            }
            Choice::Merge { subset } => {
                stack.push((subset, v));
                stack.push((mask ^ subset, v));
            }
        }
    }
    edges.sort();
    edges.dedup();
    Some(SteinerTree::from_edges(graph, edges, terminals))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::csr::Csr;

    /// Small explicit graph for testing the algorithms in isolation.
    struct TestGraph {
        edges: Vec<(NodeId, NodeId, f64)>,
        n: usize,
        csr: Csr,
    }

    impl TestGraph {
        fn new(n: usize, edges: &[(u32, u32, f64)]) -> Self {
            let edges: Vec<(NodeId, NodeId, f64)> = edges
                .iter()
                .map(|(a, b, c)| (NodeId(*a), NodeId(*b), *c))
                .collect();
            let csr = Csr::build(
                n,
                edges
                    .iter()
                    .enumerate()
                    .map(|(i, (a, b, _))| (EdgeId(i as u32), *a, *b)),
            );
            TestGraph { edges, n, csr }
        }
    }

    impl GraphView for TestGraph {
        fn node_count(&self) -> usize {
            self.n
        }
        fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
            self.csr.neighbors(node)
        }
        fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
            let (a, b, _) = self.edges[edge.index()];
            (a, b)
        }
        fn edge_cost(&self, edge: EdgeId) -> f64 {
            self.edges[edge.index()].2
        }
    }

    /// Path graph 0-1-2-3 plus a shortcut 0-3.
    fn path_with_shortcut() -> TestGraph {
        TestGraph::new(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.5)])
    }

    #[test]
    fn exact_two_terminals_is_shortest_path() {
        let g = path_with_shortcut();
        let tree = exact_minimum_steiner(&g, &[NodeId(0), NodeId(3)]).unwrap();
        // Shortcut (2.5) is cheaper than path (3.0)? No: path costs 3.0,
        // shortcut 2.5, so the tree should be the shortcut edge.
        assert!((tree.cost - 2.5).abs() < 1e-9);
        assert_eq!(tree.edges, vec![EdgeId(3)]);
    }

    #[test]
    fn exact_star_steiner_uses_internal_node() {
        // Star: center 0 connected to terminals 1, 2, 3.
        let g = TestGraph::new(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 5.0)]);
        let tree = exact_minimum_steiner(&g, &[NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        assert!((tree.cost - 3.0).abs() < 1e-9);
        assert_eq!(tree.edges.len(), 3);
        assert!(tree.nodes.contains(&NodeId(0)));
    }

    #[test]
    fn exact_single_terminal_is_trivial() {
        let g = path_with_shortcut();
        let tree = exact_minimum_steiner(&g, &[NodeId(2)]).unwrap();
        assert_eq!(tree.cost, 0.0);
        assert!(tree.edges.is_empty());
    }

    #[test]
    fn exact_disconnected_terminals_return_none() {
        let g = TestGraph::new(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(exact_minimum_steiner(&g, &[NodeId(0), NodeId(3)]).is_none());
    }

    #[test]
    fn approx_finds_optimal_on_small_graphs() {
        let g = path_with_shortcut();
        let trees = approx_top_k(&g, &[NodeId(0), NodeId(3)], &SteinerConfig::default());
        assert!(!trees.is_empty());
        assert!((trees[0].cost - 2.5).abs() < 1e-9);
        // Trees are sorted by cost.
        for w in trees.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9);
        }
    }

    #[test]
    fn approx_returns_multiple_distinct_trees() {
        let g = path_with_shortcut();
        let trees = approx_top_k(&g, &[NodeId(0), NodeId(3)], &SteinerConfig::default());
        assert!(trees.len() >= 2);
        assert_ne!(trees[0].edges, trees[1].edges);
    }

    #[test]
    fn approx_respects_k() {
        let g = path_with_shortcut();
        let trees = approx_top_k(
            &g,
            &[NodeId(0), NodeId(3)],
            &SteinerConfig {
                k: 1,
                ..SteinerConfig::default()
            },
        );
        assert_eq!(trees.len(), 1);
    }

    #[test]
    fn cost_budget_drops_expensive_trees_and_counts_them() {
        let g = path_with_shortcut();
        // Without a budget both the shortcut (2.5) and the path (3.0) rank.
        let unbounded = approx_top_k(&g, &[NodeId(0), NodeId(3)], &SteinerConfig::default());
        assert!(unbounded.len() >= 2);
        // A budget between the two keeps only the shortcut.
        let config = SteinerConfig {
            max_cost: 2.6,
            ..SteinerConfig::default()
        };
        let (trees, stats) = approx_top_k_detailed(
            &g,
            &[NodeId(0), NodeId(3)],
            &config,
            &mut SteinerScratch::default(),
        );
        assert_eq!(trees.len(), 1);
        assert!((trees[0].cost - 2.5).abs() < 1e-9);
        assert!(stats.trees_over_budget >= 1);
        assert_eq!(stats.trees_returned, 1);
    }

    #[test]
    fn detailed_stats_account_for_every_candidate() {
        let g = path_with_shortcut();
        let (trees, stats) = approx_top_k_detailed(
            &g,
            &[NodeId(0), NodeId(3)],
            &SteinerConfig::default(),
            &mut SteinerScratch::default(),
        );
        assert_eq!(stats.terminals, 2);
        assert!(stats.roots_considered > 0);
        assert_eq!(
            stats.candidates_generated,
            stats.duplicates_pruned + trees.len() + stats.trees_over_budget
        );
        assert_eq!(stats.trees_returned, trees.len());
        // The plain entry point returns the same trees.
        assert_eq!(
            trees,
            approx_top_k(&g, &[NodeId(0), NodeId(3)], &SteinerConfig::default())
        );
    }

    #[test]
    fn approx_handles_unreachable_terminals() {
        let g = TestGraph::new(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let trees = approx_top_k(&g, &[NodeId(0), NodeId(3)], &SteinerConfig::default());
        assert!(trees.is_empty());
    }

    #[test]
    fn approx_matches_exact_cost_on_star() {
        let g = TestGraph::new(
            5,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.5),
                (2, 3, 1.5),
                (1, 4, 0.5),
            ],
        );
        let terminals = [NodeId(1), NodeId(2), NodeId(3)];
        let exact = exact_minimum_steiner(&g, &terminals).unwrap();
        let approx = &approx_top_k(&g, &terminals, &SteinerConfig::default())[0];
        assert!(approx.cost >= exact.cost - 1e-9);
        // On this small instance the heuristic should find the optimum.
        assert!((approx.cost - exact.cost).abs() < 1e-9);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_graph_sizes() {
        // One scratch serving a big graph, then a small one, then the big
        // one again must give the same trees as fresh buffers every time.
        let big = TestGraph::new(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 0, 1.0),
                (0, 3, 2.0),
            ],
        );
        let small = path_with_shortcut();
        let mut scratch = SteinerScratch::default();
        let runs = [
            (
                approx_top_k_with(
                    &big,
                    &[NodeId(0), NodeId(3)],
                    &SteinerConfig::default(),
                    &mut scratch,
                ),
                approx_top_k(&big, &[NodeId(0), NodeId(3)], &SteinerConfig::default()),
            ),
            (
                approx_top_k_with(
                    &small,
                    &[NodeId(0), NodeId(2)],
                    &SteinerConfig::default(),
                    &mut scratch,
                ),
                approx_top_k(&small, &[NodeId(0), NodeId(2)], &SteinerConfig::default()),
            ),
            (
                approx_top_k_with(
                    &big,
                    &[NodeId(1), NodeId(4), NodeId(5)],
                    &SteinerConfig::default(),
                    &mut scratch,
                ),
                approx_top_k(
                    &big,
                    &[NodeId(1), NodeId(4), NodeId(5)],
                    &SteinerConfig::default(),
                ),
            ),
        ];
        for (with_scratch, fresh) in runs {
            assert_eq!(with_scratch, fresh);
        }
    }

    #[test]
    fn fanned_dijkstras_match_sequential_for_any_worker_count() {
        let g = TestGraph::new(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 0, 1.0),
                (0, 3, 2.0),
                (1, 4, 2.0),
            ],
        );
        let cases: [&[NodeId]; 4] = [
            &[NodeId(0), NodeId(3)],
            &[NodeId(1), NodeId(4), NodeId(5)],
            &[NodeId(2)],
            &[],
        ];
        let config = SteinerConfig::default();
        for terminals in cases {
            let sequential =
                approx_top_k_detailed(&g, terminals, &config, &mut SteinerScratch::default());
            for workers in [0, 1, 2, 3, 8] {
                let mut scratch = SteinerScratch::default();
                let fanned =
                    approx_top_k_detailed_fanned(&g, terminals, &config, &mut scratch, workers);
                assert_eq!(fanned, sequential, "{workers} workers diverged");
                // The same scratch keeps giving the same answer when reused.
                let again =
                    approx_top_k_detailed_fanned(&g, terminals, &config, &mut scratch, workers);
                assert_eq!(again, sequential);
            }
        }
    }

    #[test]
    fn symmetric_loss_counts_edge_differences() {
        let a = SteinerTree {
            edges: vec![EdgeId(0), EdgeId(1)],
            nodes: vec![],
            cost: 0.0,
        };
        let b = SteinerTree {
            edges: vec![EdgeId(1), EdgeId(2), EdgeId(3)],
            nodes: vec![],
            cost: 0.0,
        };
        assert_eq!(a.symmetric_loss(&b), 3.0);
        assert_eq!(a.symmetric_loss(&a), 0.0);
        assert_eq!(b.symmetric_loss(&a), 3.0);
    }

    #[test]
    fn contains_edge_uses_sorted_lookup() {
        let t = SteinerTree {
            edges: vec![EdgeId(1), EdgeId(4), EdgeId(9)],
            nodes: vec![],
            cost: 0.0,
        };
        assert!(t.contains_edge(EdgeId(4)));
        assert!(!t.contains_edge(EdgeId(5)));
    }

    #[test]
    fn tree_nodes_cover_terminals_and_path_nodes() {
        let g = path_with_shortcut();
        let trees = approx_top_k(&g, &[NodeId(0), NodeId(2)], &SteinerConfig::default());
        let best = &trees[0];
        assert!(best.nodes.contains(&NodeId(0)));
        assert!(best.nodes.contains(&NodeId(2)));
        // Path 0-1-2 costs 2.0 which beats 0-3-2 (2.5+1.0).
        assert!((best.cost - 2.0).abs() < 1e-9);
        assert!(best.nodes.contains(&NodeId(1)));
    }
}

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
//! `O(n)` distance-array reset, no lazy-deletion churn. Beside the heap sits
//! a *zero-cost lane*: a node first reached at the key of the node being
//! settled (an attribute from its relation, a value from its attribute)
//! waits in a small min-queue of ids instead of sifting through the heap,
//! and the two heads merge in the heap's own `(key, node)` order, so nodes
//! settle exactly as before. Every relaxation and prune reads an edge's
//! cost from a column the graphs keep priced. Candidate trees are
//! deduplicated allocation-free by a 128-bit fingerprint of the sorted edge
//! list: a repeated raw union is dropped before the MST/leaf-strip pruning
//! even runs, and distinct unions that prune to the same tree are caught by
//! a second fingerprint afterwards.
//!
//! Most roots never get that far. A root `r` that is not a terminal, whose
//! parent edge is the same edge `e = (r, p)` in every terminal's tree, has
//! the union `{e} ∪ U(p)` with `r` a leaf hanging off `e`: its pruned tree is
//! `p`'s. When `p` comes earlier in root order (a dense position array in the
//! scratch, not a cost comparison — zero-cost edges tie on Σ dist), that tree
//! is already recorded, so `r` is counted as a duplicate without walking its
//! paths (the *known-root skip*; DESIGN.md gives the proof). The prune itself
//! runs on reused scratch: each candidate edge is priced once for Kruskal,
//! and non-terminal leaves are stripped with a degree queue. The ranking
//! keeps only the `k` cheapest trees within budget, in a list where ties
//! enter after equal costs; a [`SteinerTree`] is built only for a tree that
//! enters it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

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
    /// Non-negative cost of an edge under the current weights. Called on
    /// every relaxation and every prune, so implementors read it from a
    /// priced column (`SearchGraph` keeps one per edge, `QueryGraph` one
    /// more for its local edges) rather than computing a dot product.
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

/// Total cost of a sorted edge list, summed in that order — the one sum
/// every [`SteinerTree::cost`] is, so a cost computed before the tree is
/// built is bit-equal to the tree's.
fn tree_cost<G: GraphView>(graph: &G, edges: &[EdgeId]) -> f64 {
    edges.iter().fold(0.0, |cost, e| cost + graph.edge_cost(*e))
}

impl SteinerTree {
    /// Build from a sorted, deduplicated edge list and its [`tree_cost`].
    fn from_edges<G: GraphView>(
        graph: &G,
        edges: Vec<EdgeId>,
        terminals: &[NodeId],
        cost: f64,
    ) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let mut nodes: Vec<NodeId> = terminals.to_vec();
        for e in &edges {
            let (a, b) = graph.edge_endpoints(*e);
            nodes.push(a);
            nodes.push(b);
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
    /// Candidate trees generated before edge-set deduplication: one per
    /// root considered, including the roots the known-root skip never walks.
    pub candidates_generated: usize,
    /// Candidates discarded as duplicates of an earlier tree's edge set,
    /// including every root the known-root skip passes over (its tree is its
    /// parent's, recorded earlier).
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
/// shortest-path arrays, the indexed Dijkstra frontier, the candidate roots
/// and their positions, the per-root candidate edge list, the prune buffers
/// and the two fingerprint dedup sets. One instance serves any number of
/// searches over graphs of any size (buffers grow to the largest graph seen
/// and are then reused) — a serving thread keeps one across queries and
/// passes it to [`approx_top_k_detailed`].
#[derive(Debug, Clone, Default)]
pub struct SteinerScratch {
    paths: Vec<ShortestPaths>,
    frontier: Frontier,
    /// Extra frontiers for [`approx_top_k_detailed_fanned`]: worker `i > 0`
    /// drives its per-terminal searches on `frontier_pool[i - 1]` while
    /// worker 0 keeps using `frontier`. Grown on demand, reused across
    /// queries.
    frontier_pool: Vec<Frontier>,
    /// Candidate roots of the current search with their Σ dist, in root
    /// order.
    roots: Vec<(NodeId, f64)>,
    /// `node → position in roots`, [`UNSET`] for every other node.
    /// A search sets the entries of its roots and resets exactly those.
    root_position: Vec<u32>,
    candidate_edges: Vec<EdgeId>,
    prune: PruneScratch,
    seen_raw: HashSet<u128>,
    seen_trees: HashSet<u128>,
}

/// The empty slot of the dense `node → index` arrays in the scratch: a node
/// that is not a candidate root, or that the candidate being pruned does not
/// touch.
const UNSET: u32 = u32::MAX;

/// Buffers of [`prune_to_tree`], reused across every candidate.
#[derive(Debug, Clone, Default)]
struct PruneScratch {
    /// `node → local index` of the nodes the candidate touches, [`UNSET`]
    /// elsewhere; reset entry by entry from `touched` after every prune.
    local: Vec<u32>,
    /// `local index → node`.
    touched: Vec<NodeId>,
    /// Candidate edges as `(cost, edge, local a, local b)`, in Kruskal order.
    by_cost: Vec<(f64, EdgeId, u32, u32)>,
    /// Union-find parents over local indices.
    uf: Vec<u32>,
    /// Spanning-forest edges as `(edge, local a, local b)`.
    mst: Vec<(EdgeId, u32, u32)>,
    /// Per local node: its degree in the forest still standing, and the XOR
    /// of the indices (into `mst`) of its standing edges — for a leaf, its
    /// one edge.
    degree: Vec<u32>,
    edge_xor: Vec<u32>,
    is_terminal: Vec<bool>,
    /// Non-terminal leaves waiting to be stripped.
    leaves: Vec<u32>,
    /// The pruned tree's edges, sorted.
    kept: Vec<EdgeId>,
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

/// The frontier of one Dijkstra: the indexed heap, and the zero-cost lane
/// beside it. A node first reached across an edge that leaves its key
/// unchanged (`nd == d`, equal bits) joins the lane instead of the heap.
/// All lane entries share one key, the key of the node being settled when
/// they joined, so the lane is a min-queue of node ids alone.
#[derive(Debug, Clone, Default)]
struct Frontier {
    heap: IndexedHeap,
    lane: BinaryHeap<Reverse<u32>>,
}

/// `(key, node)` order of the indexed heap: key by `total_cmp`, ties by id.
#[inline]
fn comes_before(ka: f64, na: u32, kb: f64, nb: u32) -> bool {
    ka.total_cmp(&kb).then(na.cmp(&nb)).is_lt()
}

/// Single-source Dijkstra into dense, generation-stamped buffers, settling
/// nodes in exactly the `(key, node)` order of one [`IndexedHeap`].
///
/// Zero-cost relaxations to unqueued nodes go to the frontier's lane.
/// Every heap key is at or above the lane's key, so the two heads are
/// compared only while the lane holds entries: the heap's minimum is then
/// taken out (`held`) and settled first if it comes before the lane's head.
/// `held` stays at or before every heap entry: a heap push that would come
/// before it puts it back (and when the push lowered `held`'s own node, the
/// heap ignores the put-back's larger key). A queued node never joins the
/// lane, so no node is queued twice, and the merged order of the two heads
/// is the plain heap's.
fn dijkstra_into<G: GraphView>(
    graph: &G,
    source: NodeId,
    paths: &mut ShortestPaths,
    frontier: &mut Frontier,
) {
    let Frontier { heap, lane } = frontier;
    paths.begin(graph.node_count());
    heap.reset(graph.node_count());
    lane.clear();
    paths.visit(source.index(), 0.0, NO_PARENT, source);
    let mut lane_key = 0.0;
    lane.push(Reverse(source.0));
    let mut held: Option<(f64, u32)> = None;
    loop {
        if held.is_none() && !lane.is_empty() {
            held = heap.pop();
        }
        let (d, node) = match (lane.peek().copied(), held) {
            (Some(Reverse(l)), Some((k, h))) if comes_before(k, h, lane_key, l) => {
                held = None;
                (k, h)
            }
            (Some(Reverse(l)), _) => {
                lane.pop();
                (lane_key, l)
            }
            (None, Some(top)) => {
                held = None;
                top
            }
            (None, None) => match heap.pop() {
                Some(top) => top,
                None => break,
            },
        };
        for &(edge, next) in graph.neighbors(NodeId(node)) {
            let nd = d + graph.edge_cost(edge).max(0.0);
            let old = paths.dist(next.index());
            if nd < old - 1e-12 {
                paths.visit(next.index(), nd, edge, NodeId(node));
                if old == f64::INFINITY && nd.to_bits() == d.to_bits() {
                    lane_key = d;
                    lane.push(Reverse(next.0));
                    continue;
                }
                heap.push(nd, next.0);
                if let Some((k, h)) = held {
                    if comes_before(nd, next.0, k, h) {
                        heap.push(k, h);
                        held = None;
                    }
                }
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
    approx_top_k_detailed(graph, terminals, config, &mut SteinerScratch::default()).0
}

/// [`approx_top_k`] with caller-provided scratch buffers, for hot loops that
/// run many searches, additionally reporting [`SteinerStats`] about the
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
        dijkstra_into(graph, *t, paths, &mut scratch.frontier);
    }
    rank_candidate_trees(graph, terminals, config, scratch, stats)
}

/// [`approx_top_k_detailed`] with the independent per-terminal backward
/// Dijkstras fanned across `workers` threads (the serving miss path passes
/// `QConfig::shard_workers`). Each worker owns a contiguous
/// chunk of the per-terminal path buffers and its own frontier; the
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
    while scratch.frontier_pool.len() + 1 < workers {
        scratch.frontier_pool.push(Frontier::default());
    }
    let chunk = terminals.len().div_ceil(workers);
    {
        let paths = &mut scratch.paths[..terminals.len()];
        let frontiers =
            std::iter::once(&mut scratch.frontier).chain(scratch.frontier_pool.iter_mut());
        std::thread::scope(|s| {
            for ((t_chunk, p_chunk), frontier) in terminals
                .chunks(chunk)
                .zip(paths.chunks_mut(chunk))
                .zip(frontiers)
            {
                s.spawn(move || {
                    for (t, p) in t_chunk.iter().zip(p_chunk.iter_mut()) {
                        dijkstra_into(graph, *t, p, frontier);
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
    let SteinerScratch {
        paths,
        roots,
        root_position,
        candidate_edges: edges,
        prune,
        seen_raw,
        seen_trees,
        ..
    } = scratch;
    let per_terminal = &paths[..terminals.len()];

    // Candidate roots: nodes reachable from every terminal.
    roots.clear();
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
    if root_position.len() < graph.node_count() {
        root_position.resize(graph.node_count(), UNSET);
    }
    for (i, (root, _)) in roots.iter().enumerate() {
        root_position[root.index()] = i as u32;
    }

    seen_raw.clear();
    seen_trees.clear();
    // The `k` cheapest trees within budget so far, in (cost, root order)
    // order: a tree enters after every tree of equal cost, as in a stable
    // sort of all of them, and only a tree that enters is built.
    let mut trees: Vec<SteinerTree> = Vec::new();
    for (i, &(root, _)) in roots.iter().enumerate() {
        stats.candidates_generated += 1;
        if parent_tree_is_known(per_terminal, root_position, root, i) {
            stats.duplicates_pruned += 1;
            continue;
        }
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
        // Roots whose path union was already produced yield the same pruned
        // tree (pruning is a pure function of the edge set): drop them
        // before paying for the MST + leaf-strip.
        if !seen_raw.insert(edge_fingerprint(edges)) {
            stats.duplicates_pruned += 1;
            continue;
        }
        let pruned = prune_to_tree(graph, edges, terminals, prune);
        // Distinct unions can still prune to the same tree.
        if !seen_trees.insert(edge_fingerprint(pruned)) {
            stats.duplicates_pruned += 1;
            continue;
        }
        let cost = tree_cost(graph, pruned);
        if config.max_cost.is_finite() && !(cost <= config.max_cost + 1e-9) {
            stats.trees_over_budget += 1;
            continue;
        }
        let at = trees.partition_point(|t| t.cost.total_cmp(&cost).is_le());
        if at < config.k {
            if trees.len() == config.k {
                trees.pop();
            }
            trees.insert(
                at,
                SteinerTree::from_edges(graph, pruned.to_vec(), terminals, cost),
            );
        }
    }
    for (root, _) in roots.iter() {
        root_position[root.index()] = UNSET;
    }
    stats.trees_returned = trees.len();
    (trees, stats)
}

/// The known-root skip: true when `root` (at position `at` in root order)
/// has the same parent edge `e = (root, p)` in every terminal's tree and `p`
/// comes earlier in root order. Then `root` is a non-terminal leaf hanging
/// off the bridge `e` of its union `{e} ∪ U(p)`, Kruskal keeps `e` and
/// makes `U(p)`'s choices everywhere else, and the leaf strip removes `e`
/// again: its pruned tree is `p`'s, recorded when `p` was ranked. A terminal
/// root has no parent edge in its own tree, so it never qualifies.
#[inline]
fn parent_tree_is_known(
    per_terminal: &[ShortestPaths],
    root_position: &[u32],
    root: NodeId,
    at: usize,
) -> bool {
    let edge = per_terminal[0].parent_edge(root.index());
    edge != NO_PARENT
        && per_terminal[1..]
            .iter()
            .all(|paths| paths.parent_edge(root.index()) == edge)
        && (root_position[per_terminal[0].parent_node(root.index()).index()] as usize) < at
}

/// Prune a candidate edge set (sorted, deduplicated) down to a tree that
/// still connects the terminals: build a minimum spanning forest of the
/// subgraph (Kruskal in `(cost, edge id)` order, each edge priced once),
/// then strip non-terminal leaves with a degree queue until none is left.
/// Returns the kept edges, sorted, in `scratch`. Works over node ids
/// compacted to the candidate subgraph, so the union-find and degree arrays
/// are small dense vectors, and allocates nothing once the buffers have
/// grown.
fn prune_to_tree<'s, G: GraphView>(
    graph: &G,
    edges: &[EdgeId],
    terminals: &[NodeId],
    scratch: &'s mut PruneScratch,
) -> &'s [EdgeId] {
    let PruneScratch {
        local,
        touched,
        by_cost,
        uf,
        mst,
        degree,
        edge_xor,
        is_terminal,
        leaves,
        kept,
    } = scratch;
    kept.clear();
    if edges.is_empty() {
        return kept;
    }
    if local.len() < graph.node_count() {
        local.resize(graph.node_count(), UNSET);
    }
    // Compact the touched nodes to local indices, pricing each edge once.
    touched.clear();
    let mut local_of = |n: NodeId| {
        let slot = &mut local[n.index()];
        if *slot == UNSET {
            *slot = touched.len() as u32;
            touched.push(n);
        }
        *slot
    };
    by_cost.clear();
    for &e in edges {
        let (a, b) = graph.edge_endpoints(e);
        by_cost.push((graph.edge_cost(e), e, local_of(a), local_of(b)));
    }
    let nodes = touched.len();

    // Kruskal MST over the candidate edges (connects everything the
    // candidate set connects, with minimum cost, and removes cycles). Cost
    // ties break by edge id so the result is independent of input order.
    by_cost.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    uf.clear();
    uf.extend(0..nodes as u32);
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
    mst.clear();
    for &(_, e, a, b) in by_cost.iter() {
        let (ra, rb) = (find(uf, a), find(uf, b));
        if ra != rb {
            uf[ra as usize] = rb;
            mst.push((e, a, b));
        }
    }

    // Strip non-terminal leaves until fixpoint. The fixpoint of a forest is
    // unique (the edges on paths between terminals), so stripping one leaf
    // at a time from a queue reaches the same tree as stripping in rounds.
    degree.clear();
    degree.resize(nodes, 0);
    edge_xor.clear();
    edge_xor.resize(nodes, 0);
    for (i, &(_, a, b)) in mst.iter().enumerate() {
        for v in [a, b] {
            degree[v as usize] += 1;
            edge_xor[v as usize] ^= i as u32;
        }
    }
    is_terminal.clear();
    is_terminal.resize(nodes, false);
    for t in terminals {
        let i = local[t.index()];
        if i != UNSET {
            is_terminal[i as usize] = true;
        }
    }
    for &n in touched.iter() {
        local[n.index()] = UNSET;
    }
    leaves.clear();
    leaves
        .extend((0..nodes as u32).filter(|&v| degree[v as usize] == 1 && !is_terminal[v as usize]));
    while let Some(v) = leaves.pop() {
        if degree[v as usize] != 1 {
            // Its last edge went when the other end was stripped.
            continue;
        }
        let i = edge_xor[v as usize];
        let (_, a, b) = mst[i as usize];
        for u in [a, b] {
            degree[u as usize] -= 1;
            edge_xor[u as usize] ^= i;
            if u != v && degree[u as usize] == 1 && !is_terminal[u as usize] {
                leaves.push(u);
            }
        }
    }
    // A stripped edge left its leaf at degree 0 for good; a standing edge
    // has both ends at degree 1 or more.
    kept.extend(
        mst.iter()
            .filter(|&&(_, a, b)| degree[a as usize] > 0 && degree[b as usize] > 0)
            .map(|&(e, _, _)| e),
    );
    kept.sort_unstable();
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
    let cost = tree_cost(graph, &edges);
    Some(SteinerTree::from_edges(graph, edges, terminals, cost))
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
                approx_top_k_detailed(
                    &big,
                    &[NodeId(0), NodeId(3)],
                    &SteinerConfig::default(),
                    &mut scratch,
                )
                .0,
                approx_top_k(&big, &[NodeId(0), NodeId(3)], &SteinerConfig::default()),
            ),
            (
                approx_top_k_detailed(
                    &small,
                    &[NodeId(0), NodeId(2)],
                    &SteinerConfig::default(),
                    &mut scratch,
                )
                .0,
                approx_top_k(&small, &[NodeId(0), NodeId(2)], &SteinerConfig::default()),
            ),
            (
                approx_top_k_detailed(
                    &big,
                    &[NodeId(1), NodeId(4), NodeId(5)],
                    &SteinerConfig::default(),
                    &mut scratch,
                )
                .0,
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

    /// A 4×4 grid whose edge costs cycle through a zero, ties and dyadic
    /// fractions: every node is a root, and a corner-to-corner query has
    /// many distinct trees, several of equal cost.
    fn grid() -> TestGraph {
        const COSTS: [f64; 5] = [1.0, 0.5, 0.5, 1.0, 0.0];
        let mut edges = Vec::new();
        for v in 0..16u32 {
            if v % 4 < 3 {
                edges.push((v, v + 1, COSTS[edges.len() % 5]));
            }
            if v < 12 {
                edges.push((v, v + 4, COSTS[edges.len() % 5]));
            }
        }
        TestGraph::new(16, &edges)
    }

    /// The ranking kept to `k` under a budget is the unbounded ranking
    /// filtered by that budget and cut at `k`, stats included. Both sides
    /// insert ties after equal costs; that this is the order of a stable
    /// sort of every tree is pinned against the seed algorithm by
    /// `tests/search_equivalence.rs`.
    #[test]
    fn bounded_ranking_equals_the_budget_filtered_prefix_of_the_full_ranking() {
        let g = grid();
        let mut scratch = SteinerScratch::default();
        let terminal_sets: [&[NodeId]; 3] = [
            &[NodeId(0), NodeId(15)],
            &[NodeId(3), NodeId(12), NodeId(9)],
            &[NodeId(1), NodeId(14)],
        ];
        for terminals in terminal_sets {
            let everything = SteinerConfig {
                k: usize::MAX,
                max_roots: 0,
                max_cost: f64::INFINITY,
            };
            let (all, all_stats) = approx_top_k_detailed(&g, terminals, &everything, &mut scratch);
            assert!(all.len() > 3, "{terminals:?}: only {} trees", all.len());
            assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
            // Equal-cost trees, so the cut and the order meet ties.
            assert!(all.windows(2).any(|w| w[0].cost == w[1].cost));
            let mut budgets: Vec<f64> = all.iter().map(|t| t.cost).collect();
            budgets.push(all[0].cost - 0.5);
            for k in [1, 2, 3] {
                for &budget in &budgets {
                    let in_budget: Vec<SteinerTree> = all
                        .iter()
                        .filter(|t| t.cost <= budget + 1e-9)
                        .cloned()
                        .collect();
                    let expected_stats = SteinerStats {
                        trees_over_budget: all.len() - in_budget.len(),
                        trees_returned: in_budget.len().min(k),
                        ..all_stats
                    };
                    let expected: Vec<SteinerTree> = in_budget.into_iter().take(k).collect();
                    let config = SteinerConfig {
                        k,
                        max_roots: 0,
                        max_cost: budget,
                    };
                    assert_eq!(
                        approx_top_k_detailed(&g, terminals, &config, &mut scratch),
                        (expected, expected_stats),
                        "{terminals:?}, k {k}, budget {budget}"
                    );
                }
            }
        }
    }

    /// The Dijkstra this module ran before the zero-cost lane: every queued
    /// node on one [`IndexedHeap`].
    fn plain_heap_dijkstra<G: GraphView>(graph: &G, source: NodeId, paths: &mut ShortestPaths) {
        let mut heap = IndexedHeap::new();
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

    /// A graph that logs the node of every `neighbors` call: a Dijkstra
    /// makes one per settled node, so the log is its settle order.
    struct Recording<'g> {
        graph: &'g TestGraph,
        settled: std::cell::RefCell<Vec<NodeId>>,
    }

    impl GraphView for Recording<'_> {
        fn node_count(&self) -> usize {
            self.graph.node_count()
        }
        fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
            self.settled.borrow_mut().push(node);
            self.graph.neighbors(node)
        }
        fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
            self.graph.edge_endpoints(edge)
        }
        fn edge_cost(&self, edge: EdgeId) -> f64 {
            self.graph.edge_cost(edge)
        }
    }

    type PathState = (Vec<NodeId>, Vec<(u64, EdgeId, Option<NodeId>)>);

    /// Settle order and `(dist bits, parent edge, parent node)` per node.
    fn path_state(g: &TestGraph, run: impl FnOnce(&Recording<'_>) -> ShortestPaths) -> PathState {
        let recording = Recording {
            graph: g,
            settled: Default::default(),
        };
        let paths = run(&recording);
        let per_node = (0..g.n)
            .map(|v| {
                let edge = paths.parent_edge(v);
                let node = (edge != NO_PARENT).then(|| paths.parent_node(v));
                (paths.dist(v).to_bits(), edge, node)
            })
            .collect();
        (recording.settled.into_inner(), per_node)
    }

    /// Lane and plain heap agree from every source of `g`, on one reused
    /// frontier and path buffer.
    fn assert_lane_matches_plain_heap(g: &TestGraph, frontier: &mut Frontier, what: &str) {
        let mut lane_paths = ShortestPaths::default();
        for source in (0..g.n as u32).map(NodeId) {
            let plain = path_state(g, |r| {
                let mut paths = ShortestPaths::default();
                plain_heap_dijkstra(r, source, &mut paths);
                paths
            });
            let lane = path_state(g, |r| {
                dijkstra_into(r, source, &mut lane_paths, frontier);
                std::mem::take(&mut lane_paths)
            });
            assert_eq!(lane, plain, "{what}, source {source}");
        }
    }

    #[test]
    fn zero_cost_lane_settles_in_plain_heap_order() {
        let corners = [
            (
                // 1 is queued at 1.0 when 2 (settled at 0.5) reaches it at
                // no cost: the decrease-key goes to the heap, not the lane.
                "zero-cost decrease-key of a heap entry",
                TestGraph::new(4, &[(0, 1, 1.0), (0, 2, 0.5), (2, 1, 0.0), (1, 3, 0.5)]),
            ),
            (
                // From 0, 3 joins the lane and 1 is the held heap minimum;
                // 3 lowers 1 in place and pushes 4 ahead of it.
                "decrease-key of the held minimum, and a push ahead of it",
                TestGraph::new(
                    5,
                    &[
                        (0, 1, 1.0),
                        (0, 3, 0.0),
                        (3, 1, 0.25),
                        (3, 4, 0.5),
                        (1, 4, 0.0),
                    ],
                ),
            ),
            (
                // From 5, the lane holds 1 and 3; 1 adds 0, a smaller id
                // than its parent, which must settle before 3.
                "zero-cost child with a smaller id than its parent",
                TestGraph::new(
                    6,
                    &[
                        (5, 3, 0.0),
                        (5, 1, 0.0),
                        (1, 0, 0.0),
                        (5, 2, 1.0),
                        (0, 4, 1.0),
                        (3, 4, 1.0),
                    ],
                ),
            ),
            (
                // 1 settles at 0.5 from the heap and puts 3 and 5 in the
                // lane at 0.5, while 4 waits in the heap at 0.5: 3, 4, 5 in
                // id order, and 6's parent is whichever of 3 and 4 is first.
                "lane entries tie the heap's top key",
                TestGraph::new(
                    7,
                    &[
                        (0, 1, 0.5),
                        (0, 2, 0.25),
                        (2, 4, 0.25),
                        (1, 5, 0.0),
                        (1, 3, 0.0),
                        (4, 6, 1.0),
                        (3, 6, 1.0),
                        (5, 6, 1.0),
                    ],
                ),
            ),
        ];
        let mut frontier = Frontier::default();
        for (what, g) in &corners {
            assert_lane_matches_plain_heap(g, &mut frontier, what);
            // The fanned entry point at two workers ranks the plain heap's
            // shortest-path trees.
            let terminals: Vec<NodeId> = [0, g.n as u32 - 1, g.n as u32 / 2]
                .into_iter()
                .map(NodeId)
                .collect();
            let config = SteinerConfig::default();
            let mut reference = SteinerScratch::default();
            reference.paths = terminals
                .iter()
                .map(|&t| {
                    let mut paths = ShortestPaths::default();
                    plain_heap_dijkstra(g, t, &mut paths);
                    paths
                })
                .collect();
            let stats = SteinerStats {
                terminals: terminals.len(),
                ..SteinerStats::default()
            };
            let expected = rank_candidate_trees(g, &terminals, &config, &mut reference, stats);
            let fanned = approx_top_k_detailed_fanned(
                g,
                &terminals,
                &config,
                &mut SteinerScratch::default(),
                2,
            );
            assert_eq!(fanned, expected, "{what}: fanned at 2 workers");
        }

        // And on random graphs dense in zero-cost edges and exact ties.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        for round in 0..300 {
            let n = 2 + next(12) as u32;
            let edges: Vec<(u32, u32, f64)> = (0..next(3 * n as u64 + 1))
                .map(|_| {
                    let cost = [0.0, 0.0, 0.25, 0.5, 1.0][next(5) as usize];
                    (next(n as u64) as u32, next(n as u64) as u32, cost)
                })
                .collect();
            let g = TestGraph::new(n as usize, &edges);
            assert_lane_matches_plain_heap(&g, &mut frontier, &format!("random graph {round}"));
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

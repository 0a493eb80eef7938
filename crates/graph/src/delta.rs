//! Reachability pricing of an ingestion delta: how cheaply can the new
//! edges reach a given node of the merged graph?
//!
//! Live ingestion publishes a grown graph and must decide, per cached
//! answer, whether the growth can place a new join tree into that answer's
//! ranked list. Any such tree contains at least one *bridge* edge — a new
//! edge with an endpoint in the pre-existing graph — plus, for every
//! keyword of the query, a path from that bridge to one of the keyword's
//! match nodes. [`DeltaPricer`] computes the cost side of that argument:
//! one multi-source Dijkstra over the merged graph, seeded at the bridge
//! edges' endpoints with the bridge's own cost as the starting distance.
//! The resulting `dist(v)` is a lower bound on the cost of any tree that
//! both crosses a bridge and touches `v`, so
//!
//! ```text
//! price(entry) = max over keywords k of
//!                  min over match nodes a of k of dist(a)
//! ```
//!
//! lower-bounds every tree the ingestion enables for that entry — a
//! per-entry bound, strictly tighter than the global cheapest-bridge floor
//! (which is `min over all v of dist(v)`).
//!
//! The search reuses the miss-path machinery: the 4-ary [`IndexedHeap`]
//! with in-place decrease-key and generation-stamped dense distance
//! buffers, so pricing the next publish is O(1) to start — no per-publish
//! buffer zeroing.
//!
//! The same search, bounded by a distance limit, is the α-cost
//! neighbourhood of Algorithm 2
//! ([`SearchGraph::cost_neighborhood`](crate::SearchGraph::cost_neighborhood)):
//! seeds at distance 0, limit α, and [`DeltaPricer::reached`] lists the
//! neighbourhood.

use crate::heap::IndexedHeap;
use crate::node::NodeId;
use crate::steiner::GraphView;

/// Reusable multi-source Dijkstra state for delta reachability pricing.
/// One instance prices any number of publishes over graphs of any size
/// (buffers grow to the largest graph seen and are then reused).
#[derive(Debug, Clone, Default)]
pub struct DeltaPricer {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    heap: IndexedHeap,
}

impl DeltaPricer {
    /// Run the multi-source search over `graph` from `seeds`: each seed is
    /// a node paired with its starting distance (for an ingestion delta,
    /// each bridge edge contributes both endpoints at the bridge's cost —
    /// the cheapest way to "be at" that endpoint having crossed the
    /// bridge). Duplicate seed nodes keep their minimum. Negative costs are
    /// clamped to zero like every other search in this crate. Nodes farther
    /// than `limit` (within the search's `1e-12` tolerance) are never
    /// reached; `f64::INFINITY` searches the whole graph.
    pub fn run<G: GraphView>(&mut self, graph: &G, seeds: &[(NodeId, f64)], limit: f64) {
        let limit = limit + 1e-12;
        let n = graph.node_count();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.heap.reset(n);
        for &(node, cost) in seeds {
            let c = cost.max(0.0);
            if node.index() < n && c <= limit && c < self.dist_of(node) {
                self.visit(node.index(), c);
                self.heap.push(c, node.0);
            }
        }
        while let Some((d, node)) = self.heap.pop() {
            for &(edge, next) in graph.neighbors(NodeId(node)) {
                let nd = d + graph.edge_cost(edge).max(0.0);
                if nd <= limit && nd < self.dist_of(next) - 1e-12 {
                    self.visit(next.index(), nd);
                    self.heap.push(nd, next.0);
                }
            }
        }
    }

    /// Distance of a node in the latest [`run`](Self::run) (∞ if no seed
    /// reaches it, or before any run).
    #[inline]
    pub fn dist(&self, node: NodeId) -> f64 {
        self.dist_of(node)
    }

    /// The nodes the latest [`run`](Self::run) reached, in id order.
    pub fn reached(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.stamp.len() as u32)
            .map(NodeId)
            .filter(|&node| self.dist_of(node) < f64::INFINITY)
    }

    #[inline]
    fn dist_of(&self, node: NodeId) -> f64 {
        let i = node.index();
        if i < self.stamp.len() && self.stamp[i] == self.generation && self.generation > 0 {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn visit(&mut self, node: usize, dist: f64) {
        self.dist[node] = dist;
        self.stamp[node] = self.generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeId;

    /// A line graph 0—1—2—…—n with unit edge costs.
    struct Line {
        adjacency: Vec<Vec<(EdgeId, NodeId)>>,
    }

    impl Line {
        fn new(nodes: usize) -> Self {
            let mut adjacency = vec![Vec::new(); nodes];
            for e in 0..nodes.saturating_sub(1) {
                adjacency[e].push((EdgeId(e as u32), NodeId(e as u32 + 1)));
                adjacency[e + 1].push((EdgeId(e as u32), NodeId(e as u32)));
            }
            Line { adjacency }
        }
    }

    impl GraphView for Line {
        fn node_count(&self) -> usize {
            self.adjacency.len()
        }
        fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
            &self.adjacency[node.index()]
        }
        fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
            (NodeId(edge.0), NodeId(edge.0 + 1))
        }
        fn edge_cost(&self, _edge: EdgeId) -> f64 {
            1.0
        }
    }

    #[test]
    fn distances_grow_away_from_the_seed() {
        let g = Line::new(5);
        let mut pricer = DeltaPricer::default();
        pricer.run(&g, &[(NodeId(0), 0.5)], f64::INFINITY);
        for (node, want) in [(0u32, 0.5), (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)] {
            assert_eq!(pricer.dist(NodeId(node)), want);
        }
    }

    #[test]
    fn multiple_seeds_take_the_cheapest_and_duplicates_keep_the_minimum() {
        let g = Line::new(5);
        let mut pricer = DeltaPricer::default();
        pricer.run(
            &g,
            &[(NodeId(0), 0.2), (NodeId(4), 0.1), (NodeId(4), 9.0)],
            f64::INFINITY,
        );
        assert_eq!(pricer.dist(NodeId(0)), 0.2);
        assert_eq!(pricer.dist(NodeId(1)), 1.2);
        // Node 3 is cheaper from the far seed.
        assert_eq!(pricer.dist(NodeId(3)), 1.1);
        assert_eq!(pricer.dist(NodeId(4)), 0.1);
    }

    #[test]
    fn reruns_reset_state_without_refilling_buffers() {
        let g = Line::new(4);
        let mut pricer = DeltaPricer::default();
        pricer.run(&g, &[(NodeId(0), 0.0)], f64::INFINITY);
        assert_eq!(pricer.dist(NodeId(3)), 3.0);
        pricer.run(&g, &[(NodeId(3), 0.0)], f64::INFINITY);
        assert_eq!(pricer.dist(NodeId(0)), 3.0);
        assert_eq!(pricer.dist(NodeId(3)), 0.0);
        // No seeds: everything is unreachable.
        pricer.run(&g, &[], f64::INFINITY);
        assert_eq!(pricer.dist(NodeId(0)), f64::INFINITY);
    }

    #[test]
    fn a_limit_bounds_the_search_and_reached_lists_what_it_found() {
        let g = Line::new(6);
        let mut pricer = DeltaPricer::default();
        pricer.run(&g, &[(NodeId(1), 0.0), (NodeId(5), 0.5)], 2.0);
        let reached: Vec<u32> = pricer.reached().map(|n| n.0).collect();
        assert_eq!(reached, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(pricer.dist(NodeId(4)), 1.5);
        pricer.run(&g, &[(NodeId(1), 0.0)], 1.0);
        let reached: Vec<u32> = pricer.reached().map(|n| n.0).collect();
        assert_eq!(reached, vec![0, 1, 2]);
        assert_eq!(pricer.dist(NodeId(3)), f64::INFINITY);
        // A seed beyond the limit is not reached either.
        pricer.run(&g, &[(NodeId(1), 0.5)], 0.25);
        assert_eq!(pricer.reached().count(), 0);
    }

    #[test]
    fn fresh_pricer_reports_infinity_everywhere() {
        let pricer = DeltaPricer::default();
        assert_eq!(pricer.dist(NodeId(7)), f64::INFINITY);
        assert_eq!(pricer.dist(NodeId(0)), f64::INFINITY);
    }
}

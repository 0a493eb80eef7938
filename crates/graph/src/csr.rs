//! Compressed-sparse-row adjacency index.
//!
//! The Steiner search visits every node's incident edges many times per
//! query (once per terminal Dijkstra, again per candidate root, again in the
//! Dreyfus–Wagner relaxation). The original adjacency representation — a
//! `Vec<EdgeId>` per node, with the opposite endpoint recomputed per visit —
//! allocated a fresh `Vec<(EdgeId, NodeId)>` on every call. [`Csr`] packs
//! the same information into two flat arrays (prefix-sum offsets and
//! `(edge, neighbour)` targets) so a node's neighbourhood is a borrowed
//! slice: no allocation, one cache line per small node, and a layout the
//! hot loops can iterate without pointer chasing.

use serde::{Deserialize, Serialize};

use crate::edge::EdgeId;
use crate::node::NodeId;

/// Packed adjacency: `targets[offsets[n]..offsets[n + 1]]` holds the
/// `(incident edge, opposite endpoint)` pairs of node `n`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<(EdgeId, NodeId)>,
}

impl Csr {
    /// Empty index over zero nodes.
    pub fn new() -> Self {
        Csr::default()
    }

    /// Reassemble an index from its raw arrays (what a persistent snapshot
    /// stores — see `q-snap`). The caller is responsible for `offsets` being
    /// a prefix sum ending at `targets.len()`.
    pub fn from_parts(offsets: Vec<u32>, targets: Vec<(EdgeId, NodeId)>) -> Self {
        debug_assert!(offsets.last().copied().unwrap_or(0) as usize == targets.len());
        Csr { offsets, targets }
    }

    /// The raw prefix-sum offset array (one entry per node plus a trailing
    /// total).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw packed target array.
    pub fn targets(&self) -> &[(EdgeId, NodeId)] {
        &self.targets
    }

    /// Build the index from an edge list. Self-loops contribute a single
    /// adjacency entry (matching the list-of-lists representation this
    /// replaces); every other edge appears in both endpoints' ranges.
    pub fn build<I>(node_count: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (EdgeId, NodeId, NodeId)> + Clone,
    {
        let mut degrees = vec![0u32; node_count];
        for (_, a, b) in edges.clone() {
            degrees[a.index()] += 1;
            if a != b {
                degrees[b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut total = 0u32;
        offsets.push(0);
        for d in &degrees {
            total += d;
            offsets.push(total);
        }
        // Fill targets using a per-node write cursor that starts at the
        // node's offset and advances as its entries land.
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        let mut targets = vec![(EdgeId(0), NodeId(0)); total as usize];
        for (e, a, b) in edges {
            targets[cursor[a.index()] as usize] = (e, b);
            cursor[a.index()] += 1;
            if a != b {
                targets[cursor[b.index()] as usize] = (e, a);
                cursor[b.index()] += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// Incident `(edge, opposite endpoint)` pairs of a node, in insertion
    /// order. Nodes beyond the indexed range (e.g. interned after the last
    /// rebuild, necessarily isolated) have an empty neighbourhood.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        let n = node.index();
        if n + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of adjacency entries (≈ 2 × edge count).
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// Heap footprint of the packed arrays in bytes (offsets plus targets):
    /// the adjacency half of a snapshot's accounted bytes, and exactly the
    /// snapshot file's CSR section less its two length prefixes.
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<(EdgeId, NodeId)>()
    }

    /// Degree of one node under this index (0 when out of range).
    #[inline]
    fn degree(&self, node: usize) -> u32 {
        if node + 1 >= self.offsets.len() {
            return 0;
        }
        self.offsets[node + 1] - self.offsets[node]
    }
}

/// A growth overlay over a packed [`Csr`]: nodes and edges added since the
/// base index was built, buffered until the next publish.
///
/// Live ingestion incorporates a new source while readers keep serving from
/// the previous packed index. The writer records the source's nodes and
/// edges in a `CsrDelta` and calls [`CsrDelta::merge`] once at publish time,
/// which produces a fresh packed `Csr` using the same prefix-sum machinery
/// as [`Csr::build`] — but copying the base index's already-packed ranges
/// instead of re-walking every historical edge. The merged index is
/// byte-identical to a from-scratch pack of the full edge list (pinned by
/// the `csr_delta_merge_equals_scratch_pack` property test), so downstream
/// tie-breaking — which leans on adjacency order — cannot tell delta-grown
/// graphs from rebuilt ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrDelta {
    /// Node count after the growth (≥ the base index's).
    node_count: usize,
    /// Edges added since the base was packed, in insertion (id) order.
    edges: Vec<(EdgeId, NodeId, NodeId)>,
}

impl CsrDelta {
    /// Empty delta over a base index covering `base_node_count` nodes.
    pub fn new(base_node_count: usize) -> Self {
        CsrDelta {
            node_count: base_node_count,
            edges: Vec::new(),
        }
    }

    /// Record that the graph now has `count` nodes (newly interned nodes are
    /// appended, so the count only grows).
    pub fn grow_nodes(&mut self, count: usize) {
        self.node_count = self.node_count.max(count);
    }

    /// Record one added edge. Edges must arrive in ascending id order (the
    /// order the graph assigns them) so the merged adjacency preserves the
    /// global insertion order.
    pub fn add_edge(&mut self, edge: EdgeId, a: NodeId, b: NodeId) {
        debug_assert!(
            self.edges.last().is_none_or(|(last, _, _)| *last < edge),
            "delta edges must be recorded in ascending id order"
        );
        self.grow_nodes(a.index().max(b.index()) + 1);
        self.edges.push((edge, a, b));
    }

    /// True when nothing was added since the base was packed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of buffered edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node count the merged index will cover.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Merge the delta into a fresh packed index.
    ///
    /// Per node the merged range is the base range followed by the delta
    /// entries in insertion order; because delta edge ids are strictly
    /// greater than every base edge id, that concatenation *is* global edge
    /// order — exactly what `Csr::build` over the full list produces.
    pub fn merge(&self, base: &Csr) -> Csr {
        let node_count = self.node_count.max(base.node_count());
        // Prefix-sum pass: base degrees plus delta degrees.
        let mut degrees = vec![0u32; node_count];
        for (n, d) in degrees.iter_mut().enumerate() {
            *d = base.degree(n);
        }
        for (_, a, b) in &self.edges {
            degrees[a.index()] += 1;
            if a != b {
                degrees[b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut total = 0u32;
        offsets.push(0);
        for d in &degrees {
            total += d;
            offsets.push(total);
        }
        // Fill pass: bulk-copy each node's packed base range, then append
        // the delta entries behind it via the per-node cursor.
        let mut targets = vec![(EdgeId(0), NodeId(0)); total as usize];
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        for (n, slot) in cursor.iter_mut().enumerate().take(base.node_count()) {
            let range = base.neighbors(NodeId(n as u32));
            let at = *slot as usize;
            targets[at..at + range.len()].copy_from_slice(range);
            *slot += range.len() as u32;
        }
        for (e, a, b) in &self.edges {
            targets[cursor[a.index()] as usize] = (*e, *b);
            cursor[a.index()] += 1;
            if a != b {
                targets[cursor[b.index()] as usize] = (*e, *a);
                cursor[b.index()] += 1;
            }
        }
        Csr { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -e0- 1 -e1- 2, plus chord 0 -e2- 2 and self-loop e3 at 1.
        Csr::build(
            4,
            [
                (EdgeId(0), NodeId(0), NodeId(1)),
                (EdgeId(1), NodeId(1), NodeId(2)),
                (EdgeId(2), NodeId(0), NodeId(2)),
                (EdgeId(3), NodeId(1), NodeId(1)),
            ],
        )
    }

    #[test]
    fn neighbors_list_both_directions() {
        let csr = sample();
        assert_eq!(
            csr.neighbors(NodeId(0)),
            &[(EdgeId(0), NodeId(1)), (EdgeId(2), NodeId(2))]
        );
        assert_eq!(
            csr.neighbors(NodeId(2)),
            &[(EdgeId(1), NodeId(1)), (EdgeId(2), NodeId(0))]
        );
    }

    #[test]
    fn self_loop_appears_once() {
        let csr = sample();
        let at_1: Vec<_> = csr
            .neighbors(NodeId(1))
            .iter()
            .filter(|(e, _)| *e == EdgeId(3))
            .collect();
        assert_eq!(at_1.len(), 1);
        assert_eq!(at_1[0].1, NodeId(1));
    }

    #[test]
    fn isolated_and_out_of_range_nodes_are_empty() {
        let csr = sample();
        assert!(csr.neighbors(NodeId(3)).is_empty());
        assert!(csr.neighbors(NodeId(99)).is_empty());
        assert!(Csr::new().neighbors(NodeId(0)).is_empty());
    }

    #[test]
    fn counts_match_the_edge_list() {
        let csr = sample();
        assert_eq!(csr.node_count(), 4);
        // 3 ordinary edges × 2 entries + 1 self-loop × 1 entry.
        assert_eq!(csr.entry_count(), 7);
    }

    #[test]
    fn delta_merge_equals_scratch_pack() {
        let base_edges = [
            (EdgeId(0), NodeId(0), NodeId(1)),
            (EdgeId(1), NodeId(1), NodeId(2)),
        ];
        let base = Csr::build(3, base_edges);
        // Growth: two new nodes, a bridge into the old range, an internal
        // edge and a self-loop.
        let mut delta = CsrDelta::new(base.node_count());
        delta.grow_nodes(5);
        delta.add_edge(EdgeId(2), NodeId(0), NodeId(3));
        delta.add_edge(EdgeId(3), NodeId(3), NodeId(4));
        delta.add_edge(EdgeId(4), NodeId(4), NodeId(4));
        assert_eq!(delta.edge_count(), 3);
        assert!(!delta.is_empty());

        let merged = delta.merge(&base);
        let scratch = Csr::build(
            5,
            base_edges.into_iter().chain([
                (EdgeId(2), NodeId(0), NodeId(3)),
                (EdgeId(3), NodeId(3), NodeId(4)),
                (EdgeId(4), NodeId(4), NodeId(4)),
            ]),
        );
        assert_eq!(merged, scratch);
    }

    #[test]
    fn empty_delta_merge_is_identity() {
        let base = sample();
        let delta = CsrDelta::new(base.node_count());
        assert!(delta.is_empty());
        assert_eq!(delta.merge(&base), base);
    }

    #[test]
    fn delta_merge_onto_empty_base_is_a_plain_build() {
        let mut delta = CsrDelta::new(0);
        delta.add_edge(EdgeId(0), NodeId(0), NodeId(2));
        delta.add_edge(EdgeId(1), NodeId(1), NodeId(2));
        let merged = delta.merge(&Csr::new());
        assert_eq!(
            merged,
            Csr::build(
                3,
                [
                    (EdgeId(0), NodeId(0), NodeId(2)),
                    (EdgeId(1), NodeId(1), NodeId(2)),
                ]
            )
        );
        assert_eq!(merged.node_count(), 3);
    }

    #[test]
    fn delta_merge_with_isolated_new_nodes_keeps_them_empty() {
        let base = sample();
        let mut delta = CsrDelta::new(base.node_count());
        delta.grow_nodes(6);
        let merged = delta.merge(&base);
        assert_eq!(merged.node_count(), 6);
        assert!(merged.neighbors(NodeId(4)).is_empty());
        assert!(merged.neighbors(NodeId(5)).is_empty());
        // Old ranges are untouched.
        assert_eq!(merged.neighbors(NodeId(0)), base.neighbors(NodeId(0)));
    }
}

//! Sharding of the search graph and keyword index by relation group.
//!
//! A [`ShardPlan`] partitions relations into `K` shards (all relations of a
//! source co-locate, so the "relation group" of the plan is the source).
//! [`GraphShards`] splits the packed CSR adjacency accordingly: each shard
//! owns a sub-CSR of the edges *interior* to it (both endpoints in the
//! shard), while cross-shard association and foreign-key edges live in a
//! single shared *boundary* CSR. Per node, the interior range of its own
//! shard plus the boundary range is exactly the global neighbourhood — the
//! coverage invariant pinned by [`GraphShards::covers`].
//!
//! The miss hot path deliberately keeps *traversing* the global CSR: the
//! Dijkstra relaxation rule breaks distance ties by adjacency order, so a
//! traversal stitched from per-shard ranges would have to re-merge them into
//! global edge order per visit to stay byte-identical — paying the merge on
//! every relaxation instead of never. Keyword matching likewise runs over the
//! one global index. What the shards carry is the document → shard partition
//! ([`ShardedKeywordIndex`]), the boundary-edge structure, and the per-shard
//! memory accounting surfaced as `/metrics` gauges.

use serde::{Deserialize, Serialize};

use q_storage::{Catalog, RelationId};

use crate::csr::Csr;
use crate::edge::EdgeId;
use crate::keyword::{KeywordIndex, KeywordMatch, MatchConfig, ShardedKeywordIndex};
use crate::node::{Node, NodeId};
use crate::search_graph::SearchGraph;

/// A partition of the catalog's relations into `K` shards, keyed by owning
/// source so every relation group stays together.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardPlan {
    shards: usize,
    /// Relation id index → shard. Relations unknown to the plan (registered
    /// after it was built) fall back to shard 0 until the next rebuild.
    relation_shard: Vec<u32>,
}

impl ShardPlan {
    /// Partition by source: all relations of source `s` land in shard
    /// `s % shards`. `shards` is clamped to at least 1.
    pub fn by_source(catalog: &Catalog, shards: usize) -> Self {
        let shards = shards.max(1);
        let len = catalog
            .relations()
            .iter()
            .map(|r| r.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut relation_shard = vec![0u32; len];
        for rel in catalog.relations() {
            relation_shard[rel.id.index()] = (rel.source.index() % shards) as u32;
        }
        ShardPlan {
            shards,
            relation_shard,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.max(1)
    }

    /// The raw relation → shard assignment (what a persistent snapshot
    /// stores).
    pub fn relation_shards(&self) -> &[u32] {
        &self.relation_shard
    }

    /// Reassemble a plan from its persisted parts.
    pub fn from_parts(shards: usize, relation_shard: Vec<u32>) -> Self {
        ShardPlan {
            shards: shards.max(1),
            relation_shard,
        }
    }

    /// Shard owning a relation (0 for relations unknown to the plan).
    pub fn shard_of_relation(&self, relation: RelationId) -> usize {
        self.relation_shard
            .get(relation.index())
            .copied()
            .unwrap_or(0) as usize
    }

    /// Shard owning a search-graph node, through its owning relation.
    /// `None` for query-local node kinds (keywords, values), which never
    /// appear in the base graph.
    pub fn shard_of_node(&self, graph: &SearchGraph, node: NodeId) -> Option<usize> {
        match graph.node(node) {
            Node::Relation(r) => Some(self.shard_of_relation(*r)),
            Node::Attribute(a) => graph
                .relation_of_attribute(*a)
                .map(|r| self.shard_of_relation(r)),
            Node::Value { .. } | Node::Keyword(_) => None,
        }
    }
}

/// The search graph's adjacency split along a [`ShardPlan`]: one packed
/// interior sub-CSR per shard plus the shared boundary section holding every
/// cross-shard edge.
#[derive(Debug, Clone, Default)]
pub struct GraphShards {
    interior: Vec<Csr>,
    boundary: Csr,
    interior_edge_counts: Vec<usize>,
    boundary_edge_count: usize,
}

impl GraphShards {
    /// Partition the graph's edges: an edge whose endpoints resolve to the
    /// same shard is interior to it; everything else (cross-shard
    /// associations and foreign keys) goes to the shared boundary section.
    pub fn build(graph: &SearchGraph, plan: &ShardPlan) -> Self {
        let k = plan.shards();
        let mut interior_edges: Vec<Vec<(EdgeId, NodeId, NodeId)>> = vec![Vec::new(); k];
        let mut boundary_edges: Vec<(EdgeId, NodeId, NodeId)> = Vec::new();
        for edge in graph.edges() {
            let sa = plan.shard_of_node(graph, edge.a);
            let sb = plan.shard_of_node(graph, edge.b);
            match (sa, sb) {
                (Some(a), Some(b)) if a == b => interior_edges[a].push((edge.id, edge.a, edge.b)),
                _ => boundary_edges.push((edge.id, edge.a, edge.b)),
            }
        }
        let n = graph.node_count();
        GraphShards {
            interior_edge_counts: interior_edges.iter().map(Vec::len).collect(),
            boundary_edge_count: boundary_edges.len(),
            interior: interior_edges
                .iter()
                .map(|edges| Csr::build(n, edges.iter().copied()))
                .collect(),
            boundary: Csr::build(n, boundary_edges.iter().copied()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.interior.len()
    }

    /// The per-shard interior sub-CSRs, in shard order.
    pub fn interior_csrs(&self) -> &[Csr] {
        &self.interior
    }

    /// The shared boundary CSR (cross-shard edges).
    pub fn boundary_csr(&self) -> &Csr {
        &self.boundary
    }

    /// Per-shard interior edge counts, in shard order.
    pub fn interior_edge_counts(&self) -> &[usize] {
        &self.interior_edge_counts
    }

    /// Reassemble a split from its persisted parts.
    pub fn from_parts(
        interior: Vec<Csr>,
        boundary: Csr,
        interior_edge_counts: Vec<usize>,
        boundary_edge_count: usize,
    ) -> Self {
        debug_assert_eq!(interior.len(), interior_edge_counts.len());
        GraphShards {
            interior,
            boundary,
            interior_edge_counts,
            boundary_edge_count,
        }
    }

    /// Edges interior to one shard.
    pub fn interior_edge_count(&self, shard: usize) -> usize {
        self.interior_edge_counts.get(shard).copied().unwrap_or(0)
    }

    /// Cross-shard edges held in the shared boundary section.
    pub fn boundary_edge_count(&self) -> usize {
        self.boundary_edge_count
    }

    /// Interior neighbourhood of a node within one shard.
    pub fn interior_neighbors(&self, shard: usize, node: NodeId) -> &[(EdgeId, NodeId)] {
        self.interior
            .get(shard)
            .map_or(&[], |csr| csr.neighbors(node))
    }

    /// Boundary neighbourhood of a node (cross-shard edges only).
    pub fn boundary_neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        self.boundary.neighbors(node)
    }

    /// Packed bytes of one shard's interior sub-CSR.
    pub fn interior_bytes(&self, shard: usize) -> usize {
        self.interior.get(shard).map_or(0, Csr::byte_size)
    }

    /// Packed bytes of the shared boundary section.
    pub fn boundary_bytes(&self) -> usize {
        self.boundary.byte_size()
    }

    /// The coverage invariant: for every node owned by some shard, the union
    /// of its interior range (in its own shard) and its boundary range is
    /// exactly its global neighbourhood. Used by the equivalence test layer;
    /// linear in the adjacency size.
    pub fn covers(&self, graph: &SearchGraph, plan: &ShardPlan) -> bool {
        for (node, _) in graph.nodes() {
            let Some(shard) = plan.shard_of_node(graph, node) else {
                return false;
            };
            let mut split: Vec<(EdgeId, NodeId)> = self
                .interior_neighbors(shard, node)
                .iter()
                .chain(self.boundary_neighbors(node))
                .copied()
                .collect();
            let mut global: Vec<(EdgeId, NodeId)> = graph.neighbors(node).to_vec();
            split.sort_unstable();
            global.sort_unstable();
            if split != global {
                return false;
            }
        }
        true
    }
}

/// Structural stamp a [`ShardSet`] was built against. The stamp tracks only
/// *structure* (relations, documents, nodes, edges) — weight epochs bump on
/// feedback without changing what belongs to which shard, so repriced graphs
/// keep their shard set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStamp {
    relations: usize,
    documents: usize,
    nodes: usize,
    edges: usize,
}

impl ShardStamp {
    fn current(catalog: &Catalog, graph: &SearchGraph, index: &KeywordIndex) -> Self {
        ShardStamp {
            relations: catalog.relations().len(),
            documents: index.len(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
        }
    }
}

/// Everything the sharded serving path needs, built together so the plan,
/// the graph split and the keyword partition always agree: the shard plan,
/// the per-shard sub-CSRs with their boundary section, the partitioned
/// keyword index, and the freshness stamp.
#[derive(Debug, Clone, Default)]
pub struct ShardSet {
    plan: ShardPlan,
    graph_shards: GraphShards,
    keyword: ShardedKeywordIndex,
    stamp: ShardStamp,
}

impl ShardSet {
    /// Build the full shard structure for `shards` shards.
    pub fn build(
        catalog: &Catalog,
        graph: &SearchGraph,
        index: &KeywordIndex,
        shards: usize,
    ) -> Self {
        let plan = ShardPlan::by_source(catalog, shards);
        ShardSet {
            graph_shards: GraphShards::build(graph, &plan),
            keyword: ShardedKeywordIndex::build(index, catalog, &plan),
            stamp: ShardStamp::current(catalog, graph, index),
            plan,
        }
    }

    /// True while the structures this set was built from are unchanged (no
    /// relation/document/node/edge was added since). Weight-only changes
    /// keep a set fresh.
    pub fn is_fresh(&self, catalog: &Catalog, graph: &SearchGraph, index: &KeywordIndex) -> bool {
        self.stamp == ShardStamp::current(catalog, graph, index)
    }

    /// Reassemble a shard set from persisted parts. The freshness stamp is
    /// re-derived from the structures the set serves — loading a snapshot
    /// restores exactly the state the set was built against, so the stamp is
    /// fresh by construction.
    pub fn from_parts(
        catalog: &Catalog,
        graph: &SearchGraph,
        index: &KeywordIndex,
        plan: ShardPlan,
        graph_shards: GraphShards,
        keyword: ShardedKeywordIndex,
    ) -> Self {
        ShardSet {
            plan,
            graph_shards,
            keyword,
            stamp: ShardStamp::current(catalog, graph, index),
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The graph-side split.
    pub fn graph_shards(&self) -> &GraphShards {
        &self.graph_shards
    }

    /// The keyword-index partition.
    pub fn keyword_partition(&self) -> &ShardedKeywordIndex {
        &self.keyword
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.plan.shards()
    }

    /// Cross-shard edges in the shared boundary section.
    pub fn boundary_edge_count(&self) -> usize {
        self.graph_shards.boundary_edge_count()
    }

    /// [`KeywordIndex::matches`] over the global index: sharding never
    /// changes matching. Kept under this name for callers that reach the
    /// index through a shard set (the benchmark's stage trace).
    pub fn keyword_matches(
        &self,
        index: &KeywordIndex,
        keyword: &str,
        config: &MatchConfig,
    ) -> Vec<KeywordMatch> {
        index.matches(keyword, config)
    }

    /// Bytes owned by each shard: its interior sub-CSR plus its keyword
    /// postings share.
    pub fn shard_bytes(&self) -> Vec<u64> {
        let postings = self.keyword.postings_bytes();
        (0..self.shard_count())
            .map(|s| {
                self.graph_shards.interior_bytes(s) as u64 + postings.get(s).copied().unwrap_or(0)
            })
            .collect()
    }

    /// Total snapshot bytes: every shard's share plus the shared boundary
    /// section.
    pub fn total_bytes(&self) -> u64 {
        self.shard_bytes().iter().sum::<u64>() + self.graph_shards.boundary_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name"])
                    .row(["GO:1", "plasma membrane"])
                    .row(["GO:2", "kinase activity"]),
            )
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("entry", &["entry_ac", "name"]).row(["IPR1", "Kringle domain"]),
            )
            .relation(
                RelationSpec::new("interpro2go", &["entry_ac", "go_id"]).row(["IPR1", "GO:1"]),
            )
            .foreign_key("interpro2go.entry_ac", "entry.entry_ac")
            .foreign_key("interpro2go.go_id", "go_term.acc")
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("pubs")
            .relation(RelationSpec::new("pub", &["pub_id", "title"]).row(["P1", "Membranes"]))
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn plan_keeps_a_sources_relations_together() {
        let cat = catalog();
        for k in [1, 2, 4, 7] {
            let plan = ShardPlan::by_source(&cat, k);
            assert_eq!(plan.shards(), k);
            for rel in cat.relations() {
                assert_eq!(
                    plan.shard_of_relation(rel.id),
                    rel.source.index() % k,
                    "relation {} strays from its source's shard",
                    rel.name
                );
            }
        }
    }

    #[test]
    fn shards_cover_the_global_adjacency_for_any_shard_count() {
        let cat = catalog();
        let graph = SearchGraph::from_catalog(&cat);
        for k in [1, 2, 4, 7] {
            let plan = ShardPlan::by_source(&cat, k);
            let shards = GraphShards::build(&graph, &plan);
            assert_eq!(shards.shard_count(), k);
            assert!(shards.covers(&graph, &plan), "coverage broken at K={k}");
            let interior: usize = (0..k).map(|s| shards.interior_edge_count(s)).sum();
            assert_eq!(
                interior + shards.boundary_edge_count(),
                graph.edge_count(),
                "every edge is either interior or boundary"
            );
        }
    }

    #[test]
    fn single_shard_has_no_boundary_and_cross_source_fks_cross_shards() {
        let cat = catalog();
        let graph = SearchGraph::from_catalog(&cat);
        let one = GraphShards::build(&graph, &ShardPlan::by_source(&cat, 1));
        assert_eq!(one.boundary_edge_count(), 0);
        // The interpro→go foreign key links sources 0 and 1, which land in
        // different shards at K=2.
        let two = GraphShards::build(&graph, &ShardPlan::by_source(&cat, 2));
        assert!(two.boundary_edge_count() > 0);
    }

    #[test]
    fn shard_set_accounts_bytes_and_tracks_freshness() {
        let mut cat = catalog();
        let graph = SearchGraph::from_catalog(&cat);
        let index = KeywordIndex::build(&cat);
        let set = ShardSet::build(&cat, &graph, &index, 4);
        assert!(set.is_fresh(&cat, &graph, &index));
        assert_eq!(set.shard_bytes().len(), 4);
        assert!(set.total_bytes() > 0);
        assert!(set.shard_bytes().iter().sum::<u64>() <= set.total_bytes());
        // Growing the catalog stales the set.
        SourceSpec::new("late")
            .relation(RelationSpec::new("late_rel", &["id", "note"]).row(["L1", "late"]))
            .load_into(&mut cat)
            .unwrap();
        assert!(!set.is_fresh(&cat, &graph, &index));
    }
}

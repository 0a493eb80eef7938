//! The search graph (Section 2.1) and its maintenance operations
//! (Section 3).
//!
//! The search graph is the data model queried by Q. It contains a node per
//! relation and per attribute, zero-cost attribute–relation edges,
//! foreign-key edges, and *association* edges proposed by schema matchers.
//! Every non-fixed edge carries a sparse feature vector; the edge cost is the
//! dot product with the graph's current weight vector (Equation 1), which the
//! learner in `q-learn` adjusts from user feedback.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use q_storage::{AttributeId, Catalog, RelationId, SourceId};

use crate::csr::{Csr, CsrDelta};
use crate::edge::{Edge, EdgeId, EdgeKind};
use crate::features::{bin_confidence, FeatureSpace, FeatureVector, WeightVector};
use crate::keyword::MatchTarget;
use crate::node::{Node, NodeId};

/// Default weight of the feature shared by every learnable edge. Its weight
/// is the uniform cost offset that keeps all edge costs positive.
const DEFAULT_EDGE_WEIGHT: f64 = 0.5;

/// Default additional cost of a key–foreign-key edge (`c_d` in Section 2.1).
const DEFAULT_FOREIGN_KEY_WEIGHT: f64 = 0.5;

/// Default weight of the base feature every keyword-match edge carries.
pub const KEYWORD_BASE_WEIGHT: f64 = 0.1;

/// Default weight scaling the keyword mismatch score `s_i` (Section 2.2's
/// `w_i`), so a keyword edge initially costs `0.1 + (1 - similarity)`.
const KEYWORD_MISMATCH_WEIGHT: f64 = 1.0;

/// Record of one matcher's opinion about an association edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociationProvenance {
    /// Matcher that proposed the alignment (e.g. `"metadata"`, `"mad"`, or
    /// `"manual"`).
    pub matcher: String,
    /// Normalised confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Owned persistent state of a [`SearchGraph`]: the exact field set a
/// snapshot stores. [`SearchGraph::from_parts`] reconstructs a serving graph
/// from these, re-deriving the lookup structures (node interning map,
/// incremental adjacency, association map) instead of persisting them.
#[derive(Debug, Clone, Default)]
pub struct SearchGraphParts {
    /// All nodes, in id order.
    pub nodes: Vec<Node>,
    /// All edges, in id order (with their feature vectors).
    pub edges: Vec<Edge>,
    /// The packed adjacency index (covers every edge).
    pub csr: Csr,
    /// The feature space (names + default weights, in id order).
    pub features: FeatureSpace,
    /// The learned weight vector.
    pub weights: WeightVector,
    /// The weight epoch at persist time.
    pub weight_epoch: u64,
    /// Matcher provenance per association edge, sorted by edge id.
    pub provenance: Vec<(EdgeId, Vec<AssociationProvenance>)>,
}

/// The search graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SearchGraph {
    nodes: Vec<Node>,
    node_ids: HashMap<Node, NodeId>,
    edges: Vec<Edge>,
    /// `edge id → edge.cost(&weights)`: every edge priced once when it is
    /// added or re-binned, and all of them again when the weights change,
    /// so the search's relaxations and prunes read an array instead of a
    /// sparse dot product. Derived state: a snapshot does not store it.
    costs: Vec<f64>,
    /// Incremental per-node edge lists, the ground truth while a mutation is
    /// in flight (`find_edge` must see edges pushed earlier in the same
    /// `add_source` call). Public reads go through `csr`.
    adjacency: Vec<Vec<EdgeId>>,
    /// Packed adjacency republished at the end of every topology mutation;
    /// the query hot path iterates this without allocating. Mutations repack
    /// by merging a [`CsrDelta`] of the edges added since the last publish
    /// over the previous index — byte-identical to a from-scratch pack, but
    /// without re-walking the historical edge list.
    csr: Csr,
    /// Number of leading edges already reflected in `csr`; edges beyond it
    /// are the delta the next publish merges.
    packed_edges: usize,
    features: FeatureSpace,
    weights: WeightVector,
    /// Monotone counter bumped whenever anything that can change an edge
    /// cost changes: weight updates (MIRA re-pricing) and topology growth (new sources, new associations). Answer caches key on
    /// it — see `q-core`'s `QueryCache`.
    weight_epoch: u64,
    /// Canonically ordered attribute pair -> association edge. Ordered map so
    /// `association_edges()` iterates deterministically — downstream top-Y
    /// cutoffs break cost ties by iteration order.
    associations: BTreeMap<(AttributeId, AttributeId), EdgeId>,
    provenance: HashMap<EdgeId, Vec<AssociationProvenance>>,
}

impl SearchGraph {
    /// Create an empty search graph with the standard feature space.
    pub fn new() -> Self {
        let mut graph = SearchGraph::default();
        graph.features.intern("default", DEFAULT_EDGE_WEIGHT);
        graph
            .features
            .intern("foreign_key", DEFAULT_FOREIGN_KEY_WEIGHT);
        graph.features.intern("keyword_base", KEYWORD_BASE_WEIGHT);
        graph
            .features
            .intern("keyword_mismatch", KEYWORD_MISMATCH_WEIGHT);
        graph.weights = graph.features.default_weights();
        graph
    }

    /// Reconstruct a graph from persisted parts without re-running any
    /// source scan or matcher: the node interning map, incremental adjacency
    /// lists and association map are re-derived from the node/edge arrays,
    /// and the CSR is taken as already covering every edge.
    pub fn from_parts(parts: SearchGraphParts) -> Self {
        let mut node_ids = HashMap::with_capacity(parts.nodes.len());
        for (i, node) in parts.nodes.iter().enumerate() {
            node_ids.insert(node.clone(), NodeId(i as u32));
        }
        let mut adjacency: Vec<Vec<EdgeId>> = vec![Vec::new(); parts.nodes.len()];
        let mut associations = BTreeMap::new();
        for edge in &parts.edges {
            adjacency[edge.a.index()].push(edge.id);
            if edge.a != edge.b {
                adjacency[edge.b.index()].push(edge.id);
            }
            if edge.kind == EdgeKind::Association {
                if let (Node::Attribute(a), Node::Attribute(b)) =
                    (&parts.nodes[edge.a.index()], &parts.nodes[edge.b.index()])
                {
                    let key = if a <= b { (*a, *b) } else { (*b, *a) };
                    associations.insert(key, edge.id);
                }
            }
        }
        let packed_edges = parts.edges.len();
        let costs = parts.edges.iter().map(|e| e.cost(&parts.weights)).collect();
        SearchGraph {
            nodes: parts.nodes,
            node_ids,
            edges: parts.edges,
            costs,
            adjacency,
            csr: parts.csr,
            packed_edges,
            features: parts.features,
            weights: parts.weights,
            weight_epoch: parts.weight_epoch,
            associations,
            provenance: parts.provenance.into_iter().collect(),
        }
    }

    /// Matcher provenance of every association edge, sorted by edge id (the
    /// deterministic order a persistent snapshot stores).
    pub fn provenance_sorted(&self) -> Vec<(EdgeId, &[AssociationProvenance])> {
        let mut entries: Vec<(EdgeId, &[AssociationProvenance])> = self
            .provenance
            .iter()
            .map(|(e, p)| (*e, p.as_slice()))
            .collect();
        entries.sort_unstable_by_key(|(e, _)| *e);
        entries
    }

    /// Build the initial search graph from every source currently registered
    /// in the catalog (Section 2.1).
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut graph = SearchGraph::new();
        for source in catalog.sources() {
            graph.add_source(catalog, source.id);
        }
        graph
    }

    /// Add the relations, attributes and foreign keys of one source to the
    /// graph. Safe to call for sources registered after the initial build —
    /// this is the first step of incorporating a new source (Section 3.1).
    pub fn add_source(&mut self, catalog: &Catalog, source: SourceId) {
        let Some(src) = catalog.source(source) else {
            return;
        };
        for rel_id in &src.relations {
            let Some(rel) = catalog.relation(*rel_id) else {
                continue;
            };
            let rel_node = self.intern_node(Node::Relation(rel.id));
            for attr in &rel.attributes {
                let attr_node = self.intern_node(Node::Attribute(*attr));
                if self.find_edge(rel_node, attr_node).is_none() {
                    self.push_edge(
                        rel_node,
                        attr_node,
                        EdgeKind::AttributeRelation,
                        FeatureVector::empty(),
                    );
                }
            }
        }
        // Foreign keys may reference relations from earlier sources, so they
        // are (re)scanned after the relations are in place.
        for fk in catalog.foreign_keys() {
            let (Some(fa), Some(ta)) = (catalog.attribute(fk.from), catalog.attribute(fk.to))
            else {
                continue;
            };
            let (Some(ra), Some(rb)) = (
                self.relation_node(fa.relation),
                self.relation_node(ta.relation),
            ) else {
                continue;
            };
            if self.find_edge(ra, rb).is_none() {
                let mut fv = FeatureVector::empty();
                fv.add(self.features.intern("default", DEFAULT_EDGE_WEIGHT), 1.0);
                fv.add(
                    self.features
                        .intern("foreign_key", DEFAULT_FOREIGN_KEY_WEIGHT),
                    1.0,
                );
                let ra_rel = fa.relation;
                let rb_rel = ta.relation;
                self.add_relation_features(&mut fv, ra_rel);
                self.add_relation_features(&mut fv, rb_rel);
                self.weights.sync_with(&self.features);
                self.push_edge(ra, rb, EdgeKind::ForeignKey, fv);
            }
        }
        self.weights.sync_with(&self.features);
        self.finish_topology_change();
    }

    // ------------------------------------------------------------------
    // Associations
    // ------------------------------------------------------------------

    /// Add (or update) an association edge between two attributes, recording
    /// the proposing matcher's confidence. Returns the edge id.
    ///
    /// The edge receives the feature set of Section 3.4: the shared default
    /// feature, one indicator per (matcher, confidence-bin), one indicator
    /// per touched relation and one edge-unique indicator.
    pub fn add_association(
        &mut self,
        a: AttributeId,
        b: AttributeId,
        matcher: &str,
        confidence: f64,
    ) -> EdgeId {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(edge_id) = self.associations.get(&key).copied() {
            // Merge another matcher's opinion into the existing edge.
            let bin = bin_confidence(confidence);
            let feature = self.features.intern(
                &format!("matcher:{matcher}:bin{bin}"),
                matcher_bin_default_weight(bin),
            );
            self.weights.sync_with(&self.features);
            let edge = &mut self.edges[edge_id.index()];
            let already_has = edge.features.get(feature) != 0.0;
            if !already_has {
                edge.features.add(feature, 1.0);
                self.costs[edge_id.index()] = edge.cost(&self.weights);
            }
            self.provenance
                .entry(edge_id)
                .or_default()
                .push(AssociationProvenance {
                    matcher: matcher.to_string(),
                    confidence,
                });
            if !already_has {
                // The merged bin feature re-prices the edge.
                self.weight_epoch += 1;
            }
            return edge_id;
        }

        let na = self.intern_node(Node::Attribute(a));
        let nb = self.intern_node(Node::Attribute(b));
        let mut fv = FeatureVector::empty();
        fv.add(self.features.intern("default", DEFAULT_EDGE_WEIGHT), 1.0);
        let bin = bin_confidence(confidence);
        fv.add(
            self.features.intern(
                &format!("matcher:{matcher}:bin{bin}"),
                matcher_bin_default_weight(bin),
            ),
            1.0,
        );
        // Relation-authoritativeness features for both endpoints, when the
        // attributes' relations are known to the graph.
        let rel_a = self.relation_of_attribute(a);
        let rel_b = self.relation_of_attribute(b);
        if let Some(r) = rel_a {
            self.add_relation_features(&mut fv, r);
        }
        if let Some(r) = rel_b {
            self.add_relation_features(&mut fv, r);
        }
        // Edge-unique feature.
        let edge_index = self.edges.len();
        fv.add(
            self.features.intern(&format!("edge:{edge_index}"), 0.0),
            1.0,
        );
        self.weights.sync_with(&self.features);
        let id = self.push_edge(na, nb, EdgeKind::Association, fv);
        self.associations.insert(key, id);
        self.provenance.insert(
            id,
            vec![AssociationProvenance {
                matcher: matcher.to_string(),
                confidence,
            }],
        );
        self.finish_topology_change();
        id
    }

    /// Existing association edge between two attributes, if any.
    pub fn association_between(&self, a: AttributeId, b: AttributeId) -> Option<EdgeId> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.associations.get(&key).copied()
    }

    /// Iterate over all association edges with their attribute endpoints.
    pub fn association_edges(
        &self,
    ) -> impl Iterator<Item = (EdgeId, AttributeId, AttributeId)> + '_ {
        self.associations.iter().map(|((a, b), e)| (*e, *a, *b))
    }

    /// The learned weight attached to a relation's authoritativeness feature
    /// (0 if never learned). Lower means more preferred; used as the vertex
    /// prior of PreferentialAligner.
    pub fn relation_feature_weight(&self, relation: RelationId) -> f64 {
        self.features
            .get(&format!("relation:{relation}"))
            .map(|f| self.weights.get(f))
            .unwrap_or(0.0)
    }

    // ------------------------------------------------------------------
    // Node / edge access
    // ------------------------------------------------------------------

    /// Node id of a relation, if present.
    pub fn relation_node(&self, relation: RelationId) -> Option<NodeId> {
        self.node_ids.get(&Node::Relation(relation)).copied()
    }

    /// Node id of an attribute, if present.
    pub fn attribute_node(&self, attribute: AttributeId) -> Option<NodeId> {
        self.node_ids.get(&Node::Attribute(attribute)).copied()
    }

    /// The base-graph node a keyword match lands on: its relation or
    /// attribute node, and for a data value its attribute's node (the value
    /// node a query graph adds hangs off it at zero cost).
    pub fn match_node(&self, target: &MatchTarget) -> Option<NodeId> {
        match target {
            MatchTarget::Relation(r) => self.relation_node(*r),
            MatchTarget::Attribute(a) | MatchTarget::Value { attribute: a, .. } => {
                self.attribute_node(*a)
            }
        }
    }

    /// The node stored under an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The edge stored under an id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edges incident to a node, with the opposite endpoint. A borrowed
    /// slice into the packed CSR index — the query hot path iterates this
    /// without allocating.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        self.csr.neighbors(node)
    }

    /// The packed adjacency index itself.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Relation that an attribute node is attached to (via its zero-cost
    /// attribute–relation edge).
    fn relation_of_attribute(&self, attribute: AttributeId) -> Option<RelationId> {
        let attr_node = self.attribute_node(attribute)?;
        self.neighbors(attr_node)
            .iter()
            .find_map(|(_, n)| match self.node(*n) {
                Node::Relation(r) => Some(*r),
                _ => None,
            })
    }

    // ------------------------------------------------------------------
    // Costs
    // ------------------------------------------------------------------

    /// Current cost of an edge: a read of the cost column, bit-equal to
    /// `edge(e).cost(weights())`.
    #[inline]
    pub fn edge_cost(&self, edge: EdgeId) -> f64 {
        self.costs[edge.index()]
    }

    /// Current weight vector.
    pub fn weights(&self) -> &WeightVector {
        &self.weights
    }

    /// Replace the weight vector (the learner produces new weights) and
    /// re-price every edge. Bumps the weight epoch: every cached answer
    /// computed under the old prices becomes unreachable.
    pub fn set_weights(&mut self, weights: WeightVector) {
        self.weights = weights;
        self.weights.sync_with(&self.features);
        for (cost, edge) in self.costs.iter_mut().zip(&self.edges) {
            *cost = edge.cost(&self.weights);
        }
        self.weight_epoch += 1;
    }

    /// Current weight epoch: a monotone version counter for the edge-cost
    /// model. It increases whenever a weight update (MIRA re-pricing) or a
    /// topology change (new source, new or re-binned association) can alter
    /// any query's answers. `(query, epoch)` is therefore a sound cache key:
    /// equal epochs imply identical costs.
    pub fn weight_epoch(&self) -> u64 {
        self.weight_epoch
    }

    /// The feature space shared by all edges.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.features
    }

    /// Smallest cost over all learnable (non-fixed) edges. The learner uses
    /// this to keep every edge cost positive by raising the default weight.
    pub fn min_learnable_edge_cost(&self) -> Option<f64> {
        self.edges
            .iter()
            .zip(&self.costs)
            .filter(|(e, _)| !e.kind.is_fixed_zero())
            .map(|(_, cost)| *cost)
            .min_by(|a, b| a.total_cmp(b))
    }

    // ------------------------------------------------------------------
    // Cost neighbourhood (GETCOSTNEIGHBORHOOD of Algorithm 2)
    // ------------------------------------------------------------------

    /// All nodes reachable from any start node with accumulated edge cost at
    /// most `alpha`, under the current weights: the bounded multi-source
    /// Dijkstra of [`DeltaPricer`](crate::DeltaPricer), seeded at distance 0.
    pub fn cost_neighborhood(&self, starts: &[NodeId], alpha: f64) -> HashSet<NodeId> {
        let seeds: Vec<(NodeId, f64)> = starts.iter().map(|&s| (s, 0.0)).collect();
        let mut search = crate::DeltaPricer::default();
        search.run(self, &seeds, alpha);
        search.reached().collect()
    }

    /// Relations whose relation node lies inside a node set (used by
    /// ViewBasedAligner to turn a cost neighbourhood into candidate
    /// relations).
    pub fn relations_in(&self, nodes: &HashSet<NodeId>) -> Vec<RelationId> {
        let mut rels: Vec<RelationId> = nodes
            .iter()
            .filter_map(|n| self.node(*n).as_relation())
            .collect();
        // Attributes inside the neighbourhood also pull in their relation:
        // matching an attribute of R means R's tables are candidates.
        for n in nodes {
            if let Node::Attribute(a) = self.node(*n) {
                if let Some(r) = self.relation_of_attribute(*a) {
                    rels.push(r);
                }
            }
        }
        rels.sort();
        rels.dedup();
        rels
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn intern_node(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.node_ids.get(&node) {
            return *id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.node_ids.insert(node, id);
        self.adjacency.push(Vec::new());
        id
    }

    fn push_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: EdgeKind,
        features: FeatureVector,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        let edge = Edge {
            id,
            a,
            b,
            kind,
            features,
        };
        self.costs.push(edge.cost(&self.weights));
        self.edges.push(edge);
        self.adjacency[a.index()].push(id);
        if a != b {
            self.adjacency[b.index()].push(id);
        }
        id
    }

    fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        // Reads the incremental lists, not the CSR: callers probe for edges
        // pushed earlier in the same (unfinished) mutation.
        self.adjacency.get(a.index()).and_then(|edges| {
            edges
                .iter()
                .find(|e| self.edges[e.index()].touches(b))
                .copied()
        })
    }

    /// Epilogue of every topology mutation: publish a fresh packed CSR by
    /// merging the delta of edges added since the last publish, and bump the
    /// weight epoch (new edges change query answers just as re-pricing
    /// does). Edges are append-only, so the previous index is always a
    /// packed prefix of the current edge list and the merge is equivalent to
    /// a from-scratch rebuild (pinned by unit and property tests).
    fn finish_topology_change(&mut self) {
        let mut delta = CsrDelta::new(self.csr.node_count());
        delta.grow_nodes(self.nodes.len());
        for e in &self.edges[self.packed_edges..] {
            delta.add_edge(e.id, e.a, e.b);
        }
        self.csr = delta.merge(&self.csr);
        self.packed_edges = self.edges.len();
        self.weight_epoch += 1;
    }

    fn add_relation_features(&mut self, fv: &mut FeatureVector, relation: RelationId) {
        let feature = self.features.intern(&format!("relation:{relation}"), 0.0);
        if fv.get(feature) == 0.0 {
            fv.add(feature, 1.0);
        }
    }
}

/// Default weight of a `(matcher, bin)` indicator feature: confident bins add
/// little cost, unconfident bins add a lot. Learned weights replace these as
/// feedback arrives.
fn matcher_bin_default_weight(bin: usize) -> f64 {
    let bins = crate::features::CONFIDENCE_BINS as f64;
    let midpoint = (bin as f64 + 0.5) / bins;
    (1.0 - midpoint).max(0.05)
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
                RelationSpec::new("interpro2go", &["go_id", "entry_ac"]).row(["GO:1", "IPR01"]),
            )
            .relation(RelationSpec::new("entry", &["entry_ac", "name"]).row(["IPR01", "Kringle"]))
            .foreign_key("interpro2go.entry_ac", "entry.entry_ac")
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    fn attr(cat: &Catalog, q: &str) -> AttributeId {
        cat.resolve_qualified(q).unwrap()
    }

    #[test]
    fn match_node_maps_each_target_kind_to_its_base_node() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        let go_term = cat.relation_by_name("go_term").unwrap().id;
        let name = attr(&cat, "go_term.name");
        assert_eq!(
            g.match_node(&MatchTarget::Relation(go_term)),
            g.relation_node(go_term)
        );
        assert_eq!(
            g.match_node(&MatchTarget::Attribute(name)),
            g.attribute_node(name)
        );
        let value = MatchTarget::Value {
            attribute: name,
            value: "plasma membrane".into(),
        };
        assert_eq!(g.match_node(&value), g.attribute_node(name));
        assert!(g.match_node(&value).is_some());
        // A target the graph never saw has no node.
        assert_eq!(g.match_node(&MatchTarget::Attribute(AttributeId(99))), None);
    }

    #[test]
    fn initial_graph_has_relation_attribute_and_fk_edges() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        // 3 relations + 6 attributes
        assert_eq!(g.node_count(), 9);
        // 6 attribute-relation edges + 1 FK edge
        assert_eq!(g.edge_count(), 7);
        let fk_edges: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::ForeignKey)
            .collect();
        assert_eq!(fk_edges.len(), 1);
        // FK edge cost = default + foreign_key default weights.
        let cost = g.edge_cost(fk_edges[0].id);
        assert!((cost - (DEFAULT_EDGE_WEIGHT + DEFAULT_FOREIGN_KEY_WEIGHT)).abs() < 1e-9);
    }

    #[test]
    fn attribute_relation_edges_cost_zero() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        for e in g.edges() {
            if e.kind == EdgeKind::AttributeRelation {
                assert_eq!(g.edge_cost(e.id), 0.0);
            }
        }
    }

    #[test]
    fn association_edge_cost_decreases_with_confidence() {
        let cat = catalog();
        let mut g = SearchGraph::from_catalog(&cat);
        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        let c = attr(&cat, "entry.name");
        let confident = g.add_association(a, b, "mad", 0.95);
        let unsure = g.add_association(a, c, "mad", 0.15);
        assert!(g.edge_cost(confident) < g.edge_cost(unsure));
    }

    #[test]
    fn adding_same_association_twice_merges_provenance() {
        let cat = catalog();
        let mut g = SearchGraph::from_catalog(&cat);
        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        let e1 = g.add_association(a, b, "mad", 0.9);
        let e2 = g.add_association(b, a, "metadata", 0.7);
        assert_eq!(e1, e2);
        let opinions: Vec<(&str, f64)> = g.provenance[&e1]
            .iter()
            .map(|p| (p.matcher.as_str(), p.confidence))
            .collect();
        assert_eq!(opinions, [("mad", 0.9), ("metadata", 0.7)]);
        assert_eq!(g.association_between(a, b), Some(e1));
    }

    #[test]
    fn relation_of_attribute_follows_zero_cost_edge() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        let acc = attr(&cat, "go_term.acc");
        let term_rel = cat.relation_by_name("go_term").unwrap().id;
        assert_eq!(g.relation_of_attribute(acc), Some(term_rel));
    }

    #[test]
    fn cost_neighborhood_respects_alpha() {
        let cat = catalog();
        let mut g = SearchGraph::from_catalog(&cat);
        let acc = attr(&cat, "go_term.acc");
        let go_id = attr(&cat, "interpro2go.go_id");
        g.add_association(acc, go_id, "mad", 0.9);

        let start = g.attribute_node(acc).unwrap();
        // alpha = 0: only zero-cost reachable nodes (the attribute itself, its
        // relation, and the relation's other attributes via zero-cost edges).
        let small = g.cost_neighborhood(&[start], 0.0);
        assert!(small.contains(&start));
        assert!(small.contains(
            &g.relation_node(cat.relation_by_name("go_term").unwrap().id)
                .unwrap()
        ));
        assert!(!small.contains(&g.attribute_node(go_id).unwrap()));

        // Large alpha reaches everything connected.
        let big = g.cost_neighborhood(&[start], 10.0);
        assert!(big.contains(&g.attribute_node(go_id).unwrap()));
        assert!(big.len() > small.len());
    }

    #[test]
    fn relations_in_includes_relations_of_attributes() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        let acc = attr(&cat, "go_term.acc");
        let mut set = HashSet::new();
        set.insert(g.attribute_node(acc).unwrap());
        let rels = g.relations_in(&set);
        assert_eq!(rels, vec![cat.relation_by_name("go_term").unwrap().id]);
    }

    #[test]
    fn incremental_source_addition_matches_full_build() {
        let cat = catalog();
        let full = SearchGraph::from_catalog(&cat);
        let mut incremental = SearchGraph::new();
        for s in cat.sources() {
            incremental.add_source(&cat, s.id);
        }
        assert_eq!(full.node_count(), incremental.node_count());
        assert_eq!(full.edge_count(), incremental.edge_count());
    }

    #[test]
    fn neighbors_slice_matches_incremental_adjacency() {
        let cat = catalog();
        let mut g = SearchGraph::from_catalog(&cat);
        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        g.add_association(a, b, "mad", 0.9);
        for (id, _) in g.nodes() {
            let packed = g.neighbors(id);
            let incremental: Vec<(EdgeId, NodeId)> = g.adjacency[id.index()]
                .iter()
                .map(|e| (*e, g.edges[e.index()].other(id)))
                .collect();
            assert_eq!(packed, incremental.as_slice(), "node {id}");
        }
    }

    #[test]
    fn delta_published_csr_equals_from_scratch_pack() {
        // Grow the graph through several separate mutations (each one a
        // delta publish) and check the packed index equals a single
        // from-scratch pack of the final edge list.
        let cat = catalog();
        let mut g = SearchGraph::new();
        for s in cat.sources() {
            g.add_source(&cat, s.id);
        }
        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        let c = attr(&cat, "entry.name");
        g.add_association(a, b, "mad", 0.9);
        g.add_association(a, c, "metadata", 0.4);
        let scratch = Csr::build(g.node_count(), g.edges().iter().map(|e| (e.id, e.a, e.b)));
        assert_eq!(*g.csr(), scratch);
        assert_eq!(g.packed_edges, g.edge_count());
    }

    #[test]
    fn weight_epoch_bumps_on_repricing_and_topology_changes() {
        let cat = catalog();
        let mut g = SearchGraph::from_catalog(&cat);
        let e0 = g.weight_epoch();

        // Weight replacement (the MIRA path) bumps.
        let w = g.weights().clone();
        g.set_weights(w);
        assert!(g.weight_epoch() > e0);

        // A new association edge bumps.
        let e1 = g.weight_epoch();
        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        g.add_association(a, b, "mad", 0.9);
        assert!(g.weight_epoch() > e1);

        // Merging a new matcher bin into an existing edge re-prices it.
        let e2 = g.weight_epoch();
        g.add_association(a, b, "metadata", 0.1);
        assert!(g.weight_epoch() > e2);

        // Re-asserting the same (matcher, bin) changes nothing: no bump.
        let e3 = g.weight_epoch();
        g.add_association(a, b, "metadata", 0.1);
        assert_eq!(g.weight_epoch(), e3);

        // Pure reads never bump.
        let _ = g.min_learnable_edge_cost();
        let _ = g.neighbors(NodeId(0));
        assert_eq!(g.weight_epoch(), e3);
    }

    /// The cost column equals `edge.cost(weights)` bit for bit on every edge,
    /// and a query graph over `g` prices its base and local edges the same.
    fn assert_column_priced(g: &SearchGraph, cat: &Catalog, step: &str) {
        assert_eq!(g.costs.len(), g.edges.len(), "{step}");
        for e in &g.edges {
            assert_eq!(
                g.edge_cost(e.id).to_bits(),
                e.cost(&g.weights).to_bits(),
                "{step}: edge {}",
                e.id
            );
        }
        let index = crate::KeywordIndex::build(cat);
        let qg = crate::QueryGraph::build(
            g,
            &index,
            &["name", "GO:1", "kringle"],
            &crate::keyword::MatchConfig::default(),
        );
        assert!(qg.edge_count() > g.edge_count(), "{step}: no local edges");
        for id in (0..qg.edge_count() as u32).map(EdgeId) {
            assert_eq!(
                qg.edge_cost(id).to_bits(),
                qg.edge(id).cost(g.weights()).to_bits(),
                "{step}: query edge {id}"
            );
        }
    }

    #[test]
    fn cost_column_tracks_every_pricing_change() {
        // `catalog()` loads the same "go" source first, so its ids agree
        // with this one-source catalog and the graph can grow into it.
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name"])
                    .row(["GO:1", "plasma membrane"])
                    .row(["GO:2", "kinase activity"]),
            )
            .load_into(&mut cat)
            .unwrap();
        let mut g = SearchGraph::from_catalog(&cat);
        assert_column_priced(&g, &cat, "from_catalog");

        let cat = catalog();
        let interpro = cat.source_by_name("interpro").unwrap().id;
        g.add_source(&cat, interpro);
        assert!(g.edges.iter().any(|e| e.kind == EdgeKind::ForeignKey));
        assert_column_priced(&g, &cat, "add_source");

        let a = attr(&cat, "go_term.acc");
        let b = attr(&cat, "interpro2go.go_id");
        let edge = g.add_association(a, b, "mad", 0.9);
        assert_column_priced(&g, &cat, "new association");
        let before = g.edge_cost(edge);
        g.add_association(b, a, "metadata", 0.1);
        assert_ne!(g.edge_cost(edge), before, "the merged bin re-prices");
        assert_column_priced(&g, &cat, "merged bin");

        let mut w = g.weights().clone();
        for (i, weight) in [0.8, 0.3, 0.25].into_iter().enumerate() {
            w.set(crate::features::FeatureId(i as u32), weight);
        }
        let entry = cat.relation_by_name("entry").unwrap().id;
        w.set(g.features.get(&format!("relation:{entry}")).unwrap(), 0.125);
        g.set_weights(w);
        assert_column_priced(&g, &cat, "set_weights");

        let parts = SearchGraphParts {
            nodes: g.nodes.clone(),
            edges: g.edges.clone(),
            csr: g.csr.clone(),
            features: g.features.clone(),
            weights: g.weights.clone(),
            weight_epoch: g.weight_epoch,
            provenance: g
                .provenance_sorted()
                .into_iter()
                .map(|(e, p)| (e, p.to_vec()))
                .collect(),
        };
        let reloaded = SearchGraph::from_parts(parts);
        assert_column_priced(&reloaded, &cat, "from_parts");
        assert_eq!(reloaded.costs, g.costs);
    }

    #[test]
    fn min_learnable_edge_cost_ignores_fixed_edges() {
        let cat = catalog();
        let g = SearchGraph::from_catalog(&cat);
        // Only the FK edge is learnable here.
        let min = g.min_learnable_edge_cost().unwrap();
        assert!(min > 0.0);
    }
}

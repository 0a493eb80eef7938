//! Modified Adsorption (MAD) label propagation matcher (Section 3.2.2,
//! Algorithm 1).
//!
//! MAD builds a *column–value graph*: one node per attribute and one node per
//! distinct textual data value, with an edge between a value and every
//! attribute containing it. Each attribute node is injected with its own
//! label; labels then propagate through shared values, so attributes whose
//! value sets overlap — even only transitively — end up with similar label
//! distributions. The resulting distributions yield attribute alignments with
//! confidences, without any pairwise source comparison.
//!
//! Hyper-parameters follow the paper's experimental setup: µ1 = µ2 = 1,
//! µ3 = 0.01, 3 iterations, degree-one value nodes pruned, numeric values
//! pruned, random-walk probabilities from the entropy heuristic of Talukdar &
//! Crammer (2009). The per-iteration update is parallelised with
//! crossbeam-scoped threads, standing in for the paper's Hadoop MapReduce
//! implementation.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use q_storage::{AttributeId, Catalog, RelationId, Value};

use crate::matcher::{keep_top_y_per_attribute, AttributeAlignment, SchemaMatcher};

/// MAD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MadConfig {
    /// Weight of the injected-seed term (µ1).
    pub mu1: f64,
    /// Weight of the neighbourhood-agreement term (µ2).
    pub mu2: f64,
    /// Weight of the abandonment / dummy-label regulariser (µ3).
    pub mu3: f64,
    /// Maximum number of propagation iterations (the paper runs 3).
    pub iterations: usize,
    /// Early-stop tolerance on the largest per-node label change.
    pub tolerance: f64,
    /// β of the entropy heuristic that sets `p_cont`, `p_inj`, `p_abnd`.
    pub beta: f64,
    /// Remove value nodes with degree 1 before propagating.
    pub prune_degree_one: bool,
    /// Remove numeric values before propagating.
    pub prune_numeric: bool,
    /// Keep at most this many labels per node between iterations (0 = all).
    pub max_labels_per_node: usize,
    /// Number of worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl Default for MadConfig {
    fn default() -> Self {
        MadConfig {
            mu1: 1.0,
            mu2: 1.0,
            mu3: 0.01,
            iterations: 3,
            tolerance: 1e-4,
            beta: 2.0,
            prune_degree_one: true,
            prune_numeric: true,
            max_labels_per_node: 32,
            threads: 0,
        }
    }
}

/// Sparse label distribution: label index -> score. A `BTreeMap` (not a
/// `HashMap`) so that float accumulation and truncation tie-breaking are
/// deterministic across runs — propagation scores feed top-Y cutoffs, and
/// hash-order-dependent summation made those cutoffs flip between runs.
type LabelVec = BTreeMap<u32, f64>;

/// CSR-style packed adjacency of the column–value graph: one flat
/// `(neighbour, weight)` array indexed by prefix-sum offsets. Built once in
/// [`MadMatcher::propagate`] and reused across every propagation iteration
/// (and the random-walk probability pass), instead of chasing a
/// `Vec<Vec<…>>` pointer per node per iteration.
struct PackedAdjacency {
    offsets: Vec<u32>,
    targets: Vec<(u32, f64)>,
}

impl PackedAdjacency {
    /// Pack nested neighbour lists, preserving per-node neighbour order.
    fn pack(adjacency: &[Vec<(usize, f64)>]) -> Self {
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for list in adjacency {
            total += list.len() as u32;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        for list in adjacency {
            targets.extend(list.iter().map(|(n, w)| (*n as u32, *w)));
        }
        PackedAdjacency { offsets, targets }
    }

    #[inline]
    fn neighbors(&self, v: usize) -> &[(u32, f64)] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weighted degree of a node (Σ W_vu).
    #[inline]
    fn degree(&self, v: usize) -> f64 {
        self.neighbors(v).iter().map(|(_, w)| w).sum()
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Outcome of one MAD propagation run.
#[derive(Debug, Clone)]
pub struct MadResult {
    /// Per-attribute label scores (excluding the dummy label), sorted
    /// descending by score. Ordered map so alignment derivation is
    /// deterministic.
    distributions: BTreeMap<AttributeId, Vec<(AttributeId, f64)>>,
    /// Number of nodes in the propagation graph after pruning.
    pub node_count: usize,
    /// Number of edges in the propagation graph after pruning.
    pub edge_count: usize,
    /// Iterations actually run.
    pub iterations_run: usize,
}

impl MadResult {
    /// Derive the top-Y attribute alignments per attribute, keeping only
    /// scores at or above `threshold` and only pairs that span two different
    /// relations.
    pub fn top_alignments(
        &self,
        catalog: &Catalog,
        top_y: usize,
        threshold: f64,
    ) -> Vec<AttributeAlignment> {
        let mut alignments = Vec::new();
        for (attr, dist) in &self.distributions {
            let attr_rel = catalog.attribute(*attr).map(|a| a.relation);
            for (other, score) in dist.iter().take(top_y) {
                if *score < threshold {
                    continue;
                }
                let other_rel = catalog.attribute(*other).map(|a| a.relation);
                if attr_rel.is_some() && attr_rel == other_rel {
                    continue;
                }
                alignments.push(AttributeAlignment::new(*attr, *other, *score));
            }
        }
        keep_top_y_per_attribute(alignments, top_y)
    }
}

/// The MAD matcher.
#[derive(Debug, Clone, Default)]
pub struct MadMatcher {
    config: MadConfig,
}

impl MadMatcher {
    /// Matcher with the paper's default hyper-parameters.
    pub fn new() -> Self {
        MadMatcher {
            config: MadConfig::default(),
        }
    }

    /// Matcher with custom hyper-parameters.
    pub fn with_config(config: MadConfig) -> Self {
        MadMatcher { config }
    }

    /// Current configuration.
    pub fn config(&self) -> &MadConfig {
        &self.config
    }

    /// Run label propagation over the column–value graph of the given
    /// relations (all relations of the catalog if `relations` is empty).
    pub fn propagate(&self, catalog: &Catalog, relations: &[RelationId]) -> MadResult {
        let relations: Vec<RelationId> = if relations.is_empty() {
            catalog.relations().iter().map(|r| r.id).collect()
        } else {
            relations.to_vec()
        };

        // ---------------- Build the column–value graph ----------------
        // Node 0..A-1: attribute nodes; A..: value nodes.
        let mut attr_nodes: Vec<AttributeId> = Vec::new();
        for rel_id in &relations {
            if let Some(rel) = catalog.relation(*rel_id) {
                attr_nodes.extend(rel.attributes.iter().copied());
            }
        }
        let attr_index: HashMap<AttributeId, usize> = attr_nodes
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i))
            .collect();

        // value text -> attributes containing it
        let mut value_postings: HashMap<String, Vec<usize>> = HashMap::new();
        for rel_id in &relations {
            let Some(rel) = catalog.relation(*rel_id) else {
                continue;
            };
            for tuple in &rel.tuples {
                for (attr_id, value) in rel.attributes.iter().zip(tuple.values()) {
                    if self.config.prune_numeric && !value.is_textual() {
                        continue;
                    }
                    if !self.config.prune_numeric && matches!(value, Value::Null) {
                        continue;
                    }
                    let Some(norm) = value.normalized() else {
                        continue;
                    };
                    let node = attr_index[attr_id];
                    let entry = value_postings.entry(norm).or_default();
                    if !entry.contains(&node) {
                        entry.push(node);
                    }
                }
            }
        }

        let num_attrs = attr_nodes.len();
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_attrs];
        let mut value_node_count = 0usize;
        let mut edge_count = 0usize;
        // Sort by value text before numbering value nodes: hash order would
        // otherwise permute adjacency lists (and thus float accumulation
        // order) from run to run.
        let mut value_postings: Vec<(String, Vec<usize>)> = value_postings.into_iter().collect();
        value_postings.sort_by(|a, b| a.0.cmp(&b.0));
        for (_value, attrs) in value_postings {
            if self.config.prune_degree_one && attrs.len() < 2 {
                continue;
            }
            let value_node = num_attrs + value_node_count;
            value_node_count += 1;
            adjacency.push(Vec::new());
            for a in attrs {
                adjacency[a].push((value_node, 1.0));
                adjacency[value_node].push((a, 1.0));
                edge_count += 1;
            }
        }
        // Pack the neighbour lists once; every pass below (probabilities,
        // normalisation constants, all propagation iterations) reads the
        // flat arrays.
        let adjacency = PackedAdjacency::pack(&adjacency);
        let n = adjacency.node_count();

        // ---------------- Random-walk probabilities ----------------
        // Entropy heuristic from Talukdar & Crammer (2009).
        let mut p_cont = vec![0.0f64; n];
        let mut p_inj = vec![0.0f64; n];
        let mut p_abnd = vec![0.0f64; n];
        for v in 0..n {
            let degree: f64 = adjacency.degree(v);
            if degree <= 0.0 {
                p_abnd[v] = 1.0;
                continue;
            }
            let entropy: f64 = adjacency
                .neighbors(v)
                .iter()
                .map(|(_, w)| {
                    let p = w / degree;
                    -p * p.ln()
                })
                .sum();
            let c = self.config.beta.ln() / (self.config.beta + entropy.exp()).ln();
            let d = if v < num_attrs {
                (1.0 - c) * entropy.sqrt()
            } else {
                0.0
            };
            let z = (c + d).max(1.0);
            p_cont[v] = c / z;
            p_inj[v] = d / z;
            p_abnd[v] = (1.0 - p_cont[v] - p_inj[v]).max(0.0);
        }

        // ---------------- Seed labels ----------------
        // Label i = attr_nodes[i]; dummy label index = num_attrs.
        let dummy_label = num_attrs as u32;
        let mut current: Vec<LabelVec> = vec![LabelVec::new(); n];
        let mut injected: Vec<LabelVec> = vec![LabelVec::new(); n];
        for v in 0..num_attrs {
            injected[v].insert(v as u32, 1.0);
            current[v].insert(v as u32, 1.0);
        }

        // Normalisation constant M_vv of Algorithm 1, line 2.
        let m_vv: Vec<f64> = (0..n)
            .map(|v| {
                let degree: f64 = adjacency.degree(v);
                self.config.mu1 * p_inj[v] + self.config.mu2 * p_cont[v] * degree + self.config.mu3
            })
            .collect();

        // ---------------- Propagate ----------------
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        let mut iterations_run = 0usize;
        for _ in 0..self.config.iterations {
            iterations_run += 1;
            let next = self.iteration(
                &adjacency,
                &current,
                &injected,
                &p_cont,
                &p_inj,
                &p_abnd,
                &m_vv,
                dummy_label,
                threads,
            );
            let max_change = current
                .iter()
                .zip(&next)
                .map(|(a, b)| label_vec_change(a, b))
                .fold(0.0f64, f64::max);
            current = next;
            if max_change < self.config.tolerance {
                break;
            }
        }

        // ---------------- Collect distributions ----------------
        let mut distributions: BTreeMap<AttributeId, Vec<(AttributeId, f64)>> = BTreeMap::new();
        for (v, attr) in attr_nodes.iter().enumerate() {
            let mut scores: Vec<(AttributeId, f64)> = current[v]
                .iter()
                .filter(|(label, _)| **label != dummy_label && **label != v as u32)
                .map(|(label, score)| (attr_nodes[*label as usize], *score))
                .collect();
            scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            distributions.insert(*attr, scores);
        }

        MadResult {
            distributions,
            node_count: n,
            edge_count,
            iterations_run,
        }
    }

    /// One Jacobi iteration of Algorithm 1, optionally parallelised. Reads
    /// the packed adjacency built once per `propagate` call.
    #[allow(clippy::too_many_arguments)]
    fn iteration(
        &self,
        adjacency: &PackedAdjacency,
        current: &[LabelVec],
        injected: &[LabelVec],
        p_cont: &[f64],
        p_inj: &[f64],
        p_abnd: &[f64],
        m_vv: &[f64],
        dummy_label: u32,
        threads: usize,
    ) -> Vec<LabelVec> {
        let n = adjacency.node_count();
        let cfg = self.config;
        let update_node = |v: usize| -> LabelVec {
            // D_v = Σ_u (p_cont_v W_vu + p_cont_u W_uv) L_u
            let mut d: LabelVec = LabelVec::new();
            for (u, w) in adjacency.neighbors(v) {
                let u = *u as usize;
                let coeff = p_cont[v] * w + p_cont[u] * w;
                if coeff == 0.0 {
                    continue;
                }
                for (label, score) in &current[u] {
                    *d.entry(*label).or_insert(0.0) += coeff * score;
                }
            }
            // L_v = 1/M_vv (µ1 p_inj_v I_v + µ2 D_v + µ3 p_abnd_v R_v)
            let mut out: LabelVec = LabelVec::new();
            for (label, score) in &injected[v] {
                *out.entry(*label).or_insert(0.0) += cfg.mu1 * p_inj[v] * score;
            }
            for (label, score) in d {
                *out.entry(label).or_insert(0.0) += cfg.mu2 * score;
            }
            *out.entry(dummy_label).or_insert(0.0) += cfg.mu3 * p_abnd[v];
            let m = m_vv[v].max(1e-12);
            for score in out.values_mut() {
                *score /= m;
            }
            // Bound the number of labels kept per node.
            if cfg.max_labels_per_node > 0 && out.len() > cfg.max_labels_per_node {
                let mut entries: Vec<(u32, f64)> = out.into_iter().collect();
                entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                entries.truncate(cfg.max_labels_per_node);
                out = entries.into_iter().collect();
            }
            out
        };

        if threads <= 1 || n < 256 {
            return (0..n).map(update_node).collect();
        }

        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(n);
                if start >= end {
                    continue;
                }
                let update_node = &update_node;
                handles.push(
                    scope.spawn(move || (start..end).map(update_node).collect::<Vec<LabelVec>>()),
                );
            }
            // Handles are in chunk order, so joining in order rebuilds 0..n.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("mad worker thread panicked"))
                .collect()
        })
    }
}

fn label_vec_change(a: &LabelVec, b: &LabelVec) -> f64 {
    let mut change = 0.0f64;
    for (label, score) in b {
        change = change.max((score - a.get(label).copied().unwrap_or(0.0)).abs());
    }
    for (label, score) in a {
        if !b.contains_key(label) {
            change = change.max(score.abs());
        }
    }
    change
}

impl SchemaMatcher for MadMatcher {
    fn name(&self) -> &str {
        "mad"
    }

    fn match_relations(
        &self,
        catalog: &Catalog,
        new_relation: RelationId,
        existing_relation: RelationId,
        top_y: usize,
    ) -> Vec<AttributeAlignment> {
        let result = self.propagate(catalog, &[new_relation, existing_relation]);
        let new_attrs: Vec<AttributeId> = catalog
            .relation(new_relation)
            .map(|r| r.attributes.clone())
            .unwrap_or_default();
        let alignments = result
            .top_alignments(catalog, top_y, 0.0)
            .into_iter()
            .filter(|a| new_attrs.contains(&a.new_attribute))
            .collect();
        keep_top_y_per_attribute(alignments, top_y)
    }

    /// MAD does not need pairwise comparisons: one global propagation over
    /// the new relation plus all existing relations yields alignments for
    /// every attribute at once.
    fn match_against(
        &self,
        catalog: &Catalog,
        new_relation: RelationId,
        existing_relations: &[RelationId],
        top_y: usize,
    ) -> Vec<AttributeAlignment> {
        let mut relations = vec![new_relation];
        relations.extend(existing_relations.iter().copied());
        relations.dedup();
        let result = self.propagate(catalog, &relations);
        let new_attrs: Vec<AttributeId> = catalog
            .relation(new_relation)
            .map(|r| r.attributes.clone())
            .unwrap_or_default();
        let alignments = result
            .top_alignments(catalog, top_y, 0.0)
            .into_iter()
            .filter(|a| new_attrs.contains(&a.new_attribute))
            .collect();
        keep_top_y_per_attribute(alignments, top_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    /// Label scores estimated for an attribute (own label excluded), sorted
    /// by decreasing score.
    fn distribution(result: &MadResult, attribute: AttributeId) -> &[(AttributeId, f64)] {
        result
            .distributions
            .get(&attribute)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Catalog mimicking Figure 4: go_term.acc and interpro2go.go_id share
    /// most of their values; pub.title shares nothing with either.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name"])
                    .row(["GO:0009521", "photosystem"])
                    .row(["GO:0007652", "mating behavior"])
                    .row(["GO:0005134", "interleukin binding"])
                    .row(["GO:0031012", "extracellular matrix"]),
            )
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("interpro2go", &["go_id", "entry_ac"])
                    .row(["GO:0009521", "IPR01"])
                    .row(["GO:0007652", "IPR02"])
                    .row(["GO:0005134", "IPR03"]),
            )
            .relation(
                RelationSpec::new("interpro_pub", &["pub_id", "title"])
                    .row(["P1", "Crystal structure of a kinase"])
                    .row(["P2", "Photosystem organisation"]),
            )
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn overlapping_attributes_receive_each_others_labels() {
        let cat = catalog();
        let mad = MadMatcher::new();
        let result = mad.propagate(&cat, &[]);
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        let dist = distribution(&result, acc);
        assert!(
            dist.first().map(|(a, _)| *a) == Some(go_id),
            "go_term.acc should be labelled with interpro2go.go_id, got {dist:?}"
        );
        // And vice versa.
        let dist_back = distribution(&result, go_id);
        assert_eq!(dist_back.first().map(|(a, _)| *a), Some(acc));
    }

    #[test]
    fn non_overlapping_attributes_do_not_align() {
        let cat = catalog();
        let mad = MadMatcher::new();
        let result = mad.propagate(&cat, &[]);
        let title = cat.resolve_qualified("interpro_pub.title").unwrap();
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        let dist = distribution(&result, title);
        assert!(
            !dist.iter().any(|(a, s)| *a == go_id && *s > 0.05),
            "title should not strongly align with go_id: {dist:?}"
        );
    }

    #[test]
    fn top_alignments_recover_the_gold_pair() {
        let cat = catalog();
        let mad = MadMatcher::new();
        let result = mad.propagate(&cat, &[]);
        let alignments = result.top_alignments(&cat, 1, 0.0);
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        assert!(alignments.iter().any(|a| (a.new_attribute == acc
            && a.existing_attribute == go_id)
            || (a.new_attribute == go_id && a.existing_attribute == acc)));
    }

    #[test]
    fn degree_one_pruning_shrinks_the_graph() {
        let cat = catalog();
        let pruned = MadMatcher::new().propagate(&cat, &[]);
        let unpruned = MadMatcher::with_config(MadConfig {
            prune_degree_one: false,
            ..MadConfig::default()
        })
        .propagate(&cat, &[]);
        assert!(pruned.node_count < unpruned.node_count);
    }

    #[test]
    fn numeric_values_are_pruned_by_default() {
        let mut cat = Catalog::new();
        SourceSpec::new("s")
            .relation(RelationSpec::new("a", &["x"]).row(["123"]).row(["456"]))
            .relation(RelationSpec::new("b", &["y"]).row(["123"]).row(["456"]))
            .load_into(&mut cat)
            .unwrap();
        let mad = MadMatcher::new();
        let result = mad.propagate(&cat, &[]);
        // Only the two attribute nodes remain; no alignment via numbers.
        assert!(result.top_alignments(&cat, 1, 0.0).is_empty());
        // Allowing numeric values recovers the alignment.
        let permissive = MadMatcher::with_config(MadConfig {
            prune_numeric: false,
            ..MadConfig::default()
        });
        let result = permissive.propagate(&cat, &[]);
        assert!(!result.top_alignments(&cat, 1, 0.0).is_empty());
    }

    #[test]
    fn pairwise_interface_restricts_to_the_pair() {
        let cat = catalog();
        let mad = MadMatcher::new();
        let go_term = cat.relation_by_name("go_term").unwrap().id;
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let alignments = mad.match_relations(&cat, i2g, go_term, 2);
        assert!(!alignments.is_empty());
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        assert!(alignments
            .iter()
            .any(|a| a.new_attribute == go_id && a.existing_attribute == acc));
        // All proposed alignments start from the new relation's attributes.
        for a in &alignments {
            let rel = cat.attribute(a.new_attribute).unwrap().relation;
            assert_eq!(rel, i2g);
        }
    }

    #[test]
    fn global_match_against_uses_a_single_propagation() {
        let cat = catalog();
        let mad = MadMatcher::new();
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let others: Vec<RelationId> = cat
            .relations()
            .iter()
            .map(|r| r.id)
            .filter(|r| *r != i2g)
            .collect();
        let alignments = mad.match_against(&cat, i2g, &others, 2);
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        assert!(alignments
            .iter()
            .any(|a| a.new_attribute == go_id && a.existing_attribute == acc));
    }

    #[test]
    fn confidences_are_within_unit_interval() {
        let cat = catalog();
        let result = MadMatcher::new().propagate(&cat, &[]);
        for a in result.top_alignments(&cat, 5, 0.0) {
            assert!(a.confidence >= 0.0 && a.confidence <= 1.0);
        }
    }

    #[test]
    fn iterations_are_bounded_by_config() {
        let cat = catalog();
        let mad = MadMatcher::with_config(MadConfig {
            iterations: 1,
            ..MadConfig::default()
        });
        let result = mad.propagate(&cat, &[]);
        assert_eq!(result.iterations_run, 1);
        assert!(result.node_count > 0);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let cat = catalog();
        let serial = MadMatcher::with_config(MadConfig {
            threads: 1,
            ..MadConfig::default()
        })
        .propagate(&cat, &[]);
        let parallel = MadMatcher::with_config(MadConfig {
            threads: 4,
            ..MadConfig::default()
        })
        .propagate(&cat, &[]);
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        let ds = distribution(&serial, acc);
        let dp = distribution(&parallel, acc);
        assert_eq!(ds.len(), dp.len());
        for ((a1, s1), (a2, s2)) in ds.iter().zip(dp.iter()) {
            assert_eq!(a1, a2);
            assert!((s1 - s2).abs() < 1e-9);
        }
    }
}

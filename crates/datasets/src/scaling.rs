//! Synthetic scaling workload (Section 5.1.2, Figure 8).
//!
//! "Since it is difficult to find large numbers of interlinked tables in the
//! wild", the paper grows the calibrated GBCO search graph with randomly
//! generated sources connected to the existing graph with edges at the
//! calibrated average cost. This module reproduces that expansion — and
//! extends it from two-attribute toys to a corpus generator that reaches
//! millions of rows and thousands of sources:
//!
//! * **Multi-attribute relations** ([`ScalingConfig::attributes_per_table`]):
//!   a key column, a reference column and descriptive columns.
//! * **FK-linked row content**: each synthetic relation (after the first)
//!   declares a real foreign key from its reference column to an earlier
//!   synthetic relation's key column, with row values drawn from the target's
//!   actual key range. Each synthetic source holds one relation, so every
//!   such link joins relations of two different sources.
//! * **Zipf-ish keyword reuse** ([`ScalingConfig::vocab_skew`]): descriptive
//!   cells draw phrases from a shared pool with rank-skewed reuse, so
//!   keyword postings collide across sources instead of every relation
//!   minting its own private vocabulary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use q_graph::SearchGraph;
use q_storage::{AttributeId, Catalog, RelationSpec, SourceId, SourceSpec};

use crate::words;

/// Expansion knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingConfig {
    /// Rows generated per synthetic relation.
    pub rows_per_table: usize,
    /// Attributes per synthetic relation (clamped to at least 2): a key
    /// column, a reference column, and descriptive columns for the rest.
    pub attributes_per_table: usize,
    /// Confidence recorded on the synthetic association edges (the paper uses
    /// the average cost of the calibrated graph; a mid-range confidence plays
    /// the same role here).
    pub association_confidence: f64,
    /// Phrases in the shared descriptive-text pool. Smaller pools mean more
    /// posting collisions across sources.
    pub vocab_phrases: usize,
    /// Rank-skew exponent for pool draws: `1.0` is uniform, larger values
    /// concentrate draws on the head of the pool (zipf-ish reuse).
    pub vocab_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            rows_per_table: 10,
            attributes_per_table: 4,
            association_confidence: 0.5,
            vocab_phrases: 256,
            vocab_skew: 2.0,
            seed: 99,
        }
    }
}

/// A rank-skewed index into `0..len`: uniform at `skew = 1.0`, increasingly
/// head-heavy beyond it.
fn zipf_index(rng: &mut StdRng, len: usize, skew: f64) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    (((len as f64) * u.powf(skew.max(1.0))) as usize).min(len - 1)
}

/// What one expansion did: the new source ids plus the synthetic
/// association edges it added to the graph. The associations come back
/// explicitly so a caller rebuilding a system from the expanded catalog
/// (e.g. `tests/scale_smoke.rs`, whose `QSystem` re-derives its graph from
/// the catalog) can re-apply them with
/// `graph.add_association(a, b, "synthetic", confidence)`.
#[derive(Debug, Clone, Default)]
pub struct SyntheticExpansion {
    /// Ids of the sources the expansion added, in creation order.
    pub sources: Vec<SourceId>,
    /// Synthetic association edges `(new attribute, existing attribute,
    /// confidence)`, in creation order.
    pub associations: Vec<(AttributeId, AttributeId, f64)>,
}

/// Add `additional_sources` synthetic sources to the catalog and graph.
/// Each source holds one multi-attribute relation whose reference column is
/// a real foreign key into an earlier synthetic relation, plus two random
/// association edges into the pre-existing graph (the paper's construction).
/// Returns the new source ids. Deterministic per [`ScalingConfig::seed`].
pub fn expand_with_synthetic_sources(
    catalog: &mut Catalog,
    graph: &mut SearchGraph,
    additional_sources: usize,
    config: &ScalingConfig,
) -> Vec<SourceId> {
    expand_with_synthetic_sources_detailed(catalog, graph, additional_sources, config).sources
}

/// [`expand_with_synthetic_sources`], also reporting the association edges
/// it added (see [`SyntheticExpansion`]).
pub fn expand_with_synthetic_sources_detailed(
    catalog: &mut Catalog,
    graph: &mut SearchGraph,
    additional_sources: usize,
    config: &ScalingConfig,
) -> SyntheticExpansion {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut expansion = SyntheticExpansion::default();
    let base_index = catalog.sources().len();
    let arity = config.attributes_per_table.max(2);
    let rows = config.rows_per_table;

    // The shared phrase pool every descriptive cell draws from.
    let pool_len = config.vocab_phrases.max(1);
    let pool: Vec<String> = (0..pool_len).map(|_| words::term_name(&mut rng)).collect();

    for i in 0..additional_sources {
        let n = base_index + i;
        let source_name = format!("synthetic_source_{n}");
        let relation_name = format!("synthetic_rel_{n}");
        let key_attr = format!("syn_id_{n}");
        let ref_attr = format!("syn_ref_{n}");
        let mut attr_names = vec![key_attr.clone(), ref_attr.clone()];
        for j in 2..arity {
            attr_names.push(format!("syn_field_{n}_{j}"));
        }
        let attr_refs: Vec<&str> = attr_names.iter().map(String::as_str).collect();

        // Reference an earlier synthetic relation of this expansion; the
        // first one has nothing to point at and self-fills its reference
        // column instead.
        let fk_target = (i > 0).then(|| base_index + rng.gen_range(0..i));
        let mut rel = RelationSpec::new(&relation_name, &attr_refs);
        for r in 0..rows {
            let mut row: Vec<String> = Vec::with_capacity(arity);
            row.push(words::padded_id("SYN", n * rows + r, 9));
            row.push(match fk_target {
                Some(m) => words::padded_id("SYN", m * rows + rng.gen_range(0..rows), 9),
                None => words::padded_id("SYN", n * rows + r, 9),
            });
            for _ in 2..arity {
                row.push(pool[zipf_index(&mut rng, pool_len, config.vocab_skew)].clone());
            }
            rel = rel.row(row);
        }
        let mut spec = SourceSpec::new(&source_name).relation(rel);
        if let Some(m) = fk_target {
            spec = spec.foreign_key(
                &format!("{relation_name}.{ref_attr}"),
                &format!("synthetic_rel_{m}.syn_id_{m}"),
            );
        }
        let source_id = spec.load_into(catalog).expect("synthetic spec loads");
        expansion.sources.push(source_id);
        graph.add_source(catalog, source_id);

        // Connect the new source to two random existing attributes, mirroring
        // the paper's construction. The association is attributed to a
        // synthetic "prior" matcher so it is distinguishable from real ones.
        let existing: Vec<AttributeId> = catalog
            .attributes()
            .iter()
            .filter(|a| {
                catalog
                    .relation(a.relation)
                    .map(|r| r.source != source_id)
                    .unwrap_or(false)
            })
            .map(|a| a.id)
            .collect();
        if existing.is_empty() {
            continue;
        }
        let new_rel = catalog.source(source_id).unwrap().relations[0];
        let new_attrs = catalog.relation(new_rel).unwrap().attributes.clone();
        for attr in new_attrs.iter().take(2) {
            let target = existing[rng.gen_range(0..existing.len())];
            graph.add_association(*attr, target, "synthetic", config.association_confidence);
            expansion
                .associations
                .push((*attr, target, config.association_confidence));
        }
    }
    expansion
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbco::{gbco_catalog, GbcoConfig};
    use q_graph::{EdgeKind, Node};

    #[test]
    fn expansion_adds_sources_and_associations() {
        let mut catalog = gbco_catalog(&GbcoConfig {
            rows_per_table: 10,
            seed: 1,
        });
        let mut graph = SearchGraph::from_catalog(&catalog);
        let edges_before = graph.edge_count();
        let sources_before = catalog.sources().len();

        let added =
            expand_with_synthetic_sources(&mut catalog, &mut graph, 20, &ScalingConfig::default());
        assert_eq!(added.len(), 20);
        assert_eq!(catalog.sources().len(), sources_before + 20);
        // Each synthetic source contributes attribute-relation edges plus two
        // association edges.
        assert!(graph.edge_count() >= edges_before + 20 * 3);
        // The graph knows about every new relation.
        for s in &added {
            for rel in &catalog.source(*s).unwrap().relations {
                assert!(graph.relation_node(*rel).is_some());
            }
        }
    }

    #[test]
    fn expansion_is_deterministic_for_a_seed() {
        let build = || {
            let mut catalog = gbco_catalog(&GbcoConfig {
                rows_per_table: 10,
                seed: 1,
            });
            let mut graph = SearchGraph::from_catalog(&catalog);
            expand_with_synthetic_sources(&mut catalog, &mut graph, 5, &ScalingConfig::default());
            (catalog.attributes().len(), graph.edge_count())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn synthetic_relations_are_multi_attribute() {
        let mut catalog = gbco_catalog(&GbcoConfig {
            rows_per_table: 10,
            seed: 1,
        });
        let mut graph = SearchGraph::from_catalog(&catalog);
        let config = ScalingConfig::default();
        let added = expand_with_synthetic_sources(&mut catalog, &mut graph, 3, &config);
        for s in added {
            let rels = &catalog.source(s).unwrap().relations;
            assert_eq!(rels.len(), 1);
            let rel = catalog.relation(rels[0]).unwrap();
            assert_eq!(rel.arity(), config.attributes_per_table);
            assert_eq!(rel.cardinality(), config.rows_per_table);
        }
    }

    #[test]
    fn synthetic_fk_edges_link_relations_of_different_sources() {
        let mut catalog = gbco_catalog(&GbcoConfig {
            rows_per_table: 10,
            seed: 1,
        });
        let mut graph = SearchGraph::from_catalog(&catalog);
        let fks_before = catalog.foreign_keys().len();
        let fk_edges = |g: &SearchGraph| {
            g.edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::ForeignKey)
                .count()
        };
        let fk_edges_before = fk_edges(&graph);

        expand_with_synthetic_sources(&mut catalog, &mut graph, 8, &ScalingConfig::default());
        // Every synthetic source after the first declares a foreign key into
        // an earlier synthetic relation, and the graph materialises it.
        assert_eq!(catalog.foreign_keys().len(), fks_before + 7);
        assert_eq!(fk_edges(&graph), fk_edges_before + 7);

        // Regression: the old generator's topology was degenerate — no links
        // between synthetic relations. Every new FK edge joins two sources.
        let source_of = |node| match graph.node(node) {
            Node::Relation(r) => catalog.relation(*r).map(|rel| rel.source),
            _ => None,
        };
        let new_fk_edges: Vec<_> = graph
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::ForeignKey)
            .skip(fk_edges_before)
            .collect();
        assert_eq!(new_fk_edges.len(), 7);
        for edge in new_fk_edges {
            let (a, b) = (source_of(edge.a), source_of(edge.b));
            assert!(a.is_some() && b.is_some(), "FK edge off relation nodes");
            assert_ne!(a, b, "FK edge {:?} stays inside one source", edge.id);
        }
    }

    #[test]
    fn vocabulary_reuse_collides_postings_across_sources() {
        let mut catalog = gbco_catalog(&GbcoConfig {
            rows_per_table: 5,
            seed: 1,
        });
        let mut graph = SearchGraph::from_catalog(&catalog);
        let config = ScalingConfig {
            vocab_phrases: 16,
            ..ScalingConfig::default()
        };
        let added = expand_with_synthetic_sources(&mut catalog, &mut graph, 10, &config);
        // With a 16-phrase pool over 10 sources × 10 rows × 2 descriptive
        // columns, some phrase must appear in several different relations.
        let mut phrase_relations: std::collections::HashMap<String, Vec<usize>> =
            std::collections::HashMap::new();
        for s in &added {
            for rel in &catalog.source(*s).unwrap().relations {
                let relation = catalog.relation(*rel).unwrap();
                for row in &relation.tuples {
                    for value in row.values().iter().skip(2) {
                        if let q_storage::Value::Text(text) = value {
                            let rels = phrase_relations.entry(text.clone()).or_default();
                            if !rels.contains(&rel.index()) {
                                rels.push(rel.index());
                            }
                        }
                    }
                }
            }
        }
        assert!(
            phrase_relations.values().any(|rels| rels.len() >= 3),
            "no phrase shared by three relations — postings cannot collide"
        );
    }
}

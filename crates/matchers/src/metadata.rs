//! Metadata matcher — the COMA++ substitute.
//!
//! COMA++ [Do & Rahm 2007] is a proprietary composite matcher; the paper
//! drives it as a black box over metadata only ("we used COMA++'s default
//! structural relationship and substring matchers over metadata"). This
//! module provides an open implementation with the same interface and the
//! same qualitative behaviour:
//!
//! * pairwise relation-vs-relation matching,
//! * name-based sub-matchers (token, trigram, edit-distance, substring)
//!   combined by weighted average,
//! * a structural sub-matcher that rewards attribute pairs whose *relations*
//!   also look related (COMA++'s path/context heuristic),
//! * no use of instance data, and
//! * confidence scores already normalised to `[0, 1]`, which in practice sit
//!   higher on average than MAD's scores — the property that drives the
//!   "average of matchers follows COMA++" observation around Figure 11.

use serde::{Deserialize, Serialize};

use q_storage::{AttributeId, Catalog, RelationId};

use crate::matcher::{keep_top_y_per_attribute, AttributeAlignment, SchemaMatcher};
use crate::strings::NameProfile;

/// Weights of the individual sub-matchers and acceptance threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetadataMatcherConfig {
    /// Weight of token-set Jaccard similarity.
    pub token_weight: f64,
    /// Weight of character-trigram Dice similarity.
    pub trigram_weight: f64,
    /// Weight of normalised edit similarity.
    pub edit_weight: f64,
    /// Weight of substring/affix containment.
    pub containment_weight: f64,
    /// Weight of the structural (relation-context) bonus.
    pub structural_weight: f64,
    /// Minimum combined confidence for an alignment to be reported.
    pub threshold: f64,
}

impl Default for MetadataMatcherConfig {
    fn default() -> Self {
        MetadataMatcherConfig {
            token_weight: 0.35,
            trigram_weight: 0.2,
            edit_weight: 0.15,
            containment_weight: 0.15,
            structural_weight: 0.15,
            threshold: 0.3,
        }
    }
}

/// The metadata (schema-name) matcher.
#[derive(Debug, Clone, Default)]
pub struct MetadataMatcher {
    config: MetadataMatcherConfig,
}

impl MetadataMatcher {
    /// Matcher with default sub-matcher weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Matcher with custom configuration.
    pub fn with_config(config: MetadataMatcherConfig) -> Self {
        MetadataMatcher { config }
    }

    /// Name similarity between two profiled names (no structural context).
    fn name_similarity(&self, a: &NameProfile, b: &NameProfile) -> f64 {
        let c = &self.config;
        let base_weight = c.token_weight + c.trigram_weight + c.edit_weight + c.containment_weight;
        if base_weight <= 0.0 {
            return 0.0;
        }
        let score = c.token_weight * a.token_jaccard(b)
            + c.trigram_weight * a.trigram_dice(b)
            + c.edit_weight * a.edit_similarity(b)
            + c.containment_weight * a.containment(b);
        (score / base_weight).clamp(0.0, 1.0)
    }

    /// The alignments of one new relation's attributes against one existing
    /// relation's, scored from their profiles: at most `top_y` per new
    /// attribute.
    fn align(
        &self,
        new: &RelationProfile,
        existing: &RelationProfile,
        top_y: usize,
    ) -> Vec<AttributeAlignment> {
        let relation_similarity = self.name_similarity(&new.name, &existing.name);
        let mut alignments = Vec::new();
        for (new_id, new_attr) in &new.attributes {
            for (existing_id, existing_attr) in &existing.attributes {
                let confidence = self.pair_confidence(new_attr, existing_attr, relation_similarity);
                if confidence >= self.config.threshold {
                    alignments.push(AttributeAlignment::new(*new_id, *existing_id, confidence));
                }
            }
        }
        keep_top_y_per_attribute(alignments, top_y)
    }

    /// Combined confidence for an attribute pair given their relations'
    /// structural similarity.
    fn pair_confidence(&self, a: &NameProfile, b: &NameProfile, relation_similarity: f64) -> f64 {
        let c = &self.config;
        let name_sim = self.name_similarity(a, b);
        let total_weight = 1.0 + c.structural_weight;
        ((name_sim + c.structural_weight * relation_similarity * name_sim.max(0.3)) / total_weight)
            .clamp(0.0, 1.0)
    }
}

impl SchemaMatcher for MetadataMatcher {
    fn name(&self) -> &str {
        "metadata"
    }

    fn match_relations(
        &self,
        catalog: &Catalog,
        new_relation: RelationId,
        existing_relation: RelationId,
        top_y: usize,
    ) -> Vec<AttributeAlignment> {
        let (Some(new), Some(existing)) = (
            RelationProfile::new(catalog, new_relation),
            RelationProfile::new(catalog, existing_relation),
        ) else {
            return Vec::new();
        };
        self.align(&new, &existing, top_y)
    }

    /// The pairwise [`SchemaMatcher::match_relations`] against each
    /// existing relation, with the new relation's names profiled once for
    /// all of them.
    fn match_against(
        &self,
        catalog: &Catalog,
        new_relation: RelationId,
        existing_relations: &[RelationId],
        top_y: usize,
    ) -> Vec<AttributeAlignment> {
        let Some(new) = RelationProfile::new(catalog, new_relation) else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for &existing in existing_relations {
            if existing == new_relation {
                continue;
            }
            if let Some(existing) = RelationProfile::new(catalog, existing) {
                all.extend(self.align(&new, &existing, top_y));
            }
        }
        keep_top_y_per_attribute(all, top_y)
    }
}

/// A relation's name and each of its attributes' names, profiled.
struct RelationProfile {
    name: NameProfile,
    attributes: Vec<(AttributeId, NameProfile)>,
}

impl RelationProfile {
    /// `None` when the relation is not in the catalog.
    fn new(catalog: &Catalog, relation: RelationId) -> Option<Self> {
        let rel = catalog.relation(relation)?;
        let attributes = rel
            .attributes
            .iter()
            .map(|&id| {
                let attr = catalog.attribute(id).expect("attribute exists");
                (id, NameProfile::new(&attr.name))
            })
            .collect();
        Some(RelationProfile {
            name: NameProfile::new(&rel.name),
            attributes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(RelationSpec::new("go_term", &["acc", "name", "term_type"]))
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(RelationSpec::new("interpro2go", &["go_id", "entry_ac"]))
            .relation(RelationSpec::new("interpro_entry", &["entry_ac", "name"]))
            .relation(RelationSpec::new("interpro_pub", &["pub_id", "title"]))
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn identical_names_align_with_high_confidence() {
        let cat = catalog();
        let m = MetadataMatcher::new();
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let entry = cat.relation_by_name("interpro_entry").unwrap().id;
        let alignments = m.match_relations(&cat, i2g, entry, 2);
        let entry_ac_new = cat.resolve_qualified("interpro2go.entry_ac").unwrap();
        let entry_ac_existing = cat.resolve_qualified("interpro_entry.entry_ac").unwrap();
        let found = alignments
            .iter()
            .find(|a| a.new_attribute == entry_ac_new && a.existing_attribute == entry_ac_existing)
            .expect("entry_ac aligns with entry_ac");
        assert!(found.confidence > 0.8);
    }

    #[test]
    fn unrelated_names_score_below_related_names() {
        let m = MetadataMatcher::new();
        let sim = |a: &str, b: &str| m.name_similarity(&NameProfile::new(a), &NameProfile::new(b));
        assert!(sim("go_id", "acc") < sim("go_id", "go_acc"));
        assert!(sim("title", "pub_id") < sim("pub_id", "pub_id"));
    }

    #[test]
    fn is_blind_to_instance_data() {
        // Two catalogs with the same schema but different data must produce
        // identical alignments, since the metadata matcher ignores tuples.
        let cat_empty = catalog();
        let mut cat_full = catalog();
        let term = cat_full.relation_by_name("go_term").unwrap().id;
        cat_full
            .insert_rows(
                term,
                vec![vec![
                    q_storage::Value::from("GO:1"),
                    q_storage::Value::from("x"),
                    q_storage::Value::from("t"),
                ]],
            )
            .unwrap();
        let m = MetadataMatcher::new();
        let i2g = cat_empty.relation_by_name("interpro2go").unwrap().id;
        let go = cat_empty.relation_by_name("go_term").unwrap().id;
        assert_eq!(
            m.match_relations(&cat_empty, i2g, go, 3),
            m.match_relations(&cat_full, i2g, go, 3)
        );
    }

    #[test]
    fn top_y_limits_candidates_per_attribute() {
        let cat = catalog();
        let m = MetadataMatcher::with_config(MetadataMatcherConfig {
            threshold: 0.0,
            ..MetadataMatcherConfig::default()
        });
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let go = cat.relation_by_name("go_term").unwrap().id;
        let y1 = m.match_relations(&cat, i2g, go, 1);
        let counts = y1
            .iter()
            .filter(|a| a.new_attribute == cat.resolve_qualified("interpro2go.go_id").unwrap());
        assert!(counts.count() <= 1);
    }

    #[test]
    fn match_against_merges_multiple_relations() {
        let cat = catalog();
        let m = MetadataMatcher::new();
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let others: Vec<RelationId> = cat
            .relations()
            .iter()
            .map(|r| r.id)
            .filter(|r| *r != i2g)
            .collect();
        let alignments = m.match_against(&cat, i2g, &others, 2);
        // entry_ac should find interpro_entry.entry_ac among its top picks.
        let entry_ac_new = cat.resolve_qualified("interpro2go.entry_ac").unwrap();
        let entry_ac_existing = cat.resolve_qualified("interpro_entry.entry_ac").unwrap();
        assert!(alignments
            .iter()
            .any(|a| a.new_attribute == entry_ac_new && a.existing_attribute == entry_ac_existing));
        // And no attribute gets more than 2 candidates.
        assert!(
            alignments
                .iter()
                .filter(|a| a.new_attribute == entry_ac_new)
                .count()
                <= 2
        );
    }

    #[test]
    fn match_against_equals_the_merged_pairwise_matches() {
        // The new relation is profiled once for all existing relations; the
        // result must be the trait's pairwise default, skipping the new
        // relation itself and a relation the catalog lacks.
        let cat = catalog();
        let m = MetadataMatcher::new();
        let mut rels: Vec<RelationId> = cat.relations().iter().map(|r| r.id).collect();
        rels.push(RelationId(99));
        for &new in &rels {
            for top_y in [1, 2, 5] {
                let pairwise = rels
                    .iter()
                    .filter(|&&existing| existing != new)
                    .flat_map(|&existing| m.match_relations(&cat, new, existing, top_y))
                    .collect();
                assert_eq!(
                    m.match_against(&cat, new, &rels, top_y),
                    keep_top_y_per_attribute(pairwise, top_y),
                    "{new:?}, top_y {top_y}"
                );
            }
        }
    }

    #[test]
    fn threshold_filters_weak_alignments() {
        let cat = catalog();
        let strict = MetadataMatcher::with_config(MetadataMatcherConfig {
            threshold: 0.95,
            ..MetadataMatcherConfig::default()
        });
        let i2g = cat.relation_by_name("interpro2go").unwrap().id;
        let pubr = cat.relation_by_name("interpro_pub").unwrap().id;
        assert!(strict.match_relations(&cat, i2g, pubr, 3).is_empty());
    }

    #[test]
    fn confidence_is_always_normalised() {
        let cat = catalog();
        let m = MetadataMatcher::new();
        for new_rel in cat.relations() {
            for existing_rel in cat.relations() {
                if new_rel.id == existing_rel.id {
                    continue;
                }
                for a in m.match_relations(&cat, new_rel.id, existing_rel.id, 5) {
                    assert!(a.confidence >= 0.0 && a.confidence <= 1.0);
                }
            }
        }
    }
}

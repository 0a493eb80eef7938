//! The catalog: the collection of registered sources, their relations,
//! attributes, foreign keys and stored tuples.
//!
//! The catalog plays the role of "the metadata in each data source" that Q
//! scans when building the initial search graph (Section 2.1), and of the
//! registration target when a new source arrives (Section 3).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::schema::{Attribute, AttributeId, ForeignKey, Relation, RelationId, SourceId};
use crate::tuple::Tuple;
use crate::value::Value;

/// A registered data source (a database containing one or more relations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Source {
    /// Globally unique source id.
    pub id: SourceId,
    /// Source name (e.g. `"interpro"`, `"go"`).
    pub name: String,
    /// Relations owned by the source.
    pub relations: Vec<RelationId>,
}

/// The set of all registered sources and their contents.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    sources: Vec<Source>,
    relations: Vec<Relation>,
    attributes: Vec<Attribute>,
    foreign_keys: Vec<ForeignKey>,
    source_by_name: HashMap<String, SourceId>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Reassemble a catalog from its persisted arrays (what a snapshot
    /// stores), rebuilding the source-name lookup map. The arrays must be in
    /// id order with internally consistent cross-references — exactly what
    /// the borrowed accessors of a previously built catalog yield.
    pub fn from_parts(
        sources: Vec<Source>,
        relations: Vec<Relation>,
        attributes: Vec<Attribute>,
        foreign_keys: Vec<ForeignKey>,
    ) -> Self {
        let source_by_name = sources.iter().map(|s| (s.name.clone(), s.id)).collect();
        Catalog {
            sources,
            relations,
            attributes,
            foreign_keys,
            source_by_name,
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Register a new (empty) source.
    pub fn add_source(&mut self, name: &str) -> Result<SourceId, StorageError> {
        if self.source_by_name.contains_key(name) {
            return Err(StorageError::DuplicateSource(name.to_string()));
        }
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(Source {
            id,
            name: name.to_string(),
            relations: Vec::new(),
        });
        self.source_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Register a relation with the given attribute names under a source.
    pub fn add_relation(
        &mut self,
        source: SourceId,
        name: &str,
        attribute_names: &[&str],
    ) -> Result<RelationId, StorageError> {
        let src = self
            .sources
            .get_mut(source.index())
            .ok_or_else(|| StorageError::UnknownSource(source.to_string()))?;
        // Relation names must be unique within their source.
        let clash = src.relations.iter().any(|rid| {
            self.relations
                .get(rid.index())
                .map(|r| r.name == name)
                .unwrap_or(false)
        });
        if clash {
            return Err(StorageError::DuplicateRelation(name.to_string()));
        }
        {
            let mut seen = std::collections::HashSet::new();
            for a in attribute_names {
                if !seen.insert(*a) {
                    return Err(StorageError::DuplicateAttribute((*a).to_string()));
                }
            }
        }
        let rel_id = RelationId(self.relations.len() as u32);
        let mut attr_ids = Vec::with_capacity(attribute_names.len());
        for (position, attr_name) in attribute_names.iter().enumerate() {
            let attr_id = AttributeId(self.attributes.len() as u32);
            self.attributes.push(Attribute {
                id: attr_id,
                relation: rel_id,
                name: (*attr_name).to_string(),
                position,
            });
            attr_ids.push(attr_id);
        }
        self.relations.push(Relation {
            id: rel_id,
            source,
            name: name.to_string(),
            attributes: attr_ids,
            tuples: Vec::new(),
        });
        src.relations.push(rel_id);
        Ok(rel_id)
    }

    /// Declare a key–foreign-key relationship between two attributes.
    pub fn add_foreign_key(
        &mut self,
        from: AttributeId,
        to: AttributeId,
    ) -> Result<(), StorageError> {
        if from.index() >= self.attributes.len() {
            return Err(StorageError::UnknownAttribute(from.to_string()));
        }
        if to.index() >= self.attributes.len() {
            return Err(StorageError::UnknownAttribute(to.to_string()));
        }
        let fk = ForeignKey::new(from, to);
        if !self.foreign_keys.contains(&fk) && !self.foreign_keys.contains(&fk.reversed()) {
            self.foreign_keys.push(fk);
        }
        Ok(())
    }

    /// Insert a tuple into a relation.
    pub fn insert(&mut self, relation: RelationId, tuple: Tuple) -> Result<(), StorageError> {
        let rel = self
            .relations
            .get_mut(relation.index())
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?;
        if tuple.arity() != rel.attributes.len() {
            return Err(StorageError::ArityMismatch {
                relation: rel.name.clone(),
                expected: rel.attributes.len(),
                got: tuple.arity(),
            });
        }
        rel.tuples.push(tuple);
        Ok(())
    }

    /// Insert many tuples built from rows of values.
    pub fn insert_rows<I, R>(&mut self, relation: RelationId, rows: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = R>,
        R: Into<Tuple>,
    {
        for row in rows {
            self.insert(relation, row.into())?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// All sources.
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// All relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// All attributes.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Source by id.
    pub fn source(&self, id: SourceId) -> Option<&Source> {
        self.sources.get(id.index())
    }

    /// Source by name.
    pub fn source_by_name(&self, name: &str) -> Option<&Source> {
        self.source_by_name
            .get(name)
            .map(|id| &self.sources[id.index()])
    }

    /// Relation by id.
    pub fn relation(&self, id: RelationId) -> Option<&Relation> {
        self.relations.get(id.index())
    }

    /// Relation by name (searched across all sources; names used in the
    /// reproduction datasets are globally unique).
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Attribute by id.
    pub fn attribute(&self, id: AttributeId) -> Option<&Attribute> {
        self.attributes.get(id.index())
    }

    /// Attribute of a relation by name.
    fn attribute_of(&self, relation: RelationId, name: &str) -> Option<&Attribute> {
        let rel = self.relation(relation)?;
        rel.attributes
            .iter()
            .filter_map(|aid| self.attribute(*aid))
            .find(|a| a.name == name)
    }

    /// `relation.attribute` qualified name, used in reports and provenance.
    pub fn qualified_name(&self, attribute: AttributeId) -> String {
        match self.attribute(attribute) {
            Some(attr) => {
                let rel = self
                    .relation(attr.relation)
                    .map(|r| r.name.as_str())
                    .unwrap_or("?");
                format!("{rel}.{}", attr.name)
            }
            None => format!("?{attribute}"),
        }
    }

    /// Look up a `relation.attribute` qualified name.
    pub fn resolve_qualified(&self, qualified: &str) -> Option<AttributeId> {
        let (rel_name, attr_name) = qualified.split_once('.')?;
        let rel = self.relation_by_name(rel_name)?;
        self.attribute_of(rel.id, attr_name).map(|a| a.id)
    }

    /// Distinct normalised values of one attribute.
    pub fn distinct_values(&self, attribute: AttributeId) -> Vec<String> {
        let mut out = std::collections::HashSet::new();
        if let Some(attr) = self.attribute(attribute) {
            if let Some(rel) = self.relation(attr.relation) {
                for t in &rel.tuples {
                    if let Some(v) = t.get(attr.position).and_then(Value::normalized) {
                        out.insert(v);
                    }
                }
            }
        }
        let mut v: Vec<String> = out.into_iter().collect();
        v.sort();
        v
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.cardinality()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> (Catalog, RelationId, RelationId) {
        let mut cat = Catalog::new();
        let go = cat.add_source("go").unwrap();
        let interpro = cat.add_source("interpro").unwrap();
        let term = cat
            .add_relation(go, "go_term", &["acc", "name", "term_type"])
            .unwrap();
        let i2g = cat
            .add_relation(interpro, "interpro2go", &["entry_ac", "go_id"])
            .unwrap();
        cat.insert_rows(
            term,
            vec![
                vec![
                    Value::from("GO:0005134"),
                    Value::from("plasma membrane"),
                    Value::from("component"),
                ],
                vec![
                    Value::from("GO:0007652"),
                    Value::from("kinase activity"),
                    Value::from("function"),
                ],
            ],
        )
        .unwrap();
        cat.insert_rows(
            i2g,
            vec![vec![Value::from("IPR000001"), Value::from("GO:0005134")]],
        )
        .unwrap();
        (cat, term, i2g)
    }

    #[test]
    fn sources_and_relations_register() {
        let (cat, term, i2g) = small_catalog();
        assert_eq!(cat.sources().len(), 2);
        assert_eq!(cat.relations().len(), 2);
        assert_eq!(cat.attributes().len(), 5);
        assert_eq!(cat.relation(term).unwrap().name, "go_term");
        assert_eq!(cat.relation(i2g).unwrap().arity(), 2);
        assert_eq!(cat.total_tuples(), 3);
    }

    #[test]
    fn duplicate_source_rejected() {
        let mut cat = Catalog::new();
        cat.add_source("go").unwrap();
        assert_eq!(
            cat.add_source("go"),
            Err(StorageError::DuplicateSource("go".into()))
        );
    }

    #[test]
    fn duplicate_relation_within_source_rejected() {
        let mut cat = Catalog::new();
        let s = cat.add_source("go").unwrap();
        cat.add_relation(s, "t", &["a"]).unwrap();
        assert!(matches!(
            cat.add_relation(s, "t", &["a"]),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut cat = Catalog::new();
        let s = cat.add_source("go").unwrap();
        assert!(matches!(
            cat.add_relation(s, "t", &["a", "a"]),
            Err(StorageError::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (mut cat, term, _) = small_catalog();
        let err = cat
            .insert(term, Tuple::new(vec![Value::Int(1)]))
            .unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn qualified_names_resolve_round_trip() {
        let (cat, _, _) = small_catalog();
        let aid = cat.resolve_qualified("go_term.name").unwrap();
        assert_eq!(cat.qualified_name(aid), "go_term.name");
        assert!(cat.resolve_qualified("go_term.missing").is_none());
        assert!(cat.resolve_qualified("nope.name").is_none());
    }

    #[test]
    fn distinct_values_are_normalized_and_sorted() {
        let (cat, _, _) = small_catalog();
        let name = cat.resolve_qualified("go_term.name").unwrap();
        assert_eq!(
            cat.distinct_values(name),
            vec!["kinase activity".to_string(), "plasma membrane".to_string()]
        );
    }

    #[test]
    fn foreign_keys_deduplicate_both_orientations() {
        let (mut cat, _, _) = small_catalog();
        let acc = cat.resolve_qualified("go_term.acc").unwrap();
        let go_id = cat.resolve_qualified("interpro2go.go_id").unwrap();
        cat.add_foreign_key(go_id, acc).unwrap();
        cat.add_foreign_key(acc, go_id).unwrap();
        assert_eq!(cat.foreign_keys().len(), 1);
    }
}

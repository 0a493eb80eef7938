//! Declarative source loading.
//!
//! Datasets (synthetic GBCO, InterPro-GO, scaling workloads) are described as
//! [`SourceSpec`]s — plain data structures listing relations, attribute
//! names, rows and foreign keys — and loaded into a [`Catalog`] in one call.
//! This mirrors Q's source-registration service: registering a new source is
//! just loading another spec into the running catalog (Section 3).

use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::schema::SourceId;
use crate::value::Value;

/// Declarative description of one relation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RelationSpec {
    /// Relation name.
    pub name: String,
    /// Attribute names, in positional order.
    pub attributes: Vec<String>,
    /// Rows of values (each row must match the attribute arity).
    pub rows: Vec<Vec<Value>>,
}

impl RelationSpec {
    /// Construct a relation spec.
    pub fn new(name: &str, attributes: &[&str]) -> Self {
        RelationSpec {
            name: name.to_string(),
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row<I, V>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.rows.push(values.into_iter().map(Into::into).collect());
        self
    }

    /// Append many rows at once.
    pub fn rows<I, R, V>(mut self, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        for r in rows {
            self.rows.push(r.into_iter().map(Into::into).collect());
        }
        self
    }
}

/// Declarative description of one source: relations plus foreign keys given
/// as `("relation.attribute", "relation.attribute")` qualified-name pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Source name.
    pub name: String,
    /// Relations owned by the source.
    pub relations: Vec<RelationSpec>,
    /// Foreign keys, as qualified-name pairs. Both endpoints may reference
    /// relations of previously loaded sources, which is how cross-database
    /// links (e.g. `interpro2go.go_id -> go_term.acc`) are declared.
    pub foreign_keys: Vec<(String, String)>,
}

impl SourceSpec {
    /// Construct an empty source spec.
    pub fn new(name: &str) -> Self {
        SourceSpec {
            name: name.to_string(),
            relations: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Add a relation.
    pub fn relation(mut self, relation: RelationSpec) -> Self {
        self.relations.push(relation);
        self
    }

    /// Add a foreign key between qualified attribute names.
    pub fn foreign_key(mut self, from: &str, to: &str) -> Self {
        self.foreign_keys.push((from.to_string(), to.to_string()));
        self
    }

    /// Register this source against a *shared* catalog without mutating it:
    /// the catalog is cloned, the source loaded into the clone, and the
    /// extended catalog returned alongside the new source id.
    ///
    /// This is the copy-on-write registration step of live ingestion: readers
    /// keep serving from the original catalog (inside their immutable
    /// snapshot) while the writer prepares the next one. Because loading is
    /// all-or-nothing here, a spec that fails mid-way (say, an unresolvable
    /// foreign key) leaves no half-registered source behind — the clone is
    /// simply dropped.
    pub fn load_incremental(&self, catalog: &Catalog) -> Result<(Catalog, SourceId), StorageError> {
        let mut next = catalog.clone();
        let source = self.load_into(&mut next)?;
        Ok((next, source))
    }

    /// Load this source into the catalog, returning the new source id. A
    /// spec with an empty or dotted name, or a relation with no attributes,
    /// is rejected before the catalog changes.
    pub fn load_into(&self, catalog: &mut Catalog) -> Result<SourceId, StorageError> {
        self.check_names()?;
        let source = catalog.add_source(&self.name)?;
        for rel_spec in &self.relations {
            let attr_refs: Vec<&str> = rel_spec.attributes.iter().map(String::as_str).collect();
            let rel = catalog.add_relation(source, &rel_spec.name, &attr_refs)?;
            for row in &rel_spec.rows {
                catalog.insert(rel, row.clone().into())?;
            }
        }
        for (from, to) in &self.foreign_keys {
            let from_id = catalog
                .resolve_qualified(from)
                .ok_or_else(|| StorageError::UnknownAttribute(from.clone()))?;
            let to_id = catalog
                .resolve_qualified(to)
                .ok_or_else(|| StorageError::UnknownAttribute(to.clone()))?;
            catalog.add_foreign_key(from_id, to_id)?;
        }
        Ok(source)
    }

    /// Every name must be usable in a qualified `relation.attribute` name,
    /// and every relation must have an attribute to carry its values.
    fn check_names(&self) -> Result<(), StorageError> {
        let check = |kind, name: &str| {
            if name.is_empty() || name.contains('.') {
                Err(StorageError::InvalidName {
                    kind,
                    name: name.to_string(),
                })
            } else {
                Ok(())
            }
        };
        check("source", &self.name)?;
        for relation in &self.relations {
            check("relation", &relation.name)?;
            if relation.attributes.is_empty() {
                return Err(StorageError::NoAttributes(relation.name.clone()));
            }
            for attribute in &relation.attributes {
                check("attribute", attribute)?;
            }
        }
        Ok(())
    }
}

/// Load several source specs into a fresh catalog.
pub fn load_catalog(specs: &[SourceSpec]) -> Result<Catalog, StorageError> {
    let mut catalog = Catalog::new();
    for spec in specs {
        spec.load_into(&mut catalog)?;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn go_spec() -> SourceSpec {
        SourceSpec::new("go").relation(
            RelationSpec::new("go_term", &["acc", "name"])
                .row(["GO:1", "plasma membrane"])
                .row(["GO:2", "kinase activity"]),
        )
    }

    fn interpro_spec() -> SourceSpec {
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("interpro2go", &["go_id", "entry_ac"]).row(["GO:1", "IPR01"]),
            )
            .foreign_key("interpro2go.go_id", "go_term.acc")
    }

    #[test]
    fn load_single_source() {
        let mut cat = Catalog::new();
        let id = go_spec().load_into(&mut cat).unwrap();
        assert_eq!(cat.source(id).unwrap().name, "go");
        assert_eq!(cat.relation_by_name("go_term").unwrap().cardinality(), 2);
    }

    #[test]
    fn cross_source_foreign_keys_resolve() {
        let cat = load_catalog(&[go_spec(), interpro_spec()]).unwrap();
        assert_eq!(cat.foreign_keys().len(), 1);
        let fk = cat.foreign_keys()[0];
        assert_eq!(cat.qualified_name(fk.from), "interpro2go.go_id");
        assert_eq!(cat.qualified_name(fk.to), "go_term.acc");
    }

    #[test]
    fn unknown_foreign_key_endpoint_errors() {
        let bad = SourceSpec::new("bad")
            .relation(RelationSpec::new("t", &["a"]))
            .foreign_key("t.a", "missing.b");
        let mut cat = Catalog::new();
        assert!(matches!(
            bad.load_into(&mut cat),
            Err(StorageError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn unusable_names_are_rejected_before_the_catalog_changes() {
        let invalid = |kind, name: &str| {
            Err(StorageError::InvalidName {
                kind,
                name: name.to_string(),
            })
        };
        let cases = [
            (SourceSpec::new(""), invalid("source", "")),
            (SourceSpec::new("a.b"), invalid("source", "a.b")),
            (
                SourceSpec::new("s").relation(RelationSpec::new("", &["a"])),
                invalid("relation", ""),
            ),
            (
                SourceSpec::new("s").relation(RelationSpec::new("r.x", &["a"])),
                invalid("relation", "r.x"),
            ),
            (
                SourceSpec::new("s").relation(RelationSpec::new("r", &["a", ""])),
                invalid("attribute", ""),
            ),
            (
                SourceSpec::new("s").relation(RelationSpec::new("r", &["a.b"])),
                invalid("attribute", "a.b"),
            ),
            (
                SourceSpec::new("s")
                    .relation(RelationSpec::new("r", &["a"]))
                    .relation(RelationSpec::new("empty", &[])),
                Err(StorageError::NoAttributes("empty".into())),
            ),
        ];
        let mut cat = Catalog::new();
        go_spec().load_into(&mut cat).unwrap();
        let before = cat.clone();
        for (spec, expected) in cases {
            assert_eq!(spec.load_into(&mut cat), expected, "{spec:?}");
            assert_eq!(cat.sources(), before.sources(), "{spec:?}");
            assert_eq!(cat.relations(), before.relations(), "{spec:?}");
            assert_eq!(cat.attributes(), before.attributes(), "{spec:?}");
        }
    }

    #[test]
    fn load_incremental_leaves_the_shared_catalog_untouched() {
        let mut base = Catalog::new();
        go_spec().load_into(&mut base).unwrap();
        let before_sources = base.sources().len();
        let (next, id) = interpro_spec().load_incremental(&base).unwrap();
        // The original catalog is unchanged; the returned one has the source.
        assert_eq!(base.sources().len(), before_sources);
        assert!(base.source_by_name("interpro").is_none());
        assert_eq!(next.source(id).unwrap().name, "interpro");
        assert_eq!(next.foreign_keys().len(), 1);
        // And the extension equals a plain sequential load.
        let sequential = load_catalog(&[go_spec(), interpro_spec()]).unwrap();
        assert_eq!(next.sources().len(), sequential.sources().len());
        assert_eq!(next.relations().len(), sequential.relations().len());
    }

    #[test]
    fn failed_incremental_load_registers_nothing() {
        let mut base = Catalog::new();
        go_spec().load_into(&mut base).unwrap();
        let bad = SourceSpec::new("bad")
            .relation(RelationSpec::new("t", &["a"]))
            .foreign_key("t.a", "missing.b");
        assert!(bad.load_incremental(&base).is_err());
        // All-or-nothing: the shared catalog gained nothing.
        assert!(base.source_by_name("bad").is_none());
        assert_eq!(base.sources().len(), 1);
    }

    #[test]
    fn rows_builder_accepts_mixed_literals() {
        let spec = RelationSpec::new("t", &["a", "b"]).rows(vec![vec!["x", "1"], vec!["y", "2"]]);
        assert_eq!(spec.rows.len(), 2);
        assert_eq!(spec.rows[0][0], Value::Text("x".into()));
    }
}

//! Gold-standard alignment edges used for precision/recall evaluation.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use q_storage::{AttributeId, Catalog};

/// A set of reference alignments given as qualified attribute-name pairs
/// (order-insensitive).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GoldStandard {
    pairs: Vec<(String, String)>,
}

impl GoldStandard {
    /// Build from qualified-name pairs.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        GoldStandard {
            pairs: pairs
                .iter()
                .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
                .collect(),
        }
    }

    /// Number of gold edges.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no gold edges.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Resolve the pairs against a catalog, returning attribute-id pairs in
    /// canonical (smaller id first) order. Panics if a name does not resolve,
    /// since the gold standard and catalog are generated together.
    pub fn resolve(&self, catalog: &Catalog) -> Vec<(AttributeId, AttributeId)> {
        self.pairs
            .iter()
            .map(|(a, b)| {
                let ia = catalog
                    .resolve_qualified(a)
                    .unwrap_or_else(|| panic!("gold attribute `{a}` not in catalog"));
                let ib = catalog
                    .resolve_qualified(b)
                    .unwrap_or_else(|| panic!("gold attribute `{b}` not in catalog"));
                if ia <= ib {
                    (ia, ib)
                } else {
                    (ib, ia)
                }
            })
            .collect()
    }

    /// Resolved pairs as a set for membership tests.
    pub fn resolved_set(&self, catalog: &Catalog) -> HashSet<(AttributeId, AttributeId)> {
        self.resolve(catalog).into_iter().collect()
    }

    /// True if `(a, b)` (in either order) is a gold edge.
    pub fn contains(&self, catalog: &Catalog, a: AttributeId, b: AttributeId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.resolved_set(catalog).contains(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        SourceSpec::new("s")
            .relation(RelationSpec::new("a", &["x", "y"]))
            .relation(RelationSpec::new("b", &["z"]))
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn resolves_pairs_in_canonical_order() {
        let cat = catalog();
        let gold = GoldStandard::new(&[("b.z", "a.x")]);
        let resolved = gold.resolve(&cat);
        assert_eq!(resolved.len(), 1);
        assert!(resolved[0].0 <= resolved[0].1);
    }

    #[test]
    fn contains_is_order_insensitive() {
        let cat = catalog();
        let gold = GoldStandard::new(&[("a.x", "b.z")]);
        let x = cat.resolve_qualified("a.x").unwrap();
        let z = cat.resolve_qualified("b.z").unwrap();
        let y = cat.resolve_qualified("a.y").unwrap();
        assert!(gold.contains(&cat, x, z));
        assert!(gold.contains(&cat, z, x));
        assert!(!gold.contains(&cat, x, y));
    }

    #[test]
    #[should_panic]
    fn unknown_gold_attribute_panics() {
        let cat = catalog();
        GoldStandard::new(&[("a.x", "missing.attr")]).resolve(&cat);
    }
}

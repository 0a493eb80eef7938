//! Value index.
//!
//! Q pre-indexes the distinct data values of every registered attribute so
//! that the *value-overlap filter* of the alignment experiments can skip
//! attribute pairs that share no values (Figure 7).

use std::collections::{HashMap, HashSet};

use crate::catalog::Catalog;
use crate::schema::AttributeId;

/// Per-attribute sets of distinct normalised values.
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// attribute -> set of distinct normalised values
    by_attribute: HashMap<AttributeId, HashSet<String>>,
}

impl ValueIndex {
    /// Build an index over every relation currently in the catalog.
    pub fn build(catalog: &Catalog) -> Self {
        let mut idx = ValueIndex::default();
        for rel in catalog.relations() {
            for tuple in &rel.tuples {
                for (attr, value) in rel.attributes.iter().zip(tuple.values()) {
                    if let Some(norm) = value.normalized() {
                        idx.by_attribute.entry(*attr).or_default().insert(norm);
                    }
                }
            }
        }
        idx
    }

    /// Number of distinct values shared by two attributes.
    pub fn overlap(&self, a: AttributeId, b: AttributeId) -> usize {
        match (self.by_attribute.get(&a), self.by_attribute.get(&b)) {
            (Some(sa), Some(sb)) => {
                let (small, large) = if sa.len() <= sb.len() {
                    (sa, sb)
                } else {
                    (sb, sa)
                };
                small.iter().filter(|v| large.contains(*v)).count()
            }
            _ => 0,
        }
    }

    /// Jaccard similarity of the two attributes' value sets.
    pub fn jaccard(&self, a: AttributeId, b: AttributeId) -> f64 {
        let inter = self.overlap(a, b);
        if inter == 0 {
            return 0.0;
        }
        let na = self.by_attribute.get(&a).map(|s| s.len()).unwrap_or(0);
        let nb = self.by_attribute.get(&b).map(|s| s.len()).unwrap_or(0);
        let union = na + nb - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// True if the two attributes share at least one value (the value-overlap
    /// filter of Figure 7).
    pub fn overlaps(&self, a: AttributeId, b: AttributeId) -> bool {
        self.overlap(a, b) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn catalog_with_overlap() -> (Catalog, AttributeId, AttributeId, AttributeId) {
        let mut cat = Catalog::new();
        let s = cat.add_source("db").unwrap();
        let a = cat.add_relation(s, "a", &["x"]).unwrap();
        let b = cat.add_relation(s, "b", &["y"]).unwrap();
        let c = cat.add_relation(s, "c", &["z"]).unwrap();
        cat.insert_rows(
            a,
            vec![
                vec![Value::from("GO:1")],
                vec![Value::from("GO:2")],
                vec![Value::from("GO:3")],
            ],
        )
        .unwrap();
        cat.insert_rows(
            b,
            vec![vec![Value::from("go:2")], vec![Value::from("GO:3")]],
        )
        .unwrap();
        cat.insert_rows(c, vec![vec![Value::from("other")]])
            .unwrap();
        let ax = cat.resolve_qualified("a.x").unwrap();
        let by = cat.resolve_qualified("b.y").unwrap();
        let cz = cat.resolve_qualified("c.z").unwrap();
        (cat, ax, by, cz)
    }

    #[test]
    fn overlap_counts_case_insensitive_values() {
        let (cat, ax, by, cz) = catalog_with_overlap();
        let idx = ValueIndex::build(&cat);
        assert_eq!(idx.overlap(ax, by), 2);
        assert_eq!(idx.overlap(ax, cz), 0);
        assert!(idx.overlaps(ax, by));
        assert!(!idx.overlaps(by, cz));
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let (cat, ax, by, cz) = catalog_with_overlap();
        let idx = ValueIndex::build(&cat);
        let j = idx.jaccard(ax, by);
        assert!(j > 0.0 && j <= 1.0);
        assert!((idx.jaccard(by, ax) - j).abs() < 1e-12);
        assert_eq!(idx.jaccard(ax, cz), 0.0);
        assert!((idx.jaccard(ax, ax) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let mut cat = Catalog::new();
        let s = cat.add_source("db").unwrap();
        let r = cat.add_relation(s, "r", &["a"]).unwrap();
        cat.insert_rows(r, vec![vec![Value::Null]]).unwrap();
        let a = cat.resolve_qualified("r.a").unwrap();
        let idx = ValueIndex::build(&cat);
        // A column of nulls shares no value even with itself.
        assert_eq!(idx.overlap(a, a), 0);
    }
}

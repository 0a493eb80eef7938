//! Append convergence of the keyword index.
//!
//! `KeywordIndex::add_relation` must leave exactly the columns a batch
//! `KeywordIndex::build` over the same catalog produces, whatever the index
//! it starts from. The properties grow an index one relation at a time from
//! three starting points — an empty index, a batch build over a prefix of
//! the relations, and a `from_parts` round trip of that build (what a
//! snapshot boot yields) — and compare `view()` with the batch build's
//! after every append, `idf` and `doc_norm_sq` bit for bit. A last pass adds
//! the relations of the full catalog in a shuffled order, compares the
//! result with the batch build, and adds every relation a second time,
//! which must change nothing.
//!
//! The corpora are the ones `tests/keyword_oracle.rs` checks matching on —
//! small catalogs of hostile text, and a small GBCO federation grown with
//! the scaling tier's zipf vocabulary — plus hostile text over a narrow
//! alphabet, where an append often brings no new token or exactly one.
//! `KEYWORD_ORACLE_SCALE` multiplies every property's case count (default
//! 1).

use proptest::prelude::*;

use q_datasets::{expand_with_synthetic_sources, gbco_catalog, GbcoConfig, ScalingConfig};
use q_graph::keyword::{KeywordIndexParts, KeywordIndexView};
use q_graph::{KeywordIndex, SearchGraph};
use q_storage::{Catalog, RelationId, Value};

/// Hostile text: empty, whitespace-only, punctuation-split tokens,
/// duplicate tokens and non-ASCII case folding (`É` → `é`, `İ` → `i̇`).
const HOSTILE: &str = "[a-zA-Z0-9 _éÉİ-]{0,14}";

/// Hostile text over a narrow alphabet: appends often bring no new token,
/// or exactly one, and documents share keys and texts.
const NARROW: &str = "[abAB _é-]{0,6}";

type RandomRelation = (String, Vec<String>, Vec<String>);

/// One relation per source; relations with duplicate attribute names are
/// skipped. Cells fill rows of the relation's arity, a trailing partial
/// row dropped.
fn hostile_catalog(relations: &[RandomRelation]) -> Catalog {
    let mut catalog = Catalog::new();
    for (i, (name, attributes, cells)) in relations.iter().enumerate() {
        let source = catalog.add_source(&format!("s{i}")).unwrap();
        let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
        let Ok(rel) = catalog.add_relation(source, name, &attrs) else {
            continue;
        };
        let rows: Vec<Vec<Value>> = cells
            .chunks_exact(attrs.len())
            .map(|row| row.iter().map(|c| Value::from(c.as_str())).collect())
            .collect();
        catalog.insert_rows(rel, rows).unwrap();
    }
    catalog
}

/// The GBCO federation at 4 rows per table, plus `extra` zipf sources at 3.
fn gbco_with_zipf_sources(seed: u64, extra: usize) -> Catalog {
    let mut catalog = gbco_catalog(&GbcoConfig {
        rows_per_table: 4,
        seed,
    });
    let mut graph = SearchGraph::from_catalog(&catalog);
    expand_with_synthetic_sources(
        &mut catalog,
        &mut graph,
        extra,
        &ScalingConfig {
            rows_per_table: 3,
            seed,
            ..ScalingConfig::default()
        },
    );
    catalog
}

/// Copy one relation of `from` (schema and rows) into `into` under a fresh
/// source, returning its id there. Copying `from`'s relations in id order
/// reproduces their relation and attribute ids.
fn copy_relation(from: &Catalog, relation: RelationId, into: &mut Catalog) -> RelationId {
    let rel = from.relation(relation).unwrap();
    let source = into
        .add_source(&format!("copy{}", into.sources().len()))
        .unwrap();
    let names: Vec<&str> = rel
        .attributes
        .iter()
        .map(|&a| from.attribute(a).unwrap().name.as_str())
        .collect();
    let id = into.add_relation(source, &rel.name, &names).unwrap();
    into.insert_rows(id, rel.tuples.iter().cloned()).unwrap();
    id
}

/// The owned columns of a view: what a snapshot stores and boots from.
fn parts(view: KeywordIndexView<'_>) -> KeywordIndexParts {
    KeywordIndexParts {
        target_kinds: view.target_kinds.to_vec(),
        target_ids: view.target_ids.to_vec(),
        text_blob: view.text_blob.to_string(),
        text_ends: view.text_ends.to_vec(),
        token_ids: view.token_ids.to_vec(),
        token_ends: view.token_ends.to_vec(),
        trigram_counts: view.trigram_counts.to_vec(),
        token_names: view.token_names.to_vec(),
        token_postings: view.token_postings.to_vec(),
        token_posting_ends: view.token_posting_ends.to_vec(),
        trigram_keys: view.trigram_keys.to_vec(),
        trigram_postings: view.trigram_postings.to_vec(),
        trigram_posting_ends: view.trigram_posting_ends.to_vec(),
        idf: view.idf.to_vec(),
        doc_norm_sq: view.doc_norm_sq.to_vec(),
    }
}

/// `view()` equality, with the float columns compared bit for bit (`==`
/// on `f64` would accept `0.0` for `-0.0`).
fn assert_same_columns(grown: &KeywordIndex, batch: &KeywordIndex, context: &str) {
    let (g, b) = (grown.view(), batch.view());
    assert_eq!(g, b, "{context}");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(g.idf), bits(b.idf), "{context}: idf bits");
    assert_eq!(
        bits(g.doc_norm_sq),
        bits(b.doc_norm_sq),
        "{context}: doc_norm_sq bits"
    );
}

/// Grow indexes relation by relation over a catalog replayed from `full`,
/// starting from an empty index, from a batch build of the first `prefix`
/// relations and from a `from_parts` round trip of that build; after every
/// append each must equal the batch build of the catalog so far. Then add
/// `full`'s relations in the order `shuffle` gives, compare the result with
/// the batch build of `full`, and add them all again.
fn assert_appends_converge(full: &Catalog, prefix: usize, shuffle: &[usize]) {
    let ids: Vec<RelationId> = full.relations().iter().map(|r| r.id).collect();
    let prefix = prefix % (ids.len() + 1);
    let mut catalog = Catalog::new();
    for &id in &ids[..prefix] {
        copy_relation(full, id, &mut catalog);
    }
    let mut from_empty = KeywordIndex::default();
    for &id in &ids[..prefix] {
        from_empty.add_relation(&catalog, id);
    }
    let mut from_build = KeywordIndex::build(&catalog);
    let mut from_load = KeywordIndex::from_parts(parts(from_build.view()));
    assert_same_columns(&from_empty, &from_build, "prefix grown from empty");
    for &id in &ids[prefix..] {
        let rel = copy_relation(full, id, &mut catalog);
        let batch = KeywordIndex::build(&catalog);
        for (start, index) in [
            ("empty", &mut from_empty),
            ("build", &mut from_build),
            ("load", &mut from_load),
        ] {
            index.add_relation(&catalog, rel);
            assert_same_columns(index, &batch, &format!("from {start}, after {rel:?}"));
        }
    }

    let mut order = ids.clone();
    for (i, &s) in shuffle.iter().enumerate() {
        let len = order.len();
        if len > 1 {
            order.swap(i % len, s % len);
        }
    }
    let mut shuffled = KeywordIndex::default();
    for &id in &order {
        shuffled.add_relation(full, id);
    }
    let batch = KeywordIndex::build(full);
    assert_same_columns(&shuffled, &batch, &format!("order {order:?}"));
    // Adding an indexed relation again is a no-op.
    for &id in &order {
        shuffled.add_relation(full, id);
    }
    assert_same_columns(&shuffled, &batch, "relations added twice");
}

/// Proptest config of a property whose default case count is `default`:
/// `KEYWORD_ORACLE_SCALE` (default 1) multiplies it, for a longer CI leg.
fn cases(default: u32) -> ProptestConfig {
    let scale: u32 = match std::env::var("KEYWORD_ORACLE_SCALE") {
        Ok(v) => v.parse().expect("KEYWORD_ORACLE_SCALE is a number"),
        Err(_) => 1,
    };
    ProptestConfig::with_cases(default * scale)
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random small corpora of hostile text.
    #[test]
    fn appends_converge_to_the_batch_index_on_hostile_corpora(
        relations in proptest::collection::vec(
            (
                HOSTILE,
                proptest::collection::vec(HOSTILE, 1..4),
                proptest::collection::vec(HOSTILE, 0..24),
            ),
            1..6,
        ),
        prefix in 0usize..6,
        shuffle in proptest::collection::vec(0usize..64, 6),
    ) {
        assert_appends_converge(&hostile_catalog(&relations), prefix, &shuffle);
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random small corpora of narrow-alphabet text.
    #[test]
    fn appends_converge_to_the_batch_index_on_narrow_corpora(
        relations in proptest::collection::vec(
            (
                NARROW,
                proptest::collection::vec(NARROW, 1..4),
                proptest::collection::vec(NARROW, 0..12),
            ),
            1..8,
        ),
        prefix in 0usize..8,
        shuffle in proptest::collection::vec(0usize..64, 8),
    ) {
        assert_appends_converge(&hostile_catalog(&relations), prefix, &shuffle);
    }
}

proptest! {
    #![proptest_config(cases(3))]

    /// A small GBCO federation grown with the scaling tier's zipf
    /// vocabulary.
    #[test]
    fn appends_converge_to_the_batch_index_on_gbco_with_zipf_sources(
        seed in 0u64..1000,
        extra in 0usize..3,
        prefix in 0usize..64,
        shuffle in proptest::collection::vec(0usize..64, 12),
    ) {
        assert_appends_converge(&gbco_with_zipf_sources(seed, extra), prefix, &shuffle);
    }
}

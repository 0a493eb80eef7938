//! Pins the metadata matcher's profile scorer to the pairwise scorer it
//! replaced.
//!
//! `MetadataMatcher::match_relations` profiles each name once (normalised
//! string, chars, sorted distinct tokens, sorted packed trigrams) and scores
//! a pair from two profiles. The reference below is a verbatim copy of the
//! scorer before that change: `name_similarity`, `pair_confidence` and the
//! `match_relations` loop, over the four pairwise sub-matchers that build
//! two `HashSet<String>`s per scored pair. Every confidence must be equal
//! bit for bit (`f64::to_bits`), and every alignment list equal in order.
//!
//! Each ordered relation pair is matched under two configurations:
//! - the default one (relation-name similarity, threshold and top-Y);
//! - no structural weight, a zero threshold and no top-Y cut, where every
//!   attribute pair is reported and its confidence is exactly its name
//!   similarity.
//!
//! The inputs are generated names (empty, separators only, 1–2-character and
//! repeated tokens, non-ASCII letters such as `δοκιμή`, `İD` and `ß`, names
//! that normalise to the same string) and the 198-source tier (GBCO plus 180
//! synthetic sources), where relations are matched against every other.
//! On the tier, every `METADATA_ORACLE_STRIDE`-th relation (default 16) is
//! the new one; at stride 1 every (new, existing) name pair is scored.

use std::collections::HashSet;

use q_datasets::scaling::{expand_with_synthetic_sources, ScalingConfig};
use q_datasets::{gbco_catalog, GbcoConfig};
use q_graph::SearchGraph;
use q_matchers::{
    keep_top_y_per_attribute, AttributeAlignment, MetadataMatcher, MetadataMatcherConfig,
    SchemaMatcher,
};
use q_storage::{Catalog, RelationId};

// ---------------------------------------------------------------------------
// Reference: the pairwise scorer, verbatim.
// ---------------------------------------------------------------------------

fn normalize(name: &str) -> String {
    name.trim().to_lowercase()
}

fn tokenize(name: &str) -> Vec<String> {
    normalize(name)
        .split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: HashSet<String> = tokenize(a).into_iter().collect();
    let tb: HashSet<String> = tokenize(b).into_iter().collect();
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

fn trigrams(name: &str) -> HashSet<String> {
    let padded = format!("  {}  ", normalize(name));
    let chars: Vec<char> = padded.chars().collect();
    let mut grams = HashSet::new();
    for w in chars.windows(3) {
        grams.insert(w.iter().collect());
    }
    grams
}

fn trigram_dice(a: &str, b: &str) -> f64 {
    let ga = trigrams(a);
    let gb = trigrams(b);
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let common = ga.intersection(&gb).count() as f64;
    2.0 * common / (ga.len() + gb.len()) as f64
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

fn edit_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    let max_len = na.chars().count().max(nb.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    1.0 - edit_distance(&na, &nb) as f64 / max_len as f64
}

fn containment(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na == nb {
        return 1.0;
    }
    if na.contains(&nb) || nb.contains(&na) {
        let shorter = na.len().min(nb.len()) as f64;
        let longer = na.len().max(nb.len()) as f64;
        shorter / longer
    } else {
        0.0
    }
}

fn name_similarity(c: &MetadataMatcherConfig, a: &str, b: &str) -> f64 {
    let base_weight = c.token_weight + c.trigram_weight + c.edit_weight + c.containment_weight;
    if base_weight <= 0.0 {
        return 0.0;
    }
    let score = c.token_weight * token_jaccard(a, b)
        + c.trigram_weight * trigram_dice(a, b)
        + c.edit_weight * edit_similarity(a, b)
        + c.containment_weight * containment(a, b);
    (score / base_weight).clamp(0.0, 1.0)
}

fn pair_confidence(
    c: &MetadataMatcherConfig,
    attr_a: &str,
    attr_b: &str,
    relation_similarity: f64,
) -> f64 {
    let name_sim = name_similarity(c, attr_a, attr_b);
    let total_weight = 1.0 + c.structural_weight;
    ((name_sim + c.structural_weight * relation_similarity * name_sim.max(0.3)) / total_weight)
        .clamp(0.0, 1.0)
}

fn reference_match_relations(
    c: &MetadataMatcherConfig,
    catalog: &Catalog,
    new_relation: RelationId,
    existing_relation: RelationId,
    top_y: usize,
) -> Vec<AttributeAlignment> {
    let (Some(new_rel), Some(existing_rel)) = (
        catalog.relation(new_relation),
        catalog.relation(existing_relation),
    ) else {
        return Vec::new();
    };
    let relation_similarity = name_similarity(c, &new_rel.name, &existing_rel.name);
    let mut alignments = Vec::new();
    for new_attr_id in &new_rel.attributes {
        let new_attr = catalog.attribute(*new_attr_id).expect("attribute exists");
        for existing_attr_id in &existing_rel.attributes {
            let existing_attr = catalog
                .attribute(*existing_attr_id)
                .expect("attribute exists");
            let confidence =
                pair_confidence(c, &new_attr.name, &existing_attr.name, relation_similarity);
            if confidence >= c.threshold {
                alignments.push(AttributeAlignment::new(
                    *new_attr_id,
                    *existing_attr_id,
                    confidence,
                ));
            }
        }
    }
    keep_top_y_per_attribute(alignments, top_y)
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

/// Match every ordered pair of distinct relations whose new relation is
/// every `stride`-th with the product and the reference, under both
/// configurations; returns the attribute pairs scored under the unfiltered
/// one.
fn assert_bit_equal(catalog: &Catalog, stride: usize, corpus: &str) -> usize {
    let unfiltered = MetadataMatcherConfig {
        structural_weight: 0.0,
        threshold: 0.0,
        ..MetadataMatcherConfig::default()
    };
    let configs = [
        (MetadataMatcherConfig::default(), 3),
        (unfiltered, usize::MAX),
    ];
    let mut scored = 0;
    for (config, top_y) in configs {
        let matcher = MetadataMatcher::with_config(config);
        for new_rel in catalog.relations().iter().step_by(stride) {
            for existing_rel in catalog.relations() {
                if new_rel.id == existing_rel.id {
                    continue;
                }
                let got = matcher.match_relations(catalog, new_rel.id, existing_rel.id, top_y);
                let want =
                    reference_match_relations(&config, catalog, new_rel.id, existing_rel.id, top_y);
                let key = |a: &AttributeAlignment| {
                    (
                        a.new_attribute,
                        a.existing_attribute,
                        a.confidence.to_bits(),
                    )
                };
                let (got, want): (Vec<_>, Vec<_>) = (
                    got.iter().map(key).collect(),
                    want.iter().map(key).collect(),
                );
                assert_eq!(
                    got, want,
                    "{corpus}: {:?} against {:?} under {config:?}",
                    new_rel.name, existing_rel.name
                );
                if top_y == usize::MAX {
                    assert_eq!(got.len(), new_rel.arity() * existing_rel.arity());
                    scored += got.len();
                }
            }
        }
    }
    scored
}

/// Hand-picked corner names: empty, separators only, 1–2-character and
/// repeated tokens, non-ASCII letters, and spellings that normalise alike.
const CORNER_NAMES: &[&str] = &[
    "",
    " ",
    "_",
    "__",
    "-",
    " _- ",
    "a",
    "A",
    "ab",
    "a_b",
    "b_a",
    "id",
    "ID",
    " Id ",
    "id_id",
    "id id id",
    "go_id",
    "GO_ID",
    "go-id",
    "goid",
    "go",
    "acc",
    "accession",
    "entry_ac",
    "ac_entry",
    "δοκιμή",
    "ΔΟΚΙΜΉ",
    "δοκιμή_id",
    "İD",
    "İd",
    "ß",
    "SS",
    "ss",
    "straße",
    "STRASSE",
    "x1",
    "1x",
    "a1b2",
    "pub",
    "publication",
    "interpro_pub",
    "名前",
    "name",
    "Name",
    "nàme",
    "ﬁle",
    "σς",
    "Σ",
    "1",
    "12",
    "123",
    "a a",
    "aa",
    "aaa",
    "aaaa",
];

/// Corner names plus names composed from short, repeated and non-ASCII
/// tokens with mixed separators and case (a fixed xorshift stream).
fn generated_names() -> Vec<String> {
    const TOKENS: &[&str] = &[
        "a", "b", "ab", "id", "go", "ac", "δ", "ß", "İ", "x", "12", "entry", "term", "ΣΣ",
    ];
    const SEPARATORS: &[&str] = &["_", "-", " ", "", "__", "."];
    let mut names: Vec<String> = CORNER_NAMES.iter().map(|s| s.to_string()).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for _ in 0..100 {
        let mut name = String::new();
        if next(5) == 0 {
            name.push(' ');
        }
        for t in 0..1 + next(3) {
            if t > 0 {
                name.push_str(SEPARATORS[next(SEPARATORS.len())]);
            }
            let token = TOKENS[next(TOKENS.len())];
            match next(3) {
                0 => name.push_str(&token.to_uppercase()),
                _ => name.push_str(token),
            }
        }
        names.push(name);
    }
    names
}

#[test]
fn profile_scorer_equals_the_pairwise_reference_on_generated_names() {
    let names = generated_names();
    let mut catalog = Catalog::new();
    // One source per relation; each relation takes the next name as its
    // own and up to four following names (distinct within it) as
    // attributes, so every name is both a relation and an attribute name.
    for (i, window) in names.windows(5).enumerate().step_by(2) {
        let source = catalog.add_source(&format!("s{i}")).unwrap();
        let mut attributes: Vec<&str> = Vec::new();
        for name in &window[1..] {
            if !attributes.contains(&name.as_str()) {
                attributes.push(name);
            }
        }
        catalog
            .add_relation(source, &window[0], &attributes)
            .unwrap();
    }
    let scored = assert_bit_equal(&catalog, 1, "generated names");
    println!("generated names: {scored} attribute pairs scored");
    assert!(scored > 10_000, "only {scored} attribute pairs scored");
}

#[test]
fn profile_scorer_equals_the_pairwise_reference_on_the_198_source_tier() {
    let mut catalog = gbco_catalog(&GbcoConfig {
        rows_per_table: 2,
        ..GbcoConfig::default()
    });
    let mut graph = SearchGraph::from_catalog(&catalog);
    let scaling = ScalingConfig {
        rows_per_table: 2,
        ..ScalingConfig::default()
    };
    expand_with_synthetic_sources(&mut catalog, &mut graph, 180, &scaling);
    assert_eq!(catalog.sources().len(), 198);
    let stride = match std::env::var("METADATA_ORACLE_STRIDE") {
        Ok(v) => v.parse().expect("METADATA_ORACLE_STRIDE is a number"),
        Err(_) => 16,
    };
    let scored = assert_bit_equal(&catalog, stride, "198-source tier");
    println!("198-source tier, stride {stride}: {scored} attribute pairs scored");
    assert!(scored > 10_000, "only {scored} attribute pairs scored");
}

//! An independent scan oracle for keyword matching.
//!
//! The oracle is a brute-force matcher over the documents of
//! `KeywordIndex::view()`. It reads only each document's target and text —
//! never a posting list, the token dictionary, the trigram columns, `idf`
//! or `doc_norm_sq` — and rebuilds everything else its own way: its own
//! tokenizer, its own `HashSet<String>` trigram sets, its own document
//! frequencies. It then scans *every* document with the documented rule:
//!
//! * **Candidates.** A document is scored only if it shares at least one
//!   token or one padded character trigram with the keyword.
//! * **Score.** `1.0` when the normalised texts are equal. Otherwise
//!   `min(0.999, max(cos, dice, containment))`, where
//!   - `cos` is the idf-weighted token cosine, its dot product accumulated
//!     in query-token occurrence order (duplicates counted);
//!   - `dice` is `2·|T(q) ∩ T(d)| / (|T(q)| + |T(d)|)` over trigram sets;
//!   - `containment` is `0.9·short/long` over byte lengths when either
//!     text contains the other, else `0`.
//! * **Ranking.** Keep similarity ≥ `min_similarity`, order by (similarity
//!   desc, document asc), cut at `max_matches`.
//!
//! The properties assert that `matches` prints (`{:?}`) exactly what the
//! oracle prints — same targets, same order, bit-equal similarities — and
//! that `keyword_matches_in` agrees with the oracle over random relation
//! subsets, on hostile random corpora and on a small GBCO federation grown
//! with the scaling tier's zipf vocabulary. `KEYWORD_ORACLE_SCALE`
//! multiplies every property's case count (default 1).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use q_datasets::{
    expand_with_synthetic_sources, gbco_catalog, gbco_trials, GbcoConfig, ScalingConfig,
};
use q_graph::keyword::MatchConfig;
use q_graph::{KeywordIndex, KeywordMatch, MatchTarget, SearchGraph};
use q_storage::{AttributeId, Catalog, RelationId, Value};

/// Hostile text: empty, whitespace-only, punctuation-split tokens,
/// duplicate tokens and non-ASCII case folding (`É` → `é`, `İ` → `i̇`).
const HOSTILE: &str = "[a-zA-Z0-9 _éÉİ-]{0,14}";

fn normalize(text: &str) -> String {
    text.trim().to_lowercase()
}

fn tokens(text: &str) -> Vec<String> {
    normalize(text)
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

fn trigrams(text: &str) -> HashSet<String> {
    let padded: Vec<char> = format!("  {}  ", normalize(text)).chars().collect();
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

struct Doc {
    target: MatchTarget,
    relation: Option<RelationId>,
    text: String,
    tokens: Vec<String>,
    trigrams: HashSet<String>,
    norm_sq: f64,
}

struct Query {
    norm: String,
    tokens: Vec<String>,
    trigrams: HashSet<String>,
    norm_sq: f64,
}

struct Oracle {
    docs: Vec<Doc>,
    idf: HashMap<String, f64>,
}

impl Oracle {
    fn new(index: &KeywordIndex, catalog: &Catalog) -> Self {
        let view = index.view();
        let mut docs = Vec::with_capacity(view.target_kinds.len());
        let mut start = 0;
        for (i, &end) in view.text_ends.iter().enumerate() {
            let text = view.text_blob[start..end as usize].to_string();
            start = end as usize;
            let id = view.target_ids[i];
            let owner = |a: AttributeId| catalog.attribute(a).map(|attr| attr.relation);
            // Target discriminants: relation, attribute, value.
            let (target, relation) = match view.target_kinds[i] {
                0 => (MatchTarget::Relation(RelationId(id)), Some(RelationId(id))),
                1 => (
                    MatchTarget::Attribute(AttributeId(id)),
                    owner(AttributeId(id)),
                ),
                _ => (
                    MatchTarget::Value {
                        attribute: AttributeId(id),
                        value: text.clone(),
                    },
                    owner(AttributeId(id)),
                ),
            };
            docs.push(Doc {
                target,
                relation,
                tokens: tokens(&text),
                trigrams: trigrams(&text),
                text,
                norm_sq: 0.0,
            });
        }
        let mut df: HashMap<String, u32> = HashMap::new();
        for doc in &docs {
            for t in doc.tokens.iter().collect::<HashSet<_>>() {
                *df.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let total = docs.len() as f64;
        let idf: HashMap<String, f64> = df
            .into_iter()
            .map(|(t, d)| (t, (1.0 + total / d as f64).ln()))
            .collect();
        for doc in &mut docs {
            doc.norm_sq = doc
                .tokens
                .iter()
                .map(|t| {
                    let w = idf[t];
                    w * w
                })
                .sum();
        }
        Oracle { docs, idf }
    }

    fn query(&self, keyword: &str) -> Query {
        let tokens = tokens(keyword);
        let norm_sq = tokens
            .iter()
            .map(|t| {
                let w = self.idf.get(t).copied().unwrap_or(1.0);
                w * w
            })
            .sum();
        Query {
            norm: normalize(keyword),
            trigrams: trigrams(keyword),
            tokens,
            norm_sq,
        }
    }

    /// The documented similarity of one document, or `None` when it shares
    /// neither a token nor a trigram with the keyword.
    fn score(&self, q: &Query, doc: &Doc) -> Option<f64> {
        let shares_token = q.tokens.iter().any(|t| doc.tokens.contains(t));
        if !shares_token && q.trigrams.is_disjoint(&doc.trigrams) {
            return None;
        }
        if q.norm == doc.text {
            return Some(1.0);
        }
        let mut dot = 0.0;
        for t in &q.tokens {
            if doc.tokens.contains(t) {
                let w = self.idf[t];
                dot += w * w;
            }
        }
        let cos = if q.norm_sq > 0.0 && doc.norm_sq > 0.0 {
            dot / (q.norm_sq.sqrt() * doc.norm_sq.sqrt())
        } else {
            0.0
        };
        let dice = if q.trigrams.is_empty() || doc.trigrams.is_empty() {
            0.0
        } else {
            let common = q.trigrams.intersection(&doc.trigrams).count();
            2.0 * common as f64 / (q.trigrams.len() + doc.trigrams.len()) as f64
        };
        let contained = doc.text.contains(q.norm.as_str()) || q.norm.contains(doc.text.as_str());
        let containment = if !q.norm.is_empty() && contained {
            let shorter = q.norm.len().min(doc.text.len()) as f64;
            let longer = q.norm.len().max(doc.text.len()) as f64;
            0.9 * shorter / longer
        } else {
            0.0
        };
        Some(cos.max(dice).max(containment).min(0.999))
    }

    fn matches(&self, keyword: &str, config: &MatchConfig) -> Vec<KeywordMatch> {
        let q = self.query(keyword);
        let mut scored: Vec<(usize, f64)> = self
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, doc)| self.score(&q, doc).map(|s| (i, s)))
            .filter(|&(_, s)| s >= config.min_similarity)
            .collect();
        // Stable over ascending documents: ties rank by document index.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(config.max_matches);
        scored
            .into_iter()
            .map(|(i, similarity)| KeywordMatch {
                target: self.docs[i].target.clone(),
                similarity,
            })
            .collect()
    }

    fn matches_in(&self, keyword: &str, relations: &[RelationId], config: &MatchConfig) -> bool {
        let q = self.query(keyword);
        self.docs.iter().any(|doc| {
            doc.relation.is_some_and(|r| relations.contains(&r))
                && self
                    .score(&q, doc)
                    .is_some_and(|s| s >= config.min_similarity)
        })
    }
}

/// Relations whose bit is set in `mask` (bit `i % 64` for the `i`-th).
fn subset(catalog: &Catalog, mask: u64) -> Vec<RelationId> {
    catalog
        .relations()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
        .map(|(_, r)| r.id)
        .collect()
}

/// Assert `matches` and `keyword_matches_in` agree with the oracle for
/// every keyword, under `config` and under the default configuration.
fn assert_agrees(
    index: &KeywordIndex,
    catalog: &Catalog,
    keywords: &[String],
    config: &MatchConfig,
    mask: u64,
) {
    let oracle = Oracle::new(index, catalog);
    let relations = subset(catalog, mask);
    for cfg in [*config, MatchConfig::default()] {
        for keyword in keywords {
            assert_eq!(
                format!("{:?}", index.matches(keyword, &cfg)),
                format!("{:?}", oracle.matches(keyword, &cfg)),
                "matches({keyword:?}) under {cfg:?}"
            );
            assert_eq!(
                index.keyword_matches_in(keyword, catalog, &relations, &cfg),
                oracle.matches_in(keyword, &relations, &cfg),
                "keyword_matches_in({keyword:?}, {relations:?}) under {cfg:?}"
            );
        }
    }
}

/// Two keywords per picked document: a substring of its text (by char
/// range), so keywords hit the containment and partial-trigram paths, and
/// its tokens in reverse order, so a multi-token dot product summed in any
/// order but the query's shows up in the last bit.
fn phrases(index: &KeywordIndex, picks: &[(usize, usize, usize)]) -> Vec<String> {
    let view = index.view();
    if view.text_ends.is_empty() {
        return Vec::new();
    }
    picks
        .iter()
        .flat_map(|&(doc, a, b)| {
            let doc = doc % view.text_ends.len();
            let start = if doc == 0 {
                0
            } else {
                view.text_ends[doc - 1] as usize
            };
            let text = &view.text_blob[start..view.text_ends[doc] as usize];
            let chars: Vec<char> = text.chars().collect();
            let (a, b) = (a.min(chars.len()), b.min(chars.len()));
            let mut reversed = tokens(text);
            reversed.reverse();
            [
                chars[a.min(b)..a.max(b)].iter().collect(),
                reversed.join(" "),
            ]
        })
        .collect()
}

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
    #![proptest_config(cases(96))]

    /// Random small corpora of hostile text.
    #[test]
    fn matches_equal_the_scan_oracle_on_hostile_corpora(
        relations in proptest::collection::vec(
            (
                HOSTILE,
                proptest::collection::vec(HOSTILE, 1..4),
                proptest::collection::vec(HOSTILE, 0..24),
            ),
            1..5,
        ),
        random in proptest::collection::vec(HOSTILE, 4..8),
        picks in proptest::collection::vec((0usize..1000, 0usize..16, 0usize..16), 8),
        min_similarity in 0.0f64..1.0,
        max_matches in 0usize..40,
        mask in 0u64..u64::MAX,
    ) {
        let catalog = hostile_catalog(&relations);
        let index = KeywordIndex::build(&catalog);
        let mut keywords = random;
        keywords.extend(phrases(&index, &picks));
        let config = MatchConfig { min_similarity, max_matches };
        assert_agrees(&index, &catalog, &keywords, &config, mask);
    }
}

proptest! {
    #![proptest_config(cases(6))]

    /// A small GBCO federation grown with the scaling tier's zipf
    /// vocabulary; keywords from schema terms, corpus phrases, the GBCO
    /// trial log and random strings.
    #[test]
    fn matches_equal_the_scan_oracle_on_gbco_with_zipf_sources(
        seed in 0u64..1000,
        extra in 0usize..6,
        schema_picks in proptest::collection::vec(0usize..10_000, 8),
        picks in proptest::collection::vec((0usize..100_000, 0usize..24, 0usize..24), 12),
        random in proptest::collection::vec(HOSTILE, 4),
        min_similarity in 0.0f64..1.0,
        max_matches in 0usize..40,
        mask in 0u64..u64::MAX,
    ) {
        let mut catalog = gbco_catalog(&GbcoConfig { rows_per_table: 6, seed });
        let mut graph = SearchGraph::from_catalog(&catalog);
        expand_with_synthetic_sources(
            &mut catalog,
            &mut graph,
            extra,
            &ScalingConfig { rows_per_table: 4, seed, ..ScalingConfig::default() },
        );
        let index = KeywordIndex::build(&catalog);
        let schema: Vec<String> = catalog
            .relations()
            .iter()
            .flat_map(|r| {
                std::iter::once(r.name.clone()).chain(
                    r.attributes.iter().map(|&a| catalog.attribute(a).unwrap().name.clone()),
                )
            })
            .collect();
        let mut keywords: Vec<String> =
            schema_picks.iter().map(|&i| schema[i % schema.len()].clone()).collect();
        keywords.extend(phrases(&index, &picks));
        keywords.extend(gbco_trials().into_iter().flat_map(|t| t.keywords).take(12));
        keywords.extend(random);
        let config = MatchConfig { min_similarity, max_matches };
        assert_agrees(&index, &catalog, &keywords, &config, mask);
    }
}

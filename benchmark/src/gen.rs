//! Seeded generators: everything the program under test sees — corpus,
//! keyword queries, the rank-skewed draw sequence, streamed sources and the
//! feedback schedule — is a pure function of `--seed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use q_integration::datasets::scaling::{expand_with_synthetic_sources_detailed, ScalingConfig};
use q_integration::datasets::{gbco_catalog, gbco_trials, words, GbcoConfig};
use q_integration::graph::SearchGraph;
use q_integration::storage::{Catalog, RelationSpec, SourceSpec, Value};

/// Corpus size of one workload: the GBCO federation plus synthetic sources.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    pub gbco_rows: usize,
    pub synthetic_sources: usize,
    pub synthetic_rows: usize,
}

/// Independent sub-seed per generator, so changing how many values one
/// generator draws never shifts another's stream.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen_range(0..u64::MAX)
}

/// Generate the catalog and its search graph (synthetic association edges
/// included — they live only in the graph).
pub fn corpus(tier: &Tier, seed: u64) -> (Catalog, SearchGraph) {
    let mut catalog = gbco_catalog(&GbcoConfig {
        rows_per_table: tier.gbco_rows,
        seed: sub_seed(seed, 1),
    });
    let mut graph = SearchGraph::from_catalog(&catalog);
    let scaling = ScalingConfig {
        rows_per_table: tier.synthetic_rows,
        seed: sub_seed(seed, 2),
        ..ScalingConfig::default()
    };
    expand_with_synthetic_sources_detailed(
        &mut catalog,
        &mut graph,
        tier.synthetic_sources,
        &scaling,
    );
    (catalog, graph)
}

/// The 32 schema terms users of the GBCO trials typed.
pub fn schema_terms() -> Vec<String> {
    gbco_trials().into_iter().flat_map(|t| t.keywords).collect()
}

/// `n` distinct keyword queries over `catalog`: one schema term, one
/// data-value phrase (a multi-word text cell of every 7th tuple), and in
/// every third query a second schema term. Phrase lengths take turns too:
/// a query's cost follows its phrase's word count, and with fixed shares of
/// each shape two seeds' query lists cost alike.
pub fn keyword_queries(catalog: &Catalog, n: usize, seed: u64) -> Vec<Vec<String>> {
    let terms = schema_terms();
    let mut by_words: std::collections::BTreeMap<usize, Vec<&str>> = Default::default();
    let cells = catalog
        .relations()
        .iter()
        .flat_map(|relation| &relation.tuples)
        .step_by(7)
        .flat_map(|tuple| tuple.values());
    for value in cells {
        if let Value::Text(text) = value {
            let words = text.split(' ').count();
            if words > 1 {
                by_words.entry(words).or_default().push(text);
            }
        }
    }
    let phrases: Vec<Vec<&str>> = by_words.into_values().collect();
    assert!(!phrases.is_empty(), "corpus has no text phrases");
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut seen = std::collections::HashSet::new();
    let mut queries = Vec::with_capacity(n);
    while queries.len() < n {
        let pool = &phrases[queries.len() % phrases.len()];
        let mut query = vec![
            terms[rng.gen_range(0..terms.len())].clone(),
            pool[rng.gen_range(0..pool.len())].to_string(),
        ];
        if queries.len() % 3 == 2 {
            query.push(terms[rng.gen_range(0..terms.len())].clone());
        }
        if seen.insert(query.clone()) {
            queries.push(query);
        }
    }
    queries
}

/// `len` rank-skewed draws from `0..n`: `index = n·u^skew`.
pub fn skewed_sequence(n: usize, len: usize, skew: f64, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            (((n as f64) * u.powf(skew)) as usize).min(n - 1) as u32
        })
        .collect()
}

/// Rows of each streamed source.
pub const STREAM_ROWS: usize = 50;

/// `count` sources to ingest one after another: a key, a foreign key to the
/// previous streamed relation, and two text columns named after GBCO schema
/// terms so the metadata matcher has something to align.
pub fn streamed_sources(count: usize, seed: u64) -> Vec<SourceSpec> {
    let terms = schema_terms();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    (0..count)
        .map(|i| {
            let relation = format!("stream_rel_{i}");
            let key = format!("stream_id_{i}");
            let reference = format!("stream_ref_{i}");
            let text_a = terms[rng.gen_range(0..terms.len())].clone();
            let text_b = format!("{}_note", terms[rng.gen_range(0..terms.len())]);
            let mut rel = RelationSpec::new(&relation, &[&key, &reference, &text_a, &text_b]);
            for r in 0..STREAM_ROWS {
                let target = if i == 0 {
                    r
                } else {
                    rng.gen_range(0..STREAM_ROWS)
                };
                let previous = i.saturating_sub(1);
                rel = rel.row([
                    words::padded_id("STR", i * STREAM_ROWS + r, 9),
                    words::padded_id("STR", previous * STREAM_ROWS + target, 9),
                    words::term_name(&mut rng),
                    words::title(&mut rng),
                ]);
            }
            let mut spec = SourceSpec::new(&format!("stream_source_{i}")).relation(rel);
            if i > 0 {
                spec = spec.foreign_key(
                    &format!("{relation}.{reference}"),
                    &format!(
                        "stream_rel_{previous}.stream_id_{previous}",
                        previous = i - 1
                    ),
                );
            }
            spec
        })
        .collect()
}

/// FNV-1a over a rendering of the generated op list: two runs of one seed
/// must print the same hash, two seeds different ones.
pub fn workload_hash(queries: &[Vec<String>], sequence: &[u32], sources: &[SourceSpec]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash = (hash ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for query in queries {
        for keyword in query {
            eat(keyword.as_bytes());
        }
        eat(b"|");
    }
    for index in sequence {
        eat(&index.to_le_bytes());
    }
    for source in sources {
        eat(format!("{source:?}").as_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Tier = Tier {
        gbco_rows: 10,
        synthetic_sources: 4,
        synthetic_rows: 10,
    };

    fn hash_for(seed: u64) -> u64 {
        let (catalog, _) = corpus(&SMALL, seed);
        let queries = keyword_queries(&catalog, 32, seed);
        let sequence = skewed_sequence(32, 100, 1.5, seed);
        let sources = streamed_sources(3, seed);
        workload_hash(&queries, &sequence, &sources)
    }

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        assert_eq!(hash_for(7), hash_for(7));
        assert_ne!(hash_for(7), hash_for(8));
    }

    #[test]
    fn queries_are_distinct_and_shaped() {
        let (catalog, _) = corpus(&SMALL, 1);
        let queries = keyword_queries(&catalog, 64, 1);
        let distinct: std::collections::HashSet<_> = queries.iter().collect();
        assert_eq!(distinct.len(), 64);
        let terms = schema_terms();
        assert_eq!(terms.len(), 32);
        for q in &queries {
            assert!(q.len() == 2 || q.len() == 3);
            assert!(terms.contains(&q[0]));
            assert!(q[1].contains(' '));
        }
    }

    #[test]
    fn streamed_sources_load_one_after_another() {
        let (mut catalog, _) = corpus(&SMALL, 1);
        for spec in streamed_sources(3, 1) {
            assert_eq!(spec.relations[0].attributes.len(), 4);
            assert_eq!(spec.relations[0].rows.len(), STREAM_ROWS);
            spec.load_into(&mut catalog).expect("streamed source loads");
        }
    }

    #[test]
    fn skewed_sequence_stays_in_range_and_favours_the_head() {
        let sequence = skewed_sequence(1024, 10_000, 3.0, 5);
        assert!(sequence.iter().all(|&i| i < 1024));
        let head = sequence.iter().filter(|&&i| i < 256).count();
        assert!(head > 5_000, "head share {head}");
    }
}

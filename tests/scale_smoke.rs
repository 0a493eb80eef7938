//! Scale smoke: a ~200-source corpus (tens of thousands of rows) built from
//! the GBCO seed plus the synthetic expansion generator, held to the same
//! doctrine as the toy corpora: snapshot builds are deterministic (two
//! builds from the same seed answer a fixed query mix byte-identically).

use q_core::{QConfig, QSystem, QueryRequest};
use q_datasets::scaling::expand_with_synthetic_sources_detailed;
use q_datasets::{gbco_catalog, gbco_trials, GbcoConfig, ScalingConfig};
use q_graph::SearchGraph;

/// Synthetic sources on top of the 18-source GBCO seed.
const EXTRA_SOURCES: usize = 182;
/// Rows per synthetic relation; the GBCO seed gets the same density.
const ROWS_PER_TABLE: usize = 250;

fn build() -> (QSystem, usize) {
    let mut catalog = gbco_catalog(&GbcoConfig {
        rows_per_table: ROWS_PER_TABLE,
        seed: 7,
    });
    let mut graph = SearchGraph::from_catalog(&catalog);
    let expansion = expand_with_synthetic_sources_detailed(
        &mut catalog,
        &mut graph,
        EXTRA_SOURCES,
        &ScalingConfig {
            rows_per_table: ROWS_PER_TABLE,
            seed: 7,
            ..ScalingConfig::default()
        },
    );
    drop(graph); // QSystem re-derives its graph from the catalog
    let total_rows = catalog.relations().iter().map(|r| r.cardinality()).sum();
    let mut q = QSystem::new(
        catalog,
        QConfig {
            shard_workers: 2,
            ..QConfig::default()
        },
    );
    for (a, b, confidence) in &expansion.associations {
        q.graph_mut()
            .add_association(*a, *b, "synthetic", *confidence);
    }
    (q, total_rows)
}

fn answers(q: &mut QSystem) -> Vec<String> {
    gbco_trials()
        .iter()
        .map(|trial| {
            let request = QueryRequest::new(trial.keywords.iter().cloned());
            format!("{:?}", q.query(&request).expect("scale query answers").view)
        })
        .collect()
}

#[test]
fn two_builds_of_the_scaled_corpus_answer_byte_identically() {
    let (mut first, rows) = build();
    assert_eq!(
        first.catalog().sources().len(),
        18 + EXTRA_SOURCES,
        "the corpus reaches 200 sources"
    );
    assert!(rows >= 50_000, "the corpus reaches ~50k rows, got {rows}");
    let first_answers = answers(&mut first);

    let (mut second, _) = build();
    let second_answers = answers(&mut second);
    assert_eq!(
        first_answers, second_answers,
        "two builds from the same seed must answer byte-identically"
    );
}

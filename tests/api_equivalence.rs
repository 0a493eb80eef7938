//! Pins the typed API to its determinism guarantees: per-request overrides
//! must change answers *without* rebuilding the system.

use q_core::{LiveServer, QConfig, QueryRequest, RankedView, SearchStrategy};
use q_datasets::{
    declare_foreign_keys, gbco_foreign_keys, gbco_source_specs, gbco_trials, GbcoConfig,
};
use q_matchers::{MadMatcher, MetadataMatcher};

fn small() -> GbcoConfig {
    GbcoConfig {
        rows_per_table: 12,
        seed: 17,
    }
}

/// Sources incorporated through the matchers rather than the initial load,
/// so the comparison covers a graph with matcher-proposed associations.
const HELD_OUT: [&str; 2] = ["pathway", "gene_pathway"];

fn build_system() -> LiveServer {
    let specs = gbco_source_specs(&small());
    let initial: Vec<_> = specs
        .iter()
        .filter(|s| !HELD_OUT.contains(&s.name.as_str()))
        .cloned()
        .collect();
    let mut catalog = q_storage::loader::load_catalog(&initial).expect("GBCO loads");
    declare_foreign_keys(&mut catalog, &gbco_foreign_keys());
    let mut live = LiveServer::new(catalog, QConfig::default());
    live.add_matcher(Box::new(MetadataMatcher::new()));
    live.add_matcher(Box::new(MadMatcher::new()));
    for spec in specs.iter().filter(|s| HELD_OUT.contains(&s.name.as_str())) {
        live.ingest_source(spec).expect("registration succeeds");
    }
    live
}

fn trial_keywords() -> Vec<Vec<String>> {
    gbco_trials().iter().map(|t| t.keywords.clone()).collect()
}

fn render(view: &RankedView) -> String {
    format!("{view:?}")
}

#[test]
fn per_request_overrides_change_answers_on_a_live_system() {
    let live = build_system();
    let snapshot = live.snapshot();
    let answer = |request: &QueryRequest| snapshot.answer(live.config(), request);
    // Pick the first trial query that yields at least two ranked trees.
    let keywords = trial_keywords()
        .into_iter()
        .find(|kws| {
            let request = QueryRequest::new(kws.iter().cloned());
            answer(&request)
                .map(|v| v.queries.len() >= 2)
                .unwrap_or(false)
        })
        .expect("some GBCO trial yields multiple trees");
    let request = QueryRequest::new(keywords.iter().cloned());
    let default = answer(&request).expect("answers");

    // top_k=1 trims the ranked list on the same (un-rebuilt) system.
    let top1 = answer(&request.clone().top_k(1)).expect("answers");
    assert_eq!(top1.queries.len(), 1);
    assert!(default.queries.len() > top1.queries.len());
    assert_eq!(top1.queries[0], default.queries[0]);

    // Strategy override: the exact search returns the provably cheapest
    // tree, again without rebuilding.
    let exact = answer(&request.clone().strategy(SearchStrategy::Exact)).expect("answers");
    assert_eq!(exact.queries.len(), 1);
    assert!(exact.queries[0].cost <= default.queries[0].cost + 1e-9);

    // Cost budget below the worst tree prunes the tail.
    let worst = default.queries.last().unwrap().cost;
    let best = default.queries[0].cost;
    if worst > best + 1e-9 {
        let budgeted =
            answer(&request.clone().cost_budget(best + (worst - best) / 2.0)).expect("answers");
        assert!(budgeted.queries.len() < default.queries.len());
    }

    // None of the overrides changed the system: the default request still
    // answers the same bytes. (That overrides never share a cache entry is
    // pinned against `LiveServer` in `live.rs`.)
    let again = answer(&request).expect("answers");
    assert_eq!(render(&again), render(&default));
}

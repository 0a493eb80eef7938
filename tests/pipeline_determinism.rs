//! Regression test for end-to-end determinism over the GBCO workload.
//!
//! Hash-iteration-order bugs once made the pipeline's ranked answers flip
//! between runs; this pins the repaired behaviour: the full pipeline (load →
//! register sources through matchers → answer the trial workload) run
//! twice in-process is byte-identical.

use q_core::{LiveServer, QConfig, QueryRequest};
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
/// so the transcript covers the alignment pipeline too.
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

fn workload() -> Vec<QueryRequest> {
    gbco_trials()
        .iter()
        .map(|t| QueryRequest::new(t.keywords.iter().cloned()))
        .collect()
}

/// Answer the trial workload and render every ranked view to its canonical
/// byte representation.
fn transcript(live: &LiveServer) -> String {
    let snapshot = live.snapshot();
    workload()
        .iter()
        .map(|request| {
            let view = snapshot.answer(live.config(), request);
            format!("{:?}\n", view.expect("GBCO queries answer"))
        })
        .collect()
}

#[test]
fn gbco_pipeline_twice_in_process_is_byte_identical() {
    let transcript_1 = transcript(&build_system());
    assert!(!transcript_1.is_empty());

    // Second full pipeline run in the same process, from scratch.
    let transcript_2 = transcript(&build_system());
    assert_eq!(
        transcript_1, transcript_2,
        "two in-process pipeline runs diverged (hash-order regression?)"
    );
}

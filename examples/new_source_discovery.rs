//! New-source discovery: start Q over a subset of the InterPro-GO tables,
//! create a user view, then register the remaining tables one by one and
//! watch the view pick up content from sources it had never seen — the
//! paper's headline scenario (Section 3).
//!
//! Run with `cargo run --example new_source_discovery`.

use q_core::{view_based_alignments, LiveServer, QConfig, QueryRequest};
use q_datasets::{interpro_go_source_specs, InterproGoConfig};
use q_matchers::{MadMatcher, MetadataMatcher};

fn main() {
    let specs = interpro_go_source_specs(&InterproGoConfig {
        rows_per_table: 120,
        seed: 42,
    });

    // Start with only the GO terms and the InterPro entries registered.
    let initial: Vec<_> = specs
        .iter()
        .filter(|s| s.name == "go" || s.name == "entry")
        .cloned()
        .collect();
    let catalog = q_storage::loader::load_catalog(&initial).expect("initial catalog loads");

    let mut live = LiveServer::new(catalog, QConfig::default());
    live.add_matcher(Box::new(MetadataMatcher::new()));
    live.add_matcher(Box::new(MadMatcher::new()));

    // The user's ongoing information need: GO terms of InterPro entries.
    let request = QueryRequest::new(["term", "entry"]);
    let answer = || {
        live.snapshot()
            .answer(live.config(), &request)
            .expect("view answers")
    };
    let mut view = answer();
    println!(
        "initial view: {} ranked queries, {} answers (the two tables are not yet linked)",
        view.queries.len(),
        view.answer_count()
    );

    // Register the remaining sources one at a time, as a crawler would,
    // aligning each only inside the view's α-cost neighbourhood.
    for name in [
        "interpro2go",
        "entry2pub",
        "pub",
        "method",
        "method2pub",
        "journal",
    ] {
        let spec = specs.iter().find(|s| s.name == name).unwrap().clone();
        let (mut total_comparisons, mut matchers) = (0, 0);
        let report = live
            .ingest_source_with(&spec, |draft, matcher| {
                let outcome = view_based_alignments(draft, matcher, std::slice::from_ref(&view));
                total_comparisons += outcome.stats.attribute_comparisons;
                matchers += 1;
                outcome.alignments
            })
            .expect("registration succeeds");
        view = answer();
        println!(
            "registered `{name}`: {} alignments added ({} attribute comparisons across {} matchers); view now has {} answers",
            report.alignments.len(),
            total_comparisons,
            matchers,
            view.answer_count()
        );
    }

    // Show a few answers of the final view.
    println!("\nfinal view columns: {:?}", view.columns);
    for answer in view.answers.iter().take(5) {
        let row: Vec<String> = answer
            .values
            .iter()
            .map(|v| {
                v.as_ref()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!("  [cost {:.3}] {}", answer.cost, row.join(" | "));
    }
}

//! Cross-crate integration tests: the full Q pipeline over the synthetic
//! datasets — view answers, new-source registration, matcher combination and
//! feedback-driven correction, all through the serving engine.

use std::collections::HashSet;

use q_align::{AlignerConfig, ExhaustiveAligner};
use q_core::evaluation::{average_edge_costs, gold_target_query, precision_recall_graph, AttrPair};
use q_core::{
    view_based_alignments, Feedback, FeedbackRequest, GraphSnapshot, LiveServer, QConfig,
    QueryRequest, RankedView,
};
use q_datasets::{
    interpro_go_catalog, interpro_go_gold, interpro_go_queries, interpro_go_source_specs,
    InterproGoConfig,
};
use q_graph::SearchGraph;
use q_matchers::{MadMatcher, MetadataMatcher, SchemaMatcher};

fn small_config() -> InterproGoConfig {
    InterproGoConfig {
        rows_per_table: 60,
        seed: 42,
    }
}

/// The current snapshot's uncached answer to `keywords`.
fn answer(live: &LiveServer, keywords: &[&str]) -> RankedView {
    live.snapshot()
        .answer(live.config(), &QueryRequest::new(keywords.iter().copied()))
        .expect("view answers")
}

#[test]
fn registering_new_sources_populates_an_existing_view() {
    let specs = interpro_go_source_specs(&small_config());
    let initial: Vec<_> = specs
        .iter()
        .filter(|s| s.name == "go" || s.name == "entry")
        .cloned()
        .collect();
    let catalog = q_storage::loader::load_catalog(&initial).unwrap();
    let mut live = LiveServer::new(catalog, QConfig::default());
    live.add_matcher(Box::new(MetadataMatcher::new()));
    live.add_matcher(Box::new(MadMatcher::new()));

    let view = answer(&live, &["term", "entry"]);
    let before = view.answer_count();

    // Register the linking table inside the view's neighbourhood; the
    // matchers should connect it to both existing sources and the view
    // should gain answers.
    let i2g = specs.iter().find(|s| s.name == "interpro2go").unwrap();
    let mut matchers_run = 0;
    let report = live
        .ingest_source_with(i2g, |draft, matcher| {
            matchers_run += 1;
            view_based_alignments(draft, matcher, std::slice::from_ref(&view)).alignments
        })
        .unwrap();
    assert!(!report.alignments.is_empty());
    assert_eq!(matchers_run, 2);

    let snapshot = live.snapshot();
    let go_id = snapshot
        .catalog()
        .resolve_qualified("interpro_interpro2go.go_id")
        .unwrap();
    let acc = snapshot.catalog().resolve_qualified("go_term.acc").unwrap();
    assert!(
        snapshot.graph().association_between(go_id, acc).is_some(),
        "instance-level matcher should link go_id to acc"
    );

    let after = answer(&live, &["term", "entry"]).answer_count();
    assert!(
        after > before,
        "view should gain answers after registration ({before} -> {after})"
    );
}

#[test]
fn combined_matchers_cover_the_gold_standard_and_feedback_separates_costs() {
    let catalog = interpro_go_catalog(&small_config());
    let gold: HashSet<AttrPair> = interpro_go_gold().resolved_set(&catalog);

    // Propose alignments with both matchers at Y = 2.
    let metadata = MetadataMatcher::new();
    let mad = MadMatcher::new();
    let relations: Vec<_> = catalog.relations().iter().map(|r| r.id).collect();
    let mut metadata_alignments = Vec::new();
    for r in &relations {
        let others: Vec<_> = relations.iter().copied().filter(|x| x != r).collect();
        metadata_alignments.extend(metadata.match_against(&catalog, *r, &others, 2));
    }
    let mad_alignments = mad
        .propagate(&catalog, &[])
        .top_alignments(&catalog, 2, 0.0);

    let mut graph = SearchGraph::from_catalog(&catalog);
    for (alignments, matcher) in [(&metadata_alignments, "metadata"), (&mad_alignments, "mad")] {
        for a in alignments {
            graph.add_association(a.new_attribute, a.existing_attribute, matcher, a.confidence);
        }
    }

    // With everything admitted, the combined graph reaches full recall.
    let (_, recall, _) = precision_recall_graph(&graph, &gold, 2, f64::INFINITY);
    assert!(
        (recall - 1.0).abs() < 1e-9,
        "combined matchers should cover all 8 gold edges, got recall {recall}"
    );
    let live = LiveServer::from_snapshot(
        GraphSnapshot::assemble(catalog, graph, 0),
        QConfig::default(),
    );

    // Apply one pass of simulated feedback over the documentation queries.
    let mut applied = 0;
    for query in interpro_go_queries() {
        let view = answer(&live, &query.keyword_refs());
        let Some(target) = gold_target_query(&view, live.snapshot().graph(), &gold) else {
            continue;
        };
        let Some(answer) = view.answers.iter().position(|a| a.query_index == target) else {
            continue;
        };
        let feedback =
            FeedbackRequest::on_keywords(view.keywords.clone(), Feedback::Correct { answer });
        live.feedback(&feedback).unwrap();
        applied += 1;
    }
    assert!(
        applied >= 3,
        "expected several feedback opportunities, got {applied}"
    );

    // Gold edges end up cheaper on average than non-gold edges (Figure 12's
    // qualitative claim), and all edge costs stay positive.
    let snapshot = live.snapshot();
    let costs = average_edge_costs(snapshot.graph(), &gold);
    assert!(costs.gold_edges > 0 && costs.non_gold_edges > 0);
    assert!(
        costs.gold_mean < costs.non_gold_mean,
        "gold {} vs non-gold {}",
        costs.gold_mean,
        costs.non_gold_mean
    );
    assert!(snapshot.graph().min_learnable_edge_cost().unwrap() > 0.0);
}

#[test]
fn exhaustive_and_view_based_registration_agree_on_view_contents() {
    // ViewBasedAligner's pruning must not change what the user's view sees
    // (the paper's guarantee in Section 3.3).
    let specs = interpro_go_source_specs(&small_config());
    let initial: Vec<_> = specs
        .iter()
        .filter(|s| s.name != "interpro2go")
        .cloned()
        .collect();

    // The same MAD matcher, aligning against every relation or only inside
    // the view's neighbourhood.
    let build = |view_based: bool| {
        let catalog = q_storage::loader::load_catalog(&initial).unwrap();
        let mut live = LiveServer::new(catalog, QConfig::default());
        live.add_matcher(Box::new(MadMatcher::new()));
        let view = answer(&live, &["term", "entry"]);
        let spec = specs.iter().find(|s| s.name == "interpro2go").unwrap();
        live.ingest_source_with(spec, |draft, matcher| {
            if view_based {
                view_based_alignments(draft, matcher, std::slice::from_ref(&view)).alignments
            } else {
                let config = AlignerConfig {
                    top_y: draft.config.top_y,
                    ..AlignerConfig::default()
                };
                ExhaustiveAligner
                    .align(draft.catalog, matcher, draft.source, None, &config)
                    .alignments
            }
        })
        .unwrap();
        answer(&live, &["term", "entry"])
    };

    let exhaustive_view = build(false);
    let view_based_view = build(true);
    assert_eq!(
        exhaustive_view.answer_count(),
        view_based_view.answer_count(),
        "view-based pruning changed the view's answers"
    );
    assert_eq!(exhaustive_view.columns, view_based_view.columns);
}

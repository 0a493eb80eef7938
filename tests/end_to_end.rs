//! Cross-crate integration tests: the full Q pipeline over the synthetic
//! datasets — view creation, new-source registration, matcher combination and
//! feedback-driven correction.

use std::collections::HashSet;

use q_core::evaluation::{average_edge_costs, gold_target_query, precision_recall_graph, AttrPair};
use q_core::{AlignmentStrategy, Feedback, FeedbackRequest, QConfig, QSystem};
use q_datasets::{
    interpro_go_catalog, interpro_go_gold, interpro_go_queries, interpro_go_source_specs,
    InterproGoConfig,
};
use q_matchers::{MadMatcher, MetadataMatcher, SchemaMatcher};

fn small_config() -> InterproGoConfig {
    InterproGoConfig {
        rows_per_table: 60,
        seed: 42,
    }
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
    let mut q = QSystem::new(
        catalog,
        QConfig {
            strategy: AlignmentStrategy::ViewBased,
            ..QConfig::default()
        },
    );
    q.add_matcher(Box::new(MetadataMatcher::new()));
    q.add_matcher(Box::new(MadMatcher::new()));

    let view_id = q.create_view(&["term", "entry"]).unwrap();
    let before = q.view(view_id).unwrap().answer_count();

    // Register the linking table; the matchers should connect it to both
    // existing sources and the view should gain answers.
    let i2g = specs.iter().find(|s| s.name == "interpro2go").unwrap();
    let report = q.register_source(i2g).unwrap();
    assert!(!report.alignments.is_empty());
    assert_eq!(report.stats_per_matcher.len(), 2);

    let go_id = q
        .catalog()
        .resolve_qualified("interpro_interpro2go.go_id")
        .unwrap();
    let acc = q.catalog().resolve_qualified("go_term.acc").unwrap();
    assert!(
        q.graph().association_between(go_id, acc).is_some(),
        "instance-level matcher should link go_id to acc"
    );

    let after = q.view(view_id).unwrap().answer_count();
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

    let mut q = QSystem::new(catalog, QConfig::default());
    q.add_alignments(&metadata_alignments, "metadata");
    q.add_alignments(&mad_alignments, "mad");

    // With everything admitted, the combined graph reaches full recall.
    let (_, recall, _) = precision_recall_graph(q.graph(), &gold, 2, f64::INFINITY);
    assert!(
        (recall - 1.0).abs() < 1e-9,
        "combined matchers should cover all 8 gold edges, got recall {recall}"
    );

    // Apply one pass of simulated feedback over the documentation queries.
    let mut view_ids = Vec::new();
    for query in interpro_go_queries() {
        view_ids.push(q.create_view(&query.keyword_refs()).unwrap());
    }
    let mut applied = 0;
    for view_id in &view_ids {
        let view = q.view(*view_id).unwrap();
        let Some(target) = gold_target_query(view, q.graph(), &gold) else {
            continue;
        };
        let Some(answer) = view.answers.iter().position(|a| a.query_index == target) else {
            continue;
        };
        let feedback =
            FeedbackRequest::on_keywords(view.keywords.clone(), Feedback::Correct { answer });
        q.apply_feedback(&feedback).unwrap();
        applied += 1;
    }
    assert!(
        applied >= 3,
        "expected several feedback opportunities, got {applied}"
    );

    // Gold edges end up cheaper on average than non-gold edges (Figure 12's
    // qualitative claim), and all edge costs stay positive.
    let costs = average_edge_costs(q.graph(), &gold);
    assert!(costs.gold_edges > 0 && costs.non_gold_edges > 0);
    assert!(
        costs.gold_mean < costs.non_gold_mean,
        "gold {} vs non-gold {}",
        costs.gold_mean,
        costs.non_gold_mean
    );
    assert!(q.graph().min_learnable_edge_cost().unwrap() > 0.0);
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

    let build = |strategy: AlignmentStrategy| {
        let catalog = q_storage::loader::load_catalog(&initial).unwrap();
        let mut q = QSystem::new(
            catalog,
            QConfig {
                strategy,
                ..QConfig::default()
            },
        );
        q.add_matcher(Box::new(MadMatcher::new()));
        let view_id = q.create_view(&["term", "entry"]).unwrap();
        let spec = specs.iter().find(|s| s.name == "interpro2go").unwrap();
        q.register_source(spec).unwrap();
        let view = q.view(view_id).unwrap().clone();
        view
    };

    let exhaustive_view = build(AlignmentStrategy::Exhaustive);
    let view_based_view = build(AlignmentStrategy::ViewBased);
    assert_eq!(
        exhaustive_view.answer_count(),
        view_based_view.answer_count(),
        "view-based pruning changed the view's answers"
    );
    assert_eq!(exhaustive_view.columns, view_based_view.columns);
}

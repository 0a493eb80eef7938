//! Feedback-driven correction of bad alignments (Section 4 / Section 5.2.2):
//! populate the InterPro-GO search graph with both matchers' proposals, then
//! replay simulated expert feedback and watch precision improve and the cost
//! gap between gold and non-gold edges widen.
//!
//! Run with `cargo run --example feedback_correction`.

use std::collections::HashSet;

use q_core::evaluation::{average_edge_costs, gold_target_query, precision_recall_graph, AttrPair};
use q_core::{Feedback, FeedbackRequest, GraphSnapshot, LiveServer, QConfig, QueryRequest};
use q_datasets::{interpro_go_catalog, interpro_go_gold, interpro_go_queries, InterproGoConfig};
use q_graph::SearchGraph;
use q_matchers::{MadMatcher, MetadataMatcher, SchemaMatcher};

fn main() {
    let config = InterproGoConfig {
        rows_per_table: 120,
        seed: 42,
    };
    let catalog = interpro_go_catalog(&config);
    let gold: HashSet<AttrPair> = interpro_go_gold().resolved_set(&catalog);

    // Propose alignments with both matchers (top-2 per attribute).
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

    // The search graph holds both matchers' proposals from the start.
    let mut graph = SearchGraph::from_catalog(&catalog);
    for (alignments, matcher) in [(&metadata_alignments, "metadata"), (&mad_alignments, "mad")] {
        for a in alignments {
            graph.add_association(a.new_attribute, a.existing_attribute, matcher, a.confidence);
        }
    }
    let live = LiveServer::from_snapshot(
        GraphSnapshot::assemble(catalog, graph, 0),
        QConfig::default(),
    );

    let report = |label: &str| {
        let snapshot = live.snapshot();
        let (p, r, f) = precision_recall_graph(snapshot.graph(), &gold, 2, f64::INFINITY);
        let costs = average_edge_costs(snapshot.graph(), &gold);
        println!(
            "{label:<22} precision {:.2}  recall {:.2}  F {:.2}  | avg cost gold {:.3} vs non-gold {:.3}",
            p, r, f, costs.gold_mean, costs.non_gold_mean
        );
    };
    report("before feedback");

    // Replay feedback on the 10 documentation-derived queries twice; each
    // annotates the current snapshot's answer.
    let mut steps = 0;
    for pass in 0..2 {
        for query in interpro_go_queries() {
            let snapshot = live.snapshot();
            let view = snapshot
                .answer(live.config(), &QueryRequest::new(query.keyword_refs()))
                .unwrap();
            let Some(target) = gold_target_query(&view, snapshot.graph(), &gold) else {
                continue;
            };
            let Some(answer) = view.answers.iter().position(|a| a.query_index == target) else {
                continue;
            };
            let feedback =
                FeedbackRequest::on_keywords(view.keywords.clone(), Feedback::Correct { answer });
            if live.feedback(&feedback).is_ok() {
                steps += 1;
            }
        }
        report(&format!("after pass {}", pass + 1));
    }
    println!("({steps} feedback steps applied)");
}

//! Figures 10–12 and Table 2: combining matchers and correcting alignments
//! from feedback on query answers (Section 5.2.2).
//!
//! Setup: the InterPro-GO search graph is populated with the top-2
//! alignments per attribute from both matchers; the 10 documentation-derived
//! keyword queries become views; simulated domain-expert feedback marks, for
//! each query, one answer whose tree uses only gold association edges; the
//! feedback log is replayed up to three times (40 steps total). After each
//! step the experiment records the gold vs non-gold average edge cost
//! (Figure 12) and precision/recall snapshots (Figures 10–11, Table 2).

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use q_core::evaluation::{
    average_edge_costs, gold_target_query, pr_curve_from_alignments, pr_curve_from_graph, AttrPair,
    EdgeCostSummary, PrPoint,
};
use q_core::{Feedback, FeedbackRequest, GraphSnapshot, LiveServer, QConfig, QueryRequest};
use q_datasets::{interpro_go_catalog, interpro_go_gold, interpro_go_queries, InterproGoConfig};
use q_graph::SearchGraph;

use crate::matchers::{mad_alignments, metadata_alignments};

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearningConfig {
    /// InterPro-GO generator configuration.
    pub dataset: InterproGoConfig,
    /// Candidate alignments per attribute added to the graph (the paper uses
    /// Y = 2, the smallest setting with 100% recall).
    pub top_y: usize,
    /// Number of ranked queries per view (`k` of Algorithm 4; the paper uses
    /// 5).
    pub top_k: usize,
    /// How many times the 10-query feedback log is replayed (the paper's
    /// 10×4 setting replays it three times after the first pass).
    pub passes: usize,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            dataset: InterproGoConfig::default(),
            top_y: 2,
            top_k: 5,
            passes: 4,
        }
    }
}

/// Result of the learning experiment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LearningResult {
    /// PR curve of the metadata matcher alone (Figure 10, "COMA++").
    pub metadata_pr: Vec<PrPoint>,
    /// PR curve of MAD alone (Figure 10, "MAD").
    pub mad_pr: Vec<PrPoint>,
    /// PR curve of the combined graph before any feedback (Figure 11's
    /// "Average(COMA++, MAD)" baseline).
    pub baseline_pr: Vec<PrPoint>,
    /// PR snapshot after 1 feedback step (Figure 11, "Q (1 x 1)").
    pub q_pr_after_1: Vec<PrPoint>,
    /// PR snapshot after one full pass (Figure 11, "Q (10 x 1)").
    pub q_pr_after_pass_1: Vec<PrPoint>,
    /// PR snapshot after two passes (Figure 11, "Q (10 x 2)").
    pub q_pr_after_pass_2: Vec<PrPoint>,
    /// PR snapshot after all passes (Figures 10 and 11, "Q" / "Q (10 x 4)").
    pub q_pr_final: Vec<PrPoint>,
    /// Gold vs non-gold average edge cost after every feedback step
    /// (Figure 12).
    pub edge_cost_trajectory: Vec<EdgeCostSummary>,
    /// For each recall level (%), the first feedback step at which precision
    /// 1.0 was achievable at that recall (Table 2). `None` = never reached.
    pub steps_to_perfect_precision: Vec<(f64, Option<usize>)>,
    /// Total feedback steps actually applied.
    pub feedback_steps: usize,
}

/// Run the Figures 10–12 / Table 2 experiment.
pub fn run_learning_experiment(config: &LearningConfig) -> LearningResult {
    let catalog = interpro_go_catalog(&config.dataset);
    let gold: HashSet<AttrPair> = interpro_go_gold().resolved_set(&catalog);

    // ---------------- matcher-only curves ----------------
    let metadata = metadata_alignments(&catalog, config.top_y);
    let mad = mad_alignments(&catalog, config.top_y);
    let metadata_pr = pr_curve_from_alignments(&metadata, &gold, config.top_y);
    let mad_pr = pr_curve_from_alignments(&mad, &gold, config.top_y);

    // ---------------- combined graph + views ----------------
    let mut graph = SearchGraph::from_catalog(&catalog);
    for (alignments, matcher) in [(&metadata, "metadata"), (&mad, "mad")] {
        for a in alignments {
            graph.add_association(a.new_attribute, a.existing_attribute, matcher, a.confidence);
        }
    }
    let baseline_pr = pr_curve_from_graph(&graph, &gold, config.top_y);
    let live = LiveServer::from_snapshot(
        GraphSnapshot::assemble(catalog, graph, 0),
        QConfig {
            top_k: config.top_k,
            top_y: config.top_y,
            ..QConfig::default()
        },
    );

    let views: Vec<QueryRequest> = interpro_go_queries()
        .iter()
        .map(|query| QueryRequest::new(query.keyword_refs()))
        .collect();

    // ---------------- feedback loop ----------------
    let recall_levels = [12.5, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5, 100.0];
    let mut steps_to_precision: Vec<(f64, Option<usize>)> =
        recall_levels.iter().map(|r| (*r, None)).collect();
    let mut edge_cost_trajectory = Vec::new();
    let mut q_pr_after_1 = Vec::new();
    let mut q_pr_after_pass_1 = Vec::new();
    let mut q_pr_after_pass_2 = Vec::new();
    let mut steps = 0usize;

    for pass in 0..config.passes {
        for request in &views {
            let snapshot = live.snapshot();
            let view = snapshot
                .answer(live.config(), request)
                .expect("view answers");
            // Simulated expert: endorse an answer whose tree only uses gold
            // association edges.
            let Some(target_query) = gold_target_query(&view, snapshot.graph(), &gold) else {
                continue;
            };
            let Some(answer_idx) = view
                .answers
                .iter()
                .position(|a| a.query_index == target_query)
            else {
                continue;
            };
            let feedback = FeedbackRequest::on_keywords(
                view.keywords.clone(),
                Feedback::Correct { answer: answer_idx },
            );
            let Ok(report) = live.feedback(&feedback) else {
                continue;
            };
            steps += 1;

            let graph = report.snapshot.graph();
            edge_cost_trajectory.push(average_edge_costs(graph, &gold));
            let curve = pr_curve_from_graph(graph, &gold, config.top_y);
            for (level, first_step) in steps_to_precision.iter_mut() {
                if first_step.is_none()
                    && curve
                        .iter()
                        .any(|p| p.precision >= 1.0 - 1e-9 && p.recall * 100.0 >= *level - 1e-9)
                {
                    *first_step = Some(steps);
                }
            }
            if steps == 1 {
                q_pr_after_1 = curve;
            }
        }
        let curve = pr_curve_from_graph(live.snapshot().graph(), &gold, config.top_y);
        if pass == 0 {
            q_pr_after_pass_1 = curve;
        } else if pass == 1 {
            q_pr_after_pass_2 = curve;
        }
    }

    let q_pr_final = pr_curve_from_graph(live.snapshot().graph(), &gold, config.top_y);
    LearningResult {
        metadata_pr,
        mad_pr,
        baseline_pr,
        q_pr_after_1,
        q_pr_after_pass_1,
        q_pr_after_pass_2,
        q_pr_final,
        edge_cost_trajectory,
        steps_to_perfect_precision: steps_to_precision,
        feedback_steps: steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Best F-measure over a PR curve.
    fn best_f_measure(curve: &[PrPoint]) -> f64 {
        curve
            .iter()
            .map(|p| {
                if p.precision + p.recall > 0.0 {
                    2.0 * p.precision * p.recall / (p.precision + p.recall)
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn feedback_widens_the_gold_vs_non_gold_cost_gap_and_lifts_quality() {
        let result = run_learning_experiment(&LearningConfig {
            dataset: InterproGoConfig {
                rows_per_table: 60,
                seed: 42,
            },
            passes: 2,
            ..LearningConfig::default()
        });
        assert!(result.feedback_steps > 0, "no feedback could be applied");
        // Figure 12 shape: after feedback, gold edges are cheaper on average
        // than non-gold edges.
        let last = result.edge_cost_trajectory.last().unwrap();
        assert!(
            last.gold_mean < last.non_gold_mean,
            "gold {} vs non-gold {}",
            last.gold_mean,
            last.non_gold_mean
        );
        // Figure 10/11 shape: learned Q is at least as good (best F) as the
        // unfedback baseline, and at least as good as either matcher alone.
        let q_f = best_f_measure(&result.q_pr_final);
        assert!(q_f >= best_f_measure(&result.baseline_pr) - 1e-9);
        assert!(q_f >= best_f_measure(&result.metadata_pr) - 1e-9);
        // Full recall is reachable in the combined graph (MAD contributes all
        // gold edges at Y = 2).
        assert!(result
            .q_pr_final
            .iter()
            .any(|p| (p.recall - 1.0).abs() < 1e-9));
        // Table 2 bookkeeping covers all recall levels.
        assert_eq!(result.steps_to_perfect_precision.len(), 8);
    }
}

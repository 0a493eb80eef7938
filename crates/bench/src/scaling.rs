//! Figure 8: pairwise column comparisons as the search graph grows from 18 to
//! 100 to 500 sources.
//!
//! The paper grows the calibrated GBCO graph with synthetic two-attribute
//! sources and, because the synthetic relations have no realistic labels,
//! measures only the number of pairwise column comparisons each strategy
//! would issue (`count_only` mode here).

use serde::{Deserialize, Serialize};

use q_align::{AlignerConfig, ExhaustiveAligner, PreferentialAligner, ViewBasedAligner};
use q_core::{view_nodes, Feedback, FeedbackRequest, LiveServer, QConfig, QueryRequest};
use q_datasets::gbco::{
    declare_foreign_keys, gbco_foreign_keys, gbco_source_specs, gbco_trials, GbcoConfig,
};
use q_datasets::scaling::{expand_with_synthetic_sources, ScalingConfig};
use q_matchers::MetadataMatcher;
use q_storage::SourceSpec;

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingExperimentConfig {
    /// GBCO generator configuration.
    pub gbco: GbcoConfig,
    /// Synthetic-source expansion configuration.
    pub scaling: ScalingConfig,
    /// Total source counts to measure (the paper uses 18, 100, 500).
    pub graph_sizes: Vec<usize>,
    /// Number of new-source introductions to average over (the paper uses
    /// the 40 introductions of the 16 trials).
    pub max_introductions: usize,
    /// Preferential aligner candidate limit.
    pub preferential_limit: usize,
}

impl Default for ScalingExperimentConfig {
    fn default() -> Self {
        ScalingExperimentConfig {
            gbco: GbcoConfig {
                rows_per_table: 20,
                ..GbcoConfig::default()
            },
            scaling: ScalingConfig::default(),
            graph_sizes: vec![18, 100, 500],
            max_introductions: 40,
            preferential_limit: 4,
        }
    }
}

/// Comparisons at one graph size (one x position of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Number of sources in the search graph before the new source arrives.
    pub existing_sources: usize,
    /// Mean pairwise column comparisons for EXHAUSTIVE.
    pub exhaustive: usize,
    /// Mean pairwise column comparisons for VIEWBASEDALIGNER.
    pub view_based: usize,
    /// Mean pairwise column comparisons for PREFERENTIALALIGNER.
    pub preferential: usize,
}

/// Result of the Figure 8 experiment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScalingResult {
    /// One point per requested graph size.
    pub points: Vec<ScalingPoint>,
}

/// Run the Figure 8 experiment.
pub fn run_scaling_experiment(config: &ScalingExperimentConfig) -> ScalingResult {
    let all_specs = gbco_source_specs(&config.gbco);
    let fks = gbco_foreign_keys();
    let matcher = MetadataMatcher::new();
    let trials = gbco_trials();
    let mut points = Vec::new();

    for target_sources in &config.graph_sizes {
        // Base: the full 18-source GBCO catalog + graph, expanded with
        // synthetic sources up to the target size.
        let mut catalog = q_storage::loader::load_catalog(&all_specs).expect("gbco specs load");
        declare_foreign_keys(&mut catalog, &fks);
        let live = LiveServer::new(catalog.clone(), QConfig::default());
        // The user's view (first trial's keywords) provides the α bound. As
        // in the paper, the edge costs are first calibrated by feedback that
        // keeps the base query on top; α is then the cost of the view's k-th
        // top-scoring result.
        let trial = &trials[0];
        let request = QueryRequest::new(trial.keywords.iter().cloned());
        let answer = || {
            live.snapshot()
                .answer(live.config(), &request)
                .expect("view answers")
        };
        for _ in 0..3 {
            if answer().answers.is_empty() {
                break;
            }
            let _ = live.feedback(&FeedbackRequest::on_keywords(
                &trial.keywords,
                Feedback::Correct { answer: 0 },
            ));
        }
        let view = answer();
        let k = live.config().top_k;
        let alpha = match view.answers.len() {
            0 => view.alpha(),
            n => Some(view.answers[(k - 1).min(n - 1)].cost),
        }
        .unwrap_or(f64::INFINITY);
        let calibrated = live.snapshot();
        let view_nodes = view_nodes(
            calibrated.graph(),
            calibrated.keyword_index(),
            &live.config().match_config,
            &view.keywords,
        );

        let mut graph = calibrated.graph().clone();
        if *target_sources > catalog.sources().len() {
            let additional = target_sources - catalog.sources().len();
            expand_with_synthetic_sources(&mut catalog, &mut graph, additional, &config.scaling);
        }

        // Introduce new sources (cycling through the trials' new sources) and
        // count comparisons only.
        let mut exhaustive_total = 0usize;
        let mut view_total = 0usize;
        let mut pref_total = 0usize;
        let mut introductions = 0usize;
        let aligner_config = AlignerConfig {
            count_only: true,
            ..AlignerConfig::default()
        };

        'outer: for trial in &trials {
            for name in &trial.new_sources {
                if introductions >= config.max_introductions {
                    break 'outer;
                }
                // Register a fresh copy of the relation as a brand-new source.
                let spec = all_specs
                    .iter()
                    .find(|s| &s.name == name)
                    .expect("trial source exists");
                let renamed = rename_spec(spec, introductions);
                let mut catalog = catalog.clone();
                let source = renamed.load_into(&mut catalog).expect("renamed spec loads");

                let outcome =
                    ExhaustiveAligner.align(&catalog, &matcher, source, None, &aligner_config);
                exhaustive_total += outcome.stats.attribute_comparisons;

                let outcome = ViewBasedAligner::new(alpha).align(
                    &catalog,
                    &graph,
                    &matcher,
                    source,
                    &view_nodes,
                    None,
                    &aligner_config,
                );
                view_total += outcome.stats.attribute_comparisons;

                let outcome = PreferentialAligner::new(config.preferential_limit).align(
                    &catalog,
                    &matcher,
                    source,
                    |r| graph.relation_feature_weight(r),
                    None,
                    &aligner_config,
                );
                pref_total += outcome.stats.attribute_comparisons;

                introductions += 1;
            }
        }
        let denom = introductions.max(1);
        points.push(ScalingPoint {
            existing_sources: catalog.sources().len(),
            exhaustive: exhaustive_total / denom,
            view_based: view_total / denom,
            preferential: pref_total / denom,
        });
    }
    ScalingResult { points }
}

/// Clone a source spec under a fresh name so it can be registered even when
/// the original relation is already present.
fn rename_spec(spec: &SourceSpec, index: usize) -> SourceSpec {
    let mut renamed = SourceSpec::new(&format!("{}_new_{index}", spec.name));
    for rel in &spec.relations {
        let mut r = q_storage::RelationSpec::new(
            &format!("{}_new_{index}", rel.name),
            &rel.attributes
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        );
        r.rows = rel.rows.clone();
        renamed = renamed.relation(r);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_grows_with_graph_size_but_pruned_strategies_do_not() {
        let result = run_scaling_experiment(&ScalingExperimentConfig {
            gbco: GbcoConfig {
                rows_per_table: 10,
                seed: 2,
            },
            graph_sizes: vec![18, 60],
            max_introductions: 6,
            ..ScalingExperimentConfig::default()
        });
        assert_eq!(result.points.len(), 2);
        let small = &result.points[0];
        let large = &result.points[1];
        // Exhaustive comparisons grow roughly with the number of sources.
        assert!(large.exhaustive > small.exhaustive);
        // The pruned strategies never exceed exhaustive at either size, and
        // the prior-bounded preferential aligner stays flat as the graph
        // grows (the Figure 8 claim that survives the tiny test configuration;
        // run the `experiments` binary for the full-size behaviour).
        assert!(small.view_based <= small.exhaustive);
        assert!(large.view_based <= large.exhaustive);
        assert!(small.preferential <= small.exhaustive);
        let pref_growth = large.preferential.saturating_sub(small.preferential);
        assert!(pref_growth <= small.preferential / 2 + 8);
    }
}

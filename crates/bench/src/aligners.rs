//! Figures 6 and 7: cost of aligning newly registered GBCO sources under the
//! three alignment strategies, with the metadata (COMA++-substitute) matcher
//! as the base matcher.
//!
//! Setup (Section 5.1): for each trial mined from the query log, the catalog
//! starts with every source except the trial's new ones; a keyword view is
//! created over the base relations; then each new source is registered and
//! aligned with EXHAUSTIVE, VIEWBASEDALIGNER (α = the view's k-th best cost)
//! and PREFERENTIALALIGNER, recording wall-clock time and pairwise attribute
//! comparisons with and without the value-overlap filter.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use q_align::{
    AlignerConfig, AlignmentStats, ExhaustiveAligner, PreferentialAligner, ViewBasedAligner,
};
use q_core::{view_nodes, LiveServer, QConfig, QueryRequest};
use q_datasets::gbco::{
    declare_foreign_keys, gbco_foreign_keys, gbco_source_specs, gbco_trials, GbcoConfig,
};
use q_matchers::MetadataMatcher;
use q_storage::{SourceSpec, ValueIndex};

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlignerExperimentConfig {
    /// GBCO generator configuration.
    pub gbco: GbcoConfig,
    /// Candidate alignments kept per attribute.
    pub top_y: usize,
    /// Relations the preferential aligner is allowed to compare against.
    pub preferential_limit: usize,
    /// Limit on the number of trials (0 = all 16).
    pub max_trials: usize,
}

impl Default for AlignerExperimentConfig {
    fn default() -> Self {
        AlignerExperimentConfig {
            gbco: GbcoConfig::default(),
            top_y: 2,
            preferential_limit: 4,
            max_trials: 0,
        }
    }
}

/// Per-strategy averages (one bar of Figure 6 / one bar group of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StrategyMeasurement {
    /// Mean wall-clock time per new-source introduction (Figure 6).
    pub mean_elapsed: Duration,
    /// Mean pairwise attribute comparisons, no filter (Figure 7).
    pub mean_comparisons: usize,
    /// Mean pairwise attribute comparisons with the value-overlap filter
    /// (Figure 7).
    pub mean_filtered_comparisons: usize,
    /// Mean number of relation-pair matcher calls.
    pub mean_matcher_calls: usize,
}

impl StrategyMeasurement {
    fn from_stats(stats: &[AlignmentStats]) -> Self {
        let mean = AlignmentStats::mean(stats);
        StrategyMeasurement {
            mean_elapsed: mean.elapsed,
            mean_comparisons: mean.attribute_comparisons,
            mean_filtered_comparisons: mean.filtered_comparisons,
            mean_matcher_calls: mean.matcher_calls,
        }
    }
}

/// Result of the Figures 6/7 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AlignerExperimentResult {
    /// EXHAUSTIVE strategy.
    pub exhaustive: StrategyMeasurement,
    /// VIEWBASEDALIGNER strategy.
    pub view_based: StrategyMeasurement,
    /// PREFERENTIALALIGNER strategy.
    pub preferential: StrategyMeasurement,
    /// Number of new-source introductions measured.
    pub introductions: usize,
}

/// Run the Figures 6/7 experiment.
pub fn run_aligner_experiment(config: &AlignerExperimentConfig) -> AlignerExperimentResult {
    let all_specs = gbco_source_specs(&config.gbco);
    let fks = gbco_foreign_keys();
    let matcher = MetadataMatcher::new();
    let mut trials = gbco_trials();
    if config.max_trials > 0 {
        trials.truncate(config.max_trials);
    }

    let mut exhaustive_stats = Vec::new();
    let mut view_stats = Vec::new();
    let mut pref_stats = Vec::new();
    let mut introductions = 0usize;

    for trial in &trials {
        // Catalog with everything except the trial's new sources.
        let base_specs: Vec<SourceSpec> = all_specs
            .iter()
            .filter(|s| !trial.new_sources.contains(&s.name))
            .cloned()
            .collect();
        let mut catalog = q_storage::loader::load_catalog(&base_specs).expect("base specs load");
        declare_foreign_keys(&mut catalog, &fks);

        // The user's view over the base relations, answered by the serving
        // engine so the α bound comes from real ranked queries.
        let live = LiveServer::new(catalog, QConfig::default());
        let base = live.snapshot();
        let view = base
            .answer(
                live.config(),
                &QueryRequest::new(trial.keywords.iter().cloned()),
            )
            .expect("view answers");
        let alpha = view.alpha().unwrap_or(f64::INFINITY);
        let view_nodes = view_nodes(
            base.graph(),
            base.keyword_index(),
            &live.config().match_config,
            &view.keywords,
        );

        for new_source_name in &trial.new_sources {
            let spec = all_specs
                .iter()
                .find(|s| &s.name == new_source_name)
                .expect("trial source exists");
            // Register the source's schema (catalog + graph) on the base
            // snapshot without running any aligner — the three strategies
            // are measured explicitly below on identical state.
            let mut catalog = base.catalog().clone();
            let source = spec.load_into(&mut catalog).expect("source loads");
            let mut graph = base.graph().clone();
            graph.add_source(&catalog, source);
            let value_index = ValueIndex::build(&catalog);

            let aligner_config = AlignerConfig {
                top_y: config.top_y,
                ..AlignerConfig::default()
            };

            let outcome = ExhaustiveAligner.align(
                &catalog,
                &matcher,
                source,
                Some(&value_index),
                &aligner_config,
            );
            exhaustive_stats.push(outcome.stats);

            let outcome = ViewBasedAligner::new(alpha).align(
                &catalog,
                &graph,
                &matcher,
                source,
                &view_nodes,
                Some(&value_index),
                &aligner_config,
            );
            view_stats.push(outcome.stats);

            let outcome = PreferentialAligner::new(config.preferential_limit).align(
                &catalog,
                &matcher,
                source,
                |r| graph.relation_feature_weight(r),
                Some(&value_index),
                &aligner_config,
            );
            pref_stats.push(outcome.stats);

            introductions += 1;
        }
    }

    AlignerExperimentResult {
        exhaustive: StrategyMeasurement::from_stats(&exhaustive_stats),
        view_based: StrategyMeasurement::from_stats(&view_stats),
        preferential: StrategyMeasurement::from_stats(&pref_stats),
        introductions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_strategies_do_less_work_than_exhaustive() {
        let result = run_aligner_experiment(&AlignerExperimentConfig {
            gbco: GbcoConfig {
                rows_per_table: 15,
                seed: 5,
            },
            max_trials: 3,
            ..AlignerExperimentConfig::default()
        });
        assert!(result.introductions >= 6);
        assert!(result.view_based.mean_comparisons <= result.exhaustive.mean_comparisons);
        assert!(result.preferential.mean_comparisons <= result.exhaustive.mean_comparisons);
        // The value-overlap filter can only reduce comparisons.
        assert!(result.exhaustive.mean_filtered_comparisons <= result.exhaustive.mean_comparisons);
    }
}

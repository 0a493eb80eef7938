//! Compare the three alignment search strategies on the synthetic GBCO
//! workload: how much work does each do when a new source is registered
//! (Figures 6 and 7 in miniature)?
//!
//! Run with `cargo run --release --example alignment_strategies`.

use q_align::{AlignerConfig, ExhaustiveAligner, PreferentialAligner, ViewBasedAligner};
use q_core::{view_nodes, LiveServer, QConfig, QueryRequest};
use q_datasets::gbco::{
    declare_foreign_keys, gbco_foreign_keys, gbco_source_specs, gbco_trials, GbcoConfig,
};
use q_matchers::MetadataMatcher;
use q_storage::ValueIndex;

fn main() {
    let specs = gbco_source_specs(&GbcoConfig {
        rows_per_table: 40,
        seed: 17,
    });
    let trial = &gbco_trials()[0];
    println!(
        "trial: keywords {:?}, view over {:?}, new sources {:?}\n",
        trial.keywords, trial.view_relations, trial.new_sources
    );

    // Catalog without the trial's new sources.
    let base: Vec<_> = specs
        .iter()
        .filter(|s| !trial.new_sources.contains(&s.name))
        .cloned()
        .collect();
    let mut catalog = q_storage::loader::load_catalog(&base).unwrap();
    declare_foreign_keys(&mut catalog, &gbco_foreign_keys());

    // The user's view provides the α bound for ViewBasedAligner.
    let live = LiveServer::new(catalog, QConfig::default());
    let base = live.snapshot();
    let view = base
        .answer(
            live.config(),
            &QueryRequest::new(trial.keywords.iter().cloned()),
        )
        .unwrap();
    let alpha = view.alpha().unwrap_or(f64::INFINITY);
    let view_nodes = view_nodes(
        base.graph(),
        base.keyword_index(),
        &live.config().match_config,
        &view.keywords,
    );
    println!(
        "view has {} ranked queries, alpha = {:.3}\n",
        view.queries.len(),
        alpha
    );

    let matcher = MetadataMatcher::new();
    println!(
        "{:<22} {:>12} {:>14} {:>18} {:>12}",
        "strategy", "matcher_calls", "comparisons", "with_value_filter", "time_us"
    );
    for name in &trial.new_sources {
        let spec = specs.iter().find(|s| &s.name == name).unwrap();
        let (catalog, source) = spec.load_incremental(base.catalog()).unwrap();
        let mut graph = base.graph().clone();
        graph.add_source(&catalog, source);
        let index = ValueIndex::build(&catalog);
        let config = AlignerConfig::default();

        println!("-- registering `{name}` --");
        let out = ExhaustiveAligner.align(&catalog, &matcher, source, Some(&index), &config);
        print_row("Exhaustive", &out.stats);
        let out = ViewBasedAligner::new(alpha).align(
            &catalog,
            &graph,
            &matcher,
            source,
            &view_nodes,
            Some(&index),
            &config,
        );
        print_row("ViewBasedAligner", &out.stats);
        let out = PreferentialAligner::new(4).align(
            &catalog,
            &matcher,
            source,
            |r| graph.relation_feature_weight(r),
            Some(&index),
            &config,
        );
        print_row("PreferentialAligner", &out.stats);
    }
}

fn print_row(name: &str, stats: &q_align::AlignmentStats) {
    println!(
        "{:<22} {:>12} {:>14} {:>18} {:>12}",
        name,
        stats.matcher_calls,
        stats.attribute_comparisons,
        stats.filtered_comparisons,
        stats.elapsed.as_micros()
    );
}

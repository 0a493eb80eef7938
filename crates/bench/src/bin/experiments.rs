//! Command-line experiment runner: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! Usage: `cargo run --release -p q-bench --bin experiments [fig6|fig7|fig8|table1|fig10|fig11|fig12|table2|all]`
//!
//! Serving performance (query latency, ingest delay, boot, memory) is not
//! measured here: that is `qbench`, see `benchmark/README.md`.

use q_bench::{
    run_aligner_experiment, run_learning_experiment, run_matcher_quality, run_scaling_experiment,
    AlignerExperimentConfig, LearningConfig, MatcherQualityConfig, ScalingExperimentConfig,
};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "fig6" => fig6_7(true, false),
        "fig7" => fig6_7(false, true),
        "fig8" => fig8(),
        "table1" => table1(),
        "fig10" => learning(&["fig10"]),
        "fig11" => learning(&["fig11"]),
        "fig12" => learning(&["fig12"]),
        "table2" => learning(&["table2"]),
        "all" => {
            fig6_7(true, true);
            fig8();
            table1();
            learning(&["fig10", "fig11", "fig12", "table2"]);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("expected one of: fig6 fig7 fig8 table1 fig10 fig11 fig12 table2 all");
            std::process::exit(2);
        }
    }
}

fn fig6_7(fig6: bool, fig7: bool) {
    let result = run_aligner_experiment(&AlignerExperimentConfig::default());
    if fig6 {
        println!("== Figure 6: aligner running time (avg per new-source introduction, metadata matcher) ==");
        println!("strategy              time_ms");
        println!(
            "Exhaustive            {:.3}",
            result.exhaustive.mean_elapsed.as_secs_f64() * 1e3
        );
        println!(
            "ViewBasedAligner      {:.3}",
            result.view_based.mean_elapsed.as_secs_f64() * 1e3
        );
        println!(
            "PreferentialAligner   {:.3}",
            result.preferential.mean_elapsed.as_secs_f64() * 1e3
        );
        println!(
            "(averaged over {} source introductions)",
            result.introductions
        );
        println!();
    }
    if fig7 {
        println!("== Figure 7: pairwise attribute comparisons per new-source introduction ==");
        println!("strategy              no_filter   value_overlap_filter");
        println!(
            "Exhaustive            {:>9}   {:>20}",
            result.exhaustive.mean_comparisons, result.exhaustive.mean_filtered_comparisons
        );
        println!(
            "ViewBasedAligner      {:>9}   {:>20}",
            result.view_based.mean_comparisons, result.view_based.mean_filtered_comparisons
        );
        println!(
            "PreferentialAligner   {:>9}   {:>20}",
            result.preferential.mean_comparisons, result.preferential.mean_filtered_comparisons
        );
        println!(
            "(averaged over {} source introductions)",
            result.introductions
        );
        println!();
    }
}

fn fig8() {
    let result = run_scaling_experiment(&ScalingExperimentConfig::default());
    println!("== Figure 8: pairwise column comparisons vs search graph size ==");
    println!("existing_sources   Exhaustive   ViewBasedAligner   PreferentialAligner");
    for p in &result.points {
        println!(
            "{:>16}   {:>10}   {:>16}   {:>19}",
            p.existing_sources, p.exhaustive, p.view_based, p.preferential
        );
    }
    println!();
}

fn table1() {
    let result = run_matcher_quality(&MatcherQualityConfig::default());
    println!("== Table 1: top-Y alignment quality vs the 8 gold edges (InterPro-GO) ==");
    println!("Y   system     precision   recall   f_measure");
    for row in &result.rows {
        let label = if row.matcher == "metadata" {
            "COMA++*"
        } else {
            "MAD"
        };
        println!(
            "{}   {:<8}   {:>9.2}   {:>6.2}   {:>9.2}",
            row.y, label, row.precision, row.recall, row.f_measure
        );
    }
    println!("(* metadata matcher standing in for COMA++; see DESIGN.md)");
    println!();
}

fn print_curve(name: &str, curve: &[q_core::PrPoint]) {
    println!("-- {name} (threshold, recall, precision) --");
    for p in curve {
        println!("{:.4}  {:.3}  {:.3}", p.threshold, p.recall, p.precision);
    }
}

fn learning(parts: &[&str]) {
    let result = run_learning_experiment(&LearningConfig::default());
    if parts.contains(&"fig10") {
        println!("== Figure 10: precision-recall, matchers vs Q (10 queries x 4 replays) ==");
        print_curve("COMA++* alone", &result.metadata_pr);
        print_curve("MAD alone", &result.mad_pr);
        print_curve("Q (learned, 10x4 feedback)", &result.q_pr_final);
        println!();
    }
    if parts.contains(&"fig11") {
        println!("== Figure 11: precision-recall for Q with increasing feedback ==");
        print_curve("Average(COMA++*, MAD) — no feedback", &result.baseline_pr);
        print_curve("Q (1 x 1)", &result.q_pr_after_1);
        print_curve("Q (10 x 1)", &result.q_pr_after_pass_1);
        print_curve("Q (10 x 2)", &result.q_pr_after_pass_2);
        print_curve("Q (10 x 4)", &result.q_pr_final);
        println!();
    }
    if parts.contains(&"fig12") {
        println!("== Figure 12: average gold vs non-gold edge cost per feedback step ==");
        println!("step   gold_avg_cost   non_gold_avg_cost");
        for (i, s) in result.edge_cost_trajectory.iter().enumerate() {
            println!(
                "{:>4}   {:>13.4}   {:>17.4}",
                i + 1,
                s.gold_mean,
                s.non_gold_mean
            );
        }
        println!();
    }
    if parts.contains(&"table2") {
        println!("== Table 2: feedback steps to first reach precision 1.0 at each recall level ==");
        println!("recall_level(%)   feedback_steps");
        for (level, step) in &result.steps_to_perfect_precision {
            match step {
                Some(s) => println!("{:>15.1}   {:>14}", level, s),
                None => println!("{:>15.1}   {:>14}", level, "not reached"),
            }
        }
        println!("(total feedback steps applied: {})", result.feedback_steps);
        println!();
    }
}

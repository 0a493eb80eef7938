//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each experiment is a library function returning a plain result struct so
//! that both the `experiments` binary (which prints the paper-style rows) and
//! the Criterion benches can drive it. See DESIGN.md for the per-experiment
//! index; the `experiments` binary prints the paper-vs-measured numbers.

pub mod aligners;
pub mod learning;
pub mod matchers;
pub mod scaling;

pub use aligners::{
    run_aligner_experiment, AlignerExperimentConfig, AlignerExperimentResult, StrategyMeasurement,
};
pub use learning::{run_learning_experiment, LearningConfig, LearningResult};
pub use matchers::{
    run_matcher_quality, MatcherQualityConfig, MatcherQualityResult, MatcherQualityRow,
};
pub use scaling::{run_scaling_experiment, ScalingExperimentConfig, ScalingPoint, ScalingResult};

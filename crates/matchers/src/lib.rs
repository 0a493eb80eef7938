//! Schema-matching primitives for the Q system (Section 3.2).
//!
//! Q treats schema matchers as pluggable black boxes that emit
//! `(attribute pair, confidence)` alignments. Two complementary matchers are
//! provided, mirroring the paper's choice of COMA++ and MAD:
//!
//! * [`MetadataMatcher`] — a similarity-based metadata matcher in the style
//!   of COMA++ (the proprietary tool used by the paper): it combines token,
//!   trigram, edit-distance, substring and structural sub-matchers over
//!   relation and attribute *names*, and is blind to instance data.
//! * [`MadMatcher`] — the paper's new instance-level matcher: Modified
//!   Adsorption (MAD) label propagation over a column–value graph
//!   (Algorithm 1), which discovers type-compatible attributes through
//!   transitive value overlap without pairwise source comparisons.
//!
//! Both implement the [`SchemaMatcher`] trait so the aligners in `q-align`
//! and the Q pipeline in `q-core` can use either (or both) interchangeably.

pub mod mad;
pub mod matcher;
pub mod metadata;
mod strings;

pub use mad::{MadConfig, MadMatcher, MadResult};
pub use matcher::{keep_top_y_per_attribute, AttributeAlignment, SchemaMatcher};
pub use metadata::{MetadataMatcher, MetadataMatcherConfig};

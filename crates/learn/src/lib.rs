//! Online learning of association costs from user feedback (Section 4,
//! Algorithm 4).
//!
//! Q converts each piece of feedback on query answers into ranking
//! constraints over the Steiner trees that produced them: the tree the user
//! endorsed must cost less than every other candidate tree by a margin equal
//! to their edge-set difference (Equation 2). The [`Mira`] learner performs
//! the margin-infused update — the minimal change to the weight vector that
//! satisfies those constraints — using cyclic Hildreth projections, the
//! standard way MIRA handles multiple constraints per example.
//!
//! Zero-cost edges (attribute–relation and value–attribute edges) carry no
//! features, so the equality constraints `w · f_ij = 0` of Algorithm 4 hold
//! by construction; positivity of the remaining edge costs is maintained by
//! [`enforce_positive_costs`], which raises the shared default-feature weight
//! — exactly the uniform cost offset the paper describes.

pub mod mira;

pub use mira::{
    constraints_from_candidates, enforce_positive_costs, Mira, MiraConfig, MiraUpdateSummary,
    TreeConstraint,
};

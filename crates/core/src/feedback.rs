//! User feedback on view answers (Section 4).
//!
//! The user annotates answers as valid, invalid, or better-than-some-other
//! answer; Q generalises each annotation to the query tree that produced the
//! answer (via its provenance) and feeds ranking constraints to the MIRA
//! learner. This module defines the feedback vocabulary ([`Feedback`]), the
//! typed request surface ([`FeedbackRequest`], which names the annotated
//! answers by their keyword query — what
//! [`LiveServer::feedback`](crate::LiveServer::feedback) consumes, and what
//! the network `/feedback` endpoint decodes into) and the outcome report
//! ([`FeedbackOutcome`]).

use serde::{Deserialize, Serialize};

/// One piece of user feedback on a view's answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feedback {
    /// The answer at this index is a valid result: its originating query must
    /// cost no more than any other candidate query.
    Correct {
        /// Index into the view's answers.
        answer: usize,
    },
    /// The answer at this index is wrong: its originating query must cost
    /// more than the best alternative query.
    Invalid {
        /// Index into the view's answers.
        answer: usize,
    },
    /// The first answer should be ranked above the second.
    Prefer {
        /// Index of the answer that should rank higher.
        better: usize,
        /// Index of the answer that should rank lower.
        worse: usize,
    },
}

/// A typed feedback request: the keyword query whose ranked answers are
/// annotated, and the annotation.
/// [`LiveServer::feedback`](crate::LiveServer::feedback) annotates the
/// current snapshot's sequential answer for the keywords.
///
/// ```no_run
/// use q_core::{Feedback, FeedbackRequest};
///
/// let request = FeedbackRequest::on_keywords(
///     ["plasma membrane", "entry"],
///     Feedback::Prefer { better: 0, worse: 2 },
/// );
/// # let _ = request;
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackRequest {
    keywords: Vec<String>,
    feedback: Feedback,
}

impl FeedbackRequest {
    /// Feedback on the ranked answers of a keyword query.
    pub fn on_keywords<I, S>(keywords: I, feedback: Feedback) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FeedbackRequest {
            keywords: keywords.into_iter().map(Into::into).collect(),
            feedback,
        }
    }

    /// The keyword query whose answers are annotated.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// The annotation itself.
    pub fn feedback(&self) -> Feedback {
        self.feedback
    }
}

/// What a feedback application did to the model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FeedbackOutcome {
    /// Index (within the view's ranked queries) of the tree treated as the
    /// feedback target `T_r`.
    pub target_query: usize,
    /// Number of ranking constraints generated.
    pub constraints: usize,
    /// Constraints violated before the update.
    pub initially_violated: usize,
    /// Constraints still violated after the update.
    pub remaining_violations: usize,
    /// How much the shared default weight was raised to keep all edge costs
    /// positive (0 when no adjustment was needed).
    pub default_weight_bump: f64,
    /// Size of the weight delta this re-pricing produced: the number of
    /// features whose weight changed (MIRA update plus positivity repair).
    /// The answer cache revalidates against exactly this delta instead of
    /// cold-starting — `0` means no cached answer's price moved at all.
    pub repriced_features: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_variants_are_comparable() {
        assert_eq!(
            Feedback::Correct { answer: 1 },
            Feedback::Correct { answer: 1 }
        );
        assert_ne!(
            Feedback::Correct { answer: 1 },
            Feedback::Invalid { answer: 1 }
        );
        let p = Feedback::Prefer {
            better: 0,
            worse: 3,
        };
        if let Feedback::Prefer { better, worse } = p {
            assert!(better < worse);
        }
    }

    #[test]
    fn outcome_default_is_zeroed() {
        let o = FeedbackOutcome::default();
        assert_eq!(o.constraints, 0);
        assert_eq!(o.default_weight_bump, 0.0);
    }
}

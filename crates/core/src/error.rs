//! Error type of the Q system.
//!
//! [`QError`] is the single error type every façade entry point returns. It
//! forms the top of the workspace error chain: storage failures are wrapped
//! in structured variants that keep the operation context (which source was
//! loading, which keywords were materialising) and expose the underlying
//! [`StorageError`] through [`std::error::Error::source`], so callers can
//! both render one informative message and walk the chain programmatically.

use std::fmt;

use q_storage::{AttributeId, StorageError};

/// Errors surfaced by the Q system API.
#[derive(Debug, Clone, PartialEq)]
pub enum QError {
    /// An underlying storage operation failed (no extra context available;
    /// produced by the blanket `From<StorageError>` conversion).
    Storage(StorageError),
    /// Loading a source specification into the catalog failed.
    SourceLoad {
        /// Name of the source being registered.
        source_name: String,
        /// The storage-layer failure.
        source: StorageError,
    },
    /// Materialising a keyword query's ranked view failed in the executor.
    ViewMaterialization {
        /// The (verbatim) keywords of the failing query.
        keywords: Vec<String>,
        /// The storage-layer failure.
        source: StorageError,
    },
    /// A [`QueryRequest`](crate::QueryRequest) carried an unusable parameter.
    InvalidRequest {
        /// The offending request field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The referenced answer index does not exist in the view.
    UnknownAnswer {
        /// How many answers the view has.
        answers: usize,
        /// Offending answer index.
        answer: usize,
    },
    /// An ingest's alignment strategy proposed an alignment that does not
    /// start at an attribute of the source being ingested
    /// ([`LiveServer::ingest_source_with`](crate::LiveServer::ingest_source_with)).
    MisplacedAlignment {
        /// Name of the source being ingested.
        source_name: String,
        /// The offending alignment's `new_attribute`.
        attribute: AttributeId,
    },
    /// A keyword query produced no usable query trees.
    NoQueryTrees,
}

impl QError {
    /// Stable machine-readable error code, one per variant. These are part
    /// of the versioned wire contract: the network layer serialises every
    /// error as `{"code": <this>, "message": <Display>}` and maps codes to
    /// HTTP statuses, so codes may be added but never renamed within a wire
    /// version.
    pub fn code(&self) -> &'static str {
        match self {
            QError::Storage(_) => "storage",
            QError::SourceLoad { .. } => "source_load",
            QError::ViewMaterialization { .. } => "view_materialization",
            QError::InvalidRequest { .. } => "invalid_request",
            QError::UnknownAnswer { .. } => "unknown_answer",
            QError::MisplacedAlignment { .. } => "misplaced_alignment",
            QError::NoQueryTrees => "no_query_trees",
        }
    }
}

impl fmt::Display for QError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QError::Storage(e) => write!(f, "storage error: {e}"),
            QError::SourceLoad {
                source_name,
                source,
            } => write!(f, "loading source `{source_name}` failed: {source}"),
            QError::ViewMaterialization { keywords, source } => {
                write!(f, "materialising view for {keywords:?} failed: {source}")
            }
            QError::InvalidRequest { field, reason } => {
                write!(f, "invalid query request: `{field}` {reason}")
            }
            QError::UnknownAnswer { answers, answer } => {
                let plural = if *answers == 1 { "" } else { "s" };
                write!(
                    f,
                    "no answer #{answer}: the view has {answers} answer{plural}"
                )
            }
            QError::MisplacedAlignment {
                source_name,
                attribute,
            } => write!(
                f,
                "alignment from {attribute} is not on the ingested source `{source_name}`"
            ),
            QError::NoQueryTrees => write!(f, "keyword query produced no query trees"),
        }
    }
}

impl std::error::Error for QError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QError::Storage(e)
            | QError::SourceLoad { source: e, .. }
            | QError::ViewMaterialization { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for QError {
    fn from(e: StorageError) -> Self {
        QError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_are_informative() {
        let e = QError::UnknownAnswer {
            answers: 3,
            answer: 9,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('9'));
        let e: QError = StorageError::UnknownRelation("x".into()).into();
        assert!(matches!(e, QError::Storage(_)));
        assert!(e.to_string().contains("storage"));
        let e = QError::InvalidRequest {
            field: "top_k",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("top_k"));
    }

    #[test]
    fn contextual_variants_chain_to_the_storage_error() {
        let inner = StorageError::DuplicateSource("go".into());
        let e = QError::SourceLoad {
            source_name: "go".into(),
            source: inner.clone(),
        };
        // Display keeps both the context and the storage message.
        let msg = e.to_string();
        assert!(msg.contains("loading source `go`"));
        assert!(msg.contains("duplicate source"));
        // `source()` walks down to the StorageError, which is the leaf.
        let chained = e.source().expect("wraps a storage error");
        let storage = chained
            .downcast_ref::<StorageError>()
            .expect("source is the StorageError");
        assert_eq!(storage, &inner);
        assert!(chained.source().is_none());
    }

    #[test]
    fn materialization_errors_carry_the_keywords() {
        let e = QError::ViewMaterialization {
            keywords: vec!["plasma".into(), "entry".into()],
            source: StorageError::InvalidAtom(7),
        };
        assert!(e.to_string().contains("plasma"));
        assert!(e.source().is_some());
    }

    #[test]
    fn every_variant_has_a_distinct_stable_code() {
        let variants = [
            QError::Storage(StorageError::InvalidAtom(0)),
            QError::SourceLoad {
                source_name: "s".into(),
                source: StorageError::InvalidAtom(0),
            },
            QError::ViewMaterialization {
                keywords: vec![],
                source: StorageError::InvalidAtom(0),
            },
            QError::InvalidRequest {
                field: "top_k",
                reason: String::new(),
            },
            QError::UnknownAnswer {
                answers: 0,
                answer: 0,
            },
            QError::MisplacedAlignment {
                source_name: "s".into(),
                attribute: AttributeId(0),
            },
            QError::NoQueryTrees,
        ];
        let codes: Vec<&str> = variants.iter().map(QError::code).collect();
        let mut deduped = codes.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), codes.len(), "codes must be distinct");
        for code in codes {
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "wire codes are snake_case: {code}"
            );
        }
    }

    #[test]
    fn leaf_variants_have_no_source() {
        assert!(QError::NoQueryTrees.source().is_none());
        assert!(QError::UnknownAnswer {
            answers: 0,
            answer: 0
        }
        .source()
        .is_none());
        assert!(QError::MisplacedAlignment {
            source_name: "s".into(),
            attribute: AttributeId(0),
        }
        .source()
        .is_none());
    }
}

//! Error type shared by the storage substrate.

use std::fmt;

/// Errors raised by catalog manipulation, loading and query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A source with the given name already exists in the catalog.
    DuplicateSource(String),
    /// A relation with the given name already exists in its source.
    DuplicateRelation(String),
    /// An attribute with the given name already exists in its relation.
    DuplicateAttribute(String),
    /// The referenced source does not exist.
    UnknownSource(String),
    /// The referenced relation does not exist.
    UnknownRelation(String),
    /// The referenced attribute does not exist.
    UnknownAttribute(String),
    /// A tuple had the wrong arity for its relation.
    ArityMismatch {
        /// Relation the tuple was inserted into.
        relation: String,
        /// Number of attributes declared by the relation.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A query referenced an atom index that does not exist.
    InvalidAtom(usize),
    /// A query was structurally invalid (e.g. empty atom list).
    InvalidQuery(String),
    /// A source, relation or attribute name in a source spec is empty or
    /// contains `.`, the separator of qualified `relation.attribute` names.
    InvalidName {
        /// What the name names: `"source"`, `"relation"` or `"attribute"`.
        kind: &'static str,
        /// The rejected name.
        name: String,
    },
    /// A relation in a source spec declares no attributes.
    NoAttributes(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateSource(name) => write!(f, "duplicate source `{name}`"),
            StorageError::DuplicateRelation(name) => write!(f, "duplicate relation `{name}`"),
            StorageError::DuplicateAttribute(name) => write!(f, "duplicate attribute `{name}`"),
            StorageError::UnknownSource(name) => write!(f, "unknown source `{name}`"),
            StorageError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            StorageError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            StorageError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch inserting into `{relation}`: expected {expected} values, got {got}"
            ),
            StorageError::InvalidAtom(idx) => write!(f, "query references unknown atom #{idx}"),
            StorageError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            StorageError::InvalidName { kind, name } => {
                write!(f, "invalid {kind} name `{name}`: empty or contains `.`")
            }
            StorageError::NoAttributes(relation) => {
                write!(f, "relation `{relation}` declares no attributes")
            }
        }
    }
}

// `StorageError` is the leaf of the workspace error chain: `q_core::QError`
// wraps it in structured variants whose `Error::source()` returns the
// `StorageError`, so façade users can walk `error → source()` from the API
// surface down to the storage failure. Nothing sits below storage, so the
// default `source() == None` is correct here.
impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = StorageError::ArityMismatch {
            relation: "go_term".into(),
            expected: 3,
            got: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains("go_term"));
        assert!(msg.contains('3'));
        assert!(msg.contains('2'));
    }

    #[test]
    fn storage_error_is_a_chain_leaf() {
        use std::error::Error;
        let err = StorageError::UnknownSource("go".into());
        assert!(err.source().is_none(), "storage errors wrap nothing");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::UnknownRelation("pub".into()),
            StorageError::UnknownRelation("pub".into())
        );
        assert_ne!(
            StorageError::UnknownRelation("pub".into()),
            StorageError::UnknownSource("pub".into())
        );
    }
}

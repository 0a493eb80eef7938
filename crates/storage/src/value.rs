//! Typed data values.
//!
//! The paper's search graph treats data values as graph nodes that can be
//! matched against keywords and compared across attributes (for value
//! overlap and for the MAD label-propagation graph). Values therefore carry
//! a canonical *normalised* text form used by all matching code.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single data value stored in a tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Missing / unknown value.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Free text (identifiers, names, titles, ...).
    Text(String),
}

impl Value {
    /// Normalised textual form used for keyword matching, value-overlap
    /// computation and MAD value nodes: lower-cased, trimmed.
    ///
    /// Returns `None` for nulls so that missing data never matches anything.
    pub fn normalized(&self) -> Option<String> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(i.to_string()),
            Value::Float(x) => Some(format!("{x}")),
            Value::Text(s) => Some(crate::text::normalize(s)).filter(|t| !t.is_empty()),
        }
    }

    /// True if the value is textual and non-numeric.
    ///
    /// The paper prunes numeric value nodes from the MAD graph because they
    /// "are likely to induce spurious associations between attributes"
    /// (Section 5.2.1); this predicate implements that check.
    pub fn is_textual(&self) -> bool {
        match self {
            Value::Text(s) => {
                let t = s.trim();
                !t.is_empty() && t.parse::<f64>().is_err()
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_lowercases_and_trims() {
        assert_eq!(
            Value::Text("  Plasma Membrane ".into()).normalized(),
            Some("plasma membrane".to_string())
        );
    }

    #[test]
    fn null_and_empty_normalize_to_none() {
        assert_eq!(Value::Null.normalized(), None);
        assert_eq!(Value::Text("   ".into()).normalized(), None);
    }

    #[test]
    fn numeric_values_normalize_to_digits() {
        assert_eq!(Value::Int(42).normalized(), Some("42".into()));
        assert_eq!(Value::Float(1.5).normalized(), Some("1.5".into()));
    }

    #[test]
    fn textual_detection_excludes_numbers() {
        assert!(Value::Text("GO:0005134".into()).is_textual());
        assert!(!Value::Text("12345".into()).is_textual());
        assert!(!Value::Text("3.25".into()).is_textual());
        assert!(!Value::Int(7).is_textual());
        assert!(!Value::Null.is_textual());
    }

    #[test]
    fn join_semantics_ignore_case_and_nulls() {
        // The executor joins on normalised forms; nulls have none.
        let norm = |v: Value| v.normalized();
        assert_eq!(norm(Value::from("GO:1")), norm(Value::from("go:1")));
        assert_eq!(norm(Value::Null), None);
        assert_eq!(norm(Value::Int(5)), norm(Value::from("5")));
    }

    #[test]
    fn display_round_trips_text() {
        assert_eq!(Value::Text("abc".into()).to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}

//! Search-graph and query-graph nodes.

use serde::{Deserialize, Serialize};
use std::fmt;

use q_storage::{AttributeId, RelationId};

/// Dense node identifier within a [`SearchGraph`](crate::SearchGraph) or
/// [`QueryGraph`](crate::QueryGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kinds of node in the graphs of Section 2.1 / 2.2.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Node {
    /// A relation (rounded rectangle in Figure 2).
    Relation(RelationId),
    /// An attribute (ellipse in Figure 2).
    Attribute(AttributeId),
    /// A data value, lazily materialised into the query graph when a keyword
    /// matches it (Section 2.2).
    Value {
        /// Attribute the value occurs in.
        attribute: AttributeId,
        /// Normalised value text.
        value: String,
    },
    /// A keyword node of the query graph (bold italics in Figure 3).
    Keyword(String),
}

impl Node {
    /// Relation id if this is a relation node.
    pub fn as_relation(&self) -> Option<RelationId> {
        match self {
            Node::Relation(r) => Some(*r),
            _ => None,
        }
    }

    /// Attribute id if this is an attribute node.
    pub fn as_attribute(&self) -> Option<AttributeId> {
        match self {
            Node::Attribute(a) => Some(*a),
            _ => None,
        }
    }

    /// True for keyword nodes.
    pub fn is_keyword(&self) -> bool {
        matches!(self, Node::Keyword(_))
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Relation(r) => write!(f, "relation({r})"),
            Node::Attribute(a) => write!(f, "attribute({a})"),
            Node::Value { attribute, value } => write!(f, "value({attribute}:{value})"),
            Node::Keyword(k) => write!(f, "keyword({k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_accessors() {
        assert_eq!(
            Node::Relation(RelationId(3)).as_relation(),
            Some(RelationId(3))
        );
        assert_eq!(Node::Relation(RelationId(3)).as_attribute(), None);
        assert_eq!(
            Node::Attribute(AttributeId(5)).as_attribute(),
            Some(AttributeId(5))
        );
        assert!(Node::Keyword("publication".into()).is_keyword());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert!(Node::Keyword("title".into()).to_string().contains("title"));
    }
}

//! In-memory relational substrate for the Q data-integration system.
//!
//! The Q system (Talukdar, Ives, Pereira — SIGMOD 2010) queries a collection
//! of autonomous relational *sources*. This crate provides the storage layer
//! those sources live in:
//!
//! * a [`Catalog`] holding sources, relations, attributes, foreign keys and
//!   tuples,
//! * typed [`Value`]s and the one [`text`] model (normalise, tokenise,
//!   character trigrams) used for keyword and name matching,
//! * a [`ValueIndex`] of distinct values per attribute, used by the
//!   value-overlap filter of the alignment experiments (Figure 7), and
//! * a small conjunctive-query [`executor`](crate::exec) that evaluates the
//!   select/join/selection trees produced from Steiner trees.
//!
//! The crate is deliberately self-contained: the rest of the workspace treats
//! it as "the databases" the paper integrates.

pub mod catalog;
pub mod error;
pub mod exec;
pub mod index;
pub mod loader;
pub mod schema;
pub mod text;
pub mod tuple;
pub mod value;

pub use catalog::{Catalog, Source};
pub use error::StorageError;
pub use exec::{AttrRef, ConjunctiveQuery, JoinPredicate, QueryAtom, ResultSet, Selection};
pub use index::ValueIndex;
pub use loader::{RelationSpec, SourceSpec};
pub use schema::{Attribute, AttributeId, ForeignKey, Relation, RelationId, SourceId};
pub use tuple::Tuple;
pub use value::Value;

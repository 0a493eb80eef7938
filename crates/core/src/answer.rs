//! Ranked views, ranked queries and answers with provenance (Section 2.2).

use serde::{Deserialize, Serialize};

use q_graph::SteinerTree;
use q_storage::{AttributeId, ConjunctiveQuery, Value};

/// One ranked conjunctive query of a view: the Steiner tree it came from, the
/// executable query, and its cost (the `e` term output by each union branch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedQuery {
    /// The Steiner tree over the query graph that produced this query.
    pub tree: SteinerTree,
    /// The executable conjunctive query.
    pub query: ConjunctiveQuery,
    /// Cost of the tree (lower ranks higher).
    pub cost: f64,
}

/// A single answer row with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// Values aligned to the view's output schema (None = this query does not
    /// produce that column).
    pub values: Vec<Option<Value>>,
    /// Index into [`RankedView::queries`] of the originating query.
    pub query_index: usize,
    /// Cost of the originating query (duplicated for convenient ranking).
    pub cost: f64,
}

/// A ranked keyword-query view: its definition (ranked queries) and its
/// current materialised contents.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RankedView {
    /// The user's keywords.
    pub keywords: Vec<String>,
    /// Unified output schema: one label per column. Labels are qualified
    /// attribute names; compatible attributes from different queries share a
    /// column (Section 2.2's disjoint union construction).
    pub columns: Vec<String>,
    /// The attribute each column label was first derived from.
    pub column_sources: Vec<AttributeId>,
    /// Top-k ranked queries in increasing cost order.
    pub queries: Vec<RankedQuery>,
    /// Materialised answers in increasing cost order.
    pub answers: Vec<Answer>,
}

impl RankedView {
    /// Cost of the k-th (worst) ranked query — the α used by
    /// ViewBasedAligner's pruning. `None` when the view has no queries.
    pub fn alpha(&self) -> Option<f64> {
        self.queries
            .iter()
            .map(|q| q.cost)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.max(c))))
    }

    /// The best (lowest-cost) query, if any.
    pub fn best_query(&self) -> Option<&RankedQuery> {
        self.queries.first()
    }

    /// Number of materialised answers.
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_graph::{EdgeId, NodeId};

    fn query(cost: f64) -> RankedQuery {
        RankedQuery {
            tree: SteinerTree {
                edges: vec![EdgeId(0)],
                nodes: vec![NodeId(0)],
                cost,
            },
            query: ConjunctiveQuery::new(),
            cost,
        }
    }

    #[test]
    fn alpha_is_the_worst_query_cost() {
        let view = RankedView {
            queries: vec![query(1.0), query(2.5), query(2.0)],
            ..RankedView::default()
        };
        assert_eq!(view.alpha(), Some(2.5));
        assert_eq!(view.best_query().unwrap().cost, 1.0);
        assert_eq!(RankedView::default().alpha(), None);
    }

    #[test]
    fn answer_count_counts_the_answers_of_every_query() {
        let answer = |query_index| Answer {
            values: vec![],
            query_index,
            cost: 1.0,
        };
        let view = RankedView {
            answers: vec![answer(0), answer(1), answer(0)],
            ..RankedView::default()
        };
        assert_eq!(view.answer_count(), 3);
    }
}

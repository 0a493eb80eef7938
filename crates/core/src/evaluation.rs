//! Evaluation machinery for the Section 5.2 experiments: precision / recall
//! of the search graph's association edges against a gold standard, PR curves
//! under a sweeping cost or confidence threshold, gold vs non-gold average
//! edge costs, and the simulated-feedback target selection.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use q_graph::{EdgeKind, SearchGraph};
use q_matchers::AttributeAlignment;
use q_storage::AttributeId;

use crate::answer::RankedView;

/// Canonical (smaller id first) attribute pair.
pub type AttrPair = (AttributeId, AttributeId);

fn canonical(a: AttributeId, b: AttributeId) -> AttrPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One point of a precision–recall curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrPoint {
    /// The threshold that produced this point (edge-cost ceiling or
    /// confidence floor depending on the curve).
    pub threshold: f64,
    /// Recall against the gold standard.
    pub recall: f64,
    /// Precision of the predicted edges.
    pub precision: f64,
}

/// Average association-edge costs split by gold membership (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EdgeCostSummary {
    /// Mean cost of association edges that are in the gold standard.
    pub gold_mean: f64,
    /// Mean cost of association edges that are not.
    pub non_gold_mean: f64,
    /// Number of gold association edges present in the graph.
    pub gold_edges: usize,
    /// Number of non-gold association edges present in the graph.
    pub non_gold_edges: usize,
}

/// Compute precision / recall / F-measure from predicted and gold pair sets.
fn precision_recall(predicted: &HashSet<AttrPair>, gold: &HashSet<AttrPair>) -> (f64, f64, f64) {
    if predicted.is_empty() || gold.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let hits = predicted.intersection(gold).count() as f64;
    let precision = hits / predicted.len() as f64;
    let recall = hits / gold.len() as f64;
    let f = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f)
}

/// Predicted pairs from a set of matcher alignments: the top-`top_y`
/// candidates per new attribute with confidence at or above `min_confidence`.
fn predicted_from_alignments(
    alignments: &[AttributeAlignment],
    top_y: usize,
    min_confidence: f64,
) -> HashSet<AttrPair> {
    let mut per_attr: HashMap<AttributeId, Vec<&AttributeAlignment>> = HashMap::new();
    for a in alignments {
        per_attr.entry(a.new_attribute).or_default().push(a);
    }
    let mut predicted = HashSet::new();
    for (_, mut list) in per_attr {
        list.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(a.existing_attribute.cmp(&b.existing_attribute))
        });
        for a in list.into_iter().take(top_y) {
            if a.confidence >= min_confidence {
                predicted.insert(canonical(a.new_attribute, a.existing_attribute));
            }
        }
    }
    predicted
}

/// Precision / recall / F of matcher alignments against the gold standard
/// (Table 1 rows).
pub fn precision_recall_alignments(
    alignments: &[AttributeAlignment],
    gold: &HashSet<AttrPair>,
    top_y: usize,
    min_confidence: f64,
) -> (f64, f64, f64) {
    let predicted = predicted_from_alignments(alignments, top_y, min_confidence);
    precision_recall(&predicted, gold)
}

/// Predicted pairs from the search graph: for each attribute its `top_y`
/// cheapest incident association edges whose cost is at most
/// `cost_threshold`.
fn predicted_from_graph(
    graph: &SearchGraph,
    top_y: usize,
    cost_threshold: f64,
) -> HashSet<AttrPair> {
    let mut per_attr: HashMap<AttributeId, Vec<(f64, AttrPair)>> = HashMap::new();
    for (edge, a, b) in graph.association_edges() {
        let cost = graph.edge_cost(edge);
        if cost > cost_threshold {
            continue;
        }
        let pair = canonical(a, b);
        per_attr.entry(a).or_default().push((cost, pair));
        per_attr.entry(b).or_default().push((cost, pair));
    }
    let mut predicted = HashSet::new();
    for (_, mut edges) in per_attr {
        edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        for (_, pair) in edges.into_iter().take(top_y) {
            predicted.insert(pair);
        }
    }
    predicted
}

/// Precision / recall / F of the search graph's association edges against the
/// gold standard, under a cost threshold.
pub fn precision_recall_graph(
    graph: &SearchGraph,
    gold: &HashSet<AttrPair>,
    top_y: usize,
    cost_threshold: f64,
) -> (f64, f64, f64) {
    precision_recall(&predicted_from_graph(graph, top_y, cost_threshold), gold)
}

/// PR curve over the graph's association edges, sweeping the cost threshold
/// across the observed edge-cost range (Figures 10 and 11).
pub fn pr_curve_from_graph(
    graph: &SearchGraph,
    gold: &HashSet<AttrPair>,
    top_y: usize,
) -> Vec<PrPoint> {
    let mut costs: Vec<f64> = graph
        .association_edges()
        .map(|(e, _, _)| graph.edge_cost(e))
        .collect();
    costs.sort_by(|a, b| a.total_cmp(b));
    costs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    costs
        .into_iter()
        .map(|threshold| {
            let (precision, recall, _) = precision_recall_graph(graph, gold, top_y, threshold);
            PrPoint {
                threshold,
                recall,
                precision,
            }
        })
        .collect()
}

/// PR curve over raw matcher alignments, sweeping the confidence floor
/// (the COMA++ / MAD curves of Figure 10).
pub fn pr_curve_from_alignments(
    alignments: &[AttributeAlignment],
    gold: &HashSet<AttrPair>,
    top_y: usize,
) -> Vec<PrPoint> {
    let mut confidences: Vec<f64> = alignments.iter().map(|a| a.confidence).collect();
    confidences.sort_by(|a, b| b.total_cmp(a));
    confidences.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    confidences
        .into_iter()
        .map(|threshold| {
            let (precision, recall, _) =
                precision_recall_alignments(alignments, gold, top_y, threshold);
            PrPoint {
                threshold,
                recall,
                precision,
            }
        })
        .collect()
}

/// Average cost of gold vs non-gold association edges (Figure 12).
pub fn average_edge_costs(graph: &SearchGraph, gold: &HashSet<AttrPair>) -> EdgeCostSummary {
    let mut summary = EdgeCostSummary::default();
    let mut gold_total = 0.0;
    let mut non_gold_total = 0.0;
    for (edge, a, b) in graph.association_edges() {
        let cost = graph.edge_cost(edge);
        if gold.contains(&canonical(a, b)) {
            summary.gold_edges += 1;
            gold_total += cost;
        } else {
            summary.non_gold_edges += 1;
            non_gold_total += cost;
        }
    }
    if summary.gold_edges > 0 {
        summary.gold_mean = gold_total / summary.gold_edges as f64;
    }
    if summary.non_gold_edges > 0 {
        summary.non_gold_mean = non_gold_total / summary.non_gold_edges as f64;
    }
    summary
}

/// Association-edge pairs used by one ranked query of a view.
fn association_pairs_of_query(
    view: &RankedView,
    graph: &SearchGraph,
    query_index: usize,
) -> Vec<AttrPair> {
    let Some(query) = view.queries.get(query_index) else {
        return Vec::new();
    };
    let mut pairs = Vec::new();
    for edge_id in &query.tree.edges {
        if edge_id.index() >= graph.edge_count() {
            continue; // query-local keyword/value edge
        }
        let edge = graph.edge(*edge_id);
        if edge.kind != EdgeKind::Association {
            continue;
        }
        let a = graph.node(edge.a).as_attribute();
        let b = graph.node(edge.b).as_attribute();
        if let (Some(a), Some(b)) = (a, b) {
            pairs.push(canonical(a, b));
        }
    }
    pairs
}

/// Simulated domain-expert feedback: pick the ranked query that only uses
/// gold association edges (Section 5.2's feedback generation). Queries that
/// traverse at least one gold edge and no non-gold edge are preferred;
/// otherwise any query using no non-gold association edge qualifies.
pub fn gold_target_query(
    view: &RankedView,
    graph: &SearchGraph,
    gold: &HashSet<AttrPair>,
) -> Option<usize> {
    let mut fallback = None;
    for idx in 0..view.queries.len() {
        let pairs = association_pairs_of_query(view, graph, idx);
        let all_gold = pairs.iter().all(|p| gold.contains(p));
        if !all_gold {
            continue;
        }
        if !pairs.is_empty() {
            return Some(idx);
        }
        if fallback.is_none() {
            fallback = Some(idx);
        }
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> AttrPair {
        canonical(AttributeId(a), AttributeId(b))
    }

    #[test]
    fn precision_recall_basics() {
        let gold: HashSet<AttrPair> = [pair(0, 1), pair(2, 3)].into_iter().collect();
        let predicted: HashSet<AttrPair> = [pair(0, 1), pair(4, 5)].into_iter().collect();
        let (p, r, f) = precision_recall(&predicted, &gold);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(precision_recall(&HashSet::new(), &gold), (0.0, 0.0, 0.0));
    }

    #[test]
    fn predicted_from_alignments_respects_top_y_and_threshold() {
        let alignments = vec![
            AttributeAlignment::new(AttributeId(0), AttributeId(10), 0.9),
            AttributeAlignment::new(AttributeId(0), AttributeId(11), 0.8),
            AttributeAlignment::new(AttributeId(0), AttributeId(12), 0.7),
            AttributeAlignment::new(AttributeId(1), AttributeId(13), 0.2),
        ];
        let y1 = predicted_from_alignments(&alignments, 1, 0.0);
        assert_eq!(y1.len(), 2);
        assert!(y1.contains(&pair(0, 10)));
        let y2_thresh = predicted_from_alignments(&alignments, 2, 0.75);
        assert_eq!(y2_thresh.len(), 2); // 0.9, 0.8 survive; 0.2 filtered
        assert!(!y2_thresh.contains(&pair(1, 13)));
    }

    #[test]
    fn pr_curve_from_alignments_is_monotone_in_recall() {
        let gold: HashSet<AttrPair> = [pair(0, 10), pair(1, 11)].into_iter().collect();
        let alignments = vec![
            AttributeAlignment::new(AttributeId(0), AttributeId(10), 0.9),
            AttributeAlignment::new(AttributeId(1), AttributeId(11), 0.6),
            AttributeAlignment::new(AttributeId(2), AttributeId(12), 0.5),
        ];
        let curve = pr_curve_from_alignments(&alignments, &gold, 1);
        assert_eq!(curve.len(), 3);
        // As the confidence floor drops, recall cannot decrease.
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall - 1e-12);
        }
        // At the loosest threshold both gold pairs are found.
        assert!((curve.last().unwrap().recall - 1.0).abs() < 1e-12);
    }
}

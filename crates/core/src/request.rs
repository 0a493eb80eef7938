//! Typed query surface: [`QueryRequest`] in, [`QueryOutcome`] out.
//!
//! [`LiveServer::query`](crate::LiveServer::query) serves a request through
//! the answer cache; [`GraphSnapshot::answer`](crate::GraphSnapshot::answer)
//! answers one uncached. A request carries the keywords plus per-request overrides of
//! the serving knobs that used to be frozen in [`QConfig`](crate::QConfig)
//! at construction time — `top_k`, the Steiner [`SearchStrategy`], an
//! optional cost budget — and a [`CachePolicy`] deciding how the request
//! interacts with the answer cache. An outcome pairs the ranked view with
//! its provenance: cache status, the snapshot the answer was computed on,
//! the Steiner search statistics and the compute wall time.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use q_graph::SteinerStats;

use crate::answer::RankedView;
use crate::error::QError;

/// How a request interacts with the weight-epoch-keyed answer cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Serve from the cache when possible; cache the answer on a miss (the
    /// default).
    #[default]
    Cached,
    /// Compute from scratch without reading or writing the cache.
    Bypass,
    /// Compute from scratch and overwrite any cached entry for this request.
    Refresh,
}

/// Which Steiner search answers the request (Section 2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// BANKS/STAR-style approximate top-k search — the system default.
    Approx {
        /// Candidate-root bound (`0` = expand every reachable node).
        max_roots: usize,
    },
    /// Exact Dreyfus–Wagner minimum Steiner tree: the single provably
    /// cheapest join tree (the view then ranks exactly one query).
    Exact,
}

/// A keyword query plus its per-request serving parameters.
///
/// Build fluently and pass to [`LiveServer::query`](crate::LiveServer::query)
/// or [`GraphSnapshot::answer`](crate::GraphSnapshot::answer):
///
/// ```no_run
/// use q_core::{CachePolicy, QueryRequest};
///
/// let request = QueryRequest::new(["plasma membrane", "entry"])
///     .top_k(3)
///     .cache_policy(CachePolicy::Refresh);
/// # let _ = request;
/// ```
///
/// Every override defaults to "use the system's [`QConfig`](crate::QConfig)
/// value", so `QueryRequest::new(keywords)` reproduces the old slice-taking
/// methods byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    keywords: Vec<String>,
    top_k: Option<usize>,
    strategy: Option<SearchStrategy>,
    cost_budget: Option<f64>,
    cache: CachePolicy,
}

impl QueryRequest {
    /// A request for the given keywords with no overrides: config-default
    /// `top_k` and strategy, no cost budget, [`CachePolicy::Cached`].
    pub fn new<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        QueryRequest {
            keywords: keywords.into_iter().map(Into::into).collect(),
            top_k: None,
            strategy: None,
            cost_budget: None,
            cache: CachePolicy::Cached,
        }
    }

    /// Override how many ranked queries (Steiner trees) the view keeps.
    /// [`validate`](Self::validate) rejects `0` with
    /// [`QError::InvalidRequest`].
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.top_k = Some(top_k);
        self
    }

    /// Override the Steiner search strategy for this request only.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Drop join trees costing more than `budget` before ranking. Must be
    /// positive and not NaN; [`validate`](Self::validate) rejects anything
    /// else.
    pub fn cost_budget(mut self, budget: f64) -> Self {
        self.cost_budget = Some(budget);
        self
    }

    /// Set how the request interacts with the answer cache.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// The keywords, verbatim as given.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// The `top_k` override, if any.
    pub fn top_k_override(&self) -> Option<usize> {
        self.top_k
    }

    /// The strategy override, if any.
    pub fn strategy_override(&self) -> Option<SearchStrategy> {
        self.strategy
    }

    /// The cost budget, if any.
    pub fn cost_budget_override(&self) -> Option<f64> {
        self.cost_budget
    }

    /// The cache policy.
    pub fn cache(&self) -> CachePolicy {
        self.cache
    }

    /// Check the request's parameters, returning the first offending field.
    pub fn validate(&self) -> Result<(), QError> {
        if self.top_k == Some(0) {
            return Err(QError::InvalidRequest {
                field: "top_k",
                reason: "must be at least 1".into(),
            });
        }
        if let Some(budget) = self.cost_budget {
            if budget.is_nan() || budget <= 0.0 {
                return Err(QError::InvalidRequest {
                    field: "cost_budget",
                    reason: format!("must be a positive number, got {budget}"),
                });
            }
        }
        Ok(())
    }

    /// The overrides that change the computed answer, in hashable form.
    /// Requests with equal normalized keywords *and* equal params keys are
    /// interchangeable in the answer cache; a request with no overrides
    /// yields [`QueryParamsKey::default`].
    pub fn params_key(&self) -> QueryParamsKey {
        QueryParamsKey {
            top_k: self.top_k,
            strategy: self.strategy,
            // Bit-exact so distinct budgets never collide.
            budget_bits: self.cost_budget.map(f64::to_bits),
        }
    }
}

/// The answer-changing overrides of a [`QueryRequest`], with derived
/// `Hash`/`Eq` so the answer cache can key on them directly (the budget is
/// stored bit-exact — `f64` itself is not `Eq`). Constructed via
/// [`QueryRequest::params_key`]; `Default` is "no overrides".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QueryParamsKey {
    pub(crate) top_k: Option<usize>,
    pub(crate) strategy: Option<SearchStrategy>,
    pub(crate) budget_bits: Option<u64>,
}

/// How a [`QueryOutcome`] was obtained from the cache's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStatus {
    /// Served from the answer cache.
    Hit,
    /// Computed fresh and inserted into the cache.
    Miss,
    /// Computed fresh without touching the cache ([`CachePolicy::Bypass`]).
    Bypassed,
    /// Computed fresh, overwriting the cached entry
    /// ([`CachePolicy::Refresh`]).
    Refreshed,
    /// Served from the cache after the entry was kept across at least one
    /// publish — every cost bit-identical under the new prices, or its
    /// ranked list proven safe from a grown graph (see
    /// [`QueryCache::sync`](crate::QueryCache::sync)) — or re-admitted by
    /// the re-validation lane. The feedback loop sees these instead of cold
    /// misses after a MIRA re-pricing.
    Revalidated,
}

/// A ranked view plus the provenance of how it was served.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The ranked, materialised answer view.
    pub view: Arc<RankedView>,
    /// Whether the answer came from the cache or a fresh computation.
    pub cache: CacheStatus,
    /// The search-graph weight epoch the answer is priced under. Answers
    /// with equal epochs are byte-identical for equal requests.
    pub weight_epoch: u64,
    /// Steiner search statistics — `None` when the answer came from the
    /// cache (no search ran).
    pub steiner: Option<SteinerStats>,
    /// Wall time spent computing the answer (zero for cache hits).
    pub wall_time: Duration,
    /// Published snapshot the answer was computed against, when served by
    /// the live-ingestion engine ([`LiveServer`](crate::LiveServer)):
    /// "answered from snapshot N". For a cache hit this is the snapshot
    /// that originally priced the entry — an entry surviving an ingestion
    /// keeps reporting its own snapshot, not the latest one. Every outcome
    /// [`LiveServer::query`](crate::LiveServer::query) returns carries it.
    pub snapshot: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_request_has_default_params_key() {
        let r = QueryRequest::new(["plasma membrane", "entry"]);
        assert_eq!(r.params_key(), QueryParamsKey::default());
        assert_eq!(r.cache(), CachePolicy::Cached);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn params_keys_separate_every_override() {
        let a = QueryRequest::new(["x"])
            .top_k(3)
            .strategy(SearchStrategy::Approx { max_roots: 5 })
            .cost_budget(2.5);
        let b = QueryRequest::new(["y"])
            .top_k(3)
            .strategy(SearchStrategy::Approx { max_roots: 5 })
            .cost_budget(2.5);
        // Keywords are not part of the params key; equal overrides are.
        assert_eq!(a.params_key(), b.params_key());
        assert_ne!(
            a.params_key(),
            QueryRequest::new(["x"]).top_k(4).params_key()
        );
        assert_ne!(
            QueryRequest::new(["x"])
                .strategy(SearchStrategy::Exact)
                .params_key(),
            QueryRequest::new(["x"])
                .strategy(SearchStrategy::Approx { max_roots: 0 })
                .params_key()
        );
        assert_ne!(
            QueryRequest::new(["x"]).cost_budget(1.0).params_key(),
            QueryRequest::new(["x"]).cost_budget(2.0).params_key()
        );
    }

    #[test]
    fn validation_rejects_zero_top_k_and_bad_budgets() {
        let err = QueryRequest::new(["x"]).top_k(0).validate().unwrap_err();
        assert!(matches!(err, QError::InvalidRequest { field: "top_k", .. }));
        for bad in [0.0, -1.0, f64::NAN] {
            let err = QueryRequest::new(["x"])
                .cost_budget(bad)
                .validate()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    QError::InvalidRequest {
                        field: "cost_budget",
                        ..
                    }
                ),
                "budget {bad} accepted"
            );
        }
        assert!(QueryRequest::new(["x"]).top_k(1).validate().is_ok());
        assert!(QueryRequest::new(["x"]).cost_budget(0.1).validate().is_ok());
    }
}

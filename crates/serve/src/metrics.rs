//! Serving metrics: lock-free counters, a log-bucketed latency histogram
//! for p50/p99, and a Prometheus text-format renderer.
//!
//! Everything is updated with relaxed atomics on the hot path; `/metrics`
//! scrapes read the same atomics and render the text contract the CI smoke
//! job checks (every `*_total` series is a monotone counter; `q_snapshot_id`
//! and `q_ingest_lag_seconds` are gauges; quantiles come from the
//! histogram's bucket upper bounds).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Histogram bucket count: bucket `i` holds observations in
/// `[2^i, 2^(i+1))` microseconds, so 32 buckets span 1 µs to ~2¹⁵ s.
const BUCKETS: usize = 32;

/// Serving metrics. One instance is shared by every worker thread.
pub struct Metrics {
    started: Instant,
    /// Queries answered (single and per-batch-entry), by cache disposition.
    pub cache_hits: AtomicU64,
    /// Cache entries served after surviving a publish re-pricing.
    pub cache_revalidated: AtomicU64,
    /// Fresh computations inserted into the cache.
    pub cache_misses: AtomicU64,
    /// Fresh computations that bypassed or refreshed the cache.
    pub cache_uncached: AtomicU64,
    /// Cache entries a publish kept, summed over every ingest and feedback
    /// publish.
    pub cache_kept: AtomicU64,
    /// Cache entries a publish dropped, summed over every ingest and
    /// feedback publish.
    pub cache_dropped: AtomicU64,
    /// Cache entries parked for background re-validation, summed over every
    /// ingest publish.
    pub cache_parked: AtomicU64,
    /// Distinct keywords an ingest's cache verdict priced against the new
    /// graph, summed over every ingest publish: the verdict's work.
    pub cache_keywords_priced: AtomicU64,
    /// Parked entries awaiting re-validation (gauge; refreshed from the
    /// engine's lane counters at each `/metrics` scrape).
    pub revalidation_depth: AtomicU64,
    /// Parked entries the lane settled with a byte-identical recompute.
    pub revalidation_kept: AtomicU64,
    /// Parked entries the lane re-admitted with changed bytes.
    pub revalidation_repriced: AtomicU64,
    /// Parked entries the lane discarded (superseded or raced by a newer
    /// publish).
    pub revalidation_dropped: AtomicU64,
    /// Snapshots the background persistence lane has written to disk.
    /// Refreshed from the engine's persistence counters at each `/metrics`
    /// scrape (0 when persistence is off).
    pub snapshot_persist: AtomicU64,
    /// HTTP requests served, all endpoints.
    pub http_requests: AtomicU64,
    /// Requests answered with an error body.
    pub errors: AtomicU64,
    /// Sources ingested over `/ingest`.
    pub ingests: AtomicU64,
    /// Feedback publishes over `/feedback`.
    pub feedbacks: AtomicU64,
    /// Currently published snapshot id (gauge).
    pub snapshot_id: AtomicU64,
    /// Wall time of the most recent ingest publish, in microseconds — the
    /// "ingest lag": how far behind live a source is once its upload
    /// completes (gauge).
    pub ingest_lag_us: AtomicU64,
    /// Accounted bytes of the published snapshot's packed search structures
    /// (the global CSR plus the keyword postings estimate) (gauge).
    pub snapshot_bytes: AtomicU64,
    /// Boot wall time in milliseconds (gauge; set once at start-up).
    boot_ms: AtomicU64,
    /// 1 when the engine booted from a persisted snapshot, 0 when it was
    /// rebuilt from the dataset (drives the `q_boot_mode` label).
    boot_from_snapshot: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
}

impl Metrics {
    /// Fresh metrics; `snapshot` is the boot snapshot id.
    pub fn new(snapshot: u64) -> Self {
        Metrics {
            started: Instant::now(),
            cache_hits: AtomicU64::new(0),
            cache_revalidated: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_uncached: AtomicU64::new(0),
            cache_kept: AtomicU64::new(0),
            cache_dropped: AtomicU64::new(0),
            cache_parked: AtomicU64::new(0),
            cache_keywords_priced: AtomicU64::new(0),
            revalidation_depth: AtomicU64::new(0),
            revalidation_kept: AtomicU64::new(0),
            revalidation_repriced: AtomicU64::new(0),
            revalidation_dropped: AtomicU64::new(0),
            snapshot_persist: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ingests: AtomicU64::new(0),
            feedbacks: AtomicU64::new(0),
            snapshot_id: AtomicU64::new(snapshot),
            ingest_lag_us: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            boot_ms: AtomicU64::new(0),
            boot_from_snapshot: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
        }
    }

    /// Record the published snapshot's accounted bytes. Called at boot and
    /// at every publish, never on the query hot path.
    pub fn set_snapshot_accounting(&self, total: u64) {
        self.snapshot_bytes.store(total, Ordering::Relaxed);
    }

    /// Record how the engine booted: from a persisted snapshot or by
    /// rebuilding from the dataset, and how long either path took. Called
    /// once at start-up.
    pub fn set_boot(&self, from_snapshot: bool, wall: Duration) {
        self.boot_ms.store(
            wall.as_millis().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        self.boot_from_snapshot
            .store(u64::from(from_snapshot), Ordering::Relaxed);
    }

    /// The boot-mode label value (`"snapshot"` or `"rebuild"`).
    pub fn boot_mode(&self) -> &'static str {
        if self.boot_from_snapshot.load(Ordering::Relaxed) == 1 {
            "snapshot"
        } else {
            "rebuild"
        }
    }

    /// Boot wall time in milliseconds.
    pub fn boot_ms(&self) -> u64 {
        self.boot_ms.load(Ordering::Relaxed)
    }

    /// Record one answered query's service time.
    pub fn observe_query(&self, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total queries answered.
    fn queries_total(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Approximate quantile from the histogram: the upper bound (in
    /// seconds) of the bucket containing the q-th observation.
    fn quantile(&self, q: f64) -> f64 {
        let total = self.latency_count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.latency_buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return 2f64.powi(i as i32 + 1) / 1e6;
            }
        }
        2f64.powi(BUCKETS as i32) / 1e6
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let queries = self.queries_total();

        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "q_queries_total",
            "Queries answered (single requests and batch entries).",
            queries,
        );
        counter(
            "q_http_requests_total",
            "HTTP requests served, all endpoints.",
            self.http_requests.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_hits_total",
            "Queries served from the shared answer cache.",
            self.cache_hits.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_revalidated_total",
            "Cache entries served after surviving a publish.",
            self.cache_revalidated.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_misses_total",
            "Fresh computations inserted into the cache.",
            self.cache_misses.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_uncached_total",
            "Fresh computations that bypassed or refreshed the cache.",
            self.cache_uncached.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_kept_total",
            "Cache entries an ingest or feedback publish kept, summed over publishes.",
            self.cache_kept.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_dropped_total",
            "Cache entries an ingest or feedback publish dropped, summed over publishes.",
            self.cache_dropped.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_parked_total",
            "Cache entries parked for background re-validation, summed over publishes.",
            self.cache_parked.load(Ordering::Relaxed),
        );
        counter(
            "q_cache_keywords_priced_total",
            "Distinct keywords an ingest's cache verdict priced, summed over publishes.",
            self.cache_keywords_priced.load(Ordering::Relaxed),
        );
        counter(
            "q_snapshot_persist_total",
            "Snapshots the background persistence lane wrote to disk.",
            self.snapshot_persist.load(Ordering::Relaxed),
        );
        counter(
            "q_errors_total",
            "Requests answered with an error body.",
            self.errors.load(Ordering::Relaxed),
        );
        counter(
            "q_ingests_total",
            "Sources ingested over /ingest.",
            self.ingests.load(Ordering::Relaxed),
        );
        counter(
            "q_feedback_total",
            "Feedback publishes over /feedback.",
            self.feedbacks.load(Ordering::Relaxed),
        );

        let _ = writeln!(out, "# HELP q_qps Average queries per second since boot.");
        let _ = writeln!(out, "# TYPE q_qps gauge");
        let _ = writeln!(out, "q_qps {}", queries as f64 / uptime);

        let _ = writeln!(
            out,
            "# HELP q_query_latency_seconds Query service time (histogram upper bounds)."
        );
        let _ = writeln!(out, "# TYPE q_query_latency_seconds summary");
        let _ = writeln!(
            out,
            "q_query_latency_seconds{{quantile=\"0.5\"}} {}",
            self.quantile(0.5)
        );
        let _ = writeln!(
            out,
            "q_query_latency_seconds{{quantile=\"0.99\"}} {}",
            self.quantile(0.99)
        );
        let _ = writeln!(
            out,
            "q_query_latency_seconds_sum {}",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(out, "q_query_latency_seconds_count {queries}");

        let _ = writeln!(
            out,
            "# HELP q_snapshot_id Currently published graph snapshot (weight epoch)."
        );
        let _ = writeln!(out, "# TYPE q_snapshot_id gauge");
        let _ = writeln!(
            out,
            "q_snapshot_id {}",
            self.snapshot_id.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP q_revalidation_total Parked cache entries settled by the re-validation lane, by outcome."
        );
        let _ = writeln!(out, "# TYPE q_revalidation_total counter");
        for (outcome, value) in [
            ("kept", &self.revalidation_kept),
            ("repriced", &self.revalidation_repriced),
            ("dropped", &self.revalidation_dropped),
        ] {
            let _ = writeln!(
                out,
                "q_revalidation_total{{outcome=\"{outcome}\"}} {}",
                value.load(Ordering::Relaxed)
            );
        }

        let _ = writeln!(
            out,
            "# HELP q_revalidation_lane_depth Parked cache entries awaiting background re-validation."
        );
        let _ = writeln!(out, "# TYPE q_revalidation_lane_depth gauge");
        let _ = writeln!(
            out,
            "q_revalidation_lane_depth {}",
            self.revalidation_depth.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP q_ingest_lag_seconds Wall time of the most recent ingest publish."
        );
        let _ = writeln!(out, "# TYPE q_ingest_lag_seconds gauge");
        let _ = writeln!(
            out,
            "q_ingest_lag_seconds {}",
            self.ingest_lag_us.load(Ordering::Relaxed) as f64 / 1e6
        );

        let _ = writeln!(
            out,
            "# HELP q_snapshot_bytes Accounted bytes of the published snapshot's packed search structures."
        );
        let _ = writeln!(out, "# TYPE q_snapshot_bytes gauge");
        let _ = writeln!(
            out,
            "q_snapshot_bytes {}",
            self.snapshot_bytes.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP q_boot_ms Wall time of the boot path (snapshot load or rebuild), in milliseconds."
        );
        let _ = writeln!(out, "# TYPE q_boot_ms gauge");
        let _ = writeln!(out, "q_boot_ms {}", self.boot_ms());

        let _ = writeln!(
            out,
            "# HELP q_boot_mode How the serving engine was constructed at boot."
        );
        let _ = writeln!(out, "# TYPE q_boot_mode gauge");
        let _ = writeln!(out, "q_boot_mode{{mode=\"{}\"}} 1", self.boot_mode());

        let _ = writeln!(
            out,
            "# HELP q_uptime_seconds Seconds since the server booted."
        );
        let _ = writeln!(out, "# TYPE q_uptime_seconds gauge");
        let _ = writeln!(out, "q_uptime_seconds {uptime}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_histogram() {
        let m = Metrics::new(0);
        assert_eq!(m.quantile(0.5), 0.0, "empty histogram reports 0");
        // 99 fast queries (~100us) and one slow (~50ms).
        for _ in 0..99 {
            m.observe_query(Duration::from_micros(100));
        }
        m.observe_query(Duration::from_millis(50));
        let p50 = m.quantile(0.5);
        let p99 = m.quantile(0.99);
        assert!((100e-6..1e-3).contains(&p50), "p50 = {p50}");
        assert!(p50 <= p99);
        assert!(p99 < 50e-3, "p99 excludes the single outlier: {p99}");
        assert!(m.quantile(1.0) >= 50e-3);
        assert_eq!(m.queries_total(), 100);
    }

    #[test]
    fn render_exposes_the_contract_series() {
        let m = Metrics::new(7);
        m.observe_query(Duration::from_micros(250));
        m.http_requests.fetch_add(3, Ordering::Relaxed);
        m.ingest_lag_us.store(1_500_000, Ordering::Relaxed);
        m.set_snapshot_accounting(4096);
        m.set_boot(true, Duration::from_millis(42));
        m.cache_kept.fetch_add(5, Ordering::Relaxed);
        m.cache_dropped.fetch_add(2, Ordering::Relaxed);
        m.cache_parked.fetch_add(4, Ordering::Relaxed);
        m.cache_keywords_priced.fetch_add(6, Ordering::Relaxed);
        m.revalidation_depth.store(1, Ordering::Relaxed);
        m.revalidation_kept.store(2, Ordering::Relaxed);
        m.revalidation_repriced.store(1, Ordering::Relaxed);
        m.snapshot_persist.store(3, Ordering::Relaxed);
        let text = m.render();
        for series in [
            "q_queries_total ",
            "q_http_requests_total ",
            "q_cache_hits_total ",
            "q_cache_revalidated_total ",
            "q_cache_misses_total ",
            "q_cache_kept_total 5",
            "q_cache_dropped_total 2",
            "q_cache_parked_total 4",
            "q_cache_keywords_priced_total 6",
            "q_revalidation_total{outcome=\"kept\"} 2",
            "q_revalidation_total{outcome=\"repriced\"} 1",
            "q_revalidation_total{outcome=\"dropped\"} 0",
            "q_revalidation_lane_depth 1",
            "q_snapshot_persist_total 3",
            "q_errors_total ",
            "q_ingests_total ",
            "q_qps ",
            "q_query_latency_seconds{quantile=\"0.5\"} ",
            "q_query_latency_seconds{quantile=\"0.99\"} ",
            "q_snapshot_id 7",
            "q_ingest_lag_seconds 1.5",
            "q_snapshot_bytes 4096",
            "q_boot_ms 42",
            "q_boot_mode{mode=\"snapshot\"} 1",
            "q_uptime_seconds ",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // Every series carries HELP and TYPE lines.
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );
    }
}

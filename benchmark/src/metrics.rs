//! Every metric the benchmark emits, by name: the end-to-end metrics an
//! untraced run prints and the per-layer metrics a traced run prints, with
//! — for each layer metric — the end-to-end metrics it should move and the
//! workloads on which it should move them. `BENCHMARK.json` is generated
//! from these tables (`qbench check`).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics a change in this one should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The timing bounds are the widest the driver allows: on the reference
/// machine two runs of one seed differ by 5–15 % (README, "Steadiness").
pub const END_TO_END: &[EndToEnd] = &[
    // Corpus generation + snapshot assembly + save + load (median of three
    // passes), then once: input generation, server start, warm-up reads.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // /query latency, send to last body byte, over every read of the window
    // by every client.
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    // Successful /query responses ÷ the measured window (the time its parts
    // took).
    e2e("query_qps", "1/s", Better::Higher, 0.25),
    // Median over the workload's ingests of the time until 200, when the
    // source is searchable; from the due time when the writes are on a
    // schedule.
    e2e("ingest_p50_ms", "ms", Better::Lower, 0.25),
    // VmHWM of the benchmark process at exit.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

const MISS: &[&str] = &["miss_100x", "miss_rows"];
const ALL: &[&str] = &["miss_100x", "miss_rows", "zipf_cached", "live_mixed"];
const READ: &[&str] = &["query_p50_ms", "query_qps"];
const READ_TAIL: &[&str] = &["query_p95_ms", "query_qps"];
const INGEST: &[&str] = &["ingest_p50_ms"];
const SETUP: &[&str] = &["setup_s"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[Layer] = &[
    // The miss pipeline, stage by stage (median per-query self time).
    layer("graph.keyword.match_ms", "ms", Lower, READ, MISS),
    layer(
        "graph.keyword.matches_per_query",
        "count",
        Lower,
        READ,
        MISS,
    ),
    layer(
        "graph.query_graph.build_ms",
        "ms",
        Lower,
        &["query_p50_ms"],
        &["miss_100x"],
    ),
    layer(
        "graph.query_graph.edges_packed",
        "count",
        Lower,
        &["query_p50_ms"],
        &["miss_100x"],
    ),
    layer(
        "graph.steiner.search_ms",
        "ms",
        Lower,
        &["query_p50_ms", "query_p95_ms"],
        &["miss_100x"],
    ),
    layer(
        "graph.steiner.roots_expanded",
        "count",
        Lower,
        &["query_p50_ms", "query_p95_ms"],
        &["miss_100x"],
    ),
    layer(
        "graph.steiner.candidates",
        "count",
        Lower,
        &["query_p50_ms", "query_p95_ms"],
        &["miss_100x"],
    ),
    layer(
        "graph.steiner.useful_ratio",
        "ratio",
        Higher,
        &["query_p50_ms", "query_p95_ms"],
        &["miss_100x"],
    ),
    layer(
        "core.translate.tree_to_query_ms",
        "ms",
        Lower,
        &["query_p50_ms"],
        MISS,
    ),
    layer(
        "storage.exec.materialize_ms",
        "ms",
        Lower,
        READ,
        &["miss_rows"],
    ),
    layer(
        "storage.exec.rows_out",
        "count",
        Higher,
        READ,
        &["miss_rows"],
    ),
    layer("serve.wire.decode_ms", "ms", Lower, READ, &["zipf_cached"]),
    layer("serve.wire.encode_ms", "ms", Lower, READ, &["zipf_cached"]),
    layer(
        "serve.wire.response_bytes",
        "bytes",
        Lower,
        READ,
        &["zipf_cached"],
    ),
    layer(
        "serve.http.overhead_ms",
        "ms",
        Lower,
        &["query_p50_ms"],
        &["zipf_cached", "live_mixed"],
    ),
    layer("core.live.query_ms", "ms", Lower, &["query_p50_ms"], ALL),
    layer(
        "core.live.query_unattributed_ms",
        "ms",
        Lower,
        &["query_p50_ms"],
        ALL,
    ),
    layer(
        "core.cache.hit_ratio",
        "ratio",
        Higher,
        READ,
        &["zipf_cached", "live_mixed"],
    ),
    layer(
        "core.cache.hit_ms",
        "ms",
        Lower,
        READ,
        &["zipf_cached", "live_mixed"],
    ),
    // The ingest pipeline.
    layer(
        "storage.loader.load_incremental_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed"],
    ),
    layer(
        "graph.search_graph.clone_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed"],
    ),
    layer(
        "graph.search_graph.add_source_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed"],
    ),
    layer(
        "graph.keyword.clone_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed", "miss_100x"],
    ),
    layer(
        "graph.keyword.append_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed"],
    ),
    layer(
        "matchers.metadata.match_source_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed", "miss_100x"],
    ),
    layer(
        "matchers.metadata.alignments",
        "count",
        Higher,
        INGEST,
        &["live_mixed"],
    ),
    layer(
        "graph.shard.build_ms",
        "ms",
        Lower,
        &["ingest_p50_ms", "setup_s"],
        &["live_mixed", "miss_100x"],
    ),
    layer(
        "core.cache.publish_ms",
        "ms",
        Lower,
        &["ingest_p50_ms", "query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.cache.kept",
        "count",
        Higher,
        &["ingest_p50_ms", "query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.cache.parked",
        "count",
        Lower,
        &["ingest_p50_ms", "query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.cache.dropped",
        "count",
        Lower,
        &["ingest_p50_ms", "query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.cache.survival_ratio",
        "ratio",
        Higher,
        READ_TAIL,
        &["live_mixed"],
    ),
    layer(
        "core.revalidate.flush_ms",
        "ms",
        Lower,
        &["query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.revalidate.kept",
        "count",
        Higher,
        &["query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.revalidate.repriced",
        "count",
        Lower,
        &["query_p95_ms"],
        &["live_mixed"],
    ),
    layer(
        "core.revalidate.dropped",
        "count",
        Lower,
        &["query_p95_ms"],
        &["live_mixed"],
    ),
    layer("core.live.ingest_ms", "ms", Lower, INGEST, ALL),
    // Feedback has no end-to-end metric of its own (README); on the write
    // schedule a slow feedback makes the next ingest late.
    layer(
        "core.live.feedback_ms",
        "ms",
        Lower,
        INGEST,
        &["live_mixed"],
    ),
    // Snapshot store and set-up.
    layer("snap.save_ms", "ms", Lower, SETUP, &["miss_100x"]),
    layer("snap.load_ms", "ms", Lower, SETUP, &["miss_100x"]),
    layer("snap.file_bytes", "bytes", Lower, SETUP, &["miss_100x"]),
    layer(
        "core.snapshot_bytes",
        "bytes",
        Lower,
        &["peak_rss_mb"],
        &["miss_100x"],
    ),
    layer(
        "snap.bytes_per_accounted_byte",
        "ratio",
        Lower,
        SETUP,
        &["miss_100x"],
    ),
    layer("graph.keyword.build_ms", "ms", Lower, SETUP, ALL),
    layer(
        "graph.search_graph.from_catalog_ms",
        "ms",
        Lower,
        SETUP,
        ALL,
    ),
    layer("datasets.generate_ms", "ms", Lower, SETUP, ALL),
    // The trace itself.
    layer("trace.overhead_pct", "%", Lower, &["query_p50_ms"], ALL),
    layer("trace.nonempty_share", "ratio", Higher, READ, ALL),
    layer("trace.spans", "count", Higher, &["query_p50_ms"], ALL),
];

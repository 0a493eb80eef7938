//! The traced run: single thread, in process. Each stage of a read and of
//! an ingest is re-driven through the crates' public functions on the same
//! seeded operations the untraced run sends, one span per call; the
//! re-driven read pipeline must produce the bytes the product serves, so
//! the decomposition cannot drift from it. End-to-end figures are never
//! taken here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use q_integration::core::translate::{materialize_view, tree_to_query};
use q_integration::core::{RankedQuery, RankedView};
use q_integration::graph::{
    approx_top_k_detailed_fanned, KeywordIndex, QueryGraph, SearchGraph, ShardSet, SteinerConfig,
    SteinerScratch,
};
use q_integration::matchers::{MetadataMatcher, SchemaMatcher};
use q_integration::serve::{wire, HttpClient, Json};
use q_integration::storage::SourceSpec;
use q_integration::{
    CachePolicy, CacheStatus, GraphSnapshot, LiveServer, QConfig, QueryOutcome, QueryRequest,
};

use crate::gen;
use crate::metrics::PER_LAYER;
use crate::report::Outcome;
use crate::setup::{self, ms, timed, SnapshotFile};
use crate::stats;
use crate::workload::{self, Inputs, Workload, WriteOp, Writes};

/// Reads whose HTTP latency is set against their in-process latency.
const HTTP_PROBES: usize = 16;

/// One in this many traced misses is also checked against
/// `GraphSnapshot::answer` (every miss is checked against the bytes
/// `LiveServer::query` served).
const ANSWER_CHECK_EVERY: usize = 8;

/// How far the re-driven stages may be from the product call they decompose
/// before the traced run fails: the stages no longer are what the product
/// runs. For a miss that is the median, over the misses, of the gap between
/// the staged pipeline and the same miss's call. For an ingest it is the
/// closest any one ingest's stages come to the same ingest's call: there are
/// few ingests, the memory an 1818-source ingest allocates costs either side
/// up to 40 % more when it happens to come fresh from the system, and that
/// only ever adds time to one ingest, where a stage the product has gained
/// or lost shows in all of them.
const STAGE_TOLERANCE: f64 = 0.10;

/// Every span name recorded; `<name>_ms` is its per-layer metric.
const SPANS: &[&str] = &[
    "graph.keyword.match",
    "graph.query_graph.build",
    "graph.steiner.search",
    "core.translate.tree_to_query",
    "storage.exec.materialize",
    "serve.wire.decode",
    "serve.wire.encode",
    "storage.loader.load_incremental",
    "graph.search_graph.clone",
    "graph.search_graph.add_source",
    "graph.keyword.clone",
    "graph.keyword.append",
    "matchers.metadata.match_source",
    "graph.shard.build",
    "snap.save",
    "snap.load",
    "graph.keyword.build",
    "graph.search_graph.from_catalog",
    "datasets.generate",
];

struct Span {
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    start: Duration,
    end: Duration,
}

/// Spans in memory; written out once, at exit.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id; spans of one operation share it.
    fn next_op(&mut self) -> u32 {
        self.ops += 1;
        self.ops - 1
    }

    /// Record a span around `f`; spans opened inside `f` are its children.
    fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id as usize].end = self.origin.elapsed();
        value
    }

    /// Per span name, the self time (duration minus direct children) summed
    /// per operation, in ms.
    fn self_ms_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut self_time: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let own = span.end - span.start;
                self_time[parent as usize] = self_time[parent as usize].saturating_sub(own);
            }
        }
        let mut per_op: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_time) {
            *per_op.entry((span.name, span.op)).or_default() += ms(own);
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), total) in per_op {
            by_name.entry(name).or_default().push(total);
        }
        by_name
    }

    fn write(&self, workload: &Workload, seed: u64) {
        let micros = |d: Duration| Json::Float(d.as_secs_f64() * 1e6);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::Str(s.name.to_string())),
                    ("op_id", Json::Int(i64::from(s.op))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                    ),
                    ("start_us", micros(s.start)),
                    ("end_us", micros(s.end)),
                ])
            })
            .collect();
        let file = Json::object([
            ("workload", Json::Str(workload.name.to_string())),
            ("seed", Json::Int(seed as i64)),
            ("spans", Json::Array(spans)),
        ]);
        let path = setup::out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::write(path, file.encode()).expect("trace file writes");
    }
}

/// Per-operation samples of everything that is not a span: counts, and the
/// timings of whole product calls the spans are set against.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|s| stats::median(s))
            .unwrap_or(0.0)
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.iter().sum())
    }

    fn min(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |s| s.iter().copied().fold(f64::INFINITY, f64::min))
    }
}

struct Trace<'a> {
    inputs: &'a Inputs,
    live: &'a LiveServer,
    config: QConfig,
    matcher: MetadataMatcher,
    scratch: SteinerScratch,
    tracer: Tracer,
    samples: Samples,
    failed: usize,
    reads: usize,
    hits: usize,
    misses: usize,
    next_trial: usize,
}

impl Trace<'_> {
    /// Re-drive the miss pipeline stage by stage, as `answer_keywords` runs
    /// it for a default request.
    fn staged_read(
        &mut self,
        op: u32,
        snapshot: &GraphSnapshot,
        request: &QueryRequest,
    ) -> RankedView {
        let config = self.config;
        let keywords: Vec<&str> = request.keywords().iter().map(String::as_str).collect();
        let scratch = &mut self.scratch;
        let samples = &mut self.samples;
        self.tracer.span("trace.pipeline", op, |t| {
            let match_lists: Vec<_> = keywords
                .iter()
                .map(|keyword| {
                    t.span("graph.keyword.match", op, |_| {
                        snapshot.shard_set().keyword_matches(
                            snapshot.keyword_index(),
                            keyword,
                            &config.match_config,
                        )
                    })
                })
                .collect();
            let matches: usize = match_lists.iter().map(Vec::len).sum();
            samples.push("graph.keyword.matches_per_query", matches as f64);
            let query_graph = t.span("graph.query_graph.build", op, |_| {
                QueryGraph::build_with_matches(snapshot.graph(), &keywords, match_lists)
            });
            samples.push(
                "graph.query_graph.edges_packed",
                query_graph.edge_count() as f64,
            );
            let terminals = query_graph.terminals();
            let steiner = SteinerConfig {
                k: config.top_k,
                ..config.steiner
            };
            let (trees, found) = t.span("graph.steiner.search", op, |_| {
                approx_top_k_detailed_fanned(
                    &query_graph,
                    &terminals,
                    &steiner,
                    scratch,
                    config.shard_workers,
                )
            });
            samples.push(
                "graph.steiner.roots_expanded",
                found.roots_considered as f64,
            );
            samples.push(
                "graph.steiner.candidates",
                found.candidates_generated as f64,
            );
            samples.push("graph.steiner.returned", found.trees_returned as f64);
            let mut queries: Vec<RankedQuery> = Vec::new();
            for tree in trees {
                let query = t.span("core.translate.tree_to_query", op, |_| {
                    tree_to_query(snapshot.catalog(), &query_graph, &tree)
                });
                if let Some(query) = query {
                    queries.push(RankedQuery {
                        cost: tree.cost,
                        tree,
                        query,
                    });
                }
            }
            queries.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            let (columns, column_sources, answers) = t
                .span("storage.exec.materialize", op, |_| {
                    materialize_view(
                        snapshot.catalog(),
                        snapshot.graph(),
                        &queries,
                        config.column_merge_threshold,
                        config.max_answers,
                    )
                })
                .expect("view materialises");
            samples.push("storage.exec.rows_out", answers.len() as f64);
            RankedView {
                keywords: keywords.iter().map(|k| k.to_string()).collect(),
                columns,
                column_sources,
                queries,
                answers,
            }
        })
    }

    /// One read of the workload: the product call, the wire stages around
    /// it, and — on a miss — the staged pipeline and its byte check.
    fn read(&mut self, i: usize) {
        let query = self.inputs.read(i);
        let request = &self.inputs.requests[query];
        let op = self.tracer.next_op();
        self.reads += 1;
        let snapshot = self.live.snapshot();
        let (outcome, took) = timed(|| self.live.query(request));
        let Ok(outcome) = outcome else {
            self.failed += 1;
            return;
        };
        self.wire_stages(op, &self.inputs.request_bodies[query], &outcome);
        self.samples.push(
            "trace.nonempty",
            f64::from(u8::from(!outcome.view.answers.is_empty())),
        );
        if matches!(outcome.cache, CacheStatus::Hit | CacheStatus::Revalidated) {
            self.hits += 1;
            self.samples.push("core.cache.hit_ms", ms(took));
            return;
        }
        self.misses += 1;
        self.samples.push("core.live.query_ms", ms(took));
        let served = wire::encode_result(&outcome.view);
        let (staged, staged_took) = timed(|| self.staged_read(op, &snapshot, request));
        self.samples
            .push("trace.read_gap", (ms(staged_took) - ms(took)) / ms(took));
        let mut agree = wire::encode_result(&staged) == served;
        if self.misses % ANSWER_CHECK_EVERY == 1 {
            agree &= snapshot
                .answer(&self.config, request)
                .is_ok_and(|view| wire::encode_result(&view) == served);
        }
        self.failed += usize::from(!agree);
    }

    fn wire_stages(&mut self, op: u32, body: &str, outcome: &QueryOutcome) {
        let decoded = self.tracer.span("serve.wire.decode", op, |_| {
            wire::parse_body(body.as_bytes()).and_then(|json| wire::decode_query(&json))
        });
        self.failed += usize::from(decoded.is_err());
        let response = self.tracer.span("serve.wire.encode", op, |_| {
            wire::encode_query_response(outcome).encode()
        });
        self.samples
            .push("serve.wire.response_bytes", response.len() as f64);
    }

    /// One ingest: its stages re-driven on the current snapshot, then the
    /// product's `ingest_source`. What the product's call takes beyond the
    /// stages is the publish: the verdict on every cached entry, under the
    /// cache mutex, and the swap.
    ///
    /// The stages run twice and the first pass is thrown away. An ingest
    /// allocates a snapshot's worth of memory, and memory fresh from the
    /// system costs up to as much again as the work (0.55 s → 1.0–1.4 s at
    /// 1818 sources); the first pass pays that, the timed pass reuses what
    /// the first freed and the product reuses what the timed pass freed, so
    /// the two figures that are subtracted are taken on equal terms.
    fn ingest(&mut self, k: usize) {
        let inputs = self.inputs;
        let spec = &inputs.sources[k];
        let op = self.tracer.next_op();
        let base = self.live.snapshot();
        let (config, matcher) = (self.config, &self.matcher);
        staged_ingest(&mut Tracer::new(), config, matcher, op, &base, spec);
        let (staged_alignments, staged) =
            staged_ingest(&mut self.tracer, config, matcher, op, &base, spec);
        let (report, whole) = timed(|| self.live.ingest_source(spec));
        let (_, flush) = timed(|| self.live.flush_revalidation());
        let Ok(report) = report else {
            self.failed += 1;
            return;
        };
        self.failed += usize::from(report.alignments.len() != staged_alignments);
        self.samples.push("core.live.ingest_ms", ms(whole));
        self.samples
            .push("core.cache.publish_ms", ms(whole) - ms(staged));
        self.samples.push(
            "trace.ingest_gap",
            (ms(whole) - ms(staged)).abs() / ms(whole),
        );
        self.samples.push("core.revalidate.flush_ms", ms(flush));
        self.samples.push(
            "matchers.metadata.alignments",
            report.alignments.len() as f64,
        );
        self.samples
            .push("core.cache.kept", report.cache_kept as f64);
        self.samples
            .push("core.cache.parked", report.cache_parked as f64);
        self.samples
            .push("core.cache.dropped", report.cache_dropped as f64);
    }

    fn feedback(&mut self) {
        self.tracer.next_op();
        let live = self.live;
        let visible = workload::visible_trial(&self.inputs.trials, self.next_trial, |trial| {
            live.query(&trial.look)
                .is_ok_and(|outcome| !outcome.view.answers.is_empty())
        });
        let Some(trial) = visible else {
            self.failed += 1;
            return;
        };
        self.next_trial = trial + 1;
        let request = &self.inputs.trials[trial].feedback;
        let (report, took) = timed(|| self.live.feedback(request));
        self.failed += usize::from(report.is_err());
        self.samples.push("core.live.feedback_ms", ms(took));
    }

    /// HTTP latency of a cache hit minus the in-process latency of the same
    /// hit: framing, sockets and the worker hand-off, nothing else. Run last:
    /// it caches answers whatever the workload's policy.
    fn http_overhead(&mut self, client: &mut HttpClient) {
        for i in 0..HTTP_PROBES {
            let query = self.inputs.read(i);
            let request = QueryRequest::new(self.inputs.requests[query].keywords().to_vec())
                .cache_policy(CachePolicy::Cached);
            let body = wire::encode_query(&request).encode();
            self.tracer.next_op();
            // The first call fills the cache, the timed ones hit it.
            self.failed += usize::from(self.live.query(&request).is_err());
            let (_, inside) = timed(|| black_box(self.live.query(&request)));
            let (response, outside) = timed(|| client.request("POST", "/query", Some(&body)));
            self.failed += usize::from(!response.is_ok_and(|r| r.status == 200));
            self.samples.push("core.cache.hit_ms", ms(inside));
            self.samples
                .push("serve.http.overhead_ms", ms(outside) - ms(inside));
        }
    }
}

/// Re-drive the stages of ingesting `spec` on top of `base`, off to the
/// side: nothing is published. Returns the alignments proposed and the
/// time the whole pipeline took.
fn staged_ingest(
    tracer: &mut Tracer,
    config: QConfig,
    matcher: &MetadataMatcher,
    op: u32,
    base: &GraphSnapshot,
    spec: &SourceSpec,
) -> (usize, Duration) {
    let (built, took) = timed(|| {
        tracer.span("trace.ingest_pipeline", op, |t| {
            let (catalog, source) = t
                .span("storage.loader.load_incremental", op, |_| {
                    spec.load_incremental(base.catalog())
                })
                .expect("streamed source loads");
            let mut graph = t.span("graph.search_graph.clone", op, |_| base.graph().clone());
            t.span("graph.search_graph.add_source", op, |_| {
                graph.add_source(&catalog, source)
            });
            let mut index = t.span("graph.keyword.clone", op, |_| base.keyword_index().clone());
            let relations = catalog
                .source(source)
                .map(|s| s.relations.clone())
                .unwrap_or_default();
            t.span("graph.keyword.append", op, |_| {
                for relation in &relations {
                    index.add_relation(&catalog, *relation);
                }
            });
            let alignments = t.span("matchers.metadata.match_source", op, |_| {
                matcher.match_source(&catalog, source, config.top_y)
            });
            for a in &alignments {
                graph.add_association(
                    a.new_attribute,
                    a.existing_attribute,
                    matcher.name(),
                    a.confidence,
                );
            }
            t.span("graph.shard.build", op, |_| {
                black_box(ShardSet::build(&catalog, &graph, &index, config.shards));
            });
            (alignments.len(), catalog, graph, index)
        })
    });
    // What was built is freed here, outside the timing: the product
    // publishes its copy and frees nothing.
    (built.0, took)
}

pub fn run(workload: &Workload, seed: u64, budget: Duration) -> Outcome {
    let config = QConfig::default();
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();

    // Set-up, one stage at a time. `assemble` builds the keyword index and
    // the shard set again: it is the only public way to a snapshot.
    let op = tracer.next_op();
    let (catalog, graph) = tracer.span("datasets.generate", op, |_| {
        gen::corpus(&workload.tier, seed)
    });
    tracer.span("graph.search_graph.from_catalog", op, |_| {
        black_box(SearchGraph::from_catalog(&catalog));
    });
    let index = tracer.span("graph.keyword.build", op, |_| KeywordIndex::build(&catalog));
    tracer.span("graph.shard.build", op, |_| {
        black_box(ShardSet::build(&catalog, &graph, &index, config.shards));
    });
    drop(index);
    let built = GraphSnapshot::assemble(catalog, graph, config.shards);
    let file = SnapshotFile::new(&format!("trace-{}", workload.name));
    let info = tracer
        .span("snap.save", op, |_| built.save(&file.0))
        .expect("snapshot saves");
    drop(built);
    let loaded = tracer.span("snap.load", op, |_| file.load());
    samples.push("snap.file_bytes", info.file_bytes as f64);
    samples.push("core.snapshot_bytes", loaded.snapshot_bytes() as f64);

    let inputs = Inputs::generate(workload, &loaded, seed, budget);
    let qserve = setup::serve(setup::engine(loaded, workload), 1);
    let mut trace = Trace {
        inputs: &inputs,
        live: qserve.engine(),
        config,
        matcher: MetadataMatcher::new(),
        scratch: SteinerScratch::default(),
        tracer,
        samples,
        failed: 0,
        reads: 0,
        hits: 0,
        misses: 0,
        next_trial: 0,
    };

    // Warm-up as in the untraced run, then the traced reads, then the
    // writes, each followed by the reader's look at what the publish left.
    let mut cursor = 0;
    while cursor < workload.warmup_reads {
        let request = &inputs.requests[inputs.read(cursor)];
        trace.failed += usize::from(trace.live.query(request).is_err());
        cursor += 1;
    }
    let started = Instant::now();
    let mut traced_reads = 0;
    while traced_reads < workload.trace_reads && started.elapsed() < budget {
        trace.read(cursor);
        cursor += 1;
        traced_reads += 1;
    }
    let hits_before_writes = trace.hits;
    // The writes in the order the untraced run sends them: interleaved when
    // they run beside the reads, else the ingests first (each meets the cache
    // the reads left warm; a feedback publish drops what it re-prices).
    let mut writes: Vec<WriteOp> = (0..workload.trace_writes)
        .flat_map(|k| [WriteOp::Ingest(k), WriteOp::Feedback])
        .collect();
    if matches!(workload.writes, Writes::Between { .. }) {
        writes.sort_by_key(|op| matches!(op, WriteOp::Feedback));
    }
    for op in writes {
        match op {
            WriteOp::Ingest(k) => trace.ingest(k),
            WriteOp::Feedback => trace.feedback(),
        }
        for _ in 0..workload.trace_reads_per_write {
            trace.read(cursor);
            cursor += 1;
        }
    }
    let mut client =
        HttpClient::connect(qserve.addr(), Duration::from_secs(60)).expect("probe client connects");
    trace.http_overhead(&mut client);
    drop(client);

    let lane = trace.live.revalidation_stats();
    let Trace {
        tracer,
        samples,
        failed,
        reads,
        hits,
        ..
    } = trace;
    setup::stop(qserve);
    tracer.write(workload, seed);

    // Assemble every per-layer metric: `<span>_ms` from the spans' self
    // times, the rest from the samples.
    let spans = tracer.self_ms_per_op();
    let span_median = |name: &str| {
        spans
            .get(name)
            .and_then(|s| stats::median(s))
            .unwrap_or(0.0)
    };
    let read_stages: f64 = [
        "graph.keyword.match",
        "graph.query_graph.build",
        "graph.steiner.search",
        "core.translate.tree_to_query",
        "storage.exec.materialize",
    ]
    .iter()
    .map(|stage| span_median(stage))
    .sum();
    let ingest_stages = span_total_median(&tracer, "trace.ingest_pipeline");
    let live_query = samples.median("core.live.query_ms");
    let judged = samples.sum("core.cache.kept")
        + samples.sum("core.cache.parked")
        + samples.sum("core.cache.dropped");
    let candidates = samples.sum("graph.steiner.candidates");
    // A workload that bypasses the cache publishes into an empty one:
    // nothing is judged, and the stages are the whole ingest.
    let empty_cache = matches!(workload.cache, CachePolicy::Bypass);
    let drifted = usize::from(samples.median("trace.read_gap").abs() > STAGE_TOLERANCE)
        + usize::from(empty_cache && samples.min("trace.ingest_gap") > STAGE_TOLERANCE);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for name in [
        "graph.keyword.matches_per_query",
        "graph.query_graph.edges_packed",
        "graph.steiner.roots_expanded",
        "graph.steiner.candidates",
        "storage.exec.rows_out",
        "serve.wire.response_bytes",
        "serve.http.overhead_ms",
        "core.live.query_ms",
        "core.cache.hit_ms",
        "matchers.metadata.alignments",
        "core.cache.publish_ms",
        "core.revalidate.flush_ms",
        "core.live.ingest_ms",
        "core.live.feedback_ms",
        "snap.file_bytes",
        "core.snapshot_bytes",
    ] {
        values.insert(name, samples.median(name));
    }
    for name in ["core.cache.kept", "core.cache.parked", "core.cache.dropped"] {
        values.insert(name, samples.sum(name));
    }
    values.insert(
        "graph.steiner.useful_ratio",
        ratio(samples.sum("graph.steiner.returned"), candidates),
    );
    values.insert("core.live.query_unattributed_ms", live_query - read_stages);
    values.insert("core.cache.hit_ratio", ratio(hits as f64, reads as f64));
    values.insert(
        "core.cache.survival_ratio",
        ratio(samples.sum("core.cache.kept"), judged),
    );
    values.insert("core.revalidate.kept", lane.kept as f64);
    values.insert("core.revalidate.repriced", lane.repriced as f64);
    values.insert("core.revalidate.dropped", lane.dropped as f64);
    values.insert(
        "snap.bytes_per_accounted_byte",
        ratio(
            samples.median("snap.file_bytes"),
            samples.median("core.snapshot_bytes"),
        ),
    );
    values.insert(
        "trace.overhead_pct",
        100.0 * samples.median("trace.read_gap"),
    );
    values.insert(
        "trace.nonempty_share",
        ratio(samples.sum("trace.nonempty"), reads as f64),
    );
    values.insert("trace.spans", tracer.spans.len() as f64);

    let writes = 2 * workload.trace_writes;
    let mut outcome = Outcome::new(
        workload.warmup_reads + reads + writes + HTTP_PROBES,
        failed + drifted,
    );
    for metric in PER_LAYER {
        // A metric without a sampled value is `<span>_ms`; a span that never
        // ran (no miss, no ingest) reads 0.
        let value = values.get(metric.name).copied().unwrap_or_else(|| {
            let span = metric
                .name
                .strip_suffix("_ms")
                .filter(|s| SPANS.contains(s));
            span_median(span.unwrap_or_else(|| panic!("{} is not measured", metric.name)))
        });
        outcome.metric(metric.name, value);
    }
    outcome.note(format!("workload_hash {:016x}", inputs.hash));
    outcome.note(format!(
        "samples traced_reads={reads} misses_staged={} hits_before_writes={hits_before_writes} ingests={} feedbacks={} http_probes={HTTP_PROBES}",
        spans.get("trace.pipeline").map_or(0, Vec::len),
        workload.trace_writes,
        workload.trace_writes,
    ));
    outcome.note(format!(
        "stage_sum_ms {read_stages:.4} of core.live.query_ms {live_query:.4}; ingest_stage_sum_ms {ingest_stages:.4}, closest ingest within {:.4} of its call",
        samples.min("trace.ingest_gap"),
    ));
    outcome
}

/// Median duration (children included) of the spans named `name`, in ms.
fn span_total_median(tracer: &Tracer, name: &str) -> f64 {
    let totals: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| ms(s.end - s.start))
        .collect();
    stats::median(&totals).unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

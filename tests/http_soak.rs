//! End-to-end soak for the HTTP serving layer: hundreds of concurrent
//! client connections querying over real TCP while a writer streams the
//! held-back GBCO sources in over `POST /ingest` (plus one `POST
//! /feedback` publish), with the full replay contract checked afterwards:
//!
//! * every `200` query response names a published snapshot, and its
//!   `"result"` bytes are identical to `wire::encode_result` of that
//!   snapshot's sequential answer — the wire-level restatement of the
//!   `live_ingest` linearizability-by-replay harness;
//! * `GET /healthz` answers `200` throughout;
//! * `GET /metrics` exposes the documented series, and every counter is
//!   monotone across scrapes;
//! * the server drains gracefully on `POST /shutdown`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use q_integration::datasets::{gbco_source_specs_with_fks, gbco_trials, GbcoConfig};
use q_integration::matchers::MetadataMatcher;
use q_integration::serve::json;
use q_integration::serve::wire;
use q_integration::serve::{HttpClient, QServe, ServeOptions};
use q_integration::{CachePolicy, Feedback, FeedbackRequest, LiveServer, QConfig, QueryRequest};

/// Concurrent client connections — the acceptance floor is 100.
const CLIENTS: usize = 104;
/// How many sources the server boots with; the rest stream in over HTTP.
const INITIAL_SOURCES: usize = 10;
/// Requests per keep-alive connection before a client reconnects. Bounded
/// so the fixed worker pool keeps rotating through the connection queue
/// while the soak floods it.
const REQUESTS_PER_CONNECTION: usize = 3;
/// Queries every client must issue even if the writer finishes first.
const MIN_QUERIES_PER_CLIENT: usize = 6;

fn small() -> GbcoConfig {
    GbcoConfig {
        rows_per_table: 12,
        seed: 17,
    }
}

fn trial_requests() -> Vec<QueryRequest> {
    gbco_trials()
        .iter()
        .map(|t| QueryRequest::new(t.keywords.iter().cloned()))
        .collect()
}

fn connect(server: &QServe) -> HttpClient {
    HttpClient::connect(server.addr(), Duration::from_secs(120)).expect("client connects")
}

/// Read the value of one exact Prometheus series (name including labels).
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse().expect("metric value parses"))
        })
        .unwrap_or_else(|| panic!("metric {series} missing from scrape:\n{text}"))
}

#[test]
fn soak_concurrent_http_clients_replay_byte_identical_while_sources_stream_in() {
    let specs = gbco_source_specs_with_fks(&small());
    let catalog = q_integration::storage::loader::load_catalog(&specs[..INITIAL_SOURCES])
        .expect("gbco loads");
    let mut engine = LiveServer::new(catalog, QConfig::default());
    engine.add_matcher(Box::new(MetadataMatcher::new()));
    let qserve = QServe::start(engine, "127.0.0.1:0", ServeOptions::default())
        .expect("server binds an ephemeral port");
    let server = &qserve;

    let requests = trial_requests();
    let requests = &requests;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    // (request index, response body) for every 200 the clients observed.
    let observations: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let observations = &observations;

    // The writer's keep-alive connection is accepted before the client
    // flood starts, so one worker serves the ingest lane throughout.
    let mut writer = connect(server);

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut i = c; // strided start: clients diverge immediately
                let mut issued = 0usize;
                let mut local: Vec<(usize, String)> = Vec::new();
                let mut query = |client: &mut HttpClient, i: usize| {
                    let idx = i % requests.len();
                    // Mixed policies, as in the live_ingest harness: every
                    // third query bypasses the cache, the rest go through
                    // it (hits, misses and survival-kept entries all land
                    // in the replay).
                    let request = if i.is_multiple_of(3) {
                        requests[idx].clone().cache_policy(CachePolicy::Bypass)
                    } else {
                        requests[idx].clone()
                    };
                    let body = wire::encode_query(&request).encode();
                    let response = client
                        .request("POST", "/query", Some(&body))
                        .expect("query completes");
                    assert_eq!(response.status, 200, "body: {}", response.body);
                    local.push((idx, response.body));
                };
                while !stop.load(Ordering::Acquire) || issued < MIN_QUERIES_PER_CLIENT {
                    // A fresh connection every few requests keeps the
                    // fixed pool rotating over all concurrent clients.
                    let mut client = connect(server);
                    for _ in 0..REQUESTS_PER_CONNECTION {
                        query(&mut client, i);
                        i += 1;
                        issued += 1;
                    }
                    if c.is_multiple_of(8) {
                        // A slice of the fleet also health-checks.
                        let health = client
                            .request("GET", "/healthz", None)
                            .expect("healthz answers");
                        assert_eq!(health.status, 200);
                    }
                }
                // One guaranteed post-stop observation: a bypass query
                // after the last publish pins the final snapshot into the
                // replay.
                let mut client = connect(server);
                let idx = i % requests.len();
                let last = requests[idx].clone().cache_policy(CachePolicy::Bypass);
                let body = wire::encode_query(&last).encode();
                let response = client
                    .request("POST", "/query", Some(&body))
                    .expect("final query completes");
                assert_eq!(response.status, 200, "body: {}", response.body);
                local.push((idx, response.body));
                observations.lock().unwrap().extend(local);
            });
        }

        // The writer runs on the scope's own thread: the held-back GBCO
        // sources stream in one at a time over HTTP while the clients
        // above keep querying.
        let mut total_alignments = 0;
        for spec in &specs[INITIAL_SOURCES..] {
            let body = wire::encode_ingest(spec).encode();
            let response = writer
                .request("POST", "/ingest", Some(&body))
                .expect("ingest completes");
            assert_eq!(response.status, 200, "body: {}", response.body);
            let report = wire::decode_ingest_response(
                &json::parse(response.body.as_bytes()).expect("ingest response parses"),
            )
            .expect("ingest response decodes");
            total_alignments += report.alignments;
        }
        assert!(
            total_alignments > 0,
            "the streamed GBCO sources align to the graph"
        );

        // One feedback publish rides the same lane: find answerable
        // keywords, then demote their top answer.
        let mut published_by_feedback = None;
        for request in requests {
            let body = wire::encode_query(request).encode();
            let response = writer
                .request("POST", "/query", Some(&body))
                .expect("writer query completes");
            assert_eq!(response.status, 200);
            let decoded = wire::decode_query_response(
                &json::parse(response.body.as_bytes()).expect("writer response parses"),
            )
            .expect("writer response decodes");
            if !decoded.result.answers.is_empty() {
                let feedback = FeedbackRequest::on_keywords(
                    decoded.result.keywords.clone(),
                    Feedback::Invalid { answer: 0 },
                );
                let body = wire::encode_feedback(&feedback).encode();
                let response = writer
                    .request("POST", "/feedback", Some(&body))
                    .expect("feedback completes");
                assert_eq!(response.status, 200, "body: {}", response.body);
                let report = wire::decode_feedback_response(
                    &json::parse(response.body.as_bytes()).expect("feedback response parses"),
                )
                .expect("feedback response decodes");
                assert!(report.outcome.constraints > 0);
                published_by_feedback = Some(report.snapshot);
                break;
            }
        }
        let feedback_snapshot = published_by_feedback.expect("some GBCO trial has answers to rate");
        assert!(
            server
                .snapshots()
                .iter()
                .any(|s| s.id() == feedback_snapshot),
            "feedback's snapshot {feedback_snapshot} is in the published log"
        );

        stop.store(true, Ordering::Release);
    });

    // ----- /metrics contract: names present, counters monotone. ---------
    let mut client = connect(server);
    let first = client
        .request("GET", "/metrics", None)
        .expect("metrics answers");
    assert_eq!(first.status, 200);
    // One more query between the scrapes, so strict growth is observable.
    let body = wire::encode_query(&requests[0].clone().cache_policy(CachePolicy::Bypass)).encode();
    assert_eq!(
        client
            .request("POST", "/query", Some(&body))
            .expect("inter-scrape query completes")
            .status,
        200
    );
    let second = client
        .request("GET", "/metrics", None)
        .expect("metrics answers again");
    assert_eq!(second.status, 200);

    let counters = [
        "q_queries_total",
        "q_http_requests_total",
        "q_cache_hits_total",
        "q_cache_revalidated_total",
        "q_cache_misses_total",
        "q_cache_uncached_total",
        "q_cache_kept_total",
        "q_cache_dropped_total",
        "q_cache_parked_total",
        "q_revalidation_total{outcome=\"kept\"}",
        "q_revalidation_total{outcome=\"repriced\"}",
        "q_revalidation_total{outcome=\"dropped\"}",
        "q_snapshot_persist_total",
        "q_errors_total",
        "q_ingests_total",
        "q_feedback_total",
        "q_query_latency_seconds_sum",
        "q_query_latency_seconds_count",
    ];
    for series in counters {
        let (a, b) = (metric(&first.body, series), metric(&second.body, series));
        assert!(
            b >= a,
            "{series} went backwards between scrapes: {a} -> {b}"
        );
    }
    for series in [
        "q_qps",
        "q_snapshot_id",
        "q_revalidation_lane_depth",
        "q_ingest_lag_seconds",
        "q_snapshot_bytes",
        "q_boot_ms",
        "q_boot_mode{mode=\"rebuild\"}",
        "q_uptime_seconds",
        "q_query_latency_seconds{quantile=\"0.5\"}",
        "q_query_latency_seconds{quantile=\"0.99\"}",
    ] {
        metric(&second.body, series); // presence check
    }
    // Memory accounting: after the ingests the snapshot gauge is live and
    // reports the published snapshot's accounted bytes.
    let snapshot_bytes = metric(&second.body, "q_snapshot_bytes");
    assert!(
        snapshot_bytes > 0.0,
        "published snapshot accounts its bytes"
    );
    assert_eq!(
        snapshot_bytes,
        server.engine().snapshot().snapshot_bytes() as f64,
        "the gauge is the published snapshot's accounted bytes"
    );
    let soak_queries = observations.lock().unwrap().len() as f64;
    assert!(
        metric(&second.body, "q_queries_total") >= soak_queries,
        "the query counter saw every soak query"
    );
    assert_eq!(
        metric(&second.body, "q_ingests_total"),
        (specs.len() - INITIAL_SOURCES) as f64,
        "every streamed source was counted"
    );
    assert!(
        metric(&second.body, "q_errors_total") == 0.0,
        "a clean soak serves no errors"
    );

    // The health body names a published snapshot and reports how (and how
    // fast) the engine booted.
    let health = client
        .request("GET", "/healthz", None)
        .expect("healthz answers");
    assert_eq!(health.status, 200);
    let health_json = json::parse(health.body.as_bytes()).expect("health body parses");
    assert_eq!(
        health_json.get("status").and_then(|s| match s {
            json::Json::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some("ok")
    );
    let health_snapshot = health_json.get("snapshot").and_then(|s| match s {
        json::Json::Int(id) => Some(*id as u64),
        _ => None,
    });
    assert!(
        server
            .snapshots()
            .iter()
            .any(|s| Some(s.id()) == health_snapshot),
        "healthz names a published snapshot: {health_snapshot:?}"
    );
    assert_eq!(
        health_json.get("boot_mode").and_then(|s| match s {
            json::Json::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some("rebuild"),
        "an engine constructed in-process reports a rebuild boot"
    );
    assert!(
        matches!(health_json.get("boot_ms"), Some(json::Json::Int(ms)) if *ms >= 0),
        "healthz reports the boot wall time"
    );

    // ----- Graceful shutdown before the replay. --------------------------
    let published = server.snapshots();
    let config = *server.engine().config();
    drop(writer); // free the writer's worker before draining
    let response = client
        .request("POST", "/shutdown", None)
        .expect("shutdown answers");
    assert_eq!(response.status, 200);
    drop(client);
    let by_id: HashMap<u64, _> = published.iter().map(|s| (s.id(), s)).collect();
    assert_eq!(by_id.len(), published.len(), "snapshot ids are unique");

    // ----- Replay: every response against the snapshot it names. ---------
    let observations = std::mem::take(&mut *observations.lock().unwrap());
    assert!(
        observations.len() >= CLIENTS * MIN_QUERIES_PER_CLIENT,
        "the soak issued a full complement of queries"
    );
    // Byte-agreement within (snapshot, request) pairs, then one sequential
    // replay per distinct pair.
    let mut agreed: HashMap<(u64, usize), String> = HashMap::new();
    let mut distinct_snapshots = HashSet::new();
    for (idx, body) in &observations {
        let decoded = wire::decode_query_response(
            &json::parse(body.as_bytes()).expect("soak response parses"),
        )
        .expect("soak response decodes");
        let snapshot = decoded
            .snapshot
            .expect("live serving stamps snapshot provenance");
        let result = decoded.result.to_json().encode();
        if let Some(seen) = agreed.get(&(snapshot, *idx)) {
            assert_eq!(
                seen, &result,
                "two clients observed different bytes for snapshot {snapshot}, query {idx}"
            );
        } else {
            agreed.insert((snapshot, *idx), result);
        }
        distinct_snapshots.insert(snapshot);
    }
    for ((snapshot, idx), bytes) in &agreed {
        let snap = by_id
            .get(snapshot)
            .unwrap_or_else(|| panic!("response named unpublished snapshot {snapshot}"));
        let reference = snap
            .answer(&config, &requests[*idx])
            .expect("replay answers");
        assert_eq!(
            &wire::encode_result(&reference),
            bytes,
            "response (snapshot {snapshot}, query {idx}) diverged from the snapshot's \
             sequential answer"
        );
    }
    // The final published snapshot is always observed (clients keep going
    // past the last publish).
    let last = published.last().expect("publish log is never empty").id();
    assert!(
        distinct_snapshots.contains(&last),
        "the post-stop bypass queries pinned the final snapshot {last}"
    );
    assert!(
        distinct_snapshots.len() >= 2,
        "the soak observed answers across multiple published snapshots"
    );

    // Drain the acceptor and the worker pool.
    qserve.join();
}

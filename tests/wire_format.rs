//! Wire-format coverage for the HTTP serving layer (`crates/serve`).
//!
//! Two halves:
//!
//! 1. **Property round trips** — every request and response shape of the
//!    versioned JSON protocol encodes, reparses and decodes back to
//!    byte-identical wire output, including f64 payloads compared
//!    bit-exactly (non-finite and integral floats included).
//! 2. **Malformed bodies over real HTTP** — truncated JSON, wrong `"v"`,
//!    unknown fields, type confusion and raw protocol garbage all come back
//!    as `400` with the documented machine-readable error code, and the
//!    server keeps serving correct answers on the *same* keep-alive
//!    connection afterwards: no panic, no hang, no poisoned worker.

use std::time::Duration;

use proptest::prelude::*;

use q_integration::datasets::{gbco_source_specs_with_fks, GbcoConfig};
use q_integration::matchers::MetadataMatcher;
use q_integration::serve::json::{self, Json};
use q_integration::serve::wire;
use q_integration::serve::{HttpClient, QServe, ServeOptions};
use q_integration::{
    CachePolicy, CacheStatus, Feedback, FeedbackRequest, LiveServer, QConfig, QueryRequest,
    RelationSpec, SearchStrategy, SourceSpec, Value,
};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Typed cell values, biased toward the floats that stress bit-exactness:
/// fractional, integral (must keep their `.0` on the wire) and non-finite.
fn value_strategy() -> impl Strategy<Value = Value> {
    (
        0u8..8,
        -1_000_000i64..1_000_000,
        -1e12f64..1e12,
        "[a-zA-Z0-9 _.-]{0,12}",
    )
        .prop_map(|(kind, int, float, text)| match kind {
            0 => Value::Null,
            1 => Value::Int(int),
            2 => Value::Float(float),
            3 => Value::Float(float.trunc()),
            4 => Value::Float(f64::NAN),
            5 => Value::Float(f64::INFINITY),
            6 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Text(text),
        })
}

/// Query requests across every override: `top_k`, both search strategies,
/// cost budgets and all three cache policies.
fn request_strategy() -> impl Strategy<Value = QueryRequest> {
    (
        proptest::collection::vec("[a-z ]{1,10}", 1..5),
        (0u8..2, 1usize..50),
        (0u8..3, 1usize..20),
        ((0u8..2, 0.001f64..5000.0), 0u8..3),
    )
        .prop_map(
            |(keywords, (has_k, top_k), (strategy, max_roots), ((has_budget, budget), cache))| {
                let mut request = QueryRequest::new(keywords);
                if has_k == 1 {
                    request = request.top_k(top_k);
                }
                match strategy {
                    0 => {}
                    1 => request = request.strategy(SearchStrategy::Exact),
                    _ => request = request.strategy(SearchStrategy::Approx { max_roots }),
                }
                if has_budget == 1 {
                    request = request.cost_budget(budget);
                }
                request = request.cache_policy(match cache {
                    0 => CachePolicy::Cached,
                    1 => CachePolicy::Bypass,
                    _ => CachePolicy::Refresh,
                });
                request
            },
        )
}

/// Feedback requests across all three feedback kinds.
fn feedback_strategy() -> impl Strategy<Value = FeedbackRequest> {
    (
        proptest::collection::vec("[a-z]{1,8}", 1..4),
        (0u8..3, 0usize..50, 0usize..50),
    )
        .prop_map(|(keywords, (kind, a, b))| {
            let feedback = match kind {
                0 => Feedback::Correct { answer: a },
                1 => Feedback::Invalid { answer: a },
                _ => Feedback::Prefer {
                    better: a,
                    worse: b,
                },
            };
            FeedbackRequest::on_keywords(keywords, feedback)
        })
}

/// Source specs with several relations, typed rows and foreign keys.
fn spec_strategy() -> impl Strategy<Value = SourceSpec> {
    (
        "[a-z]{1,6}",
        (1usize..4, 1usize..4, 0usize..4),
        proptest::collection::vec(value_strategy(), 1..24),
        0u8..2,
    )
        .prop_map(|(name, (relations, attributes, rows), pool, fk)| {
            let mut spec = SourceSpec::new(&name);
            let mut next = 0usize;
            for r in 0..relations {
                let labels: Vec<String> = (0..attributes).map(|a| format!("attr_{a}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                let mut relation = RelationSpec::new(&format!("{name}_rel_{r}"), &refs);
                for _ in 0..rows {
                    let row: Vec<Value> = (0..attributes)
                        .map(|_| {
                            let value = pool[next % pool.len()].clone();
                            next += 1;
                            value
                        })
                        .collect();
                    relation = relation.row(row);
                }
                spec = spec.relation(relation);
            }
            if fk == 1 && relations >= 2 {
                spec = spec.foreign_key(
                    &format!("{name}_rel_0.attr_0"),
                    &format!("{name}_rel_1.attr_0"),
                );
            }
            spec
        })
}

/// Wire views with arbitrary schemas, costs and answer cells (both `None`
/// and explicit SQL NULL).
fn view_strategy() -> impl Strategy<Value = wire::WireView> {
    (
        proptest::collection::vec("[a-z]{1,8}", 1..4),
        proptest::collection::vec("[a-zA-Z_]{1,10}", 1..5),
        proptest::collection::vec(0.0f64..100.0, 1..5),
        (
            proptest::collection::vec((0u8..3, value_strategy()), 0..12),
            0usize..4,
        ),
    )
        .prop_map(|(keywords, columns, query_costs, (cells, answer_rows))| {
            let width = columns.len();
            let queries = query_costs.len();
            let answers = (0..answer_rows.min(if cells.is_empty() { 0 } else { cells.len() }))
                .map(|row| wire::WireAnswer {
                    values: (0..width)
                        .map(|col| {
                            let (kind, value) = &cells[(row * width + col) % cells.len()];
                            match kind {
                                0 => None,
                                1 => Some(Value::Null),
                                _ => Some(value.clone()),
                            }
                        })
                        .collect(),
                    query: row % queries,
                    cost: query_costs[row % queries],
                })
                .collect();
            wire::WireView {
                keywords,
                columns,
                query_costs,
                answers,
            }
        })
}

/// Reparse a wire document from its own bytes.
fn reparse(json: &Json) -> Json {
    json::parse(json.encode().as_bytes()).expect("wire output reparses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `encode_query` → parse → `decode_query` → `encode_query` is the
    /// identity on bytes, for every override combination.
    #[test]
    fn query_requests_round_trip_bit_exact(request in request_strategy()) {
        let encoded = wire::encode_query(&request).encode();
        let parsed = json::parse(encoded.as_bytes()).expect("query encoding parses");
        let decoded = wire::decode_query(&parsed).expect("query encoding decodes");
        prop_assert_eq!(wire::encode_query(&decoded).encode(), encoded);
    }

    /// Batch bodies round-trip each entry in order.
    #[test]
    fn batch_requests_round_trip_bit_exact(
        requests in proptest::collection::vec(request_strategy(), 0..5),
    ) {
        let encoded = wire::encode_batch(&requests).encode();
        let parsed = json::parse(encoded.as_bytes()).expect("batch encoding parses");
        let decoded = wire::decode_batch(&parsed).expect("batch encoding decodes");
        prop_assert_eq!(decoded.len(), requests.len());
        prop_assert_eq!(wire::encode_batch(&decoded).encode(), encoded);
    }

    /// Feedback bodies round-trip all three verdicts.
    #[test]
    fn feedback_requests_round_trip_bit_exact(request in feedback_strategy()) {
        let encoded = wire::encode_feedback(&request).encode();
        let parsed = json::parse(encoded.as_bytes()).expect("feedback encoding parses");
        let decoded = wire::decode_feedback(&parsed).expect("feedback encoding decodes");
        prop_assert_eq!(wire::encode_feedback(&decoded).encode(), encoded);
    }

    /// Ingest bodies round-trip the full source spec — names, attributes,
    /// typed rows (bit-exact floats) and foreign keys.
    #[test]
    fn ingest_requests_round_trip_bit_exact(spec in spec_strategy()) {
        let encoded = wire::encode_ingest(&spec).encode();
        let parsed = json::parse(encoded.as_bytes()).expect("ingest encoding parses");
        let decoded = wire::decode_ingest(&parsed).expect("ingest encoding decodes");
        prop_assert_eq!(decoded.name, spec.name.clone());
        prop_assert_eq!(decoded.foreign_keys, spec.foreign_keys.clone());
        prop_assert_eq!(wire::encode_ingest(&decoded).encode(), encoded);
    }

    /// The deterministic `"result"` subobject round-trips bit-exactly:
    /// `WireView::to_json` → parse → `from_json` → `to_json` is the
    /// identity on bytes. This is the foundation of the replay contract —
    /// if two views are equal, their wire bytes are equal, and vice versa.
    #[test]
    fn results_round_trip_bit_exact(view in view_strategy()) {
        let encoded = view.to_json().encode();
        let parsed = json::parse(encoded.as_bytes()).expect("result encoding parses");
        let decoded = wire::WireView::from_json(&parsed).expect("result encoding decodes");
        prop_assert_eq!(decoded.to_json().encode(), encoded);
    }

    /// Float payloads survive the wire with their exact bit pattern, via
    /// the shortest-round-trip decimal encoding (or the `.0` form for
    /// integral floats, or marker strings for non-finite values).
    #[test]
    fn float_values_round_trip_to_the_same_bits(value in value_strategy()) {
        let encoded = wire::encode_value(&value).encode();
        let parsed = json::parse(encoded.as_bytes()).expect("value encoding parses");
        let decoded = wire::decode_value(&parsed, "test value").expect("value decodes");
        match (&value, &decoded) {
            (Value::Float(a), Value::Float(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "float bits drifted: {} vs {}", a, b);
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

/// The bytes of one feedback body, pinned literally: the round trip above
/// only proves the encoder agrees with itself.
#[test]
fn feedback_request_bytes_are_pinned() {
    let request = FeedbackRequest::on_keywords(["a", "b"], Feedback::Correct { answer: 0 });
    assert_eq!(
        wire::encode_feedback(&request).encode(),
        r#"{"v":1,"keywords":["a","b"],"feedback":{"type":"correct","answer":0}}"#
    );
}

/// Error responses round-trip for every wire-level constructor and every
/// core error code, carrying their HTTP status out of band.
#[test]
fn error_responses_round_trip_every_code() {
    use q_integration::QError;

    let parse_error = json::parse(b"{").expect_err("unterminated object");
    let wire_errors = vec![
        wire::WireError::bad_json(&parse_error),
        wire::WireError::unsupported_version(&Json::Int(2)),
        wire::WireError::unknown_field("query request", "keywordz"),
        wire::WireError::invalid_field("query request `top_k`", "expected an integer"),
        wire::WireError::not_found("/nope"),
        wire::WireError::method_not_allowed("GET", "/query"),
        wire::WireError::from_qerror(&QError::InvalidRequest {
            field: "cache",
            reason: "test".into(),
        }),
        wire::WireError::from_qerror(&QError::UnknownAnswer {
            answers: 7,
            answer: 3,
        }),
        wire::WireError::from_qerror(&QError::NoQueryTrees),
    ];
    for error in wire_errors {
        let body = reparse(&error.to_json());
        let decoded = wire::decode_error(&body, error.status).expect("error body decodes");
        assert_eq!(decoded, error);
        assert!(
            (400..600).contains(&error.status),
            "{} maps to a non-error status {}",
            error.code,
            error.status
        );
    }
}

/// Full query responses round-trip for **every** cache-status variant and
/// both snapshot shapes, with the `"result"` bytes unchanged.
#[test]
fn query_responses_round_trip_every_cache_status() {
    let server = boot_tiny_server();
    let mut client = connect(&server);
    let body = wire::encode_query(&QueryRequest::new(["kinase activity"])).encode();
    let response = client
        .request("POST", "/query", Some(&body))
        .expect("query completes");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let template = wire::decode_query_response(
        &json::parse(response.body.as_bytes()).expect("response parses"),
    )
    .expect("response decodes");

    // Rebuild a typed outcome from the decoded response and sweep the
    // envelope dimensions the live path cannot produce on demand.
    let snapshot = server.engine().snapshot();
    let view = snapshot
        .answer(
            server.engine().config(),
            &QueryRequest::new(["kinase activity"]),
        )
        .expect("sequential replay answers");
    let statuses = [
        CacheStatus::Hit,
        CacheStatus::Miss,
        CacheStatus::Bypassed,
        CacheStatus::Refreshed,
        CacheStatus::Revalidated,
    ];
    for status in statuses {
        for snapshot_id in [None, Some(snapshot.id())] {
            let outcome = q_integration::QueryOutcome {
                view: std::sync::Arc::new(view.clone()),
                cache: status,
                weight_epoch: template.weight_epoch,
                steiner: None,
                wall_time: Duration::from_micros(template.wall_time_us),
                snapshot: snapshot_id,
            };
            let encoded = wire::encode_query_response(&outcome).encode();
            let parsed = json::parse(encoded.as_bytes()).expect("response reparses");
            let decoded = wire::decode_query_response(&parsed).expect("response decodes");
            assert_eq!(decoded.cache, status);
            assert_eq!(decoded.snapshot, snapshot_id);
            assert_eq!(
                decoded.result.to_json().encode(),
                wire::encode_result(&view)
            );
        }
    }
    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Malformed bodies over real HTTP
// ---------------------------------------------------------------------------

fn boot_tiny_server() -> QServe {
    let specs = gbco_source_specs_with_fks(&GbcoConfig {
        rows_per_table: 8,
        seed: 17,
    });
    let catalog = q_integration::storage::loader::load_catalog(&specs[..6]).expect("gbco loads");
    let mut engine = LiveServer::new(catalog, QConfig::default());
    engine.add_matcher(Box::new(MetadataMatcher::new()));
    QServe::start(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    )
    .expect("server binds an ephemeral port")
}

fn connect(server: &QServe) -> HttpClient {
    HttpClient::connect(server.addr(), Duration::from_secs(30)).expect("client connects")
}

/// POST a body and decode the typed error the server answers with.
fn post_expecting_error(client: &mut HttpClient, path: &str, body: &str) -> wire::WireError {
    let response = client
        .request("POST", path, Some(body))
        .expect("server answers instead of hanging");
    let parsed = json::parse(response.body.as_bytes())
        .unwrap_or_else(|e| panic!("error body is not JSON ({e}): {}", response.body));
    wire::decode_error(&parsed, response.status).unwrap_or_else(|e| {
        panic!(
            "error body is not a wire error ({}): {}",
            e.message, response.body
        )
    })
}

/// Prove the connection survived: the same keep-alive stream still serves
/// a correct, replayable answer.
fn assert_still_serving(server: &QServe, client: &mut HttpClient) {
    let request = QueryRequest::new(["kinase activity"]);
    let body = wire::encode_query(&request).encode();
    let response = client
        .request("POST", "/query", Some(&body))
        .expect("connection still serves");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let decoded = wire::decode_query_response(
        &json::parse(response.body.as_bytes()).expect("response parses"),
    )
    .expect("response decodes");
    let snapshot = server.engine().snapshot();
    assert_eq!(decoded.snapshot, Some(snapshot.id()));
    let view = snapshot
        .answer(server.engine().config(), &request)
        .expect("sequential replay answers");
    assert_eq!(
        decoded.result.to_json().encode(),
        wire::encode_result(&view)
    );
}

#[test]
fn malformed_bodies_get_typed_400s_and_never_wedge_the_connection() {
    let server = boot_tiny_server();
    let mut client = connect(&server);

    // (path, body, expected code) — one case per documented failure mode.
    let cases: Vec<(&str, String, &str)> = vec![
        // Truncated JSON: a prefix of a valid query body.
        (
            "/query",
            "{\"v\":1,\"keywords\":[\"kin".to_string(),
            "bad_json",
        ),
        // Empty body.
        ("/query", String::new(), "bad_json"),
        // Valid JSON, wrong version.
        (
            "/query",
            "{\"v\":2,\"keywords\":[\"a\"]}".to_string(),
            "unsupported_version",
        ),
        // Version missing entirely.
        (
            "/query",
            "{\"keywords\":[\"a\"]}".to_string(),
            "unsupported_version",
        ),
        // Unknown field (typo'd `keywords`).
        (
            "/query",
            "{\"v\":1,\"keywordz\":[\"a\"]}".to_string(),
            "unknown_field",
        ),
        // Type confusion: keywords must be an array of strings.
        (
            "/query",
            "{\"v\":1,\"keywords\":\"a\"}".to_string(),
            "invalid_field",
        ),
        // Bad nested strategy.
        (
            "/query",
            "{\"v\":1,\"keywords\":[\"a\"],\"strategy\":\"fast\"}".to_string(),
            "invalid_field",
        ),
        // Duplicate keys are a parse error, not silent last-wins.
        (
            "/query",
            "{\"v\":1,\"keywords\":[\"a\"],\"keywords\":[\"b\"]}".to_string(),
            "bad_json",
        ),
        // Batch entries must not carry their own version.
        (
            "/query/batch",
            "{\"v\":1,\"queries\":[{\"v\":1,\"keywords\":[\"a\"]}]}".to_string(),
            "unknown_field",
        ),
        // Feedback is addressed by keywords; a view id is not a field.
        (
            "/feedback",
            "{\"v\":1,\"view\":0,\"feedback\":{\"type\":\"correct\",\"answer\":0}}".to_string(),
            "unknown_field",
        ),
        // Ingest rows must match the attribute count.
        (
            "/ingest",
            "{\"v\":1,\"source\":{\"name\":\"s\",\"relations\":[{\"name\":\"r\",\
              \"attributes\":[\"a\",\"b\"],\"rows\":[[1]]}]}}"
                .to_string(),
            "invalid_field",
        ),
    ];
    for (path, body, expected) in cases {
        let error = post_expecting_error(&mut client, path, &body);
        assert_eq!(
            error.code, expected,
            "{path} with body {body:?} answered {} ({})",
            error.code, error.message
        );
        assert_eq!(error.status, 400, "{path} with body {body:?}");
        // The protocol error must not take the connection (or worker) down.
        assert_still_serving(&server, &mut client);
    }

    // Non-UTF-8 bytes in the body are a bad_json, not a panic.
    let garbage = client
        .request("POST", "/query", Some("\u{fffd}"))
        .expect("server answers");
    assert_eq!(garbage.status, 400);
    assert_still_serving(&server, &mut client);

    server.shutdown();
    server.join();
}

#[test]
fn unknown_routes_and_methods_get_typed_errors() {
    let server = boot_tiny_server();
    let mut client = connect(&server);

    let body = "{\"v\":1,\"keywords\":[\"a\"]}";
    let missing = post_expecting_error(&mut client, "/no/such/endpoint", body);
    assert_eq!((missing.code.as_str(), missing.status), ("not_found", 404));

    let response = client
        .request("GET", "/query", None)
        .expect("server answers GET /query");
    let parsed = json::parse(response.body.as_bytes()).expect("405 body is JSON");
    let error = wire::decode_error(&parsed, response.status).expect("405 body decodes");
    assert_eq!(
        (error.code.as_str(), error.status),
        ("method_not_allowed", 405)
    );

    assert_still_serving(&server, &mut client);
    server.shutdown();
    server.join();
}

#[test]
fn refused_source_specs_are_400_and_publish_nothing() {
    let server = boot_tiny_server();
    let mut client = connect(&server);
    let before = server.engine().snapshot();
    let taken = before.catalog().sources()[0].name.clone();
    let ingest = |source: &str, relation: &str, attributes: &str| {
        format!(
            "{{\"v\":1,\"source\":{{\"name\":\"{source}\",\"relations\":[{{\"name\":\
             \"{relation}\",\"attributes\":[{attributes}]}}]}}}}"
        )
    };
    let bodies = [
        ingest(&taken, "fresh_rel", "\"a\""),
        ingest("", "r", "\"a\""),
        ingest("new.source", "r", "\"a\""),
        ingest("new_source", "", "\"a\""),
        ingest("new_source", "r.x", "\"a\""),
        ingest("new_source", "r", "\"a\",\"b.c\""),
        ingest("new_source", "r", ""),
    ];
    for body in bodies {
        let error = post_expecting_error(&mut client, "/ingest", &body);
        assert_eq!(
            (error.code.as_str(), error.status),
            ("source_load", 400),
            "body {body:?} answered {}",
            error.message
        );
        assert_eq!(server.engine().snapshot().id(), before.id(), "{body:?}");
        assert_still_serving(&server, &mut client);
    }
    server.shutdown();
    server.join();
}

#[test]
fn raw_protocol_garbage_is_rejected_without_wedging_the_server() {
    let server = boot_tiny_server();

    // A line that is not HTTP at all: one typed error, then the server
    // closes this connection (it cannot resynchronise mid-stream).
    let mut client = connect(&server);
    let response = client
        .raw(b"EHLO wire.test\r\n\r\n")
        .expect("server answers garbage with an error response");
    assert_eq!(response.status, 400);
    let parsed = json::parse(response.body.as_bytes()).expect("error body is JSON");
    let error = wire::decode_error(&parsed, response.status).expect("error body decodes");
    assert_eq!(error.code, "bad_http");

    // An unsupported HTTP version.
    let mut client = connect(&server);
    let response = client
        .raw(b"POST /query HTTP/0.9\r\nContent-Length: 0\r\n\r\n")
        .expect("server answers");
    assert_eq!(response.status, 400);

    // A declared body that never arrives must time out server-side and
    // close — and meanwhile the server still answers other connections.
    let mut stalled = connect(&server);
    stalled
        .raw_no_response(b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
        .expect("partial request writes");
    let mut healthy = connect(&server);
    assert_still_serving(&server, &mut healthy);

    server.shutdown();
    server.join();
}

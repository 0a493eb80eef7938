//! Versioned JSON wire protocol (v1) over the typed core API.
//!
//! Every message — request or response — is a JSON object carrying an
//! explicit `"v": 1`. The protocol is *strict*: unknown fields, a missing or
//! unsupported version, and type mismatches are all rejected with a typed
//! error code rather than ignored, so a client talking a future wire version
//! fails loudly instead of being half-understood.
//!
//! Responses split into two parts:
//!
//! * the **deterministic result** (`"result"`, [`WireView`]) — a pure
//!   function of `(snapshot, request)`. Re-encoding
//!   [`GraphSnapshot::answer`](q_core::GraphSnapshot::answer) of the named
//!   snapshot reproduces these bytes exactly; the soak tests replay every
//!   served response against that contract.
//! * the **envelope** (cache status, wall time) — legitimately
//!   non-deterministic, excluded from replay comparison.
//!
//! [`Value`] needs one convention: JSON numbers cannot distinguish
//! `Value::Int(3)` from `Value::Float(3.0)`, so floats ride in a
//! `{"float": …}` wrapper (with `"nan"`/`"inf"`/`"-inf"` markers for the
//! non-finite values JSON cannot express) and round-trip bit-exactly.
//! In answer rows `null` means "this query does not produce that column"
//! (`None`) and an explicit SQL NULL is `{"null": true}`.

use q_core::{
    CachePolicy, CacheStatus, Feedback, FeedbackOutcome, FeedbackRequest, IngestReport,
    LiveFeedbackReport, QError, QueryOutcome, QueryRequest, RankedView, SearchStrategy,
};
use q_storage::{RelationSpec, SourceSpec, Value};

use crate::json::{parse, Json, ParseError};

/// The wire protocol version this build speaks.
pub const WIRE_VERSION: i64 = 1;

/// A typed wire-level error: a stable snake_case `code`, a human-readable
/// `message`, and the HTTP status it maps to. Core [`QError`]s convert via
/// [`WireError::from_qerror`] using [`QError::code`]; the wire layer adds
/// its own codes for protocol-level failures (`bad_json`,
/// `unsupported_version`, `unknown_field`, `invalid_field`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// HTTP status the server responds with.
    pub status: u16,
}

impl WireError {
    fn new(code: &str, status: u16, message: impl Into<String>) -> Self {
        WireError {
            code: code.to_string(),
            message: message.into(),
            status,
        }
    }

    /// Malformed JSON body.
    pub fn bad_json(err: &ParseError) -> Self {
        WireError::new(
            "bad_json",
            400,
            format!("request body is not valid JSON: {err}"),
        )
    }

    /// Missing or unsupported `"v"` field.
    pub fn unsupported_version(found: &Json) -> Self {
        WireError::new(
            "unsupported_version",
            400,
            format!(
                "this server speaks wire version {WIRE_VERSION}; request carried {}",
                found.encode()
            ),
        )
    }

    /// A field the protocol does not define.
    pub fn unknown_field(context: &str, field: &str) -> Self {
        WireError::new(
            "unknown_field",
            400,
            format!("unknown field `{field}` in {context}"),
        )
    }

    /// A defined field with the wrong type or an invalid value.
    pub fn invalid_field(context: &str, detail: impl Into<String>) -> Self {
        WireError::new(
            "invalid_field",
            400,
            format!("{} in {context}", detail.into()),
        )
    }

    /// Route-level 404.
    pub fn not_found(path: &str) -> Self {
        WireError::new("not_found", 404, format!("no such endpoint: {path}"))
    }

    /// Route-level 405.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        WireError::new(
            "method_not_allowed",
            405,
            format!("{method} is not supported on {path}"),
        )
    }

    /// Convert a core error, mapping its stable code to an HTTP status:
    /// client addressing errors are 404, bad parameters and source specs
    /// the catalog refuses 400, an answerable but empty search 422, and
    /// engine failures 500.
    pub fn from_qerror(err: &QError) -> Self {
        let status = match err.code() {
            "invalid_request" | "source_load" => 400,
            "unknown_answer" => 404,
            "no_query_trees" => 422,
            _ => 500,
        };
        WireError::new(err.code(), status, err.to_string())
    }

    /// The error response body: `{"v":1,"error":{"code":…,"message":…}}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("v", Json::Int(WIRE_VERSION)),
            (
                "error",
                Json::object([
                    ("code", Json::Str(self.code.clone())),
                    ("message", Json::Str(self.message.clone())),
                ]),
            ),
        ])
    }
}

/// Decode an error response produced by [`WireError::to_json`] (the status
/// is not part of the body; pass the HTTP status it arrived with).
pub fn decode_error(json: &Json, status: u16) -> Result<WireError, WireError> {
    let obj = check_versioned_object(json, "error response", &["error"])?;
    let inner = require(obj, "error", "error response")?;
    let fields = as_object(inner, "error response `error`", &["code", "message"])?;
    Ok(WireError {
        code: require_str(fields, "code", "error response")?,
        message: require_str(fields, "message", "error response")?,
        status,
    })
}

// ---------------------------------------------------------------------------
// Json accessor helpers (strict: unknown fields are errors)
// ---------------------------------------------------------------------------

type Fields = [(String, Json)];

fn as_object<'a>(json: &'a Json, context: &str, allowed: &[&str]) -> Result<&'a Fields, WireError> {
    let Json::Object(fields) = json else {
        return Err(WireError::invalid_field(context, "expected an object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(WireError::unknown_field(context, key));
        }
    }
    Ok(fields)
}

/// Check `"v"` and the allowed field set of a top-level message object.
fn check_versioned_object<'a>(
    json: &'a Json,
    context: &str,
    allowed: &[&str],
) -> Result<&'a Fields, WireError> {
    let Json::Object(fields) = json else {
        return Err(WireError::invalid_field(context, "expected an object"));
    };
    match json.get("v") {
        Some(Json::Int(v)) if *v == WIRE_VERSION => {}
        Some(other) => return Err(WireError::unsupported_version(other)),
        None => return Err(WireError::unsupported_version(&Json::Null)),
    }
    for (key, _) in fields {
        if key != "v" && !allowed.contains(&key.as_str()) {
            return Err(WireError::unknown_field(context, key));
        }
    }
    Ok(fields)
}

fn get<'a>(fields: &'a Fields, key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'a>(fields: &'a Fields, key: &str, context: &str) -> Result<&'a Json, WireError> {
    get(fields, key)
        .ok_or_else(|| WireError::invalid_field(context, format!("missing field `{key}`")))
}

fn expect_str(json: &Json, context: &str) -> Result<String, WireError> {
    match json {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(WireError::invalid_field(context, "expected a string")),
    }
}

fn expect_usize(json: &Json, context: &str) -> Result<usize, WireError> {
    match json {
        Json::Int(i) if *i >= 0 => Ok(*i as usize),
        _ => Err(WireError::invalid_field(
            context,
            "expected a non-negative integer",
        )),
    }
}

fn expect_u64(json: &Json, context: &str) -> Result<u64, WireError> {
    match json {
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(WireError::invalid_field(
            context,
            "expected a non-negative integer",
        )),
    }
}

fn require_str(fields: &Fields, key: &str, context: &str) -> Result<String, WireError> {
    expect_str(require(fields, key, context)?, context)
}

fn require_usize(fields: &Fields, key: &str, context: &str) -> Result<usize, WireError> {
    expect_usize(require(fields, key, context)?, context)
}

fn require_u64(fields: &Fields, key: &str, context: &str) -> Result<u64, WireError> {
    expect_u64(require(fields, key, context)?, context)
}

fn expect_array<'a>(json: &'a Json, context: &str) -> Result<&'a [Json], WireError> {
    match json {
        Json::Array(items) => Ok(items),
        _ => Err(WireError::invalid_field(context, "expected an array")),
    }
}

fn string_array(json: &Json, context: &str) -> Result<Vec<String>, WireError> {
    expect_array(json, context)?
        .iter()
        .map(|item| expect_str(item, context))
        .collect()
}

/// A bare float (`1.5`), an integer (`3` = `3.0`), or a non-finite marker
/// string. Used *inside* the `{"float": …}` wrapper and for fields that are
/// floats by schema (costs, budgets), where no `Int` ambiguity exists.
fn expect_f64(json: &Json, context: &str) -> Result<f64, WireError> {
    match json {
        Json::Float(x) => Ok(*x),
        Json::Int(i) => Ok(*i as f64),
        Json::Str(s) if s == "nan" => Ok(f64::NAN),
        Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        _ => Err(WireError::invalid_field(context, "expected a number")),
    }
}

/// Encode a schema-level float field (the value is a float by schema, so it
/// is *not* wrapped; integral floats still encode with `.0` and non-finite
/// values as marker strings — see [`crate::json`]).
fn float_json(x: f64) -> Json {
    if x.is_nan() {
        Json::Str("nan".into())
    } else if x.is_infinite() {
        Json::Str(if x > 0.0 { "inf" } else { "-inf" }.into())
    } else {
        Json::Float(x)
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Encode one typed [`Value`] (row context: NULL is `null`).
pub fn encode_value(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Float(x) => Json::object([("float", float_json(*x))]),
        Value::Text(s) => Json::Str(s.clone()),
    }
}

/// Decode one typed [`Value`] (row context: `null` is NULL).
pub fn decode_value(json: &Json, context: &str) -> Result<Value, WireError> {
    match json {
        Json::Null => Ok(Value::Null),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Str(s) => Ok(Value::Text(s.clone())),
        Json::Object(_) => {
            let fields = as_object(json, context, &["float"])?;
            Ok(Value::Float(expect_f64(
                require(fields, "float", context)?,
                context,
            )?))
        }
        _ => Err(WireError::invalid_field(context, "expected a value")),
    }
}

/// Encode an answer cell (answer context: `None` = column not produced is
/// `null`, an explicit SQL NULL is `{"null":true}`).
fn encode_cell(cell: &Option<Value>) -> Json {
    match cell {
        None => Json::Null,
        Some(Value::Null) => Json::object([("null", Json::Bool(true))]),
        Some(value) => encode_value(value),
    }
}

fn decode_cell(json: &Json, context: &str) -> Result<Option<Value>, WireError> {
    match json {
        Json::Null => Ok(None),
        Json::Object(fields) if fields.len() == 1 && fields[0].0 == "null" => match fields[0].1 {
            Json::Bool(true) => Ok(Some(Value::Null)),
            _ => Err(WireError::invalid_field(
                context,
                "expected {\"null\":true}",
            )),
        },
        other => Ok(Some(decode_value(other, context)?)),
    }
}

// ---------------------------------------------------------------------------
// Query requests
// ---------------------------------------------------------------------------

const QUERY_FIELDS: [&str; 5] = ["keywords", "top_k", "strategy", "cost_budget", "cache"];

fn decode_query_fields(fields: &Fields) -> Result<QueryRequest, WireError> {
    const CTX: &str = "query request";
    let keywords = string_array(
        require(fields, "keywords", CTX)?,
        "query request `keywords`",
    )?;
    let mut request = QueryRequest::new(keywords);
    if let Some(top_k) = get(fields, "top_k") {
        request = request.top_k(expect_usize(top_k, "query request `top_k`")?);
    }
    if let Some(strategy) = get(fields, "strategy") {
        request = request.strategy(decode_strategy(strategy)?);
    }
    if let Some(budget) = get(fields, "cost_budget") {
        request = request.cost_budget(expect_f64(budget, "query request `cost_budget`")?);
    }
    if let Some(cache) = get(fields, "cache") {
        request = request.cache_policy(decode_cache_policy(cache)?);
    }
    Ok(request)
}

/// Decode a `POST /query` body.
pub fn decode_query(json: &Json) -> Result<QueryRequest, WireError> {
    let fields = check_versioned_object(json, "query request", &QUERY_FIELDS)?;
    decode_query_fields(fields)
}

/// Decode a `POST /query/batch` body: `{"v":1,"queries":[…]}` where each
/// entry is a query object without its own `"v"`.
pub fn decode_batch(json: &Json) -> Result<Vec<QueryRequest>, WireError> {
    let fields = check_versioned_object(json, "batch request", &["queries"])?;
    expect_array(
        require(fields, "queries", "batch request")?,
        "batch request `queries`",
    )?
    .iter()
    .map(|entry| {
        let fields = as_object(entry, "batch query entry", &QUERY_FIELDS)?;
        decode_query_fields(fields)
    })
    .collect()
}

fn query_fields_json(request: &QueryRequest) -> Vec<(&'static str, Json)> {
    let mut fields = vec![(
        "keywords",
        Json::Array(
            request
                .keywords()
                .iter()
                .map(|k| Json::Str(k.clone()))
                .collect(),
        ),
    )];
    if let Some(top_k) = request.top_k_override() {
        fields.push(("top_k", Json::Int(top_k as i64)));
    }
    if let Some(strategy) = request.strategy_override() {
        fields.push(("strategy", encode_strategy(strategy)));
    }
    if let Some(budget) = request.cost_budget_override() {
        fields.push(("cost_budget", float_json(budget)));
    }
    if request.cache() != CachePolicy::Cached {
        fields.push(("cache", encode_cache_policy(request.cache())));
    }
    fields
}

/// Encode a query request (the exact inverse of [`decode_query`]).
pub fn encode_query(request: &QueryRequest) -> Json {
    let mut fields = vec![("v", Json::Int(WIRE_VERSION))];
    fields.extend(query_fields_json(request));
    Json::object(fields)
}

/// Encode a batch request (the exact inverse of [`decode_batch`]).
pub fn encode_batch(requests: &[QueryRequest]) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        (
            "queries",
            Json::Array(
                requests
                    .iter()
                    .map(|r| Json::object(query_fields_json(r)))
                    .collect(),
            ),
        ),
    ])
}

fn decode_strategy(json: &Json) -> Result<SearchStrategy, WireError> {
    const CTX: &str = "query request `strategy`";
    match json {
        Json::Str(s) if s == "exact" => Ok(SearchStrategy::Exact),
        Json::Object(_) => {
            let fields = as_object(json, CTX, &["approx"])?;
            let inner = as_object(require(fields, "approx", CTX)?, CTX, &["max_roots"])?;
            Ok(SearchStrategy::Approx {
                max_roots: require_usize(inner, "max_roots", CTX)?,
            })
        }
        _ => Err(WireError::invalid_field(
            CTX,
            "expected \"exact\" or {\"approx\":{\"max_roots\":N}}",
        )),
    }
}

fn encode_strategy(strategy: SearchStrategy) -> Json {
    match strategy {
        SearchStrategy::Exact => Json::Str("exact".into()),
        SearchStrategy::Approx { max_roots } => Json::object([(
            "approx",
            Json::object([("max_roots", Json::Int(max_roots as i64))]),
        )]),
    }
}

fn decode_cache_policy(json: &Json) -> Result<CachePolicy, WireError> {
    match json {
        Json::Str(s) if s == "cached" => Ok(CachePolicy::Cached),
        Json::Str(s) if s == "bypass" => Ok(CachePolicy::Bypass),
        Json::Str(s) if s == "refresh" => Ok(CachePolicy::Refresh),
        _ => Err(WireError::invalid_field(
            "query request `cache`",
            "expected \"cached\", \"bypass\" or \"refresh\"",
        )),
    }
}

fn encode_cache_policy(policy: CachePolicy) -> Json {
    Json::Str(
        match policy {
            CachePolicy::Cached => "cached",
            CachePolicy::Bypass => "bypass",
            CachePolicy::Refresh => "refresh",
        }
        .into(),
    )
}

// ---------------------------------------------------------------------------
// Ingest requests
// ---------------------------------------------------------------------------

/// Decode a `POST /ingest` body into a typed [`SourceSpec`].
pub fn decode_ingest(json: &Json) -> Result<SourceSpec, WireError> {
    const CTX: &str = "ingest request";
    let fields = check_versioned_object(json, CTX, &["source"])?;
    let source = as_object(
        require(fields, "source", CTX)?,
        "ingest source",
        &["name", "relations", "foreign_keys"],
    )?;
    let mut spec = SourceSpec::new(&require_str(source, "name", "ingest source")?);
    for relation in expect_array(
        require(source, "relations", "ingest source")?,
        "ingest source `relations`",
    )? {
        let fields = as_object(relation, "ingest relation", &["name", "attributes", "rows"])?;
        let name = require_str(fields, "name", "ingest relation")?;
        let attributes = string_array(
            require(fields, "attributes", "ingest relation")?,
            "ingest relation `attributes`",
        )?;
        let attribute_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
        let mut rel = RelationSpec::new(&name, &attribute_refs);
        if let Some(rows) = get(fields, "rows") {
            for row in expect_array(rows, "ingest relation `rows`")? {
                let cells = expect_array(row, "ingest row")?
                    .iter()
                    .map(|cell| decode_value(cell, "ingest row value"))
                    .collect::<Result<Vec<Value>, WireError>>()?;
                if cells.len() != attributes.len() {
                    return Err(WireError::invalid_field(
                        "ingest row",
                        format!(
                            "row has {} values, relation has {} attributes",
                            cells.len(),
                            attributes.len()
                        ),
                    ));
                }
                rel = rel.row(cells);
            }
        }
        spec = spec.relation(rel);
    }
    if let Some(fks) = get(source, "foreign_keys") {
        for fk in expect_array(fks, "ingest source `foreign_keys`")? {
            let pair = expect_array(fk, "ingest foreign key")?;
            if pair.len() != 2 {
                return Err(WireError::invalid_field(
                    "ingest foreign key",
                    "expected [\"rel.attr\", \"rel.attr\"]",
                ));
            }
            let from = expect_str(&pair[0], "ingest foreign key")?;
            let to = expect_str(&pair[1], "ingest foreign key")?;
            spec = spec.foreign_key(&from, &to);
        }
    }
    Ok(spec)
}

/// Encode a source spec (the exact inverse of [`decode_ingest`]).
pub fn encode_ingest(spec: &SourceSpec) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        (
            "source",
            Json::object([
                ("name", Json::Str(spec.name.clone())),
                (
                    "relations",
                    Json::Array(
                        spec.relations
                            .iter()
                            .map(|rel| {
                                Json::object([
                                    ("name", Json::Str(rel.name.clone())),
                                    (
                                        "attributes",
                                        Json::Array(
                                            rel.attributes
                                                .iter()
                                                .map(|a| Json::Str(a.clone()))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "rows",
                                        Json::Array(
                                            rel.rows
                                                .iter()
                                                .map(|row| {
                                                    Json::Array(
                                                        row.iter().map(encode_value).collect(),
                                                    )
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "foreign_keys",
                    Json::Array(
                        spec.foreign_keys
                            .iter()
                            .map(|(from, to)| {
                                Json::Array(vec![Json::Str(from.clone()), Json::Str(to.clone())])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Feedback requests
// ---------------------------------------------------------------------------

/// Decode a `POST /feedback` body.
pub fn decode_feedback(json: &Json) -> Result<FeedbackRequest, WireError> {
    const CTX: &str = "feedback request";
    let fields = check_versioned_object(json, CTX, &["keywords", "feedback"])?;
    let feedback = decode_feedback_kind(require(fields, "feedback", CTX)?)?;
    let keywords = string_array(
        require(fields, "keywords", CTX)?,
        "feedback request `keywords`",
    )?;
    Ok(FeedbackRequest::on_keywords(keywords, feedback))
}

/// Encode a feedback request (the exact inverse of [`decode_feedback`]).
pub fn encode_feedback(request: &FeedbackRequest) -> Json {
    let keywords = request.keywords().iter().map(|k| Json::Str(k.clone()));
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        ("keywords", Json::Array(keywords.collect())),
        ("feedback", encode_feedback_kind(request.feedback())),
    ])
}

fn decode_feedback_kind(json: &Json) -> Result<Feedback, WireError> {
    const CTX: &str = "feedback request `feedback`";
    let Json::Object(_) = json else {
        return Err(WireError::invalid_field(CTX, "expected an object"));
    };
    match json.get("type") {
        Some(Json::Str(t)) if t == "correct" => {
            let fields = as_object(json, CTX, &["type", "answer"])?;
            Ok(Feedback::Correct {
                answer: require_usize(fields, "answer", CTX)?,
            })
        }
        Some(Json::Str(t)) if t == "invalid" => {
            let fields = as_object(json, CTX, &["type", "answer"])?;
            Ok(Feedback::Invalid {
                answer: require_usize(fields, "answer", CTX)?,
            })
        }
        Some(Json::Str(t)) if t == "prefer" => {
            let fields = as_object(json, CTX, &["type", "better", "worse"])?;
            Ok(Feedback::Prefer {
                better: require_usize(fields, "better", CTX)?,
                worse: require_usize(fields, "worse", CTX)?,
            })
        }
        _ => Err(WireError::invalid_field(
            CTX,
            "expected type \"correct\", \"invalid\" or \"prefer\"",
        )),
    }
}

fn encode_feedback_kind(feedback: Feedback) -> Json {
    match feedback {
        Feedback::Correct { answer } => Json::object([
            ("type", Json::Str("correct".into())),
            ("answer", Json::Int(answer as i64)),
        ]),
        Feedback::Invalid { answer } => Json::object([
            ("type", Json::Str("invalid".into())),
            ("answer", Json::Int(answer as i64)),
        ]),
        Feedback::Prefer { better, worse } => Json::object([
            ("type", Json::Str("prefer".into())),
            ("better", Json::Int(better as i64)),
            ("worse", Json::Int(worse as i64)),
        ]),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The wire-visible projection of a [`RankedView`]: everything a client
/// needs (schema, ranked query costs, answers with provenance), without the
/// internal Steiner trees and conjunctive query plans. This is the
/// deterministic `"result"` subobject of a query response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireView {
    /// The (verbatim) keywords the view answers.
    pub keywords: Vec<String>,
    /// Unified output schema labels.
    pub columns: Vec<String>,
    /// Cost of each ranked query, in rank order.
    pub query_costs: Vec<f64>,
    /// Materialised answers.
    pub answers: Vec<WireAnswer>,
}

/// One answer row on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// Values aligned to `columns` (`None` = not produced by this query).
    pub values: Vec<Option<Value>>,
    /// Index into `query_costs` of the originating query.
    pub query: usize,
    /// Cost of the originating query.
    pub cost: f64,
}

impl WireView {
    /// Project a core view onto the wire.
    fn from_view(view: &RankedView) -> Self {
        WireView {
            keywords: view.keywords.clone(),
            columns: view.columns.clone(),
            query_costs: view.queries.iter().map(|q| q.cost).collect(),
            answers: view
                .answers
                .iter()
                .map(|a| WireAnswer {
                    values: a.values.clone(),
                    query: a.query_index,
                    cost: a.cost,
                })
                .collect(),
        }
    }

    /// Deterministic encoding: equal views produce identical bytes.
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "keywords",
                Json::Array(self.keywords.iter().map(|k| Json::Str(k.clone())).collect()),
            ),
            (
                "columns",
                Json::Array(self.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "query_costs",
                Json::Array(self.query_costs.iter().map(|c| float_json(*c)).collect()),
            ),
            (
                "answers",
                Json::Array(
                    self.answers
                        .iter()
                        .map(|a| {
                            Json::object([
                                (
                                    "values",
                                    Json::Array(a.values.iter().map(encode_cell).collect()),
                                ),
                                ("query", Json::Int(a.query as i64)),
                                ("cost", float_json(a.cost)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode the `"result"` subobject.
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        const CTX: &str = "query result";
        let fields = as_object(
            json,
            CTX,
            &["keywords", "columns", "query_costs", "answers"],
        )?;
        Ok(WireView {
            keywords: string_array(require(fields, "keywords", CTX)?, "result `keywords`")?,
            columns: string_array(require(fields, "columns", CTX)?, "result `columns`")?,
            query_costs: expect_array(
                require(fields, "query_costs", CTX)?,
                "result `query_costs`",
            )?
            .iter()
            .map(|c| expect_f64(c, "result `query_costs`"))
            .collect::<Result<_, _>>()?,
            answers: expect_array(require(fields, "answers", CTX)?, "result `answers`")?
                .iter()
                .map(|a| {
                    let fields = as_object(a, "result answer", &["values", "query", "cost"])?;
                    Ok(WireAnswer {
                        values: expect_array(
                            require(fields, "values", "result answer")?,
                            "result answer `values`",
                        )?
                        .iter()
                        .map(|cell| decode_cell(cell, "result answer value"))
                        .collect::<Result<_, _>>()?,
                        query: require_usize(fields, "query", "result answer")?,
                        cost: expect_f64(
                            require(fields, "cost", "result answer")?,
                            "result answer `cost`",
                        )?,
                    })
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Encode the deterministic `"result"` bytes of a view — the replay
/// contract: for a response naming snapshot `s`,
/// `encode_result(&s.answer(config, request)?)` reproduces the response's
/// `"result"` field byte for byte.
pub fn encode_result(view: &RankedView) -> String {
    WireView::from_view(view).to_json().encode()
}

fn cache_status_str(status: CacheStatus) -> &'static str {
    match status {
        CacheStatus::Hit => "hit",
        CacheStatus::Miss => "miss",
        CacheStatus::Bypassed => "bypassed",
        CacheStatus::Refreshed => "refreshed",
        CacheStatus::Revalidated => "revalidated",
    }
}

fn decode_cache_status(json: &Json, context: &str) -> Result<CacheStatus, WireError> {
    match json {
        Json::Str(s) if s == "hit" => Ok(CacheStatus::Hit),
        Json::Str(s) if s == "miss" => Ok(CacheStatus::Miss),
        Json::Str(s) if s == "bypassed" => Ok(CacheStatus::Bypassed),
        Json::Str(s) if s == "refreshed" => Ok(CacheStatus::Refreshed),
        Json::Str(s) if s == "revalidated" => Ok(CacheStatus::Revalidated),
        _ => Err(WireError::invalid_field(context, "expected a cache status")),
    }
}

/// A decoded query response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQueryResponse {
    /// Snapshot the result is a sequential answer of (`None` when the
    /// engine does not stamp snapshots).
    pub snapshot: Option<u64>,
    /// Weight epoch the result is priced under.
    pub weight_epoch: u64,
    /// Cache disposition (envelope; excluded from replay).
    pub cache: CacheStatus,
    /// Service time in microseconds (envelope; excluded from replay).
    pub wall_time_us: u64,
    /// The deterministic result.
    pub result: WireView,
}

/// Encode a `POST /query` response.
pub fn encode_query_response(outcome: &QueryOutcome) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        (
            "snapshot",
            match outcome.snapshot {
                Some(id) => Json::Int(id as i64),
                None => Json::Null,
            },
        ),
        ("weight_epoch", Json::Int(outcome.weight_epoch as i64)),
        ("cache", Json::Str(cache_status_str(outcome.cache).into())),
        (
            "wall_time_us",
            Json::Int(outcome.wall_time.as_micros() as i64),
        ),
        ("result", WireView::from_view(&outcome.view).to_json()),
    ])
}

/// Decode a `POST /query` response.
pub fn decode_query_response(json: &Json) -> Result<WireQueryResponse, WireError> {
    const CTX: &str = "query response";
    let fields = check_versioned_object(
        json,
        CTX,
        &[
            "snapshot",
            "weight_epoch",
            "cache",
            "wall_time_us",
            "result",
        ],
    )?;
    let snapshot = match require(fields, "snapshot", CTX)? {
        Json::Null => None,
        other => Some(expect_u64(other, "query response `snapshot`")?),
    };
    Ok(WireQueryResponse {
        snapshot,
        weight_epoch: require_u64(fields, "weight_epoch", CTX)?,
        cache: decode_cache_status(require(fields, "cache", CTX)?, "query response `cache`")?,
        wall_time_us: require_u64(fields, "wall_time_us", CTX)?,
        result: WireView::from_json(require(fields, "result", CTX)?)?,
    })
}

/// Encode a `POST /query/batch` response: per-entry query responses or
/// error objects, in request order.
pub fn encode_batch_response(outcomes: &[Result<QueryOutcome, QError>]) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        (
            "results",
            Json::Array(
                outcomes
                    .iter()
                    .map(|entry| match entry {
                        Ok(outcome) => encode_query_response(outcome),
                        Err(err) => WireError::from_qerror(err).to_json(),
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A decoded ingest response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireIngestResponse {
    /// Snapshot the ingestion published.
    pub snapshot: u64,
    /// Id assigned to the new source.
    pub source: u32,
    /// Alignments the matchers proposed.
    pub alignments: u64,
    /// Cached entries that survived the publish.
    pub cache_kept: u64,
    /// Cached entries handed to the background re-validation lane.
    pub cache_parked: u64,
    /// Cached entries the publish dropped.
    pub cache_dropped: u64,
}

/// Encode a `POST /ingest` response.
pub fn encode_ingest_response(report: &IngestReport) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        ("snapshot", Json::Int(report.snapshot.id() as i64)),
        ("source", Json::Int(report.source.0 as i64)),
        ("alignments", Json::Int(report.alignments.len() as i64)),
        ("cache_kept", Json::Int(report.cache_kept as i64)),
        ("cache_parked", Json::Int(report.cache_parked as i64)),
        ("cache_dropped", Json::Int(report.cache_dropped as i64)),
    ])
}

/// Decode a `POST /ingest` response.
pub fn decode_ingest_response(json: &Json) -> Result<WireIngestResponse, WireError> {
    const CTX: &str = "ingest response";
    let fields = check_versioned_object(
        json,
        CTX,
        &[
            "snapshot",
            "source",
            "alignments",
            "cache_kept",
            "cache_parked",
            "cache_dropped",
        ],
    )?;
    Ok(WireIngestResponse {
        snapshot: require_u64(fields, "snapshot", CTX)?,
        source: require_u64(fields, "source", CTX)? as u32,
        alignments: require_u64(fields, "alignments", CTX)?,
        cache_kept: require_u64(fields, "cache_kept", CTX)?,
        cache_parked: require_u64(fields, "cache_parked", CTX)?,
        cache_dropped: require_u64(fields, "cache_dropped", CTX)?,
    })
}

/// A decoded feedback response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFeedbackResponse {
    /// Snapshot the feedback published.
    pub snapshot: u64,
    /// What the MIRA update did.
    pub outcome: FeedbackOutcome,
}

/// Encode a `POST /feedback` response.
pub fn encode_feedback_response(report: &LiveFeedbackReport) -> Json {
    let o = &report.outcome;
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        ("snapshot", Json::Int(report.snapshot.id() as i64)),
        (
            "outcome",
            Json::object([
                ("target_query", Json::Int(o.target_query as i64)),
                ("constraints", Json::Int(o.constraints as i64)),
                ("initially_violated", Json::Int(o.initially_violated as i64)),
                (
                    "remaining_violations",
                    Json::Int(o.remaining_violations as i64),
                ),
                ("default_weight_bump", float_json(o.default_weight_bump)),
                ("repriced_features", Json::Int(o.repriced_features as i64)),
            ]),
        ),
    ])
}

/// Decode a `POST /feedback` response.
pub fn decode_feedback_response(json: &Json) -> Result<WireFeedbackResponse, WireError> {
    const CTX: &str = "feedback response";
    let fields = check_versioned_object(json, CTX, &["snapshot", "outcome"])?;
    let outcome = as_object(
        require(fields, "outcome", CTX)?,
        "feedback outcome",
        &[
            "target_query",
            "constraints",
            "initially_violated",
            "remaining_violations",
            "default_weight_bump",
            "repriced_features",
        ],
    )?;
    Ok(WireFeedbackResponse {
        snapshot: require_u64(fields, "snapshot", CTX)?,
        outcome: FeedbackOutcome {
            target_query: require_usize(outcome, "target_query", "feedback outcome")?,
            constraints: require_usize(outcome, "constraints", "feedback outcome")?,
            initially_violated: require_usize(outcome, "initially_violated", "feedback outcome")?,
            remaining_violations: require_usize(
                outcome,
                "remaining_violations",
                "feedback outcome",
            )?,
            default_weight_bump: expect_f64(
                require(outcome, "default_weight_bump", "feedback outcome")?,
                "feedback outcome `default_weight_bump`",
            )?,
            repriced_features: require_usize(outcome, "repriced_features", "feedback outcome")?,
        },
    })
}

/// Encode the `GET /healthz` body. `boot_mode` is how the serving engine
/// was constructed (`"snapshot"` when restored from a persisted file,
/// `"rebuild"` when built from the dataset) and `boot_ms` the boot wall
/// time in milliseconds.
pub fn encode_health(snapshot: u64, boot_mode: &str, boot_ms: u64) -> Json {
    Json::object([
        ("v", Json::Int(WIRE_VERSION)),
        ("status", Json::Str("ok".into())),
        ("snapshot", Json::Int(snapshot as i64)),
        ("boot_mode", Json::Str(boot_mode.into())),
        ("boot_ms", Json::Int(boot_ms as i64)),
    ])
}

/// Parse a request body: UTF-8, then JSON, with wire-level errors.
pub fn parse_body(body: &[u8]) -> Result<Json, WireError> {
    if std::str::from_utf8(body).is_err() {
        return Err(WireError::new("bad_json", 400, "request body is not UTF-8"));
    }
    parse(body).map_err(|e| WireError::bad_json(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse(json: &Json) -> Json {
        parse(json.encode().as_bytes()).expect("wire messages re-parse")
    }

    #[test]
    fn query_requests_round_trip() {
        let requests = [
            QueryRequest::new(["plasma membrane", "entry"]),
            QueryRequest::new(["a"])
                .top_k(3)
                .cache_policy(CachePolicy::Bypass),
            QueryRequest::new(["a", "b"])
                .strategy(SearchStrategy::Exact)
                .cost_budget(12.5),
            QueryRequest::new(["x"])
                .strategy(SearchStrategy::Approx { max_roots: 7 })
                .cache_policy(CachePolicy::Refresh),
        ];
        for request in requests {
            let encoded = encode_query(&request);
            let decoded = decode_query(&reparse(&encoded)).expect("round trip decodes");
            assert_eq!(decoded, request);
            assert_eq!(encode_query(&decoded).encode(), encoded.encode());
        }
    }

    #[test]
    fn batch_requests_round_trip() {
        let requests = vec![QueryRequest::new(["a"]), QueryRequest::new(["b"]).top_k(1)];
        let encoded = encode_batch(&requests);
        assert_eq!(decode_batch(&reparse(&encoded)).unwrap(), requests);
    }

    #[test]
    fn feedback_requests_round_trip() {
        let requests = [
            FeedbackRequest::on_keywords(["a", "b"], Feedback::Invalid { answer: 2 }),
            FeedbackRequest::on_keywords(
                ["x"],
                Feedback::Prefer {
                    better: 0,
                    worse: 4,
                },
            ),
        ];
        for request in requests {
            let encoded = encode_feedback(&request);
            let decoded = decode_feedback(&reparse(&encoded)).expect("round trip decodes");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn ingest_requests_round_trip() {
        let spec = SourceSpec::new("pubdb")
            .relation(
                RelationSpec::new("pub", &["id", "score", "title"])
                    .row::<_, Value>([
                        Value::Int(1),
                        Value::Float(0.5),
                        Value::Text("Kringle".into()),
                    ])
                    .row::<_, Value>([Value::Int(2), Value::Null, Value::Float(3.0)]),
            )
            .relation(RelationSpec::new("empty", &["a"]))
            .foreign_key("pub.id", "empty.a");
        let encoded = encode_ingest(&spec);
        let decoded = decode_ingest(&reparse(&encoded)).expect("round trip decodes");
        assert_eq!(decoded, spec);
    }

    #[test]
    fn values_round_trip_bit_exact() {
        for value in [
            Value::Null,
            Value::Int(-5),
            Value::Float(0.1 + 0.2), // a value with no short decimal form
            Value::Float(3.0),       // integral float stays a float
            Value::Float(f64::INFINITY),
            Value::Text("x \"y\"\n".into()),
        ] {
            let json = reparse(&encode_value(&value));
            let back = decode_value(&json, "test").expect("value decodes");
            match (&value, &back) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "float bits diverged")
                }
                _ => assert_eq!(value, back),
            }
        }
    }

    #[test]
    fn answer_cells_distinguish_absent_from_null() {
        let absent = encode_cell(&None);
        let null = encode_cell(&Some(Value::Null));
        assert_ne!(absent.encode(), null.encode());
        assert_eq!(decode_cell(&reparse(&absent), "t").unwrap(), None);
        assert_eq!(
            decode_cell(&reparse(&null), "t").unwrap(),
            Some(Value::Null)
        );
    }

    #[test]
    fn version_and_unknown_fields_are_rejected_with_typed_codes() {
        let missing_v = parse(br#"{"keywords":["a"]}"#).unwrap();
        assert_eq!(
            decode_query(&missing_v).unwrap_err().code,
            "unsupported_version"
        );
        let wrong_v = parse(br#"{"v":2,"keywords":["a"]}"#).unwrap();
        assert_eq!(
            decode_query(&wrong_v).unwrap_err().code,
            "unsupported_version"
        );
        let unknown = parse(br#"{"v":1,"keywords":["a"],"surprise":1}"#).unwrap();
        let err = decode_query(&unknown).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        assert_eq!(err.status, 400);
        let wrong_type = parse(br#"{"v":1,"keywords":"a"}"#).unwrap();
        assert_eq!(decode_query(&wrong_type).unwrap_err().code, "invalid_field");
    }

    #[test]
    fn qerror_codes_map_to_statuses() {
        let cases = [
            (
                QError::InvalidRequest {
                    field: "top_k",
                    reason: "must be at least 1".into(),
                },
                400,
            ),
            (
                QError::UnknownAnswer {
                    answers: 2,
                    answer: 3,
                },
                404,
            ),
            (QError::NoQueryTrees, 422),
            (
                QError::Storage(q_storage::StorageError::InvalidAtom(0)),
                500,
            ),
            // A spec the catalog refuses is the client's input, not an
            // engine failure.
            (
                QError::SourceLoad {
                    source_name: "go".into(),
                    source: q_storage::StorageError::DuplicateSource("go".into()),
                },
                400,
            ),
            (
                QError::SourceLoad {
                    source_name: "a.b".into(),
                    source: q_storage::StorageError::InvalidName {
                        kind: "source",
                        name: "a.b".into(),
                    },
                },
                400,
            ),
            (
                QError::SourceLoad {
                    source_name: "s".into(),
                    source: q_storage::StorageError::NoAttributes("r".into()),
                },
                400,
            ),
            (
                QError::ViewMaterialization {
                    keywords: vec!["a".into()],
                    source: q_storage::StorageError::InvalidAtom(0),
                },
                500,
            ),
        ];
        for (err, status) in cases {
            let wire = WireError::from_qerror(&err);
            assert_eq!(wire.status, status);
            assert_eq!(wire.code, err.code());
            // Error bodies round-trip through the error decoder.
            let decoded = decode_error(&reparse(&wire.to_json()), status).unwrap();
            assert_eq!(decoded, wire);
        }
    }
}

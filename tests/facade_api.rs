//! Guards the public API surface promised by `src/lib.rs`: every workspace
//! crate must stay reachable through the `q_integration` façade re-exports,
//! and the top-level convenience re-exports must be enough to stand up a
//! working `LiveServer` without naming any `q_*` crate directly.

use q_integration::{
    CachePolicy, CacheStatus, Catalog, Feedback, FeedbackRequest, LiveServer, QConfig,
    QueryRequest, RelationSpec, SourceSpec, Value,
};

/// A two-source catalog, built purely through façade re-exports.
fn tiny_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    SourceSpec::new("go")
        .relation(
            RelationSpec::new("go_term", &["acc", "name"])
                .row(["GO:0001", "insulin secretion"])
                .row(["GO:0002", "glucose transport"]),
        )
        .load_into(&mut catalog)
        .unwrap();
    SourceSpec::new("interpro")
        .relation(
            RelationSpec::new("entry2go", &["entry_ac", "go_acc"])
                .row(["IPR000001", "GO:0001"])
                .row(["IPR000002", "GO:0002"]),
        )
        .load_into(&mut catalog)
        .unwrap();
    catalog
}

#[test]
fn facade_reexports_support_the_full_pipeline() {
    let mut live = LiveServer::new(tiny_catalog(), QConfig::default());
    live.add_matcher(Box::new(q_integration::matchers::MetadataMatcher::new()));
    live.add_matcher(Box::new(q_integration::matchers::MadMatcher::new()));

    let request = QueryRequest::new(["insulin", "secretion"]);
    let view = live.snapshot().answer(live.config(), &request).unwrap();
    assert!(
        view.answer_count() > 0,
        "keyword view over the loaded catalog should produce answers"
    );

    // Feedback through the façade type publishes a re-priced snapshot that
    // still answers.
    let report = live
        .feedback(&FeedbackRequest::on_keywords(
            ["insulin", "secretion"],
            Feedback::Correct { answer: 0 },
        ))
        .unwrap();
    assert_eq!(live.snapshot().id(), report.snapshot.id());
    let view = report.snapshot.answer(live.config(), &request).unwrap();
    assert!(view.answer_count() > 0);
}

#[test]
fn facade_exposes_the_typed_query_api() {
    // Engine, request, outcome and error types must all be reachable from
    // the façade without naming a `q_*` crate.
    let live = LiveServer::new(tiny_catalog(), QConfig::default());
    let request = QueryRequest::new(["insulin", "secretion"]);
    let answered = live
        .snapshot()
        .answer(live.config(), &request)
        .expect("query answers");

    // Cached serving answers the snapshot's bytes.
    let miss = live.query(&request).expect("query answers");
    assert_eq!(miss.cache, CacheStatus::Miss);
    assert!(miss.view.answer_count() > 0);
    assert_eq!(*miss.view, answered);
    let hit = live.query(&request).expect("query answers");
    assert_eq!(hit.cache, CacheStatus::Hit);

    let bypass = live
        .query(&request.clone().cache_policy(CachePolicy::Bypass))
        .expect("query answers");
    assert_eq!(bypass.cache, CacheStatus::Bypassed);

    // The unified error chain is visible through the façade.
    let err = live
        .query(&QueryRequest::new(["insulin"]).top_k(0))
        .expect_err("invalid request rejected");
    assert!(matches!(err, q_integration::QError::InvalidRequest { .. }));
    let err: Box<dyn std::error::Error> = Box::new(q_integration::QError::SourceLoad {
        source_name: "go".into(),
        source: q_integration::StorageError::DuplicateSource("go".into()),
    });
    assert!(err.source().is_some(), "storage cause is chained");
}

#[test]
fn facade_value_construction_matches_storage() {
    // `Value` re-export is the storage crate's type, not a copy.
    let v: Value = Value::from("GO:0001");
    let w: q_integration::storage::Value = Value::from("GO:0001");
    assert_eq!(v, w);
}

#[test]
fn every_workspace_crate_is_reachable_through_the_facade() {
    // One symbol per re-exported module; a removed module or renamed
    // re-export fails this test at compile time.
    let _storage = q_integration::storage::Catalog::new();
    let _graph = q_integration::graph::SearchGraph::new();
    let _matchers = q_integration::matchers::MetadataMatcher::new();
    let _align = q_integration::align::AlignerConfig::default();
    let _learn = q_integration::learn::Mira::new();
    let _core = q_integration::core::QConfig::default();
    let _datasets = q_integration::datasets::GbcoConfig::default();
}

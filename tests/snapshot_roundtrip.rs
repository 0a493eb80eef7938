//! Persistent-snapshot round-trip equivalence: a [`GraphSnapshot`] saved to
//! disk and loaded back must serve the full GBCO workload **byte-identically**
//! to the server it was saved from — across cache dispositions (misses,
//! hits, post-feedback revalidations), and across the publishes that follow
//! the reload. Plus the serving-layer contracts that ride on the store: the
//! `/metrics` byte gauge reconciles with the persisted section sizes, the
//! background persistence lane retains the newest files only, and a corrupt
//! newest snapshot is rejected with a typed error (the `q-serve` fallback
//! path).

use std::path::PathBuf;

use q_integration::datasets::{gbco_source_specs_with_fks, gbco_trials, GbcoConfig};
use q_integration::matchers::MetadataMatcher;
use q_integration::serve::wire;
use q_integration::{
    latest_snapshot_path, CacheStatus, Feedback, FeedbackRequest, GraphSnapshot, LiveServer,
    QConfig, QueryRequest,
};

fn small() -> GbcoConfig {
    GbcoConfig {
        rows_per_table: 12,
        seed: 17,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("q-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trial_requests() -> Vec<QueryRequest> {
    gbco_trials()
        .iter()
        .map(|t| QueryRequest::new(t.keywords.iter().cloned()))
        .collect()
}

fn build_server() -> LiveServer {
    let specs = gbco_source_specs_with_fks(&small());
    let catalog = q_integration::storage::loader::load_catalog(&specs).expect("gbco loads");
    let mut server = LiveServer::new(catalog, QConfig::default());
    server.add_matcher(Box::new(MetadataMatcher::new()));
    server
}

/// Run the workload once, returning each answer's cache disposition and
/// its wire-encoded bytes (the serving layer's byte-identity currency).
fn run_workload(server: &LiveServer, requests: &[QueryRequest]) -> Vec<(CacheStatus, String)> {
    requests
        .iter()
        .map(|request| {
            let outcome = server.query(request).expect("workload answers");
            (outcome.cache, wire::encode_result(&outcome.view))
        })
        .collect()
}

/// The tentpole invariant: save → load → serve is indistinguishable from
/// never having restarted, phase by phase.
fn assert_round_trip_equivalence() {
    let dir = scratch_dir("equiv");
    let requests = trial_requests();

    let original = build_server();
    // Phase 1/2 on the original: a full pass of misses, then a full pass
    // of hits out of the warmed cache.
    let misses = run_workload(&original, &requests);
    assert!(misses.iter().all(|(c, _)| *c == CacheStatus::Miss));
    let hits = run_workload(&original, &requests);
    assert!(hits.iter().all(|(c, _)| *c == CacheStatus::Hit));

    // Persist the published snapshot and boot a second server from disk.
    let path = dir.join("snap.qsnap");
    original.snapshot().save(&path).expect("snapshot saves");
    let (loaded, _info) = GraphSnapshot::load(&path).expect("snapshot loads");
    assert_eq!(loaded.id(), original.snapshot().id());
    let config = *original.config();
    let mut restored = LiveServer::from_snapshot(loaded, config);
    restored.add_matcher(Box::new(MetadataMatcher::new()));

    // The restored server replays the same phases byte-identically: its
    // cold cache misses where the original missed, then hits where the
    // original hit — with the same answer bytes everywhere.
    let restored_misses = run_workload(&restored, &requests);
    assert_eq!(misses, restored_misses, "cold pass diverged");
    let restored_hits = run_workload(&restored, &requests);
    assert_eq!(hits, restored_hits, "warm pass diverged");

    // Phase 3: identical feedback on both servers (demote the top answer
    // of the first answerable trial), then a post-publish pass — cache
    // revalidation decisions and answer bytes must still agree. The probe
    // goes through the snapshot directly so neither server's cache state
    // is perturbed asymmetrically.
    let probe = original.snapshot();
    let rated = requests
        .iter()
        .find(|r| {
            !probe
                .answer(&config, r)
                .expect("probe answers")
                .answers
                .is_empty()
        })
        .expect("some GBCO trial has answers to rate")
        .clone();
    let feedback =
        FeedbackRequest::on_keywords(rated.keywords().to_vec(), Feedback::Invalid { answer: 0 });
    let a = original
        .feedback(&feedback)
        .expect("original takes feedback");
    let b = restored
        .feedback(&feedback)
        .expect("restored takes feedback");
    assert_eq!(
        a.snapshot.id(),
        b.snapshot.id(),
        "feedback publishes diverged"
    );
    let after_a = run_workload(&original, &requests);
    let after_b = run_workload(&restored, &requests);
    assert_eq!(
        after_a, after_b,
        "post-feedback pass diverged (revalidations included)"
    );
    assert!(
        after_a
            .iter()
            .any(|(c, _)| matches!(c, CacheStatus::Revalidated | CacheStatus::Hit)),
        "the post-feedback pass exercised cache survival"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round_trip_serves_the_workload_byte_identically_unsharded() {
    assert_round_trip_equivalence();
}

#[test]
fn persistence_lane_retains_the_newest_files_and_they_load() {
    let dir = scratch_dir("retention");
    let specs = gbco_source_specs_with_fks(&small());
    let catalog =
        q_integration::storage::loader::load_catalog(&specs[..specs.len() - 2]).expect("loads");
    let mut server = LiveServer::new(catalog, QConfig::default());
    server.add_matcher(Box::new(MetadataMatcher::new()));
    server
        .enable_persistence(dir.clone(), 1)
        .expect("persistence starts");

    // The boot snapshot is deposited immediately; each ingest publish
    // deposits the next. Flushing between publishes makes every write
    // observable, so keep-last-1 retention is exact.
    server.flush_persistence();
    for spec in &specs[specs.len() - 2..] {
        server.ingest_source(spec).expect("ingest publishes");
        server.flush_persistence();
    }
    let stats = server.persist_stats().expect("persistence is on");
    assert_eq!(stats.persisted, 3, "boot + two ingest publishes");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.last_persisted_id, server.snapshot().id());

    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        files,
        vec![format!("snap-{}.qsnap", server.snapshot().id())],
        "keep-last-1 retention leaves exactly the newest snapshot"
    );

    // And the retained file round-trips into a serving-equivalent engine.
    let path = latest_snapshot_path(&dir).expect("retained snapshot found");
    let (loaded, _) = GraphSnapshot::load(&path).expect("retained snapshot loads");
    let request = trial_requests().into_iter().next().expect("a trial");
    let config = *server.config();
    assert_eq!(
        wire::encode_result(&loaded.answer(&config, &request).expect("loaded answers")),
        wire::encode_result(
            &server
                .snapshot()
                .answer(&config, &request)
                .expect("live answers")
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_snapshot_bytes_gauge_matches_the_persisted_section_sizes() {
    use std::time::Duration;

    use q_integration::serve::{HttpClient, QServe, ServeOptions};
    use q_integration::snap::SectionKind;

    let dir = scratch_dir("gauge");
    let qserve = QServe::start(build_server(), "127.0.0.1:0", ServeOptions::default())
        .expect("server binds");
    let mut client =
        HttpClient::connect(qserve.addr(), Duration::from_secs(30)).expect("client connects");
    let scrape = client
        .request("GET", "/metrics", None)
        .expect("metrics answers");
    assert_eq!(scrape.status, 200);
    let gauge = scrape
        .body
        .lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == "q_snapshot_bytes").then(|| value.parse::<u64>().expect("gauge parses"))
        })
        .expect("q_snapshot_bytes is exposed");

    // The gauge is the snapshot's accounted bytes: the global CSR, which
    // the CSR section persists behind its two 8-byte length prefixes, plus
    // the keyword postings estimate. They reconcile byte for byte.
    let snapshot = qserve.engine().snapshot();
    let info = snapshot.save(&dir.join("gauge.qsnap")).expect("saves");
    let persisted = info.kind_bytes(SectionKind::GraphCsr) - 16
        + snapshot.keyword_index().postings_byte_estimate();
    assert!(gauge > 0, "the gauge is live");
    assert_eq!(gauge, persisted, "gauge and persisted sections reconcile");

    let response = client
        .request("POST", "/shutdown", None)
        .expect("shutdown answers");
    assert_eq!(response.status, 200);
    drop(client);
    qserve.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_snapshot_is_rejected_with_a_typed_error() {
    // The q-serve boot path: latest file wins, validation failure falls
    // back to rebuild. Here the newest file is garbage — the load must be
    // a typed error (never a panic, never a partial graph), leaving the
    // caller free to rebuild.
    let dir = scratch_dir("fallback");
    std::fs::write(dir.join("snap-99.qsnap"), b"not a snapshot at all").unwrap();
    let path = latest_snapshot_path(&dir).expect("the corrupt file is newest");
    let err = GraphSnapshot::load(&path).expect_err("garbage must not load");
    let _typed: q_integration::SnapError = err;
    let _ = std::fs::remove_dir_all(&dir);
}

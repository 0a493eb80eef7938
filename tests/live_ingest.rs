//! Concurrency and soak tests for the live-ingestion serving engine.
//!
//! The engine's contract: readers serve from immutable published
//! [`GraphSnapshot`]s while a writer incorporates sources, and **every**
//! answer a reader observes — fresh, cached or survival-kept — is
//! byte-identical to the *sequential* answer of some published snapshot,
//! which the outcome names via [`QueryOutcome::snapshot`]. The stress
//! harness here interleaves reader threads with a source-ingesting writer
//! under `std::thread::scope` and replays every observation against the
//! publish log (linearizability-by-replay).
//!
//! The file also pins the ingestion-specific satellite behaviours: the
//! cache survival rule (an unaffordable bridge keeps entries serving
//! `CacheStatus::Revalidated` hits; a cheap bridge parks the entry for the
//! background re-validation lane, which settles it warm again) and the
//! golden-answer guarantee that incremental one-by-one ingestion converges
//! byte-for-byte to the all-at-once build.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use q_core::{CachePolicy, CacheStatus, GraphSnapshot, LiveServer, QConfig, QueryRequest};
use q_datasets::{gbco_source_specs_with_fks, gbco_trials, GbcoConfig, GoldStandard};
use q_matchers::{AttributeAlignment, MetadataMatcher, SchemaMatcher};
use q_storage::{Catalog, RelationId, RelationSpec, SourceSpec};

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

// ---------------------------------------------------------------------------
// Stress harness: N readers vs an ingesting writer, replayed afterwards.
// ---------------------------------------------------------------------------

/// How many sources the server boots with; the rest stream in live.
const INITIAL_SOURCES: usize = 10;
/// Queries every reader must answer even if the writer finishes first, so
/// each run exercises the final snapshot too.
const MIN_QUERIES_PER_READER: usize = 8;

/// Run the interleaved stress once and replay every observation.
fn stress_run(readers: usize) {
    let specs = gbco_source_specs_with_fks(&small());
    let catalog =
        q_storage::loader::load_catalog(&specs[..INITIAL_SOURCES]).expect("initial GBCO loads");
    let mut server = LiveServer::new(catalog, QConfig::default());
    server.add_matcher(Box::new(MetadataMatcher::new()));
    // CI's persistence leg points the snapshot lane at a temp directory, so
    // the stress also covers re-validation/persistence interplay: both
    // background lanes run while readers hammer the cache.
    if let Ok(dir) = std::env::var("LIVE_INGEST_SNAPSHOT_DIR") {
        let dir = std::path::PathBuf::from(dir).join(format!("readers-{readers}"));
        server
            .enable_persistence(dir, 2)
            .expect("snapshot directory is writable");
    }
    let server = &server;
    let requests = trial_requests();
    let requests = &requests;

    let stop = AtomicBool::new(false);
    let stop = &stop;
    // (snapshot id, request index) -> observed answer bytes. Two readers
    // observing the same key must agree; the replay below checks both of
    // them against the snapshot's sequential answer anyway.
    let observations: Mutex<HashMap<(u64, usize), String>> = Mutex::new(HashMap::new());
    let observations = &observations;
    let mut published: Vec<Arc<GraphSnapshot>> = vec![server.snapshot()];

    std::thread::scope(|s| {
        for r in 0..readers {
            s.spawn(move || {
                let mut i = r; // strided start: readers diverge immediately
                let mut issued = 0usize;
                let mut local: Vec<((u64, usize), String)> = Vec::new();
                let observe = |request: &QueryRequest, idx: usize| {
                    let outcome = server.query(request).expect("GBCO queries answer");
                    let snapshot = outcome
                        .snapshot
                        .expect("live serving stamps snapshot provenance");
                    ((snapshot, idx), format!("{:?}", outcome.view))
                };
                while !stop.load(Ordering::Acquire) || issued < MIN_QUERIES_PER_READER {
                    let idx = i % requests.len();
                    // Mixed policies: every third query bypasses the cache,
                    // the rest go through it (hits, misses and
                    // survival-kept entries all land in the observations).
                    let request = if i % 3 == 0 {
                        requests[idx].clone().cache_policy(CachePolicy::Bypass)
                    } else {
                        requests[idx].clone()
                    };
                    local.push(observe(&request, idx));
                    i += 1;
                    issued += 1;
                }
                // One guaranteed post-stop observation: a bypass query after
                // the last publish pins the final snapshot into the replay.
                let idx = i % requests.len();
                let last = requests[idx].clone().cache_policy(CachePolicy::Bypass);
                local.push(observe(&last, idx));
                let mut merged = observations.lock().unwrap();
                for (key, bytes) in local {
                    if let Some(seen) = merged.get(&key) {
                        assert_eq!(
                            seen, &bytes,
                            "two readers observed different bytes for {key:?}"
                        );
                    } else {
                        merged.insert(key, bytes);
                    }
                }
            });
        }
        // The writer runs on the scope's own thread: one source at a time,
        // end-to-end, while the readers above keep serving.
        for spec in &specs[INITIAL_SOURCES..] {
            let report = server.ingest_source(spec).expect("GBCO source ingests");
            published.push(report.snapshot);
        }
        stop.store(true, Ordering::Release);
    });

    // Replay: every observation must be byte-identical to the sequential
    // answer of the published snapshot it claims.
    let by_id: HashMap<u64, &Arc<GraphSnapshot>> = published.iter().map(|s| (s.id(), s)).collect();
    assert_eq!(by_id.len(), published.len(), "snapshot ids are unique");
    let observations = std::mem::take(&mut *observations.lock().unwrap());
    assert!(!observations.is_empty());
    let mut distinct_snapshots = HashSet::new();
    for ((snapshot, idx), bytes) in &observations {
        let snap = by_id
            .get(snapshot)
            .unwrap_or_else(|| panic!("observed unpublished snapshot {snapshot}"));
        let reference = snap
            .answer(server.config(), &requests[*idx])
            .expect("replay answers");
        assert_eq!(
            &format!("{reference:?}"),
            bytes,
            "observation (snapshot {snapshot}, query {idx}) diverged from the \
             snapshot's sequential answer"
        );
        distinct_snapshots.insert(*snapshot);
    }
    // The final snapshot is always observed (readers keep going past the
    // last publish).
    assert!(distinct_snapshots.contains(&published.last().unwrap().id()));
}

#[test]
fn concurrent_answers_replay_byte_identical_against_published_snapshots() {
    // CI pins the reader count through the environment (its matrix runs 1,
    // 4 and 8); a plain `cargo test` covers a serial and a parallel shape.
    match std::env::var("LIVE_INGEST_READERS") {
        Ok(v) => stress_run(v.parse().expect("LIVE_INGEST_READERS is a number")),
        Err(_) => {
            for readers in [1, 4] {
                stress_run(readers);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache survival regression (satellite): unaffordable bridge keeps entries,
// affordable bridge forces the drop path.
// ---------------------------------------------------------------------------

/// A matcher proposing one fixed alignment at a fixed confidence whenever
/// the configured relation pair is scored — full control over the bridge
/// edge's cost in the survival tests.
struct FixedMatcher {
    new_relation: String,
    existing_attribute: String,
    new_attribute: String,
    confidence: f64,
}

impl SchemaMatcher for FixedMatcher {
    fn name(&self) -> &str {
        "fixed"
    }

    fn match_relations(
        &self,
        catalog: &Catalog,
        new_relation: RelationId,
        _existing_relation: RelationId,
        _top_y: usize,
    ) -> Vec<AttributeAlignment> {
        if catalog.relation(new_relation).map(|r| r.name.as_str()) != Some(&self.new_relation) {
            return Vec::new();
        }
        match (
            catalog.resolve_qualified(&self.new_attribute),
            catalog.resolve_qualified(&self.existing_attribute),
        ) {
            // Propose the pair only when scoring the relation that owns the
            // existing attribute, so the alignment is emitted exactly once.
            (Some(new), Some(existing))
                if catalog.attribute(existing).map(|a| a.relation) == Some(_existing_relation) =>
            {
                vec![AttributeAlignment::new(new, existing, self.confidence)]
            }
            _ => Vec::new(),
        }
    }
}

fn survival_base() -> Vec<SourceSpec> {
    vec![
        SourceSpec::new("go").relation(
            RelationSpec::new("go_term", &["acc", "name"])
                .row(["GO:1", "plasma membrane"])
                .row(["GO:2", "kinase activity"]),
        ),
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("interpro2go", &["go_id", "entry_ac"])
                    .row(["GO:1", "IPR01"])
                    .row(["GO:2", "IPR02"]),
            )
            .relation(
                RelationSpec::new("entry", &["entry_ac", "name"])
                    .row(["IPR01", "Kringle domain"])
                    .row(["IPR02", "Cytokine receptor"]),
            )
            .foreign_key("interpro2go.entry_ac", "entry.entry_ac"),
    ]
}

/// A source with a vocabulary sharing no token or trigram with the cached
/// query's keywords, so only the bridge-cost half of the survival rule is
/// in play.
fn disjoint_source() -> SourceSpec {
    SourceSpec::new("xlog").relation(
        RelationSpec::new("xq_row", &["xq_uid", "xq_val"])
            .row(["UU81", "VV92"])
            .row(["UU82", "VV93"]),
    )
}

fn survival_server(confidence: f64) -> (LiveServer, QueryRequest) {
    let catalog = q_storage::loader::load_catalog(&survival_base()).expect("base loads");
    let mut server = LiveServer::new(catalog, QConfig::default());
    // Two fixed bridges landing right next to each of the cached query's
    // keyword anchors ("plasma membrane" lives in go_term, "entry" in
    // entry), so the per-entry reachability price *is* the bridge cost —
    // the survival verdict tracks `confidence` alone, not path length.
    server.add_matcher(Box::new(FixedMatcher {
        new_relation: "xq_row".into(),
        existing_attribute: "go_term.acc".into(),
        new_attribute: "xq_row.xq_uid".into(),
        confidence,
    }));
    server.add_matcher(Box::new(FixedMatcher {
        new_relation: "xq_row".into(),
        existing_attribute: "entry.entry_ac".into(),
        new_attribute: "xq_row.xq_val".into(),
        confidence,
    }));
    let snap = server.snapshot();
    let acc = snap.catalog().resolve_qualified("go_term.acc").unwrap();
    let go_id = snap
        .catalog()
        .resolve_qualified("interpro2go.go_id")
        .unwrap();
    server.publish_association(acc, go_id, 0.95);
    // A full (top_k = 1) ranked list: its displacement threshold is the
    // single tree's cost, not the (infinite) budget.
    let request = QueryRequest::new(["plasma membrane", "entry"]).top_k(1);
    (server, request)
}

#[test]
fn expensive_bridge_keeps_cached_entries_revalidated() {
    // Confidence 0.05 prices the only bridge edge far above the cached
    // tree: the new source provably cannot enter the top-k.
    let (server, request) = survival_server(0.05);
    let warm = server.query(&request).unwrap();
    assert_eq!(warm.cache, CacheStatus::Miss);

    let report = server.ingest_source(&disjoint_source()).unwrap();
    assert_eq!(report.alignments.len(), 2, "both fixed bridges proposed");
    assert!(report.bridge_floor > warm.view.queries[0].cost);
    assert_eq!(
        (report.cache_kept, report.cache_parked, report.cache_dropped),
        (1, 0, 0),
        "the pricing proves the entry safe at publish time — no lane trip"
    );

    let hit = server.query(&request).unwrap();
    assert_eq!(hit.cache, CacheStatus::Revalidated);
    assert!(Arc::ptr_eq(&warm.view, &hit.view));
    // Provenance: still the snapshot that priced the entry, which remains a
    // published snapshot the answer replays against.
    assert_eq!(hit.snapshot, warm.snapshot);
    assert!(hit.snapshot.unwrap() < report.snapshot.id());
}

#[test]
fn cheap_bridge_parks_the_entry_and_the_lane_settles_it_warm() {
    // Confidence 0.95 prices the bridge *below* the cached tree's cost: a
    // new join tree could displace the top-k, so the publish cannot keep
    // the entry — it parks it for the background lane instead of dropping.
    let (server, request) = survival_server(0.95);
    let warm = server.query(&request).unwrap();
    let report = server.ingest_source(&disjoint_source()).unwrap();
    assert!(report.bridge_floor < warm.view.queries[0].cost);
    assert_eq!(
        (report.cache_kept, report.cache_parked, report.cache_dropped),
        (0, 1, 0)
    );

    // The lane settles the parked entry with a ground-truth recompute.
    server.flush_revalidation();
    let lane = server.revalidation_stats();
    assert_eq!(lane.depth, 0, "flush drains the lane");
    assert_eq!(
        lane.kept + lane.repriced,
        1,
        "the parked entry was re-admitted, not lost: {lane:?}"
    );

    // The repeat serves warm — and byte-identical to the sequential answer
    // of whichever snapshot the settled entry names.
    let after = server.query(&request).unwrap();
    assert_eq!(after.cache, CacheStatus::Revalidated);
    if after.snapshot == warm.snapshot {
        assert_eq!(lane.kept, 1, "old provenance means byte-equal recompute");
        assert!(Arc::ptr_eq(&warm.view, &after.view));
    } else {
        assert_eq!(lane.repriced, 1);
        assert_eq!(after.snapshot, Some(report.snapshot.id()));
        let reference = report.snapshot.answer(server.config(), &request).unwrap();
        assert_eq!(&*after.view, &reference);
    }
}

#[test]
fn keyword_overlap_parks_the_entry_even_when_unbridged() {
    // No matcher at all: the source is unreachable (bridge floor infinite),
    // but its relation vocabulary matches the cached query's keywords — the
    // cheap bound cannot clear the entry, so it parks for re-validation.
    let catalog = q_storage::loader::load_catalog(&survival_base()).expect("base loads");
    let server = LiveServer::new(catalog, QConfig::default());
    let request = QueryRequest::new(["plasma membrane", "entry"]).top_k(1);
    let warm = server.query(&request).unwrap();
    let overlapping = SourceSpec::new("notes").relation(
        RelationSpec::new("lab_entry", &["entry_code", "text"]).row(["E1", "plasma prep"]),
    );
    let report = server.ingest_source(&overlapping).unwrap();
    assert_eq!(report.bridge_floor, f64::INFINITY);
    assert_eq!(
        (report.cache_kept, report.cache_parked, report.cache_dropped),
        (0, 1, 0)
    );

    // Whatever the recompute decided, the repeat is byte-consistent with
    // the sequential answer of the snapshot it names.
    server.flush_revalidation();
    let after = server.query(&request).unwrap();
    let named = after.snapshot.expect("live serving stamps snapshots");
    let reference = if named == report.snapshot.id() {
        report.snapshot.answer(server.config(), &request).unwrap()
    } else {
        assert_eq!(Some(named), warm.snapshot);
        (*warm.view).clone()
    };
    assert_eq!(&*after.view, &reference);
}

/// The survival rule over a real GBCO stream with `MetadataMatcher` (the
/// three cases above run a hand-built corpus with a fixed matcher): one warm
/// entry per trial query, then the held-back sources one at a time with the
/// lane flushed after each. Single-threaded, so the verdict split is the
/// same on every run.
#[test]
fn gbco_stream_keeps_entries_and_every_warm_entry_replays() {
    let specs = gbco_source_specs_with_fks(&small());
    let catalog =
        q_storage::loader::load_catalog(&specs[..INITIAL_SOURCES]).expect("initial GBCO loads");
    let mut server = LiveServer::new(catalog, QConfig::default());
    server.add_matcher(Box::new(MetadataMatcher::new()));
    let requests = trial_requests();
    for request in &requests {
        let warm = server.query(request).expect("GBCO queries answer");
        assert_eq!(warm.cache, CacheStatus::Miss);
    }

    let mut published: Vec<Arc<GraphSnapshot>> = vec![server.snapshot()];
    let (mut kept, mut parked) = (0, 0);
    let mut verdicts = Vec::new();
    for spec in &specs[INITIAL_SOURCES..] {
        let present = server.cache_stats().len as u64;
        let report = server.ingest_source(spec).expect("GBCO source ingests");
        assert_eq!(
            report.cache_kept + report.cache_parked + report.cache_dropped,
            present,
            "every entry present at the publish gets exactly one verdict"
        );
        verdicts.push((report.cache_kept, report.cache_parked, report.cache_dropped));
        kept += report.cache_kept;
        parked += report.cache_parked;
        // Settle the parked entries before the next publish supersedes them.
        server.flush_revalidation();
        published.push(report.snapshot);
    }
    assert!(
        kept >= 1,
        "per-entry pricing kept nothing at publish time across {} publishes — \
         survival is wholesale-invalidating again",
        published.len() - 1
    );
    let lane = server.revalidation_stats();
    assert_eq!(
        lane.kept + lane.repriced + lane.dropped,
        parked,
        "every parked entry is settled exactly once: {lane:?}"
    );
    // The exact verdicts, publish by publish: the replay check below cannot
    // see a survival rule that keeps too much (a kept entry replays against
    // its old stamp), so the partition itself is pinned.
    assert_eq!(
        verdicts,
        [
            (1, 15, 0),
            (0, 16, 0),
            (0, 16, 0),
            (2, 14, 0),
            (0, 16, 0),
            (0, 16, 0),
            (0, 16, 0),
            (0, 16, 0),
        ],
        "per-publish (kept, parked, dropped)"
    );
    assert_eq!(
        (lane.kept, lane.repriced, lane.dropped),
        (43, 82, 0),
        "lane (kept, repriced, dropped)"
    );

    // Whatever is still warm — kept outright, or parked and re-admitted by
    // the lane — serves the sequential answer of the snapshot it names.
    let mut warm = 0;
    for request in &requests {
        let outcome = server.query(request).expect("GBCO queries answer");
        if !matches!(outcome.cache, CacheStatus::Hit | CacheStatus::Revalidated) {
            continue;
        }
        warm += 1;
        let named = outcome.snapshot.expect("live serving stamps snapshots");
        let snapshot = published
            .iter()
            .find(|s| s.id() == named)
            .unwrap_or_else(|| panic!("warm entry names unpublished snapshot {named}"));
        let reference = snapshot
            .answer(server.config(), request)
            .expect("replay answers");
        assert_eq!(
            &*outcome.view,
            &reference,
            "warm entry for {:?} diverged from snapshot {named}",
            request.keywords()
        );
    }
    assert!(
        warm >= 1,
        "no entry stayed warm: the replay checked nothing"
    );
}

// ---------------------------------------------------------------------------
// Golden-answer evaluation: incremental ingestion == all-at-once build.
// ---------------------------------------------------------------------------

/// Gold alignments over the GBCO schema (domain-true attribute pairs that
/// are not foreign keys), applied identically to both builds.
fn gbco_gold() -> GoldStandard {
    GoldStandard::new(&[
        ("tissue.species", "gene.species"),
        ("donor.age", "sample.age"),
        ("tissue.name", "platform.name"),
        ("sample.notes", "donor.notes"),
        ("experiment.investigator", "platform.manufacturer"),
    ])
}

#[test]
fn incremental_ingestion_matches_the_all_at_once_build_byte_for_byte() {
    let specs = gbco_source_specs_with_fks(&small());

    // All-at-once: every source in the catalog from the start, gold
    // alignments added last.
    let full_catalog = q_storage::loader::load_catalog(&specs).expect("GBCO loads");
    let gold = gbco_gold();
    let resolved = gold.resolve(&full_catalog);
    let batch = LiveServer::new(full_catalog, QConfig::default());
    for (a, b) in &resolved {
        batch.publish_association(*a, *b, 0.9);
    }
    let batch = batch.snapshot();

    // Incremental: boot on the first source alone, stream the remaining 17
    // through live ingestion one by one, then publish the same gold
    // alignments in the same order.
    let first = q_storage::loader::load_catalog(&specs[..1]).expect("first source loads");
    let live = LiveServer::new(first, QConfig::default());
    for spec in &specs[1..] {
        live.ingest_source(spec).expect("source ingests");
    }
    for (a, b) in &resolved {
        live.publish_association(*a, *b, 0.9);
    }
    let final_snapshot = live.snapshot();

    // The converged serving state is identical...
    assert_eq!(
        batch.graph().node_count(),
        final_snapshot.graph().node_count()
    );
    assert_eq!(
        batch.graph().edge_count(),
        final_snapshot.graph().edge_count()
    );
    // ...and so is every top-k answer of the gold workload, byte for byte.
    for request in trial_requests() {
        let request = request.cache_policy(CachePolicy::Bypass);
        let from_batch = batch
            .answer(live.config(), &request)
            .expect("batch answers");
        let from_live = live.query(&request).expect("live answers");
        assert_eq!(
            format!("{:?}", from_batch),
            format!("{:?}", from_live.view),
            "answers diverged for {:?}",
            request.keywords()
        );
    }
}

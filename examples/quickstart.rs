//! Quickstart: build two small bioinformatics sources, link them with a
//! matcher-proposed association, ask a typed keyword query and print the
//! ranked, provenance-annotated answers — then re-ask with per-request
//! overrides, no rebuild needed, and serve the same query through the
//! engine's answer cache.
//!
//! Run with `cargo run --example quickstart`.

use q_integration::{CachePolicy, LiveServer, QConfig, QueryRequest, RelationSpec, SourceSpec};

fn main() {
    // ------------------------------------------------------------------
    // 1. Describe the initial sources (normally these come from JDBC /
    //    metadata scans; here they are inline specs).
    // ------------------------------------------------------------------
    let go = SourceSpec::new("go").relation(
        RelationSpec::new("go_term", &["acc", "name", "term_type"])
            .row(["GO:0005886", "plasma membrane", "component"])
            .row(["GO:0016301", "kinase activity", "function"])
            .row(["GO:0030073", "insulin secretion", "process"]),
    );
    let interpro = SourceSpec::new("interpro")
        .relation(
            RelationSpec::new("interpro2go", &["go_id", "entry_ac"])
                .row(["GO:0005886", "IPR000001"])
                .row(["GO:0016301", "IPR000719"])
                .row(["GO:0030073", "IPR022352"]),
        )
        .relation(
            RelationSpec::new("entry", &["entry_ac", "name"])
                .row(["IPR000001", "Kringle"])
                .row(["IPR000719", "Protein kinase domain"])
                .row(["IPR022352", "Insulin family"]),
        )
        .foreign_key("interpro2go.entry_ac", "entry.entry_ac");

    // ------------------------------------------------------------------
    // 2. Start Q over the loaded catalog: the search graph and keyword
    //    index are built from it and published as the first snapshot.
    // ------------------------------------------------------------------
    let catalog =
        q_integration::storage::loader::load_catalog(&[go, interpro]).expect("sources load");
    let live = LiveServer::new(catalog, QConfig::default());

    // The go_term.acc / interpro2go.go_id link is not a declared foreign key;
    // add it as a matcher-style association (a schema matcher would find it).
    // Every write publishes the next snapshot.
    let base = live.snapshot();
    let acc = base.catalog().resolve_qualified("go_term.acc").unwrap();
    let go_id = base
        .catalog()
        .resolve_qualified("interpro2go.go_id")
        .unwrap();
    let snapshot = live.publish_association(acc, go_id, 0.95);

    // ------------------------------------------------------------------
    // 3. Ask a typed keyword query of that snapshot and print the ranked
    //    view with its provenance.
    // ------------------------------------------------------------------
    let view = snapshot
        .answer(
            live.config(),
            &QueryRequest::new(["insulin secretion", "entry"]),
        )
        .expect("query answers");

    println!("keywords : {:?}", view.keywords);
    println!("columns  : {:?}", view.columns);
    println!("queries  : {} ranked join queries", view.queries.len());
    for (i, rq) in view.queries.iter().enumerate() {
        println!(
            "  #{i}: cost {:.3}, {} atoms, {} joins",
            rq.cost,
            rq.query.atoms.len(),
            rq.query.joins.len()
        );
    }
    println!("answers  :");
    for answer in &view.answers {
        let row: Vec<String> = answer
            .values
            .iter()
            .map(|v| {
                v.as_ref()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!(
            "  [query #{} cost {:.3}] {}",
            answer.query_index,
            answer.cost,
            row.join(" | ")
        );
    }

    // ------------------------------------------------------------------
    // 4. Per-request overrides: the same snapshot answers top-1 without
    //    being rebuilt.
    // ------------------------------------------------------------------
    let top1 = snapshot
        .answer(
            live.config(),
            &QueryRequest::new(["insulin secretion", "entry"]).top_k(1),
        )
        .expect("query answers");
    println!("\ntop_k=1  : {} ranked query", top1.queries.len());

    // ------------------------------------------------------------------
    // 5. Cached serving: the server answers through `&self` from the
    //    published snapshot; a repeat is a cache hit, and every outcome
    //    names the snapshot it was computed on.
    // ------------------------------------------------------------------
    let request = QueryRequest::new(["insulin secretion", "entry"]);
    let miss = live.query(&request).expect("query answers");
    assert_eq!(*miss.view, view, "the cache serves the snapshot's bytes");
    println!(
        "\nlive     : served {:?} from snapshot {} in {:?}",
        miss.cache,
        snapshot.id(),
        miss.wall_time
    );
    if let Some(stats) = miss.steiner {
        println!(
            "search   : {} roots considered, {} candidate trees, {} returned",
            stats.roots_considered, stats.candidates_generated, stats.trees_returned
        );
    }
    let repeat = live.query(&request).expect("query answers");
    println!(
        "repeat   : served {:?} (same bytes, zero compute)",
        repeat.cache
    );
    let bypass = live
        .query(&request.cache_policy(CachePolicy::Bypass))
        .expect("query answers");
    println!(
        "bypass   : served {:?} in {:?}",
        bypass.cache, bypass.wall_time
    );
}

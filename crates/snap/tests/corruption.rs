//! Corruption property tests for the snapshot store.
//!
//! A snapshot mutated in any way — truncated at an arbitrary byte, a bit
//! flipped anywhere in the file, the format version bumped — must yield a
//! typed [`SnapError`] from `read_snapshot`: never a panic, never a
//! partially-loaded graph. The unmutated control file must keep loading
//! after every mutation round, pinning that validation failures have no
//! side effects on the reader.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use q_graph::{KeywordIndex, SearchGraph};
use q_snap::{
    accounted_bytes, read_snapshot, write_snapshot, SnapError, SnapshotComponents, FORMAT_VERSION,
};
use q_storage::{Catalog, RelationSpec, SourceSpec};

fn build_components() -> (Catalog, SearchGraph, KeywordIndex) {
    let mut cat = Catalog::new();
    SourceSpec::new("go")
        .relation(
            RelationSpec::new("go_term", &["acc", "name", "term_type"])
                .row(["GO:0005134", "plasma membrane", "component"])
                .row(["GO:0007652", "kinase activity", "function"])
                .row(["GO:0016301", "kinase binding", "function"]),
        )
        .load_into(&mut cat)
        .unwrap();
    SourceSpec::new("interpro")
        .relation(RelationSpec::new("entry", &["entry_ac", "name"]).row(["IPR000001", "Kringle"]))
        .relation(
            RelationSpec::new("interpro2go", &["entry_ac", "go_id"])
                .row(["IPR000001", "GO:0005134"]),
        )
        .foreign_key("interpro2go.entry_ac", "entry.entry_ac")
        .foreign_key("interpro2go.go_id", "go_term.acc")
        .load_into(&mut cat)
        .unwrap();
    let mut graph = SearchGraph::from_catalog(&cat);
    let a = cat.resolve_qualified("go_term.acc").unwrap();
    let b = cat.resolve_qualified("interpro2go.go_id").unwrap();
    graph.add_association(a, b, "mad", 0.83);
    let index = KeywordIndex::build(&cat);
    (cat, graph, index)
}

/// The pristine snapshot bytes every property mutates a copy of.
fn pristine() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (cat, graph, index) = build_components();
        let path = scratch_path("pristine.qsnap");
        write_snapshot(
            &path,
            &SnapshotComponents {
                id: 7,
                catalog: &cat,
                graph: &graph,
                keyword: &index,
            },
        )
        .unwrap();
        fs::read(&path).unwrap()
    })
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("q-snap-corruption-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Write mutated bytes and require a typed read failure. The call itself is
/// the panic probe: any panic inside `read_snapshot` fails the test.
fn assert_rejected(name: &str, bytes: &[u8]) -> SnapError {
    let path = scratch_path(name);
    fs::write(&path, bytes).unwrap();
    match read_snapshot(&path) {
        Err(err) => err,
        Ok(_) => panic!("mutated snapshot unexpectedly loaded"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncating the file at any byte is a typed error.
    #[test]
    fn truncation_never_panics_and_never_loads(frac in 0.0f64..1.0) {
        let bytes = pristine();
        let keep = ((bytes.len() - 1) as f64 * frac) as usize;
        let err = assert_rejected("trunc.qsnap", &bytes[..keep]);
        prop_assert!(matches!(
            err,
            SnapError::BadMagic
                | SnapError::Truncated { .. }
                | SnapError::ChecksumMismatch { .. }
                | SnapError::Corrupt { .. }
        ));
    }

    /// Flipping any single bit is a typed error — the layered checksums
    /// leave no unprotected byte.
    #[test]
    fn single_bit_flips_never_panic_and_never_load(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = pristine().to_vec();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let err = assert_rejected("flip.qsnap", &bytes);
        prop_assert!(matches!(
            err,
            SnapError::BadMagic
                | SnapError::UnsupportedVersion { .. }
                | SnapError::Truncated { .. }
                | SnapError::ChecksumMismatch { .. }
                | SnapError::Corrupt { .. }
        ));
    }

    /// Any version other than the supported one is rejected up front.
    #[test]
    fn version_bumps_are_unsupported(raw in 0u32..1000) {
        // The vendored proptest shim has no `prop_assume`; remap the one
        // supported version onto 0 (also unsupported) instead of skipping.
        let version = if raw == FORMAT_VERSION { 0 } else { raw };
        let mut bytes = pristine().to_vec();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let err = assert_rejected("version.qsnap", &bytes);
        prop_assert!(matches!(
            err,
            SnapError::UnsupportedVersion { found, supported }
                if found == version && supported == FORMAT_VERSION
        ));
    }

    /// Random garbage of any size never panics the reader.
    #[test]
    fn arbitrary_garbage_never_panics(data in proptest::collection::vec(0u8..=255, 0..512)) {
        assert_rejected("garbage.qsnap", &data);
    }
}

#[test]
fn pristine_snapshot_still_loads_after_all_mutation_rounds() {
    // Control: the unmutated bytes load fine, so the rejections above are
    // about the mutations, not the fixture.
    let path = scratch_path("control.qsnap");
    fs::write(&path, pristine()).unwrap();
    let (parts, _) = read_snapshot(&path).unwrap();
    assert_eq!(parts.id, 7);
    let (_, graph, index) = build_components();
    assert_eq!(parts.graph.edges(), graph.edges());
    assert_eq!(parts.keyword.view(), index.view());
    assert_eq!(parts.accounted_bytes, accounted_bytes(&graph, &index));
}

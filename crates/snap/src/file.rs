//! The on-disk container: header, section table, checksummed payloads, and
//! the atomic write / validating read entry points.
//!
//! ## File layout (format version 3)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  89 51 53 4E 41 50 0D 0A  ("\x89QSNAP\r\n")
//!      8     4  format version (u32 LE)
//!     12     4  section count N (u32 LE)
//!     16     8  checksum64 of the N*32-byte section table (u64 LE)
//!     24  N*32  section table: per section
//!                 kind (u16 LE) | pad (u16) | reserved (u32) |
//!                 payload offset (u64 LE) | payload len (u64 LE) |
//!                 payload checksum64 (u64 LE)
//!   ....        contiguous section payloads, N = 5, one per kind:
//!                 1 meta       id, node/edge/document/relation counts,
//!                              accounted bytes
//!                 2 catalog    sources, relations, tuples, attributes, FKs
//!                 3 graph      nodes, edges, cost model, provenance
//!                 4 graph csr  offsets/targets lengths (2 × u64 LE), then
//!                              the packed arrays (`Csr::byte_size` bytes)
//!                 5 keyword    the columnar keyword index: per-document
//!                              kinds, ids, text, token runs and
//!                              distinct-trigram counts, then the token
//!                              dictionary, token and trigram postings,
//!                              idf and norms
//! ```
//!
//! Version 3 stores one distinct-trigram count per document where version 2
//! stored every document's trigram run beside the trigram postings, which
//! hold the same (document, trigram) pairs. Any other format version, 1 and
//! 2 included, is rejected as [`SnapError::UnsupportedVersion`] before the
//! section table is read.
//!
//! The magic borrows PNG's trick: a high-bit first byte plus an embedded
//! `\r\n` so text-mode transfer mangling is caught before any parsing.
//! Validation is strictly layered — magic, version, table bounds, table
//! checksum, per-section bounds, then per-section decode with invariant
//! checks followed by the section's checksum, then cross-validation against
//! the meta section. A file failing
//! any layer yields a typed [`SnapError`] and **no** partially constructed
//! graph.
//!
//! The reader never buffers the whole file: the header, the table and
//! every section stream off the descriptor through one decoder,
//! [`SectionStream`], which digests every byte as it lands in its final
//! allocation. The table's checksum is verified before any payload is read;
//! each section decodes as it streams and its checksum is verified once it
//! has parsed, so corrupted payload bytes may surface as a decode-invariant
//! error instead of a checksum mismatch — either way typed. The writer
//! encodes each section once and writes the header, the table and the
//! sections straight into the file.

use std::fs;
use std::io::{Read, Write};
use std::path::Path;

use q_graph::keyword::KeywordIndex;
use q_graph::SearchGraph;
use q_storage::Catalog;

use crate::bytes::{checksum64, ByteWriter};
use crate::codec;
use crate::error::SnapError;
use crate::stream::SectionStream;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = [0x89, b'Q', b'S', b'N', b'A', b'P', 0x0D, 0x0A];

/// The format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 3;

/// Fixed header size: magic + version + section count + table checksum.
const HEADER_BYTES: usize = 24;
/// Bytes per section-table entry.
const TABLE_ENTRY_BYTES: usize = 32;
/// Upper bound on the section count — a real snapshot has 5 sections, so
/// anything near this is a corrupt header, rejected before the table is
/// even sized.
const MAX_SECTIONS: usize = 4096;

/// What each section of the file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Snapshot id and structure counts (the cross-validation anchor).
    Meta,
    /// The catalog: sources, relations, tuples, attributes, foreign keys.
    Catalog,
    /// Search graph nodes, edges, cost model, provenance.
    Graph,
    /// The graph's packed global CSR adjacency.
    GraphCsr,
    /// The columnar keyword index.
    Keyword,
}

impl SectionKind {
    fn to_u16(self) -> u16 {
        match self {
            SectionKind::Meta => 1,
            SectionKind::Catalog => 2,
            SectionKind::Graph => 3,
            SectionKind::GraphCsr => 4,
            SectionKind::Keyword => 5,
        }
    }

    /// What a truncation error reports for this section.
    fn context(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::Catalog => "catalog",
            SectionKind::Graph => "graph",
            SectionKind::GraphCsr => "graph csr",
            SectionKind::Keyword => "keyword index",
        }
    }

    fn from_u16(v: u16) -> Result<Self, SnapError> {
        Ok(match v {
            1 => SectionKind::Meta,
            2 => SectionKind::Catalog,
            3 => SectionKind::Graph,
            4 => SectionKind::GraphCsr,
            5 => SectionKind::Keyword,
            _ => {
                return Err(SnapError::Corrupt {
                    context: "unknown section kind",
                })
            }
        })
    }
}

/// Borrowed inputs to [`write_snapshot`] — exactly what a serving
/// `GraphSnapshot` holds.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotComponents<'a> {
    /// Snapshot id (the weight epoch it serves).
    pub id: u64,
    /// The catalog.
    pub catalog: &'a Catalog,
    /// The search graph.
    pub graph: &'a SearchGraph,
    /// The keyword index.
    pub keyword: &'a KeywordIndex,
}

/// Owned output of [`read_snapshot`]: every component reconstructed, ready
/// to serve without re-running matching or finalization.
#[derive(Debug)]
pub struct SnapshotParts {
    /// Snapshot id persisted at write time.
    pub id: u64,
    /// [`accounted_bytes`] persisted at write time (revalidated against the
    /// loaded graph and keyword index).
    pub accounted_bytes: u64,
    /// The catalog.
    pub catalog: Catalog,
    /// The search graph (CSR included).
    pub graph: SearchGraph,
    /// The keyword index.
    pub keyword: KeywordIndex,
}

/// Section accounting returned by both the writer and the reader.
#[derive(Debug, Clone, Default)]
pub struct SnapshotInfo {
    /// `(kind, payload bytes)` per section, in file order.
    pub sections: Vec<(SectionKind, u64)>,
    /// Sum of all section payload bytes.
    pub payload_bytes: u64,
    /// Total file size including header and table.
    pub file_bytes: u64,
}

impl SnapshotInfo {
    /// Payload bytes of the section of one kind (0 when absent).
    pub fn kind_bytes(&self, kind: SectionKind) -> u64 {
        self.sections
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, len)| len)
            .sum()
    }
}

/// The accounted bytes of a snapshot's packed search structures: the
/// global CSR's [`byte_size`](q_graph::Csr::byte_size) plus the keyword
/// index's [`postings_byte_estimate`](KeywordIndex::postings_byte_estimate).
/// The one definition behind the meta section's cross-check and the
/// `q_snapshot_bytes` gauge. Both terms are kept totals, so a publish
/// reads it without walking the corpus.
pub fn accounted_bytes(graph: &SearchGraph, keyword: &KeywordIndex) -> u64 {
    graph.csr().byte_size() as u64 + keyword.postings_byte_estimate()
}

fn encode_meta(c: &SnapshotComponents<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(c.id);
    w.u64(c.graph.node_count() as u64);
    w.u64(c.graph.edge_count() as u64);
    w.u64(c.keyword.len() as u64);
    w.u64(c.catalog.relations().len() as u64);
    w.u64(accounted_bytes(c.graph, c.keyword));
    w.into_bytes()
}

#[derive(Debug)]
struct Meta {
    id: u64,
    node_count: usize,
    edge_count: usize,
    doc_count: usize,
    relation_count: usize,
    accounted_bytes: u64,
}

fn decode_meta(r: &mut SectionStream<'_, impl Read>) -> Result<Meta, SnapError> {
    let meta = Meta {
        id: r.u64()?,
        node_count: r.u64()? as usize,
        edge_count: r.u64()? as usize,
        doc_count: r.u64()? as usize,
        relation_count: r.u64()? as usize,
        accounted_bytes: r.u64()?,
    };
    r.expect_end()?;
    Ok(meta)
}

/// Serialise every component into the versioned section container and write
/// it to `path` atomically: the bytes go to a `.tmp` sibling first, are
/// fsynced, and only then renamed over the target, so a crash mid-write can
/// never leave a half-written file under the snapshot name.
pub fn write_snapshot(
    path: &Path,
    components: &SnapshotComponents<'_>,
) -> Result<SnapshotInfo, SnapError> {
    let sections: [(SectionKind, Vec<u8>); 5] = [
        (SectionKind::Meta, encode_meta(components)),
        (
            SectionKind::Catalog,
            codec::encode_catalog(components.catalog),
        ),
        (SectionKind::Graph, codec::encode_graph(components.graph)),
        (
            SectionKind::GraphCsr,
            codec::encode_graph_csr(components.graph.csr()),
        ),
        (
            SectionKind::Keyword,
            codec::encode_keyword(&components.keyword.view()),
        ),
    ];

    // The table records each payload's offset, length and checksum; the
    // header carries the table's own checksum.
    let mut table = ByteWriter::with_capacity(sections.len() * TABLE_ENTRY_BYTES);
    let mut offset = (HEADER_BYTES + sections.len() * TABLE_ENTRY_BYTES) as u64;
    let mut info = SnapshotInfo::default();
    for (kind, payload) in &sections {
        table.u16(kind.to_u16());
        table.u16(0);
        table.u32(0);
        table.u64(offset);
        table.u64(payload.len() as u64);
        table.u64(checksum64(payload));
        offset += payload.len() as u64;
        info.sections.push((*kind, payload.len() as u64));
        info.payload_bytes += payload.len() as u64;
    }
    let table = table.into_bytes();
    let mut head = ByteWriter::with_capacity(HEADER_BYTES + table.len());
    head.raw(&MAGIC);
    head.u32(FORMAT_VERSION);
    head.u32(sections.len() as u32);
    head.u64(checksum64(&table));
    head.raw(&table);
    let head = head.into_bytes();
    info.file_bytes = offset;

    // Atomic replace: temp sibling, fsync, rename, best-effort dir fsync.
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or(SnapError::Corrupt {
            context: "snapshot path has no file name",
        })?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let write_result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| SnapError::io("creating temp file", e))?;
        for bytes in std::iter::once(&head).chain(sections.iter().map(|(_, payload)| payload)) {
            f.write_all(bytes)
                .map_err(|e| SnapError::io("writing snapshot bytes", e))?;
        }
        f.sync_all()
            .map_err(|e| SnapError::io("fsyncing snapshot", e))?;
        fs::rename(&tmp, path).map_err(|e| SnapError::io("renaming snapshot into place", e))
    })();
    if let Err(err) = write_result {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    if let Some(dir) = path.parent() {
        // Durability of the rename itself; failure here does not invalidate
        // the written file.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(info)
}

struct TableEntry {
    kind: SectionKind,
    len: usize,
    checksum: u64,
}

/// Parse and validate the header and section table from the front of the
/// file, leaving the cursor at the first payload byte. The payloads must
/// tile the rest of the file's `file_len` bytes contiguously, which is what
/// lets the reader stream them without seeking.
fn read_table(file: &mut fs::File, file_len: u64) -> Result<Vec<TableEntry>, SnapError> {
    let mut header = SectionStream::new(file, HEADER_BYTES, "file header");
    if header.u64()?.to_le_bytes() != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = header.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let section_count = header.u32()? as usize;
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(SnapError::Corrupt {
            context: "implausible section count",
        });
    }
    let table_checksum = header.u64()?;
    let table_len = section_count * TABLE_ENTRY_BYTES;
    let mut table = SectionStream::new(file, table_len, "section table");
    let mut raw = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let kind = table.u16()?;
        table.u16()?;
        table.u32()?;
        raw.push((kind, table.u64()?, table.u64()?, table.u64()?));
    }
    verify_digest(&table, table_checksum, "section table")?;
    let mut entries = Vec::with_capacity(section_count);
    let mut expected_offset = (HEADER_BYTES + table_len) as u64;
    for (kind, offset, len, checksum) in raw {
        if offset != expected_offset || offset.checked_add(len).is_none_or(|e| e > file_len) {
            return Err(SnapError::Truncated {
                context: "section payload",
            });
        }
        expected_offset = offset + len;
        entries.push(TableEntry {
            kind: SectionKind::from_u16(kind)?,
            len: usize::try_from(len).map_err(|_| SnapError::Truncated {
                context: "section payload",
            })?,
            checksum,
        });
    }
    if expected_offset != file_len {
        return Err(SnapError::Corrupt {
            context: "trailing bytes after last section",
        });
    }
    Ok(entries)
}

/// Require the fully-drained stream's digest to match the checksum stored
/// for its region.
fn verify_digest<R: Read>(
    stream: &SectionStream<'_, R>,
    checksum: u64,
    region: &'static str,
) -> Result<(), SnapError> {
    stream.expect_end()?;
    if stream.digest() != checksum {
        return Err(SnapError::ChecksumMismatch { region });
    }
    Ok(())
}

/// Fill a section's slot, rejecting a second section of the same kind.
fn fill<T>(slot: &mut Option<T>, value: T) -> Result<(), SnapError> {
    if slot.replace(value).is_some() {
        return Err(SnapError::Corrupt {
            context: "duplicate section",
        });
    }
    Ok(())
}

fn require<T>(slot: Option<T>) -> Result<T, SnapError> {
    slot.ok_or(SnapError::Corrupt {
        context: "missing required section",
    })
}

/// Read and fully validate a snapshot file, reconstructing every serving
/// component.
///
/// The header, the section table and then each section stream off the
/// descriptor in file order, each through its own stream decoder that
/// checksums bytes as they land in their final allocations — the big arrays
/// are faulted in exactly once, which is what keeps a ~100 MB boot fast.
/// The table's checksum is verified before any payload is read; each
/// section's once it has decoded.
pub fn read_snapshot(path: &Path) -> Result<(SnapshotParts, SnapshotInfo), SnapError> {
    let mut file = fs::File::open(path).map_err(|e| SnapError::io("opening snapshot file", e))?;
    let file_len = file
        .metadata()
        .map_err(|e| SnapError::io("statting snapshot file", e))?
        .len();
    let entries = read_table(&mut file, file_len)?;

    let mut meta = None;
    let mut catalog = None;
    let mut graph_parts = None;
    let mut csr = None;
    let mut keyword = None;
    for entry in &entries {
        let mut s = SectionStream::new(&mut file, entry.len, entry.kind.context());
        match entry.kind {
            SectionKind::Meta => fill(&mut meta, decode_meta(&mut s)?)?,
            SectionKind::Catalog => fill(&mut catalog, codec::decode_catalog(&mut s)?)?,
            SectionKind::Graph => fill(&mut graph_parts, codec::decode_graph(&mut s)?)?,
            SectionKind::GraphCsr => fill(&mut csr, codec::decode_graph_csr(&mut s)?)?,
            SectionKind::Keyword => fill(&mut keyword, codec::decode_keyword(&mut s)?)?,
        }
        verify_digest(&s, entry.checksum, "section payload")?;
    }

    let meta = require(meta)?;
    let catalog = require(catalog)?;
    let keyword = require(keyword)?;
    let graph = codec::join_graph(require(graph_parts)?, require(csr)?)?;

    // Cross-validate the decoded structures against the meta anchor.
    if graph.node_count() != meta.node_count
        || graph.edge_count() != meta.edge_count
        || keyword.len() != meta.doc_count
        || catalog.relations().len() != meta.relation_count
    {
        return Err(SnapError::Corrupt {
            context: "meta section disagrees with decoded structures",
        });
    }
    if accounted_bytes(&graph, &keyword) != meta.accounted_bytes {
        return Err(SnapError::Corrupt {
            context: "loaded csr and index disagree with persisted accounting",
        });
    }

    let mut info = SnapshotInfo::default();
    for e in &entries {
        info.sections.push((e.kind, e.len as u64));
        info.payload_bytes += e.len as u64;
    }
    info.file_bytes = file_len;

    Ok((
        SnapshotParts {
            id: meta.id,
            accounted_bytes: meta.accounted_bytes,
            catalog,
            graph,
            keyword,
        },
        info,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    fn components() -> (Catalog, SearchGraph, KeywordIndex) {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name", "term_type"])
                    .row(["GO:0005134", "plasma membrane", "component"])
                    .row(["GO:0007652", "kinase activity", "function"]),
            )
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("entry", &["entry_ac", "name"]).row(["IPR000001", "Kringle"]),
            )
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

    /// Write the [`components`] under snapshot id `id` to `name`.
    fn write_components(name: &str, id: u64) -> (std::path::PathBuf, SnapshotInfo) {
        let (cat, graph, index) = components();
        let path = tmp_path(name);
        let info = write_snapshot(
            &path,
            &SnapshotComponents {
                id,
                catalog: &cat,
                graph: &graph,
                keyword: &index,
            },
        )
        .unwrap();
        (path, info)
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("q-snap-file-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip_restores_every_component() {
        let (cat, graph, index) = components();
        let (path, written) = write_components("round_trip.qsnap", 41);
        let (parts, read_info) = read_snapshot(&path).unwrap();
        assert_eq!(parts.id, 41);
        assert_eq!(parts.accounted_bytes, accounted_bytes(&graph, &index));
        assert_eq!(parts.catalog.relations(), cat.relations());
        assert_eq!(parts.graph.edges(), graph.edges());
        assert_eq!(parts.graph.csr().offsets(), graph.csr().offsets());
        assert_eq!(parts.keyword.view(), index.view());
        assert_eq!(written.sections.len(), 5);
        assert_eq!(written.sections, read_info.sections);
        assert_eq!(written.payload_bytes, read_info.payload_bytes);
        assert_eq!(
            written.file_bytes,
            fs::metadata(&path).unwrap().len(),
            "info reports the real file size"
        );
    }

    #[test]
    fn misstated_accounting_is_corrupt() {
        let (path, _) = write_components("misstated.qsnap", 1);
        let mut bytes = fs::read(&path).unwrap();
        // The meta section is the first payload; its last u64 is the
        // accounted bytes. Bump it, then re-seal the section and table
        // checksums so only the load-time cross-check can catch it.
        let meta = HEADER_BYTES + 5 * TABLE_ENTRY_BYTES;
        let meta_len = 6 * 8;
        let field = meta + meta_len - 8;
        let stated = u64::from_le_bytes(bytes[field..field + 8].try_into().unwrap());
        bytes[field..field + 8].copy_from_slice(&(stated + 1).to_le_bytes());
        let section_sum = checksum64(&bytes[meta..meta + meta_len]);
        bytes[HEADER_BYTES + 24..HEADER_BYTES + 32].copy_from_slice(&section_sum.to_le_bytes());
        let table_sum = checksum64(&bytes[HEADER_BYTES..meta]);
        bytes[16..24].copy_from_slice(&table_sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapError::Corrupt { context })
                if context == "loaded csr and index disagree with persisted accounting"
        ));
    }

    #[test]
    fn non_snapshot_file_is_bad_magic() {
        let path = tmp_path("not_a_snapshot.qsnap");
        fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(matches!(read_snapshot(&path), Err(SnapError::BadMagic)));
    }

    #[test]
    fn other_versions_are_unsupported() {
        let (path, _) = write_components("versions.qsnap", 1);
        let mut bytes = fs::read(&path).unwrap();
        for version in [1u32, 2, 4] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                read_snapshot(&path),
                Err(SnapError::UnsupportedVersion {
                    found,
                    supported: 3
                }) if found == version
            ));
        }
    }

    #[test]
    fn missing_file_is_io() {
        let path = tmp_path("never_written.qsnap");
        let _ = fs::remove_file(&path);
        assert!(matches!(read_snapshot(&path), Err(SnapError::Io { .. })));
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let (path, _) = write_components("flip.qsnap", 1);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_file_is_typed_not_panic() {
        let (path, _) = write_components("trunc.qsnap", 1);
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 7, 23, 24, 100, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep.min(bytes.len())]).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "truncation to {keep} bytes must fail"
            );
        }
    }
}

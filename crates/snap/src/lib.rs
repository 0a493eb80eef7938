//! Persistent snapshot store: a versioned on-disk format for the full
//! serving state — catalog, search graph, packed CSR adjacency and columnar
//! keyword index — so a server boots by loading flat arrays instead of
//! re-running matching and finalization.
//!
//! The format is a small section container (see [`mod@file`] for the layout
//! diagram): a PNG-style magic, a format version, a checksummed section
//! table, and one checksummed little-endian payload per component. Writes
//! are atomic (temp sibling + fsync + rename); reads validate magic,
//! version, table and per-section checksums and every decode-level invariant
//! before any structure is assembled, so a truncated, bit-flipped or
//! foreign file always surfaces as a typed [`SnapError`] — never a panic,
//! never a partially-loaded graph.
//!
//! The CSR section is the packed arrays behind two length prefixes, so its
//! payload is exactly the in-memory [`q_graph::Csr::byte_size`] plus 16
//! bytes; with the keyword postings estimate that makes up
//! [`accounted_bytes`], which the serving layer's `q_snapshot_bytes` gauge
//! reports and the meta section cross-checks at load.

pub mod bytes;
pub mod codec;
pub mod error;
pub mod file;
pub mod stream;

pub use bytes::{checksum64, Checksummer};
pub use error::SnapError;
pub use file::{
    accounted_bytes, read_snapshot, write_snapshot, SectionKind, SnapshotComponents, SnapshotInfo,
    SnapshotParts, FORMAT_VERSION, MAGIC,
};
pub use stream::SectionStream;

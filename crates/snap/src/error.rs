//! Typed snapshot errors.
//!
//! Every failure mode of the snapshot store — I/O, a foreign or truncated
//! file, a corrupted section, an unsupported format version — surfaces as a
//! [`SnapError`] variant. Nothing in this crate panics on malformed input:
//! the reader validates magic, version and the table checksum before any
//! payload is read, every decode read is bounds-checked, and each section's
//! checksum is verified before any structure is assembled, so a corrupt
//! file can never yield a partially-loaded graph (the corruption tests pin
//! this, at every byte of their fixture).

use std::fmt;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum SnapError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing when the I/O failed.
        context: &'static str,
        /// The failing operation's error.
        source: std::io::Error,
    },
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file ended before a structure was complete.
    Truncated {
        /// The structure being read when the bytes ran out.
        context: &'static str,
    },
    /// A checksum over the section table or a section payload disagreed
    /// with the stored value — the bytes were altered after writing.
    ChecksumMismatch {
        /// The region whose checksum failed.
        region: &'static str,
    },
    /// The bytes decoded but violate an internal invariant (dangling id,
    /// impossible count, inconsistent cross-reference).
    Corrupt {
        /// The violated invariant.
        context: &'static str,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io { context, source } => {
                write!(f, "snapshot i/o failed while {context}: {source}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapError::ChecksumMismatch { region } => {
                write!(f, "snapshot checksum mismatch in {region}")
            }
            SnapError::Corrupt { context } => {
                write!(f, "snapshot corrupt: {context}")
            }
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SnapError {
    /// Wrap an I/O error with what the store was doing.
    pub fn io(context: &'static str, source: std::io::Error) -> Self {
        SnapError::Io { context, source }
    }
}

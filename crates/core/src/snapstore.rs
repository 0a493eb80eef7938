//! On-disk snapshot store management: the background persistence lane and
//! the boot-time directory scan.
//!
//! Persistence must never slow publishing down — a publish is a pointer
//! swap, and disks are slow. The [`SnapshotPersister`] therefore runs a
//! single background thread fed through a **latest-only mailbox**
//! (`mailbox.rs`, shared with the re-validation lane): a
//! publish deposits its `Arc<GraphSnapshot>` into a one-slot mailbox and
//! returns immediately. If the writer thread is still busy with an earlier
//! snapshot when the next publish lands, the mailbox slot is *replaced* —
//! the superseded snapshot is simply never written (it is counted, not
//! queued), so a slow disk degrades snapshot freshness, never publish
//! latency, and the writer always catches up to the newest state in one
//! write.
//!
//! Snapshots are written as `snap-<id>.qsnap` (the id is the snapshot id,
//! strictly increasing across publishes) and retention keeps the newest `N`
//! files; [`snapshot_paths_newest_first`] gives the boot order.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use q_snap::SnapError;

use crate::live::GraphSnapshot;
use crate::mailbox::Mailbox;

/// File-name prefix of persisted snapshots.
const FILE_PREFIX: &str = "snap-";
/// File-name suffix of persisted snapshots.
const FILE_SUFFIX: &str = ".qsnap";

/// Snapshot file name for an id.
fn snapshot_file_name(id: u64) -> String {
    format!("{FILE_PREFIX}{id}{FILE_SUFFIX}")
}

fn parse_snapshot_id(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix(FILE_PREFIX)?
        .strip_suffix(FILE_SUFFIX)?
        .parse()
        .ok()
}

/// Snapshot files in `dir`, newest (highest id) first. Foreign files are
/// ignored; a missing directory is simply "no snapshots".
pub fn snapshot_paths_newest_first(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut snapshots: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let id = parse_snapshot_id(name.to_str()?)?;
            Some((id, e.path()))
        })
        .collect();
    snapshots.sort_unstable_by_key(|(id, _)| std::cmp::Reverse(*id));
    snapshots.into_iter().map(|(_, path)| path).collect()
}

/// Path of the newest (highest-id) snapshot file in `dir`, if any.
pub fn latest_snapshot_path(dir: &Path) -> Option<PathBuf> {
    snapshot_paths_newest_first(dir).into_iter().next()
}

/// Point-in-time counters of a [`SnapshotPersister`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Snapshots written to disk.
    pub persisted: u64,
    /// Write attempts that failed (the lane keeps running).
    pub failed: u64,
    /// Snapshots replaced in the mailbox before being written — the
    /// catch-up rule skipping intermediate states under a slow disk.
    pub superseded: u64,
    /// Id of the newest successfully persisted snapshot (0 before the
    /// first write).
    pub last_persisted_id: u64,
}

#[derive(Default)]
struct Counters {
    persisted: AtomicU64,
    failed: AtomicU64,
    superseded: AtomicU64,
    last_persisted_id: AtomicU64,
}

/// Background snapshot persistence lane. See the module docs for the
/// mailbox protocol. Dropping the persister flushes any deposited snapshot
/// and joins the worker thread.
pub struct SnapshotPersister {
    mailbox: Mailbox<Arc<GraphSnapshot>>,
    counters: Arc<Counters>,
    dir: PathBuf,
}

impl std::fmt::Debug for SnapshotPersister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPersister")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SnapshotPersister {
    /// Start the lane writing into `dir`, keeping the newest `keep_last`
    /// snapshot files (clamped to at least 1). The directory is created if
    /// missing.
    pub fn start(dir: PathBuf, keep_last: usize) -> Result<Self, SnapError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapError::io("creating snapshot directory", e))?;
        let counters = Arc::new(Counters::default());
        let worker = Arc::clone(&counters);
        let worker_dir = dir.clone();
        let keep_last = keep_last.max(1);
        let mailbox = Mailbox::start("snap-persist", move |snapshot: Arc<GraphSnapshot>| {
            let path = worker_dir.join(snapshot_file_name(snapshot.id()));
            match snapshot.save(&path) {
                Ok(_) => {
                    worker.persisted.fetch_add(1, Ordering::Relaxed);
                    worker
                        .last_persisted_id
                        .store(snapshot.id(), Ordering::Relaxed);
                    prune(&worker_dir, keep_last);
                }
                Err(_) => {
                    worker.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .map_err(|e| SnapError::io("spawning persistence thread", e))?;
        Ok(SnapshotPersister {
            mailbox,
            counters,
            dir,
        })
    }

    /// Deposit a snapshot for persistence and return immediately. An
    /// unwritten earlier deposit is superseded (counted, never written).
    pub fn enqueue(&self, snapshot: Arc<GraphSnapshot>) {
        if self.mailbox.deposit(snapshot).is_some() {
            self.counters.superseded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Block until every deposited snapshot has been written (or failed).
    pub fn flush(&self) {
        self.mailbox.flush();
    }

    /// Current counters.
    pub fn stats(&self) -> PersistStats {
        let c = &self.counters;
        PersistStats {
            persisted: c.persisted.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            superseded: c.superseded.load(Ordering::Relaxed),
            last_persisted_id: c.last_persisted_id.load(Ordering::Relaxed),
        }
    }
}

/// Remove all but the newest `keep_last` snapshot files. Best effort:
/// retention failures never take the lane down.
fn prune(dir: &Path, keep_last: usize) {
    for path in snapshot_paths_newest_first(dir).into_iter().skip(keep_last) {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_round_trip_and_sort_by_id() {
        assert_eq!(snapshot_file_name(17), "snap-17.qsnap");
        assert_eq!(parse_snapshot_id("snap-17.qsnap"), Some(17));
        assert_eq!(parse_snapshot_id("snap-.qsnap"), None);
        assert_eq!(parse_snapshot_id("other-17.qsnap"), None);
        assert_eq!(parse_snapshot_id("snap-17.tmp"), None);
    }

    #[test]
    fn latest_picks_the_highest_id_and_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("q-snapstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(latest_snapshot_path(&dir), None, "missing dir is none");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_snapshot_path(&dir), None, "empty dir is none");
        for name in ["snap-3.qsnap", "snap-12.qsnap", "snap-9.qsnap", "junk.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        assert_eq!(
            latest_snapshot_path(&dir),
            Some(dir.join("snap-12.qsnap")),
            "numeric id ordering, not lexicographic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

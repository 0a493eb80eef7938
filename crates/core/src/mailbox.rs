//! The latest-only mailbox behind both background lanes.
//!
//! A [`Mailbox`] is a one-slot queue drained by one named worker thread.
//! [`Mailbox::deposit`] never blocks on the work: it replaces whatever
//! deposit the worker has not yet taken and hands the superseded one back,
//! so the caller counts it and the worker always catches up to the newest
//! state in one step. The persistence lane
//! ([`SnapshotPersister`](crate::SnapshotPersister)) deposits snapshots and
//! the re-validation lane deposits batches of parked cache entries; each
//! keeps only its payload, its counters and its work function.
//!
//! Dropping the mailbox lets the worker finish the deposit it holds and the
//! one still waiting, then joins it.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

struct Slot<T> {
    next: Option<T>,
    in_flight: bool,
    shutdown: bool,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    /// Signals the worker (new deposit / shutdown) and flush waiters
    /// (deposit settled).
    signal: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        self.slot.lock().expect("mailbox lock poisoned")
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot<T>>) -> MutexGuard<'a, Slot<T>> {
        self.signal.wait(slot).expect("mailbox lock poisoned")
    }

    /// The worker's next deposit, marked in flight; `None` once shut down
    /// with nothing left to take.
    fn take(&self) -> Option<T> {
        let mut slot = self.lock();
        loop {
            if let Some(item) = slot.next.take() {
                slot.in_flight = true;
                return Some(item);
            }
            if slot.shutdown {
                return None;
            }
            slot = self.wait(slot);
        }
    }
}

/// A latest-only mailbox and the worker thread draining it.
pub(crate) struct Mailbox<T> {
    shared: Arc<Shared<T>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> Mailbox<T> {
    /// Spawn the worker thread `name`, running `work` on each deposit it
    /// takes.
    pub(crate) fn start(
        name: &str,
        mut work: impl FnMut(T) + Send + 'static,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                next: None,
                in_flight: false,
                shutdown: false,
            }),
            signal: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while let Some(item) = worker.take() {
                    work(item);
                    worker.lock().in_flight = false;
                    worker.signal.notify_all();
                }
            })?;
        Ok(Mailbox {
            shared,
            handle: Some(handle),
        })
    }

    /// Deposit `item` and return immediately, handing back the deposit it
    /// superseded (one the worker never took), if any.
    pub(crate) fn deposit(&self, item: T) -> Option<T> {
        let old = self.shared.lock().next.replace(item);
        self.shared.signal.notify_all();
        old
    }

    /// Block until every deposit has been worked off.
    pub(crate) fn flush(&self) {
        let mut slot = self.shared.lock();
        while slot.next.is_some() || slot.in_flight {
            slot = self.shared.wait(slot);
        }
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

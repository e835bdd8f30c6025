//! The storage seam: one enum over the in-memory and on-disk WAL backends.
//!
//! A [`Site`](../../o2pc_site) holds a [`WalBackend`] and calls the shared
//! logical surface without caring which backend is live. Durability
//! operations — flush tickets, sync, batch sealing — are meaningful only for
//! the durable backend; on the in-memory backend they report "already
//! durable", which is exactly the fault model the simulator has always
//! assumed (the `Wal` survives a simulated crash by construction).

use crate::durable::{DurableWal, FlushBatch};
use crate::store::{Store, UndoRecord};
use crate::wal::{LogRecord, RecoveredState, Wal};
use o2pc_common::ExecId;
use std::io;

/// A write-ahead log: in-memory (simulated durability) or file-backed.
#[derive(Debug)]
pub enum WalBackend {
    /// In-memory log; durability is simulated (the log object survives the
    /// simulated crash).
    Mem(Wal),
    /// On-disk log with checksummed frames and group commit.
    Durable(Box<DurableWal>),
}

impl Default for WalBackend {
    fn default() -> Self {
        WalBackend::Mem(Wal::new())
    }
}

impl From<Wal> for WalBackend {
    fn from(w: Wal) -> Self {
        WalBackend::Mem(w)
    }
}

impl From<DurableWal> for WalBackend {
    fn from(w: DurableWal) -> Self {
        WalBackend::Durable(Box::new(w))
    }
}

// The short accessors and the append path are called from `o2pc-site` on
// every operation; the workspace builds without LTO, so cross-crate
// inlining needs the explicit hints.
impl WalBackend {
    /// True for the durable (file-backed) backend.
    #[inline]
    pub fn is_durable(&self) -> bool {
        matches!(self, WalBackend::Durable(_))
    }

    /// Append a record.
    #[inline]
    pub fn append(&mut self, rec: LogRecord) {
        match self {
            WalBackend::Mem(w) => w.append(rec),
            WalBackend::Durable(w) => w.append(rec),
        }
    }

    /// Convenience: append an `Update` from an [`UndoRecord`].
    #[inline]
    pub fn append_update(&mut self, exec: ExecId, rec: &UndoRecord) {
        match self {
            WalBackend::Mem(w) => w.append_update(exec, rec),
            WalBackend::Durable(w) => w.append_update(exec, rec),
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            WalBackend::Mem(w) => w.len(),
            WalBackend::Durable(w) => w.len(),
        }
    }

    /// True when the log is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records (tests / audits).
    #[inline]
    pub fn records(&self) -> &[LogRecord] {
        match self {
            WalBackend::Mem(w) => w.records(),
            WalBackend::Durable(w) => w.records(),
        }
    }

    /// Take a checkpoint of the given store.
    pub fn checkpoint(&mut self, store: &Store) {
        match self {
            WalBackend::Mem(w) => w.checkpoint(store),
            WalBackend::Durable(w) => w.checkpoint(store),
        }
    }

    /// Truncate the log to the last checkpoint. On the durable backend this
    /// compacts the file via temp-write + atomic rename.
    pub fn truncate_to_checkpoint(&mut self) -> io::Result<()> {
        match self {
            WalBackend::Mem(w) => {
                w.truncate_to_checkpoint();
                Ok(())
            }
            WalBackend::Durable(w) => w.truncate_to_checkpoint(),
        }
    }

    /// Crash recovery: rebuild site state from the log.
    pub fn recover(&self) -> RecoveredState {
        match self {
            WalBackend::Mem(w) => w.recover(),
            WalBackend::Durable(w) => w.recover(),
        }
    }

    /// Simulated crash transform: what survives on the log device. The
    /// in-memory backend keeps everything (its historical fault model); the
    /// durable backend loses its unsynced tail and reloads from disk.
    pub fn crash(self) -> io::Result<WalBackend> {
        match self {
            WalBackend::Mem(w) => Ok(WalBackend::Mem(w)),
            WalBackend::Durable(w) => Ok(WalBackend::Durable(Box::new(w.crash()?))),
        }
    }

    // ----- durability surface (no-ops / "already durable" on Mem) -----

    /// Ticket covering everything appended so far (0 on the in-memory
    /// backend — everything is trivially durable).
    #[inline]
    pub fn append_ticket(&self) -> u64 {
        match self {
            WalBackend::Mem(_) => 0,
            WalBackend::Durable(w) => w.append_ticket(),
        }
    }

    /// Current durable watermark.
    #[inline]
    pub fn durable_ticket(&self) -> u64 {
        match self {
            WalBackend::Mem(_) => 0,
            WalBackend::Durable(w) => w.durable_ticket(),
        }
    }

    /// Sealed watermark: bytes already handed to the flush pipeline (0 on
    /// the in-memory backend — everything is trivially durable).
    #[inline]
    pub fn sealed_ticket(&self) -> u64 {
        match self {
            WalBackend::Mem(_) => 0,
            WalBackend::Durable(w) => w.sealed_ticket(),
        }
    }

    /// Bytes appended but not yet sealed or synced.
    #[inline]
    pub fn pending_bytes(&self) -> u64 {
        match self {
            WalBackend::Mem(_) => 0,
            WalBackend::Durable(w) => w.pending_bytes(),
        }
    }

    /// True when flushes must run inline (fault-armed or dead durable WAL;
    /// trivially true for the in-memory backend, whose sync is a no-op).
    #[inline]
    pub fn wants_inline_flush(&self) -> bool {
        match self {
            WalBackend::Mem(_) => true,
            WalBackend::Durable(w) => w.inline_only(),
        }
    }

    /// Observable I/O counters (`None` on the in-memory backend).
    pub fn stats(&self) -> Option<std::sync::Arc<crate::durable::WalStats>> {
        match self {
            WalBackend::Mem(_) => None,
            WalBackend::Durable(w) => Some(w.stats()),
        }
    }

    /// Group commit: write buffered frames and fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        match self {
            WalBackend::Mem(_) => Ok(()),
            WalBackend::Durable(w) => w.sync(),
        }
    }

    /// Seal buffered frames for a background flusher ([`None`] on the
    /// in-memory backend or when there is nothing to flush).
    pub fn seal_batch(&mut self) -> Option<FlushBatch> {
        match self {
            WalBackend::Mem(_) => None,
            WalBackend::Durable(w) => w.seal_batch(),
        }
    }
}

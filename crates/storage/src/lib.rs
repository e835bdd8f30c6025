//! # o2pc-storage
//!
//! The per-site storage kernel: an in-place key/value store with per-execution
//! undo tracking ([`store::Store`]) and **one** write-ahead log with
//! checkpoint-based crash recovery ([`wal::Wal`]). The log's only variable is
//! where its bytes go: nowhere (`Wal::new`, durability simulated) or into
//! checksummed, segmented files (`Wal::open`, the [`segments`] sink — byte
//! tickets, group commit, torn-tail-tolerant reopen).
//!
//! The paper's recovery assumptions (§2, §3.2) are exactly: (a) a site can
//! roll back any not-yet-committed (sub)transaction from its log ("standard
//! recovery techniques, e.g. undo from log"), and (b) after a site votes to
//! commit under O2PC the updates are *locally committed* — they survive in the
//! store, later undone only *semantically* by a compensating subtransaction.
//! [`store::CommitRecord`], returned by [`store::Store::commit`], carries both
//! the before-images and the semantic operation log that `o2pc-compensation`
//! turns into a compensating subtransaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod segments;
pub mod store;
pub mod wal;

pub use segments::{segment_path, FlushBatch, FlushProgress, WalStats, DEFAULT_SEGMENT_BYTES};
pub use store::{CommitRecord, Store, UndoRecord};
pub use wal::{ActiveExec, CheckpointImage, LogRecord, Wal};

/// Exists only because the frozen `benchmark/` crate names the old on-disk
/// log type by path; nothing else may use it, and it goes in the next
/// benchmark PR.
pub type DurableWal = Wal;

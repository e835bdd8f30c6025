//! # o2pc-site
//!
//! One autonomous local DBMS ("site"): strict-2PL lock manager + in-place
//! store + write-ahead log + marking hooks, packaged behind the small
//! surface the distributed engine drives.
//!
//! The site understands three kinds of lock-holding executions
//! ([`o2pc_common::ExecId`]): local transactions, subtransactions of global
//! transactions, and compensating subtransactions (which, per §3.2, are
//! *treated as local transactions with respect to locking* — each follows
//! strict 2PL on its own and releases at its own completion, independent of
//! sibling compensations).
//!
//! Protocol-relevant behaviours implemented here:
//!
//! * **Vote handling** ([`Site::vote`]): a *yes* vote under
//!   [`LockPolicy::ReleaseAll`] (O2PC) locally commits — all locks released
//!   at once, the commit record retained for possible compensation. Under
//!   [`LockPolicy::HoldWrites`] (distributed 2PL, or an O2PC site running
//!   non-compensatable *real actions*) read locks are released and write
//!   locks retained until the decision. A *no* vote rolls back immediately —
//!   and the roll-back's undo writes are recorded in the history as
//!   operations of `CT_i`, the paper's "roll-back as a special case of a
//!   compensating transaction".
//! * **Decision handling** ([`Site::decide`]): commit finalizes; abort on a
//!   locally-committed site returns a compensation plan for the engine to
//!   run as a `CT_ij` execution; the *undone* marking is set only when the
//!   compensation completes (rule R2 — the marking is the CT's last action).
//! * **Crash/recovery** ([`Site::crash`] / [`CrashedSite::recover`]): each
//!   is one call. The crash keeps the WAL (on disk, up to its durable
//!   watermark) and the local-id watermark, and records in the history the
//!   compensations the lost tail undid. The restart rebuilds the site from
//!   the image [`o2pc_storage::Wal::recover`] returns: in-flight executions
//!   are rolled back and their roll-backs logged and recorded, while
//!   prepared and locally-committed (in-doubt) subtransactions are fully
//!   reconstructed — updates, write locks (taken at the restart instant),
//!   and compensation obligations.
//! * **Checkpoints** ([`Site::checkpoint`]): the site writes its live state
//!   (store image, in-flight executions, unsettled local commits, retained
//!   decisions) into the log and drops the records behind it, once
//!   [`Site::checkpoint_due`] says the log has outgrown the last image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod site;

pub use exec::{ExecPhase, ExecState, OpResult};
pub use site::{
    CrashedSite, LockPolicy, PeerState, Site, SiteConfig, Vote, CHECKPOINT_FLOOR, CHECKPOINT_RATIO,
};

//! # o2pc-locking
//!
//! A strict two-phase-locking lock manager for one site.
//!
//! * Shared/exclusive modes with re-entrant requests and S→X upgrades.
//! * FIFO queueing (no starvation: a waiting exclusive request blocks later
//!   shared requests on the same item).
//! * A waits-for graph and cycle detector for local deadlock detection — the
//!   paper's §6.2 discussion of marking-set deadlocks is exercised against
//!   exactly this detector.
//! * Hold-time and wait-time statistics on the virtual clock; the E1
//!   experiment (lock-hold-time under 2PC vs O2PC) reads them directly.
//!
//! What the lock manager deliberately does **not** know: whose locks are
//! released when. Strictness, the D2PL rule ("exclusive locks held until the
//! decision message"), and the O2PC rule ("all locks released at the commit
//! vote") are timing policies of the protocol layer; the lock manager only
//! offers `release_all` / `release_read_locks` primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod manager;
pub mod stats;

pub use cycle::{find_cycle, CycleWalk};
pub use manager::{LockManager, RequestOutcome};
pub use stats::LockStats;

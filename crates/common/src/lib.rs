//! # o2pc-common
//!
//! Foundation types shared by every crate in the O2PC reproduction suite:
//!
//! * [`ids`] — identifiers for sites, global transactions, local transactions,
//!   and the unified [`ids::TxnId`] used as a serialization-graph node.
//! * [`ops`] — the operation repertoire (generic reads/writes plus the
//!   *restricted model* semantic operations of the paper's §3.1), and the
//!   shared [`ops::Program`] a (sub)transaction runs.
//! * [`value`] — the value domain stored at each site.
//! * [`time`] — virtual time ([`time::SimTime`]) for the deterministic
//!   simulator; all latencies and lock-hold windows are measured in it.
//! * [`rng`] — a self-contained, seedable xoshiro256++ generator so that the
//!   whole system is reproducible bit-for-bit from a seed.
//! * [`stats`] — streaming statistics (Welford mean/variance, log-bucketed
//!   percentile histograms) and named counters used by the experiment harness.
//! * [`pool`] — a deterministic-merge worker pool for the harnesses: jobs
//!   run on N threads, results are consumed in job order, so parallel runs
//!   print byte-identical output to sequential ones.
//! * [`history`] — the recorded execution history consumed by `o2pc-sgraph`.
//! * [`error`] — shared error types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod history;
pub mod ids;
pub mod ops;
pub mod pool;
pub mod rng;
mod scratch;
pub mod stats;
pub mod time;
pub mod value;

pub use error::{CommonError, Result};
pub use hash::{FastHashMap, FastHashSet, FxHasher};
pub use history::{CountingSink, HistEvent, HistEventKind, History, HistorySink};
pub use ids::{ExecId, GlobalTxnId, GlobalTxnIdGen, LocalTxnId, SiteId, TxnId};
pub use ops::{AccessMode, Op, OpKind, Program};
pub use rng::DetRng;
#[doc(hidden)]
pub use scratch::ScratchDir;
pub use stats::{Counter, Histogram, Stats};
pub use time::{Duration, SimTime};
pub use value::{Key, Value};

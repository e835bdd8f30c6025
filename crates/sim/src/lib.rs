//! # o2pc-sim
//!
//! The deterministic discrete-event substrate on which the distributed
//! engine runs. This replaces a real network/runtime (the paper's testbed
//! would have been an R\*-era distributed system): all protocol-visible
//! delays — message latency, operation service time, lock-hold windows,
//! blocking intervals — happen on a virtual clock, so every experiment is
//! reproducible bit-for-bit from its seed, and pathological schedules (the
//! unbounded 2PC blocking window of experiment E4) can be measured rather
//! than waited out.
//!
//! * [`events`] — the time-ordered event queue (stable FIFO among
//!   simultaneous events): a timing wheel over the next [`events::WINDOW`]
//!   with an overflow heap behind it.
//! * [`network`] — the one network both runtimes send through: per-link
//!   latency models (fixed / uniform / exponential), loss, duplication,
//!   extra delay, routes, the send-time judgement ([`Network::judge`]) and
//!   the message [`Ledger`].
//! * [`failure`] — scripted site-crash and link-outage plans.
//!
//! The wall-clock (threaded) substrate lives in `o2pc-runtime`, which wraps
//! this crate's network behind the same `Runtime` trait the engine is
//! generic over, with a heap of its own for its handful of timers. Both runtimes judge every send with this crate's
//! [`Network`]; only the clock they deliver on differs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod failure;
pub mod network;

pub use events::EventQueue;
pub use failure::FailurePlan;
pub use network::{LatencyModel, Ledger, Network, NetworkConfig, SendOutcome};

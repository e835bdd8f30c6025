//! # o2pc-runtime
//!
//! The runtime abstraction layer: one engine, two substrates.
//!
//! The commit-protocol state machines in `o2pc-protocol` and the site
//! kernels in `o2pc-site` are pure (inputs in, actions out). What varies
//! between a deterministic experiment and a live deployment is only *where
//! time comes from* and *how messages travel*. This crate names that seam:
//!
//! * [`Clock`] — a source of monotonic [`o2pc_common::SimTime`]; implemented
//!   by the virtual clock of the discrete-event simulator and by
//!   [`clock::WallClock`] (microseconds of real elapsed time).
//! * [`Runtime`] — the engine-facing fusion of a clock, timers, a message
//!   network and a disk: schedule timers, send messages, flush sealed log
//!   batches, and pull the next [`Step`] in time order.
//!
//! Two implementations ship here:
//!
//! * [`SimRuntime`] — the deterministic event-queue simulator. Timers and
//!   deliveries share **one** totally-ordered queue (FIFO among simultaneous
//!   entries; a timing wheel over the near future), so a seed reproduces a
//!   run bit-for-bit. This is the substrate
//!   every experiment in `o2pc-bench` is measured on. Its disk is modelled:
//!   a flush lands at once and completes a constant fsync latency later.
//! * [`ThreadedRuntime`] — wall-clock execution on the thread that calls
//!   `next`. It delivers its own messages: a same-site or zero-latency send
//!   is a push onto a ready FIFO, a delayed one an entry in its wall-clock
//!   event heap beside its timers. A flush lands before `flush` returns:
//!   the calling thread writes one log, persistent helper threads the
//!   others of the same flush point. Outcomes are schedule-dependent (and
//!   therefore only invariant-checkable, not replayable), which is exactly
//!   the point: the same engine code must uphold the protocol's guarantees
//!   without a global event order.
//!
//! Both send through one [`o2pc_sim::Network`]: one link model, one
//! send-time judgement ([`o2pc_sim::Network::judge`]) and one
//! [`o2pc_sim::Ledger`], which the engine and the chaos oracle read through
//! [`Runtime::network`]. A [`ThreadedTransport`] carries the threaded
//! runtime's network into its constructor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod flush;
mod heap;
pub mod runtime;
pub mod transport;

pub use clock::{Clock, WallClock};
pub use o2pc_sim::SendOutcome;
pub use runtime::{Runtime, SimRuntime, Step, ThreadedRuntime, ThreadedRuntimeConfig};
pub use transport::{LinkPolicy, ThreadedTransport};

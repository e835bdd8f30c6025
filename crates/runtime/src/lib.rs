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
//! * [`Transport`] — an asynchronous message substrate carrying
//!   [`transport::Envelope`]s between site endpoints, with per-link latency
//!   and loss hooks; implemented by [`transport::ThreadedTransport`]
//!   (per-destination delivery workers over batch channels).
//! * [`Runtime`] — the engine-facing fusion of the two plus a disk:
//!   schedule timers, send messages, flush sealed log batches, and pull the
//!   next [`Step`] in time order.
//!
//! Two implementations ship here:
//!
//! * [`SimRuntime`] — the deterministic event-queue simulator. Timers and
//!   deliveries share **one** totally-ordered queue (FIFO among simultaneous
//!   entries), so a seed reproduces a run bit-for-bit. This is the substrate
//!   every experiment in `o2pc-bench` is measured on. Its disk is modelled:
//!   a flush lands at once and completes a constant fsync latency later.
//! * [`ThreadedRuntime`] — wall-clock execution over a [`Transport`].
//!   Messages on a link with latency travel through the destination site's
//!   delivery worker (zero-latency links deliver from the sender's thread,
//!   with no worker at all); timers fire on real elapsed time; flushes run on
//!   a pool of flusher threads. Outcomes are schedule-dependent (and therefore
//!   only invariant-checkable, not replayable), which is exactly the point:
//!   the same engine code must uphold the protocol's guarantees without a
//!   global event order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod flush;
pub mod runtime;
pub mod transport;

pub use clock::{Clock, WallClock};
pub use runtime::{Runtime, SimRuntime, Step, ThreadedRuntime, ThreadedRuntimeConfig};
pub use transport::{
    Batch, Envelope, Inbox, LinkPolicy, SendOutcome, ThreadedTransport, Transport,
};

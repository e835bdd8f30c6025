//! # o2pc-protocol
//!
//! The commit protocols as *pure state machines*: inputs (acks, votes,
//! timeouts, crash/recovery events) in, actions (messages to send, local
//! decisions) out. No I/O and no clock — the engine (or the threaded
//! transport example) supplies both, which is what lets the identical
//! machine run on the deterministic simulator and on real threads.
//!
//! * [`kind::ProtocolKind`] — the four protocol variants under test:
//!   distributed 2PL + standard 2PC (the baseline), bare O2PC, O2PC+P1,
//!   O2PC+P2 (and the "simple" §6.2 variant). Each maps to a lock-release
//!   policy for participants and, for P1/P2/Simple, a marking protocol.
//! * [`coordinator::TwoPhaseCoordinator`] — the coordinator of one global
//!   transaction: collect subtransaction acks, solicit votes (VOTE-REQ),
//!   decide (unanimous yes ⇒ commit), log the decision (presumed abort:
//!   the decision is logged before any DECISION message is sent, so a
//!   recovering coordinator can resend it), distribute DECISION, collect
//!   final acks. **The message pattern is identical for 2PC and O2PC** —
//!   the paper's compatibility claim, verified by experiment E6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod kind;
pub mod termination;

pub use coordinator::{CoordAction, CoordState, TwoPhaseCoordinator};
pub use kind::ProtocolKind;
pub use termination::{PeerState, TerminationOutcome, TerminationRound};

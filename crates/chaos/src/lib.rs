//! # o2pc-chaos
//!
//! Randomized fault-injection harness for the engine: a single seed derives
//! a composed schedule of site crashes, link partitions, message loss,
//! duplication, and extra delay ([`ChaosPlan`]), a runner executes a
//! workload under that schedule with the hardening machinery switched on
//! ([`run_plan`]), and an invariant oracle ([`oracle::check`]) decides after
//! the fact whether the system survived:
//!
//! * **liveness under quiescence** — once every fault window closes and the
//!   queue drains, no transaction is unfinished, no participant in doubt,
//!   no compensation pending, and no event left in the queue;
//! * **semantic atomicity** — balances conserve and the serialization-graph
//!   audit finds no local or regular cycle and no atomicity-of-compensation
//!   violation;
//! * **durability** — every site's WAL still replays to its live store;
//! * **message accounting** — the network ledger balances with nothing in
//!   flight (`sent + duplicated = delivered + dropped + unroutable`), and
//!   the engine's per-kind counters reconcile exactly with it, on either
//!   runtime ([`oracle::check_accounting`]).
//!
//! Every plan is reproducible from `(seed, ChaosConfig)` alone, so a failing
//! schedule shrinks (drop one fault at a time, keep the failure) and replays
//! bit-for-bit — see the `chaos` binary in `o2pc-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod durable;
pub mod oracle;
pub mod plan;
pub mod runner;

pub use corpus::{classify, CorpusEntry, InterestKind};
pub use durable::{injected_fault_roundtrip, recover_killed_run, KillRecoveryReport};
pub use oracle::Violation;
pub use plan::{ChaosConfig, ChaosPlan, Fault};
pub use runner::{
    run_plan, run_plan_with, shrink, shrink_with_cores, ChaosOutcome, DurableMode, Hardening,
};

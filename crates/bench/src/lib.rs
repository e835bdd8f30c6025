//! # o2pc-bench
//!
//! The experiment harness. Every figure of the paper and every qualitative
//! performance claim has a regenerating function here, selected by id on the
//! one driver — `all_experiments [ID…]` (see DESIGN.md §4 for the experiment
//! ↔ claim index and EXPERIMENTS.md for the recorded outcomes):
//!
//! | experiment | id | claim |
//! |------------|----|-------|
//! | F1 | `fig1` | Figure 1 / Example 1 regular-cycle semantics |
//! | F2 | `fig2` | Figure 2 marking state machine |
//! | E1 | `e1` | early release shortens exclusive-lock holds |
//! | E2 | `e2` | early release helps under contention |
//! | E3 | `e3` | pessimism wins once aborts dominate |
//! | E4 | `e4` | 2PC blocks across coordinator failure, O2PC doesn't |
//! | E5 | `e5` | P1 costs conflicts only when transactions abort |
//! | E5b | `e5b` | UDUM1 safe forgetting buys back concurrency |
//! | E6 | `e6` | O2PC/P1 add no messages beyond standard 2PC |
//! | E7 | `e7` | criterion ⊇ serializability; P1 kills regular cycles |
//! | E8 | `e8` | only non-compensatable sites keep blocking |
//! | E9 | `e9` | global traffic must not inflate local latency (multidatabase autonomy) |
//!
//! `all_experiments` with no id runs the lot (it is what `bench_tables.txt`
//! records); each table is also written to `results/<slug>.csv`. The
//! `simulate` binary is a free-form driver: pick a protocol, workload, abort
//! probability, latency and seed on the command line and read the full
//! report.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod open_loop;
pub mod table;

pub use open_loop::{run_open_loop, OpenLoopClients, OpenLoopOutcome};
pub use table::Table;

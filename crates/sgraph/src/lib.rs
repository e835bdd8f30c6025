//! # o2pc-sgraph
//!
//! The serialization-graph machinery of the paper's §5, implemented exactly:
//!
//! * [`graph`] — local SGs (one per site) and the global SG (their union),
//!   over nodes `T_i` / `CT_i` / committed locals, with path queries
//!   (including *node-avoiding* paths, needed by predicates A2/A4).
//! * [`incremental`] — the one SG builder: a [`o2pc_common::HistorySink`]
//!   that folds each event into the global SG as it is recorded (conflict
//!   edges: same item, at least one write, order of access), so the engine
//!   can keep the graph live and an audit at quiescence starts from an
//!   already-built graph; [`build_exposed_sgs`] replays a finished
//!   [`o2pc_common::History`] through it.
//! * `cycles` (crate-private) — Tarjan SCCs and bounded simple-cycle
//!   enumeration within one component.
//! * [`regular`] — **regular-cycle detection**: a cycle is *regular* iff some
//!   *minimal representation* of it (fewest local segments, computed as a
//!   minimal cyclic interval cover where an interval `A→B` is admissible iff
//!   a single site's SG has a local path `A → B`) has a regular global
//!   transaction as a segment endpoint. This reproduces the paper's
//!   Example 1 (the cycle `CT1→T2→CT3→CT1` is *not* regular because its
//!   2-segment minimal representation `CT1→CT3 (SG2); CT3→CT1 (SG3)` skips
//!   `T2`) and Figure 1 (which shows cycles that *are* regular). One
//!   per-component search, [`find_regular_cycle`], answers *found* (with a
//!   witness), *none exist*, or *inconclusive* (its budget ran out).
//! * [`strat`] — the predicates A1–A4, the *active-with-respect-to*
//!   relation, stratification properties **S1**/**S2** (Theorem 1's
//!   sufficient condition) and cycle conditions **C1**/**C2** (Lemma 2).
//! * [`correctness`] — the top-level audit: local cycles, regular cycles,
//!   and *atomicity of compensation* (Theorem 2: no `T_j` reads from both
//!   `T_i` and `CT_i`), with a three-valued [`Verdict`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correctness;
mod cycles;
pub mod graph;
pub mod incremental;
pub mod regular;
pub mod strat;

pub use correctness::{audit, audit_graph, AuditReport, Verdict};
pub use graph::{GlobalSg, LocalSg};
pub use incremental::{build_exposed_sgs, IncrementalSg};
pub use regular::{find_regular_cycle, RegularCycle, RegularSearch, SearchOutcome};
pub use strat::{holds_s1, holds_s2};

//! # o2pc-compensation
//!
//! Compensating transactions (§3.2 of the paper, following \[KLS90a\]).
//!
//! A compensating transaction `CT_i` undoes `T_i`'s effects *semantically*,
//! without cascading aborts: transactions that read from `T_i` keep their
//! reads; `CT_i` merely re-establishes a consistent state. Two decomposition
//! models are supported, mirroring §3.1:
//!
//! * **Restricted model** ([`CompensationModel::Restricted`]): each forward
//!   operation comes from a repertoire with a registered inverse —
//!   `Add(k, d)` ↩ `Add(k, -d)`, `Insert` ↩ `Delete`, `Delete` ↩ re-`Insert`,
//!   `Reserve(k, n)` ↩ `Release(k, n)`. Inverses of commutative deltas are
//!   correct even when other transactions modified the item in between —
//!   this is what makes semantic atomicity *semantic*.
//! * **Generic model** ([`CompensationModel::Generic`]): no semantics is
//!   known, so compensation restores before-images of every item `T_i`
//!   wrote. This clobbers later writers (the price the paper acknowledges
//!   for the generic model), but satisfies Theorem 2's premise — `CT_i`
//!   writes at least all items `T_i` wrote — so atomicity of compensation is
//!   preserved in correct histories.
//!
//! **Persistence of compensation**: once initiated, a compensating
//! transaction must complete — it can only commit (so no commit protocol is
//! ever run for a `CT`). The execution engine keeps that obligation: it holds
//! each initiated `CT` subtransaction until it commits, and one that loses a
//! local deadlock is rolled back and re-submitted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;

pub use plan::{plan_compensation, CompensationModel, CompensationPlan};

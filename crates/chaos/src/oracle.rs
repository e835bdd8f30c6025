//! The post-run invariant oracle.
//!
//! Runs after a chaos schedule has healed and the engine has been given
//! generous quiet time to drain. Every check is an *end-state* property —
//! the oracle never peeks at protocol internals mid-run, so it is equally
//! valid on the deterministic simulator and the threaded runtime. Message
//! accounting reads the network ledger both runtimes keep; only the
//! event-queue emptiness check is simulator-only.

use o2pc_common::{GlobalTxnId, SiteId};
use o2pc_core::msg::{MsgKind, MSG_KINDS};
use o2pc_core::{Engine, Msg, RunReport, TimerEvent};
use o2pc_runtime::Runtime;
use o2pc_sgraph::SearchOutcome;
use o2pc_sim::Ledger;
use std::fmt;

/// One violated invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Coordinators that never reached completion despite the network
    /// healing and the run draining to quiescence.
    UnfinishedTxns(usize),
    /// Participants still prepared / locally-committed-without-decision at
    /// the end of the run.
    InDoubt(usize),
    /// Sites still down after every scheduled recovery.
    SitesDown(usize),
    /// Compensating transactions still pending at quiescence (persistence
    /// of compensation demands they eventually complete).
    PendingCompensations(usize),
    /// Events still queued when the run stopped: the system had not
    /// actually quiesced (e.g. a timer chain that never terminates).
    PendingEvents(usize),
    /// Total balance drifted: commits and compensations did not conserve.
    Conservation {
        /// The workload's invariant total.
        expected: i64,
        /// The measured total across all sites.
        actual: i64,
    },
    /// The serialization-graph audit found local cycles at this many sites.
    LocalCycles(usize),
    /// The audit found a regular global cycle — the paper's correctness
    /// criterion is violated.
    RegularCycle,
    /// The regular-cycle search ran out of budget without a witness: the
    /// criterion was not checked, so the run does not count as a pass.
    AuditInconclusive,
    /// Committed global transactions with partially-undone siblings
    /// (atomicity-of-compensation violations).
    CompensationAtomicity(usize),
    /// Sites whose WAL no longer replays to their live store.
    WalDivergence(usize),
    /// A durable WAL file could not be reopened after a kill (kill-recover
    /// resolver only).
    WalUnreadable {
        /// Site whose log failed to reopen.
        site: SiteId,
        /// The I/O error.
        detail: String,
    },
    /// Two sites durably logged conflicting outcomes for one transaction
    /// (kill-recover resolver only) — the cardinal 2PC violation.
    ConflictingOutcomes {
        /// The transaction with disagreeing durable decisions.
        txn: GlobalTxnId,
        /// The site whose log exposed the disagreement.
        site: SiteId,
    },
    /// The quiescent network ledger does not balance:
    /// `sent + duplicated ≠ delivered + dropped + unroutable`, so a copy is
    /// still in flight (or was delivered without being accepted).
    MessageConservation(Ledger),
    /// The engine's per-kind counters under one prefix (`msg`,
    /// `msg.dropped` or `msg.unroutable`) disagree with the ledger entry
    /// they mirror (`sent`, `dropped` or `unroutable`).
    CounterMismatch {
        /// The counter prefix.
        counters: &'static str,
        /// Sum of the engine's `<counters>.<kind>` counters.
        counted: u64,
        /// The ledger's count.
        ledger: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnfinishedTxns(n) => write!(f, "{n} transaction(s) never completed"),
            Violation::InDoubt(n) => write!(f, "{n} participant(s) still in doubt"),
            Violation::SitesDown(n) => write!(f, "{n} site(s) still down"),
            Violation::PendingCompensations(n) => {
                write!(f, "{n} compensation(s) still pending")
            }
            Violation::PendingEvents(n) => write!(f, "{n} event(s) still queued (no quiescence)"),
            Violation::Conservation { expected, actual } => {
                write!(f, "conservation: expected {expected}, measured {actual}")
            }
            Violation::LocalCycles(n) => write!(f, "local serialization cycles at {n} site(s)"),
            Violation::RegularCycle => write!(f, "regular global serialization cycle"),
            Violation::AuditInconclusive => write!(f, "regular-cycle search ran out of budget"),
            Violation::CompensationAtomicity(n) => {
                write!(f, "{n} atomicity-of-compensation violation(s)")
            }
            Violation::WalDivergence(n) => write!(f, "{n} site(s) with WAL/store divergence"),
            Violation::WalUnreadable { site, detail } => {
                write!(f, "site {site}: WAL unreadable after kill: {detail}")
            }
            Violation::ConflictingOutcomes { txn, site } => {
                write!(f, "conflicting durable outcomes for {txn} (seen at {site})")
            }
            Violation::MessageConservation(l) => write!(
                f,
                "message conservation: sent {} + dup {} ≠ delivered {} + dropped {} \
                 + unroutable {}",
                l.sent, l.duplicated, l.delivered, l.dropped, l.unroutable
            ),
            Violation::CounterMismatch {
                counters,
                counted,
                ledger,
            } => write!(
                f,
                "{counters}.* counters: engine counted {counted}, network ledger {ledger}"
            ),
        }
    }
}

/// End-state invariants that hold on any runtime substrate: liveness under
/// quiescence, conservation, serialization-graph correctness, durability.
/// The engine must have kept its live audit graph
/// (`SystemConfig::live_audit_graph`); without one this panics.
pub fn check_state<R: Runtime<TimerEvent, Msg>>(
    engine: &Engine<R>,
    report: &RunReport,
    expected_total: i64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let unfinished = engine.unfinished_txns();
    if !unfinished.is_empty() {
        out.push(Violation::UnfinishedTxns(unfinished.len()));
    }
    let in_doubt = engine.in_doubt_participants();
    if !in_doubt.is_empty() {
        out.push(Violation::InDoubt(in_doubt.len()));
    }
    let down = engine.down_sites();
    if !down.is_empty() {
        out.push(Violation::SitesDown(down.len()));
    }
    if report.compensations_pending > 0 {
        out.push(Violation::PendingCompensations(
            report.compensations_pending,
        ));
    }
    if engine.total_value() != expected_total {
        out.push(Violation::Conservation {
            expected: expected_total,
            actual: engine.total_value(),
        });
    }
    let divergent = engine.wal_divergent_sites();
    if !divergent.is_empty() {
        out.push(Violation::WalDivergence(divergent.len()));
    }
    // The serialization graphs the engine maintained incrementally while the
    // run executed: the harness always asks for them.
    let gsg = engine
        .live_audit_graph()
        .expect("chaos oracle: the engine must run with SystemConfig::live_audit_graph set");
    let audit = o2pc_sgraph::audit_graph(&gsg, &report.history, 10_000, 10);
    if !audit.local_cycles.is_empty() {
        out.push(Violation::LocalCycles(audit.local_cycles.len()));
    }
    match audit.search.outcome {
        SearchOutcome::Found(_) => out.push(Violation::RegularCycle),
        SearchOutcome::Inconclusive => out.push(Violation::AuditInconclusive),
        SearchOutcome::NoneExist => {}
    }
    if !audit.compensation_atomicity_violations.is_empty() {
        out.push(Violation::CompensationAtomicity(
            audit.compensation_atomicity_violations.len(),
        ));
    }
    out
}

/// Message accounting, on either runtime: the network ledger balances with
/// nothing in flight, and the engine's per-kind send, drop and unroutable
/// counters equal the ledger's `sent`, `dropped` and `unroutable`.
pub fn check_accounting<R: Runtime<TimerEvent, Msg>>(
    engine: &Engine<R>,
    report: &RunReport,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let ledger = engine.runtime().network().ledger();
    if ledger.sent + ledger.duplicated != ledger.delivered + ledger.dropped + ledger.unroutable {
        out.push(Violation::MessageConservation(ledger));
    }
    // The engine counts one `msg.<kind>` per send; duplicates are the
    // network's own and appear in no engine counter.
    let sum = |label: fn(&MsgKind) -> &'static str| -> u64 {
        MSG_KINDS
            .iter()
            .map(|k| report.counters.get(label(k)))
            .sum()
    };
    for (counters, owed, counted) in [
        ("msg", ledger.sent, sum(|k| k.sent)),
        ("msg.dropped", ledger.dropped, sum(|k| k.dropped)),
        ("msg.unroutable", ledger.unroutable, sum(|k| k.unroutable)),
    ] {
        if counted != owed {
            out.push(Violation::CounterMismatch {
                counters,
                counted,
                ledger: owed,
            });
        }
    }
    out
}

/// The full oracle for a simulator run: state invariants, message
/// accounting, and full event-queue quiescence — arrivals the engine still
/// holds back count as queued.
pub fn check(engine: &Engine, report: &RunReport, expected_total: i64) -> Vec<Violation> {
    let mut out = check_state(engine, report, expected_total);
    out.extend(check_accounting(engine, report));
    let pending = engine.runtime().pending() + engine.pending_arrivals();
    if pending != 0 {
        out.push(Violation::PendingEvents(pending));
    }
    out
}

//! The post-run invariant oracle.
//!
//! Runs after a chaos schedule has healed and the engine has been given
//! generous quiet time to drain. Every check is an *end-state* property —
//! the oracle never peeks at protocol internals mid-run, so it is equally
//! valid on the deterministic simulator and the threaded runtime (the
//! message-accounting checks are simulator-only, where exact counters
//! exist on one clock).

use o2pc_common::{GlobalTxnId, SiteId};
use o2pc_core::{Engine, Msg, RunReport, TimerEvent};
use o2pc_runtime::Runtime;
use o2pc_sgraph::SearchOutcome;
use std::fmt;

/// The engine's message kinds, as used in `msg.<kind>` /
/// `msg.dropped.<kind>` counter labels.
pub const MSG_KINDS: [&str; 8] = [
    "spawn",
    "subtxn_ack",
    "vote_req",
    "vote",
    "decision",
    "decision_ack",
    "term_req",
    "term_answer",
];

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
    /// `sent + local + duplicated ≠ delivered + dropped + in-flight`.
    MessageConservation {
        /// Network sends (including duplicates).
        sent: u64,
        /// Same-site sends bypassing the network.
        local: u64,
        /// Duplicated deliveries (already included in `sent`).
        duplicated: u64,
        /// Messages handed to the engine.
        delivered: u64,
        /// Messages lost at send time.
        dropped: u64,
        /// Messages still queued.
        in_flight: u64,
    },
    /// The engine's per-type `msg.*` counters disagree with the substrate's
    /// send total.
    SendCounterMismatch {
        /// Sum of the engine's `msg.<kind>` counters.
        counted: u64,
        /// Substrate sends (network + local, duplicates excluded).
        substrate: u64,
    },
    /// The engine's per-type `msg.dropped.*` counters disagree with the
    /// substrate's drop total.
    DropCounterMismatch {
        /// Sum of the engine's `msg.dropped.<kind>` counters.
        counted: u64,
        /// Substrate drops.
        substrate: u64,
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
            Violation::MessageConservation {
                sent,
                local,
                duplicated,
                delivered,
                dropped,
                in_flight,
            } => write!(
                f,
                "message conservation: sent {sent} + local {local} + dup {duplicated} \
                 ≠ delivered {delivered} + dropped {dropped} + in-flight {in_flight}"
            ),
            Violation::SendCounterMismatch { counted, substrate } => write!(
                f,
                "send counters: engine counted {counted}, substrate sent {substrate}"
            ),
            Violation::DropCounterMismatch { counted, substrate } => write!(
                f,
                "drop counters: engine counted {counted}, substrate dropped {substrate}"
            ),
        }
    }
}

/// End-state invariants that hold on any runtime substrate: liveness under
/// quiescence, conservation, serialization-graph correctness, durability.
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
    // Prefer the serialization graphs the engine maintained incrementally
    // while the run executed (`live_audit_graph`); replaying the recorded
    // history through the same builder is the fallback for engines that did
    // not keep one.
    let audit = match engine.live_audit_graph() {
        Some(gsg) => o2pc_sgraph::audit_graph(&gsg, &report.history, 10_000, 10),
        None => o2pc_sgraph::audit(&report.history, 10_000, 10),
    };
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

/// Simulator-only accounting: the message-conservation equation and the
/// cross-check between engine counters and substrate totals, plus full
/// event-queue quiescence.
pub fn check_accounting(engine: &Engine, report: &RunReport) -> Vec<Violation> {
    let mut out = Vec::new();
    let rt = engine.runtime();
    let net = rt.network();
    let lhs = net.sent_count() + rt.local_send_count() + net.duplicated_count();
    let rhs = rt.delivered_count() + net.dropped_count() + rt.in_flight_messages();
    if lhs != rhs {
        out.push(Violation::MessageConservation {
            sent: net.sent_count(),
            local: rt.local_send_count(),
            duplicated: net.duplicated_count(),
            delivered: rt.delivered_count(),
            dropped: net.dropped_count(),
            in_flight: rt.in_flight_messages(),
        });
    }
    let counted_sends: u64 = MSG_KINDS
        .iter()
        .map(|k| report.counters.get(&format!("msg.{k}")))
        .sum();
    // The network counts one send per engine `send` call (duplicates are
    // tracked separately), so the per-type counters must match exactly.
    let substrate_sends = net.sent_count() + rt.local_send_count();
    if counted_sends != substrate_sends {
        out.push(Violation::SendCounterMismatch {
            counted: counted_sends,
            substrate: substrate_sends,
        });
    }
    let counted_drops: u64 = MSG_KINDS
        .iter()
        .map(|k| report.counters.get(&format!("msg.dropped.{k}")))
        .sum();
    if counted_drops != net.dropped_count() {
        out.push(Violation::DropCounterMismatch {
            counted: counted_drops,
            substrate: net.dropped_count(),
        });
    }
    if rt.pending() != 0 {
        out.push(Violation::PendingEvents(rt.pending()));
    }
    out
}

/// The full oracle for a simulator run: state invariants plus exact message
/// accounting.
pub fn check(engine: &Engine, report: &RunReport, expected_total: i64) -> Vec<Violation> {
    let mut out = check_state(engine, report, expected_total);
    out.extend(check_accounting(engine, report));
    out
}

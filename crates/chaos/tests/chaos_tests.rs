//! End-to-end chaos harness tests: hardened runs survive randomized fault
//! schedules, the deliberately-fragile engine is caught by the oracle
//! (negative control), and garbage collection keeps memory bounded.

use o2pc_chaos::{oracle, run_plan, ChaosConfig, ChaosPlan, Hardening, Violation};
use o2pc_common::Duration;
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_workload::BankingWorkload;

/// A block of seeded schedules, fully hardened: zero oracle violations.
#[test]
fn hardened_runs_survive_a_seed_block() {
    let cfg = ChaosConfig::default();
    let mut crashed_coordinator = false;
    for seed in 0..25 {
        let plan = ChaosPlan::generate(seed, &cfg);
        let outcome = run_plan(&plan, Hardening::default());
        assert!(
            outcome.survived(),
            "seed {seed} violated invariants: {:?}\nplan:\n{}",
            outcome.violations,
            plan.describe()
        );
        crashed_coordinator |= outcome.crashed_a_coordinator;
    }
    assert!(
        crashed_coordinator,
        "the seed block never crashed a coordinator-hosting site"
    );
}

/// Negative control: with retransmission and termination retry disabled
/// (the classic send-once engine), randomized loss + crash schedules must
/// produce oracle violations — proving the oracle can actually see the
/// failure modes the hardening exists to fix. Pinned so the harness itself
/// is regression-tested: if this starts passing cleanly, the oracle went
/// blind.
#[test]
fn send_once_engine_is_caught_by_the_oracle() {
    let cfg = ChaosConfig::default();
    let mut violations = 0usize;
    for seed in 0..25 {
        let plan = ChaosPlan::generate(seed, &cfg);
        let outcome = run_plan(&plan, Hardening::none());
        violations += outcome.violations.len();
    }
    assert!(
        violations > 0,
        "hardening off yet no violations over the seed block: the oracle is blind"
    );
}

/// Disabling only retransmission (termination still on) must also be
/// caught: a lost DECISION leaves a participant in doubt or the
/// coordinator waiting for acks forever.
#[test]
fn never_retransmit_decisions_is_caught() {
    let cfg = ChaosConfig::default();
    let no_retx = Hardening {
        retransmit: false,
        termination: true,
    };
    let mut liveness_violations = 0usize;
    for seed in 0..40 {
        let plan = ChaosPlan::generate(seed, &cfg);
        let outcome = run_plan(&plan, no_retx);
        liveness_violations += outcome
            .violations
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::UnfinishedTxns(_)
                        | Violation::InDoubt(_)
                        | Violation::PendingEvents(_)
                        | Violation::PendingCompensations(_)
                )
            })
            .count();
    }
    assert!(
        liveness_violations > 0,
        "dropping DECISIONs with no retransmission must strand something"
    );
}

/// Long chaos run: garbage collection actually retires transactions and
/// end-state memory is bounded. A small residue is legitimate — an aborted
/// transaction's *undone* markings persist until a later access fires
/// UDUM1 (the paper's R3 gate is the memory gate), and a finite run may
/// simply end before anything touches those items again — but it must stay
/// a residue, not an accumulation.
#[test]
fn gc_keeps_memory_bounded_under_chaos() {
    let cfg = ChaosConfig::default();
    let mut retired = 0u64;
    let mut live = 0usize;
    let mut globals = 0u64;
    for seed in [2, 5, 8] {
        let plan = ChaosPlan::generate(seed, &cfg);
        let outcome = run_plan(&plan, Hardening::default());
        assert!(outcome.survived(), "seed {seed}: {:?}", outcome.violations);
        retired += outcome.gc_retired;
        live += outcome.live_at_end;
        globals += outcome.report.global_committed + outcome.report.global_aborted;
        assert_eq!(
            outcome.live_at_end,
            outcome.report.counters.get("txn.live_at_end") as usize
        );
    }
    assert!(retired > 0, "no transaction was ever garbage collected");
    assert!(
        retired > live as u64 * 3,
        "GC retired {retired} but left {live} live: residue, not retirement"
    );
    assert!(
        live < globals as usize / 5,
        "{live} live records after {globals} globals: memory is not bounded"
    );
}

/// The message-accounting oracle reconciles exactly on a chaotic run:
/// `sent + duplicated = delivered + dropped + unroutable` at quiescence,
/// with non-trivial drop and duplication terms.
#[test]
fn message_accounting_reconciles_under_chaos() {
    let cfg = ChaosConfig::default();
    for seed in [3, 11, 19] {
        let plan = ChaosPlan::generate(seed, &cfg);
        let outcome = run_plan(&plan, Hardening::default());
        assert!(
            !outcome.violations.iter().any(|v| matches!(
                v,
                Violation::MessageConservation(_) | Violation::CounterMismatch { .. }
            )),
            "seed {seed}: {:?}",
            outcome.violations
        );
        // Chaos actually dropped and duplicated something, so the equation
        // was exercised with non-trivial terms.
        let dropped: u64 = o2pc_core::msg::MSG_KINDS
            .iter()
            .map(|k| outcome.report.counters.get(k.dropped))
            .sum();
        assert!(dropped > 0, "seed {seed}: chaos never dropped a message");
    }
}

/// Quiescence counts every arrival a run has not reached: an installed
/// schedule keeps one arrival in the runtime's queue and holds the rest in
/// the engine, and a run stopped before its last arrival reports them all.
#[test]
fn a_run_stopped_early_reports_every_arrival_still_to_come() {
    let wl = BankingWorkload {
        sites: 3,
        transfers: 60,
        mean_interarrival: Duration::millis(1),
        seed: 0x9A,
        ..Default::default()
    };
    let schedule = wl.generate();
    let mut cfg = SystemConfig::new(wl.sites, ProtocolKind::O2pc);
    cfg.live_audit_graph = true;
    let mut engine = Engine::new(cfg);
    schedule.install(&mut engine);
    // Stop just before arrival `half`; the arrivals are at distinct times.
    let half = schedule.arrivals.len() / 2;
    let stop = schedule.arrivals[half].0.since(o2pc_common::SimTime::ZERO);
    let report = engine.run(stop - Duration::micros(1));
    let to_come = schedule.arrivals.len() - half;
    assert_eq!(engine.pending_arrivals(), to_come - 1, "one is queued");
    let pending = engine.runtime().pending() + engine.pending_arrivals();
    assert!(pending >= to_come, "{pending} pending, {to_come} to come");
    let violations = oracle::check(&engine, &report, schedule.total_loaded());
    assert!(
        violations.contains(&Violation::PendingEvents(pending)),
        "{violations:?}"
    );
}

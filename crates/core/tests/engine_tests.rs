//! End-to-end engine tests: full commit rounds, semantic atomicity under
//! aborts, lock-hold-time separation between 2PC and O2PC, blocking under
//! coordinator failure, determinism.

use o2pc_common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, RunReport, SystemConfig, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_sgraph::audit;

fn transfer(from: SiteId, to: SiteId, key: Key, amount: i64) -> TxnRequest {
    TxnRequest::global(vec![
        (from, vec![Op::Add(key, -amount)]),
        (to, vec![Op::Add(key, amount)]),
    ])
}

fn loaded_engine(cfg: SystemConfig, keys_per_site: u64, initial: i64) -> Engine {
    let sites = cfg.num_sites;
    let mut e = Engine::new(cfg);
    for s in 0..sites {
        for k in 0..keys_per_site {
            e.load(SiteId(s), Key(k), Value(initial));
        }
    }
    e
}

#[test]
fn single_global_txn_commits() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.seed = 1;
    let mut e = loaded_engine(cfg, 2, 100);
    e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 30));
    let r = e.run(Duration::secs(5));
    assert_eq!(r.global_committed, 1);
    assert_eq!(r.global_aborted, 0);
    assert_eq!(e.value(SiteId(0), Key(0)), Some(Value(70)));
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(130)));
    assert_eq!(r.global_latency.count(), 1);
    // Message pattern: 2 spawns, 2 acks, 2 vote-reqs, 2 votes, 2 decisions, 2 decision-acks.
    for label in [
        "msg.spawn",
        "msg.subtxn_ack",
        "msg.vote_req",
        "msg.vote",
        "msg.decision",
        "msg.decision_ack",
    ] {
        assert_eq!(r.counters.get(label), 2, "{label}");
    }
    assert!(!r.history.is_empty());
}

#[test]
fn forced_abort_is_semantically_atomic() {
    // Every vote aborts: all transfers must be fully compensated and money
    // conserved, even though sites locally committed and exposed updates.
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.vote_abort_probability = 1.0;
    cfg.seed = 2;
    let mut e = loaded_engine(cfg, 4, 1000);
    for i in 0..10u64 {
        let from = SiteId((i % 3) as u32);
        let to = SiteId(((i + 1) % 3) as u32);
        e.submit_at(SimTime(i * 100), transfer(from, to, Key(i % 4), 50));
    }
    let r = e.run(Duration::secs(30));
    assert_eq!(r.global_committed, 0);
    assert_eq!(r.global_aborted, 10);
    assert_eq!(r.compensations_pending, 0, "persistence of compensation");
    assert_eq!(
        r.total_value,
        3 * 4 * 1000,
        "money conserved after full compensation"
    );
}

#[test]
fn mixed_aborts_conserve_money_with_delta_compensation() {
    let mut cfg = SystemConfig::new(4, ProtocolKind::O2pc);
    cfg.vote_abort_probability = 0.3;
    cfg.seed = 3;
    let mut e = loaded_engine(cfg, 8, 500);
    for i in 0..200u64 {
        let from = SiteId((i % 4) as u32);
        let to = SiteId(((i + 1 + i / 7) % 4) as u32);
        if from == to {
            continue;
        }
        e.submit_at(SimTime(i * 200), transfer(from, to, Key(i % 8), 10));
    }
    let r = e.run(Duration::secs(120));
    assert!(r.global_committed > 0, "some must commit");
    assert!(r.global_aborted > 0, "some must abort (p=0.3)");
    assert_eq!(r.compensations_pending, 0);
    assert_eq!(
        r.total_value,
        4 * 8 * 500,
        "conservation under partial compensation"
    );
}

#[test]
fn o2pc_releases_locks_earlier_than_2pc() {
    // One writer transaction, high network latency: under 2PL-2PC the write
    // locks are held across the decision round-trip; under O2PC they are
    // released at the vote.
    let run = |protocol: ProtocolKind| -> RunReport {
        let mut cfg = SystemConfig::new(2, protocol);
        cfg.network = o2pc_sim::NetworkConfig::fixed(Duration::millis(20));
        cfg.seed = 4;
        let mut e = loaded_engine(cfg, 1, 100);
        e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 5));
        e.run(Duration::secs(10))
    };
    let d2pl = run(ProtocolKind::D2pl2pc);
    let o2pc = run(ProtocolKind::O2pc);
    assert_eq!(d2pl.global_committed, 1);
    assert_eq!(o2pc.global_committed, 1);
    let h_d2pl = d2pl.locks.exclusive_hold.mean();
    let h_o2pc = o2pc.locks.exclusive_hold.mean();
    assert!(
        h_d2pl > h_o2pc + 20_000.0,
        "2PC holds across the decision leg: {h_d2pl} vs {h_o2pc}"
    );
}

#[test]
fn waiting_txn_proceeds_after_early_release() {
    // T1 and a local transaction contend on the same item. Under O2PC the
    // local proceeds as soon as the site votes; under 2PC it waits for the
    // decision. Measure the local's effective completion via lock wait time.
    let run = |protocol: ProtocolKind| -> RunReport {
        let mut cfg = SystemConfig::new(2, protocol);
        cfg.network = o2pc_sim::NetworkConfig::fixed(Duration::millis(10));
        cfg.seed = 5;
        let mut e = loaded_engine(cfg, 1, 100);
        e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 5));
        // Local writer arrives while the subtransaction holds k0 at site 0
        // (before the vote round completes).
        e.submit_at(
            SimTime(15_000),
            TxnRequest::local(SiteId(0), vec![Op::Add(Key(0), 1)]),
        );
        e.run(Duration::secs(10))
    };
    let d2pl = run(ProtocolKind::D2pl2pc);
    let o2pc = run(ProtocolKind::O2pc);
    assert_eq!(d2pl.local_committed, 1);
    assert_eq!(o2pc.local_committed, 1);
    assert!(
        d2pl.locks.wait_time.mean() > o2pc.locks.wait_time.mean(),
        "blocked local waits longer under 2PC: {} vs {}",
        d2pl.locks.wait_time.mean(),
        o2pc.locks.wait_time.mean()
    );
}

#[test]
fn identical_seeds_give_identical_runs() {
    let build = || {
        let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
        cfg.vote_abort_probability = 0.2;
        cfg.seed = 42;
        let mut e = loaded_engine(cfg, 4, 100);
        for i in 0..50u64 {
            e.submit_at(
                SimTime(i * 300),
                transfer(
                    SiteId((i % 3) as u32),
                    SiteId(((i + 1) % 3) as u32),
                    Key(i % 4),
                    1,
                ),
            );
        }
        e.run(Duration::secs(60))
    };
    let a = build();
    let b = build();
    assert_eq!(a.global_committed, b.global_committed);
    assert_eq!(a.global_aborted, b.global_aborted);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.history.len(), b.history.len());
    let ca: Vec<_> = a.counters.iter().collect();
    let cb: Vec<_> = b.counters.iter().collect();
    assert_eq!(ca, cb);
}

#[test]
fn histories_with_no_aborts_are_serializable() {
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.seed = 6;
    let mut e = loaded_engine(cfg, 3, 100);
    for i in 0..40u64 {
        e.submit_at(
            SimTime(i * 150),
            transfer(
                SiteId((i % 3) as u32),
                SiteId(((i + 2) % 3) as u32),
                Key(i % 3),
                1,
            ),
        );
    }
    let r = e.run(Duration::secs(60));
    assert_eq!(r.global_aborted, 0);
    let report = audit(&r.history, 8_000, 8);
    assert!(report.is_correct());
    assert!(
        report.serializable,
        "no aborts ⇒ criterion reduces to serializability"
    );
}

#[test]
fn p1_keeps_histories_correct_under_aborts() {
    let mut cfg = SystemConfig::new(4, ProtocolKind::O2pcP1);
    cfg.vote_abort_probability = 0.3;
    cfg.seed = 7;
    let mut e = loaded_engine(cfg, 2, 200);
    for i in 0..150u64 {
        let a = SiteId((i % 4) as u32);
        let b = SiteId(((i + 1 + i / 5) % 4) as u32);
        if a == b {
            continue;
        }
        e.submit_at(SimTime(i * 120), transfer(a, b, Key(i % 2), 1));
    }
    let r = e.run(Duration::secs(120));
    assert!(r.global_aborted > 0);
    let report = audit(&r.history, 8_000, 8);
    assert!(
        report.is_correct(),
        "P1 must prevent regular cycles: {:?}",
        report.search.outcome
    );
    assert!(
        report.compensation_atomicity_violations.is_empty(),
        "Theorem 2: no mixed reads of T_i and CT_i"
    );
}

#[test]
fn coordinator_crash_blocks_2pc_until_recovery() {
    // Coordinator at site 0 (no data there); participants at 1 and 2.
    // Crash the coordinator just after VOTE-REQ goes out; recover later.
    let run = |protocol: ProtocolKind, crash_ms: (u64, u64)| -> RunReport {
        let mut cfg = SystemConfig::new(3, protocol);
        cfg.network = o2pc_sim::NetworkConfig::fixed(Duration::millis(1));
        cfg.seed = 8;
        let mut failures = o2pc_sim::FailurePlan::new();
        failures.site_crash(
            SiteId(0),
            SimTime::ZERO + Duration::millis(crash_ms.0),
            SimTime::ZERO + Duration::millis(crash_ms.1),
        );
        cfg.failures = failures;
        let mut e = Engine::new(cfg);
        e.load(SiteId(1), Key(0), Value(100));
        e.load(SiteId(2), Key(0), Value(100));
        e.submit_at(
            SimTime::ZERO,
            TxnRequest::global_with_coordinator(
                SiteId(0),
                vec![
                    (SiteId(1), vec![Op::Add(Key(0), -5)]),
                    (SiteId(2), vec![Op::Add(Key(0), 5)]),
                ],
            ),
        );
        e.run(Duration::secs(10))
    };
    // Crash window covers the vote collection: participants voted yes and
    // (under 2PC) hold write locks until the recovered coordinator resends.
    let d2pl = run(ProtocolKind::D2pl2pc, (3, 500));
    let o2pc = run(ProtocolKind::O2pc, (3, 500));
    assert!(
        d2pl.locks.exclusive_hold.mean() > 400_000.0,
        "2PC participants blocked ~500ms: {}",
        d2pl.locks.exclusive_hold.mean()
    );
    assert!(
        o2pc.locks.exclusive_hold.mean() < 50_000.0,
        "O2PC released at the vote: {}",
        o2pc.locks.exclusive_hold.mean()
    );
}

#[test]
fn real_action_sites_hold_locks_under_o2pc() {
    // Dedicated coordinator at site 2; participants at sites 0 and 1.
    // With 20 ms links: both subtransactions lock at ~20 ms, VOTE-REQ
    // arrives ~60 ms, the decision ~100 ms. The compensatable site releases
    // at the vote (~40 ms hold), the real-action site at the decision
    // (~80 ms hold).
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.network = o2pc_sim::NetworkConfig::fixed(Duration::millis(20));
    cfg.real_action_sites.insert(SiteId(1));
    cfg.seed = 9;
    let mut e = loaded_engine(cfg, 1, 100);
    e.submit_at(
        SimTime::ZERO,
        TxnRequest::global_with_coordinator(
            SiteId(2),
            vec![
                (SiteId(0), vec![Op::Add(Key(0), -5)]),
                (SiteId(1), vec![Op::Add(Key(0), 5)]),
            ],
        ),
    );
    let r = e.run(Duration::secs(10));
    assert_eq!(r.global_committed, 1);
    assert!(
        r.locks.exclusive_hold.max() > 70_000,
        "real-action site blocked until decision"
    );
    assert!(
        r.locks.exclusive_hold.quantile(0.01) < 50_000,
        "compensatable site released at vote"
    );
}

#[test]
fn reserve_failure_aborts_globally_and_restores_stock() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.seed = 10;
    let mut e = Engine::new(cfg);
    e.load(SiteId(0), Key(0), Value(10)); // flight seats
    e.load(SiteId(1), Key(0), Value(0)); // hotel rooms: none left
    e.submit_at(
        SimTime::ZERO,
        TxnRequest::global(vec![
            (SiteId(0), vec![Op::Reserve(Key(0), 1)]),
            (SiteId(1), vec![Op::Reserve(Key(0), 1)]),
        ]),
    );
    let r = e.run(Duration::secs(5));
    assert_eq!(r.global_aborted, 1);
    assert_eq!(
        e.value(SiteId(0), Key(0)),
        Some(Value(10)),
        "seat released by compensation"
    );
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(0)));
}

#[test]
fn local_transactions_run_and_deadlocks_resolve() {
    let mut cfg = SystemConfig::new(1, ProtocolKind::O2pc);
    cfg.seed = 11;
    let mut e = loaded_engine(cfg, 2, 100);
    // Two locals in lock order k0,k1 and k1,k0: classic deadlock shape.
    e.submit_at(
        SimTime::ZERO,
        TxnRequest::local(SiteId(0), vec![Op::Add(Key(0), 1), Op::Add(Key(1), 1)]),
    );
    e.submit_at(
        SimTime(10),
        TxnRequest::local(SiteId(0), vec![Op::Add(Key(1), 1), Op::Add(Key(0), 1)]),
    );
    let r = e.run(Duration::secs(5));
    // Each holds its first key when it asks for its second: one is the
    // victim, the other commits, and nothing hangs.
    assert_eq!(r.counters.get("deadlock.victims.local"), 1);
    assert_eq!((r.local_committed, r.local_aborted), (1, 1));
    assert!(r.compensations_pending == 0);
    assert!(r.end_time < SimTime::ZERO + Duration::secs(5));
}

#[test]
fn compensation_victim_reruns_and_both_compensations_complete() {
    // Site 0 holds the data; T1 is coordinated from site 1 and T2 from
    // site 2. Each locally commits at site 0 (T2 after T1 released its
    // locks), then its coordinator crashes before the yes-vote arrives. Both
    // recover at 20 ms and presume abort, so both compensations start at
    // site 0 in the same instant and take k0 and k1 in opposite orders.
    let (s0, s1, s2) = (SiteId(0), SiteId(1), SiteId(2));
    let ms = |m| SimTime::ZERO + Duration::millis(m);
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.seed = 13;
    let mut failures = o2pc_sim::FailurePlan::new();
    failures.site_crash(s1, ms(3) + Duration::micros(500), ms(20));
    failures.site_crash(s2, ms(7), ms(20));
    cfg.failures = failures;
    let mut e = Engine::new(cfg);
    e.load(s0, Key(0), Value(100));
    e.load(s0, Key(1), Value(100));
    let on_s0 =
        |coordinator, ops| TxnRequest::global_with_coordinator(coordinator, vec![(s0, ops)]);
    let t1 = vec![Op::Add(Key(0), 5), Op::Add(Key(1), 5)];
    let t2 = vec![Op::Add(Key(1), 7), Op::Add(Key(0), 7)];
    e.submit_at(SimTime::ZERO, on_s0(s1, t1));
    e.submit_at(ms(3) + Duration::micros(500), on_s0(s2, t2));
    let r = e.run(Duration::secs(5));
    assert_eq!(r.global_aborted, 2);
    assert_eq!(r.counters.get("deadlock.victims.comp"), 1);
    assert!(r.counters.get("comp.retries") >= 1);
    assert_eq!(r.compensations_completed, 2);
    assert_eq!(r.compensations_pending, 0);
    assert_eq!(e.value(s0, Key(0)), Some(Value(100)));
    assert_eq!(e.value(s0, Key(1)), Some(Value(100)));
}

#[test]
fn crossing_globals_resolve_through_the_lifted_graph() {
    // T1 is coordinated from site 0 and T2 from site 1, so each one's
    // home spawn lands at once and its other spawn a link later: T1 holds
    // k0 at site 0, T2 holds it at site 1, and each then queues behind the
    // other. No site sees a cycle; the lifted graph does, and the younger T2
    // is the victim. Its roll-back at site 1 is its compensation there.
    let (s0, s1, k) = (SiteId(0), SiteId(1), Key(0));
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.seed = 14;
    let mut e = loaded_engine(cfg, 1, 100);
    e.submit_at(SimTime::ZERO, transfer(s0, s1, k, 5));
    e.submit_at(SimTime::ZERO, transfer(s1, s0, k, 7));
    let r = e.run(Duration::secs(5));
    assert_eq!(r.counters.get("deadlock.global"), 1);
    assert_eq!((r.global_committed, r.global_aborted), (1, 1));
    assert_eq!(e.value(s0, k), Some(Value(95)), "only T1's transfer shows");
    assert_eq!(e.value(s1, k), Some(Value(105)));
}

#[test]
fn vote_timeout_aborts_when_participant_site_is_down() {
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.vote_timeout = Some(Duration::millis(100));
    cfg.seed = 12;
    let mut failures = o2pc_sim::FailurePlan::new();
    // Participant site 2 is down for the whole run.
    failures.site_crash(SiteId(2), SimTime::ZERO, SimTime::ZERO + Duration::secs(60));
    cfg.failures = failures;
    let mut e = Engine::new(cfg);
    e.load(SiteId(0), Key(0), Value(100));
    e.load(SiteId(1), Key(0), Value(100));
    e.submit_at(
        SimTime(1),
        TxnRequest::global_with_coordinator(
            SiteId(0),
            vec![
                (SiteId(1), vec![Op::Add(Key(0), 5)]),
                (SiteId(2), vec![Op::Add(Key(0), -5)]),
            ],
        ),
    );
    let r = e.run(Duration::secs(10));
    assert_eq!(r.global_committed, 0);
    assert_eq!(r.global_aborted, 1, "timeout presumes abort");
    assert_eq!(
        e.value(SiteId(1), Key(0)),
        Some(Value(100)),
        "site 1 compensated"
    );
}

/// A run stopped by the event cap says so, and leaves its steps queued for
/// the next call; a run that reaches quiescence counts no cap.
#[test]
fn event_cap_stop_is_counted() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.max_events = 5;
    let mut e = loaded_engine(cfg, 2, 100);
    e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 30));
    let r = e.run(Duration::secs(5));
    assert_eq!(r.events_processed, 5);
    assert_eq!(r.counters.get("run.event_cap"), 1);
    assert!(e.runtime().pending() > 0, "capped with steps still queued");

    let mut e = loaded_engine(SystemConfig::new(2, ProtocolKind::O2pc), 2, 100);
    e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 30));
    let r = e.run(Duration::secs(5));
    assert_eq!(r.global_committed, 1);
    assert_eq!(r.counters.get("run.event_cap"), 0);
    assert_eq!(e.runtime().pending(), 0);
}

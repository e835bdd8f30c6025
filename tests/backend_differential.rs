//! Cross-backend differential tests: the same `Engine` (identical protocol
//! logic, identical configuration, identical workload) run once on the
//! deterministic simulator and once on the threaded wall-clock runtime.
//!
//! What can be compared depends on contention:
//!
//! * a **conflict-free** schedule has one outcome regardless of message
//!   interleaving, so commit / abort / compensation counts must match the
//!   simulator *exactly*;
//! * a **contended** schedule is schedule-dependent on real threads, so the
//!   threaded run is checked against the protocol's invariants (every
//!   transaction decided, value conserved, no compensation left pending)
//!   while the simulated run stays bit-reproducible.

use o2pc_common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Runtime, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use o2pc_sim::NetworkConfig;
use std::time::Duration as StdDuration;

fn threaded_engine(cfg: SystemConfig) -> Engine<ThreadedRuntime<TimerEvent, Msg>> {
    let transport = ThreadedTransport::new(NetworkConfig::fixed(Duration::millis(1)));
    let rt = ThreadedRuntime::new(
        transport,
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(30),
        },
    );
    Engine::with_runtime(cfg, rt)
}

/// Install a fixed workload into an engine on any substrate.
fn install<R: Runtime<TimerEvent, Msg>>(
    engine: &mut Engine<R>,
    loads: &[(SiteId, Key, Value)],
    arrivals: &[(SimTime, TxnRequest)],
) {
    for &(s, k, v) in loads {
        engine.load(s, k, v);
    }
    engine.submit(arrivals);
}

fn counts(r: &RunReport) -> (u64, u64, u64, u64, u64, usize, i64) {
    (
        r.global_committed,
        r.global_aborted,
        r.local_committed,
        r.local_aborted,
        r.compensations_completed,
        r.compensations_pending,
        r.total_value,
    )
}

type Workload = (Vec<(SiteId, Key, Value)>, Vec<(SimTime, TxnRequest)>);

/// Disjoint keys per transaction: no lock conflicts, no aborts, and hence
/// one possible outcome on every substrate.
fn conflict_free_workload() -> Workload {
    let mut loads = Vec::new();
    let mut arrivals = Vec::new();
    for i in 0u64..6 {
        let a = SiteId((i % 3) as u32);
        let b = SiteId(((i + 1) % 3) as u32);
        let k = Key(100 + i);
        loads.push((a, k, Value(50)));
        loads.push((b, k, Value(50)));
        arrivals.push((
            SimTime(i * 2_000),
            TxnRequest::global(vec![(a, vec![Op::Add(k, -10)]), (b, vec![Op::Add(k, 10)])]),
        ));
    }
    // A couple of independent local transactions on their own keys.
    for i in 0u64..3 {
        let s = SiteId((i % 3) as u32);
        let k = Key(500 + i);
        loads.push((s, k, Value(7)));
        arrivals.push((
            SimTime(1_000 + i * 2_000),
            TxnRequest::local(s, [Op::Add(k, 1)]),
        ));
    }
    (loads, arrivals)
}

/// Golden fingerprint of the conflict-free run on the simulator, pinned
/// before the hot-path rewrite. The threaded backend cannot be digested
/// (wall-clock timestamps differ run to run), but the simulator side of the
/// differential must stay byte-identical across optimizations.
#[test]
fn conflict_free_sim_history_digest_is_golden() {
    let (loads, arrivals) = conflict_free_workload();
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.seed = 11;
    cfg.op_service_time = Duration::micros(100);
    let mut sim = Engine::new(cfg);
    install(&mut sim, &loads, &arrivals);
    let r = sim.run(Duration::secs(30));
    assert_eq!(
        (r.history.digest(), r.history.len()),
        (3469630476736176198u64, 57usize),
        "golden sim fingerprint drifted"
    );
}

#[test]
fn conflict_free_counts_match_across_backends() {
    let (loads, arrivals) = conflict_free_workload();
    let mk_cfg = || {
        let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
        cfg.seed = 11;
        cfg.op_service_time = Duration::micros(100);
        cfg
    };

    let mut sim = Engine::new(mk_cfg());
    install(&mut sim, &loads, &arrivals);
    let sim_report = sim.run(Duration::secs(30));

    let mut thr = threaded_engine(mk_cfg());
    install(&mut thr, &loads, &arrivals);
    let thr_report = thr.run(Duration::secs(30));

    assert_eq!(sim_report.global_committed, 6);
    assert_eq!(sim_report.local_committed, 3);
    assert_eq!(
        counts(&sim_report),
        counts(&thr_report),
        "conflict-free outcome diverged between backends"
    );
}

/// One participant is forced to vote abort (autonomy) after its sibling has
/// optimistically committed and released — so the decided outcome *requires*
/// a compensation. Both engines consume the same RNG stream (the seed is
/// calibrated on the simulator), so the commit/abort/compensation counts are
/// a hard equality even though the two backends may deliver the vote
/// requests in different orders.
#[test]
fn forced_abort_compensates_identically_on_both_backends() {
    let mk_cfg = |seed: u64| {
        let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
        cfg.seed = seed;
        cfg.op_service_time = Duration::micros(100);
        cfg.vote_abort_probability = 0.5;
        cfg
    };
    let loads = [
        (SiteId(0), Key(1), Value(100)),
        (SiteId(1), Key(2), Value(100)),
    ];
    let arrivals = [(
        SimTime::ZERO,
        TxnRequest::global(vec![
            (SiteId(0), vec![Op::Add(Key(1), -5)]),
            (SiteId(1), vec![Op::Add(Key(2), 5)]),
        ]),
    )];

    // Calibrate: find a seed whose two vote draws are (abort, commit) in
    // some order — exactly one compensation on the simulator.
    let mut chosen = None;
    for seed in 0..64 {
        let mut sim = Engine::new(mk_cfg(seed));
        install(&mut sim, &loads, &arrivals);
        let r = sim.run(Duration::secs(30));
        if r.global_aborted == 1 && r.compensations_completed == 1 {
            chosen = Some((seed, r));
            break;
        }
    }
    let (seed, sim_report) = chosen.expect("some seed in 0..64 yields a single-sided no-vote");

    let mut thr = threaded_engine(mk_cfg(seed));
    install(&mut thr, &loads, &arrivals);
    let thr_report = thr.run(Duration::secs(30));

    assert_eq!(counts(&sim_report), counts(&thr_report), "seed {seed}");
    assert_eq!(thr_report.global_committed, 0);
    assert_eq!(thr_report.global_aborted, 1);
    assert_eq!(thr_report.compensations_completed, 1);
    assert_eq!(thr_report.compensations_pending, 0);
}

/// A dense conflict-free burst: every transaction arrives within 600 µs, so
/// with `admission_window = Some(2)` the coordinators *must* park arrivals
/// in the admission queue and re-admit them as completions free slots.
fn dense_conflict_free_workload() -> Workload {
    let mut loads = Vec::new();
    let mut arrivals = Vec::new();
    for i in 0u64..12 {
        let a = SiteId((i % 3) as u32);
        let b = SiteId(((i + 1) % 3) as u32);
        let k = Key(200 + i);
        loads.push((a, k, Value(50)));
        loads.push((b, k, Value(50)));
        arrivals.push((
            SimTime(i * 50),
            TxnRequest::global(vec![(a, vec![Op::Add(k, -10)]), (b, vec![Op::Add(k, 10)])]),
        ));
    }
    (loads, arrivals)
}

/// The pipelined coordinator (bounded admission window, completion-driven
/// refill) must decide the same commit/abort multiset as the unbounded
/// coordinator, on both substrates: windowing reorders *when* transactions
/// run, never *what* they decide. The workload is conflict-free so the
/// outcome is unique and the comparison is exact equality.
#[test]
fn pipelined_coordinator_matches_across_backends() {
    let (loads, arrivals) = dense_conflict_free_workload();
    let mk_cfg = |window: Option<usize>| {
        let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
        cfg.seed = 29;
        cfg.op_service_time = Duration::micros(100);
        cfg.admission_window = window;
        cfg
    };

    let mut sim_unbounded = Engine::new(mk_cfg(None));
    install(&mut sim_unbounded, &loads, &arrivals);
    let unbounded = sim_unbounded.run(Duration::secs(30));

    let mut sim_windowed = Engine::new(mk_cfg(Some(2)));
    install(&mut sim_windowed, &loads, &arrivals);
    let windowed = sim_windowed.run(Duration::secs(30));

    let mut thr = threaded_engine(mk_cfg(Some(2)));
    install(&mut thr, &loads, &arrivals);
    let thr_report = thr.run(Duration::secs(30));

    assert_eq!(unbounded.global_committed, 12);
    assert!(
        windowed.counters.get("txn.admit_queued") > 0,
        "the 2-wide window must actually park arrivals under a 50 µs burst"
    );
    assert!(
        thr_report.counters.get("txn.admit_queued") > 0,
        "the threaded run must exercise the admission queue too"
    );
    assert_eq!(
        counts(&unbounded),
        counts(&windowed),
        "admission windowing changed the decided outcome on the simulator"
    );
    assert_eq!(
        counts(&windowed),
        counts(&thr_report),
        "pipelined outcome diverged between sim and threaded backends"
    );
}

/// Heavy contention on a handful of keys. On real threads the interleaving
/// (and therefore which transactions win) is schedule-dependent, so the
/// check is the protocol's own guarantees, not equality with the simulator.
#[test]
fn contended_workload_upholds_invariants_on_threaded_runtime() {
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pcP1);
    cfg.seed = 23;
    cfg.op_service_time = Duration::micros(100);
    let mut engine = threaded_engine(cfg);

    let keys = [Key(1), Key(2), Key(3)];
    let initial = 1_000i64;
    for s in [SiteId(0), SiteId(1), SiteId(2)] {
        for k in keys {
            engine.load(s, k, Value(initial));
        }
    }
    let n_global = 12u64;
    for i in 0..n_global {
        let a = SiteId((i % 3) as u32);
        let b = SiteId(((i + 1) % 3) as u32);
        let k = keys[(i % 3) as usize]; // only 3 keys: constant collisions
        engine.submit_at(
            SimTime(i * 500),
            TxnRequest::global(vec![(a, vec![Op::Add(k, -3)]), (b, vec![Op::Add(k, 3)])]),
        );
    }
    let report = engine.run(Duration::secs(30));

    // Every submitted transaction was decided one way or the other.
    assert_eq!(report.global_committed + report.global_aborted, n_global);
    // Semantic atomicity: aborted transfers were fully compensated, so the
    // system-wide balance is conserved no matter which subset committed.
    assert_eq!(report.total_value, initial * 9, "value not conserved");
    assert_eq!(report.compensations_pending, 0, "compensation left pending");
    // Nothing was lost on a reliable transport.
    assert_eq!(report.counters.get("net.dropped"), 0);
}

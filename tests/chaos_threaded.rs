//! Chaos smoke on the *threaded* transport: crash + duplicate + drop at
//! once, off the deterministic simulator.
//!
//! The chaos harness proper (`cargo run --bin chaos`) fuzzes the sim
//! substrate, where every fault is replayable. This test confirms the same
//! hardening (retransmission, cooperative termination, duplicate-delivery
//! idempotence) holds on the wall-clock runtime, whose faults are injected
//! by the network itself: lossy duplicating delayed links plus a mid-run
//! site crash, checked against the protocol's schedule-independent
//! invariants (every transaction decided, value conserved, no compensation
//! left pending) and the chaos harness's accounting oracle.

use o2pc_chaos::oracle;
use o2pc_common::{Duration, Key, Op, ScratchDir, SimTime, SiteId, Value};
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Runtime, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use o2pc_sim::{FailurePlan, NetworkConfig};
use std::time::Duration as StdDuration;

fn lossy_engine(mut cfg: SystemConfig) -> Engine<ThreadedRuntime<TimerEvent, Msg>> {
    // PR 2 hardening, at the chaos harness's standard settings: without a
    // vote timeout a spawn swallowed by the crashed site leaves its
    // coordinator with no liveness path (and its sibling's executed-but-
    // unvoted write wedged behind a lock); without retransmission a lost
    // VOTE-REQ wedges the run; without termination a participant prepared
    // across the crash stays blocked.
    cfg.vote_timeout = Some(Duration::millis(40));
    cfg.retransmit_base = Some(Duration::millis(10));
    cfg.termination_timeout = Some(Duration::millis(50));
    let transport: ThreadedTransport<Msg> = ThreadedTransport::new(NetworkConfig {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        ..NetworkConfig::fixed(Duration::micros(500))
    });
    let rt = ThreadedRuntime::new(
        transport,
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(60),
        },
    );
    Engine::with_runtime(cfg, rt)
}

/// Contended transfers over lossy, duplicating links while one participant
/// crashes and recovers mid-run. Which transactions commit is
/// schedule-dependent; that all of them decide, that money is conserved,
/// and that the message ledger reconciles is not.
#[test]
fn crash_drop_duplicate_smoke_on_threaded_transport() {
    crash_drop_duplicate_smoke(SystemConfig::new(3, ProtocolKind::O2pcP1));
}

/// The same run on on-disk logs, promises waiting for their fsync, with
/// two admission slots per coordinator: transactions stuck on the dark
/// site hold their slots until the vote timeout, arrivals queue behind them,
/// and the work-conserving seal fires across the crash — the crashed site's
/// parked promises die with it, its peers time out, and recovery reopens the
/// log at its durable watermark.
#[test]
fn crash_drop_duplicate_smoke_on_durable_physical_gate() {
    let dir = ScratchDir::new("chaos-threaded-durable");
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pcP1);
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    cfg.admission_window = Some(2);
    let report = crash_drop_duplicate_smoke(cfg);
    assert!(report.counters.get("wal.parked_msgs") > 0);
    assert!(report.counters.get("wal.early_seals") > 0);
}

fn crash_drop_duplicate_smoke(mut cfg: SystemConfig) -> RunReport {
    cfg.seed = 0xC4A0;
    cfg.op_service_time = Duration::micros(100);
    // Site 2 is dark from 5 ms to 120 ms: decisions sent into the outage
    // are re-driven by retransmission, and anything prepared across it is
    // resolved by the termination protocol.
    let mut failures = FailurePlan::new();
    failures.site_crash(
        SiteId(2),
        SimTime::ZERO + Duration::millis(5),
        SimTime::ZERO + Duration::millis(120),
    );
    cfg.failures = failures;
    let mut engine = lossy_engine(cfg);

    let keys = [Key(1), Key(2), Key(3)];
    let initial = 1_000i64;
    for s in [SiteId(0), SiteId(1), SiteId(2)] {
        for k in keys {
            engine.load(s, k, Value(initial));
        }
    }
    let n_global = 10u64;
    let arrivals: Vec<_> = (0..n_global)
        .map(|i| {
            let a = SiteId((i % 3) as u32);
            let b = SiteId(((i + 1) % 3) as u32);
            let k = keys[(i % 3) as usize];
            let subs = vec![(a, vec![Op::Add(k, -3)]), (b, vec![Op::Add(k, 3)])];
            (SimTime(i * 2_000), TxnRequest::global(subs))
        })
        .collect();
    engine.submit(&arrivals);
    let report = engine.run(Duration::secs(60));

    // Every submitted transaction was decided despite loss + crash.
    assert_eq!(
        report.global_committed + report.global_aborted,
        n_global,
        "undecided transactions: {:?}",
        report.counters.iter().collect::<Vec<_>>()
    );
    // Semantic atomicity across compensation (PR 2 idempotence: duplicate
    // deliveries must not double-apply, lost decisions must be re-driven).
    assert_eq!(report.total_value, initial * 9, "value not conserved");
    assert_eq!(report.compensations_pending, 0, "compensation left pending");

    // Loss accounting stays honest off the sim substrate: the accounting
    // oracle finds the engine's per-kind send, drop and unroutable counters
    // equal to the network's ledger, and nothing in flight.
    let violations = oracle::check_accounting(&engine, &report);
    assert!(violations.is_empty(), "{violations:?}");
    let ledger = engine.runtime().network().ledger();
    // Every site is registered; a crash parks the site, it does not
    // unregister it.
    assert_eq!(ledger.unroutable, 0, "every destination is registered");
    assert!(
        ledger.dropped > 0,
        "a 5% loss rate over a full run must actually drop something"
    );
    assert!(
        ledger.duplicated > 0,
        "a 5% duplication rate over a full run must actually duplicate"
    );
    assert!(engine.down_sites().is_empty());
    assert_eq!(engine.queued_admissions(), 0);
    assert!(engine.wal_divergent_sites().is_empty());
    report
}

//! Duplicate-delivery idempotence: every protocol message delivered twice
//! must leave the system in exactly the state a single delivery produces.
//!
//! The wrapper runtime here sends *every* engine message twice, so a run
//! exercises duplicate `SpawnSubtxn`, `SubtxnAck`, `VoteReq`, `VoteMsg`,
//! `Decision`, `DecisionAck`, `TermReq`, and `TermAnswer` deliveries. Each
//! scenario is compared field-for-field against a baseline run on the
//! plain simulator with the same seed — duplication must change nothing
//! observable: not the decision counts, not the stores, not the number of
//! compensations.

use o2pc_common::{DetRng, Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{DefaultSimRuntime, Engine, Msg, RunReport, SystemConfig, TimerEvent, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Clock, Runtime, SendOutcome, Step};
use o2pc_sim::{FailurePlan, Network, NetworkConfig};

/// Sends every message twice. The second copy is a faithful duplicate:
/// same payload, same link, same instant (the simulator's FIFO order
/// delivers it right behind the original).
struct DuplicatingRuntime {
    inner: DefaultSimRuntime,
}

impl Clock for DuplicatingRuntime {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

impl Runtime<TimerEvent, Msg> for DuplicatingRuntime {
    fn register_endpoint(&mut self, id: SiteId) {
        self.inner.register_endpoint(id);
    }
    fn reserve(&mut self, n: u64) -> u64 {
        self.inner.reserve(n)
    }
    fn schedule_reserved(&mut self, at: SimTime, seq: u64, timer: TimerEvent) {
        self.inner.schedule_reserved(at, seq, timer);
    }
    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: Msg) -> SendOutcome {
        let first = self.inner.send(now, from, to, msg.clone());
        let _ = self.inner.send(now, from, to, msg);
        first
    }
    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<TimerEvent, Msg>)> {
        self.inner.next(deadline)
    }
    fn network(&self) -> &Network {
        self.inner.network()
    }
    fn flush(&mut self, site: SiteId, batch: o2pc_storage::FlushBatch) {
        self.inner.flush(site, batch);
    }
}

/// Run the same configured scenario twice — once on the plain simulator,
/// once with every message duplicated — and return both reports plus the
/// engines for store inspection.
fn run_both(
    cfg: &SystemConfig,
    install: impl Fn(&mut Engine) + Copy,
    install_dup: impl Fn(&mut Engine<DuplicatingRuntime>) + Copy,
) -> ((Engine, RunReport), (Engine<DuplicatingRuntime>, RunReport)) {
    let mut base = Engine::new(cfg.clone());
    install(&mut base);
    let base_report = base.run(Duration::secs(30));

    let mut root = DetRng::new(cfg.seed);
    let net_rng = root.fork(0x6e65);
    let network = Network::new(cfg.network.clone(), net_rng).with_failures(cfg.failures.clone());
    let rt = DuplicatingRuntime {
        inner: DefaultSimRuntime::new(network),
    };
    let mut dup = Engine::with_runtime(cfg.clone(), rt);
    install_dup(&mut dup);
    let dup_report = dup.run(Duration::secs(30));

    ((base, base_report), (dup, dup_report))
}

fn assert_same_outcome(base: &RunReport, dup: &RunReport) {
    assert_eq!(
        dup.global_committed, base.global_committed,
        "commits differ"
    );
    assert_eq!(dup.global_aborted, base.global_aborted, "aborts differ");
    assert_eq!(
        dup.compensations_completed, base.compensations_completed,
        "compensation counts differ"
    );
    assert_eq!(dup.compensations_pending, 0);
}

/// O2PC happy path plus a forced abort (empty inventory fails `Reserve`):
/// covers duplicate spawn/ack/vote-req/vote/decision/decision-ack on both
/// the commit and the abort+compensation paths.
#[test]
fn duplicated_commit_and_abort_paths_match_baseline() {
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pcP1);
    cfg.seed = 0xD0B1;
    cfg.network = NetworkConfig::fixed(Duration::millis(1));
    let install_ops = |e: &mut dyn FnMut(SimTime, TxnRequest)| {
        // T1: commits (transfer site1 → site2).
        e(
            SimTime::ZERO,
            TxnRequest::global_with_coordinator(
                SiteId(0),
                vec![
                    (SiteId(1), vec![Op::Add(Key(0), -5)]),
                    (SiteId(2), vec![Op::Add(Key(0), 5)]),
                ],
            ),
        );
        // T2: aborts — site 2 exposes +7, site 1's Reserve on an empty
        // item votes no, and site 2 must compensate.
        e(
            SimTime::ZERO + Duration::millis(40),
            TxnRequest::global_with_coordinator(
                SiteId(0),
                vec![
                    (SiteId(1), vec![Op::Reserve(Key(1), 1)]),
                    (SiteId(2), vec![Op::Add(Key(0), 7)]),
                ],
            ),
        );
    };
    let load = [
        (SiteId(1), Key(0), Value(100)),
        (SiteId(1), Key(1), Value(0)),
        (SiteId(2), Key(0), Value(100)),
    ];
    let ((base, br), (dup, dr)) = run_both(
        &cfg,
        |e| {
            for &(s, k, v) in &load {
                e.load(s, k, v);
            }
            install_ops(&mut |at, req| e.submit_at(at, req));
        },
        |e| {
            for &(s, k, v) in &load {
                e.load(s, k, v);
            }
            install_ops(&mut |at, req| e.submit_at(at, req));
        },
    );
    assert_eq!(br.global_committed, 1);
    assert_eq!(br.global_aborted, 1);
    assert!(br.compensations_completed > 0, "T2 must compensate");
    assert_same_outcome(&br, &dr);
    for &(s, k, _) in &load {
        assert_eq!(
            dup.value(s, k),
            base.value(s, k),
            "store differs at {s:?} {k:?}"
        );
    }
}

/// 2PC participant crash while prepared, resolved through the termination
/// protocol after recovery: covers duplicate `TermReq`/`TermAnswer` (and
/// duplicate decisions against a recovered site).
#[test]
fn duplicated_termination_round_matches_baseline() {
    let mut cfg = SystemConfig::new(3, ProtocolKind::D2pl2pc);
    cfg.seed = 0xD0B2;
    cfg.network = NetworkConfig::fixed(Duration::millis(1));
    cfg.termination_timeout = Some(Duration::millis(50));
    let mut failures = FailurePlan::new();
    failures.site_crash(
        SiteId(2),
        SimTime::ZERO + Duration::millis(4),
        SimTime::ZERO + Duration::millis(1000),
    );
    cfg.failures = failures;
    let load = [
        (SiteId(1), Key(0), Value(100)),
        (SiteId(2), Key(0), Value(100)),
    ];
    let txn = || {
        TxnRequest::global_with_coordinator(
            SiteId(0),
            vec![
                (SiteId(1), vec![Op::Add(Key(0), -5)]),
                (SiteId(2), vec![Op::Add(Key(0), 5)]),
            ],
        )
    };
    let ((base, br), (dup, dr)) = run_both(
        &cfg,
        |e| {
            for &(s, k, v) in &load {
                e.load(s, k, v);
            }
            e.submit_at(SimTime::ZERO, txn());
        },
        |e| {
            for &(s, k, v) in &load {
                e.load(s, k, v);
            }
            e.submit_at(SimTime::ZERO, txn());
        },
    );
    assert_eq!(br.global_committed, 1);
    assert!(
        br.counters.get("term.resolved_commit") > 0,
        "baseline must resolve through the termination protocol"
    );
    assert!(
        dr.counters.get("term.resolved_commit") > 0,
        "duplicated run must resolve through the termination protocol too"
    );
    assert_same_outcome(&br, &dr);
    for &(s, k, _) in &load {
        assert_eq!(
            dup.value(s, k),
            base.value(s, k),
            "store differs at {s:?} {k:?}"
        );
    }
    // The round actually flowed twice per message.
    assert!(dr.counters.get("msg.term_req") > 0);
    assert!(dr.counters.get("msg.term_answer") > 0);
}

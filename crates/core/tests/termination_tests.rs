//! Engine tests for the cooperative termination protocol extension.

use o2pc_common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, SystemConfig, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_sim::FailurePlan;

/// Coordinator at site 0 (no data), participants at 1 and 2.
fn crash_coordinator_setup(
    protocol: ProtocolKind,
    termination: Option<Duration>,
    crash: (u64, u64),
) -> Engine {
    let mut cfg = SystemConfig::new(3, protocol);
    cfg.seed = 0x7E01;
    cfg.termination_timeout = termination;
    let mut failures = FailurePlan::new();
    failures.site_crash(
        SiteId(0),
        SimTime::ZERO + Duration::millis(crash.0),
        SimTime::ZERO + Duration::millis(crash.1),
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
    e
}

#[test]
fn all_uncertain_participants_stay_blocked() {
    // Both participants are prepared when the coordinator dies: the
    // termination protocol runs but cannot unblock them (the fundamental
    // 2PC blocking case). They stay blocked until the coordinator recovers.
    let mut e =
        crash_coordinator_setup(ProtocolKind::D2pl2pc, Some(Duration::millis(20)), (3, 500));
    let r = e.run(Duration::secs(10));
    assert!(
        r.counters.get("term.rounds") > 0,
        "termination rounds must run"
    );
    assert!(
        r.counters.get("term.still_blocked") > 0,
        "all-uncertain ⇒ still blocked"
    );
    assert!(
        r.locks.exclusive_hold.mean() > 400_000.0,
        "blocked through the outage despite the termination protocol: {}",
        r.locks.exclusive_hold.mean()
    );
    assert!(r.counters.get("msg.term_req") > 0);
}

#[test]
fn unprepared_peer_lets_blocked_participant_abort() {
    // Site 1 is prepared; site 2's VOTE-REQ is still crawling down a slow
    // (directional) link when the coordinator dies. Site 1's termination
    // round finds site 2 not prepared — site 2 aborts itself and answers,
    // licensing site 1 to abort instead of blocking for 30 s.
    let mut cfg = SystemConfig::new(3, ProtocolKind::D2pl2pc);
    cfg.seed = 0x7E02;
    cfg.termination_timeout = Some(Duration::millis(20));
    // Only the coordinator→site2 direction is slow: the spawn reaches site 2
    // slowly too, but its ack comes back fast; the VOTE-REQ then takes
    // another 400 ms during which the coordinator dies.
    cfg.network.link_latency.insert(
        (SiteId(0), SiteId(2)),
        o2pc_sim::LatencyModel::Fixed(Duration::millis(400)),
    );
    let mut failures = FailurePlan::new();
    failures.site_crash(
        SiteId(0),
        SimTime::ZERO + Duration::millis(405),
        SimTime::ZERO + Duration::secs(30),
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
    let r = e.run(Duration::secs(10));
    assert!(
        r.counters.get("term.resolved_abort") > 0,
        "{:?}",
        r.counters.iter().collect::<Vec<_>>()
    );
    assert_eq!(
        e.value(SiteId(1), Key(0)),
        Some(Value(100)),
        "site 1 rolled back via termination"
    );
    assert_eq!(e.value(SiteId(2), Key(0)), Some(Value(100)));
    // Site 1 unblocked long before the coordinator's 30s recovery.
    assert!(
        r.locks.exclusive_hold.max() < 5_000_000,
        "{}",
        r.locks.exclusive_hold.max()
    );
}

#[test]
fn peer_that_knows_the_decision_shares_it() {
    // Dedicated coordinator at site 0 with slow links to site 1 (300 ms)
    // and site 2 (150 ms). Site 1 votes at ~600 ms and learns COMMIT from
    // the coordinator at ~900 ms; site 2 votes at ~450 ms and learns it at
    // ~750 ms. Site 1's round at ~800 ms queries site 2, which answers
    // KnowsCommit while site 1 is still in doubt. (The timeout must exceed
    // the gap between the two votes, else site 2's round would observe
    // site 1 before it even voted and — correctly, per the protocol's
    // safety rule — abort the whole transaction.)
    let mut cfg = SystemConfig::new(3, ProtocolKind::D2pl2pc);
    cfg.seed = 0x7E03;
    cfg.termination_timeout = Some(Duration::millis(200));
    for (to, ms) in [(SiteId(1), 300), (SiteId(2), 150)] {
        let slow = o2pc_sim::LatencyModel::Fixed(Duration::millis(ms));
        cfg.network.link_latency.insert((SiteId(0), to), slow);
    }
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
    let r = e.run(Duration::secs(10));
    assert_eq!(r.global_committed, 1);
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(95)));
    assert_eq!(e.value(SiteId(2), Key(0)), Some(Value(105)));
    assert!(
        r.counters.get("term.rounds") > 0,
        "site 1 must have started termination rounds"
    );
    assert!(
        r.counters.get("term.resolved_commit") > 0,
        "the round must learn COMMIT from the peer before the coordinator's DECISION: {:?}",
        r.counters.iter().collect::<Vec<_>>()
    );
}

#[test]
fn termination_disabled_means_pure_blocking() {
    let mut e = crash_coordinator_setup(ProtocolKind::D2pl2pc, None, (3, 2_000));
    let r = e.run(Duration::secs(10));
    assert_eq!(r.counters.get("term.rounds"), 0);
    assert_eq!(r.counters.get("msg.term_req"), 0);
    assert!(r.locks.exclusive_hold.mean() > 1_900_000.0);
}

/// A runtime that swallows the first `TermAnswer` it is asked to carry.
/// Everything else passes through to the deterministic simulator.
struct DropFirstTermAnswer {
    inner: o2pc_core::DefaultSimRuntime,
    dropped: bool,
}

impl o2pc_runtime::Clock for DropFirstTermAnswer {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

impl o2pc_runtime::Runtime<o2pc_core::TimerEvent, o2pc_core::Msg> for DropFirstTermAnswer {
    fn register_endpoint(&mut self, id: SiteId) {
        self.inner.register_endpoint(id);
    }
    fn reserve(&mut self, n: u64) -> u64 {
        self.inner.reserve(n)
    }
    fn schedule_reserved(&mut self, at: SimTime, seq: u64, timer: o2pc_core::TimerEvent) {
        self.inner.schedule_reserved(at, seq, timer);
    }
    fn send(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        msg: o2pc_core::Msg,
    ) -> o2pc_runtime::SendOutcome {
        if !self.dropped && matches!(msg, o2pc_core::Msg::TermAnswer { .. }) {
            self.dropped = true;
            return o2pc_runtime::SendOutcome::DroppedByPolicy;
        }
        self.inner.send(now, from, to, msg)
    }
    fn next(
        &mut self,
        deadline: SimTime,
    ) -> Option<(
        SimTime,
        o2pc_runtime::Step<o2pc_core::TimerEvent, o2pc_core::Msg>,
    )> {
        self.inner.next(deadline)
    }
    fn network(&self) -> &o2pc_sim::Network {
        self.inner.network()
    }
    fn flush(&mut self, batches: Vec<(SiteId, o2pc_storage::FlushBatch)>) {
        self.inner.flush(batches);
    }
}

/// Losing a `TermAnswer` must only delay resolution by one timeout: each
/// firing of the termination timer re-arms the chain, so the next round
/// re-queries the peers and the repeated answer resolves the in-doubt
/// participant. (Without retry, the lost answer leaves the round open
/// forever and the recovered participant stays in doubt.)
#[test]
fn dropped_term_answer_is_retried_until_resolution() {
    // Participant-crash shape: site 2 crashes prepared at 4 ms (the
    // DECISION at 5.05 ms hits a dead site) and recovers at 1 s in doubt.
    // Its only path to the decision is the termination round against
    // site 1 — whose first answer is eaten by the runtime wrapper.
    let mut cfg = SystemConfig::new(3, ProtocolKind::D2pl2pc);
    cfg.seed = 0x7E04;
    cfg.termination_timeout = Some(Duration::millis(50));
    let mut failures = FailurePlan::new();
    failures.site_crash(
        SiteId(2),
        SimTime::ZERO + Duration::millis(4),
        SimTime::ZERO + Duration::millis(1000),
    );
    cfg.failures = failures;
    let mut root = o2pc_common::DetRng::new(cfg.seed);
    let net_rng = root.fork(0x6e65);
    let network =
        o2pc_sim::Network::new(cfg.network.clone(), net_rng).with_failures(cfg.failures.clone());
    let rt = DropFirstTermAnswer {
        inner: o2pc_core::DefaultSimRuntime::new(network),
        dropped: false,
    };
    let mut e = Engine::with_runtime(cfg, rt);
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
    let r = e.run(Duration::secs(30));
    assert!(e.runtime().dropped, "the first TermAnswer must be eaten");
    assert_eq!(r.global_committed, 1);
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(95)));
    assert_eq!(
        e.value(SiteId(2), Key(0)),
        Some(Value(105)),
        "the retried round must finalize the prepared update"
    );
    assert!(
        r.counters.get("term.rounds") >= 2,
        "a retried round is required after the lost answer: {:?}",
        r.counters.iter().collect::<Vec<_>>()
    );
    assert!(
        r.counters.get("term.resolved_commit") > 0,
        "the repeat answer resolves the in-doubt participant"
    );
}

#[test]
fn o2pc_needs_no_termination_protocol() {
    // Under O2PC the participants released at the vote: nothing is blocked,
    // so no termination round ever fires even when enabled.
    let mut e = crash_coordinator_setup(ProtocolKind::O2pc, Some(Duration::millis(20)), (3, 500));
    let r = e.run(Duration::secs(10));
    assert_eq!(
        r.counters.get("term.rounds"),
        0,
        "no prepared-blocked participants under O2PC"
    );
    assert!(r.locks.exclusive_hold.mean() < 50_000.0);
}

/// A termination round whose answer is lost ends when its site leaves
/// doubt, not only when an answer resolves it: once the coordinator's
/// decision arrives, nothing holds the retired transaction.
#[test]
fn decision_after_a_lost_term_answer_retires_the_transaction() {
    // Site 1 holds its writes to the decision (a real-action site) behind
    // a slow link from the coordinator: it votes yes at ~600 ms and learns
    // COMMIT at ~900 ms. Its termination timer fires in between; the round
    // asks site 2, which released at its vote and runs no round of its
    // own, and the runtime wrapper eats the answer.
    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.seed = 0x7E05;
    cfg.real_action_sites.insert(SiteId(1));
    cfg.termination_timeout = Some(Duration::millis(200));
    cfg.network.link_latency.insert(
        (SiteId(0), SiteId(1)),
        o2pc_sim::LatencyModel::Fixed(Duration::millis(300)),
    );
    let mut root = o2pc_common::DetRng::new(cfg.seed);
    let network = o2pc_sim::Network::new(cfg.network.clone(), root.fork(0x6e65));
    let rt = DropFirstTermAnswer {
        inner: o2pc_core::DefaultSimRuntime::new(network),
        dropped: false,
    };
    let mut e = Engine::with_runtime(cfg, rt);
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
    let r = e.run(Duration::secs(10));
    assert!(e.runtime().dropped, "the round's answer must be eaten");
    assert_eq!(r.counters.get("term.rounds"), 1);
    assert_eq!(r.global_committed, 1);
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(95)));
    assert_eq!(e.live_txn_count(), 0, "a stale round pins the transaction");
}

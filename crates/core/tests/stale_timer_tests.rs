//! Regression tests: timers that outlive their transaction must be inert.
//!
//! A `VoteTimeout` (or `Retransmit`) event can fire long after its
//! transaction completed and was garbage-collected — the engine keeps no
//! handle to cancel in-queue timers, so stale firings are a normal part of
//! steady state under chaos schedules. The engine used to index `txns`
//! unconditionally on these paths, which panics once GC removes the entry.

use o2pc_common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, SystemConfig, TxnRequest};
use o2pc_protocol::ProtocolKind;

fn transfer(from: SiteId, to: SiteId, key: Key, amount: i64) -> TxnRequest {
    TxnRequest::global([
        (from, [Op::Add(key, -amount)]),
        (to, [Op::Add(key, amount)]),
    ])
}

/// The vote timeout fires seconds after the transaction committed, acked,
/// and was retired by GC. The regression is the absence of a panic.
#[test]
fn vote_timeout_after_completion_and_gc_is_inert() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.seed = 0x57A1;
    // Far longer than the transaction needs to finish: by the time the
    // timer fires, the GTxn record is gone.
    cfg.vote_timeout = Some(Duration::secs(2));
    let mut e = Engine::new(cfg);
    e.load(SiteId(0), Key(0), Value(100));
    e.load(SiteId(1), Key(0), Value(100));
    e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 5));
    let r = e.run(Duration::secs(10));
    assert_eq!(r.global_committed, 1);
    assert_eq!(
        r.counters.get("txn.gc"),
        1,
        "the transaction must actually be retired before the timer fires"
    );
    assert_eq!(e.value(SiteId(0), Key(0)), Some(Value(95)));
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(105)));
}

/// Same shape for the retransmission chain: a `Retransmit` timer scheduled
/// while the decision was outstanding fires after GC retired the record.
#[test]
fn retransmit_timer_after_gc_is_inert() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
    cfg.seed = 0x57A2;
    // A long first link: once the transaction completes at millisecond
    // scale, the pending chain link fires against a retired id.
    cfg.retransmit_base = Some(Duration::millis(900));
    cfg.vote_timeout = Some(Duration::secs(3));
    let mut e = Engine::new(cfg);
    e.load(SiteId(0), Key(0), Value(100));
    e.load(SiteId(1), Key(0), Value(100));
    e.submit_at(SimTime::ZERO, transfer(SiteId(0), SiteId(1), Key(0), 7));
    let r = e.run(Duration::secs(20));
    assert_eq!(r.global_committed, 1);
    assert_eq!(r.counters.get("txn.gc"), 1);
    assert_eq!(e.value(SiteId(0), Key(0)), Some(Value(93)));
    assert_eq!(e.value(SiteId(1), Key(0)), Some(Value(107)));
}

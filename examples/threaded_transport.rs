//! The engine is substrate-agnostic: this example runs the *real*
//! `o2pc_core::Engine` — the same coordinator/site/marking/compensation
//! logic every simulated experiment uses — on the threaded wall-clock
//! runtime. Every message waits out a genuine 2 ms link latency on the wall
//! clock; timers fire on real elapsed time; the run ends once nothing is
//! left in flight or queued. No protocol code is duplicated here: only the
//! runtime differs from `quickstart`.
//!
//! ```sh
//! cargo run --example threaded_transport
//! ```

use o2pc_repro::common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_repro::core::{Engine, Msg, SystemConfig, TimerEvent, TxnRequest};
use o2pc_repro::protocol::ProtocolKind;
use o2pc_repro::runtime::{LinkPolicy, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use std::time::Duration as StdDuration;

fn main() {
    // Links with real latency: the runtime holds every message in its
    // event queue and delivers it ~2 ms after the send, on the wall clock.
    let transport: ThreadedTransport<Msg> =
        ThreadedTransport::with_policy(LinkPolicy::fixed(StdDuration::from_millis(2)));
    let rt: ThreadedRuntime<TimerEvent, Msg> =
        ThreadedRuntime::new(transport, ThreadedRuntimeConfig::default());

    let mut cfg = SystemConfig::new(3, ProtocolKind::O2pc);
    cfg.seed = 42;
    // Virtual durations are microseconds of *wall* time on this runtime.
    cfg.op_service_time = Duration::micros(200);

    let mut engine = Engine::with_runtime(cfg, rt);
    for site in [SiteId(0), SiteId(1), SiteId(2)] {
        engine.load(site, Key(1), Value(100));
    }

    // Three money transfers between sites, submitted 5 ms apart.
    for (i, (a, b)) in [(0u32, 1u32), (1, 2), (2, 0)].iter().enumerate() {
        engine.submit_at(
            SimTime(5_000 * i as u64),
            TxnRequest::global(vec![
                (SiteId(*a), vec![Op::Add(Key(1), -25)]),
                (SiteId(*b), vec![Op::Add(Key(1), 25)]),
            ]),
        );
    }

    let report = engine.run(Duration::secs(10));

    println!("ran on the threaded runtime:");
    println!("  committed: {}", report.global_committed);
    println!("  aborted:   {}", report.global_aborted);
    println!("  end time:  {} (wall)", report.end_time);
    println!("  2PC msgs/txn: {:.1}", report.msgs_2pc_per_txn());
    let total: i64 = [SiteId(0), SiteId(1), SiteId(2)]
        .iter()
        .map(|&s| engine.value(s, Key(1)).unwrap().0)
        .sum();
    println!("  conservation: total balance = {total} (expected 300)");
    assert_eq!(
        report.global_committed, 3,
        "conflict-free transfers all commit"
    );
    assert_eq!(total, 300);
    assert_eq!(engine.runtime().transport().in_flight(), 0, "all delivered");
}

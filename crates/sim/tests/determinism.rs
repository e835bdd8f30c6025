//! Simulator-level determinism and distribution sanity.

use o2pc_common::{DetRng, Duration, SimTime, SiteId};
use o2pc_sim::{EventQueue, FailurePlan, LatencyModel, Network, NetworkConfig};

#[test]
fn network_streams_are_seed_deterministic() {
    let cfg = NetworkConfig {
        default_latency: LatencyModel::Exponential(Duration::micros(700)),
        drop_probability: 0.1,
        ..Default::default()
    };
    let mut a = Network::new(cfg.clone(), DetRng::new(99));
    let mut b = Network::new(cfg, DetRng::new(99));
    for id in 0..4 {
        a.open_route(SiteId(id));
        b.open_route(SiteId(id));
    }
    for i in 0..5_000u64 {
        let from = SiteId((i % 4) as u32);
        let to = SiteId(((i + 1) % 4) as u32);
        assert_eq!(a.judge(from, to, SimTime(i)), b.judge(from, to, SimTime(i)));
    }
    assert_eq!(a.ledger(), b.ledger());
}

#[test]
fn event_queue_is_stable_under_interleaved_scheduling() {
    // Schedule from two "producers" with interleaved times; the pop order
    // must be fully determined by (time, insertion order).
    let mut q = EventQueue::new();
    for i in 0..100u64 {
        q.schedule(SimTime(i / 2), ("a", i));
        q.schedule(SimTime(i / 2), ("b", i));
    }
    let mut last = (SimTime::ZERO, 0u64);
    let mut seq = Vec::new();
    while let Some((t, e)) = q.pop() {
        assert!(t >= last.0);
        last = (t, e.1);
        seq.push(e);
    }
    // Within one timestamp, insertion order: a_i before b_i before a_{i+1}.
    for w in seq.chunks(4) {
        if w.len() == 4 {
            assert_eq!(w[0].0, "a");
            assert_eq!(w[1].0, "b");
        }
    }
}

#[test]
fn failure_plan_composition() {
    let mut p = FailurePlan::new();
    p.site_crash(SiteId(0), SimTime(10), SimTime(20));
    p.link_outage(SiteId(1), SiteId(2), SimTime(5), SimTime(15));
    // Independent failures compose.
    assert!(!p.link_up(SiteId(1), SiteId(2), SimTime(10)));
    assert!(!p.link_up(SiteId(0), SiteId(1), SimTime(10)), "site 0 down");
    assert!(p.link_up(SiteId(1), SiteId(2), SimTime(16)));
    assert!(p.link_up(SiteId(0), SiteId(1), SimTime(25)));
}

#[test]
fn latency_models_differ_but_reproduce() {
    for model in [
        LatencyModel::Fixed(Duration::micros(500)),
        LatencyModel::Uniform(Duration::micros(100), Duration::micros(900)),
        LatencyModel::Exponential(Duration::micros(500)),
    ] {
        let mut r1 = DetRng::new(5);
        let mut r2 = DetRng::new(5);
        for _ in 0..1000 {
            assert_eq!(model.sample(&mut r1), model.sample(&mut r2));
        }
    }
}

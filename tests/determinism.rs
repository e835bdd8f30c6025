//! Determinism of the whole stack: identical seeds must reproduce identical
//! virtual-time executions — events, histories, statistics — across protocol
//! variants, failure plans, and workloads. This is the property that makes
//! every number in EXPERIMENTS.md exactly re-derivable.

use o2pc_common::{Duration, SimTime, SiteId};
use o2pc_core::{Engine, RunReport, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sim::FailurePlan;
use o2pc_workload::{BankingWorkload, GenericWorkload};

type Fingerprint = (u64, u64, u64, u64, u64, usize, Vec<(String, u64)>);

fn fingerprint(r: &RunReport) -> Fingerprint {
    (
        r.global_committed,
        r.global_aborted,
        r.local_committed,
        r.local_aborted,
        r.end_time.micros(),
        r.history.len(),
        r.counters.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    )
}

fn workload(seed: u64) -> GenericWorkload {
    GenericWorkload {
        sites: 4,
        keys_per_site: 8,
        txns: 120,
        write_fraction: 0.6,
        zipf_theta: 0.7,
        local_fraction: 0.25,
        mean_interarrival: Duration::micros(700),
        seed: seed ^ 0xF00D,
        ..Default::default()
    }
}

/// An engine with a crash plan's timers already scheduled when asked for,
/// before any arrival is installed.
fn engine(protocol: ProtocolKind, seed: u64, with_failures: bool) -> Engine {
    let mut cfg = SystemConfig::new(4, protocol);
    cfg.vote_abort_probability = 0.25;
    cfg.seed = seed;
    if with_failures {
        let mut f = FailurePlan::new();
        f.site_crash(SiteId(3), SimTime(20_000), SimTime(60_000));
        cfg.failures = f;
        cfg.vote_timeout = Some(Duration::millis(50));
    }
    Engine::new(cfg)
}

fn run_once(protocol: ProtocolKind, seed: u64, with_failures: bool) -> RunReport {
    let mut e = engine(protocol, seed, with_failures);
    workload(seed).generate().install(&mut e);
    e.run(Duration::secs(600))
}

#[test]
fn identical_seed_identical_run_all_protocols() {
    for protocol in ProtocolKind::all() {
        let a = run_once(protocol, 7, false);
        let b = run_once(protocol, 7, false);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{protocol}");
    }
}

#[test]
fn identical_seed_identical_run_with_failures() {
    let a = run_once(ProtocolKind::O2pc, 9, true);
    let b = run_once(ProtocolKind::O2pc, 9, true);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn histories_replay_identically() {
    let a = run_once(ProtocolKind::O2pcP1, 11, false);
    let b = run_once(ProtocolKind::O2pcP1, 11, false);
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.events().iter().zip(b.history.events()) {
        assert_eq!(x, y);
    }
}

/// Golden digests pinned from the engine *before* the hot-path rewrite
/// (incremental SG audit, zero-allocation loop, pluggable history sinks).
/// Identical seeds must keep producing byte-identical event streams: any
/// drift here means an "optimization" changed observable behavior.
#[test]
fn golden_history_digests_are_stable() {
    let cases: [(ProtocolKind, u64, bool, u64, usize); 4] = [
        (ProtocolKind::O2pc, 7, false, 686464693030732886, 1532),
        (ProtocolKind::O2pcP1, 11, false, 14583858794710470918, 831),
        (ProtocolKind::O2pcP2, 7, true, 16150712325492644207, 810),
        (ProtocolKind::D2pl2pc, 5, false, 1211984530926276219, 1260),
    ];
    for (protocol, seed, with_failures, digest, events) in cases {
        let r = run_once(protocol, seed, with_failures);
        assert_eq!(
            (r.history.digest(), r.history.len()),
            (digest, events),
            "golden history fingerprint drifted: {protocol} seed {seed} failures {with_failures}"
        );
    }
}

/// Every way of submitting arrivals is one arrival path: a schedule
/// installed in one call (split into time-sorted runs when it is out of
/// order, after a crash plan's timers or not) and the same arrivals handed
/// over one `submit_at` at a time fire in the same order, pinned to the
/// digests the engine produced when each arrival was its own queued timer.
#[test]
fn arrival_paths_keep_golden_digests() {
    // (protocol, seed, pairs swapped (`usize::MAX`: a full shuffle),
    // failures, digest, events)
    let cases = [
        (
            ProtocolKind::O2pcP1,
            13,
            usize::MAX,
            false,
            1036833534877042121,
            800,
        ),
        (ProtocolKind::O2pcP2, 7, 6, true, 2045110704512345655, 801),
        (ProtocolKind::O2pc, 9, 0, true, 7234547993620224493, 1050),
    ];
    for (protocol, seed, swaps, with_failures, digest, events) in cases {
        let mut schedule = workload(seed).generate();
        // Whole milliseconds: simultaneous arrivals, some at a crash or a
        // recovery, which only their submission order can sort.
        for (at, _) in &mut schedule.arrivals {
            *at = SimTime(at.0 / 1_000 * 1_000);
        }
        let mut rng = o2pc_common::DetRng::new(seed);
        if swaps == usize::MAX {
            rng.shuffle(&mut schedule.arrivals);
        } else {
            for _ in 0..swaps {
                let n = schedule.arrivals.len() as u64;
                let (a, b) = (rng.gen_range(n), rng.gen_range(n));
                schedule.arrivals.swap(a as usize, b as usize);
            }
        }
        let mut installed = engine(protocol, seed, with_failures);
        schedule.install(&mut installed);
        let mut one_by_one = engine(protocol, seed, with_failures);
        for &(s, k, v) in &schedule.loads {
            one_by_one.load(s, k, v);
        }
        for (at, req) in &schedule.arrivals {
            one_by_one.submit_at(*at, req.clone());
        }
        for (path, mut e) in [("install", installed), ("submit_at", one_by_one)] {
            let r = e.run(Duration::secs(600));
            assert_eq!(
                (r.history.digest(), r.history.len()),
                (digest, events),
                "{path}: {protocol} seed {seed} swaps {swaps} failures {with_failures}"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(ProtocolKind::O2pc, 1, false);
    let b = run_once(ProtocolKind::O2pc, 2, false);
    // Outcomes may coincide, but the fine-grained trace will not.
    assert_ne!(
        fingerprint(&a).4,
        fingerprint(&b).4,
        "end times should differ across seeds"
    );
}

#[test]
fn workload_generation_is_pure() {
    let w = BankingWorkload {
        transfers: 60,
        seed: 3,
        ..Default::default()
    };
    let a = w.generate();
    let b = w.generate();
    assert_eq!(a.arrivals.len(), b.arrivals.len());
    assert_eq!(a.loads, b.loads);
    for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
        assert_eq!(x.0, y.0);
    }
}

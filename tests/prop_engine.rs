//! Engine-level property tests: random workloads and configurations must
//! never violate the system invariants —
//!
//! * every arrival terminates (no hangs within the horizon),
//! * compensation persists (none pending at quiescence),
//! * conservation of money under delta compensation,
//! * histories produced under O2PC+P1 always satisfy the correctness
//!   criterion.

use o2pc_common::Duration;
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sgraph::audit;
use o2pc_workload::BankingWorkload;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RunSpec {
    sites: u32,
    accounts: u64,
    transfers: usize,
    fanout: usize,
    p_abort: f64,
    protocol_idx: usize,
    seed: u64,
}

fn run_spec() -> impl Strategy<Value = RunSpec> {
    (
        2u32..5,
        1u64..6,
        10usize..60,
        0usize..3,
        0..5usize,
        any::<u64>(),
        0u8..8,
    )
        .prop_map(
            |(sites, accounts, transfers, fanout_raw, protocol_idx, seed, p_raw)| RunSpec {
                sites,
                accounts,
                transfers,
                fanout: 2 + fanout_raw.min(sites as usize - 2),
                p_abort: p_raw as f64 / 10.0,
                protocol_idx,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_for_random_runs(spec in run_spec()) {
        let protocol = ProtocolKind::all()[spec.protocol_idx];
        let wl = BankingWorkload {
            sites: spec.sites,
            accounts_per_site: spec.accounts,
            transfers: spec.transfers,
            sites_per_transfer: spec.fanout.min(spec.sites as usize).max(2),
            mean_interarrival: Duration::micros(800),
            seed: spec.seed,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(spec.sites, protocol);
        cfg.vote_abort_probability = spec.p_abort;
        cfg.seed = spec.seed;
        cfg.record_history = protocol == ProtocolKind::O2pcP1;
        let mut e = Engine::new(cfg);
        wl.generate().install(&mut e);
        let r = e.run(Duration::secs(600));

        // Termination.
        let outcomes = r.global_committed + r.global_aborted;
        prop_assert_eq!(outcomes as usize, spec.transfers, "{} must terminate all", protocol);
        // Persistence of compensation.
        prop_assert_eq!(r.compensations_pending, 0);
        // Conservation of money (delta compensation is exact).
        prop_assert_eq!(r.total_value, wl.expected_total(), "{} leaked money", protocol);
        // P1 histories satisfy the criterion.
        if protocol == ProtocolKind::O2pcP1 {
            let report = audit(&r.history, 8_000, 8);
            prop_assert!(report.is_correct(), "P1 violated the criterion: {:?}", report.search.outcome);
            prop_assert!(report.compensation_atomicity_violations.is_empty());
        }
    }
}

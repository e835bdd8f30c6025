//! Correctness audit: record full execution histories, rebuild the local
//! and global serialization graphs, and check the paper's §5 criterion —
//! no local cycles, no *regular* cycles (cycles whose minimal representation
//! includes a regular global transaction), plus Theorem 2's atomicity of
//! compensation (no one reads from both `T_i` and `CT_i`).
//!
//! Run bare O2PC (regular cycles possible) against O2PC+P1 (provably none).
//!
//! ```sh
//! cargo run --example correctness_audit
//! ```

use o2pc_repro::common::Duration;
use o2pc_repro::core::{Engine, SystemConfig};
use o2pc_repro::protocol::ProtocolKind;
use o2pc_repro::sgraph::{audit, build_exposed_sgs, holds_s1, Verdict};
use o2pc_repro::workload::BankingWorkload;

fn main() {
    println!("== serialization-graph audit: O2PC vs O2PC+P1 ==\n");
    for protocol in [ProtocolKind::O2pc, ProtocolKind::O2pcP1] {
        let mut regular_runs = 0;
        let mut unknown_runs = 0;
        let mut total_cycles = 0;
        let mut aoc_violations = 0;
        let runs = 12;
        for salt in 0..runs {
            let workload = BankingWorkload {
                sites: 4,
                accounts_per_site: 2, // tiny key space → heavy conflicts
                transfers: 120,
                mean_interarrival: Duration::micros(400),
                seed: 0xA0D1 ^ (salt * 7919),
                ..Default::default()
            };
            let mut cfg = SystemConfig::new(workload.sites, protocol);
            cfg.network = o2pc_repro::sim::NetworkConfig::fixed(Duration::millis(3));
            cfg.vote_abort_probability = 0.4;
            cfg.seed = salt;
            let mut engine = Engine::new(cfg);
            workload.generate().install(&mut engine);
            let r = engine.run(Duration::secs(600));

            let report = audit(&r.history, 10_000, 8);
            total_cycles += report.search.cyclic_sccs;
            aoc_violations += report.compensation_atomicity_violations.len();
            unknown_runs += usize::from(report.verdict() == Verdict::Unknown);
            if let Some(rc) = report.regular_cycle() {
                regular_runs += 1;
                if regular_runs == 1 {
                    println!(
                        "[{protocol}] regular cycle witnessed (seed {salt}): {:?} via {:?}",
                        rc.nodes, rc.witness_endpoints
                    );
                    let gsg = build_exposed_sgs(&r.history);
                    println!("           S1 holds on this history: {}", holds_s1(&gsg));
                }
            }
        }
        println!(
            "[{protocol}] {runs} adversarial runs: {total_cycles} cyclic SCCs in the union SGs, \
             {regular_runs} runs with regular cycles, {unknown_runs} inconclusive, \
             {aoc_violations} atomicity-of-compensation violations\n"
        );
        if protocol == ProtocolKind::O2pcP1 {
            assert_eq!(
                regular_runs + unknown_runs,
                0,
                "P1 must prevent regular cycles"
            );
        }
    }
    println!("P1 admits fewer schedules but every admitted history satisfies the criterion.");
}

//! Equivalence of the serialization-graph builder with the batch
//! (whole-history replay) reference in `batch_sg`, on *real* engine output:
//! recorded chaos histories with crashes, message loss, duplication,
//! retransmission, aborts and compensations — the richest event streams
//! the system produces. For every history, feeding the events one at a
//! time into [`o2pc_sgraph::IncrementalSg`] must yield exactly the node and
//! edge sets of the batch builder under exposure semantics.

mod batch_sg;

use o2pc_chaos::{run_plan, ChaosConfig, ChaosPlan, Hardening};
use o2pc_common::{Duration, SiteId};
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sgraph::{audit_graph, build_exposed_sgs, GlobalSg};
use o2pc_workload::GenericWorkload;

fn assert_graphs_equal(inc: &GlobalSg, batch: &GlobalSg, what: &str) {
    assert_eq!(inc.nodes(), batch.nodes(), "{what}: node sets differ");
    assert_eq!(inc.edges(), batch.edges(), "{what}: union edge sets differ");
    let inc_sites: Vec<SiteId> = inc.sites().map(|(s, _)| s).collect();
    let batch_sites: Vec<SiteId> = batch.sites().map(|(s, _)| s).collect();
    assert_eq!(inc_sites, batch_sites, "{what}: site sets differ");
    for (site, bsg) in batch.sites() {
        let isg = inc.site(site).expect("site present");
        let b_nodes: Vec<_> = bsg.nodes().collect();
        let i_nodes: Vec<_> = isg.nodes().collect();
        assert_eq!(i_nodes, b_nodes, "{what}: site {site} node sets differ");
        let mut b_edges: Vec<_> = bsg.edges().collect();
        let mut i_edges: Vec<_> = isg.edges().collect();
        b_edges.sort_unstable();
        i_edges.sort_unstable();
        assert_eq!(i_edges, b_edges, "{what}: site {site} edge sets differ");
    }
}

#[test]
fn incremental_matches_batch_on_chaos_histories() {
    let cfg = ChaosConfig::default();
    for seed in 0..10u64 {
        let outcome = run_plan(&ChaosPlan::generate(seed, &cfg), Hardening::default());
        assert!(outcome.survived(), "chaos seed {seed} violated invariants");
        let h = &outcome.report.history;
        assert_graphs_equal(
            &build_exposed_sgs(h),
            &batch_sg::build_with(h, true),
            &format!("chaos seed {seed}"),
        );
    }
}

/// High-abort contended workload (the E7 regime where regular cycles form):
/// the audit verdict over the graph the engine maintained live must match
/// the verdict over the batch reference graph.
#[test]
fn incremental_graph_audits_identically() {
    for seed in 0..6u64 {
        let wl = GenericWorkload {
            sites: 4,
            keys_per_site: 2,
            txns: 100,
            write_fraction: 0.8,
            zipf_theta: 0.9,
            local_fraction: 0.2,
            mean_interarrival: Duration::micros(300),
            seed: seed ^ 0xABCD,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, ProtocolKind::O2pc);
        cfg.vote_abort_probability = 0.4;
        cfg.live_audit_graph = true;
        cfg.seed = seed;
        let mut e = Engine::new(cfg);
        wl.generate().install(&mut e);
        let r = e.run(Duration::secs(600));

        let live = e.live_audit_graph().expect("live graph kept");
        let from_live = audit_graph(&live, &r.history, 10_000, 8);
        let batch = batch_sg::build_with(&r.history, true);
        let from_batch = audit_graph(&batch, &r.history, 10_000, 8);
        assert_eq!(from_live.verdict(), from_batch.verdict(), "seed {seed}");
        assert_eq!(
            from_live.serializable, from_batch.serializable,
            "seed {seed}"
        );
        assert_eq!(from_live.search, from_batch.search, "seed {seed}");
    }
}

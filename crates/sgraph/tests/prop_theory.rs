//! Property tests for the §5 theory over randomly generated, history-like
//! global SGs:
//!
//! * The per-component cycle enumeration behind every regular-cycle verdict
//!   agrees with a brute-force enumerator.
//! * Criterion reduction: with no compensating transactions, every cycle
//!   through a regular global transaction classifies as regular ("correct"
//!   collapses to "serializable").
//!
//! Theorem 1 (S1 ∨ S2 ⇒ no regular cycles) is *not* tested on this
//! generator: synthetic graphs kept producing counterexamples that turned
//! out to be unrealizable — they violated cross-site lock-point constraints
//! the paper's standing assumptions (global 2PL, exposure only after a
//! commit vote) impose but a per-site DAG sampler cannot easily encode.
//! Theorem 1 is instead property-tested against *real* histories recorded
//! from engine runs (realizable by construction) in `tests/theory.rs` at the
//! workspace root.

use o2pc_common::{GlobalTxnId, LocalTxnId, SiteId, TxnId};
use o2pc_sgraph::graph::GlobalSg;
use o2pc_sgraph::regular::{classify_all_cycles, CycleClass};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn t(i: u64) -> TxnId {
    TxnId::Global(GlobalTxnId(i))
}

fn ct(i: u64) -> TxnId {
    TxnId::Compensation(GlobalTxnId(i))
}

/// Parameters of a random history-like global SG.
#[derive(Clone, Debug)]
struct SgSpec {
    globals: u64,
    aborted: Vec<bool>,
    /// Per site: ordered node list (topological order) as (kind, id) pairs
    /// and an edge-density seed.
    sites: Vec<(Vec<u8>, u64)>,
}

fn sg_spec() -> impl Strategy<Value = SgSpec> {
    (
        2u64..5,
        prop::collection::vec(any::<bool>(), 5),
        prop::collection::vec((prop::collection::vec(0u8..15, 2..8), any::<u64>()), 1..4),
    )
        .prop_map(|(globals, aborted, sites)| SgSpec {
            globals,
            aborted,
            sites,
        })
}

/// Materialize a history-like SG. Constraints reflect what real O2PC
/// executions can produce:
///
/// * every local SG is a DAG (local strict 2PL ⇒ local serializability);
/// * **committed** globals respect one global lock-point order (their id
///   order) in every site's topological order — global 2PL holds for them
///   even with O2PC's early release, because release happens only after all
///   locks are acquired everywhere;
/// * **aborted** globals have no global lock point (a site may unilaterally
///   roll their subtransaction back while siblings still run), so their
///   forward nodes and their `CT_i` nodes are placed freely per site, except
///   that `CT_i` always comes after `T_i` locally (compensation is serialized
///   after the forward transaction) and appears only where `T_i` ran;
/// * locals are placed freely.
fn build(spec: &SgSpec) -> GlobalSg {
    let mut gsg = GlobalSg::new();
    for (s_idx, (node_picks, seed)) in spec.sites.iter().enumerate() {
        let site = SiteId(s_idx as u32);
        let mut x = *seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        // Pick nodes. Sort keys: committed global i → i * 1000 (fixed global
        // order); everything else random.
        let mut order: Vec<(u64, TxnId)> = Vec::new();
        let span = spec.globals * 1000 + 1000;
        for &p in node_picks {
            let g = (p as u64 / 3) % spec.globals;
            let aborted = spec.aborted.get(g as usize).copied().unwrap_or(false);
            let node = match p % 3 {
                0 => t(g),
                1 if aborted => t(g), // CT added below if T_i is present
                _ => TxnId::Local(LocalTxnId {
                    site,
                    seq: p as u64,
                }),
            };
            if order.iter().any(|(_, n)| *n == node) {
                continue;
            }
            let key = match node {
                TxnId::Global(gi) if !spec.aborted.get(gi.0 as usize).copied().unwrap_or(false) => {
                    gi.0 * 1000
                }
                _ => next() % span,
            };
            order.push((key, node));
        }
        // Add CT_i after each present aborted T_i.
        let present: Vec<(u64, TxnId)> = order.clone();
        for (key, n) in present {
            if let TxnId::Global(gi) = n {
                if spec.aborted.get(gi.0 as usize).copied().unwrap_or(false)
                    && !order.iter().any(|(_, m)| *m == ct(gi.0))
                {
                    let ct_key = key + 1 + next() % span;
                    order.push((ct_key, ct(gi.0)));
                }
            }
        }
        order.sort_by_key(|&(k, n)| (k, n));
        let nodes: Vec<TxnId> = order.into_iter().map(|(_, n)| n).collect();

        let sg = gsg.site_mut(site);
        for n in &nodes {
            sg.add_node(*n);
        }
        // Random forward edges (DAG by construction).
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if next() >> 62 == 0 {
                    sg.add_edge(nodes[i], nodes[j]);
                }
            }
        }
        // Forced T_i → CT_i edges (compensation touches what T_i touched),
        // and *footprint coverage*: the paper's lemmas (e.g. Lemma 5)
        // implicitly assume a rolled-back/compensated subtransaction's
        // conflicts are mirrored by its CT — whoever conflicted with T_i at
        // this site also conflicts with CT_i, on the same side of CT_i as
        // the topological order dictates. Without this, an aborted
        // transaction with a read-only footprint escapes the CT entirely
        // and the stratification machinery loses track of it.
        let pos = |n: &TxnId| nodes.iter().position(|m| m == n).unwrap();
        let ct_nodes: Vec<TxnId> = nodes
            .iter()
            .copied()
            .filter(|n| matches!(n, TxnId::Compensation(_)))
            .collect();
        for ct_n in ct_nodes {
            let TxnId::Compensation(gid) = ct_n else {
                unreachable!()
            };
            let ti = t(gid.0);
            sg.add_edge(ti, ct_n);
            let ct_pos = pos(&ct_n);
            // Mirror T_i's conflict edges onto CT_i.
            let preds: Vec<TxnId> = nodes
                .iter()
                .copied()
                .filter(|x| *x != ct_n && *x != ti && sg.successors(*x).contains(&ti))
                .collect();
            let succs: Vec<TxnId> = sg.successors(ti).to_vec();
            for x in preds {
                // X → T_i implies X → CT_i (CT_i runs after T_i).
                sg.add_edge(x, ct_n);
            }
            for x in succs {
                if x == ct_n {
                    continue;
                }
                if pos(&x) > ct_pos {
                    // X after the compensation: it also follows CT_i.
                    sg.add_edge(ct_n, x);
                } else {
                    // X saw the exposed (pre-compensation) state: it
                    // precedes CT_i on the same items.
                    sg.add_edge(x, ct_n);
                }
            }
        }
    }
    gsg
}

/// Brute-force simple-cycle enumeration: DFS from every node, canonicalized
/// by rotating the minimum node to the front.
fn brute_force_cycles(gsg: &GlobalSg) -> BTreeSet<Vec<TxnId>> {
    let mut out = BTreeSet::new();
    let nodes = gsg.nodes();
    for &start in &nodes {
        let mut path = vec![start];
        dfs(gsg, start, start, &mut path, &mut out);
    }
    out
}

/// Length cap shared by both enumerators (so their outputs are comparable).
const LEN_CAP: usize = 8;

fn dfs(
    gsg: &GlobalSg,
    start: TxnId,
    at: TxnId,
    path: &mut Vec<TxnId>,
    out: &mut BTreeSet<Vec<TxnId>>,
) {
    if path.len() > LEN_CAP {
        return;
    }
    for next in gsg.successors(at) {
        if next == start {
            // Canonicalize: rotate min to front.
            let min_pos = path
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| **n)
                .map(|(i, _)| i)
                .unwrap();
            let mut canon = path[min_pos..].to_vec();
            canon.extend_from_slice(&path[..min_pos]);
            out.insert(canon);
        } else if !path.contains(&next) {
            path.push(next);
            dfs(gsg, start, next, path, out);
            path.pop();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The bounded enumerator finds exactly the brute-force cycle set when
    /// caps are generous.
    #[test]
    fn enumerator_matches_brute_force(spec in sg_spec()) {
        let gsg = build(&spec);
        // The enumerator anchors at the smallest node already, so the
        // returned sequences are canonical as-is.
        let fast: BTreeSet<Vec<TxnId>> = classify_all_cycles(&gsg, 100_000, LEN_CAP)
            .into_iter()
            .map(|(cycle, _)| cycle)
            .collect();
        let brute = brute_force_cycles(&gsg);
        prop_assert_eq!(fast, brute);
    }

    /// With no compensating transactions, every cycle classifies as regular
    /// (criterion reduces to serializability).
    #[test]
    fn without_cts_every_cycle_is_regular(spec in sg_spec()) {
        let mut spec = spec;
        spec.aborted = vec![false; spec.aborted.len()];
        let gsg = build(&spec);
        for (cycle, class) in classify_all_cycles(&gsg, 10_000, 12) {
            // Cycles among locals+globals: if it has a regular global it
            // must classify regular; locals-only cycles cannot exist in a
            // DAG-per-site union? They can across sites — but locals live at
            // one site each, so a cross-site cycle must involve a global.
            if cycle.iter().any(|n| n.is_regular_global()) {
                prop_assert!(
                    matches!(class, CycleClass::Regular(_)),
                    "cycle {cycle:?} through a regular global with no CTs must be regular"
                );
            }
        }
    }
}

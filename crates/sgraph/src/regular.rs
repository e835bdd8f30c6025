//! Regular-cycle detection via minimal path representations (§5).
//!
//! A *representation* of a global path lists the local segments constituting
//! it; a *minimal representation* uses the fewest segments; a global path
//! *includes* a transaction iff the transaction appears (as a segment
//! endpoint) on one of its minimal representations. A **regular cycle** is a
//! global cyclic path that includes at least one regular (non-compensating)
//! global transaction.
//!
//! Algorithmically, for a simple cycle `A_0 → A_1 → ... → A_{k-1} → A_0` of
//! the union SG, a segment may cover any contiguous run `A_p .. A_q`
//! (cyclically) provided a *single site's* local SG has a path `A_p → A_q` —
//! that is exactly what lets the minimal representation of the cycle in the
//! paper's Example 1 skip `T_2`: `SG_2` reaches `CT_3` from `CT_1` locally,
//! so the run `CT_1, T_2, CT_3` collapses to the one segment
//! `CT_1 → CT_3 (SG_2)`. The minimal cyclic cover is computed by dynamic
//! programming anchored at each candidate endpoint; the cycle is regular iff
//! anchoring at some regular global transaction achieves the overall minimum
//! (then a minimal representation with that transaction as an endpoint
//! exists).

use crate::cycles::{enumerate_cycles, for_each_cycle};
use crate::graph::GlobalSg;
use o2pc_common::TxnId;
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Precomputed single-site reachability: `exists(a, b)` answers "does some
/// single site's local SG contain a path `a →+ b`" in O(1). Building it once
/// per audit turns the minimal-representation DP from BFS-per-query into
/// hash lookups.
pub struct SegmentOracle {
    reach: HashSet<(TxnId, TxnId)>,
}

impl SegmentOracle {
    /// Build the oracle for a global SG.
    pub(crate) fn new(gsg: &GlobalSg) -> Self {
        let mut reach = HashSet::new();
        for (_, sg) in gsg.sites() {
            for start in sg.nodes() {
                let mut seen: BTreeSet<TxnId> = BTreeSet::new();
                let mut queue: VecDeque<TxnId> = VecDeque::new();
                queue.push_back(start);
                while let Some(n) = queue.pop_front() {
                    for &s in sg.successors(n) {
                        reach.insert((start, s));
                        if seen.insert(s) {
                            queue.push_back(s);
                        }
                    }
                }
            }
        }
        SegmentOracle { reach }
    }

    /// Build the oracle restricted to `allowed` nodes: only paths that
    /// start, end, *and stay* inside the set are recorded.
    ///
    /// This is exact (not an approximation) when `allowed` is one strongly
    /// connected component of the union SG and the queries concern cycles
    /// inside it: if a single site has a local path `a →+ b` with `a`, `b`
    /// in the SCC, every intermediate node `x` of that path also lies in
    /// the SCC (`a` reaches `x` and `x` reaches `b` along the path, and `b`
    /// reaches `a` through the component's return path, closing a cycle
    /// through `x`). So confining the BFS to the component loses no
    /// admissible segment — while shrinking the quadratic reachability
    /// closure from the whole graph to one component.
    pub(crate) fn restricted(gsg: &GlobalSg, allowed: &BTreeSet<TxnId>) -> Self {
        let mut reach = HashSet::new();
        for (_, sg) in gsg.sites() {
            for start in sg.nodes() {
                if !allowed.contains(&start) {
                    continue;
                }
                let mut seen: BTreeSet<TxnId> = BTreeSet::new();
                let mut queue: VecDeque<TxnId> = VecDeque::new();
                queue.push_back(start);
                while let Some(n) = queue.pop_front() {
                    for &s in sg.successors(n) {
                        if !allowed.contains(&s) {
                            continue;
                        }
                        reach.insert((start, s));
                        if seen.insert(s) {
                            queue.push_back(s);
                        }
                    }
                }
            }
        }
        SegmentOracle { reach }
    }

    /// Does a single-site local path `a →+ b` exist?
    #[inline]
    pub fn exists(&self, a: TxnId, b: TxnId) -> bool {
        self.reach.contains(&(a, b))
    }
}

/// A detected regular cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegularCycle {
    /// The cycle as a node sequence (`nodes[i] → nodes[i+1]`, wrapping).
    pub nodes: Vec<TxnId>,
    /// Number of segments in a minimal representation.
    pub min_segments: usize,
    /// Endpoints of one minimal representation that includes a regular
    /// global transaction (in traversal order, starting at that transaction).
    pub witness_endpoints: Vec<TxnId>,
}

/// Result of classifying one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CycleClass {
    /// The cycle's minimal representations can all avoid regular global
    /// transactions: allowed by the correctness criterion.
    NonRegular {
        /// Minimal segment count.
        min_segments: usize,
    },
    /// A minimal representation includes a regular global transaction.
    Regular(RegularCycle),
}

/// Minimal number of segments to cover the cyclic node sequence when the
/// cover is anchored at position `f` (i.e. `nodes[f]` is forced to be a
/// segment endpoint). Also returns the endpoint positions of one optimal
/// cover. Returns `None` if no cover exists (cannot happen for a genuine
/// cycle, where every unit arc is admissible).
fn anchored_cover(
    oracle: &SegmentOracle,
    nodes: &[TxnId],
    f: usize,
) -> Option<(usize, Vec<usize>)> {
    let k = nodes.len();
    // d[j] = min segments to advance j steps forward from f (0 ≤ j ≤ k).
    let mut d = vec![usize::MAX; k + 1];
    let mut parent = vec![usize::MAX; k + 1];
    d[0] = 0;
    for j in 1..=k {
        for p in 0..j {
            if d[p] == usize::MAX {
                continue;
            }
            let from = nodes[(f + p) % k];
            let to = nodes[(f + j) % k];
            let admissible = oracle.exists(from, to);
            if admissible && d[p] + 1 < d[j] {
                d[j] = d[p] + 1;
                parent[j] = p;
            }
        }
    }
    if d[k] == usize::MAX {
        return None;
    }
    let mut endpoints = Vec::new();
    let mut j = k;
    while j != 0 {
        let p = parent[j];
        endpoints.push((f + p) % k);
        j = p;
    }
    endpoints.reverse();
    Some((d[k], endpoints))
}

/// Classify one simple cycle of the union SG (builds a fresh reachability
/// oracle; batch callers should use [`classify_cycle_with`]).
pub fn classify_cycle(gsg: &GlobalSg, nodes: &[TxnId]) -> CycleClass {
    classify_cycle_with(&SegmentOracle::new(gsg), nodes)
}

/// Classify one simple cycle using a prebuilt [`SegmentOracle`].
pub fn classify_cycle_with(oracle: &SegmentOracle, nodes: &[TxnId]) -> CycleClass {
    let k = nodes.len();
    debug_assert!(k >= 2);
    let mut overall = usize::MAX;
    let mut per_anchor: Vec<Option<(usize, Vec<usize>)>> = Vec::with_capacity(k);
    for f in 0..k {
        let r = anchored_cover(oracle, nodes, f);
        if let Some((m, _)) = &r {
            overall = overall.min(*m);
        }
        per_anchor.push(r);
    }
    debug_assert_ne!(overall, usize::MAX, "a cycle always has a cover");

    for (f, r) in per_anchor.iter().enumerate() {
        if !nodes[f].is_regular_global() {
            continue;
        }
        if let Some((m, endpoints)) = r {
            if *m == overall {
                let witness_endpoints = endpoints.iter().map(|&p| nodes[p]).collect();
                return CycleClass::Regular(RegularCycle {
                    nodes: nodes.to_vec(),
                    min_segments: overall,
                    witness_endpoints,
                });
            }
        }
    }
    CycleClass::NonRegular {
        min_segments: overall,
    }
}

/// Search the union SG for a regular cycle. `max_cycles` / `max_len` bound
/// the enumeration (a history audit passes generous caps; see
/// [`crate::correctness::audit`]).
pub fn find_regular_cycle(
    gsg: &GlobalSg,
    max_cycles: usize,
    max_len: usize,
) -> Option<RegularCycle> {
    let mut oracle: Option<SegmentOracle> = None;
    let mut found: Option<RegularCycle> = None;
    let mut examined = 0usize;
    for_each_cycle(gsg, max_len, |cycle| {
        examined += 1;
        // Cheap filter: a regular cycle needs a regular global node at all.
        if cycle.iter().any(|n| n.is_regular_global()) {
            let oracle = oracle.get_or_insert_with(|| SegmentOracle::new(gsg));
            if let CycleClass::Regular(rc) = classify_cycle_with(oracle, cycle) {
                found = Some(rc);
                return std::ops::ControlFlow::Break(());
            }
        }
        if examined >= max_cycles {
            std::ops::ControlFlow::Break(())
        } else {
            std::ops::ControlFlow::Continue(())
        }
    });
    found
}

/// Classify every enumerated cycle (used by the F1 figure binary).
pub fn classify_all_cycles(
    gsg: &GlobalSg,
    max_cycles: usize,
    max_len: usize,
) -> Vec<(Vec<TxnId>, CycleClass)> {
    let oracle = SegmentOracle::new(gsg);
    enumerate_cycles(gsg, max_cycles, max_len)
        .into_iter()
        .map(|c| {
            let class = classify_cycle_with(&oracle, &c);
            (c, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{GlobalTxnId, SiteId};

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    fn ct(i: u64) -> TxnId {
        TxnId::Compensation(GlobalTxnId(i))
    }

    /// Example 1 of the paper, extended with the closing edge so that the
    /// cycle CT1 → T2 → CT3 → CT1 exists:
    ///   SG1: CT1 → T2
    ///   SG2: CT1 → T2 → CT3
    ///   SG3: CT3 → CT1
    /// The cycle is NOT regular: its minimal representation is
    /// CT1 → CT3 (SG2); CT3 → CT1 (SG3), which does not include T2.
    #[test]
    fn example1_cycle_is_not_regular() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(1)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(t(2), ct(3));
        g.site_mut(SiteId(3)).add_edge(ct(3), ct(1));

        assert!(find_regular_cycle(&g, 100, 10).is_none());
        // There IS a cycle; it is just non-regular.
        let classes = classify_all_cycles(&g, 100, 10);
        assert!(!classes.is_empty());
        for (_, class) in &classes {
            match class {
                CycleClass::NonRegular { min_segments } => assert_eq!(*min_segments, 2),
                CycleClass::Regular(rc) => panic!("unexpected regular cycle {rc:?}"),
            }
        }
    }

    /// If SG2 does NOT short-circuit T2 (the path CT1 → CT3 requires going
    /// through distinct sites), the same cycle becomes regular.
    #[test]
    fn cycle_without_shortcut_is_regular() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(1)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(t(2), ct(3));
        g.site_mut(SiteId(3)).add_edge(ct(3), ct(1));

        let rc = find_regular_cycle(&g, 100, 10).expect("regular cycle expected");
        assert_eq!(rc.min_segments, 3);
        assert!(rc.witness_endpoints.contains(&t(2)));
        assert_eq!(
            rc.witness_endpoints[0],
            t(2),
            "witness anchored at the regular txn"
        );
    }

    /// Figure 1(a)-style scenario: T2 reads CT1's effects at one site but
    /// precedes T1 at another — the classic regular cycle O2PC can create
    /// without P1.
    #[test]
    fn figure1a_regular_cycle() {
        let mut g = GlobalSg::new();
        // SG_a: T1 → CT1 → T2   (T2 saw the compensation)
        g.site_mut(SiteId(0)).add_edge(t(1), ct(1));
        g.site_mut(SiteId(0)).add_edge(ct(1), t(2));
        // SG_b: T2 → T1         (T2 preceded T1's subtransaction elsewhere)
        g.site_mut(SiteId(1)).add_edge(t(2), t(1));

        let rc = find_regular_cycle(&g, 100, 10).expect("Figure 1(a) must be regular");
        assert!(rc.nodes.contains(&t(2)));
        assert!(rc.nodes.contains(&t(1)));
    }

    /// A cycle among compensating transactions only is permitted (the paper
    /// explicitly allows cycles whose only global transactions are CTs).
    #[test]
    fn ct_only_cycle_is_not_regular() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(ct(1), ct(2));
        g.site_mut(SiteId(1)).add_edge(ct(2), ct(1));
        assert!(find_regular_cycle(&g, 100, 10).is_none());
        let classes = classify_all_cycles(&g, 100, 10);
        assert_eq!(classes.len(), 1);
    }

    /// A serializable (acyclic) graph has no cycles of any kind.
    #[test]
    fn acyclic_graph_clean() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(t(1), t(2));
        g.site_mut(SiteId(1)).add_edge(t(2), t(3));
        assert!(find_regular_cycle(&g, 100, 10).is_none());
        assert!(classify_all_cycles(&g, 100, 10).is_empty());
    }

    /// Two regular globals in a cross-site cycle: regular (this is what
    /// global 2PL prevents when no transaction aborts — Lemma 1 says such a
    /// cycle requires a CT, and indeed without CTs the engine never creates
    /// one; here we build it by hand to test the detector).
    #[test]
    fn regular_regular_cycle_detected() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(t(1), t(2));
        g.site_mut(SiteId(1)).add_edge(t(2), t(1));
        let rc = find_regular_cycle(&g, 100, 10).expect("regular");
        assert_eq!(rc.min_segments, 2);
    }

    /// Minimal-representation subtlety: a long cycle through a regular node
    /// where a single site can cover the whole regular stretch.
    #[test]
    fn regular_node_skippable_by_long_local_path() {
        let mut g = GlobalSg::new();
        // Site 0 holds a long local chain CT1 → T5 → CT2 (so CT1→CT2 is one segment).
        g.site_mut(SiteId(0)).add_edge(ct(1), t(5));
        g.site_mut(SiteId(0)).add_edge(t(5), ct(2));
        // Site 1 closes the loop CT2 → CT1.
        g.site_mut(SiteId(1)).add_edge(ct(2), ct(1));
        assert!(
            find_regular_cycle(&g, 100, 10).is_none(),
            "T5 must be skipped by the CT1→CT2 local segment"
        );
    }

    /// The SCC-restricted oracle agrees with the full oracle on queries
    /// inside the component, even when the graph has nodes outside it.
    #[test]
    fn restricted_oracle_matches_full_oracle_inside_scc() {
        let mut g = GlobalSg::new();
        // SCC {ct1, t2, ct3} via site-local chains, plus an outside tail.
        g.site_mut(SiteId(1)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(t(2), ct(3));
        g.site_mut(SiteId(3)).add_edge(ct(3), ct(1));
        g.site_mut(SiteId(2)).add_edge(ct(3), t(9)); // t9 outside the SCC
        let scc: std::collections::BTreeSet<TxnId> = [ct(1), t(2), ct(3)].into_iter().collect();
        let full = SegmentOracle::new(&g);
        let restricted = SegmentOracle::restricted(&g, &scc);
        for &a in &scc {
            for &b in &scc {
                assert_eq!(full.exists(a, b), restricted.exists(a, b), "{a:?} -> {b:?}");
            }
        }
        // Outside queries are (deliberately) absent from the restricted one.
        assert!(full.exists(ct(3), t(9)));
        assert!(!restricted.exists(ct(3), t(9)));
    }

    /// The anchored DP returns a cover that actually covers the cycle.
    #[test]
    fn anchored_cover_endpoints_are_consistent() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(t(1), t(2));
        g.site_mut(SiteId(0)).add_edge(t(2), t(3));
        g.site_mut(SiteId(1)).add_edge(t(3), t(1));
        let nodes = vec![t(1), t(2), t(3)];
        let (m, endpoints) = anchored_cover(&SegmentOracle::new(&g), &nodes, 0).unwrap();
        // Site 0 covers t1→t3 in one segment, site 1 closes: 2 segments.
        assert_eq!(m, 2);
        assert_eq!(endpoints.len(), 2);
        assert_eq!(endpoints[0], 0, "anchor is an endpoint");
    }
}

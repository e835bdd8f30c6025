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

use crate::cycles::{cycles_in_comp, sccs, Indexed};
use crate::graph::GlobalSg;
use o2pc_common::TxnId;
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;

/// Precomputed single-site reachability inside one strongly connected
/// component of the union SG: `exists(a, b)` answers "does some single
/// site's local SG contain a path `a →+ b`" in O(1). Building it once per
/// component turns the minimal-representation DP from BFS-per-query into
/// hash lookups.
pub(crate) struct SegmentOracle {
    reach: HashSet<(TxnId, TxnId)>,
}

impl SegmentOracle {
    /// Build the oracle for component `comp` of `g` (the indexed `gsg`):
    /// only paths that start, end, *and stay* inside it are recorded.
    ///
    /// This is exact (not an approximation) for the queries the search
    /// makes, which all concern cycles inside the component: if a single
    /// site has a local path `a →+ b` with `a`, `b` in the SCC, every
    /// intermediate node `x` of that path also lies in the SCC (`a` reaches
    /// `x` and `x` reaches `b` along the path, and `b` reaches `a` through
    /// the component's return path, closing a cycle through `x`). So
    /// confining the walk to the component loses no admissible segment —
    /// while shrinking the quadratic reachability closure from the whole
    /// graph to one component.
    pub(crate) fn restricted(gsg: &GlobalSg, g: &Indexed, comp: &[u32]) -> Self {
        let allowed: BTreeSet<TxnId> = comp.iter().map(|&v| g.nodes[v as usize]).collect();
        let (mut reach, mut seen, mut stack) = (HashSet::new(), BTreeSet::new(), Vec::new());
        for (_, sg) in gsg.sites() {
            // A node absent from this site (or a sink there) starts no path.
            for &start in allowed.iter().filter(|&&n| !sg.successors(n).is_empty()) {
                seen.clear();
                stack.push(start);
                while let Some(n) = stack.pop() {
                    for &s in sg.successors(n) {
                        if allowed.contains(&s) && seen.insert(s) {
                            reach.insert((start, s));
                            stack.push(s);
                        }
                    }
                }
            }
        }
        SegmentOracle { reach }
    }

    /// Does a single-site local path `a →+ b` exist?
    #[inline]
    pub(crate) fn exists(&self, a: TxnId, b: TxnId) -> bool {
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
            if oracle.exists(from, to) && d[p] + 1 < d[j] {
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

/// Classify one simple cycle against its component's oracle.
fn classify(oracle: &SegmentOracle, nodes: &[TxnId]) -> CycleClass {
    debug_assert!(nodes.len() >= 2);
    let covers: Vec<_> = (0..nodes.len())
        .map(|f| anchored_cover(oracle, nodes, f))
        .collect();
    let overall = covers.iter().flatten().map(|&(m, _)| m).min();
    debug_assert!(overall.is_some(), "a cycle always has a cover");
    let min_segments = overall.unwrap_or(usize::MAX);
    let regular = covers
        .iter()
        .enumerate()
        .find_map(|(f, cover)| match cover {
            Some((m, endpoints)) if *m == min_segments && nodes[f].is_regular_global() => {
                Some(endpoints)
            }
            _ => None,
        });
    match regular {
        Some(endpoints) => CycleClass::Regular(RegularCycle {
            nodes: nodes.to_vec(),
            min_segments,
            witness_endpoints: endpoints.iter().map(|&p| nodes[p]).collect(),
        }),
        None => CycleClass::NonRegular { min_segments },
    }
}

/// How a search for a regular cycle ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A regular cycle, with a minimal representation that witnesses it.
    Found(RegularCycle),
    /// The search was exhaustive: the graph holds no regular cycle.
    NoneExist,
    /// No witness turned up, but a budget — `max_cycles`, or `max_len`
    /// cutting a branch that could still close a cycle — left some mixed
    /// component only partly searched.
    Inconclusive,
}

/// A finished [`find_regular_cycle`]: how it ended and what it examined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegularSearch {
    /// How the search ended.
    pub outcome: SearchOutcome,
    /// Cyclic strongly connected components of the union SG (each may hold
    /// many simple cycles).
    pub cyclic_sccs: usize,
    /// Components decided *without enumerating a single cycle*: a regular
    /// cycle must contain a regular global transaction, so a component
    /// holding none (only CTs and committed locals) cannot host one.
    pub sccs_dismissed: usize,
    /// Simple cycles enumerated inside mixed components.
    pub cycles_enumerated: usize,
}

/// Search the union SG for a regular cycle — the one search behind
/// [`crate::audit_graph`] and every other verdict:
///
/// 1. every simple cycle lies inside one cyclic SCC, so an acyclic
///    condensation is [`SearchOutcome::NoneExist`] with zero enumeration;
/// 2. an SCC containing no regular global transaction (CT-and-local-only
///    traffic, the common case under heavy aborts) is dismissed in
///    O(component size);
/// 3. each *mixed* component is searched on its own: its simple cycles of
///    length ≤ `max_len`, at most `max_cycles` of them, each classified
///    against a `SegmentOracle` restricted to the component.
///
/// The first regular cycle ends the search. Without one, the answer is
/// `NoneExist` only if every mixed component was walked completely; a
/// component a budget cut short makes it [`SearchOutcome::Inconclusive`],
/// and the search still moves on — a later component may hold a witness.
pub fn find_regular_cycle(gsg: &GlobalSg, max_cycles: usize, max_len: usize) -> RegularSearch {
    let g = Indexed::new(gsg);
    let comps = sccs(&g);
    let mut search = RegularSearch {
        outcome: SearchOutcome::NoneExist,
        cyclic_sccs: comps.len(),
        sccs_dismissed: 0,
        cycles_enumerated: 0,
    };
    let regular = |&v: &u32| g.nodes[v as usize].is_regular_global();
    for comp in &comps {
        if !comp.iter().any(regular) {
            search.sccs_dismissed += 1;
            continue;
        }
        let oracle = SegmentOracle::restricted(gsg, &g, comp);
        let mut budget = max_cycles;
        let mut found = None;
        let complete = cycles_in_comp(&g, comp, max_len, &mut |cycle: &[TxnId]| {
            // The budget is checked before a cycle is counted, so a
            // component with exactly `max_cycles` cycles is exhausted.
            if budget == 0 {
                return ControlFlow::Break(());
            }
            budget -= 1;
            search.cycles_enumerated += 1;
            // Cheap filter first: a regular cycle needs a regular global
            // node; only then pay for the minimal-representation DP.
            if cycle.iter().any(|n| n.is_regular_global()) {
                if let CycleClass::Regular(rc) = classify(&oracle, cycle) {
                    found = Some(rc);
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        if let Some(rc) = found {
            search.outcome = SearchOutcome::Found(rc);
            return search;
        }
        if !complete {
            search.outcome = SearchOutcome::Inconclusive;
        }
    }
    search
}

/// Classify every simple cycle of length ≤ `max_len`, up to `max_cycles`
/// of them (F1's table and the property tests): the components, order and
/// oracle of [`find_regular_cycle`], with no component dismissed.
pub fn classify_all_cycles(
    gsg: &GlobalSg,
    max_cycles: usize,
    max_len: usize,
) -> Vec<(Vec<TxnId>, CycleClass)> {
    let g = Indexed::new(gsg);
    let mut out = Vec::new();
    for comp in &sccs(&g) {
        if out.len() == max_cycles {
            break;
        }
        let oracle = SegmentOracle::restricted(gsg, &g, comp);
        cycles_in_comp(&g, comp, max_len, &mut |cycle: &[TxnId]| {
            if out.len() == max_cycles {
                return ControlFlow::Break(());
            }
            out.push((cycle.to_vec(), classify(&oracle, cycle)));
            ControlFlow::Continue(())
        });
    }
    out
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

    fn outcome(g: &GlobalSg) -> SearchOutcome {
        find_regular_cycle(g, 100, 10).outcome
    }

    fn witness(g: &GlobalSg) -> RegularCycle {
        match outcome(g) {
            SearchOutcome::Found(rc) => rc,
            other => panic!("expected a regular cycle, got {other:?}"),
        }
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

        assert_eq!(outcome(&g), SearchOutcome::NoneExist);
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

        let rc = witness(&g);
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

        let rc = witness(&g);
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
        let search = find_regular_cycle(&g, 100, 10);
        assert_eq!(search.outcome, SearchOutcome::NoneExist);
        assert_eq!((search.sccs_dismissed, search.cycles_enumerated), (1, 0));
        let classes = classify_all_cycles(&g, 100, 10);
        assert_eq!(classes.len(), 1, "classification dismisses nothing");
    }

    /// A serializable (acyclic) graph has no cycles of any kind.
    #[test]
    fn acyclic_graph_clean() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(t(1), t(2));
        g.site_mut(SiteId(1)).add_edge(t(2), t(3));
        assert_eq!(outcome(&g), SearchOutcome::NoneExist);
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
        assert_eq!(witness(&g).min_segments, 2);
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
        assert_eq!(
            outcome(&g),
            SearchOutcome::NoneExist,
            "T5 must be skipped by the CT1→CT2 local segment"
        );
    }

    #[test]
    fn classification_stops_at_max_cycles() {
        let mut g = GlobalSg::new();
        for a in 1..=5u64 {
            for b in 1..=5u64 {
                if a != b {
                    g.site_mut(SiteId(0)).add_edge(t(a), t(b));
                }
            }
        }
        assert_eq!(classify_all_cycles(&g, 7, 10).len(), 7);
        // A cap reached at the end of one component skips the next.
        g.site_mut(SiteId(1)).add_edge(t(8), t(9));
        g.site_mut(SiteId(1)).add_edge(t(9), t(8));
        let all = classify_all_cycles(&g, 1000, 10);
        let first = all.iter().filter(|(c, _)| !c.contains(&t(8))).count();
        assert_eq!(all.len(), first + 1);
        assert_eq!(classify_all_cycles(&g, first, 10), all[..first]);
    }

    /// The component-restricted oracle answers exactly the single-site
    /// reachability question inside the component, even when the graph has
    /// nodes outside it — and records nothing about those.
    #[test]
    fn restricted_oracle_is_single_site_reachability_inside_the_scc() {
        let mut g = GlobalSg::new();
        // SCC {ct1, t2, ct3} via site-local chains, plus an outside tail.
        g.site_mut(SiteId(1)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(t(2), ct(3));
        g.site_mut(SiteId(3)).add_edge(ct(3), ct(1));
        g.site_mut(SiteId(2)).add_edge(ct(3), t(9)); // t9 outside the SCC
        let ix = Indexed::new(&g);
        let comps = sccs(&ix);
        assert_eq!(comps.len(), 1);
        let oracle = SegmentOracle::restricted(&g, &ix, &comps[0]);
        for a in [ct(1), t(2), ct(3)] {
            for b in [ct(1), t(2), ct(3)] {
                let one_site = g.sites().any(|(_, sg)| sg.has_path(a, b));
                assert_eq!(oracle.exists(a, b), one_site, "{a:?} -> {b:?}");
            }
        }
        assert!(oracle.exists(ct(1), ct(3)), "SG2 covers CT1 → CT3 alone");
        assert!(!oracle.exists(ct(3), t(2)), "CT3 → T2 needs two sites");
        assert!(!oracle.exists(ct(3), t(9)), "outside the component");
    }

    /// The anchored DP returns a cover that actually covers the cycle.
    #[test]
    fn anchored_cover_endpoints_are_consistent() {
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(0)).add_edge(t(1), t(2));
        g.site_mut(SiteId(0)).add_edge(t(2), t(3));
        g.site_mut(SiteId(1)).add_edge(t(3), t(1));
        let ix = Indexed::new(&g);
        let oracle = SegmentOracle::restricted(&g, &ix, &sccs(&ix)[0]);
        let nodes = vec![t(1), t(2), t(3)];
        let (m, endpoints) = anchored_cover(&oracle, &nodes, 0).unwrap();
        // Site 0 covers t1→t3 in one segment, site 1 closes: 2 segments.
        assert_eq!(m, 2);
        assert_eq!(endpoints.len(), 2);
        assert_eq!(endpoints[0], 0, "anchor is an endpoint");
    }
}

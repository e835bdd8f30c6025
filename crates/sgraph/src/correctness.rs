//! The top-level correctness audit.
//!
//! The paper's criterion (§5): a history is correct iff its global SG
//! contains **no regular cycles and no local cycles**. When no global
//! transaction aborts there are no compensating transactions, every cycle
//! would be regular, and the criterion reduces to plain serializability.
//!
//! The audit additionally checks *atomicity of compensation* (Theorem 2):
//! because our compensating transactions write at least all items the
//! forward transaction wrote, a correct history must contain no transaction
//! that reads from both `T_i` and `CT_i`. The reads-from relation comes
//! straight from the recorded history.

use crate::graph::GlobalSg;
use crate::incremental::build_exposed_sgs;
use crate::regular::{find_regular_cycle, RegularCycle, RegularSearch, SearchOutcome};
use o2pc_common::{FastHashMap, FastHashSet, GlobalTxnId, HistEventKind, History, SiteId, TxnId};
use std::fmt;

/// What an audit concluded, ordered by severity (the worst of several
/// audits is their `max`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Checked: no local cycle, and an exhaustive search found no regular
    /// cycle.
    Correct,
    /// No violation was found, but the search ran out of budget before it
    /// could rule one out.
    Unknown,
    /// A local cycle, or a regular cycle with its witness.
    Violated,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Correct => "SATISFIED",
            Verdict::Unknown => "UNKNOWN",
            Verdict::Violated => "VIOLATED",
        })
    }
}

/// Outcome of auditing a history.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Sites whose *local* SG contains a cycle (must be empty: local strict
    /// 2PL guarantees local serializability).
    pub local_cycles: Vec<SiteId>,
    /// The regular-cycle search over the union SG.
    pub search: RegularSearch,
    /// Pairs `(reader, i)` such that the reader read from both `T_i` and
    /// `CT_i` (atomicity-of-compensation violations; must be empty).
    pub compensation_atomicity_violations: Vec<(TxnId, GlobalTxnId)>,
    /// Whether the union SG is fully acyclic (plain serializability). This
    /// is exact — acyclicity is an SCC fact, not a bounded-search one.
    pub serializable: bool,
}

impl AuditReport {
    /// The paper's correctness criterion, as far as the search could tell.
    pub fn verdict(&self) -> Verdict {
        if !self.local_cycles.is_empty() {
            return Verdict::Violated;
        }
        match self.search.outcome {
            SearchOutcome::Found(_) => Verdict::Violated,
            SearchOutcome::Inconclusive => Verdict::Unknown,
            SearchOutcome::NoneExist => Verdict::Correct,
        }
    }

    /// Is the history *checked* correct? (`false` on [`Verdict::Unknown`].)
    pub fn is_correct(&self) -> bool {
        self.verdict() == Verdict::Correct
    }

    /// The regular cycle found, if any (criterion violation).
    pub fn regular_cycle(&self) -> Option<&RegularCycle> {
        match &self.search.outcome {
            SearchOutcome::Found(rc) => Some(rc),
            _ => None,
        }
    }
}

/// Audit a recorded history. `max_cycles` (per mixed component) and
/// `max_len` bound the regular-cycle search; running into either makes
/// the verdict [`Verdict::Unknown`] rather than a pass.
///
/// Uses [`build_exposed_sgs`]: the verdict concerns effects that were
/// actually visible — a cleanly rolled-back subtransaction whose updates
/// nobody could have observed does not make a history incorrect (see the
/// builder's docs for why the baseline protocol would otherwise be flagged).
pub fn audit(history: &History, max_cycles: usize, max_len: usize) -> AuditReport {
    let gsg = build_exposed_sgs(history);
    audit_graph(&gsg, history, max_cycles, max_len)
}

/// Audit with a pre-built SG (lets callers reuse the graph — e.g. the
/// engine's incrementally-maintained one). The regular-cycle decision is
/// [`find_regular_cycle`].
pub fn audit_graph(
    gsg: &GlobalSg,
    history: &History,
    max_cycles: usize,
    max_len: usize,
) -> AuditReport {
    let local_cycles: Vec<SiteId> = gsg
        .sites()
        .filter(|(_, sg)| sg.has_cycle())
        .map(|(site, _)| site)
        .collect();
    let search = find_regular_cycle(gsg, max_cycles, max_len);
    AuditReport {
        serializable: search.cyclic_sccs == 0 && local_cycles.is_empty(),
        local_cycles,
        search,
        compensation_atomicity_violations: compensation_atomicity_violations(history),
    }
}

/// Find every `(reader, i)` where the reader read from both `T_i` and
/// `CT_i` — the situation Theorem 2 proves impossible in correct histories
/// when `CT_i` writes (at least) `T_i`'s write set.
pub fn compensation_atomicity_violations(history: &History) -> Vec<(TxnId, GlobalTxnId)> {
    // reader → set of sources read from. Hash maps beat ordered maps on
    // this once-per-oracle scan; the final sort restores the ordered-map
    // output order exactly.
    let mut reads_from: FastHashMap<TxnId, FastHashSet<TxnId>> = FastHashMap::default();
    for e in history.events() {
        if let HistEventKind::Access {
            read_from: Some(src),
            ..
        } = e.kind
        {
            if src != e.txn {
                reads_from.entry(e.txn).or_default().insert(src);
            }
        }
    }
    let mut violations = Vec::new();
    for (reader, sources) in &reads_from {
        for src in sources {
            if let TxnId::Global(i) = src {
                if sources.contains(&TxnId::Compensation(*i)) {
                    violations.push((*reader, *i));
                }
            }
        }
    }
    violations.sort_unstable();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{Key, OpKind, SimTime};

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    fn ct(i: u64) -> TxnId {
        TxnId::Compensation(GlobalTxnId(i))
    }

    #[test]
    fn serializable_history_is_correct() {
        let mut h = History::new();
        h.access(SiteId(0), t(1), OpKind::Write, Key(1), None, SimTime(1));
        h.access(
            SiteId(0),
            t(2),
            OpKind::Read,
            Key(1),
            Some(t(1)),
            SimTime(2),
        );
        h.access(SiteId(1), t(1), OpKind::Write, Key(2), None, SimTime(1));
        h.access(
            SiteId(1),
            t(2),
            OpKind::Read,
            Key(2),
            Some(t(1)),
            SimTime(3),
        );
        let report = audit(&h, 1000, 16);
        assert_eq!(report.verdict(), Verdict::Correct);
        assert!(report.serializable);
        assert_eq!(report.search.cyclic_sccs, 0);
        assert_eq!(report.search.cycles_enumerated, 0);
        assert!(report.compensation_atomicity_violations.is_empty());
    }

    #[test]
    fn regular_cycle_history_is_incorrect() {
        // Site 0: T1 writes k1, CT1 re-writes k1 (compensation), T2 reads k1.
        // Site 1: T2 writes k2, then T1 writes k2 — T2 → T1.
        let mut h = History::new();
        h.access(SiteId(0), t(1), OpKind::Write, Key(1), None, SimTime(1));
        h.access(SiteId(0), ct(1), OpKind::Write, Key(1), None, SimTime(2));
        h.access(
            SiteId(0),
            t(2),
            OpKind::Read,
            Key(1),
            Some(ct(1)),
            SimTime(3),
        );
        h.access(SiteId(1), t(2), OpKind::Write, Key(2), None, SimTime(1));
        h.access(SiteId(1), t(1), OpKind::Write, Key(2), None, SimTime(4));
        let report = audit(&h, 1000, 16);
        assert_eq!(report.verdict(), Verdict::Violated);
        let rc = report.regular_cycle().expect("regular cycle");
        assert!(rc.nodes.contains(&t(2)));
        assert!(!report.serializable);
    }

    #[test]
    fn ct_only_cycle_is_correct_but_not_serializable() {
        // CT1 → CT2 at site 0, CT2 → CT1 at site 1 (uncoordinated
        // compensations may interleave freely — the paper allows this).
        let mut h = History::new();
        h.access(SiteId(0), ct(1), OpKind::Write, Key(1), None, SimTime(1));
        h.access(SiteId(0), ct(2), OpKind::Write, Key(1), None, SimTime(2));
        h.access(SiteId(1), ct(2), OpKind::Write, Key(2), None, SimTime(1));
        h.access(SiteId(1), ct(1), OpKind::Write, Key(2), None, SimTime(3));
        let report = audit(&h, 1000, 16);
        assert!(report.is_correct(), "CT-only cycles are allowed");
        assert!(!report.serializable);
        assert_eq!(report.search.cyclic_sccs, 1);
        assert_eq!(
            (
                report.search.sccs_dismissed,
                report.search.cycles_enumerated
            ),
            (1, 0),
            "a CT-only component is dismissed without enumerating"
        );
    }

    #[test]
    fn mixed_component_without_regular_cycle_is_enumerated_not_dismissed() {
        // Paper Example 1: cycle CT1 → T2 → CT3 → CT1 where SG2 lets the
        // minimal representation skip T2 — the component holds a regular
        // global, so it cannot be dismissed, yet no cycle is regular.
        let mut g = GlobalSg::new();
        g.site_mut(SiteId(1)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(ct(1), t(2));
        g.site_mut(SiteId(2)).add_edge(t(2), ct(3));
        g.site_mut(SiteId(3)).add_edge(ct(3), ct(1));
        let report = audit_graph(&g, &History::new(), 1000, 16);
        assert_eq!(report.verdict(), Verdict::Correct);
        assert!(!report.serializable);
        assert_eq!(report.search.cyclic_sccs, 1);
        assert_eq!(report.search.sccs_dismissed, 0);
        assert!(report.search.cycles_enumerated > 0);
    }

    #[test]
    fn atomicity_of_compensation_violation_detected() {
        let mut h = History::new();
        // T3 reads k1 from T1, and k2 from CT1: forbidden mixed view.
        h.access(SiteId(0), t(1), OpKind::Write, Key(1), None, SimTime(1));
        h.access(
            SiteId(0),
            t(3),
            OpKind::Read,
            Key(1),
            Some(t(1)),
            SimTime(2),
        );
        h.access(SiteId(1), t(1), OpKind::Write, Key(2), None, SimTime(1));
        h.access(SiteId(1), ct(1), OpKind::Write, Key(2), None, SimTime(2));
        h.access(
            SiteId(1),
            t(3),
            OpKind::Read,
            Key(2),
            Some(ct(1)),
            SimTime(3),
        );
        let report = audit(&h, 1000, 16);
        assert_eq!(
            report.compensation_atomicity_violations,
            vec![(t(3), GlobalTxnId(1))]
        );
    }

    #[test]
    fn consistent_view_of_compensation_is_clean() {
        let mut h = History::new();
        // T3 reads only post-compensation state: fine.
        h.access(SiteId(0), t(1), OpKind::Write, Key(1), None, SimTime(1));
        h.access(SiteId(0), ct(1), OpKind::Write, Key(1), None, SimTime(2));
        h.access(
            SiteId(0),
            t(3),
            OpKind::Read,
            Key(1),
            Some(ct(1)),
            SimTime(3),
        );
        let report = audit(&h, 1000, 16);
        assert!(report.compensation_atomicity_violations.is_empty());
    }

    #[test]
    fn empty_history_is_trivially_correct() {
        let report = audit(&History::new(), 10, 10);
        assert!(report.is_correct());
        assert!(report.serializable);
    }

    fn verdict(g: &GlobalSg, max_cycles: usize, max_len: usize) -> Verdict {
        audit_graph(g, &History::new(), max_cycles, max_len).verdict()
    }

    /// Adds `T1` inside a mesh of compensations: `CT100 → T1 → CT101` at
    /// site 0, then `layers` layers of `width` CTs leading from `CT101`
    /// back to `CT100`, each hop at its own site. Every cycle runs through
    /// T1 — `width^layers` of them, each `layers + 3` long — and none is
    /// regular: site 0 covers `CT100 → CT101` in one segment, so a minimal
    /// representation never needs T1 as an endpoint.
    fn decoys(g: &mut GlobalSg, width: u64, layers: u64) {
        g.site_mut(SiteId(0)).add_edge(ct(100), t(1));
        g.site_mut(SiteId(0)).add_edge(t(1), ct(101));
        let mut prev = vec![ct(101)];
        for layer in 0..=layers {
            let next: Vec<TxnId> = if layer == layers {
                vec![ct(100)]
            } else {
                (0..width).map(|j| ct(1000 + 10 * layer + j)).collect()
            };
            let sg = g.site_mut(SiteId(1 + layer as u32));
            for &a in &prev {
                for &b in &next {
                    sg.add_edge(a, b);
                }
            }
            prev = next;
        }
    }

    /// `T_a ⇄ T_b` across two sites: a 2-node regular cycle.
    fn regular_pair(g: &mut GlobalSg, a: TxnId, b: TxnId) {
        g.site_mut(SiteId(50)).add_edge(a, b);
        g.site_mut(SiteId(51)).add_edge(b, a);
    }

    #[test]
    fn regular_cycle_longer_than_max_len_is_unknown_not_correct() {
        // T1 → T2 → … → T11 → T1, every hop at its own site: the only
        // cycle, and it is regular.
        let mut g = GlobalSg::new();
        for i in 1..=11u64 {
            g.site_mut(SiteId(i as u32)).add_edge(t(i), t(i % 11 + 1));
        }
        assert_eq!(verdict(&g, 10_000, 10), Verdict::Unknown);
        assert_eq!(verdict(&g, 10_000, 12), Verdict::Violated);
    }

    #[test]
    fn regular_cycle_behind_more_decoys_than_the_budget_is_unknown() {
        // 4^7 = 16 384 non-regular cycles anchored at T1 come first; the
        // regular T2 ⇄ CT100 is anchored at T2, after all of them.
        let mut g = GlobalSg::new();
        decoys(&mut g, 4, 7);
        regular_pair(&mut g, t(2), ct(100));
        let report = audit_graph(&g, &History::new(), 10_000, 12);
        assert_eq!(report.verdict(), Verdict::Unknown);
        assert_eq!(report.search.cycles_enumerated, 10_000);
        assert_eq!(verdict(&g, 20_000, 12), Verdict::Violated);
    }

    #[test]
    fn an_exhausted_component_does_not_hide_a_witness_in_the_next() {
        // Component {T1, CTs} comes first (it holds the smallest node) and
        // runs out of budget; {T3, T4} holds a regular 2-cycle.
        let mut g = GlobalSg::new();
        decoys(&mut g, 2, 4);
        regular_pair(&mut g, t(3), t(4));
        let report = audit_graph(&g, &History::new(), 10, 16);
        assert_eq!(report.search.cyclic_sccs, 2);
        assert_eq!(report.verdict(), Verdict::Violated);
        assert_eq!(report.regular_cycle().unwrap().nodes, vec![t(3), t(4)]);
    }

    #[test]
    fn budget_of_exactly_the_cycle_count_is_exhaustive() {
        let mut g = GlobalSg::new();
        decoys(&mut g, 2, 3); // 8 cycles, none regular
        assert_eq!(verdict(&g, 8, 16), Verdict::Correct);
        assert_eq!(verdict(&g, 7, 16), Verdict::Unknown);
    }
}

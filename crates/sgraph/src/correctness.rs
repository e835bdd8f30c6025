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

use crate::build::build_exposed_sgs;
use crate::cycles::{cycles_in_comp, sccs, Indexed};
use crate::graph::GlobalSg;
use crate::regular::{classify_cycle_with, CycleClass, RegularCycle, SegmentOracle};
use o2pc_common::{FastHashMap, FastHashSet, GlobalTxnId, HistEventKind, History, SiteId, TxnId};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Outcome of auditing a history.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Sites whose *local* SG contains a cycle (must be empty: local strict
    /// 2PL guarantees local serializability).
    pub local_cycles: Vec<SiteId>,
    /// The first regular cycle found, if any (criterion violation).
    pub regular_cycle: Option<RegularCycle>,
    /// Cyclic strongly connected components of the union SG (each may hold
    /// many simple cycles).
    pub cyclic_sccs: usize,
    /// Components decided *without enumerating a single cycle*: every
    /// simple cycle lies inside one SCC, and a regular cycle must contain a
    /// regular global transaction, so a component holding none (only CTs
    /// and committed locals) cannot host a regular cycle.
    pub sccs_dismissed: usize,
    /// Simple cycles actually enumerated inside mixed components (witness
    /// search; stops at the first regular cycle).
    pub cycles_enumerated: usize,
    /// True when enumeration hit the `max_cycles` budget before exhausting
    /// a component — the no-regular-cycle verdict is then only as strong as
    /// the bounded search (exactly as in the pre-condensation audit).
    pub truncated: bool,
    /// Pairs `(reader, i)` such that the reader read from both `T_i` and
    /// `CT_i` (atomicity-of-compensation violations; must be empty).
    pub compensation_atomicity_violations: Vec<(TxnId, GlobalTxnId)>,
    /// Whether the union SG is fully acyclic (plain serializability). Since
    /// the condensation rewrite this is exact — acyclicity is an SCC fact,
    /// not a bounded-enumeration one.
    pub serializable: bool,
}

impl AuditReport {
    /// Does the history satisfy the paper's correctness criterion?
    pub fn is_correct(&self) -> bool {
        self.local_cycles.is_empty() && self.regular_cycle.is_none()
    }
}

/// Audit a recorded history. `max_cycles` / `max_len` bound cycle
/// enumeration (pass generous values; the audit is offline).
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
/// engine's incrementally-maintained one).
///
/// The regular-cycle decision works on the SCC condensation instead of
/// enumerating all simple cycles up front:
///
/// 1. every simple cycle lies inside one cyclic SCC, so an acyclic
///    condensation settles serializability (and hence correctness when no
///    transaction aborted) with zero enumeration;
/// 2. an SCC containing no regular global transaction (CT-and-local-only
///    traffic, the common case under heavy aborts) is dismissed in
///    O(component size): none of its cycles can be regular;
/// 3. only *mixed* components are searched, each against a
///    [`SegmentOracle`] restricted to that component (sound — see
///    `SegmentOracle::restricted`), stopping at the first regular cycle.
pub fn audit_graph(
    gsg: &GlobalSg,
    history: &History,
    max_cycles: usize,
    max_len: usize,
) -> AuditReport {
    let mut report = AuditReport::default();

    for (site, sg) in gsg.sites() {
        if sg.has_cycle() {
            report.local_cycles.push(site);
        }
    }

    let g = Indexed::new(gsg);
    let comps = sccs(&g);
    report.cyclic_sccs = comps.len();
    report.serializable = comps.is_empty() && report.local_cycles.is_empty();

    for comp in &comps {
        if !comp
            .iter()
            .any(|&v| g.nodes[v as usize].is_regular_global())
        {
            report.sccs_dismissed += 1;
            continue;
        }
        let allowed: BTreeSet<TxnId> = comp.iter().map(|&v| g.nodes[v as usize]).collect();
        let oracle = SegmentOracle::restricted(gsg, &allowed);
        let _ = cycles_in_comp(&g, comp, max_len, &mut |cycle: &[TxnId]| {
            report.cycles_enumerated += 1;
            // Cheap filter first: a regular cycle needs a regular global
            // node; only then pay for the minimal-representation DP.
            if cycle.iter().any(|n| n.is_regular_global()) {
                if let CycleClass::Regular(rc) = classify_cycle_with(&oracle, cycle) {
                    report.regular_cycle = Some(rc);
                    return ControlFlow::Break(());
                }
            }
            if report.cycles_enumerated >= max_cycles {
                report.truncated = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        if report.regular_cycle.is_some() || report.truncated {
            break;
        }
    }

    report.compensation_atomicity_violations = compensation_atomicity_violations(history);
    report
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
        assert!(report.is_correct());
        assert!(report.serializable);
        assert_eq!(report.cyclic_sccs, 0);
        assert_eq!(report.cycles_enumerated, 0);
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
        assert!(!report.is_correct());
        let rc = report.regular_cycle.expect("regular cycle");
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
        assert_eq!(report.cyclic_sccs, 1);
        assert_eq!(
            (report.sccs_dismissed, report.cycles_enumerated),
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
        assert!(report.is_correct());
        assert!(!report.serializable);
        assert_eq!(report.cyclic_sccs, 1);
        assert_eq!(report.sccs_dismissed, 0);
        assert!(report.cycles_enumerated > 0);
        assert!(!report.truncated);
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
}

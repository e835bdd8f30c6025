//! The stratification machinery of §5: the *active-with-respect-to*
//! relation, predicates A1–A4, stratification properties S1/S2 (Theorem 1)
//! and cycle conditions C1/C2 (Lemma 2).

use crate::graph::GlobalSg;
use o2pc_common::{GlobalTxnId, TxnId};

fn t(i: GlobalTxnId) -> TxnId {
    TxnId::Global(i)
}

fn ct(i: GlobalTxnId) -> TxnId {
    TxnId::Compensation(i)
}

/// `T_i` is *active with respect to* `T_j` iff there exists a local SG where
/// both appear, `T_j → T_i` is **not** in that SG, but there is a path (in
/// either direction) between `CT_i` and `T_j` in it.
pub fn active_wrt(gsg: &GlobalSg, i: GlobalTxnId, j: GlobalTxnId) -> bool {
    gsg.sites().any(|(_, sg)| {
        sg.contains(t(i))
            && sg.contains(t(j))
            && !sg.has_path(t(j), t(i))
            && sg.connected_either_way(ct(i), t(j))
    })
}

/// A1: at any local SG where `T_j` appears, the path `T_i → CT_i → T_j` is
/// present.
pub fn a1(gsg: &GlobalSg, i: GlobalTxnId, j: GlobalTxnId) -> bool {
    gsg.sites()
        .filter(|(_, sg)| sg.contains(t(j)))
        .all(|(_, sg)| sg.has_path(t(i), ct(i)) && sg.has_path(ct(i), t(j)))
}

/// A2: at any local SG where `T_j` appears, `T_j → CT_i` without `T_i` on
/// that path.
pub fn a2(gsg: &GlobalSg, i: GlobalTxnId, j: GlobalTxnId) -> bool {
    gsg.sites()
        .filter(|(_, sg)| sg.contains(t(j)))
        .all(|(_, sg)| sg.has_path_avoiding(t(j), ct(i), Some(t(i))))
}

/// A3: at any local SG where both `T_j` and `T_i` appear, if there is a path
/// between `T_j` and either `T_i` or `CT_i`, then the path
/// `T_i → CT_i → T_j` is present.
pub fn a3(gsg: &GlobalSg, i: GlobalTxnId, j: GlobalTxnId) -> bool {
    gsg.sites()
        .filter(|(_, sg)| sg.contains(t(j)) && sg.contains(t(i)))
        .all(|(_, sg)| {
            let touches =
                sg.connected_either_way(t(j), t(i)) || sg.connected_either_way(t(j), ct(i));
            !touches || (sg.has_path(t(i), ct(i)) && sg.has_path(ct(i), t(j)))
        })
}

/// A4: at any local SG where both `T_j` and `T_i` appear, if there is a path
/// between `T_j` and `CT_i`, it must be `T_j → CT_i` without `T_i` on it
/// (in particular no path `CT_i → T_j`).
pub fn a4(gsg: &GlobalSg, i: GlobalTxnId, j: GlobalTxnId) -> bool {
    gsg.sites()
        .filter(|(_, sg)| sg.contains(t(j)) && sg.contains(t(i)))
        .all(|(_, sg)| {
            if !sg.connected_either_way(t(j), ct(i)) {
                return true;
            }
            !sg.has_path(ct(i), t(j)) && sg.has_path_avoiding(t(j), ct(i), Some(t(i)))
        })
}

/// All distinct regular-global pairs `(i, j)` appearing in the graph.
fn global_pairs(gsg: &GlobalSg) -> Vec<(GlobalTxnId, GlobalTxnId)> {
    let globals: Vec<GlobalTxnId> = gsg
        .nodes()
        .into_iter()
        .filter_map(|n| match n {
            TxnId::Global(g) => Some(g),
            _ => None,
        })
        .collect();
    let mut pairs = Vec::new();
    for &i in &globals {
        for &j in &globals {
            if i != j {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// S1: for all `T_i` active wrt `T_j`: A1 ∨ A4.
pub fn holds_s1(gsg: &GlobalSg) -> bool {
    global_pairs(gsg)
        .into_iter()
        .filter(|&(i, j)| active_wrt(gsg, i, j))
        .all(|(i, j)| a1(gsg, i, j) || a4(gsg, i, j))
}

/// S2: for all `T_i` active wrt `T_j`: A2 ∨ A3.
pub fn holds_s2(gsg: &GlobalSg) -> bool {
    global_pairs(gsg)
        .into_iter()
        .filter(|&(i, j)| active_wrt(gsg, i, j))
        .all(|(i, j)| a2(gsg, i, j) || a3(gsg, i, j))
}

/// C1 (first cycle condition, Lemma 2): there exist distinct `T_i`, `T_j`
/// with `CT_i → T_j` at some `SG_a`, and at some other `SG_b` where `T_j`
/// appears, either `T_j → CT_i`, or there is no local path between `T_i` and
/// `T_j` in `SG_b`.
pub fn holds_c1(gsg: &GlobalSg) -> bool {
    global_pairs(gsg).into_iter().any(|(i, j)| {
        gsg.sites().any(|(a, sg_a)| {
            sg_a.has_path(ct(i), t(j))
                && gsg.sites().any(|(b, sg_b)| {
                    b != a
                        && sg_b.contains(t(j))
                        && (sg_b.has_path(t(j), ct(i)) || !sg_b.connected_either_way(t(i), t(j)))
                })
        })
    })
}

/// C2 (second cycle condition, Lemma 2): there exist distinct `T_i`, `T_j`
/// with `T_j → CT_i` at some `SG_a` without `T_i` on that path, and at some
/// other `SG_b` where `T_j` appears, either `CT_i → T_j`, or there is no
/// local path between `T_i` and `T_j` in `SG_b`.
pub fn holds_c2(gsg: &GlobalSg) -> bool {
    global_pairs(gsg).into_iter().any(|(i, j)| {
        gsg.sites().any(|(a, sg_a)| {
            sg_a.has_path_avoiding(t(j), ct(i), Some(t(i)))
                && gsg.sites().any(|(b, sg_b)| {
                    b != a
                        && sg_b.contains(t(j))
                        && (sg_b.has_path(ct(i), t(j)) || !sg_b.connected_either_way(t(i), t(j)))
                })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::{find_regular_cycle, SearchOutcome};
    use o2pc_common::SiteId;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }

    /// Figure 1(a)-style regular cycle violates S1 (and C1 holds): T2 is
    /// after CT1 at site a, but precedes T1 at site b with no CT1 there.
    #[test]
    fn regular_cycle_graph_fails_s1_and_satisfies_c1() {
        let mut sg = GlobalSg::new();
        sg.site_mut(SiteId(0)).add_edge(t(g(1)), ct(g(1)));
        sg.site_mut(SiteId(0)).add_edge(ct(g(1)), t(g(2)));
        sg.site_mut(SiteId(1)).add_edge(t(g(2)), t(g(1)));

        assert!(active_wrt(&sg, g(1), g(2)), "T1 active wrt T2 via site 0");
        assert!(!holds_s1(&sg), "S1 must fail on a regular-cycle graph");
        assert!(matches!(
            find_regular_cycle(&sg, 100, 10).outcome,
            SearchOutcome::Found(_)
        ));
    }

    /// C1 literally: CT1 → T2 at one site; at another site where T2 appears
    /// there is no local path between T1 and T2.
    #[test]
    fn c1_detector() {
        let mut sg = GlobalSg::new();
        sg.site_mut(SiteId(0)).add_edge(ct(g(1)), t(g(2)));
        sg.site_mut(SiteId(0)).add_node(t(g(1)));
        sg.site_mut(SiteId(1)).add_node(t(g(2)));
        sg.site_mut(SiteId(1)).add_node(t(g(1)));
        assert!(holds_c1(&sg));
        // Ordering T1 → T2 at site 1 does not remove the condition…
        sg.site_mut(SiteId(1)).add_edge(t(g(1)), t(g(2)));
        assert!(!holds_c1(&sg), "…but a path between them at SG_b does");
    }

    /// A graph where every site that sees T2 sees the full T1 → CT1 → T2
    /// path satisfies A1 (hence S1), and indeed has no regular cycle.
    #[test]
    fn a1_everywhere_implies_s1_and_no_regular_cycle() {
        let mut sg = GlobalSg::new();
        for s in 0..2u32 {
            sg.site_mut(SiteId(s)).add_edge(t(g(1)), ct(g(1)));
            sg.site_mut(SiteId(s)).add_edge(ct(g(1)), t(g(2)));
        }
        assert!(a1(&sg, g(1), g(2)));
        assert!(holds_s1(&sg));
        let search = find_regular_cycle(&sg, 100, 10);
        assert_eq!(search.outcome, SearchOutcome::NoneExist);
    }

    /// A4 scenario: T2 precedes CT1 wherever they meet, never through T1.
    #[test]
    fn a4_satisfied_when_tj_precedes_cti_everywhere() {
        let mut sg = GlobalSg::new();
        sg.site_mut(SiteId(0)).add_edge(t(g(2)), ct(g(1)));
        sg.site_mut(SiteId(0)).add_node(t(g(1)));
        sg.site_mut(SiteId(1)).add_edge(t(g(2)), ct(g(1)));
        sg.site_mut(SiteId(1)).add_node(t(g(1)));
        assert!(a4(&sg, g(1), g(2)));
        assert!(holds_s1(&sg));
        let search = find_regular_cycle(&sg, 100, 10);
        assert_eq!(search.outcome, SearchOutcome::NoneExist);
    }

    #[test]
    fn a2_requires_path_avoiding_ti() {
        let mut sg = GlobalSg::new();
        // Tj → Ti → CTi: the only path to CTi passes through Ti.
        sg.site_mut(SiteId(0)).add_edge(t(g(2)), t(g(1)));
        sg.site_mut(SiteId(0)).add_edge(t(g(1)), ct(g(1)));
        assert!(!a2(&sg, g(1), g(2)));
        // Add a bypass edge Tj → CTi: now A2 holds.
        sg.site_mut(SiteId(0)).add_edge(t(g(2)), ct(g(1)));
        assert!(a2(&sg, g(1), g(2)));
    }

    #[test]
    fn a3_vacuous_without_contact() {
        let mut sg = GlobalSg::new();
        sg.site_mut(SiteId(0)).add_node(t(g(1)));
        sg.site_mut(SiteId(0)).add_node(t(g(2)));
        assert!(
            a3(&sg, g(1), g(2)),
            "no path between them: A3 vacuously true"
        );
        assert!(a4(&sg, g(1), g(2)));
    }

    #[test]
    fn active_wrt_needs_missing_back_edge() {
        let mut sg = GlobalSg::new();
        // Tj → Ti at the only shared site: not active (the SG orders them).
        sg.site_mut(SiteId(0)).add_edge(t(g(2)), t(g(1)));
        sg.site_mut(SiteId(0)).add_edge(t(g(1)), ct(g(1)));
        sg.site_mut(SiteId(0)).add_edge(ct(g(1)), t(g(2)));
        // There is a cycle here but also Tj → Ti, so "active" is false.
        assert!(!active_wrt(&sg, g(1), g(2)));
    }

    #[test]
    fn c2_detector() {
        let mut sg = GlobalSg::new();
        // Site 0: T2 → CT1 directly (avoiding T1, which executed there too
        // but is unordered with respect to the path).
        sg.site_mut(SiteId(0)).add_edge(t(g(2)), ct(g(1)));
        sg.site_mut(SiteId(0)).add_node(t(g(1)));
        // Site 1: CT1 → T2.
        sg.site_mut(SiteId(1)).add_edge(ct(g(1)), t(g(2)));
        assert!(holds_c2(&sg));
    }

    #[test]
    fn empty_graph_satisfies_everything() {
        let sg = GlobalSg::new();
        assert!(holds_s1(&sg));
        assert!(holds_s2(&sg));
        assert!(!holds_c1(&sg));
        assert!(!holds_c2(&sg));
    }
}

//! Property tests for the marking machinery.
//!
//! The P1 admission rule has a crisp declarative spec: considering the marks
//! each site held *at visit time*, "undone with respect to `T_i`" must hold
//! at **all** visited sites or at **none**. The incremental
//! `check_and_absorb` implementation is validated against that spec on
//! random visit sequences; P2 dually for locally-committed.

use o2pc_common::GlobalTxnId;
use o2pc_marking::{MarkEvent, MarkState, MarkingProtocol, SiteMarks, TransMarks};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random site-marking snapshot over 3 transactions.
fn site_strategy() -> impl Strategy<Value = SiteMarks> {
    prop::collection::vec(0u8..3, 3).prop_map(|states| {
        let mut sm = SiteMarks::new();
        for (i, &s) in states.iter().enumerate() {
            let g = GlobalTxnId(i as u64);
            match s {
                1 => {
                    sm.apply(g, MarkEvent::VoteCommit).unwrap();
                }
                2 => {
                    sm.apply(g, MarkEvent::VoteAbort).unwrap();
                }
                _ => {}
            }
        }
        sm
    })
}

/// Declarative P1 spec on the full visit sequence.
fn spec_accepts_p1(visits: &[SiteMarks]) -> bool {
    for txn in 0..3u64 {
        let g = GlobalTxnId(txn);
        let undone: Vec<bool> = visits
            .iter()
            .map(|s| s.mark_of(g) == MarkState::Undone)
            .collect();
        let any = undone.iter().any(|&b| b);
        let all = undone.iter().all(|&b| b);
        if any && !all {
            return false;
        }
    }
    true
}

/// Declarative P2 spec.
fn spec_accepts_p2(visits: &[SiteMarks]) -> bool {
    for txn in 0..3u64 {
        let g = GlobalTxnId(txn);
        let lc: Vec<bool> = visits
            .iter()
            .map(|s| s.mark_of(g) == MarkState::LocallyCommitted)
            .collect();
        let any = lc.iter().any(|&b| b);
        let all = lc.iter().all(|&b| b);
        if any && !all {
            return false;
        }
    }
    true
}

fn incremental_accepts(protocol: MarkingProtocol, visits: &[SiteMarks]) -> bool {
    let mut tm = TransMarks::new();
    for site in visits {
        if tm.check_and_absorb(protocol, site).is_err() {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Incremental R1 under P1 accepts a visit sequence iff the declarative
    /// all-or-none spec accepts it.
    #[test]
    fn p1_matches_declarative_spec(visits in prop::collection::vec(site_strategy(), 1..6)) {
        prop_assert_eq!(
            incremental_accepts(MarkingProtocol::P1, &visits),
            spec_accepts_p1(&visits),
            "visits: {:?}",
            visits.iter().map(|s| s.iter().collect::<Vec<_>>()).collect::<Vec<_>>()
        );
    }

    /// P2 dually.
    #[test]
    fn p2_matches_declarative_spec(visits in prop::collection::vec(site_strategy(), 1..6)) {
        prop_assert_eq!(
            incremental_accepts(MarkingProtocol::P2, &visits),
            spec_accepts_p2(&visits)
        );
    }

    /// The simple protocol is at least as strict as P1 (everything it
    /// accepts, P1 accepts), and rejects any locally-committed mark.
    #[test]
    fn simple_is_stricter_than_p1(visits in prop::collection::vec(site_strategy(), 1..6)) {
        if incremental_accepts(MarkingProtocol::Simple, &visits) {
            prop_assert!(incremental_accepts(MarkingProtocol::P1, &visits));
            for v in &visits {
                prop_assert_eq!(v.locally_committed().next(), None);
            }
        }
    }

    /// The marking state machine never reaches an undefined state and the
    /// projections stay consistent under random legal event sequences.
    #[test]
    fn state_machine_projections_consistent(events in prop::collection::vec(0u8..5, 0..20)) {
        let mut sm = SiteMarks::new();
        let g = GlobalTxnId(0);
        let mut model = MarkState::Unmarked;
        for e in events {
            let ev = match e {
                0 => MarkEvent::VoteCommit,
                1 => MarkEvent::VoteAbort,
                2 => MarkEvent::DecisionCommit,
                3 => MarkEvent::DecisionAbort,
                _ => MarkEvent::Udum,
            };
            match sm.apply(g, ev) {
                Ok(next) => {
                    model = model.on_event(ev).expect("sm accepted, model must too");
                    prop_assert_eq!(next, model);
                }
                Err(_) => {
                    prop_assert!(model.on_event(ev).is_err(), "divergent legality for {:?}", ev);
                }
            }
            prop_assert_eq!(sm.mark_of(g), model);
            let undone = sm.undone().any(|t| t == g);
            let lc = sm.locally_committed().any(|t| t == g);
            prop_assert_eq!(undone, model == MarkState::Undone);
            prop_assert_eq!(lc, model == MarkState::LocallyCommitted);
        }
    }

    /// A `BTreeMap`-free sanity: absorbing N sites records N visits and the
    /// undone counters never exceed the visit count.
    #[test]
    fn absorb_counters_are_bounded(visits in prop::collection::vec(site_strategy(), 1..8)) {
        let mut tm = TransMarks::new();
        for v in &visits {
            tm.absorb(v);
        }
        prop_assert_eq!(tm.visits() as usize, visits.len());
        let counts: BTreeMap<GlobalTxnId, u32> =
            tm.undone_seen().into_iter().map(|g| (g, 0)).collect();
        for (g, _) in counts {
            let actual = visits.iter().filter(|v| v.mark_of(g) == MarkState::Undone).count();
            prop_assert!(actual >= 1);
            prop_assert!(actual <= visits.len());
        }
    }
}

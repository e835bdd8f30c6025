//! The per-site marking set `sitemarks.k`.
//!
//! For the P1 implementation the locally-committed marking is redundant (the
//! protocol treats locally-committed and unmarked sites alike), but P2 and
//! the full Figure 2 semantics need both kinds, so [`SiteMarks`] stores the
//! complete [`MarkState`] per transaction; the P1 view (`undone`) is a
//! projection.
//!
//! The marking set is itself a shared data structure at the site; the paper
//! recommends protecting it with the local concurrency control (and
//! discusses the deadlocks this can cause, §6.2). In this implementation
//! the engine serializes marking accesses with subtransaction scheduling on
//! the simulator's single timeline, and the *late revalidation* compromise
//! the paper suggests (check first, revalidate as the subtransaction's last
//! action) is exercised by the engine's R1 handling.

use crate::state::{MarkEvent, MarkState};
use o2pc_common::{CommonError, GlobalTxnId};
use std::collections::BTreeMap;

/// Markings of one site with respect to all global transactions.
#[derive(Clone, Debug, Default)]
pub struct SiteMarks {
    marks: BTreeMap<GlobalTxnId, MarkState>,
}

impl SiteMarks {
    /// New, fully unmarked.
    pub const fn new() -> Self {
        SiteMarks {
            marks: BTreeMap::new(),
        }
    }

    /// Current marking with respect to `txn`.
    pub fn mark_of(&self, txn: GlobalTxnId) -> MarkState {
        self.marks.get(&txn).copied().unwrap_or_default()
    }

    /// Apply a marking event for `txn` (Figure 2).
    pub fn apply(&mut self, txn: GlobalTxnId, ev: MarkEvent) -> Result<MarkState, CommonError> {
        let next = self.mark_of(txn).on_event(ev)?;
        if next == MarkState::Unmarked {
            self.marks.remove(&txn);
        } else {
            self.marks.insert(txn, next);
        }
        Ok(next)
    }

    /// Rule R2: executed as the last operation of `CT_ik` — the site becomes
    /// undone with respect to `T_i`. (For a site that voted abort, the
    /// roll-back is the compensation and the same rule applies at roll-back
    /// completion.) Idempotent by construction: the marking may already be
    /// `Undone` if the vote-abort path set it.
    pub fn mark_undone(&mut self, txn: GlobalTxnId) {
        self.marks.insert(txn, MarkState::Undone);
    }

    /// Rule R3: UDUM1 detected — forget the undone marking.
    pub fn unmark(&mut self, txn: GlobalTxnId) {
        self.marks.remove(&txn);
    }

    /// The transactions this site is *undone* with respect to
    /// (`sitemarks.k` of the paper's P1 implementation), in order.
    pub fn undone(&self) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.marked(MarkState::Undone)
    }

    /// The transactions this site is *locally committed* with respect to
    /// (needed by P2), in order.
    pub fn locally_committed(&self) -> impl Iterator<Item = GlobalTxnId> + '_ {
        self.marked(MarkState::LocallyCommitted)
    }

    fn marked(&self, mark: MarkState) -> impl Iterator<Item = GlobalTxnId> + '_ {
        let hits = self.marks.iter().filter(move |(_, &m)| m == mark);
        hits.map(|(&t, _)| t)
    }

    /// All current markings.
    pub fn iter(&self) -> impl Iterator<Item = (GlobalTxnId, MarkState)> + '_ {
        self.marks.iter().map(|(&t, &m)| (t, m))
    }

    /// Number of marked transactions.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }

    #[test]
    fn vote_and_decision_flow() {
        let mut sm = SiteMarks::new();
        assert_eq!(sm.mark_of(g(1)), MarkState::Unmarked);
        sm.apply(g(1), MarkEvent::VoteCommit).unwrap();
        assert_eq!(sm.mark_of(g(1)), MarkState::LocallyCommitted);
        assert!(sm.locally_committed().eq([g(1)]));
        sm.apply(g(1), MarkEvent::DecisionCommit).unwrap();
        assert_eq!(sm.mark_of(g(1)), MarkState::Unmarked);
        assert!(sm.is_empty(), "unmarked entries are reclaimed");
    }

    #[test]
    fn abort_flow_and_projection() {
        let mut sm = SiteMarks::new();
        sm.apply(g(1), MarkEvent::VoteCommit).unwrap();
        sm.apply(g(1), MarkEvent::DecisionAbort).unwrap();
        sm.apply(g(2), MarkEvent::VoteAbort).unwrap();
        assert!(sm.undone().eq([g(1), g(2)]));
        assert_eq!(sm.locally_committed().next(), None);
        sm.unmark(g(1));
        assert!(sm.undone().eq([g(2)]));
    }

    #[test]
    fn r2_is_idempotent_over_vote_abort() {
        let mut sm = SiteMarks::new();
        sm.apply(g(3), MarkEvent::VoteAbort).unwrap();
        sm.mark_undone(g(3)); // roll-back completion re-affirms
        assert_eq!(sm.mark_of(g(3)), MarkState::Undone);
        assert_eq!(sm.len(), 1);
    }

    #[test]
    fn illegal_event_surfaces_error() {
        let mut sm = SiteMarks::new();
        assert!(sm.apply(g(1), MarkEvent::Udum).is_err());
        sm.apply(g(1), MarkEvent::VoteCommit).unwrap();
        assert!(sm.apply(g(1), MarkEvent::VoteCommit).is_err());
        // State unchanged on error.
        assert_eq!(sm.mark_of(g(1)), MarkState::LocallyCommitted);
    }

    #[test]
    fn independent_transactions() {
        let mut sm = SiteMarks::new();
        sm.apply(g(1), MarkEvent::VoteCommit).unwrap();
        sm.apply(g(2), MarkEvent::VoteAbort).unwrap();
        let marks: Vec<_> = sm.iter().collect();
        assert_eq!(
            marks,
            vec![
                (g(1), MarkState::LocallyCommitted),
                (g(2), MarkState::Undone)
            ]
        );
    }
}

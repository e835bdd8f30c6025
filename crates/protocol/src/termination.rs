//! The cooperative termination protocol for blocked 2PC participants.
//!
//! When a prepared participant times out waiting for the DECISION it may ask
//! its peers (Bernstein–Hadzilacos–Goodman §7.4):
//!
//! * if any peer has already received (or decided) COMMIT/ABORT, adopt it;
//! * if some peer has **not yet voted yes**, the coordinator cannot have
//!   decided commit — everyone may safely abort;
//! * if every reachable peer is itself prepared-and-uncertain, the
//!   participant **remains blocked**.
//!
//! That last case is the point: cooperative termination reduces the
//! *probability* of blocking, but cannot eliminate it — the impossibility
//! the paper cites ("it is impossible to have a non-blocking commit protocol
//! that is immune to both site and link failures") and the reason O2PC
//! abandons blocking avoidance in favour of semantic atomicity. The unit
//! tests pin down exactly which peer-state combinations unblock.

use o2pc_common::SiteId;
use std::collections::BTreeMap;

pub use o2pc_site::PeerState;

/// Outcome of a termination round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationOutcome {
    /// The decision was learned: commit.
    Commit,
    /// The decision was learned (or safely inferred): abort.
    Abort,
    /// Every reachable peer is uncertain too: stay blocked, retry later.
    StillBlocked,
}

/// A participant-side termination round for one transaction.
#[derive(Clone, Debug)]
pub struct TerminationRound {
    peers: Vec<SiteId>,
    answers: BTreeMap<SiteId, PeerState>,
}

impl TerminationRound {
    /// Start a round: `peers` are the other participants (from the VOTE-REQ
    /// payload — participant lists piggy-back on standard 2PC messages).
    pub fn new(peers: Vec<SiteId>) -> Self {
        TerminationRound {
            peers,
            answers: BTreeMap::new(),
        }
    }

    /// Record a peer's answer. Returns the resolution as soon as one is
    /// implied; `None` while more answers could still change the outcome.
    pub fn on_answer(&mut self, from: SiteId, state: PeerState) -> Option<TerminationOutcome> {
        debug_assert!(self.peers.contains(&from), "answer from non-peer {from}");
        self.answers.insert(from, state);
        match state {
            PeerState::KnowsCommit => return Some(TerminationOutcome::Commit),
            PeerState::KnowsAbort => return Some(TerminationOutcome::Abort),
            // A peer that never prepared proves the decision cannot be
            // commit: abort immediately and unilaterally.
            PeerState::NotPrepared => return Some(TerminationOutcome::Abort),
            PeerState::PreparedUncertain | PeerState::Unreachable => {}
        }
        if self.answers.len() == self.peers.len() {
            Some(self.conclude())
        } else {
            None
        }
    }

    /// Conclude with the answers collected so far (e.g. on a round timeout).
    pub fn conclude(&self) -> TerminationOutcome {
        // At this point no answer was decisive: all reachable peers are
        // prepared-and-uncertain (or unreachable). Blocked.
        TerminationOutcome::StillBlocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(n: u32) -> TerminationRound {
        TerminationRound::new((0..n).map(SiteId).collect())
    }

    #[test]
    fn commit_knowledge_resolves_immediately() {
        let mut r = round(3);
        assert_eq!(r.on_answer(SiteId(0), PeerState::PreparedUncertain), None);
        assert_eq!(
            r.on_answer(SiteId(1), PeerState::KnowsCommit),
            Some(TerminationOutcome::Commit)
        );
    }

    #[test]
    fn abort_knowledge_resolves_immediately() {
        let mut r = round(2);
        assert_eq!(
            r.on_answer(SiteId(0), PeerState::KnowsAbort),
            Some(TerminationOutcome::Abort)
        );
    }

    #[test]
    fn unprepared_peer_proves_abort() {
        let mut r = round(3);
        assert_eq!(
            r.on_answer(SiteId(2), PeerState::NotPrepared),
            Some(TerminationOutcome::Abort)
        );
    }

    #[test]
    fn all_uncertain_stays_blocked() {
        let mut r = round(3);
        assert_eq!(r.on_answer(SiteId(0), PeerState::PreparedUncertain), None);
        assert_eq!(r.on_answer(SiteId(1), PeerState::PreparedUncertain), None);
        assert_eq!(
            r.on_answer(SiteId(2), PeerState::PreparedUncertain),
            Some(TerminationOutcome::StillBlocked),
            "the fundamental blocking case"
        );
    }

    #[test]
    fn unreachable_peers_do_not_unblock() {
        let mut r = round(2);
        assert_eq!(r.on_answer(SiteId(0), PeerState::Unreachable), None);
        assert_eq!(
            r.on_answer(SiteId(1), PeerState::Unreachable),
            Some(TerminationOutcome::StillBlocked)
        );
    }

    #[test]
    fn early_conclude_on_partial_answers() {
        let mut r = round(3);
        r.on_answer(SiteId(0), PeerState::PreparedUncertain);
        assert_eq!(r.conclude(), TerminationOutcome::StillBlocked);
    }
}

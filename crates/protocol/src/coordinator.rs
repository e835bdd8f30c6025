//! The per-transaction 2PC coordinator state machine.
//!
//! Message pattern (identical for 2PC and O2PC — the paper's compatibility
//! claim): after all subtransactions ack their operations, the coordinator
//! sends VOTE-REQ to every participant; participants reply VOTE; unanimous
//! yes ⇒ COMMIT, otherwise ABORT; the decision is **logged before any
//! DECISION message leaves** (presumed abort discipline: a recovering
//! coordinator resends a logged decision and presumes abort for anything
//! undecided); participants acknowledge the decision.

use o2pc_site::Vote;

/// Coordinator phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordState {
    /// Waiting for every subtransaction to ack its operations.
    CollectingAcks,
    /// VOTE-REQ sent; collecting votes.
    Voting,
    /// Decision logged and sent; collecting decision acks.
    Decided(bool),
    /// All decision acks received; protocol complete.
    Done(bool),
}

/// An instruction for the host (engine or transport driver). Recipients
/// are a bitmask over participant positions: bit `i` stands for the host's
/// `i`-th participant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordAction {
    /// Send VOTE-REQ to each participant in the mask.
    SendVoteReq(u64),
    /// Decision reached (`true` = commit): it is now logged; send DECISION
    /// to each participant in the mask.
    SendDecision(bool, u64),
    /// Protocol complete (`true` = committed).
    Complete(bool),
}

/// The coordinator of one global transaction.
///
/// It knows its participants only by position: the host keeps the list,
/// hands each input the position of the participant it came from, and
/// reads recipients off the same positions. Who has answered in each phase
/// is a bitmask over them: bit `i` stands for the `i`-th participant.
#[derive(Clone, Debug)]
pub struct TwoPhaseCoordinator {
    participants: usize,
    state: CoordState,
    op_acks: u64,
    /// A subtransaction that failed during execution forces an abort
    /// decision without waiting for votes from everyone.
    failed_ack: bool,
    /// Participants that voted. Only yes-votes accumulate: the first no
    /// decides abort and ends the voting phase.
    votes: u64,
    decision_acks: u64,
}

impl TwoPhaseCoordinator {
    /// New coordinator over `participants` distinct participants.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "a global transaction needs participants");
        assert!(
            participants <= u64::BITS as usize,
            "at most 64 participants per global transaction"
        );
        TwoPhaseCoordinator {
            participants,
            state: CoordState::CollectingAcks,
            op_acks: 0,
            failed_ack: false,
            votes: 0,
            decision_acks: 0,
        }
    }

    /// The mask bit of the participant at `pos`.
    fn bit(&self, pos: usize) -> u64 {
        debug_assert!(pos < self.participants, "no participant at {pos}");
        1 << pos
    }

    /// The mask with every participant's bit set.
    fn everyone(&self) -> u64 {
        u64::MAX >> (u64::BITS as usize - self.participants)
    }

    /// The participants whose bit is clear in `mask`.
    fn missing(&self, mask: u64) -> u64 {
        self.everyone() & !mask
    }

    /// Current phase.
    pub fn state(&self) -> CoordState {
        self.state
    }

    /// The logged decision, if one has been taken.
    pub fn decision(&self) -> Option<bool> {
        match self.state {
            CoordState::Decided(d) | CoordState::Done(d) => Some(d),
            _ => None,
        }
    }

    /// The subtransaction of the participant at `pos` acked (`ok = false`
    /// reports an execution failure). Returns the next action, if the ack
    /// completes a phase. Acks arriving after a timeout already moved the
    /// protocol on are ignored.
    pub fn on_subtxn_ack(&mut self, pos: usize, ok: bool) -> Option<CoordAction> {
        if self.state != CoordState::CollectingAcks {
            return None; // late ack (e.g. a timeout already presumed abort)
        }
        self.op_acks |= self.bit(pos);
        if !ok {
            self.failed_ack = true;
        }
        if self.op_acks == self.everyone() {
            // After a failed ack there is no point soliciting votes, but
            // VOTE-REQ is still sent so participants learn the transaction
            // is terminating — exactly the standard message pattern; the
            // first vote, whatever it says, then decides abort.
            self.state = CoordState::Voting;
            return Some(CoordAction::SendVoteReq(self.everyone()));
        }
        None
    }

    /// The participant at `pos` voted. Unanimous yes ⇒ commit; the first
    /// no ⇒ abort.
    pub fn on_vote(&mut self, pos: usize, vote: Vote) -> Option<CoordAction> {
        if !matches!(self.state, CoordState::Voting) {
            // Late vote after an early abort decision: ignore.
            return None;
        }
        self.votes |= self.bit(pos);
        if vote == Vote::No || self.failed_ack {
            return Some(self.decide(false));
        }
        if self.votes == self.everyone() {
            return Some(self.decide(true));
        }
        None
    }

    /// General progress timeout: if no decision has been reached (stuck in
    /// ack collection — e.g. a participant site is down — or in voting),
    /// presume abort and notify everyone.
    pub fn on_timeout(&mut self) -> Option<CoordAction> {
        match self.state {
            CoordState::CollectingAcks | CoordState::Voting => Some(self.decide(false)),
            _ => None,
        }
    }

    fn decide(&mut self, commit: bool) -> CoordAction {
        self.state = CoordState::Decided(commit);
        CoordAction::SendDecision(commit, self.everyone())
    }

    /// The participant at `pos` acknowledged the decision.
    pub fn on_decision_ack(&mut self, pos: usize) -> Option<CoordAction> {
        let CoordState::Decided(commit) = self.state else {
            return None;
        };
        self.decision_acks |= self.bit(pos);
        if self.decision_acks == self.everyone() {
            self.state = CoordState::Done(commit);
            return Some(CoordAction::Complete(commit));
        }
        None
    }

    /// What an idle-timer retransmission should resend right now, if
    /// anything: the VOTE-REQ to participants whose vote is still missing,
    /// or the logged decision to participants that have not acked it.
    /// `None` means the protocol is not waiting on any message (still
    /// collecting subtransaction acks, or already `Done`), so the
    /// retransmission timer chain can stop.
    pub fn retransmit(&self) -> Option<CoordAction> {
        match self.state {
            CoordState::Voting => {
                let missing = self.missing(self.votes);
                (missing != 0).then_some(CoordAction::SendVoteReq(missing))
            }
            CoordState::Decided(commit) => {
                let missing = self.missing(self.decision_acks);
                (missing != 0).then_some(CoordAction::SendDecision(commit, missing))
            }
            CoordState::CollectingAcks | CoordState::Done(_) => None,
        }
    }

    /// Coordinator recovery: what must be resent / presumed after a crash.
    /// A logged decision is resent to participants that have not acked;
    /// an undecided transaction is presumed aborted.
    pub fn recover(&mut self) -> Option<CoordAction> {
        match self.state {
            CoordState::Decided(commit) => {
                let missing = self.missing(self.decision_acks);
                if missing == 0 {
                    self.state = CoordState::Done(commit);
                    Some(CoordAction::Complete(commit))
                } else {
                    Some(CoordAction::SendDecision(commit, missing))
                }
            }
            CoordState::CollectingAcks | CoordState::Voting => {
                // Presumed abort.
                Some(self.decide(false))
            }
            CoordState::Done(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_commit() {
        let mut c = TwoPhaseCoordinator::new(3);
        assert_eq!(c.state(), CoordState::CollectingAcks);
        assert_eq!(c.on_subtxn_ack(0, true), None);
        assert_eq!(c.on_subtxn_ack(1, true), None);
        let a = c.on_subtxn_ack(2, true).unwrap();
        assert_eq!(a, CoordAction::SendVoteReq(0b111));
        assert_eq!(c.on_vote(0, Vote::Yes), None);
        assert_eq!(c.on_vote(1, Vote::Yes), None);
        let a = c.on_vote(2, Vote::Yes).unwrap();
        assert_eq!(a, CoordAction::SendDecision(true, 0b111));
        assert_eq!(c.decision(), Some(true));
        assert_eq!(c.on_decision_ack(0), None);
        assert_eq!(c.on_decision_ack(1), None);
        assert_eq!(c.on_decision_ack(2), Some(CoordAction::Complete(true)));
        assert_eq!(c.state(), CoordState::Done(true));
    }

    #[test]
    fn single_no_vote_aborts_immediately() {
        let mut c = TwoPhaseCoordinator::new(3);
        for s in 0..3 {
            c.on_subtxn_ack(s, true);
        }
        assert_eq!(c.on_vote(0, Vote::Yes), None);
        let a = c.on_vote(1, Vote::No).unwrap();
        assert_eq!(a, CoordAction::SendDecision(false, 0b111));
        // A late yes from site 2 is ignored.
        assert_eq!(c.on_vote(2, Vote::Yes), None);
        assert_eq!(c.decision(), Some(false));
    }

    #[test]
    fn failed_subtxn_ack_forces_abort() {
        let mut c = TwoPhaseCoordinator::new(2);
        c.on_subtxn_ack(0, true);
        let a = c.on_subtxn_ack(1, false).unwrap();
        assert_eq!(a, CoordAction::SendVoteReq(0b11), "pattern preserved");
        // First vote (whatever it is) triggers the abort decision.
        let a = c.on_vote(0, Vote::Yes).unwrap();
        assert_eq!(a, CoordAction::SendDecision(false, 0b11));
    }

    #[test]
    fn vote_timeout_presumes_abort() {
        let mut c = TwoPhaseCoordinator::new(2);
        for s in 0..2 {
            c.on_subtxn_ack(s, true);
        }
        c.on_vote(0, Vote::Yes);
        let a = c.on_timeout().unwrap();
        assert_eq!(a, CoordAction::SendDecision(false, 0b11));
        assert_eq!(c.on_timeout(), None, "idempotent");
    }

    #[test]
    fn recovery_resends_logged_decision_to_missing_only() {
        let mut c = TwoPhaseCoordinator::new(3);
        for s in 0..3 {
            c.on_subtxn_ack(s, true);
        }
        for s in 0..3 {
            c.on_vote(s, Vote::Yes);
        }
        c.on_decision_ack(0);
        // Crash here; recovery resends to 1 and 2 only.
        let a = c.recover().unwrap();
        assert_eq!(a, CoordAction::SendDecision(true, 0b110));
        c.on_decision_ack(1);
        assert_eq!(c.on_decision_ack(2), Some(CoordAction::Complete(true)));
    }

    #[test]
    fn recovery_before_decision_presumes_abort() {
        let mut c = TwoPhaseCoordinator::new(2);
        c.on_subtxn_ack(0, true);
        let a = c.recover().unwrap();
        assert_eq!(a, CoordAction::SendDecision(false, 0b11));
        assert_eq!(c.decision(), Some(false));
    }

    #[test]
    fn recovery_when_done_is_noop() {
        let mut c = TwoPhaseCoordinator::new(1);
        c.on_subtxn_ack(0, true);
        c.on_vote(0, Vote::Yes);
        c.on_decision_ack(0);
        assert_eq!(c.recover(), None);
    }

    #[test]
    fn recovery_with_all_acks_completes() {
        let mut c = TwoPhaseCoordinator::new(1);
        c.on_subtxn_ack(0, true);
        c.on_vote(0, Vote::Yes);
        // Ack arrives, then crash before Complete was processed: recovery
        // must complete, not resend.
        c.on_decision_ack(0);
        let mut c2 = c.clone();
        c2.state = CoordState::Decided(true);
        assert_eq!(c2.recover(), Some(CoordAction::Complete(true)));
    }

    #[test]
    #[should_panic(expected = "needs participants")]
    fn empty_participants_rejected() {
        let _ = TwoPhaseCoordinator::new(0);
    }

    #[test]
    fn retransmit_targets_only_missing_voters_and_ackers() {
        let mut c = TwoPhaseCoordinator::new(3);
        assert_eq!(c.retransmit(), None, "nothing outstanding before voting");
        for s in 0..3 {
            c.on_subtxn_ack(s, true);
        }
        assert_eq!(c.retransmit(), Some(CoordAction::SendVoteReq(0b111)));
        c.on_vote(1, Vote::Yes);
        assert_eq!(c.retransmit(), Some(CoordAction::SendVoteReq(0b101)));
        c.on_vote(0, Vote::Yes);
        c.on_vote(2, Vote::Yes);
        assert_eq!(c.retransmit(), Some(CoordAction::SendDecision(true, 0b111)));
        c.on_decision_ack(2);
        assert_eq!(c.retransmit(), Some(CoordAction::SendDecision(true, 0b011)));
        c.on_decision_ack(0);
        c.on_decision_ack(1);
        assert_eq!(c.retransmit(), None, "done: timer chain stops");
    }
}

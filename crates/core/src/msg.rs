//! Inter-site messages.
//!
//! `SpawnSubtxn` / `SubtxnAck` are the transaction's *data* traffic (any
//! distributed execution has them); `VoteReq` / `VoteMsg` / `Decision` /
//! `DecisionAck` are the 2PC commit traffic. The paper claims O2PC (and P1)
//! change *nothing* about this pattern — the engine counts each type so
//! experiment E6 can verify it. The P1 bookkeeping (transmarks snapshots,
//! execution-site sets for UDUM1) piggy-backs on `SpawnSubtxn` and
//! `Decision` in a real deployment; here the engine keeps it in the global
//! transaction record, and the absence of any new message variant *is* the
//! verification.

use o2pc_common::{GlobalTxnId, Program, SiteId};
use o2pc_site::{PeerState, Vote};

/// One message on the simulated network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Coordinator → participant: start the subtransaction.
    SpawnSubtxn {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Operation program for this site, shared with the transaction's
        /// request: a duplicated SPAWN bumps a count, it copies nothing.
        ops: Program,
    },
    /// Participant → coordinator: the subtransaction finished executing
    /// (`ok = false`: it failed and was rolled back; abort the transaction).
    SubtxnAck {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Reporting participant.
        from: SiteId,
        /// Execution outcome.
        ok: bool,
    },
    /// Coordinator → participant: VOTE-REQ.
    VoteReq {
        /// Global transaction.
        txn: GlobalTxnId,
    },
    /// Participant → coordinator: VOTE.
    VoteMsg {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Voting participant.
        from: SiteId,
        /// The vote.
        vote: Vote,
    },
    /// Coordinator → participant: DECISION.
    Decision {
        /// Global transaction.
        txn: GlobalTxnId,
        /// `true` = commit.
        commit: bool,
    },
    /// Participant → coordinator: decision acknowledged.
    DecisionAck {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Acknowledging participant.
        from: SiteId,
    },
    /// Blocked participant → peer: cooperative-termination query (only sent
    /// when `termination_timeout` is configured; 2PC itself never needs it).
    TermReq {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Asking participant.
        from: SiteId,
    },
    /// Peer → blocked participant: termination answer.
    TermAnswer {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Answering peer.
        from: SiteId,
        /// The peer's state.
        state: PeerState,
    },
}

impl Msg {
    /// Metric label for message counting.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::SpawnSubtxn { .. } => "msg.spawn",
            Msg::SubtxnAck { .. } => "msg.subtxn_ack",
            Msg::VoteReq { .. } => "msg.vote_req",
            Msg::VoteMsg { .. } => "msg.vote",
            Msg::Decision { .. } => "msg.decision",
            Msg::DecisionAck { .. } => "msg.decision_ack",
            Msg::TermReq { .. } => "msg.term_req",
            Msg::TermAnswer { .. } => "msg.term_answer",
        }
    }

    /// Counter label charged when the substrate loses this message at send
    /// time — the static twin of `format!("msg.dropped.{kind}")`, kept out
    /// of the per-send hot path.
    pub fn dropped_label(&self) -> &'static str {
        match self {
            Msg::SpawnSubtxn { .. } => "msg.dropped.spawn",
            Msg::SubtxnAck { .. } => "msg.dropped.subtxn_ack",
            Msg::VoteReq { .. } => "msg.dropped.vote_req",
            Msg::VoteMsg { .. } => "msg.dropped.vote",
            Msg::Decision { .. } => "msg.dropped.decision",
            Msg::DecisionAck { .. } => "msg.dropped.decision_ack",
            Msg::TermReq { .. } => "msg.dropped.term_req",
            Msg::TermAnswer { .. } => "msg.dropped.term_answer",
        }
    }

    /// Counter label charged when the substrate refuses this message because
    /// the destination has no route (crashed endpoint, shutdown) — kept
    /// separate from [`Msg::dropped_label`] so injected link loss and
    /// infrastructure unreachability reconcile independently. The simulator
    /// never produces these; they are a threaded-transport phenomenon.
    pub fn unroutable_label(&self) -> &'static str {
        match self {
            Msg::SpawnSubtxn { .. } => "msg.unroutable.spawn",
            Msg::SubtxnAck { .. } => "msg.unroutable.subtxn_ack",
            Msg::VoteReq { .. } => "msg.unroutable.vote_req",
            Msg::VoteMsg { .. } => "msg.unroutable.vote",
            Msg::Decision { .. } => "msg.unroutable.decision",
            Msg::DecisionAck { .. } => "msg.unroutable.decision_ack",
            Msg::TermReq { .. } => "msg.unroutable.term_req",
            Msg::TermAnswer { .. } => "msg.unroutable.term_answer",
        }
    }

    /// Is this one of the four standard 2PC message types?
    pub fn is_2pc(&self) -> bool {
        matches!(
            self,
            Msg::VoteReq { .. }
                | Msg::VoteMsg { .. }
                | Msg::Decision { .. }
                | Msg::DecisionAck { .. }
        )
    }

    /// The transaction the message concerns.
    pub fn txn(&self) -> GlobalTxnId {
        match *self {
            Msg::SpawnSubtxn { txn, .. }
            | Msg::SubtxnAck { txn, .. }
            | Msg::VoteReq { txn }
            | Msg::VoteMsg { txn, .. }
            | Msg::Decision { txn, .. }
            | Msg::DecisionAck { txn, .. }
            | Msg::TermReq { txn, .. }
            | Msg::TermAnswer { txn, .. } => txn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_classification() {
        let g = GlobalTxnId(1);
        let msgs = [
            Msg::SpawnSubtxn {
                txn: g,
                ops: Program::from([]),
            },
            Msg::SubtxnAck {
                txn: g,
                from: SiteId(0),
                ok: true,
            },
            Msg::VoteReq { txn: g },
            Msg::VoteMsg {
                txn: g,
                from: SiteId(0),
                vote: Vote::Yes,
            },
            Msg::Decision {
                txn: g,
                commit: true,
            },
            Msg::DecisionAck {
                txn: g,
                from: SiteId(0),
            },
        ];
        let labels: Vec<_> = msgs.iter().map(Msg::label).collect();
        assert_eq!(
            labels,
            vec![
                "msg.spawn",
                "msg.subtxn_ack",
                "msg.vote_req",
                "msg.vote",
                "msg.decision",
                "msg.decision_ack"
            ]
        );
        assert_eq!(msgs.iter().filter(|m| m.is_2pc()).count(), 4);
        assert!(msgs.iter().all(|m| m.txn() == g));
    }
}

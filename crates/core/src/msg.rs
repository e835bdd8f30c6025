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

/// The counter labels of one message kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgKind {
    /// Charged once per send: `msg.<kind>`.
    pub sent: &'static str,
    /// Charged when the network loses the message at send time.
    pub dropped: &'static str,
    /// Charged when the destination has no route (threaded transport only),
    /// so injected loss and unreachability reconcile apart.
    pub unroutable: &'static str,
}

macro_rules! msg_kinds {
    ($($kind:literal),*) => {
        [$(MsgKind {
            sent: concat!("msg.", $kind),
            dropped: concat!("msg.dropped.", $kind),
            unroutable: concat!("msg.unroutable.", $kind),
        }),*]
    };
}

/// Every message kind, in `Msg` variant order.
pub static MSG_KINDS: [MsgKind; 8] = msg_kinds!(
    "spawn",
    "subtxn_ack",
    "vote_req",
    "vote",
    "decision",
    "decision_ack",
    "term_req",
    "term_answer"
);

impl Msg {
    /// This message's kind: the labels it is counted under, static so no
    /// send formats one.
    pub fn kind(&self) -> &'static MsgKind {
        &MSG_KINDS[match self {
            Msg::SpawnSubtxn { .. } => 0,
            Msg::SubtxnAck { .. } => 1,
            Msg::VoteReq { .. } => 2,
            Msg::VoteMsg { .. } => 3,
            Msg::Decision { .. } => 4,
            Msg::DecisionAck { .. } => 5,
            Msg::TermReq { .. } => 6,
            Msg::TermAnswer { .. } => 7,
        }]
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
    fn kinds_name_their_counters() {
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
            Msg::TermReq {
                txn: g,
                from: SiteId(0),
            },
            Msg::TermAnswer {
                txn: g,
                from: SiteId(0),
                state: PeerState::KnowsCommit,
            },
        ];
        let kinds: Vec<_> = msgs.iter().map(|m| *m.kind()).collect();
        assert_eq!(kinds, MSG_KINDS);
        assert_eq!(
            MSG_KINDS[5],
            MsgKind {
                sent: "msg.decision_ack",
                dropped: "msg.dropped.decision_ack",
                unroutable: "msg.unroutable.decision_ack",
            }
        );
        assert!(msgs.iter().all(|m| m.txn() == g));
    }
}

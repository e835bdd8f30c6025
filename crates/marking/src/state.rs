//! The Figure 2 marking state machine.
//!
//! With respect to one global transaction, a site moves between three
//! markings. Every transition is triggered either by a local event or by a
//! message that is already part of the 2PC protocol — the marking scheme
//! costs no extra messages.
//!
//! ```text
//!                 vote commit                decision: commit
//!   unmarked ────────────────► locally-committed ────────► unmarked
//!      │                              │
//!      │ vote abort                   │ decision: abort
//!      ▼                              ▼
//!    undone ◄─────────────────────────┘
//!      │
//!      │ UDUM (safe forgetting)
//!      ▼
//!   unmarked
//! ```

use o2pc_common::CommonError;
use std::fmt;

/// The marking of a site with respect to one global transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, PartialOrd, Ord)]
pub enum MarkState {
    /// No marking (initial state; also the terminal state after commit or
    /// after the undone marking is safely forgotten).
    #[default]
    Unmarked,
    /// The site voted to commit and (under O2PC) released the locks.
    LocallyCommitted,
    /// The site's subtransaction was rolled back / compensated.
    Undone,
}

/// Events driving the marking transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkEvent {
    /// The site votes to commit the transaction (response to VOTE-REQ).
    VoteCommit,
    /// The site votes to abort (the subtransaction is rolled back locally).
    VoteAbort,
    /// The coordinator's decision arrives: commit.
    DecisionCommit,
    /// The coordinator's decision arrives: abort (a locally-committed site
    /// initiates compensation and becomes undone once `CT_ik` completes).
    DecisionAbort,
    /// Condition UDUM1 detected: the undone marking may be forgotten.
    Udum,
}

impl MarkState {
    /// Apply one event, returning the next state, or an error for
    /// transitions Figure 2 does not contain.
    pub fn on_event(self, ev: MarkEvent) -> Result<MarkState, CommonError> {
        use MarkEvent::*;
        use MarkState::*;
        match (self, ev) {
            (Unmarked, VoteCommit) => Ok(LocallyCommitted),
            (Unmarked, VoteAbort) => Ok(Undone),
            (LocallyCommitted, DecisionCommit) => Ok(Unmarked),
            (LocallyCommitted, DecisionAbort) => Ok(Undone),
            // A site that voted abort learns the (inevitable) abort
            // decision: it stays undone.
            (Undone, DecisionAbort) => Ok(Undone),
            (Undone, Udum) => Ok(Unmarked),
            (state, ev) => Err(CommonError::IllegalTransition {
                exec: o2pc_common::ExecId::Sub(o2pc_common::GlobalTxnId(0)),
                attempted: illegal_name(state, ev),
            }),
        }
    }
}

fn illegal_name(state: MarkState, ev: MarkEvent) -> &'static str {
    match (state, ev) {
        (MarkState::Unmarked, MarkEvent::DecisionCommit) => "decision-commit while unmarked",
        (MarkState::Unmarked, MarkEvent::DecisionAbort) => "decision-abort while unmarked",
        (MarkState::Unmarked, MarkEvent::Udum) => "udum while unmarked",
        (MarkState::LocallyCommitted, MarkEvent::VoteCommit) => "double vote-commit",
        (MarkState::LocallyCommitted, MarkEvent::VoteAbort) => "vote-abort after vote-commit",
        (MarkState::LocallyCommitted, MarkEvent::Udum) => "udum while locally-committed",
        (MarkState::Undone, MarkEvent::VoteCommit) => "vote-commit while undone",
        (MarkState::Undone, MarkEvent::VoteAbort) => "double vote-abort",
        (MarkState::Undone, MarkEvent::DecisionCommit) => "decision-commit while undone",
        _ => "unexpected transition",
    }
}

impl fmt::Display for MarkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkState::Unmarked => write!(f, "unmarked"),
            MarkState::LocallyCommitted => write!(f, "locally-committed"),
            MarkState::Undone => write!(f, "undone"),
        }
    }
}

/// Enumerate the full transition table (used by the F2 figure binary).
pub fn transition_table() -> Vec<(MarkState, MarkEvent, Result<MarkState, &'static str>)> {
    use MarkEvent::*;
    use MarkState::*;
    let states = [Unmarked, LocallyCommitted, Undone];
    let events = [VoteCommit, VoteAbort, DecisionCommit, DecisionAbort, Udum];
    let mut table = Vec::new();
    for &s in &states {
        for &e in &events {
            let r = s.on_event(e).map_err(|_| illegal_name(s, e));
            table.push((s, e, r));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use MarkEvent::*;
    use MarkState::*;

    #[test]
    fn commit_path() {
        let s = Unmarked.on_event(VoteCommit).unwrap();
        assert_eq!(s, LocallyCommitted);
        assert_eq!(s.on_event(DecisionCommit).unwrap(), Unmarked);
    }

    #[test]
    fn abort_after_local_commit_path() {
        let s = Unmarked.on_event(VoteCommit).unwrap();
        let s = s.on_event(DecisionAbort).unwrap();
        assert_eq!(s, Undone);
        assert_eq!(s.on_event(Udum).unwrap(), Unmarked);
    }

    #[test]
    fn vote_abort_path() {
        let s = Unmarked.on_event(VoteAbort).unwrap();
        assert_eq!(s, Undone);
        // The abort decision is redundant for a site that voted no.
        assert_eq!(s.on_event(DecisionAbort).unwrap(), Undone);
        assert_eq!(s.on_event(Udum).unwrap(), Unmarked);
    }

    #[test]
    fn illegal_transitions_rejected() {
        assert!(Unmarked.on_event(DecisionCommit).is_err());
        assert!(Unmarked.on_event(Udum).is_err());
        assert!(LocallyCommitted.on_event(VoteCommit).is_err());
        assert!(LocallyCommitted.on_event(Udum).is_err());
        assert!(Undone.on_event(DecisionCommit).is_err());
        assert!(Undone.on_event(VoteCommit).is_err());
    }

    #[test]
    fn table_is_exhaustive() {
        let table = transition_table();
        assert_eq!(table.len(), 15);
        let legal = table.iter().filter(|(_, _, r)| r.is_ok()).count();
        assert_eq!(legal, 6, "Figure 2 has exactly six transitions");
    }

    #[test]
    fn display() {
        assert_eq!(Unmarked.to_string(), "unmarked");
        assert_eq!(LocallyCommitted.to_string(), "locally-committed");
        assert_eq!(Undone.to_string(), "undone");
    }
}

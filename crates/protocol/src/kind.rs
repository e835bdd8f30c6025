//! Protocol variants and their policy table.

use o2pc_marking::MarkingProtocol;
use o2pc_site::LockPolicy;
use std::fmt;

/// The commit-protocol variants the suite evaluates against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Distributed 2PL + standard 2PC: read locks released at VOTE-REQ,
    /// write locks held until the DECISION message (the paper's baseline
    /// and the source of the blocking problem).
    D2pl2pc,
    /// Bare O2PC: all locks released at the commit vote, aborts compensated;
    /// no admission restriction — regular cycles are possible (§4).
    #[default]
    O2pc,
    /// O2PC complemented by protocol P1 (enforces stratification S1).
    O2pcP1,
    /// O2PC complemented by protocol P2 (enforces stratification S2).
    O2pcP2,
    /// O2PC with the "simple" §6.2 restriction (strictest, least concurrency).
    O2pcSimple,
}

impl ProtocolKind {
    /// What a *yes* vote does with the participant's locks.
    pub fn lock_policy(self) -> LockPolicy {
        match self {
            ProtocolKind::D2pl2pc => LockPolicy::HoldWrites,
            _ => LockPolicy::ReleaseAll,
        }
    }

    /// The marking (admission) protocol complementing the commit protocol,
    /// if any: 2PL-2PC and bare O2PC mark nothing.
    pub fn marking(self) -> Option<MarkingProtocol> {
        match self {
            ProtocolKind::D2pl2pc | ProtocolKind::O2pc => None,
            ProtocolKind::O2pcP1 => Some(MarkingProtocol::P1),
            ProtocolKind::O2pcP2 => Some(MarkingProtocol::P2),
            ProtocolKind::O2pcSimple => Some(MarkingProtocol::Simple),
        }
    }

    /// All variants (sweep helpers).
    pub fn all() -> [ProtocolKind; 5] {
        [
            ProtocolKind::D2pl2pc,
            ProtocolKind::O2pc,
            ProtocolKind::O2pcP1,
            ProtocolKind::O2pcP2,
            ProtocolKind::O2pcSimple,
        ]
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::D2pl2pc => write!(f, "2PL-2PC"),
            ProtocolKind::O2pc => write!(f, "O2PC"),
            ProtocolKind::O2pcP1 => write!(f, "O2PC+P1"),
            ProtocolKind::O2pcP2 => write!(f, "O2PC+P2"),
            ProtocolKind::O2pcSimple => write!(f, "O2PC+Simple"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table() {
        assert_eq!(ProtocolKind::D2pl2pc.lock_policy(), LockPolicy::HoldWrites);
        assert_eq!(ProtocolKind::O2pc.lock_policy(), LockPolicy::ReleaseAll);
        assert_eq!(ProtocolKind::O2pcP1.lock_policy(), LockPolicy::ReleaseAll);
        assert_eq!(ProtocolKind::D2pl2pc.marking(), None);
        assert_eq!(ProtocolKind::O2pc.marking(), None);
        assert_eq!(ProtocolKind::O2pcP1.marking(), Some(MarkingProtocol::P1));
        assert_eq!(ProtocolKind::O2pcP2.marking(), Some(MarkingProtocol::P2));
        let simple = ProtocolKind::O2pcSimple.marking();
        assert_eq!(simple, Some(MarkingProtocol::Simple));
        assert_eq!(ProtocolKind::all().len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolKind::D2pl2pc.to_string(), "2PL-2PC");
        assert_eq!(ProtocolKind::O2pcP1.to_string(), "O2PC+P1");
    }
}

//! Identifiers for sites and transactions.
//!
//! The paper distinguishes four kinds of transactional entities (§3.1, §3.2):
//!
//! * a **global transaction** `T_i` spanning two or more sites,
//! * its **local subtransactions** `T_ij` (one per site `S_j`),
//! * the **compensating transaction** `CT_i` with subtransactions `CT_ij`,
//! * independent **local transactions** `L`.
//!
//! Serialization graphs are drawn over `T_i`, `CT_i` and `L` nodes — subtxns
//! are folded into their parent — so [`TxnId`] carries exactly those three
//! variants. Per-site executors additionally need a handle for *which body of
//! work at this site* holds locks; that is [`ExecId`].

use std::fmt;

/// Identifier of a database site (one autonomous local DBMS).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Index usable for dense per-site arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifier of a global (multi-site) transaction `T_i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalTxnId(pub u64);

impl fmt::Debug for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of an independent local transaction at one site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalTxnId {
    /// Site the transaction runs at.
    pub site: SiteId,
    /// Per-site sequence number.
    pub seq: u64,
}

impl fmt::Debug for LocalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}.{}", self.site.0, self.seq)
    }
}

impl fmt::Display for LocalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A node of the (extended) serialization graph: a regular global transaction
/// `T_i`, its compensating transaction `CT_i`, or a local transaction.
///
/// Standard log roll-back of a subtransaction at a site that voted *abort* is
/// modelled, per the paper, "as a special case of a compensating transaction",
/// so both actual compensation and automatic roll-back appear under
/// [`TxnId::Compensation`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnId {
    /// A regular global transaction `T_i`.
    Global(GlobalTxnId),
    /// The compensating transaction `CT_i` for global transaction `T_i`.
    Compensation(GlobalTxnId),
    /// An independent local transaction.
    Local(LocalTxnId),
}

impl TxnId {
    /// Is this a regular (non-compensating) *global* transaction?
    #[inline]
    pub fn is_regular_global(self) -> bool {
        matches!(self, TxnId::Global(_))
    }

    /// Is this a compensating transaction (including modelled roll-backs)?
    #[inline]
    pub fn is_compensation(self) -> bool {
        matches!(self, TxnId::Compensation(_))
    }

    /// The global transaction this node concerns, if any (`T_i` for both
    /// `Global(i)` and `Compensation(i)`).
    #[inline]
    pub fn global_id(self) -> Option<GlobalTxnId> {
        match self {
            TxnId::Global(g) | TxnId::Compensation(g) => Some(g),
            TxnId::Local(_) => None,
        }
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnId::Global(g) => write!(f, "{g}"),
            TxnId::Compensation(g) => write!(f, "CT{}", g.0),
            TxnId::Local(l) => write!(f, "{l}"),
        }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<GlobalTxnId> for TxnId {
    fn from(g: GlobalTxnId) -> Self {
        TxnId::Global(g)
    }
}

impl From<LocalTxnId> for TxnId {
    fn from(l: LocalTxnId) -> Self {
        TxnId::Local(l)
    }
}

/// Handle for one lock-holding execution at one site.
///
/// At a single site, the entities that acquire locks are: a subtransaction
/// `T_ij`, a compensating subtransaction `CT_ij`, or a local transaction.
/// With respect to locking, the paper treats `CT_ij` "as local transactions
/// rather than as subtransactions of global transactions" (§3.2) — i.e. each
/// follows strict 2PL *on its own* — which this handle makes structural.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExecId {
    /// Subtransaction `T_ij` of global transaction `T_i` (site implied by context).
    Sub(GlobalTxnId),
    /// Compensating subtransaction `CT_ij`.
    CompSub(GlobalTxnId),
    /// Independent local transaction.
    Local(LocalTxnId),
}

impl ExecId {
    /// The SG node this execution contributes conflicts to.
    #[inline]
    pub fn txn_id(self) -> TxnId {
        match self {
            ExecId::Sub(g) => TxnId::Global(g),
            ExecId::CompSub(g) => TxnId::Compensation(g),
            ExecId::Local(l) => TxnId::Local(l),
        }
    }

    /// Is this a compensating subtransaction?
    #[inline]
    pub fn is_comp(self) -> bool {
        matches!(self, ExecId::CompSub(_))
    }
}

impl fmt::Display for ExecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecId::Sub(g) => write!(f, "sub({g})"),
            ExecId::CompSub(g) => write!(f, "csub({g})"),
            ExecId::Local(l) => write!(f, "{l}"),
        }
    }
}

/// Monotonic generator for [`GlobalTxnId`]s.
#[derive(Debug, Default)]
pub struct GlobalTxnIdGen {
    next: u64,
}

impl GlobalTxnIdGen {
    /// Create a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next id.
    pub fn next_id(&mut self) -> GlobalTxnId {
        let id = GlobalTxnId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_classification() {
        let g = GlobalTxnId(7);
        assert!(TxnId::Global(g).is_regular_global());
        assert!(!TxnId::Global(g).is_compensation());
        assert!(TxnId::Compensation(g).is_compensation());
        assert!(!TxnId::Compensation(g).is_regular_global());
        let l = LocalTxnId {
            site: SiteId(1),
            seq: 3,
        };
        assert_eq!(TxnId::Local(l).global_id(), None);
        assert_eq!(TxnId::Global(g).global_id(), Some(g));
        assert_eq!(TxnId::Compensation(g).global_id(), Some(g));
    }

    #[test]
    fn exec_id_maps_to_sg_node() {
        let g = GlobalTxnId(2);
        assert_eq!(ExecId::Sub(g).txn_id(), TxnId::Global(g));
        assert_eq!(ExecId::CompSub(g).txn_id(), TxnId::Compensation(g));
        let l = LocalTxnId {
            site: SiteId(0),
            seq: 1,
        };
        assert_eq!(ExecId::Local(l).txn_id(), TxnId::Local(l));
        assert!(ExecId::CompSub(g).is_comp());
    }

    #[test]
    fn display_formats() {
        let g = GlobalTxnId(4);
        assert_eq!(format!("{}", TxnId::Global(g)), "T4");
        assert_eq!(format!("{}", TxnId::Compensation(g)), "CT4");
        let l = LocalTxnId {
            site: SiteId(2),
            seq: 9,
        };
        assert_eq!(format!("{}", TxnId::Local(l)), "L2.9");
        assert_eq!(format!("{}", SiteId(3)), "S3");
    }

    #[test]
    fn id_generator_is_monotonic() {
        let mut g = GlobalTxnIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert!(a < b);
        assert_eq!(a, GlobalTxnId(0));
        assert_eq!(b, GlobalTxnId(1));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = [
            TxnId::Local(LocalTxnId {
                site: SiteId(1),
                seq: 0,
            }),
            TxnId::Global(GlobalTxnId(1)),
            TxnId::Compensation(GlobalTxnId(0)),
            TxnId::Global(GlobalTxnId(0)),
        ];
        v.sort();
        // Globals sort before compensations before locals (enum order).
        assert_eq!(v[0], TxnId::Global(GlobalTxnId(0)));
        assert_eq!(v[1], TxnId::Global(GlobalTxnId(1)));
        assert_eq!(v[2], TxnId::Compensation(GlobalTxnId(0)));
    }
}

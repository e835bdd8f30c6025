//! The operation repertoire.
//!
//! Two decomposition models coexist, mirroring §3.1 of the paper:
//!
//! * **Generic model** — arbitrary [`Op::Read`] / [`Op::Write`] sequences; a
//!   write's compensation is the restoration of its before-image.
//! * **Restricted model** — semantically coherent operations with natural
//!   inverses: [`Op::Add`] (compensated by `Add(-d)`), [`Op::Insert`] /
//!   [`Op::Delete`] (compensating each other), and [`Op::Reserve`] /
//!   [`Op::Release`] (bounded inventory decrement/increment; `Reserve` on an
//!   exhausted item *fails*, which is the organic cause for a site voting to
//!   abort a global transaction).

use crate::value::{Key, Value};
use std::fmt;
use std::sync::Arc;

/// A transaction program: the operations one (sub)transaction runs, in
/// order. Nothing rewrites a program once it is built, so it is shared by
/// reference count: a request's clone, the SPAWN message that ships it and
/// the site's execution that runs it all hold the one allocation.
pub type Program = Arc<[Op]>;

/// Lock mode an operation requires on its item.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessMode {
    /// Shared (read) access.
    Read,
    /// Exclusive (write) access.
    Write,
}

impl AccessMode {
    /// Do two accesses on the same item conflict (at least one exclusive)?
    #[inline]
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        !(self == AccessMode::Read && other == AccessMode::Read)
    }
}

/// Coarse classification of an operation, used by history recording and the
/// serialization-graph builder.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Pure read.
    Read,
    /// Any state-mutating operation.
    Write,
}

/// One operation against a single data item at a single site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Read the item's current value.
    Read(Key),
    /// Overwrite the item with an absolute value (generic model).
    Write(Key, Value),
    /// Add a signed delta to the item (restricted model, commutative).
    Add(Key, i64),
    /// Create the item with an initial value; fails if it already exists.
    Insert(Key, Value),
    /// Remove the item; fails if absent.
    Delete(Key),
    /// Decrement a non-negative inventory item by `n`; **fails** if fewer
    /// than `n` units remain. Failure aborts the surrounding (sub)transaction.
    Reserve(Key, u32),
    /// Return `n` units to an inventory item (inverse of [`Op::Reserve`]).
    Release(Key, u32),
}

impl Op {
    /// The item this operation touches.
    #[inline]
    pub fn key(&self) -> Key {
        match *self {
            Op::Read(k)
            | Op::Write(k, _)
            | Op::Add(k, _)
            | Op::Insert(k, _)
            | Op::Delete(k)
            | Op::Reserve(k, _)
            | Op::Release(k, _) => k,
        }
    }

    /// The lock mode the operation needs.
    #[inline]
    pub fn access_mode(&self) -> AccessMode {
        match self {
            Op::Read(_) => AccessMode::Read,
            _ => AccessMode::Write,
        }
    }

    /// Read/write classification for conflict derivation.
    #[inline]
    pub fn kind(&self) -> OpKind {
        match self.access_mode() {
            AccessMode::Read => OpKind::Read,
            AccessMode::Write => OpKind::Write,
        }
    }

    /// Does the operation belong to the restricted (semantic) repertoire,
    /// i.e. does it have a registered inverse independent of before-images?
    #[inline]
    pub fn is_semantic(&self) -> bool {
        matches!(
            self,
            Op::Add(..) | Op::Insert(..) | Op::Delete(..) | Op::Reserve(..) | Op::Release(..)
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(k) => write!(f, "r[{k}]"),
            Op::Write(k, v) => write!(f, "w[{k}={v}]"),
            Op::Add(k, d) => write!(f, "add[{k}{d:+}]"),
            Op::Insert(k, v) => write!(f, "ins[{k}={v}]"),
            Op::Delete(k) => write!(f, "del[{k}]"),
            Op::Reserve(k, n) => write!(f, "rsv[{k}x{n}]"),
            Op::Release(k, n) => write!(f, "rel[{k}x{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_modes() {
        assert_eq!(Op::Read(Key(1)).access_mode(), AccessMode::Read);
        for op in [
            Op::Write(Key(1), Value(2)),
            Op::Add(Key(1), -4),
            Op::Insert(Key(1), Value(0)),
            Op::Delete(Key(1)),
            Op::Reserve(Key(1), 2),
            Op::Release(Key(1), 2),
        ] {
            assert_eq!(op.access_mode(), AccessMode::Write, "{op}");
            assert_eq!(op.kind(), OpKind::Write);
        }
        assert_eq!(Op::Read(Key(1)).kind(), OpKind::Read);
    }

    #[test]
    fn conflict_matrix() {
        use AccessMode::*;
        assert!(!Read.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
    }

    #[test]
    fn semantic_classification() {
        assert!(!Op::Read(Key(0)).is_semantic());
        assert!(!Op::Write(Key(0), Value(1)).is_semantic());
        assert!(Op::Add(Key(0), 1).is_semantic());
        assert!(Op::Reserve(Key(0), 1).is_semantic());
    }

    #[test]
    fn keys_and_display() {
        assert_eq!(Op::Add(Key(9), 5).key(), Key(9));
        assert_eq!(format!("{}", Op::Add(Key(9), 5)), "add[k9+5]");
        assert_eq!(format!("{}", Op::Add(Key(9), -5)), "add[k9-5]");
        assert_eq!(format!("{}", Op::Reserve(Key(2), 3)), "rsv[k2x3]");
    }
}

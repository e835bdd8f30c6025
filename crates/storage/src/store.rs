//! In-place key/value store with per-execution undo tracking.
//!
//! Writes are applied in place under the protection of the lock manager
//! (strict 2PL makes in-place updates safe: no other execution can observe an
//! uncommitted value unless the protocol deliberately released the locks, as
//! O2PC does at local commit). Each mutating operation appends the item's
//! before-image to the execution's undo list and the semantic operation to its
//! op log; [`Store::rollback`] restores before-images in reverse order, and
//! [`Store::commit`] returns a [`CommitRecord`] so the compensation layer can
//! later undo the execution *semantically*.

use o2pc_common::FastHashMap;
use o2pc_common::{CommonError, ExecId, Key, Op, Result, Value};
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// Deduplicate keys drawn from undo records, preserving first-occurrence
/// order. Hash-set membership keeps this linear — compensation planning
/// calls it per commit, so the old `Vec::contains` scan was quadratic in
/// the write-set size.
fn dedup_keys<'a>(undo: impl Iterator<Item = &'a UndoRecord>) -> Vec<Key> {
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    for u in undo {
        if seen.insert(u.key) {
            keys.push(u.key);
        }
    }
    keys
}

/// Before-image of one mutation (`None` = the key did not exist).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndoRecord {
    /// Item mutated.
    pub key: Key,
    /// Value before the mutation (`None` if the key was absent).
    pub before: Option<Value>,
    /// Value after the mutation (`None` if the mutation deleted the key).
    pub after: Option<Value>,
}

/// Everything retained about a (locally) committed execution that later
/// compensation may need: before-images (generic model) and the semantic op
/// log (restricted model).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitRecord {
    /// Before-images in execution order.
    pub undo: Vec<UndoRecord>,
    /// All operations the execution performed, in order (reads included, so
    /// the record doubles as an audit trail).
    pub ops: Vec<Op>,
}

impl CommitRecord {
    /// Keys written by the execution (deduplicated, in first-write order).
    pub fn write_set(&self) -> Vec<Key> {
        dedup_keys(self.undo.iter())
    }
}

/// The per-site store.
#[derive(Clone, Debug, Default)]
pub struct Store {
    items: FastHashMap<Key, Value>,
    undo: FastHashMap<ExecId, Vec<UndoRecord>>,
    ops: FastHashMap<ExecId, Vec<Op>>,
}

impl Store {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-load an item (used by workload setup, bypasses logging).
    pub fn load(&mut self, key: Key, value: Value) {
        self.items.insert(key, value);
    }

    /// Current value of an item.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.items.get(&key).copied()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate items in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.items.iter().map(|(&k, &v)| (k, v))
    }

    /// Sum of all values (workload invariant checks).
    pub fn total(&self) -> i64 {
        self.items.values().map(|v| v.0).sum()
    }

    /// Is the execution known to the store (has it performed any mutation)?
    pub fn has_pending(&self, exec: ExecId) -> bool {
        self.undo.contains_key(&exec)
    }

    fn log_mutation(&mut self, exec: ExecId, rec: UndoRecord, op: Op) {
        self.undo.entry(exec).or_default().push(rec);
        self.ops.entry(exec).or_default().push(op);
    }

    /// Apply one operation on behalf of `exec`. Locking must already have
    /// been granted by the caller. Returns the value read for `Op::Read`,
    /// `None` for mutations.
    ///
    /// Conditional semantic operations fail *without* mutating state:
    /// `Reserve` on insufficient stock, `Insert` of an existing key,
    /// `Delete`/`Add`/`Reserve`/`Release` of a missing key. A failed
    /// operation aborts nothing by itself — the caller decides (a site votes
    /// *abort* for the surrounding global transaction; a local transaction
    /// rolls back).
    pub fn apply(&mut self, exec: ExecId, op: Op) -> Result<Option<Value>> {
        match op {
            Op::Read(k) => {
                let v = self
                    .items
                    .get(&k)
                    .copied()
                    .ok_or(CommonError::KeyNotFound(k))?;
                self.ops.entry(exec).or_default().push(op);
                Ok(Some(v))
            }
            Op::Write(k, v) => {
                let before = self.items.insert(k, v);
                self.log_mutation(
                    exec,
                    UndoRecord {
                        key: k,
                        before,
                        after: Some(v),
                    },
                    op,
                );
                Ok(None)
            }
            Op::Add(k, d) => {
                let cur = self.items.get_mut(&k).ok_or(CommonError::KeyNotFound(k))?;
                let next = cur.checked_add(d).ok_or(CommonError::ConstraintViolated {
                    key: k,
                    reason: "counter overflow",
                })?;
                let before = Some(*cur);
                *cur = next;
                self.log_mutation(
                    exec,
                    UndoRecord {
                        key: k,
                        before,
                        after: Some(next),
                    },
                    op,
                );
                Ok(None)
            }
            Op::Insert(k, v) => match self.items.entry(k) {
                Entry::Occupied(_) => Err(CommonError::KeyExists(k)),
                Entry::Vacant(e) => {
                    e.insert(v);
                    self.log_mutation(
                        exec,
                        UndoRecord {
                            key: k,
                            before: None,
                            after: Some(v),
                        },
                        op,
                    );
                    Ok(None)
                }
            },
            Op::Delete(k) => {
                let before = self.items.remove(&k).ok_or(CommonError::KeyNotFound(k))?;
                self.log_mutation(
                    exec,
                    UndoRecord {
                        key: k,
                        before: Some(before),
                        after: None,
                    },
                    op,
                );
                Ok(None)
            }
            Op::Reserve(k, n) => {
                let cur = self.items.get_mut(&k).ok_or(CommonError::KeyNotFound(k))?;
                if cur.0 < n as i64 {
                    return Err(CommonError::ConstraintViolated {
                        key: k,
                        reason: "insufficient units to reserve",
                    });
                }
                let before = Some(*cur);
                cur.0 -= n as i64;
                let after = Some(*cur);
                self.log_mutation(
                    exec,
                    UndoRecord {
                        key: k,
                        before,
                        after,
                    },
                    op,
                );
                Ok(None)
            }
            Op::Release(k, n) => {
                let cur = self.items.get_mut(&k).ok_or(CommonError::KeyNotFound(k))?;
                let before = Some(*cur);
                cur.0 += n as i64;
                let after = Some(*cur);
                self.log_mutation(
                    exec,
                    UndoRecord {
                        key: k,
                        before,
                        after,
                    },
                    op,
                );
                Ok(None)
            }
        }
    }

    /// Roll back all of `exec`'s mutations from the undo list, newest first.
    /// Returns the undo records applied (the caller records them in the
    /// history as writes of the *compensating* transaction, per §3.2).
    pub fn rollback(&mut self, exec: ExecId) -> Vec<UndoRecord> {
        let undo = self.undo.remove(&exec).unwrap_or_default();
        self.ops.remove(&exec);
        for rec in undo.iter().rev() {
            match rec.before {
                Some(v) => {
                    self.items.insert(rec.key, v);
                }
                None => {
                    self.items.remove(&rec.key);
                }
            }
        }
        undo
    }

    /// Commit `exec`: drop its undo obligation and hand the retained images
    /// and op log to the caller (who may keep them for compensation).
    pub fn commit(&mut self, exec: ExecId) -> CommitRecord {
        CommitRecord {
            undo: self.undo.remove(&exec).unwrap_or_default(),
            ops: self.ops.remove(&exec).unwrap_or_default(),
        }
    }

    /// Re-register an execution's undo obligation after crash recovery (a
    /// *prepared* subtransaction's updates survive, but a later abort
    /// decision must still be able to roll them back).
    pub fn restore_pending(&mut self, exec: ExecId, undo: Vec<UndoRecord>) {
        debug_assert!(!self.undo.contains_key(&exec));
        self.undo.insert(exec, undo);
    }

    /// The most recent undo record of an active execution (what the last
    /// mutating `apply` logged) — the WAL layer appends it after each write.
    pub fn last_undo(&self, exec: ExecId) -> Option<&UndoRecord> {
        self.undo.get(&exec).and_then(|v| v.last())
    }

    /// An active execution's undo list, oldest first (empty when it has
    /// written nothing) — what a checkpoint carries for it.
    pub fn pending_undo(&self, exec: ExecId) -> &[UndoRecord] {
        self.undo.get(&exec).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::GlobalTxnId;

    fn exec(i: u64) -> ExecId {
        ExecId::Sub(GlobalTxnId(i))
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = Store::new();
        s.load(Key(1), Value(10));
        assert_eq!(s.apply(exec(0), Op::Read(Key(1))).unwrap(), Some(Value(10)));
        s.apply(exec(0), Op::Write(Key(1), Value(20))).unwrap();
        assert_eq!(s.get(Key(1)), Some(Value(20)));
        assert_eq!(s.apply(exec(0), Op::Read(Key(1))).unwrap(), Some(Value(20)));
    }

    #[test]
    fn read_missing_key_fails_without_logging() {
        let mut s = Store::new();
        assert_eq!(
            s.apply(exec(0), Op::Read(Key(9))),
            Err(CommonError::KeyNotFound(Key(9)))
        );
        assert!(!s.has_pending(exec(0)));
    }

    #[test]
    fn rollback_restores_before_images_in_reverse() {
        let mut s = Store::new();
        s.load(Key(1), Value(10));
        s.apply(exec(0), Op::Write(Key(1), Value(20))).unwrap();
        s.apply(exec(0), Op::Write(Key(1), Value(30))).unwrap();
        s.apply(exec(0), Op::Insert(Key(2), Value(5))).unwrap();
        let undo = s.rollback(exec(0));
        assert_eq!(undo.len(), 3);
        assert_eq!(s.get(Key(1)), Some(Value(10)));
        assert_eq!(s.get(Key(2)), None, "inserted key removed on rollback");
        assert!(!s.has_pending(exec(0)));
    }

    #[test]
    fn rollback_of_delete_restores_item() {
        let mut s = Store::new();
        s.load(Key(3), Value(7));
        s.apply(exec(1), Op::Delete(Key(3))).unwrap();
        assert_eq!(s.get(Key(3)), None);
        s.rollback(exec(1));
        assert_eq!(s.get(Key(3)), Some(Value(7)));
    }

    #[test]
    fn commit_returns_record_and_clears_state() {
        let mut s = Store::new();
        s.load(Key(1), Value(0));
        s.apply(exec(2), Op::Add(Key(1), 5)).unwrap();
        s.apply(exec(2), Op::Read(Key(1))).unwrap();
        s.apply(exec(2), Op::Add(Key(1), -2)).unwrap();
        let rec = s.commit(exec(2));
        assert_eq!(rec.undo.len(), 2);
        assert_eq!(rec.ops.len(), 3, "reads are retained in the op log");
        assert_eq!(rec.write_set(), vec![Key(1)]);
        assert!(!s.has_pending(exec(2)));
        assert_eq!(s.get(Key(1)), Some(Value(3)));
    }

    #[test]
    fn add_on_missing_key_fails() {
        let mut s = Store::new();
        assert_eq!(
            s.apply(exec(0), Op::Add(Key(1), 1)),
            Err(CommonError::KeyNotFound(Key(1)))
        );
    }

    #[test]
    fn add_overflow_fails_cleanly() {
        let mut s = Store::new();
        s.load(Key(1), Value(i64::MAX));
        let r = s.apply(exec(0), Op::Add(Key(1), 1));
        assert!(matches!(r, Err(CommonError::ConstraintViolated { .. })));
        assert_eq!(
            s.get(Key(1)),
            Some(Value(i64::MAX)),
            "failed op must not mutate"
        );
    }

    #[test]
    fn insert_existing_fails() {
        let mut s = Store::new();
        s.load(Key(1), Value(1));
        assert_eq!(
            s.apply(exec(0), Op::Insert(Key(1), Value(2))),
            Err(CommonError::KeyExists(Key(1)))
        );
        assert_eq!(s.get(Key(1)), Some(Value(1)));
    }

    #[test]
    fn reserve_and_release() {
        let mut s = Store::new();
        s.load(Key(1), Value(3));
        s.apply(exec(0), Op::Reserve(Key(1), 2)).unwrap();
        assert_eq!(s.get(Key(1)), Some(Value(1)));
        // Over-reserving fails without mutation.
        let r = s.apply(exec(0), Op::Reserve(Key(1), 5));
        assert!(matches!(r, Err(CommonError::ConstraintViolated { .. })));
        assert_eq!(s.get(Key(1)), Some(Value(1)));
        s.apply(exec(0), Op::Release(Key(1), 2)).unwrap();
        assert_eq!(s.get(Key(1)), Some(Value(3)));
    }

    #[test]
    fn reserve_failure_then_rollback_restores_partial_work() {
        let mut s = Store::new();
        s.load(Key(1), Value(2));
        s.load(Key(2), Value(0));
        s.apply(exec(0), Op::Reserve(Key(1), 2)).unwrap();
        assert!(s.apply(exec(0), Op::Reserve(Key(2), 1)).is_err());
        s.rollback(exec(0));
        assert_eq!(s.get(Key(1)), Some(Value(2)));
        assert_eq!(s.get(Key(2)), Some(Value(0)));
    }

    #[test]
    fn independent_executions_do_not_interfere() {
        let mut s = Store::new();
        s.load(Key(1), Value(0));
        s.load(Key(2), Value(0));
        s.apply(exec(1), Op::Add(Key(1), 10)).unwrap();
        s.apply(exec(2), Op::Add(Key(2), 20)).unwrap();
        s.rollback(exec(1));
        assert_eq!(s.get(Key(1)), Some(Value(0)));
        assert_eq!(s.get(Key(2)), Some(Value(20)), "other execution unaffected");
        let rec = s.commit(exec(2));
        assert_eq!(rec.undo.len(), 1);
    }

    #[test]
    fn total_counts_dirty_values() {
        let mut s = Store::new();
        s.load(Key(1), Value(5));
        s.load(Key(2), Value(7));
        assert_eq!(s.total(), 12);
        s.apply(exec(0), Op::Add(Key(1), 1)).unwrap();
        s.apply(exec(0), Op::Add(Key(1), 1)).unwrap();
        s.apply(exec(0), Op::Add(Key(2), 1)).unwrap();
        assert_eq!(s.total(), 15);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn rollback_unknown_exec_is_noop() {
        let mut s = Store::new();
        s.load(Key(1), Value(1));
        let undo = s.rollback(exec(42));
        assert!(undo.is_empty());
        assert_eq!(s.get(Key(1)), Some(Value(1)));
    }
}

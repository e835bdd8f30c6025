//! Building compensating operation sequences from commit records.

use o2pc_common::{AccessMode, Key, Op, Program};
use o2pc_storage::{CommitRecord, UndoRecord};

/// Which §3.1 decomposition model governs compensation at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompensationModel {
    /// Semantic inverses per operation (counter-task supplied in advance,
    /// "e.g. a DELETE as compensation for an INSERT").
    #[default]
    Restricted,
    /// Before-image restoration of the whole write set.
    Generic,
}

/// The operations of one compensating subtransaction `CT_ij`, executed at
/// the site as an ordinary local transaction under strict 2PL. The plan is
/// its program: the execution that runs it shares the slice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompensationPlan {
    /// Operations in execution order.
    pub ops: Program,
}

impl CompensationPlan {
    /// Keys the plan writes (deduplicated, first-occurrence order).
    pub fn write_set(&self) -> Vec<Key> {
        let mut seen = std::collections::HashSet::new();
        let mut keys = Vec::new();
        for op in self.ops.iter() {
            let k = op.key();
            if seen.insert(k) {
                keys.push(k);
            }
        }
        keys
    }

    /// An empty plan (read-only forward subtransaction: nothing to undo).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Semantic inverse of one forward operation. `undo` is the before-image the
/// forward execution logged (present for every mutating op).
fn invert(op: &Op, undo: Option<&UndoRecord>) -> Option<Op> {
    match *op {
        Op::Read(_) => None,
        Op::Add(k, d) => Some(Op::Add(k, -d)),
        Op::Insert(k, _) => Some(Op::Delete(k)),
        Op::Delete(k) => {
            let before = undo
                .and_then(|u| u.before)
                .expect("delete logged a before-image");
            Some(Op::Insert(k, before))
        }
        Op::Reserve(k, n) => Some(Op::Release(k, n)),
        // Releasing units is compensated by taking them back. `Add` rather
        // than `Reserve` keeps persistence of compensation: a `Reserve`
        // could fail on insufficient stock, and a CT must never fail.
        Op::Release(k, n) => Some(Op::Add(k, -(n as i64))),
        // Absolute writes have no semantic inverse: fall back to restoring
        // the before-image (or deleting a freshly-created key).
        Op::Write(k, _) => match undo.and_then(|u| u.before) {
            Some(v) => Some(Op::Write(k, v)),
            None => Some(Op::Delete(k)),
        },
    }
}

/// Build the compensation plan for a (locally) committed forward
/// subtransaction whose effects are described by `record`.
///
/// Restricted model: inverses of the forward operations, in reverse order.
/// Generic model: before-images of the write set, in reverse order (the
/// oldest before-image of each key wins, since restores are replayed in
/// reverse).
pub fn plan_compensation(model: CompensationModel, record: &CommitRecord) -> CompensationPlan {
    match model {
        CompensationModel::Restricted => {
            // Inverses of the mutating ops, last first; the `j`-th mutation
            // logged the `j`-th undo record. Counting the mutations first
            // lets the plan fill its slice in one allocation.
            let is_write = |op: &&Op| op.access_mode() == AccessMode::Write;
            let writes = record.ops.iter().filter(is_write).count();
            let mut inverses = record
                .ops
                .iter()
                .rev()
                .filter(is_write)
                .zip((0..writes).rev())
                .filter_map(|(op, j)| invert(op, record.undo.get(j)));
            let ops = (0..writes)
                .map(|_| inverses.next().expect("every mutation has an inverse"))
                .collect();
            CompensationPlan { ops }
        }
        CompensationModel::Generic => {
            let ops = record
                .undo
                .iter()
                .rev()
                .map(|u| match u.before {
                    Some(v) => Op::Write(u.key, v),
                    None => Op::Delete(u.key),
                })
                .collect();
            CompensationPlan { ops }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{ExecId, GlobalTxnId, Value};
    use o2pc_storage::Store;

    fn exec(i: u64) -> ExecId {
        ExecId::Sub(GlobalTxnId(i))
    }

    fn run_forward(store: &mut Store, ops: &[Op]) -> CommitRecord {
        let e = exec(0);
        for op in ops {
            store.apply(e, *op).unwrap();
        }
        store.commit(e)
    }

    fn run_plan(store: &mut Store, plan: &CompensationPlan) {
        let e = ExecId::CompSub(GlobalTxnId(0));
        for op in plan.ops.iter() {
            store.apply(e, *op).unwrap();
        }
        store.commit(e);
    }

    #[test]
    fn restricted_add_inverts_exactly() {
        let mut s = Store::new();
        s.load(Key(1), Value(100));
        let rec = run_forward(&mut s, &[Op::Add(Key(1), 30), Op::Add(Key(1), -10)]);
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(*plan.ops, [Op::Add(Key(1), 10), Op::Add(Key(1), -30)]);
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(1)), Some(Value(100)));
    }

    #[test]
    fn restricted_add_commutes_with_interleaved_updates() {
        // The essence of semantic compensation: another transaction's delta
        // applied between T and CT survives compensation.
        let mut s = Store::new();
        s.load(Key(1), Value(100));
        let rec = run_forward(&mut s, &[Op::Add(Key(1), 50)]);
        // Interleaved independent update (read T's uncompensated value).
        s.apply(exec(9), Op::Add(Key(1), 7)).unwrap();
        s.commit(exec(9));
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(1)), Some(Value(107)), "interleaved +7 preserved");
    }

    #[test]
    fn generic_model_clobbers_interleaved_updates() {
        // Before-image restoration: the interleaved delta is lost — the
        // documented cost of the generic model.
        let mut s = Store::new();
        s.load(Key(1), Value(100));
        let rec = run_forward(&mut s, &[Op::Add(Key(1), 50)]);
        s.apply(exec(9), Op::Add(Key(1), 7)).unwrap();
        s.commit(exec(9));
        let plan = plan_compensation(CompensationModel::Generic, &rec);
        run_plan(&mut s, &plan);
        assert_eq!(
            s.get(Key(1)),
            Some(Value(100)),
            "before-image restored verbatim"
        );
    }

    #[test]
    fn insert_compensated_by_delete() {
        let mut s = Store::new();
        let rec = run_forward(&mut s, &[Op::Insert(Key(2), Value(5))]);
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(*plan.ops, [Op::Delete(Key(2))]);
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(2)), None);
    }

    #[test]
    fn delete_compensated_by_reinsert() {
        let mut s = Store::new();
        s.load(Key(3), Value(42));
        let rec = run_forward(&mut s, &[Op::Delete(Key(3))]);
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(*plan.ops, [Op::Insert(Key(3), Value(42))]);
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(3)), Some(Value(42)));
    }

    #[test]
    fn reserve_compensated_by_release() {
        let mut s = Store::new();
        s.load(Key(4), Value(10));
        let rec = run_forward(&mut s, &[Op::Reserve(Key(4), 3)]);
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(*plan.ops, [Op::Release(Key(4), 3)]);
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(4)), Some(Value(10)));
    }

    #[test]
    fn release_compensated_by_unconditional_take_back() {
        let mut s = Store::new();
        s.load(Key(4), Value(1));
        let rec = run_forward(&mut s, &[Op::Release(Key(4), 5)]);
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(
            *plan.ops,
            [Op::Add(Key(4), -5)],
            "Add, not Reserve: CTs may not fail"
        );
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(4)), Some(Value(1)));
    }

    #[test]
    fn absolute_write_falls_back_to_before_image() {
        let mut s = Store::new();
        s.load(Key(5), Value(1));
        let rec = run_forward(
            &mut s,
            &[Op::Write(Key(5), Value(2)), Op::Write(Key(5), Value(3))],
        );
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        // Reverse order: undo 3→2, then 2→1.
        assert_eq!(
            *plan.ops,
            [Op::Write(Key(5), Value(2)), Op::Write(Key(5), Value(1))]
        );
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(5)), Some(Value(1)));
    }

    #[test]
    fn reads_produce_no_compensation() {
        let mut s = Store::new();
        s.load(Key(1), Value(1));
        let rec = run_forward(&mut s, &[Op::Read(Key(1))]);
        for model in [CompensationModel::Restricted, CompensationModel::Generic] {
            let plan = plan_compensation(model, &rec);
            assert!(plan.is_empty(), "{model:?}");
        }
    }

    #[test]
    fn mixed_sequence_restores_in_reverse() {
        let mut s = Store::new();
        s.load(Key(1), Value(10));
        let rec = run_forward(
            &mut s,
            &[
                Op::Read(Key(1)),
                Op::Add(Key(1), 5),
                Op::Insert(Key(2), Value(1)),
                Op::Read(Key(2)),
                Op::Delete(Key(2)),
            ],
        );
        let plan = plan_compensation(CompensationModel::Restricted, &rec);
        assert_eq!(
            *plan.ops,
            [
                Op::Insert(Key(2), Value(1)),
                Op::Delete(Key(2)),
                Op::Add(Key(1), -5)
            ]
        );
        run_plan(&mut s, &plan);
        assert_eq!(s.get(Key(1)), Some(Value(10)));
        assert_eq!(s.get(Key(2)), None);
    }

    #[test]
    fn generic_plan_write_set_covers_forward_write_set() {
        // Theorem 2's premise: CT_i writes at least all items T_i wrote.
        let mut s = Store::new();
        s.load(Key(1), Value(0));
        s.load(Key(2), Value(0));
        let rec = run_forward(
            &mut s,
            &[Op::Add(Key(1), 1), Op::Add(Key(2), 2), Op::Read(Key(1))],
        );
        for model in [CompensationModel::Restricted, CompensationModel::Generic] {
            let plan = plan_compensation(model, &rec);
            let fw = rec.write_set();
            for k in &fw {
                assert!(plan.write_set().contains(k), "{model:?} misses {k}");
            }
        }
    }

    #[test]
    fn generic_multiple_writes_same_key_restores_oldest() {
        let mut s = Store::new();
        s.load(Key(1), Value(1));
        let rec = run_forward(&mut s, &[Op::Write(Key(1), Value(2)), Op::Add(Key(1), 10)]);
        let plan = plan_compensation(CompensationModel::Generic, &rec);
        run_plan(&mut s, &plan);
        assert_eq!(
            s.get(Key(1)),
            Some(Value(1)),
            "reverse replay lands on the oldest image"
        );
    }
}

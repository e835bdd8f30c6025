//! Property tests: compensation round-trips.
//!
//! * Restricted model, no interleaving: forward ⨟ compensation restores the
//!   exact initial state.
//! * Restricted model with interleaved commutative deltas: compensation
//!   preserves the interleaved work (semantic atomicity's raison d'être).
//! * Generic model, no interleaving: before-image restoration also restores
//!   the exact initial state.

use o2pc_common::{ExecId, GlobalTxnId, Key, Op, Value};
use o2pc_compensation::{plan_compensation, CompensationModel};
use o2pc_storage::Store;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum SemOp {
    Add(u8, i8),
    Insert(u8, i8),
    Delete(u8),
    Reserve(u8, u8),
    Release(u8, u8),
    Read(u8),
}

impl SemOp {
    fn to_op(&self) -> Op {
        match *self {
            SemOp::Add(k, d) => Op::Add(Key(k as u64), d as i64),
            SemOp::Insert(k, v) => Op::Insert(Key(k as u64), Value(v as i64)),
            SemOp::Delete(k) => Op::Delete(Key(k as u64)),
            SemOp::Reserve(k, n) => Op::Reserve(Key(k as u64), (n % 3) as u32),
            SemOp::Release(k, n) => Op::Release(Key(k as u64), (n % 3) as u32),
            SemOp::Read(k) => Op::Read(Key(k as u64)),
        }
    }
}

fn sem_op() -> impl Strategy<Value = SemOp> {
    prop_oneof![
        (0u8..5, any::<i8>()).prop_map(|(k, d)| SemOp::Add(k, d)),
        (5u8..8, any::<i8>()).prop_map(|(k, v)| SemOp::Insert(k, v)),
        (0u8..8).prop_map(SemOp::Delete),
        (0u8..5, 0u8..3).prop_map(|(k, n)| SemOp::Reserve(k, n)),
        (0u8..5, 0u8..3).prop_map(|(k, n)| SemOp::Release(k, n)),
        (0u8..5).prop_map(SemOp::Read),
    ]
}

fn seeded_store() -> Store {
    let mut s = Store::new();
    for k in 0..5u64 {
        s.load(Key(k), Value(10));
    }
    s
}

fn snapshot(s: &Store) -> BTreeMap<u64, i64> {
    s.iter().map(|(k, v)| (k.0, v.0)).collect()
}

/// Run the ops as a forward subtransaction; failed ops are skipped (the
/// engine would abort instead, but for round-trip purposes a skipped op just
/// doesn't enter the commit record).
fn run_forward(store: &mut Store, ops: &[SemOp]) -> o2pc_storage::CommitRecord {
    let e = ExecId::Sub(GlobalTxnId(1));
    for op in ops {
        let _ = store.apply(e, op.to_op());
    }
    store.commit(e)
}

fn run_compensation(store: &mut Store, model: CompensationModel, rec: &o2pc_storage::CommitRecord) {
    let plan = plan_compensation(model, rec);
    let e = ExecId::CompSub(GlobalTxnId(1));
    for op in plan.ops.iter() {
        // Persistence of compensation: inapplicable ops are skipped, exactly
        // as the site kernel does.
        let _ = store.apply(e, *op);
    }
    store.commit(e);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Uninterleaved restricted-model compensation is an exact inverse.
    #[test]
    fn restricted_roundtrip_exact(ops in prop::collection::vec(sem_op(), 0..25)) {
        let mut store = seeded_store();
        let before = snapshot(&store);
        let rec = run_forward(&mut store, &ops);
        run_compensation(&mut store, CompensationModel::Restricted, &rec);
        prop_assert_eq!(snapshot(&store), before);
    }

    /// Uninterleaved generic-model compensation is an exact inverse too.
    #[test]
    fn generic_roundtrip_exact(ops in prop::collection::vec(sem_op(), 0..25)) {
        let mut store = seeded_store();
        let before = snapshot(&store);
        let rec = run_forward(&mut store, &ops);
        run_compensation(&mut store, CompensationModel::Generic, &rec);
        prop_assert_eq!(snapshot(&store), before);
    }

    /// With an interleaved independent delta on a key the forward
    /// transaction only `Add`ed to, restricted compensation preserves the
    /// delta exactly.
    #[test]
    fn restricted_preserves_interleaved_deltas(
        deltas in prop::collection::vec((0u8..5, -20i8..20), 1..10),
        bump in 1i64..50,
    ) {
        let mut store = seeded_store();
        let ops: Vec<SemOp> = deltas.iter().map(|&(k, d)| SemOp::Add(k, d)).collect();
        let rec = run_forward(&mut store, &ops);
        // Interleaved independent transaction bumps key 0.
        let other = ExecId::Sub(GlobalTxnId(9));
        store.apply(other, Op::Add(Key(0), bump)).unwrap();
        store.commit(other);
        let with_bump = snapshot(&store);
        run_compensation(&mut store, CompensationModel::Restricted, &rec);
        // Compensation removed exactly the forward deltas: final = initial + bump.
        let mut expected = BTreeMap::new();
        for k in 0..5u64 {
            expected.insert(k, 10 + if k == 0 { bump } else { 0 });
        }
        prop_assert_eq!(snapshot(&store), expected);
        // And the bump itself was visible before compensation.
        prop_assert!(with_bump[&0] >= 10 + bump - 20 * 10);
    }
}

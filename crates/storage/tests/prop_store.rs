//! Property tests: the store against a reference model, and WAL recovery
//! against the live store state.

use o2pc_common::{ExecId, GlobalTxnId, Key, Op, Value};
use o2pc_storage::{CheckpointImage, LogRecord, Store, Wal};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Step {
    Apply { exec: u8, op: OpSpec },
    Commit { exec: u8 },
    Rollback { exec: u8 },
}

#[derive(Clone, Debug)]
enum OpSpec {
    Read(u8),
    Write(u8, i8),
    Add(u8, i8),
    Insert(u8, i8),
    Delete(u8),
    Reserve(u8, u8),
    Release(u8, u8),
}

impl OpSpec {
    fn to_op(&self) -> Op {
        match *self {
            OpSpec::Read(k) => Op::Read(Key(k as u64)),
            OpSpec::Write(k, v) => Op::Write(Key(k as u64), Value(v as i64)),
            OpSpec::Add(k, d) => Op::Add(Key(k as u64), d as i64),
            OpSpec::Insert(k, v) => Op::Insert(Key(k as u64), Value(v as i64)),
            OpSpec::Delete(k) => Op::Delete(Key(k as u64)),
            OpSpec::Reserve(k, n) => Op::Reserve(Key(k as u64), n as u32 % 4),
            OpSpec::Release(k, n) => Op::Release(Key(k as u64), n as u32 % 4),
        }
    }
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (0u8..6).prop_map(OpSpec::Read),
        (0u8..6, any::<i8>()).prop_map(|(k, v)| OpSpec::Write(k, v)),
        (0u8..6, any::<i8>()).prop_map(|(k, d)| OpSpec::Add(k, d)),
        (0u8..6, any::<i8>()).prop_map(|(k, v)| OpSpec::Insert(k, v)),
        (0u8..6).prop_map(OpSpec::Delete),
        (0u8..6, 0u8..4).prop_map(|(k, n)| OpSpec::Reserve(k, n)),
        (0u8..6, 0u8..4).prop_map(|(k, n)| OpSpec::Release(k, n)),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..3, op_spec()).prop_map(|(exec, op)| Step::Apply { exec, op }),
        1 => (0u8..3).prop_map(|exec| Step::Commit { exec }),
        1 => (0u8..3).prop_map(|exec| Step::Rollback { exec }),
    ]
}

fn exec(i: u8) -> ExecId {
    ExecId::Sub(GlobalTxnId(i as u64))
}

/// Reference model: a plain map plus per-exec journals of inverse closures.
#[derive(Default)]
struct Model {
    items: HashMap<u64, i64>,
    journal: HashMap<u8, Vec<(u64, Option<i64>)>>, // (key, before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The store agrees with a simple reference model under arbitrary
    /// interleavings of apply/commit/rollback (per-exec serial semantics —
    /// concurrency control is the lock manager's job, not the store's).
    #[test]
    fn store_matches_reference_model(steps in prop::collection::vec(step(), 1..80)) {
        let mut store = Store::new();
        let mut model = Model::default();
        for k in 0..3u64 {
            store.load(Key(k), Value(5));
            model.items.insert(k, 5);
        }
        for s in &steps {
            match s {
                Step::Apply { exec: e, op } => {
                    let op = op.to_op();
                    let res = store.apply(exec(*e), op);
                    // Model the same operation.
                    let k = op.key().0;
                    let cur = model.items.get(&k).copied();
                    let model_result: Result<Option<i64>, ()> = match op {
                        Op::Read(_) => cur.map(Some).ok_or(()),
                        Op::Write(_, v) => Ok::<_, ()>(Some(v.0)).map(|_| None),
                        Op::Add(_, d) => match cur {
                            Some(c) => c.checked_add(d).map(|_| None).ok_or(()),
                            None => Err(()),
                        },
                        Op::Insert(_, _) if cur.is_some() => Err(()),
                        Op::Insert(_, _) => Ok(None),
                        Op::Delete(_) => cur.map(|_| None).ok_or(()),
                        Op::Reserve(_, n) => match cur {
                            Some(c) if c >= n as i64 => Ok(None),
                            _ => Err(()),
                        },
                        Op::Release(_, _) => cur.map(|_| None).ok_or(()),
                    };
                    match (&res, &model_result) {
                        (Ok(v), Ok(mv)) => {
                            prop_assert_eq!(v.map(|x| x.0), *mv);
                            // Apply the mutation to the model + journal.
                            match op {
                                Op::Read(_) => {}
                                Op::Write(_, v) => {
                                    model.journal.entry(*e).or_default().push((k, cur));
                                    model.items.insert(k, v.0);
                                }
                                Op::Add(_, d) => {
                                    model.journal.entry(*e).or_default().push((k, cur));
                                    model.items.insert(k, cur.unwrap() + d);
                                }
                                Op::Insert(_, v) => {
                                    model.journal.entry(*e).or_default().push((k, None));
                                    model.items.insert(k, v.0);
                                }
                                Op::Delete(_) => {
                                    model.journal.entry(*e).or_default().push((k, cur));
                                    model.items.remove(&k);
                                }
                                Op::Reserve(_, n) => {
                                    model.journal.entry(*e).or_default().push((k, cur));
                                    model.items.insert(k, cur.unwrap() - n as i64);
                                }
                                Op::Release(_, n) => {
                                    model.journal.entry(*e).or_default().push((k, cur));
                                    model.items.insert(k, cur.unwrap() + n as i64);
                                }
                            }
                        }
                        (Err(_), Err(())) => {}
                        other => prop_assert!(false, "divergence on {op:?}: {other:?}"),
                    }
                }
                Step::Commit { exec: e } => {
                    store.commit(exec(*e));
                    model.journal.remove(e);
                }
                Step::Rollback { exec: e } => {
                    store.rollback(exec(*e));
                    if let Some(j) = model.journal.remove(e) {
                        for (k, before) in j.into_iter().rev() {
                            match before {
                                Some(v) => {
                                    model.items.insert(k, v);
                                }
                                None => {
                                    model.items.remove(&k);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Final states agree.
        for k in 0..8u64 {
            prop_assert_eq!(store.get(Key(k)).map(|v| v.0), model.items.get(&k).copied(), "key {}", k);
        }
    }

    /// Crash recovery reproduces exactly the committed + rolled-back state:
    /// recover() must equal the live store after all in-flight execs roll
    /// back.
    #[test]
    fn wal_recovery_matches_live_state(steps in prop::collection::vec(step(), 1..60)) {
        let mut store = Store::new();
        let mut wal = Wal::new();
        for k in 0..3u64 {
            store.load(Key(k), Value(5));
        }
        wal.checkpoint(CheckpointImage::of_store(&store));
        let mut active: Vec<u8> = Vec::new();
        for s in &steps {
            match s {
                Step::Apply { exec: e, op } => {
                    let op = op.to_op();
                    if store.apply(exec(*e), op).is_ok()
                        && op.access_mode() == o2pc_common::AccessMode::Write
                    {
                        let rec = *store.last_undo(exec(*e)).unwrap();
                        wal.append_update(exec(*e), &rec);
                        // Track first-mutation order (what the WAL sees);
                        // read-only executions have nothing to undo.
                        if !active.contains(e) {
                            active.push(*e);
                        }
                    }
                }
                Step::Commit { exec: e } => {
                    store.commit(exec(*e));
                    wal.append(LogRecord::Commit(exec(*e)));
                    active.retain(|x| x != e);
                }
                Step::Rollback { exec: e } => {
                    let undo = store.rollback(exec(*e));
                    for rec in undo.iter().rev() {
                        wal.append(LogRecord::Update {
                            exec: exec(*e),
                            key: rec.key,
                            before: rec.after,
                            after: rec.before,
                        });
                    }
                    wal.append(LogRecord::Abort(exec(*e)));
                    active.retain(|x| x != e);
                }
            }
        }
        // Simulated crash: roll back the in-flight execs on the live store
        // to obtain the expected recovered state. Newest first, matching
        // the recovery undo pass (the orders only differ when two in-flight
        // execs wrote the same key — impossible under locking, but the
        // lock-free store model allows it and recovery must still be
        // self-consistent).
        for e in active.iter().rev() {
            store.rollback(exec(*e));
        }
        let recovered = wal.recover().into_store();
        for k in 0..8u64 {
            prop_assert_eq!(recovered.get(Key(k)), store.get(Key(k)), "key {}", k);
        }
    }
}

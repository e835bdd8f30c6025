//! Durable-WAL crash checks: the kill-recover resolver and the injected
//! write-fault harness.
//!
//! Both sides of the real-crash story live here:
//!
//! * [`recover_killed_run`] reopens the on-disk WALs a killed process left
//!   behind (e.g. after a `SIGKILL` mid-run), replays every site's log,
//!   resolves in-doubt state with the presume-abort rule, and checks the two
//!   invariants a hard kill must not break — **outcome agreement** (no two
//!   sites durably logged conflicting decisions for one transaction) and
//!   **conservation** (after resolution, balances sum to the initial total).
//! * [`injected_fault_roundtrip`] drives a scripted append workload into an
//!   on-disk [`Wal`], sealing it in small batches and severing the batch
//!   that spans a seeded byte offset ([`FlushBatch::sever`]: a torn write,
//!   or nothing written at a batch boundary), then reopens the file and
//!   checks that what survived is a clean frame-boundary prefix of the
//!   script and that it recovers exactly like the same prefix in memory.
//!
//! [`FlushBatch::sever`]: o2pc_storage::FlushBatch::sever
//!
//! ## Why presume-abort is safe here
//!
//! Yes-votes are durability-gated: a site's `LocalCommit` (or `Prepared`)
//! record is fsynced *before* its VOTE reply leaves the site, and the
//! coordinator's decision requires every vote. So if any site durably logged
//! `Outcome{commit: true}`, every participant's local-commit record is
//! already durable — resolving "no outcome found anywhere" as abort can never
//! disagree with a commit some survivor will later surface. Compensating an
//! unresolved local commit and rolling back an unresolved prepared
//! subtransaction therefore yields a state equivalent to the transaction
//! never having run, which is exactly what conservation measures.

use crate::oracle::Violation;
use o2pc_common::{ExecId, GlobalTxnId, SiteId};
use o2pc_compensation::{plan_compensation, CompensationModel};
use o2pc_storage::codec::encode_frame;
use o2pc_storage::{CheckpointImage, LogRecord, RecoveredState, Wal};
use std::collections::HashMap;
use std::path::Path;

/// Outcome of resolving the WALs of a killed run.
#[derive(Debug)]
pub struct KillRecoveryReport {
    /// Invariants violated (empty = the kill was survived).
    pub violations: Vec<Violation>,
    /// Sites whose WAL was reopened.
    pub sites: usize,
    /// Total records replayed across all WALs.
    pub records: usize,
    /// Transactions with a durable outcome somewhere.
    pub decided: usize,
    /// Local commits compensated under presume-abort.
    pub compensated: usize,
    /// Prepared subtransactions rolled back under presume-abort.
    pub prepared_rolled_back: usize,
    /// Sum of balances after resolution.
    pub recovered_total: i64,
}

impl KillRecoveryReport {
    /// Did recovery satisfy every invariant?
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Reopen the per-site WALs under `dir` (named `site-<i>.wal`, the engine's
/// layout), resolve all in-doubt state, and check the kill invariants. See
/// the module docs for the resolution rules.
pub fn recover_killed_run(
    dir: &Path,
    num_sites: u32,
    model: CompensationModel,
    expected_total: i64,
) -> KillRecoveryReport {
    let mut violations = Vec::new();
    let mut states: Vec<(SiteId, RecoveredState)> = Vec::new();
    let mut records = 0usize;
    for i in 0..num_sites {
        let path = dir.join(format!("site-{i}.wal"));
        match Wal::open(&path) {
            Ok(wal) => {
                records += wal.len();
                states.push((SiteId(i), wal.recover()));
            }
            Err(e) => violations.push(Violation::WalUnreadable {
                site: SiteId(i),
                detail: e.to_string(),
            }),
        }
    }

    // Global fate map: the union of every site's durable Outcome records.
    // Two sites disagreeing on one transaction's fate is the cardinal 2PC
    // violation — no amount of local resolution can repair it.
    let mut fate: HashMap<GlobalTxnId, bool> = HashMap::new();
    for (site, st) in &states {
        for &(txn, commit) in &st.outcomes {
            match fate.insert(txn, commit) {
                Some(prev) if prev != commit => {
                    violations.push(Violation::ConflictingOutcomes { txn, site: *site });
                }
                _ => {}
            }
        }
    }
    let decided = fate.len();

    // Resolve each site: keep what committed, compensate or roll back what
    // presume-abort condemns, then measure conservation.
    let mut compensated = 0usize;
    let mut prepared_rolled_back = 0usize;
    let mut recovered_total = 0i64;
    for (_, st) in states.drain(..) {
        let prepared = st.prepared.clone();
        let unresolved = st.unresolved_local_commits.clone();
        let mut store = st.into_store();
        for (exec, undo) in prepared {
            let committed = matches!(exec, ExecId::Sub(g) if fate.get(&g) == Some(&true));
            if !committed {
                // Presume abort: reinstate the undo chain and reverse it.
                store.restore_pending(exec, undo);
                store.rollback(exec);
                prepared_rolled_back += 1;
            }
        }
        for (g, rec) in unresolved {
            if fate.get(&g) == Some(&true) {
                continue; // durably committed somewhere: effects stand
            }
            // Persistence of compensation: apply what applies, skip what the
            // recovered state no longer supports (a CT must never fail).
            let ct = ExecId::CompSub(g);
            for &op in plan_compensation(model, &rec).ops.iter() {
                let _ = store.apply(ct, op);
            }
            store.commit(ct);
            compensated += 1;
        }
        recovered_total += store.total();
    }

    if recovered_total != expected_total && violations.is_empty() {
        violations.push(Violation::Conservation {
            expected: expected_total,
            actual: recovered_total,
        });
    }

    KillRecoveryReport {
        violations,
        sites: num_sites as usize,
        records,
        decided,
        compensated,
        prepared_rolled_back,
        recovered_total,
    }
}

/// What one injected-fault run observed.
#[derive(Debug)]
pub struct FaultRunStats {
    /// Records the script appended before (and including when) the fault hit.
    pub scripted: usize,
    /// Records that survived on disk after reopen.
    pub survived: usize,
    /// Whether the fault actually fired (an offset at the script's end is
    /// never reached).
    pub fired: bool,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Build the deterministic append script for `seed`: a run of small
/// transactions (begin / update / commit-or-abort) over a handful of keys.
fn fault_script(seed: u64) -> Vec<LogRecord> {
    use o2pc_common::{Key, Value};
    let mut rng = seed | 1;
    let mut script = vec![LogRecord::Checkpoint(Box::new(CheckpointImage {
        items: (0..4).map(|k| (Key(k), Value(100))).collect(),
        ..CheckpointImage::default()
    }))];
    let txns = 24 + (xorshift(&mut rng) % 16);
    for t in 0..txns {
        let e = ExecId::Sub(GlobalTxnId(t));
        script.push(LogRecord::Begin(e));
        let writes = 1 + xorshift(&mut rng) % 3;
        for _ in 0..writes {
            let k = Key(xorshift(&mut rng) % 4);
            let v = (xorshift(&mut rng) % 1000) as i64;
            script.push(LogRecord::Update {
                exec: e,
                key: k,
                before: Some(Value(v)),
                after: Some(Value(v + 1)),
            });
        }
        if xorshift(&mut rng).is_multiple_of(8) {
            script.push(LogRecord::Abort(e));
        } else {
            script.push(LogRecord::Commit(e));
        }
    }
    script
}

/// Run one seeded fault-injection round-trip against a WAL file at `path`
/// (created fresh). Appends the seed's script, sealing and executing it in
/// small groups, and severs the batch that spans a seed-derived byte
/// offset at that offset; after the fault fires (or the script ends) the
/// file is reopened and checked:
///
/// 1. the surviving records are a **prefix** of the script — no record is
///    reordered, altered, or resurrected past a torn frame;
/// 2. recovery over the survivors equals recovery of the same prefix through
///    the in-memory [`Wal`] — the differential that pins the durable path to
///    the reference semantics.
///
/// Returns the observations, or a description of the violated check.
pub fn injected_fault_roundtrip(seed: u64, path: &Path) -> Result<FaultRunStats, String> {
    let script = fault_script(seed);
    let mut total_bytes = Vec::new();
    for rec in &script {
        encode_frame(rec, &mut total_bytes);
    }
    let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let fail_at = xorshift(&mut rng) % (total_bytes.len() as u64 + 1);
    let group = 1 + (xorshift(&mut rng) % 5) as usize;

    let _ = std::fs::remove_file(path);
    let mut wal = Wal::open(path).map_err(|e| format!("open failed: {e}"))?;
    let mut scripted = 0usize;
    let mut fired = false;
    for (i, rec) in script.iter().enumerate() {
        wal.append(rec.clone());
        scripted = i + 1;
        if !scripted.is_multiple_of(group) && scripted < script.len() {
            continue;
        }
        let from = wal.sealed_ticket();
        let Some(mut batch) = wal.seal_batch() else {
            return Err(format!("seed {seed}: appended bytes did not seal"));
        };
        fired = (from..batch.ticket()).contains(&fail_at);
        if fired {
            batch
                .sever(fail_at)
                .map_err(|e| format!("sever failed: {e}"))?;
        }
        if batch.execute().is_err() != fired || wal.is_dead() != fired {
            return Err(format!(
                "seed {seed}: a batch failed without being severed, or landed severed"
            ));
        }
        if fired {
            break;
        }
    }
    drop(wal);

    let reopened = Wal::open(path).map_err(|e| format!("reopen failed: {e}"))?;
    let survived = reopened.len();
    if survived > scripted || reopened.records() != &script[..survived] {
        return Err(format!(
            "seed {seed}: surviving records are not a script prefix \
             (survived {survived}, scripted {scripted})"
        ));
    }
    let reference = Wal::from_records(script[..survived].to_vec()).recover();
    if reopened.recover() != reference {
        return Err(format!(
            "seed {seed}: durable recovery diverged from in-memory recovery \
             over the same {survived}-record prefix"
        ));
    }
    Ok(FaultRunStats {
        scripted,
        survived,
        fired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::ScratchDir;

    fn tmpdir(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("kchaos-{name}"))
    }

    #[test]
    fn fault_roundtrip_many_seeds() {
        let dir = tmpdir("faults");
        let mut fired = 0;
        for seed in 0..64 {
            let path = dir.join(format!("f{seed}.wal"));
            let stats = injected_fault_roundtrip(seed, &path).expect("invariant");
            assert!(stats.survived <= stats.scripted);
            if stats.fired {
                fired += 1;
            }
        }
        assert!(fired > 16, "faults must actually fire ({fired}/64)");
    }

    #[test]
    fn recover_killed_run_empty_dir_is_conservation_zero() {
        let dir = tmpdir("empty");
        let report = recover_killed_run(&dir, 3, CompensationModel::Restricted, 0);
        assert!(report.survived(), "{:?}", report.violations);
        assert_eq!(report.recovered_total, 0);
    }

    #[test]
    fn recover_killed_run_detects_conflicting_outcomes() {
        use o2pc_common::GlobalTxnId;
        let dir = tmpdir("conflict");
        for (i, commit) in [(0u32, true), (1u32, false)] {
            let mut w = Wal::open(dir.join(format!("site-{i}.wal"))).unwrap();
            w.append(LogRecord::Outcome {
                txn: GlobalTxnId(7),
                commit,
            });
            w.sync().unwrap();
        }
        let report = recover_killed_run(&dir, 2, CompensationModel::Restricted, 0);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ConflictingOutcomes { .. })));
    }

    #[test]
    fn recover_killed_run_compensates_unresolved_local_commit() {
        use o2pc_common::{Key, Op, Value};
        use o2pc_storage::Store;
        use std::sync::Arc;
        let dir = tmpdir("comp");
        let mut store = Store::new();
        store.load(Key(0), Value(50));
        let mut w = Wal::open(dir.join("site-0.wal")).unwrap();
        w.checkpoint(CheckpointImage::of_store(&store));
        let e = ExecId::Sub(GlobalTxnId(1));
        w.append(LogRecord::Begin(e));
        store.apply(e, Op::Add(Key(0), 25)).unwrap();
        let u = *store.last_undo(e).unwrap();
        w.append_update(e, &u);
        let rec = Arc::new(store.commit(e));
        w.append(LogRecord::LocalCommit {
            exec: e,
            record: rec,
        });
        w.sync().unwrap();
        // Killed before any outcome: presume abort must give back the 25.
        let report = recover_killed_run(&dir, 1, CompensationModel::Restricted, 50);
        assert!(report.survived(), "{:?}", report.violations);
        assert_eq!(report.compensated, 1);
        assert_eq!(report.recovered_total, 50);
    }
}

//! Property tests for the torn-tail contract of the on-disk segmented WAL.
//!
//! A crash during an append can leave *any* byte-level prefix of the final
//! frame on disk (the kernel writes sequentially; fsync ordering guarantees
//! everything earlier is intact). The on-disk log's whole recovery
//! promise rests on one property: **opening a log truncated at any byte
//! offset inside its final record yields exactly the state of the log
//! without that record** — the tear is detected, the torn frame discarded,
//! and nothing before it disturbed. This sweeps every offset, not just the
//! frame boundaries the unit tests pick, and repeats the sweep on the last
//! segment of a multi-segment log (the only segment a crash can tear:
//! rotation syncs its predecessor before the first append to the new file).
//!
//! The rotation property is here too: frames never straddle a segment
//! boundary by construction, so every segment decodes standalone.

use o2pc_common::{ExecId, GlobalTxnId, Key, Op, ScratchDir, Value};
use o2pc_storage::codec::{decode_all, encode_frame};
use o2pc_storage::{
    segment_path, ActiveExec, CheckpointImage, CommitRecord, LogRecord, Store, Wal,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Step {
    Begin(u8),
    Add { exec: u8, key: u8, delta: i8 },
    Commit(u8),
    Abort(u8),
    Outcome { txn: u8, commit: bool },
    Checkpoint,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0u8..4).prop_map(Step::Begin),
        4 => (0u8..4, 0u8..4, any::<i8>())
            .prop_map(|(exec, key, delta)| Step::Add { exec, key, delta }),
        2 => (0u8..4).prop_map(Step::Commit),
        1 => (0u8..4).prop_map(Step::Abort),
        1 => (0u8..4, any::<bool>()).prop_map(|(txn, commit)| Step::Outcome { txn, commit }),
        1 => Just(Step::Checkpoint),
    ]
}

fn exec(i: u8) -> ExecId {
    ExecId::Sub(GlobalTxnId(i as u64))
}

/// A checkpoint of `store` carrying its in-flight executions (in exec
/// order) and some protocol state, so every section of the record is on disk.
fn checkpoint_of(store: &Store, lsn: usize) -> LogRecord {
    let active = (0..4)
        .map(exec)
        .filter(|&e| store.has_pending(e))
        .map(|e| ActiveExec {
            exec: e,
            undo: store.pending_undo(e).to_vec(),
            prepared: false,
        })
        .collect();
    let record = Arc::new(CommitRecord {
        undo: Vec::new(),
        ops: vec![Op::Add(Key(1), 2)],
    });
    LogRecord::Checkpoint(Box::new(CheckpointImage {
        lsn: lsn as u64,
        active,
        local_commits: vec![(GlobalTxnId(7), record)],
        rolled_back_comps: vec![GlobalTxnId(7)],
        decided: vec![(GlobalTxnId(7), false)],
        next_local_seq: 3,
        ..CheckpointImage::of_store(store)
    }))
}

/// Drive a store through the steps, producing a realistic record mix
/// (checkpoints, updates with real before-images, commits, aborts, CLRs,
/// decisions): every record appended, not only the ones after the last
/// checkpoint.
fn records_from(steps: &[Step]) -> Vec<LogRecord> {
    let mut store = Store::new();
    let mut log = Vec::new();
    let wal = &mut log;
    for k in 0..4u64 {
        store.load(Key(k), Value(10));
    }
    wal.push(checkpoint_of(&store, 0));
    // Guarantee ≥ 2 records even when every step is a failed apply, so the
    // tests always have a final frame to tear.
    wal.push(LogRecord::Begin(exec(0)));
    for s in steps {
        match *s {
            Step::Begin(e) => wal.push(LogRecord::Begin(exec(e))),
            Step::Add {
                exec: e,
                key,
                delta,
            } => {
                if store
                    .apply(exec(e), Op::Add(Key(key as u64), delta as i64))
                    .is_ok()
                {
                    let rec = *store.last_undo(exec(e)).unwrap();
                    wal.push(LogRecord::Update {
                        exec: exec(e),
                        key: rec.key,
                        before: rec.before,
                        after: rec.after,
                    });
                }
            }
            Step::Commit(e) => {
                store.commit(exec(e));
                wal.push(LogRecord::Commit(exec(e)));
            }
            Step::Abort(e) => {
                let undo = store.rollback(exec(e));
                for rec in undo.iter().rev() {
                    wal.push(LogRecord::Update {
                        exec: exec(e),
                        key: rec.key,
                        before: rec.after,
                        after: rec.before,
                    });
                }
                wal.push(LogRecord::Abort(exec(e)));
            }
            Step::Outcome { txn, commit } => wal.push(LogRecord::Outcome {
                txn: GlobalTxnId(txn as u64),
                commit,
            }),
            Step::Checkpoint => {
                let lsn = wal.len();
                wal.push(checkpoint_of(&store, lsn));
            }
        }
    }
    log
}

/// What a log holding `records` keeps in memory and recovers from: the
/// records from the last checkpoint on.
fn from_last_checkpoint(records: &[LogRecord]) -> &[LogRecord] {
    let start = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::Checkpoint(_)))
        .unwrap_or(0);
    &records[start..]
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// Fresh scratch directory for one case (removed when the guard drops, pass
/// or fail) and the log root inside it.
fn case_root(tag: &str) -> (ScratchDir, std::path::PathBuf) {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = ScratchDir::new(&format!("prop-{tag}-{case}"));
    let root = dir.join("site.wal");
    (dir, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For every byte offset `cut` inside the final frame, a log truncated
    /// at `cut` recovers to exactly the recovery of the record prefix
    /// without that final record.
    #[test]
    fn truncation_at_every_byte_recovers_the_prefix(
        steps in prop::collection::vec(step(), 1..24),
    ) {
        let records = records_from(&steps);

        let mut bytes = Vec::new();
        let mut boundary = 0usize;
        for (i, r) in records.iter().enumerate() {
            if i + 1 == records.len() {
                boundary = bytes.len();
            }
            encode_frame(r, &mut bytes);
        }
        let expected = Wal::from_records(records[..records.len() - 1].to_vec()).recover();
        let full_expected = Wal::from_records(records.clone()).recover();

        let (_dir, root) = case_root("durable");
        let seg0 = segment_path(&root, 0);

        for cut in boundary..bytes.len() {
            std::fs::write(&seg0, &bytes[..cut]).unwrap();
            let torn = Wal::open(&root).unwrap();
            prop_assert_eq!(
                torn.records(),
                from_last_checkpoint(&records[..records.len() - 1]),
                "cut {}",
                cut
            );
            prop_assert_eq!(torn.recover(), expected.clone(), "cut {}", cut);
        }
        // The untruncated file recovers everything (control).
        std::fs::write(&seg0, &bytes).unwrap();
        let whole = Wal::open(&root).unwrap();
        prop_assert_eq!(whole.recover(), full_expected);
    }

    /// Flipping any single byte inside the final frame is detected by the
    /// checksum (or framing) and costs at most that one record.
    #[test]
    fn corrupt_final_frame_is_discarded(
        steps in prop::collection::vec(step(), 1..24),
        flip in any::<u8>(),
    ) {
        let records = records_from(&steps);
        let flip = if flip == 0 { 0x40 } else { flip };

        let mut bytes = Vec::new();
        let mut boundary = 0usize;
        for (i, r) in records.iter().enumerate() {
            if i + 1 == records.len() {
                boundary = bytes.len();
            }
            encode_frame(r, &mut bytes);
        }
        let expected = Wal::from_records(records[..records.len() - 1].to_vec()).recover();

        let (_dir, root) = case_root("corrupt");
        let seg0 = segment_path(&root, 0);
        for target in boundary..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[target] ^= flip;
            std::fs::write(&seg0, &mutated).unwrap();
            let torn = Wal::open(&root).unwrap();
            prop_assert_eq!(
                torn.records(),
                from_last_checkpoint(&records[..records.len() - 1]),
                "byte {}",
                target
            );
            prop_assert_eq!(torn.recover(), expected.clone(), "byte {}", target);
        }
    }

    /// The torn-tail sweep on a **multi-segment** log: write a history
    /// through tiny segments so it rotates several times, then truncate the
    /// *last* segment at every byte offset. Recovery must keep every full
    /// segment intact and degrade only the torn tail — the segment
    /// structure never amplifies a tear.
    #[test]
    fn torn_last_segment_recovers_the_prefix(
        steps in prop::collection::vec(step(), 8..24),
    ) {
        let records = records_from(&steps);
        let (_dir, root) = case_root("multiseg");
        let segment_bytes = 96;
        {
            let mut wal = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
            for r in &records {
                wal.append(r.clone());
            }
            wal.sync().unwrap();
        }
        let written = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
        prop_assert_eq!(written.records(), from_last_checkpoint(&records));
        let bases = written.segment_bases();
        prop_assert!(bases.len() >= 2, "history must span segments: {:?}", bases);
        let last_base = *bases.last().unwrap();
        drop(written);

        let last_path = segment_path(&root, last_base);
        let last_bytes = std::fs::read(&last_path).unwrap();
        // How many records live in the full segments before the last one.
        let keep: usize = bases[..bases.len() - 1]
            .iter()
            .map(|b| decode_all(&std::fs::read(segment_path(&root, *b)).unwrap()).0.len())
            .sum();

        for cut in 0..last_bytes.len() {
            std::fs::write(&last_path, &last_bytes[..cut]).unwrap();
            let torn = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
            let (tail, good) = decode_all(&last_bytes[..cut]);
            prop_assert_eq!(
                torn.records(),
                from_last_checkpoint(&records[..keep + tail.len()]),
                "cut {} good {}",
                cut,
                good
            );
            // Re-zeroing on open mutates the torn file, but the next
            // iteration rewrites it wholesale from `last_bytes`, so every
            // offset is tested against the original bytes.
        }
    }

    /// Rotation never splits a frame: every segment of a multi-segment log
    /// decodes standalone down to its exact data end, and concatenating the
    /// per-segment decodes reproduces the full history in order.
    #[test]
    fn frames_never_straddle_segments(
        steps in prop::collection::vec(step(), 8..24),
    ) {
        let records = records_from(&steps);
        let (_dir, root) = case_root("straddle");
        let segment_bytes = 80;
        {
            let mut wal = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
            for r in &records {
                wal.append(r.clone());
            }
            wal.sync().unwrap();
        }
        let wal = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
        let bases = wal.segment_bases();
        prop_assert!(bases.len() >= 2, "history must span segments: {:?}", bases);
        let mut rebuilt = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let bytes = std::fs::read(segment_path(&root, *base)).unwrap();
            let (recs, good) = decode_all(&bytes);
            // A straddling frame would leave a partial frame at the end of a
            // non-final segment: decode would stop early AND the next
            // segment's base would not equal this segment's data end.
            if i + 1 < bases.len() {
                prop_assert_eq!(
                    base + good as u64,
                    bases[i + 1],
                    "segment {:#x} must end on a frame boundary at the next base",
                    base
                );
            }
            rebuilt.extend(recs);
        }
        prop_assert_eq!(&rebuilt[..], &records[..]);
    }

    /// Round trip across random segment sizes: a history appended through
    /// the segment sink (tiny segments, so rotation and preallocation are in
    /// play), synced and reopened, reads back record for record. (What those
    /// records *recover* to is the one `Wal::recover`, whatever the sink.)
    #[test]
    fn segmented_log_round_trips_its_records(
        steps in prop::collection::vec(step(), 1..24),
        segment_bytes in 64u64..512,
    ) {
        let records = records_from(&steps);

        let (_dir, root) = case_root("equiv");
        {
            let mut wal = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
            for r in &records {
                wal.append(r.clone());
            }
            wal.sync().unwrap();
        }
        let reopened = Wal::open_with_segment_bytes(&root, segment_bytes).unwrap();
        prop_assert_eq!(reopened.records(), from_last_checkpoint(&records));
        prop_assert_eq!(reopened.end_lsn(), records.len() as u64);
    }

    /// The checkpoint record itself, torn or bit-flipped at every byte of
    /// its frame: the log falls back to the checkpoint before it, and
    /// recovers exactly what the records up to the tear recover.
    #[test]
    fn torn_final_checkpoint_falls_back_to_the_one_before(
        steps in prop::collection::vec(step(), 1..24),
        flip in 1u8..=255,
    ) {
        let mut steps = steps;
        steps.push(Step::Checkpoint);
        let records = records_from(&steps);
        let mut bytes = Vec::new();
        let mut boundary = 0usize;
        for (i, r) in records.iter().enumerate() {
            if i + 1 == records.len() {
                boundary = bytes.len();
            }
            encode_frame(r, &mut bytes);
        }
        let prefix = &records[..records.len() - 1];
        let expected = Wal::from_records(prefix.to_vec()).recover();
        let (_dir, root) = case_root("ckpt");
        let seg0 = segment_path(&root, 0);
        for at in boundary..bytes.len() {
            for damaged in [bytes[..at].to_vec(), {
                let mut b = bytes.clone();
                b[at] ^= flip;
                b
            }] {
                std::fs::write(&seg0, &damaged).unwrap();
                let torn = Wal::open(&root).unwrap();
                prop_assert_eq!(torn.records(), from_last_checkpoint(prefix), "byte {}", at);
                prop_assert_eq!(torn.end_lsn(), prefix.len() as u64, "byte {}", at);
                prop_assert_eq!(torn.recover(), expected.clone(), "byte {}", at);
            }
        }
    }
}

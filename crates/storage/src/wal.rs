//! Write-ahead log with checkpointing and crash recovery.
//!
//! The log is the durability substrate a site needs to honour the paper's
//! recovery assumptions: after a crash a site must (a) restore all committed
//! and *locally-committed* state — under O2PC a vote to commit makes the
//! updates durable at that site even though the global fate is unknown — and
//! (b) roll back every execution that was still in flight.
//!
//! Recovery is redo/undo from the last checkpoint: the checkpoint seeds the
//! state every earlier record would have produced, then all later `Update`
//! records are replayed in order, and the updates of executions with neither
//! a `Commit` nor an `Abort` record are undone (reverse order). Roll-backs
//! performed before the crash wrote their own reversing `Update` records
//! followed by `Abort` (compensation-log-record style), so replay is
//! idempotent.
//!
//! Every record has a log sequence number (LSN): its position in the log
//! since the log began. Records are not numbered one by one — a checkpoint
//! carries its own LSN and the records after it count up from there — so a
//! log truncated at a checkpoint, or reloaded from disk after a crash, still
//! names each record the way the live log did.

use crate::segments::{FlushBatch, FlushProgress, Segments, WalStats, DEFAULT_SEGMENT_BYTES};
use crate::store::{CommitRecord, Store, UndoRecord};
use o2pc_common::{ExecId, FastHashMap, FastHashSet, GlobalTxnId, Key, Value};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// One log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// Execution started.
    Begin(ExecId),
    /// One in-place mutation (physical logging: before- and after-image).
    Update {
        /// Execution performing the mutation.
        exec: ExecId,
        /// Item mutated.
        key: Key,
        /// Before-image (`None` = key absent).
        before: Option<Value>,
        /// After-image (`None` = key deleted).
        after: Option<Value>,
    },
    /// Execution committed (for subtransactions under O2PC this is written at
    /// *local commit*, i.e. when the site votes yes and releases locks).
    Commit(ExecId),
    /// A subtransaction entered the *prepared* state (voted yes under the
    /// hold-writes policy): its updates are durable and must survive a
    /// crash, with its write locks re-acquired on recovery.
    Prepared(ExecId),
    /// O2PC local commit of a subtransaction, carrying everything a later
    /// compensation needs (the semantic op log and before-images). Durable:
    /// a site that crashes between its yes-vote and the decision can still
    /// compensate after recovery.
    LocalCommit {
        /// The subtransaction.
        exec: ExecId,
        /// Its retained commit record, shared with the site's live
        /// `commit_records` table (an `Arc` so appending the log record
        /// does not deep-copy the op log and before-images).
        record: Arc<CommitRecord>,
    },
    /// The coordinator's decision for a global transaction reached this
    /// site (resolves a pending `LocalCommit`).
    Outcome {
        /// The global transaction.
        txn: GlobalTxnId,
        /// `true` = commit.
        commit: bool,
    },
    /// Execution rolled back; its reversing updates precede this record.
    Abort(ExecId),
    /// Checkpoint: everything recovery would otherwise read from the
    /// records before it (see [`CheckpointImage`]), so those records can go.
    Checkpoint(Box<CheckpointImage>),
}

impl LogRecord {
    /// The execution the record belongs to (`None` for an `Outcome` or a
    /// `Checkpoint`).
    pub fn exec(&self) -> Option<ExecId> {
        match self {
            LogRecord::Begin(e)
            | LogRecord::Commit(e)
            | LogRecord::Abort(e)
            | LogRecord::Prepared(e)
            | LogRecord::Update { exec: e, .. }
            | LogRecord::LocalCommit { exec: e, .. } => Some(*e),
            LogRecord::Outcome { .. } | LogRecord::Checkpoint(_) => None,
        }
    }
}

/// What a checkpoint holds: the state [`Wal::recover`]'s redo pass would
/// have built from every record before it. Recovery seeds its fold from
/// here, so a log truncated at the checkpoint recovers exactly like the
/// whole log, and it returns one too: the site's whole recoverable state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointImage {
    /// The checkpoint record's own LSN ([`Wal::append`] stamps it).
    pub lsn: u64,
    /// The store image, sorted by key, dirty values of in-flight executions
    /// included (the redo pass applies every update, committed or not).
    pub items: Vec<(Key, Value)>,
    /// The executions in flight, in the order they entered the log.
    pub active: Vec<ActiveExec>,
    /// Locally-committed subtransactions not yet settled, sorted: the
    /// decision is unknown, or it was abort and the compensating
    /// subtransaction has not committed.
    pub local_commits: Vec<(GlobalTxnId, Arc<CommitRecord>)>,
    /// Compensating subtransactions rolled back and not yet committed,
    /// sorted. Their `Abort` ended an incarnation, so the `Begin` of a
    /// re-run does not count as one: the re-run enters the in-flight set
    /// only with its first write.
    pub rolled_back_comps: Vec<GlobalTxnId>,
    /// The decisions the site retains, sorted.
    pub decided: Vec<(GlobalTxnId, bool)>,
    /// One past the highest local-transaction sequence number issued.
    pub next_local_seq: u64,
}

/// One in-flight execution in a [`CheckpointImage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActiveExec {
    /// The execution.
    pub exec: ExecId,
    /// Its undo list, oldest first.
    pub undo: Vec<UndoRecord>,
    /// Voted yes under hold-writes: its updates survive recovery.
    pub prepared: bool,
}

impl CheckpointImage {
    /// The image of a store with nothing in flight and no protocol state
    /// (a freshly loaded site).
    pub fn of_store(store: &Store) -> Self {
        let mut items: Vec<(Key, Value)> = store.iter().collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        CheckpointImage {
            items,
            ..Self::default()
        }
    }

    /// How many entries the image carries: the size the checkpoint policy
    /// weighs the records appended after it against.
    pub fn entries(&self) -> usize {
        self.items.len()
            + self.active.len()
            + self.local_commits.len()
            + self.rolled_back_comps.len()
            + self.decided.len()
    }
}

/// A site's write-ahead log: the decoded records, plus an optional on-disk
/// sink for their bytes.
///
/// Everything logical — `append`, `records`, `checkpoint`, `recover` — has
/// one body and runs on `records`, whichever way the log was built. The only
/// variable is where the bytes go. [`Wal::new`] has no sink: durability is
/// simulated (the `Wal` object survives a simulated site crash, which is
/// exactly the fault model the simulator needs), so the durability surface
/// answers "already durable" — tickets are 0, `sync` succeeds, nothing
/// seals. [`Wal::open`] attaches the segment files (see
/// [`segments`](crate::segments)): appends are framed into a pending buffer,
/// tickets are byte offsets, and `sync` / a sealed [`FlushBatch`] make them
/// durable. Tickets stay *byte* offsets on purpose — giving the memory path
/// real ones would mean encoding frames nobody writes.
///
/// In memory the log keeps the records from a checkpoint on:
/// [`truncate_to_checkpoint`](Self::truncate_to_checkpoint) drops the ones
/// before the newest checkpoint that is durable, so the log is as large as
/// the work since that checkpoint, not the run.
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<LogRecord>,
    /// LSN of `records[0]`.
    base_lsn: u64,
    /// The checkpoints among `records`, oldest first: the index, and the
    /// byte ticket that makes it durable (0 without a sink).
    checkpoints: Vec<(usize, u64)>,
    disk: Option<Box<Segments>>,
}

// The short accessors and the append path are called from `o2pc-site` and
// the engine on every operation; the workspace builds without LTO, so
// cross-crate inlining needs the explicit hints.
impl Wal {
    /// New empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory log over an already-decoded record sequence. It keeps
    /// the records from the last checkpoint on, which count up from that
    /// checkpoint's LSN (from 0 when there is none).
    pub fn from_records(mut records: Vec<LogRecord>) -> Self {
        let last = records
            .iter()
            .rposition(|r| matches!(r, LogRecord::Checkpoint(_)));
        let mut wal = Wal::default();
        if let Some(i) = last {
            records.drain(..i);
            if let Some(LogRecord::Checkpoint(cp)) = records.first() {
                wal.base_lsn = cp.lsn;
            }
            wal.checkpoints.push((0, 0));
        }
        wal.records = records;
        wal
    }

    /// Open (or create) the on-disk log rooted at `path` with the default
    /// segment capacity, discarding any torn or checksum-failing tail.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_segment_bytes(path, DEFAULT_SEGMENT_BYTES)
    }

    /// [`open`](Self::open) with segments of `segment_bytes` (the rotation
    /// point). Zero is rejected as [`io::ErrorKind::InvalidInput`].
    pub fn open_with_segment_bytes(
        path: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        Segments::open(path.into(), segment_bytes).map(Self::on_disk)
    }

    /// Everything a reopened log holds is durable, so its last checkpoint
    /// is where the in-memory records start.
    fn on_disk((disk, records): (Segments, Vec<LogRecord>)) -> Self {
        Wal {
            disk: Some(Box::new(disk)),
            ..Self::from_records(records)
        }
    }

    /// Append a record (with a sink: buffered, durable at the next flush).
    #[inline]
    pub fn append(&mut self, rec: LogRecord) {
        if let LogRecord::Checkpoint(_) = rec {
            self.append_checkpoint(rec)
        } else if self.disk.is_some() {
            self.append_framed(rec)
        } else {
            self.records.push(rec)
        }
    }

    /// The disk half of [`append`](Self::append): encode and place the
    /// frame, then push. Out of line, so the memory path stays a `Vec::push`
    /// behind one predictable branch. The frame is encoded *before* the push
    /// on purpose: encoding from the just-pushed slot reads back a cache line
    /// the push only started to fill, and measured ~6 ns slower per append.
    #[inline(never)]
    fn append_framed(&mut self, rec: LogRecord) {
        if let Some(disk) = &mut self.disk {
            disk.place(&rec);
        }
        self.records.push(rec);
    }

    /// Stamp a checkpoint with its LSN, place it, and remember where it is
    /// and which ticket makes it durable.
    #[inline(never)]
    fn append_checkpoint(&mut self, mut rec: LogRecord) {
        if let LogRecord::Checkpoint(cp) = &mut rec {
            cp.lsn = self.end_lsn();
        }
        if let Some(disk) = &mut self.disk {
            disk.place(&rec);
        }
        self.checkpoints
            .push((self.records.len(), self.append_ticket()));
        self.records.push(rec);
    }

    /// Convenience: append an `Update` from an [`UndoRecord`].
    #[inline]
    pub fn append_update(&mut self, exec: ExecId, rec: &UndoRecord) {
        self.append(LogRecord::Update {
            exec,
            key: rec.key,
            before: rec.before,
            after: rec.after,
        });
    }

    /// Number of records from the last checkpoint on.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len() - self.start()
    }

    /// True when the log holds no record.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index of the last checkpoint in `records` (0 without one).
    #[inline]
    fn start(&self) -> usize {
        self.checkpoints.last().map_or(0, |&(i, _)| i)
    }

    /// The records from the last checkpoint on: all that recovery reads.
    #[inline]
    pub fn records(&self) -> &[LogRecord] {
        &self.records[self.start()..]
    }

    /// The LSN the next appended record gets.
    #[inline]
    pub fn end_lsn(&self) -> u64 {
        self.base_lsn + self.records.len() as u64
    }

    /// Every record still held in memory, with its LSN — from the newest
    /// durable checkpoint at the last truncation, so it reaches back past
    /// anything a crash can lose (the crash path compares these with what
    /// survived).
    pub fn retained(&self) -> impl Iterator<Item = (u64, &LogRecord)> {
        (self.base_lsn..).zip(&self.records)
    }

    /// Append a checkpoint carrying `image`.
    pub fn checkpoint(&mut self, image: CheckpointImage) {
        self.append(LogRecord::Checkpoint(Box::new(image)));
    }

    /// Drop the in-memory records before the newest checkpoint that is
    /// durable (without a sink: the newest checkpoint). No I/O: this runs
    /// on the engine's step path, and the on-disk segments are left as they
    /// are (see [`compact`](Self::compact)). Records after a checkpoint
    /// that is not yet durable stay, because a crash can still fall back to
    /// the older one and the crash path must see what it lost.
    pub fn truncate_to_checkpoint(&mut self) {
        let durable = self.durable_ticket();
        let Some(k) = self.checkpoints.iter().rposition(|&(_, t)| t <= durable) else {
            return;
        };
        let (cut, _) = self.checkpoints[k];
        self.records.drain(..cut);
        self.base_lsn += cut as u64;
        self.checkpoints.drain(..k);
        for (i, _) in &mut self.checkpoints {
            *i -= cut;
        }
    }

    /// Disk reclamation: make the log durable, record the last checkpoint
    /// as the live start in the manifest, and delete the segment files
    /// wholly before it (see [`segments`](crate::segments)), then truncate
    /// the in-memory records to it. It fsyncs inline, so nothing on the
    /// step path calls it. Nothing is dropped unless the disk part
    /// succeeded.
    pub fn compact(&mut self) -> io::Result<()> {
        if let Some(disk) = &mut self.disk {
            disk.compact()?;
        }
        self.truncate_to_checkpoint();
        Ok(())
    }

    /// Simulated crash transform: what survives on the log device. Without
    /// a sink that is everything (the historical fault model); with one, the
    /// unsynced tail is lost and the log is reloaded from its files.
    pub fn crash(self) -> io::Result<Wal> {
        match self.disk {
            None => Ok(self),
            Some(disk) => disk.crash().map(Self::on_disk),
        }
    }

    // ----- durability surface ("already durable" without a sink) -----

    /// True when the log's bytes go to disk.
    #[inline]
    pub fn is_durable(&self) -> bool {
        self.disk.is_some()
    }

    /// Byte ticket covering everything appended so far.
    #[inline]
    pub fn append_ticket(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.append_ticket())
    }

    /// Current durable watermark.
    #[inline]
    pub fn durable_ticket(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.durable_ticket())
    }

    /// Sealed watermark: bytes already handed to the flush pipeline.
    #[inline]
    pub fn sealed_ticket(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.sealed_ticket())
    }

    /// Bytes appended but not yet sealed.
    #[inline]
    pub fn pending_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.pending_bytes())
    }

    /// True once the log device failed: its durable watermark is poisoned
    /// and will never advance again.
    pub fn is_dead(&self) -> bool {
        self.disk.as_ref().is_some_and(|d| d.is_dead())
    }

    /// Observable I/O counters (`None` without a sink).
    pub fn stats(&self) -> Option<Arc<WalStats>> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Shared durable-watermark cell, for flusher wiring and tests (`None`
    /// without a sink).
    pub fn progress(&self) -> Option<Arc<FlushProgress>> {
        self.disk.as_ref().map(|d| d.progress())
    }

    /// Bases of the live segment files, in order (tests / diagnostics).
    pub fn segment_bases(&self) -> Vec<u64> {
        self.disk
            .as_ref()
            .map_or_else(Vec::new, |d| d.segment_bases())
    }

    /// Group commit, inline: seal what is pending and execute the batch
    /// here. Fails on a dead log.
    pub fn sync(&mut self) -> io::Result<()> {
        self.disk.as_mut().map_or(Ok(()), |d| d.sync())
    }

    /// Seal pending frames for a flusher (`None` without a sink or when
    /// nothing is pending). A dead log still seals; its batch fails.
    pub fn seal_batch(&mut self) -> Option<FlushBatch> {
        self.disk.as_mut()?.seal_batch()
    }

    /// Crash recovery: the image a checkpoint at the log's end would hold
    /// after the restart rollback, and that rollback's compensation log
    /// records (CLRs) for the recovering site to append. The rolled-back
    /// executions are the CLRs' `Abort`s, newest first; the image's
    /// `active` list holds only the prepared executions, whose updates
    /// survive. The last checkpoint seeds the fold with the state the
    /// records before it left; the records after it are folded on top.
    ///
    /// Without the CLRs a later replay of the longer log would re-apply the
    /// rolled-back executions' stale before-images on top of post-recovery
    /// commits (the reason ARIES logs CLRs during restart).
    pub fn recover(&self) -> (CheckpointImage, Vec<LogRecord>) {
        let records = self.records();
        let mut items: FastHashMap<Key, Option<Value>> = FastHashMap::default();
        let mut terminated: FastHashSet<ExecId> = FastHashSet::default();
        let mut prepared: FastHashSet<ExecId> = FastHashSet::default();
        let mut local_commits: FastHashMap<GlobalTxnId, Arc<CommitRecord>> = FastHashMap::default();
        let mut outcomes: FastHashMap<GlobalTxnId, bool> = FastHashMap::default();
        let mut comp_done: FastHashSet<GlobalTxnId> = FastHashSet::default();
        let mut pending: FastHashMap<ExecId, Vec<(Key, Option<Value>)>> = FastHashMap::default();
        let mut order: Vec<ExecId> = Vec::new();
        let mut next_local_seq = 0u64;
        if let Some(LogRecord::Checkpoint(cp)) = records.first() {
            items.extend(cp.items.iter().map(|&(k, v)| (k, Some(v))));
            for a in &cp.active {
                pending.insert(a.exec, a.undo.iter().map(|u| (u.key, u.before)).collect());
                order.push(a.exec);
                if a.prepared {
                    prepared.insert(a.exec);
                }
            }
            local_commits.extend(cp.local_commits.iter().cloned());
            terminated.extend(cp.rolled_back_comps.iter().map(|&g| ExecId::CompSub(g)));
            outcomes.extend(cp.decided.iter().copied());
            next_local_seq = cp.next_local_seq;
        }

        // Redo pass.
        for rec in records {
            // Local-id watermark, so a recovered site never reuses a `TxnId`.
            if let Some(ExecId::Local(l)) = rec.exec() {
                next_local_seq = next_local_seq.max(l.seq + 1);
            }
            match rec {
                LogRecord::Begin(e) => {
                    if !pending.contains_key(e) && !terminated.contains(e) {
                        pending.insert(*e, Vec::new());
                        order.push(*e);
                    }
                }
                LogRecord::Update {
                    exec,
                    key,
                    before,
                    after,
                } => {
                    items.insert(*key, *after);
                    pending
                        .entry(*exec)
                        .or_insert_with(|| {
                            order.push(*exec);
                            Vec::new()
                        })
                        .push((*key, *before));
                }
                LogRecord::Commit(e)
                | LogRecord::LocalCommit { exec: e, .. }
                | LogRecord::Abort(e) => {
                    terminated.insert(*e);
                    prepared.remove(e);
                    pending.remove(e);
                    if let (LogRecord::Commit(_), ExecId::CompSub(g)) = (rec, e) {
                        comp_done.insert(*g);
                    }
                    if let (LogRecord::LocalCommit { record, .. }, ExecId::Sub(g)) = (rec, e) {
                        local_commits.insert(*g, Arc::clone(record));
                    }
                }
                LogRecord::Prepared(e) => {
                    prepared.insert(*e);
                }
                LogRecord::Outcome { txn, commit } => {
                    outcomes.insert(*txn, *commit);
                }
                LogRecord::Checkpoint(_) => {}
            }
        }

        // Undo pass: reverse the updates of every in-flight execution,
        // newest execution first, each execution's updates newest first —
        // except *prepared* executions, whose updates must survive. The
        // rollback's `Abort`s terminate too.
        let mut clrs = Vec::new();
        let mut undone: FastHashSet<ExecId> = FastHashSet::default();
        for e in order.iter().rev() {
            if prepared.contains(e) || !undone.insert(*e) {
                continue;
            }
            if let Some(undo) = pending.get(e) {
                for &(key, before) in undo.iter().rev() {
                    let prev = items.insert(key, before).flatten();
                    clrs.push(LogRecord::Update {
                        exec: *e,
                        key,
                        before: prev,
                        after: before,
                    });
                }
                clrs.push(LogRecord::Abort(*e));
                terminated.insert(*e);
            }
        }
        let active = order
            .iter()
            .filter(|e| prepared.contains(e))
            .map(|&exec| ActiveExec {
                exec,
                undo: pending.get(&exec).map_or_else(Vec::new, |u| {
                    u.iter()
                        .map(|&(key, before)| UndoRecord {
                            key,
                            before,
                            after: items.get(&key).copied().flatten(),
                        })
                        .collect()
                }),
                prepared: true,
            })
            .collect();

        let mut items: Vec<(Key, Value)> = items
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        // A locally-committed subtransaction stays unsettled unless a commit
        // outcome arrived, or its compensation already completed.
        let mut local_commits: Vec<(GlobalTxnId, Arc<CommitRecord>)> = local_commits
            .into_iter()
            .filter(|(g, _)| outcomes.get(g) != Some(&true) && !comp_done.contains(g))
            .collect();
        local_commits.sort_unstable_by_key(|&(g, _)| g);
        let mut rolled_back_comps: Vec<GlobalTxnId> = terminated
            .into_iter()
            .filter_map(|e| match e {
                ExecId::CompSub(g) if !comp_done.contains(&g) => Some(g),
                _ => None,
            })
            .collect();
        rolled_back_comps.sort_unstable();
        let mut decided: Vec<(GlobalTxnId, bool)> = outcomes.into_iter().collect();
        decided.sort_unstable_by_key(|&(g, _)| g);
        let image = CheckpointImage {
            lsn: self.end_lsn() + clrs.len() as u64,
            items,
            active,
            local_commits,
            rolled_back_comps,
            decided,
            next_local_seq,
        };
        (image, clrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{GlobalTxnId, LocalTxnId, Op, ScratchDir, SiteId};

    fn sub(i: u64) -> ExecId {
        ExecId::Sub(GlobalTxnId(i))
    }

    /// The executions a recovery rolled back: its CLRs' `Abort`s, in order.
    fn rolled_back(clrs: &[LogRecord]) -> Vec<ExecId> {
        clrs.iter()
            .filter_map(|r| match r {
                LogRecord::Abort(e) => Some(*e),
                _ => None,
            })
            .collect()
    }

    fn local(seq: u64) -> ExecId {
        ExecId::Local(LocalTxnId {
            site: SiteId(0),
            seq,
        })
    }

    /// A little harness that mirrors what a site does: apply to store + log.
    struct Logged {
        store: Store,
        wal: Wal,
    }

    /// Run `body` against a log without a sink and one with the on-disk
    /// sink — same assertions, so both recover identically by test rather
    /// than by construction. The disk log must then hold the same records,
    /// and read them back after a sync and reopen.
    fn on_both_sinks(name: &str, body: impl Fn(&mut Logged)) {
        let mut mem = Logged::new(Wal::new());
        body(&mut mem);
        let dir = ScratchDir::new(&format!("wal-{name}"));
        let path = dir.join("site.wal");
        let mut disk = Logged::new(Wal::open(&path).unwrap());
        body(&mut disk);
        assert_eq!(disk.wal.records(), mem.wal.records());
        disk.wal.sync().unwrap();
        assert_eq!(Wal::open(&path).unwrap().records(), disk.wal.records());
    }

    impl Logged {
        fn new(wal: Wal) -> Self {
            Logged {
                store: Store::new(),
                wal,
            }
        }

        fn load(&mut self, k: Key, v: Value) {
            self.store.load(k, v);
        }

        fn checkpoint(&mut self) {
            self.wal.checkpoint(CheckpointImage::of_store(&self.store));
        }

        fn begin(&mut self, e: ExecId) {
            self.wal.append(LogRecord::Begin(e));
        }

        fn apply(&mut self, e: ExecId, op: Op) {
            self.store.apply(e, op).unwrap();
            let rec = *self
                .store
                .last_undo(e)
                .expect("mutation must log an undo record");
            self.wal.append_update(e, &rec);
        }

        fn commit(&mut self, e: ExecId) {
            self.store.commit(e);
            self.wal.append(LogRecord::Commit(e));
        }

        fn abort(&mut self, e: ExecId) {
            let undo = self.store.rollback(e);
            for rec in undo.iter().rev() {
                // reversing updates (CLRs)
                self.wal.append(LogRecord::Update {
                    exec: e,
                    key: rec.key,
                    before: rec.after,
                    after: rec.before,
                });
            }
            self.wal.append(LogRecord::Abort(e));
        }
    }

    #[test]
    fn recover_empty_log() {
        let wal = Wal::new();
        let (st, clrs) = wal.recover();
        assert_eq!(st, CheckpointImage::default());
        assert!(clrs.is_empty());
    }

    #[test]
    fn recover_committed_updates() {
        on_both_sinks("recover-committed-updates", |h| {
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Write(Key(1), Value(20)));
            h.commit(sub(0));
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(20))]);
            assert!(st.active.is_empty() && clrs.is_empty());
        });
    }

    #[test]
    fn recover_rolls_back_in_flight() {
        on_both_sinks("recover-rolls-back-in-flight", |h| {
            h.load(Key(1), Value(10));
            h.load(Key(2), Value(5));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Write(Key(1), Value(99)));
            h.apply(sub(0), Op::Write(Key(2), Value(98)));
            // crash before commit
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(10)), (Key(2), Value(5))]);
            let clr = |key, before, after| LogRecord::Update {
                exec: sub(0),
                key,
                before: Some(Value(before)),
                after: Some(Value(after)),
            };
            assert_eq!(
                clrs,
                vec![
                    clr(Key(2), 98, 5),
                    clr(Key(1), 99, 10),
                    LogRecord::Abort(sub(0))
                ],
                "newest update reversed first, then the terminator"
            );
            assert!(st.active.is_empty(), "nothing is left in flight");
            assert_eq!(st.lsn, h.wal.end_lsn() + 3, "the image sits after the CLRs");
        });
    }

    #[test]
    fn recover_after_explicit_abort_is_clean() {
        on_both_sinks("recover-after-explicit-abort-is-clean", |h| {
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(local(0));
            h.apply(local(0), Op::Write(Key(1), Value(50)));
            h.abort(local(0));
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(10))]);
            assert!(clrs.is_empty(), "aborted exec is terminated, not in-flight");
            assert_eq!(st.next_local_seq, 1);
        });
    }

    #[test]
    fn recover_mixed_committed_and_inflight() {
        on_both_sinks("recover-mixed-committed-and-inflight", |h| {
            h.load(Key(1), Value(1));
            h.load(Key(2), Value(2));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Add(Key(1), 10));
            h.commit(sub(0)); // locally committed under O2PC: durable
            h.begin(sub(1));
            h.apply(sub(1), Op::Add(Key(2), 10));
            // crash: sub(1) in flight
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(11)), (Key(2), Value(2))]);
            assert_eq!(rolled_back(&clrs), vec![sub(1)]);
            assert!(st.active.is_empty());
        });
    }

    #[test]
    fn recover_inserted_key_in_flight_is_removed() {
        on_both_sinks("recover-inserted-key-in-flight-is-removed", |h| {
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Insert(Key(7), Value(3)));
            let (st, _) = h.wal.recover();
            assert!(st.items.is_empty(), "insert by in-flight exec must vanish");
        });
    }

    #[test]
    fn recovery_uses_last_checkpoint_only() {
        on_both_sinks("recovery-uses-last-checkpoint-only", |h| {
            h.load(Key(1), Value(1));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Write(Key(1), Value(2)));
            h.commit(sub(0));
            h.checkpoint(); // second checkpoint captures Value(2)
            h.begin(sub(1));
            h.apply(sub(1), Op::Write(Key(1), Value(3)));
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(2))]);
            assert_eq!(rolled_back(&clrs), vec![sub(1)]);
            // Truncation preserves recoverability.
            h.wal.truncate_to_checkpoint();
            assert_eq!(h.wal.recover(), (st, clrs));
        });
    }

    #[test]
    fn recovery_is_idempotent() {
        on_both_sinks("recovery-is-idempotent", |h| {
            h.load(Key(1), Value(1));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Add(Key(1), 5));
            assert_eq!(h.wal.recover(), h.wal.recover());
        });
    }

    #[test]
    fn wal_len_and_records() {
        let mut w = Wal::new();
        assert!(w.is_empty());
        w.append(LogRecord::Begin(sub(0)));
        assert_eq!(w.len(), 1);
        assert!(matches!(w.records()[0], LogRecord::Begin(_)));
    }

    /// Without a sink the log is its own durable copy: a crash keeps every
    /// record, and the durability surface reports nothing owed.
    #[test]
    fn sinkless_log_is_already_durable_and_survives_crash_whole() {
        let mut w = Wal::new();
        w.append(LogRecord::Begin(sub(0)));
        w.append(LogRecord::Commit(sub(0)));
        assert!(!w.is_durable() && !w.is_dead());
        assert_eq!((w.append_ticket(), w.sealed_ticket()), (0, 0));
        assert_eq!((w.durable_ticket(), w.pending_bytes()), (0, 0));
        assert!(w.sync().is_ok());
        assert!(w.seal_batch().is_none() && w.stats().is_none());
        let records = w.records().to_vec();
        let w = w.crash().unwrap();
        assert_eq!(w.records(), &records[..]);
        assert!(!w.is_durable());
    }

    #[test]
    fn multiple_inflight_undone_in_reverse_order() {
        // Two in-flight execs touching the same key: undo must restore the
        // oldest before-image.
        let mut w = Wal::new();
        w.append(LogRecord::Checkpoint(Box::new(CheckpointImage {
            items: vec![(Key(1), Value(0))],
            ..CheckpointImage::default()
        })));
        w.append(LogRecord::Update {
            exec: sub(0),
            key: Key(1),
            before: Some(Value(0)),
            after: Some(Value(1)),
        });
        w.append(LogRecord::Update {
            exec: sub(1),
            key: Key(1),
            before: Some(Value(1)),
            after: Some(Value(2)),
        });
        let (st, clrs) = w.recover();
        assert_eq!(st.items, vec![(Key(1), Value(0))]);
        assert_eq!(
            rolled_back(&clrs),
            vec![sub(1), sub(0)],
            "newest rolled back first"
        );
    }

    #[test]
    fn prepared_updates_survive_recovery() {
        on_both_sinks("prepared-updates-survive-recovery", |h| {
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Write(Key(1), Value(77)));
            h.wal.append(LogRecord::Prepared(sub(0)));
            // Crash while prepared.
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(77))], "prepared update kept");
            assert!(clrs.is_empty());
            assert_eq!(
                st.active,
                vec![ActiveExec {
                    exec: sub(0),
                    undo: vec![UndoRecord {
                        key: Key(1),
                        before: Some(Value(10)),
                        after: Some(Value(77)),
                    }],
                    prepared: true,
                }],
                "undo records survive for a late abort"
            );
        });
    }

    #[test]
    fn prepared_then_committed_is_final() {
        on_both_sinks("prepared-then-committed-is-final", |h| {
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Write(Key(1), Value(77)));
            h.wal.append(LogRecord::Prepared(sub(0)));
            h.wal.append(LogRecord::Commit(sub(0)));
            let (st, _) = h.wal.recover();
            assert!(st.active.is_empty());
            assert_eq!(st.items, vec![(Key(1), Value(77))]);
        });
    }

    #[test]
    fn local_commit_record_is_recoverable_until_resolved() {
        on_both_sinks("local-commit-record-is-recoverable-until-resolved", |h| {
            let _ = CommitRecord::default();
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(3));
            h.apply(sub(3), Op::Add(Key(1), 5));
            let record = Arc::new(h.store.commit(sub(3)));
            h.wal.append(LogRecord::LocalCommit {
                exec: sub(3),
                record: record.clone(),
            });
            // Crash before the decision: the commit record must be recoverable.
            let (st, _) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(15))]);
            assert_eq!(st.local_commits, vec![(GlobalTxnId(3), record.clone())]);
            // A commit outcome resolves it.
            h.wal.append(LogRecord::Outcome {
                txn: GlobalTxnId(3),
                commit: true,
            });
            assert!(h.wal.recover().0.local_commits.is_empty());
        });
    }

    #[test]
    fn completed_compensation_resolves_local_commit() {
        on_both_sinks("completed-compensation-resolves-local-commit", |h| {
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(3));
            h.apply(sub(3), Op::Add(Key(1), 5));
            let record = Arc::new(h.store.commit(sub(3)));
            h.wal.append(LogRecord::LocalCommit {
                exec: sub(3),
                record,
            });
            h.wal.append(LogRecord::Outcome {
                txn: GlobalTxnId(3),
                commit: false,
            });
            // Abort outcome alone keeps the record (the CT may still need to run)…
            assert_eq!(h.wal.recover().0.local_commits.len(), 1);
            // …until the compensating subtransaction commits.
            let ct = ExecId::CompSub(GlobalTxnId(3));
            h.begin(ct);
            h.apply(ct, Op::Add(Key(1), -5));
            h.store.commit(ct);
            h.wal.append(LogRecord::Commit(ct));
            let (st, _) = h.wal.recover();
            assert!(st.local_commits.is_empty());
            assert_eq!(st.items, vec![(Key(1), Value(10))]);
        });
    }

    #[test]
    fn recover_checkpoint_only_log() {
        on_both_sinks("recover-checkpoint-only-log", |h| {
            // A freshly-checkpointed idle site: recovery is exactly the image.
            h.load(Key(1), Value(10));
            h.load(Key(2), Value(-3));
            h.checkpoint();
            let (st, clrs) = h.wal.recover();
            assert!(clrs.is_empty());
            assert_eq!(
                st,
                CheckpointImage {
                    lsn: 1,
                    ..CheckpointImage::of_store(&h.store)
                }
            );
        });
    }

    #[test]
    fn truncate_to_checkpoint_is_idempotent() {
        on_both_sinks("truncate-to-checkpoint-is-idempotent", |h| {
            h.load(Key(1), Value(1));
            h.begin(sub(0));
            h.apply(sub(0), Op::Add(Key(1), 4));
            h.commit(sub(0));
            // No checkpoint yet: truncation must be a no-op.
            let before = h.wal.len();
            h.wal.truncate_to_checkpoint();
            assert_eq!(h.wal.len(), before, "no checkpoint → nothing to drop");
            h.checkpoint();
            h.begin(sub(1));
            h.apply(sub(1), Op::Add(Key(1), 2));
            h.wal.truncate_to_checkpoint();
            let once = h.wal.records().to_vec();
            let st_once = h.wal.recover();
            h.wal.truncate_to_checkpoint();
            assert_eq!(h.wal.records(), &once[..], "second truncation is a no-op");
            assert_eq!(h.wal.recover(), st_once);
            assert!(matches!(h.wal.records()[0], LogRecord::Checkpoint { .. }));
        });
    }

    /// Truncation drops records, not numbers: the LSN the next record gets
    /// is its position since the log began, on the live log, after a
    /// truncation, and on the log a reopen rebuilds from the last durable
    /// checkpoint.
    #[test]
    fn lsns_survive_truncation_and_reload() {
        on_both_sinks("lsns-survive-truncation-and-reload", |h| {
            h.load(Key(1), Value(1));
            h.checkpoint();
            h.begin(sub(0));
            h.apply(sub(0), Op::Add(Key(1), 1));
            h.commit(sub(0));
            assert_eq!(h.wal.end_lsn(), 4);
            h.checkpoint();
            h.begin(sub(1));
            h.wal.truncate_to_checkpoint();
            assert_eq!(h.wal.end_lsn(), 6);
            assert!(matches!(&h.wal.records()[0], LogRecord::Checkpoint(cp) if cp.lsn == 4));
            assert_eq!(h.wal.len(), 2);
        });
    }

    /// On disk a checkpoint is a truncation point only once it is durable:
    /// until then a crash can fall back to the older one, so the records
    /// between the two stay in memory for the crash path to compare, while
    /// `records()` already starts at the newer one.
    #[test]
    fn disk_truncation_waits_for_a_durable_checkpoint() {
        let dir = ScratchDir::new("wal-durable-truncation");
        let mut h = Logged::new(Wal::open(dir.join("site.wal")).unwrap());
        h.load(Key(1), Value(1));
        h.checkpoint();
        h.begin(sub(0));
        h.wal.sync().unwrap();
        h.checkpoint();
        h.wal.truncate_to_checkpoint();
        assert_eq!(h.wal.len(), 1, "records() starts at the newest checkpoint");
        assert_eq!(h.wal.retained().next().map(|(lsn, _)| lsn), Some(0));
        let crashed = h.wal.crash().unwrap();
        assert_eq!(crashed.end_lsn(), 2, "the undurable checkpoint was lost");
        assert!(matches!(&crashed.records()[0], LogRecord::Checkpoint(cp) if cp.lsn == 0));
        let mut h = Logged::new(crashed);
        h.checkpoint();
        h.wal.sync().unwrap();
        h.wal.truncate_to_checkpoint();
        assert_eq!(h.wal.retained().next().map(|(lsn, _)| lsn), Some(2));
    }

    #[test]
    fn double_abort_replay_is_harmless() {
        on_both_sinks("double-abort-replay-is-harmless", |h| {
            // A crash between logging Abort and acking it can make the engine
            // re-log it after recovery; replaying both must not double-undo.
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(local(0));
            h.apply(local(0), Op::Write(Key(1), Value(50)));
            h.abort(local(0));
            h.wal.append(LogRecord::Abort(local(0)));
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(10))]);
            assert!(clrs.is_empty());
            // And a Begin replayed after termination must not resurrect it.
            h.wal.append(LogRecord::Begin(local(0)));
            let (st, clrs) = h.wal.recover();
            assert_eq!(st.items, vec![(Key(1), Value(10))]);
            assert!(clrs.is_empty(), "terminated exec stays terminated");
        });
    }

    #[test]
    fn duplicate_outcome_replay_keeps_one_decision() {
        on_both_sinks("duplicate-outcome-replay-keeps-one-decision", |h| {
            // Decision retransmission across a crash duplicates Outcome records;
            // recovery must collapse them (latest wins) rather than report two.
            h.load(Key(1), Value(10));
            h.checkpoint();
            h.begin(sub(3));
            h.apply(sub(3), Op::Add(Key(1), 5));
            let record = Arc::new(h.store.commit(sub(3)));
            h.wal.append(LogRecord::LocalCommit {
                exec: sub(3),
                record,
            });
            for _ in 0..3 {
                h.wal.append(LogRecord::Outcome {
                    txn: GlobalTxnId(3),
                    commit: true,
                });
            }
            let (st, _) = h.wal.recover();
            assert_eq!(st.decided, vec![(GlobalTxnId(3), true)]);
            assert!(st.local_commits.is_empty());
            assert_eq!(st.items, vec![(Key(1), Value(15))]);
        });
    }
}

//! The site kernel.

use crate::exec::{ExecPhase, ExecState, OpResult};
use o2pc_common::FastHashMap;
use o2pc_common::{
    ExecId, GlobalTxnId, HistEvent, HistEventKind, HistorySink, Key, LocalTxnId, OpKind, Program,
    SimTime, SiteId, TxnId, Value,
};
use o2pc_compensation::{plan_compensation, CompensationModel, CompensationPlan};
use o2pc_locking::{LockManager, RequestOutcome};
use o2pc_marking::{MarkEvent, MarkState, SiteMarks};
use o2pc_storage::{ActiveExec, CheckpointImage, CommitRecord, FlushBatch, LogRecord, Store, Wal};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A site checkpoints once the records appended since its last checkpoint
/// outnumber this many times that checkpoint's entries: the log then holds
/// about one image's worth of records, and building an image costs a
/// bounded share of each record appended. One, not more: the records a
/// truncation frees cost more to free the colder they are, and larger
/// ratios cost `sim-optimistic` throughput (DESIGN.md §9 has the numbers).
pub const CHECKPOINT_RATIO: usize = 1;

/// The fewest records a site's log holds before it checkpoints, so a
/// near-empty image does not mean a checkpoint on every step.
pub const CHECKPOINT_FLOOR: usize = 1024;

/// What a *yes* vote does with the subtransaction's locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LockPolicy {
    /// O2PC: release **all** locks at the commit vote (local commit).
    #[default]
    ReleaseAll,
    /// Distributed 2PL — or an O2PC site performing non-compensatable real
    /// actions: release read locks, retain write locks until the decision.
    HoldWrites,
}

/// A participant's vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// Vote to commit.
    Yes,
    /// Vote to abort (the subtransaction has been rolled back locally).
    No,
}

/// What a participant can answer about a transaction's fate when a blocked
/// peer runs the cooperative termination protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    /// This site has not voted yes (and, per the protocol's safety rule,
    /// has now unilaterally aborted): the decision cannot be commit.
    NotPrepared,
    /// Voted yes, decision unknown here.
    PreparedUncertain,
    /// The decision commit is known here.
    KnowsCommit,
    /// The decision abort is known here.
    KnowsAbort,
    /// No answer (used by callers for unreachable peers; a site never
    /// answers this itself).
    Unreachable,
}

/// Site configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteConfig {
    /// Which compensation model the site's interface supports.
    pub compensation_model: CompensationModel,
}

/// Result of [`Site::vote`].
#[derive(Clone, Debug)]
pub struct VoteOutcome {
    /// The vote sent back to the coordinator.
    pub vote: Vote,
    /// Executions unblocked by any lock release this triggered.
    pub woken: Vec<ExecId>,
}

/// Result of [`Site::decide`].
#[derive(Clone, Debug, Default)]
pub struct DecideOutcome {
    /// Executions unblocked by lock releases.
    pub woken: Vec<ExecId>,
    /// If the decision was *abort* for a locally-committed subtransaction:
    /// the compensation plan to execute as `CT_ij` (possibly empty for a
    /// read-only subtransaction — the caller should then complete the
    /// compensation immediately).
    pub compensation: Option<CompensationPlan>,
}

/// One autonomous local DBMS.
#[derive(Debug)]
pub struct Site {
    id: SiteId,
    config: SiteConfig,
    store: Store,
    wal: Wal,
    locks: LockManager,
    marks: SiteMarks,
    last_writer: FastHashMap<Key, TxnId>,
    execs: FastHashMap<ExecId, ExecState>,
    /// Locally-committed subtransactions awaiting the coordinator decision.
    commit_records: FastHashMap<GlobalTxnId, Arc<CommitRecord>>,
    /// Locally-committed subtransactions whose abort decision arrived, until
    /// their compensation commits: the log still owes recovery their commit
    /// records (persistence of compensation), so a checkpoint carries them.
    compensating: FastHashMap<GlobalTxnId, Arc<CommitRecord>>,
    /// Compensations rolled back and not yet committed. Recovery ignores
    /// the `Begin` of a re-run (its `Abort` already ended that execution),
    /// so a re-run enters the in-flight set only with its first write.
    comps_rolled_back: BTreeSet<GlobalTxnId>,
    /// Decisions this site has learned (answers termination-protocol
    /// queries from blocked peers).
    decided: FastHashMap<GlobalTxnId, bool>,
    /// Live index of subtransactions in the *Running* phase — maintained
    /// at every phase transition so polls need no scan-and-sort over the
    /// exec table.
    running: BTreeSet<GlobalTxnId>,
    /// Live index of *Prepared* (in-doubt under 2PC) subtransactions.
    prepared: BTreeSet<GlobalTxnId>,
    local_seq: u64,
    /// Running count behind [`ExecState::entered`].
    entries: u64,
    /// Records the log may hold (counting its last checkpoint) before
    /// [`Site::checkpoint_due`] says it is time for the next one.
    checkpoint_after: usize,
    /// Compensation operations skipped because the state they would restore
    /// no longer admits them (e.g. re-deleting an already-deleted item).
    pub skipped_comp_ops: u64,
}

impl Site {
    /// New empty site with an in-memory WAL.
    pub fn new(id: SiteId, config: SiteConfig) -> Self {
        Self::with_wal(id, config, Wal::new())
    }

    /// New empty site logging to the given WAL.
    pub fn with_wal(id: SiteId, config: SiteConfig, wal: Wal) -> Self {
        Site {
            id,
            config,
            store: Store::new(),
            wal,
            locks: LockManager::new(),
            marks: SiteMarks::new(),
            last_writer: FastHashMap::default(),
            execs: FastHashMap::default(),
            commit_records: FastHashMap::default(),
            compensating: FastHashMap::default(),
            comps_rolled_back: BTreeSet::new(),
            decided: FastHashMap::default(),
            running: BTreeSet::new(),
            prepared: BTreeSet::new(),
            local_seq: 0,
            entries: 0,
            checkpoint_after: CHECKPOINT_FLOOR,
            skipped_comp_ops: 0,
        }
    }

    /// Site id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Pre-load a data item (setup; not logged as a transaction).
    pub fn load(&mut self, key: Key, value: Value) {
        self.store.load(key, value);
    }

    /// Take a WAL checkpoint of the site's live state and drop the records
    /// behind it (the engine checkpoints once after loading, then whenever
    /// [`Site::checkpoint_due`]).
    pub fn checkpoint(&mut self) {
        let image = self.checkpoint_image();
        self.checkpoint_after = (CHECKPOINT_RATIO * image.entries()).max(CHECKPOINT_FLOOR);
        self.wal.checkpoint(image);
        self.wal.truncate_to_checkpoint();
    }

    /// Has the log outgrown its last checkpoint (see [`CHECKPOINT_RATIO`])?
    #[inline]
    pub fn checkpoint_due(&self) -> bool {
        self.wal.len() > self.checkpoint_after
    }

    /// Everything recovery would read from the log so far, built from the
    /// live state: the store, the in-flight executions in the order they
    /// entered the log, the local commits not yet settled, the retained
    /// decisions and the local-id watermark.
    pub fn checkpoint_image(&self) -> CheckpointImage {
        let mut items: Vec<(Key, Value)> = self.store.iter().collect();
        items.sort_unstable_by_key(|&(k, _)| k);
        let mut active: Vec<(u64, ActiveExec)> = self
            .execs
            .values()
            .filter_map(|st| {
                let entered = st.entered?;
                let exec = ActiveExec {
                    exec: st.exec,
                    undo: self.store.pending_undo(st.exec).to_vec(),
                    prepared: st.phase == ExecPhase::Prepared,
                };
                Some((entered, exec))
            })
            .collect();
        active.sort_unstable_by_key(|&(entered, _)| entered);
        let mut local_commits: Vec<(GlobalTxnId, Arc<CommitRecord>)> = self
            .commit_records
            .iter()
            .chain(&self.compensating)
            .map(|(&g, rec)| (g, Arc::clone(rec)))
            .collect();
        local_commits.sort_unstable_by_key(|&(g, _)| g);
        let mut decided: Vec<(GlobalTxnId, bool)> =
            self.decided.iter().map(|(&g, &c)| (g, c)).collect();
        decided.sort_unstable();
        CheckpointImage {
            lsn: 0,
            items,
            active: active.into_iter().map(|(_, a)| a).collect(),
            local_commits,
            rolled_back_comps: self.comps_rolled_back.iter().copied().collect(),
            decided,
            next_local_seq: self.local_seq,
        }
    }

    /// The next [`ExecState::entered`] stamp.
    fn next_entry(&mut self) -> u64 {
        self.entries += 1;
        self.entries
    }

    /// Current value of an item.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.store.get(key)
    }

    /// Sum of all item values (invariant checks).
    pub fn total(&self) -> i64 {
        self.store.total()
    }

    /// Allocate an id for a new independent local transaction.
    pub fn next_local_id(&mut self) -> LocalTxnId {
        let id = LocalTxnId {
            site: self.id,
            seq: self.local_seq,
        };
        self.local_seq += 1;
        id
    }

    /// The site's marking state (R1 checks read it).
    pub fn marks(&self) -> &SiteMarks {
        &self.marks
    }

    /// Marking of this site with respect to `txn`.
    pub fn mark_of(&self, txn: GlobalTxnId) -> MarkState {
        self.marks.mark_of(txn)
    }

    /// Rule R3: forget the undone marking for `txn` (UDUM1 fired).
    pub fn unmark(&mut self, txn: GlobalTxnId) {
        self.marks.unmark(txn);
    }

    /// The lock manager's statistics.
    pub fn lock_stats(&self) -> &o2pc_locking::LockStats {
        self.locks.stats()
    }

    /// Is the execution currently parked on a lock queue?
    pub fn is_blocked(&self, exec: ExecId) -> bool {
        self.locks.waiting_on(exec).is_some()
    }

    /// The execution's state, if active.
    pub fn exec_state(&self, exec: ExecId) -> Option<&ExecState> {
        self.execs.get(&exec)
    }

    /// Global transactions with a subtransaction still *running* here
    /// (blocked or mid-program — not yet acked). The engine re-checks these
    /// against the marking sets whenever a mark is added: with the marking
    /// sets under strict 2PL, a subtransaction admitted under the old marks
    /// could never observe data past the new mark, so its in-flight
    /// incarnation must be aborted before it can (see §6.2's deadlock
    /// discussion — aborting here is the deadlock-victim path of the
    /// sitemarks lock cycle).
    pub fn running_subs(&self) -> Vec<GlobalTxnId> {
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.running, self.scan_phase(ExecPhase::Running));
        self.running.iter().copied().collect()
    }

    /// Global transactions prepared at this site (in-doubt under 2PC).
    pub fn prepared_subs(&self) -> Vec<GlobalTxnId> {
        #[cfg(debug_assertions)]
        debug_assert_eq!(self.prepared, self.scan_phase(ExecPhase::Prepared));
        self.prepared.iter().copied().collect()
    }

    /// Recompute an index set from the exec table (debug cross-check that
    /// the live `running`/`prepared` indexes track every phase transition).
    #[cfg(debug_assertions)]
    fn scan_phase(&self, phase: ExecPhase) -> BTreeSet<GlobalTxnId> {
        self.execs
            .iter()
            .filter_map(|(e, st)| match e {
                ExecId::Sub(g) if st.phase == phase => Some(*g),
                _ => None,
            })
            .collect()
    }

    /// Drop `exec` from the live phase indexes (it left the exec table or
    /// moved to a terminal phase).
    fn unindex(&mut self, exec: ExecId) {
        if let ExecId::Sub(g) = exec {
            self.running.remove(&g);
            self.prepared.remove(&g);
        }
    }

    /// Global transactions locally committed here whose decision is still
    /// unknown (in-doubt under O2PC — the data is exposed, only the
    /// compensate-or-finalize question is open).
    pub fn pending_local_commits(&self) -> Vec<GlobalTxnId> {
        let mut v: Vec<GlobalTxnId> = self.commit_records.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Is `g` locally committed here with its decision still unknown?
    /// (Allocation-free membership twin of [`Site::pending_local_commits`].)
    pub fn has_pending_local_commit(&self, g: GlobalTxnId) -> bool {
        self.commit_records.contains_key(&g)
    }

    /// Find a local deadlock cycle, if any.
    pub fn find_deadlock(&mut self) -> Option<Vec<ExecId>> {
        self.locks.find_deadlock()
    }

    /// The site's current waits-for edges (`(waiter, blocker)`), used by the
    /// engine's distributed deadlock detector.
    pub fn waits_for_edges(&self) -> Vec<(ExecId, ExecId)> {
        self.locks.waits_for_edges()
    }

    /// Append the executions `exec` waits for here to `out` (its out-edges
    /// in [`Site::waits_for_edges`]).
    pub fn blockers_of(&self, exec: ExecId, out: &mut Vec<ExecId>) {
        self.locks.blockers_of(exec, out)
    }

    /// Begin an execution with the given operation program.
    pub fn begin(&mut self, exec: ExecId, ops: Program, now: SimTime, hist: &mut dyn HistorySink) {
        debug_assert!(!self.execs.contains_key(&exec), "{exec} already active");
        self.wal.append(LogRecord::Begin(exec));
        hist.record(HistEvent {
            site: self.id,
            txn: exec.txn_id(),
            kind: HistEventKind::Begin,
            time: now,
        });
        let mut state = ExecState::new(exec, ops);
        if !matches!(exec, ExecId::CompSub(g) if self.comps_rolled_back.contains(&g)) {
            state.entered = Some(self.next_entry());
        }
        self.execs.insert(exec, state);
        if let ExecId::Sub(g) = exec {
            self.running.insert(g);
        }
    }

    /// Execute the execution's next operation. On `Blocked` the caller must
    /// wait for the exec to appear in a `woken` list and then call again
    /// (the lock is granted re-entrantly at that point).
    pub fn execute_next_op(
        &mut self,
        exec: ExecId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> OpResult {
        let state = self
            .execs
            .get(&exec)
            .unwrap_or_else(|| panic!("{exec} not active"));
        debug_assert_eq!(state.phase, ExecPhase::Running, "{exec} not running");
        let Some(op) = state.current_op() else {
            return OpResult::Done {
                value: None,
                finished: true,
            };
        };

        if self.locks.request(exec, op.key(), op.access_mode(), now) == RequestOutcome::Waiting {
            return OpResult::Blocked;
        }

        match self.store.apply(exec, op) {
            Ok(value) => {
                let txn = exec.txn_id();
                let read_from = if op.kind() == OpKind::Read {
                    self.last_writer
                        .get(&op.key())
                        .copied()
                        .filter(|w| *w != txn)
                } else {
                    None
                };
                if op.kind() == OpKind::Write {
                    let rec = *self.store.last_undo(exec).expect("mutation logged");
                    self.wal.append_update(exec, &rec);
                }
                hist.record_access(self.id, txn, op.kind(), op.key(), read_from, now);
                if op.kind() == OpKind::Write {
                    self.last_writer.insert(op.key(), txn);
                }
                let state = self.execs.get_mut(&exec).unwrap();
                if state.entered.is_none() && op.kind() == OpKind::Write {
                    self.entries += 1;
                    state.entered = Some(self.entries);
                }
                state.pc += 1;
                let finished = state.pc == state.ops.len();
                if finished {
                    state.phase = ExecPhase::Completed;
                    self.unindex(exec);
                }
                OpResult::Done { value, finished }
            }
            Err(e) => {
                if exec.is_comp() {
                    // Persistence of compensation: a CT never fails as a
                    // whole. A compensating operation that no longer applies
                    // (the item was since deleted, etc.) is skipped — the
                    // semantic state it would re-establish is already gone.
                    self.skipped_comp_ops += 1;
                    let state = self.execs.get_mut(&exec).unwrap();
                    state.pc += 1;
                    let finished = state.pc == state.ops.len();
                    if finished {
                        state.phase = ExecPhase::Completed;
                    }
                    OpResult::Done {
                        value: None,
                        finished,
                    }
                } else {
                    let state = self.execs.get_mut(&exec).unwrap();
                    state.phase = ExecPhase::Failed;
                    state.error = Some(e.clone());
                    self.unindex(exec);
                    OpResult::Failed(e)
                }
            }
        }
    }

    /// Commit an independent local transaction (strict 2PL: all locks
    /// released now). Returns woken executions.
    pub fn commit_local(
        &mut self,
        exec: ExecId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> Vec<ExecId> {
        debug_assert!(matches!(exec, ExecId::Local(_)));
        let state = self.execs.remove(&exec).expect("local exec active");
        debug_assert_eq!(state.phase, ExecPhase::Completed);
        self.store.commit(exec);
        self.wal.append(LogRecord::Commit(exec));
        hist.record(HistEvent {
            site: self.id,
            txn: exec.txn_id(),
            kind: HistEventKind::Committed,
            time: now,
        });
        self.locks.release_all(exec, now)
    }

    /// Roll an execution back from the log and release its locks.
    ///
    /// For subtransactions of global transactions the undo writes are
    /// recorded in the history as write accesses of `CT_i` (§3.2: standard
    /// roll-back *is* the compensating subtransaction at a site that voted
    /// abort). For local transactions and in-flight compensating
    /// subtransactions the undo is purely physical — strict 2PL guarantees
    /// nobody observed the undone values.
    pub fn abort_exec(
        &mut self,
        exec: ExecId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> Vec<ExecId> {
        let undo = self.store.rollback(exec);
        for rec in undo.iter().rev() {
            self.wal.append(LogRecord::Update {
                exec,
                key: rec.key,
                before: rec.after,
                after: rec.before,
            });
        }
        self.wal.append(LogRecord::Abort(exec));
        if let ExecId::Sub(g) = exec {
            let ct = TxnId::Compensation(g);
            for rec in undo.iter().rev() {
                hist.record_access(self.id, ct, OpKind::Write, rec.key, None, now);
                self.last_writer.insert(rec.key, ct);
            }
            hist.record(HistEvent {
                site: self.id,
                txn: TxnId::Global(g),
                kind: HistEventKind::RolledBack,
                time: now,
            });
        } else {
            hist.record(HistEvent {
                site: self.id,
                txn: exec.txn_id(),
                kind: HistEventKind::RolledBack,
                time: now,
            });
        }
        self.execs.remove(&exec);
        self.unindex(exec);
        self.locks.release_all(exec, now)
    }

    /// Unilaterally abort the subtransaction of `g` before the vote (local
    /// autonomy: deadlock victimhood, R1 revalidation failure, operator
    /// action). The roll-back is recorded as `CT_i` activity and the site
    /// becomes undone with respect to `g`; the eventual VOTE-REQ will be
    /// answered *no* (the execution is gone).
    pub fn unilateral_abort(
        &mut self,
        g: GlobalTxnId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> Vec<ExecId> {
        let exec = ExecId::Sub(g);
        debug_assert!(
            self.execs.contains_key(&exec),
            "no subtransaction of {g} to abort"
        );
        let woken = self.abort_exec(exec, now, hist);
        let _ = self.marks.apply(g, MarkEvent::VoteAbort);
        woken
    }

    /// Respond to VOTE-REQ for global transaction `g`. `force_abort` models
    /// the site exercising its autonomy (or any local validation failure).
    pub fn vote(
        &mut self,
        g: GlobalTxnId,
        policy: LockPolicy,
        force_abort: bool,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> VoteOutcome {
        let exec = ExecId::Sub(g);
        // Duplicate / retransmitted VOTE-REQ: re-answer consistently
        // without re-running vote side effects. A site that already voted
        // yes (locally committed, or prepared under hold-writes) must never
        // flip to no on a repeat, and the decision outcome dominates both.
        if let Some(&commit) = self.decided.get(&g) {
            return VoteOutcome {
                vote: if commit { Vote::Yes } else { Vote::No },
                woken: Vec::new(),
            };
        }
        if self.commit_records.contains_key(&g) {
            return VoteOutcome {
                vote: Vote::Yes,
                woken: Vec::new(),
            };
        }
        let Some(state) = self.execs.get(&exec) else {
            // Already rolled back unilaterally: the marking is in place.
            return VoteOutcome {
                vote: Vote::No,
                woken: Vec::new(),
            };
        };
        if state.phase == ExecPhase::Prepared {
            return VoteOutcome {
                vote: Vote::Yes,
                woken: Vec::new(),
            };
        }
        if force_abort || state.phase == ExecPhase::Failed || state.phase == ExecPhase::Running {
            let woken = self.abort_exec(exec, now, hist);
            // Roll-back is this site's compensation: undone immediately.
            let _ = self.marks.apply(g, MarkEvent::VoteAbort);
            return VoteOutcome {
                vote: Vote::No,
                woken,
            };
        }
        debug_assert_eq!(state.phase, ExecPhase::Completed);
        match policy {
            LockPolicy::ReleaseAll => {
                let rec = Arc::new(self.store.commit(exec));
                self.wal.append(LogRecord::LocalCommit {
                    exec,
                    record: Arc::clone(&rec),
                });
                self.commit_records.insert(g, rec);
                hist.record(HistEvent {
                    site: self.id,
                    txn: TxnId::Global(g),
                    kind: HistEventKind::LocallyCommitted,
                    time: now,
                });
                let _ = self.marks.apply(g, MarkEvent::VoteCommit);
                self.execs.remove(&exec);
                let woken = self.locks.release_all(exec, now);
                VoteOutcome {
                    vote: Vote::Yes,
                    woken,
                }
            }
            LockPolicy::HoldWrites => {
                self.wal.append(LogRecord::Prepared(exec));
                let _ = self.marks.apply(g, MarkEvent::VoteCommit);
                self.execs.get_mut(&exec).unwrap().phase = ExecPhase::Prepared;
                self.prepared.insert(g);
                let woken = self.locks.release_read_locks(exec, now);
                VoteOutcome {
                    vote: Vote::Yes,
                    woken,
                }
            }
        }
    }

    /// Apply the coordinator's decision for `g`.
    pub fn decide(
        &mut self,
        g: GlobalTxnId,
        commit: bool,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> DecideOutcome {
        let repeat = self.decided.insert(g, commit) == Some(commit);
        if !repeat {
            self.wal.append(LogRecord::Outcome { txn: g, commit });
        }
        let exec = ExecId::Sub(g);
        // Case 1: the subtransaction is still active here — prepared under
        // hold-writes, or never even asked to vote (an abort decision can
        // overtake the VOTE-REQ when the coordinator times out on another
        // participant).
        if let Some(state) = self.execs.get(&exec) {
            if commit {
                debug_assert_eq!(
                    state.phase,
                    ExecPhase::Prepared,
                    "commit for unprepared exec"
                );
                self.store.commit(exec);
                self.wal.append(LogRecord::Commit(exec));
                hist.record(HistEvent {
                    site: self.id,
                    txn: TxnId::Global(g),
                    kind: HistEventKind::Committed,
                    time: now,
                });
                let _ = self.marks.apply(g, MarkEvent::DecisionCommit);
                self.execs.remove(&exec);
                self.unindex(exec);
                return DecideOutcome {
                    woken: self.locks.release_all(exec, now),
                    compensation: None,
                };
            }
            let woken = self.abort_exec(exec, now, hist);
            // LocallyCommitted → Undone; a site that never voted jumps
            // straight to undone (the roll-back completed synchronously).
            if self.marks.apply(g, MarkEvent::DecisionAbort).is_err() {
                self.marks.mark_undone(g);
            }
            return DecideOutcome {
                woken,
                compensation: None,
            };
        }
        // Case 2: locally committed under O2PC.
        if let Some(rec) = self.commit_records.remove(&g) {
            if commit {
                hist.record(HistEvent {
                    site: self.id,
                    txn: TxnId::Global(g),
                    kind: HistEventKind::Committed,
                    time: now,
                });
                let _ = self.marks.apply(g, MarkEvent::DecisionCommit);
                return DecideOutcome::default();
            }
            let plan = plan_compensation(self.config.compensation_model, &rec);
            self.compensating.insert(g, rec);
            // The marking transition to Undone happens when CT_ij completes
            // (rule R2); until then the site remains locally-committed.
            return DecideOutcome {
                woken: Vec::new(),
                compensation: Some(plan),
            };
        }
        // Case 3: a repeated decision (e.g. the coordinator resends after
        // the termination protocol already resolved us) is a no-op; a fresh
        // decision here means the site voted no (already undone) and only
        // an abort can arrive.
        if repeat {
            return DecideOutcome::default();
        }
        if commit {
            // A commit with no live exec and no retained commit record can
            // only be a stale duplicate arriving after this site already
            // applied and forgot the transaction (engine GC): the durable
            // effects are in place, so treat it as the repeat it is.
            return DecideOutcome::default();
        }
        let _ = self.marks.apply(g, MarkEvent::DecisionAbort);
        DecideOutcome::default()
    }

    /// Drop the retained decision record for `g` (engine garbage collection
    /// once every participant has acked the decision and unmarked). Callers
    /// must filter later duplicate DECISIONs themselves; this only bounds
    /// the `decided` map.
    pub fn forget(&mut self, g: GlobalTxnId) {
        self.decided.remove(&g);
    }

    /// Keep only the retained decisions for which `keep` returns true
    /// (recovery pruning: decisions resurrected from the WAL for
    /// transactions the system has already retired are dead weight — GC
    /// only retires a transaction once no participant can still be in
    /// doubt, so no termination round will ever ask about them again).
    pub fn retain_decisions(&mut self, keep: impl FnMut(GlobalTxnId) -> bool) {
        let mut keep = keep;
        self.decided.retain(|&g, _| keep(g));
    }

    /// Replay the WAL and compare the reconstructed item state against the
    /// live store — the durability check used by the chaos oracle. `true`
    /// means a crash right now would recover to exactly the current data.
    ///
    /// **Oracle-time only.** This replays the full log and materializes the
    /// whole store (see [`Site::wal_store_diff`]); it must never run on the
    /// per-decision hot path. The engine exposes it solely through its
    /// end-of-run probe (`wal_divergent_sites`), which the chaos oracle
    /// calls once per run at quiescence.
    pub fn wal_matches_store(&self) -> bool {
        self.wal_store_diff().is_empty()
    }

    /// Keys where WAL replay and the live store disagree, as
    /// `(key, recovered, live)` — diagnostic companion to
    /// [`Site::wal_matches_store`].
    ///
    /// Rebuilds two full ordered maps per call — O(log size + store size)
    /// work and allocation. That is fine exactly once per run in the
    /// oracle, and ruinous anywhere inside the engine loop, which is why
    /// no protocol code path calls it (and none may start to).
    pub fn wal_store_diff(&self) -> Vec<(Key, Option<Value>, Option<Value>)> {
        use std::collections::BTreeMap;
        let recovered: BTreeMap<Key, Value> = self.wal.recover().0.items.into_iter().collect();
        let live: BTreeMap<Key, Value> = self.store.iter().collect();
        let keys: std::collections::BTreeSet<Key> =
            recovered.keys().chain(live.keys()).copied().collect();
        keys.into_iter()
            .filter_map(|k| {
                let r = recovered.get(&k).copied();
                let l = live.get(&k).copied();
                (r != l).then_some((k, r, l))
            })
            .collect()
    }

    /// Answer a cooperative-termination query from a blocked peer (§ the
    /// classic BHG protocol; see `o2pc-protocol::termination`). Following
    /// its safety rule, a participant that has **not yet voted** aborts its
    /// subtransaction unilaterally before answering "not prepared" — that
    /// answer licenses the asker to abort, so this site must never vote yes
    /// afterwards. Returns the answer and any executions woken by the
    /// abort's lock release.
    pub fn answer_termination_query(
        &mut self,
        g: GlobalTxnId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> (PeerState, Vec<ExecId>) {
        if let Some(&commit) = self.decided.get(&g) {
            let state = if commit {
                PeerState::KnowsCommit
            } else {
                PeerState::KnowsAbort
            };
            return (state, Vec::new());
        }
        let exec = ExecId::Sub(g);
        if let Some(state) = self.execs.get(&exec) {
            return match state.phase {
                ExecPhase::Prepared => (PeerState::PreparedUncertain, Vec::new()),
                // Not voted yet: abort unilaterally, then answer.
                _ => {
                    let woken = self.unilateral_abort(g, now, hist);
                    (PeerState::NotPrepared, woken)
                }
            };
        }
        if self.commit_records.contains_key(&g) {
            // Voted yes under O2PC, awaiting the decision: uncertain.
            return (PeerState::PreparedUncertain, Vec::new());
        }
        if self.marks.mark_of(g) == MarkState::Undone {
            // Rolled back here: the transaction cannot commit.
            return (PeerState::NotPrepared, Vec::new());
        }
        // Never participated / already forgotten: safely "not prepared".
        (PeerState::NotPrepared, Vec::new())
    }

    /// Begin executing the compensation plan for `g` as `CT_ij`. The caller
    /// drives it with [`Site::execute_next_op`] on `ExecId::CompSub(g)`.
    pub fn begin_compensation(
        &mut self,
        g: GlobalTxnId,
        plan: &CompensationPlan,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) {
        self.begin(ExecId::CompSub(g), plan.ops.clone(), now, hist);
    }

    /// Complete `CT_ij`: commit its writes, set the undone marking (rule R2
    /// — "the last operation of `CT_ik`"), release its locks.
    pub fn finish_compensation(
        &mut self,
        g: GlobalTxnId,
        now: SimTime,
        hist: &mut dyn HistorySink,
    ) -> Vec<ExecId> {
        let exec = ExecId::CompSub(g);
        let state = self.execs.remove(&exec).expect("compensation active");
        debug_assert_eq!(state.phase, ExecPhase::Completed);
        self.store.commit(exec);
        self.wal.append(LogRecord::Commit(exec));
        // The committed CT settles the local commit in the log. A record a
        // recovery restored among the undecided goes too: its compensation
        // ran without a fresh decision.
        self.compensating.remove(&g);
        self.commit_records.remove(&g);
        self.comps_rolled_back.remove(&g);
        hist.record(HistEvent {
            site: self.id,
            txn: TxnId::Compensation(g),
            kind: HistEventKind::Compensated,
            time: now,
        });
        // Figure 2: locally-committed --decision:abort--> undone, realized at
        // compensation completion.
        if self.marks.mark_of(g) == MarkState::LocallyCommitted {
            let _ = self.marks.apply(g, MarkEvent::DecisionAbort);
        } else {
            self.marks.mark_undone(g);
        }
        self.locks.release_all(exec, now)
    }

    /// Roll back an in-flight compensating subtransaction that lost a local
    /// deadlock. Persistence of compensation: the caller must re-submit the
    /// plan later. The partial writes are physically undone (unobserved —
    /// the CT still held its locks).
    pub fn rollback_compensation(&mut self, g: GlobalTxnId, now: SimTime) -> Vec<ExecId> {
        let exec = ExecId::CompSub(g);
        let undo = self.store.rollback(exec);
        for rec in undo.iter().rev() {
            self.wal.append(LogRecord::Update {
                exec,
                key: rec.key,
                before: rec.after,
                after: rec.before,
            });
        }
        self.wal.append(LogRecord::Abort(exec));
        self.execs.remove(&exec);
        self.comps_rolled_back.insert(g);
        self.locks.release_all(exec, now)
    }

    /// Simulated crash: the volatile state is lost; the WAL survives —
    /// entirely when it is in memory, and up to its durable watermark when
    /// it is on disk (the unsynced tail is gone, as on a real disk). Fails
    /// when an on-disk log cannot be cut or reopened: nothing survives to
    /// recover from.
    ///
    /// A compensation whose records rode the lost tail was undone by that
    /// loss (its commit record is the execution's last, so a lost record
    /// implies no durable commit) and will re-execute under the same id.
    /// The crash records its `RolledBack` in `hist`, or the audit would
    /// merge two physical executions into one node and see cycles that
    /// never existed on any disk. The roll-back of a subtransaction is
    /// recorded as compensation activity too ([`Site::abort_exec`]), so a
    /// lost `Abort` of one voids it the same way: the roll-back will run
    /// again.
    pub fn crash(self, now: SimTime, hist: &mut dyn HistorySink) -> std::io::Result<CrashedSite> {
        let voids = |rec: &LogRecord| match (rec, rec.exec()?) {
            (LogRecord::Abort(_), ExecId::Sub(g)) | (_, ExecId::CompSub(g)) => Some(g),
            _ => None,
        };
        // Only a durable WAL loses a tail; the in-memory one keeps every
        // record. A record is lost when its LSN is at or past the surviving
        // log's end: positions cannot say this, because the live log and
        // the surviving one start at different checkpoints. The live log
        // still holds every record past its newest durable checkpoint, so
        // it holds the lost ones.
        let owned: Vec<(u64, GlobalTxnId)> = if self.wal.is_durable() {
            self.wal
                .retained()
                .filter_map(|(lsn, rec)| voids(rec).map(|g| (lsn, g)))
                .collect()
        } else {
            Vec::new()
        };
        let wal = self.wal.crash()?;
        let lost_from = wal.end_lsn();
        let voided: BTreeSet<GlobalTxnId> = owned
            .into_iter()
            .filter(|&(lsn, _)| lsn >= lost_from)
            .map(|(_, g)| g)
            .collect();
        for g in voided {
            hist.record(HistEvent {
                site: self.id,
                txn: TxnId::Compensation(g),
                kind: HistEventKind::RolledBack,
                time: now,
            });
        }
        Ok(CrashedSite {
            id: self.id,
            config: self.config,
            wal,
            local_seq: self.local_seq,
        })
    }

    /// The site's log, read-only: its records (diagnostics, e.g. tracing a
    /// chaos counterexample) and its durability surface — tickets, pending
    /// bytes, I/O counters — which the engine queries per gated send.
    #[inline]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Write and fsync the site's pending WAL bytes inline (the engine's
    /// start- and end-of-run barriers).
    pub fn wal_sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Seal pending WAL frames into a batch for the runtime's disk. `None`
    /// only when nothing is pending; a dead log's batch fails.
    pub fn wal_seal_batch(&mut self) -> Option<FlushBatch> {
        self.wal.seal_batch()
    }
}

/// A site that crashed: what survives until it restarts.
#[derive(Debug)]
pub struct CrashedSite {
    id: SiteId,
    config: SiteConfig,
    wal: Wal,
    /// The local-id counter at the crash. A durable WAL can lose its
    /// unflushed tail, including the `Begin` of a local transaction the
    /// rest of the system already observed; recovery from the truncated
    /// log alone would then reissue that id and merge two transactions into
    /// one history node. Real systems reserve id ranges durably ahead of
    /// use; keeping the counter here models that reservation.
    local_seq: u64,
}

impl CrashedSite {
    /// The log that survived the crash.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Restart from the surviving log: committed and locally-committed
    /// state is restored; in-flight executions are rolled back, their
    /// `RolledBack` recorded in `hist` (the crash undid their writes, so
    /// leaving them unterminated would make the SG audit count accesses
    /// nobody could ever observe); *prepared* subtransactions keep their
    /// updates and re-acquire their write locks at `now`; locally-committed
    /// subtransactions with an unknown decision keep their commit records
    /// so they can still compensate.
    pub fn recover(self, now: SimTime, hist: &mut dyn HistorySink) -> Site {
        let (image, clrs) = self.wal.recover();
        let mut site = Site::with_wal(self.id, self.config, self.wal);
        // Log the restart rollback (see `Wal::recover`).
        for rec in clrs {
            if let LogRecord::Abort(exec) = rec {
                hist.record(HistEvent {
                    site: site.id,
                    txn: exec.txn_id(),
                    kind: HistEventKind::RolledBack,
                    time: now,
                });
            }
            site.wal.append(rec);
        }
        site.store = image.items.into_iter().collect();
        // Prepared subtransactions survive: re-register their undo
        // obligations, re-acquire their write locks, and restore the
        // in-doubt execution (its program is exhausted — it was prepared).
        for ActiveExec { exec, undo, .. } in image.active {
            for rec in &undo {
                site.locks
                    .request(exec, rec.key, o2pc_common::AccessMode::Write, now);
            }
            site.store.restore_pending(exec, undo);
            let mut st = ExecState::new(exec, Program::from([]));
            st.phase = ExecPhase::Prepared;
            st.entered = Some(site.next_entry());
            site.execs.insert(exec, st);
            if let ExecId::Sub(g) = exec {
                site.prepared.insert(g);
                let _ = site.marks.apply(g, MarkEvent::VoteCommit);
            }
        }
        // Locally-committed subtransactions with unknown global fate keep
        // their commit records so a late abort decision can still compensate.
        for (g, rec) in image.local_commits {
            site.commit_records.insert(g, rec);
            let _ = site.marks.apply(g, MarkEvent::VoteCommit);
        }
        // Logged decisions survive the crash. Forgetting them would make
        // `answer_termination_query` fall through to "never participated ⇒
        // not prepared" for transactions this site in fact knows the fate
        // of — and a peer's cooperative-termination round would presume
        // abort against a committed transaction (then compensate it,
        // silently destroying committed effects).
        site.decided = image.decided.into_iter().collect();
        site.comps_rolled_back = image.rolled_back_comps.into_iter().collect();
        site.local_seq = image.next_local_seq.max(self.local_seq);
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{History, Op};

    fn setup() -> (Site, History) {
        let mut s = Site::new(SiteId(0), SiteConfig::default());
        s.load(Key(1), Value(100));
        s.load(Key(2), Value(50));
        s.checkpoint();
        (s, History::new())
    }

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }

    fn run_all(s: &mut Site, exec: ExecId, now: SimTime, hist: &mut dyn HistorySink) {
        loop {
            match s.execute_next_op(exec, now, hist) {
                OpResult::Done { finished: true, .. } => break,
                OpResult::Done { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn local_txn_lifecycle() {
        let (mut s, mut h) = setup();
        let l = ExecId::Local(s.next_local_id());
        s.begin(
            l,
            Program::from([Op::Read(Key(1)), Op::Add(Key(1), 10)]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, l, SimTime(2), &mut h);
        s.commit_local(l, SimTime(3), &mut h);
        assert_eq!(s.get(Key(1)), Some(Value(110)));
        let kinds: Vec<_> = h.events().iter().map(|e| e.kind).collect();
        assert!(matches!(kinds.last(), Some(HistEventKind::Committed)));
    }

    #[test]
    fn o2pc_vote_yes_releases_all_locks() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(
            sub,
            Program::from([Op::Add(Key(1), -30), Op::Read(Key(2))]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub, SimTime(2), &mut h);
        let out = s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        assert_eq!(out.vote, Vote::Yes);
        assert_eq!(s.mark_of(g(1)), MarkState::LocallyCommitted);
        // Another execution can immediately lock the same keys.
        let l = ExecId::Local(s.next_local_id());
        s.begin(l, Program::from([Op::Add(Key(1), 1)]), SimTime(4), &mut h);
        assert!(matches!(
            s.execute_next_op(l, SimTime(4), &mut h),
            OpResult::Done { .. }
        ));
    }

    #[test]
    fn d2pl_vote_yes_holds_write_locks() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(
            sub,
            Program::from([Op::Add(Key(1), -30), Op::Read(Key(2))]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub, SimTime(2), &mut h);
        let out = s.vote(g(1), LockPolicy::HoldWrites, false, SimTime(3), &mut h);
        assert_eq!(out.vote, Vote::Yes);
        // Write lock on k1 retained: a new writer blocks.
        let l = ExecId::Local(s.next_local_id());
        s.begin(l, Program::from([Op::Add(Key(1), 1)]), SimTime(4), &mut h);
        assert_eq!(s.execute_next_op(l, SimTime(4), &mut h), OpResult::Blocked);
        // Read lock on k2 released: a writer of k2 proceeds.
        let l2 = ExecId::Local(s.next_local_id());
        s.begin(l2, Program::from([Op::Add(Key(2), 1)]), SimTime(5), &mut h);
        assert!(matches!(
            s.execute_next_op(l2, SimTime(5), &mut h),
            OpResult::Done { .. }
        ));
        // Decision commit unblocks the writer.
        let out = s.decide(g(1), true, SimTime(6), &mut h);
        assert_eq!(out.woken, vec![l]);
        assert_eq!(s.mark_of(g(1)), MarkState::Unmarked);
    }

    #[test]
    fn vote_no_rolls_back_and_records_ct_writes() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(
            sub,
            Program::from([Op::Add(Key(1), -30)]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub, SimTime(2), &mut h);
        let out = s.vote(g(1), LockPolicy::ReleaseAll, true, SimTime(3), &mut h);
        assert_eq!(out.vote, Vote::No);
        assert_eq!(s.get(Key(1)), Some(Value(100)), "rolled back");
        assert_eq!(s.mark_of(g(1)), MarkState::Undone);
        // The undo write appears as a CT_1 access.
        let ct_writes: Vec<_> = h
            .events()
            .iter()
            .filter(|e| {
                e.txn == TxnId::Compensation(g(1)) && matches!(e.kind, HistEventKind::Access { .. })
            })
            .collect();
        assert_eq!(ct_writes.len(), 1);
    }

    #[test]
    fn semantic_failure_leads_to_no_vote() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(
            sub,
            Program::from([Op::Reserve(Key(2), 500)]),
            SimTime(1),
            &mut h,
        );
        let r = s.execute_next_op(sub, SimTime(1), &mut h);
        assert!(matches!(r, OpResult::Failed(_)));
        let out = s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);
        assert_eq!(out.vote, Vote::No);
        assert_eq!(s.get(Key(2)), Some(Value(50)));
    }

    #[test]
    fn o2pc_decision_commit_finalizes() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
        run_all(&mut s, sub, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        let out = s.decide(g(1), true, SimTime(4), &mut h);
        assert!(out.compensation.is_none());
        assert_eq!(s.mark_of(g(1)), MarkState::Unmarked);
        assert_eq!(s.get(Key(1)), Some(Value(105)));
    }

    #[test]
    fn o2pc_decision_abort_compensates() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
        run_all(&mut s, sub, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        // Interleaved local transaction sees the locally-committed value —
        // no cascading abort follows.
        let l = ExecId::Local(s.next_local_id());
        s.begin(l, Program::from([Op::Add(Key(1), 7)]), SimTime(4), &mut h);
        run_all(&mut s, l, SimTime(4), &mut h);
        s.commit_local(l, SimTime(5), &mut h);

        let out = s.decide(g(1), false, SimTime(6), &mut h);
        let plan = out.compensation.expect("compensation plan");
        assert_eq!(*plan.ops, [Op::Add(Key(1), -5)]);
        s.begin_compensation(g(1), &plan, SimTime(7), &mut h);
        run_all(&mut s, ExecId::CompSub(g(1)), SimTime(8), &mut h);
        s.finish_compensation(g(1), SimTime(9), &mut h);
        assert_eq!(
            s.get(Key(1)),
            Some(Value(107)),
            "local +7 preserved, +5 undone"
        );
        assert_eq!(s.mark_of(g(1)), MarkState::Undone);
    }

    #[test]
    fn decision_abort_under_hold_writes_rolls_back() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
        run_all(&mut s, sub, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::HoldWrites, false, SimTime(3), &mut h);
        let out = s.decide(g(1), false, SimTime(4), &mut h);
        assert!(out.compensation.is_none());
        assert_eq!(s.get(Key(1)), Some(Value(100)));
        assert_eq!(s.mark_of(g(1)), MarkState::Undone);
    }

    #[test]
    fn compensation_skips_inapplicable_ops() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(
            sub,
            Program::from([Op::Insert(Key(9), Value(1))]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        // A local transaction deletes the key before compensation runs.
        let l = ExecId::Local(s.next_local_id());
        s.begin(l, Program::from([Op::Delete(Key(9))]), SimTime(4), &mut h);
        run_all(&mut s, l, SimTime(4), &mut h);
        s.commit_local(l, SimTime(5), &mut h);

        let plan = s
            .decide(g(1), false, SimTime(6), &mut h)
            .compensation
            .unwrap();
        assert_eq!(*plan.ops, [Op::Delete(Key(9))]);
        s.begin_compensation(g(1), &plan, SimTime(7), &mut h);
        run_all(&mut s, ExecId::CompSub(g(1)), SimTime(8), &mut h);
        s.finish_compensation(g(1), SimTime(9), &mut h);
        assert_eq!(s.skipped_comp_ops, 1, "delete of a gone key skipped");
        assert_eq!(s.get(Key(9)), None);
    }

    #[test]
    fn crash_and_recovery_preserves_local_commits() {
        let (mut s, mut h) = setup();
        // Locally commit one subtransaction, leave another in flight.
        let sub1 = ExecId::Sub(g(1));
        s.begin(
            sub1,
            Program::from([Op::Add(Key(1), 11)]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub1, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        let sub2 = ExecId::Sub(g(2));
        s.begin(
            sub2,
            Program::from([Op::Add(Key(2), 13)]),
            SimTime(4),
            &mut h,
        );
        run_all(&mut s, sub2, SimTime(5), &mut h);
        // Crash.
        let s2 = s
            .crash(SimTime(6), &mut h)
            .unwrap()
            .recover(SimTime(7), &mut h);
        assert_eq!(
            s2.get(Key(1)),
            Some(Value(111)),
            "locally-committed update durable"
        );
        assert_eq!(
            s2.get(Key(2)),
            Some(Value(50)),
            "in-flight update rolled back"
        );
    }

    /// Regression (found by the chaos harness, seed 58): a site that
    /// learned a COMMIT decision, crashed, and recovered must still answer
    /// a peer's termination query with `KnowsCommit`. When recovery dropped
    /// the decided map, the answer fell through to `NotPrepared` and the
    /// asking peer presumed abort — compensating (destroying) a committed
    /// transaction's effects.
    #[test]
    fn recovery_preserves_learned_decisions() {
        let (mut s, mut h) = setup();
        let sub1 = ExecId::Sub(g(1));
        s.begin(
            sub1,
            Program::from([Op::Add(Key(1), 11)]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, sub1, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        s.decide(g(1), true, SimTime(4), &mut h);
        let sub2 = ExecId::Sub(g(2));
        s.begin(
            sub2,
            Program::from([Op::Add(Key(2), 7)]),
            SimTime(5),
            &mut h,
        );
        run_all(&mut s, sub2, SimTime(6), &mut h);
        s.vote(g(2), LockPolicy::ReleaseAll, false, SimTime(7), &mut h);
        s.decide(g(2), false, SimTime(8), &mut h);

        let mut s2 = s
            .crash(SimTime(9), &mut h)
            .unwrap()
            .recover(SimTime(9), &mut h);
        let (state, _) = s2.answer_termination_query(g(1), SimTime(9), &mut h);
        assert_eq!(state, PeerState::KnowsCommit);
        let (state, _) = s2.answer_termination_query(g(2), SimTime(9), &mut h);
        assert_eq!(state, PeerState::KnowsAbort);
    }

    /// A prepared subtransaction's write locks, re-acquired by a restart,
    /// hold from the restart: a release 1 ms after a restart at 10 s
    /// records a 1 ms hold, not one counted from time zero.
    #[test]
    fn recovered_write_locks_hold_from_the_restart() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
        run_all(&mut s, sub, SimTime(1), &mut h);
        s.vote(g(1), LockPolicy::HoldWrites, false, SimTime(2), &mut h);
        let restart = SimTime(10_000_000);
        let mut s = s.crash(restart, &mut h).unwrap().recover(restart, &mut h);
        assert_eq!(s.prepared_subs(), vec![g(1)]);
        s.decide(
            g(1),
            true,
            restart + o2pc_common::Duration::millis(1),
            &mut h,
        );
        let held = &s.lock_stats().exclusive_hold;
        assert_eq!((held.count(), held.max()), (1, 1_000));
    }

    #[test]
    fn reads_from_tracking() {
        let (mut s, mut h) = setup();
        let sub = ExecId::Sub(g(1));
        s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
        run_all(&mut s, sub, SimTime(2), &mut h);
        s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
        let l = ExecId::Local(s.next_local_id());
        s.begin(l, Program::from([Op::Read(Key(1))]), SimTime(4), &mut h);
        run_all(&mut s, l, SimTime(4), &mut h);
        let read = h
            .events()
            .iter()
            .find_map(|e| match e.kind {
                HistEventKind::Access {
                    kind: OpKind::Read,
                    read_from,
                    ..
                } if e.txn == l.txn_id() => Some(read_from),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            read,
            Some(TxnId::Global(g(1))),
            "read the locally-committed write"
        );
    }

    #[test]
    fn own_reads_do_not_count_as_reads_from() {
        let (mut s, mut h) = setup();
        let l = ExecId::Local(s.next_local_id());
        s.begin(
            l,
            Program::from([Op::Add(Key(1), 1), Op::Read(Key(1))]),
            SimTime(1),
            &mut h,
        );
        run_all(&mut s, l, SimTime(1), &mut h);
        let read = h
            .events()
            .iter()
            .find_map(|e| match e.kind {
                HistEventKind::Access {
                    kind: OpKind::Read,
                    read_from,
                    ..
                } => Some(read_from),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            read, None,
            "reading your own write is not a reads-from edge"
        );
    }

    #[test]
    fn missing_exec_votes_no() {
        let (mut s, mut h) = setup();
        let out = s.vote(g(9), LockPolicy::ReleaseAll, false, SimTime(1), &mut h);
        assert_eq!(out.vote, Vote::No);
    }
}

//! A checkpoint carries what recovery needs: a site that checkpoints and
//! truncates its log at arbitrary points recovers exactly like a twin that
//! checkpointed only once, before any traffic, and so kept its whole log.
//!
//! Both twins receive the same random single-site trace — begins, writes,
//! local commits, votes under either lock policy, decisions, compensations
//! (some rolled back and re-begun), forgotten decisions, crashes with
//! recovery — and only one of them takes the extra checkpoints. Live state
//! never depends on the log, so the twins can differ only in what recovery
//! rebuilds; every crash compares that, and the trace then continues on
//! the recovered sites. Every restart also checks the round trip: the
//! restarted site checkpoints exactly the image recovery read from its log.

use o2pc_common::{
    ExecId, GlobalTxnId, HistEventKind, History, Key, Op, Program, SimTime, SiteId, Value,
};
use o2pc_compensation::CompensationPlan;
use o2pc_site::{ExecPhase, LockPolicy, OpResult, Site, SiteConfig, Vote};
use o2pc_storage::{CheckpointImage, LogRecord};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const KEYS: u64 = 4;

fn fresh() -> Site {
    let mut s = Site::new(SiteId(0), SiteConfig::default());
    for k in 0..KEYS {
        s.load(Key(k), Value(100));
    }
    s.checkpoint();
    s
}

fn g(i: u64) -> GlobalTxnId {
    GlobalTxnId(i)
}

/// One site's recovery (image and CLRs), with the parts that legitimately
/// differ between a truncated and a whole log taken out: the image's LSN
/// (only one twin's log numbers the extra checkpoints), and decisions the
/// site forgot, which come back only from the whole log (the engine prunes
/// them after recovery).
fn comparable(
    (mut image, clrs): (CheckpointImage, Vec<LogRecord>),
    retired: &BTreeSet<GlobalTxnId>,
) -> (CheckpointImage, Vec<LogRecord>) {
    image.lsn = 0;
    image.decided.retain(|(g, _)| !retired.contains(g));
    (image, clrs)
}

/// Crash `s` and restart it from its log at `now`, checking the round
/// trip: the restarted site checkpoints exactly the image recovery read.
fn restart(s: Site, now: SimTime, h: &mut History) -> Site {
    let crashed = s
        .crash(now, h)
        .expect("an in-memory log survives its crash");
    let (mut image, _) = crashed.wal().recover();
    let s = crashed.recover(now, h);
    image.lsn = 0;
    assert_eq!(s.checkpoint_image(), image, "recovery round trip");
    s
}

/// The live state recovery rebuilt, decisions pruned as the engine prunes.
fn live_image(s: &mut Site, retired: &BTreeSet<GlobalTxnId>) -> CheckpointImage {
    s.retain_decisions(|g| !retired.contains(&g));
    s.checkpoint_image()
}

/// The trace driver: two sites fed the same calls.
struct Twins {
    /// Checkpoints whenever the trace says so.
    cut: Site,
    /// Never checkpoints after the first.
    whole: Site,
    hist: History,
    now: u64,
    next_g: u64,
    execs: Vec<ExecId>,
    voted: BTreeMap<GlobalTxnId, Vote>,
    decided: BTreeSet<GlobalTxnId>,
    plans: BTreeMap<GlobalTxnId, CompensationPlan>,
    retired: BTreeSet<GlobalTxnId>,
    crashes: usize,
}

impl Twins {
    fn new() -> Self {
        Twins {
            cut: fresh(),
            whole: fresh(),
            hist: History::new(),
            now: 0,
            next_g: 1,
            execs: Vec::new(),
            voted: BTreeMap::new(),
            decided: BTreeSet::new(),
            plans: BTreeMap::new(),
            retired: BTreeSet::new(),
            crashes: 0,
        }
    }

    /// Apply `f` to both sites; their answers must agree.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        mut f: impl FnMut(&mut Site, SimTime, &mut History) -> T,
    ) -> T {
        self.now += 1;
        let now = SimTime(self.now);
        let a = f(&mut self.cut, now, &mut self.hist);
        let b = f(&mut self.whole, now, &mut self.hist);
        assert_eq!(a, b, "live behaviour diverged");
        a
    }

    fn live(&self) -> Vec<ExecId> {
        self.execs
            .iter()
            .copied()
            .filter(|&e| self.cut.exec_state(e).is_some())
            .collect()
    }

    fn pick<T: Copy>(v: &[T], arg: u8) -> Option<T> {
        (!v.is_empty()).then(|| v[arg as usize % v.len()])
    }

    fn program(arg: u8) -> Program {
        let k = Key(arg as u64 % KEYS);
        let other = Key((arg as u64 / 4) % KEYS);
        match arg % 3 {
            0 => Program::from([Op::Add(k, 1 + (arg % 5) as i64)]),
            1 => Program::from([Op::Read(other), Op::Add(k, -1)]),
            _ => Program::from([Op::Add(k, 2), Op::Add(other, -2)]),
        }
    }

    fn step(&mut self, kind: u8, arg: u8, arg2: u8) {
        match kind {
            0 => {
                let t = g(self.next_g);
                self.next_g += 1;
                let ops = Self::program(arg);
                self.both(|s, now, h| s.begin(ExecId::Sub(t), ops.clone(), now, h));
                self.execs.push(ExecId::Sub(t));
            }
            1 => {
                let l = self.both(|s, _, _| s.next_local_id());
                let ops = Self::program(arg);
                self.both(|s, now, h| s.begin(ExecId::Local(l), ops.clone(), now, h));
                self.execs.push(ExecId::Local(l));
            }
            2 => {
                let running: Vec<ExecId> = self
                    .live()
                    .into_iter()
                    .filter(|&e| {
                        !self.cut.is_blocked(e)
                            && self.cut.exec_state(e).map(|s| s.phase) == Some(ExecPhase::Running)
                    })
                    .collect();
                if let Some(e) = Self::pick(&running, arg) {
                    self.both(|s, now, h| s.execute_next_op(e, now, h));
                }
            }
            3 => {
                let locals: Vec<ExecId> = self
                    .live()
                    .into_iter()
                    .filter(|e| matches!(e, ExecId::Local(_)))
                    .filter(|&e| {
                        let phase = self.cut.exec_state(e).map(|s| s.phase);
                        phase == Some(ExecPhase::Completed) || phase == Some(ExecPhase::Failed)
                    })
                    .collect();
                if let Some(e) = Self::pick(&locals, arg) {
                    if self.cut.exec_state(e).map(|s| s.phase) == Some(ExecPhase::Completed) {
                        self.both(|s, now, h| s.commit_local(e, now, h));
                    } else {
                        self.both(|s, now, h| s.abort_exec(e, now, h));
                    }
                }
            }
            4 => {
                let unvoted: Vec<GlobalTxnId> = self
                    .execs
                    .iter()
                    .filter_map(|e| match e {
                        ExecId::Sub(t) if !self.voted.contains_key(t) => Some(*t),
                        _ => None,
                    })
                    .filter(|t| !self.decided.contains(t))
                    .collect();
                if let Some(t) = Self::pick(&unvoted, arg) {
                    let policy = if arg2.is_multiple_of(4) {
                        LockPolicy::HoldWrites
                    } else {
                        LockPolicy::ReleaseAll
                    };
                    let force = arg2 % 7 == 1;
                    let out = self.both(|s, now, h| s.vote(t, policy, force, now, h).vote);
                    self.voted.insert(t, out);
                }
            }
            5 => {
                let open: Vec<GlobalTxnId> = (1..self.next_g)
                    .map(g)
                    .filter(|t| !self.decided.contains(t))
                    .collect();
                if let Some(t) = Self::pick(&open, arg) {
                    let commit = !arg2.is_multiple_of(3) && self.voted.get(&t) == Some(&Vote::Yes);
                    let plan = self.both(|s, now, h| s.decide(t, commit, now, h).compensation);
                    self.decided.insert(t);
                    if let Some(plan) = plan {
                        self.plans.insert(t, plan);
                    }
                }
            }
            6 => {
                let idle: Vec<GlobalTxnId> = self
                    .plans
                    .keys()
                    .copied()
                    .filter(|&t| self.cut.exec_state(ExecId::CompSub(t)).is_none())
                    .collect();
                if let Some(t) = Self::pick(&idle, arg) {
                    let plan = self.plans[&t].clone();
                    self.both(|s, now, h| s.begin_compensation(t, &plan, now, h));
                    self.execs.push(ExecId::CompSub(t));
                }
            }
            7 => {
                let done: Vec<GlobalTxnId> = self
                    .plans
                    .keys()
                    .copied()
                    .filter(|&t| {
                        self.cut.exec_state(ExecId::CompSub(t)).map(|s| s.phase)
                            == Some(ExecPhase::Completed)
                    })
                    .collect();
                if let Some(t) = Self::pick(&done, arg) {
                    self.both(|s, now, h| s.finish_compensation(t, now, h));
                    self.plans.remove(&t);
                }
            }
            8 => {
                let active: Vec<GlobalTxnId> = self
                    .plans
                    .keys()
                    .copied()
                    .filter(|&t| self.cut.exec_state(ExecId::CompSub(t)).is_some())
                    .collect();
                if let Some(t) = Self::pick(&active, arg) {
                    self.both(|s, now, _| s.rollback_compensation(t, now));
                }
            }
            9 => {
                let settled: Vec<GlobalTxnId> = self
                    .decided
                    .iter()
                    .copied()
                    .filter(|t| !self.plans.contains_key(t) && !self.retired.contains(t))
                    .filter(|&t| !self.cut.has_pending_local_commit(t))
                    .collect();
                if let Some(t) = Self::pick(&settled, arg) {
                    self.both(|s, _, _| s.forget(t));
                    self.retired.insert(t);
                }
            }
            10 => self.cut.checkpoint(),
            _ => {
                self.crash();
            }
        }
    }

    /// Crash both sites, compare what their logs recover, restart both from
    /// their logs and compare the rebuilt sites. Returns what recovery
    /// rolled back.
    fn crash(&mut self) -> Vec<ExecId> {
        self.crashes += 1;
        let a = comparable(self.cut.wal().recover(), &self.retired);
        let b = comparable(self.whole.wal().recover(), &self.retired);
        assert_eq!(a, b, "recovery diverged at crash {}", self.crashes);
        self.now += 1;
        let now = SimTime(self.now);
        for s in [&mut self.cut, &mut self.whole] {
            let crashed = std::mem::replace(s, Site::new(SiteId(0), SiteConfig::default()));
            *s = restart(crashed, now, &mut self.hist);
        }
        let rolled_back =
            a.1.iter()
                .filter_map(|r| match r {
                    LogRecord::Abort(e) => Some(*e),
                    _ => None,
                })
                .collect();
        let a = live_image(&mut self.cut, &self.retired);
        let b = live_image(&mut self.whole, &self.retired);
        assert_eq!(a, b, "recovered sites differ after crash {}", self.crashes);
        rolled_back
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn checkpointed_recovery_equals_whole_log_recovery(
        trace in prop::collection::vec((0u8..12, any::<u8>(), any::<u8>()), 1..160),
    ) {
        let mut twins = Twins::new();
        for (kind, arg, arg2) in trace {
            twins.step(kind, arg, arg2);
        }
        twins.crash();
    }
}

/// Drive `exec` to the end of its program (nothing else holds a lock here).
fn run(s: &mut Site, exec: ExecId, now: SimTime, h: &mut History) {
    while let OpResult::Done {
        finished: false, ..
    } = s.execute_next_op(exec, now, h)
    {}
}

/// An execution that began before a checkpoint and was still in flight at
/// the crash is rolled back: the checkpoint carried its undo list.
#[test]
fn in_flight_execution_spanning_a_checkpoint_is_rolled_back() {
    let mut h = History::new();
    let mut s = fresh();
    let t = ExecId::Sub(g(1));
    s.begin(
        t,
        Program::from([Op::Add(Key(1), 5), Op::Add(Key(2), 7)]),
        SimTime(1),
        &mut h,
    );
    assert!(matches!(
        s.execute_next_op(t, SimTime(1), &mut h),
        OpResult::Done { .. }
    ));
    s.checkpoint();
    assert!(
        !s.wal()
            .records()
            .iter()
            .any(|r| matches!(r, o2pc_storage::LogRecord::Begin(_))),
        "the Begin and the first write are behind the checkpoint"
    );
    run(&mut s, t, SimTime(2), &mut h);
    let s = restart(s, SimTime(3), &mut h);
    let last = h
        .events()
        .last()
        .expect("the restart records its roll-back");
    assert_eq!(
        (last.txn, last.kind),
        (t.txn_id(), HistEventKind::RolledBack)
    );
    assert_eq!(
        (s.get(Key(1)), s.get(Key(2))),
        (Some(Value(100)), Some(Value(100)))
    );
}

/// A local commit whose record the checkpoint dropped from the log still
/// compensates after a crash: the checkpoint carried its commit record.
#[test]
fn local_commit_spanning_a_checkpoint_still_compensates_after_a_crash() {
    let mut h = History::new();
    let mut s = fresh();
    let t = g(1);
    s.begin(
        ExecId::Sub(t),
        Program::from([Op::Add(Key(1), 5)]),
        SimTime(1),
        &mut h,
    );
    run(&mut s, ExecId::Sub(t), SimTime(1), &mut h);
    assert_eq!(
        s.vote(t, LockPolicy::ReleaseAll, false, SimTime(2), &mut h)
            .vote,
        Vote::Yes
    );
    s.checkpoint();
    assert_eq!(s.wal().len(), 1, "only the checkpoint is left");
    let mut s = restart(s, SimTime(3), &mut h);
    assert_eq!(s.pending_local_commits(), vec![t]);
    let plan = s
        .decide(t, false, SimTime(3), &mut h)
        .compensation
        .expect("the recovered local commit compensates");
    s.begin_compensation(t, &plan, SimTime(4), &mut h);
    run(&mut s, ExecId::CompSub(t), SimTime(4), &mut h);
    s.finish_compensation(t, SimTime(5), &mut h);
    assert_eq!(s.get(Key(1)), Some(Value(100)));
    assert!(s.pending_local_commits().is_empty());
}

/// A compensation rolled back before a checkpoint and re-begun after it
/// recovers as the whole log does: the re-run's `Begin` starts no new
/// execution, so with no write yet there is nothing to roll back, and
/// after a write it is rolled back like any execution in flight.
#[test]
fn compensation_rolled_back_before_a_checkpoint_and_rebegun_after_it() {
    for writes in [0, 1] {
        let mut twins = Twins::new();
        let t = g(1);
        let ct = ExecId::CompSub(t);
        twins.step(0, 0, 0); // begin T1: Add(k0, 1)
        twins.step(2, 0, 0); // run it
        twins.step(4, 0, 2); // vote yes, release all
        twins.step(5, 0, 0); // decide abort: the plan
        twins.step(6, 0, 0); // begin CT1
        twins.step(2, 0, 0); // its write
        twins.step(8, 0, 0); // roll CT1 back
        twins.step(10, 0, 0); // checkpoint the cutting twin
        twins.step(6, 0, 0); // re-begin CT1
        for _ in 0..writes {
            twins.step(2, 0, 0);
        }
        assert!(twins.cut.exec_state(ct).is_some());
        let rolled_back = twins.crash();
        assert_eq!(rolled_back, vec![ct; writes]);
        assert_eq!(twins.cut.get(Key(0)), Some(Value(101)));
        assert!(twins.cut.wal().recover().0.rolled_back_comps.contains(&t));
        assert_eq!(twins.cut.pending_local_commits(), vec![t]);
    }
}

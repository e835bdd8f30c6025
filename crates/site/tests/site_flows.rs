//! Site-level integration flows: lock hand-off between interleaved
//! executions, the marking lifecycle across a full O2PC round, and WAL
//! interplay across crash points.

use o2pc_common::{ExecId, GlobalTxnId, History, Key, Op, Program, SimTime, SiteId, Value};
use o2pc_marking::MarkState;
use o2pc_site::{LockPolicy, OpResult, Site, SiteConfig, Vote};

fn setup() -> (Site, History) {
    let config = SiteConfig {
        marks: true,
        ..SiteConfig::default()
    };
    let mut s = Site::new(SiteId(0), config);
    s.load(Key(1), Value(100));
    s.load(Key(2), Value(200));
    s.checkpoint();
    (s, History::new())
}

fn g(i: u64) -> GlobalTxnId {
    GlobalTxnId(i)
}

fn drive(site: &mut Site, exec: ExecId, now: SimTime, hist: &mut History) -> OpResult {
    loop {
        match site.execute_next_op(exec, now, hist) {
            OpResult::Done {
                finished: false, ..
            } => continue,
            other => return other,
        }
    }
}

#[test]
fn blocked_local_resumes_after_sub_vote() {
    let (mut s, mut h) = setup();
    let sub = ExecId::Sub(g(1));
    s.begin(
        sub,
        Program::from([Op::Add(Key(1), -10)]),
        SimTime(1),
        &mut h,
    );
    assert!(matches!(
        drive(&mut s, sub, SimTime(1), &mut h),
        OpResult::Done { finished: true, .. }
    ));

    let l = ExecId::Local(s.next_local_id());
    s.begin(l, Program::from([Op::Add(Key(1), 5)]), SimTime(2), &mut h);
    assert_eq!(s.execute_next_op(l, SimTime(2), &mut h), OpResult::Blocked);
    assert!(s.is_blocked(l));

    let out = s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
    assert_eq!(out.vote, Vote::Yes);
    assert_eq!(out.woken, vec![l], "blocked local woken by early release");
    assert!(!s.is_blocked(l));
    assert!(matches!(
        s.execute_next_op(l, SimTime(4), &mut h),
        OpResult::Done { finished: true, .. }
    ));
    s.commit_local(l, SimTime(5), &mut h);
    assert_eq!(s.get(Key(1)), Some(Value(95)));
}

#[test]
fn compensation_contends_like_a_local_transaction() {
    let (mut s, mut h) = setup();
    // Sub locally commits a write on k1, then a local holds k1 while the
    // abort decision arrives: the CT must queue behind the local.
    let sub = ExecId::Sub(g(1));
    s.begin(
        sub,
        Program::from([Op::Add(Key(1), 50)]),
        SimTime(1),
        &mut h,
    );
    drive(&mut s, sub, SimTime(1), &mut h);
    s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);

    let l = ExecId::Local(s.next_local_id());
    s.begin(
        l,
        Program::from([Op::Add(Key(1), 7), Op::Read(Key(2))]),
        SimTime(3),
        &mut h,
    );
    assert!(matches!(
        s.execute_next_op(l, SimTime(3), &mut h),
        OpResult::Done {
            finished: false,
            ..
        }
    ));

    let plan = s
        .decide(g(1), false, SimTime(4), &mut h)
        .compensation
        .unwrap();
    s.begin_compensation(g(1), &plan, SimTime(4), &mut h);
    let ct = ExecId::CompSub(g(1));
    assert_eq!(
        s.execute_next_op(ct, SimTime(4), &mut h),
        OpResult::Blocked,
        "CT waits for the local"
    );

    // Local finishes and commits: CT is woken.
    assert!(matches!(
        s.execute_next_op(l, SimTime(5), &mut h),
        OpResult::Done { finished: true, .. }
    ));
    let woken = s.commit_local(l, SimTime(6), &mut h);
    assert_eq!(woken, vec![ct]);
    assert!(matches!(
        s.execute_next_op(ct, SimTime(7), &mut h),
        OpResult::Done { finished: true, .. }
    ));
    s.finish_compensation(g(1), SimTime(8), &mut h);
    assert_eq!(
        s.get(Key(1)),
        Some(Value(107)),
        "100 + 7 preserved, +50 compensated"
    );
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Undone);
}

#[test]
fn full_marking_lifecycle_with_udum_unmark() {
    let (mut s, mut h) = setup();
    let sub = ExecId::Sub(g(1));
    s.begin(sub, Program::from([Op::Add(Key(1), 1)]), SimTime(1), &mut h);
    drive(&mut s, sub, SimTime(1), &mut h);
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Unmarked);
    s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);
    assert_eq!(s.marks().mark_of(g(1)), MarkState::LocallyCommitted);
    let plan = s
        .decide(g(1), false, SimTime(3), &mut h)
        .compensation
        .unwrap();
    s.begin_compensation(g(1), &plan, SimTime(3), &mut h);
    drive(&mut s, ExecId::CompSub(g(1)), SimTime(4), &mut h);
    s.finish_compensation(g(1), SimTime(5), &mut h);
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Undone);
    assert!(s.marks().undone().eq([g(1)]));
    // R3 (engine fires it once UDUM1 is detected).
    s.unmark(g(1));
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Unmarked);
    assert!(s.marks().is_empty());
}

#[test]
fn deadlock_between_sub_and_compensation_resolved_by_ct_retry() {
    let (mut s, mut h) = setup();
    // CT of T1 will need k1 then k2; a sub of T2 holds k2 and wants k1.
    let sub1 = ExecId::Sub(g(1));
    s.begin(
        sub1,
        Program::from([Op::Add(Key(1), 5), Op::Add(Key(2), 5)]),
        SimTime(1),
        &mut h,
    );
    drive(&mut s, sub1, SimTime(1), &mut h);
    s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);
    let plan = s
        .decide(g(1), false, SimTime(3), &mut h)
        .compensation
        .unwrap();
    assert_eq!(plan.ops.len(), 2);

    let sub2 = ExecId::Sub(g(2));
    s.begin(
        sub2,
        Program::from([Op::Add(Key(1), 1), Op::Add(Key(2), 1)]),
        SimTime(4),
        &mut h,
    );
    // sub2 takes k1.
    assert!(matches!(
        s.execute_next_op(sub2, SimTime(4), &mut h),
        OpResult::Done {
            finished: false,
            ..
        }
    ));

    // CT starts: plan is [Add(k2,-5), Add(k1,-5)] (reverse order): takes k2.
    s.begin_compensation(g(1), &plan, SimTime(5), &mut h);
    let ct = ExecId::CompSub(g(1));
    assert!(matches!(
        s.execute_next_op(ct, SimTime(5), &mut h),
        OpResult::Done {
            finished: false,
            ..
        }
    ));
    // sub2 wants k2 (held by CT): blocked. CT wants k1 (held by sub2): deadlock.
    assert_eq!(
        s.execute_next_op(sub2, SimTime(6), &mut h),
        OpResult::Blocked
    );
    assert_eq!(s.execute_next_op(ct, SimTime(6), &mut h), OpResult::Blocked);
    let cycle = s.find_deadlock().expect("deadlock");
    assert!(cycle.contains(&ct) && cycle.contains(&sub2));

    // Persistence of compensation: victimize the CT, re-run it later.
    let woken = s.rollback_compensation(g(1), SimTime(7));
    assert_eq!(woken, vec![sub2]);
    drive(&mut s, sub2, SimTime(8), &mut h);
    s.vote(g(2), LockPolicy::ReleaseAll, false, SimTime(9), &mut h);
    s.decide(g(2), true, SimTime(10), &mut h);

    s.begin_compensation(g(1), &plan, SimTime(11), &mut h);
    drive(&mut s, ct, SimTime(12), &mut h);
    s.finish_compensation(g(1), SimTime(13), &mut h);
    assert_eq!(
        s.get(Key(1)),
        Some(Value(101)),
        "T2's +1 kept, T1's +5 gone"
    );
    assert_eq!(s.get(Key(2)), Some(Value(201)));
}

#[test]
fn crash_during_compensation_rolls_back_partial_ct() {
    let (mut s, mut h) = setup();
    let sub = ExecId::Sub(g(1));
    s.begin(
        sub,
        Program::from([Op::Add(Key(1), 5), Op::Add(Key(2), 5)]),
        SimTime(1),
        &mut h,
    );
    drive(&mut s, sub, SimTime(1), &mut h);
    s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);
    let plan = s
        .decide(g(1), false, SimTime(3), &mut h)
        .compensation
        .unwrap();
    s.begin_compensation(g(1), &plan, SimTime(4), &mut h);
    // Execute only the first compensation op, then crash.
    assert!(matches!(
        s.execute_next_op(ExecId::CompSub(g(1)), SimTime(5), &mut h),
        OpResult::Done {
            finished: false,
            ..
        }
    ));
    let s2 = s
        .crash(SimTime(6), &mut h)
        .unwrap()
        .recover(SimTime(7), &mut h);
    // The locally-committed forward updates are durable; the half-finished
    // CT was rolled back by recovery (it re-runs from its retained plan in
    // a full deployment).
    assert_eq!(s2.get(Key(1)), Some(Value(105)));
    assert_eq!(s2.get(Key(2)), Some(Value(205)));
}

#[test]
fn vote_on_still_running_sub_aborts_it() {
    let (mut s, mut h) = setup();
    let sub = ExecId::Sub(g(1));
    s.begin(
        sub,
        Program::from([Op::Add(Key(1), 5), Op::Add(Key(2), 5)]),
        SimTime(1),
        &mut h,
    );
    // Only one op executed: still Running when the (early) VOTE-REQ lands.
    assert!(matches!(
        s.execute_next_op(sub, SimTime(1), &mut h),
        OpResult::Done {
            finished: false,
            ..
        }
    ));
    let out = s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(2), &mut h);
    assert_eq!(
        out.vote,
        Vote::No,
        "incomplete subtransaction cannot vote yes"
    );
    assert_eq!(s.get(Key(1)), Some(Value(100)));
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Undone);
}

#[test]
fn unilateral_abort_then_vote_no() {
    let (mut s, mut h) = setup();
    let sub = ExecId::Sub(g(1));
    s.begin(sub, Program::from([Op::Add(Key(1), 5)]), SimTime(1), &mut h);
    drive(&mut s, sub, SimTime(1), &mut h);
    s.unilateral_abort(g(1), SimTime(2), &mut h);
    assert_eq!(s.get(Key(1)), Some(Value(100)));
    assert_eq!(s.marks().mark_of(g(1)), MarkState::Undone);
    // The later VOTE-REQ finds no execution: vote no, no state change.
    let out = s.vote(g(1), LockPolicy::ReleaseAll, false, SimTime(3), &mut h);
    assert_eq!(out.vote, Vote::No);
    // And the abort decision is a no-op.
    let out = s.decide(g(1), false, SimTime(4), &mut h);
    assert!(out.compensation.is_none());
}

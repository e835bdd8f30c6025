//! Property tests: the lock manager under arbitrary schedules.

use o2pc_common::{AccessMode, ExecId, GlobalTxnId, Key, SimTime};
use o2pc_locking::{CycleWalk, LockManager, RequestOutcome};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Debug)]
enum Action {
    /// Exec `e` requests `key` with `write` mode (ignored if waiting).
    Request { e: u8, key: u8, write: bool },
    /// Exec `e` releases everything it holds / cancels its wait.
    Release { e: u8 },
}

fn action_strategy(execs: u8, keys: u8) -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0..execs, 0..keys, any::<bool>())
            .prop_map(|(e, key, write)| Action::Request { e, key, write }),
        1 => (0..execs).prop_map(|e| Action::Release { e }),
    ]
}

fn exec(i: u8) -> ExecId {
    ExecId::Sub(GlobalTxnId(i as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants hold after every step, and no wakeup is ever lost: once
    /// every execution releases, the table must drain completely.
    #[test]
    fn no_lost_wakeups_and_invariants(actions in prop::collection::vec(action_strategy(6, 4), 1..120)) {
        let mut lm = LockManager::new();
        let mut clock = 0u64;
        let mut waiting: HashSet<ExecId> = HashSet::new();

        for a in &actions {
            clock += 1;
            let now = SimTime(clock);
            match *a {
                Action::Request { e, key, write } => {
                    let ex = exec(e);
                    if waiting.contains(&ex) {
                        continue; // sequential execs cannot issue while parked
                    }
                    let mode = if write { AccessMode::Write } else { AccessMode::Read };
                    if lm.request(ex, Key(key as u64), mode, now) == RequestOutcome::Waiting {
                        waiting.insert(ex);
                    }
                }
                Action::Release { e } => {
                    let ex = exec(e);
                    let woken = lm.release_all(ex, now);
                    waiting.remove(&ex);
                    for w in woken {
                        prop_assert!(waiting.remove(&w), "woke {w} which was not waiting");
                    }
                }
            }
            lm.check_invariants();
            // The waiting sets agree.
            for &w in &waiting {
                prop_assert!(lm.waiting_on(w).is_some());
            }
        }

        // Drain: repeatedly release everyone until quiescent. Deadlocked
        // groups are broken by aborting one member, as the engine would.
        let mut rounds = 0;
        loop {
            rounds += 1;
            prop_assert!(rounds < 1000, "drain did not converge");
            clock += 1;
            let holders = lm.holders();
            if holders.is_empty() && waiting.is_empty() {
                break;
            }
            if let Some(cycle) = lm.find_deadlock() {
                let victim = cycle[0];
                lm.release_all(victim, SimTime(clock));
                waiting.remove(&victim);
                continue;
            }
            let mut progressed = false;
            for h in holders {
                let woken = lm.release_all(h, SimTime(clock));
                waiting.remove(&h);
                for w in woken {
                    waiting.remove(&w);
                }
                progressed = true;
            }
            if !progressed && !waiting.is_empty() {
                // Only waiters left with no holders: queues must self-serve.
                let stuck: Vec<ExecId> = waiting.iter().copied().collect();
                for s in stuck {
                    lm.release_all(s, SimTime(clock));
                    waiting.remove(&s);
                }
            }
            lm.check_invariants();
        }
        prop_assert_eq!(lm.grant_count(), 0, "grants leaked");
    }

    /// Deadlock detection from the waiter is exact. Cycles are broken after
    /// every request that queues, as the engine does; then (a) the waits-for
    /// graph is exactly `blockers_of` of every waiting execution, and (b) a
    /// walk from each queued requester returns to it exactly when the
    /// whole-graph detector finds a cycle.
    #[test]
    fn walk_from_the_waiter_is_exact(actions in prop::collection::vec(action_strategy(6, 3), 1..120)) {
        let mut lm = LockManager::new();
        let mut walk = CycleWalk::default();
        let mut waiting: HashSet<ExecId> = HashSet::new();
        let mut blockers = Vec::new();
        for (clock, a) in actions.iter().enumerate() {
            let now = SimTime(clock as u64);
            let mut woken = Vec::new();
            match *a {
                Action::Request { e, key, write } => {
                    let ex = exec(e);
                    if waiting.contains(&ex) {
                        continue;
                    }
                    let mode = if write { AccessMode::Write } else { AccessMode::Read };
                    if lm.request(ex, Key(key as u64), mode, now) == RequestOutcome::Waiting {
                        waiting.insert(ex);
                        let through = walk.returns_to(ex, |e, out| lm.blockers_of(e, out));
                        prop_assert_eq!(through, lm.find_deadlock().is_some());
                        while let Some(cycle) = lm.find_deadlock() {
                            woken.extend(lm.release_all(cycle[0], now));
                            waiting.remove(&cycle[0]);
                        }
                    }
                }
                Action::Release { e } => {
                    woken = lm.release_all(exec(e), now);
                    waiting.remove(&exec(e));
                }
            }
            for w in woken {
                waiting.remove(&w);
            }
            let mut rows = Vec::new();
            for &w in &waiting {
                lm.blockers_of(w, &mut blockers);
                rows.extend(blockers.drain(..).map(|b| (w, b)));
            }
            rows.sort_unstable();
            rows.dedup();
            prop_assert_eq!(rows, lm.waits_for_edges());
        }
    }

    /// Two conflicting grants never coexist (direct check on random traces).
    #[test]
    fn conflicting_grants_never_coexist(actions in prop::collection::vec(action_strategy(4, 2), 1..80)) {
        let mut lm = LockManager::new();
        let mut clock = 0u64;
        let mut waiting: HashSet<ExecId> = HashSet::new();
        // Track who currently holds which key in which mode, via outcomes.
        for a in &actions {
            clock += 1;
            match *a {
                Action::Request { e, key, write } => {
                    let ex = exec(e);
                    if waiting.contains(&ex) { continue; }
                    let mode = if write { AccessMode::Write } else { AccessMode::Read };
                    if lm.request(ex, Key(key as u64), mode, SimTime(clock)) == RequestOutcome::Waiting {
                        waiting.insert(ex);
                    }
                    // If granted a write, nobody else may hold the key.
                    if lm.mode_of(ex, Key(key as u64)) == Some(AccessMode::Write) {
                        for other in lm.holders() {
                            if other != ex {
                                prop_assert!(lm.mode_of(other, Key(key as u64)).is_none(),
                                    "{other} co-holds with exclusive owner {ex}");
                            }
                        }
                    }
                }
                Action::Release { e } => {
                    let woken = lm.release_all(exec(e), SimTime(clock));
                    waiting.remove(&exec(e));
                    for w in woken { waiting.remove(&w); }
                }
            }
            lm.check_invariants();
        }
    }
}

//! The lock table.

use crate::cycle::find_cycle;
use crate::stats::LockStats;
use o2pc_common::FastHashMap;
use o2pc_common::{AccessMode, ExecId, Key, SimTime};
use std::collections::VecDeque;

/// Outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was queued; the caller must park the execution until the
    /// exec shows up in the grant list returned by a release call.
    Waiting,
}

#[derive(Clone, Copy, Debug)]
struct Grant {
    exec: ExecId,
    mode: AccessMode,
    acquired: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct WaitReq {
    exec: ExecId,
    mode: AccessMode,
    enqueued: SimTime,
    /// True when this is an S→X upgrade of an existing shared grant.
    upgrade: bool,
}

#[derive(Clone, Debug, Default)]
struct LockEntry {
    granted: Vec<Grant>,
    queue: VecDeque<WaitReq>,
}

impl LockEntry {
    fn holds(&self, exec: ExecId) -> Option<AccessMode> {
        self.granted.iter().find(|g| g.exec == exec).map(|g| g.mode)
    }

    fn compatible(&self, exec: ExecId, mode: AccessMode) -> bool {
        self.granted
            .iter()
            .all(|g| g.exec == exec || !g.mode.conflicts_with(mode))
    }
}

/// A single-site strict-2PL lock manager.
///
/// Invariants (checked by the property tests):
/// 1. no two grants on the same item conflict,
/// 2. an execution waits on at most one item at a time (executions are
///    sequential programs),
/// 3. FIFO within an item: a queued request is never overtaken by a
///    *conflicting* later request.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    table: FastHashMap<Key, LockEntry>,
    held: FastHashMap<ExecId, Vec<Key>>,
    waiting: FastHashMap<ExecId, Key>,
    stats: LockStats,
    /// Emptied table entries and key lists. The next request takes its
    /// buffers from here, so an uncontended lock allocates nothing once the
    /// table has seen its peak number of concurrent holders.
    spare_entries: Vec<LockEntry>,
    spare_keys: Vec<Vec<Key>>,
}

impl LockManager {
    /// New empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The key an execution is currently waiting on, if any.
    pub fn waiting_on(&self, exec: ExecId) -> Option<Key> {
        self.waiting.get(&exec).copied()
    }

    /// The mode `exec` holds on `key`, if granted.
    pub fn mode_of(&self, exec: ExecId, key: Key) -> Option<AccessMode> {
        self.table.get(&key).and_then(|e| e.holds(exec))
    }

    /// Record `key` among the keys `exec` holds.
    fn note_held(
        held: &mut FastHashMap<ExecId, Vec<Key>>,
        spare: &mut Vec<Vec<Key>>,
        exec: ExecId,
        key: Key,
    ) {
        let recycled = || spare.pop().unwrap_or_default();
        held.entry(exec).or_insert_with(recycled).push(key);
    }

    /// Request `mode` on `key` for `exec` at virtual time `now`.
    pub fn request(
        &mut self,
        exec: ExecId,
        key: Key,
        mode: AccessMode,
        now: SimTime,
    ) -> RequestOutcome {
        debug_assert!(
            !self.waiting.contains_key(&exec),
            "{exec} requested a lock while already waiting"
        );
        let recycled = || self.spare_entries.pop().unwrap_or_default();
        let entry = self.table.entry(key).or_insert_with(recycled);

        // Re-entrant cases.
        match entry.holds(exec) {
            Some(AccessMode::Write) => {
                self.stats.immediate_grants.inc();
                return RequestOutcome::Granted;
            }
            Some(AccessMode::Read) if mode == AccessMode::Read => {
                self.stats.immediate_grants.inc();
                return RequestOutcome::Granted;
            }
            Some(AccessMode::Read) => {
                // Upgrade S → X.
                if entry.granted.len() == 1 {
                    entry.granted[0].mode = AccessMode::Write;
                    // Hold time of the X grant is measured from the upgrade.
                    entry.granted[0].acquired = now;
                    self.stats.instant_upgrades.inc();
                    self.stats.immediate_grants.inc();
                    return RequestOutcome::Granted;
                }
                // Queue the upgrade at the front so it beats fresh requests.
                entry.queue.push_front(WaitReq {
                    exec,
                    mode,
                    enqueued: now,
                    upgrade: true,
                });
                self.waiting.insert(exec, key);
                self.stats.queued_requests.inc();
                return RequestOutcome::Waiting;
            }
            None => {}
        }

        // Fresh request: grant only if compatible AND no one queued ahead
        // (prevents starvation of waiting writers).
        if entry.queue.is_empty() && entry.compatible(exec, mode) {
            entry.granted.push(Grant {
                exec,
                mode,
                acquired: now,
            });
            Self::note_held(&mut self.held, &mut self.spare_keys, exec, key);
            self.stats.immediate_grants.inc();
            RequestOutcome::Granted
        } else {
            entry.queue.push_back(WaitReq {
                exec,
                mode,
                enqueued: now,
                upgrade: false,
            });
            self.waiting.insert(exec, key);
            self.stats.queued_requests.inc();
            RequestOutcome::Waiting
        }
    }

    /// Process the wait queue of `key`, granting a maximal FIFO-compatible
    /// prefix. Returns the executions granted now.
    fn process_queue(&mut self, key: Key, now: SimTime) -> Vec<ExecId> {
        let mut woken = Vec::new();
        let Some(entry) = self.table.get_mut(&key) else {
            return woken;
        };
        while let Some(&head) = entry.queue.front() {
            if head.upgrade {
                // Grantable when the upgrader is the sole remaining holder.
                if entry.granted.len() == 1 && entry.granted[0].exec == head.exec {
                    entry.granted[0].mode = AccessMode::Write;
                    entry.granted[0].acquired = now;
                } else if entry.granted.is_empty() {
                    // Holder list emptied (upgrader itself was released/aborted
                    // elsewhere): treat as a fresh exclusive grant.
                    entry.granted.push(Grant {
                        exec: head.exec,
                        mode: AccessMode::Write,
                        acquired: now,
                    });
                    Self::note_held(&mut self.held, &mut self.spare_keys, head.exec, key);
                } else if entry.granted.iter().any(|g| g.exec != head.exec) {
                    break;
                }
            } else {
                if !entry.compatible(head.exec, head.mode) {
                    break;
                }
                entry.granted.push(Grant {
                    exec: head.exec,
                    mode: head.mode,
                    acquired: now,
                });
                Self::note_held(&mut self.held, &mut self.spare_keys, head.exec, key);
            }
            entry.queue.pop_front();
            self.waiting.remove(&head.exec);
            self.stats.record_wait(now - head.enqueued);
            woken.push(head.exec);
        }
        if entry.granted.is_empty() && entry.queue.is_empty() {
            self.spare_entries.extend(self.table.remove(&key));
        }
        woken
    }

    fn release_grant(&mut self, exec: ExecId, key: Key, now: SimTime) {
        if let Some(entry) = self.table.get_mut(&key) {
            if let Some(pos) = entry.granted.iter().position(|g| g.exec == exec) {
                let g = entry.granted.swap_remove(pos);
                self.stats
                    .record_hold(g.mode == AccessMode::Write, now - g.acquired);
            }
        }
        if let Some(keys) = self.held.get_mut(&exec) {
            keys.retain(|&k| k != key);
            if keys.is_empty() {
                self.spare_keys.extend(self.held.remove(&exec));
            }
        }
    }

    /// Release **all** locks of `exec` (strict-2PL commit/abort, or the O2PC
    /// early release at the commit vote). Returns executions whose queued
    /// requests became granted.
    pub fn release_all(&mut self, exec: ExecId, now: SimTime) -> Vec<ExecId> {
        // Also cancel a pending wait if the exec is aborting while queued;
        // removing a queued writer can itself unblock compatible waiters.
        let mut woken = self.cancel_wait(exec, now);
        if let Some(mut keys) = self.held.remove(&exec) {
            for key in keys.drain(..) {
                self.release_grant(exec, key, now);
                woken.extend(self.process_queue(key, now));
            }
            self.spare_keys.push(keys);
        }
        woken
    }

    /// Release only the *shared* locks of `exec` (the distributed-2PL rule:
    /// read locks may go at VOTE-REQ time, write locks only at the decision).
    pub fn release_read_locks(&mut self, exec: ExecId, now: SimTime) -> Vec<ExecId> {
        let keys: Vec<Key> = self
            .held
            .get(&exec)
            .map(|ks| {
                ks.iter()
                    .copied()
                    .filter(|&k| self.mode_of(exec, k) == Some(AccessMode::Read))
                    .collect()
            })
            .unwrap_or_default();
        let mut woken = Vec::new();
        for key in keys {
            self.release_grant(exec, key, now);
            woken.extend(self.process_queue(key, now));
        }
        woken
    }

    /// Remove `exec`'s queued request, if any (the exec aborted while
    /// waiting, e.g. as a deadlock victim) at virtual time `now`. Other
    /// waiters may become grantable; returns them.
    pub fn cancel_wait(&mut self, exec: ExecId, now: SimTime) -> Vec<ExecId> {
        let Some(key) = self.waiting.remove(&exec) else {
            return Vec::new();
        };
        if let Some(entry) = self.table.get_mut(&key) {
            entry.queue.retain(|w| w.exec != exec);
        }
        self.stats.cancelled_waits.inc();
        // Removing a queued X may unblock compatible followers.
        self.process_queue(key, now)
    }

    /// Append to `out` what `exec`'s queued request waits for — its
    /// out-edges in the waits-for graph: every conflicting current holder
    /// (every other holder, for an S→X upgrade) and every conflicting request
    /// queued ahead of it. Repeats are possible; nothing is appended when
    /// `exec` is not waiting.
    pub fn blockers_of(&self, exec: ExecId, out: &mut Vec<ExecId>) {
        let Some(entry) = self.waiting.get(&exec).and_then(|k| self.table.get(k)) else {
            return;
        };
        let queue = &entry.queue;
        for (i, w) in queue.iter().enumerate().filter(|(_, w)| w.exec == exec) {
            for g in &entry.granted {
                if g.exec != exec && (g.mode.conflicts_with(w.mode) || w.upgrade) {
                    out.push(g.exec);
                }
            }
            for ahead in queue.iter().take(i) {
                if ahead.exec != exec && ahead.mode.conflicts_with(w.mode) {
                    out.push(ahead.exec);
                }
            }
        }
    }

    /// Edges of the waits-for graph: `(waiter, blocker)` pairs, one row of
    /// [`LockManager::blockers_of`] per waiting execution.
    pub fn waits_for_edges(&self) -> Vec<(ExecId, ExecId)> {
        let mut edges = Vec::new();
        let mut blockers = Vec::new();
        for &w in self.waiting.keys() {
            self.blockers_of(w, &mut blockers);
            edges.extend(blockers.drain(..).map(|b| (w, b)));
        }
        // The waiting map is a HashMap: sort so that callers (deadlock
        // detection, victim selection) behave identically across runs.
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Find one deadlock cycle in the waits-for graph, if any exists.
    /// Returns the execs on the cycle.
    pub fn find_deadlock(&mut self) -> Option<Vec<ExecId>> {
        let edges = self.waits_for_edges();
        if edges.is_empty() {
            return None;
        }
        let mut adj: FastHashMap<ExecId, Vec<ExecId>> = FastHashMap::default();
        for (a, b) in &edges {
            adj.entry(*a).or_default().push(*b);
        }
        let cycle = find_cycle(&adj)?;
        self.stats.deadlocks_detected.inc();
        Some(cycle)
    }

    /// All executions currently holding at least one lock.
    pub fn holders(&self) -> Vec<ExecId> {
        let mut v: Vec<ExecId> = self.held.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total number of grants outstanding (tests/audits).
    pub fn grant_count(&self) -> usize {
        self.table.values().map(|e| e.granted.len()).sum()
    }

    /// Debug/property-test helper: verify structural invariants.
    pub fn check_invariants(&self) {
        for (key, entry) in &self.table {
            // 1: no conflicting co-grants.
            for (i, a) in entry.granted.iter().enumerate() {
                for b in entry.granted.iter().skip(i + 1) {
                    assert!(
                        !a.mode.conflicts_with(b.mode) || a.exec == b.exec,
                        "conflicting grants on {key}: {:?} vs {:?}",
                        a,
                        b
                    );
                }
            }
            // held map consistent with grants.
            for g in &entry.granted {
                assert!(
                    self.held.get(&g.exec).is_some_and(|ks| ks.contains(key)),
                    "grant on {key} missing from held map of {}",
                    g.exec
                );
            }
            // waiting map consistent with queues.
            for w in &entry.queue {
                assert_eq!(
                    self.waiting.get(&w.exec),
                    Some(key),
                    "waiting map out of sync"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::GlobalTxnId;

    fn e(i: u64) -> ExecId {
        ExecId::Sub(GlobalTxnId(i))
    }

    const T0: SimTime = SimTime(0);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Read, T0),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(e(2), Key(1), AccessMode::Read, T0),
            RequestOutcome::Granted
        );
        assert_eq!(lm.grant_count(), 2);
        lm.check_invariants();
    }

    #[test]
    fn exclusive_blocks_and_fifo_wakeup() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Write, T0),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(e(2), Key(1), AccessMode::Write, SimTime(5)),
            RequestOutcome::Waiting
        );
        assert_eq!(
            lm.request(e(3), Key(1), AccessMode::Read, SimTime(6)),
            RequestOutcome::Waiting
        );
        lm.check_invariants();
        let woken = lm.release_all(e(1), SimTime(10));
        assert_eq!(
            woken,
            vec![e(2)],
            "writer first (FIFO), reader still blocked"
        );
        let woken = lm.release_all(e(2), SimTime(20));
        assert_eq!(woken, vec![e(3)]);
        lm.check_invariants();
    }

    #[test]
    fn waiting_writer_blocks_later_readers() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        assert_eq!(
            lm.request(e(2), Key(1), AccessMode::Write, T0),
            RequestOutcome::Waiting
        );
        // A later reader must NOT skip the queued writer.
        assert_eq!(
            lm.request(e(3), Key(1), AccessMode::Read, T0),
            RequestOutcome::Waiting
        );
        let woken = lm.release_all(e(1), SimTime(1));
        assert_eq!(woken, vec![e(2)]);
        let woken = lm.release_all(e(2), SimTime(2));
        assert_eq!(woken, vec![e(3)]);
    }

    #[test]
    fn reentrant_requests() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Write, T0),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Write, T0),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Read, T0),
            RequestOutcome::Granted
        );
        assert_eq!(lm.grant_count(), 1, "re-entry must not duplicate grants");
    }

    #[test]
    fn sole_holder_upgrade_is_instant() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Write, SimTime(2)),
            RequestOutcome::Granted
        );
        assert_eq!(lm.mode_of(e(1), Key(1)), Some(AccessMode::Write));
        assert_eq!(lm.stats().instant_upgrades.get(), 1);
    }

    #[test]
    fn contended_upgrade_waits_then_wins() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        lm.request(e(2), Key(1), AccessMode::Read, T0);
        // e2 wants to upgrade: must wait for e1.
        assert_eq!(
            lm.request(e(2), Key(1), AccessMode::Write, SimTime(1)),
            RequestOutcome::Waiting
        );
        // A later fresh writer queues behind the upgrade.
        assert_eq!(
            lm.request(e(3), Key(1), AccessMode::Write, SimTime(2)),
            RequestOutcome::Waiting
        );
        let woken = lm.release_all(e(1), SimTime(3));
        assert_eq!(woken, vec![e(2)], "upgrade granted first");
        assert_eq!(lm.mode_of(e(2), Key(1)), Some(AccessMode::Write));
        let woken = lm.release_all(e(2), SimTime(4));
        assert_eq!(woken, vec![e(3)]);
        lm.check_invariants();
    }

    #[test]
    fn release_read_locks_keeps_writes() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        lm.request(e(1), Key(2), AccessMode::Write, T0);
        lm.request(e(2), Key(1), AccessMode::Write, T0);
        lm.request(e(3), Key(2), AccessMode::Read, T0);
        let woken = lm.release_read_locks(e(1), SimTime(5));
        assert_eq!(woken, vec![e(2)], "reader on k1 released, writer unblocked");
        assert_eq!(
            lm.mode_of(e(1), Key(2)),
            Some(AccessMode::Write),
            "write lock retained"
        );
        assert!(lm.waiting_on(e(3)).is_some(), "k2 reader still blocked");
        lm.check_invariants();
    }

    #[test]
    fn cancel_wait_unblocks_followers() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        lm.request(e(2), Key(1), AccessMode::Write, T0); // waits
        lm.request(e(3), Key(1), AccessMode::Read, T0); // waits behind writer
        let woken = lm.cancel_wait(e(2), T0);
        assert_eq!(woken, vec![e(3)], "reader compatible once writer cancelled");
        assert_eq!(lm.stats().cancelled_waits.get(), 1);
        lm.check_invariants();
    }

    /// A follower granted because the writer queued ahead of it was
    /// cancelled waited until the cancellation and holds from it — not from
    /// time zero, which would record no wait and a hold of the whole clock.
    #[test]
    fn grant_after_cancelled_wait_is_timed_from_the_cancellation() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        lm.request(e(2), Key(1), AccessMode::Write, SimTime(10)); // waits
        lm.request(e(3), Key(1), AccessMode::Read, SimTime(20)); // waits behind writer
        assert_eq!(lm.cancel_wait(e(2), SimTime(50)), vec![e(3)]);
        lm.release_all(e(3), SimTime(60));
        assert_eq!(lm.stats().wait_time.count(), 1);
        assert_eq!(lm.stats().wait_time.max(), 30, "50 - enqueued at 20");
        assert_eq!(lm.stats().shared_hold.count(), 1);
        assert_eq!(lm.stats().shared_hold.max(), 10, "60 - granted at 50");
    }

    #[test]
    fn waits_for_and_deadlock_detection() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Write, T0);
        lm.request(e(2), Key(2), AccessMode::Write, T0);
        lm.request(e(1), Key(2), AccessMode::Write, T0); // e1 waits on e2
        assert!(lm.find_deadlock().is_none());
        lm.request(e(2), Key(1), AccessMode::Write, T0); // e2 waits on e1: cycle
        let cycle = lm.find_deadlock().expect("deadlock expected");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&e(1)) && cycle.contains(&e(2)));
        assert_eq!(lm.stats().deadlocks_detected.get(), 1);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Two readers both trying to upgrade: classic conversion deadlock.
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Read, T0);
        lm.request(e(2), Key(1), AccessMode::Read, T0);
        assert_eq!(
            lm.request(e(1), Key(1), AccessMode::Write, T0),
            RequestOutcome::Waiting
        );
        assert_eq!(
            lm.request(e(2), Key(1), AccessMode::Write, T0),
            RequestOutcome::Waiting
        );
        let cycle = lm.find_deadlock().expect("conversion deadlock");
        assert!(cycle.contains(&e(1)) || cycle.contains(&e(2)));
    }

    #[test]
    fn deadlock_resolved_by_victim_abort() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Write, T0);
        lm.request(e(2), Key(2), AccessMode::Write, T0);
        lm.request(e(1), Key(2), AccessMode::Write, T0);
        lm.request(e(2), Key(1), AccessMode::Write, T0);
        assert!(lm.find_deadlock().is_some());
        // Abort e2: cancel its wait and release its locks.
        let woken = lm.release_all(e(2), SimTime(9));
        assert_eq!(woken, vec![e(1)]);
        assert!(lm.find_deadlock().is_none());
        lm.check_invariants();
    }

    #[test]
    fn hold_time_statistics() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Write, SimTime(100));
        lm.request(e(1), Key(2), AccessMode::Read, SimTime(100));
        lm.release_all(e(1), SimTime(600));
        assert_eq!(lm.stats().exclusive_hold.count(), 1);
        assert_eq!(lm.stats().shared_hold.count(), 1);
        assert!((lm.stats().exclusive_hold.mean() - 500.0).abs() < 1.0);
    }

    #[test]
    fn wait_time_statistics() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Write, SimTime(0));
        lm.request(e(2), Key(1), AccessMode::Write, SimTime(10));
        lm.release_all(e(1), SimTime(250));
        assert_eq!(lm.stats().wait_time.count(), 1);
        assert!((lm.stats().wait_time.mean() - 240.0).abs() < 16.0);
    }

    #[test]
    fn release_all_of_unknown_exec_is_noop() {
        let mut lm = LockManager::new();
        assert!(lm.release_all(e(9), T0).is_empty());
        lm.check_invariants();
    }

    #[test]
    fn holders_listing() {
        let mut lm = LockManager::new();
        lm.request(e(2), Key(1), AccessMode::Read, T0);
        lm.request(e(1), Key(2), AccessMode::Write, T0);
        assert_eq!(lm.holders(), vec![e(1), e(2)]);
    }

    #[test]
    fn table_entries_are_reclaimed() {
        let mut lm = LockManager::new();
        lm.request(e(1), Key(1), AccessMode::Write, T0);
        lm.release_all(e(1), SimTime(1));
        assert_eq!(lm.grant_count(), 0);
        assert!(lm.table.is_empty(), "empty entries must be dropped");
        assert!(lm.held.is_empty());
        assert!(lm.waiting.is_empty());
    }
}

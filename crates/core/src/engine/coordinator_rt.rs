//! Coordinator-side protocol logic: arrival, vote collection, decisions,
//! and coordinator crash/recovery.

use super::slot::SiteState;
use super::{Engine, GTxn, TimerEvent};
use crate::config::TxnRequest;
use crate::msg::Msg;
use o2pc_common::{ExecId, GlobalTxnId, Program, SimTime, SiteId};
use o2pc_protocol::{CoordAction, TwoPhaseCoordinator};
use o2pc_runtime::Runtime;
use std::sync::Arc;

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    /// Run `run`'s armed arrival arrives: arm the run's next, then start it.
    pub(crate) fn on_arrive(&mut self, now: SimTime, run: usize) {
        let Some((scheduled, req)) = self.runs.get_mut(run).and_then(|r| r.rest.pop()) else {
            return;
        };
        let r = &mut self.runs[run];
        if let Some(&(at, _)) = r.rest.last() {
            r.seq += 1;
            self.rt
                .schedule_reserved(at, r.seq, TimerEvent::Arrive { run });
        } else {
            r.rest = Vec::new();
        }
        match req {
            TxnRequest::Local { site, ops } => {
                let Some(live) = self.slots[site.index()].state.live_mut() else {
                    self.report.local_aborted += 1;
                    return;
                };
                let exec = ExecId::Local(live.site.next_local_id());
                live.site.begin(exec, ops, now, &mut self.hist);
                // Latency clocks from the client's submit time, so on a
                // wall-clock runtime a late-firing arrival timer shows up
                // as latency instead of silently vanishing.
                live.local_starts.insert(exec, scheduled);
                self.next_op(now, site, exec);
            }
            TxnRequest::Global { subs, coordinator } => {
                if let Some(window) = self.cfg.admission_window {
                    let gate = &mut self.slots[coordinator.index()];
                    if gate.admitted >= window {
                        // Coordinator at capacity: park the arrival. It is
                        // admitted (FIFO) when a completion frees a slot,
                        // still carrying its original submit time.
                        let parked = super::PendingAdmission { scheduled, subs };
                        gate.admit_q.push_back(parked);
                        self.report.counters.inc("txn.admit_queued");
                        return;
                    }
                    gate.admitted += 1;
                }
                self.admit_global(now, scheduled, subs, coordinator);
            }
        }
    }

    /// Start a global transaction: build its coordinator, fan out the
    /// subtransaction spawns, arm the progress timeout.
    fn admit_global(
        &mut self,
        now: SimTime,
        scheduled: SimTime,
        subs: Arc<[(SiteId, Program)]>,
        coordinator: SiteId,
    ) {
        let id = self.idgen.next_id();
        let coord = TwoPhaseCoordinator::new(subs.len());
        for (site, ops) in subs.iter() {
            let ops = ops.clone();
            self.send(now, coordinator, *site, Msg::SpawnSubtxn { txn: id, ops });
        }
        let gtxn = GTxn {
            coord_site: coordinator,
            coord,
            subs,
            r1: self.marking.as_ref().map(|_| Default::default()),
            start: scheduled,
            began: 0,
            retx_armed: false,
        };
        self.txns.insert(id, gtxn);
        if let Some(t) = self.cfg.vote_timeout {
            // Overall progress timeout: covers a participant that
            // never acks (down site) as well as lost votes.
            self.rt
                .schedule(now + t, TimerEvent::VoteTimeout { txn: id });
        }
    }

    /// Completion-driven admission: a finished transaction frees one slot at
    /// its coordinator site; the oldest parked arrival (if any) takes it.
    fn refill_admission(&mut self, now: SimTime, site: SiteId) {
        if self.cfg.admission_window.is_none() {
            return;
        }
        let gate = &mut self.slots[site.index()];
        gate.admitted = gate.admitted.saturating_sub(1);
        let Some(next) = gate.admit_q.pop_front() else {
            return;
        };
        gate.admitted += 1;
        self.admit_global(now, next.scheduled, next.subs, site);
    }

    /// Carry out what the coordinator asks. `resend` marks a retransmission:
    /// the messages go out again, but the phase's once-only effects (the
    /// progress timeout, UDUM registration) do not, and `arm_retransmit`
    /// finds the resending chain already live.
    pub(crate) fn coord_action(
        &mut self,
        now: SimTime,
        txn: GlobalTxnId,
        action: CoordAction,
        resend: bool,
    ) {
        let Some(g) = self.txns.get(&txn) else {
            return; // retired (garbage collected): nothing left to drive
        };
        let coord_site = g.coord_site;
        // The coordinator's participants are `subs`' sites, in order.
        let subs = Arc::clone(&g.subs);
        match action {
            CoordAction::SendVoteReq(to) => {
                for s in masked(&subs, to) {
                    self.send(now, coord_site, s, Msg::VoteReq { txn });
                }
                if let Some(t) = self.cfg.vote_timeout.filter(|_| !resend) {
                    self.rt.schedule(now + t, TimerEvent::VoteTimeout { txn });
                }
                self.arm_retransmit(now, txn);
            }
            CoordAction::SendDecision(commit, to) => {
                let marking = self.marking.as_mut();
                if let Some(m) = marking.filter(|_| !commit && !resend && g.began != 0) {
                    // Piggy-backed on the DECISION messages: the aborted
                    // transaction's *actual* execution-site set, enabling
                    // UDUM1 detection at the sites (no extra messages).
                    m.udum.register_aborted(txn, masked(&subs, g.began));
                }
                for s in masked(&subs, to) {
                    self.send(now, coord_site, s, Msg::Decision { txn, commit });
                }
                self.arm_retransmit(now, txn);
            }
            // The coordinator emits this once, on entering `Done`.
            CoordAction::Complete(commit) => {
                if commit {
                    self.report.global_committed += 1;
                } else {
                    self.report.global_aborted += 1;
                }
                self.report
                    .global_latency
                    .record((now - g.start).as_micros());
                self.try_gc(txn);
                self.refill_admission(now, coord_site);
            }
        }
    }

    /// Hand `txn`'s coordinator one input, if the transaction is still
    /// tracked, and carry out what it asks. The coordinator knows each
    /// participant by its position in `GTxn::subs` (`GTxn::pos`).
    pub(crate) fn drive(
        &mut self,
        now: SimTime,
        txn: GlobalTxnId,
        input: impl FnOnce(&mut GTxn) -> Option<CoordAction>,
    ) {
        if let Some(action) = self.txns.get_mut(&txn).and_then(input) {
            self.coord_action(now, txn, action, false);
        }
    }

    pub(crate) fn on_vote_timeout(&mut self, now: SimTime, txn: GlobalTxnId) {
        let Some(g) = self.txns.get(&txn) else {
            return; // stale timer: the transaction has been retired
        };
        // A crashed coordinator times out nothing; a decided one presumes
        // nothing.
        if self.site_up(g.coord_site) {
            self.drive(now, txn, |g| g.coord.on_timeout());
        }
    }

    /// One link of the capped-exponential-backoff retransmission chain: if
    /// the coordinator is still waiting on votes or decision acks, resend to
    /// exactly the missing participants and schedule the next check.
    pub(crate) fn on_retransmit(&mut self, now: SimTime, txn: GlobalTxnId, attempt: u32) {
        let Some(base) = self.cfg.retransmit_base else {
            return;
        };
        let cap = base.saturating_mul(16);
        let Some(g) = self.txns.get_mut(&txn) else {
            return; // stale timer: the transaction has been retired
        };
        if g.done() {
            g.retx_armed = false;
            return;
        }
        let coord_site = g.coord_site;
        if !self.site_up(coord_site) {
            // The coordinator is down; keep the chain alive at the capped
            // interval so retransmission resumes after recovery (recovery
            // itself also resends, making this a cheap safety net).
            self.rt
                .schedule(now + cap, TimerEvent::Retransmit { txn, attempt });
            return;
        }
        match self.txns[&txn].coord.retransmit() {
            Some(action) => {
                self.report.counters.inc("msg.retransmit");
                self.coord_action(now, txn, action, true);
                let delay = base.saturating_mul(1u64 << (attempt + 1).min(16)).min(cap);
                let attempt = attempt + 1;
                self.rt
                    .schedule(now + delay, TimerEvent::Retransmit { txn, attempt });
            }
            None => {
                // Nothing outstanding: the chain ends. `arm_retransmit`
                // starts a fresh one if a later phase sends again.
                if let Some(g) = self.txns.get_mut(&txn) {
                    g.retx_armed = false;
                }
            }
        }
    }

    /// Retire a finished transaction once nothing in the system can still
    /// reference it: the decision is acked everywhere (`done`), no
    /// compensation or termination round is pending at any participant, and
    /// every participant is up and unmarked (under a marking protocol an
    /// aborted transaction stays until UDUM1 clears its markings — rule R3
    /// is the *correctness* gate for forgetting, so it is also the memory
    /// gate). Crashed participants defer GC to their recovery sweep.
    pub(crate) fn try_gc(&mut self, txn: GlobalTxnId) {
        let Some(g) = self.txns.get(&txn) else {
            return;
        };
        if !g.done() {
            return;
        }
        for &(p, _) in g.subs.iter() {
            let slot = &self.slots[p.index()];
            let Some(site) = slot.state.site() else {
                return;
            };
            if slot.pending_comp.contains_key(&txn)
                || slot.term_rounds.contains_key(&txn)
                || slot.term_armed.contains(&txn)
                || site.marks().mark_of(txn) != o2pc_marking::MarkState::Unmarked
            {
                return;
            }
        }
        let marking = self.marking.as_ref();
        if marking.is_some_and(|m| !m.udum.missing_sites(txn).is_empty()) {
            return;
        }
        for &(p, _) in g.subs.iter() {
            if let Some(site) = self.slots[p.index()].state.site_mut() {
                site.forget(txn);
            }
        }
        self.txns.remove(&txn);
        self.report.counters.inc("txn.gc");
    }

    /// GC sweep over every finished transaction (used after recovery, when
    /// a crashed participant was the last thing blocking retirement).
    pub(crate) fn gc_sweep(&mut self) {
        let done: Vec<GlobalTxnId> = self
            .txns
            .iter()
            .filter(|(_, g)| g.done())
            .map(|(&id, _)| id)
            .collect();
        for txn in done {
            self.try_gc(txn);
        }
    }

    /// A site crashes: one transition of its slot. Everything its live
    /// state held dies with it: the promises still parked (their records
    /// are lost with the unflushed tail, or were written but no completion
    /// announced them), its armed flush timer and its running locals. What
    /// it counted so far outlives it, in the report.
    pub(crate) fn on_crash(&mut self, now: SimTime, site: SiteId) {
        let slot = &mut self.slots[site.index()];
        slot.state = match std::mem::take(&mut slot.state) {
            SiteState::Up(live) => {
                self.report.locks.merge(live.site.lock_stats());
                let skipped = live.site.skipped_comp_ops;
                self.report.counters.add("comp.skipped_ops", skipped);
                match live.site.crash(now, &mut self.hist) {
                    Ok(crashed) => SiteState::Down(crashed),
                    // The log could not be cut or reopened (its directory
                    // is gone, say): nothing survives to recover from.
                    Err(_) => {
                        self.report.counters.inc("wal.reopen_failures");
                        SiteState::Lost
                    }
                }
            }
            down_or_lost => down_or_lost,
        };
    }

    /// A down site restarts: one transition of its slot, to a site rebuilt
    /// from what survived and nothing parked or armed.
    pub(crate) fn on_recover(&mut self, now: SimTime, site: SiteId) {
        let slot = &mut self.slots[site.index()];
        let crashed = match std::mem::take(&mut slot.state) {
            SiteState::Down(crashed) => crashed,
            up_or_lost => {
                slot.state = up_or_lost;
                return;
            }
        };
        let mut recovered = crashed.recover(now, &mut self.hist);
        // The WAL resurrects every logged decision (peers in doubt may
        // still ask), but decisions for transactions GC already retired
        // can never be queried again — drop them so recovery does not
        // grow the decided map without bound across crash cycles.
        recovered.retain_decisions(|g| self.txns.contains_key(&g));
        slot.state = SiteState::up(recovered);
        // Coordinators hosted here resume: resend logged decisions, presume
        // abort for undecided transactions.
        let mut to_recover: Vec<GlobalTxnId> = self
            .txns
            .iter()
            .filter(|(_, g)| g.coord_site == site && !g.done())
            .map(|(&id, _)| id)
            .collect();
        to_recover.sort_unstable(); // canonical resend order, independent of map iteration
        for txn in to_recover {
            self.drive(now, txn, |g| g.coord.recover());
        }
        // Recovered in-doubt participants (prepared, or locally committed
        // with the decision lost in the crash) resolve their fate through
        // the termination protocol when it is enabled.
        let up = self.slots[site.index()].state.site();
        if let Some(s) = up.filter(|_| self.cfg.termination_timeout.is_some()) {
            let mut in_doubt = s.prepared_subs();
            in_doubt.extend(s.pending_local_commits());
            for txn in in_doubt {
                if self.txns.contains_key(&txn) {
                    self.arm_term_timer(now, txn, site);
                }
            }
        }
        // This site may have been the last thing blocking retirement of
        // finished transactions (GC defers while a participant is down).
        self.gc_sweep();
    }
}

/// The sites of `subs` whose position bit is set in `mask`.
fn masked(subs: &[(SiteId, Program)], mask: u64) -> impl Iterator<Item = SiteId> + '_ {
    let sites = subs.iter().enumerate();
    sites
        .filter(move |(i, _)| mask >> i & 1 == 1)
        .map(|(_, &(s, _))| s)
}

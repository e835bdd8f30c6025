//! Coordinator-side protocol logic: arrival, vote collection, decisions,
//! and coordinator crash/recovery.

use super::{Engine, GTxn, TimerEvent};
use crate::config::TxnRequest;
use crate::msg::Msg;
use o2pc_common::{ExecId, GlobalTxnId, Program, SimTime, SiteId};
use o2pc_marking::TransMarks;
use o2pc_protocol::{CoordAction, TwoPhaseCoordinator};
use o2pc_runtime::Runtime;
use std::collections::BTreeSet;
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
                if !self.site_up(site) {
                    self.report.local_aborted += 1;
                    return;
                }
                let hist = &mut self.hist;
                let s = self.sites[site.index()].as_mut().unwrap();
                let exec = ExecId::Local(s.next_local_id());
                s.begin(exec, ops, now, hist);
                // Latency clocks from the client's submit time, so on a
                // wall-clock runtime a late-firing arrival timer shows up
                // as latency instead of silently vanishing.
                self.local_starts.insert(exec, scheduled);
                let service = self.cfg.op_service_time;
                self.rt
                    .schedule(now + service, TimerEvent::OpDone { site, exec });
            }
            TxnRequest::Global { subs, coordinator } => {
                if let Some(window) = self.cfg.admission_window {
                    let inflight = self.admitted.entry(coordinator).or_default();
                    if *inflight >= window {
                        // Coordinator at capacity: park the arrival. It is
                        // admitted (FIFO) when a completion frees a slot,
                        // still carrying its original submit time.
                        self.admit_q
                            .entry(coordinator)
                            .or_default()
                            .push_back(super::PendingAdmission { scheduled, subs });
                        self.report.counters.inc("txn.admit_queued");
                        return;
                    }
                    *inflight += 1;
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
        let participants = subs.iter().map(|&(s, _)| s).collect();
        let coord = TwoPhaseCoordinator::new(id, participants);
        for (site, ops) in subs.iter() {
            let ops = ops.clone();
            self.send(now, coordinator, *site, Msg::SpawnSubtxn { txn: id, ops });
        }
        let gtxn = GTxn {
            coord_site: coordinator,
            coord,
            subs,
            tm: TransMarks::new(),
            start: scheduled,
            spawn_retries: Default::default(),
            began: 0,
            done: false,
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
        if let Some(c) = self.admitted.get_mut(&site) {
            *c = c.saturating_sub(1);
        }
        let Some(next) = self.admit_q.get_mut(&site).and_then(|q| q.pop_front()) else {
            return;
        };
        *self.admitted.entry(site).or_default() += 1;
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
        match action {
            CoordAction::SendVoteReq(sites) => {
                for s in sites {
                    self.send(now, coord_site, s, Msg::VoteReq { txn });
                }
                if let Some(t) = self.cfg.vote_timeout.filter(|_| !resend) {
                    self.rt.schedule(now + t, TimerEvent::VoteTimeout { txn });
                }
                self.arm_retransmit(now, txn);
            }
            CoordAction::SendDecision(commit, sites) => {
                if !commit && !resend {
                    // Piggy-backed on the DECISION messages: the aborted
                    // transaction's *actual* execution-site set, enabling
                    // UDUM1 detection at the sites (no extra messages).
                    let mut began = BTreeSet::new();
                    for (slot, &(site, _)) in g.subs.iter().enumerate() {
                        if g.began >> slot & 1 == 1 {
                            began.insert(site);
                        }
                    }
                    if !began.is_empty() {
                        self.udum.register_aborted(txn, began);
                    }
                }
                for s in sites {
                    self.send(now, coord_site, s, Msg::Decision { txn, commit });
                }
                self.arm_retransmit(now, txn);
            }
            CoordAction::Complete(commit) => {
                let g = self.txns.get_mut(&txn).expect("txn exists");
                if g.done {
                    return;
                }
                g.done = true;
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

    pub(crate) fn on_vote_timeout(&mut self, now: SimTime, txn: GlobalTxnId) {
        let Some(g) = self.txns.get(&txn) else {
            return; // stale timer: the transaction has been retired
        };
        if g.done || !self.site_up(g.coord_site) {
            return; // finished, or a crashed coordinator times out nothing
        }
        let action = self.txns.get_mut(&txn).unwrap().coord.on_timeout();
        if let Some(action) = action {
            self.coord_action(now, txn, action, false);
        }
    }

    /// One link of the capped-exponential-backoff retransmission chain: if
    /// the coordinator is still waiting on votes or decision acks, resend to
    /// exactly the missing participants and schedule the next check.
    pub(crate) fn on_retransmit(&mut self, now: SimTime, txn: GlobalTxnId, attempt: u32) {
        let Some(base) = self.cfg.retransmit_base else {
            return;
        };
        let cap = self.cfg.retransmit_cap;
        let (done, coord_site) = match self.txns.get(&txn) {
            Some(g) => (g.done, g.coord_site),
            None => return, // stale timer: the transaction has been retired
        };
        if done {
            self.txns.get_mut(&txn).unwrap().retx_armed = false;
            return;
        }
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
                let exp = base.saturating_mul(1u64 << (attempt + 1).min(16));
                let delay = if exp > cap { cap } else { exp };
                self.rt.schedule(
                    now + delay,
                    TimerEvent::Retransmit {
                        txn,
                        attempt: attempt + 1,
                    },
                );
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
    /// every participant is up and unmarked (an aborted transaction stays
    /// until UDUM1 clears its markings — rule R3 is the *correctness* gate
    /// for forgetting, so it is also the memory gate). Crashed participants
    /// defer GC to their recovery sweep.
    pub(crate) fn try_gc(&mut self, txn: GlobalTxnId) {
        let Some(g) = self.txns.get(&txn) else {
            return;
        };
        if !g.done {
            return;
        }
        let participants = g.coord.participants();
        for &p in participants {
            if self.pending_comp.contains_key(&(txn, p))
                || self.term_rounds.contains_key(&(txn, p))
                || self.term_armed.contains(&(txn, p))
            {
                return;
            }
            let Some(site) = self.sites[p.index()].as_ref() else {
                return;
            };
            if site.mark_of(txn) != o2pc_marking::MarkState::Unmarked {
                return;
            }
        }
        if !self.udum.missing_sites(txn).is_empty() {
            return;
        }
        for &p in participants {
            if let Some(site) = self.sites[p.index()].as_mut() {
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
            .filter(|(_, g)| g.done)
            .map(|(&id, _)| id)
            .collect();
        for txn in done {
            self.try_gc(txn);
        }
    }

    pub(crate) fn on_crash(&mut self, now: SimTime, site: SiteId) {
        let Some(s) = self.sites[site.index()].take() else {
            return;
        };
        // Promises still parked die with the site. Their records are lost
        // with the unflushed tail, or were written but their completion
        // never reported: the disk keeps them, unannounced.
        self.wal_parked[site.index()].clear();
        self.flush_armed.remove(&site);
        // What the site counted so far outlives it.
        self.report.locks.merge(s.lock_stats());
        self.report
            .counters
            .add("comp.skipped_ops", s.skipped_comp_ops);
        match s.crash(now, &mut self.hist) {
            Ok(crashed) => {
                self.crashed.insert(site, crashed);
            }
            // The log could not be cut or reopened (its directory is gone,
            // say): nothing survives to recover from, so the site stays
            // down.
            Err(_) => self.report.counters.inc("wal.reopen_failures"),
        }
    }

    pub(crate) fn on_recover(&mut self, now: SimTime, site: SiteId) {
        let Some(crashed) = self.crashed.remove(&site) else {
            return;
        };
        let mut recovered_site = crashed.recover(now, &mut self.hist);
        // Everything the reopened log holds is on disk, and no completion
        // will ever report it: bytes the crash kept were sealed by the
        // previous incarnation, whose completions die with it.
        self.wal_covered[site.index()] = recovered_site.wal().durable_ticket();
        // The WAL resurrects every logged decision (peers in doubt may
        // still ask), but decisions for transactions GC already retired
        // can never be queried again — drop them so recovery does not
        // grow the decided map without bound across crash cycles.
        recovered_site.retain_decisions(|g| self.txns.contains_key(&g));
        self.sites[site.index()] = Some(recovered_site);
        // Coordinators hosted here resume: resend logged decisions, presume
        // abort for undecided transactions.
        let mut to_recover: Vec<GlobalTxnId> = self
            .txns
            .iter()
            .filter(|(_, g)| g.coord_site == site && !g.done)
            .map(|(&id, _)| id)
            .collect();
        to_recover.sort_unstable(); // canonical resend order, independent of map iteration
        for txn in to_recover {
            if let Some(action) = self.txns.get_mut(&txn).unwrap().coord.recover() {
                self.coord_action(now, txn, action, false);
            }
        }
        // Recovered in-doubt participants (prepared, or locally committed
        // with the decision lost in the crash) resolve their fate through
        // the termination protocol when it is enabled.
        if self.cfg.termination_timeout.is_some() {
            let site_ref = self.sites[site.index()].as_ref().unwrap();
            let mut in_doubt = site_ref.prepared_subs();
            in_doubt.extend(site_ref.pending_local_commits());
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

//! Participant-side protocol logic: message handling, admission (rule R1),
//! operation execution, compensation, and cooperative termination.

use super::slot::SiteState;
use super::{Engine, TimerEvent};
use crate::msg::Msg;
use o2pc_common::{Duration, ExecId, GlobalTxnId, SimTime, SiteId};
use o2pc_protocol::TerminationOutcome;
use o2pc_runtime::Runtime;
use o2pc_site::{LockPolicy, OpResult, PeerState, Site};

/// How long a compensating subtransaction that lost a deadlock waits before
/// it runs again: persistence of compensation (§3.2) may delay a `CT`, never
/// drop it.
const COMP_RETRY_DELAY: Duration = Duration::millis(1);

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    pub(crate) fn on_deliver(&mut self, now: SimTime, to: SiteId, msg: Msg) {
        if !self.site_up(to) {
            return; // message to a crashed site is lost
        }
        match msg {
            Msg::SpawnSubtxn { txn, .. } => self.try_spawn(now, txn, to),
            Msg::SubtxnAck { txn, from, ok } => {
                self.drive(now, txn, |g| g.coord.on_subtxn_ack(g.pos(from)?, ok))
            }
            Msg::VoteReq { txn } => {
                if !self.txns.contains_key(&txn) {
                    return; // stale duplicate for a retired transaction
                }
                let force = self.cfg.vote_abort_probability > 0.0
                    && self.rng.gen_bool(self.cfg.vote_abort_probability);
                let policy = self.lock_policy_at(to);
                let Some(site) = self.slots[to.index()].state.site_mut() else {
                    return;
                };
                let had_exec = site.exec_state(ExecId::Sub(txn)).is_some();
                let out = site.vote(txn, policy, force, now, &mut self.hist);
                if force && had_exec {
                    self.report.counters.inc("vote.autonomy_aborts");
                }
                self.wake(now, to, out.woken);
                if out.vote == o2pc_site::Vote::No {
                    self.invalidate_incompatible_subs(now, to);
                }
                if out.vote == o2pc_site::Vote::Yes && policy == LockPolicy::HoldWrites {
                    self.arm_term_timer(now, txn, to);
                }
                let coord_site = self.txns[&txn].coord_site;
                let reply = Msg::VoteMsg {
                    txn,
                    from: to,
                    vote: out.vote,
                };
                if out.vote == o2pc_site::Vote::Yes {
                    // A yes-vote promises the local-commit / prepare record
                    // is durable; hold it for the next group-commit flush. A
                    // no-vote promises nothing — recovery re-produces it.
                    self.send_gated(now, to, coord_site, reply);
                } else {
                    self.send(now, to, coord_site, reply);
                }
            }
            Msg::VoteMsg { txn, from, vote } => {
                self.drive(now, txn, |g| g.coord.on_vote(g.pos(from)?, vote))
            }
            Msg::Decision { txn, commit } => {
                if !self.txns.contains_key(&txn) {
                    return; // stale duplicate for a retired transaction
                }
                self.apply_decision(now, txn, to, commit);
                if !commit {
                    self.invalidate_incompatible_subs(now, to);
                }
                let coord_site = self.txns[&txn].coord_site;
                // The ack promises the Outcome record is durable: after it,
                // the coordinator may retire the transaction, so this site
                // must never again be in doubt about the fate — not even
                // across a crash.
                self.send_gated(now, to, coord_site, Msg::DecisionAck { txn, from: to });
            }
            Msg::DecisionAck { txn, from } => {
                self.drive(now, txn, |g| g.coord.on_decision_ack(g.pos(from)?))
            }
            Msg::TermReq { txn, from } => {
                let Some(site) = self.slots[to.index()].state.site_mut() else {
                    return;
                };
                // An unvoted subtransaction aborted here marks undone with no mark re-check.
                let (state, woken) = site.answer_termination_query(txn, now, &mut self.hist);
                self.wake(now, to, woken);
                let reply = Msg::TermAnswer {
                    txn,
                    from: to,
                    state,
                };
                if matches!(state, PeerState::KnowsCommit | PeerState::KnowsAbort) {
                    // A fate answer lets the asker finalize; the Outcome
                    // record behind it must be durable first, or a crash
                    // here could leave this site presuming the other way.
                    self.send_gated(now, to, from, reply);
                } else {
                    self.send(now, to, from, reply);
                }
            }
            Msg::TermAnswer { txn, from, state } => {
                let rounds = &mut self.slots[to.index()].term_rounds;
                let Some(round) = rounds.get_mut(&txn) else {
                    return;
                };
                match round.on_answer(from, state) {
                    Some(outcome @ (TerminationOutcome::Commit | TerminationOutcome::Abort)) => {
                        let commit = outcome == TerminationOutcome::Commit;
                        self.report.counters.inc(if commit {
                            "term.resolved_commit"
                        } else {
                            "term.resolved_abort"
                        });
                        // A peer's abort marks this site undone with no mark re-check.
                        self.apply_decision(now, txn, to, commit);
                        self.try_gc(txn);
                    }
                    Some(TerminationOutcome::StillBlocked) => {
                        rounds.remove(&txn);
                        self.report.counters.inc("term.still_blocked");
                        // Retry after another timeout period.
                        self.arm_term_timer(now, txn, to);
                    }
                    None => {}
                }
            }
        }
    }

    /// Apply a decision at a participant, whether the coordinator sent it or
    /// a termination round learned it from a peer (the coordinator's own
    /// DECISION may still follow; `Site::decide` is idempotent for repeats).
    /// The site leaves doubt, so a termination round it runs is over,
    /// answered or not. An abort of a locally committed subtransaction
    /// starts its compensation, owed in `pending_comp` until it commits.
    fn apply_decision(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId, commit: bool) {
        let slot = &mut self.slots[site_id.index()];
        slot.term_rounds.remove(&txn);
        let Some(site) = slot.state.site_mut() else {
            return;
        };
        let out = site.decide(txn, commit, now, &mut self.hist);
        self.wake(now, site_id, out.woken);
        if let Some(plan) = out.compensation {
            self.report.counters.inc("comp.plans");
            self.slots[site_id.index()].pending_comp.insert(txn, plan);
            self.start_compensation(now, txn, site_id);
        }
    }

    /// A prepared participant has waited too long for the decision: run a
    /// cooperative-termination round against its peers. Each firing consumes
    /// its `term_armed` slot and re-arms after sending, so a lost `TermReq`
    /// or `TermAnswer` only delays the next round by one timeout — the
    /// chain dies only when the site leaves doubt (or stays crashed, in
    /// which case recovery re-arms it).
    pub(crate) fn on_term_timeout(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let slot = &mut self.slots[site_id.index()];
        slot.term_armed.remove(&txn);
        let Some(site) = slot.state.site() else {
            return;
        };
        // Still uncertain? (Prepared under 2PC, or locally committed under
        // O2PC with the decision unknown — e.g. after a participant crash
        // swallowed the DECISION message.)
        let prepared = site
            .exec_state(ExecId::Sub(txn))
            .is_some_and(|s| s.phase == o2pc_site::ExecPhase::Prepared);
        if !prepared && !site.has_pending_local_commit(txn) {
            self.try_gc(txn); // this chain may have been the last blocker
            return;
        }
        let Some(g) = self.txns.get(&txn) else {
            return; // retired while the timer was in flight
        };
        let others = g.subs.iter().filter(|&&(p, _)| p != site_id);
        let peers: Vec<SiteId> = others.map(|&(p, _)| p).collect();
        if peers.is_empty() {
            return;
        }
        self.report.counters.inc("term.rounds");
        // Overwrite any stalled previous round: answers carry the sender id,
        // so replies to the old round simply refill the new one.
        let round = o2pc_protocol::TerminationRound::new(peers.clone());
        self.slots[site_id.index()].term_rounds.insert(txn, round);
        for p in peers {
            self.send(now, site_id, p, Msg::TermReq { txn, from: site_id });
        }
        self.arm_term_timer(now, txn, site_id);
    }

    /// Start a subtransaction on its SPAWN's delivery or an R1 retry, after
    /// rule R1's admission check under a marking protocol. Either way the
    /// program is the one the SPAWN carries, shared with `GTxn::subs`.
    pub(crate) fn try_spawn(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let Some(site) = self.slots[site_id.index()].state.site_mut() else {
            return;
        };
        let Some(g) = self.txns.get_mut(&txn) else {
            return;
        };
        if g.coord.decision().is_some() {
            return;
        }
        let pos = g.pos(site_id).expect("spawn at a participant");
        if g.began >> pos & 1 == 1 {
            // Duplicate SpawnSubtxn: the subtransaction already began here.
            // Its original ack (or the vote-timeout's presumed abort)
            // resolves the coordinator; re-beginning would clobber live
            // execution state.
            return;
        }
        if let (Some(m), Some(r1)) = (&self.marking, &mut g.r1) {
            self.report.counters.inc("r1.checks");
            if let Err(inc) = r1.tm.check_and_absorb(m.protocol, site.marks()) {
                self.report.counters.inc("r1.rejections");
                let retries = r1.retries.entry(site_id).or_insert(0);
                *retries += 1;
                if inc.retryable && *retries <= self.cfg.r1_max_retries {
                    self.report.counters.inc("r1.retries");
                    let delay = self.cfg.r1_retry_delay;
                    self.rt
                        .schedule(now + delay, TimerEvent::R1Retry { txn, site: site_id });
                } else {
                    self.report.counters.inc("r1.forced_aborts");
                    self.ack_subtxn(now, txn, site_id, false);
                }
                return;
            }
        }
        let ops = g.subs[pos].1.clone();
        g.began |= 1 << pos;
        let exec = ExecId::Sub(txn);
        let empty = ops.is_empty();
        site.begin(exec, ops, now, &mut self.hist);
        if empty {
            self.ack_subtxn(now, txn, site_id, true);
        } else {
            self.next_op(now, site_id, exec);
        }
    }

    /// Rule R1's re-check: do the marks `txn` accumulated still admit
    /// `site`'s current ones? Always, where nothing marks.
    fn r1_admits(&self, txn: GlobalTxnId, site: &Site) -> bool {
        let Some(m) = &self.marking else {
            return true;
        };
        let r1 = self.txns[&txn].r1.as_ref();
        r1.is_none_or(|r1| r1.tm.check(m.protocol, site.marks()).is_ok())
    }

    pub(crate) fn on_op_done(&mut self, now: SimTime, site_id: SiteId, exec: ExecId) {
        let Some(site) = self.slots[site_id.index()].state.site_mut() else {
            return;
        };
        if site.exec_state(exec).is_none() {
            return; // aborted while this event was in flight
        }
        if site.is_blocked(exec) {
            return; // spurious wake-up; a grant event will reschedule us
        }
        let result = site.execute_next_op(exec, now, &mut self.hist);
        match result {
            OpResult::Done { finished, .. } => {
                // UDUM observation: this execution's first operation at the
                // site "executed while the site was undone wrt T_i".
                // UDUM1 fences: "there is a transaction that has also
                // executed at that site while that site was undone" —
                // subtransactions and independent locals both qualify;
                // compensating subtransactions do not (they are the
                // *mechanism* of undoing, not evidence that the marking is
                // stale). The mark-change invalidation rule above is what
                // keeps fencing safe for in-flight admissions.
                let marking = self.marking.as_mut().filter(|_| self.cfg.enable_udum);
                if let Some(m) = marking.filter(|_| {
                    !matches!(exec, ExecId::CompSub(_))
                        && site.exec_state(exec).map(|s| s.pc) == Some(1)
                }) {
                    let undone = site.marks().undone();
                    let fired: Vec<_> = undone
                        .filter(|&ti| m.udum.observe_access(ti, site_id))
                        .collect();
                    for ti in fired {
                        self.fire_udum(ti);
                    }
                }
                if !finished {
                    self.next_op(now, site_id, exec);
                    return;
                }
                match exec {
                    ExecId::Local(_) => {
                        let Some(live) = self.slots[site_id.index()].state.live_mut() else {
                            return;
                        };
                        let woken = live.site.commit_local(exec, now, &mut self.hist);
                        self.report.local_committed += 1;
                        if let Some(start) = live.local_starts.remove(&exec) {
                            self.report.local_latency.record((now - start).as_micros());
                        }
                        self.wake(now, site_id, woken);
                    }
                    ExecId::Sub(g) => {
                        // Late revalidation of R1 (the paper's compromise for
                        // marking-set deadlock avoidance): re-check as the
                        // subtransaction's last action.
                        let slot = &self.slots[site_id.index()];
                        let ok = slot.state.site().is_none_or(|s| self.r1_admits(g, s));
                        let slot = &mut self.slots[site_id.index()];
                        if let Some(site) = slot.state.site_mut().filter(|_| !ok) {
                            self.report.counters.inc("r1.revalidation_failures");
                            let woken = site.unilateral_abort(g, now, &mut self.hist);
                            self.wake(now, site_id, woken);
                            self.invalidate_incompatible_subs(now, site_id);
                        }
                        self.ack_subtxn(now, g, site_id, ok);
                    }
                    ExecId::CompSub(g) => self.complete_compensation(now, g, site_id),
                }
            }
            OpResult::Blocked => self.on_blocked(now, site_id, exec),
            // A compensation's operations skip rather than fail, so `exec` is
            // a local or a subtransaction here.
            OpResult::Failed(_) => {
                self.abort_execution(now, site_id, exec);
                if let ExecId::Sub(_) = exec {
                    self.invalidate_incompatible_subs(now, site_id);
                }
            }
        }
    }

    /// Abort `exec` at `site_id`: the one way the engine kills an execution,
    /// whatever chose it — a deadlock resolver, a failed operation, a mark
    /// re-check. A local dies; a subtransaction rolls back, marks the site
    /// undone and tells its coordinator it failed; a compensation rolls back
    /// and runs again after `COMP_RETRY_DELAY`, since once initiated it must
    /// complete. A caller whose abort can change the marks follows up with
    /// `invalidate_incompatible_subs` itself.
    pub(crate) fn abort_execution(&mut self, now: SimTime, site_id: SiteId, exec: ExecId) {
        let Some(live) = self.slots[site_id.index()].state.live_mut() else {
            return;
        };
        let (site, hist) = (&mut live.site, &mut self.hist);
        match exec {
            ExecId::Local(_) => {
                let woken = site.abort_exec(exec, now, hist);
                live.local_starts.remove(&exec);
                self.report.local_aborted += 1;
                self.wake(now, site_id, woken);
            }
            ExecId::Sub(g) => {
                let woken = site.unilateral_abort(g, now, hist);
                self.wake(now, site_id, woken);
                self.ack_subtxn(now, g, site_id, false);
            }
            ExecId::CompSub(g) => {
                let woken = site.rollback_compensation(g, now);
                self.report.counters.inc("comp.retries");
                self.wake(now, site_id, woken);
                let retry = TimerEvent::CompRetry {
                    txn: g,
                    site: site_id,
                };
                self.rt.schedule(now + COMP_RETRY_DELAY, retry);
            }
        }
    }

    /// The subtransaction of `txn` at `from` finished executing (`ok`) or
    /// was rolled back: tell its coordinator.
    fn ack_subtxn(&mut self, now: SimTime, txn: GlobalTxnId, from: SiteId, ok: bool) {
        let coord_site = self.txns[&txn].coord_site;
        self.send(now, from, coord_site, Msg::SubtxnAck { txn, from, ok });
    }

    pub(crate) fn fire_udum(&mut self, ti: GlobalTxnId) {
        self.report.counters.inc("udum.fired");
        for s in self.slots.iter_mut().filter_map(|s| s.state.site_mut()) {
            s.unmark(ti);
        }
        if let Some(m) = &mut self.marking {
            m.udum.forget(ti);
        }
        // Unmarking was usually the last condition holding the aborted
        // transaction's record alive.
        self.try_gc(ti);
    }

    /// A mark was just added at `site_id` (a roll-back or a completed
    /// compensation turned it *undone* with respect to some transaction).
    /// With the marking sets protected by the site's own strict 2PL, any
    /// still-running subtransaction admitted under the previous marks would
    /// now deadlock with the marking update — the resolution is to abort it
    /// before it touches data under the new marks. Without this, a blocked
    /// subtransaction could execute *after* a compensation it was never
    /// checked against, recreating exactly the regular cycles P1 exists to
    /// prevent.
    pub(crate) fn invalidate_incompatible_subs(&mut self, now: SimTime, site_id: SiteId) {
        if self.marking.is_none() {
            return;
        }
        let state = &self.slots[site_id.index()].state;
        let Some(running) = state.site().map(|s| s.running_subs()) else {
            return;
        };
        for g in running {
            let Some(gt) = self.txns.get(&g) else {
                continue;
            };
            if gt.coord.decision().is_some() {
                continue;
            }
            let site = self.slots[site_id.index()].state.site();
            if site.is_some_and(|s| !self.r1_admits(g, s)) {
                self.report.counters.inc("r1.mark_invalidations");
                self.abort_execution(now, site_id, ExecId::Sub(g));
            }
        }
    }

    /// Run `CT_ij` from its plan, or run it again after a roll-back: if it
    /// is still owed, and the site is up to run it.
    pub(crate) fn start_compensation(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let slot = &mut self.slots[site_id.index()];
        let (Some(plan), SiteState::Up(live)) = (slot.pending_comp.get(&txn), &mut slot.state)
        else {
            return;
        };
        live.site.begin_compensation(txn, plan, now, &mut self.hist);
        if plan.is_empty() {
            self.complete_compensation(now, txn, site_id);
        } else {
            self.next_op(now, site_id, ExecId::CompSub(txn));
        }
    }

    /// `CT_ij` has run its last operation: commit it, which sets the undone
    /// mark (rule R2), and strike it from `pending_comp`.
    fn complete_compensation(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let slot = &mut self.slots[site_id.index()];
        let Some(site) = slot.state.site_mut() else {
            return;
        };
        let woken = site.finish_compensation(txn, now, &mut self.hist);
        slot.pending_comp.remove(&txn);
        self.wake(now, site_id, woken);
        self.report.compensations_completed += 1;
        // R2 set the undone marking: future accesses count toward UDUM1, and
        // running subtransactions admitted under the old marks must be
        // re-checked.
        self.invalidate_incompatible_subs(now, site_id);
        self.try_gc(txn);
    }
}

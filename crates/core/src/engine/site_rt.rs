//! Participant-side protocol logic: message handling, admission (rule R1),
//! operation execution, compensation, and cooperative termination.

use super::{Engine, TimerEvent};
use crate::msg::Msg;
use o2pc_common::{Duration, ExecId, GlobalTxnId, SimTime, SiteId};
use o2pc_marking::MarkingProtocol;
use o2pc_protocol::TerminationOutcome;
use o2pc_runtime::Runtime;
use o2pc_site::{LockPolicy, OpResult};

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
                let Some(g) = self.txns.get_mut(&txn) else {
                    return;
                };
                if g.done {
                    return;
                }
                if let Some(action) = g.coord.on_subtxn_ack(from, ok) {
                    self.coord_action(now, txn, action, false);
                }
            }
            Msg::VoteReq { txn } => {
                if !self.txns.contains_key(&txn) {
                    return; // stale duplicate for a retired transaction
                }
                let force = self.cfg.vote_abort_probability > 0.0
                    && self.rng.gen_bool(self.cfg.vote_abort_probability);
                let policy = self.lock_policy_at(to);
                let hist = &mut self.hist;
                let site = self.sites[to.index()].as_mut().unwrap();
                let had_exec = site.exec_state(ExecId::Sub(txn)).is_some();
                let out = site.vote(txn, policy, force, now, hist);
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
                let Some(g) = self.txns.get_mut(&txn) else {
                    return;
                };
                if g.done {
                    return;
                }
                if let Some(action) = g.coord.on_vote(from, vote) {
                    self.coord_action(now, txn, action, false);
                }
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
                let Some(g) = self.txns.get_mut(&txn) else {
                    return;
                };
                if g.done {
                    return;
                }
                if let Some(action) = g.coord.on_decision_ack(from) {
                    self.coord_action(now, txn, action, false);
                }
            }
            Msg::TermReq { txn, from } => {
                let hist = &mut self.hist;
                let site = self.sites[to.index()].as_mut().unwrap();
                // An unvoted subtransaction aborted here marks undone with no mark re-check.
                let (state, woken) = site.answer_termination_query(txn, now, hist);
                self.wake(now, to, woken);
                let reply = Msg::TermAnswer {
                    txn,
                    from: to,
                    state,
                };
                if matches!(
                    state,
                    o2pc_site::PeerState::KnowsCommit | o2pc_site::PeerState::KnowsAbort
                ) {
                    // A fate answer lets the asker finalize; the Outcome
                    // record behind it must be durable first, or a crash
                    // here could leave this site presuming the other way.
                    self.send_gated(now, to, from, reply);
                } else {
                    self.send(now, to, from, reply);
                }
            }
            Msg::TermAnswer { txn, from, state } => {
                let Some(round) = self.term_rounds.get_mut(&(txn, to)) else {
                    return;
                };
                match round.on_answer(from, state) {
                    Some(outcome @ (TerminationOutcome::Commit | TerminationOutcome::Abort)) => {
                        self.term_rounds.remove(&(txn, to));
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
                        self.term_rounds.remove(&(txn, to));
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
    /// An abort of a locally committed subtransaction starts its
    /// compensation, owed in `pending_comp` until it commits.
    fn apply_decision(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId, commit: bool) {
        let site = self.sites[site_id.index()].as_mut().unwrap();
        let out = site.decide(txn, commit, now, &mut self.hist);
        self.wake(now, site_id, out.woken);
        if let Some(plan) = out.compensation {
            self.report.counters.inc("comp.plans");
            self.pending_comp.insert((txn, site_id), plan);
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
        self.term_armed.remove(&(txn, site_id));
        if !self.site_up(site_id) {
            return;
        }
        // Still uncertain? (Prepared under 2PC, or locally committed under
        // O2PC with the decision unknown — e.g. after a participant crash
        // swallowed the DECISION message.)
        {
            let site = self.sites[site_id.index()].as_ref().unwrap();
            let prepared = site
                .exec_state(ExecId::Sub(txn))
                .map(|s| s.phase == o2pc_site::ExecPhase::Prepared)
                .unwrap_or(false);
            let pending_lc = site.has_pending_local_commit(txn);
            if !prepared && !pending_lc {
                self.try_gc(txn); // this chain may have been the last blocker
                return;
            }
        }
        let Some(g) = self.txns.get(&txn) else {
            return; // retired while the timer was in flight
        };
        let peers: Vec<SiteId> = g
            .coord
            .participants()
            .iter()
            .copied()
            .filter(|&p| p != site_id)
            .collect();
        if peers.is_empty() {
            return;
        }
        self.report.counters.inc("term.rounds");
        // Overwrite any stalled previous round: answers carry the sender id,
        // so replies to the old round simply refill the new one.
        self.term_rounds.insert(
            (txn, site_id),
            o2pc_protocol::TerminationRound::new(txn, peers.clone()),
        );
        for p in peers {
            self.send(now, site_id, p, Msg::TermReq { txn, from: site_id });
        }
        self.arm_term_timer(now, txn, site_id);
    }

    /// Rule R1: admission check before (re)starting a subtransaction, on
    /// its SPAWN's delivery or an R1 retry. Either way the program is the
    /// one the SPAWN carries, shared with `GTxn::subs`.
    pub(crate) fn try_spawn(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        if !self.site_up(site_id) {
            return;
        }
        let marking = self.marking();
        let Some(g) = self.txns.get_mut(&txn) else {
            return;
        };
        if g.done || g.coord.decision().is_some() {
            return;
        }
        let slot = g.subs.iter().position(|&(s, _)| s == site_id);
        let slot = slot.expect("spawn at a participant");
        if g.began >> slot & 1 == 1 {
            // Duplicate SpawnSubtxn: the subtransaction already began here.
            // Its original ack (or the vote-timeout's presumed abort)
            // resolves the coordinator; re-beginning would clobber live
            // execution state.
            return;
        }
        self.report.counters.inc("r1.checks");
        let site = self.sites[site_id.index()].as_ref().unwrap();
        match g.tm.check_and_absorb(marking, site.marks()) {
            Ok(()) => {
                let ops = g.subs[slot].1.clone();
                g.began |= 1 << slot;
                let exec = ExecId::Sub(txn);
                let empty = ops.is_empty();
                let hist = &mut self.hist;
                let site = self.sites[site_id.index()].as_mut().unwrap();
                site.begin(exec, ops, now, hist);
                if empty {
                    let coord_site = g.coord_site;
                    self.send(
                        now,
                        site_id,
                        coord_site,
                        Msg::SubtxnAck {
                            txn,
                            from: site_id,
                            ok: true,
                        },
                    );
                } else {
                    let service = self.cfg.op_service_time;
                    self.rt.schedule(
                        now + service,
                        TimerEvent::OpDone {
                            site: site_id,
                            exec,
                        },
                    );
                }
            }
            Err(inc) => {
                self.report.counters.inc("r1.rejections");
                let retries = g.spawn_retries.entry(site_id).or_insert(0);
                *retries += 1;
                if inc.retryable && *retries <= self.cfg.r1_max_retries {
                    self.report.counters.inc("r1.retries");
                    let delay = self.cfg.r1_retry_delay;
                    self.rt
                        .schedule(now + delay, TimerEvent::R1Retry { txn, site: site_id });
                } else {
                    self.report.counters.inc("r1.forced_aborts");
                    let coord_site = g.coord_site;
                    self.send(
                        now,
                        site_id,
                        coord_site,
                        Msg::SubtxnAck {
                            txn,
                            from: site_id,
                            ok: false,
                        },
                    );
                }
            }
        }
    }

    pub(crate) fn on_op_done(&mut self, now: SimTime, site_id: SiteId, exec: ExecId) {
        if !self.site_up(site_id) {
            return;
        }
        if self.sites[site_id.index()]
            .as_ref()
            .unwrap()
            .exec_state(exec)
            .is_none()
        {
            return; // aborted while this event was in flight
        }
        if self.sites[site_id.index()]
            .as_ref()
            .unwrap()
            .is_blocked(exec)
        {
            return; // spurious wake-up; a grant event will reschedule us
        }
        let hist = &mut self.hist;
        let site = self.sites[site_id.index()].as_mut().unwrap();
        let result = site.execute_next_op(exec, now, hist);
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
                if self.cfg.enable_udum
                    && !matches!(exec, ExecId::CompSub(_))
                    && site.exec_state(exec).map(|s| s.pc) == Some(1)
                {
                    let undone = site.marks().undone_set();
                    for ti in undone {
                        if self.udum.observe_access(ti, site_id) {
                            self.fire_udum(ti);
                        }
                    }
                }
                if !finished {
                    let service = self.cfg.op_service_time;
                    self.rt.schedule(
                        now + service,
                        TimerEvent::OpDone {
                            site: site_id,
                            exec,
                        },
                    );
                    return;
                }
                match exec {
                    ExecId::Local(_) => {
                        let hist = &mut self.hist;
                        let site = self.sites[site_id.index()].as_mut().unwrap();
                        let woken = site.commit_local(exec, now, hist);
                        self.report.local_committed += 1;
                        if let Some(start) = self.local_starts.remove(&exec) {
                            self.report.local_latency.record((now - start).as_micros());
                        }
                        self.wake(now, site_id, woken);
                    }
                    ExecId::Sub(g) => {
                        // Late revalidation of R1 (the paper's compromise for
                        // marking-set deadlock avoidance): re-check as the
                        // subtransaction's last action.
                        let marking = self.marking();
                        let ok = if marking == MarkingProtocol::None {
                            true
                        } else {
                            let gt = &self.txns[&g];
                            let site = self.sites[site_id.index()].as_ref().unwrap();
                            gt.tm.check(marking, site.marks()).is_ok()
                        };
                        if !ok {
                            self.report.counters.inc("r1.revalidation_failures");
                            let hist = &mut self.hist;
                            let site = self.sites[site_id.index()].as_mut().unwrap();
                            let woken = site.unilateral_abort(g, now, hist);
                            self.wake(now, site_id, woken);
                            self.invalidate_incompatible_subs(now, site_id);
                        }
                        let coord_site = self.txns[&g].coord_site;
                        self.send(
                            now,
                            site_id,
                            coord_site,
                            Msg::SubtxnAck {
                                txn: g,
                                from: site_id,
                                ok,
                            },
                        );
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
        let hist = &mut self.hist;
        let site = self.sites[site_id.index()].as_mut().unwrap();
        match exec {
            ExecId::Local(_) => {
                let woken = site.abort_exec(exec, now, hist);
                self.report.local_aborted += 1;
                self.wake(now, site_id, woken);
            }
            ExecId::Sub(g) => {
                let woken = site.unilateral_abort(g, now, hist);
                self.wake(now, site_id, woken);
                let coord_site = self.txns[&g].coord_site;
                let nack = Msg::SubtxnAck {
                    txn: g,
                    from: site_id,
                    ok: false,
                };
                self.send(now, site_id, coord_site, nack);
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

    pub(crate) fn fire_udum(&mut self, ti: GlobalTxnId) {
        self.report.counters.inc("udum.fired");
        for s in self.sites.iter_mut().flatten() {
            s.unmark(ti);
        }
        self.udum.forget(ti);
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
        let marking = self.marking();
        if marking == MarkingProtocol::None {
            return;
        }
        let running = self.sites[site_id.index()].as_ref().unwrap().running_subs();
        for g in running {
            let Some(gt) = self.txns.get(&g) else {
                continue;
            };
            if gt.done || gt.coord.decision().is_some() {
                continue;
            }
            let ok = {
                let site = self.sites[site_id.index()].as_ref().unwrap();
                gt.tm.check(marking, site.marks()).is_ok()
            };
            if !ok {
                self.report.counters.inc("r1.mark_invalidations");
                self.abort_execution(now, site_id, ExecId::Sub(g));
            }
        }
    }

    fn start_compensation(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let plan = &self.pending_comp[&(txn, site_id)];
        let site = self.sites[site_id.index()].as_mut().unwrap();
        site.begin_compensation(txn, plan, now, &mut self.hist);
        if plan.is_empty() {
            self.complete_compensation(now, txn, site_id);
        } else {
            let service = self.cfg.op_service_time;
            self.rt.schedule(
                now + service,
                TimerEvent::OpDone {
                    site: site_id,
                    exec: ExecId::CompSub(txn),
                },
            );
        }
    }

    /// `CT_ij` has run its last operation: commit it, which sets the undone
    /// mark (rule R2), and strike it from `pending_comp`.
    fn complete_compensation(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        let site = self.sites[site_id.index()].as_mut().unwrap();
        let woken = site.finish_compensation(txn, now, &mut self.hist);
        self.wake(now, site_id, woken);
        self.pending_comp.remove(&(txn, site_id));
        self.report.compensations_completed += 1;
        // R2 set the undone marking: future accesses count toward UDUM1, and
        // running subtransactions admitted under the old marks must be
        // re-checked.
        self.invalidate_incompatible_subs(now, site_id);
        self.try_gc(txn);
    }

    pub(crate) fn resume_compensation(&mut self, now: SimTime, txn: GlobalTxnId, site_id: SiteId) {
        if !self.site_up(site_id) || !self.pending_comp.contains_key(&(txn, site_id)) {
            return;
        }
        self.start_compensation(now, txn, site_id);
    }
}

//! The run loop: pull [`Step`]s from the runtime and dispatch them.

use super::{Engine, TimerEvent};
use crate::msg::Msg;
use crate::report::RunReport;
use o2pc_common::{Duration, SimTime};
use o2pc_runtime::{Runtime, Step};

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    /// Run until the runtime yields no step at or before `horizon` (queue
    /// drained / quiescent / past the deadline) or the event cap trips.
    /// Returns the collected report. May be called again to continue.
    pub fn run(&mut self, horizon: Duration) -> RunReport {
        if !self.checkpointed {
            for s in self.sites.iter_mut().flatten() {
                s.checkpoint();
            }
            // Durable mode: make the base image durable before any traffic,
            // so a kill at any later point recovers the loaded accounts.
            self.sync_all_wals(SimTime::ZERO);
            self.checkpointed = true;
        }
        let deadline = SimTime::ZERO + horizon;
        let durable = self.cfg.durable_wal_dir.is_some();
        let mut events = 0u64;
        let mut last_now = SimTime::ZERO;
        while events < self.cfg.max_events {
            self.seal_behind_backlog();
            let Some((now, step)) = self.rt.next(deadline) else {
                break;
            };
            events += 1;
            last_now = now;
            self.step(now, step);
            self.checkpoint_due_sites();
            if durable {
                // Any step may have appended to a WAL; unsealed bytes must
                // always have a flush timer pending, else parked promises
                // (and the records themselves) would wait forever.
                for i in 0..self.cfg.num_sites {
                    self.arm_wal_flush(now, o2pc_common::SiteId(i));
                }
            }
        }
        // End of run: whatever is still buffered becomes durable now, so the
        // on-disk logs are complete for post-run inspection and kill tests.
        self.sync_all_wals(last_now);
        self.report.events_processed += events;
        self.finalize()
    }

    /// The log's one choke point: after every step, each site whose log
    /// has outgrown its last checkpoint writes a new one and drops the
    /// records behind it. Running here, between steps, keeps seeded runs a
    /// function of their seed, and keeps each site's log as large as the
    /// work since its last checkpoint, not the run.
    fn checkpoint_due_sites(&mut self) {
        for s in self.sites.iter_mut().flatten() {
            if s.checkpoint_due() {
                s.checkpoint();
            }
        }
    }

    fn step(&mut self, now: SimTime, step: Step<TimerEvent, Msg>) {
        match step {
            Step::Timer(ev) => self.handle_timer(now, ev),
            Step::Deliver { to, msg } => self.on_deliver(now, to, msg),
            Step::Durable { site, ticket, ok } => self.on_wal_durable(now, site, ticket, ok),
        }
    }

    fn handle_timer(&mut self, now: SimTime, ev: TimerEvent) {
        match ev {
            TimerEvent::Arrive { run } => self.on_arrive(now, run),
            TimerEvent::OpDone { site, exec } => self.on_op_done(now, site, exec),
            TimerEvent::R1Retry { txn, site } => self.try_spawn(now, txn, site),
            TimerEvent::CompRetry { txn, site } => self.resume_compensation(now, txn, site),
            TimerEvent::VoteTimeout { txn } => self.on_vote_timeout(now, txn),
            TimerEvent::Retransmit { txn, attempt } => self.on_retransmit(now, txn, attempt),
            TimerEvent::TermTimeout { txn, site } => self.on_term_timeout(now, txn, site),
            TimerEvent::Crash { site } => self.on_crash(now, site),
            TimerEvent::Recover { site } => self.on_recover(now, site),
            TimerEvent::WalFlush { site, ticket } => self.on_flush_timer(now, site, ticket),
        }
    }
}

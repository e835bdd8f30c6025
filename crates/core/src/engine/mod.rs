//! The distributed engine, generic over its [`Runtime`] substrate.
//!
//! The engine wires sites, coordinators, marking, and compensation into one
//! event loop. Everything substrate-specific — where time comes from, how
//! messages travel, what order simultaneous steps arrive in — lives behind
//! `o2pc_runtime::Runtime`. The same protocol logic therefore runs on:
//!
//! * [`DefaultSimRuntime`] — the deterministic event-queue simulator (the
//!   default type parameter, so `Engine::new(cfg)` behaves as it always
//!   has: seeded, replayable bit-for-bit);
//! * `ThreadedRuntime` — real threads and wall-clock latency, where
//!   outcomes are schedule-dependent and verified by invariant.
//!
//! Module layout:
//!
//! * [`mod@self`] — the `Engine` type, its constructors, and shared helpers
//!   (messaging, group commit);
//! * `slot` — one record per site: its up/down state, what dies with it,
//!   and what outlives its crashes;
//! * `driver` — the run loop pulling [`Step`](o2pc_runtime::Step)s from the runtime;
//! * `coordinator_rt` — transaction arrival and the coordinator side of
//!   2PC/O2PC (vote collection, decisions, crash recovery);
//! * `site_rt` — the participant side: admission (rule R1), operation
//!   execution, unilateral aborts, compensation, cooperative termination;
//! * `deadlock` — local and lifted (cross-site) waits-for cycle resolution;
//! * `metrics` — folding engine state into the final [`RunReport`].

mod coordinator_rt;
mod deadlock;
mod driver;
mod metrics;
mod recorder;
mod site_rt;
mod slot;

use crate::config::{SystemConfig, TxnRequest};
use crate::msg::Msg;
use crate::report::RunReport;
use o2pc_common::{
    DetRng, ExecId, FastHashMap, GlobalTxnId, GlobalTxnIdGen, Key, Program, SimTime, SiteId, Value,
};
use o2pc_marking::{MarkingProtocol, TransMarks, UdumTracker};
use o2pc_protocol::{CoordState, TwoPhaseCoordinator};
use o2pc_runtime::{Runtime, SimRuntime};
use o2pc_sim::Network;
use o2pc_site::{LockPolicy, Site, SiteConfig};
use o2pc_storage::{FlushBatch, Wal};
use recorder::Recorder;
use slot::{Parked, SiteSlot, SiteState};
use std::sync::Arc;

/// Engine timers: everything the engine schedules against its own clock.
/// Message deliveries are *not* timers — they arrive through the runtime's
/// transport as [`o2pc_runtime::Step::Deliver`] steps.
#[derive(Clone, Debug)]
pub enum TimerEvent {
    /// The next arrival of a run [`Engine::submit`] made arrives.
    Arrive {
        /// The run's index.
        run: usize,
    },
    /// An executing (sub)transaction finishes its current operation.
    OpDone {
        /// Site where the execution runs.
        site: SiteId,
        /// The execution.
        exec: ExecId,
    },
    /// Re-attempt an R1-rejected subtransaction admission.
    R1Retry {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Site to admit at.
        site: SiteId,
    },
    /// Re-attempt a rolled-back compensating subtransaction.
    CompRetry {
        /// Global transaction being compensated.
        txn: GlobalTxnId,
        /// Site being compensated.
        site: SiteId,
    },
    /// Coordinator progress timeout (missing acks or votes).
    VoteTimeout {
        /// Global transaction.
        txn: GlobalTxnId,
    },
    /// Coordinator retransmission check: resend unacked VOTE-REQ/DECISION
    /// with capped exponential backoff (armed only when
    /// `SystemConfig::retransmit_base` is set).
    Retransmit {
        /// Global transaction.
        txn: GlobalTxnId,
        /// Backoff attempt number (0 = first resend check).
        attempt: u32,
    },
    /// A prepared participant has waited too long for the decision.
    TermTimeout {
        /// Global transaction.
        txn: GlobalTxnId,
        /// The in-doubt participant.
        site: SiteId,
    },
    /// Scripted site crash.
    Crash {
        /// Crashing site.
        site: SiteId,
    },
    /// Scripted site recovery.
    Recover {
        /// Recovering site.
        site: SiteId,
    },
    /// Group-commit flush point for a site's durable WAL: everything
    /// appended since the last flush is sealed into one batch for the
    /// runtime's disk, whose completion releases the messages parked on it.
    /// Armed only in durable mode, and only while the site's WAL holds
    /// unsealed bytes.
    WalFlush {
        /// Site whose WAL flushes.
        site: SiteId,
        /// The site's append ticket when the timer was armed, which names
        /// the timer. Once a flush point got there first — the byte trigger
        /// or an early seal — the timer is stale and fires as a no-op: what
        /// is pending then is younger and has a timer of its own.
        ticket: u64,
    },
}

/// Book-keeping for one global transaction.
pub(crate) struct GTxn {
    pub(crate) coord_site: SiteId,
    pub(crate) coord: TwoPhaseCoordinator,
    /// The participants in submission order, each with its program: the
    /// request's shared slice, which an R1 retry begins from.
    pub(crate) subs: Arc<[(SiteId, Program)]>,
    /// Rule R1's state, under a marking protocol only.
    pub(crate) r1: Option<R1>,
    pub(crate) start: SimTime,
    /// Sites where the subtransaction actually began executing, as a
    /// bitmask over the positions of `subs`. Only these can ever carry an
    /// *undone* marking for this transaction, so only these count as UDUM1
    /// execution sites — registering all participants would leave markings
    /// that can never be cleared (an R1-rejected site never executes, never
    /// marks, never fences).
    pub(crate) began: u64,
    /// A retransmission timer chain is live for this transaction (at most
    /// one chain per transaction; re-armed from the chain itself).
    pub(crate) retx_armed: bool,
}

impl GTxn {
    /// Every decision ack is in: the coordinator's protocol is complete.
    pub(crate) fn done(&self) -> bool {
        matches!(self.coord.state(), CoordState::Done(_))
    }

    /// The position of `site` among the participants.
    pub(crate) fn pos(&self, site: SiteId) -> Option<usize> {
        self.subs.iter().position(|&(s, _)| s == site)
    }
}

/// What a marking protocol keeps beside the sites' marks: the rule R1
/// checks, and UDUM1's bookkeeping. Only a marking protocol builds one.
pub(crate) struct Marking {
    pub(crate) protocol: MarkingProtocol,
    pub(crate) udum: UdumTracker,
}

/// One global transaction's rule R1 state under a marking protocol.
#[derive(Default)]
pub(crate) struct R1 {
    /// The marks seen at the sites it was admitted at (`transmarks.j`).
    pub(crate) tm: TransMarks,
    /// Refused admissions so far, per site.
    pub(crate) retries: FastHashMap<SiteId, u32>,
}

/// A global arrival parked at its coordinator's admission gate: the client's
/// scheduled submit time (latency is measured from here, so admission
/// queueing stays visible) plus the per-site programs.
pub(crate) struct PendingAdmission {
    pub(crate) scheduled: SimTime,
    pub(crate) subs: Arc<[(SiteId, Program)]>,
}

/// A time-sorted run of submitted arrivals, of which only the next is a
/// timer, armed under the sequence number reserved for it at submission.
pub(crate) struct ArrivalRun {
    /// Arrivals still to come, latest first. Latency counts from each one's
    /// submit time, so a wall-clock timer firing late under load shows up.
    rest: Vec<(SimTime, TxnRequest)>,
    /// The armed arrival's sequence number.
    seq: u64,
}

/// The runtime `Engine::new` builds: the deterministic simulator.
pub type DefaultSimRuntime = SimRuntime<TimerEvent, Msg>;

/// The engine: sites + coordinators + a message substrate on one clock.
///
/// Generic over the [`Runtime`]; defaults to the deterministic simulator so
/// `Engine::new(cfg)` needs no type annotations and replays from its seed.
pub struct Engine<R: Runtime<TimerEvent, Msg> = DefaultSimRuntime> {
    pub(crate) cfg: SystemConfig,
    /// Every site's state, indexed by `SiteId`.
    pub(crate) slots: Vec<SiteSlot>,
    pub(crate) rt: R,
    pub(crate) rng: DetRng,
    pub(crate) idgen: GlobalTxnIdGen,
    pub(crate) txns: FastHashMap<GlobalTxnId, GTxn>,
    /// Submitted arrivals, by run; a run's slot is free once it is empty.
    pub(crate) runs: Vec<ArrivalRun>,
    /// Present under a marking protocol only.
    pub(crate) marking: Option<Marking>,
    pub(crate) hist: Recorder,
    pub(crate) report: RunReport,
    pub(crate) checkpointed: bool,
    /// Configuration footguns detected at assembly (see
    /// [`SystemConfig::liveness_warnings`]).
    pub(crate) warnings: Vec<String>,
    /// Buffers of the deadlock walks a blocked lock request runs.
    pub(crate) walks: Box<deadlock::BlockedWalks>,
}

impl Engine {
    /// Build an engine on the deterministic simulator from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        let mut root = DetRng::new(cfg.seed);
        let net_rng = root.fork(0x6e65);
        let network =
            Network::new(cfg.network.clone(), net_rng).with_failures(cfg.failures.clone());
        Self::assemble(cfg, SimRuntime::new(network), root)
    }
}

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    /// Build an engine on an explicit runtime (e.g. a `ThreadedRuntime`).
    ///
    /// The engine's own RNG stream (vote-abort sampling) is derived exactly
    /// as in [`Engine::new`] — including the discarded network fork — so a
    /// given seed drives the same autonomy decisions on every substrate.
    pub fn with_runtime(cfg: SystemConfig, rt: R) -> Self {
        let mut root = DetRng::new(cfg.seed);
        let _net_rng = root.fork(0x6e65);
        Self::assemble(cfg, rt, root)
    }

    fn assemble(cfg: SystemConfig, mut rt: R, rng: DetRng) -> Self {
        let hist = Recorder::new(cfg.record_history, cfg.live_audit_graph);
        for id in cfg.sites() {
            rt.register_endpoint(id);
        }
        let marking = cfg.protocol.marking().map(|protocol| Marking {
            protocol,
            udum: UdumTracker::new(),
        });
        let site_cfg = SiteConfig {
            compensation_model: cfg.compensation_model,
            marks: marking.is_some(),
        };
        let mut report = RunReport::default();
        let slots = cfg
            .sites()
            .map(|id| match Self::make_wal(&cfg, id) {
                Ok(wal) => SiteState::up(Site::with_wal(id, site_cfg, wal)),
                // A log that cannot open ends the site the way a crash that
                // cannot reopen its log does: nothing to run or recover.
                Err(_) => {
                    report.counters.inc("wal.reopen_failures");
                    SiteState::Lost
                }
            })
            .map(|state| SiteSlot {
                state,
                ..SiteSlot::default()
            })
            .collect();
        for (site, from, to) in cfg.failures.crashes() {
            rt.schedule(from, TimerEvent::Crash { site });
            rt.schedule(to, TimerEvent::Recover { site });
        }
        let warnings = cfg.liveness_warnings();
        #[cfg(debug_assertions)]
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        Engine {
            cfg,
            slots,
            rt,
            rng,
            idgen: GlobalTxnIdGen::new(),
            txns: FastHashMap::default(),
            runs: Vec::new(),
            marking,
            hist,
            report,
            checkpointed: false,
            warnings,
            walks: Box::default(),
        }
    }

    /// Build one site's WAL per the configuration: on disk when a WAL
    /// directory is set (reopening an existing file — recovery across
    /// *process* restarts — is exactly the open path), in-memory otherwise.
    /// Fails when the directory cannot be created or the log not opened.
    fn make_wal(cfg: &SystemConfig, id: SiteId) -> std::io::Result<Wal> {
        match &cfg.durable_wal_dir {
            None => Ok(Wal::new()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("site-{}.wal", id.0));
                Wal::open_with_segment_bytes(&path, cfg.wal_segment_bytes)
            }
        }
    }

    /// Warnings about liveness footguns in the active configuration,
    /// computed once at assembly (see [`SystemConfig::liveness_warnings`]).
    pub fn config_warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Pre-load a data item at a site.
    pub fn load(&mut self, site: SiteId, key: Key, value: Value) {
        self.site_mut(site).load(key, value);
    }

    /// Submit a transaction for arrival at `at`. Each call is a run of its
    /// own, queued in the runtime beside the timers in flight; a backlog
    /// submitted this way costs a queue entry and a run slot per arrival,
    /// so pass a batch to [`submit`](Self::submit) instead.
    pub fn submit_at(&mut self, at: SimTime, req: TxnRequest) {
        self.submit(&[(at, req)]);
    }

    /// Submit `arrivals` to fire as one `submit_at` each, in slice order,
    /// would. Each time-sorted stretch is copied once into a run (requests
    /// share their programs) whose next arrival alone is queued.
    pub fn submit(&mut self, arrivals: &[(SimTime, TxnRequest)]) {
        for stretch in arrivals.chunk_by(|a, b| a.0 <= b.0) {
            let seq = self.rt.reserve(stretch.len() as u64);
            while self.runs.last().is_some_and(|r| r.rest.is_empty()) {
                self.runs.pop();
            }
            let run = self.runs.len();
            self.rt
                .schedule_reserved(stretch[0].0, seq, TimerEvent::Arrive { run });
            let rest = stretch.iter().rev().cloned().collect();
            self.runs.push(ArrivalRun { rest, seq });
        }
    }

    /// Read an item's current value (tests / invariants).
    pub fn value(&self, site: SiteId, key: Key) -> Option<Value> {
        self.slots[site.index()].state.site()?.get(key)
    }

    /// The runtime the engine runs on.
    pub fn runtime(&self) -> &R {
        &self.rt
    }

    // ----- oracle probes ---------------------------------------------------
    //
    // Read-only views of engine state for post-run invariant checking (the
    // chaos oracle): these expose *whether* the run quiesced cleanly, never
    // protocol internals.

    /// Global transactions still tracked (completed ones are garbage
    /// collected once decided, acked, and unmarked everywhere).
    pub fn live_txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Submitted arrivals held back behind their run's queued one.
    pub fn pending_arrivals(&self) -> usize {
        self.runs.iter().map(|r| r.rest.len().max(1) - 1).sum()
    }

    /// Arrivals still parked at an admission gate (a clean quiescent run
    /// admits and decides everything it was offered).
    pub fn queued_admissions(&self) -> usize {
        self.slots.iter().map(|s| s.admit_q.len()).sum()
    }

    /// Transactions whose coordinator never reached `Complete`.
    pub fn unfinished_txns(&self) -> Vec<GlobalTxnId> {
        let mut v: Vec<GlobalTxnId> = self
            .txns
            .iter()
            .filter(|(_, g)| !g.done())
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Participants still in doubt: prepared under hold-writes, or locally
    /// committed under O2PC without a known decision.
    pub fn in_doubt_participants(&self) -> Vec<(GlobalTxnId, SiteId)> {
        let mut v = Vec::new();
        for s in self.live_sites() {
            for txn in s.prepared_subs() {
                v.push((txn, s.id()));
            }
            for txn in s.pending_local_commits() {
                v.push((txn, s.id()));
            }
        }
        v.sort_unstable();
        v
    }

    /// Sites currently crashed.
    pub fn down_sites(&self) -> Vec<SiteId> {
        self.cfg.sites().filter(|s| !self.site_up(*s)).collect()
    }

    /// Up sites whose WAL no longer replays to their live store — a crash
    /// right now would lose or invent data.
    ///
    /// This is a quiescence/oracle-time probe: each site replays its full
    /// WAL to answer. Nothing on the timer/message path calls it, and
    /// nothing should — run it once per run after the engine drains.
    pub fn wal_divergent_sites(&self) -> Vec<SiteId> {
        self.live_sites()
            .filter(|s| !s.wal_matches_store())
            .map(|s| s.id())
            .collect()
    }

    /// One site's raw WAL records (diagnostics: tracing chaos
    /// counterexamples back to the log).
    pub fn wal_records(&self, site: SiteId) -> Option<&[o2pc_storage::LogRecord]> {
        Some(self.slots[site.index()].state.site()?.wal().records())
    }

    /// The site's durable-WAL I/O counters (`None` if the site is down or
    /// logging in memory). The counters are shared with the flush pipeline,
    /// so they reflect background fsyncs too.
    pub fn wal_stats(&self, site: SiteId) -> Option<std::sync::Arc<o2pc_storage::WalStats>> {
        self.slots[site.index()].state.site()?.wal().stats()
    }

    /// Sum of every live site's item values (conservation checks).
    pub fn total_value(&self) -> i64 {
        self.live_sites().map(|s| s.total()).sum()
    }

    /// Snapshot of the incrementally-maintained exposed serialization
    /// graphs, when `SystemConfig::live_audit_graph` is on. The chaos
    /// oracle audits this instead of replaying the recorded history.
    pub fn live_audit_graph(&self) -> Option<o2pc_sgraph::GlobalSg> {
        self.hist.live_sg.as_ref().map(|sg| sg.snapshot())
    }

    pub(crate) fn site_mut(&mut self, site: SiteId) -> &mut Site {
        let up = self.slots[site.index()].state.site_mut();
        up.unwrap_or_else(|| panic!("{site} is crashed"))
    }

    pub(crate) fn site_up(&self, site: SiteId) -> bool {
        self.slots[site.index()].state.live().is_some()
    }

    /// The sites that are up.
    pub(crate) fn live_sites(&self) -> impl Iterator<Item = &Site> {
        self.slots.iter().filter_map(|s| s.state.site())
    }

    pub(crate) fn lock_policy_at(&self, site: SiteId) -> LockPolicy {
        if self.cfg.real_action_sites.contains(&site) {
            LockPolicy::HoldWrites
        } else {
            self.cfg.protocol.lock_policy()
        }
    }

    // ----- messaging -------------------------------------------------------

    pub(crate) fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: Msg) {
        let kind = msg.kind();
        self.report.counters.inc(kind.sent);
        // Account send-time losses per message type *and* per cause, so E6
        // and the chaos oracle can reconcile message conservation: policy
        // drops (injected link loss) must sum to the network's own dropped
        // counter, while unroutable refusals (crashed endpoint, shutdown —
        // threaded transport only) are a different ledger entirely.
        match self.rt.send(now, from, to, msg) {
            o2pc_runtime::SendOutcome::Sent => {}
            o2pc_runtime::SendOutcome::DroppedByPolicy => self.report.counters.inc(kind.dropped),
            o2pc_runtime::SendOutcome::NoRoute => self.report.counters.inc(kind.unroutable),
        }
    }

    /// Send a message whose content *promises* durability of records `from`
    /// has logged — a yes-vote (the local commit / prepare record), a
    /// decision ack (the `Outcome` record), a fate-bearing termination
    /// answer. In durable mode such a message is parked until a flush
    /// completion reports the sender's WAL fsynced through its current
    /// append ticket. On an in-memory log (and for messages that promise
    /// nothing — a no-vote, a SPAWN) this is just [`Engine::send`]: the WAL
    /// reports clean and nothing parks.
    ///
    /// The write-before-promise ordering this enforces is the only explicit
    /// barrier the protocol needs. Everything else is covered by prefix
    /// durability: the log is written and fsynced strictly in order, so a
    /// durable record implies every earlier record is durable too, and
    /// strict 2PL guarantees no later writer's record precedes the commit
    /// record it depends on.
    pub(crate) fn send_gated(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: Msg) {
        let live = self.slots[from.index()].state.live_mut();
        let Some(live) = live.filter(|l| l.site.wal().append_ticket() > l.covered) else {
            // WAL already covered by a completion (always true in memory)
            // or site down: nothing to hold the message for.
            self.send(now, from, to, msg);
            return;
        };
        let ticket = live.site.wal().append_ticket();
        live.parked.push(Parked {
            ticket,
            since: now,
            to,
            msg,
        });
        self.report.counters.inc("wal.parked_msgs");
        self.arm_wal_flush(now, from);
    }

    /// Arm the group-commit flush timer for a site with unsealed WAL bytes
    /// (at most one live timer per site), or flush immediately if the
    /// pending bytes already exceed the adaptive group-commit threshold —
    /// interval or bytes, whichever trips first. Sealed bytes need no timer:
    /// their batch is on the runtime's disk, and its completion releases
    /// what waits on them.
    pub(crate) fn arm_wal_flush(&mut self, now: SimTime, site: SiteId) {
        let Some(live) = self.slots[site.index()].state.live_mut() else {
            return;
        };
        let pending = live.site.wal().pending_bytes();
        if pending == 0 {
            return;
        }
        if pending >= self.cfg.wal_flush_bytes {
            self.on_wal_flush(now, site);
            return;
        }
        if live.flush_armed.is_none() {
            let ticket = live.site.wal().append_ticket();
            live.flush_armed = Some(ticket);
            self.rt.schedule(
                now + self.cfg.wal_flush_interval,
                TimerEvent::WalFlush { site, ticket },
            );
        }
    }

    /// A `WalFlush` timer fired: a flush point if it is the site's live
    /// timer. Staleness is read off `LiveSite::flush_armed`, not off the sealed
    /// watermark: a seal that leaves the site armed (the sync that ends a
    /// `run`, or follows a failed burst) leaves this timer to serve whatever
    /// is appended next, and dropping it would strand those bytes.
    pub(crate) fn on_flush_timer(&mut self, now: SimTime, site: SiteId, ticket: u64) {
        let live = self.slots[site.index()].state.live();
        if live.is_some_and(|l| l.flush_armed == Some(ticket)) {
            self.on_wal_flush(now, site);
        }
    }

    /// Work-conserving group commit. The flush interval buys a parked
    /// promise *company*: later appends that share its fsync. While arrivals
    /// queue at an admission gate and the loop is about to park, none can
    /// come — everything that could join the batch waits behind the very
    /// promises the batch holds — so the interval is dead time and every
    /// site with promises parked over unsealed bytes seals now, all of them
    /// in one hand-over to the runtime's disk; release still waits for the
    /// completions. A backlog behind a crashed coordinator cannot drain and
    /// does not count. The simulator never parks, so this fires on
    /// wall-clock runtimes only, and an in-memory log never parks a
    /// promise.
    pub(crate) fn seal_behind_backlog(&mut self) {
        if self.cfg.durable_wal_dir.is_none() {
            return;
        }
        let live = || self.slots.iter().filter_map(|s| Some((s, s.state.live()?)));
        let backlog = live().any(|(s, _)| !s.admit_q.is_empty());
        let armed = backlog && live().any(|(_, l)| l.flush_armed.is_some());
        if !armed || !self.rt.is_idle() {
            return;
        }
        let now = self.rt.now();
        let mut batches = Vec::new();
        for i in 0..self.slots.len() {
            let Some(live) = self.slots[i].state.live() else {
                continue;
            };
            let sealed = live.site.wal().sealed_ticket();
            if live.parked.last().is_some_and(|p| p.ticket > sealed) {
                self.report.counters.inc("wal.early_seals");
                batches.extend(self.seal_for_flush(now, SiteId(i as u32)));
            }
        }
        if !batches.is_empty() {
            self.rt.flush(batches);
        }
    }

    /// Group-commit flush point: seal everything the site appended since
    /// the last flush into one batch and hand it to the runtime's disk. One
    /// batch — and, after coalescing, one fsync — covers every transaction
    /// that logged in the window: that batching *is* group commit. A dead
    /// log seals too, and its batch's failed completion reports it.
    pub(crate) fn on_wal_flush(&mut self, now: SimTime, site: SiteId) {
        if let Some(batch) = self.seal_for_flush(now, site) {
            self.rt.flush(vec![batch]);
        }
    }

    /// A flush point's seal of one site: its batch for the runtime's disk,
    /// if it had anything to seal. Disarms the site's live timer and
    /// records the seal wait of the promises the batch covers.
    fn seal_for_flush(&mut self, now: SimTime, site: SiteId) -> Option<(SiteId, FlushBatch)> {
        let live = self.slots[site.index()].state.live_mut()?;
        live.flush_armed = None;
        let unsealed_from = live.site.wal().sealed_ticket();
        let batch = live.site.wal_seal_batch()?;
        self.report.counters.inc("wal.flushes");
        let newly_sealed = live
            .parked
            .iter_mut()
            .rev()
            .take_while(|p| p.ticket > unsealed_from);
        for p in newly_sealed {
            self.report
                .wal_seal_wait
                .record(now.since(p.since).as_micros());
            p.since = now;
        }
        Some((site, batch))
    }

    /// A flush completion: `site`'s log is fsynced through `ticket`, so the
    /// promises parked at or below it go out — or the flush failed, and the
    /// site crashes. A completion can outlive the log it was sealed from
    /// (the site crashed, and perhaps recovered, while it was in flight). It
    /// then releases nothing: the crash dropped that log's promises, and a
    /// reopened log parks only bytes appended past its reopened end, which
    /// lies at or past every ticket the old log sealed. Nor does it crash
    /// anything: the reopened log's watermark is not the poisoned one.
    pub(crate) fn on_wal_durable(&mut self, now: SimTime, site: SiteId, ticket: u64, ok: bool) {
        let Some(live) = self.slots[site.index()].state.live_mut() else {
            return;
        };
        if ok {
            live.covered = live.covered.max(ticket);
            self.release_parked(now, site);
        } else if live.site.wal().is_dead() {
            // The log device failed (a write, fsync, rotation or handle
            // failure): it can no longer make durable promises. Treat it
            // exactly like a crash — volatile state gone, disk state cut at
            // the durable watermark.
            self.report.counters.inc("wal.fault_crashes");
            self.on_crash(now, site);
        }
    }

    /// Send the parked messages a completion now covers.
    fn release_parked(&mut self, now: SimTime, site: SiteId) {
        let Some(live) = self.slots[site.index()].state.live_mut() else {
            return;
        };
        let ready = live.parked.partition_point(|p| p.ticket <= live.covered);
        if ready == 0 {
            return;
        }
        // `send` needs the whole engine: take the queue out while its ready
        // prefix goes, then put the rest (and its capacity) back.
        let mut queue = std::mem::take(&mut live.parked);
        for p in queue.drain(..ready) {
            self.report
                .wal_fsync_wait
                .record(now.since(p.since).as_micros());
            self.send(now, site, p.to, p.msg);
        }
        if let Some(live) = self.slots[site.index()].state.live_mut() {
            live.parked = queue;
        }
    }

    /// Make every live site's WAL fully durable (start and end of a run)
    /// and release whatever that unparks. Inline, and reported by the
    /// sync's own result: the run is over, latency no longer matters,
    /// completeness does. Completions not yet reported cover nothing new.
    pub(crate) fn sync_all_wals(&mut self, now: SimTime) {
        if self.cfg.durable_wal_dir.is_none() {
            return;
        }
        for i in 0..self.slots.len() {
            let Some(live) = self.slots[i].state.live_mut() else {
                continue;
            };
            if live.site.wal_sync().is_ok() {
                live.covered = live.site.wal().append_ticket();
                self.release_parked(now, SiteId(i as u32));
            }
        }
    }

    /// Start (or refresh) the termination-timer chain for an in-doubt
    /// participant. At most one chain per `(txn, site)` is live: the chain
    /// re-arms itself from `on_term_timeout`, so arming is idempotent and a
    /// lost answer can never strand the participant.
    pub(crate) fn arm_term_timer(&mut self, now: SimTime, txn: GlobalTxnId, site: SiteId) {
        let Some(t) = self.cfg.termination_timeout else {
            return;
        };
        if self.slots[site.index()].term_armed.insert(txn) {
            self.rt
                .schedule(now + t, TimerEvent::TermTimeout { txn, site });
        }
    }

    /// Start the retransmission backoff chain for a transaction's
    /// coordinator, if retransmission is enabled and no chain is live.
    pub(crate) fn arm_retransmit(&mut self, now: SimTime, txn: GlobalTxnId) {
        let Some(base) = self.cfg.retransmit_base else {
            return;
        };
        let Some(g) = self.txns.get_mut(&txn) else {
            return;
        };
        if g.done() || g.retx_armed {
            return;
        }
        g.retx_armed = true;
        self.rt
            .schedule(now + base, TimerEvent::Retransmit { txn, attempt: 0 });
    }

    /// `exec` runs its next operation at `site` one service time from now.
    pub(crate) fn next_op(&mut self, now: SimTime, site: SiteId, exec: ExecId) {
        let at = now + self.cfg.op_service_time;
        self.rt.schedule(at, TimerEvent::OpDone { site, exec });
    }

    pub(crate) fn wake(&mut self, now: SimTime, site: SiteId, woken: Vec<ExecId>) {
        for exec in woken {
            self.rt.schedule(now, TimerEvent::OpDone { site, exec });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{Duration, Op, ScratchDir};
    use o2pc_protocol::ProtocolKind;
    use o2pc_runtime::{Clock, Step, ThreadedRuntime};

    /// A simulated engine on on-disk logs under `dir`, its base image durable.
    fn durable_sim(dir: &ScratchDir, sites: u32) -> Engine {
        let mut cfg = SystemConfig::new(sites, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        let mut e = Engine::new(cfg);
        e.run(Duration::ZERO);
        e
    }

    /// A flush timer whose bytes the byte trigger already sealed is a no-op:
    /// the younger bytes pending when it fires wait for their own timer, which
    /// stays the site's one live timer, and only real flush points are counted.
    #[test]
    fn stale_flush_timer_leaves_younger_bytes_to_their_own_timer() {
        let dir = ScratchDir::new("stale-flush");
        let mut cfg = SystemConfig::new(1, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        let mut e = Engine::new(cfg);
        let s0 = SiteId(0);
        let at = |us| SimTime::ZERO + Duration::micros(us);
        let append = |e: &mut Engine| {
            e.site_mut(s0).checkpoint();
            e.site_mut(s0).wal().append_ticket()
        };
        let pending = |e: &Engine| e.slots[0].state.site().unwrap().wal().pending_bytes();
        let armed = |e: &Engine| e.slots[0].state.live().unwrap().flush_armed;
        let flushes = |e: &Engine| e.report.counters.get("wal.flushes");

        let older = append(&mut e);
        e.arm_wal_flush(at(0), s0);
        // The byte trigger gets to the older bytes before their timer does.
        let threshold = std::mem::replace(&mut e.cfg.wal_flush_bytes, 1);
        e.arm_wal_flush(at(100), s0);
        e.cfg.wal_flush_bytes = threshold;
        assert_eq!((pending(&e), flushes(&e)), (0, 1));
        let younger = append(&mut e);
        e.arm_wal_flush(at(500), s0);

        e.on_flush_timer(at(1_000), s0, older);
        assert!(pending(&e) > 0, "the stale timer sealed younger bytes");
        assert_eq!(armed(&e), Some(younger), "the younger timer is still live");
        assert_eq!(flushes(&e), 1);
        e.on_flush_timer(at(1_500), s0, younger);
        assert_eq!((pending(&e), flushes(&e)), (0, 2));
        assert_eq!(armed(&e), None);

        // The sync that ends a `run` seals under a timer and leaves the site
        // armed: that timer is still the live one for what comes next.
        let resumed = append(&mut e);
        e.arm_wal_flush(at(2_000), s0);
        e.sync_all_wals(at(2_100));
        assert_eq!(pending(&e), 0);
        append(&mut e);
        e.arm_wal_flush(at(2_200), s0);
        e.on_flush_timer(at(3_000), s0, resumed);
        assert_eq!((pending(&e), flushes(&e)), (0, 3));
        assert_eq!(armed(&e), None);
    }

    /// On the simulator a batch severed mid-frame fails when it is sealed,
    /// but the failure is reported with its completion: its site crashes at
    /// that instant, and no other site does. Recovered, the site's log holds
    /// exactly the durable prefix: the torn frame is gone.
    #[test]
    fn severed_batch_crashes_its_site_at_the_completion_instant() {
        let dir = ScratchDir::new("sim-sever");
        let mut e = durable_sim(&dir, 2);
        let s1 = SiteId(1);
        let durable = e.site_mut(s1).wal().records().to_vec();
        e.site_mut(s1).checkpoint();
        let torn_at = e.site_mut(s1).wal().sealed_ticket() + 7;
        let mut batch = e.site_mut(s1).wal_seal_batch().expect("pending bytes");
        batch.sever(torn_at).unwrap();
        e.rt.flush(vec![(s1, batch)]);
        let done = DefaultSimRuntime::FSYNC_LATENCY;
        e.run(Duration(done.0 - 1));
        assert!(e.down_sites().is_empty(), "crashed before the completion");
        let r = e.run(done);
        assert_eq!(e.runtime().now(), SimTime::ZERO + done);
        assert_eq!(e.down_sites(), vec![s1]);
        assert_eq!(r.counters.get("wal.fault_crashes"), 1);
        e.on_recover(e.rt.now(), s1);
        assert_eq!(e.site_mut(s1).wal().records(), &durable[..]);
    }

    /// A log whose next segment cannot be created while nothing is buffered
    /// is dead with bytes still owed: its flush point seals them, the
    /// batch's failed completion crashes the site, and the promise parked
    /// on them dies with it instead of waiting out the run.
    #[test]
    fn dead_log_with_nothing_pending_crashes_its_site() {
        let dir = ScratchDir::new("dead-rotation");
        let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        cfg.wal_segment_bytes = 512;
        let mut e = Engine::new(cfg);
        let (s0, s1) = (SiteId(0), SiteId(1));
        for k in 0..40 {
            e.load(s0, Key(k), Value(100));
        }
        // The base checkpoint fills its segment: the next append rotates.
        e.run(Duration::ZERO);
        let next = e.site_mut(s0).wal().append_ticket();
        let squatter = o2pc_storage::segment_path(&dir.join("site-0.wal"), next);
        std::fs::create_dir(&squatter).unwrap();
        e.site_mut(s0).checkpoint();
        std::fs::remove_dir(&squatter).unwrap();
        assert!(e.site_mut(s0).wal().is_dead());
        let ack = Msg::DecisionAck {
            txn: GlobalTxnId(1),
            from: s0,
        };
        e.send_gated(e.rt.now(), s0, s1, ack);
        let r = e.run(Duration::secs(10));
        assert_eq!(r.counters.get("wal.fault_crashes"), 1);
        assert_eq!(e.down_sites(), vec![s0]);
    }

    /// A crash whose log cannot be reopened — its directory was deleted
    /// under it — leaves the site down, with nothing to recover from,
    /// instead of panicking in the crash transform.
    #[test]
    fn crash_that_cannot_reopen_its_log_keeps_the_site_down() {
        let dir = ScratchDir::new("lost-wal-dir");
        let mut e = durable_sim(&dir, 2);
        let s0 = SiteId(0);
        std::fs::remove_dir_all(&*dir).unwrap();
        let now = e.rt.now();
        e.rt.schedule(now + Duration::millis(1), TimerEvent::Crash { site: s0 });
        e.rt.schedule(now + Duration::millis(2), TimerEvent::Recover { site: s0 });
        let r = e.run(Duration::millis(10));
        assert_eq!(r.counters.get("wal.reopen_failures"), 1);
        assert_eq!(e.down_sites(), vec![s0]);
    }

    /// A log that cannot open at assembly — the WAL directory is a regular
    /// file — starts its site lost instead of panicking, and a run with
    /// work submitted to the lost sites ends.
    #[test]
    fn a_log_that_cannot_open_starts_its_site_lost() {
        let dir = ScratchDir::new("wal-dir-is-a-file");
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"").unwrap();
        let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(file);
        let mut e = Engine::new(cfg);
        assert_eq!(e.down_sites(), vec![SiteId(0), SiteId(1)]);
        let (s0, s1, k) = (SiteId(0), SiteId(1), Key(0));
        let subs = vec![(s0, vec![Op::Add(k, -5)]), (s1, vec![Op::Add(k, 5)])];
        e.submit_at(SimTime::ZERO, TxnRequest::global(subs));
        e.submit_at(SimTime::ZERO, TxnRequest::local(s1, [Op::Read(k)]));
        let r = e.run(Duration::secs(1));
        assert_eq!(r.counters.get("wal.reopen_failures"), 2);
        assert_eq!(r.global_committed, 0);
    }

    /// A completion that outlives its log releases nothing: the crash that
    /// ended the log dropped its promise, and the reopened log's promise
    /// waits for a completion of its own. The batch itself was written at
    /// seal time, so the crash kept it, and a promise over the reopened
    /// bytes alone needs no completion at all.
    #[test]
    fn completion_outliving_its_log_releases_nothing() {
        let dir = ScratchDir::new("stale-completion");
        let mut e = durable_sim(&dir, 2);
        let (s0, s1) = (SiteId(0), SiteId(1));
        let ack = Msg::DecisionAck {
            txn: GlobalTxnId(1),
            from: s0,
        };
        let now = e.rt.now();
        e.site_mut(s0).checkpoint();
        let written = e.site_mut(s0).wal().append_ticket();
        e.send_gated(now, s0, s1, ack.clone());
        e.on_wal_flush(now, s0);
        e.on_crash(now, s0);
        e.on_recover(now, s0);
        assert_eq!(e.site_mut(s0).wal().append_ticket(), written, "batch kept");
        let acks = |e: &Engine| e.report.counters.get("msg.decision_ack");
        e.send_gated(now, s0, s1, ack.clone());
        assert_eq!(acks(&e), 1, "the reopened log is on disk already");
        e.site_mut(s0).checkpoint();
        e.send_gated(now, s0, s1, ack);

        let (at, step) = e.rt.next(SimTime(u64::MAX)).unwrap();
        let Step::Durable { site, ticket, ok } = step else {
            panic!("expected the old log's completion, got {step:?}");
        };
        assert_eq!((site, ticket, ok), (s0, written, true));
        e.on_wal_durable(at, site, ticket, ok);
        assert_eq!(acks(&e), 1);
        let parked = e.slots[0].state.live().unwrap().parked.len();
        assert_eq!(parked, 1, "the new promise still waits");

        e.on_wal_flush(at, s0);
        let (at, step) = e.rt.next(SimTime(u64::MAX)).unwrap();
        let Step::Durable { site, ticket, ok } = step else {
            panic!("expected the new log's completion, got {step:?}");
        };
        e.on_wal_durable(at, site, ticket, ok);
        assert_eq!(acks(&e), 2);
    }

    /// A durable crash whose lost tail crosses the newest checkpoint voids
    /// the compensations with records in that tail, and only those — what
    /// comparing positions voided when the log was never truncated. The live
    /// log's newest checkpoint is lost with the tail, so the surviving log
    /// starts at an older one and positions in the two logs name different
    /// records; LSNs do not.
    #[test]
    fn crash_voids_what_the_lost_tail_held_across_a_lost_checkpoint() {
        let dir = ScratchDir::new("lsn-void");
        let mut cfg = SystemConfig::new(1, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        let mut e = Engine::new(cfg);
        let (s0, k) = (SiteId(0), Key(1));
        e.load(s0, k, Value(100));
        e.run(Duration::ZERO);
        let mut now = SimTime::ZERO;
        let mut compensate = |e: &mut Engine, t: GlobalTxnId| {
            let site = e.slots[0].state.site_mut().unwrap();
            let mut at = || {
                now += Duration::micros(1);
                now
            };
            site.begin(
                ExecId::Sub(t),
                Program::from([Op::Add(k, 5)]),
                at(),
                &mut e.hist,
            );
            site.execute_next_op(ExecId::Sub(t), at(), &mut e.hist);
            site.vote(t, LockPolicy::ReleaseAll, false, at(), &mut e.hist);
            let plan = site
                .decide(t, false, at(), &mut e.hist)
                .compensation
                .unwrap();
            site.begin_compensation(t, &plan, at(), &mut e.hist);
            site.execute_next_op(ExecId::CompSub(t), at(), &mut e.hist);
            site.finish_compensation(t, at(), &mut e.hist);
        };
        let (kept, lost) = (GlobalTxnId(1), GlobalTxnId(2));
        compensate(&mut e, kept);
        e.sync_all_wals(SimTime::ZERO);
        compensate(&mut e, lost);
        e.site_mut(s0).checkpoint();
        assert_eq!(e.site_mut(s0).wal().len(), 1, "the live log starts at it");

        e.on_crash(SimTime(1_000), s0);
        let slot::SiteState::Down(crashed) = &e.slots[0].state else {
            panic!("{s0} is not down");
        };
        let survived = crashed.wal();
        assert!(
            matches!(&survived.records()[0], o2pc_storage::LogRecord::Checkpoint(cp) if cp.lsn == 0),
            "the crash fell back to the first checkpoint"
        );
        let voided: Vec<GlobalTxnId> = e
            .hist
            .history
            .as_ref()
            .unwrap()
            .events()
            .iter()
            .filter(|ev| ev.kind == o2pc_common::HistEventKind::RolledBack)
            .filter_map(|ev| match ev.txn {
                o2pc_common::TxnId::Compensation(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(voided, vec![lost]);
    }

    /// An I/O error on the threaded runtime's disk crashes the site whose
    /// log it hit instead of leaving its parked promises to wait out the
    /// run; recovery then brings the site back.
    #[test]
    fn failed_background_flush_crashes_that_site_only() {
        // Declared before the engine, so it is removed after the engine (and
        // its flush helpers) are gone — also when an assertion below fails,
        // which a trailing `remove_dir_all` never survived.
        let dir = ScratchDir::new("bgfail");
        let mut cfg = SystemConfig::new(2, ProtocolKind::O2pc);
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        cfg.vote_timeout = Some(Duration::millis(20));
        let mut e = Engine::with_runtime(cfg, ThreadedRuntime::default());
        let (s0, s1, k) = (SiteId(0), SiteId(1), Key(7));
        e.load(s0, k, Value(100));
        e.load(s1, k, Value(100));
        let transfer =
            TxnRequest::global(vec![(s0, vec![Op::Add(k, -5)]), (s1, vec![Op::Add(k, 5)])]);
        // The base image becomes durable as usual; then site 1's next
        // sealed batch reaches the pipeline with its file handles severed:
        // the write fails and the watermark is poisoned.
        e.run(Duration::ZERO);
        e.site_mut(s1).checkpoint();
        let mut batch = e.site_mut(s1).wal_seal_batch().expect("pending bytes");
        let ticket = batch.ticket();
        batch.sever(0).unwrap();
        e.rt.flush(vec![(s1, batch)]);
        e.submit_at(SimTime::ZERO, transfer.clone());
        e.rt.schedule(
            SimTime::ZERO + Duration::millis(100),
            TimerEvent::Recover { site: s1 },
        );
        e.submit_at(SimTime::ZERO + Duration::millis(150), transfer);
        let r = e.run(Duration::secs(30));
        assert_eq!(r.counters.get("wal.fault_crashes"), 1);
        assert_eq!(r.global_aborted, 1, "the transfer that met the dead site");
        assert_eq!(r.global_committed, 1, "the transfer after recovery");
        assert!(e.down_sites().is_empty());
        // A failed completion that outlived its log — the site has been
        // replaced by recovery since — finds a healthy WAL and crashes nothing.
        e.on_wal_durable(r.end_time, s1, ticket, false);
        assert!(e.down_sites().is_empty());
    }

    /// UDUM bookkeeping ends with its transactions: once every site of an
    /// aborted transaction has seen a later access, R3 unmarks it and the
    /// tracker forgets it, so a run with aborts ends tracking nothing. A
    /// protocol that marks nothing keeps no bookkeeping at all: with no
    /// fencing locals it checks no R1, fires no UDUM, and still retires
    /// every aborted transaction.
    #[test]
    fn udum_tracks_nothing_once_every_abort_is_fenced() {
        let run = |protocol, fenced: bool| {
            let mut cfg = SystemConfig::new(3, protocol);
            cfg.vote_abort_probability = 0.3;
            let mut e = Engine::new(cfg);
            let sites = [SiteId(0), SiteId(1), SiteId(2)];
            for (s, k) in sites
                .into_iter()
                .flat_map(|s| (0..8).map(move |k| (s, Key(k))))
            {
                e.load(s, k, Value(100));
            }
            for (i, k) in (0..30u64).map(|i| (i, Key(i % 8))) {
                let (a, b) = (sites[i as usize % 3], sites[(i as usize + 1) % 3]);
                let subs = [(a, [Op::Add(k, -1)]), (b, [Op::Add(k, 1)])];
                e.submit_at(SimTime(i * 500), TxnRequest::global(subs));
            }
            // A late local at every site fences whatever is still undone there.
            let late = SimTime::ZERO + Duration::secs(10);
            for s in sites.into_iter().filter(|_| fenced) {
                e.submit_at(late, TxnRequest::local(s, [Op::Read(Key(0))]));
            }
            let r = e.run(Duration::secs(60));
            assert!(r.global_aborted > 0, "{protocol}: nothing aborted");
            (e, r)
        };
        let (e, r) = run(ProtocolKind::O2pcP1, true);
        assert!(r.counters.get("udum.fired") > 0);
        assert_eq!(e.marking.as_ref().map(|m| m.udum.tracked()), Some(0));
        for protocol in [ProtocolKind::O2pc, ProtocolKind::D2pl2pc] {
            let (e, r) = run(protocol, false);
            assert!(e.marking.is_none(), "{protocol} built marking state");
            assert_eq!(e.live_txn_count(), 0, "{protocol} kept an aborted global");
            assert_eq!(r.counters.get("udum.fired"), 0, "{protocol}");
            assert_eq!(r.counters.get("r1.checks"), 0, "{protocol}");
        }
    }

    /// What a site counted before it crashed stays in the report: its lock
    /// holds and the compensation operations it skipped, although the site
    /// is still down when the report is made.
    #[test]
    fn crashed_site_keeps_its_counters_in_the_report() {
        let mut e = Engine::new(SystemConfig::new(1, ProtocolKind::O2pc));
        let (s0, t, k, now) = (SiteId(0), GlobalTxnId(1), Key(9), SimTime(1));
        let site = e.slots[0].state.site_mut().unwrap();
        let sub = Program::from([Op::Insert(k, Value(1))]);
        site.begin(ExecId::Sub(t), sub, now, &mut e.hist);
        site.execute_next_op(ExecId::Sub(t), now, &mut e.hist);
        site.vote(t, LockPolicy::ReleaseAll, false, now, &mut e.hist);
        // A local transaction deletes the item, so the compensation's
        // delete has nothing left to undo and is skipped.
        let l = ExecId::Local(site.next_local_id());
        site.begin(l, Program::from([Op::Delete(k)]), now, &mut e.hist);
        site.execute_next_op(l, now, &mut e.hist);
        site.commit_local(l, now, &mut e.hist);
        let plan = site.decide(t, false, now, &mut e.hist).compensation;
        site.begin_compensation(t, &plan.unwrap(), now, &mut e.hist);
        site.execute_next_op(ExecId::CompSub(t), now, &mut e.hist);
        site.finish_compensation(t, now, &mut e.hist);
        let holds = site.lock_stats().exclusive_hold.count();
        assert_eq!((holds, site.skipped_comp_ops), (3, 1));

        e.on_crash(now, s0);
        let r = e.finalize();
        assert_eq!(r.locks.exclusive_hold.count(), holds);
        assert_eq!(r.counters.get("comp.skipped_ops"), 1);
    }

    /// A local's start time leaves with the local: a deadlock victim's at its
    /// abort, and an in-flight local's with its site when the site crashes.
    #[test]
    fn aborted_locals_leave_no_start_times() {
        let mut e = Engine::new(SystemConfig::new(1, ProtocolKind::O2pc));
        let (s0, a, b) = (SiteId(0), Key(1), Key(2));
        e.load(s0, a, Value(100));
        e.load(s0, b, Value(100));
        // Two locals lock `a` and `b` in opposite orders: one is the victim.
        let (ab, ba) = (
            [Op::Add(a, 1), Op::Add(b, 1)],
            [Op::Add(b, 1), Op::Add(a, 1)],
        );
        e.submit_at(SimTime::ZERO, TxnRequest::local(s0, ab));
        e.submit_at(SimTime::ZERO, TxnRequest::local(s0, ba));
        let r = e.run(Duration::secs(1));
        assert_eq!((r.local_committed, r.local_aborted), (1, 1));
        let starts = |e: &Engine| e.slots[0].state.live().unwrap().local_starts.len();
        assert_eq!(starts(&e), 0, "the victim's start time stayed");

        let now = e.rt.now();
        e.submit_at(now, TxnRequest::local(s0, ab));
        e.run(Duration(now.0));
        assert_eq!(starts(&e), 1);
        e.on_crash(now, s0);
        e.on_recover(now, s0);
        assert_eq!(starts(&e), 0, "a start time outlived its site");
    }
}

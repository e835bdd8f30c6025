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
//!   (messaging, site access);
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

use crate::config::{SystemConfig, TxnRequest};
use crate::msg::Msg;
use crate::report::RunReport;
use o2pc_common::{
    DetRng, ExecId, FastHashMap, GlobalTxnId, GlobalTxnIdGen, Key, Program, SimTime, SiteId, Value,
};
use o2pc_compensation::CompensationPlan;
use o2pc_marking::{MarkingProtocol, TransMarks, UdumTracker};
use o2pc_protocol::{TerminationRound, TwoPhaseCoordinator};
use o2pc_runtime::{Runtime, SimRuntime};
use o2pc_sim::Network;
use o2pc_site::{LockPolicy, Site, SiteConfig};
use o2pc_storage::Wal;
use recorder::Recorder;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Engine timers: everything the engine schedules against its own clock.
/// Message deliveries are *not* timers — they arrive through the runtime's
/// transport as [`o2pc_runtime::Step::Deliver`] steps.
#[derive(Clone, Debug)]
pub enum TimerEvent {
    /// A workload transaction arrives.
    Arrive {
        /// The request.
        req: TxnRequest,
        /// When the client issued it. On the simulator the timer fires at
        /// exactly this instant; on a wall-clock runtime under load it may
        /// fire later, and measuring latency from `scheduled` keeps that
        /// queueing delay visible (open-loop honesty).
        scheduled: SimTime,
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
    pub(crate) tm: TransMarks,
    pub(crate) start: SimTime,
    pub(crate) spawn_retries: FastHashMap<SiteId, u32>,
    /// Sites where the subtransaction actually began executing, as a
    /// bitmask over the positions of `subs`. Only these can ever carry an
    /// *undone* marking for this transaction, so only these count as UDUM1
    /// execution sites — registering all participants would leave markings
    /// that can never be cleared (an R1-rejected site never executes, never
    /// marks, never fences).
    pub(crate) began: u64,
    pub(crate) done: bool,
    /// A retransmission timer chain is live for this transaction (at most
    /// one chain per transaction; re-armed from the chain itself).
    pub(crate) retx_armed: bool,
}

/// A global arrival parked at its coordinator's admission gate: the client's
/// scheduled submit time (latency is measured from here, so admission
/// queueing stays visible) plus the per-site programs.
pub(crate) struct PendingAdmission {
    pub(crate) scheduled: SimTime,
    pub(crate) subs: Arc<[(SiteId, Program)]>,
}

/// A promise held back until a flush completion covers `ticket`.
pub(crate) struct Parked {
    ticket: u64,
    /// When it parked; from the flush point that sealed its bytes on, when
    /// that was. The two waits of a durable promise are told apart here.
    since: SimTime,
    to: SiteId,
    msg: Msg,
}

/// The runtime `Engine::new` builds: the deterministic simulator.
pub type DefaultSimRuntime = SimRuntime<TimerEvent, Msg>;

/// The engine: sites + coordinators + a message substrate on one clock.
///
/// Generic over the [`Runtime`]; defaults to the deterministic simulator so
/// `Engine::new(cfg)` needs no type annotations and replays from its seed.
pub struct Engine<R: Runtime<TimerEvent, Msg> = DefaultSimRuntime> {
    pub(crate) cfg: SystemConfig,
    pub(crate) sites: Vec<Option<Site>>,
    /// WALs of down sites, with the pre-crash local-id watermark (the
    /// engine's durable id-range reservation — see `Site::reserve_local_seq`).
    pub(crate) crashed_wals: FastHashMap<SiteId, (Wal, u64)>,
    pub(crate) rt: R,
    pub(crate) rng: DetRng,
    pub(crate) idgen: GlobalTxnIdGen,
    pub(crate) txns: FastHashMap<GlobalTxnId, GTxn>,
    /// Compensations owed: each `CT_ij` from the abort decision that
    /// started it until it commits, across deadlock roll-backs (persistence
    /// of compensation, §3.2).
    pub(crate) pending_comp: FastHashMap<(GlobalTxnId, SiteId), CompensationPlan>,
    pub(crate) term_rounds: FastHashMap<(GlobalTxnId, SiteId), TerminationRound>,
    /// In-doubt participants with a live termination-timer chain. Exactly
    /// one chain per `(txn, site)` exists while the site is in doubt, so a
    /// lost `TermReq`/`TermAnswer` re-fires instead of blocking forever.
    pub(crate) term_armed: BTreeSet<(GlobalTxnId, SiteId)>,
    pub(crate) local_starts: FastHashMap<ExecId, SimTime>,
    /// Global arrivals awaiting an admission slot at their coordinator site
    /// (`scheduled`, per-site programs), FIFO. Only populated when
    /// `SystemConfig::admission_window` is set.
    pub(crate) admit_q: FastHashMap<SiteId, std::collections::VecDeque<PendingAdmission>>,
    /// Currently admitted (not yet completed) global transactions per
    /// coordinator site, against which the window is enforced.
    pub(crate) admitted: FastHashMap<SiteId, usize>,
    pub(crate) udum: UdumTracker,
    pub(crate) hist: Recorder,
    pub(crate) report: RunReport,
    pub(crate) checkpointed: bool,
    /// Durable mode only: messages held back until a flush completion
    /// covers the recorded byte ticket, per sender (indexed like `sites`) in
    /// append order.
    pub(crate) wal_parked: Vec<Vec<Parked>>,
    /// Per site, the highest ticket a flush completion (or the run's
    /// closing sync) has reported durable: promises at or below it go out.
    pub(crate) wal_covered: Vec<u64>,
    /// Each site's live `WalFlush` timer, by the ticket it carries (at most
    /// one per site; any other timer of the site's is stale — see
    /// [`TimerEvent::WalFlush`]).
    pub(crate) flush_armed: BTreeMap<SiteId, u64>,
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
        let site_cfg = SiteConfig {
            compensation_model: cfg.compensation_model,
        };
        let sites = cfg
            .sites()
            .map(|id| Some(Site::with_wal(id, site_cfg, Self::make_wal(&cfg, id))))
            .collect();
        for (site, from, to) in cfg.failures.crashes() {
            rt.schedule(from, TimerEvent::Crash { site });
            rt.schedule(to, TimerEvent::Recover { site });
        }
        let wal_parked = cfg.sites().map(|_| Vec::new()).collect();
        let wal_covered = vec![0; cfg.num_sites as usize];
        let warnings = cfg.liveness_warnings();
        #[cfg(debug_assertions)]
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        Engine {
            cfg,
            sites,
            crashed_wals: FastHashMap::default(),
            rt,
            rng,
            idgen: GlobalTxnIdGen::new(),
            txns: FastHashMap::default(),
            pending_comp: FastHashMap::default(),
            term_rounds: FastHashMap::default(),
            term_armed: BTreeSet::new(),
            local_starts: FastHashMap::default(),
            admit_q: FastHashMap::default(),
            admitted: FastHashMap::default(),
            udum: UdumTracker::new(),
            hist,
            report: RunReport::default(),
            checkpointed: false,
            wal_parked,
            wal_covered,
            flush_armed: BTreeMap::new(),
            warnings,
            walks: Box::default(),
        }
    }

    /// Build one site's WAL per the configuration: on disk when a WAL
    /// directory is set (reopening an existing file — recovery across
    /// *process* restarts — is exactly the open path), in-memory otherwise.
    fn make_wal(cfg: &SystemConfig, id: SiteId) -> Wal {
        match &cfg.durable_wal_dir {
            None => Wal::new(),
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create durable WAL dir");
                let path = dir.join(format!("site-{}.wal", id.0));
                Wal::open_with_segment_bytes(&path, cfg.wal_segment_bytes)
                    .expect("open durable WAL")
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

    /// Submit a transaction for arrival at `at`.
    pub fn submit_at(&mut self, at: SimTime, req: TxnRequest) {
        self.rt
            .schedule(at, TimerEvent::Arrive { req, scheduled: at });
    }

    /// Read an item's current value (tests / invariants).
    pub fn value(&self, site: SiteId, key: Key) -> Option<Value> {
        self.sites[site.index()].as_ref().and_then(|s| s.get(key))
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

    /// Arrivals still parked at an admission gate (a clean quiescent run
    /// admits and decides everything it was offered).
    pub fn queued_admissions(&self) -> usize {
        self.admit_q.values().map(|q| q.len()).sum()
    }

    /// Transactions whose coordinator never reached `Complete`.
    pub fn unfinished_txns(&self) -> Vec<GlobalTxnId> {
        let mut v: Vec<GlobalTxnId> = self
            .txns
            .iter()
            .filter(|(_, g)| !g.done)
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Participants still in doubt: prepared under hold-writes, or locally
    /// committed under O2PC without a known decision.
    pub fn in_doubt_participants(&self) -> Vec<(GlobalTxnId, SiteId)> {
        let mut v = Vec::new();
        for s in self.sites.iter().flatten() {
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
        self.sites
            .iter()
            .flatten()
            .filter(|s| !s.wal_matches_store())
            .map(|s| s.id())
            .collect()
    }

    /// One site's raw WAL records (diagnostics: tracing chaos
    /// counterexamples back to the log).
    pub fn wal_records(&self, site: SiteId) -> Option<&[o2pc_storage::LogRecord]> {
        self.sites[site.index()].as_ref().map(|s| s.wal().records())
    }

    /// The site's durable-WAL I/O counters (`None` if the site is down or
    /// logging in memory). The counters are shared with the flush pipeline,
    /// so they reflect background fsyncs too.
    pub fn wal_stats(&self, site: SiteId) -> Option<std::sync::Arc<o2pc_storage::WalStats>> {
        self.sites[site.index()]
            .as_ref()
            .and_then(|s| s.wal().stats())
    }

    /// Sum of every live site's item values (conservation checks).
    pub fn total_value(&self) -> i64 {
        self.sites.iter().flatten().map(|s| s.total()).sum()
    }

    /// Snapshot of the incrementally-maintained exposed serialization
    /// graphs, when `SystemConfig::live_audit_graph` is on. The chaos
    /// oracle audits this instead of replaying the recorded history.
    pub fn live_audit_graph(&self) -> Option<o2pc_sgraph::GlobalSg> {
        self.hist.live_sg.as_ref().map(|sg| sg.snapshot())
    }

    pub(crate) fn site_mut(&mut self, site: SiteId) -> &mut Site {
        self.sites[site.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("{site} is crashed"))
    }

    pub(crate) fn site_up(&self, site: SiteId) -> bool {
        self.sites[site.index()].is_some()
    }

    pub(crate) fn marking(&self) -> MarkingProtocol {
        self.cfg.protocol.marking()
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
        let (label, dropped, unroutable) =
            (msg.label(), msg.dropped_label(), msg.unroutable_label());
        self.report.counters.inc(label);
        // Account send-time losses per message type *and* per cause, so E6
        // and the chaos oracle can reconcile message conservation: policy
        // drops (injected link loss) must sum to the network's own dropped
        // counter, while unroutable refusals (crashed endpoint, shutdown —
        // threaded transport only) are a different ledger entirely.
        match self.rt.send(now, from, to, msg) {
            o2pc_runtime::SendOutcome::Sent => {}
            o2pc_runtime::SendOutcome::DroppedByPolicy => self.report.counters.inc(dropped),
            o2pc_runtime::SendOutcome::NoRoute => self.report.counters.inc(unroutable),
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
        let ticket = match self.sites[from.index()].as_ref() {
            Some(s) if s.wal().append_ticket() > self.wal_covered[from.index()] => {
                s.wal().append_ticket()
            }
            // WAL already covered by a completion (always true in memory)
            // or site down: nothing to hold the message for.
            _ => {
                self.send(now, from, to, msg);
                return;
            }
        };
        self.wal_parked[from.index()].push(Parked {
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
        let Some(s) = self.sites[site.index()].as_ref() else {
            return;
        };
        let pending = s.wal().pending_bytes();
        if pending == 0 {
            return;
        }
        if pending >= self.cfg.wal_flush_bytes {
            self.on_wal_flush(now, site);
            return;
        }
        if let Entry::Vacant(slot) = self.flush_armed.entry(site) {
            let ticket = *slot.insert(s.wal().append_ticket());
            self.rt.schedule(
                now + self.cfg.wal_flush_interval,
                TimerEvent::WalFlush { site, ticket },
            );
        }
    }

    /// A `WalFlush` timer fired: a flush point if it is the site's live
    /// timer. Staleness is read off `flush_armed`, not off the sealed
    /// watermark: a seal that leaves the site armed (the sync that ends a
    /// `run`, or follows a failed burst) leaves this timer to serve whatever
    /// is appended next, and dropping it would strand those bytes.
    pub(crate) fn on_flush_timer(&mut self, now: SimTime, site: SiteId, ticket: u64) {
        if self.flush_armed.get(&site) == Some(&ticket) {
            self.on_wal_flush(now, site);
        }
    }

    /// Work-conserving group commit. The flush interval buys a parked
    /// promise *company*: later appends that share its fsync. While arrivals
    /// queue at an admission gate and the loop is about to park, none can
    /// come — everything that could join the batch waits behind the very
    /// promises the batch holds — so the interval is dead time and every
    /// site with promises parked over unsealed bytes seals now; release
    /// still waits for the completion. A backlog behind a crashed
    /// coordinator cannot drain and does not count. The simulator never
    /// parks, so this fires on wall-clock runtimes only.
    pub(crate) fn seal_behind_backlog(&mut self) {
        if self.flush_armed.is_empty() {
            return; // no unsealed bytes anywhere
        }
        let backlog = self
            .admit_q
            .iter()
            .any(|(&coord, q)| !q.is_empty() && self.site_up(coord));
        if !backlog || !self.rt.is_idle() {
            return;
        }
        let now = self.rt.now();
        for i in 0..self.sites.len() {
            let Some(s) = self.sites[i].as_ref() else {
                continue;
            };
            let sealed = s.wal().sealed_ticket();
            if self.wal_parked[i].last().is_some_and(|p| p.ticket > sealed) {
                self.report.counters.inc("wal.early_seals");
                self.on_wal_flush(now, SiteId(i as u32));
            }
        }
    }

    /// Group-commit flush point: seal everything the site appended since
    /// the last flush into one batch and hand it to the runtime's disk. One
    /// batch — and, after coalescing, one fsync — covers every transaction
    /// that logged in the window: that batching *is* group commit. A dead
    /// log seals too, and its batch's failed completion reports it.
    pub(crate) fn on_wal_flush(&mut self, now: SimTime, site: SiteId) {
        self.flush_armed.remove(&site);
        let Some(s) = self.sites[site.index()].as_mut() else {
            return;
        };
        let unsealed_from = s.wal().sealed_ticket();
        let Some(batch) = s.wal_seal_batch() else {
            return;
        };
        self.rt.flush(site, batch);
        self.report.counters.inc("wal.flushes");
        let newly_sealed = self.wal_parked[site.index()]
            .iter_mut()
            .rev()
            .take_while(|p| p.ticket > unsealed_from);
        for p in newly_sealed {
            self.report
                .wal_seal_wait
                .record(now.since(p.since).as_micros());
            p.since = now;
        }
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
        let Some(s) = self.sites[site.index()].as_ref() else {
            return;
        };
        if ok {
            let covered = &mut self.wal_covered[site.index()];
            *covered = (*covered).max(ticket);
            self.release_parked(now, site);
        } else if s.wal().is_dead() {
            self.on_wal_failure(now, site);
        }
    }

    /// The site's log device failed (a write, fsync, rotation or handle
    /// failure, reported by a flush completion): it can no longer make
    /// durable promises. Treat it exactly like a crash — volatile state
    /// gone, disk state cut at the durable watermark.
    fn on_wal_failure(&mut self, now: SimTime, site: SiteId) {
        self.report.counters.inc("wal.fault_crashes");
        self.on_crash(now, site);
    }

    /// Send the parked messages a completion now covers.
    fn release_parked(&mut self, now: SimTime, site: SiteId) {
        let covered = self.wal_covered[site.index()];
        let ready = self.wal_parked[site.index()].partition_point(|p| p.ticket <= covered);
        if ready == 0 {
            return;
        }
        // `send` needs the whole engine: take the queue out while its ready
        // prefix goes, then put the rest (and its capacity) back.
        let mut queue = std::mem::take(&mut self.wal_parked[site.index()]);
        for p in queue.drain(..ready) {
            self.report
                .wal_fsync_wait
                .record(now.since(p.since).as_micros());
            self.send(now, site, p.to, p.msg);
        }
        self.wal_parked[site.index()] = queue;
    }

    /// Make every live site's WAL fully durable (start and end of a run)
    /// and release whatever that unparks. Inline, and reported by the
    /// sync's own result: the run is over, latency no longer matters,
    /// completeness does. Completions still owed cover nothing new.
    pub(crate) fn sync_all_wals(&mut self, now: SimTime) {
        if self.cfg.durable_wal_dir.is_none() {
            return;
        }
        for i in 0..self.sites.len() {
            if let Some(s) = self.sites[i].as_mut() {
                if s.wal_sync().is_ok() {
                    self.wal_covered[i] = s.wal().append_ticket();
                    self.release_parked(now, SiteId(i as u32));
                }
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
        if self.term_armed.insert((txn, site)) {
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
        if g.done || g.retx_armed {
            return;
        }
        g.retx_armed = true;
        self.rt
            .schedule(now + base, TimerEvent::Retransmit { txn, attempt: 0 });
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
        let pending = |e: &Engine| e.sites[0].as_ref().unwrap().wal().pending_bytes();
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
        assert!(
            e.flush_armed.contains_key(&s0),
            "the younger timer is still live"
        );
        assert_eq!(flushes(&e), 1);
        e.on_flush_timer(at(1_500), s0, younger);
        assert_eq!((pending(&e), flushes(&e)), (0, 2));
        assert!(e.flush_armed.is_empty());

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
        assert!(e.flush_armed.is_empty());
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
        e.rt.flush(s1, batch);
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
        assert_eq!(e.wal_parked[0].len(), 1, "the new promise still waits");

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
            let site = e.sites[0].as_mut().unwrap();
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
        let survived = &e.crashed_wals[&s0].0;
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

    /// An I/O error in the threaded runtime's flusher crashes the site whose
    /// log it hit instead of leaving its parked promises to wait out the
    /// run; recovery then brings the site back.
    #[test]
    fn failed_background_flush_crashes_that_site_only() {
        // Declared before the engine, so it is removed after the engine (and
        // its flusher threads) are gone — also when an assertion below fails,
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
        e.rt.flush(s1, batch);
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
}

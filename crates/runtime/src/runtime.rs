//! The engine-facing runtime: timers + messages in one time-ordered stream.

use crate::clock::{Clock, WallClock};
use crate::flush::Helper;
use crate::heap::EventHeap;
use crate::transport::ThreadedTransport;
use o2pc_common::{Duration, SimTime, SiteId};
use o2pc_sim::{EventQueue, Network, SendOutcome};
use o2pc_storage::FlushBatch;
use std::collections::VecDeque;
use std::time::Duration as StdDuration;

/// One unit of work handed to the engine: a timer it scheduled earlier, a
/// message the substrate delivered, or a flush its disk completed.
#[derive(Clone, Debug)]
pub enum Step<T, M> {
    /// A timer scheduled via [`Runtime::schedule`] has fired.
    Timer(T),
    /// A message has arrived at site `to`.
    Deliver {
        /// Destination site.
        to: SiteId,
        /// The message.
        msg: M,
    },
    /// Batches handed to [`Runtime::flush`] for `site` have completed: its
    /// log is fsynced through `ticket` (`ok`), or its device failed.
    Durable {
        /// Site whose batches completed.
        site: SiteId,
        /// The last byte ticket the completion covers.
        ticket: u64,
        /// False when the write or fsync failed (the log is poisoned).
        ok: bool,
    },
}

/// A flush completion: site, ticket, ok.
type Completion = (SiteId, u64, bool);

/// What the engine needs from a substrate: a clock, timers, a message
/// transport, a disk, and a single stream of [`Step`]s in time order.
///
/// `T` is the engine's timer payload, `M` its message type. The engine never
/// sees queues, channels, or threads — it schedules, sends, and pulls the
/// next step until `next` returns `None` (past `deadline`, or quiescent).
pub trait Runtime<T, M>: Clock {
    /// Called once per site while the engine is constructed: the site
    /// becomes a routable destination of the network.
    fn register_endpoint(&mut self, id: SiteId);

    /// Arrange for `timer` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, timer: T) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, timer);
    }

    /// Take the next `n` sequence numbers of the runtime's queue; returns
    /// the first.
    fn reserve(&mut self, n: u64) -> u64;

    /// [`schedule`](Runtime::schedule) under a number `reserve` handed out,
    /// used once: among simultaneous steps `timer` fires where a timer
    /// scheduled when the number was reserved would have.
    fn schedule_reserved(&mut self, at: SimTime, seq: u64, timer: T);

    /// Send `msg` from `from` to `to`; `now` is the sender's current time.
    /// The [`SendOutcome`] is the network's judgement at send time:
    /// accepted, lost on its link, or refused because the destination is
    /// unreachable.
    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome;

    /// Pull the next step at or before `deadline`. `None` means the run is
    /// over: the next step (if any) lies beyond the deadline, or the
    /// substrate has quiesced with nothing in flight.
    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)>;

    /// The network this runtime sends through: its links and its ledger.
    fn network(&self) -> &Network;

    /// Write and fsync every batch one flush point sealed, each tagged with
    /// its site, then report each site's batches as a [`Step::Durable`].
    /// This is the one hand-over: a flush point calls it once, whatever
    /// number of logs it sealed. One contract holds on every runtime: when
    /// `flush` returns, every batch is written and fsynced, or its log is
    /// poisoned, and one site's batches landed in the order they were
    /// handed over. The runtimes differ only in when
    /// [`next`](Runtime::next) reports the completions: the simulator after
    /// its modelled fsync latency, the threaded runtime at once, ahead of
    /// any ready delivery. No write is in flight between calls, so a wait
    /// on a log's watermark never waits on the caller's own thread.
    fn flush(&mut self, batches: Vec<(SiteId, FlushBatch)>);

    /// Would [`next`](Runtime::next) park right now — nothing sent and not
    /// yet delivered, no flush completion not yet handed over, no timer
    /// due? Only the passing of time can then produce the next step. Never
    /// true on a substrate that does not wait (the simulator jumps to its
    /// next event), so asking cannot move a seeded run.
    fn is_idle(&mut self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Deterministic simulator backend
// ---------------------------------------------------------------------------

/// The deterministic discrete-event backend.
///
/// Timers, deliveries and flush completions share **one** [`EventQueue`] —
/// one sequence counter totally orders simultaneous entries, so a seeded run
/// replays bit-for-bit. Splitting them into separate queues (one per trait)
/// would look cleaner and silently break that guarantee, which is why the
/// sim implements [`Runtime`] as a fused whole rather than composing a
/// sim clock with a sim network. The queue is a timing wheel over the next
/// few milliseconds, so [`next`](Runtime::next)'s peek and pop are each
/// O(1) in the hundreds of entries a run keeps pending.
///
/// Its disk is modelled: [`flush`](Runtime::flush) writes and fsyncs each
/// batch at once, in the order handed over, so every barrier that consults
/// the physical log (the crash transform, compaction, end of run) finds it
/// landed, and reports each completion
/// [`FSYNC_LATENCY`](SimRuntime::FSYNC_LATENCY) later in virtual time.
#[derive(Debug)]
pub struct SimRuntime<T, M> {
    queue: EventQueue<Step<T, M>>,
    network: Network,
}

impl<T, M> SimRuntime<T, M> {
    /// Virtual time from a flush to its completion: the median 4 KiB write +
    /// fdatasync (`storage.fsync_probe_us`) on the two-core reference box.
    pub const FSYNC_LATENCY: Duration = Duration::micros(145);

    /// Build on a configured [`Network`] (latency models, loss, failures).
    pub fn new(network: Network) -> Self {
        SimRuntime {
            queue: EventQueue::new(),
            network,
        }
    }

    /// Pending steps (timers + in-flight messages).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<T, M> Clock for SimRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.queue.now()
    }
}

impl<T, M: Clone> Runtime<T, M> for SimRuntime<T, M> {
    fn register_endpoint(&mut self, id: SiteId) {
        self.network.open_route(id);
    }

    fn reserve(&mut self, n: u64) -> u64 {
        self.queue.reserve(n)
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, timer: T) {
        self.queue.schedule_reserved(at, seq, Step::Timer(timer));
    }

    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        match self.network.judge(from, to, now) {
            Ok((delay, duplicate)) => {
                if let Some(delay) = duplicate {
                    let msg = msg.clone();
                    self.queue.schedule(now + delay, Step::Deliver { to, msg });
                }
                self.queue.schedule(now + delay, Step::Deliver { to, msg });
                SendOutcome::Sent
            }
            Err(lost) => lost,
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        let t = self.queue.peek_time()?;
        if t > deadline {
            return None; // left in the queue: a later run() call may resume
        }
        let popped = self.queue.pop();
        if let Some((_, Step::Deliver { .. })) = &popped {
            self.network.note_delivered();
        }
        popped
    }

    fn network(&self) -> &Network {
        &self.network
    }

    fn flush(&mut self, batches: Vec<(SiteId, FlushBatch)>) {
        for (site, batch) in batches {
            let (ticket, progress) = (batch.ticket(), batch.progress());
            // A failed write or fsync has poisoned the log's watermark; the
            // completion carries that to the engine.
            let _ = batch.execute();
            let done = Step::Durable {
                site,
                ticket,
                ok: !progress.is_poisoned(),
            };
            self.queue
                .schedule(self.queue.now() + Self::FSYNC_LATENCY, done);
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded wall-clock backend
// ---------------------------------------------------------------------------

/// Tuning knobs for [`ThreadedRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedRuntimeConfig {
    /// How long `next` waits with nothing queued or ready before
    /// declaring the run quiescent; every run ends this long after its last
    /// step. Every in-flight message lives in the runtime, so this does not
    /// need to cover transport latency.
    pub idle_grace: StdDuration,
}

impl Default for ThreadedRuntimeConfig {
    fn default() -> Self {
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(50),
        }
    }
}

/// Wall-clock execution over the simulator's [`Network`], which a
/// [`ThreadedTransport`] carries in.
///
/// One thread — the caller of [`next`](Runtime::next) — runs every site,
/// and the runtime delivers its own messages. `send` asks the network for
/// its judgement (route, loss, duplication and latency decided at once, so
/// the caller gets an honest [`SendOutcome`]); an accepted copy with no
/// delay — a same-site send, or one on a zero-latency link — goes onto the
/// ready FIFO, and a delayed one into the wall-clock event queue as a
/// [`Step::Deliver`] due at send time + delay, beside the timers. A
/// message delay inside one process therefore costs a queue push. That
/// queue is a plain `(time, seq)` binary heap, not the simulator's timing
/// wheel: it holds a handful of entries, where the wheel's slot arrays cost
/// more than they save. Timers
/// fire on real elapsed time (via [`WallClock`]); outcomes are
/// schedule-dependent, so the wall-clock twin of a simulated run checks
/// invariants, not byte equality.
///
/// The disk is the calling thread plus, for a flush point that seals more
/// than one log, persistent helper threads. [`flush`](Runtime::flush) is
/// fork-join: it hands every log but the first to a helper of its own,
/// writes and fsyncs the first itself, and returns once every helper has
/// replied, so the helpers' fsyncs overlap its own and no write outlives
/// the call. Helpers are spawned on first need, one per extra log, so a
/// run holds fewer than its endpoints and one whose flush points each seal
/// one log starts none; a log no helper can take is written here too. The
/// completions wait in the runtime, in hand-over order, for `next`.
/// Writing a log here costs its fsync's latency on this thread, but saves
/// the two thread wake-ups a hand-off costs, which on a small machine cost
/// more CPU than the fsync (DESIGN §9).
///
/// Quiescence: `next` returns `None` once the deadline passes, or after
/// `idle_grace` with no timer or delayed message queued, nothing ready, and
/// no flush completion waiting.
pub struct ThreadedRuntime<T, M> {
    clock: WallClock,
    network: Network,
    /// Accepted copies with no delay, in send order.
    staged: VecDeque<(SiteId, M)>,
    /// Timers and delayed deliveries, in the simulator's queue discipline
    /// on a heap: `(due, seq)` order, FIFO among equal due times — so
    /// equal-latency sends on one link arrive in send order.
    events: EventHeap<Step<T, M>>,
    /// Flush helpers, spawned on first need: one per extra log of the
    /// largest flush point so far.
    helpers: Vec<Helper>,
    /// Completions of landed flushes, in hand-over order, for `next`.
    landed: VecDeque<Completion>,
    cfg: ThreadedRuntimeConfig,
}

impl<T, M: Clone> Default for ThreadedRuntime<T, M> {
    fn default() -> Self {
        Self::new(
            ThreadedTransport::default(),
            ThreadedRuntimeConfig::default(),
        )
    }
}

impl<T, M: Clone> ThreadedRuntime<T, M> {
    /// Build on a transport's network; the clock's epoch (time zero) is
    /// *now*.
    pub fn new(transport: ThreadedTransport<M>, cfg: ThreadedRuntimeConfig) -> Self {
        ThreadedRuntime {
            clock: WallClock::new(),
            network: transport.network,
            staged: VecDeque::new(),
            events: EventHeap::new(),
            helpers: Vec::new(),
            landed: VecDeque::new(),
            cfg,
        }
    }

    /// Hand one log's batches to helper `i`, spawning it first if need be.
    /// Gives them back when no helper thread could be spawned, or it is
    /// gone.
    fn fork(&mut self, i: usize, batches: Vec<FlushBatch>) -> Result<(), Vec<FlushBatch>> {
        if i == self.helpers.len() {
            match Helper::spawn(i) {
                Ok(helper) => self.helpers.push(helper),
                Err(_) => return Err(batches),
            }
        }
        self.helpers[i].fork(batches)
    }

    /// Put an accepted copy on its way: ready now, or due after `delay`.
    fn carry(&mut self, delay: Duration, to: SiteId, msg: M) {
        if delay == Duration::ZERO {
            self.staged.push_back((to, msg));
        } else {
            // The wall clock never runs behind the queue's last popped time.
            let due = self.clock.now() + delay;
            self.events.schedule(due, Step::Deliver { to, msg });
        }
    }
}

impl<T, M: Clone> Clock for ThreadedRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

impl<T, M: Clone> Runtime<T, M> for ThreadedRuntime<T, M> {
    fn register_endpoint(&mut self, id: SiteId) {
        self.network.open_route(id);
    }

    fn reserve(&mut self, n: u64) -> u64 {
        self.events.reserve(n)
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, timer: T) {
        // On a wall clock a caller may name an instant the queue has already
        // moved past; such a timer is simply due now.
        let at = at.max(self.events.now());
        self.events.schedule_reserved(at, seq, Step::Timer(timer));
    }

    fn flush(&mut self, batches: Vec<(SiteId, FlushBatch)>) {
        // One entry per log, in hand-over order, with its batches in order.
        let mut logs: Vec<(SiteId, Vec<FlushBatch>)> = Vec::new();
        for (site, batch) in batches {
            match logs.iter_mut().find(|(s, _)| *s == site) {
                Some((_, own)) => own.push(batch),
                None => logs.push((site, vec![batch])),
            }
        }
        // Fork: every log but the first to a helper of its own. A log no
        // helper takes is written here, with the first.
        let mut here = Vec::new();
        let mut joins = Vec::with_capacity(logs.len());
        let mut forked = 0;
        for (i, (site, own)) in logs.into_iter().enumerate() {
            let Some(last) = own.last() else {
                continue;
            };
            let (ticket, progress) = (last.ticket(), last.progress());
            let taken = match i {
                0 => Err(own),
                _ => self.fork(forked, own).map(|()| forked),
            };
            let helper = match taken {
                Ok(h) => {
                    forked += 1;
                    Some(h)
                }
                Err(own) => {
                    here.extend(own);
                    None
                }
            };
            joins.push((site, ticket, progress, helper));
        }
        // A failed write or fsync has poisoned its log's watermark.
        let _ = FlushBatch::execute_all(here);
        // Join, and report every log in hand-over order.
        for (site, ticket, progress, helper) in joins {
            if helper.is_some_and(|h| !self.helpers[h].join()) {
                // The helper died holding the batches: they never landed.
                progress.poison();
            }
            self.landed
                .push_back((site, ticket, !progress.is_poisoned()));
        }
    }

    fn is_idle(&mut self) -> bool {
        // Every accepted message, ready or delayed, is in flight until
        // `next` hands it over.
        self.network.ledger().in_flight() == 0
            && self.landed.is_empty()
            && self
                .events
                .peek_time()
                .is_none_or(|due| due > self.clock.now())
    }

    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        match self.network.judge(from, to, now) {
            Ok((delay, duplicate)) => {
                if let Some(delay) = duplicate {
                    self.carry(delay, to, msg.clone());
                }
                self.carry(delay, to, msg);
                SendOutcome::Sent
            }
            Err(lost) => lost,
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        loop {
            let now = self.clock.now();
            if now > deadline {
                return None;
            }
            // A due timer or delayed delivery first, then a flush
            // completion, before any ready delivery, since it releases
            // promises those messages may be waiting on; then the ready
            // FIFO. Under load the loop spins here without a syscall.
            if self.events.peek_time().is_some_and(|due| due <= now) {
                if let Some((_, step)) = self.events.pop() {
                    if matches!(step, Step::Deliver { .. }) {
                        self.network.note_delivered();
                    }
                    return Some((now, step));
                }
            }
            if let Some((site, ticket, ok)) = self.landed.pop_front() {
                return Some((now, Step::Durable { site, ticket, ok }));
            }
            if let Some((to, msg)) = self.staged.pop_front() {
                self.network.note_delivered();
                return Some((now, Step::Deliver { to, msg }));
            }
            let until_deadline = self.clock.until(deadline);
            let wait = match self.events.peek_time() {
                Some(due) => self.clock.until(due).min(until_deadline),
                None => self.cfg.idle_grace.min(until_deadline),
            };
            std::thread::sleep(wait);
            // Quiescence: the engine, the only source of steps, is parked
            // right here, so with nothing queued none can ever come.
            if self.events.is_empty() {
                return None;
            }
        }
    }

    fn network(&self) -> &Network {
        &self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{DetRng, ExecId, GlobalTxnId, ScratchDir};
    use o2pc_sim::{LatencyModel, Ledger, NetworkConfig};
    use o2pc_storage::{LogRecord, Wal};

    /// A log in a scratch directory with one appended, sealed batch.
    fn sealed_batch(name: &str) -> (ScratchDir, Wal, FlushBatch) {
        let dir = ScratchDir::new(&format!("rt-{name}"));
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(1))));
        let batch = wal.seal_batch().unwrap();
        (dir, wal, batch)
    }

    /// A simulator on `config`, with sites 0–2 registered.
    fn sim_on(config: NetworkConfig) -> SimRuntime<&'static str, u32> {
        let mut rt = SimRuntime::new(Network::new(config, DetRng::new(1)));
        for id in 0..3 {
            rt.register_endpoint(SiteId(id));
        }
        rt
    }

    fn sim() -> SimRuntime<&'static str, u32> {
        sim_on(NetworkConfig::fixed(Duration::millis(1)))
    }

    #[test]
    fn sim_orders_timers_and_deliveries_together() {
        let mut rt = sim();
        rt.schedule(SimTime(5_000), "late");
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 7).is_sent()); // arrives at 1ms
        rt.schedule(SimTime(500), "early");
        let (t1, s1) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t1, SimTime(500));
        assert!(matches!(s1, Step::Timer("early")));
        let (t2, s2) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t2, SimTime(1_000));
        assert!(matches!(
            s2,
            Step::Deliver {
                to: SiteId(1),
                msg: 7
            }
        ));
        assert_eq!(rt.now(), SimTime(1_000));
        // Deadline fences the late timer without consuming it.
        assert!(rt.next(SimTime(2_000)).is_none());
        assert!(rt.next(SimTime(10_000)).is_some());
    }

    /// Send one self-addressed message on `rt`: it must arrive once, at
    /// once, and count as sent.
    fn self_send_arrives_once_at_once<R: Runtime<&'static str, u32>>(mut rt: R) {
        let far = SimTime(60_000_000);
        let sent_at = rt.now();
        assert!(rt.send(sent_at, SiteId(2), SiteId(2), 9).is_sent());
        let Some((
            at,
            Step::Deliver {
                to: SiteId(2),
                msg: 9,
            },
        )) = rt.next(far)
        else {
            panic!("the self-send was not delivered");
        };
        let waited = at.since(sent_at);
        assert!(waited < Duration::millis(500), "held for {waited:?}");
        assert!(rt.next(far).is_none(), "delivered twice");
        let once = Ledger {
            sent: 1,
            delivered: 1,
            ..Ledger::default()
        };
        assert_eq!(rt.network().ledger(), once);
    }

    /// A same-site send never touches a link, on either runtime: not even
    /// one that always drops, always duplicates and takes a second.
    #[test]
    fn same_site_send_skips_the_link_on_both_runtimes() {
        let hostile = NetworkConfig {
            drop_probability: 1.0,
            duplicate_probability: 1.0,
            ..NetworkConfig::fixed(Duration::secs(1))
        };
        self_send_arrives_once_at_once(sim_on(hostile.clone()));
        self_send_arrives_once_at_once(on_links(hostile));
    }

    /// Hand `rt` a three-log flush point whose middle batch is severed,
    /// after a send to another site: when `flush` returns, both healthy
    /// logs are durable and the severed one is dead, and `next` reports the
    /// three logs in hand-over order before it delivers the message.
    fn flush_lands_before_it_returns<R: Runtime<&'static str, u32>>(mut rt: R, name: &str) {
        assert!(rt.send(rt.now(), SiteId(0), SiteId(1), 7).is_sent());
        let mut wals = Vec::new();
        let mut batches = Vec::new();
        for i in 0..3 {
            let (dir, wal, mut batch) = sealed_batch(&format!("{name}-{i}"));
            if i == 1 {
                batch.sever(0).unwrap();
            }
            batches.push((SiteId(i), batch));
            wals.push((dir, wal));
        }
        rt.flush(batches);
        let landed: Vec<_> = wals
            .iter()
            .map(|(_, wal)| (wal.is_dead(), wal.durable_ticket() == wal.append_ticket()))
            .collect();
        assert_eq!(landed, [(false, true), (true, false), (false, true)]);
        let far = SimTime(60_000_000);
        let steps: Vec<_> = std::iter::from_fn(|| rt.next(far))
            .map(|(_, step)| match step {
                Step::Durable { site, ticket, ok } => (site, Some((ticket, ok))),
                Step::Deliver { to, msg: 7 } => (to, None),
                other => panic!("unexpected step {other:?}"),
            })
            .collect();
        let ticket = |i: usize| wals[i].1.append_ticket();
        let expected = [
            (SiteId(0), Some((ticket(0), true))),
            (SiteId(1), Some((ticket(1), false))),
            (SiteId(2), Some((ticket(2), true))),
            (SiteId(1), None),
        ];
        assert_eq!(steps, expected);
    }

    /// One flush contract on both runtimes: a flush point lands before
    /// `flush` returns.
    #[test]
    fn flush_lands_before_it_returns_on_both_runtimes() {
        flush_lands_before_it_returns(sim(), "sim");
        flush_lands_before_it_returns(threaded(20), "threaded");
    }

    /// The simulator's disk writes at seal time and reports after the
    /// modelled fsync latency, in order with the rest of the queue.
    #[test]
    fn sim_disk_lands_at_seal_and_reports_after_the_modelled_fsync() {
        let mut rt = sim();
        rt.schedule(SimTime(300), "armed");
        assert!(matches!(
            rt.next(SimTime(10_000)),
            Some((_, Step::Timer(_)))
        ));
        let (_dir, wal, batch) = sealed_batch("sim-disk");
        rt.flush(vec![(SiteId(1), batch)]);
        assert_eq!(wal.durable_ticket(), wal.append_ticket(), "written at seal");
        let (t, step) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t, SimTime(300) + SimRuntime::<(), u32>::FSYNC_LATENCY);
        let ticket = wal.append_ticket();
        assert!(matches!(
            step,
            Step::Durable { site: SiteId(1), ticket: t, ok: true } if t == ticket
        ));
    }

    fn threaded(grace_ms: u64) -> ThreadedRuntime<&'static str, u32> {
        let mut rt = ThreadedRuntime::new(
            ThreadedTransport::default(),
            ThreadedRuntimeConfig {
                idle_grace: StdDuration::from_millis(grace_ms),
            },
        );
        for id in 0..3 {
            rt.register_endpoint(SiteId(id));
        }
        rt
    }

    #[test]
    fn threaded_delivers_messages_and_fires_timers() {
        let mut rt = threaded(20);
        let far = SimTime(60_000_000);
        rt.schedule(SimTime(2_000), "timer");
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 42).is_sent());
        // The message is immediate, the timer is 2ms out: message first.
        let (_, s1) = rt.next(far).unwrap();
        assert!(matches!(
            s1,
            Step::Deliver {
                to: SiteId(1),
                msg: 42
            }
        ));
        let (t2, s2) = rt.next(far).unwrap();
        assert!(matches!(s2, Step::Timer("timer")));
        assert!(t2 >= SimTime(2_000), "timer fired early: {t2:?}");
        // Nothing left: quiesce within the grace period.
        assert!(rt.next(far).is_none());
    }

    #[test]
    fn threaded_respects_deadline() {
        let mut rt = threaded(20);
        rt.schedule(SimTime(50_000_000), "beyond"); // 50s out
        let start = std::time::Instant::now();
        assert!(
            rt.next(SimTime(10_000)).is_none(),
            "deadline precedes the timer"
        );
        assert!(start.elapsed() < StdDuration::from_secs(1));
    }

    /// Timers fire in `(due, seq)` order whichever part of the queue holds
    /// them: an ascending backlog, as an installed arrival schedule is, with
    /// "due now" timers scheduled in between.
    #[test]
    fn threaded_fires_backlog_and_due_now_timers_in_due_then_fifo_order() {
        let mut rt: ThreadedRuntime<usize, u32> = ThreadedRuntime::default();
        let mut scheduled = Vec::new();
        for i in 0..10_000u64 {
            scheduled.push(SimTime(i));
            if i % 100 == 99 {
                scheduled.push(rt.now());
            }
        }
        for (payload, &at) in scheduled.iter().enumerate() {
            rt.schedule(at, payload);
        }
        // Payloads are scheduling sequence numbers, so the expected order is
        // a stable sort by due time.
        let mut expected: Vec<usize> = (0..scheduled.len()).collect();
        expected.sort_by_key(|&payload| scheduled[payload]);
        let mut fired = Vec::new();
        while let Some((now, Step::Timer(payload))) = rt.next(SimTime(60_000_000)) {
            assert!(now >= scheduled[payload], "timer {payload} fired early");
            fired.push(payload);
        }
        assert_eq!(fired, expected);
    }

    /// A burst of zero-latency sends between two `next` calls waits on the
    /// ready FIFO, in flight, and arrives in send order.
    #[test]
    fn threaded_ready_sends_arrive_in_send_order() {
        let mut rt = threaded(20);
        let far = SimTime(60_000_000);
        for i in 0..32 {
            assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), i).is_sent());
            assert!(rt
                .send(SimTime::ZERO, SiteId(0), SiteId(2), 100 + i)
                .is_sent());
        }
        assert_eq!(rt.network().ledger().in_flight(), 64);
        let mut to1 = Vec::new();
        let mut to2 = Vec::new();
        while let Some((_, step)) = rt.next(far) {
            if let Step::Deliver { to, msg } = step {
                if to == SiteId(1) {
                    to1.push(msg);
                } else {
                    to2.push(msg);
                }
            }
        }
        assert_eq!(to1, (0..32).collect::<Vec<_>>());
        assert_eq!(to2, (100..132).collect::<Vec<_>>());
    }

    /// Idle means "`next` would park": any work the loop can still reach
    /// without waiting — a ready message, a delayed one, a due timer, a
    /// landed flush completion — denies it.
    #[test]
    fn idle_only_when_next_would_park() {
        let mut rt: ThreadedRuntime<&'static str, u32> = ThreadedRuntime::new(
            ThreadedTransport::new(slow_link(30)),
            ThreadedRuntimeConfig::default(),
        );
        for id in 0..2 {
            rt.register_endpoint(SiteId(id));
        }
        let far = SimTime(60_000_000);
        assert!(rt.is_idle(), "fresh runtime");
        assert!(!SimRuntime::<&str, u32>::is_idle(&mut sim()), "never");

        // Two zero-latency messages wait on the ready FIFO; `next` hands
        // over the first.
        assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), 1).is_sent());
        assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), 2).is_sent());
        assert!(!rt.is_idle(), "two messages are ready");
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 1, .. }))
        ));
        assert!(!rt.is_idle(), "one message is ready");
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 2, .. }))
        ));
        assert!(rt.is_idle());

        // On a delayed link: in flight until its delivery is taken.
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 3).is_sent());
        assert!(
            rt.network().ledger().in_flight() > 0 && !rt.is_idle(),
            "on a link"
        );
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 3, .. }))
        ));
        assert!(rt.is_idle());

        // A due timer, and one that is not.
        rt.schedule(rt.now(), "due");
        assert!(!rt.is_idle(), "a timer is due");
        assert!(matches!(rt.next(far), Some((_, Step::Timer("due")))));
        rt.schedule(far, "later");
        assert!(rt.is_idle(), "the only timer is a minute away");

        // A landed completion is a step until `next` hands it over.
        let (_dir, _wal, batch) = sealed_batch("idle");
        rt.flush(vec![(SiteId(1), batch)]);
        assert!(!rt.is_idle(), "a completion waits");
        assert!(matches!(
            rt.next(far),
            Some((
                _,
                Step::Durable {
                    site: SiteId(1),
                    ..
                }
            ))
        ));
        assert!(rt.is_idle());
    }

    /// A severed batch written inline reports `ok = false` and poisons its
    /// own log only: the other log of the same flush point lands.
    #[test]
    fn severed_inline_batch_poisons_only_its_log() {
        let mut rt = threaded(20);
        let (_dir0, wal0, mut severed) = sealed_batch("severed");
        severed.sever(0).unwrap();
        let (_dir1, wal1, batch) = sealed_batch("healthy");
        rt.flush(vec![(SiteId(0), severed), (SiteId(1), batch)]);
        assert!(wal0.is_dead(), "the inline write failed");
        let far = SimTime(60_000_000);
        let mut completions = Vec::new();
        while let Some((_, Step::Durable { site, ok, .. })) = rt.next(far) {
            completions.push((site, ok));
        }
        assert_eq!(completions, [(SiteId(0), false), (SiteId(1), true)]);
        assert!(!wal1.is_dead());
        assert_eq!(wal1.durable_ticket(), wal1.append_ticket());
    }

    /// Flush points that each seal one log spawn no helper; a three-log
    /// flush point spawns two, and the next one reuses them.
    #[test]
    fn helpers_are_spawned_once_per_extra_log() {
        let mut rt = threaded(20);
        let logs: Vec<_> = (0..3).map(|i| sealed_batch(&format!("solo-{i}"))).collect();
        let mut wals = Vec::new();
        for (i, (dir, mut wal, batch)) in logs.into_iter().enumerate() {
            let site = SiteId(i as u32);
            rt.flush(vec![(site, batch)]);
            wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(2))));
            rt.flush(vec![(site, wal.seal_batch().unwrap())]);
            assert_eq!(wal.durable_ticket(), wal.append_ticket());
            wals.push((dir, wal));
        }
        assert_eq!(rt.helpers.len(), 0, "a helper was spawned");
        for _ in 0..2 {
            let batches = wals.iter_mut().enumerate().map(|(i, (_, wal))| {
                wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(3))));
                (SiteId(i as u32), wal.seal_batch().unwrap())
            });
            rt.flush(batches.collect());
            assert_eq!(rt.helpers.len(), 2);
            for (_, wal) in &wals {
                assert_eq!(wal.durable_ticket(), wal.append_ticket());
            }
        }
        let mut completions = 0;
        while let Some((_, Step::Durable { ok: true, .. })) = rt.next(SimTime(60_000_000)) {
            completions += 1;
        }
        assert_eq!(completions, 12);
    }

    #[test]
    fn threaded_does_not_quiesce_with_message_in_flight() {
        let transport = ThreadedTransport::new(NetworkConfig::fixed(Duration::millis(40)));
        let mut rt: ThreadedRuntime<&'static str, u32> = ThreadedRuntime::new(
            transport,
            ThreadedRuntimeConfig {
                idle_grace: StdDuration::from_millis(5),
            },
        );
        rt.register_endpoint(SiteId(0));
        rt.register_endpoint(SiteId(1));
        // Latency (40ms) far exceeds idle_grace (5ms); in-flight tracking
        // must keep the runtime alive until the delivery lands.
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 1).is_sent());
        let got = rt.next(SimTime(60_000_000));
        assert!(matches!(
            got,
            Some((
                _,
                Step::Deliver {
                    to: SiteId(1),
                    msg: 1
                }
            ))
        ));
    }

    /// Reliable zero-latency links, but 0 → 1 takes `ms` milliseconds.
    fn slow_link(ms: u64) -> NetworkConfig {
        let mut config = NetworkConfig::fixed(Duration::ZERO);
        let slow = LatencyModel::Fixed(Duration::millis(ms));
        config.link_latency.insert((SiteId(0), SiteId(1)), slow);
        config
    }

    /// A runtime on `config`'s links, with sites 0–2 registered.
    fn on_links(config: NetworkConfig) -> ThreadedRuntime<&'static str, u32> {
        let mut rt = ThreadedRuntime::new(
            ThreadedTransport::new(config),
            ThreadedRuntimeConfig {
                idle_grace: StdDuration::from_millis(20),
            },
        );
        for id in 0..3 {
            rt.register_endpoint(SiteId(id));
        }
        rt
    }

    /// Every message delivered until the runtime quiesces, in order.
    fn drain(rt: &mut ThreadedRuntime<&'static str, u32>) -> Vec<u32> {
        let mut got = Vec::new();
        while let Some((_, step)) = rt.next(SimTime(60_000_000)) {
            match step {
                Step::Deliver { msg, .. } => got.push(msg),
                other => panic!("unexpected step {other:?}"),
            }
        }
        got
    }

    #[test]
    fn latency_preserves_send_order_on_a_link() {
        let mut rt = on_links(NetworkConfig::fixed(Duration::millis(5)));
        let start = std::time::Instant::now();
        for i in 0..50 {
            assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), i).is_sent());
        }
        assert!(matches!(
            rt.next(SimTime(60_000_000)),
            Some((_, Step::Deliver { msg: 0, .. }))
        ));
        assert!(start.elapsed() >= StdDuration::from_millis(4), "delayed");
        assert_eq!(drain(&mut rt), (1..50).collect::<Vec<_>>());
    }

    /// A slow link delays only itself: the default link's message is ready
    /// at once, the slow one arrives after its latency.
    #[test]
    fn per_link_policy_delays_only_its_link() {
        let mut rt = on_links(slow_link(25));
        let start = std::time::Instant::now();
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 1).is_sent());
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(2), 2).is_sent());
        let far = SimTime(60_000_000);
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 2, .. }))
        ));
        assert!(start.elapsed() < StdDuration::from_millis(20), "not held");
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 1, .. }))
        ));
        assert!(start.elapsed() >= StdDuration::from_millis(20), "delayed");
    }

    #[test]
    fn duplication_delivers_twice_and_counts() {
        let mut rt = on_links(NetworkConfig {
            duplicate_probability: 1.0,
            ..NetworkConfig::fixed(Duration::millis(2))
        });
        for i in 0..10 {
            assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), i).is_sent());
        }
        // A duplicate is counted apart from the send it copies.
        let ledger = rt.network().ledger();
        assert_eq!(
            (ledger.sent, ledger.duplicated, ledger.in_flight()),
            (10, 10, 20)
        );
        let twice: Vec<u32> = (0..10).flat_map(|i| [i, i]).collect();
        assert_eq!(drain(&mut rt), twice);
        assert_eq!(rt.network().ledger().in_flight(), 0);
    }

    /// `sent + duplicated = dropped + unroutable + delivered + in_flight`
    /// mid-run and at the end, on lossy, duplicating, delayed links with
    /// same-site and unroutable sends mixed in; the in-flight count agrees
    /// with the messages the caller is owed.
    #[test]
    fn ledger_balances_mid_run_and_at_the_end() {
        let mut rt = on_links(NetworkConfig {
            drop_probability: 0.2,
            duplicate_probability: 0.2,
            ..NetworkConfig::fixed(Duration::micros(300))
        });
        let far = SimTime(60_000_000);
        let (mut accepted, mut received) = (0u64, 0u64);
        let check = |rt: &ThreadedRuntime<&'static str, u32>, accepted: u64, received: u64| {
            let ledger = rt.network().ledger();
            assert_eq!(ledger.sent, accepted + ledger.dropped + ledger.unroutable);
            assert_eq!(ledger.in_flight(), accepted + ledger.duplicated - received);
            assert_eq!(ledger.delivered, received);
        };
        for i in 0..400u32 {
            let to = SiteId(if i % 50 == 0 { 7 } else { i % 3 });
            accepted += rt.send(SimTime::ZERO, SiteId(1), to, i).is_sent() as u64;
            if i % 4 == 3 && rt.network().ledger().in_flight() > 0 {
                assert!(matches!(rt.next(far), Some((_, Step::Deliver { .. }))));
                received += 1;
            }
            check(&rt, accepted, received);
        }
        received += drain(&mut rt).len() as u64;
        check(&rt, accepted, received);
        let ledger = rt.network().ledger();
        assert_eq!(ledger.in_flight(), 0);
        assert_eq!(ledger.unroutable, 8);
        assert!(ledger.dropped > 0 && ledger.duplicated > 0);
    }
}

//! The engine-facing runtime: timers + messages in one time-ordered stream.

use crate::clock::{Clock, WallClock};
use crate::flush::FlushScheduler;
use crate::heap::EventHeap;
use crate::transport::ThreadedTransport;
use o2pc_common::{Duration, SimTime, SiteId};
use o2pc_sim::{EventQueue, Network, SendOutcome};
use o2pc_storage::FlushBatch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
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

/// A completion the flusher pool reported: site, ticket, ok, and how many
/// of the site's pooled batches it settles.
type Pooled = (SiteId, u64, bool, usize);

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
    /// number of logs it sealed. Batches of one site complete in the order
    /// they were handed over; the runtime does not quiesce while a
    /// completion is owed, and holds no batch between calls, so a wait on
    /// a log's watermark never waits on the caller's own thread.
    fn flush(&mut self, batches: Vec<(SiteId, FlushBatch)>);

    /// Would [`next`](Runtime::next) park right now — nothing sent and not
    /// yet delivered, nothing delivered or completed and not yet handed
    /// over (a flush that landed during [`flush`](Runtime::flush) counts as
    /// completed), no timer due? Only a completion owed by another thread
    /// or the passing of time can then produce the next step. Never true on
    /// a substrate that does not wait (the simulator jumps to its next
    /// event), so asking cannot move a seeded run.
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
    /// How long `next` waits with nothing queued, ready or owed before
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
/// The disk is the calling thread plus a pool of flusher threads.
/// [`flush`](Runtime::flush) writes and fsyncs one log of each flush point
/// itself — the first log with no batch in the pool — and hands every
/// other log to the pool first, so the pool's fsyncs overlap its own. A
/// log with a batch still in the pool always goes there too, behind it:
/// one log's batches land in seal order. An inline completion waits in
/// the runtime for `next`, like a pooled one. The pool is sharded, with
/// fsync coalescing and one shard per registered endpoint (1–4), and is
/// spawned by the first flush point that holds two or more logs; a run
/// whose flush points each seal one log never starts a thread. A shard
/// reports each burst it completes on the one channel `next` blocks on.
/// Writing one log here costs its fsync's latency on this thread, but
/// saves the two thread wake-ups a pooled flush costs, which on a small
/// machine cost more CPU than the fsync (DESIGN §9).
///
/// Quiescence: `next` returns `None` once the deadline passes, or after
/// `idle_grace` with no timer or delayed message queued, nothing ready, and
/// no flush completion owed or waiting.
pub struct ThreadedRuntime<T, M> {
    clock: WallClock,
    network: Network,
    /// Accepted copies with no delay, in send order.
    staged: VecDeque<(SiteId, M)>,
    /// Timers and delayed deliveries, in the simulator's queue discipline
    /// on a heap: `(due, seq)` order, FIFO among equal due times — so
    /// equal-latency sends on one link arrive in send order.
    events: EventHeap<Step<T, M>>,
    endpoints: usize,
    flusher: Option<FlushScheduler>,
    /// Per site index: batches handed to the pool whose completion `next`
    /// has not received yet. A site with any is not written inline.
    pooled: Vec<usize>,
    /// Completions of batches written on this thread, for `next`.
    landed: VecDeque<Completion>,
    /// The channel the flusher reports completions on.
    done_tx: Sender<Pooled>,
    done: Receiver<Pooled>,
    /// Completions reported and not yet received: `next` reads the channel
    /// only when this is non-zero, so looking costs one atomic load.
    unread: Arc<AtomicUsize>,
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
        let (done_tx, done) = channel();
        ThreadedRuntime {
            clock: WallClock::new(),
            network: transport.network,
            staged: VecDeque::new(),
            events: EventHeap::new(),
            endpoints: 0,
            flusher: None,
            pooled: Vec::new(),
            landed: VecDeque::new(),
            done_tx,
            done,
            unread: Arc::new(AtomicUsize::new(0)),
            cfg,
        }
    }

    /// How the flusher reports a completion: counted as unread, then sent —
    /// both before the flusher settles what it owed, so a loop that reads
    /// "nothing owed" finds every report on the channel.
    fn reporter(&self) -> impl Fn(SiteId, u64, bool, usize) + Clone + Send + 'static {
        let (done, unread) = (self.done_tx.clone(), Arc::clone(&self.unread));
        move |site, ticket, ok, batches| {
            unread.fetch_add(1, Ordering::SeqCst);
            // A send fails only when the runtime is gone: nobody is left to tell.
            let _ = done.send((site, ticket, ok, batches));
        }
    }

    /// A reported completion, if one is waiting.
    fn take_completion(&mut self) -> Option<Step<T, M>> {
        if self.unread.load(Ordering::SeqCst) == 0 {
            return None;
        }
        // Empty while the reporter is between its count and its send; the
        // next call finds it.
        let done = self.done.try_recv().ok()?;
        Some(self.completion(done))
    }

    /// A pooled completion, received: the batches it settles leave the pool.
    /// Counted, not compared by ticket: a log reopened after a failure
    /// restarts its tickets below the dead log's.
    fn completion(&mut self, (site, ticket, ok, batches): Pooled) -> Step<T, M> {
        self.unread.fetch_sub(1, Ordering::SeqCst);
        self.pooled[site.index()] -= batches;
        Step::Durable { site, ticket, ok }
    }

    fn flush_owed(&self) -> usize {
        self.flusher.as_ref().map_or(0, FlushScheduler::owed)
    }

    /// Does `site` have a batch in the pool that `next` has not yet
    /// reported complete?
    fn in_pool(&self, site: SiteId) -> bool {
        self.pooled.get(site.index()).is_some_and(|&n| n > 0)
    }

    /// Hand `batch` to the flusher pool, spawning it first if need be.
    /// Gives the batch back when no flusher thread could be spawned.
    fn submit(&mut self, site: SiteId, batch: FlushBatch) -> Result<(), FlushBatch> {
        if self.flusher.is_none() {
            let shards = self.endpoints.clamp(1, 4);
            self.flusher = FlushScheduler::spawn(shards, self.reporter()).ok();
        }
        let Some(pool) = &self.flusher else {
            return Err(batch);
        };
        pool.submit(site, batch);
        if self.pooled.len() <= site.index() {
            self.pooled.resize(site.index() + 1, 0);
        }
        self.pooled[site.index()] += 1;
        Ok(())
    }

    /// Write and fsync `site`'s batches on this thread; the completion
    /// waits in `landed` for `next`. A failed write has poisoned the log's
    /// watermark, and the completion says so.
    fn land(&mut self, site: SiteId, batches: Vec<FlushBatch>) {
        let Some(last) = batches.last() else {
            return;
        };
        let (ticket, progress) = (last.ticket(), last.progress());
        let _ = FlushBatch::execute_all(batches);
        self.landed
            .push_back((site, ticket, !progress.is_poisoned()));
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
        self.endpoints += 1;
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
        // The log written here: the first with nothing in the pool, which
        // it would otherwise overtake.
        let own = batches
            .iter()
            .map(|&(site, _)| site)
            .find(|&site| !self.in_pool(site));
        let mut inline = Vec::new();
        for (site, batch) in batches {
            if Some(site) == own {
                inline.push(batch);
            } else if let Err(batch) = self.submit(site, batch) {
                // No flusher thread could be spawned: this log is written
                // here too.
                self.land(site, vec![batch]);
            }
        }
        // Last, so the pool's fsyncs run while this thread does its own.
        if let Some(site) = own {
            self.land(site, inline);
        }
    }

    fn is_idle(&mut self) -> bool {
        // Every accepted message, ready or delayed, is in flight until
        // `next` hands it over.
        self.network.ledger().in_flight() == 0
            && self.landed.is_empty()
            && self.unread.load(Ordering::SeqCst) == 0
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
            // A due timer or delayed delivery first, then a completion —
            // landed here or reported by the pool, before any ready
            // delivery, since each releases promises those messages may be
            // waiting on — then the ready FIFO. Under load the loop spins
            // here without a syscall.
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
            if let Some(done) = self.take_completion() {
                return Some((now, done));
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
            // The runtime holds a sender, so the channel never disconnects:
            // an error is a timeout.
            if let Ok(done) = self.done.recv_timeout(wait) {
                let step = self.completion(done);
                return Some((self.clock.now(), step));
            }
            // Quiescence: the engine, the only sender, is blocked right here,
            // so with nothing queued and no completion owed no step can ever
            // arrive again. Every completion settled before the owed count
            // read zero is already on the channel.
            if self.events.is_empty() && self.flush_owed() == 0 {
                let done = self.take_completion();
                return done.map(|step| (self.clock.now(), step));
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

    /// A flusher pool whose reports take `delay` to leave it: long enough
    /// for the loop to park (or to time out) while the completion is owed.
    fn slow_flusher(rt: &mut ThreadedRuntime<&'static str, u32>, delay: u64) {
        let report = rt.reporter();
        let flusher = FlushScheduler::spawn(1, move |site, ticket, ok, batches| {
            std::thread::sleep(StdDuration::from_millis(delay));
            report(site, ticket, ok, batches);
        });
        rt.flusher = Some(flusher.unwrap());
    }

    /// A flush point of two logs, on sites 0 and `pooled`: site 0's batch
    /// is written inline, the other goes to the pool. Returns site 0's
    /// completion, which `next` hands over first, and the pooled log.
    fn flush_two_logs(
        rt: &mut ThreadedRuntime<&'static str, u32>,
        name: &str,
        pooled: SiteId,
    ) -> ((ScratchDir, Wal), (ScratchDir, Wal)) {
        let (dir0, wal0, inline) = sealed_batch(&format!("{name}-inline"));
        let (dir1, wal1, batch) = sealed_batch(&format!("{name}-pooled"));
        rt.flush(vec![(SiteId(0), inline), (pooled, batch)]);
        assert_eq!(wal0.durable_ticket(), wal0.append_ticket(), "inline");
        ((dir0, wal0), (dir1, wal1))
    }

    /// A flush completion wakes a `next` that is blocked on the channel
    /// (the grace period here is far longer than the test), and reports the
    /// ticket the pooled batch made durable; the inline log's completion
    /// comes first, without a wait.
    #[test]
    fn flush_completion_wakes_blocked_next() {
        let mut rt = threaded(10_000);
        slow_flusher(&mut rt, 20); // let `next` park first
        let (_inline, (_dir, wal)) = flush_two_logs(&mut rt, "wake", SiteId(2));
        let far = SimTime(60_000_000);
        assert!(matches!(
            rt.next(far),
            Some((
                _,
                Step::Durable {
                    site: SiteId(0),
                    ok: true,
                    ..
                }
            ))
        ));
        let start = std::time::Instant::now();
        let got = rt.next(far);
        let ticket = wal.append_ticket();
        assert!(
            matches!(got, Some((_, Step::Durable { site: SiteId(2), ticket: t, ok: true })) if t == ticket),
            "{got:?}"
        );
        assert_eq!(wal.durable_ticket(), ticket, "reported after the fsync");
        assert!(
            start.elapsed() < StdDuration::from_secs(5),
            "woken, not timed out"
        );
    }

    /// An owed completion holds off quiescence: `next` waits out the
    /// deadline, not `idle_grace`, and once the completion is reported it is
    /// returned before the runtime may report `None`.
    #[test]
    fn threaded_does_not_quiesce_while_a_flush_is_owed() {
        let mut rt = threaded(2);
        slow_flusher(&mut rt, 150);
        let _logs = flush_two_logs(&mut rt, "owed", SiteId(1));
        let deadline = rt.now() + Duration::millis(60);
        assert!(matches!(
            rt.next(deadline),
            Some((
                _,
                Step::Durable {
                    site: SiteId(0),
                    ..
                }
            ))
        ));
        assert!(rt.next(deadline).is_none());
        assert!(
            rt.now() > deadline,
            "gave up at the deadline, not after 2 ms"
        );
        let far = SimTime(60_000_000);
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
        assert!(rt.next(far).is_none(), "nothing owed any more: quiescent");
    }

    /// A ready FIFO that never empties cannot starve a completion: while
    /// every `next` delivers one message and its handler sends the next, a
    /// slow pooled flush completes, and `Step::Durable` comes out within a
    /// step of being reported. The inline log's completion is the first
    /// step of all.
    #[test]
    fn ready_fifo_cannot_starve_a_completion() {
        let mut rt = threaded(10_000);
        slow_flusher(&mut rt, 20);
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 0).is_sent());
        let _logs = flush_two_logs(&mut rt, "starve", SiteId(2));
        let far = SimTime(60_000_000);
        assert!(matches!(
            rt.next(far),
            Some((
                _,
                Step::Durable {
                    site: SiteId(0),
                    ok: true,
                    ..
                }
            ))
        ));
        let start = std::time::Instant::now();
        let mut since_reported = 0;
        loop {
            match rt.next(far) {
                Some((_, Step::Deliver { msg, .. })) => {
                    assert!(rt
                        .send(SimTime::ZERO, SiteId(0), SiteId(1), msg + 1)
                        .is_sent());
                }
                Some((
                    _,
                    Step::Durable {
                        site: SiteId(2),
                        ok: true,
                        ..
                    },
                )) => break,
                other => panic!("unexpected step {other:?}"),
            }
            // The reporter has sent its completion once nothing is owed.
            if rt.flush_owed() == 0 {
                since_reported += 1;
            }
            assert!(
                since_reported <= 2 && start.elapsed() < StdDuration::from_secs(5),
                "completion starved behind the ready FIFO"
            );
        }
        assert_eq!(
            rt.network().ledger().in_flight(),
            1,
            "the chain's next message"
        );
    }

    /// Idle means "`next` would park": any work the loop can still reach
    /// without waiting — a ready message, a delayed one, a due timer, a
    /// completion landed inline or reported by the pool — denies it; an
    /// owed completion, which only another thread can turn into a step,
    /// does not.
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

        // A landed completion is a step; an owed one leaves the loop idle;
        // a reported one is a step.
        slow_flusher(&mut rt, 30);
        let _logs = flush_two_logs(&mut rt, "idle", SiteId(1));
        assert!(!rt.is_idle(), "the inline completion is a step");
        assert!(matches!(
            rt.next(far),
            Some((
                _,
                Step::Durable {
                    site: SiteId(0),
                    ..
                }
            ))
        ));
        assert!(rt.is_idle(), "only a completion is owed");
        while rt.flush_owed() > 0 {
            std::thread::sleep(StdDuration::from_millis(1));
        }
        assert!(!rt.is_idle(), "the completion is a step now");
    }

    /// A one-log flush point lands before `flush` returns, on the calling
    /// thread, and `next` hands its completion over before a ready
    /// delivery that was sent earlier.
    #[test]
    fn one_log_flush_lands_inline_and_reports_before_ready_deliveries() {
        let mut rt = threaded(20);
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 7).is_sent());
        let (_dir, wal, batch) = sealed_batch("inline");
        let ticket = wal.append_ticket();
        rt.flush(vec![(SiteId(2), batch)]);
        assert_eq!(wal.durable_ticket(), ticket, "landed when flush returned");
        let far = SimTime(60_000_000);
        let got = rt.next(far);
        assert!(
            matches!(got, Some((_, Step::Durable { site: SiteId(2), ticket: t, ok: true })) if t == ticket),
            "{got:?}"
        );
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 7, .. }))
        ));
        assert!(rt.next(far).is_none());
    }

    /// Per-log order: a log with a batch in the pool is not written inline,
    /// even alone in its flush point. Its later batch goes behind the
    /// pooled one, and completes after it.
    #[test]
    fn a_log_with_a_pooled_batch_is_not_written_inline() {
        let mut rt = threaded(20);
        slow_flusher(&mut rt, 50);
        let (_inline, (_dir, mut wal)) = flush_two_logs(&mut rt, "order", SiteId(1));
        let first = wal.append_ticket();
        wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(2))));
        let second = wal.append_ticket();
        rt.flush(vec![(SiteId(1), wal.seal_batch().unwrap())]);
        assert!(wal.durable_ticket() < second, "written inline");
        let far = SimTime(60_000_000);
        let mut completions = Vec::new();
        while let Some((_, step)) = rt.next(far) {
            let Step::Durable { site, ticket, ok } = step else {
                panic!("unexpected step {step:?}");
            };
            assert!(ok);
            completions.push((site, ticket));
        }
        let t0 = completions[0].1;
        let pooled = &completions[1..];
        assert_eq!(completions[0], (SiteId(0), t0), "the inline log first");
        assert!(
            pooled == [(SiteId(1), first), (SiteId(1), second)] || pooled == [(SiteId(1), second)],
            "{completions:?}"
        );
        assert_eq!(wal.durable_ticket(), second);
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

    /// Flush points that each seal one log never spawn the flusher pool.
    #[test]
    fn one_log_flush_points_never_spawn_the_pool() {
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
        assert!(rt.flusher.is_none(), "a flusher thread was spawned");
        let mut completions = 0;
        while let Some((_, Step::Durable { ok: true, .. })) = rt.next(SimTime(60_000_000)) {
            completions += 1;
        }
        assert_eq!(completions, 6);
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

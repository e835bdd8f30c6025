//! The engine-facing runtime: timers + messages in one time-ordered stream.

use crate::clock::{Clock, WallClock};
use crate::flush::FlushScheduler;
use crate::transport::{Batch, Envelope, Judgement, SendOutcome, ThreadedTransport, Transport};
use o2pc_common::{Duration, SimTime, SiteId};
use o2pc_sim::{EventQueue, Network};
use o2pc_storage::FlushBatch;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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

/// A reported flush completion: site, ticket, ok.
type Completion = (SiteId, u64, bool);

/// What the engine needs from a substrate: a clock, timers, a message
/// transport, a disk, and a single stream of [`Step`]s in time order.
///
/// `T` is the engine's timer payload, `M` its message type. The engine never
/// sees queues, channels, or threads — it schedules, sends, and pulls the
/// next step until `next` returns `None` (past `deadline`, or quiescent).
pub trait Runtime<T, M>: Clock {
    /// Called once per site while the engine is constructed; transports that
    /// need explicit endpoints register a mailbox here.
    fn register_endpoint(&mut self, _id: SiteId) {}

    /// Arrange for `timer` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, timer: T);

    /// Send `msg` from `from` to `to`; `now` is the sender's current time.
    /// The [`SendOutcome`] says how the substrate treated the message at
    /// send time: accepted, dropped by the link's loss policy, or refused
    /// because the destination is unreachable.
    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome;

    /// Pull the next step at or before `deadline`. `None` means the run is
    /// over: the next step (if any) lies beyond the deadline, or the
    /// substrate has quiesced with nothing in flight.
    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)>;

    /// Messages lost in transit so far.
    fn messages_dropped(&self) -> u64;

    /// Write and fsync `site`'s sealed batch, then report it as a
    /// [`Step::Durable`]. Batches of one site complete in the order they
    /// were handed over; the runtime does not quiesce while one is owed.
    fn flush(&mut self, site: SiteId, batch: FlushBatch);

    /// Would [`next`](Runtime::next) park right now — nothing sent and not
    /// yet delivered, nothing delivered or completed and not yet handed
    /// over, no timer due? Only an owed flush completion or the passing of
    /// time can then produce the next step. Never true on a substrate that
    /// does not wait (the simulator jumps to its next event), so asking
    /// cannot move a seeded run.
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
/// sim-`Clock` with a sim-`Transport`.
///
/// Its disk is modelled: [`flush`](Runtime::flush) writes and fsyncs the
/// batch at once, so every barrier that consults the physical log (the crash
/// transform, compaction, end of run) finds it landed, and reports the
/// completion [`FSYNC_LATENCY`](SimRuntime::FSYNC_LATENCY) later in virtual
/// time.
#[derive(Debug)]
pub struct SimRuntime<T, M> {
    queue: EventQueue<Step<T, M>>,
    network: Network,
    /// Deliveries popped so far (network + same-site + duplicates).
    delivered: u64,
    /// Deliveries scheduled but not yet popped.
    in_flight_msgs: u64,
    /// Same-site sends (bypass the network, so its counters miss them).
    local_sends: u64,
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
            delivered: 0,
            in_flight_msgs: 0,
            local_sends: 0,
        }
    }

    /// The simulated network (link state, send/drop counts).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Pending steps (timers + in-flight messages).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Deliveries handed to the engine so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages scheduled for delivery but not yet delivered. Together with
    /// the network counters this closes the conservation equation:
    /// `sent + local_sends + duplicated = delivered + dropped + in_flight`.
    pub fn in_flight_messages(&self) -> u64 {
        self.in_flight_msgs
    }

    /// Same-site sends (never counted by the network).
    pub fn local_send_count(&self) -> u64 {
        self.local_sends
    }
}

impl<T, M> Clock for SimRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.queue.now()
    }
}

impl<T, M: Clone> Runtime<T, M> for SimRuntime<T, M> {
    fn schedule(&mut self, at: SimTime, timer: T) {
        self.queue.schedule(at, Step::Timer(timer));
    }

    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        if from == to {
            // Same-site messages skip the network (no latency, no loss).
            self.local_sends += 1;
            self.in_flight_msgs += 1;
            self.queue.schedule(now, Step::Deliver { to, msg });
            return SendOutcome::Sent;
        }
        match self.network.transmit(from, to, now) {
            Some(delay) => {
                // Chaos duplication: the same message may arrive twice, with
                // independently sampled latencies (so it can also reorder).
                if let Some(dup_delay) = self.network.maybe_duplicate(from, to, now) {
                    self.in_flight_msgs += 1;
                    self.queue.schedule(
                        now + dup_delay,
                        Step::Deliver {
                            to,
                            msg: msg.clone(),
                        },
                    );
                }
                self.in_flight_msgs += 1;
                self.queue.schedule(now + delay, Step::Deliver { to, msg });
                SendOutcome::Sent
            }
            // Link down or random drop — the simulated network has no
            // notion of an unknown destination, so every loss is policy
            // (and the network's own dropped counter records it).
            None => SendOutcome::DroppedByPolicy,
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        let t = self.queue.peek_time()?;
        if t > deadline {
            return None; // left in the queue: a later run() call may resume
        }
        let popped = self.queue.pop();
        if let Some((_, Step::Deliver { .. })) = &popped {
            self.in_flight_msgs -= 1;
            self.delivered += 1;
        }
        popped
    }

    fn messages_dropped(&self) -> u64 {
        self.network.dropped_count()
    }

    fn flush(&mut self, site: SiteId, batch: FlushBatch) {
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

// ---------------------------------------------------------------------------
// Threaded wall-clock backend
// ---------------------------------------------------------------------------

/// Tuning knobs for [`ThreadedRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedRuntimeConfig {
    /// How long `next` waits with no due timer and nothing in flight before
    /// declaring the run quiescent. Pure slack for OS scheduling jitter —
    /// in-flight messages are tracked exactly, so this does not need to
    /// cover transport latency.
    pub idle_grace: StdDuration,
}

impl Default for ThreadedRuntimeConfig {
    fn default() -> Self {
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(50),
        }
    }
}

/// Judged envelopes bound for one destination, each with its link latency.
type Burst<M> = Vec<(StdDuration, Envelope<M>)>;

/// Wall-clock execution over a [`ThreadedTransport`].
///
/// Timers fire on real elapsed time (via [`WallClock`]); messages travel
/// through the transport's per-site delivery workers with real latency. All
/// registered endpoints funnel into one batch inbox, so a single engine
/// loop drives every site while delivery timing stays genuinely concurrent.
/// Outcomes are schedule-dependent — the wall-clock twin of a simulated run
/// checks invariants, not byte equality.
///
/// Sends are **coalesced**: `send` judges the message immediately (route
/// lookup, loss/duplication sampling — so the caller gets an honest
/// [`SendOutcome`]) but buffers accepted envelopes in a per-destination
/// outbox; the next call into `next` flushes each destination's burst as a
/// single transport handoff. A coordinator answering a VOTE-REQ fan-in
/// therefore pays one channel operation per peer site, not one per message.
///
/// The disk is a sharded pool of flusher threads with fsync coalescing,
/// spawned by the first [`flush`](Runtime::flush) with one shard per
/// registered endpoint, 1–4. A shard reports each burst it completes, and
/// the report wakes the loop like a delivery.
///
/// Quiescence: `next` returns `None` once the deadline passes, or when no
/// timer is pending, the transport reports nothing in flight, no flush
/// completion is owed, and no message arrives within `idle_grace`.
pub struct ThreadedRuntime<T, M> {
    clock: WallClock,
    transport: ThreadedTransport<M>,
    inbox_tx: Sender<Batch<M>>,
    inbox: Receiver<Batch<M>>,
    endpoints: usize,
    flusher: Option<FlushScheduler>,
    /// Completions reported by the flusher; read only when an empty batch
    /// on the inbox says there is something to read.
    done_tx: Sender<Completion>,
    done: Receiver<Completion>,
    /// Reported completions not yet handed to the engine.
    completed: VecDeque<Completion>,
    /// Delivered batches not yet handed to the engine, in arrival order.
    staged: VecDeque<Envelope<M>>,
    /// Judged-but-unflushed sends, one slot per destination ever sent to
    /// (a handful: found by scanning, and a slot's bucket keeps its
    /// capacity across flushes). The insertion order within one
    /// destination is send order (per-link FIFO); flush order across
    /// destinations is round-ordered by first use.
    outbox: Vec<(SiteId, Burst<M>)>,
    /// Occupied outbox slots in first-send order so flushing is
    /// deterministic per round and every occupied slot is visited.
    outbox_order: Vec<usize>,
    /// Pending timers, in the simulator's queue discipline: `(due, seq)`
    /// order, FIFO among equal due times.
    timers: EventQueue<T>,
    cfg: ThreadedRuntimeConfig,
}

impl<T, M: Clone + Send + 'static> Default for ThreadedRuntime<T, M> {
    fn default() -> Self {
        Self::new(
            ThreadedTransport::default(),
            ThreadedRuntimeConfig::default(),
        )
    }
}

impl<T, M: Clone + Send + 'static> ThreadedRuntime<T, M> {
    /// Build on a transport; the clock's epoch (time zero) is *now*.
    pub fn new(transport: ThreadedTransport<M>, cfg: ThreadedRuntimeConfig) -> Self {
        let (inbox_tx, inbox) = channel();
        let (done_tx, done) = channel();
        ThreadedRuntime {
            clock: WallClock::new(),
            transport,
            inbox_tx,
            inbox,
            endpoints: 0,
            flusher: None,
            done_tx,
            done,
            completed: VecDeque::new(),
            staged: VecDeque::new(),
            outbox: Vec::new(),
            outbox_order: Vec::new(),
            timers: EventQueue::new(),
            cfg,
        }
    }

    /// The underlying transport (link policies, traffic counters).
    pub fn transport(&self) -> &ThreadedTransport<M> {
        &self.transport
    }

    /// Hand every buffered burst to the transport — one `deliver_many` per
    /// destination with traffic.
    fn flush_outbox(&mut self) {
        for slot in self.outbox_order.drain(..) {
            let (to, bucket) = &mut self.outbox[slot];
            self.transport.deliver_many(*to, bucket.drain(..));
        }
    }

    /// Stage one batch off the inbox. The transport never delivers an empty
    /// batch, so one is the flusher's wake-up: whatever it reported is
    /// staged as completed.
    fn stage(&mut self, batch: Batch<M>) {
        if batch.is_empty() {
            self.completed.extend(self.done.try_iter());
        } else {
            self.staged.extend(batch);
        }
    }

    /// Stage every batch already on the inbox, without blocking.
    fn drain_inbox(&mut self) {
        while let Ok(batch) = self.inbox.try_recv() {
            self.stage(batch);
        }
    }

    /// How the flusher reports a completion: on its channel, then an empty
    /// batch to wake the loop — before the flusher settles what it owed, so
    /// a loop that reads "nothing owed" finds the report on its inbox.
    fn reporter(&self) -> impl Fn(SiteId, u64, bool) + Clone + Send + 'static {
        let (done, wake) = (self.done_tx.clone(), self.inbox_tx.clone());
        move |site, ticket, ok| {
            // A send fails only when the runtime is gone: nobody is left to tell.
            let _ = done.send((site, ticket, ok));
            let _ = wake.send(Vec::new());
        }
    }

    fn flush_owed(&self) -> usize {
        self.flusher.as_ref().map_or(0, FlushScheduler::owed)
    }

    fn push_timer(&mut self, at: SimTime, timer: T) {
        // On a wall clock a caller may name an instant the queue has already
        // moved past; such a timer is simply due now.
        self.timers.schedule(at.max(self.timers.now()), timer);
    }
}

impl<T, M: Clone + Send + 'static> Clock for ThreadedRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

impl<T, M: Clone + Send + 'static> Runtime<T, M> for ThreadedRuntime<T, M> {
    fn register_endpoint(&mut self, id: SiteId) {
        self.transport.attach(id, self.inbox_tx.clone());
        self.endpoints += 1;
    }

    fn schedule(&mut self, at: SimTime, timer: T) {
        self.push_timer(at, timer);
    }

    fn flush(&mut self, site: SiteId, batch: FlushBatch) {
        if self.flusher.is_none() {
            let shards = self.endpoints.clamp(1, 4);
            self.flusher = Some(FlushScheduler::spawn(shards, self.reporter()));
        }
        if let Some(f) = &self.flusher {
            f.submit(site, batch);
        }
    }

    fn is_idle(&mut self) -> bool {
        // An accepted send is in flight from the moment it is judged, so the
        // count covers the unflushed outbox as well as the links. It is read
        // before the inbox is drained: a delivery leaves the count only
        // after its batch is on the inbox.
        if !self.staged.is_empty() || !self.completed.is_empty() || self.transport.in_flight() > 0 {
            return false;
        }
        self.drain_inbox();
        let now = self.clock.now();
        self.staged.is_empty()
            && self.completed.is_empty()
            && self.timers.peek_time().is_none_or(|due| due > now)
    }

    fn send(&mut self, _now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        // Unlike the simulator, same-site messages take the transport path
        // too: a zero-latency link gives the same effect. The message is
        // judged now (honest outcome, counters updated) but the accepted
        // envelope rides the outbox until the next `next()` call, so a
        // burst to one destination is one transport handoff.
        match self.transport.judge(from, to) {
            Judgement::NoRoute => SendOutcome::NoRoute,
            Judgement::DropPolicy => SendOutcome::DroppedByPolicy,
            Judgement::Deliver { latency, duplicate } => {
                let slot = match self.outbox.iter().position(|(id, _)| *id == to) {
                    Some(slot) => slot,
                    None => {
                        self.outbox.push((to, Vec::new()));
                        self.outbox.len() - 1
                    }
                };
                let bucket = &mut self.outbox[slot].1;
                if bucket.is_empty() {
                    self.outbox_order.push(slot);
                }
                if duplicate {
                    bucket.push((
                        latency,
                        Envelope {
                            from,
                            to,
                            msg: msg.clone(),
                        },
                    ));
                }
                bucket.push((latency, Envelope { from, to, msg }));
                SendOutcome::Sent
            }
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        // Everything the engine sent while handling the previous step goes
        // out now, one batched handoff per destination.
        self.flush_outbox();
        loop {
            let now = self.clock.now();
            if now > deadline {
                return None;
            }
            // Fire a due timer before waiting on the inbox.
            if self.timers.peek_time().is_some_and(|due| due <= now) {
                let (_, timer) = self.timers.pop().expect("peeked");
                return Some((now, Step::Timer(timer)));
            }
            // Drain already-arrived traffic before parking: under load the
            // staging queue is usually non-empty, so the engine loop spins
            // without a single syscall. Completions go first: each releases
            // promises the delivered messages may be waiting on.
            if self.staged.is_empty() {
                self.drain_inbox();
            }
            if let Some((site, ticket, ok)) = self.completed.pop_front() {
                return Some((now, Step::Durable { site, ticket, ok }));
            }
            if let Some(env) = self.staged.pop_front() {
                let (to, msg) = (env.to, env.msg);
                return Some((now, Step::Deliver { to, msg }));
            }
            let until_deadline = self.clock.until(deadline);
            let wait = match self.timers.peek_time() {
                Some(due) => self.clock.until(due).min(until_deadline),
                None => self.cfg.idle_grace.min(until_deadline),
            };
            match self.inbox.recv_timeout(wait) {
                Ok(batch) => self.stage(batch),
                Err(RecvTimeoutError::Disconnected) => return None,
                // Quiescence check, unless a timer is (about to be) due. The
                // engine (our only sender) is blocked right here and the
                // outbox was flushed on entry, so if the transport has
                // nothing in flight, no flush completion is owed and nothing
                // is staged, no step can ever arrive again. Draining the
                // inbox also absorbs completions settled just before the
                // owed count was read.
                Err(RecvTimeoutError::Timeout) => {
                    if self.timers.is_empty()
                        && self.transport.in_flight() == 0
                        && self.flush_owed() == 0
                    {
                        self.drain_inbox();
                        if self.staged.is_empty() && self.completed.is_empty() {
                            return None;
                        }
                    }
                }
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.transport.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LinkPolicy;
    use o2pc_common::{DetRng, ExecId, GlobalTxnId, ScratchDir};
    use o2pc_sim::NetworkConfig;
    use o2pc_storage::{LogRecord, Wal};

    /// A log in a scratch directory with one appended, sealed batch.
    fn sealed_batch(name: &str) -> (ScratchDir, Wal, FlushBatch) {
        let dir = ScratchDir::new(&format!("rt-{name}"));
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(1))));
        let batch = wal.seal_batch().unwrap();
        (dir, wal, batch)
    }

    fn sim() -> SimRuntime<&'static str, u32> {
        SimRuntime::new(Network::new(
            NetworkConfig::fixed(Duration::millis(1)),
            DetRng::new(1),
        ))
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

    #[test]
    fn sim_same_site_send_bypasses_network() {
        let mut rt = sim();
        assert!(rt.send(SimTime(100), SiteId(2), SiteId(2), 9).is_sent());
        let (t, s) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t, SimTime(100), "no latency on self-sends");
        assert!(matches!(
            s,
            Step::Deliver {
                to: SiteId(2),
                msg: 9
            }
        ));
        assert_eq!(
            rt.network().sent_count(),
            0,
            "self-send never hit the network"
        );
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
        rt.flush(SiteId(1), batch);
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

    /// A burst of sends between two `next` calls is coalesced into one
    /// transport handoff per destination — and still arrives in send order.
    #[test]
    fn threaded_send_coalesces_bursts_and_keeps_order() {
        let mut rt = threaded(20);
        let far = SimTime(60_000_000);
        for i in 0..32 {
            assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), i).is_sent());
            assert!(rt
                .send(SimTime::ZERO, SiteId(0), SiteId(2), 100 + i)
                .is_sent());
        }
        // Nothing has touched the transport yet: sends ride the outbox.
        assert_eq!(rt.transport().in_flight(), 64);
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

    /// A flusher whose reports take `delay` to leave it: long enough for
    /// the loop to park (or to time out) while the completion is owed.
    fn slow_flusher(rt: &mut ThreadedRuntime<&'static str, u32>, delay: u64) {
        let report = rt.reporter();
        rt.flusher = Some(FlushScheduler::spawn(1, move |site, ticket, ok| {
            std::thread::sleep(StdDuration::from_millis(delay));
            report(site, ticket, ok);
        }));
    }

    /// A flush completion wakes a `next` that is blocked on the inbox (the
    /// grace period here is far longer than the test), and reports the
    /// ticket the batch made durable.
    #[test]
    fn flush_completion_wakes_blocked_next() {
        let mut rt = threaded(10_000);
        slow_flusher(&mut rt, 20); // let `next` park first
        let (_dir, wal, batch) = sealed_batch("wake");
        rt.flush(SiteId(2), batch);
        let start = std::time::Instant::now();
        let got = rt.next(SimTime(60_000_000));
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
        let (_dir, _wal, batch) = sealed_batch("owed");
        rt.flush(SiteId(0), batch);
        let deadline = rt.now() + Duration::millis(60);
        assert!(rt.next(deadline).is_none());
        assert!(
            rt.now() > deadline,
            "gave up at the deadline, not after 2 ms"
        );
        let far = SimTime(60_000_000);
        assert!(matches!(rt.next(far), Some((_, Step::Durable { .. }))));
        assert!(rt.next(far).is_none(), "nothing owed any more: quiescent");
    }

    /// Idle means "`next` would park": any work the loop can still reach
    /// without waiting — an unflushed outbox, an envelope on a link, a
    /// staged delivery, a due timer — denies it; an owed completion, which
    /// only another thread can turn into a step, does not.
    #[test]
    fn idle_only_when_next_would_park() {
        let mut rt: ThreadedRuntime<&'static str, u32> = ThreadedRuntime::default();
        for id in 0..2 {
            rt.register_endpoint(SiteId(id));
        }
        rt.transport().set_link(
            SiteId(0),
            SiteId(1),
            LinkPolicy::fixed(StdDuration::from_millis(30)),
        );
        let far = SimTime(60_000_000);
        assert!(rt.is_idle(), "fresh runtime");
        assert!(!SimRuntime::<&str, u32>::is_idle(&mut sim()), "never");

        // Unflushed outbox, then staged: two zero-latency envelopes reach the
        // inbox as one batch, `next` hands over the first.
        assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), 1).is_sent());
        assert!(rt.send(SimTime::ZERO, SiteId(1), SiteId(0), 2).is_sent());
        assert!(!rt.is_idle(), "outbox not flushed");
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 1, .. }))
        ));
        assert!(!rt.is_idle(), "an envelope is staged");
        assert!(matches!(
            rt.next(far),
            Some((_, Step::Deliver { msg: 2, .. }))
        ));
        assert!(rt.is_idle());

        // On a delayed link: in flight until its delivery is taken.
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 3).is_sent());
        rt.flush_outbox();
        assert!(rt.transport().in_flight() > 0 && !rt.is_idle(), "on a link");
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

        // An owed completion leaves the loop idle; a reported one is a step.
        slow_flusher(&mut rt, 30);
        let (_dir, _wal, batch) = sealed_batch("idle");
        rt.flush(SiteId(0), batch);
        assert!(rt.is_idle(), "only a completion is owed");
        while rt.flush_owed() > 0 {
            std::thread::sleep(StdDuration::from_millis(1));
        }
        assert!(!rt.is_idle(), "the completion is a step now");
    }

    #[test]
    fn threaded_does_not_quiesce_with_message_in_flight() {
        let transport = ThreadedTransport::new(StdDuration::from_millis(40));
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
}

//! The engine-facing runtime: timers + messages in one time-ordered stream.

use crate::clock::{Clock, WallClock};
use crate::transport::{Batch, Envelope, Judgement, SendOutcome, ThreadedTransport, Transport};
use o2pc_common::{SimTime, SiteId};
use o2pc_sim::{EventQueue, Network};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// One unit of work handed to the engine: a timer it scheduled earlier, or a
/// message the substrate delivered.
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
}

/// What the engine needs from a substrate: a clock, timers, a message
/// transport, and a single stream of [`Step`]s in time order.
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

    /// A handle through which other threads post timers that fire "now" and
    /// wake the loop. `None` on a substrate with no wall-clock loop to wake
    /// (the simulator, whose step order must stay a pure function of its
    /// seed).
    fn timer_poster(&self) -> Option<TimerPoster<T, M>> {
        None
    }

    /// Would [`next`](Runtime::next) park right now — nothing sent and not
    /// yet delivered, nothing delivered and not yet handed over, no timer
    /// due? Only a [`TimerPoster`] completion or the passing of time can
    /// then produce the next step. Never true on a substrate that does not
    /// wait (the simulator jumps to its next event), so asking cannot move a
    /// seeded run.
    fn is_idle(&mut self) -> bool {
        false
    }
}

/// Cross-thread handle onto a [`ThreadedRuntime`] loop: post a timer that
/// fires as soon as the loop sees it (a background worker reporting that
/// its work is done). The runtime does not declare quiescence while a
/// [`promise`](TimerPoster::promise)d post is outstanding.
pub struct TimerPoster<T, M> {
    posted: Sender<T>,
    /// The loop blocks on its one inbox; an empty batch there is the wake-up.
    wake: Sender<Batch<M>>,
    owed: Arc<AtomicUsize>,
}

impl<T, M> TimerPoster<T, M> {
    /// Announce work that will end in a [`post`](TimerPoster::post): until
    /// it is settled the runtime keeps waiting instead of quiescing.
    pub fn promise(&self) {
        self.owed.fetch_add(1, Ordering::SeqCst);
    }

    /// Post `timer` to fire now, wake the loop, then settle `settles`
    /// promises — in that order, so a loop that reads "nothing owed" is
    /// guaranteed to find the timer when it drains its inbox.
    pub fn post(&self, timer: T, settles: usize) {
        // A send fails only when the runtime is gone: nobody is left to tell.
        let _ = self.posted.send(timer);
        let _ = self.wake.send(Vec::new());
        self.owed.fetch_sub(settles, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Deterministic simulator backend
// ---------------------------------------------------------------------------

/// The deterministic discrete-event backend.
///
/// Timers and deliveries share **one** [`EventQueue`] — one sequence counter
/// totally orders simultaneous entries, so a seeded run replays bit-for-bit.
/// Splitting them into separate queues (one per trait) would look cleaner
/// and silently break that guarantee, which is why the sim implements
/// [`Runtime`] as a fused whole rather than composing a sim-`Clock` with a
/// sim-`Transport`.
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
/// Quiescence: `next` returns `None` once the deadline passes, or when no
/// timer is pending, the transport reports nothing in flight, no
/// [`TimerPoster`] promise is outstanding, and no message arrives within
/// `idle_grace`.
pub struct ThreadedRuntime<T, M> {
    clock: WallClock,
    transport: ThreadedTransport<M>,
    inbox_tx: Sender<Batch<M>>,
    inbox: Receiver<Batch<M>>,
    /// Timers posted by other threads ([`TimerPoster`]); read only when an
    /// empty batch on the inbox says there is something to read.
    posted_tx: Sender<T>,
    posted: Receiver<T>,
    /// Promised-but-unsettled posts.
    owed: Arc<AtomicUsize>,
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
        let (posted_tx, posted) = channel();
        ThreadedRuntime {
            clock: WallClock::new(),
            transport,
            inbox_tx,
            inbox,
            posted_tx,
            posted,
            owed: Arc::new(AtomicUsize::new(0)),
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
    /// batch, so one is a [`TimerPoster`] wake-up: whatever was posted goes
    /// on the timer heap, due now.
    fn stage(&mut self, batch: Batch<M>) {
        if batch.is_empty() {
            let now = self.clock.now();
            while let Ok(timer) = self.posted.try_recv() {
                self.push_timer(now, timer);
            }
        } else {
            self.staged.extend(batch);
        }
    }

    fn push_timer(&mut self, at: SimTime, timer: T) {
        // On a wall clock a caller may name an instant the queue has already
        // moved past; such a timer is simply due now.
        self.timers.schedule(at.max(self.timers.now()), timer);
    }

    /// Pop the next staged envelope, pulling any already-delivered batches
    /// off the channel first (without blocking).
    fn pop_staged(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.staged.pop_front() {
            return Some(env);
        }
        while let Ok(batch) = self.inbox.try_recv() {
            self.stage(batch);
            if let Some(env) = self.staged.pop_front() {
                return Some(env);
            }
        }
        None
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
    }

    fn schedule(&mut self, at: SimTime, timer: T) {
        self.push_timer(at, timer);
    }

    fn timer_poster(&self) -> Option<TimerPoster<T, M>> {
        Some(TimerPoster {
            posted: self.posted_tx.clone(),
            wake: self.inbox_tx.clone(),
            owed: Arc::clone(&self.owed),
        })
    }

    fn is_idle(&mut self) -> bool {
        // An accepted send is in flight from the moment it is judged, so the
        // count covers the unflushed outbox as well as the links. It is read
        // before the inbox is drained: a delivery leaves the count only
        // after its batch is on the inbox.
        if !self.staged.is_empty() || self.transport.in_flight() > 0 {
            return false;
        }
        while let Ok(batch) = self.inbox.try_recv() {
            self.stage(batch);
        }
        let now = self.clock.now();
        self.staged.is_empty() && self.timers.peek_time().is_none_or(|due| due > now)
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
            // without a single syscall.
            if let Some(env) = self.pop_staged() {
                return Some((
                    now,
                    Step::Deliver {
                        to: env.to,
                        msg: env.msg,
                    },
                ));
            }
            let until_deadline = self.clock.until(deadline);
            let wait = match self.timers.peek_time() {
                Some(due) => self.clock.until(due).min(until_deadline),
                None => self.cfg.idle_grace.min(until_deadline),
            };
            match self.inbox.recv_timeout(wait) {
                Ok(batch) => {
                    self.stage(batch);
                    if let Some(env) = self.staged.pop_front() {
                        return Some((
                            self.clock.now(),
                            Step::Deliver {
                                to: env.to,
                                msg: env.msg,
                            },
                        ));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    if self.timers.is_empty() {
                        // Quiescence check. The engine (our only sender) is
                        // blocked right here and the outbox was flushed on
                        // entry, so if the transport has nothing in flight,
                        // no posted timer is owed and nothing is staged, no
                        // step can ever arrive again.
                        if self.transport.in_flight() > 0 || self.owed.load(Ordering::SeqCst) > 0 {
                            continue; // a delivery worker or a poster still owes us
                        }
                        // Draining the inbox also absorbs posts settled just
                        // before the load above; those land on the heap.
                        match self.pop_staged() {
                            Some(env) => {
                                return Some((
                                    self.clock.now(),
                                    Step::Deliver {
                                        to: env.to,
                                        msg: env.msg,
                                    },
                                ))
                            }
                            None if self.timers.is_empty() => return None,
                            None => {}
                        }
                    }
                    // A timer is (about to be) due: loop and fire it.
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
    use o2pc_common::{DetRng, Duration};
    use o2pc_sim::NetworkConfig;

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

    /// A timer posted from another thread wakes a `next` that is blocked on
    /// the inbox (the grace period here is far longer than the test).
    #[test]
    fn posted_timer_wakes_blocked_next() {
        let mut rt = threaded(10_000);
        let poster = rt.timer_poster().expect("threaded runtimes have a poster");
        poster.promise();
        let worker = std::thread::spawn(move || {
            std::thread::sleep(StdDuration::from_millis(20)); // let `next` park first
            poster.post("done", 1);
        });
        let start = std::time::Instant::now();
        let got = rt.next(SimTime(60_000_000));
        assert!(matches!(got, Some((_, Step::Timer("done")))), "{got:?}");
        assert!(
            start.elapsed() < StdDuration::from_secs(5),
            "woken, not timed out"
        );
        worker.join().unwrap();
    }

    /// An outstanding promise holds off quiescence: `next` waits out the
    /// deadline, not `idle_grace`, and once the post lands it is returned
    /// before the runtime may report `None`.
    #[test]
    fn threaded_does_not_quiesce_while_a_post_is_owed() {
        let mut rt = threaded(2);
        let poster = rt.timer_poster().unwrap();
        poster.promise();
        let deadline = rt.now() + o2pc_common::Duration::millis(60);
        assert!(rt.next(deadline).is_none());
        assert!(
            rt.now() > deadline,
            "gave up at the deadline, not after 2 ms"
        );
        poster.post("late", 1);
        let far = SimTime(60_000_000);
        assert!(matches!(rt.next(far), Some((_, Step::Timer("late")))));
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

        // An owed completion leaves the loop idle; the posted one is a due timer.
        let poster = rt.timer_poster().unwrap();
        poster.promise();
        assert!(rt.is_idle(), "only a completion is owed");
        poster.post("landed", 1);
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

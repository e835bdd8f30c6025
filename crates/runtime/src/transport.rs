//! A threaded, wall-clock transport sharded by destination site.
//!
//! Every endpoint gets a mailbox carrying **batches** of envelopes, so a
//! burst of traffic to one site is a single channel handoff. Zero-latency
//! links deliver straight into the destination mailbox from the sender's
//! thread; links with latency route through a **per-site delivery worker**
//! that owns its own command channel and timer heap — there is no global
//! router thread, so delayed traffic to different sites never serializes
//! behind one heap. Workers are spawned lazily (a transport whose links are
//! all immediate spawns no threads at all) and joined deterministically on
//! `shutdown()` / `Drop`.

use o2pc_common::SiteId;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

/// One addressed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender endpoint.
    pub from: SiteId,
    /// Destination endpoint.
    pub to: SiteId,
    /// Payload.
    pub msg: M,
}

/// A batch of envelopes bound for one destination — the unit of mailbox
/// handoff. Senders coalesce bursts into one `Batch` so the receiving side
/// pays one channel operation (and at most one wake-up) per burst.
pub type Batch<M> = Vec<Envelope<M>>;

/// What happened to a message at send time.
///
/// The distinction matters for accounting: a *policy* drop is the link's
/// configured loss behaving as designed (the chaos fault model), while
/// `NoRoute` means the destination had no mailbox (never registered,
/// deregistered, or the transport is shut down) — an infrastructure
/// condition, not injected loss. Conflating the two makes loss-rate
/// oracles lie under crash schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; the message will (eventually) reach the mailbox.
    Sent,
    /// The link's loss policy dropped it (counted in `policy_dropped`).
    DroppedByPolicy,
    /// No mailbox for the destination, or the transport is shut down
    /// (counted in `unroutable`).
    NoRoute,
}

impl SendOutcome {
    /// Did the substrate accept the message?
    pub fn is_sent(self) -> bool {
        matches!(self, SendOutcome::Sent)
    }
}

/// An asynchronous message substrate between site endpoints.
///
/// Implementations decide delivery latency, loss, and threading; the
/// contract is only that a `Sent` message *may* eventually reach the
/// mailbox registered for `to`. Loss is allowed (and counted) — the commit
/// protocol must tolerate it.
pub trait Transport<M> {
    /// Send `msg` from `from` to `to`, reporting how the substrate treated
    /// it at send time.
    fn send(&self, from: SiteId, to: SiteId, msg: M) -> SendOutcome;

    /// Messages lost so far (policy drops + unroutable).
    fn dropped(&self) -> u64;
}

/// Latency/loss behaviour of one link (or the default for all links).
#[derive(Clone, Copy, Debug)]
pub struct LinkPolicy {
    /// Delivery delay applied on the destination's delivery worker.
    pub latency: StdDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered twice.
    pub duplicate_probability: f64,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy {
            latency: StdDuration::ZERO,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl LinkPolicy {
    /// A reliable link with fixed latency.
    pub fn fixed(latency: StdDuration) -> Self {
        LinkPolicy {
            latency,
            ..LinkPolicy::default()
        }
    }
}

/// State shared between the handle, its clones, and the delivery workers.
struct Shared<M> {
    mailboxes: Mutex<HashMap<SiteId, Sender<Batch<M>>>>,
    shutdown: AtomicBool,
    policy_dropped: AtomicU64,
    /// Unroutable at send time (never accepted, never in `sent`).
    unroutable_presend: AtomicU64,
    /// Accepted, then lost to shutdown/deregistration (retires a `sent`).
    unroutable_postsend: AtomicU64,
    delivered: AtomicU64,
    sent: AtomicU64,
    duplicated: AtomicU64,
}

impl<M> Shared<M> {
    /// Deliver one batch to its destination mailbox (one channel handoff).
    /// Counts every envelope; a missing mailbox makes the whole batch
    /// unroutable, like a send to a crashed site.
    fn deliver_batch(&self, to: SiteId, batch: Batch<M>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let tx = self.mailboxes.lock().unwrap().get(&to).cloned();
        match tx {
            Some(tx) if tx.send(batch).is_ok() => {
                self.delivered.fetch_add(n, Ordering::Relaxed);
            }
            _ => {
                self.unroutable_postsend.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

enum WorkerCmd<M> {
    /// Delayed deliveries, each with its absolute due instant.
    Deliver(Vec<(Instant, Envelope<M>)>),
    Shutdown,
}

/// Heap entry ordered by due time then arrival sequence (stable FIFO for
/// equal instants, mirroring the simulator's event queue).
struct Pending<M> {
    due: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// One per-site delivery worker: command channel + join handle.
struct Worker<M> {
    tx: Sender<WorkerCmd<M>>,
    handle: JoinHandle<()>,
}

/// A threaded in-process network sharded by destination: endpoints register
/// batch mailboxes; zero-latency sends deliver directly, delayed sends go
/// through the destination site's own delivery worker and timer heap.
///
/// Lifecycle: [`ThreadedTransport::shutdown`] stops and joins every worker
/// (undelivered in-flight messages are counted as unroutable); dropping the
/// transport does the same. Endpoints can leave at any time via
/// [`ThreadedTransport::deregister`] — their mailbox sender is removed so
/// later deliveries to them count as unroutable.
pub struct ThreadedTransport<M> {
    shared: Arc<Shared<M>>,
    workers: Mutex<HashMap<SiteId, Worker<M>>>,
    default_link: LinkPolicy,
    links: Mutex<HashMap<(SiteId, SiteId), LinkPolicy>>,
    /// SplitMix64 state for the loss/duplication hooks (interior mutability
    /// keeps `Transport::send` usable through a shared reference).
    loss_rng: Mutex<u64>,
}

impl<M: Send + 'static> Default for ThreadedTransport<M> {
    fn default() -> Self {
        Self::new(StdDuration::ZERO)
    }
}

/// Send-time verdict for one message: route + policy sampled together.
pub(crate) enum Judgement {
    /// Deliver (once, or twice when `duplicate`) after `latency`.
    Deliver {
        latency: StdDuration,
        duplicate: bool,
    },
    DropPolicy,
    NoRoute,
}

impl<M: Send + 'static> ThreadedTransport<M> {
    /// Create a transport applying `latency` to every delivery.
    pub fn new(latency: StdDuration) -> Self {
        Self::with_policy(LinkPolicy::fixed(latency))
    }

    /// Create a transport with an explicit default link policy.
    pub fn with_policy(default_link: LinkPolicy) -> Self {
        ThreadedTransport {
            shared: Arc::new(Shared {
                mailboxes: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                policy_dropped: AtomicU64::new(0),
                unroutable_presend: AtomicU64::new(0),
                unroutable_postsend: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                sent: AtomicU64::new(0),
                duplicated: AtomicU64::new(0),
            }),
            workers: Mutex::new(HashMap::new()),
            default_link,
            links: Mutex::new(HashMap::new()),
            loss_rng: Mutex::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Override the policy of one directed link.
    pub fn set_link(&self, from: SiteId, to: SiteId, policy: LinkPolicy) {
        self.links.lock().unwrap().insert((from, to), policy);
    }

    /// Register an endpoint, returning its receiving side.
    pub fn register(&self, id: SiteId) -> Inbox<M> {
        let (tx, rx) = channel();
        self.attach(id, tx);
        Inbox {
            rx,
            staged: VecDeque::new(),
        }
    }

    /// Bind an endpoint to an existing batch sender (lets one consumer —
    /// e.g. an engine driving every site — funnel all mailboxes into one
    /// inbox).
    pub fn attach(&self, id: SiteId, tx: Sender<Batch<M>>) {
        let previous = self.shared.mailboxes.lock().unwrap().insert(id, tx);
        assert!(previous.is_none(), "endpoint {id} registered twice");
    }

    /// Remove an endpoint; subsequent (and in-flight) messages to it are
    /// counted as unroutable, like sends to a crashed site.
    pub fn deregister(&self, id: SiteId) {
        self.shared.mailboxes.lock().unwrap().remove(&id);
    }

    /// Messages handed to the transport so far (duplicates included).
    pub fn sent_count(&self) -> u64 {
        self.shared.sent.load(Ordering::Relaxed)
    }

    /// Deliveries created by link-policy duplication so far.
    pub fn duplicated_count(&self) -> u64 {
        self.shared.duplicated.load(Ordering::Relaxed)
    }

    /// Messages dropped by link loss policy (the configured fault model).
    pub fn policy_dropped_count(&self) -> u64 {
        self.shared.policy_dropped.load(Ordering::Relaxed)
    }

    /// Messages lost to infrastructure: unknown destination, deregistered
    /// endpoint, or shutdown with deliveries still queued.
    pub fn unroutable_count(&self) -> u64 {
        self.shared
            .unroutable_presend
            .load(Ordering::Relaxed)
            .saturating_add(self.shared.unroutable_postsend.load(Ordering::Relaxed))
    }

    /// Messages accepted but neither delivered to a mailbox nor dropped yet
    /// (buffered in a delivery worker's heap or command channel). A sender
    /// that observes `in_flight() == 0` *and* an empty mailbox knows the
    /// transport owes it nothing — the basis for quiescence detection.
    pub fn in_flight(&self) -> u64 {
        let sent = self.shared.sent.load(Ordering::Relaxed);
        // Policy and pre-send unroutable losses never enter `sent`, so only
        // post-send losses retire an accepted message.
        let done = self
            .shared
            .delivered
            .load(Ordering::Relaxed)
            .saturating_add(self.shared.unroutable_postsend.load(Ordering::Relaxed));
        sent.saturating_sub(done)
    }

    /// Stop every delivery worker and join them. Idempotent; called by
    /// `Drop`. Messages still queued for future delivery are counted as
    /// unroutable.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers: Vec<Worker<M>> = {
            let mut map = self.workers.lock().unwrap();
            map.drain().map(|(_, w)| w).collect()
        };
        for w in &workers {
            let _ = w.tx.send(WorkerCmd::Shutdown);
        }
        for w in workers {
            let _ = w.handle.join();
        }
    }

    fn policy(&self, from: SiteId, to: SiteId) -> LinkPolicy {
        self.links
            .lock()
            .unwrap()
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    fn lose(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut state = self.loss_rng.lock().unwrap();
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Sample route + loss policy for one message and update the send-side
    /// counters. An accepted message **must** subsequently be handed to
    /// [`ThreadedTransport::deliver_many`] (batching senders call this
    /// eagerly, deliver later) — `sent` is already counted, so dropping it
    /// on the floor would wedge `in_flight`.
    pub(crate) fn judge(&self, from: SiteId, to: SiteId) -> Judgement {
        if self.shared.shutdown.load(Ordering::Relaxed)
            || !self.shared.mailboxes.lock().unwrap().contains_key(&to)
        {
            self.shared
                .unroutable_presend
                .fetch_add(1, Ordering::Relaxed);
            return Judgement::NoRoute;
        }
        let policy = self.policy(from, to);
        if self.lose(policy.drop_probability) {
            self.shared.policy_dropped.fetch_add(1, Ordering::Relaxed);
            return Judgement::DropPolicy;
        }
        self.shared.sent.fetch_add(1, Ordering::Relaxed);
        let duplicate =
            policy.duplicate_probability > 0.0 && self.lose(policy.duplicate_probability);
        if duplicate {
            // Counted as an extra send so in-flight tracking
            // (sent − delivered − dropped) stays exact.
            self.shared.sent.fetch_add(1, Ordering::Relaxed);
            self.shared.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        Judgement::Deliver {
            latency: policy.latency,
            duplicate,
        }
    }

    /// Deliver a burst of already-judged envelopes bound for one
    /// destination, preserving their order per link. Immediate envelopes
    /// are one mailbox handoff; delayed ones are one command handoff to the
    /// destination's delivery worker (spawned on first use).
    pub fn deliver_many(
        &self,
        to: SiteId,
        envs: impl IntoIterator<Item = (StdDuration, Envelope<M>)>,
    ) {
        let mut immediate: Batch<M> = Vec::new();
        let mut delayed: Vec<(Instant, Envelope<M>)> = Vec::new();
        let now = Instant::now();
        for (latency, env) in envs {
            if latency.is_zero() {
                immediate.push(env);
            } else {
                delayed.push((now + latency, env));
            }
        }
        self.shared.deliver_batch(to, immediate);
        if delayed.is_empty() {
            return;
        }
        let n = delayed.len() as u64;
        let mut workers = self.workers.lock().unwrap();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            self.shared
                .unroutable_postsend
                .fetch_add(n, Ordering::Relaxed);
            return;
        }
        let worker = workers.entry(to).or_insert_with(|| {
            let (tx, rx) = channel();
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("o2pc-deliver-{to}"))
                .spawn(move || deliver_loop(to, rx, shared))
                .expect("spawn delivery worker");
            Worker { tx, handle }
        });
        if worker.tx.send(WorkerCmd::Deliver(delayed)).is_err() {
            self.shared
                .unroutable_postsend
                .fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl<M: Clone + Send + 'static> Transport<M> for ThreadedTransport<M> {
    fn send(&self, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        match self.judge(from, to) {
            Judgement::NoRoute => SendOutcome::NoRoute,
            Judgement::DropPolicy => SendOutcome::DroppedByPolicy,
            Judgement::Deliver { latency, duplicate } => {
                let mut envs = Vec::with_capacity(1 + duplicate as usize);
                if duplicate {
                    envs.push((
                        latency,
                        Envelope {
                            from,
                            to,
                            msg: msg.clone(),
                        },
                    ));
                }
                envs.push((latency, Envelope { from, to, msg }));
                self.deliver_many(to, envs);
                SendOutcome::Sent
            }
        }
    }

    fn dropped(&self) -> u64 {
        self.shared
            .policy_dropped
            .load(Ordering::Relaxed)
            .saturating_add(self.shared.unroutable_presend.load(Ordering::Relaxed))
            .saturating_add(self.shared.unroutable_postsend.load(Ordering::Relaxed))
    }
}

impl<M> Drop for ThreadedTransport<M> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers: Vec<Worker<M>> = {
            let mut map = self.workers.lock().unwrap();
            map.drain().map(|(_, w)| w).collect()
        };
        for w in &workers {
            let _ = w.tx.send(WorkerCmd::Shutdown);
        }
        for w in workers {
            let _ = w.handle.join();
        }
    }
}

/// One site's delivery loop: sequence its delayed deliveries in due order,
/// handing everything that is due as a single mailbox batch.
fn deliver_loop<M>(to: SiteId, rx: Receiver<WorkerCmd<M>>, shared: Arc<Shared<M>>) {
    let mut heap: BinaryHeap<Pending<M>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Deliver everything already due as one batch (one handoff, at most
        // one receiver wake-up, regardless of how many messages matured).
        let now = Instant::now();
        let mut due: Batch<M> = Vec::new();
        while heap.peek().is_some_and(|p| p.due <= now) {
            due.push(heap.pop().expect("peeked").env);
        }
        shared.deliver_batch(to, due);
        let wait = match heap.peek() {
            Some(p) => p.due.saturating_duration_since(Instant::now()),
            None => StdDuration::from_secs(3600), // park until traffic
        };
        match rx.recv_timeout(wait) {
            Ok(WorkerCmd::Deliver(batch)) => {
                for (due, env) in batch {
                    heap.push(Pending { due, seq, env });
                    seq += 1;
                }
            }
            Ok(WorkerCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    // Anything still queued at shutdown is lost (infrastructure, not policy).
    shared
        .unroutable_postsend
        .fetch_add(heap.len() as u64, Ordering::Relaxed);
}

/// The receiving side of one endpoint: a batch channel plus a staging queue
/// so consumers can still take envelopes one at a time.
pub struct Inbox<M> {
    rx: Receiver<Batch<M>>,
    staged: VecDeque<Envelope<M>>,
}

impl<M> Inbox<M> {
    /// Next envelope, waiting up to `timeout` for a batch to arrive. `None`
    /// on timeout or a disconnected transport.
    pub fn recv_timeout(&mut self, timeout: StdDuration) -> Option<Envelope<M>> {
        if let Some(env) = self.staged.pop_front() {
            return Some(env);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(batch) => {
                self.staged.extend(batch);
                self.staged.pop_front()
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Next envelope if one is already available (never blocks).
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.staged.pop_front() {
            return Some(env);
        }
        while let Ok(batch) = self.rx.try_recv() {
            self.staged.extend(batch);
            if let Some(env) = self.staged.pop_front() {
                return Some(env);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let t: ThreadedTransport<&'static str> = ThreadedTransport::default();
        let mut rx0 = t.register(SiteId(0));
        let _rx1 = t.register(SiteId(1));
        assert!(t.send(SiteId(1), SiteId(0), "hello").is_sent());
        let env = rx0.recv_timeout(StdDuration::from_secs(1)).unwrap();
        assert_eq!(env.from, SiteId(1));
        assert_eq!(env.msg, "hello");
    }

    #[test]
    fn send_to_unregistered_is_unroutable() {
        let t: ThreadedTransport<u32> = ThreadedTransport::default();
        let _rx = t.register(SiteId(0));
        assert_eq!(t.send(SiteId(0), SiteId(9), 1), SendOutcome::NoRoute);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.unroutable_count(), 1);
        assert_eq!(t.policy_dropped_count(), 0);
    }

    #[test]
    fn deregister_simulates_crash() {
        let t: ThreadedTransport<u32> = ThreadedTransport::default();
        let _rx0 = t.register(SiteId(0));
        let mut rx1 = t.register(SiteId(1));
        t.deregister(SiteId(1));
        assert!(!t.send(SiteId(0), SiteId(1), 7).is_sent());
        assert!(rx1.recv_timeout(StdDuration::from_millis(20)).is_none());
        // The slot is free again after deregistration.
        let mut rx1b = t.register(SiteId(1));
        assert!(t.send(SiteId(0), SiteId(1), 8).is_sent());
        assert_eq!(rx1b.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, 8);
    }

    #[test]
    fn latency_delays_but_delivers() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_millis(20));
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        let start = Instant::now();
        assert!(t.send(SiteId(1), SiteId(0), 42).is_sent());
        let env = rx.recv_timeout(StdDuration::from_secs(2)).unwrap();
        assert_eq!(env.msg, 42);
        assert!(start.elapsed() >= StdDuration::from_millis(15));
    }

    #[test]
    fn latency_preserves_send_order_on_a_link() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_millis(5));
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        for i in 0..50 {
            assert!(t.send(SiteId(1), SiteId(0), i).is_sent());
        }
        for i in 0..50 {
            assert_eq!(rx.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, i);
        }
    }

    /// Batched (`deliver_many`) and single (`send`) deliveries interleaved
    /// on one latency link must still arrive in send order: coalescing is
    /// an optimization of the handoff, never of the ordering.
    #[test]
    fn batched_delivery_preserves_per_link_fifo() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_millis(5));
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        let lat = StdDuration::from_millis(5);
        let mut expect = Vec::new();
        let mut next = 0u32;
        for round in 0..10 {
            if round % 2 == 0 {
                // A coalesced burst: one handoff for several envelopes.
                let mut batch = Vec::new();
                for _ in 0..4 {
                    assert!(matches!(
                        t.judge(SiteId(1), SiteId(0)),
                        Judgement::Deliver { .. }
                    ));
                    batch.push((
                        lat,
                        Envelope {
                            from: SiteId(1),
                            to: SiteId(0),
                            msg: next,
                        },
                    ));
                    expect.push(next);
                    next += 1;
                }
                t.deliver_many(SiteId(0), batch);
            } else {
                assert!(t.send(SiteId(1), SiteId(0), next).is_sent());
                expect.push(next);
                next += 1;
            }
        }
        let got: Vec<u32> = (0..expect.len())
            .map(|_| rx.recv_timeout(StdDuration::from_secs(1)).unwrap().msg)
            .collect();
        assert_eq!(got, expect, "batching broke per-link FIFO");
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn per_link_policy_overrides_default() {
        let t: ThreadedTransport<u32> = ThreadedTransport::default();
        t.set_link(
            SiteId(0),
            SiteId(1),
            LinkPolicy::fixed(StdDuration::from_millis(25)),
        );
        let mut rx1 = t.register(SiteId(1));
        let mut rx2 = t.register(SiteId(2));
        let _ = t.register(SiteId(0));
        let start = Instant::now();
        assert!(t.send(SiteId(0), SiteId(1), 1).is_sent()); // slow link
        assert!(t.send(SiteId(0), SiteId(2), 2).is_sent()); // default: immediate
        assert_eq!(rx2.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, 2);
        assert!(
            start.elapsed() < StdDuration::from_millis(20),
            "fast link must not wait"
        );
        assert_eq!(rx1.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, 1);
        assert!(start.elapsed() >= StdDuration::from_millis(20));
    }

    #[test]
    fn loss_hook_drops_roughly_at_rate() {
        let t: ThreadedTransport<u32> = ThreadedTransport::with_policy(LinkPolicy {
            latency: StdDuration::ZERO,
            drop_probability: 0.5,
            ..LinkPolicy::default()
        });
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        let mut accepted = 0;
        for i in 0..2000 {
            if t.send(SiteId(1), SiteId(0), i).is_sent() {
                accepted += 1;
            }
        }
        assert_eq!(accepted + t.dropped() as usize, 2000);
        assert_eq!(
            t.dropped(),
            t.policy_dropped_count(),
            "all drops are policy"
        );
        let rate = accepted as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.08, "acceptance rate {rate}");
        // Accepted messages all arrive.
        for _ in 0..accepted {
            assert!(rx.recv_timeout(StdDuration::from_secs(1)).is_some());
        }
    }

    #[test]
    fn duplication_delivers_twice_and_counts() {
        let t: ThreadedTransport<u32> = ThreadedTransport::with_policy(LinkPolicy {
            latency: StdDuration::ZERO,
            drop_probability: 0.0,
            duplicate_probability: 1.0,
        });
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        for i in 0..10 {
            assert!(t.send(SiteId(1), SiteId(0), i).is_sent());
        }
        assert_eq!(t.duplicated_count(), 10);
        // Each duplicate is accounted as an extra send so the in-flight
        // equation (sent − delivered − dropped) still balances.
        assert_eq!(t.sent_count(), 20);
        let mut got = 0;
        while rx.recv_timeout(StdDuration::from_millis(100)).is_some() {
            got += 1;
        }
        assert_eq!(got, 20);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn shutdown_joins_workers_and_counts_inflight_as_unroutable() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_secs(30));
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        assert!(t.send(SiteId(1), SiteId(0), 9).is_sent()); // due far in the future
        t.shutdown();
        t.shutdown(); // idempotent
        assert_eq!(t.dropped(), 1, "in-flight message lost at shutdown");
        assert_eq!(t.unroutable_count(), 1);
        assert!(rx.recv_timeout(StdDuration::from_millis(10)).is_none());
        // Post-shutdown sends are refused and counted.
        assert_eq!(t.send(SiteId(1), SiteId(0), 10), SendOutcome::NoRoute);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn drop_joins_workers_without_hanging() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_millis(1));
        let _rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        t.send(SiteId(1), SiteId(0), 1);
        drop(t); // must not deadlock or leak worker threads
    }

    #[test]
    fn delayed_traffic_to_distinct_sites_uses_distinct_workers() {
        let t: ThreadedTransport<u32> = ThreadedTransport::new(StdDuration::from_millis(2));
        let mut rx0 = t.register(SiteId(0));
        let mut rx1 = t.register(SiteId(1));
        let _ = t.register(SiteId(2));
        for i in 0..20 {
            assert!(t.send(SiteId(2), SiteId(0), i).is_sent());
            assert!(t.send(SiteId(2), SiteId(1), 100 + i).is_sent());
        }
        assert_eq!(t.workers.lock().unwrap().len(), 2, "one worker per site");
        for i in 0..20 {
            assert_eq!(rx0.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, i);
            assert_eq!(
                rx1.recv_timeout(StdDuration::from_secs(1)).unwrap().msg,
                100 + i
            );
        }
    }

    #[test]
    fn zero_latency_spawns_no_workers() {
        let t: ThreadedTransport<u32> = ThreadedTransport::default();
        let mut rx = t.register(SiteId(0));
        let _ = t.register(SiteId(1));
        for i in 0..100 {
            assert!(t.send(SiteId(1), SiteId(0), i).is_sent());
        }
        assert_eq!(t.workers.lock().unwrap().len(), 0);
        for i in 0..100 {
            assert_eq!(rx.recv_timeout(StdDuration::from_secs(1)).unwrap().msg, i);
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let t: ThreadedTransport<u32> = ThreadedTransport::default();
        let _a = t.register(SiteId(0));
        let _b = t.register(SiteId(0));
    }
}

//! Background WAL flush pipeline: a small sharded pool of flusher threads
//! with fsync coalescing.
//!
//! The engine seals a site's buffered WAL frames into a [`FlushBatch`] and
//! submits it under the site's shard key. Each shard thread *drains its
//! whole queue* before touching the disk and executes the burst through
//! [`FlushBatch::execute_all`]: every
//! write lands first, then each distinct segment file is fsynced exactly
//! once — a burst of N batches costs 1 fsync, not N. Batches from one site
//! always map to the same shard, so per-WAL batches execute strictly in
//! submission order, which is the property prefix durability rests on;
//! different sites' logs flush in parallel across shards.
//!
//! On the deterministic simulator the engine still submits here: sealing
//! happens at virtual flush instants (deterministic), while the physical
//! write + fsync run behind the simulation and are synchronised only at
//! barriers (crash, checkpoint compaction, end of run) — fsync latency is
//! never observed by simulated time.
//!
//! A pool built [`with_completions`](FlushScheduler::with_completions) also
//! *tells* its submitter: after a burst's watermarks have advanced (or been
//! poisoned) the shard posts one timer per site key in the burst through a
//! [`TimerPoster`], so an engine gating promises on the physical fsync hears
//! of it at once instead of polling the watermark.

use crate::runtime::TimerPoster;
use o2pc_storage::{FlushBatch, FlushProgress};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

struct Shard {
    tx: Option<Sender<(u32, FlushBatch)>>,
    worker: Option<JoinHandle<()>>,
}

/// Where the pool reports durability, with the poster's timer type erased.
trait Completions: Send + Sync {
    /// A batch was queued: a completion covering it is now owed.
    fn promise(&self);
    /// `key`'s batches of one burst are durable (`ok`) or their watermark is
    /// poisoned; settles the `batches` promises made for them.
    fn post(&self, key: u32, ok: bool, batches: usize);
}

impl<T: Send, M: Send> Completions for (TimerPoster<T, M>, fn(u32, bool) -> T) {
    fn promise(&self) {
        self.0.promise();
    }

    fn post(&self, key: u32, ok: bool, batches: usize) {
        self.0.post((self.1)(key, ok), batches);
    }
}

/// Handle to the flusher pool. Dropping it drains every queue and joins the
/// threads, so every sealed batch is durable (or its watermark poisoned)
/// before shutdown completes.
pub struct FlushScheduler {
    shards: Vec<Shard>,
    completions: Option<Arc<dyn Completions>>,
}

fn drain_loop(rx: Receiver<(u32, FlushBatch)>, completions: Option<Arc<dyn Completions>>) {
    while let Ok(first) = rx.recv() {
        let mut burst = vec![first];
        while let Ok(b) = rx.try_recv() {
            burst.push(b);
        }
        // One completion per key in the burst: its watermark cell and how
        // many of its batches (= promises) the burst carries.
        let mut keys: Vec<(u32, Arc<FlushProgress>, usize)> = Vec::new();
        if completions.is_some() {
            for (key, batch) in &burst {
                match keys.iter_mut().find(|k| k.0 == *key) {
                    Some(k) => k.2 += 1,
                    None => keys.push((*key, batch.progress(), 1)),
                }
            }
        }
        // An I/O error here means a log device failed; execute_all has
        // already poisoned that log's watermark (and only that one), and
        // the completion below carries it to the submitter, which crashes
        // the site.
        let _ = FlushBatch::execute_all(burst.into_iter().map(|(_, b)| b).collect());
        if let Some(c) = &completions {
            for (key, progress, batches) in keys {
                c.post(key, !progress.is_poisoned(), batches);
            }
        }
    }
}

impl FlushScheduler {
    /// Spawn a pool of `shards` flusher threads (at least one).
    pub fn new(shards: usize) -> Self {
        Self::spawn(shards, None)
    }

    /// A pool that reports back: once a burst has advanced (or poisoned) its
    /// watermarks, the shard posts `event(key, ok)` through `poster` — one
    /// per key in the burst — and the poster's runtime stays awake from
    /// [`submit`](FlushScheduler::submit) until then.
    pub fn with_completions<T: Send + 'static, M: Send + 'static>(
        shards: usize,
        poster: TimerPoster<T, M>,
        event: fn(u32, bool) -> T,
    ) -> Self {
        Self::spawn(shards, Some(Arc::new((poster, event))))
    }

    fn spawn(shards: usize, completions: Option<Arc<dyn Completions>>) -> Self {
        let shards = (0..shards.max(1))
            .map(|i| {
                let (tx, rx) = channel();
                let completions = completions.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("wal-flush-{i}"))
                    .spawn(move || drain_loop(rx, completions))
                    .expect("spawn wal-flush thread");
                Shard {
                    tx: Some(tx),
                    worker: Some(worker),
                }
            })
            .collect();
        FlushScheduler {
            shards,
            completions,
        }
    }

    /// Queue a sealed batch for write + fsync. `key` pins the submitter to a
    /// shard: batches with the same key stay FIFO relative to each other
    /// (use the site id, so one WAL's batches never reorder).
    pub fn submit(&self, key: u32, batch: FlushBatch) {
        let shard = &self.shards[key as usize % self.shards.len()];
        if let Some(tx) = &shard.tx {
            if let Some(c) = &self.completions {
                c.promise();
            }
            let _ = tx.send((key, batch));
        }
    }
}

impl Default for FlushScheduler {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Drop for FlushScheduler {
    fn drop(&mut self) {
        for s in &mut self.shards {
            drop(s.tx.take());
        }
        for s in &mut self.shards {
            if let Some(w) = s.worker.take() {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, Step, ThreadedRuntime};
    use o2pc_common::{ExecId, GlobalTxnId, ScratchDir, SimTime};
    use o2pc_storage::{LogRecord, Wal};
    use std::sync::Mutex;

    fn tmpdir(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("flush-{name}"))
    }

    #[test]
    fn background_flush_advances_watermark_in_order() {
        let dir = tmpdir("order");
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        let sched = FlushScheduler::new(2);
        let mut last = 0;
        for i in 0..10 {
            wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(i))));
            last = wal.append_ticket();
            sched.submit(0, wal.seal_batch().unwrap());
        }
        wal.progress().unwrap().wait_for(last).unwrap();
        assert_eq!(wal.durable_ticket(), wal.append_ticket());
        drop(sched);
        let reopened = Wal::open(dir.join("s.wal")).unwrap();
        assert_eq!(reopened.len(), 10, "all batches landed, in order");
    }

    /// What a completion saw at the moment it was posted.
    struct Probe {
        watched: Arc<FlushProgress>,
        posts: Mutex<Vec<(u32, bool, usize, u64)>>,
    }

    impl Completions for Probe {
        fn promise(&self) {}

        fn post(&self, key: u32, ok: bool, batches: usize) {
            let seen = (key, ok, batches, self.watched.durable());
            self.posts.lock().unwrap().push(seen);
        }
    }

    /// N batches of one key drained as one burst: exactly one completion,
    /// posted after the watermark covers the last ticket.
    #[test]
    fn one_burst_of_one_key_posts_one_completion_after_the_watermark_moves() {
        let dir = tmpdir("one-completion");
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        let probe = Arc::new(Probe {
            watched: wal.progress().unwrap(),
            posts: Mutex::default(),
        });
        let (tx, rx) = channel();
        for i in 0..6 {
            wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(i))));
            tx.send((3, wal.seal_batch().unwrap())).unwrap();
        }
        drop(tx);
        // Everything is queued before the loop starts, so it is one burst.
        drain_loop(rx, Some(probe.clone()));
        assert_eq!(
            *probe.posts.lock().unwrap(),
            vec![(3, true, 6, wal.append_ticket())]
        );
        assert_eq!(wal.stats().unwrap().fsyncs(), 1);
    }

    /// A batch whose write fails is reported as failed, after the watermark
    /// is poisoned — and so is everything sealed behind it, unwritten.
    #[test]
    fn failed_write_posts_a_failed_completion_after_poisoning() {
        let dir = tmpdir("failed");
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        let mut rt: ThreadedRuntime<(u32, bool), u32> = ThreadedRuntime::default();
        let sched =
            FlushScheduler::with_completions(2, rt.timer_poster().unwrap(), |k, ok| (k, ok));
        let far = SimTime(60_000_000);
        for i in 0..2 {
            wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(i))));
            let mut batch = wal.seal_batch().unwrap();
            if i == 0 {
                batch.sever().unwrap();
            }
            sched.submit(1, batch);
            let got = rt.next(far);
            assert!(matches!(got, Some((_, Step::Timer((1, false))))), "{got:?}");
            assert!(wal.progress().unwrap().is_poisoned());
            assert_eq!(wal.durable_ticket(), 0, "nothing was promised");
        }
        assert_eq!(
            wal.stats().unwrap().fsyncs(),
            0,
            "the second batch never touched the disk"
        );
        assert!(rt.next(far).is_none(), "every promise settled: quiescent");
    }

    #[test]
    fn shards_flush_independent_wals_and_coalesce_fsyncs() {
        let dir = tmpdir("shards");
        let sched = FlushScheduler::new(4);
        let mut wals: Vec<Wal> = (0..4)
            .map(|i| Wal::open(dir.join(format!("s{i}.wal"))).unwrap())
            .collect();
        let mut tickets = Vec::new();
        for round in 0..16u64 {
            for (i, wal) in wals.iter_mut().enumerate() {
                wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(round))));
                sched.submit(i as u32, wal.seal_batch().unwrap());
            }
        }
        for wal in &wals {
            tickets.push((wal.progress().unwrap(), wal.append_ticket()));
        }
        for (p, t) in &tickets {
            p.wait_for(*t).unwrap();
        }
        for wal in &wals {
            assert_eq!(wal.durable_ticket(), wal.append_ticket());
            // Coalescing: 16 sealed batches per WAL must cost well under 16
            // fsyncs whenever any burst of them drained together. The exact
            // count is timing-dependent; the hard upper bound is 16 and the
            // deterministic single-drain case is covered by the storage
            // crate's `burst_of_batches_costs_one_fsync`.
            assert!(wal.stats().unwrap().fsyncs() <= 16);
        }
        drop(sched);
        for i in 0..4 {
            let reopened = Wal::open(dir.join(format!("s{i}.wal"))).unwrap();
            assert_eq!(reopened.len(), 16);
        }
    }
}

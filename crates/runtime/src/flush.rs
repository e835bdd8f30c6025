//! The threaded runtime's flush helpers: persistent threads that each write
//! one log of a multi-log flush point while the calling thread writes
//! another.
//!
//! [`ThreadedRuntime::flush`](crate::Runtime::flush) is fork-join: it writes
//! the first log of a flush point itself, hands each other log to a helper
//! of its own, and waits for every helper's reply before it returns, so no
//! write is ever in flight between calls. A helper runs its log's batches
//! through [`FlushBatch::execute_all`] — every write first, then one fsync
//! per segment file — and replies once the log's watermark has advanced or
//! been poisoned. Helpers are spawned on first need, one per extra log, and
//! live as long as the runtime; a run whose flush points each seal one log
//! never starts one. Dropping a helper closes its queue and joins the
//! thread, idle since its last reply.

use o2pc_storage::FlushBatch;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One persistent flush thread.
pub(crate) struct Helper {
    /// `None` only while the helper drops.
    jobs: Option<Sender<Vec<FlushBatch>>>,
    replies: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    /// Spawn helper number `i`. Fails if the OS refuses a thread.
    pub(crate) fn spawn(i: usize) -> io::Result<Self> {
        let (jobs, queue) = channel::<Vec<FlushBatch>>();
        let (reply, replies) = channel();
        let thread = std::thread::Builder::new()
            .name(format!("wal-flush-{i}"))
            .spawn(move || {
                for batches in queue {
                    // A failed write or fsync has poisoned the log's
                    // watermark, which the caller reads after the reply.
                    let _ = FlushBatch::execute_all(batches);
                    if reply.send(()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Helper {
            jobs: Some(jobs),
            replies,
            thread: Some(thread),
        })
    }

    /// Hand one log's batches over, in seal order; gives them back if the
    /// thread is gone.
    pub(crate) fn fork(&self, batches: Vec<FlushBatch>) -> Result<(), Vec<FlushBatch>> {
        match &self.jobs {
            Some(jobs) => jobs.send(batches).map_err(|e| e.0),
            None => Err(batches),
        }
    }

    /// Wait for the log handed over last. False if the thread died with it,
    /// unwritten.
    pub(crate) fn join(&self) -> bool {
        self.replies.recv().is_ok()
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            // A helper that panicked has already failed its log's join.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{ExecId, GlobalTxnId, ScratchDir};
    use o2pc_storage::{LogRecord, Wal};

    /// A helper writes each log it is handed, in seal order, before it
    /// replies, and serves call after call.
    #[test]
    fn a_helper_lands_each_log_before_it_replies() {
        let dir = ScratchDir::new("flush-helper");
        let helper = Helper::spawn(0).unwrap();
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        for round in 0..3u64 {
            let mut batches = Vec::new();
            for i in 0..4 {
                wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(round * 4 + i))));
                batches.push(wal.seal_batch().unwrap());
            }
            helper.fork(batches).unwrap();
            assert!(helper.join());
            assert_eq!(wal.durable_ticket(), wal.append_ticket());
        }
        assert_eq!(wal.stats().unwrap().fsyncs(), 3, "one fsync per hand-over");
        drop(helper);
        let reopened = Wal::open(dir.join("s.wal")).unwrap();
        assert_eq!(reopened.len(), 12, "all batches landed, in order");
    }
}

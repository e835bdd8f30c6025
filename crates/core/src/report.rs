//! Run reports: every quantity the experiments print.

use o2pc_common::stats::CounterSet;
use o2pc_common::Histogram;
use o2pc_common::{History, SimTime};
use o2pc_locking::LockStats;

/// Everything measured during one engine run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Virtual time at which the run quiesced.
    pub end_time: SimTime,
    /// Global transactions committed / aborted.
    pub global_committed: u64,
    /// Global transactions aborted (any cause: no-vote, autonomy, R1, deadlock).
    pub global_aborted: u64,
    /// Local transactions committed / aborted.
    pub local_committed: u64,
    /// Local transactions aborted (deadlock victims, semantic failures).
    pub local_aborted: u64,
    /// Commit latency of global transactions (µs, arrival → completion).
    pub global_latency: Histogram,
    /// Commit latency of independent local transactions (µs). The
    /// multidatabase-autonomy experiment (E9) watches how global traffic
    /// under each protocol inflates this.
    pub local_latency: Histogram,
    /// Durable runs: how long each parked promise waited for the flush
    /// point that sealed its bytes (µs, park → sealed) — the price of group
    /// commit's "wait for company".
    pub wal_seal_wait: Histogram,
    /// Durable runs: how long each parked promise then waited for a flush
    /// completion to cover it (µs, sealed → released): the fsync and the
    /// way back to the engine — on the simulator, its modelled fsync
    /// latency. A durable commit pays both waits twice — vote record, then
    /// outcome record — plus its message hops.
    pub wal_fsync_wait: Histogram,
    /// Merged lock-manager statistics of all sites (exclusive/shared hold
    /// times, wait times, deadlocks).
    pub locks: LockStats,
    /// Message counts by type (`msg.*`) plus engine counters:
    /// `r1.checks`, `r1.rejections`, `r1.retries`, `r1.forced_aborts`,
    /// `r1.revalidation_failures`, `comp.plans`, `comp.retries`,
    /// `comp.skipped_ops`, `udum.fired`, `deadlock.victims.*`,
    /// `vote.autonomy_aborts`, `net.dropped`, and `run.event_cap`: `run`
    /// calls that stopped at `SystemConfig::max_events` steps rather than
    /// at quiescence or the horizon, so steps may still be pending.
    pub counters: CounterSet,
    /// Compensating subtransactions completed.
    pub compensations_completed: u64,
    /// Outstanding compensations at end of run (must be 0 at quiescence:
    /// persistence of compensation).
    pub compensations_pending: usize,
    /// The execution history (empty when `record_history` was off).
    pub history: History,
    /// History events recorded (counted even when `record_history` is off).
    pub history_events: u64,
    /// Order-sensitive digest over the event stream, filled in when
    /// `record_history` is *off* (determinism fingerprints for perf runs
    /// that skip the archive). With the archive kept it stays 0 — call
    /// `history.digest()` instead; both fold the same FNV stream.
    pub history_digest: u64,
    /// Sum of all data values across all sites at end of run (workload
    /// invariant checks, e.g. conservation of money).
    pub total_value: i64,
    /// Events processed (run-away detection in sweeps).
    pub events_processed: u64,
}

impl RunReport {
    /// Committed global transactions per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.global_committed as f64 / secs
        }
    }

    /// Fraction of terminated global transactions that aborted.
    pub fn abort_rate(&self) -> f64 {
        let total = self.global_committed + self.global_aborted;
        if total == 0 {
            0.0
        } else {
            self.global_aborted as f64 / total as f64
        }
    }

    /// 2PC messages per terminated global transaction.
    pub fn msgs_2pc_per_txn(&self) -> f64 {
        let total = (self.global_committed + self.global_aborted).max(1);
        let m = self.counters.get("msg.vote_req")
            + self.counters.get("msg.vote")
            + self.counters.get("msg.decision")
            + self.counters.get("msg.decision_ack");
        m as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut r = RunReport {
            end_time: SimTime(2_000_000),
            global_committed: 10,
            global_aborted: 10,
            ..Default::default()
        };
        assert_eq!(r.throughput(), 5.0);
        assert_eq!(r.abort_rate(), 0.5);
        r.counters.add("msg.vote_req", 40);
        r.counters.add("msg.vote", 40);
        r.counters.add("msg.decision", 40);
        r.counters.add("msg.decision_ack", 40);
        assert_eq!(r.msgs_2pc_per_txn(), 8.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.abort_rate(), 0.0);
        assert_eq!(r.msgs_2pc_per_txn(), 0.0);
    }
}

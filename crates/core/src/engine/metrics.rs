//! Folding engine state into the final [`RunReport`].

use super::{Engine, TimerEvent};
use crate::msg::Msg;
use crate::report::RunReport;
use o2pc_runtime::Runtime;

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    /// Snapshot the report: decided-but-unfinished transactions, per-site
    /// lock statistics and value totals, network losses, and compensation
    /// accounting. Identical on every substrate — the report is the shared
    /// currency between a simulated experiment and its wall-clock twin.
    pub(crate) fn finalize(&mut self) -> RunReport {
        let mut report = self.report.clone();
        report.end_time = self.rt.now();
        // Transactions that never reached Complete: count by logged decision
        // (presumed abort when undecided — the coordinator discipline).
        for g in self.txns.values() {
            if !g.done() {
                match g.coord.decision() {
                    Some(true) => report.global_committed += 1,
                    _ => report.global_aborted += 1,
                }
            }
        }
        for s in self.live_sites() {
            report.locks.merge(s.lock_stats());
            report.total_value += s.total();
            report.counters.add("comp.skipped_ops", s.skipped_comp_ops);
        }
        let ledger = self.rt.network().ledger();
        report
            .counters
            .add("net.dropped", ledger.dropped + ledger.unroutable);
        report
            .counters
            .add("txn.live_at_end", self.txns.len() as u64);
        report.compensations_pending = self.slots.iter().map(|s| s.pending_comp.len()).sum();
        // Named even when nothing was retried: reports list every counter.
        report.counters.add("comp.retries", 0);
        match &self.hist.history {
            Some(h) => {
                report.history_events = h.len() as u64;
                report.history = h.clone();
            }
            None => {
                report.history_events = self.hist.counting.events;
                report.history_digest = self.hist.counting.digest();
            }
        }
        report
    }
}

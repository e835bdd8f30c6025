//! # o2pc-workload
//!
//! Parameterised, seed-deterministic workload generators for the experiment
//! harness:
//!
//! * [`banking`] — multi-site money transfers over `Add` deltas (restricted
//!   model; the conservation-of-money invariant makes semantic atomicity
//!   directly checkable).
//! * [`travel`] — the classic federated booking scenario the multidatabase
//!   literature motivates (flight + hotel + car at different autonomous
//!   sites, `Reserve`/`Release` with organic aborts when inventory runs
//!   out).
//! * [`generic`] — a YCSB-style read/write mix with zipfian hotspots and a
//!   tunable local/global ratio, used by the contention sweeps.
//! * [`multidb`] — the multidatabase-autonomy mix of the paper's §1: heavy
//!   per-site local streams disturbed by a trickle of global transactions;
//!   the metric is how much each commit protocol inflates *local* latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banking;
pub mod generic;
pub mod multidb;
pub mod travel;

pub use banking::BankingWorkload;
pub use generic::GenericWorkload;
pub use multidb::MultidbWorkload;
pub use travel::TravelWorkload;

use o2pc_common::SimTime;
use o2pc_core::TxnRequest;

/// A generated workload: the initial data placement plus a time-stamped
/// arrival schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// `(site, key, value)` initial loads.
    pub loads: Vec<(o2pc_common::SiteId, o2pc_common::Key, o2pc_common::Value)>,
    /// Arrivals, generated in non-decreasing time order (an out-of-order
    /// list installs as several time-sorted runs, firing as one `submit_at`
    /// per arrival would).
    pub arrivals: Vec<(SimTime, TxnRequest)>,
}

impl Schedule {
    /// Install the loads and submit every arrival into an engine (on any
    /// runtime substrate): a time-sorted schedule is one arrival run.
    pub fn install<R>(&self, engine: &mut o2pc_core::Engine<R>)
    where
        R: o2pc_runtime::Runtime<o2pc_core::TimerEvent, o2pc_core::Msg>,
    {
        for &(s, k, v) in &self.loads {
            engine.load(s, k, v);
        }
        engine.submit(&self.arrivals);
    }

    /// Sum of all loaded values (conservation checks).
    pub fn total_loaded(&self) -> i64 {
        self.loads.iter().map(|&(_, _, v)| v.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{Key, SiteId, Value};

    #[test]
    fn schedule_totals() {
        let s = Schedule {
            loads: vec![
                (SiteId(0), Key(0), Value(10)),
                (SiteId(1), Key(0), Value(20)),
            ],
            arrivals: vec![],
        };
        assert_eq!(s.total_loaded(), 30);
    }
}

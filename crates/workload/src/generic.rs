//! Generic read/write mix (YCSB-style) with zipfian hotspots.

use crate::Schedule;
use o2pc_common::rng::Zipf;
use o2pc_common::{DetRng, Duration, Key, Op, Program, SimTime, SiteId, Value};
use o2pc_core::TxnRequest;

/// A tunable read/write mix: the contention sweeps (experiment E2) drive
/// multiprogramming level via `mean_interarrival` and data contention via
/// `zipf_theta` / `keys_per_site`.
#[derive(Clone, Debug)]
pub struct GenericWorkload {
    /// Number of sites.
    pub sites: u32,
    /// Keys per site.
    pub keys_per_site: u64,
    /// Initial value per key.
    pub initial_value: i64,
    /// Number of transactions.
    pub txns: usize,
    /// Operations per subtransaction.
    pub ops_per_sub: usize,
    /// Sites per global transaction.
    pub sites_per_txn: usize,
    /// Fraction of operations that are writes (`Add` deltas).
    pub write_fraction: f64,
    /// Fraction of arrivals that are local transactions.
    pub local_fraction: f64,
    /// Zipf skew over keys (0 = uniform).
    pub zipf_theta: f64,
    /// Mean inter-arrival time — the multiprogramming-level knob.
    pub mean_interarrival: Duration,
    /// Seed.
    pub seed: u64,
}

impl Default for GenericWorkload {
    fn default() -> Self {
        GenericWorkload {
            sites: 4,
            keys_per_site: 32,
            initial_value: 100,
            txns: 300,
            ops_per_sub: 4,
            sites_per_txn: 2,
            write_fraction: 0.5,
            local_fraction: 0.0,
            zipf_theta: 0.0,
            mean_interarrival: Duration::millis(1),
            seed: 0x9E4E,
        }
    }
}

impl GenericWorkload {
    fn ops(&self, rng: &mut DetRng, zipf: &Zipf) -> Program {
        (0..self.ops_per_sub)
            .map(|_| {
                let key = Key(zipf.sample(rng) as u64);
                if rng.gen_bool(self.write_fraction) {
                    // Deltas cancel in expectation; invariants don't matter
                    // here, contention does.
                    Op::Add(key, if rng.gen_bool(0.5) { 1 } else { -1 })
                } else {
                    Op::Read(key)
                }
            })
            .collect()
    }

    /// Generate the schedule.
    pub fn generate(&self) -> Schedule {
        assert!(self.sites_per_txn >= 1 && self.sites_per_txn <= self.sites as usize);
        let mut rng = DetRng::new(self.seed);
        let zipf = Zipf::new(self.keys_per_site as usize, self.zipf_theta);
        let mut loads = Vec::new();
        for s in 0..self.sites {
            for k in 0..self.keys_per_site {
                loads.push((SiteId(s), Key(k), Value(self.initial_value)));
            }
        }
        let mut arrivals = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..self.txns {
            t += Duration::micros(rng.gen_exp(self.mean_interarrival.as_micros() as f64) as u64);
            if rng.gen_bool(self.local_fraction) {
                let site = SiteId(rng.gen_range(self.sites as u64) as u32);
                let ops = self.ops(&mut rng, &zipf);
                arrivals.push((t, TxnRequest::local(site, ops)));
            } else {
                let chosen = rng.sample_indices(self.sites as usize, self.sites_per_txn);
                let subs = chosen
                    .into_iter()
                    .map(|s| (SiteId(s as u32), self.ops(&mut rng, &zipf)));
                arrivals.push((t, TxnRequest::global(subs)));
            }
        }
        Schedule { loads, arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shape() {
        let w = GenericWorkload {
            txns: 25,
            ..Default::default()
        };
        let s = w.generate();
        assert_eq!(s.arrivals.len(), 25);
        assert_eq!(s.loads.len(), (w.sites as u64 * w.keys_per_site) as usize);
    }

    #[test]
    fn write_fraction_respected() {
        let w = GenericWorkload {
            txns: 200,
            write_fraction: 0.25,
            ..Default::default()
        };
        let mut writes = 0usize;
        let mut total = 0usize;
        for (_, req) in w.generate().arrivals {
            let subs = match req {
                TxnRequest::Global { subs, .. } => subs,
                TxnRequest::Local { site, ops } => Arc::from([(site, ops)]),
            };
            for (_, ops) in subs.iter() {
                for op in ops.iter() {
                    total += 1;
                    if matches!(op, Op::Add(..)) {
                        writes += 1;
                    }
                }
            }
        }
        let frac = writes as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.05, "{frac}");
    }

    #[test]
    fn hotspot_skew_concentrates_keys() {
        let hot = GenericWorkload {
            txns: 300,
            zipf_theta: 0.99,
            ..Default::default()
        };
        let mut count_key0 = 0usize;
        let mut total = 0usize;
        for (_, req) in hot.generate().arrivals {
            if let TxnRequest::Global { subs, .. } = req {
                for (_, ops) in subs.iter() {
                    for op in ops.iter() {
                        total += 1;
                        if op.key() == Key(0) {
                            count_key0 += 1;
                        }
                    }
                }
            }
        }
        let frac = count_key0 as f64 / total as f64;
        assert!(frac > 0.10, "hottest key should dominate: {frac}");
    }

    #[test]
    fn single_site_global_allowed() {
        let w = GenericWorkload {
            sites_per_txn: 1,
            txns: 5,
            ..Default::default()
        };
        assert_eq!(w.generate().arrivals.len(), 5);
    }
}

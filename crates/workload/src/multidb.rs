//! Multidatabase workload: autonomy under global traffic.
//!
//! The paper's motivating setting (§1) is a *multidatabase*: autonomous,
//! possibly competing DBMSs whose local work must not be harmed by global
//! transactions — "it is undesirable … to use a protocol where a site
//! belonging to a competing organization can harmfully or mistakenly block
//! the local resources". This workload models that: each site runs a heavy
//! stream of its own local transactions while a configurable trickle of
//! global transactions cuts across sites. The statistic of interest is the
//! *local* transaction latency — how much does the foreign protocol inflate
//! it?

use crate::Schedule;
use o2pc_common::rng::Zipf;
use o2pc_common::{DetRng, Duration, Key, Op, Program, SimTime, SiteId, Value};
use o2pc_core::TxnRequest;

/// Autonomy-focused mix: per-site local streams + cross-site globals.
#[derive(Clone, Debug)]
pub struct MultidbWorkload {
    /// Number of autonomous sites.
    pub sites: u32,
    /// Data items per site.
    pub keys_per_site: u64,
    /// Initial value per item.
    pub initial_value: i64,
    /// Local transactions **per site**.
    pub locals_per_site: usize,
    /// Operations per local transaction.
    pub ops_per_local: usize,
    /// Global transactions (across 2 sites each) interleaved with the
    /// local streams.
    pub globals: usize,
    /// Operations per global subtransaction.
    pub ops_per_sub: usize,
    /// Mean inter-arrival time of local transactions at each site.
    pub local_interarrival: Duration,
    /// Mean inter-arrival time of global transactions (system-wide).
    pub global_interarrival: Duration,
    /// Zipf skew over each site's keys.
    pub zipf_theta: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for MultidbWorkload {
    fn default() -> Self {
        MultidbWorkload {
            sites: 4,
            keys_per_site: 16,
            initial_value: 100,
            locals_per_site: 150,
            ops_per_local: 3,
            globals: 60,
            ops_per_sub: 3,
            local_interarrival: Duration::millis(1),
            global_interarrival: Duration::millis(4),
            zipf_theta: 0.7,
            seed: 0x3D8,
        }
    }
}

impl MultidbWorkload {
    fn ops(&self, n: usize, rng: &mut DetRng, zipf: &Zipf) -> Program {
        (0..n)
            .map(|_| {
                let key = Key(zipf.sample(rng) as u64);
                if rng.gen_bool(0.5) {
                    Op::Add(key, if rng.gen_bool(0.5) { 1 } else { -1 })
                } else {
                    Op::Read(key)
                }
            })
            .collect()
    }

    /// Generate the schedule (arrivals sorted by time).
    pub fn generate(&self) -> Schedule {
        assert!(self.sites >= 2);
        let mut rng = DetRng::new(self.seed);
        let zipf = Zipf::new(self.keys_per_site as usize, self.zipf_theta);
        let mut loads = Vec::new();
        for s in 0..self.sites {
            for k in 0..self.keys_per_site {
                loads.push((SiteId(s), Key(k), Value(self.initial_value)));
            }
        }
        let mut arrivals: Vec<(SimTime, TxnRequest)> = Vec::new();
        // Per-site local streams.
        for s in 0..self.sites {
            let mut t = SimTime::ZERO;
            let mut site_rng = rng.fork(s as u64 + 1);
            for _ in 0..self.locals_per_site {
                t += Duration::micros(
                    site_rng.gen_exp(self.local_interarrival.as_micros() as f64) as u64
                );
                let ops = self.ops(self.ops_per_local, &mut site_rng, &zipf);
                arrivals.push((t, TxnRequest::local(SiteId(s), ops)));
            }
        }
        // Global trickle.
        let mut t = SimTime::ZERO;
        for _ in 0..self.globals {
            t += Duration::micros(rng.gen_exp(self.global_interarrival.as_micros() as f64) as u64);
            let chosen = rng.sample_indices(self.sites as usize, 2);
            let subs = chosen.into_iter().map(|s| {
                let ops = self.ops(self.ops_per_sub, &mut rng, &zipf);
                (SiteId(s as u32), ops)
            });
            arrivals.push((t, TxnRequest::global(subs)));
        }
        arrivals.sort_by_key(|&(t, _)| t);
        Schedule { loads, arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_order() {
        let w = MultidbWorkload {
            locals_per_site: 20,
            globals: 10,
            ..Default::default()
        };
        let s = w.generate();
        assert_eq!(s.arrivals.len(), 4 * 20 + 10);
        for pair in s.arrivals.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "arrivals must be time-sorted");
        }
        let locals = s
            .arrivals
            .iter()
            .filter(|(_, r)| matches!(r, TxnRequest::Local { .. }))
            .count();
        assert_eq!(locals, 80);
    }

    #[test]
    fn locals_are_spread_over_all_sites() {
        let w = MultidbWorkload {
            locals_per_site: 30,
            globals: 0,
            ..Default::default()
        };
        let mut per_site = vec![0usize; w.sites as usize];
        for (_, r) in w.generate().arrivals {
            if let TxnRequest::Local { site, .. } = r {
                per_site[site.index()] += 1;
            }
        }
        assert!(per_site.iter().all(|&c| c == 30), "{per_site:?}");
    }

    #[test]
    fn deterministic() {
        let w = MultidbWorkload::default();
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.0, y.0);
        }
    }
}

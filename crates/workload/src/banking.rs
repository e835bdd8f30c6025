//! Multi-site bank transfers.

use crate::Schedule;
use o2pc_common::{DetRng, Duration, Key, Op, Program, SimTime, SiteId, Value};
use o2pc_core::TxnRequest;

/// Money transfers between accounts held at different branches (sites).
/// All updates are commutative `Add` deltas, so compensation is exact and
/// the total amount of money is a run invariant.
#[derive(Clone, Debug)]
pub struct BankingWorkload {
    /// Number of branch sites.
    pub sites: u32,
    /// Accounts per branch.
    pub accounts_per_site: u64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Number of global transfer transactions.
    pub transfers: usize,
    /// Sites touched per transfer (2 = classic pairwise transfer; more
    /// models salary-batch style fan-out).
    pub sites_per_transfer: usize,
    /// Mean inter-arrival time (exponential).
    pub mean_interarrival: Duration,
    /// Fraction of arrivals that are single-site local transactions
    /// (balance audits + small adjustments).
    pub local_fraction: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for BankingWorkload {
    fn default() -> Self {
        BankingWorkload {
            sites: 4,
            accounts_per_site: 16,
            initial_balance: 1_000,
            transfers: 200,
            sites_per_transfer: 2,
            mean_interarrival: Duration::millis(2),
            local_fraction: 0.0,
            seed: 0xBA2C,
        }
    }
}

impl BankingWorkload {
    /// Generate the schedule.
    pub fn generate(&self) -> Schedule {
        assert!(self.sites >= 2, "transfers need at least two branches");
        assert!(self.sites_per_transfer >= 2 && self.sites_per_transfer <= self.sites as usize);
        let mut rng = DetRng::new(self.seed);
        let mut loads = Vec::new();
        for s in 0..self.sites {
            for a in 0..self.accounts_per_site {
                loads.push((SiteId(s), Key(a), Value(self.initial_balance)));
            }
        }
        let mut arrivals = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..self.transfers {
            t += Duration::micros(rng.gen_exp(self.mean_interarrival.as_micros() as f64) as u64);
            if rng.gen_bool(self.local_fraction) {
                let site = SiteId(rng.gen_range(self.sites as u64) as u32);
                let acct = Key(rng.gen_range(self.accounts_per_site));
                // Audit-and-adjust: read then a net-zero pair of updates.
                arrivals.push((
                    t,
                    TxnRequest::local(site, [Op::Read(acct), Op::Add(acct, 1), Op::Add(acct, -1)]),
                ));
                continue;
            }
            let chosen = rng.sample_indices(self.sites as usize, self.sites_per_transfer);
            let amount = 1 + rng.gen_range(50) as i64;
            // First site is the source; the amount is split over the rest.
            let share = amount / (chosen.len() as i64 - 1).max(1);
            let mut distributed = 0;
            let subs = chosen.iter().enumerate().map(|(i, &s)| {
                let acct = Key(rng.gen_range(self.accounts_per_site));
                let ops = if i == 0 {
                    Program::from([Op::Read(acct), Op::Add(acct, -amount)])
                } else {
                    let d = if i == chosen.len() - 1 {
                        amount - distributed
                    } else {
                        share
                    };
                    distributed += d;
                    Program::from([Op::Add(acct, d)])
                };
                (SiteId(s as u32), ops)
            });
            arrivals.push((t, TxnRequest::global(subs)));
        }
        Schedule { loads, arrivals }
    }

    /// The invariant total (sum of all balances).
    pub fn expected_total(&self) -> i64 {
        self.sites as i64 * self.accounts_per_site as i64 * self.initial_balance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let w = BankingWorkload {
            transfers: 50,
            ..Default::default()
        };
        let s = w.generate();
        assert_eq!(
            s.loads.len(),
            (w.sites as u64 * w.accounts_per_site) as usize
        );
        assert_eq!(s.arrivals.len(), 50);
        assert_eq!(s.total_loaded(), w.expected_total());
        // Arrivals are time-ordered.
        for pair in s.arrivals.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn transfers_are_zero_sum() {
        let w = BankingWorkload {
            transfers: 100,
            sites_per_transfer: 3,
            seed: 9,
            ..Default::default()
        };
        for (_, req) in w.generate().arrivals {
            if let TxnRequest::Global { subs, .. } = req {
                let net: i64 = subs
                    .iter()
                    .flat_map(|(_, ops)| ops.iter())
                    .map(|op| match op {
                        Op::Add(_, d) => *d,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(net, 0, "transfer must be zero-sum");
                // Distinct sites.
                let mut sites: Vec<_> = subs.iter().map(|(s, _)| *s).collect();
                sites.dedup();
                assert_eq!(sites.len(), 3);
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let w = BankingWorkload {
            transfers: 30,
            ..Default::default()
        };
        let a = w.generate();
        let b = w.generate();
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(b.arrivals.iter()) {
            assert_eq!(x.0, y.0);
        }
    }

    #[test]
    fn local_fraction_generates_locals() {
        let w = BankingWorkload {
            transfers: 200,
            local_fraction: 0.5,
            ..Default::default()
        };
        let locals = w
            .generate()
            .arrivals
            .iter()
            .filter(|(_, r)| matches!(r, TxnRequest::Local { .. }))
            .count();
        assert!((60..=140).contains(&locals), "locals ≈ half: {locals}");
    }
}

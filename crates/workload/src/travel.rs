//! Federated travel booking (restricted model).

use crate::Schedule;
use o2pc_common::{DetRng, Duration, Key, Op, Program, SimTime, SiteId, Value};
use o2pc_core::TxnRequest;

/// Trip bookings across autonomous reservation systems: a flight site, a
/// hotel site, and a car-rental site (repeated in blocks when more sites
/// are requested). Each booking `Reserve`s one unit of a date-keyed
/// inventory item at every leg; an exhausted item makes that subtransaction
/// fail, so the global booking aborts and the already-reserved legs are
/// compensated with `Release` — the paper's restricted-model story, with
/// *organic* aborts whose rate is controlled by inventory scarcity.
#[derive(Clone, Debug)]
pub struct TravelWorkload {
    /// Number of reservation sites (≥ 2).
    pub sites: u32,
    /// Inventory items (dates/resources) per site.
    pub items_per_site: u64,
    /// Initial units per item — scarcity knob: lower = more organic aborts.
    pub capacity: i64,
    /// Number of trip bookings.
    pub bookings: usize,
    /// Legs per trip (sites touched).
    pub legs: usize,
    /// Mean inter-arrival time.
    pub mean_interarrival: Duration,
    /// Seed.
    pub seed: u64,
}

impl Default for TravelWorkload {
    fn default() -> Self {
        TravelWorkload {
            sites: 3,
            items_per_site: 8,
            capacity: 10,
            bookings: 100,
            legs: 3,
            mean_interarrival: Duration::millis(2),
            seed: 0x7AE1,
        }
    }
}

impl TravelWorkload {
    /// Generate the schedule.
    pub fn generate(&self) -> Schedule {
        assert!(self.legs >= 2 && self.legs <= self.sites as usize);
        let mut rng = DetRng::new(self.seed);
        let mut loads = Vec::new();
        for s in 0..self.sites {
            for i in 0..self.items_per_site {
                loads.push((SiteId(s), Key(i), Value(self.capacity)));
            }
        }
        let mut arrivals = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..self.bookings {
            t += Duration::micros(rng.gen_exp(self.mean_interarrival.as_micros() as f64) as u64);
            let chosen = rng.sample_indices(self.sites as usize, self.legs);
            let subs = chosen.into_iter().map(|s| {
                let item = Key(rng.gen_range(self.items_per_site));
                let ops = Program::from([Op::Read(item), Op::Reserve(item, 1)]);
                (SiteId(s as u32), ops)
            });
            arrivals.push((t, TxnRequest::global(subs)));
        }
        Schedule { loads, arrivals }
    }

    /// Total units loaded.
    pub fn total_units(&self) -> i64 {
        self.sites as i64 * self.items_per_site as i64 * self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let w = TravelWorkload {
            bookings: 40,
            ..Default::default()
        };
        let s = w.generate();
        assert_eq!(s.arrivals.len(), 40);
        assert_eq!(s.total_loaded(), w.total_units());
        let s2 = w.generate();
        assert_eq!(s.arrivals.len(), s2.arrivals.len());
    }

    #[test]
    fn each_booking_reserves_on_distinct_sites() {
        let w = TravelWorkload {
            legs: 3,
            bookings: 50,
            ..Default::default()
        };
        for (_, req) in w.generate().arrivals {
            let TxnRequest::Global { subs, .. } = req else {
                panic!("all global")
            };
            assert_eq!(subs.len(), 3);
            let mut sites: Vec<_> = subs.iter().map(|(s, _)| *s).collect();
            sites.sort();
            sites.dedup();
            assert_eq!(sites.len(), 3);
            for (_, ops) in subs.iter() {
                assert!(ops.iter().any(|o| matches!(o, Op::Reserve(_, 1))));
            }
        }
    }
}

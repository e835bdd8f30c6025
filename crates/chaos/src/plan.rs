//! Seeded chaos-schedule generation.
//!
//! A [`ChaosPlan`] is a list of [`Fault`]s, all derived from one seed and
//! all confined to the window `[0, heal_at)`. After `heal_at` every site is
//! up, every link whole, and the message layer reliable again — which is
//! exactly what licenses the oracle's liveness-under-quiescence check: a
//! hardened engine given unbounded quiet time has no excuse left.

use o2pc_common::{DetRng, Duration, SimTime, SiteId};
use o2pc_sim::{FailurePlan, LatencyModel, NetworkConfig};

/// One injected fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// A site is down over `[from, to)`.
    Crash {
        /// The crashing site.
        site: SiteId,
        /// Crash instant.
        from: SimTime,
        /// Recovery instant.
        to: SimTime,
    },
    /// The (bidirectional) link between two sites is severed over
    /// `[from, to)`.
    Partition {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
        /// Outage start.
        from: SimTime,
        /// Outage end.
        to: SimTime,
    },
    /// Every message is independently lost with this probability while the
    /// chaos window is open.
    Drop {
        /// Per-message loss probability.
        probability: f64,
    },
    /// Every delivered message is independently delivered a second time
    /// with this probability while the chaos window is open.
    Duplicate {
        /// Per-message duplication probability.
        probability: f64,
    },
    /// Extra exponential delay added to every delivery while the chaos
    /// window is open.
    ExtraDelay {
        /// Mean of the extra delay.
        mean: Duration,
    },
}

/// Tunables for [`ChaosPlan::generate`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Number of sites in the system under test.
    pub num_sites: u32,
    /// Every fault window closes at or before this instant.
    pub heal_at: SimTime,
    /// Upper bound on crash windows per plan (capped at `num_sites - 1`:
    /// the generator never downs every site at once).
    pub max_crashes: usize,
    /// Upper bound on link partitions per plan.
    pub max_partitions: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            num_sites: 4,
            heal_at: SimTime::ZERO + Duration::millis(300),
            max_crashes: 2,
            max_partitions: 2,
        }
    }
}

/// A reproducible fault schedule: `generate(seed, cfg)` is a pure function,
/// so a failing seed replays bit-for-bit.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// The seed this plan (and the run driven by it) derives from.
    pub seed: u64,
    /// Number of sites the plan targets.
    pub num_sites: u32,
    /// Instant after which no fault is active.
    pub heal_at: SimTime,
    /// The faults, in generation order.
    pub faults: Vec<Fault>,
}

impl ChaosPlan {
    /// Derive a full fault schedule from a seed.
    ///
    /// Message-layer chaos is always present — drop and duplication
    /// probabilities each land in `[0.05, 0.15]` — and at least one site
    /// crash is always scheduled, so every plan exercises retransmission,
    /// deduplication, and crash recovery together.
    pub fn generate(seed: u64, cfg: &ChaosConfig) -> ChaosPlan {
        assert!(cfg.num_sites >= 2, "chaos plans need at least two sites");
        let heal = cfg.heal_at.micros();
        assert!(heal >= 8, "heal window too short to place fault windows");
        let mut rng = DetRng::new(seed ^ 0xC4A0_5EED);
        let mut faults = Vec::new();
        faults.push(Fault::Drop {
            probability: 0.05 + rng.gen_range(101) as f64 / 1_000.0,
        });
        faults.push(Fault::Duplicate {
            probability: 0.05 + rng.gen_range(101) as f64 / 1_000.0,
        });
        if rng.gen_bool(0.5) {
            faults.push(Fault::ExtraDelay {
                mean: Duration::micros(rng.gen_range_inclusive(500, 5_000)),
            });
        }
        let window = |rng: &mut DetRng| {
            let from = rng.gen_range(heal * 3 / 4);
            let len = rng.gen_range_inclusive(heal / 8, heal / 3);
            (SimTime(from), SimTime((from + len).min(heal)))
        };
        let max_crashes = cfg.max_crashes.clamp(1, cfg.num_sites as usize - 1);
        let crashes = 1 + rng.gen_range(max_crashes as u64) as usize;
        // Distinct sites: overlapping windows at one site would make the
        // scripted crash/recover event pairs ambiguous.
        let crash_sites = rng.sample_indices(cfg.num_sites as usize, crashes);
        for idx in crash_sites {
            let (from, to) = window(&mut rng);
            faults.push(Fault::Crash {
                site: SiteId(idx as u32),
                from,
                to,
            });
        }
        let partitions = rng.gen_range(cfg.max_partitions as u64 + 1) as usize;
        for _ in 0..partitions {
            let pair = rng.sample_indices(cfg.num_sites as usize, 2);
            let (from, to) = window(&mut rng);
            faults.push(Fault::Partition {
                a: SiteId(pair[0] as u32),
                b: SiteId(pair[1] as u32),
                from,
                to,
            });
        }
        ChaosPlan {
            seed,
            num_sites: cfg.num_sites,
            heal_at: cfg.heal_at,
            faults,
        }
    }

    /// The scripted crash/partition layer of this plan.
    pub fn failure_plan(&self) -> FailurePlan {
        let mut plan = FailurePlan::new();
        for f in &self.faults {
            match *f {
                Fault::Crash { site, from, to } => plan.site_crash(site, from, to),
                Fault::Partition { a, b, from, to } => plan.link_outage(a, b, from, to),
                _ => {}
            }
        }
        plan
    }

    /// Lay this plan's message-layer faults (loss, duplication, jitter) over
    /// `net`, healing at [`ChaosPlan::heal_at`]. A fault shrunk away leaves
    /// its knob off.
    pub fn message_faults(&self, net: &mut NetworkConfig) {
        net.drop_probability = self.drop_probability();
        net.duplicate_probability = self.duplicate_probability();
        net.extra_delay = self.faults.iter().find_map(|f| match *f {
            Fault::ExtraDelay { mean } => Some(LatencyModel::Exponential(mean)),
            _ => None,
        });
        net.heal_at = Some(self.heal_at);
    }

    /// Sites with a scheduled crash window (coverage accounting).
    pub fn crash_sites(&self) -> Vec<SiteId> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::Crash { site, .. } => Some(*site),
                _ => None,
            })
            .collect()
    }

    /// The plan's message-drop probability (0.0 if the fault was shrunk
    /// away).
    pub fn drop_probability(&self) -> f64 {
        self.faults
            .iter()
            .find_map(|f| match f {
                Fault::Drop { probability } => Some(*probability),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// The plan's message-duplication probability (0.0 if shrunk away).
    pub fn duplicate_probability(&self) -> f64 {
        self.faults
            .iter()
            .find_map(|f| match f {
                Fault::Duplicate { probability } => Some(*probability),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// A copy of the plan with fault `idx` removed (shrinking step).
    pub fn without(&self, idx: usize) -> ChaosPlan {
        let mut shrunk = self.clone();
        shrunk.faults.remove(idx);
        shrunk
    }

    /// Human-readable schedule, one fault per line.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "seed {:#x}: {} sites, heal at {} µs, {} faults\n",
            self.seed,
            self.num_sites,
            self.heal_at.micros(),
            self.faults.len()
        );
        for f in &self.faults {
            let line = match *f {
                Fault::Crash { site, from, to } => {
                    format!(
                        "  crash     {site} down [{}, {}) µs",
                        from.micros(),
                        to.micros()
                    )
                }
                Fault::Partition { a, b, from, to } => {
                    format!(
                        "  partition {a}–{b} cut [{}, {}) µs",
                        from.micros(),
                        to.micros()
                    )
                }
                Fault::Drop { probability } => format!("  drop      p = {probability:.3}"),
                Fault::Duplicate { probability } => format!("  duplicate p = {probability:.3}"),
                Fault::ExtraDelay { mean } => {
                    format!("  delay     +Exp(mean {} µs)", mean.as_micros())
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = ChaosPlan::generate(42, &cfg);
        let b = ChaosPlan::generate(42, &cfg);
        assert_eq!(a.describe(), b.describe());
        let c = ChaosPlan::generate(43, &cfg);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn every_plan_has_loss_duplication_and_a_crash() {
        let cfg = ChaosConfig::default();
        for seed in 0..200 {
            let p = ChaosPlan::generate(seed, &cfg);
            assert!(p.drop_probability() >= 0.05, "seed {seed}");
            assert!(p.drop_probability() <= 0.151, "seed {seed}");
            assert!(p.duplicate_probability() >= 0.05, "seed {seed}");
            assert!(!p.crash_sites().is_empty(), "seed {seed}");
            // Never every site at once.
            assert!(p.crash_sites().len() < cfg.num_sites as usize);
        }
    }

    #[test]
    fn fault_windows_close_by_heal() {
        let cfg = ChaosConfig::default();
        for seed in 0..200 {
            let p = ChaosPlan::generate(seed, &cfg);
            for f in &p.faults {
                match *f {
                    Fault::Crash { from, to, .. } | Fault::Partition { from, to, .. } => {
                        assert!(from < to, "seed {seed}: degenerate window");
                        assert!(to <= p.heal_at, "seed {seed}: window past heal");
                    }
                    _ => {}
                }
            }
            let mut net = NetworkConfig::default();
            p.message_faults(&mut net);
            assert_eq!(net.heal_at, Some(p.heal_at));
        }
    }

    #[test]
    fn without_removes_exactly_one_fault() {
        let p = ChaosPlan::generate(7, &ChaosConfig::default());
        let n = p.faults.len();
        let q = p.without(0);
        assert_eq!(q.faults.len(), n - 1);
        // Dropping the Drop fault zeroes the probability.
        assert_eq!(q.drop_probability(), 0.0);
        assert!(p.drop_probability() > 0.0);
    }
}

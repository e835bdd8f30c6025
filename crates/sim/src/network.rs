//! The one network both runtimes send through: latency models, loss,
//! duplication, partitions, routes, and the message ledger.
//!
//! [`Network::judge`] decides every message at send time. The simulator
//! queues what it returns on its virtual clock and the threaded runtime on
//! the wall clock; the decision, its random draws and the ledger are this
//! one piece of code on both.

use crate::failure::FailurePlan;
use o2pc_common::{DetRng, Duration, SimTime, SiteId};
use std::collections::HashMap;

/// How long a message takes on a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(Duration),
    /// Uniform in `[lo, hi]`.
    Uniform(Duration, Duration),
    /// Exponential with the given mean, capped at 10× the mean (keeps the
    /// virtual clock well-behaved without changing the distribution shape
    /// meaningfully).
    Exponential(Duration),
}

impl LatencyModel {
    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut DetRng) -> Duration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                debug_assert!(lo <= hi);
                Duration::micros(rng.gen_range_inclusive(lo.as_micros(), hi.as_micros()))
            }
            LatencyModel::Exponential(mean) => {
                let cap = mean.as_micros().saturating_mul(10);
                let v = rng.gen_exp(mean.as_micros() as f64) as u64;
                Duration::micros(v.min(cap))
            }
        }
    }
}

/// Static configuration of the network.
///
/// Loss, duplication and `extra_delay` are the fault layer: they apply to
/// sends before `heal_at`, or to every send when it is `None`. Past the
/// heal point the network is its latency model alone, which is what makes
/// liveness-under-quiescence a checkable invariant.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Latency applied to every link without an override.
    pub default_latency: LatencyModel,
    /// Per-ordered-link overrides.
    pub link_latency: HashMap<(SiteId, SiteId), LatencyModel>,
    /// Probability that a message is lost (0.0 = reliable).
    pub drop_probability: f64,
    /// Probability that a delivered message is delivered a second time,
    /// with an independently sampled latency (so it can also reorder).
    pub duplicate_probability: f64,
    /// Extra delay added to every delivery.
    pub extra_delay: Option<LatencyModel>,
    /// The fault layer applies to sends at `t < heal_at`; `None` = never
    /// heals.
    pub heal_at: Option<SimTime>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_latency: LatencyModel::Fixed(Duration::millis(1)),
            link_latency: HashMap::new(),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            extra_delay: None,
            heal_at: None,
        }
    }
}

impl NetworkConfig {
    /// Reliable network with a fixed latency everywhere.
    pub fn fixed(latency: Duration) -> Self {
        NetworkConfig {
            default_latency: LatencyModel::Fixed(latency),
            ..Default::default()
        }
    }
}

/// What happened to a message at send time.
///
/// The distinction matters for accounting: a *policy* drop is the
/// configured fault model (a link down, a crashed endpoint, a loss draw),
/// while `NoRoute` means no endpoint was registered for the destination —
/// an infrastructure condition, not injected loss. Conflating the two makes
/// loss-rate oracles lie under crash schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; the message will reach its destination.
    Sent,
    /// Lost on its link (counted in [`Ledger::dropped`]).
    DroppedByPolicy,
    /// No endpoint for the destination (counted in [`Ledger::unroutable`]).
    NoRoute,
}

impl SendOutcome {
    /// Did the network accept the message?
    pub fn is_sent(self) -> bool {
        matches!(self, SendOutcome::Sent)
    }
}

/// The network's count of messages by fate.
///
/// Every send enters `sent` once, whatever its fate; a second copy made by
/// duplication enters `duplicated` instead. At every instant
/// `sent + duplicated = dropped + unroutable + delivered + in flight`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Sends judged, same-site ones included.
    pub sent: u64,
    /// Sends lost on their link.
    pub dropped: u64,
    /// Sends to a destination no endpoint was registered for.
    pub unroutable: u64,
    /// Second copies made by duplication.
    pub duplicated: u64,
    /// Copies handed to their destination.
    pub delivered: u64,
}

impl Ledger {
    /// Accepted copies not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.sent + self.duplicated - self.dropped - self.unroutable - self.delivered
    }
}

/// The live network: configuration, RNG stream, failure plan, routes and
/// ledger.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    rng: DetRng,
    failures: FailurePlan,
    /// Routable destinations, by site index.
    routes: Vec<bool>,
    ledger: Ledger,
}

impl Network {
    /// Build a network from configuration and a dedicated RNG stream.
    pub fn new(config: NetworkConfig, rng: DetRng) -> Self {
        Network {
            config,
            rng,
            failures: FailurePlan::new(),
            routes: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    /// Attach a failure plan (site crashes / link outages).
    pub fn with_failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }

    /// Make `id` a routable destination (idempotent).
    pub fn open_route(&mut self, id: SiteId) {
        if self.routes.len() <= id.index() {
            self.routes.resize(id.index() + 1, false);
        }
        self.routes[id.index()] = true;
    }

    /// Decide the fate of a message sent `from → to` at `now`, and count it.
    ///
    /// `Ok((delay, duplicate))`: deliver after `delay`, and a second copy
    /// after `duplicate` when there is one. The caller **must** deliver
    /// every accepted copy and report each through
    /// [`note_delivered`](Self::note_delivered), or it stays in flight.
    /// `Err` says why the message was lost.
    ///
    /// A same-site send never touches a link: it is delivered at once, and
    /// never lost or duplicated. Destination liveness is checked here, at
    /// send time, by the link test; the engine re-checks at delivery (the
    /// site may crash in flight). The RNG is drawn only for a nonzero
    /// probability or a random latency, in a fixed order: loss, latency,
    /// duplication, the duplicate's latency.
    pub fn judge(
        &mut self,
        from: SiteId,
        to: SiteId,
        now: SimTime,
    ) -> Result<(Duration, Option<Duration>), SendOutcome> {
        self.ledger.sent += 1;
        if !self.routes.get(to.index()).is_some_and(|&open| open) {
            self.ledger.unroutable += 1;
            return Err(SendOutcome::NoRoute);
        }
        if from == to {
            return Ok((Duration::ZERO, None));
        }
        let faulty = self.config.heal_at.is_none_or(|heal| now < heal);
        if !self.failures.link_up(from, to, now)
            || faulty && self.draw(self.config.drop_probability)
        {
            self.ledger.dropped += 1;
            return Err(SendOutcome::DroppedByPolicy);
        }
        let delay = self.delay(from, to, faulty);
        let duplicate = if faulty && self.draw(self.config.duplicate_probability) {
            self.ledger.duplicated += 1;
            Some(self.delay(from, to, faulty))
        } else {
            None
        };
        Ok((delay, duplicate))
    }

    /// Record one accepted copy handed to its destination.
    pub fn note_delivered(&mut self) {
        self.ledger.delivered += 1;
    }

    /// The message ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    fn delay(&mut self, from: SiteId, to: SiteId, faulty: bool) -> Duration {
        let config = &self.config;
        let model = if config.link_latency.is_empty() {
            config.default_latency
        } else {
            config
                .link_latency
                .get(&(from, to))
                .copied()
                .unwrap_or(config.default_latency)
        };
        let extra = config.extra_delay.filter(|_| faulty);
        let mut delay = model.sample(&mut self.rng);
        if let Some(extra) = extra {
            delay += extra.sample(&mut self.rng);
        }
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(config: NetworkConfig) -> Network {
        let mut n = Network::new(config, DetRng::new(7));
        for id in 0..3 {
            n.open_route(SiteId(id));
        }
        n
    }

    fn delay(n: &mut Network, from: u32, to: u32, t: u64) -> Option<Duration> {
        n.judge(SiteId(from), SiteId(to), SimTime(t))
            .ok()
            .map(|(d, _)| d)
    }

    #[test]
    fn fixed_latency() {
        let mut n = net(NetworkConfig::fixed(Duration::millis(2)));
        assert_eq!(delay(&mut n, 0, 1, 0), Some(Duration::millis(2)));
        let ledger = n.ledger();
        assert_eq!((ledger.sent, ledger.dropped, ledger.in_flight()), (1, 0, 1));
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut n = net(NetworkConfig {
            default_latency: LatencyModel::Uniform(Duration::micros(100), Duration::micros(200)),
            ..Default::default()
        });
        for _ in 0..1000 {
            let d = delay(&mut n, 0, 1, 0).unwrap();
            assert!((100..=200).contains(&d.as_micros()), "{d:?}");
        }
    }

    #[test]
    fn exponential_latency_mean_and_cap() {
        let model = LatencyModel::Exponential(Duration::micros(500));
        let mut r = DetRng::new(7);
        let n = 100_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let d = model.sample(&mut r);
            assert!(d.as_micros() <= 5000, "cap at 10x mean");
            sum += d.as_micros();
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 500.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn per_link_override() {
        let mut cfg = NetworkConfig::fixed(Duration::millis(1));
        cfg.link_latency.insert(
            (SiteId(0), SiteId(2)),
            LatencyModel::Fixed(Duration::millis(50)),
        );
        let mut n = net(cfg);
        assert_eq!(delay(&mut n, 0, 1, 0), Some(Duration::millis(1)));
        assert_eq!(delay(&mut n, 0, 2, 0), Some(Duration::millis(50)));
        // Overrides are directional.
        assert_eq!(delay(&mut n, 2, 0, 0), Some(Duration::millis(1)));
    }

    /// Loss is drawn per send at the configured rate, and every loss is
    /// counted: what is not dropped is in flight.
    #[test]
    fn random_drops_counted() {
        let mut n = net(NetworkConfig {
            drop_probability: 0.5,
            ..NetworkConfig::fixed(Duration::millis(1))
        });
        let mut accepted = 0;
        for _ in 0..10_000 {
            match n.judge(SiteId(0), SiteId(1), SimTime::ZERO) {
                Ok(_) => accepted += 1,
                Err(outcome) => assert_eq!(outcome, SendOutcome::DroppedByPolicy),
            }
        }
        let ledger = n.ledger();
        assert_eq!(ledger.sent, 10_000);
        assert_eq!(ledger.dropped + accepted, 10_000);
        assert_eq!(ledger.in_flight(), accepted, "every acceptance is owed");
        let rate = accepted as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn chaos_window_drops_and_duplicates_until_heal() {
        let mut n = net(NetworkConfig {
            drop_probability: 0.3,
            duplicate_probability: 0.3,
            heal_at: Some(SimTime(1_000)),
            ..NetworkConfig::fixed(Duration::millis(1))
        });
        let (mut accepted, mut dups) = (0u64, 0u64);
        for _ in 0..10_000 {
            if let Ok((_, duplicate)) = n.judge(SiteId(0), SiteId(1), SimTime(500)) {
                accepted += 1;
                dups += duplicate.is_some() as u64;
            }
        }
        let ledger = n.ledger();
        assert_eq!(accepted + ledger.dropped, 10_000);
        assert_eq!(ledger.duplicated, dups);
        assert_eq!(ledger.in_flight(), accepted + dups);
        let drop_rate = ledger.dropped as f64 / 10_000.0;
        assert!((drop_rate - 0.3).abs() < 0.03, "drop rate {drop_rate}");
        let dup_rate = dups as f64 / accepted as f64;
        assert!((dup_rate - 0.3).abs() < 0.03, "dup rate {dup_rate}");
        // Past the heal point the base (reliable) model is back.
        for _ in 0..1000 {
            let got = n.judge(SiteId(0), SiteId(1), SimTime(2_000));
            assert_eq!(got, Ok((Duration::millis(1), None)));
        }
    }

    #[test]
    fn chaos_extra_delay_inflates_latency() {
        let mut n = net(NetworkConfig {
            extra_delay: Some(LatencyModel::Fixed(Duration::millis(7))),
            ..NetworkConfig::fixed(Duration::millis(1))
        });
        assert_eq!(delay(&mut n, 0, 1, 0), Some(Duration::millis(8)));
    }

    #[test]
    fn link_outage_blocks_messages() {
        let mut plan = FailurePlan::new();
        plan.link_outage(SiteId(0), SiteId(1), SimTime(100), SimTime(200));
        let mut n = net(NetworkConfig::fixed(Duration::millis(1))).with_failures(plan);
        assert!(delay(&mut n, 0, 1, 50).is_some());
        assert!(delay(&mut n, 0, 1, 150).is_none());
        assert!(delay(&mut n, 1, 0, 150).is_none(), "outage is symmetric");
        assert!(delay(&mut n, 0, 1, 250).is_some());
        assert_eq!(n.ledger().dropped, 2);
    }

    #[test]
    fn crashed_site_cannot_receive() {
        let mut plan = FailurePlan::new();
        plan.site_crash(SiteId(1), SimTime(100), SimTime(300));
        let mut n = net(NetworkConfig::fixed(Duration::millis(1))).with_failures(plan);
        assert!(delay(&mut n, 0, 1, 150).is_none());
        assert!(delay(&mut n, 0, 1, 350).is_some());
    }

    /// A same-site send never touches a link: not the latency, not the
    /// fault layer, not the failure plan, and not the RNG.
    #[test]
    fn same_site_send_skips_the_link() {
        let mut plan = FailurePlan::new();
        plan.site_crash(SiteId(2), SimTime(0), SimTime(10));
        let mut n = net(NetworkConfig {
            drop_probability: 1.0,
            duplicate_probability: 1.0,
            extra_delay: Some(LatencyModel::Exponential(Duration::millis(3))),
            ..NetworkConfig::fixed(Duration::millis(30))
        })
        .with_failures(plan);
        let mut untouched = n.rng.clone();
        assert_eq!(
            n.judge(SiteId(2), SiteId(2), SimTime(5)),
            Ok((Duration::ZERO, None))
        );
        assert_eq!(n.rng.next_u64(), untouched.next_u64(), "no draw");
        assert_eq!(
            n.ledger(),
            Ledger {
                sent: 1,
                ..Ledger::default()
            }
        );
    }

    #[test]
    fn send_to_unregistered_is_unroutable() {
        let mut n = net(NetworkConfig {
            drop_probability: 1.0,
            ..NetworkConfig::default()
        });
        assert_eq!(
            n.judge(SiteId(0), SiteId(9), SimTime::ZERO),
            Err(SendOutcome::NoRoute)
        );
        let ledger = n.ledger();
        assert_eq!((ledger.unroutable, ledger.dropped), (1, 0));
        assert_eq!(ledger.in_flight(), 0, "nothing owed");
    }
}

//! The threaded runtime's network: link policies, the send-time judgement,
//! and the loss ledger.
//!
//! The transport carries nothing and runs no thread.
//! [`ThreadedRuntime`](crate::ThreadedRuntime) delivers its own messages: an
//! accepted zero-latency send is a push onto its ready queue, a delayed one
//! an entry in its wall-clock event queue beside its timers. What only the
//! transport knows is how each directed link behaves ([`LinkPolicy`]), which
//! sites are routable, and how many messages it passed, lost, and saw
//! delivered.

use o2pc_common::SiteId;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::Duration as StdDuration;

/// What happened to a message at send time.
///
/// The distinction matters for accounting: a *policy* drop is the link's
/// configured loss behaving as designed (the chaos fault model), while
/// `NoRoute` means no endpoint was registered for the destination — an
/// infrastructure condition, not injected loss. Conflating the two makes
/// loss-rate oracles lie under crash schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted; the message will reach its destination.
    Sent,
    /// The link's loss policy dropped it (counted in `policy_dropped`).
    DroppedByPolicy,
    /// No endpoint for the destination (counted in `unroutable`).
    NoRoute,
}

impl SendOutcome {
    /// Did the substrate accept the message?
    pub fn is_sent(self) -> bool {
        matches!(self, SendOutcome::Sent)
    }
}

/// Latency/loss behaviour of one link (or the default for all links).
#[derive(Clone, Copy, Debug)]
pub struct LinkPolicy {
    /// Delivery delay, measured from the send.
    pub latency: StdDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered twice.
    pub duplicate_probability: f64,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy {
            latency: StdDuration::ZERO,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl LinkPolicy {
    /// A reliable link with fixed latency.
    pub fn fixed(latency: StdDuration) -> Self {
        LinkPolicy {
            latency,
            ..LinkPolicy::default()
        }
    }
}

/// The links between the sites of one [`ThreadedRuntime`](crate::ThreadedRuntime):
/// a default [`LinkPolicy`] with per-link overrides, the routable sites, and
/// the loss ledger.
///
/// The ledger balances at every instant: `sent = delivered + unroutable +
/// in_flight`. Policy drops never enter `sent`; a duplicate enters it as a
/// second message. `M` is the runtime's message type, which the transport
/// never holds.
pub struct ThreadedTransport<M> {
    default_link: LinkPolicy,
    /// Per-link overrides; empty on most runs, so a send skips the lookup.
    links: HashMap<(SiteId, SiteId), LinkPolicy>,
    /// Routable destinations, by site index.
    routes: Vec<bool>,
    /// SplitMix64 state for the loss and duplication draws.
    loss_rng: u64,
    sent: u64,
    delivered: u64,
    unroutable: u64,
    policy_dropped: u64,
    duplicated: u64,
    _msg: PhantomData<fn() -> M>,
}

impl<M> Default for ThreadedTransport<M> {
    fn default() -> Self {
        Self::new(StdDuration::ZERO)
    }
}

/// Send-time verdict for one message: route + policy sampled together.
pub(crate) enum Judgement {
    /// Deliver (once, or twice when `duplicate`) after `latency`.
    Deliver {
        latency: StdDuration,
        duplicate: bool,
    },
    DropPolicy,
    NoRoute,
}

impl<M> ThreadedTransport<M> {
    /// Create a transport applying `latency` to every delivery.
    pub fn new(latency: StdDuration) -> Self {
        Self::with_policy(LinkPolicy::fixed(latency))
    }

    /// Create a transport with an explicit default link policy.
    pub fn with_policy(default_link: LinkPolicy) -> Self {
        ThreadedTransport {
            default_link,
            links: HashMap::new(),
            routes: Vec::new(),
            loss_rng: 0x9E37_79B9_7F4A_7C15,
            sent: 0,
            delivered: 0,
            unroutable: 0,
            policy_dropped: 0,
            duplicated: 0,
            _msg: PhantomData,
        }
    }

    /// Override the policy of one directed link.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, policy: LinkPolicy) {
        self.links.insert((from, to), policy);
    }

    /// Make `id` a routable destination (idempotent).
    pub(crate) fn open_route(&mut self, id: SiteId) {
        if self.routes.len() <= id.index() {
            self.routes.resize(id.index() + 1, false);
        }
        self.routes[id.index()] = true;
    }

    /// Messages the links carried: every send the loss policy let through,
    /// routable or not, plus duplicates.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Messages handed to their destination.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Deliveries created by link-policy duplication so far.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated
    }

    /// Messages dropped by link loss policy (the configured fault model).
    pub fn policy_dropped_count(&self) -> u64 {
        self.policy_dropped
    }

    /// Messages sent to a site that was never registered.
    pub fn unroutable_count(&self) -> u64 {
        self.unroutable
    }

    /// Messages lost so far: policy drops plus unroutable sends.
    pub fn dropped(&self) -> u64 {
        self.policy_dropped + self.unroutable
    }

    /// Accepted messages not yet delivered, ready or delayed.
    pub fn in_flight(&self) -> u64 {
        self.sent - self.delivered - self.unroutable
    }

    /// Record one delivery handed to the engine.
    pub(crate) fn note_delivered(&mut self) {
        self.delivered += 1;
    }

    fn lose(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.loss_rng = self.loss_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.loss_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Sample route + loss policy for one message and update the ledger. An
    /// accepted message **must** then be delivered and reported through
    /// [`note_delivered`](Self::note_delivered) (twice when duplicated):
    /// it is already counted as sent, so losing it would wedge `in_flight`.
    pub(crate) fn judge(&mut self, from: SiteId, to: SiteId) -> Judgement {
        if !self.routes.get(to.index()).is_some_and(|&open| open) {
            self.sent += 1;
            self.unroutable += 1;
            return Judgement::NoRoute;
        }
        let policy = if self.links.is_empty() {
            self.default_link
        } else {
            self.links
                .get(&(from, to))
                .copied()
                .unwrap_or(self.default_link)
        };
        if self.lose(policy.drop_probability) {
            self.policy_dropped += 1;
            return Judgement::DropPolicy;
        }
        let duplicate = self.lose(policy.duplicate_probability);
        self.sent += 1 + duplicate as u64;
        self.duplicated += duplicate as u64;
        Judgement::Deliver {
            latency: policy.latency,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_hook_drops_roughly_at_rate() {
        let mut t: ThreadedTransport<u32> = ThreadedTransport::with_policy(LinkPolicy {
            drop_probability: 0.5,
            ..LinkPolicy::default()
        });
        t.open_route(SiteId(0));
        let accepted = (0..2000)
            .filter(|_| matches!(t.judge(SiteId(1), SiteId(0)), Judgement::Deliver { .. }))
            .count();
        assert_eq!(accepted + t.dropped() as usize, 2000);
        assert_eq!(
            t.dropped(),
            t.policy_dropped_count(),
            "all drops are policy"
        );
        let rate = accepted as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.08, "acceptance rate {rate}");
        assert_eq!(t.in_flight(), accepted as u64, "every acceptance is owed");
    }
}

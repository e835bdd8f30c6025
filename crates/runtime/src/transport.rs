//! The threaded runtime's network handle.
//!
//! A [`ThreadedRuntime`](crate::ThreadedRuntime) sends through the same
//! [`Network`] as the simulator — one link model, one send-time judgement
//! ([`Network::judge`]), one ledger — and delivers what it accepts on the
//! wall clock. The transport carries that network into the runtime.

use o2pc_common::{DetRng, Duration};
use o2pc_sim::{Network, NetworkConfig};
use std::marker::PhantomData;
use std::time::Duration as StdDuration;

/// The [`Network`] a [`ThreadedRuntime`](crate::ThreadedRuntime) is built
/// on.
///
/// `M` is the runtime's message type, which the transport never holds; the
/// parameter stays because `benchmark/src` names it.
pub struct ThreadedTransport<M> {
    pub(crate) network: Network,
    _msg: PhantomData<fn() -> M>,
}

impl<M> Default for ThreadedTransport<M> {
    /// Reliable zero-latency links.
    fn default() -> Self {
        Self::new(NetworkConfig::fixed(Duration::ZERO))
    }
}

impl<M> ThreadedTransport<M> {
    /// Links as `config` describes them. Loss, duplication and random
    /// latencies draw from a fixed seed: a wall-clock run does not replay
    /// anyway.
    pub fn new(config: NetworkConfig) -> Self {
        ThreadedTransport {
            network: Network::new(config, DetRng::new(0x6e65)),
            _msg: PhantomData,
        }
    }

    /// [`new`](Self::new), under the name `benchmark/src` uses.
    #[doc(hidden)]
    pub fn with_policy(config: NetworkConfig) -> Self {
        Self::new(config)
    }
}

/// `LinkPolicy::fixed(latency)` is [`NetworkConfig::fixed`] on a std
/// duration, under the name `benchmark/src` uses.
#[doc(hidden)]
pub struct LinkPolicy;

impl LinkPolicy {
    /// Reliable links of fixed `latency`, in whole microseconds.
    pub fn fixed(latency: StdDuration) -> NetworkConfig {
        NetworkConfig::fixed(Duration::micros(latency.as_micros() as u64))
    }
}

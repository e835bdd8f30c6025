//! Open-loop client layer for the threaded backend.
//!
//! A closed-loop driver (each client waits for its previous transaction
//! before issuing the next) can never expose queueing collapse: the system
//! throttles its own offered load. Real servers are measured **open-loop**:
//! many independent client sessions issue requests on their own Poisson
//! clocks regardless of completions, and the interesting numbers are the
//! achieved throughput *and* the latency tail (p50/p99/p999 measured from
//! the scheduled submit time, so admission queueing counts).
//!
//! [`OpenLoopClients`] models that layer: `sessions` independent clients
//! whose merged arrival stream offers `offered_txn_per_sec` transactions
//! per second over the banking request mix. The superposed stream feeds the
//! engine's admission gate (`SystemConfig::admission_window`), which bounds
//! concurrent in-flight transactions per coordinator site — the pipelined
//! server absorbs bursts in its queue instead of thrashing.

use o2pc_common::{DetRng, Duration, Histogram, SimTime};
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent};
use o2pc_runtime::{ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use o2pc_sim::NetworkConfig;
use o2pc_workload::{BankingWorkload, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A population of independent open-loop client sessions.
///
/// The request *mix* (sites, accounts, transfer shape, local fraction)
/// comes from the embedded [`BankingWorkload`]; its `transfers` and
/// `mean_interarrival` fields are ignored — arrival timing is owned by the
/// session model here, and the total request count by `total_txns`.
#[derive(Clone, Debug)]
pub struct OpenLoopClients {
    /// Number of concurrent client sessions, each with an independent
    /// Poisson arrival clock of rate `offered_txn_per_sec / sessions`.
    pub sessions: usize,
    /// Aggregate offered load across all sessions.
    pub offered_txn_per_sec: f64,
    /// Total transactions to issue (the run ends when all are decided).
    pub total_txns: usize,
    /// Request-mix parameters (timing fields ignored).
    pub mix: BankingWorkload,
}

impl OpenLoopClients {
    /// Generate the merged arrival schedule: each session draws exponential
    /// inter-arrival gaps from its own deterministic stream, and the
    /// sessions' clocks are merged in time order (ties broken by session
    /// id, so the schedule is a pure function of the seed).
    pub fn schedule(&self) -> Schedule {
        assert!(self.sessions > 0, "need at least one session");
        assert!(
            self.offered_txn_per_sec > 0.0,
            "offered load must be positive"
        );
        // Reuse the banking generator for the request mix only.
        let base = BankingWorkload {
            transfers: self.total_txns,
            ..self.mix.clone()
        }
        .generate();
        let per_session_mean_us = self.sessions as f64 * 1e6 / self.offered_txn_per_sec;
        let mut root = DetRng::new(self.mix.seed ^ 0x0EE2_C10C);
        let mut rngs: Vec<DetRng> = (0..self.sessions).map(|s| root.fork(s as u64)).collect();
        // Min-heap of (next arrival instant, session id).
        let mut clocks: BinaryHeap<Reverse<(u64, usize)>> = (0..self.sessions)
            .map(|s| Reverse((rngs[s].gen_exp(per_session_mean_us) as u64, s)))
            .collect();
        let mut arrivals = Vec::with_capacity(base.arrivals.len());
        for (_, req) in base.arrivals {
            let Reverse((t, s)) = clocks.pop().expect("one clock per session");
            arrivals.push((SimTime(t), req));
            let gap = rngs[s].gen_exp(per_session_mean_us) as u64;
            clocks.push(Reverse((t + gap.max(1), s)));
        }
        Schedule {
            loads: base.loads,
            arrivals,
        }
    }
}

/// What one open-loop run measured.
pub struct OpenLoopOutcome {
    /// The load the sessions offered.
    pub offered_txn_per_sec: f64,
    /// Decided transactions (global + local) per second of the run's busy
    /// window: from its start to its last step. Below capacity this tracks
    /// the offered rate; past it, the server's service rate.
    pub achieved_txn_per_sec: f64,
    /// Wall time of the run, including the idle grace after its last step.
    pub wall_secs: f64,
    /// The engine's full report (latency histograms, counters, invariants).
    pub report: RunReport,
}

impl OpenLoopOutcome {
    /// End-to-end transaction latency over global *and* local commits,
    /// measured from each request's scheduled submit time.
    pub fn latency(&self) -> Histogram {
        let mut h = self.report.global_latency.clone();
        h.merge(&self.report.local_latency);
        h
    }
}

/// Drive one open-loop run on the threaded runtime: build the transport
/// with `link_latency` on every link, install the merged session schedule,
/// run to quiescence (bounded by `horizon` of wall time), and fold the
/// result into an [`OpenLoopOutcome`].
pub fn run_open_loop(
    cfg: SystemConfig,
    link_latency: Duration,
    clients: &OpenLoopClients,
    horizon: Duration,
) -> OpenLoopOutcome {
    let schedule = clients.schedule();
    let transport: ThreadedTransport<Msg> =
        ThreadedTransport::new(NetworkConfig::fixed(link_latency));
    let rt_cfg = ThreadedRuntimeConfig::default();
    let rt: ThreadedRuntime<TimerEvent, Msg> = ThreadedRuntime::new(transport, rt_cfg);
    let mut engine = Engine::with_runtime(cfg, rt);
    schedule.install(&mut engine);
    let start = Instant::now();
    let report = engine.run(horizon);
    let wall_secs = start.elapsed().as_secs_f64();
    // `run` returns one idle grace after its last step; that wait is the
    // quiescence check, not service.
    let busy_secs = wall_secs - rt_cfg.idle_grace.as_secs_f64();
    let decided = report.global_committed
        + report.global_aborted
        + report.local_committed
        + report.local_aborted;
    OpenLoopOutcome {
        offered_txn_per_sec: clients.offered_txn_per_sec,
        achieved_txn_per_sec: decided as f64 / busy_secs.max(1e-9),
        wall_secs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clients(sessions: usize, offered: f64, total: usize) -> OpenLoopClients {
        OpenLoopClients {
            sessions,
            offered_txn_per_sec: offered,
            total_txns: total,
            mix: BankingWorkload {
                sites: 3,
                accounts_per_site: 16,
                local_fraction: 0.2,
                seed: 0x0BE7,
                ..Default::default()
            },
        }
    }

    #[test]
    fn schedule_is_deterministic_and_time_ordered() {
        let c = clients(100, 10_000.0, 500);
        let a = c.schedule();
        let b = c.schedule();
        assert_eq!(a.arrivals.len(), 500);
        for (x, y) in a.arrivals.iter().zip(b.arrivals.iter()) {
            assert_eq!(x.0, y.0, "same seed must give same arrival times");
        }
        for w in a.arrivals.windows(2) {
            assert!(w[0].0 <= w[1].0, "merged stream must be time-ordered");
        }
    }

    #[test]
    #[ignore = "manual profiling probe"]
    fn probe_open_loop_run() {
        use o2pc_protocol::ProtocolKind;
        let accounts: u64 = std::env::var("PROBE_ACCOUNTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_048);
        let window: usize = std::env::var("PROBE_WINDOW")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        let c = OpenLoopClients {
            sessions: 2_000,
            offered_txn_per_sec: 150_000.0,
            total_txns: 6_000,
            mix: BankingWorkload {
                sites: 3,
                accounts_per_site: accounts,
                local_fraction: 0.2,
                seed: 0x7EED,
                ..Default::default()
            },
        };
        let mut cfg = SystemConfig::new(3, ProtocolKind::O2pcP2);
        cfg.seed = 0x7EED;
        cfg.record_history = false;
        cfg.op_service_time = o2pc_common::Duration::ZERO;
        cfg.admission_window = Some(window);
        let out = run_open_loop(cfg, Duration::ZERO, &c, Duration::secs(600));
        eprintln!(
            "achieved {:.0}/s wall {:.3}s gc {} ga {} lc {} la {}",
            out.achieved_txn_per_sec,
            out.wall_secs,
            out.report.global_committed,
            out.report.global_aborted,
            out.report.local_committed,
            out.report.local_aborted
        );
        let mut counters: Vec<_> = out.report.counters.iter().collect();
        counters.sort();
        for (k, v) in counters {
            eprintln!("  {k} = {v}");
        }
    }

    #[test]
    fn merged_rate_approximates_offered_load() {
        let c = clients(1_000, 50_000.0, 5_000);
        let s = c.schedule();
        let span_us = s.arrivals.last().unwrap().0 .0 - s.arrivals.first().unwrap().0 .0;
        let rate = 5_000.0 / (span_us as f64 / 1e6);
        let ratio = rate / 50_000.0;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "merged Poisson rate {rate:.0}/s should approximate 50k/s"
        );
    }
}

//! The in-memory log is bounded by the work since the last checkpoint, not
//! by run length: on the benchmark's `sim-optimistic` shape, a run four
//! times longer keeps every site's log under the same checkpoint-policy
//! bound. This is the deterministic stand-in for "peak memory is flat
//! between a short and a long run"; CI runs it optimised, next to
//! `alloc_budget`.

use o2pc_common::{Duration, SiteId};
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sim::{LatencyModel, NetworkConfig};
use o2pc_site::{CHECKPOINT_FLOOR, CHECKPOINT_RATIO};
use o2pc_storage::LogRecord;
use o2pc_workload::BankingWorkload;

const SITES: u32 = 4;
const ACCOUNTS: u64 = 4_096;

/// Records a site's log may hold: the policy's threshold for a checkpoint
/// of `ACCOUNTS` items plus room for the entries the engine's in-flight
/// work adds to it (active executions, unsettled local commits, retained
/// decisions), and the few records one step appends past the threshold.
const BOUND: usize = CHECKPOINT_RATIO * (ACCOUNTS as usize + CHECKPOINT_FLOOR);

/// The most records any site's log held, sampled every 100 ms of virtual
/// time, and the most records any site ever appended.
fn log_sizes(arrivals: usize) -> (usize, u64) {
    let wl = BankingWorkload {
        sites: SITES,
        accounts_per_site: ACCOUNTS,
        transfers: arrivals,
        local_fraction: 0.2,
        mean_interarrival: Duration::micros(200),
        seed: 0xB0_0D,
        ..Default::default()
    };
    let mut cfg = SystemConfig::new(SITES, ProtocolKind::O2pc);
    cfg.seed = 7;
    cfg.record_history = false;
    cfg.network = NetworkConfig {
        default_latency: LatencyModel::Uniform(Duration::micros(500), Duration::micros(1_500)),
        ..Default::default()
    };
    let mut engine = Engine::new(cfg);
    wl.generate().install(&mut engine);
    let (mut held, mut appended, mut decided) = (0, 0, 0);
    let mut horizon = Duration::ZERO;
    while decided < arrivals as u64 {
        horizon += Duration::millis(100);
        let report = engine.run(horizon);
        decided = report.global_committed
            + report.global_aborted
            + report.local_committed
            + report.local_aborted;
        for site in (0..SITES).map(SiteId) {
            let log = engine.wal_records(site).expect("no site crashes");
            held = held.max(log.len());
            if let Some(LogRecord::Checkpoint(cp)) = log.first() {
                appended = appended.max(cp.lsn + log.len() as u64);
            }
        }
        assert!(horizon < Duration::secs(600), "the run does not drain");
    }
    (held, appended)
}

#[test]
fn log_stays_under_the_checkpoint_bound_as_runs_grow() {
    let (short_held, _) = log_sizes(10_000);
    let (long_held, long_appended) = log_sizes(40_000);
    println!("records held per site: {short_held} (10 000 arrivals), {long_held} (40 000)");
    println!("records appended by the busiest site in the long run: {long_appended}");
    for (arrivals, held) in [(10_000, short_held), (40_000, long_held)] {
        assert!(
            held <= BOUND,
            "a site's log held {held} records over {arrivals} arrivals; the bound is {BOUND}"
        );
    }
    assert!(
        long_appended > 2 * BOUND as u64,
        "the long run must append well past the bound for the gate to mean anything"
    );
}

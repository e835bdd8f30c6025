//! Durability acceptance tests: the on-disk WAL must recover to exactly the
//! state the in-memory WAL would, a torn tail must cost nothing that was
//! durable, and a real SIGKILL mid-run must leave logs that resolve cleanly.

use o2pc_common::{Duration, ScratchDir, SimTime, SiteId};
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::ThreadedRuntime;
use o2pc_storage::codec::FRAME_HEADER;
use o2pc_storage::{segment_path, Wal};
use o2pc_workload::BankingWorkload;
use std::path::Path;

/// Run a small banking workload with every site logging to `dir`, returning
/// the engine (alive, WAL files synced by the end-of-run flush).
fn run_durable(dir: &Path, seed: u64, sites: u32) -> Engine {
    let wl = BankingWorkload {
        sites,
        accounts_per_site: 8,
        transfers: 60,
        mean_interarrival: Duration::millis(2),
        local_fraction: 0.2,
        seed,
        ..Default::default()
    };
    let schedule = wl.generate();
    let mut cfg = SystemConfig::new(sites, ProtocolKind::O2pcP2);
    cfg.seed = seed;
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    let mut engine = Engine::new(cfg);
    schedule.install(&mut engine);
    engine.run(Duration::secs(10));
    engine
}

/// Tentpole acceptance (a): reopening the on-disk log recovers byte-for-byte
/// the same state as replaying the live engine's records — the segment sink
/// adds durability, never semantics.
#[test]
fn durable_recovery_equals_in_memory_recovery() {
    let dir = ScratchDir::new("durable-eq");
    let sites = 3;
    let engine = run_durable(&dir, 0xABCD, sites);
    for i in 0..sites {
        let site = SiteId(i);
        let mem_records = engine.wal_records(site).unwrap().to_vec();
        assert!(!mem_records.is_empty(), "site {i} logged nothing");
        let reopened = Wal::open(dir.join(format!("site-{i}.wal"))).unwrap();
        assert_eq!(
            reopened.records(),
            &mem_records[..],
            "site {i}: disk records differ from the live log"
        );
        assert_eq!(
            reopened.recover(),
            Wal::from_records(mem_records).recover(),
            "site {i}: recovery diverges between disk and memory"
        );
    }
}

/// Tentpole acceptance (b): truncating the final frame at any point — the
/// only damage an append-only crash can inflict — silently discards that
/// record and recovers exactly the untruncated prefix. Nothing committed
/// before the tear is lost.
#[test]
fn torn_tail_discards_only_the_torn_record() {
    let dir = ScratchDir::new("durable-torn");
    let engine = run_durable(&dir, 0xBEEF, 2);
    drop(engine);

    let path = dir.join("site-0.wal");
    let bytes = std::fs::read(segment_path(&path, 0)).unwrap();
    // Walk the frame headers to find where the final record starts and where
    // the data ends (the segment is preallocated, so a zero length field
    // marks the start of the untouched tail). The log is clean (end-of-run
    // sync), so every length field up to that point is trustworthy.
    let mut pos = 0usize;
    let mut last_start = 0usize;
    loop {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 {
            break; // preallocated zero tail: data ends here
        }
        last_start = pos;
        pos += FRAME_HEADER + len;
    }
    let data_end = pos;
    assert!(last_start > 0, "need at least two records");

    let full = Wal::open(&path).unwrap();
    let expected_len = full.len() - 1;
    let prefix_recovery = Wal::from_records(full.records()[..expected_len].to_vec()).recover();
    drop(full);

    // Tear the tail at a few representative offsets: header-only, mid-frame,
    // one byte short of complete. (The storage proptest sweeps every byte.)
    for cut in [last_start + 1, last_start + FRAME_HEADER, data_end - 1] {
        let torn_path = dir.join(format!("torn-{cut}.wal"));
        std::fs::write(segment_path(&torn_path, 0), &bytes[..cut]).unwrap();
        let torn = Wal::open(&torn_path).unwrap();
        assert_eq!(torn.len(), expected_len, "cut at byte {cut}");
        assert_eq!(
            torn.recover(),
            prefix_recovery,
            "cut at byte {cut}: recovery must equal the clean prefix"
        );
    }
}

/// Tentpole acceptance (c): a child process SIGKILLed at an arbitrary point
/// mid-workload leaves on-disk logs from which `recover_killed_run` resolves
/// every transaction with conservation and outcome-consistency intact.
#[test]
fn sigkill_mid_run_recovers_cleanly() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_kill_recover"))
        .args(["--seed", "11", "--sites", "3"])
        .status()
        .expect("run kill_recover");
    assert!(status.success(), "kill-recover reported violations");
}

/// The physical gate on real threads: promises wait for the fsync itself and
/// the flusher pool tells the engine when it lands. Every transaction is
/// decided, money is conserved, the logs replay to the live stores — and
/// with a flush interval that dwarfs fsync, a commit costs its two forced
/// writes (vote record, outcome record) at one interval each, which polling
/// the watermark on a second timer (two intervals per write) could not do.
#[test]
fn threaded_physical_gate_commits_in_two_flush_waits() {
    let dir = ScratchDir::new("durable-threaded");
    let sites = 3;
    let wl = BankingWorkload {
        sites,
        accounts_per_site: 8,
        transfers: 12,
        local_fraction: 0.2,
        seed: 0xF5,
        ..Default::default()
    };
    let interval = Duration::millis(50);
    // One transaction at a time, so each pays its own flush waits in full
    // instead of riding a timer another transaction armed.
    let mut schedule = wl.generate();
    for (i, (at, _)) in schedule.arrivals.iter_mut().enumerate() {
        *at = SimTime::ZERO + Duration::millis(120 * i as u64);
    }
    let mut cfg = SystemConfig::new(sites, ProtocolKind::O2pcP2);
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    cfg.wal_background_flush = true;
    cfg.wal_flush_interval = interval;
    cfg.op_service_time = Duration::ZERO;
    let mut engine = Engine::with_runtime(cfg, ThreadedRuntime::default());
    schedule.install(&mut engine);
    let r = engine.run(Duration::secs(30));

    let globals = r.global_committed + r.global_aborted;
    assert!(globals > 0 && r.local_committed > 0);
    assert_eq!(
        globals + r.local_committed + r.local_aborted,
        wl.transfers as u64,
        "every transaction decided"
    );
    assert!(engine.unfinished_txns().is_empty());
    assert_eq!(r.compensations_pending, 0);
    assert_eq!(r.total_value, wl.expected_total(), "money conserved");
    assert!(engine.wal_divergent_sites().is_empty());
    assert!(r.counters.get("wal.parked_msgs") > 0, "promises did park");
    let p50 = r.global_latency.p50();
    assert!(
        p50 < 3 * interval.as_micros(),
        "median global latency {p50} us is not under 3 flush intervals"
    );
}

/// Satellite: scheduling site crashes while `vote_timeout` is `None` is a
/// liveness footgun (a coordinator spawning onto a crashed site blocks
/// forever) — the engine must warn, and must stay silent once the timeout
/// is set.
#[test]
fn warns_on_crashes_without_vote_timeout() {
    let mut cfg = SystemConfig::new(2, ProtocolKind::O2pcP2);
    cfg.failures.site_crash(
        SiteId(1),
        SimTime::ZERO + Duration::millis(5),
        SimTime::ZERO + Duration::millis(20),
    );
    assert!(cfg.vote_timeout.is_none(), "default must stay None");
    let engine = Engine::new(cfg.clone());
    assert!(
        engine
            .config_warnings()
            .iter()
            .any(|w| w.contains("vote_timeout")),
        "crashes + vote_timeout=None must produce a warning"
    );
    cfg.vote_timeout = Some(Duration::millis(40));
    assert!(
        Engine::new(cfg).config_warnings().is_empty(),
        "setting vote_timeout silences the warning"
    );
}

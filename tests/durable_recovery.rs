//! Durability acceptance tests: the on-disk WAL must recover to exactly the
//! state the in-memory WAL would, a torn tail must cost nothing that was
//! durable, and a real SIGKILL mid-run must leave logs that resolve cleanly.

use o2pc_common::{Duration, Histogram, Key, Op, ScratchDir, SimTime, SiteId, Value};
use o2pc_core::{DefaultSimRuntime, Engine, RunReport, SystemConfig, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::ThreadedRuntime;
use o2pc_storage::codec::FRAME_HEADER;
use o2pc_storage::{segment_path, Wal};
use o2pc_workload::BankingWorkload;
use std::path::Path;

/// Run a small banking workload with every site logging to `dir`, returning
/// the engine (alive, WAL files synced by the end-of-run flush).
fn run_durable(dir: &Path, seed: u64, sites: u32) -> Engine {
    let mut engine = durable_engine(dir, seed, sites);
    engine.run(Duration::secs(10));
    engine
}

/// [`run_durable`]'s engine with its workload installed, not yet run.
fn durable_engine(dir: &Path, seed: u64, sites: u32) -> Engine {
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
    engine
}

/// `Engine::run` "may be called again to continue", and the end-of-run sync
/// seals every log under whatever flush timers are still queued. Those
/// timers must stay the sites' live ones: were they dropped as stale while
/// the sites still counted as armed, bytes appended in the second run would
/// never get a timer and their promises would stay parked for good.
#[test]
fn resumed_run_keeps_its_flush_timers() {
    let dir = ScratchDir::new("durable-resume");
    let mut engine = durable_engine(&dir, 7, 3);
    // Stops between a site's append and the flush timer armed for it.
    let first = engine.run(Duration::micros(10_700));
    assert!(!engine.unfinished_txns().is_empty(), "stopped mid-workload");
    let parked_before = first.counters.get("wal.parked_msgs");
    let r = engine.run(Duration::secs(10));
    assert!(r.counters.get("wal.parked_msgs") > parked_before);
    assert!(engine.unfinished_txns().is_empty(), "promises stranded");
    assert_eq!(r.compensations_pending, 0);
    assert!(engine.wal_divergent_sites().is_empty());

    let whole_dir = ScratchDir::new("durable-whole");
    let whole = durable_engine(&whole_dir, 7, 3).run(Duration::secs(10));
    assert_eq!(
        (r.global_committed, r.global_aborted, r.total_value),
        (
            whole.global_committed,
            whole.global_aborted,
            whole.total_value
        ),
        "the split run decided differently from the unsplit one"
    );
}

/// The simulator's disk charges every durable promise its fsync: a promise
/// sealed at a flush point leaves exactly the modelled latency later, so
/// the median sealed → released wait is that latency (as the histogram
/// buckets it), where a gate that released at the seal would read 0.
#[test]
fn simulated_promises_wait_for_the_modelled_fsync() {
    let dir = ScratchDir::new("durable-sim-fsync");
    let r = durable_engine(&dir, 0x51D, 3).run(Duration::secs(10));
    assert!(r.counters.get("wal.parked_msgs") > 0, "promises did park");
    assert_eq!(r.wal_fsync_wait.count(), r.counters.get("wal.parked_msgs"));
    let mut modelled = Histogram::new();
    modelled.record(DefaultSimRuntime::FSYNC_LATENCY.as_micros());
    assert_eq!(r.wal_fsync_wait.p50(), modelled.p50());
    assert!(r.wal_fsync_wait.max() <= DefaultSimRuntime::FSYNC_LATENCY.as_micros());
}

/// The modelled disk keeps durable runs a pure function of their seed: two
/// runs of one seed, each on logs of its own, report alike to the digest.
#[test]
fn simulated_durable_runs_replay_from_their_seed() {
    let runs: Vec<RunReport> = (0..2)
        .map(|i| {
            let dir = ScratchDir::new(&format!("durable-sim-replay-{i}"));
            durable_engine(&dir, 0xD16E, 3).run(Duration::secs(10))
        })
        .collect();
    assert!(runs[0].counters.get("wal.flushes") > 0);
    assert_eq!(runs[0].history.digest(), runs[1].history.digest());
    assert_eq!(format!("{:?}", runs[0]), format!("{:?}", runs[1]));
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

/// A flush interval that dwarfs fsync, so a wall-clock assertion can tell a
/// wait for the flush timer from everything else.
const FLUSH_INTERVAL: Duration = Duration(50_000);

/// Logs under `dir` (for a `ThreadedRuntime`, whose disk reports each
/// fsync), operation service on the engine's own time.
fn physical_gate(dir: &Path, sites: u32, protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = SystemConfig::new(sites, protocol);
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    cfg.wal_flush_interval = FLUSH_INTERVAL;
    cfg.op_service_time = Duration::ZERO;
    cfg
}

/// The physical gate on real threads: promises wait for the fsync itself and
/// the runtime's disk tells the engine when it lands. Every transaction is
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
    let interval = FLUSH_INTERVAL;
    // One transaction at a time, so each pays its own flush waits in full
    // instead of riding a timer another transaction armed.
    let mut schedule = wl.generate();
    for (i, (at, _)) in schedule.arrivals.iter_mut().enumerate() {
        *at = SimTime::ZERO + Duration::millis(120 * i as u64);
    }
    let cfg = physical_gate(&dir, sites, ProtocolKind::O2pcP2);
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

/// Twelve transfers, four per coordinator site, all due at t = 0 on the
/// threaded physical gate with a 50 ms flush interval. Returns the report
/// after checking what holds whatever the admission window is.
fn backlog_on_physical_gate(window: Option<usize>) -> RunReport {
    // One directory per caller: the two tests run in parallel in one process,
    // and a shared name let one wipe the other's logs mid-run.
    let dir = ScratchDir::new(match window {
        Some(_) => "durable-backlog",
        None => "durable-no-backlog",
    });
    let (sites, globals, initial) = (3u32, 12u32, 1_000i64);
    let mut cfg = physical_gate(&dir, sites, ProtocolKind::O2pc);
    cfg.admission_window = window;
    let mut engine = Engine::with_runtime(cfg, ThreadedRuntime::default());
    for i in 0..globals {
        // A key of its own per transfer: no lock waits, only flush waits.
        let (a, b, k) = (SiteId(i % sites), SiteId((i + 1) % sites), Key(i as u64));
        engine.load(a, k, Value(initial));
        engine.load(b, k, Value(initial));
        engine.submit_at(
            SimTime::ZERO,
            TxnRequest::global(vec![(a, vec![Op::Add(k, -3)]), (b, vec![Op::Add(k, 3)])]),
        );
    }
    let r = engine.run(Duration::secs(30));
    assert_eq!(r.global_committed, globals as u64, "every transfer decided");
    assert!(engine.unfinished_txns().is_empty());
    assert_eq!(engine.queued_admissions(), 0);
    assert_eq!(
        r.total_value,
        2 * initial * globals as i64,
        "money conserved"
    );
    assert!(engine.wal_divergent_sites().is_empty());
    // A promise is parked twice per participant and each wait is accounted.
    assert_eq!(r.wal_fsync_wait.count(), r.counters.get("wal.parked_msgs"));
    assert!(r.wal_seal_wait.count() <= r.wal_fsync_wait.count());
    r
}

/// Work-conserving group commit: with one admission slot per coordinator the
/// twelve transfers run as four rounds of three, and each round's votes and
/// acks park with the later rounds queued *behind* them — no company can
/// come, so the engine seals at once instead of waiting out the timer. Only
/// the last round has nothing queued behind it and pays its two intervals.
/// The timers alone would take 4 rounds x 2 forced writes x 50 ms.
#[test]
fn threaded_backlog_drains_without_timer_waits() {
    let r = backlog_on_physical_gate(Some(1));
    assert!(r.counters.get("wal.early_seals") > 0);
    // Latency runs from t = 0, so these are completion times.
    let ninth = r.global_latency.quantile(0.75);
    assert!(
        ninth < FLUSH_INTERVAL.as_micros(),
        "three rounds took {ninth} us: one of them waited for a flush timer"
    );
    let last = r.global_latency.max();
    assert!(
        last < 4 * 2 * FLUSH_INTERVAL.as_micros() / 2,
        "backlog took {last} us: sealing waited for the flush timer"
    );
}

/// The twin without a backlog: every transfer is admitted at once, nothing
/// queues behind the parked promises, and the rule must not fire — the
/// interval is spent waiting for company that can still come.
#[test]
fn threaded_no_backlog_no_early_seal() {
    let r = backlog_on_physical_gate(None);
    assert_eq!(r.counters.get("wal.early_seals"), 0);
    let p50 = r.global_latency.p50();
    assert!(
        p50 < 3 * FLUSH_INTERVAL.as_micros(),
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

//! Process-level crash test: run a durable banking workload in a child
//! process, SIGKILL it mid-run, then recover from the on-disk WALs alone and
//! check the money-conservation and outcome-consistency invariants.
//!
//! The simulator's `Crash` timer and the injected write faults exercise the
//! durable path *in process* — buffered state is dropped by code we wrote.
//! This binary removes that last layer of trust: the kernel destroys the
//! process at an arbitrary instruction, so whatever `recover_killed_run`
//! finds on disk is exactly what a real power-cut leaves behind (including a
//! torn frame if the kill lands mid-`write`).
//!
//! Modes:
//!
//! - parent (default): spawn itself with `--child`, poll the WAL directory
//!   until the logs have grown past a threshold, `SIGKILL` the child, then
//!   resolve the remains. Exit 0 iff every invariant holds.
//! - `--child --dir D --seed S --sites N`: run the workload with
//!   `durable_wal_dir = D` until done (the parent kills it first).

use o2pc_chaos::recover_killed_run;
use o2pc_common::Duration;
use o2pc_compensation::CompensationModel;
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_workload::BankingWorkload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ACCOUNTS_PER_SITE: u64 = 8;
const INITIAL_BALANCE: i64 = 1_000;
const TRANSFERS: usize = 20_000;

fn workload(seed: u64, sites: u32) -> BankingWorkload {
    BankingWorkload {
        sites,
        accounts_per_site: ACCOUNTS_PER_SITE,
        initial_balance: INITIAL_BALANCE,
        transfers: TRANSFERS,
        mean_interarrival: Duration::millis(1),
        local_fraction: 0.1,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        ..Default::default()
    }
}

fn run_child(dir: &Path, seed: u64, sites: u32, segment_bytes: Option<u64>) {
    let wl = workload(seed, sites);
    let schedule = wl.generate();
    let mut cfg = SystemConfig::new(sites, ProtocolKind::O2pcP2);
    cfg.seed = seed;
    cfg.vote_timeout = Some(Duration::millis(40));
    cfg.termination_timeout = Some(Duration::millis(50));
    cfg.retransmit_base = Some(Duration::millis(10));
    // A promise leaves only once its bytes are fsynced, so whatever the
    // parent's SIGKILL interrupts, no peer has heard of a record the disk
    // lacks.
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    if let Some(sb) = segment_bytes {
        cfg.wal_segment_bytes = sb;
    }
    let mut engine = Engine::new(cfg);
    schedule.install(&mut engine);
    engine.run(Duration::secs(600));
}

/// Total *allocated* bytes across the site WAL files (0 if the dir does not
/// exist yet). Uses `st_blocks`, not file length: segments are preallocated
/// sparse with `set_len`, so their length jumps to full capacity at creation
/// while blocks only accrue as flushed data reaches the disk — exactly the
/// progress signal the kill trigger needs.
fn wal_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.blocks() * 512)
        .sum()
}

fn parse_args() -> (bool, Option<PathBuf>, u64, u32, Option<u64>) {
    let mut child = false;
    let mut dir = None;
    let mut seed = 0xD15C_u64;
    let mut sites = 4u32;
    let mut segment_bytes = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--child" => child = true,
            "--dir" => dir = Some(PathBuf::from(args.next().expect("--dir needs a path"))),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--sites" => sites = args.next().and_then(|v| v.parse().ok()).expect("--sites N"),
            "--segment-bytes" => {
                let n: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--segment-bytes N");
                if n == 0 {
                    usage_error("--segment-bytes must be positive");
                }
                segment_bytes = Some(n);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    (child, dir, seed, sites, segment_bytes)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: kill_recover [--dir D] [--seed S] [--sites N] [--segment-bytes N]");
    std::process::exit(2);
}

fn main() {
    let (child, dir, seed, sites, segment_bytes) = parse_args();
    if child {
        run_child(
            &dir.expect("--child requires --dir"),
            seed,
            sites,
            segment_bytes,
        );
        return;
    }

    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("o2pc-kill-recover-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL dir");

    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--seed",
        &seed.to_string(),
        "--sites",
        &sites.to_string(),
    ]);
    if let Some(sb) = segment_bytes {
        cmd.args(["--segment-bytes", &sb.to_string()]);
    }
    let mut victim = cmd
        .arg("--dir")
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child");

    // Let the run get past the initial checkpoint and well into traffic,
    // then kill without warning. The threshold scales with site count so the
    // kill always lands while transactions are in flight, not at the tail.
    let threshold = 16 * 1024 * sites as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut killed = true;
    loop {
        if let Some(status) = victim.try_wait().expect("try_wait") {
            // Finished before we pulled the trigger: recovery of a complete
            // log is still a valid (if easier) check.
            eprintln!("child exited before kill ({status}); resolving complete logs");
            killed = false;
            break;
        }
        if wal_bytes(&dir) >= threshold {
            victim.kill().expect("SIGKILL child"); // Child::kill is SIGKILL on unix
            victim.wait().expect("reap child");
            break;
        }
        if std::time::Instant::now() >= deadline {
            victim.kill().ok();
            victim.wait().ok();
            eprintln!("FAIL: WAL never reached {threshold} bytes within the deadline");
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let expected = workload(seed, sites).expected_total();
    let report = recover_killed_run(&dir, sites, CompensationModel::Restricted, expected);
    println!(
        "kill-recover seed {seed}: killed={killed} sites={} records={} decided={} \
         compensated={} prepared_rolled_back={} total={}",
        report.sites,
        report.records,
        report.decided,
        report.compensated,
        report.prepared_rolled_back,
        report.recovered_total,
    );
    let _ = std::fs::remove_dir_all(&dir);
    if report.survived() {
        println!("all invariants hold");
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

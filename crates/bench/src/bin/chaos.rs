//! `chaos` — run a block of seeded randomized fault schedules against the
//! fully hardened engine and check every invariant after each one.
//!
//! ```sh
//! cargo run --release --bin chaos -- --schedules 1000 --seed 42
//! cargo run --release --bin chaos -- --schedules 2000 --cores 8
//! cargo run --release --bin chaos -- --replay 65          # one seed, verbose
//! cargo run --release --bin chaos -- --swarm --minutes 10 # mine a corpus
//! cargo run --release --bin chaos -- --replay-corpus corpus
//! ```
//!
//! Each schedule derives (from one seed) a composed plan of site crashes,
//! link partitions, message drop/duplication probabilities, and extra
//! delay, runs a banking workload through it, and feeds the end state to
//! the chaos oracle. On the first violated seed the harness greedily
//! shrinks the plan to a minimal still-failing fault set, prints it, and
//! emits the exact `--replay` command line before exiting nonzero.
//!
//! Schedules fan out over `--cores N` worker threads (default: all). Each
//! run is an isolated deterministic engine, and results are merged back in
//! seed order, so everything on **stdout** is byte-identical at any core
//! count — including which seed a run stops on. Progress and wall-clock
//! timing (which can never be byte-identical) go to **stderr**.
//!
//! Swarm mode (`--swarm --minutes M`) mines seeds continuously instead of
//! stopping at a fixed count, and persists *interesting* schedules —
//! violations, near-misses where the hardening machinery had to fire, and
//! high-event-count outliers — as flat JSON entries under `--corpus DIR`
//! (default `corpus/`). `--replay-corpus DIR` re-judges every saved entry
//! as a regression gate: the current engine must survive them all.
//!
//! `--durable` logs every site to disk under `--wal-dir DIR` (default: the
//! system temp directory). The simulator never observes fsync latency, so
//! a tmpfs directory such as `/dev/shm` runs the same schedules, with the
//! same stdout, several times faster.

use o2pc_chaos::{
    classify, corpus, run_plan_with, shrink_with_cores, ChaosConfig, ChaosPlan, CorpusEntry,
    DurableMode, Hardening, InterestKind,
};
use o2pc_common::pool;
use o2pc_protocol::ProtocolKind;
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Args {
    schedules: u64,
    seed: u64,
    replay: Option<u64>,
    sites: u32,
    durable: bool,
    segment_bytes: Option<u64>,
    wal_dir: Option<PathBuf>,
    cores: usize,
    swarm: bool,
    minutes: f64,
    corpus: Option<PathBuf>,
    replay_corpus: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        schedules: 1000,
        seed: 42,
        replay: None,
        sites: 4,
        durable: false,
        segment_bytes: None,
        wal_dir: None,
        cores: 0, // all available
        swarm: false,
        minutes: 1.0,
        corpus: None,
        replay_corpus: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--schedules" => {
                args.schedules = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--schedules: {e}"))?
            }
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--replay" => {
                args.replay = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--replay: {e}"))?,
                )
            }
            "--sites" => args.sites = take(&mut i)?.parse().map_err(|e| format!("--sites: {e}"))?,
            "--durable" => args.durable = true,
            "--segment-bytes" => {
                let n: u64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--segment-bytes: {e}"))?;
                if n == 0 {
                    return Err("--segment-bytes: must be positive".into());
                }
                args.segment_bytes = Some(n);
            }
            "--wal-dir" => args.wal_dir = Some(PathBuf::from(take(&mut i)?)),
            "--cores" => args.cores = take(&mut i)?.parse().map_err(|e| format!("--cores: {e}"))?,
            "--swarm" => args.swarm = true,
            "--minutes" => {
                args.minutes = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--minutes: {e}"))?
            }
            "--corpus" => args.corpus = Some(PathBuf::from(take(&mut i)?)),
            "--replay-corpus" => args.replay_corpus = Some(PathBuf::from(take(&mut i)?)),
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--schedules N] [--seed S] [--sites N] [--cores N] \
                     [--replay SEED] [--durable] [--segment-bytes N] [--wal-dir DIR]\n       \
                     chaos --swarm [--minutes M] \
                     [--corpus DIR]\n       chaos --replay-corpus DIR"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

fn config_for(sites: u32) -> ChaosConfig {
    ChaosConfig {
        num_sites: sites,
        ..Default::default()
    }
}

/// Scratch directory for durable-mode WAL files (per process, wiped on
/// use), under `root` or else the system temp directory.
fn durable_scratch(enabled: bool, root: Option<&Path>) -> Option<PathBuf> {
    enabled.then(|| {
        let root = root.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let dir = root.join(format!("o2pc-chaos-wal-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir
    })
}

/// Borrow a scratch dir (if durable mode is on) as the runner's
/// [`DurableMode`], carrying the optional segment-size override along.
fn durable_mode(dir: &Option<PathBuf>, segment_bytes: Option<u64>) -> Option<DurableMode<'_>> {
    dir.as_deref().map(|d| DurableMode {
        dir: d,
        segment_bytes,
    })
}

/// The flag suffix a repro command line needs to reproduce this run's
/// durable configuration.
fn repro_suffix(durable: bool, segment_bytes: Option<u64>) -> String {
    match (durable, segment_bytes) {
        (false, _) => String::new(),
        (true, None) => " --durable".to_string(),
        (true, Some(sb)) => format!(" --durable --segment-bytes {sb}"),
    }
}

/// Everything the merged report needs from one schedule, compact enough to
/// ship across the worker-pool channel (the full `ChaosOutcome` drags the
/// run's history archive along).
struct SeedSummary {
    seed: u64,
    violations: Vec<String>,
    drop_p: f64,
    dup_p: f64,
    coord_crash: bool,
    totals: Totals,
    protocol: ProtocolKind,
    interest: Option<(InterestKind, String, u64)>,
}

impl SeedSummary {
    fn survived(&self) -> bool {
        self.violations.is_empty()
    }

    fn corpus_entry(&self, sites: u32, durable: bool) -> Option<CorpusEntry> {
        let (kind, detail, score) = self.interest.clone()?;
        Some(CorpusEntry {
            seed: self.seed,
            sites,
            durable,
            kind,
            protocol: self.protocol.to_string(),
            detail,
            score,
        })
    }
}

fn run_seed(seed: u64, cfg: &ChaosConfig, durable: Option<DurableMode<'_>>) -> SeedSummary {
    let plan = ChaosPlan::generate(seed, cfg);
    let outcome = run_plan_with(&plan, Hardening::default(), durable);
    SeedSummary {
        seed,
        violations: outcome.violations.iter().map(|v| v.to_string()).collect(),
        drop_p: outcome.drop_probability,
        dup_p: outcome.duplicate_probability,
        coord_crash: outcome.crashed_a_coordinator,
        totals: [
            1,
            outcome.report.global_committed,
            outcome.report.global_aborted,
            outcome.gc_retired,
            outcome.live_at_end as u64,
        ],
        protocol: outcome.protocol,
        interest: classify(&outcome),
    }
}

/// Replay one seed with the full plan and outcome printed.
fn replay(seed: u64, args: &Args, cores: usize) -> ! {
    let segment_bytes = args.segment_bytes;
    let plan = ChaosPlan::generate(seed, &config_for(args.sites));
    println!("{}", plan.describe());
    let dir = durable_scratch(args.durable, args.wal_dir.as_deref());
    let outcome = run_plan_with(
        &plan,
        Hardening::default(),
        durable_mode(&dir, segment_bytes),
    );
    println!(
        "protocol {} | drop p={:.3} dup p={:.3} | {} committed / {} aborted / {} local | \
         {} gc'd, {} live at end",
        outcome.protocol,
        outcome.drop_probability,
        outcome.duplicate_probability,
        outcome.report.global_committed,
        outcome.report.global_aborted,
        outcome.report.local_committed,
        outcome.gc_retired,
        outcome.live_at_end,
    );
    if outcome.survived() {
        println!("all invariants hold");
        std::process::exit(0);
    }
    println!("VIOLATIONS:");
    for v in &outcome.violations {
        println!("  - {v}");
    }
    let minimal = shrink_with_cores(
        &plan,
        Hardening::default(),
        durable_mode(&dir, segment_bytes),
        cores,
    );
    println!(
        "\nminimal failing fault set ({} faults):",
        minimal.faults.len()
    );
    println!("{}", minimal.describe());
    std::process::exit(1);
}

/// Re-judge every corpus entry against the current engine. The corpus is a
/// set of historically hard schedules; the regression gate is that the
/// current engine survives all of them.
fn replay_corpus(dir: &Path, args: &Args, cores: usize) -> ! {
    let segment_bytes = args.segment_bytes;
    let entries = match corpus::load_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot load corpus {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    if entries.is_empty() {
        println!("corpus {} is empty — nothing to replay", dir.display());
        std::process::exit(0);
    }
    let durable_dir = durable_scratch(entries.iter().any(|e| e.durable), args.wal_dir.as_deref());
    let summaries = pool::map_ordered(entries.len(), cores, |i| {
        let e = &entries[i];
        run_seed(
            e.seed,
            &config_for(e.sites),
            if e.durable {
                durable_mode(&durable_dir, segment_bytes)
            } else {
                None
            },
        )
    });
    let mut violations = 0usize;
    for (e, s) in entries.iter().zip(&summaries) {
        let was = match e.kind {
            InterestKind::Violation => "was: violation",
            InterestKind::NearMiss => "was: near-miss",
            InterestKind::Coverage => "was: coverage",
        };
        if s.survived() {
            println!(
                "seed {} [{}] ({}, {}) — survives",
                e.seed, was, e.protocol, e.detail
            );
        } else {
            violations += 1;
            println!(
                "seed {} [{}] ({}, {}) — VIOLATES:",
                e.seed, was, e.protocol, e.detail
            );
            for v in &s.violations {
                println!("  - {v}");
            }
            println!(
                "  replay with: cargo run --release --bin chaos -- --replay {} --sites {}{}",
                e.seed,
                e.sites,
                repro_suffix(e.durable, segment_bytes)
            );
        }
    }
    println!(
        "{} corpus entries replayed, {} violations",
        entries.len(),
        violations
    );
    std::process::exit(if violations > 0 { 1 } else { 0 });
}

/// What a block of schedules decided and retired: schedules, committed,
/// aborted, gc'd and live at end.
type Totals = [u64; 5];

/// Merged-in-seed-order accounting for a block of schedules.
#[derive(Default)]
struct Aggregate {
    coordinator_crashes: u64,
    min_drop: f64,
    min_dup: f64,
    /// The totals per protocol, in `ProtocolKind::all()` order.
    per_protocol: [Totals; 5],
}

impl Aggregate {
    fn new() -> Self {
        Aggregate {
            min_drop: f64::INFINITY,
            min_dup: f64::INFINITY,
            ..Default::default()
        }
    }

    fn fold(&mut self, s: &SeedSummary) {
        self.min_drop = self.min_drop.min(s.drop_p);
        self.min_dup = self.min_dup.min(s.dup_p);
        self.coordinator_crashes += s.coord_crash as u64;
        let kinds = ProtocolKind::all();
        if let Some(t) = kinds.iter().position(|&k| k == s.protocol) {
            let t = &mut self.per_protocol[t];
            *t = std::array::from_fn(|i| t[i] + s.totals[i]);
        }
    }
}

/// Mine seeds continuously until the wall-clock deadline, persisting every
/// interesting schedule to the corpus directory.
fn swarm(args: &Args, cores: usize) -> ! {
    let cfg = config_for(args.sites);
    let durable_dir = durable_scratch(args.durable, args.wal_dir.as_deref());
    let corpus_dir = args
        .corpus
        .clone()
        .unwrap_or_else(|| PathBuf::from("corpus"));
    let deadline =
        std::time::Instant::now() + std::time::Duration::from_secs_f64(args.minutes * 60.0);
    let started = std::time::Instant::now();
    let mut next_seed = args.seed;
    let mut mined = 0u64;
    let mut near_misses = 0u64;
    let mut coverage = 0u64;
    let mut violating_seeds: Vec<u64> = Vec::new();
    let batch = (cores * 16).max(64);
    while std::time::Instant::now() < deadline {
        pool::for_each_ordered(
            batch,
            cores,
            |i| {
                run_seed(
                    next_seed + i as u64,
                    &cfg,
                    durable_mode(&durable_dir, args.segment_bytes),
                )
            },
            |_, s: SeedSummary| {
                mined += 1;
                if let Some(entry) = s.corpus_entry(args.sites, args.durable) {
                    match entry.kind {
                        InterestKind::Violation => violating_seeds.push(s.seed),
                        InterestKind::NearMiss => near_misses += 1,
                        InterestKind::Coverage => coverage += 1,
                    }
                    if let Err(e) = entry.save(&corpus_dir) {
                        eprintln!("error: cannot write corpus entry: {e}");
                        std::process::exit(2);
                    }
                }
                true
            },
        );
        next_seed += batch as u64;
        eprintln!(
            "  swarm: {mined} seeds mined, {} interesting ({:.0}s elapsed, {:.0} seeds/s)",
            near_misses + coverage + violating_seeds.len() as u64,
            started.elapsed().as_secs_f64(),
            mined as f64 / started.elapsed().as_secs_f64().max(1e-9),
        );
    }
    println!(
        "swarm: {mined} seeds mined from {} — {} violations, {near_misses} near-misses, \
         {coverage} coverage outliers → {}",
        args.seed,
        violating_seeds.len(),
        corpus_dir.display(),
    );
    for seed in &violating_seeds {
        println!(
            "  VIOLATION at seed {seed} — replay with: cargo run --release --bin chaos -- \
             --replay {seed} --sites {}{}",
            args.sites,
            repro_suffix(args.durable, args.segment_bytes)
        );
    }
    if let Some(d) = &durable_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    std::process::exit(if violating_seeds.is_empty() { 0 } else { 1 });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let cores = pool::resolve_cores(args.cores);
    if let Some(dir) = &args.replay_corpus {
        replay_corpus(dir, &args, cores);
    }
    if let Some(seed) = args.replay {
        replay(seed, &args, cores);
    }
    if args.swarm {
        swarm(&args, cores);
    }

    let cfg = config_for(args.sites);
    let durable_dir = durable_scratch(args.durable, args.wal_dir.as_deref());
    let started = std::time::Instant::now();
    let mut agg = Aggregate::new();
    let mut failing: Option<SeedSummary> = None;
    let schedules = args.schedules as usize;
    pool::for_each_ordered(
        schedules,
        cores,
        |i| {
            run_seed(
                args.seed.wrapping_add(i as u64),
                &cfg,
                durable_mode(&durable_dir, args.segment_bytes),
            )
        },
        |i, s: SeedSummary| {
            agg.fold(&s);
            if let Some(dir) = &args.corpus {
                if let Some(entry) = s.corpus_entry(args.sites, args.durable) {
                    if let Err(e) = entry.save(dir) {
                        eprintln!("error: cannot write corpus entry: {e}");
                        std::process::exit(2);
                    }
                }
            }
            if !s.survived() {
                failing = Some(s);
                return false; // cancel the remaining schedules
            }
            if (i + 1) % 100 == 0 {
                eprintln!(
                    "  {:>5}/{} schedules clean ({:.1}s)",
                    i + 1,
                    args.schedules,
                    started.elapsed().as_secs_f64()
                );
            }
            true
        },
    );

    if let Some(s) = failing {
        let plan = ChaosPlan::generate(s.seed, &cfg);
        println!("seed {} VIOLATED invariants under:", s.seed);
        println!("{}", plan.describe());
        for v in &s.violations {
            println!("  - {v}");
        }
        println!("shrinking to a minimal fault set...");
        let minimal = shrink_with_cores(
            &plan,
            Hardening::default(),
            durable_mode(&durable_dir, args.segment_bytes),
            cores,
        );
        println!(
            "minimal failing fault set ({} of {} faults):",
            minimal.faults.len(),
            plan.faults.len()
        );
        println!("{}", minimal.describe());
        println!("replay with:");
        println!(
            "  cargo run --release --bin chaos -- --replay {} --sites {}{}",
            s.seed,
            args.sites,
            repro_suffix(args.durable, args.segment_bytes)
        );
        std::process::exit(1);
    }

    if let Some(d) = &durable_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!(
        "  done in {elapsed:.1}s on {cores} core(s) ({:.1} schedules/s)",
        args.schedules as f64 / elapsed.max(1e-9)
    );
    println!(
        "{} schedules, 0 violations{}",
        args.schedules,
        if args.durable { " [durable WAL]" } else { "" },
    );
    println!(
        "coverage: min drop p={:.3}, min dup p={:.3}, \
         {} schedules crashed a coordinator-hosting site",
        agg.min_drop, agg.min_dup, agg.coordinator_crashes
    );
    let sum = |i| agg.per_protocol.iter().map(|t: &Totals| t[i]).sum::<u64>();
    let [_, committed, aborted, retired, live] = std::array::from_fn(sum);
    println!(
        "totals: {committed} committed, {aborted} aborted, {retired} gc'd, {live} live at end"
    );
    for (kind, t) in ProtocolKind::all().iter().zip(&agg.per_protocol) {
        let [schedules, committed, aborted, retired, live] = *t;
        if schedules > 0 {
            println!(
                "  {kind}: {schedules} schedules, {committed} committed, {aborted} aborted, \
                 {retired} gc'd, {live} live at end"
            );
        }
    }
    assert!(
        agg.min_drop >= 0.05,
        "coverage: drop probability fell below the 0.05 floor"
    );
    assert!(agg.min_dup > 0.0, "coverage: duplication was never enabled");
    assert!(
        agg.coordinator_crashes > 0,
        "coverage: no schedule ever crashed a coordinator-hosting site"
    );
}

//! `simulate` — run one configurable simulation from the command line and
//! print the full report. The "driver" binary a downstream user pokes at
//! before wiring the library into their own harness.
//!
//! ```sh
//! cargo run --release -p o2pc-bench --bin simulate -- \
//!     --protocol o2pc-p1 --workload banking --sites 4 --txns 500 \
//!     --abort-prob 0.2 --latency-ms 5 --seed 42 --audit
//! ```
//!
//! `--durable` puts every site's log on disk (a scratch directory removed
//! on exit) and adds where a durable promise's time went: waiting for the
//! flush point that sealed its record, then for the simulator's modelled
//! fsync to complete.

use o2pc_common::{Duration, ScratchDir};
use o2pc_core::{DefaultSimRuntime, Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sgraph::audit;
use o2pc_sim::NetworkConfig;
use o2pc_workload::{BankingWorkload, GenericWorkload, MultidbWorkload, TravelWorkload};

#[derive(Debug)]
struct Args {
    protocol: ProtocolKind,
    workload: String,
    sites: u32,
    txns: usize,
    abort_prob: f64,
    latency_ms: u64,
    seed: u64,
    audit: bool,
    durable: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        protocol: ProtocolKind::O2pc,
        workload: "banking".into(),
        sites: 4,
        txns: 300,
        abort_prob: 0.0,
        latency_ms: 2,
        seed: 42,
        audit: false,
        durable: false,
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
            "--protocol" => {
                args.protocol = match take(&mut i)?.as_str() {
                    "2pc" | "d2pl" | "2pl-2pc" => ProtocolKind::D2pl2pc,
                    "o2pc" => ProtocolKind::O2pc,
                    "o2pc-p1" | "p1" => ProtocolKind::O2pcP1,
                    "o2pc-p2" | "p2" => ProtocolKind::O2pcP2,
                    "simple" => ProtocolKind::O2pcSimple,
                    other => return Err(format!("unknown protocol '{other}'")),
                }
            }
            "--workload" => args.workload = take(&mut i)?,
            "--sites" => args.sites = take(&mut i)?.parse().map_err(|e| format!("--sites: {e}"))?,
            "--txns" => args.txns = take(&mut i)?.parse().map_err(|e| format!("--txns: {e}"))?,
            "--abort-prob" => {
                args.abort_prob = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--abort-prob: {e}"))?
            }
            "--latency-ms" => {
                args.latency_ms = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--latency-ms: {e}"))?
            }
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--audit" => args.audit = true,
            "--durable" => args.durable = true,
            "--help" | "-h" => {
                println!(
                    "usage: simulate [--protocol 2pc|o2pc|o2pc-p1|o2pc-p2|simple] \
                     [--workload banking|travel|generic|multidb] [--sites N] [--txns N] \
                     [--abort-prob P] [--latency-ms MS] [--seed S] [--audit] [--durable]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };

    let mut cfg = SystemConfig::new(args.sites, args.protocol);
    cfg.network = NetworkConfig::fixed(Duration::millis(args.latency_ms));
    cfg.vote_abort_probability = args.abort_prob;
    cfg.seed = args.seed;
    cfg.record_history = args.audit;
    let wal_dir = args.durable.then(|| ScratchDir::new("simulate-wal"));
    cfg.durable_wal_dir = wal_dir.as_ref().map(|d| d.to_path_buf());
    let mut engine = Engine::new(cfg);

    let expected_total = match args.workload.as_str() {
        "banking" => {
            let wl = BankingWorkload {
                sites: args.sites,
                transfers: args.txns,
                seed: args.seed,
                ..Default::default()
            };
            wl.generate().install(&mut engine);
            Some(wl.expected_total())
        }
        "travel" => {
            let wl = TravelWorkload {
                sites: args.sites.max(3),
                bookings: args.txns,
                seed: args.seed,
                ..Default::default()
            };
            wl.generate().install(&mut engine);
            None
        }
        "generic" => {
            let wl = GenericWorkload {
                sites: args.sites,
                txns: args.txns,
                seed: args.seed,
                ..Default::default()
            };
            wl.generate().install(&mut engine);
            None
        }
        "multidb" => {
            let wl = MultidbWorkload {
                sites: args.sites,
                globals: args.txns,
                seed: args.seed,
                ..Default::default()
            };
            wl.generate().install(&mut engine);
            None
        }
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    };

    let r = engine.run(Duration::secs(3_600));

    println!("== simulate: {} / {} ==", args.protocol, args.workload);
    println!(
        "sites={} txns={} abort_prob={} latency={}ms seed={}",
        args.sites, args.txns, args.abort_prob, args.latency_ms, args.seed
    );
    println!("mode: closed-loop trace replay on the deterministic simulator");
    println!("      (open-loop client sessions live on the threaded backend:");
    println!("       `all_experiments --backend threaded`, experiment E10)");
    println!();
    println!("virtual time:          {}", r.end_time);
    println!(
        "globals:               {} committed / {} aborted ({:.1}% abort rate)",
        r.global_committed,
        r.global_aborted,
        r.abort_rate() * 100.0
    );
    println!(
        "locals:                {} committed / {} aborted",
        r.local_committed, r.local_aborted
    );
    println!("throughput:            {:.1} txn/s", r.throughput());
    println!(
        "global latency:        mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms",
        r.global_latency.mean() / 1000.0,
        r.global_latency.p50() as f64 / 1000.0,
        r.global_latency.p99() as f64 / 1000.0
    );
    println!(
        "exclusive-lock hold:   mean {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        r.locks.exclusive_hold.mean() / 1000.0,
        r.locks.exclusive_hold.p99() as f64 / 1000.0,
        r.locks.exclusive_hold.max() as f64 / 1000.0
    );
    println!(
        "lock waits:            {} (mean {:.2} ms)",
        r.locks.wait_time.count(),
        r.locks.wait_time.mean() / 1000.0
    );
    println!(
        "compensations:         {} completed, {} pending",
        r.compensations_completed, r.compensations_pending
    );
    println!("2PC msgs per txn:      {:.1}", r.msgs_2pc_per_txn());
    if args.durable {
        // A durable commit is two forced writes deep (vote record, outcome
        // record), so its latency is about twice the two waits below plus
        // its message hops.
        println!(
            "durable promises:      {} parked, {} flush points ({} early), fsync modelled at {} us",
            r.counters.get("wal.parked_msgs"),
            r.counters.get("wal.flushes"),
            r.counters.get("wal.early_seals"),
            DefaultSimRuntime::FSYNC_LATENCY.as_micros()
        );
        for (what, h) in [
            ("park -> sealed:", &r.wal_seal_wait),
            ("sealed -> released:", &r.wal_fsync_wait),
        ] {
            println!(
                "  {what:<21}mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms",
                h.mean() / 1000.0,
                h.p50() as f64 / 1000.0,
                h.p99() as f64 / 1000.0
            );
        }
    }
    println!();
    println!("counters:");
    for (k, v) in r.counters.iter() {
        println!("  {k:<28} {v}");
    }
    if let Some(expected) = expected_total {
        let ok = r.total_value == expected;
        println!();
        println!(
            "conservation check:    {} ({} expected, {} measured)",
            if ok { "OK" } else { "VIOLATED" },
            expected,
            r.total_value
        );
    }
    if args.audit {
        let report = audit(&r.history, 20_000, 8);
        println!();
        println!("serialization-graph audit:");
        println!("  cyclic SCCs:         {}", report.search.cyclic_sccs);
        println!("  SCCs dismissed:      {}", report.search.sccs_dismissed);
        println!("  cycles enumerated:   {}", report.search.cycles_enumerated);
        println!(
            "  regular cycle:       {:?}",
            report.regular_cycle().map(|rc| &rc.nodes)
        );
        println!(
            "  AoC violations:      {}",
            report.compensation_atomicity_violations.len()
        );
        println!("  criterion:           {}", report.verdict());
        println!("  plain serializable:  {}", report.serializable);
    }
}

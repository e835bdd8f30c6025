//! The repo benchmark: one workload per process.
//!
//! ```text
//! o2pc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                [--quick] [--out-dir DIR] [--wal-dir DIR]
//! ```
//!
//! Prints every metric as `name value unit`, checks correctness, and ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is repeated with spans around the benchmark's own calls and the
//! metrics are the per-layer ones. Exits non-zero when a correctness check
//! fails. See README.md for what each number means.

mod layers;
mod measure;
mod metrics;
mod trace;
mod workloads;

use measure::{fs_type, median, peak_rss_mb, quartiles, reset_peak_rss, round_seed};
use metrics::{median_of, sample, MetricDef, Sample, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{run_round, spec_named, Env, Round, Spec, Substrate, SPECS};

/// On the simulator the virtual-time metrics are a pure function of the
/// seed; they are taken from this many leading rounds, however many more
/// the time budget allows, so that they repeat exactly for a seed.
const DET_ROUNDS: usize = 5;
/// Cycles measured whatever the time budget says.
const MIN_CYCLES: usize = 3;
/// Untraced/traced cycle pairs a traced run makes whatever the budget says.
const MIN_TRACED_PAIRS: usize = 2;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One cycle of rounds a tenth the size: a smoke test, not a measurement.
    pub quick: bool,
    pub out_dir: PathBuf,
    pub wal_dir: Option<PathBuf>,
}

impl Options {
    /// Directory under which durable rounds create (and remove) their logs.
    fn wal_root(&self) -> PathBuf {
        self.wal_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.join("wal"))
    }
}

/// What a run hands back: the last-line JSON ingredients.
pub struct Outcome {
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
}

fn usage() -> ! {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: o2pc-benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--out-dir DIR] [--wal-dir DIR]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (&'static Spec, Options) {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 25.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        wal_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => opts.quick = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value()),
            "--wal-dir" => opts.wal_dir = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    let spec = workload
        .as_deref()
        .and_then(spec_named)
        .unwrap_or_else(|| usage());
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        usage();
    }
    (spec, opts)
}

/// One pass over the workload's phases on one seed.
struct Cycle {
    traced: bool,
    rate: Sample,
    /// Saturation phase (threaded workloads).
    sat: Option<Sample>,
    digest: u64,
    /// Peak resident set while this cycle ran.
    peak_rss_mb: f64,
    offered: u64,
    decided: u64,
    wall_s: f64,
}

fn run_cycle(
    spec: &Spec,
    seed: u64,
    scale: usize,
    env: &mut Env,
    violations: &mut Vec<String>,
) -> Cycle {
    let start = Instant::now();
    reset_peak_rss();
    let mut note = |phase: &str, round: &Round| {
        for v in &round.violations {
            violations.push(format!("{} {phase} round, seed {seed:#x}: {v}", spec.name));
        }
    };
    let rate = run_round(spec, &spec.rate, seed, scale, env);
    note("rate", &rate);
    let sat = spec.sat.map(|phase| {
        let round = run_round(spec, &phase, seed, scale, env);
        note("sat", &round);
        round
    });
    let rounds = || std::iter::once(&rate).chain(sat.as_ref());
    Cycle {
        traced: env.tracer.recording(),
        digest: rate.report.history_digest,
        peak_rss_mb: peak_rss_mb(),
        offered: rounds().map(|r| r.offered).sum(),
        decided: rounds().map(|r| r.decided()).sum(),
        rate: sample(spec, &rate),
        sat: sat.as_ref().map(|r| sample(spec, r)),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Run one workload to its time budget and fold the rounds into metrics.
pub fn run_workload(spec: &Spec, opts: &Options) -> Outcome {
    let started = Instant::now();
    let wal_root = opts.wal_root();
    std::fs::create_dir_all(&wal_root).expect("create the WAL root directory");
    let mut env = Env {
        wal_root: wal_root.clone(),
        tracer: Tracer::new(),
    };
    let scale = if opts.quick { 10 } else { 1 };
    let mut violations = Vec::new();

    println!("workload {}: {}", spec.name, spec.why);
    println!(
        "seed {}, budget {} s, {} cores, {}",
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if opts.trace { "traced" } else { "untraced" }
    );
    if spec.substrate == Substrate::Threaded {
        println!(
            "zero injected link delay: latency is processor and wake-up time{}",
            if spec.durable { " plus fsync" } else { " only" }
        );
    }
    if spec.durable {
        println!(
            "log under {} ({}): {}",
            wal_root.display(),
            fs_type(&wal_root),
            workloads::flush_policy()
        );
    }

    // Untimed warm-up on round 0's seed: pages in the code and the
    // allocator, and on the simulator doubles as the first half of the
    // determinism check (round 0 must replay to the same history digest).
    let warmup = run_cycle(
        spec,
        round_seed(opts.seed, 0),
        scale,
        &mut env,
        &mut violations,
    );

    let layer_costs = if opts.trace {
        env.tracer.set(true, 0);
        let costs = layers::run_all(&mut env.tracer, &wal_root);
        env.tracer.set(false, 0);
        costs
    } else {
        Vec::new()
    };

    // Cycles until the budget is used. A traced run alternates untraced and
    // traced cycles on the same seed, so the two differ in nothing but the
    // spans.
    let min_cycles = match (opts.quick, opts.trace, spec.substrate) {
        (true, false, _) => 1,
        (true, true, _) => 2,
        (false, true, _) => 2 * MIN_TRACED_PAIRS,
        (false, false, Substrate::Sim) => DET_ROUNDS,
        (false, false, Substrate::Threaded) => MIN_CYCLES,
    };
    let mut cycles: Vec<Cycle> = Vec::new();
    loop {
        let n = cycles.len();
        // Stop when a typical cycle no longer fits. (The median: one cycle
        // stretched by a stall must not end the run early.)
        let walls: Vec<f64> = std::iter::once(&warmup)
            .chain(&cycles)
            .map(|c| c.wall_s)
            .collect();
        let out_of_time = started.elapsed().as_secs_f64() + median(&walls) > opts.seconds;
        if n >= min_cycles && (out_of_time || opts.quick) {
            break;
        }
        let (round, traced) = if opts.trace {
            (n / 2, n % 2 == 1)
        } else {
            (n, false)
        };
        env.tracer.set(traced, round as u32);
        let seed = round_seed(opts.seed, round as u64);
        cycles.push(run_cycle(spec, seed, scale, &mut env, &mut violations));
    }
    env.tracer.set(false, 0);

    if spec.substrate == Substrate::Sim && cycles[0].digest != warmup.digest {
        violations.push(format!(
            "{}: round 0 replayed to history digest {:#x}, first ran to {:#x}",
            spec.name, cycles[0].digest, warmup.digest
        ));
    }

    let attempted: u64 = cycles.iter().map(|c| c.offered).sum();
    let failed = attempted - cycles.iter().map(|c| c.decided).sum::<u64>();
    let metrics = if opts.trace {
        per_layer(spec, &cycles, &layer_costs, &env.tracer)
    } else {
        end_to_end(spec, &cycles)
    };

    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    let kind = if opts.trace { "layers" } else { "rounds" };
    let rounds_path = opts.out_dir.join(format!("{kind}-{}.json", spec.name));
    std::fs::write(&rounds_path, rounds_json(spec, opts, &cycles)).expect("write per-round values");
    if opts.trace {
        let trace_path = opts.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&trace_path, env.tracer.to_json(spec.name)).expect("write the trace");
        print!("{}", env.tracer.table());
    }
    println!(
        "{} cycles in {:.1} s; per-round values in {}",
        cycles.len(),
        started.elapsed().as_secs_f64(),
        rounds_path.display()
    );
    Outcome {
        violations,
        attempted,
        failed,
        metrics,
    }
}

/// The phase throughput comes from: saturation on the threaded workloads,
/// the only phase on the simulator.
fn capacity<'a>(cycles: &[&'a Cycle]) -> Vec<&'a Sample> {
    cycles
        .iter()
        .map(|c| c.sat.as_ref().unwrap_or(&c.rate))
        .collect()
}

fn end_to_end(spec: &Spec, cycles: &[Cycle]) -> Vec<(MetricDef, f64)> {
    let all: Vec<&Cycle> = cycles.iter().collect();
    let rate: Vec<&Sample> = all.iter().map(|c| &c.rate).collect();
    let cap = capacity(&all);
    // Virtual-time metrics: a fixed prefix of rounds, so they are a pure
    // function of the seed (the time budget decides only how many further
    // rounds feed the wall-clock metrics).
    let fixed = match spec.substrate {
        Substrate::Sim => &rate[..rate.len().min(DET_ROUNDS)],
        Substrate::Threaded => &rate[..],
    };
    let peaks: Vec<f64> = all.iter().map(|c| c.peak_rss_mb).collect();
    let setup: Vec<f64> = all
        .iter()
        .map(|c| c.rate["setup_s"] + c.sat.as_ref().map_or(0.0, |s| s["setup_s"]))
        .collect();
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => median(&setup),
                "peak_rss_mb" => median(&peaks),
                "txn_per_sec" => median_of(&cap, m.name),
                "cpu_us_per_txn" => median_of(&rate, m.name),
                name => median_of(fixed, name),
            };
            (*m, value)
        })
        .collect()
}

fn per_layer(
    spec: &Spec,
    cycles: &[Cycle],
    layer_costs: &[(&'static str, f64)],
    tracer: &Tracer,
) -> Vec<(MetricDef, f64)> {
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
    let plain: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let rate: Vec<&Sample> = traced.iter().map(|c| &c.rate).collect();
    let cap = capacity(&traced);
    let cost = |name: &str| {
        layer_costs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let span_per_count = |name: &str| {
        let (ns, count) = tracer.total(name);
        ns as f64 / count.max(1) as f64
    };

    // What the timed layers explain of the CPU spent per transaction, and
    // what is left for engine dispatch and everything not timed apart.
    let explained_us: Vec<f64> = rate
        .iter()
        .map(|s| {
            let log_ns = if spec.durable {
                cost("storage.durable_append_ns")
            } else {
                cost("storage.wal_append_ns")
            };
            let substrate_ns = match spec.substrate {
                Substrate::Sim => cost("sim.event_queue_ns") * s["sim.events_per_txn"],
                Substrate::Threaded => cost("runtime.hop_batched_ns") * s["protocol.msgs_per_txn"],
            };
            (cost("locking.acquire_release_ns") * s["locking.requests_per_txn"]
                + cost("storage.apply_commit_ns") * s["storage.ops_per_txn"]
                + log_ns * s["storage.wal_records_per_txn"]
                + cost("marking.r1_check_ns") * s["marking.r1_checks_per_txn"]
                + substrate_ns)
                / 1e3
        })
        .collect();
    let residual: Vec<f64> = rate
        .iter()
        .zip(&explained_us)
        .map(|(s, e)| s["cpu_us_per_txn"] - e)
        .collect();

    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "core.residual_us_per_txn" => median(&residual),
                "core.run_us_per_txn" | "client.raw_txn_per_sec" => median_of(&cap, m.name),
                "core.build_ms" => span_per_count("core.build") / 1e6,
                "workload.generate_ns_per_txn" => span_per_count("workload.generate"),
                "workload.install_ns_per_txn" => span_per_count("workload.install"),
                "storage.fsyncs_per_txn_sat" => median_of(&cap, "storage.fsyncs_per_txn"),
                "client.sat_achieved_share" => median_of(&cap, "client.achieved_share"),
                "trace.overhead_share" => {
                    median_of(&cap, "core.run_us_per_txn")
                        / median_of(&capacity(&plain), "core.run_us_per_txn")
                        - 1.0
                }
                name if layer_costs.iter().any(|(n, _)| *n == name) => cost(name),
                name => median_of(&rate, name),
            };
            (*m, value)
        })
        .collect()
}

/// Per-round values of every sampled metric, so spread is inspectable.
fn rounds_json(spec: &Spec, opts: &Options, cycles: &[Cycle]) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cycles\": {}, \"phases\": {{\n",
        spec.name,
        opts.seed,
        cycles.len()
    );
    let phases = [
        (
            "rate",
            cycles.iter().map(|c| Some(&c.rate)).collect::<Vec<_>>(),
        ),
        ("sat", cycles.iter().map(|c| c.sat.as_ref()).collect()),
    ];
    for (p, (phase, samples)) in phases.iter().enumerate() {
        let samples: Vec<&Sample> = samples.iter().flatten().copied().collect();
        let _ = writeln!(out, "  \"{phase}\": {{");
        let keys: Vec<&str> = samples
            .first()
            .map_or(Vec::new(), |s| s.keys().copied().collect());
        for (k, key) in keys.iter().enumerate() {
            let values: Vec<f64> = samples.iter().map(|s| s[key]).collect();
            let spread = if values.len() >= 2 {
                let [q1, q2, q3] = quartiles(&values);
                format!("\"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}, ")
            } else {
                String::new()
            };
            let list: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let sep = if k + 1 == keys.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{key}\": {{{spread}\"rounds\": [{}]}}{sep}",
                list.join(", ")
            );
        }
        let _ = writeln!(out, "  }}{}", if p == 0 { "," } else { "" });
    }
    out.push_str("}}\n");
    out
}

/// A fast fsync, or a log on tmpfs, means the durable numbers are not
/// about a device. Say so where it cannot be missed.
fn warn_about_cheap_fsync(spec: &Spec, opts: &Options, metrics: &[(MetricDef, f64)]) {
    let fs = fs_type(&opts.wal_root());
    let probe = metrics
        .iter()
        .find(|(m, _)| m.name == "storage.fsync_probe_us")
        .map(|&(_, v)| v);
    let cheap = probe.is_some_and(|us| us < 50.0);
    if cheap || (spec.durable && fs == "tmpfs") {
        eprintln!(
            "WARNING: fsync is nearly free here (probe {} us, filesystem {fs}): the durable \
             numbers measure this sandbox, not a storage device",
            probe.map_or("not run".to_string(), |us| format!("{us:.1}"))
        );
    }
}

fn main() {
    let (spec, opts) = parse_args();
    let outcome = run_workload(spec, &opts);
    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            eprintln!("CORRECTNESS: {v}");
        }
        eprintln!(
            "{}: {} correctness checks failed (run seed {}); no result printed",
            spec.name,
            outcome.violations.len(),
            opts.seed
        );
        std::process::exit(1);
    }
    warn_about_cheap_fsync(spec, &opts, &outcome.metrics);

    let mut json = String::new();
    for (i, (m, value)) in outcome.metrics.iter().enumerate() {
        println!("{:<34} {value:>16.4} {}", m.name, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` on every workload: one cycle of small rounds through the
    /// whole path — schedule, engine, correctness gate, metric folding.
    #[test]
    fn quick_smoke_runs_every_workload_and_its_gate() {
        // Under this crate's ignored `out/`, like a real run's files.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        for trace in [false, true] {
            for spec in &SPECS {
                let opts = Options {
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    out_dir: dir.clone(),
                    wal_dir: None,
                };
                let started = Instant::now();
                let out = run_workload(spec, &opts);
                assert!(out.violations.is_empty(), "{:?}", out.violations);
                assert!(out.attempted >= 100 && out.failed == 0);
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(out.metrics.len(), expected);
                for (m, v) in &out.metrics {
                    assert!(v.is_finite(), "{} {} is {v}", spec.name, m.name);
                    assert!(trace || *v > 0.0, "{} {} is {v}", spec.name, m.name);
                }
                assert!(
                    trace || started.elapsed().as_secs_f64() < 10.0,
                    "{} quick run took {:?}",
                    spec.name,
                    started.elapsed()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

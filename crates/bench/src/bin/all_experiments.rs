//! Run the experiment suite (F1, F2, E1–E9) in order, or the named part of it.
//!
//! ```sh
//! all_experiments [--backend {sim,threaded}] [--cores N] [ID…]
//! ```
//!
//! With no `ID` the whole suite runs under its banner (what
//! `bench_tables.txt` records). With ids — `fig1 fig2 e1 e2 e3 e4 e5 e5b e6
//! e7 e8 e9` — only those experiments run, in argument order, and nothing
//! but their tables is printed.
//!
//! `--backend sim` (the default) runs every experiment on the deterministic
//! simulator. `--backend threaded` runs the experiments ported to the
//! wall-clock runtime (E1 and the open-loop E10); the others only exist on
//! the simulator and are skipped with a note. It takes no ids.
//!
//! `--cores N` fans each simulator sweep's points out over N worker
//! threads (default: all available; `--cores 1` is fully sequential). Rows
//! are merged back in sweep order, so the emitted tables and CSVs are
//! byte-identical at any core count. The threaded backend ignores the flag:
//! its experiments measure wall-clock latency and must own the machine.
use o2pc_bench::experiments as ex;
use o2pc_bench::experiments::Backend;
use std::io;
use std::process::exit;

type Experiment = fn() -> io::Result<()>;

/// The simulator suite in run order, keyed by command-line id.
const SUITE: [(&str, Experiment); 12] = [
    ("fig1", ex::fig1),
    ("fig2", ex::fig2),
    ("e1", ex::e1),
    ("e2", ex::e2),
    ("e3", ex::e3),
    ("e4", ex::e4),
    ("e5", ex::e5),
    ("e5b", ex::e5b),
    ("e6", ex::e6),
    ("e7", ex::e7),
    ("e8", ex::e8),
    ("e9", ex::e9),
];

fn usage() -> String {
    let ids: Vec<&str> = SUITE.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: all_experiments [--backend {{sim,threaded}}] [--cores N] [ID...]\n  \
         ids (simulator only; none = the whole suite): {}",
        ids.join(" ")
    )
}

struct Args {
    backend: Backend,
    cores: usize,
    selected: Vec<Experiment>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        backend: Backend::Sim,
        cores: 0, // all available
        selected: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let Some(value) = args.next() else {
                    usage_error("--backend requires a value (`sim` or `threaded`)");
                };
                parsed.backend = value.parse().unwrap_or_else(|e: String| usage_error(&e));
            }
            "--cores" => {
                let Some(value) = args.next() else {
                    usage_error("--cores requires a value");
                };
                parsed.cores = value
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--cores: {e}")));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                exit(0);
            }
            other => match SUITE.iter().find(|(id, _)| *id == other) {
                Some(&(_, run)) => parsed.selected.push(run),
                None => usage_error(&format!("unexpected argument `{other}`")),
            },
        }
    }
    if parsed.backend == Backend::Threaded && !parsed.selected.is_empty() {
        usage_error("experiment ids name simulator experiments; `--backend threaded` takes none");
    }
    parsed
}

fn run(args: Args) -> io::Result<()> {
    match args.backend {
        Backend::Sim => {
            ex::set_cores(args.cores);
            if !args.selected.is_empty() {
                return args.selected.iter().try_for_each(|run| run());
            }
            println!("# O2PC reproduction — full experiment suite (deterministic sim)");
            println!("# mode: closed-loop trace replay (pre-generated arrival schedule)\n");
            SUITE.iter().try_for_each(|(_, run)| run())?;
            println!("\nAll experiments completed.");
            Ok(())
        }
        Backend::Threaded => {
            println!("# O2PC reproduction — threaded wall-clock backend");
            println!("# E1 mode: closed-loop trace replay (pre-generated arrival schedule)");
            println!("# E10 mode: open-loop (2 000 Poisson client sessions, bounded admission)\n");
            println!("(F1–F2, E2–E9 are defined on the deterministic simulator only;");
            println!(" run them with `--backend sim`.)\n");
            ex::e1_threaded()?;
            ex::e10_open_loop_threaded()?;
            println!("\nThreaded experiments completed.");
            Ok(())
        }
    }
}

fn main() {
    if let Err(e) = run(parse_args()) {
        eprintln!("error: {e}");
        exit(1);
    }
}

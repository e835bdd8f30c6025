//! The four workloads and the driver that runs one round of one phase.
//!
//! A *round* is one fresh engine: generate the arrival schedule from the
//! round's seed, build the engine, install the schedule, time
//! `Engine::run` to quiescence, check the result, tear down. All load is a
//! pre-built schedule of merged Poisson session clocks
//! (`OpenLoopClients::schedule`): the load generator is data, not threads.
//! (The only threads the benchmark itself starts are the two short-lived
//! copies of the reference kernel around a threaded round.)

use crate::measure::{cpu_ns, machine_slowdown};
use crate::trace::Tracer;
use o2pc_bench::OpenLoopClients;
use o2pc_common::{Duration, SiteId};
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{
    LinkPolicy, Runtime, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport,
};
use o2pc_sim::{LatencyModel, NetworkConfig};
use o2pc_workload::{BankingWorkload, Schedule};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Independent client sessions whose Poisson clocks are merged into the
/// arrival schedule.
const SESSIONS: usize = 2_000;
/// Share of arrivals that are single-site local transactions.
const LOCAL_FRACTION: f64 = 0.2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Substrate {
    /// Deterministic simulator: virtual time, bit-reproducible per seed.
    Sim,
    /// Threaded wall-clock runtime: real transport workers and timers.
    Threaded,
}

/// One offered-load point of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Offered transactions per second (virtual seconds on the simulator).
    pub offered_per_sec: f64,
    /// Transactions per round.
    pub txns: usize,
    /// Arrivals are shifted this far into the run, so that building the
    /// engine and installing the schedule are over before the first
    /// request is due and no request starts late because of set-up.
    pub lead_us: u64,
}

/// A workload: the substrate, the protocol, the data and the load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub substrate: Substrate,
    pub protocol: ProtocolKind,
    pub sites: u32,
    pub accounts_per_site: u64,
    pub vote_abort_probability: f64,
    pub durable: bool,
    /// Is the workload limited by processor speed? Then its wall-clock
    /// throughput and latency are reported at reference speed (see
    /// `measure::machine_slowdown`). `thr-durable` waits on fsync and
    /// flush timers instead and is reported as measured.
    pub cpu_bound: bool,
    /// Latency limit behind `slo_share` (virtual µs on the simulator).
    pub slo_limit_us: u64,
    /// The phase latency, commit share and message counts come from. On
    /// the simulator it is the only phase and also feeds throughput.
    pub rate: Phase,
    /// Offered load past capacity, for throughput and CPU per transaction
    /// (threaded substrate only).
    pub sat: Option<Phase>,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sim-optimistic",
        why: "The paper's good case on the simulator: 4 sites x 4096 accounts, every transaction commits; engine dispatch, event queue, uncontended locking, store apply and in-memory log append do the work.",
        substrate: Substrate::Sim,
        protocol: ProtocolKind::O2pc,
        sites: 4,
        accounts_per_site: 4_096,
        vote_abort_probability: 0.0,
        durable: false,
        cpu_bound: true,
        slo_limit_us: 10_000,
        rate: Phase {
            offered_per_sec: 5_000.0,
            txns: 50_000,
            lead_us: 0,
        },
        sat: None,
    },
    Spec {
        name: "sim-abort",
        why: "The same layers used the other way: 16 accounts per site and 20% no-votes, so lock queues, deadlock victims, rollback and compensation carry the run; a commit-path gain that costs aborts shows.",
        substrate: Substrate::Sim,
        protocol: ProtocolKind::O2pc,
        sites: 4,
        accounts_per_site: 16,
        vote_abort_probability: 0.2,
        durable: false,
        cpu_bound: true,
        slo_limit_us: 10_000,
        rate: Phase {
            offered_per_sec: 5_000.0,
            txns: 50_000,
            lead_us: 0,
        },
        sat: None,
    },
    Spec {
        name: "thr-open",
        why: "Threaded runtime, O2PC+P2, zero injected link delay, in-memory log: transport hop, mailbox batching, the engine thread and the marking R1 check do the work; storage flush does none.",
        substrate: Substrate::Threaded,
        protocol: ProtocolKind::O2pcP2,
        sites: 3,
        accounts_per_site: 2_048,
        vote_abort_probability: 0.0,
        durable: false,
        cpu_bound: true,
        slo_limit_us: 1_000,
        rate: Phase {
            offered_per_sec: 20_000.0,
            txns: 12_000,
            lead_us: 30_000,
        },
        sat: Some(Phase {
            offered_per_sec: 150_000.0,
            txns: 100_000,
            lead_us: 0,
        }),
    },
    Spec {
        name: "thr-durable",
        why: "Threaded runtime with the segmented on-disk log and promises gated on physical fsync: codec, segment append, the flusher pool, fsync and message parking set both latency and capacity.",
        substrate: Substrate::Threaded,
        protocol: ProtocolKind::O2pc,
        sites: 3,
        accounts_per_site: 2_048,
        vote_abort_probability: 0.0,
        durable: true,
        cpu_bound: false,
        slo_limit_us: 10_000,
        rate: Phase {
            offered_per_sec: 2_000.0,
            txns: 3_000,
            lead_us: 100_000,
        },
        sat: Some(Phase {
            offered_per_sec: 150_000.0,
            txns: 6_000,
            lead_us: 0,
        }),
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Quiescence-detection slack of the threaded runtime: `Engine::run`
/// returns this long after the last step. Fixed here so the diagnostics
/// that discount it name the same value the runtime waits.
pub fn idle_grace() -> std::time::Duration {
    ThreadedRuntimeConfig::default().idle_grace
}

/// What one round measured, plus everything the correctness gate and the
/// per-layer counts need from the engine before it is dropped.
pub struct Round {
    pub offered: u64,
    /// Operations in the offered transactions.
    pub ops: u64,
    /// First to last scheduled arrival, µs.
    pub span_us: u64,
    /// The phase's lead: how far into the run the first arrival is due.
    pub lead_us: u64,
    /// Wall time of `Engine::run` (the timed window).
    pub wall_s: f64,
    /// How much slower than nominal the machine ran (mean of the reference
    /// measurement just before and just after the timed window).
    pub slowdown: f64,
    /// Process CPU time over the timed window.
    pub cpu_s: f64,
    /// Wall time of the round outside the timed window.
    pub setup_s: f64,
    /// Runtime clock when `run` was entered (threaded: µs since the
    /// runtime was built; must stay below the phase's lead).
    pub start_lag_us: u64,
    pub report: RunReport,
    /// Data fsyncs over all sites' logs (0 in memory).
    pub fsyncs: u64,
    /// Log records over all sites at the end of the run.
    pub wal_records: u64,
    /// Encoded size of those records (filled on traced rounds only).
    pub wal_bytes: u64,
    /// Correctness-gate failures (empty = passed).
    pub violations: Vec<String>,
}

impl Round {
    pub fn committed(&self) -> u64 {
        self.report.global_committed + self.report.local_committed
    }

    pub fn decided(&self) -> u64 {
        decided(&self.report)
    }
}

/// Transactions that reached a decision, either way.
fn decided(report: &RunReport) -> u64 {
    report.global_committed + report.global_aborted + report.local_committed + report.local_aborted
}

/// Per-run environment of the round driver.
pub struct Env {
    /// Directory under which durable rounds create (and remove) their logs.
    pub wal_root: PathBuf,
    pub tracer: Tracer,
}

fn clients(spec: &Spec, phase: &Phase, seed: u64) -> OpenLoopClients {
    OpenLoopClients {
        sessions: SESSIONS,
        offered_txn_per_sec: phase.offered_per_sec,
        total_txns: phase.txns,
        mix: BankingWorkload {
            sites: spec.sites,
            accounts_per_site: spec.accounts_per_site,
            local_fraction: LOCAL_FRACTION,
            seed,
            ..Default::default()
        },
    }
}

fn config(spec: &Spec, seed: u64, wal_dir: Option<&Path>) -> SystemConfig {
    let mut cfg = SystemConfig::new(spec.sites, spec.protocol);
    cfg.seed = seed;
    // The archive is not consulted; the engine still folds every event into
    // `RunReport::history_digest`, which the determinism gate compares.
    cfg.record_history = false;
    cfg.vote_abort_probability = spec.vote_abort_probability;
    match spec.substrate {
        Substrate::Sim => {
            // Mean 1 ms per hop, jittered: with a fixed delay every global
            // transaction has the same virtual latency to the microsecond
            // and the median could never move by less than a whole round.
            cfg.network = NetworkConfig {
                default_latency: LatencyModel::Uniform(
                    Duration::micros(500),
                    Duration::micros(1_500),
                ),
                ..Default::default()
            };
        }
        Substrate::Threaded => {
            // The `perf` harness's threaded configuration: operation
            // service is the engine's own CPU work, not a timer park, and
            // 3 sites x 8 globals pipeline at once.
            cfg.op_service_time = Duration::ZERO;
            cfg.admission_window = Some(8);
        }
    }
    if let Some(dir) = wal_dir {
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        // Promises wait for the physical fsync, not the sealed watermark.
        cfg.wal_background_flush = true;
    }
    cfg
}

/// The flush policy of durable rounds, for the run header.
pub fn flush_policy() -> String {
    let cfg = SystemConfig::new(1, ProtocolKind::O2pc);
    format!(
        "flush interval {} us, byte trigger {} KiB, segments {} MiB, promises gated on physical fsync",
        cfg.wal_flush_interval.as_micros(),
        cfg.wal_flush_bytes / 1024,
        cfg.wal_segment_bytes / (1024 * 1024)
    )
}

/// Run one round of `phase`. `scale` divides the round size (`--quick`).
pub fn run_round(spec: &Spec, phase: &Phase, seed: u64, scale: usize, env: &mut Env) -> Round {
    // Before the runtime exists: its clock starts when it is built, and the
    // measurement must not eat into the phase's lead.
    let threads_contend = spec.substrate == Substrate::Threaded;
    let slowdown_before = machine_slowdown(threads_contend);
    let round_start = Instant::now();
    let whole = env.tracer.enter("round");
    let phase = Phase {
        txns: (phase.txns / scale).max(100),
        ..*phase
    };

    let open = env.tracer.enter("workload.generate");
    let mut schedule = clients(spec, &phase, seed).schedule();
    for (t, _) in &mut schedule.arrivals {
        *t += Duration::micros(phase.lead_us);
    }
    env.tracer.exit(open, phase.txns as u64);

    let wal_dir = spec.durable.then(|| {
        env.wal_root
            .join(format!("{}-{seed:016x}", std::process::id()))
    });
    if let Some(dir) = &wal_dir {
        let open = env.tracer.enter("storage.create_wal_dir");
        std::fs::create_dir_all(dir).expect("create WAL directory");
        env.tracer.exit(open, 1);
    }
    let cfg = config(spec, seed, wal_dir.as_deref());

    let open = env.tracer.enter("core.build");
    let round = match spec.substrate {
        Substrate::Sim => {
            let engine = Engine::new(cfg);
            env.tracer.exit(open, 1);
            drive(
                engine,
                spec,
                &phase,
                &schedule,
                env,
                round_start,
                slowdown_before,
            )
        }
        Substrate::Threaded => {
            let transport: ThreadedTransport<Msg> =
                ThreadedTransport::with_policy(LinkPolicy::fixed(std::time::Duration::ZERO));
            let rt: ThreadedRuntime<TimerEvent, Msg> = ThreadedRuntime::new(
                transport,
                ThreadedRuntimeConfig {
                    idle_grace: idle_grace(),
                },
            );
            let engine = Engine::with_runtime(cfg, rt);
            env.tracer.exit(open, 1);
            drive(
                engine,
                spec,
                &phase,
                &schedule,
                env,
                round_start,
                slowdown_before,
            )
        }
    };
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    env.tracer.exit(whole, round.offered);
    round
}

fn last_arrival_us(schedule: &Schedule) -> u64 {
    schedule.arrivals.last().map_or(0, |(t, _)| t.0)
}

/// Install, time `run`, probe the engine, drop it. The ~20 lines of
/// `o2pc_bench::run_open_loop`, kept here because the gate and the fsync
/// count need the engine after `run` returns.
fn drive<R: Runtime<TimerEvent, Msg>>(
    mut engine: Engine<R>,
    spec: &Spec,
    phase: &Phase,
    schedule: &Schedule,
    env: &mut Env,
    round_start: Instant,
    slowdown_before: f64,
) -> Round {
    let offered = schedule.arrivals.len() as u64;
    let open = env.tracer.enter("workload.install");
    schedule.install(&mut engine);
    env.tracer.exit(open, offered);

    let setup_before = round_start.elapsed();
    let start_lag_us = engine.runtime().now().0;
    // Virtual time on the simulator, wall time on threads: a round that has
    // not drained a minute after its last arrival fails the gate instead of
    // hanging.
    let horizon = Duration::micros(last_arrival_us(schedule)) + Duration::secs(60);
    let open = env.tracer.enter("core.run");
    let cpu_before = cpu_ns();
    let run_start = Instant::now();
    let report = engine.run(horizon);
    let wall_s = run_start.elapsed().as_secs_f64();
    let cpu_s = cpu_ns().saturating_sub(cpu_before) as f64 / 1e9;
    env.tracer.exit(open, offered);
    let threads_contend = spec.substrate == Substrate::Threaded;
    let slowdown = (slowdown_before + machine_slowdown(threads_contend)) / 2.0;
    let after_run = Instant::now();

    let open = env.tracer.enter("gate.probe");
    let sites: Vec<SiteId> = (0..spec.sites).map(SiteId).collect();
    let fsyncs = sites
        .iter()
        .filter_map(|&s| engine.wal_stats(s))
        .map(|st| st.fsyncs())
        .sum();
    let wal_records = sites
        .iter()
        .filter_map(|&s| engine.wal_records(s))
        .map(|r| r.len() as u64)
        .sum();
    let wal_bytes = if env.tracer.recording() {
        let mut frame = Vec::new();
        sites
            .iter()
            .filter_map(|&s| engine.wal_records(s))
            .flatten()
            .map(|rec| {
                frame.clear();
                o2pc_storage::codec::encode_frame(rec, &mut frame) as u64
            })
            .sum()
    } else {
        0
    };

    let decided = decided(&report);
    let mut violations = Vec::new();
    if report.total_value != schedule.total_loaded() {
        violations.push(format!(
            "money not conserved: total {} != loaded {}",
            report.total_value,
            schedule.total_loaded()
        ));
    }
    if report.compensations_pending != 0 {
        violations.push(format!(
            "{} compensations pending",
            report.compensations_pending
        ));
    }
    if decided != offered || engine.queued_admissions() != 0 {
        violations.push(format!(
            "{decided} of {offered} decided, {} still queued for admission, {} coordinators unfinished",
            engine.queued_admissions(),
            engine.unfinished_txns().len()
        ));
    }
    if spec.durable {
        let divergent = engine.wal_divergent_sites();
        if !divergent.is_empty() {
            violations.push(format!("log does not replay to the store at {divergent:?}"));
        }
    }
    env.tracer.exit(open, 1);

    let open = env.tracer.enter("core.teardown");
    drop(engine);
    env.tracer.exit(open, 1);
    Round {
        offered,
        ops: schedule.arrivals.iter().map(|(_, r)| request_ops(r)).sum(),
        span_us: last_arrival_us(schedule) - schedule.arrivals.first().map_or(0, |(t, _)| t.0),
        lead_us: phase.lead_us,
        slowdown,
        wall_s,
        cpu_s,
        setup_s: (setup_before + after_run.elapsed()).as_secs_f64(),
        start_lag_us,
        report,
        fsyncs,
        wal_records,
        wal_bytes,
        violations,
    }
}

fn request_ops(req: &TxnRequest) -> u64 {
    match req {
        TxnRequest::Global { subs, .. } => subs.iter().map(|(_, ops)| ops.len() as u64).sum(),
        TxnRequest::Local { ops, .. } => ops.len() as u64,
    }
}

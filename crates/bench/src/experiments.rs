//! Experiment implementations (one per figure / claim; see crate docs).

use crate::table::{f, Table};
use o2pc_common::pool;
use o2pc_common::{Duration, GlobalTxnId, Key, Op, SimTime, SiteId, TxnId, Value};
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent, TxnRequest};
use o2pc_marking::state::transition_table;
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Runtime, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use o2pc_sgraph::graph::GlobalSg;
use o2pc_sgraph::regular::{classify_all_cycles, CycleClass};
use o2pc_sgraph::{audit, holds_s1, holds_s2, Verdict};
use o2pc_sim::{FailurePlan, NetworkConfig};
use o2pc_workload::{BankingWorkload, GenericWorkload, MultidbWorkload, Schedule, TravelWorkload};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which substrate an experiment runs on.
///
/// Every experiment is defined on [`Backend::Sim`] (deterministic, seeded,
/// the substrate all published numbers come from). [`Backend::Threaded`] is
/// available for the experiments that have been ported to wall-clock
/// execution (currently E1); the rest reject it with a clear error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The deterministic discrete-event simulator.
    Sim,
    /// Real threads + wall-clock latency (`o2pc_runtime::ThreadedRuntime`).
    Threaded,
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "threaded" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend `{other}` (expected `sim` or `threaded`)"
            )),
        }
    }
}

/// Worker threads used by the simulator sweeps (default 1 — sequential).
/// Every sweep point is an isolated deterministic engine, and
/// [`sweep_rows`] appends rows in point order, so the emitted tables are
/// byte-identical at any setting.
static SWEEP_CORES: AtomicUsize = AtomicUsize::new(1);

/// Set the sweep worker count (called once by `all_experiments --cores`).
/// `0` means "all available cores".
pub fn set_cores(n: usize) {
    SWEEP_CORES.store(pool::resolve_cores(n), Ordering::SeqCst);
}

/// Current sweep worker count.
pub fn cores() -> usize {
    SWEEP_CORES.load(Ordering::SeqCst).max(1)
}

/// Evaluate one table row per sweep point on the worker pool and append
/// the rows in point order.
fn sweep_rows<P: Sync>(table: &mut Table, points: &[P], row: impl Fn(&P) -> Vec<String> + Sync) {
    for r in pool::map_ordered(points.len(), cores(), |i| row(&points[i])) {
        table.row(&r);
    }
}

fn run_schedule_with<R: Runtime<TimerEvent, Msg>>(
    mut engine: Engine<R>,
    schedule: &Schedule,
    horizon: Duration,
) -> RunReport {
    schedule.install(&mut engine);
    engine.run(horizon)
}

fn run_schedule(cfg: SystemConfig, schedule: &Schedule, horizon: Duration) -> RunReport {
    run_schedule_with(Engine::new(cfg), schedule, horizon)
}

/// Run a schedule on the threaded wall-clock runtime with a fixed link
/// latency. Virtual durations in `cfg` (service times, timeouts) become
/// microseconds of real time; the horizon bounds *wall* time.
fn run_schedule_threaded(
    cfg: SystemConfig,
    latency: Duration,
    schedule: &Schedule,
    horizon: Duration,
) -> RunReport {
    let transport: ThreadedTransport<Msg> = ThreadedTransport::new(NetworkConfig::fixed(latency));
    let rt: ThreadedRuntime<TimerEvent, Msg> =
        ThreadedRuntime::new(transport, ThreadedRuntimeConfig::default());
    run_schedule_with(Engine::with_runtime(cfg, rt), schedule, horizon)
}

// ---------------------------------------------------------------------------
// F1 — Figure 1 / Example 1: regular-cycle classification.
// ---------------------------------------------------------------------------

/// Reproduce Figure 1 (regular cycles) and Example 1 (a cycle whose minimal
/// representation skips the regular transaction) as detector runs.
pub fn fig1() -> io::Result<()> {
    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }
    fn ct(i: u64) -> TxnId {
        TxnId::Compensation(GlobalTxnId(i))
    }

    let mut table = Table::new(&[
        "scenario",
        "cycle",
        "min segments",
        "witness endpoints",
        "regular?",
    ]);

    let mut scenarios: Vec<(&str, GlobalSg)> = Vec::new();

    // Example 1 (§5), closed into a cycle: CT1→T2 (SG1, SG2); T2→CT3 (SG2);
    // CT3→CT1 (SG3). The SG2 path CT1→T2→CT3 lets the minimal representation
    // skip T2, so the cycle is NOT regular.
    let mut ex1 = GlobalSg::new();
    ex1.site_mut(SiteId(1)).add_edge(ct(1), t(2));
    ex1.site_mut(SiteId(2)).add_edge(ct(1), t(2));
    ex1.site_mut(SiteId(2)).add_edge(t(2), ct(3));
    ex1.site_mut(SiteId(3)).add_edge(ct(3), ct(1));
    scenarios.push(("Example 1 (shortcut via SG2)", ex1));

    // Figure 1(a): T1 → CT1 → T2 at site a; T2 → T1 at site b. T2 observed
    // the compensation of T1 at one site but preceded T1 at another: regular.
    let mut f1a = GlobalSg::new();
    f1a.site_mut(SiteId(0)).add_edge(t(1), ct(1));
    f1a.site_mut(SiteId(0)).add_edge(ct(1), t(2));
    f1a.site_mut(SiteId(1)).add_edge(t(2), t(1));
    scenarios.push(("Figure 1(a): CT1→T2 | T2→T1", f1a));

    // Figure 1(b): the dual — T2 → CT1 at site a (T2 before the
    // compensation, no local path through T1), CT1 → T2 via T1 at site b.
    let mut f1b = GlobalSg::new();
    f1b.site_mut(SiteId(0)).add_edge(t(2), ct(1));
    f1b.site_mut(SiteId(0)).add_node(t(1));
    f1b.site_mut(SiteId(1)).add_edge(t(1), ct(1));
    f1b.site_mut(SiteId(1)).add_edge(ct(1), t(2));
    scenarios.push(("Figure 1(b): T2→CT1 | CT1→T2", f1b));

    // Figure 1(c): a longer chain through two compensations and two regular
    // transactions across three sites.
    let mut f1c = GlobalSg::new();
    f1c.site_mut(SiteId(0)).add_edge(ct(1), t(2));
    f1c.site_mut(SiteId(0)).add_node(t(1));
    f1c.site_mut(SiteId(1)).add_edge(t(2), ct(3));
    f1c.site_mut(SiteId(1)).add_node(t(3));
    f1c.site_mut(SiteId(2)).add_edge(ct(3), ct(1));
    f1c.site_mut(SiteId(2)).add_node(t(3));
    scenarios.push(("Figure 1(c): CT1→T2→CT3→CT1", f1c));

    // CT-only cycle: explicitly allowed by the criterion.
    let mut ctc = GlobalSg::new();
    ctc.site_mut(SiteId(0)).add_edge(ct(1), ct(2));
    ctc.site_mut(SiteId(1)).add_edge(ct(2), ct(1));
    scenarios.push(("CT-only cycle (allowed)", ctc));

    for (name, sg) in &scenarios {
        let classes = classify_all_cycles(sg, 1000, 12);
        if classes.is_empty() {
            table.row(&[
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "no cycle".into(),
            ]);
        }
        for (cycle, class) in classes {
            let cycle_s = cycle
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("→");
            match class {
                CycleClass::Regular(rc) => table.row(&[
                    name.to_string(),
                    cycle_s,
                    rc.min_segments.to_string(),
                    rc.witness_endpoints
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    "REGULAR".into(),
                ]),
                CycleClass::NonRegular { min_segments } => table.row(&[
                    name.to_string(),
                    cycle_s,
                    min_segments.to_string(),
                    "-".into(),
                    "non-regular".into(),
                ]),
            }
        }
        let s1 = holds_s1(sg);
        let s2 = holds_s2(sg);
        println!("  [{name}] S1={s1} S2={s2}");
    }
    table.emit(
        "F1 — Figure 1 / Example 1: regular-cycle classification",
        "f1_regular_cycles",
    )
}

// ---------------------------------------------------------------------------
// F2 — Figure 2: marking transitions.
// ---------------------------------------------------------------------------

/// Print the full marking transition table (legal transitions = Figure 2).
pub fn fig2() -> io::Result<()> {
    let mut table = Table::new(&["state", "event", "next state"]);
    for (s, e, r) in transition_table() {
        let next = match r {
            Ok(n) => n.to_string(),
            Err(_) => "(illegal)".into(),
        };
        table.row(&[s.to_string(), format!("{e:?}"), next]);
    }
    table.emit(
        "F2 — Figure 2: marking state machine (6 legal transitions)",
        "f2_marking_transitions",
    )
}

// ---------------------------------------------------------------------------
// E1 — exclusive-lock hold time vs network latency.
// ---------------------------------------------------------------------------

/// Sweep the network latency and compare exclusive-lock hold times under
/// 2PL-2PC vs O2PC. The paper's core promise: holds stop scaling with the
/// decision round-trip once locks are released at the vote.
pub fn e1() -> io::Result<()> {
    let mut table = Table::new(&[
        "latency(ms)",
        "protocol",
        "mean X-hold(ms)",
        "p99 X-hold(ms)",
        "mean txn latency(ms)",
        "committed",
    ]);
    let points: Vec<(u64, ProtocolKind)> = [0u64, 1, 2, 5, 10, 20, 50]
        .into_iter()
        .flat_map(|lat| [ProtocolKind::D2pl2pc, ProtocolKind::O2pc].map(|p| (lat, p)))
        .collect();
    sweep_rows(&mut table, &points, |&(lat_ms, proto)| {
        let wl = BankingWorkload {
            sites: 4,
            accounts_per_site: 32,
            transfers: 300,
            mean_interarrival: Duration::millis(4),
            seed: 0xE1,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(lat_ms));
        cfg.seed = 0xE1;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            lat_ms.to_string(),
            proto.to_string(),
            f(r.locks.exclusive_hold.mean() / 1000.0),
            f(r.locks.exclusive_hold.p99() as f64 / 1000.0),
            f(r.global_latency.mean() / 1000.0),
            r.global_committed.to_string(),
        ]
    });
    table.emit(
        "E1 — exclusive-lock hold time vs network latency",
        "e1_lock_hold_time",
    )
}

/// E1 on the threaded wall-clock runtime: the same engine, the same
/// `RunReport` metrics pipeline, but real link latency — each message waits
/// out its link on the wall clock — instead of simulated latency. The
/// workload is scaled down because every simulated microsecond is now a
/// real one; the qualitative claim —
/// O2PC's exclusive-lock holds stop scaling with the decision round-trip —
/// must still be visible in the measured hold times.
pub fn e1_threaded() -> io::Result<()> {
    let mut table = Table::new(&[
        "latency(ms)",
        "protocol",
        "mean X-hold(ms)",
        "p99 X-hold(ms)",
        "mean txn latency(ms)",
        "committed",
    ]);
    for lat_ms in [0u64, 1, 2, 5] {
        for proto in [ProtocolKind::D2pl2pc, ProtocolKind::O2pc] {
            let wl = BankingWorkload {
                sites: 4,
                accounts_per_site: 32,
                transfers: 60,
                mean_interarrival: Duration::millis(2),
                seed: 0xE1,
                ..Default::default()
            };
            let mut cfg = SystemConfig::new(wl.sites, proto);
            cfg.seed = 0xE1;
            cfg.record_history = false;
            let r = run_schedule_threaded(
                cfg,
                Duration::millis(lat_ms),
                &wl.generate(),
                Duration::secs(30),
            );
            table.row(&[
                lat_ms.to_string(),
                proto.to_string(),
                f(r.locks.exclusive_hold.mean() / 1000.0),
                f(r.locks.exclusive_hold.p99() as f64 / 1000.0),
                f(r.global_latency.mean() / 1000.0),
                r.global_committed.to_string(),
            ]);
        }
    }
    table.emit(
        "E1(threaded) — lock hold time vs real link latency (wall clock)",
        "e1_lock_hold_time_threaded",
    )
}

// ---------------------------------------------------------------------------
// E10 — open-loop offered load on the threaded backend.
// ---------------------------------------------------------------------------

/// Open-loop offered-load sweep on the threaded wall-clock backend: 2 000
/// Poisson client sessions offer a fixed aggregate rate regardless of
/// completions, the pipelined coordinator admits a bounded window per site,
/// and the table reports the achieved rate against the latency tail
/// (p50/p99/p999 measured from each request's *scheduled* submit time, so
/// admission queueing is visible). The achieved rate discounts the idle
/// grace after the last step, so it measures service, not the schedule.
/// Three load points: two below the single-engine-thread capacity, which
/// should achieve ≈ their offered rate with a flat tail, and one far past
/// it, which should cap at the server's capacity with the queue absorbed
/// as latency.
pub fn e10_open_loop_threaded() -> io::Result<()> {
    let mut table = Table::new(&[
        "offered(txn/s)",
        "achieved(txn/s)",
        "p50(µs)",
        "p99(µs)",
        "p999(µs)",
        "committed",
        "aborted",
    ]);
    for offered in [20_000.0f64, 90_000.0, 600_000.0] {
        let clients = crate::open_loop::OpenLoopClients {
            sessions: 2_000,
            offered_txn_per_sec: offered,
            total_txns: 12_000,
            mix: BankingWorkload {
                sites: 3,
                accounts_per_site: 2_048,
                local_fraction: 0.2,
                seed: 0xE10,
                ..Default::default()
            },
        };
        let mut cfg = SystemConfig::new(3, ProtocolKind::O2pcP2);
        cfg.seed = 0xE10;
        cfg.record_history = false;
        cfg.op_service_time = Duration::ZERO;
        cfg.admission_window = Some(8);
        let out =
            crate::open_loop::run_open_loop(cfg, Duration::ZERO, &clients, Duration::secs(120));
        let lat = out.latency();
        let r = &out.report;
        table.row(&[
            f(offered),
            f(out.achieved_txn_per_sec),
            lat.p50().to_string(),
            lat.p99().to_string(),
            lat.p999().to_string(),
            (r.global_committed + r.local_committed).to_string(),
            (r.global_aborted + r.local_aborted).to_string(),
        ]);
    }
    table.emit(
        "E10(threaded) — open-loop offered load vs achieved rate and latency tail",
        "e10_open_loop_threaded",
    )
}

// ---------------------------------------------------------------------------
// E2 — throughput & waiting under contention.
// ---------------------------------------------------------------------------

/// Sweep offered load and key skew; compare throughput, transaction latency
/// and lock waiting between 2PL-2PC and O2PC.
pub fn e2() -> io::Result<()> {
    let mut table = Table::new(&[
        "interarrival(µs)",
        "zipf θ",
        "protocol",
        "throughput(txn/s)",
        "mean latency(ms)",
        "mean wait(ms)",
        "waits",
    ]);
    let points: Vec<(u64, f64, ProtocolKind)> = [
        (2000u64, 0.0),
        (1000, 0.0),
        (500, 0.0),
        (500, 0.8),
        (250, 0.8),
        (250, 0.99),
    ]
    .into_iter()
    .flat_map(|(i, t)| [ProtocolKind::D2pl2pc, ProtocolKind::O2pc].map(|p| (i, t, p)))
    .collect();
    sweep_rows(&mut table, &points, |&(inter_us, theta, proto)| {
        let wl = GenericWorkload {
            sites: 4,
            keys_per_site: 24,
            txns: 400,
            ops_per_sub: 4,
            sites_per_txn: 2,
            write_fraction: 0.5,
            zipf_theta: theta,
            mean_interarrival: Duration::micros(inter_us),
            seed: 0xE2,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(5));
        cfg.seed = 0xE2;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            inter_us.to_string(),
            format!("{theta:.2}"),
            proto.to_string(),
            f(r.throughput()),
            f(r.global_latency.mean() / 1000.0),
            f(r.locks.wait_time.mean() / 1000.0),
            r.locks.wait_time.count().to_string(),
        ]
    });
    table.emit(
        "E2 — throughput and waiting under contention",
        "e2_contention_throughput",
    )
}

// ---------------------------------------------------------------------------
// E3 — abort-rate crossover.
// ---------------------------------------------------------------------------

/// Sweep the per-site autonomy-abort probability: O2PC pays compensation on
/// every abort; the paper predicts its advantage inverts once aborts
/// dominate ("if the assumption is unfounded, the overhead incurred by the
/// protocol is likely to outweigh its benefits").
pub fn e3() -> io::Result<()> {
    let mut table = Table::new(&[
        "p(site votes no)",
        "protocol",
        "abort rate",
        "throughput(txn/s)",
        "mean latency(ms)",
        "compensations",
        "mean wait(ms)",
    ]);
    let points: Vec<(f64, ProtocolKind)> = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .flat_map(|p| [ProtocolKind::D2pl2pc, ProtocolKind::O2pc].map(|proto| (p, proto)))
        .collect();
    sweep_rows(&mut table, &points, |&(p, proto)| {
        // Moderate contention: enough conflicts for early release to
        // matter, few enough that deadlock aborts do not drown the
        // autonomy-abort signal being swept.
        let wl = BankingWorkload {
            sites: 4,
            accounts_per_site: 24,
            transfers: 400,
            mean_interarrival: Duration::micros(1500),
            seed: 0xE3,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(5));
        cfg.vote_abort_probability = p;
        cfg.seed = 0xE3;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            format!("{p:.2}"),
            proto.to_string(),
            f(r.abort_rate()),
            f(r.throughput()),
            f(r.global_latency.mean() / 1000.0),
            r.compensations_completed.to_string(),
            f(r.locks.wait_time.mean() / 1000.0),
        ]
    });
    table.emit(
        "E3 — abort-probability sweep (optimism crossover)",
        "e3_abort_crossover",
    )
}

// ---------------------------------------------------------------------------
// E4 — blocking window under coordinator failure.
// ---------------------------------------------------------------------------

/// Crash the coordinator between VOTE-REQ and DECISION; sweep its downtime.
/// Under 2PC the participants' write locks stay held for the entire outage;
/// under O2PC they were released at the vote.
pub fn e4() -> io::Result<()> {
    let mut table = Table::new(&[
        "coordinator downtime(ms)",
        "protocol",
        "max X-hold(ms)",
        "mean X-hold(ms)",
        "outcome",
    ]);
    let points: Vec<(u64, ProtocolKind, bool)> = [10u64, 50, 200, 1000, 5000]
        .into_iter()
        .flat_map(|down| {
            [
                (down, ProtocolKind::D2pl2pc, false),
                (down, ProtocolKind::D2pl2pc, true),
                (down, ProtocolKind::O2pc, false),
            ]
        })
        .collect();
    sweep_rows(&mut table, &points, |&(down_ms, proto, termination)| {
        let mut cfg = SystemConfig::new(3, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(1));
        if termination {
            // Cooperative termination: both participants are prepared
            // and uncertain, so the peer queries cannot unblock them —
            // the impossibility result, measured.
            cfg.termination_timeout = Some(Duration::millis(25));
        }
        cfg.seed = 0xE4;
        let mut failures = FailurePlan::new();
        // VOTE-REQs go out ~2 ms in; crash at 3 ms, after they are on
        // the wire but before any vote returns.
        failures.site_crash(
            SiteId(0),
            SimTime::ZERO + Duration::millis(3),
            SimTime::ZERO + Duration::millis(3 + down_ms),
        );
        cfg.failures = failures;
        let mut e = Engine::new(cfg);
        e.load(SiteId(1), Key(0), Value(100));
        e.load(SiteId(2), Key(0), Value(100));
        e.submit_at(
            SimTime::ZERO,
            TxnRequest::global_with_coordinator(
                SiteId(0),
                vec![
                    (SiteId(1), vec![Op::Add(Key(0), -5)]),
                    (SiteId(2), vec![Op::Add(Key(0), 5)]),
                ],
            ),
        );
        let r = e.run(Duration::secs(60));
        let outcome = if r.global_committed > 0 {
            "commit"
        } else {
            "abort"
        };
        let name = if termination {
            format!(
                "{proto}+coop-term ({} rounds)",
                r.counters.get("term.rounds")
            )
        } else {
            proto.to_string()
        };
        vec![
            down_ms.to_string(),
            name,
            f(r.locks.exclusive_hold.max() as f64 / 1000.0),
            f(r.locks.exclusive_hold.mean() / 1000.0),
            outcome.into(),
        ]
    });
    table.emit(
        "E4 — blocking window while the coordinator is down",
        "e4_blocking_window",
    )
}

// ---------------------------------------------------------------------------
// E5 — P1 overhead.
// ---------------------------------------------------------------------------

/// Compare bare O2PC against O2PC+P1 (and the simple variant) while sweeping
/// the abort probability. The paper: the marking sets "induce extra
/// conflicts ... only if one of the transactions aborts".
pub fn e5() -> io::Result<()> {
    let mut table = Table::new(&[
        "p(abort)",
        "protocol",
        "throughput(txn/s)",
        "R1 checks",
        "R1 rejections",
        "R1 retries",
        "R1 forced aborts",
        "UDUM fired",
    ]);
    let points: Vec<(f64, ProtocolKind)> = [0.0, 0.1, 0.3, 0.5]
        .into_iter()
        .flat_map(|p| {
            [
                ProtocolKind::O2pc,
                ProtocolKind::O2pcP1,
                ProtocolKind::O2pcSimple,
            ]
            .map(|proto| (p, proto))
        })
        .collect();
    sweep_rows(&mut table, &points, |&(p, proto)| {
        // A multidatabase-style mix: local traffic both contends with
        // the globals and supplies the UDUM1 fences that let undone
        // markings be forgotten.
        let wl = BankingWorkload {
            sites: 4,
            accounts_per_site: 24,
            transfers: 400,
            local_fraction: 0.4,
            mean_interarrival: Duration::millis(1),
            seed: 0xE5,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(2));
        cfg.vote_abort_probability = p;
        // "It can be retried later" (§6.2): patience matters — quick
        // retry budgets convert rejections into forced aborts, whose
        // markings cause further rejections (a positive feedback loop).
        cfg.r1_max_retries = 25;
        cfg.r1_retry_delay = Duration::millis(4);
        cfg.seed = 0xE5;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            format!("{p:.2}"),
            proto.to_string(),
            f(r.throughput()),
            r.counters.get("r1.checks").to_string(),
            r.counters.get("r1.rejections").to_string(),
            r.counters.get("r1.retries").to_string(),
            r.counters.get("r1.forced_aborts").to_string(),
            r.counters.get("udum.fired").to_string(),
        ]
    });
    table.emit(
        "E5 — admission (P1) overhead vs abort probability",
        "e5_p1_overhead",
    )
}

/// E5b (ablation): the UDUM1 "safe forgetting" transition on vs off. With
/// R3 disabled, undone markings accumulate forever and P1's admission check
/// rejects ever more transactions — quantifying the concurrency bought by
/// the paper's most intricate mechanism (Lemma 4).
pub fn e5b() -> io::Result<()> {
    let mut table = Table::new(&[
        "UDUM (R3)",
        "p(abort)",
        "throughput(txn/s)",
        "R1 rejections",
        "R1 forced aborts",
        "abort rate",
    ]);
    let points: Vec<(bool, f64)> = [true, false]
        .into_iter()
        .flat_map(|u| [0.1, 0.3].map(|p| (u, p)))
        .collect();
    sweep_rows(&mut table, &points, |&(enable_udum, p)| {
        let wl = BankingWorkload {
            sites: 4,
            accounts_per_site: 24,
            transfers: 400,
            local_fraction: 0.4,
            mean_interarrival: Duration::millis(1),
            seed: 0xE5B,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, ProtocolKind::O2pcP1);
        cfg.network = NetworkConfig::fixed(Duration::millis(2));
        cfg.vote_abort_probability = p;
        cfg.enable_udum = enable_udum;
        cfg.r1_max_retries = 25;
        cfg.r1_retry_delay = Duration::millis(4);
        cfg.seed = 0xE5B;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            if enable_udum {
                "on".into()
            } else {
                "off".to_string()
            },
            format!("{p:.2}"),
            f(r.throughput()),
            r.counters.get("r1.rejections").to_string(),
            r.counters.get("r1.forced_aborts").to_string(),
            f(r.abort_rate()),
        ]
    });
    table.emit(
        "E5b — ablation: UDUM1 safe forgetting on/off (O2PC+P1)",
        "e5b_udum_ablation",
    )
}

// ---------------------------------------------------------------------------
// E6 — message accounting.
// ---------------------------------------------------------------------------

/// Count messages per terminated transaction for every protocol variant:
/// the 2PC pattern must be identical (the paper's "no extra messages").
pub fn e6() -> io::Result<()> {
    let mut table = Table::new(&[
        "protocol",
        "txns",
        "spawn",
        "subtxn_ack",
        "vote_req",
        "vote",
        "decision",
        "decision_ack",
        "2PC msgs/txn",
    ]);
    let points: Vec<ProtocolKind> = ProtocolKind::all().to_vec();
    sweep_rows(&mut table, &points, |&proto| {
        let wl = BankingWorkload {
            sites: 4,
            accounts_per_site: 32,
            transfers: 300,
            mean_interarrival: Duration::millis(3),
            seed: 0xE6,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.vote_abort_probability = 0.1;
        cfg.seed = 0xE6;
        cfg.record_history = false;
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        let txns = r.global_committed + r.global_aborted;
        vec![
            proto.to_string(),
            txns.to_string(),
            r.counters.get("msg.spawn").to_string(),
            r.counters.get("msg.subtxn_ack").to_string(),
            r.counters.get("msg.vote_req").to_string(),
            r.counters.get("msg.vote").to_string(),
            r.counters.get("msg.decision").to_string(),
            r.counters.get("msg.decision_ack").to_string(),
            f(r.msgs_2pc_per_txn()),
        ]
    });
    table.emit(
        "E6 — message counts (O2PC/P1 add no message types or rounds)",
        "e6_message_counts",
    )
}

// ---------------------------------------------------------------------------
// E7 — correctness audit.
// ---------------------------------------------------------------------------

/// Run adversarial workloads, rebuild the serialization graphs from the
/// recorded histories, and audit: (i) no aborts ⇒ fully serializable;
/// (ii) bare O2PC with aborts ⇒ regular cycles appear; (iii) O2PC+P1 ⇒ no
/// regular cycles; (iv) no transaction ever reads from both `T_i` and
/// `CT_i` in correct runs (Theorem 2).
pub fn e7() -> io::Result<()> {
    let mut table = Table::new(&[
        "workload",
        "protocol",
        "aborted",
        "cyclic SCCs",
        "regular cycles",
        "SCCs dismissed",
        "AoC violations",
        "criterion",
    ]);
    // Tight key space + aborts: adversarial for cycle formation.
    let scenarios: Vec<(&str, f64, ProtocolKind, u64)> = vec![
        ("banking p=0", 0.0, ProtocolKind::O2pc, 0xE7),
        ("banking p=0.4", 0.4, ProtocolKind::O2pc, 0xE7),
        ("banking p=0.4", 0.4, ProtocolKind::O2pcP1, 0xE7),
        ("banking p=0.4", 0.4, ProtocolKind::O2pcSimple, 0xE7),
        ("banking p=0.4", 0.4, ProtocolKind::D2pl2pc, 0xE7),
    ];
    for (name, p, proto, seed) in scenarios {
        // Aggregate over several seeds to give cycles a chance to form.
        // Each salt is an independent run; fan them out and fold the
        // returned partials in salt order.
        let partials = pool::map_ordered(8, cores(), |salt| {
            let salt = salt as u64;
            let wl = BankingWorkload {
                sites: 4,
                accounts_per_site: 2,
                transfers: 120,
                mean_interarrival: Duration::micros(400),
                seed: seed ^ (salt * 0x9E37),
                ..Default::default()
            };
            let mut cfg = SystemConfig::new(wl.sites, proto);
            cfg.network = NetworkConfig::fixed(Duration::millis(3));
            cfg.vote_abort_probability = p;
            cfg.seed = seed ^ salt;
            // Tiny key space + 40% aborts is deliberately pathological;
            // bound each run so a P1 rejection storm cannot stall the sweep.
            cfg.max_events = 2_000_000;
            let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
            let report = audit(&r.history, 10_000, 8);
            (
                r.global_aborted,
                report.search.cyclic_sccs,
                report.search.sccs_dismissed,
                report.regular_cycle().is_some(),
                report.compensation_atomicity_violations.len(),
                report.verdict(),
            )
        });
        let mut total_sccs = 0usize;
        let mut regular = 0usize;
        let mut dismissed = 0usize;
        let mut aoc = 0usize;
        let mut aborted = 0u64;
        let mut criterion = Verdict::Correct;
        for (ab, sccs, dis, reg, a, verdict) in partials {
            aborted += ab;
            total_sccs += sccs;
            dismissed += dis;
            regular += reg as usize;
            aoc += a;
            criterion = criterion.max(verdict);
        }
        table.row(&[
            name.into(),
            proto.to_string(),
            aborted.to_string(),
            total_sccs.to_string(),
            format!("{regular}/8 runs"),
            dismissed.to_string(),
            aoc.to_string(),
            criterion.to_string(),
        ]);
    }
    table.emit(
        "E7 — serialization-graph audit of recorded histories",
        "e7_correctness_audit",
    )
}

// ---------------------------------------------------------------------------
// E8 — real (non-compensatable) actions.
// ---------------------------------------------------------------------------

/// Travel bookings where some sites dispense non-compensatable real actions
/// (ticket printing): those sites hold to the decision, the rest release at
/// the vote. The hold-time split shows blocking confined to real-action
/// sites.
pub fn e8() -> io::Result<()> {
    let mut table = Table::new(&[
        "real-action sites",
        "mean X-hold all(ms)",
        "max X-hold(ms)",
        "p50 X-hold(ms)",
        "committed",
        "aborted",
    ]);
    let points: Vec<u32> = (0..=3u32).collect();
    sweep_rows(&mut table, &points, |&real_sites| {
        let wl = TravelWorkload {
            sites: 3,
            items_per_site: 16,
            capacity: 40,
            bookings: 200,
            legs: 3,
            mean_interarrival: Duration::millis(3),
            seed: 0xE8,
        };
        let mut cfg = SystemConfig::new(wl.sites, ProtocolKind::O2pc);
        cfg.network = NetworkConfig::fixed(Duration::millis(10));
        cfg.seed = 0xE8;
        cfg.record_history = false;
        for s in 0..real_sites {
            cfg.real_action_sites.insert(SiteId(s));
        }
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            real_sites.to_string(),
            f(r.locks.exclusive_hold.mean() / 1000.0),
            f(r.locks.exclusive_hold.max() as f64 / 1000.0),
            f(r.locks.exclusive_hold.p50() as f64 / 1000.0),
            r.global_committed.to_string(),
            r.global_aborted.to_string(),
        ]
    });
    table.emit(
        "E8 — real actions: blocking confined to non-compensatable sites",
        "e8_real_actions",
    )
}

// ---------------------------------------------------------------------------
// E9 — multidatabase autonomy: local latency under foreign global traffic.
// ---------------------------------------------------------------------------

/// The paper's multidatabase motivation (§1): a protocol where a competing
/// organization's coordinator can block local resources is unacceptable.
/// Measure the latency of purely local transactions while global traffic
/// (with aborts) runs under each protocol, and with a coordinator outage.
pub fn e9() -> io::Result<()> {
    let mut table = Table::new(&[
        "scenario",
        "protocol",
        "local p50(ms)",
        "local p99(ms)",
        "local mean(ms)",
        "locals done",
    ]);
    let points: Vec<(&str, bool, ProtocolKind)> =
        [("healthy", false), ("coordinator crash 2s", true)]
            .into_iter()
            .flat_map(|(s, c)| {
                [
                    ProtocolKind::D2pl2pc,
                    ProtocolKind::O2pc,
                    ProtocolKind::O2pcP1,
                ]
                .map(|p| (s, c, p))
            })
            .collect();
    sweep_rows(&mut table, &points, |&(scenario, crash, proto)| {
        let wl = MultidbWorkload {
            seed: 0xE9,
            ..Default::default()
        };
        let mut cfg = SystemConfig::new(wl.sites, proto);
        cfg.network = NetworkConfig::fixed(Duration::millis(5));
        cfg.vote_abort_probability = 0.15;
        cfg.seed = 0xE9;
        cfg.record_history = false;
        if crash {
            // Globals are coordinated from their first participant;
            // crash site 0 mid-run: its hosted coordinators go silent.
            let mut fp = FailurePlan::new();
            fp.site_crash(
                SiteId(0),
                SimTime::ZERO + Duration::millis(40),
                SimTime::ZERO + Duration::millis(2_040),
            );
            cfg.failures = fp;
        }
        let r = run_schedule(cfg, &wl.generate(), Duration::secs(600));
        vec![
            scenario.into(),
            proto.to_string(),
            f(r.local_latency.p50() as f64 / 1000.0),
            f(r.local_latency.p99() as f64 / 1000.0),
            f(r.local_latency.mean() / 1000.0),
            r.local_committed.to_string(),
        ]
    });
    table.emit(
        "E9 — multidatabase autonomy: local latency under global traffic",
        "e9_autonomy",
    )
}

//! Execute one chaos schedule against the engine and judge the outcome.

use crate::oracle::{self, Violation};
use crate::plan::ChaosPlan;
use o2pc_common::{Duration, SiteId};
use o2pc_core::{Engine, RunReport, SystemConfig, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_workload::BankingWorkload;
use std::collections::BTreeSet;

/// Which hardening machinery the run may use. The chaos harness runs with
/// everything on; switching pieces off is the harness's *negative control* —
/// a deliberately fragile engine whose failures prove the oracle can see.
#[derive(Clone, Copy, Debug)]
pub struct Hardening {
    /// Coordinator retransmission of unacked VOTE-REQ / DECISION.
    pub retransmit: bool,
    /// Cooperative termination rounds (with retry) for in-doubt
    /// participants.
    pub termination: bool,
}

impl Default for Hardening {
    fn default() -> Self {
        Hardening {
            retransmit: true,
            termination: true,
        }
    }
}

impl Hardening {
    /// Everything off: the classic send-once engine (negative control).
    pub fn none() -> Self {
        Hardening {
            retransmit: false,
            termination: false,
        }
    }
}

/// Result of one chaos run: oracle verdict plus coverage accounting.
pub struct ChaosOutcome {
    /// Invariants violated (empty = the run survived).
    pub violations: Vec<Violation>,
    /// The engine's run report.
    pub report: RunReport,
    /// Protocol variant this seed selected.
    pub protocol: ProtocolKind,
    /// The plan's message-drop probability.
    pub drop_probability: f64,
    /// The plan's message-duplication probability.
    pub duplicate_probability: f64,
    /// At least one crash window hit a site hosting a coordinator.
    pub crashed_a_coordinator: bool,
    /// Transactions garbage-collected during the run.
    pub gc_retired: u64,
    /// Transactions still tracked at the end (bounded-memory signal).
    pub live_at_end: usize,
}

impl ChaosOutcome {
    /// Did the run satisfy every invariant?
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Protocol variant exercised by a seed (rotates so a seed block covers
/// blocking 2PC and every marking-protected O2PC variant against the same
/// fault machinery). Bare `O2pc` is deliberately excluded: without a
/// marking protocol it enforces neither S1 nor S2, and the paper's own
/// Example 1 shows it *can* admit regular cycles under adversarial
/// interleavings — exactly what chaos schedules produce — so it carries no
/// zero-violation guarantee for the oracle to check.
pub fn protocol_for(seed: u64) -> ProtocolKind {
    match seed % 4 {
        0 => ProtocolKind::D2pl2pc,
        1 => ProtocolKind::O2pcP2,
        2 => ProtocolKind::O2pcSimple,
        _ => ProtocolKind::O2pcP1,
    }
}

/// Run one plan under the given hardening and check every invariant.
///
/// The workload is banking (zero-sum transfers → conservation oracle), the
/// horizon is `heal_at` plus several virtual seconds of quiet drain, and a
/// seed also rotates protocol variant, occasional real-action sites, and
/// occasional autonomous abort probability so the schedule space crosses
/// the configuration space.
pub fn run_plan(plan: &ChaosPlan, harden: Hardening) -> ChaosOutcome {
    run_plan_with(plan, harden, None)
}

/// Durable-mode parameters for [`run_plan_with`]: where the per-seed WAL
/// scratch trees live, plus an optional segment-capacity override. Small
/// segments (a few hundred bytes) force the log to rotate and compact many
/// times per schedule, putting the rotation/recovery machinery itself under
/// chaos; `None` keeps the engine default, where chaos histories fit one
/// segment. Either way the run stays deterministic — rotation points are a
/// pure function of appended bytes.
#[derive(Clone, Copy, Debug)]
pub struct DurableMode<'a> {
    /// Base scratch directory (each seed gets `seed-<N>/` under it).
    pub dir: &'a std::path::Path,
    /// Override for [`SystemConfig::wal_segment_bytes`]; `None` = default.
    pub segment_bytes: Option<u64>,
}

/// Remove a schedule's scratch WAL directory. `NotFound` is the normal
/// first-run case; any *other* error (permissions, a file held open, a
/// non-directory in the way) means later runs would silently log into a
/// dirty or unwritable tree, so it is fatal rather than swallowed.
fn clear_run_dir(run_dir: &std::path::Path) {
    if let Err(e) = std::fs::remove_dir_all(run_dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            panic!("chaos: cannot clear WAL dir {}: {e}", run_dir.display());
        }
    }
}

/// [`run_plan`], optionally in durable-WAL mode: with `durable_dir` set,
/// every site logs through the file-backed backend under
/// `durable_dir/seed-<seed>/` (wiped first — each schedule starts from an
/// empty log). The run stays deterministic — flush points are virtual-time
/// events and fsync latency is never observed — so `--replay` and shrinking
/// work unchanged; what durable mode adds is the real write/fsync/recover
/// code under every crash the plan injects.
///
/// Surviving runs clean their `seed-<N>` dir back up afterwards (a large
/// sweep would otherwise leak one directory per schedule); a failing run
/// keeps its logs on disk for post-mortem inspection.
pub fn run_plan_with(
    plan: &ChaosPlan,
    harden: Hardening,
    durable: Option<DurableMode<'_>>,
) -> ChaosOutcome {
    let protocol = protocol_for(plan.seed);
    let wl = BankingWorkload {
        sites: plan.num_sites,
        accounts_per_site: 8,
        transfers: 120,
        mean_interarrival: Duration::millis(2),
        local_fraction: 0.1,
        seed: plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        ..Default::default()
    };
    let schedule = wl.generate();
    let coordinators: BTreeSet<SiteId> = schedule
        .arrivals
        .iter()
        .filter_map(|(_, req)| match req {
            TxnRequest::Global { coordinator, .. } => Some(*coordinator),
            TxnRequest::Local { .. } => None,
        })
        .collect();
    let crashed_a_coordinator = plan.crash_sites().iter().any(|s| coordinators.contains(s));

    let mut cfg = SystemConfig::new(plan.num_sites, protocol);
    cfg.seed = plan.seed;
    cfg.live_audit_graph = true; // the oracle audits the live graph
    plan.message_faults(&mut cfg.network);
    cfg.failures = plan.failure_plan();
    cfg.vote_timeout = Some(Duration::millis(40));
    cfg.termination_timeout = harden.termination.then(|| Duration::millis(50));
    cfg.retransmit_base = harden.retransmit.then(|| Duration::millis(10));
    cfg.retransmit_cap = Duration::millis(160);
    if plan.seed.is_multiple_of(5) {
        // A real-action site holds write locks until the decision even
        // under O2PC — the blocking shape chaos must not be able to wedge.
        cfg.real_action_sites.insert(SiteId(plan.num_sites - 1));
    }
    if plan.seed.is_multiple_of(7) {
        cfg.vote_abort_probability = 0.1;
    }
    let run_dir = durable.map(|m| m.dir.join(format!("seed-{}", plan.seed)));
    if let Some(dir) = &run_dir {
        clear_run_dir(dir);
        cfg.durable_wal_dir = Some(dir.clone());
        if let Some(sb) = durable.and_then(|m| m.segment_bytes) {
            cfg.wal_segment_bytes = sb;
        }
    }

    let mut engine = Engine::new(cfg);
    schedule.install(&mut engine);
    let horizon = Duration::micros(plan.heal_at.micros()) + Duration::secs(5);
    let report = engine.run(horizon);
    let violations = oracle::check(&engine, &report, wl.expected_total());
    let outcome = ChaosOutcome {
        gc_retired: report.counters.get("txn.gc"),
        live_at_end: engine.live_txn_count(),
        violations,
        report,
        protocol,
        drop_probability: plan.drop_probability(),
        duplicate_probability: plan.duplicate_probability(),
        crashed_a_coordinator,
    };
    if let Some(dir) = &run_dir {
        if outcome.survived() {
            drop(engine); // release the WAL file handles before deleting
            clear_run_dir(dir);
        }
        // A failing seed keeps its logs for post-mortem / --replay --durable.
    }
    outcome
}

/// Shrink a failing plan: greedily drop one fault at a time, keeping each
/// removal that still fails the oracle, until no single removal does. The
/// result is a (locally) minimal fault set reproducing the violation.
///
/// Candidate runs replay in the same mode as the original failure
/// (`durable_dir` forwarded), so a durable-only violation shrinks against
/// the durable engine instead of vacuously "passing" in memory.
pub fn shrink(plan: &ChaosPlan, harden: Hardening, durable: Option<DurableMode<'_>>) -> ChaosPlan {
    shrink_with_cores(plan, harden, durable, 1)
}

/// [`shrink`] with the candidate scan fanned out over `cores` worker
/// threads. Each round evaluates the single-removal candidates starting at
/// the current scan position and accepts the **lowest-index** failure
/// ([`o2pc_common::pool::min_where`] reproduces the sequential
/// first-failure scan exactly), so the shrunk plan is identical at every
/// core count.
///
/// After accepting removal `idx` the next round resumes scanning at `idx`
/// rather than index 0. Indices `< idx` were each just rejected against a
/// *superset* of the current fault set; fault injection is monotone (every
/// fault only adds adversity — a drop window, a crash, a partition — so a
/// schedule that survives some fault set survives every subset of it).
/// Hence a removal that left a surviving plan before still leaves a
/// surviving plan now, re-checking those prefixes is pure waste, and the
/// result remains 1-minimal: when a full pass from the final resume point
/// plus the accumulated prefix rejections finds no failing removal, no
/// single removal can fail. This turns the worst case from O(n²) engine
/// runs into O(n) beyond the accepted removals.
pub fn shrink_with_cores(
    plan: &ChaosPlan,
    harden: Hardening,
    durable: Option<DurableMode<'_>>,
    cores: usize,
) -> ChaosPlan {
    let mut current = plan.clone();
    let mut from = 0usize;
    loop {
        let n = current.faults.len();
        if from >= n {
            return current;
        }
        let hit = o2pc_common::pool::min_where(n - from, cores, |i| {
            let candidate = current.without(from + i);
            // Every candidate keeps the plan's seed, so concurrent durable
            // candidates would collide on one `seed-<N>` dir — give each
            // candidate slot its own scratch subtree.
            let scratch = durable.map(|m| (m.dir.join(format!("shrink-{i}")), m.segment_bytes));
            let mode = scratch.as_ref().map(|(d, sb)| DurableMode {
                dir: d,
                segment_bytes: *sb,
            });
            let failed = !run_plan_with(&candidate, harden, mode).survived();
            if let Some((dir, _)) = &scratch {
                clear_run_dir(dir); // scratch only; the original seed dir is the post-mortem
            }
            failed
        });
        match hit {
            Some(i) => {
                // Removing index `from + i` keeps the failure; the element
                // that shifted down into that slot has not been tried yet,
                // so the next scan resumes at the same position.
                current = current.without(from + i);
                from += i;
            }
            None => return current,
        }
    }
}

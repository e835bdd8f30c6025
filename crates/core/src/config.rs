//! Engine configuration and workload requests.

use o2pc_common::{Duration, Program, SiteId};
use o2pc_compensation::CompensationModel;
use o2pc_protocol::ProtocolKind;
use o2pc_sim::{FailurePlan, NetworkConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One transaction submitted to the engine. Its programs and site list are
/// shared slices, so a clone (a schedule installing its arrivals, the engine
/// parking one at an admission gate) bumps reference counts and copies no
/// operation.
#[derive(Clone, Debug)]
pub enum TxnRequest {
    /// A global transaction: one subtransaction per site (≥ 2 sites, or 1
    /// for degenerate tests). The coordinator defaults to the first site.
    Global {
        /// Per-site operation programs.
        subs: Arc<[(SiteId, Program)]>,
        /// Site hosting the coordinator (need not hold a subtransaction).
        coordinator: SiteId,
    },
    /// An independent local transaction.
    Local {
        /// Site it runs at.
        site: SiteId,
        /// Its operations.
        ops: Program,
    },
}

impl TxnRequest {
    /// Global transaction coordinated from its first participant.
    pub fn global<P: Into<Program>>(subs: impl IntoIterator<Item = (SiteId, P)>) -> Self {
        let subs = site_list(subs);
        let coordinator = subs[0].0;
        TxnRequest::Global { subs, coordinator }
    }

    /// Global transaction with an explicit coordinator site.
    pub fn global_with_coordinator<P: Into<Program>>(
        coordinator: SiteId,
        subs: impl IntoIterator<Item = (SiteId, P)>,
    ) -> Self {
        let subs = site_list(subs);
        TxnRequest::Global { subs, coordinator }
    }

    /// Local transaction.
    pub fn local(site: SiteId, ops: impl Into<Program>) -> Self {
        TxnRequest::Local {
            site,
            ops: ops.into(),
        }
    }
}

/// Collect a non-empty list of distinct sites (the coordinator knows each
/// by its position). An exact-size iterator (a `Vec`'s or an array's,
/// mapped) fills the shared slice in one allocation.
fn site_list<P: Into<Program>>(
    subs: impl IntoIterator<Item = (SiteId, P)>,
) -> Arc<[(SiteId, Program)]> {
    let subs: Arc<[_]> = subs.into_iter().map(|(s, p)| (s, p.into())).collect();
    assert!(!subs.is_empty());
    debug_assert!(
        (1..subs.len()).all(|i| subs[..i].iter().all(|&(s, _)| s != subs[i].0)),
        "duplicate participant sites"
    );
    subs
}

/// Full system configuration for one run.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of sites (ids `0..num_sites`).
    pub num_sites: u32,
    /// Commit-protocol variant.
    pub protocol: ProtocolKind,
    /// Network model.
    pub network: NetworkConfig,
    /// Scripted failures.
    pub failures: FailurePlan,
    /// CPU time per operation at a site.
    pub op_service_time: Duration,
    /// Probability that a site exercises its autonomy and votes to abort a
    /// global transaction despite successful execution (§1: a site may
    /// "abort any local (sub)transaction at any time before it terminates").
    pub vote_abort_probability: f64,
    /// Compensation model used by all sites.
    pub compensation_model: CompensationModel,
    /// Sites performing non-compensatable *real actions* (§2): they retain
    /// locks until the decision even under O2PC.
    pub real_action_sites: BTreeSet<SiteId>,
    /// Maximum R1 retries before the global transaction is aborted.
    pub r1_max_retries: u32,
    /// Delay before re-running a rejected R1 check.
    pub r1_retry_delay: Duration,
    /// Coordinator vote-collection timeout (None = wait forever, the pure
    /// blocking behaviour).
    pub vote_timeout: Option<Duration>,
    /// Prepared participants run the cooperative termination protocol after
    /// this much silence from the coordinator (None = classic 2PC: wait
    /// forever). Adds `msg.term_req`/`msg.term_answer` traffic only when it
    /// actually fires.
    pub termination_timeout: Option<Duration>,
    /// Coordinator retransmission of unacked VOTE-REQ / DECISION messages:
    /// first resend after this much silence, doubling each attempt up to
    /// 16 times this. `None` (the default) sends each message exactly once
    /// — the classic model where only crash recovery resends — so
    /// message-count experiments are unaffected unless a run opts in (the
    /// chaos harness does).
    pub retransmit_base: Option<Duration>,
    /// Enable the UDUM1-gated *undone → unmarked* transition (rule R3).
    /// Disabling it is an ablation: markings accumulate forever, so P1
    /// rejects ever more subtransactions — quantifying how much concurrency
    /// the paper's "safe forgetting" machinery buys (experiment E5b).
    pub enable_udum: bool,
    /// Record the execution history for post-hoc SG audits.
    pub record_history: bool,
    /// Maintain the exposed serialization graphs *incrementally* while the
    /// run executes (an `o2pc-sgraph` builder fed event by event). Off by
    /// default; the chaos harness turns it on so its oracle audits the live
    /// graph instead of replaying the whole recorded history into a fresh
    /// builder after every run.
    pub live_audit_graph: bool,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Safety cap on processed events.
    pub max_events: u64,
    /// Per-coordinator-site bound on concurrently executing global
    /// transactions. `None` (the default) admits every arrival immediately —
    /// the historical behaviour. `Some(w)` pipelines the coordinator:
    /// arrivals beyond `w` in-flight transactions queue at their coordinator
    /// site and are admitted as completions free a slot, so an open-loop
    /// client layer can offer load far above capacity without the engine
    /// thrashing. Queueing delay stays visible: latency is measured from the
    /// *scheduled* arrival, not admission.
    pub admission_window: Option<usize>,
    /// Directory for per-site durable WAL files (`site-<id>.wal`). `None`
    /// (the default) keeps the historical in-memory WAL with simulated
    /// durability. When set, every site logs through the file-backed
    /// backend: externally visible promises (yes-votes, decision acks,
    /// fate-bearing termination answers) are held until the runtime reports
    /// the records they depend on fsynced — the group-commit protocol.
    pub durable_wal_dir: Option<std::path::PathBuf>,
    /// Group-commit window: how long a site batches appended records before
    /// the next flush point seals them into one batch for the runtime's
    /// disk. Longer windows amortise fsync across more transactions at the
    /// cost of commit latency: a parked promise waits at most one window
    /// plus its fsync. Ignored unless [`SystemConfig::durable_wal_dir`] is
    /// set.
    pub wal_flush_interval: Duration,
    /// Ignored. Every durable promise waits for the runtime to report its
    /// fsync; the field remains only for code that still assigns it.
    #[doc(hidden)]
    pub wal_background_flush: bool,
    /// Segment capacity of the durable WAL: the log rotates to a new
    /// preallocated segment file when the next record would not fit.
    /// Small values exercise rotation aggressively (CI smoke); the default
    /// keeps rotation off the hot path. (The engine never deletes segments
    /// while it runs: checkpoints truncate the in-memory log only.)
    pub wal_segment_bytes: u64,
    /// Adaptive group-commit trigger: a site whose pending (unsealed) WAL
    /// bytes reach this threshold flushes immediately instead of waiting out
    /// [`SystemConfig::wal_flush_interval`] — whichever comes first. Byte
    /// counts are deterministic, so the early trigger is too.
    pub wal_flush_bytes: u64,
}

impl SystemConfig {
    /// Sensible defaults: 1 ms fixed network latency, 50 µs per operation,
    /// no spontaneous aborts, restricted-model compensation, history on.
    pub fn new(num_sites: u32, protocol: ProtocolKind) -> Self {
        SystemConfig {
            num_sites,
            protocol,
            network: NetworkConfig::fixed(Duration::millis(1)),
            failures: FailurePlan::new(),
            op_service_time: Duration::micros(50),
            vote_abort_probability: 0.0,
            compensation_model: CompensationModel::Restricted,
            real_action_sites: BTreeSet::new(),
            r1_max_retries: 3,
            r1_retry_delay: Duration::millis(2),
            vote_timeout: None,
            termination_timeout: None,
            retransmit_base: None,
            enable_udum: true,
            record_history: true,
            live_audit_graph: false,
            seed: 0x5EED,
            max_events: 50_000_000,
            admission_window: None,
            durable_wal_dir: None,
            wal_flush_interval: Duration::millis(1),
            wal_background_flush: false,
            wal_segment_bytes: 4 * 1024 * 1024,
            wal_flush_bytes: 256 * 1024,
        }
    }

    /// All site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.num_sites).map(SiteId)
    }

    /// Liveness footguns in this configuration, as human-readable warnings.
    ///
    /// The one that bit PR 6: crashes scheduled while `vote_timeout` is
    /// `None`. A coordinator whose SPAWN lands on a crashed site then waits
    /// forever for a vote that cannot come — the transaction hangs, and a
    /// conservation check at the horizon sees money pinned in limbo. The
    /// default stays `None` (the paper's pure blocking protocol, and the
    /// blocking-window experiments depend on it), so the engine surfaces the
    /// combination loudly instead of silently changing behaviour.
    pub fn liveness_warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        if self.vote_timeout.is_none() && self.failures.crashes().next().is_some() {
            w.push(
                "config: site crashes are scheduled but vote_timeout is None — \
                 a coordinator that spawns onto a crashed site has no liveness \
                 path and its transaction never terminates (set vote_timeout, \
                 e.g. SystemConfig::vote_timeout = Some(Duration::millis(40)))"
                    .to_string(),
            );
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{Key, Op};

    #[test]
    fn request_constructors() {
        let g = TxnRequest::global(vec![(SiteId(1), vec![Op::Read(Key(0))])]);
        match g {
            TxnRequest::Global { coordinator, subs } => {
                assert_eq!(coordinator, SiteId(1));
                assert_eq!(subs.len(), 1);
            }
            _ => panic!(),
        }
        let g =
            TxnRequest::global_with_coordinator(SiteId(9), vec![(SiteId(1), Program::from([]))]);
        match g {
            TxnRequest::Global { coordinator, .. } => assert_eq!(coordinator, SiteId(9)),
            _ => panic!(),
        }
    }

    #[test]
    fn config_sites() {
        let cfg = SystemConfig::new(3, ProtocolKind::O2pc);
        let sites: Vec<SiteId> = cfg.sites().collect();
        assert_eq!(sites, vec![SiteId(0), SiteId(1), SiteId(2)]);
        assert!(cfg.record_history);
    }
}

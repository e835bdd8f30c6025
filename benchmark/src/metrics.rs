//! Metric names, units, directions and bounds, and how one round's
//! measurements turn into per-round values of those metrics.

use crate::measure::{cdf_at_most, quantile_interp};
use crate::workloads::{idle_grace, Round, Spec, Substrate};
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// The eight end-to-end metrics, the same names on every workload.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("txn_per_sec", "1/s", Better::Higher, 0.2),
    e2e("commit_p50_us", "us", Better::Lower, 0.2),
    e2e("slo_share", "ratio", Better::Higher, 0.06),
    e2e("commit_share", "ratio", Better::Higher, 0.03),
    e2e("cpu_us_per_txn", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("msgs_per_txn", "count", Better::Lower, 0.03),
];

/// Per-layer metrics (layer = crate), printed by a traced run.
pub const PER_LAYER: [MetricDef; 56] = [
    layer("locking.acquire_release_ns", "ns"),
    layer("locking.find_deadlock_us", "us"),
    layer("locking.requests_per_txn", "count"),
    layer("locking.queued_share", "ratio"),
    layer("locking.wait_mean_us", "us"),
    layer("locking.xhold_mean_us", "us"),
    layer("locking.deadlocks_per_ktxn", "count"),
    layer("storage.apply_commit_ns", "ns"),
    layer("storage.apply_rollback_ns", "ns"),
    layer("storage.wal_append_ns", "ns"),
    layer("storage.encode_frame_ns", "ns"),
    layer("storage.durable_append_ns", "ns"),
    layer("storage.durable_sync_us", "us"),
    layer("storage.flush_burst_us", "us"),
    layer("storage.fsync_probe_us", "us"),
    layer("storage.recover_ms", "ms"),
    layer("storage.ops_per_txn", "count"),
    layer("storage.wal_records_per_txn", "count"),
    layer("storage.wal_bytes_per_txn", "bytes"),
    layer("storage.fsyncs_per_txn", "count"),
    layer("storage.fsyncs_per_txn_sat", "count"),
    layer("storage.flushes_per_txn", "count"),
    layer("storage.parked_msgs_per_txn", "count"),
    layer("marking.r1_check_ns", "ns"),
    layer("marking.r1_check_marked_ns", "ns"),
    layer("marking.r1_checks_per_txn", "count"),
    layer("marking.r1_reject_share", "ratio"),
    layer("marking.forced_aborts_per_ktxn", "count"),
    layer("compensation.plans_per_ktxn", "count"),
    layer("compensation.retries_per_ktxn", "count"),
    layer("compensation.completed_per_ktxn", "count"),
    layer("sim.event_queue_ns", "ns"),
    layer("sim.events_per_txn", "count"),
    layer("runtime.hop_us", "us"),
    layer("runtime.hop_batched_ns", "ns"),
    layer("protocol.msgs_per_txn", "count"),
    layer("protocol.msgs_2pc_per_txn", "count"),
    layer("core.run_us_per_txn", "us"),
    layer("core.build_ms", "ms"),
    layer("core.residual_us_per_txn", "us"),
    layer("sgraph.audit_us_per_txn", "us"),
    layer("sgraph.live_overhead_share", "ratio"),
    layer("workload.generate_ns_per_txn", "ns"),
    layer("workload.install_ns_per_txn", "ns"),
    layer("client.commit_p90_us", "us"),
    layer("client.commit_p99_us", "us"),
    layer("client.commit_p999_us", "us"),
    layer("client.local_p50_us", "us"),
    MetricDef {
        name: "client.achieved_share",
        unit: "ratio",
        better: Better::Higher,
        bound: None,
    },
    MetricDef {
        name: "client.sat_achieved_share",
        unit: "ratio",
        better: Better::Higher,
        bound: None,
    },
    layer("client.start_lag_us", "us"),
    MetricDef {
        name: "client.raw_txn_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: None,
    },
    layer("client.raw_commit_p50_us", "us"),
    layer("core.raw_cpu_us_per_txn", "us"),
    layer("core.slowdown", "ratio"),
    layer("trace.overhead_share", "ratio"),
];

/// One round's value of every metric that can be read off a single round.
pub type Sample = BTreeMap<&'static str, f64>;

/// Engine messages per type that count as protocol traffic.
const MSG_LABELS: [&str; 8] = [
    "msg.spawn",
    "msg.subtxn_ack",
    "msg.vote_req",
    "msg.vote",
    "msg.decision",
    "msg.decision_ack",
    "msg.term_req",
    "msg.term_answer",
];

/// Derive the per-round metric values. Ratios are per *offered*
/// transaction unless the name says otherwise: a transaction that aborted,
/// was refused or was left undecided still counts in the denominator.
pub fn sample(spec: &Spec, round: &Round) -> Sample {
    let r = &round.report;
    let offered = round.offered as f64;
    let per_txn = |n: u64| n as f64 / offered;
    let per_ktxn = |n: u64| 1e3 * n as f64 / offered;
    let counter = |name: &str| r.counters.get(name);

    // Completion latency of the commit protocol, as `RunReport` records it:
    // every decided global (either outcome) and every committed local,
    // from the request's *scheduled* submit time.
    let mut latency = r.global_latency.clone();
    latency.merge(&r.local_latency);
    // Transactions known to have committed inside the limit: completions
    // inside the limit, less every aborted global (whose completion the
    // histogram cannot tell from a commit's). Aborted, refused and
    // undecided transactions are misses.
    let within = cdf_at_most(&latency, spec.slo_limit_us) * latency.count() as f64;
    let slo_share = (within - r.global_aborted as f64).max(0.0) / offered;

    let msgs: u64 = MSG_LABELS.iter().map(|l| counter(l)).sum();
    let lock_requests = r.locks.immediate_grants.get() + r.locks.queued_requests.get();
    // How far the run fell behind its schedule: the arrivals span
    // `span_us`; on the threaded runtime `run` returns one idle grace after
    // the last step, having started `start_lag_us` into the schedule.
    let busy_us = match spec.substrate {
        Substrate::Sim => r.end_time.0 as f64,
        Substrate::Threaded => {
            round.wall_s * 1e6 + round.start_lag_us as f64 - idle_grace().as_micros() as f64
        }
    };
    let achieved_share = round.span_us as f64 / (busy_us - round.lead_us as f64).max(1.0);

    // Reference speed: how much slower than nominal the machine ran while
    // this round did. Processor time always scales with it; wall-clock
    // throughput and latency do where the processor is the limit. Virtual
    // (simulated) latency never does.
    let slowdown = round.slowdown;
    let wall_latency = spec.cpu_bound && spec.substrate == Substrate::Threaded;
    let raw_txn_per_sec = round.committed() as f64 / round.wall_s;
    let raw_cpu_us_per_txn = round.cpu_s * 1e6 / offered;
    let raw_p50_us = quantile_interp(&latency, 0.5);

    Sample::from([
        ("setup_s", round.setup_s),
        (
            "txn_per_sec",
            raw_txn_per_sec * if spec.cpu_bound { slowdown } else { 1.0 },
        ),
        (
            "commit_p50_us",
            raw_p50_us / if wall_latency { slowdown } else { 1.0 },
        ),
        ("slo_share", slo_share),
        ("commit_share", per_txn(round.committed())),
        ("cpu_us_per_txn", raw_cpu_us_per_txn / slowdown),
        ("client.raw_txn_per_sec", raw_txn_per_sec),
        ("client.raw_commit_p50_us", raw_p50_us),
        ("core.raw_cpu_us_per_txn", raw_cpu_us_per_txn),
        ("core.slowdown", slowdown),
        ("msgs_per_txn", per_txn(msgs)),
        ("locking.requests_per_txn", per_txn(lock_requests)),
        (
            "locking.queued_share",
            r.locks.queued_requests.get() as f64 / lock_requests.max(1) as f64,
        ),
        ("locking.wait_mean_us", r.locks.wait_time.mean()),
        ("locking.xhold_mean_us", r.locks.exclusive_hold.mean()),
        (
            "locking.deadlocks_per_ktxn",
            per_ktxn(r.locks.deadlocks_detected.get()),
        ),
        ("storage.ops_per_txn", per_txn(round.ops)),
        ("storage.wal_records_per_txn", per_txn(round.wal_records)),
        ("storage.wal_bytes_per_txn", per_txn(round.wal_bytes)),
        ("storage.fsyncs_per_txn", per_txn(round.fsyncs)),
        ("storage.flushes_per_txn", per_txn(counter("wal.flushes"))),
        (
            "storage.parked_msgs_per_txn",
            per_txn(counter("wal.parked_msgs")),
        ),
        ("marking.r1_checks_per_txn", per_txn(counter("r1.checks"))),
        (
            "marking.r1_reject_share",
            counter("r1.rejections") as f64 / counter("r1.checks").max(1) as f64,
        ),
        (
            "marking.forced_aborts_per_ktxn",
            per_ktxn(counter("r1.forced_aborts")),
        ),
        (
            "compensation.plans_per_ktxn",
            per_ktxn(counter("comp.plans")),
        ),
        (
            "compensation.retries_per_ktxn",
            per_ktxn(counter("comp.retries")),
        ),
        (
            "compensation.completed_per_ktxn",
            per_ktxn(r.compensations_completed),
        ),
        ("sim.events_per_txn", per_txn(r.events_processed)),
        ("protocol.msgs_per_txn", per_txn(msgs)),
        ("protocol.msgs_2pc_per_txn", r.msgs_2pc_per_txn()),
        ("core.run_us_per_txn", round.wall_s * 1e6 / offered),
        ("client.commit_p90_us", quantile_interp(&latency, 0.90)),
        ("client.commit_p99_us", quantile_interp(&latency, 0.99)),
        ("client.commit_p999_us", quantile_interp(&latency, 0.999)),
        (
            "client.local_p50_us",
            quantile_interp(&r.local_latency, 0.5),
        ),
        ("client.achieved_share", achieved_share),
        ("client.start_lag_us", round.start_lag_us as f64),
    ])
}

/// Median of `key` over `samples`.
pub fn median_of(samples: &[&Sample], key: &str) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| s[key]).collect();
    crate::measure::median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        let names = SPECS
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    #[test]
    fn bounds_are_inside_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above (it is read relative to this crate, so the test runs
    /// only inside the repository).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        for s in &SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why);
            assert!(json.contains(&entry), "missing workload entry {entry}");
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.unwrap()
            );
            assert!(json.contains(&entry), "missing end-to-end entry {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            );
            assert!(json.contains(&entry), "missing per-layer entry {entry}");
        }
        let count = |key: &str| json.matches(key).count();
        assert_eq!(count("\"why\""), SPECS.len());
        assert_eq!(count("\"bound\""), END_TO_END.len());
        assert_eq!(
            count("\"better\""),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the tables do not"
        );
    }
}

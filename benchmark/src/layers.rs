//! Per-layer micro-drivers: each times one crate's public operations from
//! outside, in isolation, so a change to a layer shows in that layer's own
//! number before (and whether or not) it shows end to end.
//!
//! Every driver reports the median over [`REPS`] repetitions and records a
//! span per repetition. The drivers are the same on every workload; what
//! differs per workload is how often the engine performs each operation
//! (the `*_per_txn` counts), and the two multiplied give the layer's share
//! of `cpu_us_per_txn`.

use crate::measure::{machine_slowdown, median};
use crate::trace::Tracer;
use o2pc_common::{AccessMode, ExecId, GlobalTxnId, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, SystemConfig};
use o2pc_locking::LockManager;
use o2pc_marking::{MarkEvent, MarkingProtocol, SiteMarks, TransMarks};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{
    LinkPolicy, Runtime, Step, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport,
};
use o2pc_sim::EventQueue;
use o2pc_storage::codec::encode_frame;
use o2pc_storage::{CommitRecord, DurableWal, FlushBatch, LogRecord, Store, UndoRecord, Wal};
use o2pc_workload::BankingWorkload;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per driver (after one untimed warm-up repetition).
const REPS: usize = 5;

/// Time `f`, which performs `ops` operations, and return the median
/// nanoseconds per operation.
fn ns_per_op(tracer: &mut Tracer, name: &'static str, ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let open = tracer.enter(name);
            let start = Instant::now();
            f();
            let ns = start.elapsed().as_nanos() as f64;
            tracer.exit(open, ops);
            ns / ops as f64
        })
        .collect();
    median(&samples)
}

fn sub(i: u64) -> ExecId {
    ExecId::Sub(GlobalTxnId(i))
}

/// The log records one committed subtransaction leaves behind.
fn txn_records(i: u64) -> [LogRecord; 4] {
    let undo = UndoRecord {
        key: Key(i % 2_048),
        before: Some(Value(1_000)),
        after: Some(Value(1_000 - (i % 50) as i64)),
    };
    [
        LogRecord::Begin(sub(i)),
        LogRecord::Update {
            exec: sub(i),
            key: undo.key,
            before: undo.before,
            after: undo.after,
        },
        LogRecord::LocalCommit {
            exec: sub(i),
            record: Arc::new(CommitRecord {
                undo: vec![undo],
                ops: vec![Op::Read(undo.key), Op::Add(undo.key, -((i % 50) as i64))],
            }),
        },
        LogRecord::Outcome {
            txn: GlobalTxnId(i),
            commit: true,
        },
    ]
}

fn loaded_store() -> Store {
    let mut s = Store::new();
    for k in 0..256u64 {
        s.load(Key(k), Value(0));
    }
    s
}

/// Run every micro-driver; returns `(metric name, value)` pairs. Durable
/// drivers work under `wal_dir` and remove what they create.
///
/// Processor-bound results are scaled to reference speed (the slowdown
/// is measured before and after the suite), like `cpu_us_per_txn`,
/// which they are subtracted from. The fsync-bound ones
/// (`storage.durable_sync_us`, `flush_burst_us`, `fsync_probe_us`,
/// `recover_ms`) and the overhead ratio are left as measured.
pub fn run_all(tracer: &mut Tracer, wal_dir: &Path) -> Vec<(&'static str, f64)> {
    let before = machine_slowdown(false);
    let mut cpu = Vec::new();
    let mut out = Vec::new();
    locking(tracer, &mut cpu);
    storage_memory(tracer, &mut cpu);
    storage_durable(tracer, wal_dir, &mut cpu, &mut out);
    marking(tracer, &mut cpu);
    event_queue(tracer, &mut cpu);
    transport_hop(tracer, &mut cpu);
    sgraph(tracer, &mut cpu, &mut out);
    let slowdown = (before + machine_slowdown(false)) / 2.0;
    out.extend(cpu.into_iter().map(|(name, v)| (name, v / slowdown)));
    out
}

fn locking(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 20_000;
    let ns = ns_per_op(tracer, "locking.acquire_release", 2 * N, || {
        let mut lm = LockManager::new();
        for i in 0..N {
            lm.request(sub(i), Key(i % 64), AccessMode::Write, SimTime(i));
            lm.request(sub(i), Key((i + 7) % 64), AccessMode::Read, SimTime(i));
            lm.release_all(sub(i), SimTime(i + 1));
        }
        black_box(lm.grant_count());
    });
    out.push(("locking.acquire_release_ns", ns));

    // A 64-transaction ring: everyone holds one key and waits for the next.
    let mut ring = LockManager::new();
    for i in 0..64u64 {
        ring.request(sub(i), Key(i), AccessMode::Write, SimTime(0));
    }
    for i in 0..64u64 {
        ring.request(sub(i), Key((i + 1) % 64), AccessMode::Write, SimTime(1));
    }
    const CALLS: u64 = 500;
    let ns = ns_per_op(tracer, "locking.find_deadlock", CALLS, || {
        for _ in 0..CALLS {
            black_box(ring.find_deadlock());
        }
    });
    out.push(("locking.find_deadlock_us", ns / 1e3));
}

fn storage_memory(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 20_000;
    let ns = ns_per_op(tracer, "storage.apply_commit", 2 * N, || {
        let mut s = loaded_store();
        for i in 0..N {
            s.apply(sub(i), Op::Add(Key(i % 256), 1)).expect("apply");
            s.apply(sub(i), Op::Read(Key((i + 1) % 256)))
                .expect("apply");
            black_box(s.commit(sub(i)));
        }
    });
    out.push(("storage.apply_commit_ns", ns));

    let ns = ns_per_op(tracer, "storage.apply_rollback", 2 * N, || {
        let mut s = loaded_store();
        for i in 0..N {
            s.apply(sub(i), Op::Add(Key(i % 256), 1)).expect("apply");
            s.apply(sub(i), Op::Add(Key((i + 3) % 256), -1))
                .expect("apply");
            black_box(s.rollback(sub(i)));
        }
    });
    out.push(("storage.apply_rollback_ns", ns));

    let records: Vec<LogRecord> = (0..N / 4).flat_map(txn_records).collect();
    let ns = ns_per_op(tracer, "storage.wal_append", records.len() as u64, || {
        let mut wal = Wal::new();
        for rec in &records {
            wal.append(rec.clone());
        }
        black_box(wal.len());
    });
    out.push(("storage.wal_append_ns", ns));

    let mut frame = Vec::new();
    let ns = ns_per_op(tracer, "storage.encode_frame", records.len() as u64, || {
        for rec in &records {
            frame.clear();
            black_box(encode_frame(rec, &mut frame));
        }
    });
    out.push(("storage.encode_frame_ns", ns));
}

fn storage_durable(
    tracer: &mut Tracer,
    wal_dir: &Path,
    cpu: &mut Vec<(&'static str, f64)>,
    out: &mut Vec<(&'static str, f64)>,
) {
    let dir = wal_dir.join(format!("{}-layers", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create WAL directory");

    // Buffered append: encode + copy into the pending buffer; the sync that
    // empties the buffer happens between repetitions, outside the timing.
    let records: Vec<LogRecord> = (0..2_000).flat_map(txn_records).collect();
    let mut wal = DurableWal::open(dir.join("append.wal")).expect("open WAL");
    let mut timed = Vec::new();
    for rep in 0..=REPS {
        let open = tracer.enter("storage.durable_append");
        let start = Instant::now();
        for rec in &records {
            wal.append(rec.clone());
        }
        let ns = start.elapsed().as_nanos() as f64;
        tracer.exit(open, records.len() as u64);
        wal.sync().expect("sync WAL");
        if rep > 0 {
            timed.push(ns / records.len() as f64);
        }
    }
    cpu.push(("storage.durable_append_ns", median(&timed)));

    // One group commit inline: a 64-record batch, then write + fsync.
    const BATCHES: u64 = 16;
    let ns = ns_per_op(tracer, "storage.durable_sync", BATCHES, || {
        for _ in 0..BATCHES {
            for rec in &records[..64] {
                wal.append(rec.clone());
            }
            wal.sync().expect("sync WAL");
        }
    });
    out.push(("storage.durable_sync_us", ns / 1e3));

    // One coalesced burst of the background flusher: 8 sealed batches into
    // one `execute_all` (all writes, then one fsync per segment touched).
    const BURSTS: u64 = 16;
    let mut samples = Vec::new();
    for rep in 0..=REPS {
        let mut ns = 0.0;
        for _ in 0..BURSTS {
            let batches: Vec<FlushBatch> = (0..8)
                .map(|_| {
                    for rec in &records[..8] {
                        wal.append(rec.clone());
                    }
                    wal.seal_batch()
                        .expect("a clean WAL seals its pending bytes")
                })
                .collect();
            let open = tracer.enter("storage.flush_burst");
            let start = Instant::now();
            FlushBatch::execute_all(batches).expect("flush burst");
            ns += start.elapsed().as_nanos() as f64;
            tracer.exit(open, 8);
        }
        if rep > 0 {
            samples.push(ns / BURSTS as f64);
        }
    }
    out.push(("storage.flush_burst_us", median(&samples) / 1e3));
    drop(wal);

    // What one small durable write costs on this filesystem.
    const PROBES: u64 = 32;
    let mut probe = std::fs::File::create(dir.join("probe")).expect("create probe file");
    let page = [0xA5u8; 4096];
    let ns = ns_per_op(tracer, "storage.fsync_probe", PROBES, || {
        for _ in 0..PROBES {
            probe.write_all(&page).expect("write probe");
            probe.sync_data().expect("fsync probe");
        }
    });
    out.push(("storage.fsync_probe_us", ns / 1e3));

    // Cold recovery of a 20 000-transaction log: open (scan, checksum,
    // decode every frame) and replay to a store image.
    let path = dir.join("recover.wal");
    {
        let mut wal = DurableWal::open(&path).expect("open WAL");
        for rec in (0..20_000).flat_map(txn_records) {
            wal.append(rec);
        }
        wal.sync().expect("sync WAL");
    }
    let ns = ns_per_op(tracer, "storage.recover", 1, || {
        let wal = DurableWal::open(&path).expect("reopen WAL");
        black_box(wal.recover());
    });
    out.push(("storage.recover_ms", ns / 1e6));
    let _ = std::fs::remove_dir_all(&dir);
}

fn marking(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 100_000;
    // P2, as on `thr-open`: a transaction that has visited one site is
    // checked against the next.
    let empty = SiteMarks::new();
    let mut marked = SiteMarks::new();
    for i in 0..32u64 {
        marked
            .apply(GlobalTxnId(i), MarkEvent::VoteAbort)
            .expect("unmarked -> undone is a Figure 2 transition");
    }
    for (name, metric, site) in [
        ("marking.r1_check", "marking.r1_check_ns", &empty),
        (
            "marking.r1_check_marked",
            "marking.r1_check_marked_ns",
            &marked,
        ),
    ] {
        let mut tm = TransMarks::new();
        tm.check_and_absorb(MarkingProtocol::P2, site)
            .expect("first site is always compatible");
        let ns = ns_per_op(tracer, name, N, || {
            for _ in 0..N {
                black_box(black_box(&tm).check(MarkingProtocol::P2, black_box(site))).ok();
            }
        });
        out.push((metric, ns));
    }
}

fn event_queue(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 50_000;
    let ns = ns_per_op(tracer, "sim.event_queue", N, || {
        // A steady queue of ~1 000 pending events, like a simulated run.
        let mut q = EventQueue::with_capacity(1_024);
        for i in 0..1_000u64 {
            q.schedule(SimTime(i * 7 % 1_000), i);
        }
        let mut acc = 0u64;
        for i in 0..N {
            let (now, e) = q.pop().expect("queue is never empty here");
            acc = acc.wrapping_add(e);
            q.schedule(SimTime(now.0 + 1 + (i * 7) % 1_000), i);
        }
        black_box(acc);
    });
    out.push(("sim.event_queue_ns", ns));
}

fn transport_hop(tracer: &mut Tracer, out: &mut Vec<(&'static str, f64)>) {
    let transport: ThreadedTransport<u64> =
        ThreadedTransport::with_policy(LinkPolicy::fixed(std::time::Duration::ZERO));
    let mut rt: ThreadedRuntime<(), u64> =
        ThreadedRuntime::new(transport, ThreadedRuntimeConfig::default());
    rt.register_endpoint(SiteId(0));
    rt.register_endpoint(SiteId(1));
    let deadline = SimTime(u64::MAX / 2);
    let deliver = |rt: &mut ThreadedRuntime<(), u64>| match rt.next(deadline) {
        Some((_, Step::Deliver { msg, .. })) => msg,
        other => panic!("expected a delivery, got {other:?}"),
    };

    // One message at a time: send, then wait for it (a wake-up per hop).
    const HOPS: u64 = 2_000;
    let ns = ns_per_op(tracer, "runtime.hop", HOPS, || {
        for i in 0..HOPS {
            rt.send(SimTime(0), SiteId(0), SiteId(1), i);
            black_box(deliver(&mut rt));
        }
    });
    out.push(("runtime.hop_us", ns / 1e3));

    // 64 messages per handoff: what the engine's coalesced outbox pays.
    const BURSTS: u64 = 200;
    let ns = ns_per_op(tracer, "runtime.hop_batched", BURSTS * 64, || {
        for _ in 0..BURSTS {
            for i in 0..64 {
                rt.send(SimTime(0), SiteId(0), SiteId(1), i);
            }
            for _ in 0..64 {
                black_box(deliver(&mut rt));
            }
        }
    });
    out.push(("runtime.hop_batched_ns", ns));
}

/// The audit path on a small contended history (`sim-abort`'s data, 2 000
/// arrivals): what recording the history and maintaining the live graph add
/// to a run, and what the offline audit of that history costs.
fn sgraph(
    tracer: &mut Tracer,
    cpu: &mut Vec<(&'static str, f64)>,
    out: &mut Vec<(&'static str, f64)>,
) {
    const TXNS: usize = 2_000;
    let schedule = BankingWorkload {
        sites: 4,
        accounts_per_site: 16,
        transfers: TXNS,
        mean_interarrival: o2pc_common::Duration::micros(200),
        local_fraction: 0.2,
        seed: 0x5A6,
        ..Default::default()
    }
    .generate();
    let run = |tracer: &mut Tracer, name: &'static str, audited: bool| {
        let mut history = None;
        let ns = ns_per_op(tracer, name, TXNS as u64, || {
            let mut cfg = SystemConfig::new(4, ProtocolKind::O2pc);
            cfg.seed = 0x5A6;
            cfg.vote_abort_probability = 0.2;
            cfg.record_history = audited;
            cfg.live_audit_graph = audited;
            let mut engine = Engine::new(cfg);
            schedule.install(&mut engine);
            let report = engine.run(o2pc_common::Duration::secs(600));
            history = Some(report.history);
        });
        (ns, history.expect("ran at least once"))
    };
    let (plain_ns, _) = run(tracer, "sgraph.run_plain", false);
    let (audited_ns, history) = run(tracer, "sgraph.run_audited", true);
    out.push(("sgraph.live_overhead_share", audited_ns / plain_ns - 1.0));

    let ns = ns_per_op(tracer, "sgraph.audit", TXNS as u64, || {
        black_box(o2pc_sgraph::audit(black_box(&history), 10_000, 8));
    });
    cpu.push(("sgraph.audit_us_per_txn", ns / 1e3));
}

//! Allocation budget of the engine loop.
//!
//! A counting `#[global_allocator]` (hence a test binary of its own) reads
//! how many heap allocations happen between entry and exit of `Engine::run`
//! on the benchmark's `sim-optimistic` and `sim-abort` shapes, as the
//! *marginal* figure per transaction between a short and a long run —
//! set-up, the first growth of every table and the end-of-run report cancel.
//! It reads `Schedule::install` the same way, in calls and in bytes:
//! installing an arrival shares its request's programs and copies the
//! arrival once into its run, so it costs one 32-byte slot and no call.
//! The budget is only meaningful optimised: CI runs
//! `cargo test --release --test alloc_budget`.
//!
//! What still allocates, and why, is in DESIGN.md §8.

use o2pc_common::Duration;
use o2pc_core::{Engine, SystemConfig};
use o2pc_protocol::ProtocolKind;
use o2pc_sim::{LatencyModel, NetworkConfig};
use o2pc_workload::BankingWorkload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested: a block's size for an allocation, its new size for a
/// reallocation.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics and touch
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn workload(arrivals: usize, accounts_per_site: u64) -> BankingWorkload {
    BankingWorkload {
        sites: 4,
        accounts_per_site,
        transfers: arrivals,
        local_fraction: 0.2,
        mean_interarrival: Duration::micros(200),
        seed: 0xA110C,
        ..Default::default()
    }
}

/// Allocations and bytes inside one `Schedule::install` of `arrivals`
/// transactions, and the runtime's pending steps after it.
fn install(arrivals: usize) -> (u64, u64, usize) {
    let schedule = workload(arrivals, 4_096).generate();
    let mut engine = Engine::new(SystemConfig::new(4, ProtocolKind::O2pc));
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    schedule.install(&mut engine);
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
        engine.runtime().pending(),
    )
}

/// Allocations inside one `Engine::run` over `arrivals` transactions.
fn allocs_in_run(arrivals: usize, accounts_per_site: u64, vote_abort_probability: f64) -> u64 {
    let wl = workload(arrivals, accounts_per_site);
    let mut cfg = SystemConfig::new(wl.sites, ProtocolKind::O2pc);
    cfg.seed = 1;
    cfg.record_history = false;
    cfg.vote_abort_probability = vote_abort_probability;
    cfg.network = NetworkConfig {
        default_latency: LatencyModel::Uniform(Duration::micros(500), Duration::micros(1_500)),
        ..Default::default()
    };
    let mut engine = Engine::new(cfg);
    wl.generate().install(&mut engine);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = engine.run(Duration::secs(3_600));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let decided = report.global_committed
        + report.global_aborted
        + report.local_committed
        + report.local_aborted;
    assert_eq!(decided, arrivals as u64, "every arrival decided");
    allocs
}

/// Marginal allocations per transaction between a 5 000- and a
/// 20 000-arrival run.
fn marginal(accounts_per_site: u64, vote_abort_probability: f64) -> f64 {
    let short = allocs_in_run(5_000, accounts_per_site, vote_abort_probability);
    let long = allocs_in_run(20_000, accounts_per_site, vote_abort_probability);
    (long - short) as f64 / 15_000.0
}

// One test function: the counter is process-wide, and two tests on parallel
// threads would read each other's allocations.
#[test]
fn engine_loop_allocation_budget() {
    let (short, long) = (install(5_000), install(20_000));
    let install_allocs = (long.0 - short.0) as f64 / 15_000.0;
    let install_bytes = (long.1 - short.1) as f64 / 15_000.0;
    let optimistic = marginal(4_096, 0.0);
    let abort = marginal(16, 0.2);
    println!("per arrival inside Schedule::install (marginal, 5k -> 20k arrivals):");
    println!("  allocations {install_allocs:.2}   (budget 0.05)");
    println!("  bytes       {install_bytes:.1}   (budget 40)");
    println!("allocations per transaction inside Engine::run (marginal, 5k -> 20k arrivals):");
    println!("  sim-optimistic shape: {optimistic:.1}   (budget 7)");
    println!("  sim-abort shape:      {abort:.1}   (budget 9.7, optimised builds)");
    assert!(
        install_allocs <= 0.05,
        "installing a schedule allocates {install_allocs:.2} times per arrival; the budget \
         is 0.05 (a request's clone shares its programs)"
    );
    assert!(
        install_bytes <= 40.0,
        "installing a schedule allocates {install_bytes:.1} bytes per arrival; the budget \
         is 40 (one 32-byte slot in an exact-capacity run)"
    );
    assert_eq!(
        long.2, 1,
        "a sorted schedule queues one arrival in the runtime, not all of them"
    );
    let mut gates = vec![("sim-optimistic", optimistic, 7.0)];
    // Debug builds cross-check every deadlock walk that finds nothing against
    // the whole-graph detectors, which allocate per call.
    if !cfg!(debug_assertions) {
        gates.push(("sim-abort", abort, 9.7));
    }
    for (shape, allocs, budget) in gates {
        assert!(
            allocs <= budget,
            "engine loop allocates {allocs:.1} times per transaction on the {shape} shape; \
             the budget is {budget} (DESIGN.md §8 lists what is allowed to allocate)"
        );
    }
}

//! Estimators and process probes.
//!
//! Everything here looks at the system from outside: latency figures are
//! derived from `Histogram::quantile` alone (no access to its buckets), CPU
//! time and peak memory come from `/proc`.

use o2pc_common::Histogram;

/// Median of a sample (mean of the two middle values for even sizes).
/// Every timed metric is reported as the median over rounds: on a shared
/// box noise has a long one-sided tail, and neither the best round nor the
/// aggregate is stable against it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile with the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so spreads
/// printed here agree with the ones the A/A script computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the sample; past
        // the ends the rule extrapolates (delta outside [0, 1]).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Share of recorded values at or below `limit`: the largest `q` with
/// `h.quantile(q) <= limit`, found by bisection on `q`. Exact to one sample
/// (`quantile` is a step function of `q` with steps of `1 / count`).
pub fn cdf_at_most(h: &Histogram, limit: u64) -> f64 {
    if h.count() == 0 || h.quantile(0.0) > limit {
        return 0.0;
    }
    if h.quantile(1.0) <= limit {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..50 {
        let mid = (lo + hi) / 2.0;
        if h.quantile(mid) <= limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The `q`-quantile, interpolated inside the histogram bucket that holds
/// it. `Histogram::quantile` answers with the bucket's lower bound, which
/// moves in steps of ~1.6 %; assuming values spread evenly inside a bucket,
/// the rank of `q` between the bucket's first and last sample places the
/// estimate between this bucket's bound and the next occupied one's.
pub fn quantile_interp(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let lower = h.quantile(q);
    let below = if lower == 0 {
        0.0
    } else {
        cdf_at_most(h, lower - 1)
    };
    let through = cdf_at_most(h, lower);
    let upper = if through >= 1.0 {
        h.max().max(lower)
    } else {
        h.quantile((through + 1.0 / h.count() as f64).min(1.0))
    };
    let frac = ((q - below) / (through - below).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
    lower as f64 + (upper - lower) as f64 * frac
}

/// CPU time this process has consumed so far, in nanoseconds: the sum of
/// every live thread's on-CPU time from `/proc/self/task/*/schedstat`
/// (nanosecond resolution; `/proc/self/stat` ticks at 10 ms). Threads that
/// already exited are not counted, so read it while the engine whose work
/// is being measured is still alive.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Nominal durations of [`reference_kernel`] alone and of two copies run
/// side by side on two free cores. They only scale the speed-normalised
/// metrics into familiar units and cancel in every comparison between two
/// runs. (The sizing box's two hardware threads take ~14 ms for the pair,
/// so its threaded slowdown reads ~1.3 on a quiet hour.)
const REFERENCE_NOMINAL_S: f64 = 0.0075;
const REFERENCE_PAIR_NOMINAL_S: f64 = 0.0090;

/// How much slower than nominal the machine is right now (1.0 = nominal).
///
/// The sandbox's speed drifts by +-15 % over seconds to minutes (other
/// tenants, clock frequency), longer than a run lasts, so neither more
/// rounds nor medians remove it. It moves the reference kernel and the
/// engine together: over 300 simulator rounds the kernel's time explained
/// the round's time with an exponent of ~1. Processor-bound metrics are
/// therefore reported at *reference speed*: scaled by the slowdown measured
/// just before and just after the round. The kernel shares no code with
/// the repository, so a change to the engine moves the metric and never
/// the yardstick.
///
/// A single-threaded run needs one core's speed. The threaded runtime
/// keeps several threads busy, and what a neighbour takes from the second
/// core is invisible to one thread; with `threads_contend` the kernel is
/// also timed as two copies side by side and the slowdown is the geometric
/// mean of the two ratios (the combination that held throughput, latency
/// and CPU time of `thr-open` steady together).
pub fn machine_slowdown(threads_contend: bool) -> f64 {
    let alone = reference_kernel() / REFERENCE_NOMINAL_S;
    if !threads_contend {
        return alone;
    }
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        s.spawn(reference_kernel);
        s.spawn(reference_kernel);
    });
    let pair = start.elapsed().as_secs_f64() / REFERENCE_PAIR_NOMINAL_S;
    (alone * pair).sqrt()
}

/// A fixed piece of std-only, cache-resident work shaped like the engine's
/// inner loops — hash-map updates, heap pushes and pops, short-lived
/// allocations, then a dependent integer chain. Returns the seconds it
/// took. (A kernel that also walked a table well past the cache tracked
/// the engine worse: memory contention comes and goes on its own schedule.)
fn reference_kernel() -> f64 {
    use std::collections::{BinaryHeap, HashMap};
    let start = std::time::Instant::now();
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..40_000u64 {
        let x = step();
        map.entry(x % 4_096).or_default().push(i);
        heap.push(std::cmp::Reverse(x % 100_000));
        if i % 2 == 1 {
            std::hint::black_box(heap.pop());
        }
        if i % 64 == 0 {
            map.remove(&(x % 4_096));
        }
    }
    let mut acc = 0u64;
    for _ in 0..2_000_000u64 {
        acc = acc.wrapping_add(step());
    }
    std::hint::black_box((map.len(), heap.len(), acc));
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MB, since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the kernel's peak-RSS watermark for this process (writing `5`
/// to `/proc/self/clear_refs`), so the next [`peak_rss_mb`] reports the
/// peak since now. Where the write is refused the watermark simply keeps
/// covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`
/// (longest mount-point prefix wins). Printed next to the fsync probe so a
/// sandbox where fsync is free is visible.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), ty))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty.to_string())
}

/// Well-mixed per-round seed: rounds of neighbouring `--seed` values must
/// not share inputs (`seed ^ round` would hand seeds 2 and 3 the same set).
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    /// 1 000 values: 600 at 10 µs, 300 at 100 µs, 100 at 5 000 µs. Small
    /// values sit in exact buckets, so every share is known by hand.
    fn hand_built() -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..600 {
            h.record(10);
        }
        for _ in 0..300 {
            h.record(100);
        }
        for _ in 0..100 {
            h.record(5_000);
        }
        h
    }

    #[test]
    fn cdf_bisection_on_hand_built_histogram() {
        let h = hand_built();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert_eq!(cdf_at_most(&h, 9), 0.0);
        assert!(close(cdf_at_most(&h, 10), 0.6));
        assert!(close(cdf_at_most(&h, 99), 0.6));
        assert!(close(cdf_at_most(&h, 100), 0.9));
        assert!(close(cdf_at_most(&h, 4_000), 0.9));
        assert_eq!(cdf_at_most(&h, 5_000), 1.0);
        assert_eq!(cdf_at_most(&Histogram::new(), 1_000), 0.0);
    }

    #[test]
    fn slo_share_counts_uncommitted_as_misses() {
        // 1 000 commits out of 1 250 offered, limit 100 µs: 900 commits are
        // inside the limit, the 250 without a commit miss it.
        let h = hand_built();
        let share = cdf_at_most(&h, 100) * h.count() as f64 / 1_250.0;
        assert!((share - 0.72).abs() < 1e-9);
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let mut h = Histogram::new();
        for v in 1_000..3_000u64 {
            h.record(v);
        }
        let p50 = quantile_interp(&h, 0.5);
        assert!(
            (p50 - 2_000.0).abs() < 2.0,
            "uniform 1000..3000 has median 2000, got {p50}"
        );
        assert!(p50 >= h.quantile(0.5) as f64);
        // Degenerate: one occupied bucket falls back to [lower, max].
        let mut one = Histogram::new();
        one.record(10);
        assert_eq!(quantile_interp(&one, 0.5), 10.0);
        assert_eq!(quantile_interp(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn round_seeds_do_not_collide_across_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            for round in 0..64 {
                assert!(seen.insert(round_seed(seed, round)));
            }
        }
    }

    #[test]
    fn process_probes_read_something() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() > before);
    }
}

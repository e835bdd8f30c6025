//! Streaming statistics and metric registries for the experiment harness.
//!
//! Three primitives cover everything the benches report:
//!
//! * [`Stats`] — count / mean / variance (Welford) / min / max,
//! * [`Histogram`] — log-bucketed values with percentile estimation,
//! * [`Counter`] — a named monotonic counter.

use std::fmt;

/// Streaming scalar statistics (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Stats {
    /// New empty accumulator.
    pub fn new() -> Self {
        Stats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 for < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Stats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Log-bucketed histogram of non-negative values with percentile estimation.
///
/// Buckets are geometric with ~4.6% relative width (64 sub-buckets per
/// power of two over `u64`), giving percentile error well under the noise of
/// any simulated experiment while staying allocation-free after construction.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    stats: Stats,
}

const SUB_BITS: u32 = 6; // 64 sub-buckets per octave
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + (1 << SUB_BITS);

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        (octave << SUB_BITS) + sub
    }
}

#[inline]
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < (1 << SUB_BITS) {
        idx as u64
    } else {
        let octave = (idx >> SUB_BITS) as u32;
        let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
        ((1 << SUB_BITS) | sub) << (octave - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            stats: Stats::new(),
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.stats.record(v as f64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Maximum recorded value (exact).
    pub fn max(&self) -> u64 {
        self.stats.max() as u64
    }

    /// Approximate `q`-quantile (`q` in [0, 1]); returns the lower bound of
    /// the bucket containing the quantile. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return bucket_lower_bound(i);
            }
        }
        self.max()
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand (tail latency under open-loop load).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.stats.merge(&other.stats);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

/// A named monotonic counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A name-keyed registry of counters, used for ad-hoc experiment metrics
/// (message type counts, rejection reasons, ...).
///
/// Incrementing sits on the engine's per-message path, so it neither
/// allocates nor walks a tree: names are `'static` (a literal or a message's
/// label), kept in first-touched order, and matched by address before
/// content — one literal is one address, so the content compare runs only
/// for a name spelled at two call sites. Readers go by name and in name
/// order, and pay for it.
#[derive(Clone, Debug, Default)]
pub struct CounterSet {
    counters: Vec<(&'static str, u64)>,
}

impl CounterSet {
    /// New empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment `name` by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment `name` by `n`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        let slot = self
            .counters
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, name));
        match slot.or_else(|| self.counters.iter().position(|&(k, _)| k == name)) {
            Some(i) => self.counters[i].1 += n,
            None => self.counters.push((name, n)),
        }
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Iterate counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut sorted = self.counters.clone();
        sorted.sort_unstable();
        sorted.into_iter()
    }

    /// Merge another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for &(k, v) in &other.counters {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let mut s = Stats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        for x in [2.0, 4.0, 6.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert_eq!(s.sum(), 12.0);
    }

    #[test]
    fn stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Stats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Stats::new();
        let mut b = Stats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging empty is a no-op; merging into empty copies.
        let mut e = Stats::new();
        e.merge(&whole);
        assert_eq!(e.count(), whole.count());
        whole.merge(&Stats::new());
        assert_eq!(whole.count(), xs.len() as u64);
    }

    #[test]
    fn histogram_buckets_monotone() {
        // bucket_index must be monotone non-decreasing in its argument.
        let mut last = 0;
        for v in (0..4096).chain([1 << 20, (1 << 20) + 1, u64::MAX / 2, u64::MAX]) {
            let b = bucket_index(v);
            assert!(b >= last || v < 4096, "index regressed at {v}");
            last = b;
            assert!(
                bucket_lower_bound(b) <= v,
                "lower bound exceeds value at {v}"
            );
        }
        // Small values are exact.
        for v in 0..64 {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50();
        assert!((450..=550).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((950..=1000).contains(&p99), "p99={p99}");
        let p999 = h.p999();
        assert!(p999 >= p99, "p999={p999} below p99={p99}");
        assert!(p999 <= 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 0.01);
        // Quantile clamping.
        assert!(h.quantile(-1.0) <= h.quantile(2.0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            a.record(v);
            whole.record(v);
        }
        for v in 500..1000u64 {
            b.record(v * 3);
            whole.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn counters() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let mut set = CounterSet::new();
        set.inc("msg.vote_req");
        set.add("msg.vote_req", 2);
        set.inc("msg.decision");
        assert_eq!(set.get("msg.vote_req"), 3);
        assert_eq!(set.get("missing"), 0);
        let mut other = CounterSet::new();
        other.add("msg.decision", 5);
        set.merge(&other);
        assert_eq!(set.get("msg.decision"), 6);
        let names: Vec<_> = set.iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(names, vec!["msg.decision", "msg.vote_req"]);
    }

    #[test]
    fn counter_names_match_by_content_when_addresses_differ() {
        let mut set = CounterSet::new();
        set.inc("msg.decision");
        set.inc("msg.vote_req");
        // The same name at another address: no address matches, the
        // content compare finds the counter.
        let elsewhere: &'static str = Box::leak(String::from("msg.vote_req").into_boxed_str());
        assert!(!std::ptr::eq(elsewhere, "msg.vote_req"));
        set.add(elsewhere, 2);
        assert_eq!(set.get("msg.vote_req"), 3);
        assert_eq!(set.iter().count(), 2);
    }
}

//! Deterministic random number generation.
//!
//! A self-contained xoshiro256++ generator seeded via SplitMix64. Having our
//! own implementation (rather than depending on a particular `rand` version's
//! stream) guarantees that recorded experiment outputs stay bit-identical
//! across dependency upgrades — the same discipline FoundationDB-style
//! deterministic simulation testing relies on.

/// Deterministic xoshiro256++ PRNG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl DetRng {
    /// Seed the generator. Distinct seeds give decorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent child stream (e.g. one per site) so that adding
    /// consumers to one stream does not perturb another.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform integer in `[0, bound)` (Lemire's method; `bound` must be > 0).
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_range bound must be positive");
        // Widening multiply rejection-free approximation; bias is < 2^-64 per
        // draw which is negligible for simulation workloads.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    #[inline]
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        let u = 1.0 - self.gen_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Floyd's algorithm keeps this O(k) in expectation for k << n.
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.gen_range((j + 1) as u64) as usize;
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        self.shuffle(&mut chosen);
        chosen
    }
}

/// Zipf-distributed sampler over `{0, 1, ..., n-1}` with skew `theta`
/// (theta = 0 is uniform; typical hotspot workloads use 0.6–0.99).
///
/// Uses a precomputed inverse CDF table for exact, cheap draws — appropriate
/// because workload key spaces here are small (≤ a few hundred thousand).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` ranks with exponent `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let norm = acc;
        for c in &mut cdf {
            *c /= norm;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // constructor enforces n > 0
    }

    /// Draw a rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_decorrelated_and_deterministic() {
        let mut root1 = DetRng::new(7);
        let mut root2 = DetRng::new(7);
        let mut c1 = root1.fork(3);
        let mut c2 = root2.fork(3);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = root1.fork(4);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            let x = r.gen_range(17);
            assert!(x < 17);
        }
        for _ in 0..1_000 {
            let x = r.gen_range_inclusive(5, 9);
            assert!((5..=9).contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_all_residues() {
        let mut r = DetRng::new(11);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = DetRng::new(13);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = DetRng::new(21);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(23);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert_eq!(r.gen_exp(0.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = DetRng::new(37);
        for _ in 0..200 {
            let s = r.sample_indices(10, 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4, "indices must be distinct: {s:?}");
            assert!(s.iter().all(|&i| i < 10));
        }
        // Degenerate cases.
        assert!(r.sample_indices(3, 0).is_empty());
        let all = r.sample_indices(3, 3);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let mut r = DetRng::new(43);
        let z = Zipf::new(100, 0.99);
        let n = 50_000;
        let mut counts = vec![0usize; 100];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(
            counts[0] > counts[50] * 5,
            "rank0={} rank50={}",
            counts[0],
            counts[50]
        );
        // All samples valid ranks.
        assert_eq!(counts.iter().sum::<usize>(), n);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let mut r = DetRng::new(47);
        let z = Zipf::new(10, 0.0);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "rank {i}: {frac}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let mut r = DetRng::new(51);
        let z = Zipf::new(1, 0.9);
        assert_eq!(z.len(), 1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }
}

//! Deterministic, splittable randomness.
//!
//! Every stochastic quantity in the reproduction (SGD convergence noise,
//! compute/network jitter, RL exploration) flows from a [`SimRng`], which is
//! an xoshiro256** generator seeded through SplitMix64. `SimRng::derive`
//! splits an independent child stream from a label, so subsystems cannot
//! perturb each other's sequences when the call order changes — a property
//! the determinism integration tests rely on.

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
///
/// Not cryptographically secure; chosen for speed, quality, and exact
/// reproducibility across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Immutable identity of this stream; `derive` mixes from this rather
    /// than the mutable state so children are independent of how many
    /// numbers the parent has produced.
    stream_id: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s, stream_id: seed }
    }

    /// Derives an independent child stream from a textual label.
    ///
    /// The child's sequence depends only on the parent seed and the label,
    /// not on how many numbers the parent has produced.
    pub fn derive(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent's initial state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::new(h ^ self.stream_id.rotate_left(17))
    }

    /// Derives an independent child stream from an integer index.
    pub fn derive_idx(&self, label: &str, idx: u64) -> SimRng {
        let base = self.derive(label);
        SimRng::new(base.stream_id ^ (idx.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index: empty range");
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample (Box–Muller: two uniforms, a `ln`, a
    /// `sqrt` and a `cos` per call; the second normal of the pair is
    /// discarded, so every call is a pure function of two draws). The
    /// request engine calls it for every dispatched attempt, one normal
    /// for a warm start and two for a cold one.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by offsetting into (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Multiplicative lognormal jitter with unit median.
    ///
    /// `sigma` is the standard deviation of the underlying normal; e.g.
    /// `sigma = 0.03` yields roughly ±3 % noise. Used to perturb compute and
    /// network durations in the platform simulator so that measured values
    /// deviate from the analytical model by a few percent (Figs. 19–20).
    pub fn lognormal_jitter(&mut self, sigma: f64) -> f64 {
        (sigma * self.normal()).exp()
    }

    /// Returns `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_order_independent() {
        let parent = SimRng::new(7);
        let mut c1 = parent.derive("loss");
        // Burn numbers on a clone of the parent; derive must not care.
        let mut burned = parent.clone();
        for _ in 0..10 {
            burned.next_u64();
        }
        let mut c2 = burned.derive("loss");
        for _ in 0..16 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn derive_labels_independent() {
        let parent = SimRng::new(7);
        let mut a = parent.derive("alpha");
        let mut b = parent.derive("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_idx_streams_differ() {
        let parent = SimRng::new(7);
        let mut a = parent.derive_idx("trial", 0);
        let mut b = parent.derive_idx("trial", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_jitter_median_near_one() {
        let mut rng = SimRng::new(9);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.lognormal_jitter(0.05)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gen_index_bounds() {
        let mut rng = SimRng::new(13);
        for _ in 0..10_000 {
            assert!(rng.gen_index(7) < 7);
        }
        // n = 1 always yields 0.
        assert_eq!(rng.gen_index(1), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(19);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}

//! Deterministic randomness for the simulator.
//!
//! A single master seed fans out into independent per-component streams via
//! SplitMix64, so adding a component (a new link's loss process, a new flow's
//! monitor-interval jitter) never perturbs the random stream of any other
//! component. Runs with the same master seed are bit-identical.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64 — no external crates, so the byte stream is stable
//! across toolchains and builds.

/// SplitMix64 step; used to derive independent stream seeds from a master
/// seed combined with a component tag, and to expand a 64-bit seed into the
/// generator's 256-bit state. Public as [`mix64`] for stateless hashing
/// (e.g. the topology subsystem's per-flow ECMP choice).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 mixing step: a stateless 64-bit bijective hash.
///
/// The deterministic mixer behind `SimRng::derive`, exposed for components
/// that need an order-independent hash rather than a stream — notably the
/// per-flow ECMP path choice in [`crate::topo`].
pub fn mix64(z: u64) -> u64 {
    splitmix64(z)
}

/// A deterministic random stream (xoshiro256++).
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Create a stream from a seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state via SplitMix64, the
        // initialization the xoshiro authors recommend. The state is never
        // all-zero because splitmix64 is a bijection chain seeded off
        // distinct offsets.
        let mut s = [0u64; 4];
        let mut z = seed;
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(z);
        }
        SimRng { seed, state: s }
    }

    /// Derive an independent child stream tagged by `tag`.
    ///
    /// The child depends only on this stream's seed and `tag`, not on how
    /// much of this stream has been consumed.
    pub fn derive(&self, tag: u64) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ splitmix64(tag.wrapping_add(1))))
    }

    /// The seed of this stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the densest uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo;
        // Multiply-shift bounded generation (Lemire) without the rejection
        // step: the bias is < 2^-64 per draw, far below anything a
        // simulation statistic can resolve.
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// times of a Poisson process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // 1 − uniform() ∈ (0, 1]; ln of it is finite and ≤ 0.
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// A random boolean (fair coin).
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 0
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimRng(seed={:#x})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derive_is_independent_of_consumption() {
        let mut a = SimRng::new(7);
        let b = SimRng::new(7);
        // Consume some of `a`, then derive: children must match.
        for _ in 0..10 {
            a.uniform();
        }
        let mut ca = a.derive(3);
        let mut cb = b.derive(3);
        for _ in 0..20 {
            assert_eq!(ca.uniform().to_bits(), cb.uniform().to_bits());
        }
    }

    #[test]
    fn derive_different_tags_differ() {
        let root = SimRng::new(1);
        let mut c1 = root.derive(1);
        let mut c2 = root.derive(2);
        let s1: Vec<u64> = (0..8).map(|_| c1.uniform().to_bits()).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.uniform().to_bits()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rate_roughly_correct() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn range_degenerate() {
        let mut r = SimRng::new(17);
        assert_eq!(r.range_f64(5.0, 5.0), 5.0);
        assert_eq!(r.range_u64(9, 9), 9);
    }

    #[test]
    fn range_u64_within_bounds() {
        let mut r = SimRng::new(23);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let mut r = SimRng::new(29);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}

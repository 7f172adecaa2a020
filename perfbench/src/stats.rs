//! Sample statistics: nearest-rank percentiles, the tail percentile the
//! sample supports, and a seeded generator for the workload inputs.

/// Nearest-rank percentile `p` (0..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// An ascending copy of `samples` (NaN-free by construction).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The highest percentile with at least ten samples beyond it: the
/// value at ascending rank `n - 10`, and that rank as a percentile.
/// Needs at least eleven samples.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 10, "a tail needs at least eleven samples, got {n}");
    let rank = n - 10;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// SplitMix64: a small, seedable, dependency-free generator. Every
/// window, batch and TOPK position derives from one of these.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams
    /// for independent input families).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        let s: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&s), (15.0, 60.0));
        assert_eq!(percentile(&s, 50.0), 13.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}

//! Seeded randomness for input generation: a SplitMix64 stream and a Zipf
//! sampler. Everything the benchmark sends derives from `--seed` through
//! these, so one seed always yields the same inputs.

/// SplitMix64: tiny, fast, and good enough to shuffle keys and draw ranks.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A child stream for one named purpose, so adding a draw in one place
    /// does not shift the inputs of another.
    pub fn fork(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::fork(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::fork(7, 1);
        let b: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut r = Rng::fork(3, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.draw(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert!(counts.iter().all(|&c| c > 0) || counts[99] == 0);
    }
}

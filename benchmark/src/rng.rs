//! Seeded randomness for the load generator: one small PRNG, its shuffles
//! and the Poisson arrival schedule of the open loops.
//!
//! Everything a run sends is derived from `--seed` through this module, so
//! two runs with the same seed replay the same requests at the same due
//! times.

use std::time::Duration;

/// SplitMix64: tiny, fast, and good enough for schedules and draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

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

    /// Uniform in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Due times of `count` Poisson arrivals over `horizon`, as ascending
/// offsets from the window start.  Given their number, the arrival times
/// of a Poisson process are independent uniform draws; fixing the number
/// keeps the offered load identical from seed to seed while the gaps stay
/// exponential-looking, bursts included.
pub fn poisson_schedule(rng: &mut Rng, count: usize, horizon: Duration) -> Vec<Duration> {
    let mut due: Vec<Duration> = (0..count).map(|_| horizon.mul_f64(rng.unit())).collect();
    due.sort_unstable();
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<Duration> {
        poisson_schedule(&mut Rng::new(seed), 500, Duration::from_secs(10))
    }

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let s = schedule(7);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert_eq!(s.len(), 500);
        assert!(s[499] < Duration::from_secs(10));
        // bursty, not evenly paced: some gap is several times the mean
        let widest = s.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(widest > Duration::from_millis(60), "{widest:?}");
    }

    #[test]
    fn permutations_repeat_per_seed_and_differ_across_seeds() {
        let p = Rng::new(3).permutation(256);
        assert_eq!(p, Rng::new(3).permutation(256));
        assert_ne!(p, Rng::new(4).permutation(256));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<_>>());
    }
}

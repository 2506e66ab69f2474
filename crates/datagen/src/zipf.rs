//! A small Zipf (power-law) sampler.
//!
//! Keyword frequencies in DBLP/IMDB titles are heavily skewed: a handful of
//! words (`database`, `system`, `john`) match tens of thousands of tuples
//! while most words match a few.  The generators use this sampler to draw
//! title words, author productivity, citation targets and cast sizes so the
//! synthetic graphs show the same skew.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k + 1)^s`.
///
/// The table holds the *unnormalised* prefix sums `Σ_{j≤k} 1/(j+1)^s`.
/// A prefix of it is therefore the table of every smaller `n` with the same
/// exponent, which is what lets [`Zipf::sample_first`] draw from `Zipf(m, s)`
/// for any `m ≤ n` without building a table per `m`.
#[derive(Clone, Debug)]
pub struct Zipf {
    prefix: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut prefix = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            prefix.push(total);
        }
        Zipf { prefix }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// True when the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..n`; rank 0 is the most probable.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_first(self.len(), rng)
    }

    /// Draws a rank in `0..n` from `Zipf(n, s)` using the first `n` entries
    /// of this table: the same draw, bit for bit, as
    /// `Zipf::new(n, s).sample(rng)`, since both compare `u` with the same
    /// prefix sums divided by the same total in the same binary search.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n` exceeds [`Zipf::len`].
    pub fn sample_first<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> usize {
        let prefix = &self.prefix[..n];
        let total = prefix[n - 1];
        let u: f64 = rng.gen();
        match prefix.binary_search_by(|p| (p / total).partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(n - 1),
        }
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.prefix.len() {
            return 0.0;
        }
        let total = self.prefix[self.prefix.len() - 1];
        if rank == 0 {
            self.prefix[0] / total
        } else {
            self.prefix[rank] / total - self.prefix[rank - 1] / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn low_ranks_are_more_frequent() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[1] > counts[50]);
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn pmf_sums_to_one() {
        let zipf = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(zipf.pmf(99), 0.0);
        assert_eq!(zipf.len(), 50);
        assert!(!zipf.is_empty());
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((zipf.pmf(k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let zipf = Zipf::new(30, 1.0);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    /// The normalised table the sampler used to store, built the way it
    /// used to be built: the oracle for draws and masses.
    fn normalised(n: usize, s: f64) -> Vec<f64> {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        cumulative
    }

    fn oracle_sample(cumulative: &[f64], rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match cumulative.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(cumulative.len() - 1),
        }
    }

    #[test]
    fn sample_first_draws_what_a_fresh_table_draws() {
        for s in [0.0, 0.9, 1.1, 1.2] {
            let shared = Zipf::new(512, s);
            for n in 1..=512 {
                let fresh = Zipf::new(n, s);
                let oracle = normalised(n, s);
                for seed in [1, 7, 42] {
                    let mut a = SmallRng::seed_from_u64(seed);
                    let mut b = SmallRng::seed_from_u64(seed);
                    let mut c = SmallRng::seed_from_u64(seed);
                    for draw in 0..48 {
                        let got = shared.sample_first(n, &mut a);
                        assert_eq!(got, fresh.sample(&mut b), "s {s} n {n} seed {seed} #{draw}");
                        assert_eq!(got, oracle_sample(&oracle, &mut c), "s {s} n {n} #{draw}");
                    }
                }
            }
        }
    }

    #[test]
    fn pmf_is_bit_identical_to_the_normalised_table() {
        for s in [0.0, 0.9, 1.1, 1.2] {
            for n in [1, 2, 3, 50, 511] {
                let zipf = Zipf::new(n, s);
                let oracle = normalised(n, s);
                for rank in 0..=n {
                    let expected = match rank {
                        r if r >= n => 0.0,
                        0 => oracle[0],
                        r => oracle[r] - oracle[r - 1],
                    };
                    assert_eq!(zipf.pmf(rank).to_bits(), expected.to_bits(), "s {s} n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn rejects_empty_distribution() {
        let _ = Zipf::new(0, 1.0);
    }
}

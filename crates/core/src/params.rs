//! Search parameters shared by all engines.

/// When buffered answers are released from the output heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmissionPolicy {
    /// NRA-style bound (Section 4.5): an answer is output only once its
    /// overall score (edge score combined with node prestige) is at least
    /// the upper bound achievable by any answer not yet generated.
    ExactBound,
    /// The paper's "looser heuristic": output as soon as the answer's tree
    /// edge score beats `h(m_1, ..., m_k)`, ignoring node prestige.  Faster
    /// output, may occasionally reorder answers.
    Heuristic,
    /// Output answers the moment they are generated.  Used to measure pure
    /// generation time and in tests that only care about the answer set.
    Immediate,
}

/// Tunable parameters of the search algorithms.  Defaults follow the paper
/// (Section 4.2 and 5.1): `dmax = 8`, `µ = 0.5`, `λ = 0.2`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchParams {
    /// Maximum depth (in edges) a node may be from the nearest keyword node
    /// before its expansion is cut off.  Ensures termination and keeps
    /// answers intuitive.
    pub dmax: usize,
    /// Activation attenuation factor: each node retains `1 - µ` of the
    /// activation it receives and spreads a fraction `µ` to its neighbours.
    pub mu: f64,
    /// Exponent balancing node prestige against edge score in the overall
    /// tree score `E · N^λ`.
    pub lambda: f64,
    /// Number of answers requested (the paper reports time to the last
    /// relevant or the tenth relevant answer).
    pub top_k: usize,
    /// How eagerly buffered answers are released.
    pub emission: EmissionPolicy,
    /// Safety cap on the number of nodes an engine may explore (pop from its
    /// queues) before giving up.  `None` means unlimited.
    pub max_explored: Option<usize>,
    /// Safety cap on the number of answer trees generated (relevant for the
    /// multi-iterator Backward search whose cross-product of iterators can
    /// explode).  `None` means unlimited.
    pub max_generated: Option<usize>,
    /// Work budget for producing each answer when the search runs as an
    /// [`crate::AnswerStream`]: if the engine explores more than this many
    /// nodes between consecutive emissions, it stops expanding, flushes
    /// whatever answers it already generated, and ends the stream (marking
    /// [`crate::SearchStats::truncated`]).  Unlike the wall-clock gap
    /// accounting it replaced, a work budget is deterministic: the search is
    /// cut at exactly the same node whether the machine is idle or saturated
    /// by concurrent queries.  `None` means unlimited.
    pub answer_work_budget: Option<usize>,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            dmax: 8,
            mu: 0.5,
            lambda: 0.2,
            top_k: 10,
            emission: EmissionPolicy::ExactBound,
            max_explored: None,
            max_generated: None,
            answer_work_budget: None,
        }
    }
}

impl SearchParams {
    /// Paper defaults with a different `top_k`.
    pub fn with_top_k(top_k: usize) -> Self {
        SearchParams {
            top_k,
            ..Default::default()
        }
    }

    /// Builder-style setter for `dmax`.
    pub fn dmax(mut self, dmax: usize) -> Self {
        self.dmax = dmax;
        self
    }

    /// Builder-style setter for `µ`.
    pub fn mu(mut self, mu: f64) -> Self {
        assert!((0.0..=1.0).contains(&mu), "µ must lie in [0, 1]");
        self.mu = mu;
        self
    }

    /// Builder-style setter for `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative");
        self.lambda = lambda;
        self
    }

    /// Builder-style setter for the emission policy.
    pub fn emission(mut self, emission: EmissionPolicy) -> Self {
        self.emission = emission;
        self
    }

    /// Builder-style setter for the explored-nodes cap.
    pub fn max_explored(mut self, cap: usize) -> Self {
        self.max_explored = Some(cap);
        self
    }

    /// Builder-style setter for the generated-answers cap.
    pub fn max_generated(mut self, cap: usize) -> Self {
        self.max_generated = Some(cap);
        self
    }

    /// Builder-style setter for the per-answer streaming work budget
    /// (nodes explored between emissions).
    pub fn answer_work_budget(mut self, budget: usize) -> Self {
        self.answer_work_budget = Some(budget);
        self
    }

    /// The score model induced by these parameters.
    pub fn score_model(&self) -> crate::score::ScoreModel {
        crate::score::ScoreModel::new(self.lambda)
    }

    /// A stable 64-bit fingerprint of the full parameter set, used (together
    /// with the graph epoch and the normalized keywords) as a result-cache
    /// key.  Two parameter sets fingerprint equally iff every field —
    /// including the float-valued ones, compared bit-for-bit — is equal.
    ///
    /// The hash is FNV-1a over a canonical field encoding, so it does not
    /// depend on `std`'s per-process hasher seeds and is reproducible across
    /// runs.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fnv.write_u64(self.dmax as u64);
        fnv.write_u64(self.mu.to_bits());
        fnv.write_u64(self.lambda.to_bits());
        fnv.write_u64(self.top_k as u64);
        fnv.write_u64(match self.emission {
            EmissionPolicy::ExactBound => 0,
            EmissionPolicy::Heuristic => 1,
            EmissionPolicy::Immediate => 2,
        });
        fnv.write_opt_usize(self.max_explored);
        fnv.write_opt_usize(self.max_generated);
        fnv.write_opt_usize(self.answer_work_budget);
        fnv.finish()
    }
}

/// Minimal FNV-1a accumulator (no dependency on `std::hash`, whose default
/// hasher is seeded per process and therefore unsuitable for stable
/// fingerprints).
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= *byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn write_opt_usize(&mut self, value: Option<usize>) {
        match value {
            None => self.write_u64(u64::MAX),
            Some(v) => {
                self.write_u64(1);
                self.write_u64(v as u64);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = SearchParams::default();
        assert_eq!(p.dmax, 8);
        assert_eq!(p.mu, 0.5);
        assert_eq!(p.lambda, 0.2);
        assert_eq!(p.top_k, 10);
        assert_eq!(p.emission, EmissionPolicy::ExactBound);
        assert_eq!(p.max_explored, None);
    }

    #[test]
    fn builder_setters() {
        let p = SearchParams::with_top_k(5)
            .dmax(4)
            .mu(0.7)
            .lambda(1.0)
            .emission(EmissionPolicy::Heuristic)
            .max_explored(1000)
            .max_generated(500)
            .answer_work_budget(250);
        assert_eq!(p.top_k, 5);
        assert_eq!(p.dmax, 4);
        assert_eq!(p.mu, 0.7);
        assert_eq!(p.lambda, 1.0);
        assert_eq!(p.emission, EmissionPolicy::Heuristic);
        assert_eq!(p.max_explored, Some(1000));
        assert_eq!(p.max_generated, Some(500));
        assert_eq!(p.answer_work_budget, Some(250));
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let base = SearchParams::default();
        assert_eq!(base.fingerprint(), SearchParams::default().fingerprint());
        // every field participates
        assert_ne!(base.fingerprint(), base.dmax(7).fingerprint());
        assert_ne!(base.fingerprint(), base.mu(0.25).fingerprint());
        assert_ne!(base.fingerprint(), base.lambda(0.3).fingerprint());
        assert_ne!(
            base.fingerprint(),
            SearchParams::with_top_k(11).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            base.emission(EmissionPolicy::Immediate).fingerprint()
        );
        assert_ne!(base.fingerprint(), base.max_explored(10).fingerprint());
        assert_ne!(base.fingerprint(), base.max_generated(10).fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.answer_work_budget(10).fingerprint()
        );
        // None and Some(0) caps must not collide
        assert_ne!(
            base.max_explored(0).fingerprint(),
            base.fingerprint(),
            "Some(0) must differ from None"
        );
    }

    #[test]
    #[should_panic(expected = "µ must lie in [0, 1]")]
    fn rejects_bad_mu() {
        let _ = SearchParams::default().mu(1.5);
    }

    #[test]
    #[should_panic(expected = "λ must be non-negative")]
    fn rejects_bad_lambda() {
        let _ = SearchParams::default().lambda(-0.1);
    }
}

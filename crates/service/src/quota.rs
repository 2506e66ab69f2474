//! Per-tenant token-bucket admission quotas.
//!
//! The scheduler's fair share prevents *starvation* — every tenant
//! eventually runs — but not *overload*: a tenant free to submit without
//! bound still fills the admission queue and inflates everyone's queue
//! wait.  The quota layer sits in front of the scheduler and answers a
//! different question: "may this tenant submit at all right now?".
//!
//! The mechanism is the classic token bucket, one flat configuration for
//! every tenant ([`crate::ServiceBuilder::tenant_quota`]).  Each tenant
//! owns a bucket of capacity `burst` refilled continuously at
//! `rate_per_sec`; a submission takes one token.  An empty bucket rejects
//! with [`crate::SubmitError::QuotaExceeded`], which carries the time until
//! the next token arrives — the HTTP front-end turns that into a `429`
//! with a `Retry-After` header.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cap on distinct tenant buckets, so high-cardinality tenant names cannot
/// grow the map for the service's lifetime.  A bucket refilled back to full
/// capacity is indistinguishable from a fresh one, so full buckets are
/// pruned when the cap is reached; if every bucket is mid-drain, the least
/// recently used quarter is evicted instead (those tenants restart with a
/// full bucket, which only errs in the tenant's favour).
const MAX_BUCKETS: usize = 4096;

/// The rate/burst pair every tenant's bucket is configured with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct QuotaConfig {
    /// Tokens refilled per second (floor: one token per day, so the
    /// retry-after arithmetic stays finite).
    rate_per_sec: f64,
    /// Bucket capacity: the burst a previously-idle tenant may submit
    /// before the rate limit bites (at least 1).
    burst: u64,
}

impl QuotaConfig {
    pub(crate) fn new(rate_per_sec: f64, burst: u64) -> Self {
        QuotaConfig {
            rate_per_sec: rate_per_sec.max(1.0 / 86_400.0),
            burst: burst.max(1),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

impl Bucket {
    fn refill(&mut self, cfg: &QuotaConfig, now: Instant) {
        let dt = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.tokens = (self.tokens + dt * cfg.rate_per_sec).min(cfg.burst as f64);
        self.last_refill = now;
    }
}

/// All tenant buckets plus the configuration they share.
#[derive(Debug)]
pub(crate) struct QuotaState {
    config: QuotaConfig,
    buckets: HashMap<String, Bucket>,
}

impl QuotaState {
    pub(crate) fn new(config: QuotaConfig) -> Self {
        QuotaState {
            config,
            buckets: HashMap::new(),
        }
    }

    /// Takes one token from `tenant`'s bucket at time `now`.  On an empty
    /// bucket, returns the duration until the next token arrives.
    pub(crate) fn try_take(&mut self, tenant: &str, now: Instant) -> Result<(), Duration> {
        let cfg = self.config;
        if !self.buckets.contains_key(tenant) {
            if self.buckets.len() >= MAX_BUCKETS {
                self.make_room(now);
            }
            self.buckets.insert(
                tenant.to_string(),
                Bucket {
                    tokens: cfg.burst as f64,
                    last_refill: now,
                },
            );
        }
        let bucket = self.buckets.get_mut(tenant).expect("bucket just ensured");
        bucket.refill(&cfg, now);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / cfg.rate_per_sec))
        }
    }

    /// Evicts buckets to keep the map bounded: every full (hence
    /// memory-free) bucket goes; if that frees nothing, the least recently
    /// refilled **quarter** of the map goes in one pass.  Batch eviction
    /// amortizes the scan — a client rotating fresh tenant names pays one
    /// O(n log n) sweep per ~1k new tenants, not an O(n) scan per request,
    /// and eviction only ever errs in a tenant's favour (it restarts with
    /// a full bucket).
    fn make_room(&mut self, now: Instant) {
        let cfg = self.config;
        self.buckets.retain(|_, b| {
            b.refill(&cfg, now);
            b.tokens < cfg.burst as f64
        });
        if self.buckets.len() >= MAX_BUCKETS {
            let mut by_age: Vec<(Instant, String)> = self
                .buckets
                .iter()
                .map(|(k, b)| (b.last_refill, k.clone()))
                .collect();
            by_age.sort_unstable_by_key(|(t, _)| *t);
            for (_, key) in by_age.into_iter().take(MAX_BUCKETS / 4) {
                self.buckets.remove(&key);
            }
        }
    }

    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(rate: f64, burst: u64) -> QuotaState {
        QuotaState::new(QuotaConfig::new(rate, burst))
    }

    #[test]
    fn burst_then_reject() {
        let mut q = state(1.0, 3);
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(q.try_take("a", t0).is_ok());
        }
        let retry = q.try_take("a", t0).expect_err("bucket must be empty");
        // one token at 1/s: the next token is ~1s away
        assert!(retry > Duration::from_millis(900) && retry <= Duration::from_secs(1));
    }

    #[test]
    fn refill_restores_tokens() {
        let mut q = state(2.0, 2);
        let t0 = Instant::now();
        assert!(q.try_take("a", t0).is_ok());
        assert!(q.try_take("a", t0).is_ok());
        assert!(q.try_take("a", t0).is_err());
        // 2 tokens/s: after 600ms, one token is back
        let t1 = t0 + Duration::from_millis(600);
        assert!(q.try_take("a", t1).is_ok());
        assert!(q.try_take("a", t1).is_err());
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut q = state(1000.0, 2);
        let t0 = Instant::now();
        assert!(q.try_take("a", t0).is_ok());
        // a long idle period refills to burst, not beyond
        let t1 = t0 + Duration::from_secs(60);
        assert!(q.try_take("a", t1).is_ok());
        assert!(q.try_take("a", t1).is_ok());
        assert!(q.try_take("a", t1).is_err());
    }

    #[test]
    fn tenants_are_isolated() {
        let mut q = state(0.01, 1);
        let t0 = Instant::now();
        assert!(q.try_take("a", t0).is_ok());
        assert!(q.try_take("a", t0).is_err(), "tenant a exhausted");
        assert!(q.try_take("b", t0).is_ok(), "tenant b unaffected");
    }

    #[test]
    fn zero_rate_is_clamped_finite() {
        let mut q = state(0.0, 1);
        let t0 = Instant::now();
        assert!(q.try_take("a", t0).is_ok());
        let retry = q.try_take("a", t0).expect_err("empty");
        // clamped to one token per day: finite, under a day and a half
        assert!(retry <= Duration::from_secs(86_400 + 43_200));
    }

    #[test]
    fn bucket_map_is_bounded() {
        let mut q = state(1000.0, 5);
        let t0 = Instant::now();
        // Far more tenants than the cap, each touched once: full buckets are
        // pruned, so the map stays bounded.
        for i in 0..(MAX_BUCKETS * 2) {
            assert!(q.try_take(&format!("t{i}"), t0).is_ok());
        }
        assert!(q.bucket_count() <= MAX_BUCKETS + 1);
        // Pruning a nearly-full bucket only ever errs in the tenant's
        // favour: admission still succeeds.
        assert!(q.try_take("t0", t0 + Duration::from_secs(1)).is_ok());
    }
}

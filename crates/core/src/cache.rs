//! LRU result cache for repeated interactive queries.
//!
//! Interactive keyword search workloads repeat themselves: the same user
//! refines the same query, different users ask for the same popular paper.
//! The cache stores completed [`SearchOutcome`]s keyed by
//!
//! * the **graph epoch** ([`banks_graph::DataGraph::epoch`]) — a bumped
//!   epoch invalidates every entry for the old graph version,
//! * the **normalized keywords** — the same normalization the facade
//!   applies before resolving origin sets, so `"Jim GRAY"` and `"jim gray"`
//!   share an entry,
//! * a **fingerprint** of the search parameters
//!   ([`crate::SearchParams::fingerprint`]) and the engine name — different
//!   `top_k`, emission policy or engine never alias.
//!
//! The cache is thread-safe (a mutex around the table, atomics for the
//! hit/miss counters); the concurrent query service consults it before
//! starting any engine, so a hit performs **zero** expansion work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use banks_textindex::KeywordMatches;

use crate::engine::SearchOutcome;
use crate::params::{Fnv1a, SearchParams};

/// The composite cache key: `(graph epoch, normalized keywords, params +
/// engine fingerprint)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Epoch of the graph the query ran against.
    pub epoch: u64,
    /// Normalized keywords, in query order.
    pub keywords: Vec<String>,
    /// Fingerprint of the search parameters and the engine name.
    pub fingerprint: u64,
}

impl CacheKey {
    /// Builds a key from the graph epoch, already-normalized keywords, the
    /// parameter set, the engine (registry) name and the **resolved origin
    /// sets**.
    ///
    /// The origin sets participate because the same keywords can resolve to
    /// different node sets: hand-built [`KeywordMatches`] under identical
    /// names, or two facades sharing one cache but carrying different
    /// custom indexes.  Folding the sets into the fingerprint makes such
    /// pairs distinct keys instead of silently serving each other's
    /// results.
    pub fn new(
        epoch: u64,
        keywords: Vec<String>,
        params: &SearchParams,
        engine: &str,
        matches: &KeywordMatches,
    ) -> Self {
        let mut fnv = Fnv1a::new();
        fnv.write_u64(params.fingerprint());
        fnv.write_bytes(engine.as_bytes());
        for i in 0..matches.num_keywords() {
            let set = matches.origin_set(i);
            fnv.write_u64(set.len() as u64);
            for node in set {
                fnv.write_u64(node.index() as u64);
            }
        }
        CacheKey {
            epoch,
            keywords,
            fingerprint: fnv.finish(),
        }
    }
}

struct Entry {
    outcome: Arc<SearchOutcome>,
    last_used: u64,
}

struct Table {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache of completed search outcomes.
///
/// Capacity 0 disables the cache entirely (every lookup misses, nothing is
/// stored).  Eviction is least-recently-used; lookups refresh recency.
pub struct ResultCache {
    capacity: usize,
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            table: Mutex::new(Table {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached outcomes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.table.lock().expect("cache lock").entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a key, refreshing its recency and counting a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<SearchOutcome>> {
        let mut table = self.table.lock().expect("cache lock");
        table.tick += 1;
        let tick = table.tick;
        match table.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.outcome))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an outcome, evicting the least-recently-used entry when full.
    /// No-op when the capacity is 0.
    pub fn insert(&self, key: CacheKey, outcome: Arc<SearchOutcome>) {
        if self.capacity == 0 {
            return;
        }
        let mut table = self.table.lock().expect("cache lock");
        table.tick += 1;
        let tick = table.tick;
        if !table.entries.contains_key(&key) && table.entries.len() >= self.capacity {
            // O(capacity) eviction scan: capacities are small (hundreds)
            // and insertion is off the per-answer hot path.
            if let Some(lru) = table
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                table.entries.remove(&lru);
            }
        }
        table.entries.insert(
            key,
            Entry {
                outcome,
                last_used: tick,
            },
        );
    }

    /// Drops every cached outcome (counters are kept).
    pub fn clear(&self) {
        self.table.lock().expect("cache lock").entries.clear();
    }

    /// Drops every outcome cached under the given graph epoch, returning how
    /// many entries were removed.
    ///
    /// Entries for a superseded epoch can never be hit again (keys carry the
    /// epoch), so after a graph swap they are dead weight; a service that
    /// *owns* its cache reclaims the space eagerly with this call.  A cache
    /// **shared** across services must not be purged this way — another
    /// service may still be serving that epoch.
    pub fn evict_epoch(&self, epoch: u64) -> usize {
        let mut table = self.table.lock().expect("cache lock");
        let before = table.entries.len();
        table.entries.retain(|key, _| key.epoch != epoch);
        before - table.entries.len()
    }

    /// Number of lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SearchStats;

    fn matches_for(word: &str) -> KeywordMatches {
        KeywordMatches::from_sets(vec![(word, vec![banks_graph::NodeId(0)])])
    }

    fn key(epoch: u64, word: &str) -> CacheKey {
        CacheKey::new(
            epoch,
            vec![word.to_string()],
            &SearchParams::default(),
            "bidirectional",
            &matches_for(word),
        )
    }

    fn outcome(n: usize) -> Arc<SearchOutcome> {
        Arc::new(SearchOutcome {
            answers: Vec::new(),
            stats: SearchStats {
                nodes_explored: n,
                ..SearchStats::default()
            },
        })
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = ResultCache::new(4);
        let k = key(1, "gray");
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(k.clone(), outcome(7));
        let hit = cache.get(&k).expect("hit");
        assert_eq!(hit.stats.nodes_explored, 7);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn key_components_never_alias() {
        let cache = ResultCache::new(8);
        cache.insert(key(1, "gray"), outcome(1));
        // different epoch
        assert!(cache.get(&key(2, "gray")).is_none());
        // different keywords
        assert!(cache.get(&key(1, "locks")).is_none());
        // different params
        let other_params = CacheKey::new(
            1,
            vec!["gray".to_string()],
            &SearchParams::with_top_k(99),
            "bidirectional",
            &matches_for("gray"),
        );
        assert!(cache.get(&other_params).is_none());
        // different engine
        let other_engine = CacheKey::new(
            1,
            vec!["gray".to_string()],
            &SearchParams::default(),
            "mi-backward",
            &matches_for("gray"),
        );
        assert!(cache.get(&other_engine).is_none());
        // same name, different origin sets: hand-built matches must not
        // serve each other's results
        let other_sets = CacheKey::new(
            1,
            vec!["gray".to_string()],
            &SearchParams::default(),
            "bidirectional",
            &KeywordMatches::from_sets(vec![("gray", vec![banks_graph::NodeId(5)])]),
        );
        assert!(cache.get(&other_sets).is_none());
        // the original still resolves
        assert!(cache.get(&key(1, "gray")).is_some());
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(key(1, "a"), outcome(1));
        cache.insert(key(1, "b"), outcome(2));
        // touch "a" so "b" is the LRU entry
        assert!(cache.get(&key(1, "a")).is_some());
        cache.insert(key(1, "c"), outcome(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, "a")).is_some());
        assert!(cache.get(&key(1, "b")).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, "c")).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert(key(1, "a"), outcome(1));
        assert!(cache.is_empty());
        assert!(cache.get(&key(1, "a")).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let cache = ResultCache::new(1);
        cache.insert(key(1, "a"), outcome(1));
        cache.insert(key(1, "a"), outcome(9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, "a")).unwrap().stats.nodes_explored, 9);
    }

    #[test]
    fn evict_epoch_drops_only_that_epoch() {
        let cache = ResultCache::new(8);
        cache.insert(key(1, "a"), outcome(1));
        cache.insert(key(1, "b"), outcome(2));
        cache.insert(key(2, "a"), outcome(3));
        assert_eq!(cache.evict_epoch(1), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2, "a")).is_some());
        assert_eq!(cache.evict_epoch(1), 0, "already gone");
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        // Capacity must hold every insert (4 threads × 50 keys): with a
        // smaller cache the per-insert `get` below races against LRU
        // eviction by the other threads and the test flakes.
        let cache = Arc::new(ResultCache::new(256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let k = key(t, &format!("w{i}"));
                    cache.insert(k.clone(), outcome(i as usize));
                    assert!(cache.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(cache.len(), 200, "every insert retained, none evicted");
        assert!(cache.hits() >= 1);
    }
}

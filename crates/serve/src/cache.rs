//! The template-keyed estimate cache: memoizes healthy `ESTIMATE` answers
//! in front of the batcher.
//!
//! A cache entry is keyed by the sketch name, the store **generation** of
//! the sketch that produced the value, and the query's [`CanonicalQuery`]
//! (template words plus literal words). Keying by generation makes
//! swap/remove invalidation structural: a retrained or re-inserted sketch
//! gets a fresh generation from the store, so stale entries can never hit
//! — the cache additionally purges them eagerly (and counts the purge) the
//! first time it sees the new generation.
//!
//! Correctness contract, enforced by integration tests:
//!
//! * a hit returns the **bit-identical** `f64` a cold estimate would
//!   produce (values enter the cache only from healthy batcher answers);
//! * degraded (circuit-breaker / fallback) responses are never inserted,
//!   and the serving path consults the cache only after breaker admission,
//!   so an open circuit is never masked by a warm cache;
//! * `FEEDBACK`-detected accuracy drift for a template drops every cached
//!   entry of that template (all literals, IN-list and LIKE-pattern
//!   lengths included, and all generations).
//!
//! Eviction is sharded second-chance (CLOCK): each shard keeps a FIFO ring
//! over its keys plus one referenced bit per entry — hits set the bit,
//! eviction gives set bits a second lap. This approximates LRU without
//! per-hit list surgery, so a hit is one hash lookup and one store.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use ds_query::canonical::CanonicalQuery;
use ds_query::query::Query;

/// Cache key of one estimate: sketch identity and generation plus the
/// query's canonical form. Two queries build equal keys exactly when a
/// sketch of that generation must answer them with the same estimate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    sketch: String,
    generation: u64,
    query: CanonicalQuery,
}

impl EstimateKey {
    /// Builds the key for `query` served by `sketch` at `generation`.
    pub fn new(sketch: &str, generation: u64, query: &Query) -> Self {
        Self::from_canonical(sketch, generation, query.canonical())
    }

    /// Builds the key from an already canonicalized query.
    pub(crate) fn from_canonical(sketch: &str, generation: u64, query: CanonicalQuery) -> Self {
        Self {
            sketch: sketch.to_string(),
            generation,
            query,
        }
    }

    /// The keyed query's canonical form; its template words are what
    /// [`EstimateCache::invalidate_template`] matches.
    pub(crate) fn canonical(&self) -> &CanonicalQuery {
        &self.query
    }
}

/// One cached estimate plus its CLOCK referenced bit.
struct Entry {
    value: f64,
    referenced: bool,
}

/// One independently locked shard: entry map plus the second-chance ring.
/// The ring may briefly hold keys already removed by invalidation; they
/// are dropped lazily during eviction sweeps.
#[derive(Default)]
struct Shard {
    map: HashMap<EstimateKey, Entry>,
    ring: VecDeque<EstimateKey>,
}

/// Bounded, sharded, second-chance estimate cache. See the module docs for
/// the keying and invalidation contract.
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Latest store generation seen per sketch name; a change purges the
    /// sketch's stale entries eagerly.
    latest: RwLock<HashMap<String, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl EstimateCache {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            latest: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EstimateKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Builds the key for a request and eagerly purges stale entries when
    /// this is the first sight of `sketch` at `generation` (a swap,
    /// remove/re-insert, or background-retrain promotion).
    pub fn key(&self, sketch: &str, generation: u64, query: &Query) -> EstimateKey {
        self.note_generation(sketch, generation);
        EstimateKey::new(sketch, generation, query)
    }

    /// Records that `sketch` now serves `generation`, eagerly purging its
    /// entries of any other generation on first sight.
    pub(crate) fn note_generation(&self, sketch: &str, generation: u64) {
        if self
            .latest
            .read()
            .expect("cache generation map poisoned")
            .get(sketch)
            == Some(&generation)
        {
            return;
        }
        // Hold the write lock across the purge so concurrent first
        // sightings of the same swap purge exactly once.
        let mut latest = self.latest.write().expect("cache generation map poisoned");
        match latest.insert(sketch.to_string(), generation) {
            Some(prev) if prev != generation => {
                let mut purged = 0u64;
                for shard in &self.shards {
                    let mut s = shard.lock().expect("cache shard poisoned");
                    let before = s.map.len();
                    s.map
                        .retain(|k, _| !(k.sketch == sketch && k.generation != generation));
                    purged += (before - s.map.len()) as u64;
                }
                self.invalidations.fetch_add(purged, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Looks up a cached estimate, counting the hit or miss.
    pub fn get(&self, key: &EstimateKey) -> Option<f64> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a healthy estimate, evicting with second chance when the
    /// shard is full. Re-inserting an existing key refreshes its value in
    /// place.
    pub fn insert(&self, key: EstimateKey, value: f64) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.referenced = true;
            return;
        }
        while shard.map.len() >= self.per_shard_capacity {
            let Some(victim) = shard.ring.pop_front() else {
                break;
            };
            match shard.map.get_mut(&victim) {
                Some(entry) if entry.referenced => {
                    // Second chance: clear the bit, send it one more lap.
                    entry.referenced = false;
                    shard.ring.push_back(victim);
                }
                Some(_) => {
                    shard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Stale ring key (already invalidated): just drop it.
                None => {}
            }
        }
        shard.ring.push_back(key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                referenced: false,
            },
        );
    }

    /// Drops every cached entry of `sketch` whose template words equal
    /// `template` ([`CanonicalQuery::template`]) — all literals, all
    /// generations. Called when `FEEDBACK` detects accuracy drift for the
    /// template. Returns the number of entries dropped.
    pub fn invalidate_template(&self, sketch: &str, template: &[u32]) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            let before = s.map.len();
            s.map
                .retain(|k, _| !(k.sketch == sketch && k.query.template() == template));
            dropped += (before - s.map.len()) as u64;
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the batcher.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries dropped by generation swaps and template drift.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn queries() -> (Query, Query, Query) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
        )
        .unwrap();
        // Same template as `a`, different literal.
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
        )
        .unwrap();
        // Different template.
        let c = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        (a, b, c)
    }

    #[test]
    fn same_shape_different_literals_are_distinct_keys_with_one_shape() {
        let (a, b, c) = queries();
        let ka = EstimateKey::new("s", 1, &a);
        let kb = EstimateKey::new("s", 1, &b);
        let kc = EstimateKey::new("s", 1, &c);
        assert_ne!(ka, kb, "literals must distinguish keys");
        let template = |k: &EstimateKey| k.canonical().template().to_vec();
        assert_eq!(template(&ka), template(&kb), "same template, same shape");
        assert_ne!(template(&ka), template(&kc));
        // Clause order and aliasing never change the key (canonical sort).
        assert_eq!(ka, EstimateKey::new("s", 1, &a.clone()));
    }

    #[test]
    fn hits_misses_and_generation_purge() {
        let (a, b, _) = queries();
        let cache = EstimateCache::new(64, 4);
        let k = cache.key("imdb", 1, &a);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), 42.5);
        assert_eq!(cache.get(&k), Some(42.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let kb = cache.key("imdb", 1, &b);
        cache.insert(kb, 7.0);
        assert_eq!(cache.len(), 2);

        // A new generation purges the old entries and can never hit them.
        let k2 = cache.key("imdb", 2, &a);
        assert_eq!(cache.len(), 0, "swap must purge stale generations");
        assert_eq!(cache.invalidations(), 2);
        assert_eq!(cache.get(&k2), None);
    }

    #[test]
    fn template_invalidation_is_shape_scoped() {
        let (a, b, c) = queries();
        let cache = EstimateCache::new(64, 4);
        let ka = cache.key("imdb", 1, &a);
        let kb = cache.key("imdb", 1, &b);
        let kc = cache.key("imdb", 1, &c);
        cache.insert(ka.clone(), 1.0);
        cache.insert(kb.clone(), 2.0);
        cache.insert(kc.clone(), 3.0);
        // Another sketch's entry with the same shape must survive.
        let other = cache.key("other", 9, &a);
        cache.insert(other.clone(), 4.0);
        assert_eq!(
            cache.invalidate_template("imdb", ka.canonical().template()),
            2
        );
        assert_eq!(cache.get(&ka), None);
        assert_eq!(cache.get(&kb), None);
        assert_eq!(cache.get(&kc), Some(3.0));
        assert_eq!(cache.get(&other), Some(4.0));
    }

    #[test]
    fn capacity_is_bounded_and_hot_entries_survive_eviction() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        // Single shard, capacity 4: inserts must never grow past it.
        let cache = EstimateCache::new(4, 1);
        let key_i = |i: i64| {
            let sql = format!("SELECT COUNT(*) FROM title WHERE title.production_year > {i}");
            EstimateKey::new("s", 1, &parse_query(&db, &sql).unwrap())
        };
        cache.insert(key_i(0), 0.0);
        for i in 1..20 {
            // Keep key 0 hot so second chance retains it.
            assert_eq!(cache.get(&key_i(0)), Some(0.0), "hot entry evicted at {i}");
            cache.insert(key_i(i), i as f64);
            assert!(cache.len() <= 4, "cache grew past capacity");
        }
        assert!(cache.evictions() > 0);
    }
}

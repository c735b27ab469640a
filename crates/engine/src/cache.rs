//! Caches the engine shares across requests: a small LRU plus the
//! reconstruction memo injected into the factorizer.

use factorhd_core::{Encoder, FactorHdError, ObjectSpec, ReconstructionCache};
use hdc::TernaryHv;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Counters describing how a cache has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of resident entries (0 = caching disabled).
    pub capacity: usize,
}

/// A least-recently-used map with explicit capacity.
///
/// Every access stamps its entry with a fresh tick from a monotonically
/// increasing counter, and a tick-ordered index beside the map keeps the
/// entries in exact recency order, so a lookup refresh and an eviction
/// each cost `O(log capacity)` — no dependency on an external LRU crate
/// (the build environment has none). Both indexes share one `Arc` per
/// key instead of holding two deep copies.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<Arc<K>, (V, u64)>,
    /// `tick → key` for every resident entry; the first is the least
    /// recently used.
    order: BTreeMap<u64, Arc<K>>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((value, stamp)) => {
                let key = self
                    .order
                    .remove(stamp)
                    .expect("resident entries are indexed");
                self.order.insert(self.tick, key);
                *stamp = self.tick;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, stamp)) = self.map.get(&key) {
            self.order.remove(stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        let key = Arc::new(key);
        self.order.insert(self.tick, Arc::clone(&key));
        self.map.insert(key, (value, self.tick));
    }

    /// Usage counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// The engine's Rep-3 reconstruction memo: `ObjectSpec → encoded clause
/// product`, shared across every request against one taxonomy.
///
/// Values are deterministic functions of the taxonomy, so concurrent
/// insert races cannot change what any request observes — batch output
/// stays bit-identical to sequential. Entries are `Arc`-shared, so a hit
/// is allocation-free. The memo snapshots the taxonomy's
/// [`codebook_generation`](factorhd_core::Taxonomy::codebook_generation)
/// and flushes itself whenever `set_codebook` has moved it, so installing
/// trained prototypes mid-flight can never serve stale reconstructions.
#[derive(Debug)]
pub struct ReconCache {
    inner: Mutex<ReconCacheInner>,
}

#[derive(Debug)]
struct ReconCacheInner {
    cache: LruCache<ObjectSpec, Arc<TernaryHv>>,
    generation: u64,
}

impl ReconCache {
    /// Creates a reconstruction memo holding at most `capacity` objects.
    pub fn new(capacity: usize) -> Self {
        ReconCache {
            inner: Mutex::new(ReconCacheInner {
                cache: LruCache::new(capacity),
                generation: 0,
            }),
        }
    }

    /// Usage counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lock().cache.stats()
    }

    /// The memo's lock. A panic while it was held leaves at most a
    /// half-updated LRU order, so poisoning is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, ReconCacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flushes every entry when `generation` differs from the one the
    /// cache was populated at, then returns the lock guard.
    fn synced(&self, generation: u64) -> MutexGuard<'_, ReconCacheInner> {
        let mut inner = self.lock();
        if inner.generation != generation {
            let capacity = inner.cache.stats().capacity;
            inner.cache = LruCache::new(capacity);
            inner.generation = generation;
        }
        inner
    }
}

impl ReconstructionCache for ReconCache {
    fn get_or_encode(
        &self,
        encoder: &Encoder<'_>,
        object: &ObjectSpec,
    ) -> Result<Arc<TernaryHv>, FactorHdError> {
        let generation = encoder.taxonomy().codebook_generation();
        if let Some(hit) = self.synced(generation).cache.get(object) {
            return Ok(hit);
        }
        // Encode outside the lock so concurrent requests never serialize
        // on hypervector arithmetic.
        let encoded = Arc::new(encoder.encode_object(object)?);
        self.synced(generation)
            .cache
            .insert(object.clone(), Arc::clone(&encoded));
        Ok(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorhd_core::TaxonomyBuilder;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10)); // refresh 1
        cache.insert(3, 30); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_reinsert_does_not_evict() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // same key: overwrite, no eviction
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn recon_cache_matches_plain_encoding() {
        let taxonomy = TaxonomyBuilder::new(512)
            .seed(9)
            .class("a", &[4, 2])
            .class("b", &[4])
            .build()
            .expect("valid taxonomy");
        let encoder = Encoder::new(&taxonomy);
        let cache = ReconCache::new(8);
        let mut rng = hdc::rng_from_seed(5);
        let object = taxonomy.sample_object(&mut rng);
        let direct = encoder.encode_object(&object).unwrap();
        let first = cache.get_or_encode(&encoder, &object).unwrap();
        let second = cache.get_or_encode(&encoder, &object).unwrap();
        assert_eq!(first.as_ref(), &direct);
        assert_eq!(second.as_ref(), &direct);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }
}

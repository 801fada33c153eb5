//! LRU-style memoisation of per-cell model evaluations.
//!
//! Sweeps frequently revisit the same analytical configuration — e.g. a grid
//! that crosses pattern lengths with processor counts rebuilds the same model
//! per `(platform, scenario, α, λ)` combination, and the numerical optimiser is
//! by far the most expensive part of a no-simulation sweep. [`EvalCache`]
//! memoises those evaluations behind a mutex, keyed on *quantized* model inputs
//! (the low 12 mantissa bits of every `f64` are masked off, ≈ 4 × 10⁻¹³
//! relative) so that axis values reconstructed through arithmetically different
//! but mathematically equal routes still hit the same entry.
//!
//! Because the cached value is itself the output of a deterministic
//! computation, caching never changes results — a sweep with the cache
//! disabled produces bit-identical output (asserted by the property suite).
//!
//! The merge tolerance is part of that contract: two configurations whose
//! inputs differ by less than the quantization step (≈ 4 × 10⁻¹³ relative)
//! are *defined* to be the same configuration and share one evaluation. Grid
//! axes with meaningful spacing (every realistic sweep) sit many orders of
//! magnitude above the step; only axes deliberately constructed with
//! sub-quantum spacing would observe the merge.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A cache key: quantized bit patterns of the inputs of one evaluation.
/// Cloning shares one allocation, so the cache's map and its recency index
/// hold the same key rather than two copies. A key compares and hashes as
/// its words (`Arc` defers both to them), which lets a lookup probe with
/// the words alone (see [`EvalCache::get_or_insert_repeated`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(Arc<[u64]>);

impl CacheKey {
    /// Builds a key from raw `f64` inputs, quantizing each one.
    pub fn from_inputs(inputs: &[f64]) -> Self {
        Self(inputs.iter().map(|&x| quantize(x)).collect())
    }
}

impl<const N: usize> From<[u64; N]> for CacheKey {
    fn from(words: [u64; N]) -> Self {
        Self(Arc::from(words.as_slice()))
    }
}

impl Borrow<[u64]> for CacheKey {
    fn borrow(&self) -> &[u64] {
        &self.0
    }
}

/// Quantizes each of `inputs` (see [`quantize`]): the words of their key,
/// on the stack.
pub fn quantized<const N: usize>(inputs: [f64; N]) -> [u64; N] {
    inputs.map(quantize)
}

/// Maps an `f64` to its quantized bit pattern: NaN (used as an "absent" marker)
/// canonicalises to a fixed value, zero to zero, and any other finite value has
/// its 12 low mantissa bits cleared.
pub fn quantize(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    if x == 0.0 {
        return 0;
    }
    x.to_bits() & !0xFFF
}

/// Hit/miss counters of a cache (or of a whole sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups answered from the cache.
    pub hits: u64,
    /// Number of lookups that had to compute.
    pub misses: u64,
    /// Number of entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum of two counter sets (used to merge per-shard stats).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

struct Entry<V> {
    stamp: u64,
    value: V,
}

struct Inner<V> {
    map: HashMap<CacheKey, Entry<V>>,
    /// One slot per live key, ordered by stamp. A hit moves only its entry's
    /// stamp, so a slot's stamp may lag its entry's but never leads it.
    by_stamp: BTreeMap<u64, CacheKey>,
    clock: u64,
    stats: CacheStats,
}

impl<V> Inner<V> {
    /// Removes the least-recently-used entry, the one a scan for the
    /// smallest stamp would pick. Lagging slots at the front are re-filed
    /// under their entry's stamp until the first slot is current: no other
    /// entry's stamp can then be smaller, as stamps are unique and no slot
    /// leads its entry.
    fn evict_lru(&mut self) -> bool {
        while let Some((stamp, key)) = self.by_stamp.pop_first() {
            let current = self
                .map
                .get(&key)
                .expect("every slot names a live key")
                .stamp;
            if current == stamp {
                self.map.remove(&key);
                return true;
            }
            self.by_stamp.insert(current, key);
        }
        false
    }
}

/// A bounded, thread-safe memoisation cache with exact least-recently-used
/// eviction: a hit is O(1), an eviction amortised O(log n).
pub struct EvalCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V: Clone> EvalCache<V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached value for `key`, computing and inserting it on a miss.
    ///
    /// The lock is *not* held while `compute` runs, so concurrent misses on the
    /// same key may compute twice; both arrive at the same deterministic value,
    /// so this is a throughput trade-off, not a correctness one.
    pub fn get_or_insert_with<K>(&self, key: K, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<[u64]> + Into<CacheKey>,
    {
        self.get_or_insert_repeated(key, 1, compute)
    }

    /// [`Self::get_or_insert_with`] standing for `lookups` consecutive
    /// lookups of `key` (at least one): the first scores a hit or a miss,
    /// every further one a hit, and the entry ends most recently used, as
    /// after that run of single lookups.
    ///
    /// `key` is a [`CacheKey`] or its quantized words (see [`quantized`]):
    /// the map is probed with the words, and words become a `CacheKey`, the
    /// one allocation of a lookup, only when they are inserted.
    pub fn get_or_insert_repeated<K>(&self, key: K, lookups: u64, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<[u64]> + Into<CacheKey>,
    {
        let repeats = lookups.max(1) - 1;
        {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            inner.stats.hits += repeats;
            if let Some(entry) = inner.map.get_mut(key.borrow()) {
                entry.stamp = clock;
                let value = entry.value.clone();
                inner.stats.hits += 1;
                return value;
            }
            inner.stats.misses += 1;
        }
        let value = compute();
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.map.get_mut(key.borrow()) {
            // A concurrent miss on the same key inserted it first: refresh
            // the entry like a hit; its one slot stays.
            entry.stamp = clock;
            entry.value = value.clone();
            return value;
        }
        if inner.map.len() >= self.capacity && inner.evict_lru() {
            inner.stats.evictions += 1;
        }
        let key: CacheKey = key.into();
        inner.by_stamp.insert(clock, key.clone());
        inner.map.insert(
            key,
            Entry {
                stamp: clock,
                value: value.clone(),
            },
        );
        debug_assert_eq!(inner.map.len(), inner.by_stamp.len());
        value
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache poisoned").stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sharded variant of [`EvalCache`] for highly concurrent callers.
///
/// Keys are routed to one of `N` independently locked shards by their hash, so
/// concurrent lookups of *different* configurations proceed without contending
/// on a single mutex (the single-lock [`EvalCache`] serialises every lookup).
/// The long-lived query service (`ayd-serve`) keeps one process-wide instance;
/// the sweep executor shards by worker count.
///
/// Semantics are identical to [`EvalCache`] for any workload that fits in the
/// per-shard capacity: a key deduplicates onto the same shard every time, so
/// hit/miss counts — and therefore the hit rate — match the single-shard cache
/// exactly as long as no shard evicts (asserted by the property suite). Under
/// eviction pressure the LRU horizon is per-shard rather than global, which can
/// change *which* entry is evicted but never the cached values themselves.
pub struct ShardedEvalCache<V> {
    shards: Vec<EvalCache<V>>,
}

impl<V: Clone> ShardedEvalCache<V> {
    /// Creates a cache of `shards` independent shards (minimum 1) holding at
    /// most `capacity` entries in total (split evenly, rounding up).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| EvalCache::new(per_shard)).collect(),
        }
    }

    /// The shard a key's words route to (stable for the lifetime of the
    /// cache; a [`CacheKey`] hashes as its words).
    fn shard(&self, words: &[u64]) -> &EvalCache<V> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        words.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, computing and inserting it on a
    /// miss. Same locking contract as [`EvalCache::get_or_insert_with`], but
    /// only the key's shard is locked.
    pub fn get_or_insert_with<K>(&self, key: K, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<[u64]> + Into<CacheKey>,
    {
        self.get_or_insert_repeated(key, 1, compute)
    }

    /// [`EvalCache::get_or_insert_repeated`] on the key's shard: one
    /// lookup standing for `lookups` consecutive ones, which allocates
    /// nothing when it hits.
    pub fn get_or_insert_repeated<K>(&self, key: K, lookups: u64, compute: impl FnOnce() -> V) -> V
    where
        K: Borrow<[u64]> + Into<CacheKey>,
    {
        self.shard(key.borrow())
            .get_or_insert_repeated(key, lookups, compute)
    }

    /// Merged hit/miss/eviction counters across every shard.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(EvalCache::stats).collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of live entries across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EvalCache::len).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_first_computation() {
        let cache: EvalCache<u64> = EvalCache::new(8);
        let key = || CacheKey::from_inputs(&[1.0, 2.0]);
        assert_eq!(cache.get_or_insert_with(key(), || 7), 7);
        // The second lookup must not recompute.
        assert_eq!(cache.get_or_insert_with(key(), || panic!("recomputed")), 7);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_key_and_its_words_find_the_same_entry() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut hasher = DefaultHasher::new();
            value(&mut hasher);
            hasher.finish()
        };
        let words = quantized([1.0, f64::NAN, 3.5]);
        let key = CacheKey::from_inputs(&[1.0, f64::NAN, 3.5]);
        assert_eq!(Borrow::<[u64]>::borrow(&key), words.as_slice());
        assert_eq!(key, CacheKey::from(words));
        assert_eq!(hash(&|h| key.hash(h)), hash(&|h| words.as_slice().hash(h)));
        let cache: ShardedEvalCache<u64> = ShardedEvalCache::new(4, 64);
        assert_eq!(cache.get_or_insert_with(key, || 7), 7);
        assert_eq!(cache.get_or_insert_with(words, || panic!("recomputed")), 7);
        let other = quantized([2.0]);
        assert_eq!(cache.get_or_insert_with(other, || 9), 9);
        assert_eq!(
            cache.get_or_insert_with(CacheKey::from_inputs(&[2.0]), || panic!("recomputed")),
            9
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn quantization_merges_ulp_noise_but_separates_axis_values() {
        // One-ulp perturbations collapse onto the same key...
        let x: f64 = 1.69e-8;
        let x_ulp = f64::from_bits(x.to_bits() + 1);
        assert_eq!(quantize(x), quantize(x_ulp));
        // ...but genuinely different axis values do not.
        assert_ne!(quantize(200.0), quantize(400.0));
        assert_ne!(quantize(1e-9), quantize(1.0001e-9));
        // NaN is a canonical "absent" marker and zero is exact.
        assert_eq!(quantize(f64::NAN), quantize(f64::NAN));
        assert_eq!(quantize(0.0), 0);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let cache: EvalCache<usize> = EvalCache::new(2);
        let key = |i: usize| CacheKey::from_inputs(&[i as f64]);
        cache.get_or_insert_with(key(1), || 1);
        cache.get_or_insert_with(key(2), || 2);
        // Touch 1 so that 2 is the LRU entry.
        cache.get_or_insert_with(key(1), || panic!("must hit"));
        cache.get_or_insert_with(key(3), || 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // 1 survived, 2 was evicted.
        cache.get_or_insert_with(key(1), || panic!("must hit"));
        assert_eq!(cache.get_or_insert_with(key(2), || 22), 22);
    }

    /// The keys `0..domain` (as built by the tests) that are live in `cache`,
    /// read without touching their recency.
    fn survivors(cache: &EvalCache<u64>, domain: u64) -> Vec<u64> {
        let inner = cache.inner.lock().unwrap();
        assert_eq!(inner.map.len(), inner.by_stamp.len(), "index out of step");
        (0..domain)
            .filter(|&k| inner.map.contains_key(&CacheKey::from_inputs(&[k as f64])))
            .collect()
    }

    #[test]
    fn a_key_inserted_twice_keeps_one_index_slot() {
        let cache: EvalCache<u64> = EvalCache::new(2);
        let key = |i: u64| CacheKey::from_inputs(&[i as f64]);
        // The inner call plays a concurrent miss on the same key that
        // finishes first; the outer insert then refreshes that entry.
        let value =
            cache.get_or_insert_with(key(1), || cache.get_or_insert_with(key(1), || 10) + 1);
        assert_eq!(value, 11);
        assert_eq!(survivors(&cache, 8), vec![1]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        // Key 1 is now the least recently used entry, and holds one index
        // slot: a stale second slot would evict it twice and let the cache
        // outgrow its capacity.
        cache.get_or_insert_with(key(2), || 2);
        cache.get_or_insert_with(key(3), || 3);
        assert_eq!(survivors(&cache, 8), vec![2, 3]);
        cache.get_or_insert_with(key(4), || 4);
        assert_eq!(survivors(&cache, 8), vec![3, 4]);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.get_or_insert_with(key(3), || unreachable!()), 3);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: EvalCache<u64> = EvalCache::new(64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..200u64 {
                        let got = cache
                            .get_or_insert_with(CacheKey::from_inputs(&[(i % 16) as f64]), || {
                                (i % 16) * 10
                            });
                        assert_eq!(got, (i % 16) * 10);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
    }

    #[test]
    fn sharded_cache_routes_each_key_to_one_stable_shard() {
        let cache: ShardedEvalCache<u64> = ShardedEvalCache::new(8, 64);
        assert_eq!(cache.shard_count(), 8);
        for i in 0..32u64 {
            cache.get_or_insert_with(CacheKey::from_inputs(&[i as f64]), || i);
        }
        // Replaying the same keys must hit — same key, same shard.
        for i in 0..32u64 {
            let got =
                cache.get_or_insert_with(CacheKey::from_inputs(&[i as f64]), || unreachable!());
            assert_eq!(got, i);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (32, 32, 0));
        assert_eq!(cache.len(), 32);
        // The merged stats are exactly the sum of the per-shard stats.
        let summed = cache
            .shard_stats()
            .into_iter()
            .fold(CacheStats::default(), CacheStats::merged);
        assert_eq!(stats, summed);
    }

    #[test]
    fn sharded_cache_is_consistent_under_concurrency() {
        let cache: ShardedEvalCache<u64> = ShardedEvalCache::new(4, 256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..400u64 {
                        let got = cache
                            .get_or_insert_with(CacheKey::from_inputs(&[(i % 32) as f64]), || {
                                (i % 32) * 3
                            });
                        assert_eq!(got, (i % 32) * 3);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        let stats = cache.stats();
        // Concurrent misses on one key may compute twice, but every lookup is
        // accounted for exactly once.
        assert_eq!(stats.hits + stats.misses, 4 * 400);
    }

    #[test]
    fn shard_capacity_splits_the_total_and_enforces_a_floor() {
        // Total capacity 4 over 8 shards → 1 entry per shard, never 0.
        let tiny: ShardedEvalCache<u64> = ShardedEvalCache::new(8, 4);
        for i in 0..64u64 {
            tiny.get_or_insert_with(CacheKey::from_inputs(&[i as f64]), || i);
        }
        assert!(tiny.len() <= 8, "len {} exceeds shard capacity", tiny.len());
        assert!(tiny.stats().evictions > 0);
        // A zero-shard request is clamped to one shard.
        let one: ShardedEvalCache<u64> = ShardedEvalCache::new(0, 16);
        assert_eq!(one.shard_count(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Replays a workload sequentially and returns (stats, values).
        fn replay(workload: &[u64], lookup: impl Fn(CacheKey, u64) -> u64) -> Vec<u64> {
            workload
                .iter()
                .map(|&k| lookup(CacheKey::from_inputs(&[k as f64]), k))
                .collect()
        }

        /// Brute-force LRU: keys ordered from least to most recently used.
        #[derive(Default)]
        struct LruModel {
            order: Vec<u64>,
            stats: CacheStats,
        }

        impl LruModel {
            fn lookup(&mut self, key: u64, capacity: usize) {
                if let Some(position) = self.order.iter().position(|&k| k == key) {
                    self.order.remove(position);
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                    if self.order.len() >= capacity {
                        self.order.remove(0);
                        self.stats.evictions += 1;
                    }
                }
                self.order.push(key);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The cache is an exact LRU: on any sequence of lookups it
            /// scores the hits, misses and evictions of a brute-force model
            /// and keeps exactly the model's survivors.
            #[test]
            fn eviction_matches_a_brute_force_lru(
                workload in prop::collection::vec(0u64..12, 1..200),
                capacity in 1usize..=8,
            ) {
                let cache: EvalCache<u64> = EvalCache::new(capacity);
                let mut model = LruModel::default();
                for &k in &workload {
                    let got = cache.get_or_insert_with(CacheKey::from_inputs(&[k as f64]), || k * 3);
                    prop_assert_eq!(got, k * 3);
                    model.lookup(k, capacity);
                }
                prop_assert_eq!(cache.stats(), model.stats);
                let mut expected = model.order.clone();
                expected.sort_unstable();
                prop_assert_eq!(survivors(&cache, 12), expected);
            }

            /// One repeated lookup scores, evicts and keeps exactly what its
            /// run of single lookups does.
            #[test]
            fn a_repeated_lookup_is_its_run_of_single_lookups(
                runs in prop::collection::vec((0u64..12, 1u64..6), 1..100),
                capacity in 1usize..=8,
            ) {
                let repeated: EvalCache<u64> = EvalCache::new(capacity);
                let single: EvalCache<u64> = EvalCache::new(capacity);
                for &(k, lookups) in &runs {
                    let key = || CacheKey::from_inputs(&[k as f64]);
                    prop_assert_eq!(repeated.get_or_insert_repeated(key(), lookups, || k * 3), k * 3);
                    for _ in 0..lookups {
                        prop_assert_eq!(single.get_or_insert_with(key(), || k * 3), k * 3);
                    }
                }
                prop_assert_eq!(repeated.stats(), single.stats());
                prop_assert_eq!(survivors(&repeated, 12), survivors(&single, 12));
            }

            /// For any eviction-free workload the sharded cache scores exactly
            /// the same hit/miss counts (hence hit rate) as the single-shard
            /// cache, its merged stats are the sum of the shard stats, and the
            /// returned values are identical.
            #[test]
            fn sharded_stats_match_single_shard(
                workload in prop::collection::vec(0u64..24, 1..160),
                shards in 1usize..9,
            ) {
                // Capacity ≥ domain × shards ⇒ no shard can evict.
                let capacity = 24 * shards;
                let single: EvalCache<u64> = EvalCache::new(capacity);
                let sharded: ShardedEvalCache<u64> = ShardedEvalCache::new(shards, capacity);
                let single_values =
                    replay(&workload, |key, k| single.get_or_insert_with(key, || k * 7));
                let sharded_values =
                    replay(&workload, |key, k| sharded.get_or_insert_with(key, || k * 7));
                prop_assert_eq!(single_values, sharded_values);

                let merged = sharded.stats();
                prop_assert_eq!(single.stats(), merged);
                prop_assert_eq!(merged.evictions, 0);
                prop_assert!((single.stats().hit_rate() - merged.hit_rate()).abs() < 1e-15);
                prop_assert_eq!(single.len(), sharded.len());

                // The merged counters are exactly the component-wise sum of the
                // per-shard counters.
                let summed = sharded
                    .shard_stats()
                    .into_iter()
                    .fold(CacheStats::default(), CacheStats::merged);
                prop_assert_eq!(merged, summed);
            }

            /// Even under eviction pressure (where LRU horizons differ), every
            /// lookup is counted exactly once and values stay correct.
            #[test]
            fn sharded_lookups_are_fully_accounted(
                workload in prop::collection::vec(0u64..48, 1..200),
                shards in 1usize..7,
                capacity in 1usize..16,
            ) {
                let sharded: ShardedEvalCache<u64> = ShardedEvalCache::new(shards, capacity);
                let values =
                    replay(&workload, |key, k| sharded.get_or_insert_with(key, || k + 1));
                for (&k, &v) in workload.iter().zip(&values) {
                    prop_assert_eq!(v, k + 1);
                }
                let stats = sharded.stats();
                prop_assert_eq!(stats.hits + stats.misses, workload.len() as u64);
            }
        }
    }
}

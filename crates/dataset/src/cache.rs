//! A keyed store for shared, immutable preparation products.
//!
//! Sweeps over an experiment grid prepare the *same* dataset
//! (generate → split → scale) for every cell that shares a source;
//! [`PrepCache`] memoizes that work behind a content-hash key so each
//! distinct preparation runs exactly once and every consumer shares
//! one `Arc` of the result. Values are immutable once inserted —
//! caching can only remove redundant identical computation, never
//! change a result.
//!
//! Batch sweeps touch a handful of keys and want them all resident, so
//! [`PrepCache::new`] is unbounded — the historical behavior. A
//! long-lived server seeing an open-ended stream of configurations
//! would leak through an unbounded cache, so [`PrepCache::bounded`]
//! caps the resident set and evicts the least-recently-used entry on
//! overflow; evictions are reported in [`CacheStats::evictions`].
//! Eviction only drops the cache's own `Arc` — consumers already
//! holding the value keep it alive, and a later lookup simply rebuilds.
//!
//! # Example
//!
//! ```
//! use poisongame_data::cache::PrepCache;
//!
//! let cache: PrepCache<u64, Vec<f64>> = PrepCache::new();
//! let a = cache
//!     .get_or_try_insert_with::<(), _>(42, || Ok(vec![1.0, 2.0]))
//!     .unwrap();
//! let b = cache
//!     .get_or_try_insert_with::<(), _>(42, || unreachable!("cache hit"))
//!     .unwrap();
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hit/miss/eviction counters of a [`PrepCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Entries dropped to respect a bounded cache's capacity (always
    /// `0` for an unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident value plus its recency stamp (larger = used later).
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

/// The lock-guarded interior: the keyed slots, the builds in
/// progress, and the logical clock that stamps every touch.
#[derive(Debug)]
struct Inner<K, V> {
    slots: HashMap<K, Slot<V>>,
    building: HashMap<K, Arc<Flight<V>>>,
    tick: u64,
}

/// One build in progress: callers missing the same key wait here for
/// its landing instead of building again.
#[derive(Debug)]
struct Flight<V> {
    landing: Mutex<Option<Landing<V>>>,
    landed: Condvar,
}

/// How a build ended.
#[derive(Debug)]
enum Landing<V> {
    Built(Arc<V>),
    /// The build failed with this error (type-erased: the cache is
    /// generic over keys and values only).
    Failed(Arc<dyn Any + Send + Sync>),
    /// The builder panicked: waiters retry.
    Abandoned,
}

// Manual impl: a derived `Clone` would demand `V: Clone`.
impl<V> Clone for Landing<V> {
    fn clone(&self) -> Self {
        match self {
            Landing::Built(value) => Landing::Built(Arc::clone(value)),
            Landing::Failed(error) => Landing::Failed(Arc::clone(error)),
            Landing::Abandoned => Landing::Abandoned,
        }
    }
}

impl<V> Flight<V> {
    fn new() -> Self {
        Self {
            landing: Mutex::new(None),
            landed: Condvar::new(),
        }
    }

    fn land(&self, landing: Landing<V>) {
        *self.landing.lock().expect("cache flight poisoned") = Some(landing);
        self.landed.notify_all();
    }

    fn wait(&self) -> Landing<V> {
        let mut landing = self.landing.lock().expect("cache flight poisoned");
        loop {
            if let Some(landed) = landing.as_ref() {
                return landed.clone();
            }
            landing = self.landed.wait(landing).expect("cache flight poisoned");
        }
    }
}

/// Lands a flight as [`Landing::Abandoned`] if its builder unwinds
/// before landing it, so waiters never hang on a panicked build.
struct Abandon<'a, K: Eq + Hash, V> {
    cache: &'a PrepCache<K, V>,
    key: &'a K,
    flight: &'a Flight<V>,
    armed: bool,
}

impl<K: Eq + Hash, V> Drop for Abandon<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            // Poison-tolerant: this runs while unwinding.
            let mut inner = self.cache.map.lock().unwrap_or_else(|e| e.into_inner());
            inner.building.remove(self.key);
            drop(inner);
            self.flight.land(Landing::Abandoned);
        }
    }
}

impl<K: Eq + Hash, V> Inner<K, V> {
    /// Stamp `slot` as the most recently used entry.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A concurrent keyed map of `Arc`-shared immutable values, optionally
/// bounded with least-recently-used eviction.
///
/// Keys are compared by full `Eq`, never by hash alone — callers may
/// use a content-hash *inside* their key's `Hash` impl for speed, but
/// a hash collision can only cost a rebuild, not serve the wrong
/// value.
///
/// The builder closure runs *outside* the map lock, so distinct keys
/// prepare in parallel. Misses on one key are **single-flight**: the
/// first caller builds, and callers that miss the same key while that
/// build runs wait for it and share its `Arc` (or its error — a failed
/// build is never cached, so the next lookup after it builds afresh).
/// If the builder panics, its waiters retry as if they had never
/// waited.
#[derive(Debug)]
pub struct PrepCache<K, V> {
    map: Mutex<Inner<K, V>>,
    /// `None` = unbounded (the batch default); `Some(n)` keeps at most
    /// `n` resident entries.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

// Manual impl: a derived `Default` would demand `K: Default` and
// `V: Default`, but an empty cache needs no values at all.
impl<K: Eq + Hash, V> Default for PrepCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> PrepCache<K, V> {
    /// An empty, unbounded cache (the batch-sweep default: a grid's
    /// handful of keys should all stay resident).
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// An empty cache keeping at most `capacity` resident entries,
    /// evicting the least-recently-used on overflow. A capacity of `0`
    /// degenerates to "build every time" (nothing stays resident) —
    /// still correct, never caching.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            map: Mutex::new(Inner {
                slots: HashMap::new(),
                building: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The value under `key`, building and inserting it with `build`
    /// on a miss. Counts a hit when the value was already present or
    /// another caller's build of it was in flight (this caller waited
    /// and shares that build's `Arc`), a miss when `build` ran and
    /// succeeded. On a bounded cache the least-recently-used entries
    /// are evicted until the bound holds again.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error — to this caller and to every caller
    /// that waited on this build; nothing is inserted on failure.
    pub fn get_or_try_insert_with<E, F>(&self, key: K, build: F) -> Result<Arc<V>, E>
    where
        K: Clone,
        E: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<V, E>,
    {
        loop {
            let waiting = {
                let mut inner = self.map.lock().expect("cache map poisoned");
                let stamp = inner.touch();
                if let Some(slot) = inner.slots.get_mut(&key) {
                    slot.last_used = stamp;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(&slot.value));
                }
                match inner.building.get(&key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        inner.building.insert(key.clone(), Arc::clone(&flight));
                        drop(inner);
                        return self.lead(key, &flight, build);
                    }
                }
            };
            match waiting.wait() {
                Landing::Built(value) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                Landing::Failed(error) => {
                    if let Some(error) = error.downcast_ref::<E>() {
                        return Err(error.clone());
                    }
                    // A builder with another error type failed: build
                    // (or wait) afresh.
                }
                Landing::Abandoned => {}
            }
        }
    }

    /// Run the build of the `flight` this caller registered under
    /// `key`, then land it.
    fn lead<E, F>(&self, key: K, flight: &Flight<V>, build: F) -> Result<Arc<V>, E>
    where
        E: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<V, E>,
    {
        let mut abandon = Abandon {
            cache: self,
            key: &key,
            flight,
            armed: true,
        };
        let built = build();
        abandon.armed = false;
        drop(abandon);
        let mut inner = self.map.lock().expect("cache map poisoned");
        inner.building.remove(&key);
        match built {
            Ok(value) => {
                let value = Arc::new(value);
                self.misses.fetch_add(1, Ordering::Relaxed);
                let stamp = inner.touch();
                inner.slots.insert(
                    key,
                    Slot {
                        value: Arc::clone(&value),
                        last_used: stamp,
                    },
                );
                self.evict_over_capacity(&mut inner);
                drop(inner);
                flight.land(Landing::Built(Arc::clone(&value)));
                Ok(value)
            }
            Err(error) => {
                drop(inner);
                flight.land(Landing::Failed(Arc::new(error.clone())));
                Err(error)
            }
        }
    }

    /// Drop least-recently-used entries until the bound holds. Runs
    /// under the map lock; the returned `Arc`s consumers already hold
    /// stay alive regardless.
    fn evict_over_capacity(&self, inner: &mut Inner<K, V>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while inner.slots.len() > capacity {
            // Stamps are unique (one tick per touch), so the oldest
            // stamp identifies exactly one entry — no key clone needed.
            let oldest = inner
                .slots
                .values()
                .map(|slot| slot.last_used)
                .min()
                .expect("non-empty map above capacity");
            inner.slots.retain(|_, slot| slot.last_used != oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The value under `key`, if present (refreshes the entry's
    /// recency but does not touch the hit/miss counters).
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.map.lock().expect("cache map poisoned");
        let stamp = inner.touch();
        inner.slots.get_mut(key).map(|slot| {
            slot.last_used = stamp;
            Arc::clone(&slot.value)
        })
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache map poisoned").slots.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached value (counters are kept; explicit clears do
    /// not count as evictions).
    pub fn clear(&self) {
        self.map.lock().expect("cache map poisoned").slots.clear();
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Incremental FNV-1a content hasher for building cache keys out of
/// heterogeneous fields (enum tags, integers, float bit patterns, raw
/// text). Stable across platforms and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentHash(u64);

impl Default for ContentHash {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHash {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Fold raw bytes into the hash.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold `bytes` up to and including the first `stop` byte, in one
    /// loop that both hashes and searches. Returns the hash and how
    /// many bytes it folded: through `stop`, or all of `bytes` when
    /// `stop` is absent.
    pub fn bytes_through(mut self, bytes: &[u8], stop: u8) -> (Self, usize) {
        for (i, &b) in bytes.iter().enumerate() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
            if b == stop {
                return (self, i + 1);
            }
        }
        (self, bytes.len())
    }

    /// Fold a `u64` (little-endian bytes) into the hash.
    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Fold an `f64` by exact bit pattern into the hash.
    pub fn f64(self, value: f64) -> Self {
        self.u64(value.to_bits())
    }

    /// Fold a UTF-8 string into the hash.
    pub fn str(self, value: &str) -> Self {
        self.bytes(value.as_bytes())
    }

    /// The accumulated 64-bit key.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_shares_one_arc() {
        let cache: PrepCache<u64, String> = PrepCache::new();
        let a = cache
            .get_or_try_insert_with::<(), _>(1, || Ok("built".to_string()))
            .unwrap();
        let b = cache
            .get_or_try_insert_with::<(), _>(1, || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn distinct_keys_build_independently() {
        let cache: PrepCache<u64, u32> = PrepCache::new();
        for key in 0..5 {
            let v = cache
                .get_or_try_insert_with::<(), _>(key, || Ok(key as u32 * 10))
                .unwrap();
            assert_eq!(*v, key as u32 * 10);
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().misses, 5);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn build_failure_inserts_nothing() {
        let cache: PrepCache<u64, u32> = PrepCache::new();
        let out: Result<_, &str> = cache.get_or_try_insert_with(9, || Err("boom"));
        assert_eq!(out.unwrap_err(), "boom");
        assert!(cache.get(&9).is_none());
        // A later successful build fills the slot.
        let v = cache
            .get_or_try_insert_with::<&str, _>(9, || Ok(7))
            .unwrap();
        assert_eq!(*v, 7);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache: PrepCache<u64, u32> = PrepCache::new();
        cache.get_or_try_insert_with::<(), _>(1, || Ok(1)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().evictions, 0, "clear is not an eviction");
    }

    #[test]
    fn concurrent_same_key_converges_to_one_value() {
        let cache: Arc<PrepCache<u64, u64>> = Arc::new(PrepCache::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                *cache
                    .get_or_try_insert_with::<(), _>(5, || Ok(123))
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 123);
        }
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
    }

    /// Run `build` for key 5 from `threads` callers released together
    /// by a barrier; the builder sleeps so every caller misses while it
    /// runs. Returns each caller's result and how often `build` ran.
    fn racing_misses<E>(
        cache: &Arc<PrepCache<u64, u64>>,
        threads: usize,
        build: fn() -> Result<u64, E>,
    ) -> (Vec<Result<Arc<u64>, E>>, u64)
    where
        E: Clone + Send + Sync + 'static,
    {
        let builds = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cache, builds, barrier) =
                    (Arc::clone(cache), Arc::clone(&builds), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_try_insert_with(5, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        build()
                    })
                })
            })
            .collect();
        let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (results, builds.load(Ordering::SeqCst))
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        const THREADS: usize = 8;
        let cache: Arc<PrepCache<u64, u64>> = Arc::new(PrepCache::new());
        let (results, builds) = racing_misses::<()>(&cache, THREADS, || Ok(123));
        assert_eq!(builds, 1, "the builder ran once");
        let values: Vec<Arc<u64>> = results.into_iter().map(Result::unwrap).collect();
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert_eq!(*values[0], 123);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, THREADS as u64 - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_failed_flight_reaches_every_waiter_and_is_not_cached() {
        const THREADS: usize = 4;
        let cache: Arc<PrepCache<u64, u64>> = Arc::new(PrepCache::new());
        let (results, builds) = racing_misses(&cache, THREADS, || Err("boom"));
        assert_eq!(builds, 1, "waiters share the failed build");
        assert!(results.iter().all(|r| r.as_ref().unwrap_err() == &"boom"));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        // Nothing was cached: the next lookup builds afresh.
        let v = cache
            .get_or_try_insert_with::<&str, _>(5, || Ok(9))
            .unwrap();
        assert_eq!(*v, 9);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn waiters_retry_when_the_builder_panics() {
        let cache: Arc<PrepCache<u64, u64>> = Arc::new(PrepCache::new());
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let (cache, started) = (Arc::clone(&cache), Arc::clone(&started));
            std::thread::spawn(move || {
                let _ = cache.get_or_try_insert_with::<(), _>(5, || {
                    started.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("builder dies")
                });
            })
        };
        started.wait();
        // The leader's flight is registered: this caller waits on it,
        // sees it abandoned, and builds the value itself.
        let v = cache.get_or_try_insert_with::<(), _>(5, || Ok(77)).unwrap();
        assert_eq!(*v, 77);
        assert!(leader.join().is_err(), "the leader panicked");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hit_rate_math() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache: PrepCache<u64, u64> = PrepCache::bounded(2);
        assert_eq!(cache.capacity(), Some(2));
        cache.get_or_try_insert_with::<(), _>(1, || Ok(10)).unwrap();
        cache.get_or_try_insert_with::<(), _>(2, || Ok(20)).unwrap();
        // Touch key 1 so key 2 becomes the LRU entry.
        assert_eq!(*cache.get(&1).unwrap(), 10);
        cache.get_or_try_insert_with::<(), _>(3, || Ok(30)).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // The evicted key rebuilds on the next lookup — a miss, not an
        // error.
        cache.get_or_try_insert_with::<(), _>(2, || Ok(20)).unwrap();
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn eviction_does_not_invalidate_held_arcs() {
        let cache: PrepCache<u64, String> = PrepCache::bounded(1);
        let held = cache
            .get_or_try_insert_with::<(), _>(1, || Ok("keep me".to_string()))
            .unwrap();
        cache
            .get_or_try_insert_with::<(), _>(2, || Ok("other".to_string()))
            .unwrap();
        assert!(cache.get(&1).is_none(), "evicted from the cache");
        assert_eq!(*held, "keep me", "consumer's Arc survives eviction");
    }

    #[test]
    fn zero_capacity_never_caches_but_stays_correct() {
        let cache: PrepCache<u64, u64> = PrepCache::bounded(0);
        for _ in 0..3 {
            let v = cache.get_or_try_insert_with::<(), _>(7, || Ok(70)).unwrap();
            assert_eq!(*v, 70);
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let base = ContentHash::new().str("blobs").u64(7).f64(0.3).finish();
        let same = ContentHash::new().str("blobs").u64(7).f64(0.3).finish();
        assert_eq!(base, same);
        assert_ne!(
            base,
            ContentHash::new().str("blobs").u64(8).f64(0.3).finish()
        );
        assert_ne!(
            base,
            ContentHash::new().str("spam").u64(7).f64(0.3).finish()
        );
        assert_ne!(
            base,
            ContentHash::new().str("blobs").u64(7).f64(0.30001).finish()
        );
    }

    #[test]
    fn bytes_through_stops_after_the_stop_byte() {
        let text = b"1,2,1\n3,4,0\n";
        let (hash, n) = ContentHash::new().bytes_through(text, b'\n');
        assert_eq!(n, 6);
        assert_eq!(hash, ContentHash::new().bytes(&text[..6]));
        let (rest, m) = hash.bytes_through(&text[6..], b'\n');
        assert_eq!(m, 6);
        assert_eq!(rest, ContentHash::new().bytes(text));
        // No stop byte: everything is folded.
        let (all, k) = ContentHash::new().bytes_through(b"abc", b'\n');
        assert_eq!((all, k), (ContentHash::new().bytes(b"abc"), 3));
    }
}

//! The scenario-result cache: whole-response reuse for repeated requests.
//!
//! The circuit store (PR 5) makes *compilation* free on repeats, but an
//! identical `(circuit, vector set, config)` scenario request still
//! re-ran the full simulation/ATPG pipeline on every arrival — the
//! dominant cost for the companion paper's repeated n-detect sweeps
//! over one fixed circuit set. [`ScenarioCache`] closes that gap: it
//! maps a canonical request [`Fingerprint`] to the serialized *result*
//! payload, so the second identical request is a string clone instead
//! of a recompute.
//!
//! Design points, mirroring [`CircuitStore`](crate::CircuitStore):
//!
//! * **Canonical keys.** A [`Fingerprint`] is the [`Hash`] of the
//!   handlers' *resolved* request — the circuit's `NetlistHash`, the
//!   decoded pattern words or generator parameters, and every config
//!   field after defaulting — never of request text. JSON field
//!   order, whitespace, and spelled-out defaults all collapse onto one
//!   key; any semantic difference separates keys.
//! * **Single-flight.** Entries are `Arc<OnceLock<…>>` cells created
//!   under a shard lock and initialized outside it, so concurrent
//!   identical misses coalesce into one computation.
//! * **Size-aware.** Every cached payload's byte length is accounted
//!   against a configurable budget; overflowing it evicts the
//!   least-recently-used settled entries (never the one being
//!   inserted) until the budget holds. A zero budget disables the
//!   cache entirely.
//! * **Value-only.** The cache stores the serialized `result` object,
//!   not the envelope: the response for a hit is spliced around the
//!   caller's own `id`, byte-identical to what a cold computation
//!   would have produced.
//! * **Error-transparent.** A computation that fails settles its cell
//!   with the error, hands it to every coalesced waiter, and then
//!   forgets the entry — errors are never served from cache. A
//!   computation that panics settles its cell with the panic's message,
//!   forgets the entry, and re-raises the panic in its caller.

use std::any::Any;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::protocol::RequestError;

/// A 128-bit canonical request digest, used as the scenario-cache key.
///
/// Build one with [`Fingerprint::of`]; equality means "same resolved
/// request".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The fingerprint of `value`'s [`Hash`] stream, digested by an
    /// [`FpHasher`]: equal values fingerprint equally, and any hashed
    /// difference separates them.
    pub fn of<T: Hash + ?Sized>(value: &T) -> Self {
        let mut hasher = FpHasher::default();
        value.hash(&mut hasher);
        hasher.digest()
    }

    /// The low 64 bits (shard selection, logging).
    pub fn low64(self) -> u64 {
        self.0 as u64
    }
}

/// A streaming 128-bit [`Hasher`] for canonical request values.
///
/// Two independently seeded/multiplied 64-bit FNV-style lanes over the
/// written bytes. The standard `Hash` impls prefix every sequence with
/// its length and every enum with its variant, so field sequences
/// cannot alias (`("ab", "c")` hashes differently from `("a", "bc")`).
/// This is a stable fingerprint, not a cryptographic hash — collisions
/// are a cache-correctness risk only at the ~2⁻⁶⁴ birthday scale of
/// the entry count, far below any realistic working set.
///
/// # Examples
///
/// ```
/// use std::hash::Hash;
///
/// use adi_service::{Fingerprint, FpHasher};
///
/// let mut hasher = FpHasher::default();
/// ("deadbeef", 42u64).hash(&mut hasher);
/// assert_eq!(hasher.digest(), Fingerprint::of(&("deadbeef", 42u64)));
/// assert_ne!(hasher.digest(), Fingerprint::of(&("deadbeef", 43u64)));
/// ```
#[derive(Clone, Debug)]
pub struct FpHasher {
    a: u64,
    b: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl FpHasher {
    /// The 128-bit digest of everything written so far (the hasher can
    /// keep writing).
    pub fn digest(&self) -> Fingerprint {
        // splitmix64 finalizer on each lane so trailing writes diffuse.
        fn fmix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        Fingerprint((u128::from(fmix(self.a)) << 64) | u128::from(fmix(self.b ^ self.a)))
    }
}

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = self
                .b
                .rotate_left(29)
                .wrapping_add(u64::from(byte))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
    }

    /// The low 64 bits of [`digest`](FpHasher::digest).
    fn finish(&self) -> u64 {
        self.digest().low64()
    }
}

/// The message a panic was raised with (`"unknown panic"` for a
/// non-string payload).
pub(crate) fn panic_message(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// Sizing knobs for a [`ScenarioCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScenarioConfig {
    /// Number of independently locked shards (at least 1).
    pub shards: usize,
    /// Total byte budget for cached payloads; `0` disables the cache
    /// (every request computes, [`ScenarioOutcome::Bypass`]).
    pub budget_bytes: usize,
}

impl Default for ScenarioConfig {
    /// 8 shards, a 64 MiB payload budget.
    fn default() -> Self {
        ScenarioConfig {
            shards: 8,
            budget_bytes: 64 << 20,
        }
    }
}

impl ScenarioConfig {
    /// A configuration with the cache switched off.
    pub fn disabled() -> Self {
        ScenarioConfig {
            shards: 1,
            budget_bytes: 0,
        }
    }
}

/// How a [`ScenarioCache::get_or_compute`] call was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioOutcome {
    /// The payload was already cached.
    Hit,
    /// This call computed (and cached) the payload.
    Miss,
    /// Another call was computing this scenario; this one shares its
    /// result.
    Coalesced,
    /// The cache is disabled or the request opted out; computed fresh,
    /// nothing stored.
    Bypass,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScenarioStats {
    /// Requests served from a settled entry.
    pub hits: u64,
    /// Requests that computed (and inserted) their payload.
    pub misses: u64,
    /// Requests that joined another request's in-flight computation.
    pub coalesced: u64,
    /// Requests that skipped the cache (disabled or per-request bypass).
    pub bypassed: u64,
    /// Entries discarded to fit the byte budget.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes of cached payload currently accounted.
    pub bytes: usize,
    /// Configured payload budget.
    pub budget_bytes: usize,
}

type Cell = Arc<OnceLock<Result<Arc<String>, RequestError>>>;

struct Entry {
    cell: Cell,
    last_used: u64,
}

type Shard = HashMap<Fingerprint, Entry>;

/// A sharded, byte-budgeted, single-flight cache of serialized scenario
/// results. See the module docs for the design.
pub struct ScenarioCache {
    shards: Vec<Mutex<Shard>>,
    budget_bytes: usize,
    bytes: AtomicUsize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    bypassed: AtomicU64,
    evictions: AtomicU64,
}

impl ScenarioCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    pub fn new(config: ScenarioConfig) -> Self {
        assert!(config.shards > 0, "at least one shard required");
        ScenarioCache {
            shards: (0..config.shards).map(|_| Mutex::new(Shard::new())).collect(),
            budget_bytes: config.budget_bytes,
            bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns `true` if the cache stores nothing (zero byte budget).
    pub fn is_disabled(&self) -> bool {
        self.budget_bytes == 0
    }

    fn shard_of(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[(fp.low64() % self.shards.len() as u64) as usize]
    }

    /// Computes `compute()` once per fingerprint and shares the payload:
    /// a settled entry is returned directly, an in-flight one is waited
    /// on, and a fresh one runs `compute` on behalf of every concurrent
    /// caller. Successful payloads are cached (within the byte budget);
    /// errors are handed to the waiters and forgotten, and a panic in
    /// `compute` forgets the entry before it propagates.
    pub fn get_or_compute<F>(
        &self,
        fp: Fingerprint,
        compute: F,
    ) -> (Result<Arc<String>, RequestError>, ScenarioOutcome)
    where
        F: FnOnce() -> Result<String, RequestError>,
    {
        if self.is_disabled() {
            self.bypassed.fetch_add(1, Ordering::Relaxed);
            return (compute().map(Arc::new), ScenarioOutcome::Bypass);
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let (cell, outcome) = {
            let mut shard = self.shard_of(fp).lock().expect("scenario shard poisoned");
            match shard.get_mut(&fp) {
                Some(entry) => {
                    entry.last_used = stamp;
                    let outcome = if entry.cell.get().is_some() {
                        ScenarioOutcome::Hit
                    } else {
                        ScenarioOutcome::Coalesced
                    };
                    (entry.cell.clone(), outcome)
                }
                None => {
                    let cell: Cell = Arc::new(OnceLock::new());
                    shard.insert(
                        fp,
                        Entry {
                            cell: Arc::clone(&cell),
                            last_used: stamp,
                        },
                    );
                    (cell, ScenarioOutcome::Miss)
                }
            }
        };
        match outcome {
            ScenarioOutcome::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
            ScenarioOutcome::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
            ScenarioOutcome::Coalesced => self.coalesced.fetch_add(1, Ordering::Relaxed),
            ScenarioOutcome::Bypass => unreachable!("bypass returns above"),
        };
        // Compute (or wait for the computing thread) outside the shard
        // lock. The thread whose closure runs accounts the payload.
        let mut panicked = None;
        let result = cell.get_or_init(|| match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(Ok(payload)) => {
                self.bytes.fetch_add(payload.len(), Ordering::Relaxed);
                Ok(Arc::new(payload))
            }
            Ok(Err(e)) => Err(e),
            Err(panic) => {
                let message = format!("internal error: {}", panic_message(&*panic));
                panicked = Some(panic);
                Err(RequestError::new(message))
            }
        });
        if let Some(panic) = panicked {
            // The cell settled with the panic's message for any waiter;
            // forget it like any error, then let the panic go on.
            self.forget(fp, &cell);
            resume_unwind(panic);
        }
        match result {
            Ok(payload) => {
                let payload = Arc::clone(payload);
                if outcome == ScenarioOutcome::Miss {
                    self.enforce_budget(fp);
                }
                (Ok(payload), outcome)
            }
            Err(e) => {
                let e = e.clone();
                self.forget(fp, &cell);
                (Err(e), outcome)
            }
        }
    }

    /// Drops the entry for `fp` if it still holds `cell` (error and
    /// panic cleanup; racing callers make this a no-op after the first).
    fn forget(&self, fp: Fingerprint, cell: &Cell) {
        let mut shard = self.shard_of(fp).lock().expect("scenario shard poisoned");
        if shard.get(&fp).is_some_and(|e| Arc::ptr_eq(&e.cell, cell)) {
            shard.remove(&fp);
        }
    }

    /// Evicts least-recently-used settled entries (never `keep`, never
    /// an in-flight cell) until the accounted bytes fit the budget or
    /// nothing evictable remains.
    fn enforce_budget(&self, keep: Fingerprint) {
        while self.bytes.load(Ordering::Relaxed) > self.budget_bytes {
            let mut victim: Option<(usize, Fingerprint, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock().expect("scenario shard poisoned");
                for (&fp, entry) in shard.iter() {
                    if fp == keep || !matches!(entry.cell.get(), Some(Ok(_))) {
                        continue;
                    }
                    if victim.is_none_or(|(_, _, stamp)| entry.last_used < stamp) {
                        victim = Some((i, fp, entry.last_used));
                    }
                }
            }
            let Some((i, fp, _)) = victim else { break };
            let mut shard = self.shards[i].lock().expect("scenario shard poisoned");
            // Re-check under the lock: a racing eviction may have beaten
            // us here, and only the remover may subtract the bytes.
            if let Some(entry) = shard.get(&fp) {
                if let Some(Ok(payload)) = entry.cell.get() {
                    let len = payload.len();
                    shard.remove(&fp);
                    self.bytes.fetch_sub(len, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Counts one cache-opt-out request (per-request `"cache": "bypass"`).
    pub fn note_bypass(&self) {
        self.bypassed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("scenario shard poisoned").len())
            .sum()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ScenarioStats {
        ScenarioStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn fp(tag: u64) -> Fingerprint {
        Fingerprint::of(&tag)
    }

    #[test]
    fn hit_miss_and_error_accounting() {
        let cache = ScenarioCache::new(ScenarioConfig::default());
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::Relaxed);
            Ok("payload".to_string())
        };
        let (r1, o1) = cache.get_or_compute(fp(1), compute);
        let (r2, o2) = cache.get_or_compute(fp(1), || panic!("must not recompute"));
        assert_eq!(o1, ScenarioOutcome::Miss);
        assert_eq!(o2, ScenarioOutcome::Hit);
        assert!(Arc::ptr_eq(&r1.unwrap(), &r2.unwrap()), "hits share the payload");
        assert_eq!(runs.load(Ordering::Relaxed), 1);

        // Errors reach the caller but are never retained.
        let (err, o3) = cache.get_or_compute(fp(2), || Err(RequestError::new("boom")));
        assert_eq!(o3, ScenarioOutcome::Miss);
        assert_eq!(err.unwrap_err().0, "boom");
        assert_eq!(cache.len(), 1, "failed entry forgotten");
        let (_, o4) = cache.get_or_compute(fp(2), || Ok("ok now".to_string()));
        assert_eq!(o4, ScenarioOutcome::Miss, "error was not cached");

        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 3, 0));
        assert_eq!(s.bytes, "payload".len() + "ok now".len());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        // Budget fits two 8-byte payloads, not three.
        let cache = ScenarioCache::new(ScenarioConfig {
            shards: 1,
            budget_bytes: 16,
        });
        let payload = || Ok("12345678".to_string());
        let _ = cache.get_or_compute(fp(1), payload);
        let _ = cache.get_or_compute(fp(2), payload);
        // Touch 1 so 2 is the LRU entry.
        let (_, o) = cache.get_or_compute(fp(1), || panic!("cached"));
        assert_eq!(o, ScenarioOutcome::Hit);
        let _ = cache.get_or_compute(fp(3), payload);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 16);
        assert_eq!(
            cache.get_or_compute(fp(1), || panic!("cached")).1,
            ScenarioOutcome::Hit,
            "recently used entry survives"
        );
        assert_eq!(
            cache.get_or_compute(fp(3), || panic!("cached")).1,
            ScenarioOutcome::Hit,
            "new entry survives its own insertion"
        );
        assert_eq!(
            cache.get_or_compute(fp(2), || Ok("recomputed".to_string())).1,
            ScenarioOutcome::Miss,
            "LRU entry was evicted"
        );
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ScenarioCache::new(ScenarioConfig::disabled());
        assert!(cache.is_disabled());
        let (_, o1) = cache.get_or_compute(fp(1), || Ok("x".to_string()));
        let (_, o2) = cache.get_or_compute(fp(1), || Ok("x".to_string()));
        assert_eq!((o1, o2), (ScenarioOutcome::Bypass, ScenarioOutcome::Bypass));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bypassed, 2);
    }

    #[test]
    fn concurrent_identical_misses_coalesce() {
        use std::sync::Barrier;
        let cache = ScenarioCache::new(ScenarioConfig::default());
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (r, _) = cache.get_or_compute(fp(7), || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        // Widen the in-flight window so waiters coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok("shared".to_string())
                    });
                    assert_eq!(*r.unwrap(), "shared");
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly one computation");
        let s = cache.stats();
        assert_eq!(s.hits + s.misses + s.coalesced, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn a_panicking_computation_leaves_no_entry() {
        let cache = ScenarioCache::new(ScenarioConfig::default());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(fp(1), || panic!("compute panicked"))
        }));
        assert!(unwound.is_err(), "the panic reaches the caller");
        assert_eq!(cache.stats().entries, 0, "no ghost entry");
        let (r, o) = cache.get_or_compute(fp(1), || Ok("after".to_string()));
        assert_eq!(o, ScenarioOutcome::Miss, "a repeat recomputes, not coalesces");
        assert_eq!(*r.unwrap(), "after");
        let s = cache.stats();
        assert_eq!((s.misses, s.coalesced, s.entries), (2, 0, 1));
    }

    #[test]
    fn distinct_values_get_distinct_fingerprints() {
        // Length-prefixing: the same bytes split differently must not
        // alias.
        assert_ne!(Fingerprint::of(&("ab", "c")), Fingerprint::of(&("a", "bc")));
        // Variant tags separate enum values with identical bodies.
        #[derive(Hash)]
        enum Op {
            Coverage(u64),
            Ndetect(u64),
        }
        assert_ne!(Fingerprint::of(&Op::Coverage(1)), Fingerprint::of(&Op::Ndetect(1)));
        // Options distinguish None from zero.
        assert_ne!(Fingerprint::of(&None::<u64>), Fingerprint::of(&Some(0u64)));
        // Equal values agree, and the 64-bit `finish` is the digest's
        // low half.
        let mut h = FpHasher::default();
        (7u64, "x").hash(&mut h);
        assert_eq!(h.digest(), Fingerprint::of(&(7u64, "x")));
        assert_eq!(h.finish(), h.digest().low64());
    }
}

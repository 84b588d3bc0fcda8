//! The hash-keyed compiled-circuit cache.
//!
//! [`CircuitStore`] maps [`NetlistHash`]es to [`CompiledCircuit`]s so a
//! long-lived server answers many vector-set/ordering scenarios per
//! circuit while compiling each distinct circuit exactly once:
//!
//! * **Sharded.** Entries are spread over `N` independently locked
//!   shards by hash, so concurrent requests for different circuits do
//!   not contend on one mutex.
//! * **Single-flight.** Each entry is an `Arc<OnceLock<CompiledCircuit>>`
//!   created under the shard lock but initialized *outside* it.
//!   Concurrent first requests for the same uncached circuit all reach
//!   the same cell and `OnceLock` runs exactly one compile while the
//!   rest block on the result — verified against
//!   [`LevelizedCsr::build_count`](adi_netlist::LevelizedCsr::build_count)
//!   by the store's concurrency tests.
//! * **Cost-bounded.** Each shard holds at most `⌈capacity / shards⌉`
//!   entries; inserting past that evicts the entry with the lowest
//!   *replacement cost* — the netlist's node count plus its fanin-edge
//!   count, the size that compile time and resident memory both grow
//!   with — so a cheap throwaway circuit is always sacrificed before an
//!   expensive one, regardless of which was touched last. The cost is
//!   known at insert, so entries still compiling are ranked by it too,
//!   and the ranking never depends on timing. Recency (a global atomic
//!   clock) only breaks cost ties.
//! * **Counted.** Hits, misses (compilations), coalesced waiters, and
//!   evictions are tracked and reported in every `compile` response.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use adi_netlist::{CompiledCircuit, Netlist, NetlistHash};

/// Sizing knobs for a [`CircuitStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreConfig {
    /// Number of independently locked shards (at least 1).
    pub shards: usize,
    /// Maximum number of cached compilations across all shards (at
    /// least 1; rounded up to a multiple of `shards`).
    pub capacity: usize,
}

impl Default for StoreConfig {
    /// 8 shards, 64 cached circuits — plenty for a benchmark-suite
    /// working set while bounding memory on hostile traffic.
    fn default() -> Self {
        StoreConfig {
            shards: 8,
            capacity: 64,
        }
    }
}

/// How a [`CircuitStore::get_or_compile`] call was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The compilation was already cached.
    Hit,
    /// This call inserted the entry; the compile ran on behalf of it.
    Miss,
    /// Another call was already compiling this circuit; this one waited
    /// for (and shares) that compilation.
    Coalesced,
}

/// A point-in-time snapshot of the store's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreStats {
    /// Requests satisfied by an already-initialized entry (including
    /// successful hash lookups).
    pub hits: u64,
    /// Compilations performed (plus failed hash lookups).
    pub misses: u64,
    /// Requests that joined another request's in-flight compilation.
    pub coalesced: u64,
    /// Entries discarded to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured total capacity.
    pub capacity: usize,
    /// Estimated resident bytes of the settled compilations, including
    /// the lazy artifacts built so far.
    pub bytes: usize,
}

struct Entry {
    cell: Arc<OnceLock<CompiledCircuit>>,
    /// The replacement cost (see [`replacement_cost`]).
    cost: usize,
    last_used: u64,
}

/// What evicting `netlist`'s compilation would throw away: its node
/// count plus its fanin-edge count, which compile time and resident
/// bytes both grow with. Known before the compile starts.
fn replacement_cost(netlist: &Netlist) -> usize {
    let edges: usize = netlist.node_ids().map(|n| netlist.fanins(n).len()).sum();
    netlist.num_nodes() + edges
}

type Shard = HashMap<NetlistHash, Entry>;

/// A sharded, cost-bounded, single-flight cache of compiled circuits.
///
/// # Examples
///
/// ```
/// use adi_netlist::bench_format;
/// use adi_service::{CacheOutcome, CircuitStore, StoreConfig};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let store = CircuitStore::new(StoreConfig::default());
/// let n = bench_format::parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "inv")?;
/// let (first, outcome) = store.get_or_compile(n.clone());
/// assert_eq!(outcome, CacheOutcome::Miss);
///
/// // A renamed copy of the same structure is the same cache entry.
/// let renamed = bench_format::parse("INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n", "inv2")?;
/// let (second, outcome) = store.get_or_compile(renamed);
/// assert_eq!(outcome, CacheOutcome::Hit);
/// assert!(first.same_compilation(&second));
/// assert_eq!(store.lookup(first.content_hash()).unwrap().content_hash(),
///            first.content_hash());
/// # Ok(())
/// # }
/// ```
pub struct CircuitStore {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl CircuitStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.capacity` is zero.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "at least one shard required");
        assert!(config.capacity > 0, "capacity must be positive");
        let per_shard_capacity = config.capacity.div_ceil(config.shards);
        CircuitStore {
            shards: (0..config.shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
            capacity: per_shard_capacity * config.shards,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, hash: NetlistHash) -> &Mutex<Shard> {
        // The content hash is already well mixed; fold it onto the
        // shard count.
        &self.shards[(hash.low64() % self.shards.len() as u64) as usize]
    }

    /// Returns the cached compilation of `netlist`'s structure, compiling
    /// it (exactly once per distinct [`NetlistHash`], however many
    /// threads race here) on first request.
    pub fn get_or_compile(&self, netlist: Netlist) -> (CompiledCircuit, CacheOutcome) {
        let (cell, outcome) = self.claim(&netlist);
        // Compile (or wait for the thread that is compiling) outside the
        // shard lock: a slow compile must not block unrelated circuits
        // that happen to share the shard.
        let circuit = cell
            .get_or_init(|| CompiledCircuit::compile(netlist))
            .clone();
        (circuit, outcome)
    }

    /// The locked half of [`get_or_compile`](Self::get_or_compile):
    /// finds or inserts `netlist`'s cell (evicting the cheapest entry of
    /// a full shard first) and counts the outcome. The cell is left for
    /// the caller to initialize.
    fn claim(&self, netlist: &Netlist) -> (Arc<OnceLock<CompiledCircuit>>, CacheOutcome) {
        let hash = netlist.content_hash();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let (cell, outcome) = {
            let mut shard = self.shard_of(hash).lock().expect("store shard poisoned");
            match shard.get_mut(&hash) {
                Some(entry) => {
                    entry.last_used = stamp;
                    let outcome = if entry.cell.get().is_some() {
                        CacheOutcome::Hit
                    } else {
                        CacheOutcome::Coalesced
                    };
                    (entry.cell.clone(), outcome)
                }
                None => {
                    if shard.len() >= self.per_shard_capacity {
                        self.evict_cheapest(&mut shard);
                    }
                    let cell = Arc::new(OnceLock::new());
                    shard.insert(
                        hash,
                        Entry {
                            cell: Arc::clone(&cell),
                            cost: replacement_cost(netlist),
                            last_used: stamp,
                        },
                    );
                    (cell, CacheOutcome::Miss)
                }
            }
        };
        match outcome {
            CacheOutcome::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::Coalesced => self.coalesced.fetch_add(1, Ordering::Relaxed),
        };
        (cell, outcome)
    }

    /// The cached compilation for `hash`, if present **and** fully
    /// compiled. An entry whose first compile is still in flight reads
    /// as absent — hash-addressed requests only know a hash because some
    /// earlier `compile` completed, so this races only with eviction.
    pub fn lookup(&self, hash: NetlistHash) -> Option<CompiledCircuit> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(hash).lock().expect("store shard poisoned");
        let found = shard.get_mut(&hash).and_then(|entry| {
            entry
                .cell
                .get()
                .cloned()
                .inspect(|_| entry.last_used = stamp)
        });
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Evicts the entry of `shard` with the lowest replacement cost,
    /// breaking ties by least-recent use. Settled and in-flight entries
    /// are ranked alike (waiters on an evicted in-flight entry keep their
    /// `Arc`, so eviction never breaks an ongoing compile — the slot is
    /// just forgotten).
    fn evict_cheapest(&self, shard: &mut Shard) {
        let victim = shard
            .iter()
            .min_by_key(|(_, e)| (e.cost, e.last_used))
            .map(|(&h, _)| h);
        if let Some(h) = victim {
            shard.remove(&h);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").len())
            .sum()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let shard = shard.lock().expect("store shard poisoned");
            entries += shard.len();
            bytes += shard
                .values()
                .filter_map(|e| e.cell.get())
                .map(CompiledCircuit::resident_bytes)
                .sum::<usize>();
        }
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;

    fn inv(tag: usize) -> Netlist {
        // Structurally distinct circuits: a chain of `tag + 1` inverters.
        let mut text = String::from("INPUT(a)\nOUTPUT(y)\n");
        let mut prev = "a".to_string();
        for i in 0..tag {
            text.push_str(&format!("n{i} = NOT({prev})\n"));
            prev = format!("n{i}");
        }
        text.push_str(&format!("y = NOT({prev})\n"));
        bench_format::parse(&text, "chain").unwrap()
    }

    #[test]
    fn hit_miss_and_stats_accounting() {
        let store = CircuitStore::new(StoreConfig::default());
        let (_, o1) = store.get_or_compile(inv(0));
        let (_, o2) = store.get_or_compile(inv(0));
        let (_, o3) = store.get_or_compile(inv(1));
        assert_eq!(
            (o1, o2, o3),
            (CacheOutcome::Miss, CacheOutcome::Hit, CacheOutcome::Miss)
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 2, 0));
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn lookup_only_returns_settled_entries() {
        let store = CircuitStore::new(StoreConfig::default());
        let n = inv(0);
        let hash = n.content_hash();
        assert!(store.lookup(hash).is_none());
        let (compiled, _) = store.get_or_compile(n);
        let found = store.lookup(hash).expect("cached now");
        assert!(found.same_compilation(&compiled));
    }

    #[test]
    fn cost_aware_eviction_sacrifices_the_cheap_entry_over_the_recent_one() {
        // One shard, capacity 2: deterministic eviction. A single
        // inverter vs a 400-gate chain — the chain's node-plus-edge cost
        // dominates the inverter's.
        let store = CircuitStore::new(StoreConfig {
            shards: 1,
            capacity: 2,
        });
        let (cheap, costly, next) = (inv(0), inv(400), inv(401));
        let (h_cheap, h_costly, h_next) =
            (cheap.content_hash(), costly.content_hash(), next.content_hash());
        store.get_or_compile(costly);
        store.get_or_compile(cheap);
        // Touch the cheap entry so it is the *most* recently used: raw
        // LRU would now evict the costly chain. Cost-aware eviction must
        // still sacrifice the cheap inverter.
        assert!(store.lookup(h_cheap).is_some());
        store.get_or_compile(next);
        assert_eq!(store.len(), 2);
        assert!(store.lookup(h_costly).is_some(), "costly entry survives despite being LRU");
        assert!(store.lookup(h_next).is_some(), "new entry present");
        assert!(store.lookup(h_cheap).is_none(), "cheapest entry evicted");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn in_flight_entries_are_ranked_by_cost_too() {
        // One shard, capacity 3. The expensive chain is settled; two
        // cheap chains are claimed but still compiling, as when their
        // compiling threads are preempted. Inserting a fourth circuit
        // must evict a cheap in-flight entry, never the expensive one.
        let store = CircuitStore::new(StoreConfig {
            shards: 1,
            capacity: 3,
        });
        let costly = inv(400);
        let h_costly = costly.content_hash();
        store.get_or_compile(costly);
        for n in [inv(1), inv(2)] {
            let (cell, outcome) = store.claim(&n);
            assert!(cell.get().is_none());
            assert_eq!(outcome, CacheOutcome::Miss);
        }
        store.get_or_compile(inv(3));
        assert_eq!(store.len(), 3);
        assert_eq!(store.stats().evictions, 1);
        assert!(
            store.lookup(h_costly).is_some(),
            "the settled expensive entry survives in-flight cheap ones"
        );
    }

    #[test]
    fn stats_report_resident_bytes() {
        let store = CircuitStore::new(StoreConfig::default());
        assert_eq!(store.stats().bytes, 0);
        let (compiled, _) = store.get_or_compile(inv(3));
        let settled = store.stats().bytes;
        assert_eq!(settled, compiled.resident_bytes());
        // Lazy artifacts built after the compile count too.
        let _ = compiled.fault_region_index(compiled.collapsed_faults());
        assert!(store.stats().bytes > settled);
        assert_eq!(store.stats().bytes, compiled.resident_bytes());
    }

    #[test]
    fn capacity_rounds_up_to_shards() {
        let store = CircuitStore::new(StoreConfig {
            shards: 4,
            capacity: 6,
        });
        assert_eq!(store.stats().capacity, 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        CircuitStore::new(StoreConfig {
            shards: 0,
            capacity: 1,
        });
    }
}

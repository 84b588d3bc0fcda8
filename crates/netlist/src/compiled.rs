//! A compiled circuit: every per-circuit analysis artifact, built once.
//!
//! Each stage of the ADI pipeline (select `U` → no-drop simulation → ADI →
//! ordered ATPG) consumes the same derived data: the levelized CSR view,
//! the fanout-free-region decomposition, the stuck-at fault lists, and
//! the SCOAP testability measures. Historically every entry point
//! re-derived what it needed from a bare [`Netlist`], so a single
//! experiment paid the O(E) setups five or more times.
//!
//! [`CompiledCircuit`] is the fix: an immutable, cheaply-clonable
//! (`Arc`-backed) compilation of a netlist that owns those artifacts and
//! hands out references. Compile once, then thread the compiled circuit
//! through every simulator, analysis, and generator — clones are
//! reference-count bumps, so sessions, threads, and long-lived services
//! can all share one compilation.
//!
//! The eager part of a compilation is the [`LevelizedCsr`] view and the
//! [`FfrPartition`] (both consumed by every fault simulation). The fault
//! lists, the [`FaultRegionIndex`] of each of them (the stem-region fault
//! simulator's grouping of a list by fanout-free region) and the SCOAP
//! measures are lazily initialized behind [`OnceLock`]s on first use and
//! shared from then on.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use adi_obs::SpanSite;

use crate::fault::FaultList;
use crate::{FaultRegionIndex, FfrPartition, LevelizedCsr, Netlist, NetlistHash, Scoap};

// Compile-phase instrumentation sites (see `adi-obs`): the eager
// levelize/FFR builds plus the lazy fault lists and SCOAP measures, so a
// per-request trace shows which compile work a cold request paid for. A
// fault-region index is built for its first engine and timed inside that
// simulation's span.
static SPAN_LEVELIZE: SpanSite = SpanSite::new("compile.levelize");
static SPAN_FFR: SpanSite = SpanSite::new("compile.ffr");
static SPAN_FAULT_LIST: SpanSite = SpanSite::new("compile.fault_list");
static SPAN_SCOAP: SpanSite = SpanSite::new("compile.scoap");

/// An immutable, shareable compilation of a [`Netlist`] and its derived
/// analysis artifacts.
///
/// Cloning is cheap (an `Arc` bump); all accessors return references
/// into the shared compilation.
///
/// # Examples
///
/// ```
/// use adi_netlist::{bench_format, CompiledCircuit};
///
/// # fn main() -> Result<(), adi_netlist::NetlistError> {
/// let n = bench_format::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?;
/// let compiled = CompiledCircuit::compile(n);
///
/// // The artifacts are built once and shared by every clone.
/// let view = compiled.view();
/// assert_eq!(view.num_nodes(), compiled.netlist().num_nodes());
/// let faults = compiled.collapsed_faults();
/// assert!(faults.len() > 0);
/// let scoap = compiled.scoap();
/// let y = compiled.netlist().find_node("y").unwrap();
/// assert_eq!(scoap.co(y), 0); // primary output
///
/// let clone = compiled.clone(); // Arc bump, no recompilation
/// assert!(std::ptr::eq(clone.view(), compiled.view()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    inner: Arc<Compilation>,
}

#[derive(Debug)]
struct Compilation {
    netlist: Netlist,
    view: LevelizedCsr,
    ffr: FfrPartition,
    collapsed: OnceLock<FaultList>,
    full: OnceLock<FaultList>,
    /// The fault-region indexes of `collapsed` and `full`.
    collapsed_regions: OnceLock<Arc<FaultRegionIndex>>,
    full_regions: OnceLock<Arc<FaultRegionIndex>>,
    scoap: OnceLock<Scoap>,
    hash: OnceLock<NetlistHash>,
}

/// A compilation hashes as its [`content_hash`](CompiledCircuit::content_hash):
/// every compilation of one structure hashes alike.
impl Hash for CompiledCircuit {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.content_hash().hash(state);
    }
}

impl CompiledCircuit {
    /// Compiles `netlist`: builds the levelized CSR view and the FFR
    /// decomposition eagerly; fault lists and SCOAP measures are
    /// initialized lazily on first access.
    ///
    /// This is the only place a compiled pipeline runs
    /// [`LevelizedCsr::build`]; [`LevelizedCsr::build_count`] can verify
    /// that.
    pub fn compile(netlist: Netlist) -> Self {
        let view = {
            let _span = SPAN_LEVELIZE.enter();
            LevelizedCsr::build(&netlist)
        };
        let ffr = {
            let _span = SPAN_FFR.enter();
            FfrPartition::compute(&netlist)
        };
        CompiledCircuit {
            inner: Arc::new(Compilation {
                netlist,
                view,
                ffr,
                collapsed: OnceLock::new(),
                full: OnceLock::new(),
                collapsed_regions: OnceLock::new(),
                full_regions: OnceLock::new(),
                scoap: OnceLock::new(),
                hash: OnceLock::new(),
            }),
        }
    }

    /// The compiled netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.inner.netlist
    }

    /// The levelized, position-indexed CSR view (with output-reachability
    /// masks) every simulation hot path runs on.
    #[inline]
    pub fn view(&self) -> &LevelizedCsr {
        &self.inner.view
    }

    /// The fanout-free-region decomposition consumed by the stem-region
    /// fault-simulation engine and the FFR ordering baseline.
    #[inline]
    pub fn ffr(&self) -> &FfrPartition {
        &self.inner.ffr
    }

    /// The structurally collapsed stuck-at fault list (built on first
    /// access, then shared).
    pub fn collapsed_faults(&self) -> &FaultList {
        self.inner.collapsed.get_or_init(|| {
            let _span = SPAN_FAULT_LIST.enter();
            FaultList::collapsed(&self.inner.netlist)
        })
    }

    /// The full (uncollapsed) stuck-at fault universe (built on first
    /// access, then shared).
    pub fn full_faults(&self) -> &FaultList {
        self.inner.full.get_or_init(|| {
            let _span = SPAN_FAULT_LIST.enter();
            FaultList::full(&self.inner.netlist)
        })
    }

    /// The [`FaultRegionIndex`] of `faults` over this compilation.
    ///
    /// When `faults` is this compilation's own collapsed or full list
    /// (the same list, matched by address, not an equal copy), the index
    /// is built on first request and shared from then on. Any other list
    /// gets a fresh index, built by the same function.
    ///
    /// # Panics
    ///
    /// Panics if any fault references a node outside the circuit.
    pub fn fault_region_index(&self, faults: &FaultList) -> Arc<FaultRegionIndex> {
        let inner = &*self.inner;
        let build = || Arc::new(FaultRegionIndex::build(&inner.view, &inner.ffr, faults));
        let memo = [
            (&inner.collapsed, &inner.collapsed_regions),
            (&inner.full, &inner.full_regions),
        ]
        .into_iter()
        .find(|(list, _)| list.get().is_some_and(|list| std::ptr::eq(list, faults)));
        match memo {
            Some((_, index)) => Arc::clone(index.get_or_init(build)),
            None => build(),
        }
    }

    /// The SCOAP controllability/observability measures guiding PODEM
    /// (built on first access, then shared).
    pub fn scoap(&self) -> &Scoap {
        self.inner.scoap.get_or_init(|| {
            let _span = SPAN_SCOAP.enter();
            Scoap::compute(&self.inner.netlist)
        })
    }

    /// The canonical content hash of the compiled netlist (computed on
    /// first access, then shared) — the key a [`NetlistHash`]-addressed
    /// circuit cache stores this compilation under.
    pub fn content_hash(&self) -> NetlistHash {
        *self
            .inner
            .hash
            .get_or_init(|| self.inner.netlist.content_hash())
    }

    /// Returns `true` if `other` shares this compilation (clone of the
    /// same `compile` call).
    pub fn same_compilation(&self, other: &CompiledCircuit) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// An estimate of the compilation's resident size in bytes, for
    /// cost-aware cache eviction.
    ///
    /// The estimate is structural — nodes, CSR edges, and whichever lazy
    /// artifacts have been built — not an exact allocator measurement,
    /// but it orders circuits by footprint correctly: a 10× larger
    /// circuit reports a ~10× larger size.
    pub fn resident_bytes(&self) -> usize {
        let nodes = self.inner.view.num_nodes();
        let mut edges = 0usize;
        for p in 0..nodes {
            edges += self.inner.view.fanins_at(p).len() + self.inner.view.fanouts_at(p).len();
        }
        // Per node: netlist node (~64B with name), CSR row metadata
        // (~32B), FFR root (~4B). Per edge: one u32 endpoint.
        let mut bytes = nodes * 100 + edges * 4;
        for list in [self.inner.collapsed.get(), self.inner.full.get()]
            .into_iter()
            .flatten()
        {
            bytes += list.len() * 16;
        }
        for index in [
            self.inner.collapsed_regions.get(),
            self.inner.full_regions.get(),
        ]
        .into_iter()
        .flatten()
        {
            bytes += index.resident_bytes();
        }
        if self.inner.scoap.get().is_some() {
            bytes += nodes * 12;
        }
        bytes
    }
}

impl From<Netlist> for CompiledCircuit {
    fn from(netlist: Netlist) -> Self {
        CompiledCircuit::compile(netlist)
    }
}

impl From<&Netlist> for CompiledCircuit {
    /// Compiles a clone of the borrowed netlist. Prefer
    /// [`CompiledCircuit::compile`] with an owned netlist when possible.
    fn from(netlist: &Netlist) -> Self {
        CompiledCircuit::compile(netlist.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;
    use crate::fault::FaultId;
    use crate::PackedSite;

    const MUX: &str = "
INPUT(a)
INPUT(s)
INPUT(b)
OUTPUT(y)
ns = NOT(s)
t0 = AND(a, ns)
t1 = AND(b, s)
y = OR(t0, t1)
";

    fn compiled() -> CompiledCircuit {
        CompiledCircuit::compile(bench_format::parse(MUX, "mux").unwrap())
    }

    #[test]
    fn artifacts_match_per_call_builds() {
        let c = compiled();
        let n = c.netlist().clone();
        assert_eq!(c.view(), &LevelizedCsr::build(&n));
        assert_eq!(c.ffr(), &FfrPartition::compute(&n));
        assert_eq!(c.collapsed_faults(), &FaultList::collapsed(&n));
        assert_eq!(c.full_faults(), &FaultList::full(&n));
        assert_eq!(c.scoap(), &Scoap::compute(&n));
        for list in [c.collapsed_faults(), c.full_faults()] {
            let built = FaultRegionIndex::build(c.view(), c.ffr(), list);
            assert_eq!(*c.fault_region_index(list), built);
        }
    }

    #[test]
    fn clones_share_the_compilation() {
        let c = compiled();
        let d = c.clone();
        assert!(c.same_compilation(&d));
        assert!(std::ptr::eq(c.view(), d.view()));
        // Lazy artifacts are initialized once and shared by all clones.
        assert!(std::ptr::eq(c.collapsed_faults(), d.collapsed_faults()));
        assert!(std::ptr::eq(c.scoap(), d.scoap()));
        // Two separate compilations are distinct.
        let e = compiled();
        assert!(!c.same_compilation(&e));
    }

    #[test]
    fn compile_levelizes_exactly_once() {
        let netlist = bench_format::parse(MUX, "mux").unwrap();
        // Other tests build views on parallel threads, so count only this
        // thread's builds: compile levelizes once, and no lazy accessor
        // or clone levelizes again.
        let before = LevelizedCsr::thread_build_count();
        let c = CompiledCircuit::compile(netlist);
        assert_eq!(LevelizedCsr::thread_build_count() - before, 1);
        let _ = (c.view(), c.ffr(), c.collapsed_faults(), c.full_faults());
        let _ = (c.scoap(), c.content_hash(), c.clone());
        assert_eq!(LevelizedCsr::thread_build_count() - before, 1);
    }

    #[test]
    fn resident_bytes_tracks_structure_and_lazy_artifacts() {
        let small = compiled();
        let base = small.resident_bytes();
        assert!(base > 0);
        // Building lazy artifacts grows the footprint.
        let _ = small.collapsed_faults();
        let with_list = small.resident_bytes();
        assert!(with_list > base);
        // A memoized fault-region index counts once it is built; an
        // index of a copied list is not kept, so it does not count.
        let index = small.fault_region_index(small.collapsed_faults());
        assert!(index.resident_bytes() > 0);
        assert_eq!(small.resident_bytes(), with_list + index.resident_bytes());
        let _ = small.fault_region_index(&small.collapsed_faults().clone());
        assert_eq!(small.resident_bytes(), with_list + index.resident_bytes());
        // An index holds a fault id and an 8-byte packed site per fault,
        // and the full list's memo counts beside the collapsed one's.
        let per_fault = std::mem::size_of::<FaultId>() + std::mem::size_of::<PackedSite>();
        assert!(index.resident_bytes() >= small.collapsed_faults().len() * per_fault);
        let _ = small.full_faults();
        let with_lists = small.resident_bytes();
        let full = small.fault_region_index(small.full_faults());
        assert!(full.resident_bytes() >= small.full_faults().len() * per_fault);
        assert_eq!(small.resident_bytes(), with_lists + full.resident_bytes());
        // A structurally larger circuit reports a larger footprint.
        let mut text = String::from("INPUT(a)\nOUTPUT(y)\n");
        let mut prev = "a".to_string();
        for i in 0..64 {
            text.push_str(&format!("n{i} = NOT({prev})\n"));
            prev = format!("n{i}");
        }
        text.push_str(&format!("y = NOT({prev})\n"));
        let big = CompiledCircuit::compile(bench_format::parse(&text, "chain").unwrap());
        assert!(big.resident_bytes() > small.resident_bytes());
    }

    #[test]
    fn from_conversions() {
        let netlist = bench_format::parse(MUX, "mux").unwrap();
        let by_ref = CompiledCircuit::from(&netlist);
        let by_value: CompiledCircuit = netlist.into();
        assert_eq!(by_ref.view(), by_value.view());
    }
}

//! Workload inputs, generated from the workload seed.
//!
//! The program under test receives only what this module produces:
//! `.bench` netlist text and request lines. The same seed always yields
//! the same bytes; sizes and class mixes are fixed, so different seeds
//! change the circuits and vectors but not the amount of work.

use adi_circuits::{paper_suite, random_circuit, RandomCircuitConfig};
use adi_core::uset::{select_u_for, USetConfig};
use adi_netlist::{bench_format, CompiledCircuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Mixes a workload seed with a stream tag and an index (SplitMix64).
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated circuit as the program receives it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BenchCircuit {
    /// Circuit name.
    pub name: String,
    /// Primary inputs.
    pub inputs: usize,
    /// `.bench` text.
    pub bench: String,
}

/// How a flow slot picks its circuit.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// Among seeded candidates, `U` below `max` vectors, as close to
    /// `center` as possible.
    U { max: usize, center: usize },
    /// The paper suite's own stand-in of this name, the same for every
    /// seed.
    Suite,
    /// The circuit generated from this fixed generator seed, the same for
    /// every workload seed. The PODEM abort count, which sets most of the
    /// ATPG time, swings widely between generated circuits of one size,
    /// and no cheap measure predicts it.
    Fixed(u64),
}

/// One slot of the flow's circuit set: its (inputs, gates) size and the
/// target that holds its work steady from seed to seed.
struct Slot {
    name: &'static str,
    inputs: usize,
    gates: usize,
    target: Target,
}

/// The flow set: the paper suite's sizes from irs641 to irs1196, and
/// `aborts800`, a scaled-down irs5378 for the SAT fallback. The suite's
/// irs820 stand-in has `U` at the 10,000-vector cap (Σ|D(f)| = 3.2M), so
/// its ordering is the largest single step. `aborts800` leaves 32 faults
/// to PODEM aborts in each ATPG run, 31 of them proven redundant by SAT.
/// A pass takes 1.4 to 2.6 s on a 2-vCPU VM, so a run times many passes.
const FLOW_SLOTS: [Slot; 5] = [
    Slot {
        name: "irs641",
        inputs: 54,
        gates: 398,
        target: Target::U {
            max: 1000,
            center: 100,
        },
    },
    Slot {
        name: "irs820",
        inputs: 23,
        gates: 294,
        target: Target::Suite,
    },
    Slot {
        name: "irs953",
        inputs: 45,
        gates: 424,
        target: Target::U {
            max: 1000,
            center: 100,
        },
    },
    Slot {
        name: "irs1196",
        inputs: 32,
        gates: 547,
        target: Target::Suite,
    },
    Slot {
        name: "aborts800",
        inputs: 60,
        gates: 800,
        target: Target::Fixed(1001),
    },
];

/// Candidates generated per slot, and qualifying candidates scored per
/// slot, at the least. Fixed counts keep set-up work close for every seed.
const CANDIDATES: u64 = 8;
const QUALIFIED: usize = 4;

/// Candidates tried per slot before giving up on a seed.
const MAX_CANDIDATES: u64 = 200;

/// The flow's circuit set for `seed`: for each seeded slot, the
/// best-scoring candidate once [`CANDIDATES`] were generated and
/// [`QUALIFIED`] qualified.
pub fn flow_circuits(seed: u64) -> Result<Vec<BenchCircuit>, String> {
    FLOW_SLOTS
        .iter()
        .enumerate()
        .map(|(slot_index, slot)| {
            let (max, center) = match slot.target {
                Target::U { max, center } => (max, center),
                Target::Suite => {
                    let suite = paper_suite().into_iter().find(|c| c.name == slot.name);
                    let c = suite.ok_or_else(|| format!("no {} in the paper suite", slot.name))?;
                    return Ok(BenchCircuit {
                        name: slot.name.to_string(),
                        inputs: c.inputs,
                        bench: bench_format::to_bench(&c.netlist()),
                    });
                }
                Target::Fixed(gen_seed) => {
                    return Ok(generate(slot.name, slot.inputs, slot.gates, gen_seed))
                }
            };
            let mut best: Option<(usize, BenchCircuit)> = None;
            let mut qualified = 0;
            for attempt in 0..MAX_CANDIDATES {
                if attempt >= CANDIDATES && qualified >= QUALIFIED {
                    break;
                }
                let gen_seed = mix(seed, 1 + slot_index as u64, attempt);
                let c = generate(slot.name, slot.inputs, slot.gates, gen_seed);
                let u = u_vectors(&c);
                if u < max {
                    qualified += 1;
                    let score = u.abs_diff(center);
                    if best.as_ref().is_none_or(|(b, _)| score < *b) {
                        best = Some((score, c));
                    }
                }
            }
            best.map(|(_, c)| c)
                .ok_or_else(|| format!("seed {seed}: no {} candidate qualifies", slot.name))
        })
        .collect()
}

/// `|U|` of `c`, selected with library defaults from the parsed `.bench`
/// text, exactly as the flow will.
fn u_vectors(c: &BenchCircuit) -> usize {
    let netlist = bench_format::parse(&c.bench, &c.name).expect("generated bench text parses");
    let circuit = CompiledCircuit::compile(netlist);
    select_u_for(&circuit, circuit.collapsed_faults(), USetConfig::default()).len()
}

/// Circuits for the serving workloads: irs5378-size stand-ins with about
/// ten thousand collapsed faults each.
pub fn serve_circuits(seed: u64, count: usize) -> Vec<BenchCircuit> {
    (0..count)
        .map(|i| generate(&format!("srv{i}"), 214, 2821, mix(seed, 100, i as u64)))
        .collect()
}

fn generate(name: &str, inputs: usize, gates: usize, gen_seed: u64) -> BenchCircuit {
    let netlist = random_circuit(&RandomCircuitConfig::new(name, inputs, gates, gen_seed));
    BenchCircuit {
        name: name.to_string(),
        inputs,
        bench: bench_format::to_bench(&netlist),
    }
}

/// The request classes of `serve_hits`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitClass {
    /// `coverage` by random spec: small request, small response.
    Coverage,
    /// `ndetect` by random spec: small request, ~21 KB response.
    NDetect,
    /// `coverage` of an explicit vector list: 14-111 KB request.
    Explicit,
}

impl HitClass {
    /// Every class, in the order of [`CLASS_SHARE`].
    pub const ALL: [HitClass; 3] = [HitClass::Coverage, HitClass::NDetect, HitClass::Explicit];

    /// The class's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            HitClass::Coverage => "coverage",
            HitClass::NDetect => "ndetect",
            HitClass::Explicit => "explicit",
        }
    }
}

/// Share of requests in each class, in [`HitClass`] order (percent).
/// There is no record of real traffic to the service, so this is an
/// assumption: an explicit-vector request costs about twelve small hits
/// end to end, transport included, so at 5% the class takes about two
/// fifths of the replay's time and leaves the rest to the small-hit path
/// and the transport. The traced run reports the split it measures.
const CLASS_SHARE: [u32; 3] = [50, 45, 5];

/// Scenarios primed per class.
pub const SCENARIOS_PER_CLASS: usize = 16;

/// Vector counts of explicit scenarios, by rank within the class, so the
/// popular ones have the same sizes whatever the seed.
const EXPLICIT_SIZES: [usize; 4] = [64, 256, 128, 512];

/// Random vectors per `coverage`/`ndetect` request.
pub const RANDOM_COUNT: u64 = 256;

/// One primed `serve_hits` scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Request class.
    pub class: HitClass,
    /// Index into the serve circuits.
    pub circuit: usize,
    /// The request fields after the circuit hash, closing brace included.
    pub tail: String,
}

impl Scenario {
    /// The request line body (everything after `{"id":N,`) for a circuit
    /// the server knows by `hash`.
    pub fn body(&self, hash: &str) -> String {
        let op = match self.class {
            HitClass::NDetect => "ndetect",
            HitClass::Coverage | HitClass::Explicit => "coverage",
        };
        format!("\"op\":\"{op}\",\"hash\":\"{hash}\",{}", self.tail)
    }
}

/// The `serve_hits` scenarios: [`SCENARIOS_PER_CLASS`] of each class,
/// classes interleaved, over `circuits` (as many circuits as given).
pub fn hit_scenarios(seed: u64, circuits: &[BenchCircuit]) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 200, 0));
    let mut out = Vec::with_capacity(3 * SCENARIOS_PER_CLASS);
    for rank in 0..SCENARIOS_PER_CLASS {
        for class in HitClass::ALL {
            let circuit = rng.gen_range(0..circuits.len());
            let pattern_seed: u64 = rng.gen_range(0..1u64 << 53);
            let tail = match class {
                HitClass::Coverage => {
                    format!("\"random\":{{\"count\":{RANDOM_COUNT},\"seed\":{pattern_seed}}}}}")
                }
                HitClass::NDetect => {
                    let n = 1 + rank % 8;
                    format!(
                        "\"n\":{n},\"random\":{{\"count\":{RANDOM_COUNT},\"seed\":{pattern_seed}}}}}"
                    )
                }
                HitClass::Explicit => {
                    let count = EXPLICIT_SIZES[rank % EXPLICIT_SIZES.len()];
                    let width = circuits[circuit].inputs;
                    let mut tail = String::from("\"patterns\":[");
                    for v in 0..count {
                        if v > 0 {
                            tail.push(',');
                        }
                        tail.push('"');
                        tail.extend((0..width).map(|_| if rng.gen::<bool>() { '1' } else { '0' }));
                        tail.push('"');
                    }
                    tail.push_str("]}");
                    tail
                }
            };
            out.push(Scenario {
                class,
                circuit,
                tail,
            });
        }
    }
    out
}

/// A replay sequence of `len` scenario indices: each request picks its
/// class by [`CLASS_SHARE`], then a scenario of that class with Zipf
/// (s = 1) popularity over the class's ranks.
pub fn hit_mix(seed: u64, scenarios: &[Scenario], len: usize) -> Vec<usize> {
    let by_class: Vec<Vec<usize>> = HitClass::ALL
        .iter()
        .map(|&c| {
            (0..scenarios.len())
                .filter(|&i| scenarios[i].class == c)
                .collect()
        })
        .collect();
    let zipf_cdf = |n: usize| -> Vec<f64> {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    };
    let cdfs: Vec<Vec<f64>> = by_class.iter().map(|v| zipf_cdf(v.len())).collect();
    let share_total: u32 = CLASS_SHARE.iter().sum();
    let mut rng = StdRng::seed_from_u64(mix(seed, 300, 0));
    (0..len)
        .map(|_| {
            let mut roll = rng.gen_range(0..share_total);
            let class = CLASS_SHARE
                .iter()
                .position(|&s| {
                    if roll < s {
                        true
                    } else {
                        roll -= s;
                        false
                    }
                })
                .expect("roll falls in a class");
            let u: f64 = rng.gen();
            let rank = cdfs[class]
                .partition_point(|&c| c < u)
                .min(cdfs[class].len() - 1);
            by_class[class][rank]
        })
        .collect()
}

/// One fresh `serve_sweep` request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepRequest {
    /// `Some(n)` for `ndetect` at `n`, `None` for `coverage`.
    pub ndetect: Option<u32>,
    /// Index into the serve circuits.
    pub circuit: usize,
    /// Seed of the random vector set; never repeats within a seed.
    pub pattern_seed: u64,
}

impl SweepRequest {
    /// The `k`-th request of the sweep. A hash of `k` picks the operation
    /// (`ndetect` or `coverage`, even odds), `n` in 1..8 and the circuit,
    /// so whatever stride a connection takes through `k` it sends both
    /// operations and every (circuit, n) pair. The vector seed is new for
    /// every `k`.
    pub fn nth(seed: u64, k: u64, circuits: usize) -> SweepRequest {
        let h = mix(seed, 401, k);
        SweepRequest {
            ndetect: (h & 1 == 0).then(|| 1 + ((h >> 1) % 8) as u32),
            circuit: ((h >> 4) % circuits as u64) as usize,
            pattern_seed: (mix(seed, 400, 0) >> 12).wrapping_add(k),
        }
    }

    /// The request line body (everything after `{"id":N,`).
    pub fn body(&self, hash: &str) -> String {
        let random = format!(
            "\"random\":{{\"count\":{RANDOM_COUNT},\"seed\":{}}}",
            self.pattern_seed
        );
        match self.ndetect {
            Some(n) => format!("\"op\":\"ndetect\",\"hash\":\"{hash}\",\"n\":{n},{random}}}"),
            None => format!("\"op\":\"coverage\",\"hash\":\"{hash}\",{random}}}"),
        }
    }
}

/// A request line with its id: one JSON object and the newline.
pub fn line(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}\n")
}

/// The `compile` request body registering `circuit` with the server.
pub fn compile_body(circuit: &BenchCircuit) -> String {
    format!(
        "\"op\":\"compile\",\"name\":\"{}\",\"bench\":{}}}",
        circuit.name,
        json::Value::from(circuit.bench.as_str())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(parts: impl IntoIterator<Item = String>) -> u64 {
        parts
            .into_iter()
            .flat_map(|s| s.into_bytes())
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            })
    }

    /// The held-out seed named in the benchmark's README.
    const HELD_OUT_SEED: u64 = 1_000_003;

    fn serve_inputs(seed: u64) -> Vec<String> {
        let circuits = serve_circuits(seed, 2);
        let scenarios = hit_scenarios(seed, &circuits);
        let mix = hit_mix(seed, &scenarios, 2000);
        let mut out: Vec<String> = circuits.iter().map(compile_body).collect();
        out.extend(mix.iter().map(|&i| line(i as u64, &scenarios[i].body("h"))));
        out.extend((0..500).map(|k| SweepRequest::nth(seed, k, 2).body("h")));
        out
    }

    #[test]
    fn serve_inputs_regenerate_byte_for_byte() {
        let a = serve_inputs(DEFAULT_SEED);
        let b = serve_inputs(DEFAULT_SEED);
        assert_eq!(a, b);
        assert_ne!(digest(a), digest(serve_inputs(DEFAULT_SEED + 1)));
    }

    #[test]
    fn flow_inputs_regenerate_byte_for_byte() {
        let a = flow_circuits(DEFAULT_SEED).unwrap();
        let b = flow_circuits(DEFAULT_SEED).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), FLOW_SLOTS.len());
        let other = flow_circuits(HELD_OUT_SEED).unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn flow_slots_pick_qualifying_circuits() {
        let circuits = flow_circuits(DEFAULT_SEED).unwrap();
        for (c, slot) in circuits.iter().zip(&FLOW_SLOTS) {
            if let Target::U { max, .. } = slot.target {
                assert!(u_vectors(c) < max, "{}", c.name);
            }
        }
        let cap = circuits.iter().find(|c| c.name == "irs820").unwrap();
        assert_eq!(u_vectors(cap), USetConfig::default().max_vectors);
    }

    #[test]
    fn the_aborts_circuit_leaves_dozens_of_faults_to_sat() {
        use adi_atpg::{TestGenConfig, TestGenerator};
        let circuits = flow_circuits(DEFAULT_SEED).unwrap();
        let c = circuits.iter().find(|c| c.name == "aborts800").unwrap();
        let circuit = CompiledCircuit::compile(bench_format::parse(&c.bench, &c.name).unwrap());
        let faults = circuit.collapsed_faults();
        let order: Vec<_> = faults.ids().collect();
        let run =
            TestGenerator::for_circuit(&circuit, faults, TestGenConfig::default()).run(&order);
        let sat = run.podem_stats.sat_resolved;
        assert!(run.podem_stats.aborted >= 20, "{}", run.podem_stats.aborted);
        assert!(sat.redundant + sat.testable >= 20, "{sat:?}");
    }

    #[test]
    fn hit_mix_follows_class_shares_and_zipf() {
        let circuits = serve_circuits(3, 2);
        let scenarios = hit_scenarios(3, &circuits);
        let mix = hit_mix(3, &scenarios, 20_000);
        let share = |class| {
            mix.iter().filter(|&&i| scenarios[i].class == class).count() as f64 / mix.len() as f64
        };
        assert!((share(HitClass::Coverage) - 0.50).abs() < 0.02);
        assert!((share(HitClass::NDetect) - 0.45).abs() < 0.02);
        assert!((share(HitClass::Explicit) - 0.05).abs() < 0.01);
        // Rank 1 of a class is drawn about twice as often as rank 2.
        let count = |i: usize| mix.iter().filter(|&&j| j == i).count() as f64;
        let ratio = count(0) / count(3);
        assert!((1.6..2.4).contains(&ratio), "{ratio}");
    }

    #[test]
    fn explicit_requests_span_the_intended_sizes() {
        let circuits = serve_circuits(5, 2);
        let sizes: Vec<usize> = hit_scenarios(5, &circuits)
            .iter()
            .filter(|s| s.class == HitClass::Explicit)
            .map(|s| s.body("0123456789abcdef").len())
            .collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*lo > 13_500 && *hi < 115_000, "{lo}..{hi}");
    }

    #[test]
    fn sweep_seeds_never_repeat() {
        let seeds: std::collections::HashSet<u64> = (0..10_000)
            .map(|k| SweepRequest::nth(9, k, 2).pattern_seed)
            .collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn request_lines_are_single_json_objects() {
        let circuits = serve_circuits(1, 1);
        let l = line(42, &compile_body(&circuits[0]));
        assert!(l.ends_with('\n') && l.matches('\n').count() == 1);
        let v = json::parse(l.trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(json::Value::as_u64), Some(42));
        assert_eq!(
            v.get("bench").and_then(json::Value::as_str),
            Some(circuits[0].bench.as_str())
        );
    }
}

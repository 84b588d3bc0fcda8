//! End-to-end experiment pipeline: the paper's Section-4 methodology.
//!
//! For one circuit: select `U` → compute ADI → build each requested fault
//! order → run the (compaction-free) ATPG per order → collect test counts,
//! wall-clock run times, coverage curves, and `AVE` values. The table and
//! figure harnesses in `adi-bench` are thin formatters over the
//! [`Experiment`] struct this module produces.
//!
//! The entry point is the builder: compile the circuit once
//! ([`CompiledCircuit::compile`]) and run
//! `Experiment::on(&circuit).config(cfg).run()`. Every stage — `U`
//! selection, the no-drop simulation behind the ADI, each ordering's
//! ATPG — shares that single compilation; the whole experiment performs
//! exactly one levelization (asserted by the repository's
//! compile-once counter test).

use std::time::{Duration, Instant};

use adi_netlist::fault::FaultId;
use adi_netlist::CompiledCircuit;
use adi_sim::CoverageCurve;
use adi_atpg::{TestGenConfig, TestGenResult, TestGenerator};

use crate::metrics::average_detection_position;
use crate::uset::{select_u_for, USetConfig};
use crate::{order_faults, AdiAnalysis, AdiConfig, AdiSummary, FaultOrdering};

/// Configuration for an [`Experiment`] run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Selection of the random vector set `U`.
    pub uset: USetConfig,
    /// ADI computation options.
    pub adi: AdiConfig,
    /// ATPG options (backtrack limit, X-fill).
    pub testgen: TestGenConfig,
    /// The fault orders to run ATPG with.
    pub orderings: Vec<FaultOrdering>,
    /// Use the collapsed fault list (`true`, the usual choice) or the full
    /// fault universe.
    pub collapse_faults: bool,
    /// Run the per-ordering ATPG passes on one OS thread each (`true`,
    /// the default). The orderings are independent given the shared
    /// `Arc`-backed compilation, and every pass is deterministic, so the
    /// results are identical to the serial path (asserted by tests);
    /// only wall-clock timings vary.
    pub parallel_orderings: bool,
}

impl Default for ExperimentConfig {
    /// The paper's main experiment: `Forig`, `Fdynm`, `F0dynm`, `Fincr0`.
    fn default() -> Self {
        ExperimentConfig {
            uset: USetConfig::default(),
            adi: AdiConfig::default(),
            testgen: TestGenConfig::default(),
            orderings: vec![
                FaultOrdering::Original,
                FaultOrdering::Dynamic,
                FaultOrdering::Dynamic0,
                FaultOrdering::Incr0,
            ],
            collapse_faults: true,
            parallel_orderings: true,
        }
    }
}

/// The outcome of ATPG under one fault order.
#[derive(Clone, Debug)]
pub struct OrderingRun {
    /// Which order this is.
    pub ordering: FaultOrdering,
    /// The ordered fault list used.
    pub order: Vec<FaultId>,
    /// The ATPG outcome (tests, per-test detections, fault statuses).
    pub result: TestGenResult,
    /// The fault-coverage curve of the run.
    pub curve: CoverageCurve,
    /// `AVE_ord` of the curve.
    pub ave: f64,
    /// Wall-clock test-generation time (ordering construction excluded,
    /// matching the paper's `t.gen` accounting). Each ordering runs on
    /// its own [`TestGenerator`], so every target it reaches is searched
    /// within this time, whichever ordering ran first.
    pub testgen_time: Duration,
    /// Wall-clock time spent building the fault order itself.
    pub ordering_time: Duration,
}

impl OrderingRun {
    /// Number of tests generated under this order (the paper's Table 5).
    pub fn num_tests(&self) -> usize {
        self.result.num_tests()
    }
}

/// Everything the paper reports about one circuit.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Circuit name.
    pub circuit: String,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of target faults.
    pub num_faults: usize,
    /// Size of the selected vector set `U` (Table 4 column `vec`).
    pub u_size: usize,
    /// Fault coverage of `U` at selection time.
    pub u_coverage: f64,
    /// ADI summary (Table 4 columns `min`, `max`, `ratio`).
    pub adi_summary: AdiSummary,
    /// Wall-clock time of `U` selection plus ADI computation.
    pub adi_time: Duration,
    /// One entry per requested ordering, in request order.
    pub runs: Vec<OrderingRun>,
}

impl Experiment {
    /// Starts a builder for an experiment over an already-compiled
    /// circuit. Every pipeline stage reuses the compilation's artifacts;
    /// no further levelization, FFR decomposition, fault enumeration, or
    /// SCOAP computation happens during the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use adi_core::{Experiment, ExperimentConfig, FaultOrdering};
    /// use adi_netlist::{bench_format, CompiledCircuit};
    ///
    /// # fn main() -> Result<(), adi_netlist::NetlistError> {
    /// let n = bench_format::parse(
    ///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "nand2")?;
    /// let circuit = CompiledCircuit::compile(n);
    /// let exp = Experiment::on(&circuit).run();
    /// assert_eq!(exp.runs.len(), 4);
    /// let orig = exp.run_for(FaultOrdering::Original).unwrap();
    /// assert!(orig.result.coverage() > 0.99);
    ///
    /// // The same compilation serves any number of scenario runs.
    /// let decr = Experiment::on(&circuit)
    ///     .orderings(vec![FaultOrdering::Decr])
    ///     .run();
    /// assert_eq!(decr.runs.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn on(circuit: &CompiledCircuit) -> ExperimentBuilder<'_> {
        ExperimentBuilder {
            circuit,
            config: ExperimentConfig::default(),
        }
    }

    /// The run for `ordering`, if it was requested.
    pub fn run_for(&self, ordering: FaultOrdering) -> Option<&OrderingRun> {
        self.runs.iter().find(|r| r.ordering == ordering)
    }

    /// Relative test-generation time `RT_ord / RT_orig` (Table 6).
    /// Returns `None` when either run is missing or the baseline took no
    /// measurable time.
    pub fn relative_runtime(&self, ordering: FaultOrdering) -> Option<f64> {
        let base = self.run_for(FaultOrdering::Original)?.testgen_time;
        let this = self.run_for(ordering)?.testgen_time;
        let base_s = base.as_secs_f64();
        if base_s == 0.0 {
            None
        } else {
            Some(this.as_secs_f64() / base_s)
        }
    }

    /// Normalized steepness `AVE_ord / AVE_orig` (Table 7).
    pub fn relative_ave(&self, ordering: FaultOrdering) -> Option<f64> {
        let base = self.run_for(FaultOrdering::Original)?.ave;
        let this = self.run_for(ordering)?.ave;
        if base == 0.0 {
            None
        } else {
            Some(this / base)
        }
    }
}

/// Builder for an [`Experiment`] over one compiled circuit; created by
/// [`Experiment::on`].
///
/// Defaults to [`ExperimentConfig::default`] (the paper's main
/// experiment); override wholesale with
/// [`config`](ExperimentBuilder::config) or per-knob with the granular
/// setters, then call [`run`](ExperimentBuilder::run).
#[derive(Clone, Debug)]
pub struct ExperimentBuilder<'a> {
    circuit: &'a CompiledCircuit,
    config: ExperimentConfig,
}

impl<'a> ExperimentBuilder<'a> {
    /// Replaces the whole configuration.
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the `U`-selection options.
    pub fn uset(mut self, uset: USetConfig) -> Self {
        self.config.uset = uset;
        self
    }

    /// Sets the ADI computation options.
    pub fn adi(mut self, adi: AdiConfig) -> Self {
        self.config.adi = adi;
        self
    }

    /// Sets the ATPG options.
    pub fn testgen(mut self, testgen: TestGenConfig) -> Self {
        self.config.testgen = testgen;
        self
    }

    /// Sets the fault orders to run ATPG with.
    pub fn orderings(mut self, orderings: Vec<FaultOrdering>) -> Self {
        self.config.orderings = orderings;
        self
    }

    /// Chooses between the collapsed fault list (`true`, the default)
    /// and the full fault universe.
    pub fn collapse_faults(mut self, collapse: bool) -> Self {
        self.config.collapse_faults = collapse;
        self
    }

    /// Chooses between one OS thread per ordering (`true`, the default)
    /// and the serial path. Results are identical either way.
    pub fn parallel_orderings(mut self, parallel: bool) -> Self {
        self.config.parallel_orderings = parallel;
        self
    }

    /// Runs the full paper pipeline: select `U`, compute the ADI, build
    /// each requested order, and run ATPG per order — all on the shared
    /// compilation (the fault list itself comes from the compilation's
    /// cache). With [`parallel_orderings`](Self::parallel_orderings) set
    /// (the default), the independent per-ordering ATPG passes run on
    /// one thread each over the `Arc`-shared compilation; the results
    /// are deterministic and identical to the serial path.
    pub fn run(self) -> Experiment {
        let ExperimentBuilder { circuit, config } = self;
        let netlist = circuit.netlist();
        let faults = if config.collapse_faults {
            circuit.collapsed_faults()
        } else {
            circuit.full_faults()
        };

        let adi_start = Instant::now();
        let selection = select_u_for(circuit, faults, config.uset);
        let analysis = AdiAnalysis::for_circuit(circuit, faults, &selection.patterns, config.adi);
        let adi_time = adi_start.elapsed();

        // One generator per ordering: a shared one would replay targets
        // an earlier ordering searched, so each ordering's
        // `testgen_time` (Table 6) would depend on which one ran first.
        let run_one = |ordering: FaultOrdering| -> OrderingRun {
            let t0 = Instant::now();
            let order = order_faults(&analysis, ordering);
            let ordering_time = t0.elapsed();
            let generator = TestGenerator::for_circuit(circuit, faults, config.testgen);
            let t1 = Instant::now();
            let result = generator.run(&order);
            let testgen_time = t1.elapsed();
            let curve = result.coverage_curve();
            let ave = average_detection_position(&curve);
            OrderingRun {
                ordering,
                order,
                result,
                curve,
                ave,
                testgen_time,
                ordering_time,
            }
        };
        let runs: Vec<OrderingRun> = if config.parallel_orderings && config.orderings.len() > 1 {
            // One thread per ordering: each pass only reads the shared
            // analysis (the compilation is Arc-backed), so request order
            // is preserved by collecting joins in order.
            let run_one = &run_one;
            std::thread::scope(|scope| {
                let handles: Vec<_> = config
                    .orderings
                    .iter()
                    .map(|&ordering| scope.spawn(move || run_one(ordering)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ordering worker panicked"))
                    .collect()
            })
        } else {
            config.orderings.iter().map(|&o| run_one(o)).collect()
        };

        Experiment {
            circuit: netlist.name().to_string(),
            num_inputs: netlist.num_inputs(),
            num_faults: faults.len(),
            u_size: selection.len(),
            u_coverage: selection.coverage,
            adi_summary: analysis.summary(),
            adi_time,
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adi_netlist::bench_format;

    const C17: &str = "
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    fn experiment() -> Experiment {
        let n = bench_format::parse(C17, "c17").unwrap();
        Experiment::on(&CompiledCircuit::compile(n)).run()
    }

    #[test]
    fn all_requested_orderings_run() {
        let e = experiment();
        assert_eq!(e.runs.len(), 4);
        for ord in [
            FaultOrdering::Original,
            FaultOrdering::Dynamic,
            FaultOrdering::Dynamic0,
            FaultOrdering::Incr0,
        ] {
            assert!(e.run_for(ord).is_some(), "{ord} missing");
        }
        assert!(e.run_for(FaultOrdering::Decr).is_none());
    }

    #[test]
    fn c17_full_coverage_under_every_order() {
        let e = experiment();
        for run in &e.runs {
            assert_eq!(
                run.result.num_detected(),
                e.num_faults,
                "{} left faults undetected",
                run.ordering
            );
            assert_eq!(run.curve.final_detected(), e.num_faults);
            assert!(run.ave >= 1.0, "AVE must be at least one test");
        }
    }

    #[test]
    fn exhaustive_u_for_tiny_circuit() {
        let e = experiment();
        assert_eq!(e.u_size, 32); // 5 inputs <= default threshold 6
        assert!((e.u_coverage - 1.0).abs() < 1e-12);
        // All faults detected by exhaustive U => min ADI >= 1.
        assert!(e.adi_summary.min >= 1);
        assert!(e.adi_summary.max >= e.adi_summary.min);
        assert_eq!(e.adi_summary.detected, e.num_faults);
    }

    #[test]
    fn relative_metrics_baseline_is_one() {
        let e = experiment();
        let r = e.relative_ave(FaultOrdering::Original).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_experiments() {
        let a = experiment();
        let b = experiment();
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.order, rb.order);
            assert_eq!(ra.result.tests, rb.result.tests);
            assert_eq!(ra.num_tests(), rb.num_tests());
        }
    }

    #[test]
    fn parallel_orderings_match_serial_exactly() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let parallel = Experiment::on(&circuit).parallel_orderings(true).run();
        let serial = Experiment::on(&circuit).parallel_orderings(false).run();
        assert_eq!(parallel.runs.len(), serial.runs.len());
        for (p, s) in parallel.runs.iter().zip(&serial.runs) {
            assert_eq!(p.ordering, s.ordering, "request order preserved");
            assert_eq!(p.order, s.order);
            assert_eq!(p.result, s.result, "{} differs across modes", p.ordering);
            assert_eq!(p.ave, s.ave);
        }
        assert_eq!(parallel.u_size, serial.u_size);
        assert_eq!(parallel.adi_summary, serial.adi_summary);
    }

    #[test]
    fn speculative_atpg_matches_serial_experiment() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let run = |atpg_threads| {
            Experiment::on(&circuit)
                .parallel_orderings(false)
                .testgen(TestGenConfig {
                    atpg_threads,
                    ..TestGenConfig::default()
                })
                .run()
        };
        let (speculative, sequential) = (run(4), run(1));
        assert_eq!(speculative.runs.len(), sequential.runs.len());
        for (p, s) in speculative.runs.iter().zip(&sequential.runs) {
            assert_eq!(p.result, s.result, "{} differs under speculation", p.ordering);
            assert_eq!(p.ave, s.ave);
        }
    }

    #[test]
    fn full_fault_universe_option() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let e = Experiment::on(&circuit)
            .collapse_faults(false)
            .orderings(vec![FaultOrdering::Original])
            .run();
        assert!(e.num_faults > circuit.collapsed_faults().len());
    }

    #[test]
    fn builder_setters_match_config() {
        let n = bench_format::parse(C17, "c17").unwrap();
        let circuit = CompiledCircuit::compile(n);
        let cfg = ExperimentConfig {
            orderings: vec![FaultOrdering::Original, FaultOrdering::Decr],
            ..ExperimentConfig::default()
        };
        let via_config = Experiment::on(&circuit).config(cfg.clone()).run();
        let via_setters = Experiment::on(&circuit)
            .uset(cfg.uset)
            .adi(cfg.adi)
            .testgen(cfg.testgen)
            .orderings(cfg.orderings.clone())
            .collapse_faults(cfg.collapse_faults)
            .parallel_orderings(cfg.parallel_orderings)
            .run();
        assert_eq!(via_config.num_faults, via_setters.num_faults);
        assert_eq!(via_config.u_size, via_setters.u_size);
        for (a, b) in via_config.runs.iter().zip(&via_setters.runs) {
            assert_eq!(a.ordering, b.ordering);
            assert_eq!(a.order, b.order);
            assert_eq!(a.result.tests, b.result.tests);
        }
    }

}

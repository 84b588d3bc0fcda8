//! Shared harness for the table/figure binaries that regenerate the
//! paper's experimental results.
//!
//! Each binary in `src/bin/` is a thin formatter over the
//! [`adi_core::Experiment`] builder pipeline; this library provides the
//! common command-line handling, suite iteration, and fixed-width table
//! rendering.
//!
//! Run, for example:
//!
//! ```text
//! cargo run -p adi-bench --release --bin table5 -- --max-gates 600
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use adi_circuits::{paper_suite, PaperCircuit};
use adi_core::pipeline::Experiment;
use adi_core::{ExperimentConfig, FaultOrdering};

/// Command-line options shared by all table binaries.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Only run suite circuits with at most this many gates.
    pub max_gates: usize,
    /// Threads for the no-drop fault simulation behind the ADI.
    pub threads: usize,
    /// Shrink the random-vector pool (quick smoke runs).
    pub quick: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            // The paper's testgen tables focus on circuits up to s1196
            // scale; the two large stand-ins are enabled with --all.
            max_gates: 600,
            threads: default_threads(),
            quick: false,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl HarnessOptions {
    /// Parses `--max-gates N`, `--all`, `--quick`, `--threads N` from the
    /// process arguments. Unknown arguments abort with a usage message.
    pub fn from_args() -> Self {
        match Self::try_from_iter(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(message) => usage(&message),
        }
    }

    /// Argument parsing backing [`from_args`](Self::from_args), split out
    /// so it can be tested without touching the process environment.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or missing
    /// numeric values.
    pub fn try_from_iter<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = HarnessOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--all" => opts.max_gates = usize::MAX,
                "--quick" => opts.quick = true,
                "--max-gates" => {
                    opts.max_gates = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "--max-gates requires a number".to_string())?;
                }
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "--threads requires a number".to_string())?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The experiment configuration corresponding to these options.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::default();
        cfg.adi.threads = self.threads;
        if self.quick {
            cfg.uset.max_vectors = 1000;
        }
        cfg
    }

    /// The suite circuits selected by these options.
    pub fn circuits(&self) -> Vec<PaperCircuit> {
        paper_suite()
            .into_iter()
            .filter(|c| c.gates <= self.max_gates)
            .collect()
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: <table-binary> [--max-gates N | --all] [--quick] [--threads N]");
    std::process::exit(2);
}

/// Runs the default experiment for one suite circuit, printing progress
/// to stderr. The circuit is compiled once and every pipeline stage
/// shares the compilation.
pub fn run_circuit(circuit: &PaperCircuit, options: &HarnessOptions) -> Experiment {
    eprintln!(
        "[adi-bench] running {} ({} inputs, {} gates)...",
        circuit.name, circuit.inputs, circuit.gates
    );
    Experiment::on(&circuit.compiled())
        .config(options.experiment_config())
        .run()
}

/// A fixed-width plain-text table, printed like the paper's tables.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with column alignment and a rule under the
    /// header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out);
        };
        fmt_row(&self.header, &widths, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats an optional float with fixed precision, rendering `-` for
/// `None` (the paper's dash).
pub fn opt_f64(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "-".to_string(),
    }
}

/// Formats an optional integer, rendering `-` for `None`.
pub fn opt_u32(v: Option<u32>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

/// The Table-5/6/7 orderings in paper column order.
pub const PAPER_ORDERINGS: [FaultOrdering; 4] = [
    FaultOrdering::Original,
    FaultOrdering::Dynamic,
    FaultOrdering::Dynamic0,
    FaultOrdering::Incr0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["circuit", "tests"]);
        t.row(vec!["irs208", "42"]);
        t.row(vec!["irs13207", "411"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("circuit"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("411"));
    }

    #[test]
    fn optional_formatting() {
        assert_eq!(opt_f64(Some(1.234), 2), "1.23");
        assert_eq!(opt_f64(None, 2), "-");
        assert_eq!(opt_u32(Some(7)), "7");
        assert_eq!(opt_u32(None), "-");
    }

    #[test]
    fn default_options_select_paper_main_set() {
        let opts = HarnessOptions::default();
        let circuits = opts.circuits();
        assert!(circuits.iter().any(|c| c.name == "irs1196"));
        assert!(circuits.iter().all(|c| c.gates <= 600));
    }

    #[test]
    fn argument_parsing() {
        let ok = |args: &[&str]| {
            HarnessOptions::try_from_iter(args.iter().map(|s| s.to_string())).unwrap()
        };
        assert_eq!(ok(&["--max-gates", "123"]).max_gates, 123);
        assert_eq!(ok(&["--all"]).max_gates, usize::MAX);
        assert!(ok(&["--quick"]).quick);
        assert_eq!(ok(&["--threads", "2"]).threads, 2);
        let combo = ok(&["--quick", "--max-gates", "9", "--threads", "3"]);
        assert!(combo.quick && combo.max_gates == 9 && combo.threads == 3);
        // The retired `--engine` and `--width` are rejected like any
        // unknown flag.
        for (flag, value) in [("--engine", "per-fault"), ("--width", "4")] {
            let err = HarnessOptions::try_from_iter([flag.to_string(), value.to_string()])
                .unwrap_err();
            assert!(err.contains(&format!("unknown argument `{flag}`")), "{err}");
        }
    }

    #[test]
    fn argument_errors_are_reported() {
        let err = |args: &[&str]| {
            HarnessOptions::try_from_iter(args.iter().map(|s| s.to_string())).unwrap_err()
        };
        assert!(err(&["--max-gates"]).contains("requires a number"));
        assert!(err(&["--max-gates", "abc"]).contains("requires a number"));
        assert!(err(&["--bogus"]).contains("unknown argument"));
    }
}

//! The ADI reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow|serve_hits|serve_sweep> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints a provenance line, then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). Exits 1 when an output check
//! fails and 2 when the run cannot be made. See `perfbench/README.md`.

mod flow;
mod hits;
mod inputs;
mod openloop;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment variables that silently change a library or server
/// default: the simulation word width, the ATPG thread count and the
/// observability switch.
const PINNED_ENV: [&str; 3] = ["ADI_SIM_WIDTH", "ADI_ATPG_THREADS", "ADI_OBS"];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    Flow,
    ServeHits,
    ServeSweep,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "flow" => Workload::Flow,
                    "serve_hits" => Workload::ServeHits,
                    "serve_sweep" => Workload::ServeSweep,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to run when a variable of [`PINNED_ENV`] is set.
fn check_environment(get: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    match PINNED_ENV.iter().find(|v| get(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set; it changes a library default, unset it to benchmark"
        )),
        None => Ok(()),
    }
}

/// The repository checkout this benchmark belongs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The line recorded with every result: core count, commit and compiler.
fn provenance(root: &Path) -> String {
    let run = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // An exported source tree has no history and so no commit; the
    // source digest still identifies the code.
    let commit = if root.join(".git").exists() {
        run(Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"]))
    } else {
        None
    };
    let mut o = json::Object::new();
    o.insert(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    o.insert("commit", commit.unwrap_or_else(|| "unknown".into()));
    o.insert("source_digest", format!("{:016x}", source_digest(root)));
    o.insert(
        "rustc",
        run(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into()),
    );
    let mut line = json::Object::new();
    line.insert("provenance", o);
    json::Value::Object(line).to_string()
}

/// FNV-1a over the workspace manifests and every file under `crates/`, in
/// path order: identifies the code measured when there is no git history.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files[2..].sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }
    h
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    check_environment(|v| std::env::var_os(v).map(|s| s.to_string_lossy().into_owned()))?;
    let root = repo_root();
    let report = match args.workload {
        Workload::Flow => flow::run(args.seed, args.seconds, args.trace)?,
        Workload::ServeHits => hits::run(
            &serve::build_server(&root)?,
            args.seed,
            args.seconds,
            args.trace,
        )?,
        Workload::ServeSweep => sweep::run(
            &serve::build_server(&root)?,
            args.seed,
            args.seconds,
            args.trace,
        )?,
    };
    let line = report.result_line(args.trace)?;
    println!("{}", provenance(&root));
    println!("{line}");
    Ok(report.outcome.failed == 0)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            1
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_hits --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeHits);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        let d = args("--workload flow").unwrap();
        assert_eq!((d.seed, d.trace), (inputs::DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload flow --trace 2",
            "--x 1",
            "--workload flow --seconds 0",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn refuses_variables_that_change_defaults() {
        assert!(check_environment(|_| None).is_ok());
        for v in PINNED_ENV {
            let got = check_environment(|name| (name == v).then(|| "4".to_string()));
            assert!(got.unwrap_err().contains(v));
        }
    }
}

//! Smoke tests for the table binaries: each must run to completion and
//! print its headline. The fast binaries run on their real (small)
//! workload; the ATPG-heavy ones are exercised with `--max-gates 0`
//! (argument handling, empty-suite rendering) to keep debug-mode test
//! time bounded. Their real outputs come from the release runs the
//! README's "Regenerating the paper's tables and figures" section
//! describes.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn table1_prints_walkthrough() {
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(ok);
    assert!(stdout.contains("Table 1"));
    assert!(stdout.contains("ndet(u)"));
    assert!(stdout.contains("Dynamic ordering construction"));
}

#[test]
fn table4_renders_empty_suite() {
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_table4"), &["--max-gates", "0"]);
    assert!(ok);
    assert!(stdout.contains("Table 4"));
    assert!(stdout.contains("ADImin"));
}

#[test]
fn table5_renders_empty_suite() {
    let (ok, stdout) = run(env!("CARGO_BIN_EXE_table5"), &["--max-gates", "0"]);
    assert!(ok);
    assert!(stdout.contains("Table 5"));
    assert!(stdout.contains("incr0"));
}

#[test]
fn table6_and_7_render_empty_suite() {
    for (bin, headline) in [
        (env!("CARGO_BIN_EXE_table6"), "Table 6"),
        (env!("CARGO_BIN_EXE_table7"), "Table 7"),
    ] {
        let (ok, stdout) = run(bin, &["--max-gates", "0"]);
        assert!(ok, "{bin}");
        assert!(stdout.contains(headline), "{bin}");
    }
}

#[test]
fn binaries_reject_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_table5"))
        .arg("--frobnicate")
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"));
    assert!(stderr.contains("usage:"));
}

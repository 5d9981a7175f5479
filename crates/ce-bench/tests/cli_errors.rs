//! ce-bench must reject bad invocations with a typed one-line error and
//! exit 2 (or 1 for a genuine regression), never a panic. Every case
//! here fails before any benchmark arm runs, so the suite stays fast.

use std::path::PathBuf;
use std::process::Command;

fn assert_graceful(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ce-bench"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "ce-bench {args:?}:\n{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "ce-bench {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "ce-bench {args:?}: stderr lacks {needle:?}:\n{stderr}"
    );
}

#[test]
fn flag_errors_exit_2_without_panicking() {
    assert_graceful(&["--out"], "--out needs a value");
    assert_graceful(&["--suite"], "--suite needs a value");
    assert_graceful(&["--baseline"], "--baseline needs a value");
    assert_graceful(&["--suite", "nope"], "unknown suite");
    assert_graceful(&["--threads", "0"], "positive integer");
    assert_graceful(&["--threads", "many"], "positive integer");
    assert_graceful(&["--threads", "-2"], "positive integer");
    assert_graceful(&["--frobnicate"], "unknown flag");
}

#[test]
fn missing_baseline_fails_fast() {
    // The baseline loads before any arm runs, so this returns in
    // milliseconds even though it names the full fleet suite.
    assert_graceful(
        &["--baseline", "/no/such/BENCH.json"],
        "cannot read baseline",
    );
}

#[test]
fn malformed_baseline_fails_fast() {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    path.push("garbage_baseline.json");
    std::fs::write(&path, "{ not even close").unwrap();
    assert_graceful(
        &["--baseline", path.to_str().unwrap()],
        "cannot parse baseline",
    );
    // The serve suite goes through the same loader.
    assert_graceful(
        &["--suite", "serve", "--baseline", path.to_str().unwrap()],
        "cannot parse baseline",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn baseline_from_another_suite_fails_fast() {
    // The suite check runs before any arm, so this returns in
    // milliseconds even though it names the topo suite.
    let serve = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    assert_graceful(
        &["--suite", "topo", "--baseline", serve],
        "is not a topo report",
    );
}

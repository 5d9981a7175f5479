//! The CLI's `--metrics` JSONL stream must be byte-identical across runs
//! with the same seed: determinism is the repo's contract for every
//! reproduction claim, and the metrics dump is where drift would show.
//!
//! A command with a committed fixture in `tests/golden/` is pinned there
//! (`golden_traces.rs`); a run that matches the fixture matches every
//! other run of that command. The tests here cover the commands and
//! contracts no fixture carries: trace replay, zero-fault ≡ clean, zero
//! traffic, and that the seed changes the bytes.

use std::path::PathBuf;
use std::process::Command;

/// Runs the `ce-scaling` binary with `args` plus `--metrics <tmp>`, and
/// returns the metrics file's bytes. Panics (with stderr) on failure.
fn metrics_bytes(args: &[&str], tag: &str) -> Vec<u8> {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    path.push(format!("metrics_{tag}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_ce-scaling"))
        .args(args)
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "ce-scaling {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn train_metrics_are_byte_identical_per_seed() {
    let args = [
        "train",
        "--model",
        "lr",
        "--dataset",
        "higgs",
        "--budget",
        "20",
        "--seed",
        "7",
    ];
    let a = metrics_bytes(&args, "train_a");
    let b = metrics_bytes(&args, "train_b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce byte-identical JSONL");

    let other = metrics_bytes(
        &[
            "train",
            "--model",
            "lr",
            "--dataset",
            "higgs",
            "--budget",
            "20",
            "--seed",
            "8",
        ],
        "train_c",
    );
    assert_ne!(a, other, "a different seed must change the stream");
}

#[test]
fn chaotic_train_metrics_are_byte_identical_per_seed() {
    // A generous budget: the run must converge despite crash chaos, or
    // cmd_train exits non-zero before the metrics dump.
    let args = [
        "train",
        "--model",
        "lr",
        "--dataset",
        "higgs",
        "--budget",
        "200",
        "--seed",
        "7",
        "--chaos",
        "crash:0.1@0..inf",
        "--recovery",
        "checkpoint",
        "--checkpoint-every",
        "5",
    ];
    let a = metrics_bytes(&args, "chaos_train_a");
    let b = metrics_bytes(&args, "chaos_train_b");
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same seed + same --chaos spec must produce byte-identical JSONL"
    );
}

#[test]
fn zero_fault_chaos_schedule_matches_the_clean_run() {
    let clean = [
        "train",
        "--model",
        "lr",
        "--dataset",
        "higgs",
        "--budget",
        "20",
        "--seed",
        "7",
    ];
    let quiet = [
        "train",
        "--model",
        "lr",
        "--dataset",
        "higgs",
        "--budget",
        "20",
        "--seed",
        "7",
        "--chaos",
        "crash:0@0..inf;coldspike:x1@0..inf",
    ];
    assert_eq!(
        metrics_bytes(&clean, "quiet_clean"),
        metrics_bytes(&quiet, "quiet_chaos"),
        "a zero-fault schedule must reproduce the clean run bit-for-bit"
    );
}

#[test]
fn serve_metrics_are_byte_identical_per_seed() {
    let args = [
        "serve",
        "--arrivals",
        "diurnal",
        "--rps",
        "25",
        "--duration",
        "300",
        "--autoscaler",
        "target",
        "--keepalive",
        "adaptive",
        "--slo-ms",
        "800",
        "--seed",
        "11",
    ];
    let a = metrics_bytes(&args, "serve_a");
    let b = metrics_bytes(&args, "serve_b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce byte-identical serve JSONL");

    let mut other = args;
    other[other.len() - 1] = "12";
    assert_ne!(a, metrics_bytes(&other, "serve_c"), "seed must matter");
}

#[test]
fn serve_trace_replay_reproduces_the_original_run() {
    // A run that writes its own arrival log, then a second run replaying
    // that log through `--arrivals trace:<path>`: per-request randomness
    // is keyed by request index, so the replay must be byte-identical.
    let mut log = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    log.push("serve_replay_arrivals.jsonl");
    let log_str = log.to_str().expect("utf-8 tmpdir");
    let original = metrics_bytes(
        &[
            "serve",
            "--arrivals",
            "bursty",
            "--rps",
            "30",
            "--duration",
            "300",
            "--autoscaler",
            "prewarm",
            "--keepalive",
            "histogram",
            "--seed",
            "23",
            "--arrival-log",
            log_str,
        ],
        "serve_replay_orig",
    );
    let trace_arg = format!("trace:{log_str}");
    let replayed = metrics_bytes(
        &[
            "serve",
            "--arrivals",
            &trace_arg,
            "--duration",
            "300",
            "--autoscaler",
            "prewarm",
            "--keepalive",
            "histogram",
            "--seed",
            "23",
        ],
        "serve_replay_back",
    );
    assert!(!original.is_empty());
    assert_eq!(
        original, replayed,
        "trace replay of a run's own arrival log must reproduce its metrics"
    );
    std::fs::remove_file(&log).ok();
}

#[test]
fn zoo_serve_metrics_are_byte_identical_per_seed() {
    let args = [
        "serve",
        "--arrivals",
        "zoo:bursty",
        "--duration",
        "180",
        "--autoscaler",
        "qlearn",
        "--keepalive",
        "adaptive",
        "--seed",
        "11",
    ];
    let a = metrics_bytes(&args, "zoo_a");
    let b = metrics_bytes(&args, "zoo_b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce byte-identical zoo JSONL");

    let mut other = args;
    other[other.len() - 1] = "12";
    assert_ne!(a, metrics_bytes(&other, "zoo_c"), "seed must matter");
}

#[test]
fn zoo_trace_replay_reproduces_the_original_run() {
    // A zoo run that writes its own arrival log, then a second run
    // replaying that log through `--arrivals trace:<path>`: the zoo
    // generator emits the ordinary ascending arrival schedule, so the
    // replay must be byte-identical.
    let mut log = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    log.push("zoo_replay_arrivals.jsonl");
    let log_str = log.to_str().expect("utf-8 tmpdir");
    let original = metrics_bytes(
        &[
            "serve",
            "--arrivals",
            "zoo:mixed",
            "--duration",
            "180",
            "--autoscaler",
            "qlearn",
            "--keepalive",
            "adaptive",
            "--seed",
            "42",
            "--arrival-log",
            log_str,
        ],
        "zoo_replay_orig",
    );
    let trace_arg = format!("trace:{log_str}");
    let replayed = metrics_bytes(
        &[
            "serve",
            "--arrivals",
            &trace_arg,
            "--duration",
            "180",
            "--autoscaler",
            "qlearn",
            "--keepalive",
            "adaptive",
            "--seed",
            "42",
        ],
        "zoo_replay_back",
    );
    assert!(!original.is_empty());
    assert_eq!(
        original, replayed,
        "trace replay of a zoo run's own arrival log must reproduce its metrics"
    );
    std::fs::remove_file(&log).ok();
}

#[test]
fn zero_traffic_serve_run_emits_nothing_and_spends_nothing() {
    let out = metrics_bytes(
        &["serve", "--rps", "0", "--duration", "600", "--seed", "42"],
        "serve_zero",
    );
    assert!(
        out.is_empty(),
        "zero arrivals must emit no metrics or events, got:\n{}",
        String::from_utf8_lossy(&out)
    );
}

#[test]
fn chaotic_serve_metrics_are_byte_identical_per_seed() {
    let args = [
        "serve",
        "--arrivals",
        "poisson",
        "--rps",
        "20",
        "--duration",
        "300",
        "--seed",
        "42",
        "--chaos",
        "coldspike:x4@0..60;throttle:0.3@100..160;outage:s3@200..230",
    ];
    let a = metrics_bytes(&args, "chaos_serve_a");
    let b = metrics_bytes(&args, "chaos_serve_b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same --chaos spec must match");
}

#[test]
fn resilient_lifecycle_metrics_are_byte_identical_per_seed() {
    let args = [
        "lifecycle",
        "--tenants",
        "2",
        "--duration",
        "90",
        "--rps",
        "4",
        "--quota",
        "20",
        "--seed",
        "23",
        "--chaos",
        "crash:0.4@10..60",
        "--retries",
        "2",
        "--hedge",
        "100",
        "--breaker",
        "0.6",
    ];
    let a = metrics_bytes(&args, "resilient_lifecycle_a");
    let b = metrics_bytes(&args, "resilient_lifecycle_b");
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same seed + same resilience flags must produce byte-identical lifecycle JSONL"
    );
}

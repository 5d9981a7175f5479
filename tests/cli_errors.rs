//! Bad user input must exit non-zero with a one-line diagnostic, never
//! a panic: malformed trace files, bogus keep-alive TTLs, unwritable
//! output paths. A panic in these paths is a bug (and `RUST_BACKTRACE`
//! noise for the user), so every assertion here checks stderr for the
//! panic marker too.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ce-scaling"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts the invocation fails with `code`, prints something
/// containing `needle`, and does not panic; returns its stderr.
fn assert_graceful(args: &[&str], code: i32, needle: &str) -> String {
    let (status, stderr) = run(args);
    assert_eq!(status, Some(code), "ce-scaling {args:?}:\n{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "ce-scaling {args:?} panicked:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "ce-scaling {args:?}: stderr lacks {needle:?}:\n{stderr}"
    );
    stderr
}

/// [`assert_graceful`] with exit code 2, and a diagnostic of one line.
fn assert_one_line_error(args: &[&str], needle: &str) {
    let stderr = assert_graceful(args, 2, needle);
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "ce-scaling {args:?}: more than one line:\n{stderr}"
    );
}

fn tmp(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p
}

#[test]
fn missing_arrival_trace_is_a_clean_error() {
    assert_graceful(
        &["serve", "--arrivals", "trace:/no/such/arrivals.jsonl"],
        2,
        "cannot read arrival log",
    );
}

#[test]
fn malformed_arrival_trace_is_a_clean_error() {
    let path = tmp("malformed_arrivals.jsonl");
    std::fs::write(&path, "{\"at_s\": 1.0}\nnot json at all\n").unwrap();
    let arg = format!("trace:{}", path.display());
    assert_graceful(&["serve", "--arrivals", &arg], 2, "bad arrival log");
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_order_arrival_trace_is_a_clean_error() {
    let path = tmp("unsorted_arrivals.jsonl");
    std::fs::write(&path, "{\"at_s\": 5.0}\n{\"at_s\": 1.0}\n").unwrap();
    let arg = format!("trace:{}", path.display());
    assert_graceful(&["serve", "--arrivals", &arg], 2, "bad arrival log");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bogus_keep_alive_ttls_are_typed_errors() {
    for (spec, why) in [
        ("fixed:-3", "negative"),
        ("fixed:NaN", "NaN"),
        ("fixed:inf", "infinite"),
        ("fixed:ten", "not a number"),
    ] {
        assert_graceful(&["serve", "--duration", "1", "--keepalive", spec], 2, why);
    }
    assert_graceful(
        &["serve", "--duration", "1", "--keepalive", "lru"],
        2,
        "unknown keep-alive policy",
    );
}

#[test]
fn unwritable_metrics_path_is_a_clean_error() {
    assert_graceful(
        &[
            "serve",
            "--duration",
            "10",
            "--metrics",
            "/no/such/dir/metrics.jsonl",
        ],
        1,
        "cannot write",
    );
}

#[test]
fn unwritable_arrival_log_path_is_a_clean_error() {
    assert_graceful(
        &[
            "serve",
            "--duration",
            "10",
            "--arrival-log",
            "/no/such/dir/arrivals.jsonl",
        ],
        1,
        "cannot write",
    );
}

#[test]
fn unknown_flags_and_values_are_usage_errors() {
    assert_graceful(&["serve", "--no-such-flag"], 2, "unknown option");
    assert_graceful(&["serve", "--rps"], 2, "missing value");
    assert_graceful(&["serve", "--rps", "fast"], 2, "invalid value");
    assert_graceful(&["cluster", "--policy", "magic"], 2, "unknown policy");
    assert_graceful(&["cluster", "--engine", "quantum"], 2, "unknown engine");
    assert_graceful(&["serve", "--chaos", "gremlins"], 2, "invalid --chaos");
}

#[test]
fn every_command_refuses_flags_it_does_not_read() {
    for (args, needle) in [
        (
            &["profile", "--seed", "1"][..],
            "profile does not take --seed",
        ),
        (
            &["plan-tuning", "--chaos", "crash:0.1@0..inf"],
            "plan-tuning does not take --chaos",
        ),
        (&["train", "--quota", "8"], "train does not take --quota"),
        (
            &["storage", "--autoscaler", "qlearn"],
            "storage does not take --autoscaler",
        ),
        (&["cluster", "--rps", "5"], "cluster does not take --rps"),
        (
            &[
                "serve",
                "--rps",
                "5",
                "--duration",
                "10",
                "--jobs",
                "7",
                "--model",
                "bert",
            ],
            "serve does not take --jobs",
        ),
        (
            &["lifecycle", "--model", "bert"],
            "lifecycle does not take --model",
        ),
    ] {
        assert_one_line_error(args, needle);
    }
}

#[test]
fn unknown_registry_names_list_the_valid_ones() {
    // An unknown name must name every valid alternative, so the user
    // can fix the typo without opening the docs.
    assert_graceful(
        &["cluster", "--policy", "magic"],
        2,
        "fifo|edf|cost-greedy|reject-on-overload",
    );
    assert_graceful(
        &["serve", "--autoscaler", "psychic"],
        2,
        "fixed:<n>|target|prewarm",
    );
    assert_graceful(
        &["serve", "--keepalive", "lru"],
        2,
        "fixed[:<ttl-s>]|adaptive|histogram",
    );
    assert_graceful(
        &["lifecycle", "--policy", "yolo"],
        2,
        "serve-first|train-first|fair-share|deadline",
    );
    assert_graceful(
        &["lifecycle", "--autoscaler", "psychic"],
        2,
        "fixed:<n>|target|prewarm",
    );
    assert_graceful(
        &["lifecycle", "--keepalive", "lru"],
        2,
        "fixed[:<ttl-s>]|adaptive|histogram",
    );
}

#[test]
fn lifecycle_bad_inputs_are_usage_errors() {
    assert_graceful(&["lifecycle", "--chaos", "gremlins"], 2, "invalid --chaos");
    // Simulations run on one thread, so the pool width is no option.
    assert_graceful(
        &["lifecycle", "--threads", "2"],
        2,
        "unknown option: --threads",
    );
    assert_graceful(&["lifecycle", "--tenants", "0"], 2, "at least 1 tenant");
    assert_graceful(&["lifecycle", "--quota", "0"], 2, "at least 1 worker");
    assert_graceful(&["lifecycle", "--job-cap", "0"], 2, "at least 1 worker");
}

#[test]
fn zero_sizes_are_usage_errors() {
    for (args, needle) in [
        (
            &["train", "--checkpoint-every", "0"][..],
            "at least 1 epoch",
        ),
        (&["cluster", "--checkpoint-every", "0"], "at least 1 epoch"),
        (&["cluster", "--quota", "0"], "at least 1 worker"),
        (&["cluster", "--job-cap", "0"], "at least 1 worker"),
    ] {
        assert_one_line_error(args, needle);
    }
}

#[test]
fn fixed_pools_over_the_ceiling_are_usage_errors() {
    // Refused while parsing, so no pool is ever prewarmed.
    for cmd in ["serve", "lifecycle"] {
        assert_one_line_error(
            &[cmd, "--autoscaler", "fixed:100000000"],
            "must be in [1, 100000]",
        );
    }
    // Each tenant's pool is in range, but the fleet's is not: refused
    // before any tenant's pool is built.
    assert_one_line_error(
        &[
            "lifecycle",
            "--tenants",
            "1000",
            "--autoscaler",
            "fixed:100000",
            "--duration",
            "1",
            "--rps",
            "0",
            "--drift-every",
            "0",
        ],
        "over the ceiling of 100000 warm instances",
    );
}

#[test]
fn topologies_over_the_pool_cap_are_usage_errors() {
    let spec = (0..257)
        .map(|i| format!("pool:p{i}"))
        .collect::<Vec<_>>()
        .join(";");
    for cmd in ["serve", "lifecycle"] {
        assert_graceful(&[cmd, "--topology", &spec], 2, "too many pools: 257");
    }
}

#[test]
fn bad_resilience_flags_are_usage_errors() {
    for cmd in ["serve", "lifecycle"] {
        assert_graceful(&[cmd, "--queue-cap", "0"], 2, "at least 1 slot");
        assert_graceful(&[cmd, "--queue-cap", "lots"], 2, "--queue-cap");
        assert_graceful(&[cmd, "--timeout-ms", "0"], 2, "must be a positive");
        assert_graceful(&[cmd, "--timeout-ms", "-5"], 2, "must be a positive");
        assert_graceful(&[cmd, "--timeout-ms", "soon"], 2, "--timeout-ms");
        assert_graceful(&[cmd, "--retries", "-1"], 2, "--retries");
        assert_graceful(&[cmd, "--retry-budget", "0"], 2, "must be positive");
        assert_graceful(&[cmd, "--hedge", "p50"], 2, "p95|<delay-ms>");
        assert_graceful(&[cmd, "--hedge", "-100"], 2, "p95|<delay-ms>");
        assert_graceful(&[cmd, "--breaker", "0"], 2, "(0, 1]");
        assert_graceful(&[cmd, "--breaker", "1.5"], 2, "(0, 1]");
        assert_graceful(&[cmd, "--brownout", "1"], 2, "(0, 1)");
        assert_graceful(&[cmd, "--brownout", "0"], 2, "(0, 1)");
    }
}

#[test]
fn float_flags_must_be_finite_and_in_range() {
    for (cmd, flag, bad, needle) in [
        ("serve", "--rps", "inf", "must be a number >= 0"),
        ("serve", "--rps", "-1", "must be a number >= 0"),
        ("serve", "--duration", "0", "must be positive"),
        ("lifecycle", "--duration", "nan", "must be positive"),
        ("serve", "--slo-ms", "-1", "must be a positive"),
        ("lifecycle", "--slo-ms", "inf", "must be a positive"),
        ("cluster", "--rate", "nan", "must be positive"),
        ("cluster", "--rate", "0", "must be positive"),
        ("train", "--budget", "nan", "must be positive"),
        ("train", "--budget", "-5", "must be positive"),
        ("train", "--deadline", "inf", "must be positive"),
        ("lifecycle", "--drift-every", "nan", "must be a number >= 0"),
        ("lifecycle", "--drift-every", "-60", "must be a number >= 0"),
        ("train", "--failure-rate", "1.5", "must be in [0, 1]"),
        ("train", "--failure-rate", "-0.1", "must be in [0, 1]"),
        ("train", "--failure-rate", "nan", "must be in [0, 1]"),
        ("serve", "--timeout-ms", "inf", "must be a positive"),
        ("serve", "--retry-budget", "nan", "must be positive"),
        ("serve", "--breaker", "nan", "must be in (0, 1]"),
        ("serve", "--brownout", "nan", "must be in (0, 1)"),
    ] {
        let message = format!("invalid value for {flag}: {bad} {needle}");
        assert_graceful(&[cmd, flag, bad], 2, &message);
    }
}

#[test]
fn run_config_errors_are_clean() {
    assert_graceful(&["run-config"], 2, "usage");
    assert_graceful(&["run-config", "/no/such/scenario.json"], 2, "cannot read");
    let path = tmp("bad_scenario.json");
    std::fs::write(&path, "{ definitely not a scenario").unwrap();
    let (status, stderr) = run(&["run-config", path.to_str().unwrap()]);
    assert_eq!(status, Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn sha_bracket_sizes_are_usage_errors() {
    for trials in ["0", "3", "100", "4000000000"] {
        assert_one_line_error(
            &["plan-tuning", "--trials", trials],
            "invalid value for --trials: initial trials must be a power of the reduction factor",
        );
    }
}

#[test]
fn scenario_fields_get_the_cli_ranges() {
    let path = tmp("out_of_range_scenario.json");
    let tuning = |extra: &str| {
        format!(r#"{{"kind": "tuning", "model": "lr", "constraint": {{"budget": 10.0}}, {extra}}}"#)
    };
    let training = |extra: &str| {
        format!(
            r#"{{"kind": "training", "model": "lr", "constraint": {{"budget": 10.0}}, {extra}}}"#
        )
    };
    for (scenario, needle) in [
        (tuning(r#""trials": 0"#), "SHA bracket"),
        (tuning(r#""trials": 100"#), "SHA bracket"),
        (tuning(r#""trials": 4000000000"#), "SHA bracket"),
        (tuning(r#""epochs_per_stage": 0"#), "SHA bracket"),
        (
            training(r#""failure_rate": 2.0"#),
            "failure_rate must be in [0, 1]",
        ),
        (
            training(r#""failure_rate": -1.0"#),
            "failure_rate must be in [0, 1]",
        ),
        (training(r#""method": "magic""#), "unknown method"),
        (training(r#""storage": "floppy""#), "unknown storage"),
        (
            training(r#""dataset": "mnist""#),
            "unsupported model/dataset",
        ),
        (
            r#"{"kind": "training", "model": "lr", "constraint": {"budget": 1e400}}"#.into(),
            "finite positive budget or deadline",
        ),
        (
            r#"{"kind": "training", "model": "lr", "constraint": {"deadline": -5}}"#.into(),
            "finite positive budget or deadline",
        ),
    ] {
        std::fs::write(&path, &scenario).unwrap();
        assert_one_line_error(&["run-config", path.to_str().unwrap()], needle);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn arrival_counts_over_the_ceiling_are_usage_errors() {
    for args in [
        &["serve", "--rps", "1e9", "--duration", "1e9"][..],
        &[
            "serve",
            "--arrivals",
            "bursty",
            "--rps",
            "1e6",
            "--duration",
            "1e3",
        ],
        &["serve", "--arrivals", "zoo:mixed", "--duration", "1e12"],
        &["lifecycle", "--duration", "1e12"],
        &[
            "lifecycle",
            "--tenants",
            "1000",
            "--rps",
            "100",
            "--duration",
            "1000",
        ],
    ] {
        assert_one_line_error(args, "over the ceiling of 10000000");
    }
}

#[test]
fn fleet_sizes_over_the_ceiling_are_usage_errors() {
    assert_one_line_error(
        &["cluster", "--jobs", "1000000000"],
        "over the ceiling of 100000 jobs",
    );
    assert_one_line_error(
        &[
            "lifecycle",
            "--drift-every",
            "0.000001",
            "--duration",
            "100",
        ],
        "drift events, over the ceiling of 10000000",
    );
}

#[test]
fn unknown_zoo_preset_is_a_usage_error() {
    assert_graceful(
        &["serve", "--arrivals", "zoo:azure2019"],
        2,
        "unknown zoo preset: azure2019",
    );
}

#[test]
fn malformed_zoo_specs_are_usage_errors() {
    // A second `:` segment is rejected, not silently ignored.
    assert_graceful(
        &["serve", "--arrivals", "zoo:mixed:3"],
        2,
        "malformed zoo spec",
    );
    // A bare `zoo` names no preset; the error lists the valid ones.
    assert_graceful(&["serve", "--arrivals", "zoo"], 2, "missing a preset name");
    let (_, stderr) = run(&["serve", "--arrivals", "zoo"]);
    assert!(
        stderr.contains("mixed") && stderr.contains("coldtail"),
        "zoo errors must list the presets:\n{stderr}"
    );
}

#[test]
fn invalid_qlearn_hyperparameters_are_usage_errors() {
    assert_graceful(
        &["serve", "--autoscaler", "qlearn:0:0.2:0.1"],
        2,
        "invalid qlearn train-episodes",
    );
    // Parsing the spec trains the policy, so episodes are capped.
    for episodes in ["100001", "4294967295"] {
        let spec = format!("qlearn:{episodes}:0.2:0.1");
        assert_one_line_error(
            &["serve", "--autoscaler", &spec],
            "invalid qlearn train-episodes",
        );
    }
    assert_graceful(
        &["serve", "--autoscaler", "qlearn:50:1.5:0.1"],
        2,
        "invalid qlearn epsilon",
    );
    assert_graceful(
        &["serve", "--autoscaler", "qlearn:50:0.2:0.0"],
        2,
        "invalid qlearn alpha",
    );
    // Wrong arity: three colon-separated hyperparameters or none.
    assert_graceful(
        &["serve", "--autoscaler", "qlearn:50:0.2"],
        2,
        "malformed qlearn spec",
    );
}

//! Golden-trace regression suite: canonical `--metrics` JSONL fixtures,
//! byte-compared against fresh runs of the `ce-scaling` binary.
//!
//! The fixtures under `tests/golden/` pin the simulator's deterministic
//! output contract *across commits*, not just within one run: any change
//! that moves a counter, reorders an event, or perturbs a float breaks
//! these tests and must either be fixed or explicitly re-baselined.
//! Cluster fixtures are verified against **both** fleet engines, so the
//! heap/naive equivalence is enforced forever, not just in unit tests.
//!
//! Each fixture command runs once, under whatever thread-count setting
//! the harness inherits; no simulation reads the thread count (DESIGN
//! §5g), and CI runs this suite at 1 and at 8 threads.
//!
//! Re-baselining (after an intentional output change):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! git diff tests/golden/   # review every changed fixture before committing
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Seeds pinned by the suite. Three is enough to catch seed-dependent
/// drift without tripling runtime for every extra scenario.
const SEEDS: [u64; 3] = [11, 23, 42];

fn fixture_path(scenario: &str, seed: u64) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push("golden");
    p.push(format!("{scenario}_{seed}.jsonl"));
    p
}

/// Runs the binary with `args` plus `--metrics <tmp>` and returns the
/// metrics bytes.
fn run_metrics(args: &[String], tag: &str) -> Vec<u8> {
    let mut path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    path.push(format!("golden_{tag}.jsonl"));
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

fn train_args(seed: u64) -> Vec<String> {
    [
        "train",
        "--model",
        "lr",
        "--dataset",
        "higgs",
        "--budget",
        "20",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

fn cluster_args(seed: u64, chaos: bool, engine: &str) -> Vec<String> {
    let mut args: Vec<String> = [
        "cluster", "--jobs", "12", "--rate", "30", "--policy", "edf", "--quota", "40",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    args.extend(["--seed".into(), seed.to_string()]);
    args.extend(["--engine".into(), engine.into()]);
    if chaos {
        args.extend([
            "--chaos".into(),
            "outage:s3@300..900;crash:0.05@0..inf".into(),
            "--recovery".into(),
            "checkpoint".into(),
            "--checkpoint-every".into(),
            "5".into(),
        ]);
    }
    args
}

fn serve_args(seed: u64) -> Vec<String> {
    [
        "serve",
        "--arrivals",
        "diurnal",
        "--rps",
        "25",
        "--duration",
        "600",
        "--autoscaler",
        "target",
        "--keepalive",
        "adaptive",
        "--slo-ms",
        "800",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The Serverless-in-the-Wild keep-alive: a diurnal trace under the
/// prewarm autoscaler and the gap-histogram TTL. The rate is low enough
/// that the p99 gap clears the policy's 10 s floor; at the serve
/// fixture's 25 req/s the TTL sits on that floor and the run matches
/// `--keepalive adaptive` byte for byte.
fn serve_histogram_args(seed: u64) -> Vec<String> {
    [
        "serve",
        "--arrivals",
        "diurnal",
        "--rps",
        "0.5",
        "--duration",
        "600",
        "--autoscaler",
        "prewarm",
        "--keepalive",
        "histogram",
        "--slo-ms",
        "800",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The trace-zoo + learned-autoscaler pipeline: a mixed Zipf/diurnal/
/// bursty/cold-tail trace served by the frozen Q-learning policy.
fn serve_zoo_args(seed: u64) -> Vec<String> {
    [
        "serve",
        "--arrivals",
        "zoo:mixed",
        "--duration",
        "120",
        "--autoscaler",
        "qlearn",
        "--keepalive",
        "adaptive",
        "--slo-ms",
        "800",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The edge–cloud substrate pipeline: the diurnal zoo family split
/// across the two-pool preset by the workload-aware planner.
fn serve_topo_args(seed: u64) -> Vec<String> {
    [
        "serve",
        "--arrivals",
        "zoo:diurnal",
        "--duration",
        "240",
        "--autoscaler",
        "prewarm",
        "--keepalive",
        "adaptive",
        "--slo-ms",
        "800",
        "--topology",
        "edge-cloud",
        "--placement",
        "workload-aware",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

fn lifecycle_args(seed: u64) -> Vec<String> {
    [
        "lifecycle",
        "--tenants",
        "3",
        "--duration",
        "120",
        "--rps",
        "3",
        "--quota",
        "24",
        "--job-cap",
        "8",
        "--policy",
        "serve-first",
        "--drift-every",
        "60",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// One resilient seed pins the whole resilience pipeline's output:
/// timeouts, budgeted retries, p95 hedging, the breaker, and brownout
/// all active under crash + coldspike chaos.
fn serve_resilient_args(seed: u64) -> Vec<String> {
    [
        "serve",
        "--rps",
        "20",
        "--duration",
        "120",
        "--chaos",
        "crash:0.3@10..60;coldspike:x4@0..inf",
        "--timeout-ms",
        "2000",
        "--retries",
        "2",
        "--retry-budget",
        "0.5",
        "--hedge",
        "p95",
        "--breaker",
        "0.5",
        "--brownout",
        "0.6",
        "--queue-cap",
        "500",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The resilient lifecycle fixture pins every tenant's resilience
/// pipeline on the shared quota: crash, cold-spike, throttle, and a
/// bounded outage window under timeouts, budgeted retries, p95 hedging,
/// the per-tenant breaker, brownout, and a small admission queue.
fn lifecycle_resilient_args(seed: u64) -> Vec<String> {
    [
        "lifecycle",
        "--tenants",
        "3",
        "--duration",
        "120",
        "--rps",
        "6",
        "--quota",
        "12",
        "--job-cap",
        "4",
        "--policy",
        "serve-first",
        "--drift-every",
        "60",
        "--chaos",
        "crash:0.4@10..40;coldspike:x4@0..inf;throttle:0.2@20..50;outage:s3@70..80",
        "--timeout-ms",
        "2000",
        "--retries",
        "2",
        "--retry-budget",
        "0.5",
        "--hedge",
        "p95",
        "--breaker",
        "0.6",
        "--brownout",
        "0.6",
        "--queue-cap",
        "8",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The multi-pool lifecycle fixture: tenants pinned across the
/// edge-cloud preset by the workload-aware planner, with training runs
/// placed independently and off-pool publishes crossing the link.
fn lifecycle_topo_args(seed: u64) -> Vec<String> {
    let mut args = lifecycle_args(seed);
    args.extend(["--topology", "edge-cloud", "--placement", "workload-aware"].map(String::from));
    args
}

/// The storm cluster fixture: every storage service goes dark once and
/// every one degrades for a while, on top of a light crash rate. It
/// pins the fleet-clock outage stall (`cluster.chaos_outage_stall`),
/// the degrade stretch (`cluster.chaos_degraded_epochs`) and cold
/// resumes after long stalls.
fn cluster_storm_args(engine: &str) -> Vec<String> {
    let mut args = cluster_args(42, false, engine);
    args.extend(
        [
            "--chaos",
            "outage:s3@300..900;outage:dynamodb@600..1200;\
             outage:elasticache@200..800;outage:vmps@400..1000;\
             degrade:s3:x3@0..1800;degrade:elasticache:x4@900..2400;\
             degrade:dynamodb:x2@0..inf;degrade:vmps:x2@1200..3000;\
             crash:0.05@0..inf",
            "--recovery",
            "checkpoint",
            "--checkpoint-every",
            "5",
        ]
        .map(String::from),
    );
    args
}

/// The storm lifecycle fixture: serving saturates a 4-worker quota, so
/// queued training waits long enough to resume cold, and the training
/// side hits both an outage stall (every service is dark at 30..50 s)
/// and crash stalls (60..90 s).
fn lifecycle_storm_args(seed: u64) -> Vec<String> {
    [
        "lifecycle",
        "--tenants",
        "3",
        "--duration",
        "700",
        "--rps",
        "6",
        "--quota",
        "4",
        "--job-cap",
        "4",
        "--policy",
        "serve-first",
        "--drift-every",
        "600",
        "--chaos",
        "outage:s3@30..50;outage:dynamodb@30..50;outage:elasticache@30..50;\
         outage:vmps@30..50;crash:0.3@60..90",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--seed".into(), seed.to_string()])
    .collect()
}

/// The value of counter `name` in a metrics export (0 when absent).
fn counter(text: &str, name: &str) -> u64 {
    let needle = format!(r#"{{"type":"counter","name":"{name}","value":"#);
    text.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .map_or(0, |rest| {
            rest.trim_end_matches('}').parse().expect("counter value")
        })
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `UPDATE_GOLDEN=1` is set.
fn check_golden(scenario: &str, seed: u64, actual: &[u8]) {
    let path = fixture_path(scenario, seed);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `UPDATE_GOLDEN=1 cargo test \
             --test golden_traces` to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{scenario} seed {seed} diverged from {}; if the change is \
         intentional, re-baseline with `UPDATE_GOLDEN=1 cargo test --test \
         golden_traces` and review the fixture diff",
        path.display()
    );
}

#[test]
fn train_traces_match_golden_fixtures() {
    for seed in SEEDS {
        let bytes = run_metrics(&train_args(seed), &format!("train_{seed}"));
        assert!(!bytes.is_empty());
        check_golden("train", seed, &bytes);
    }
}

#[test]
fn serve_traces_match_golden_fixtures() {
    for seed in SEEDS {
        let bytes = run_metrics(&serve_args(seed), &format!("serve_{seed}"));
        assert!(!bytes.is_empty());
        // Quantile summaries ride along with the histograms they describe.
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains(r#""type":"summary","name":"serve.latency_ms""#),
            "serve metrics must include the latency quantile summary"
        );
        check_golden("serve", seed, &bytes);
    }
}

/// The histogram keep-alive fixture: one seed, so the percentile TTL's
/// exact answers are pinned.
#[test]
fn histogram_serve_traces_match_golden_fixtures() {
    const SEED: u64 = 42;
    let bytes = run_metrics(
        &serve_histogram_args(SEED),
        &format!("serve_histogram_{SEED}"),
    );
    assert!(!bytes.is_empty());
    check_golden("serve_histogram", SEED, &bytes);
}

/// The zoo fixtures pin trace generation *and* the frozen Q-policy at
/// once, over two seeds.
#[test]
fn zoo_serve_traces_match_golden_fixtures() {
    for seed in [11, 42] {
        let bytes = run_metrics(&serve_zoo_args(seed), &format!("serve_zoo_{seed}"));
        assert!(!bytes.is_empty());
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains(r#""type":"summary","name":"serve.latency_ms""#),
            "zoo serve metrics must include the latency quantile summary"
        );
        check_golden("serve_zoo", seed, &bytes);
    }
}

/// The topo fixture pins placement, per-pool billing, and the forked
/// `"topo"` stream at once, on one seed.
#[test]
fn topo_serve_traces_match_golden_fixtures() {
    const SEED: u64 = 42;
    let bytes = run_metrics(&serve_topo_args(SEED), &format!("serve_topo_{SEED}"));
    assert!(!bytes.is_empty());
    let text = String::from_utf8_lossy(&bytes);
    for metric in [
        r#""name":"topo.pools""#,
        r#""name":"topo.requests.edge""#,
        r#""name":"topo.requests.cloud""#,
    ] {
        assert!(text.contains(metric), "topo fixture lacks {metric}");
    }
    check_golden("serve_topo", SEED, &bytes);
}

#[test]
fn lifecycle_traces_match_golden_fixtures() {
    for seed in SEEDS {
        let bytes = run_metrics(&lifecycle_args(seed), &format!("lifecycle_{seed}"));
        assert!(!bytes.is_empty());
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.contains(r#""name":"lifecycle.redeploys""#),
            "lifecycle metrics must include the redeploy counter"
        );
        check_golden("lifecycle", seed, &bytes);
    }
}

/// The resilient serve fixture pins the whole resilience pipeline on
/// one seed.
#[test]
fn resilient_serve_traces_match_golden_fixtures() {
    const SEED: u64 = 42;
    let bytes = run_metrics(
        &serve_resilient_args(SEED),
        &format!("serve_resilient_{SEED}"),
    );
    assert!(!bytes.is_empty());
    let text = String::from_utf8_lossy(&bytes);
    for metric in [
        r#""name":"resilience.attempts_total""#,
        r#""name":"resilience.retries""#,
        r#""name":"resilience.hedges""#,
        r#""name":"serve.timed_out""#,
    ] {
        assert!(text.contains(metric), "resilient fixture lacks {metric}");
    }
    check_golden("serve_resilient", SEED, &bytes);
}

#[test]
fn cluster_traces_match_golden_fixtures_on_both_engines() {
    for seed in SEEDS {
        // The fixture is authored from the default (heap) engine; the
        // naive engine must reproduce it byte-for-byte.
        let heap = run_metrics(
            &cluster_args(seed, false, "heap"),
            &format!("cluster_heap_{seed}"),
        );
        assert!(!heap.is_empty());
        check_golden("cluster", seed, &heap);
        let naive = run_metrics(
            &cluster_args(seed, false, "naive"),
            &format!("cluster_naive_{seed}"),
        );
        check_golden("cluster", seed, &naive);
    }
}

#[test]
fn chaotic_cluster_traces_match_golden_fixtures_on_both_engines() {
    for seed in SEEDS {
        let heap = run_metrics(
            &cluster_args(seed, true, "heap"),
            &format!("cluster_chaos_heap_{seed}"),
        );
        assert!(!heap.is_empty());
        check_golden("cluster_chaos", seed, &heap);
        let naive = run_metrics(
            &cluster_args(seed, true, "naive"),
            &format!("cluster_chaos_naive_{seed}"),
        );
        check_golden("cluster_chaos", seed, &naive);
    }
}

/// Byte-compares one seed-42 lifecycle fixture, checking that the
/// export carries `metrics`.
fn check_lifecycle_fixture(scenario: &str, args: &[String], metrics: &[&str]) {
    let bytes = run_metrics(args, &format!("{scenario}_42"));
    let text = String::from_utf8_lossy(&bytes);
    for metric in metrics {
        assert!(text.contains(metric), "{scenario} fixture lacks {metric}");
    }
    check_golden(scenario, 42, &bytes);
}

/// The resilient and multi-pool lifecycle fixtures.
#[test]
fn resilient_and_topo_lifecycle_traces_match_golden_fixtures() {
    check_lifecycle_fixture(
        "lifecycle_resilient",
        &lifecycle_resilient_args(42),
        &[
            r#""name":"resilience.retries""#,
            r#""name":"resilience.hedges""#,
            r#""name":"lifecycle.shed_breaker""#,
            r#""name":"lifecycle.timed_out""#,
        ],
    );
    check_lifecycle_fixture(
        "lifecycle_topo",
        &lifecycle_topo_args(42),
        &[r#""name":"topo.pools""#, r#""name":"topo.tenants.edge""#],
    );
}

/// The storm cluster fixture, on both engines.
#[test]
fn storm_cluster_traces_match_golden_fixture_on_both_engines() {
    for engine in ["heap", "naive"] {
        let bytes = run_metrics(
            &cluster_storm_args(engine),
            &format!("cluster_storm_42_{engine}"),
        );
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains(r#""name":"cluster.chaos_outage_stall""#));
        assert!(counter(&text, "cluster.chaos_degraded_epochs") > 0);
        assert!(counter(&text, "cluster.cold_resumes") > 0);
        check_golden("cluster_storm", 42, &bytes);
    }
}

/// The storm lifecycle fixture reaches the training outage stall (more
/// chaos stalls than worker losses) and a cold resume.
#[test]
fn storm_lifecycle_traces_match_golden_fixture() {
    let bytes = run_metrics(&lifecycle_storm_args(42), "lifecycle_storm_42");
    let text = String::from_utf8_lossy(&bytes);
    let losses = counter(&text, "lifecycle.chaos_worker_losses");
    assert!(losses > 0);
    assert!(counter(&text, "lifecycle.chaos_stalls") > losses);
    assert!(counter(&text, "lifecycle.cold_resumes") > 0);
    check_golden("lifecycle_storm", 42, &bytes);
}

//! The `ce-repro` binary: regenerate the paper's tables and figures.
//!
//! ```text
//! ce-repro list                 # experiment index
//! ce-repro all                  # run everything
//! ce-repro fig9 fig10 --quick   # a subset, shrunk for smoke testing
//! ce-repro fig19 --json         # machine-readable output
//! ce-repro all --out results/   # one <id>.json per experiment
//! ```

use ce_repro::registry;
use serde_json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_out = args.iter().any(|a| a == "--json");
    let out_dir: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics_path: Option<String> = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args.iter().any(|a| a == "--metrics") && metrics_path.is_none() {
        eprintln!("missing value for --metrics");
        std::process::exit(2);
    }
    let selected: Vec<String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--out" || *a == "--metrics" {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .cloned()
            .collect()
    };

    let experiments = registry();
    if selected.is_empty() || selected.iter().any(|s| s == "list") {
        eprintln!("usage: ce-repro [--quick] [--json] <experiment...|all|list>\n");
        eprintln!("experiments:");
        for e in &experiments {
            eprintln!("  {:8} {}", e.id, e.title);
        }
        std::process::exit(if selected.is_empty() { 2 } else { 0 });
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    let run_all = selected.iter().any(|s| s == "all");
    let mut results: Vec<Value> = Vec::new();
    let mut ran = 0;
    for e in &experiments {
        if run_all || selected.iter().any(|s| s == e.id) {
            if !json_out {
                println!("=== {} — {} ===\n", e.id, e.title);
            }
            let value = (e.run)(quick);
            if let Some(dir) = &out_dir {
                let path = std::path::Path::new(dir).join(format!("{}.json", e.id));
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&value).expect("serializable"),
                )
                .unwrap_or_else(|err| panic!("write {}: {err}", path.display()));
            }
            results.push(value);
            ran += 1;
            if !json_out {
                println!();
            }
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {selected:?}; try `ce-repro list`");
        std::process::exit(2);
    }
    if let Some(path) = &metrics_path {
        // Every instrumented experiment binds its jobs to (or merges its
        // cell registries into) the process-global ce-obs registry, so
        // this dump covers all experiments that just ran.
        std::fs::write(path, ce_obs::global().export_jsonl())
            .unwrap_or_else(|err| panic!("write {path}: {err}"));
        if !json_out {
            eprintln!("metrics written to {path}");
        }
    }
    if json_out {
        let merged: Value =
            results
                .into_iter()
                .fold(Value::Object(serde_json::Map::new()), |mut acc, v| {
                    if let (Value::Object(acc_map), Value::Object(map)) = (&mut acc, v) {
                        for (k, val) in map {
                            acc_map.insert(k, val);
                        }
                    }
                    acc
                });
        println!(
            "{}",
            serde_json::to_string_pretty(&merged).expect("serializable")
        );
    }
}

//! Performance-trajectory ledger: folds the current `results/bench_*.json`
//! microbench artifacts into the repo-top `BENCH_dispatch.json` /
//! `BENCH_scout.json` ledgers, one entry per engine revision.
//!
//! ```sh
//! # refresh results/bench_dispatch.json and results/bench_scout.json
//! VENICE_RESULTS_DIR=$PWD/results cargo bench -p venice-bench --bench dispatch_scan
//! VENICE_RESULTS_DIR=$PWD/results cargo bench -p venice-bench --bench scout_walk
//! cargo run --release -p venice-bench --bin perf_ledger      # append both ledgers
//! ```
//!
//! Each ledger is one JSON document with an `entries` array; an entry
//! records the git revision, a fingerprint of the source artifact, and the
//! headline aggregates (scenario count, mean speedup, mean events/s of the
//! optimized engine). Re-running against an unchanged artifact is a no-op
//! (the fingerprint dedups), so CI can invoke this unconditionally; the
//! per-PR trajectory accumulates across revisions.
//!
//! Flags: `--dir <path>` (ledger directory, default `.` — the repo top
//! when run via cargo).

use std::path::{Path, PathBuf};

use venice_bench::microbench::{json_f64_fields, json_str_fields};
use venice_bench::sweep::{fnv1a, FNV_OFFSET};
use venice_ssd::report::{f2, json_str};

/// `git describe --always --dirty` (provenance only, never compared).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Mean of `values` (`None` when empty).
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Folds one microbench artifact into one ledger entry line, or explains
/// why it cannot (missing artifact is a skip, not an error: the ledgers
/// only grow on machines that ran the benches).
fn entry_for(source: &Path, throughput_key: &str) -> Result<String, String> {
    let json = std::fs::read_to_string(source)
        .map_err(|e| format!("cannot read {} ({e}); run its bench first", source.display()))?;
    let scenarios = json_str_fields(&json, "name").len();
    let speedups = json_f64_fields(&json, "speedup");
    let throughput = json_f64_fields(&json, throughput_key);
    if scenarios == 0 || speedups.is_empty() {
        return Err(format!("{} has no scenarios", source.display()));
    }
    Ok(format!(
        "  {{\"git\": {}, \"fingerprint\": \"{:016x}\", \"scenarios\": {scenarios}, \
         \"mean_speedup\": {}, \"mean_{throughput_key}\": {}}}",
        json_str(&git_describe()),
        fnv1a(json.as_bytes(), FNV_OFFSET),
        f2(mean(&speedups).unwrap_or(0.0)),
        f2(mean(&throughput).unwrap_or(0.0)),
    ))
}

/// Appends `entry` to the ledger at `path` (creating it), unless the last
/// entry already carries the same artifact fingerprint.
fn append(path: &Path, ledger_name: &str, entry: String) -> std::io::Result<bool> {
    let mut entries: Vec<String> = match std::fs::read_to_string(path) {
        Ok(doc) => doc
            .lines()
            .filter(|l| l.trim_start().starts_with('{') && l.contains("\"git\""))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect(),
        Err(_) => Vec::new(),
    };
    let fp = |e: &str| {
        e.find("\"fingerprint\": ")
            .map(|at| e[at..].chars().take(36).collect::<String>())
    };
    if entries.last().is_some_and(|last| fp(last) == fp(&entry)) {
        return Ok(false);
    }
    entries.push(entry);
    let doc = format!(
        "{{\n \"ledger\": {},\n \"entries\": [\n{}\n ]\n}}\n",
        json_str(ledger_name),
        entries.join(",\n"),
    );
    std::fs::write(path, doc)?;
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = PathBuf::from(args.get(i).expect("missing value after --dir"));
            }
            other => panic!("unknown flag {other:?} (only --dir is supported)"),
        }
        i += 1;
    }
    let results = venice_bench::results_dir();
    let ledgers = [
        ("dispatch", "events_per_sec_incremental", "BENCH_dispatch.json"),
        ("scout", "events_per_sec_cache_on", "BENCH_scout.json"),
    ];
    for (name, throughput_key, ledger_file) in ledgers {
        let source = results.join(format!("bench_{name}.json"));
        match entry_for(&source, throughput_key) {
            Err(why) => eprintln!("[perf-ledger] {name}: skipped ({why})"),
            Ok(entry) => {
                let path = dir.join(ledger_file);
                match append(&path, name, entry) {
                    Ok(true) => println!("[perf-ledger] {name}: appended to {}", path.display()),
                    Ok(false) => {
                        println!("[perf-ledger] {name}: unchanged artifact, nothing appended")
                    }
                    Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
                }
            }
        }
    }
}

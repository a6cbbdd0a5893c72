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

use venice_bench::microbench::read_array;
use venice_bench::sweep::{fnv1a, git_describe, FNV_OFFSET};
use venice_ssd::report::{f2, json_str, Json};

/// Mean of `values` (`None` when empty).
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Folds one microbench artifact into one ledger entry, or explains why
/// it cannot (missing artifact is a skip, not an error: the ledgers only
/// grow on machines that ran the benches).
fn entry_for(source: &Path, throughput_key: &str) -> Result<Json, String> {
    let json = std::fs::read_to_string(source)
        .map_err(|e| format!("cannot read {} ({e}); run its bench first", source.display()))?;
    let scenarios =
        read_array(&json, "scenarios").map_err(|e| format!("{}: {e}", source.display()))?;
    let values = |key: &str| -> Vec<f64> {
        scenarios
            .iter()
            .filter_map(|s| s.get(key).and_then(Json::as_f64))
            .collect()
    };
    let (speedups, throughput) = (values("speedup"), values(throughput_key));
    if scenarios.is_empty() || speedups.is_empty() {
        return Err(format!("{} has no scenarios", source.display()));
    }
    let num = |values: &[f64]| Json::Num(f2(mean(values).unwrap_or(0.0)));
    Ok(Json::Object(vec![
        ("git".to_string(), Json::Str(git_describe())),
        (
            "fingerprint".to_string(),
            Json::Str(format!("{:016x}", fnv1a(json.as_bytes(), FNV_OFFSET))),
        ),
        ("scenarios".to_string(), Json::Num(scenarios.len().to_string())),
        ("mean_speedup".to_string(), num(&speedups)),
        (format!("mean_{throughput_key}"), num(&throughput)),
    ]))
}

/// The ledger document: one entry per line.
fn ledger_doc(ledger_name: &str, entries: &[Json]) -> String {
    let lines: Vec<String> = entries.iter().map(|e| format!("  {e}")).collect();
    format!(
        "{{\n \"ledger\": {},\n \"entries\": [\n{}\n ]\n}}\n",
        json_str(ledger_name),
        lines.join(",\n"),
    )
}

/// Appends `entry` to the ledger at `path` (creating it), unless the last
/// entry already carries the same artifact fingerprint.
fn append(path: &Path, ledger_name: &str, entry: Json) -> std::io::Result<bool> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(doc) => read_array(&doc, "entries")
            .map_err(|e| std::io::Error::other(format!("malformed ledger: {e}")))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let fingerprint = |e: &Json| e.get("fingerprint").cloned();
    if entries.last().is_some_and(|last| fingerprint(last) == fingerprint(&entry)) {
        return Ok(false);
    }
    entries.push(entry);
    std::fs::write(path, ledger_doc(ledger_name, &entries))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    const DISPATCH: &str = include_str!("../../../../BENCH_dispatch.json");

    /// The checked-in ledgers read back and re-render byte for byte; the
    /// checked-in artifact is the one the dispatch ledger last recorded, so
    /// re-running on it appends nothing; a malformed ledger is an error
    /// that leaves the file untouched.
    #[test]
    fn ledgers_read_back_and_unchanged_artifacts_append_nothing() {
        let scout = include_str!("../../../../BENCH_scout.json");
        for (name, doc) in [("dispatch", DISPATCH), ("scout", scout)] {
            let entries = read_array(doc, "entries").expect("ledger parses");
            let fingerprint = |e: &Json| e.get("fingerprint").and_then(Json::as_str).map(str::len);
            assert!(entries.iter().all(|e| fingerprint(e) == Some(16)), "{name}");
            assert_eq!(ledger_doc(name, &entries), doc, "{name}");
        }
        let dir = std::env::temp_dir().join("venice-perf-ledger-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (artifact, ledger) = (dir.join("bench_dispatch.json"), dir.join("BENCH_dispatch.json"));
        let bench = include_str!("../../../../results/bench_dispatch.json");
        std::fs::write(&artifact, bench).expect("write artifact");
        let entry = || entry_for(&artifact, "events_per_sec_incremental").expect("artifact reads");
        let without_git = |e: Option<Json>| match e {
            Some(Json::Object(fields)) => fields[1..].to_vec(),
            _ => Vec::new(),
        };
        let last = read_array(DISPATCH, "entries").expect("ledger parses").pop();
        assert_eq!(without_git(Some(entry())), without_git(last));
        let torn = "{\n \"ledger\": \"dispatch\",\n \"entries\": [\n  {\"git\": ";
        for doc in [DISPATCH, torn] {
            std::fs::write(&ledger, doc).expect("write ledger");
            assert!(!append(&ledger, "dispatch", entry()).unwrap_or(false));
            assert_eq!(std::fs::read_to_string(&ledger).expect("ledger"), doc);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Cross-sweep diff tool (the ROADMAP follow-up): compare two
//! `results/sweep_<name>/` artifacts point-by-point.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin sweep_diff -- \
//!     results/sweep_scoutcache results/sweep_scoutcache_before
//! cargo run --release -p venice-bench --bin sweep_diff -- --strict a b
//! ```
//!
//! Each argument is a sweep directory (containing `manifest.json`) or a
//! manifest path. Points are matched **by label**, and a matched pair is
//! identical only when its two point records are byte-identical (records
//! carry no wall-clock field). Every differing pair is reported with its
//! execution-time, event and conflicted-request deltas and the first
//! record key that differs; an unreadable record counts as differing. The
//! manifests' grid and metrics fingerprints are printed for reference.
//! Use it to diff the same grid before and after an engine change, or —
//! with `--ignore-scout-cache`, which folds the label's scout-cache
//! segment and masks the three fields the cache may change
//! ([`SCOUT_CACHE_FIELDS`]) — a cache-on vs cache-off big-mesh sweep,
//! where every simulated-behavior field must come out identical.
//!
//! Exit status: 0 when every matched point is identical and the point
//! sets match, 1 otherwise *only* under `--strict` (without it the tool is
//! purely informational and always exits 0).

use std::path::{Path, PathBuf};

/// One point as indexed by a manifest: label, record file, headline values.
struct PointEntry {
    label: String,
    file: String,
    /// `"complete"`, `"aborted"`, or `"failed"` (manifests written before
    /// run status existed index as `"complete"`).
    status: String,
    execution_time_ns: u64,
    events: u64,
}

/// A loaded manifest: fingerprints plus the point index.
struct Manifest {
    dir: PathBuf,
    name: String,
    grid_hash: String,
    metrics_fingerprint: String,
    points: Vec<PointEntry>,
}

/// Extracts the string value of the **first** `"key": "..."` field.
fn json_str_field(json: &str, key: &str) -> Option<String> {
    venice_bench::microbench::json_str_fields(json, key)
        .into_iter()
        .next()
}

/// Extracts the unsigned integer right after the first `"key": ` in `json`
/// (kept exact — the shared f64 extractor would lose precision on large
/// event counts).
fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)?;
    let digits: String = json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn load_manifest(arg: &str) -> Manifest {
    let path = Path::new(arg);
    let (dir, manifest_path) = if path.is_dir() {
        (path.to_path_buf(), path.join("manifest.json"))
    } else {
        (
            path.parent().unwrap_or(Path::new(".")).to_path_buf(),
            path.to_path_buf(),
        )
    };
    let json = std::fs::read_to_string(&manifest_path).unwrap_or_else(|e| {
        panic!("cannot read manifest {}: {e}", manifest_path.display())
    });
    let points_at = json
        .find("\"points\": [")
        .unwrap_or_else(|| panic!("{}: no points index", manifest_path.display()));
    let mut points = Vec::new();
    for line in json[points_at..].lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let (Some(label), Some(file)) =
            (json_str_field(line, "label"), json_str_field(line, "file"))
        else {
            continue;
        };
        points.push(PointEntry {
            label,
            file,
            status: json_str_field(line, "status").unwrap_or_else(|| "complete".to_string()),
            execution_time_ns: json_u64_field(line, "execution_time_ns").unwrap_or(0),
            events: json_u64_field(line, "events").unwrap_or(0),
        });
    }
    Manifest {
        name: json_str_field(&json, "name").unwrap_or_default(),
        grid_hash: json_str_field(&json, "grid_hash").unwrap_or_default(),
        metrics_fingerprint: json_str_field(&json, "metrics_fingerprint").unwrap_or_default(),
        dir,
        points,
    }
}

/// Percent delta of `b` relative to `a` (`0` when both zero).
fn pct(a: u64, b: u64) -> f64 {
    if a == 0 {
        if b == 0 { 0.0 } else { f64::INFINITY }
    } else {
        (b as f64 - a as f64) / a as f64 * 100.0
    }
}

/// Folds the scout-cache axis segment out of a point label so cache-on
/// and cache-off runs of the same grid match up.
fn fold_cache_segment(label: &str) -> String {
    let mut out = label.to_string();
    for seg in ["/cache-off", "/cache-on", "/cache-checked"] {
        out = out.replace(seg, "/cache-*");
    }
    out
}

/// The point-record fields `--ignore-scout-cache` masks before comparing:
/// the cache label and its two effort counters, the only fields the
/// scout fast-fail cache may change (perfbench's `check_cache_twin`
/// excuses the same three).
const SCOUT_CACHE_FIELDS: [&str; 3] = [
    "scout_cache",
    "scout_fastfails",
    "scout_cache_invalidations",
];

/// Replaces the value of every `"key": value` field named in `keys` with
/// `*` (a quoted string or a bare token up to the next `,`, `}` or line
/// end).
fn mask_fields(record: &str, keys: &[&str]) -> String {
    let mut out = record.to_string();
    for key in keys {
        let needle = format!("\"{key}\": ");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let rest = &out[start..];
            let len = if let Some(quoted) = rest.strip_prefix('"') {
                quoted.find('"').map_or(rest.len(), |q| q + 2)
            } else {
                rest.find([',', '}', '\n']).unwrap_or(rest.len())
            };
            out.replace_range(start..start + len, "*");
            from = start + 1;
        }
    }
    out
}

/// Compares two point records byte for byte after masking `masked` (see
/// [`mask_fields`]): `None` when identical, otherwise the first key whose
/// field differs (the last key in `a` that starts at or before the first
/// differing byte; `""` when the records differ before any key).
fn first_difference(a: &str, b: &str, masked: &[&str]) -> Option<String> {
    let (a, b) = (mask_fields(a, masked), mask_fields(b, masked));
    if a == b {
        return None;
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let mut key = "";
    let mut from = 0;
    while let Some(end) = a[from..].find("\": ").map(|i| from + i) {
        let start = a[..end].rfind('"').map_or(0, |q| q + 1);
        if start > at {
            break;
        }
        key = &a[start..end];
        from = end + 3;
    }
    Some(key.to_string())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut take_flag = |name: &str| -> bool {
        args.iter()
            .position(|a| a == name)
            .map(|at| args.remove(at))
            .is_some()
    };
    let strict = take_flag("--strict");
    let ignore_cache = take_flag("--ignore-scout-cache");
    if args.len() != 2 {
        eprintln!(
            "usage: sweep_diff [--strict] [--ignore-scout-cache] \
             <sweep-dir-or-manifest A> <B>"
        );
        std::process::exit(2);
    }
    let mut a = load_manifest(&args[0]);
    let mut b = load_manifest(&args[1]);
    let masked: &[&str] = if ignore_cache {
        for m in [&mut a, &mut b] {
            for p in &mut m.points {
                p.label = fold_cache_segment(&p.label);
            }
        }
        &SCOUT_CACHE_FIELDS
    } else {
        &[]
    };

    println!("A: {} ({} points)  grid {}", a.name, a.points.len(), a.grid_hash);
    println!("B: {} ({} points)  grid {}", b.name, b.points.len(), b.grid_hash);
    let fingerprints = if a.metrics_fingerprint == b.metrics_fingerprint {
        "match"
    } else {
        "differ"
    };
    println!(
        "manifest metrics fingerprints {fingerprints}: {} vs {}",
        a.metrics_fingerprint, b.metrics_fingerprint
    );

    let mut mismatched_points = 0usize;
    let mut missing_in_b = 0usize;
    let mut failed_points = 0usize;
    let mut compared = 0usize;
    // Pair points by (label, occurrence) in manifest order: labels can
    // legally repeat after `--ignore-scout-cache` folding (a manifest that
    // carries both cache modes, like the `scoutcache` grid), so each B
    // point is consumed at most once instead of first-match winning twice.
    let mut b_used = vec![false; b.points.len()];
    println!(
        "\n{:<64} {:>14} {:>10} {:>10}  first differing key",
        "point (label)", "exec Δ%", "events Δ%", "confl Δ"
    );
    for pa in &a.points {
        let Some(bi) =
            (0..b.points.len()).find(|&i| !b_used[i] && b.points[i].label == pa.label)
        else {
            println!("{:<64} -- only in A --", pa.label);
            missing_in_b += 1;
            continue;
        };
        b_used[bi] = true;
        let pb = &b.points[bi];
        // A panicked point's record is a placeholder, not metrics: report
        // it instead of diffing meaningless zeros.
        if pa.status == "failed" || pb.status == "failed" {
            let side = match (pa.status.as_str(), pb.status.as_str()) {
                ("failed", "failed") => "A and B",
                ("failed", _) => "A",
                _ => "B",
            };
            println!("{:<64} -- FAILED in {side} --", pa.label);
            failed_points += 1;
            continue;
        }
        compared += 1;
        let ra = std::fs::read_to_string(a.dir.join(&pa.file)).ok();
        let rb = std::fs::read_to_string(b.dir.join(&pb.file)).ok();
        let difference = match (&ra, &rb) {
            (Some(ra), Some(rb)) => first_difference(ra, rb, masked),
            _ => Some("<unreadable record>".to_string()),
        };
        // Print only differing points (plus a one-line summary below);
        // identical points would drown the signal on big grids.
        let Some(key) = difference else { continue };
        mismatched_points += 1;
        // Headline deltas from the records, or from the manifest when a
        // record is unreadable.
        let field = |r: &Option<String>, key: &str, fallback: u64| {
            r.as_deref()
                .and_then(|j| json_u64_field(j, key))
                .unwrap_or(fallback)
        };
        let (exec_a, exec_b) = (
            field(&ra, "execution_time_ns", pa.execution_time_ns),
            field(&rb, "execution_time_ns", pb.execution_time_ns),
        );
        let (ev_a, ev_b) = (field(&ra, "events", pa.events), field(&rb, "events", pb.events));
        let (cf_a, cf_b) = (
            field(&ra, "conflicted_requests", 0),
            field(&rb, "conflicted_requests", 0),
        );
        println!(
            "{:<64} {:>+13.3}% {:>+9.3}% {:>+10}  {key}",
            pa.label,
            pct(exec_a, exec_b),
            pct(ev_a, ev_b),
            cf_b as i64 - cf_a as i64,
        );
    }
    let only_in_b = b_used.iter().filter(|&&u| !u).count();
    for (pb, used) in b.points.iter().zip(&b_used) {
        if !used {
            println!("{:<64} -- only in B --", pb.label);
        }
    }

    println!(
        "\n{compared} points compared: {} identical, {mismatched_points} differing; \
         {failed_points} failed, {missing_in_b} only in A, {only_in_b} only in B",
        compared - mismatched_points
    );
    if strict
        && (mismatched_points > 0 || missing_in_b > 0 || only_in_b > 0 || failed_points > 0)
    {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed point record in `RunMetrics::to_json`'s layout.
    const RECORD: &str = r#"{
  "system": "Venice",
  "scout_cache": "cache-off",
  "execution_time_ns": 3932580,
  "fabric": {"acquisitions": 6020, "scout_fastfails": 0, "scout_cache_invalidations": 0, "hops_total": 0},
  "tenants": [{"name": "all", "failed": 84, "data_loss": 29, "deadline_misses": 55}],
  "redundancy": {"kind": "parity4", "degraded_reads": 12, "rebuilt_pages": 1015, "data_loss_requests": 0},
  "events": 17251
}"#;

    #[test]
    fn records_compare_whole_and_name_the_first_differing_key() {
        assert_eq!(first_difference(RECORD, RECORD, &[]), None);
        // Fields outside execution time, events, conflicts and energy
        // (what the comparison used to read) must count.
        let lost = RECORD
            .replace("\"rebuilt_pages\": 1015", "\"rebuilt_pages\": 0")
            .replace("\"data_loss_requests\": 0", "\"data_loss_requests\": 7");
        assert_eq!(
            first_difference(RECORD, &lost, &[]).as_deref(),
            Some("rebuilt_pages")
        );
        let tenant = RECORD.replace("\"deadline_misses\": 55", "\"deadline_misses\": 56");
        assert_eq!(
            first_difference(RECORD, &tenant, &[]).as_deref(),
            Some("deadline_misses")
        );
        // A field-set change is named by the key where the records part.
        let renamed = RECORD.replace("rebuilt_pages", "rebuilt_pagez");
        assert_eq!(
            first_difference(RECORD, &renamed, &[]).as_deref(),
            Some("rebuilt_pages")
        );
    }

    #[test]
    fn ignore_scout_cache_masks_exactly_its_three_fields() {
        let cached = RECORD
            .replace("\"cache-off\"", "\"cache-on\"")
            .replace("\"scout_fastfails\": 0", "\"scout_fastfails\": 812")
            .replace(
                "\"scout_cache_invalidations\": 0",
                "\"scout_cache_invalidations\": 40",
            );
        assert_eq!(first_difference(RECORD, &cached, &SCOUT_CACHE_FIELDS), None);
        assert_eq!(
            first_difference(RECORD, &cached, &[]).as_deref(),
            Some("scout_cache")
        );
        let steps = cached.replace("\"hops_total\": 0", "\"hops_total\": 1");
        assert_eq!(
            first_difference(RECORD, &steps, &SCOUT_CACHE_FIELDS).as_deref(),
            Some("hops_total")
        );
    }
}

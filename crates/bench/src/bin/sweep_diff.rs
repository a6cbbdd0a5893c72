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
//! execution-time, event and conflicted-request deltas and the dotted path
//! of the first record field that differs (`redundancy.rebuilt_pages`);
//! a missing or malformed record counts as differing. The manifests' grid
//! and metrics fingerprints are printed for reference. Use it to diff the
//! same grid before and after an engine change, or — with
//! `--ignore-scout-cache`, which folds the label's scout-cache segment and
//! masks the three fields the cache may change ([`SCOUT_CACHE_FIELDS`]) —
//! a cache-on vs cache-off big-mesh sweep, where every simulated-behavior
//! field must come out identical.
//!
//! Exit status: 0 when every matched point is identical and the point
//! sets match, 1 otherwise *only* under `--strict` (without it the tool is
//! purely informational and always exits 0); 2 on bad usage or an
//! unreadable or malformed manifest.

use std::path::{Path, PathBuf};

use venice_ssd::report::Json;

/// One point as indexed by a manifest: label, record file, status
/// (`"complete"` when absent), headline values.
struct PointEntry {
    label: String,
    file: String,
    status: String,
    execution_time_ns: u64,
    events: u64,
}

/// A loaded manifest: its directory, document and point index.
struct Manifest {
    dir: PathBuf,
    doc: Json,
    points: Vec<PointEntry>,
}

/// A string field of a manifest or point entry (`""` when absent).
fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Loads the manifest of a sweep directory or manifest path; an unreadable
/// or malformed manifest is an error naming the file.
fn load_manifest(arg: &str) -> Result<Manifest, String> {
    let path = Path::new(arg);
    let (dir, manifest_path) = if path.is_dir() {
        (path.to_path_buf(), path.join("manifest.json"))
    } else {
        (
            path.parent().unwrap_or(Path::new(".")).to_path_buf(),
            path.to_path_buf(),
        )
    };
    let fail = |why: String| format!("{}: {why}", manifest_path.display());
    let doc = std::fs::read_to_string(&manifest_path).map_err(|e| fail(e.to_string()))?;
    let doc = Json::parse(&doc).map_err(fail)?;
    let num = |entry: &Json, key| entry.get(key).and_then(Json::as_u64).unwrap_or(0);
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("no points index".to_string()))?
        .iter()
        .map(|entry| PointEntry {
            label: text(entry, "label").to_string(),
            file: text(entry, "file").to_string(),
            status: entry.get("status").and_then(Json::as_str).unwrap_or("complete").to_string(),
            execution_time_ns: num(entry, "execution_time_ns"),
            events: num(entry, "events"),
        })
        .collect();
    Ok(Manifest { dir, doc, points })
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

/// Compares two point records: `None` when they are byte-identical, or —
/// with `masked` keys — when they parse and differ only in fields named
/// in `masked` (at any depth). Otherwise names the first differing field
/// in `a`'s document order as a dotted path (`redundancy.rebuilt_pages`,
/// `tenants[0].deadline_misses`); a record that does not parse is
/// `<malformed record>`, and records that differ only in layout are
/// `<layout>`.
fn first_difference(a: &str, b: &str, masked: &[&str]) -> Option<String> {
    if a == b {
        return None;
    }
    let (Ok(ta), Ok(tb)) = (Json::parse(a), Json::parse(b)) else {
        return Some("<malformed record>".to_string());
    };
    match difference_path(&ta, &tb, masked, "") {
        Some(path) => Some(path),
        None if masked.is_empty() => Some("<layout>".to_string()),
        None => None,
    }
}

/// The path of the first value where `a` and `b` differ, skipping object
/// entries whose key is in `masked`; an object entry whose key differs is
/// named by `a`'s key (or `b`'s, once `a` has run out).
fn difference_path(a: &Json, b: &Json, masked: &[&str], path: &str) -> Option<String> {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (a, b) {
        (Json::Object(x), Json::Object(y)) => {
            (0..x.len().max(y.len())).find_map(|i| match (x.get(i), y.get(i)) {
                (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                    if masked.contains(&ka.as_str()) {
                        None
                    } else {
                        difference_path(va, vb, masked, &join(ka))
                    }
                }
                (Some((key, _)), _) | (None, Some((key, _))) => Some(join(key)),
                (None, None) => None,
            })
        }
        (Json::Array(x), Json::Array(y)) => {
            (0..x.len().max(y.len())).find_map(|i| match (x.get(i), y.get(i)) {
                (Some(va), Some(vb)) => difference_path(va, vb, masked, &format!("{path}[{i}]")),
                _ => Some(format!("{path}[{i}]")),
            })
        }
        _ => (a != b).then(|| path.to_string()),
    }
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
    let (mut a, mut b) = match (load_manifest(&args[0]), load_manifest(&args[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sweep_diff: {e}");
            std::process::exit(2);
        }
    };
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

    for (side, m) in [("A", &a), ("B", &b)] {
        let (name, grid) = (text(&m.doc, "name"), text(&m.doc, "grid_hash"));
        println!("{side}: {name} ({} points)  grid {grid}", m.points.len());
    }
    let fingerprint = |m: &Manifest| text(&m.doc, "metrics_fingerprint").to_string();
    let (fa, fb) = (fingerprint(&a), fingerprint(&b));
    let verdict = if fa == fb { "match" } else { "differ" };
    println!("manifest metrics fingerprints {verdict}: {fa} vs {fb}");

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
        // Headline deltas: time and events from the manifest index,
        // conflicted requests from the records (0 when unreadable).
        let conflicts = |r: &Option<String>| {
            r.as_deref()
                .and_then(|j| Json::parse(j).ok()?.get("conflicted_requests")?.as_u64())
                .map_or(0, |n| n as i64)
        };
        println!(
            "{:<64} {:>+13.3}% {:>+9.3}% {:>+10}  {key}",
            pa.label,
            pct(pa.execution_time_ns, pb.execution_time_ns),
            pct(pa.events, pb.events),
            conflicts(&rb) - conflicts(&ra),
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
            Some("redundancy.rebuilt_pages")
        );
        let tenant = RECORD.replace("\"deadline_misses\": 55", "\"deadline_misses\": 56");
        assert_eq!(
            first_difference(RECORD, &tenant, &[]).as_deref(),
            Some("tenants[0].deadline_misses")
        );
        // A field-set change is named by the key where the records part.
        let renamed = RECORD.replace("rebuilt_pages", "rebuilt_pagez");
        assert_eq!(
            first_difference(RECORD, &renamed, &[]).as_deref(),
            Some("redundancy.rebuilt_pages")
        );
        let extra = RECORD.replace("\"events\": 17251", "\"events\": 17251, \"spare\": 0");
        assert_eq!(first_difference(RECORD, &extra, &[]).as_deref(), Some("spare"));
        // A truncated record differs, also with fields masked, and so does
        // one that only moved its whitespace.
        let torn = &RECORD[..RECORD.len() - 1];
        let malformed = Some("<malformed record>".to_string());
        assert_eq!(first_difference(RECORD, torn, &SCOUT_CACHE_FIELDS), malformed);
        let relaid = RECORD.replace("\n  ", "\n    ");
        assert_eq!(first_difference(RECORD, &relaid, &[]).as_deref(), Some("<layout>"));
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
            Some("fabric.hops_total")
        );
    }
}

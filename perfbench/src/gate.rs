//! The correctness gate: every point run is checked before its timing
//! counts, and a failing point is counted without stopping the others.

use std::collections::HashMap;

use venice_interconnect::ScoutCacheKind;
use venice_ssd::{RunMetrics, RunStatus};

/// Expected `RunMetrics::to_json` fingerprints, one line per
/// `<workload> <seed> <point label> <fnv1a-64 hex>`. Regenerate with
/// `--fingerprints <first>..<last>` only for a change that is meant to move
/// simulated results, and say so in that change.
const PINNED: &str = include_str!("../fingerprints.tsv");

/// FNV-1a 64 of a run's JSON record: the fingerprint the gate compares.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    m.to_json().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pinned fingerprints of one workload and seed, by point label.
pub fn pinned(workload: &str, seed: u64) -> HashMap<String, u64> {
    PINNED
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [w, s, label, hex] = fields[..] else {
                return None;
            };
            if w != workload || s.parse::<u64>().ok()? != seed {
                return None;
            }
            Some((label.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Why a point run failed, if it did: status, outcome accounting, or
/// fingerprint. `expected` is the pinned fingerprint, or the one this
/// point produced earlier in the run when the seed is not pinned.
pub fn check(m: &RunMetrics, trace_len: usize, expected: Option<u64>) -> Result<(), String> {
    if m.status != RunStatus::Complete {
        return Err(format!("status {}", m.status.label()));
    }
    if m.completed_requests + m.shed_requests != trace_len as u64 {
        return Err(format!(
            "completed {} + shed {} != {trace_len} requests",
            m.completed_requests, m.shed_requests
        ));
    }
    if m.deadline_met_requests + m.failed_requests > m.completed_requests {
        return Err(format!(
            "deadline-met {} + failed {} > completed {}",
            m.deadline_met_requests, m.failed_requests, m.completed_requests
        ));
    }
    let got = fingerprint(m);
    match expected {
        Some(want) if want != got => Err(format!("fingerprint {got:016x} != expected {want:016x}")),
        _ => Ok(()),
    }
}

/// Checks that a cache-on Venice run matches its cache-off twin in every
/// simulated field: only the cache's own effort counters may differ.
pub fn check_cache_twin(on: &RunMetrics, off: &RunMetrics) -> Result<(), String> {
    let mut on = on.clone();
    on.scout_cache = ScoutCacheKind::Off;
    on.fabric.scout_fastfails = off.fabric.scout_fastfails;
    on.fabric.scout_cache_invalidations = off.fabric.scout_cache_invalidations;
    if on == *off {
        Ok(())
    } else {
        Err("cache-on Venice differs from cache-off in a simulated field".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_interconnect::FabricKind;

    fn complete(requests: u64) -> RunMetrics {
        let mut m = RunMetrics::failed(FabricKind::Venice, "t", "cfg");
        m.status = RunStatus::Complete;
        m.completed_requests = requests;
        m.deadline_met_requests = requests;
        m
    }

    #[test]
    fn gate_rejects_each_broken_invariant() {
        let m = complete(10);
        assert!(check(&m, 10, None).is_ok());
        assert!(check(&m, 10, Some(fingerprint(&m))).is_ok());
        assert!(check(&m, 10, Some(fingerprint(&m) ^ 1)).is_err());
        assert!(check(&m, 11, None).is_err());
        let mut shed = complete(8);
        shed.shed_requests = 2;
        assert!(check(&shed, 10, None).is_ok());
        let mut over = complete(10);
        over.failed_requests = 1;
        assert!(check(&over, 10, None).is_err());
        let mut aborted = complete(10);
        aborted.status = RunStatus::Aborted;
        assert!(check(&aborted, 10, None).is_err());
    }

    #[test]
    fn cache_twin_ignores_only_the_effort_counters() {
        let off = complete(10);
        let mut on = off.clone();
        on.scout_cache = ScoutCacheKind::On;
        on.fabric.scout_fastfails = 7;
        on.fabric.scout_cache_invalidations = 3;
        assert!(check_cache_twin(&on, &off).is_ok());
        on.fabric.scout_steps += 1;
        assert!(check_cache_twin(&on, &off).is_err());
    }

    #[test]
    fn pinned_table_parses() {
        for line in PINNED.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "malformed line {line:?}");
            assert!(f[1].parse::<u64>().is_ok() && u64::from_str_radix(f[3], 16).is_ok());
        }
    }
}

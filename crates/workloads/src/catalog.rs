//! The workload catalog: the nineteen traces of Table 2.
//!
//! Each entry carries the paper's published statistics (read %, average
//! request size, average inter-arrival time) plus pattern knobs assigned per
//! trace family:
//!
//! * **MSR Cambridge** volumes — skewed (Zipf 0.9–1.0 equivalent via our
//!   `theta < 1` sampler), small footprints, mild sequentiality,
//! * **YCSB** key-value — large mostly-random reads, high skew,
//! * **Slacker / SYSTOR / YCSB-RocksDB** — medium skew, larger requests.

use crate::WorkloadSpec;

/// One catalog row: Table 2's statistics for a named workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CatalogEntry {
    /// Trace name as the paper prints it.
    pub name: &'static str,
    /// Trace source suite.
    pub suite: &'static str,
    /// Read percentage.
    pub read_pct: f64,
    /// Average request size, KiB.
    pub avg_request_kb: f64,
    /// Average inter-request arrival time, µs.
    pub avg_interarrival_us: f64,
}

/// The nineteen evaluated workloads (Table 2).
pub const TABLE2: [CatalogEntry; 19] = [
    CatalogEntry { name: "hm_0", suite: "MSR", read_pct: 36.0, avg_request_kb: 8.8, avg_interarrival_us: 58.0 },
    CatalogEntry { name: "mds_0", suite: "MSR", read_pct: 12.0, avg_request_kb: 9.6, avg_interarrival_us: 268.0 },
    CatalogEntry { name: "proj_3", suite: "MSR", read_pct: 95.0, avg_request_kb: 9.6, avg_interarrival_us: 19.0 },
    CatalogEntry { name: "prxy_0", suite: "MSR", read_pct: 3.0, avg_request_kb: 7.2, avg_interarrival_us: 242.0 },
    CatalogEntry { name: "rsrch_0", suite: "MSR", read_pct: 9.0, avg_request_kb: 9.6, avg_interarrival_us: 129.0 },
    CatalogEntry { name: "src1_0", suite: "MSR", read_pct: 56.0, avg_request_kb: 43.2, avg_interarrival_us: 49.0 },
    CatalogEntry { name: "src2_1", suite: "MSR", read_pct: 98.0, avg_request_kb: 59.2, avg_interarrival_us: 50.0 },
    CatalogEntry { name: "usr_0", suite: "MSR", read_pct: 40.0, avg_request_kb: 22.8, avg_interarrival_us: 98.0 },
    CatalogEntry { name: "wdev_0", suite: "MSR", read_pct: 20.0, avg_request_kb: 9.2, avg_interarrival_us: 162.0 },
    CatalogEntry { name: "web_1", suite: "MSR", read_pct: 54.0, avg_request_kb: 29.6, avg_interarrival_us: 67.0 },
    CatalogEntry { name: "YCSB_B", suite: "YCSB", read_pct: 99.0, avg_request_kb: 65.7, avg_interarrival_us: 13.0 },
    CatalogEntry { name: "YCSB_D", suite: "YCSB", read_pct: 99.0, avg_request_kb: 62.0, avg_interarrival_us: 14.0 },
    CatalogEntry { name: "jenkins", suite: "Slacker", read_pct: 94.0, avg_request_kb: 33.4, avg_interarrival_us: 615.0 },
    CatalogEntry { name: "postgres", suite: "Slacker", read_pct: 82.0, avg_request_kb: 13.3, avg_interarrival_us: 382.0 },
    CatalogEntry { name: "LUN0", suite: "SYSTOR17", read_pct: 76.0, avg_request_kb: 20.4, avg_interarrival_us: 218.0 },
    CatalogEntry { name: "LUN2", suite: "SYSTOR17", read_pct: 73.0, avg_request_kb: 16.0, avg_interarrival_us: 320.0 },
    CatalogEntry { name: "LUN3", suite: "SYSTOR17", read_pct: 7.0, avg_request_kb: 7.7, avg_interarrival_us: 3127.0 },
    CatalogEntry { name: "ssd-00", suite: "YCSB-RocksDB", read_pct: 91.0, avg_request_kb: 90.0, avg_interarrival_us: 5.0 },
    CatalogEntry { name: "ssd-10", suite: "YCSB-RocksDB", read_pct: 99.0, avg_request_kb: 11.5, avg_interarrival_us: 2.0 },
];

/// Builds the calibrated [`WorkloadSpec`] for a catalog entry.
pub fn spec(entry: &CatalogEntry) -> WorkloadSpec {
    let base = WorkloadSpec::new(
        entry.name,
        entry.read_pct,
        entry.avg_request_kb,
        entry.avg_interarrival_us,
    );
    // Burst pacing: requests inside a burst arrive fast enough to pile up
    // on the flash channels (the condition that exposes path conflicts),
    // scaled by the request size so the per-burst byte rate is comparable
    // across workloads.
    // Per-burst byte rate ≈ 2 GB/s: past the baseline's effective hot-channel
    // rate, below the fabric-pooled designs' aggregate — the knee where path
    // conflicts, not raw bandwidth, decide drain times.
    let gap_us = (entry.avg_request_kb / 48.0).max(0.1);
    let base = base.intra_burst_gap_us(gap_us);
    match entry.suite {
        // MSR volumes: small hot sets, skewed accesses, some sequential runs.
        "MSR" => base.footprint_mb(2048).zipf_theta(0.92).seq_fraction(0.25).burst_mean(192.0),
        // YCSB: big uniform-ish key space with Zipfian hot keys, random I/O.
        "YCSB" => base.footprint_mb(8192).zipf_theta(0.9).seq_fraction(0.05).burst_mean(256.0),
        // Container pulls / database scans: larger sequential share.
        "Slacker" => base.footprint_mb(4096).zipf_theta(0.7).seq_fraction(0.4).burst_mean(128.0),
        "SYSTOR17" => base.footprint_mb(4096).zipf_theta(0.9).seq_fraction(0.2).burst_mean(192.0),
        // RocksDB on SSD: compaction-heavy, large requests, wide space.
        "YCSB-RocksDB" => base.footprint_mb(8192).zipf_theta(0.8).seq_fraction(0.15).burst_mean(256.0),
        _ => base,
    }
}

/// Looks up a catalog workload by name and returns its calibrated spec.
///
/// # Example
///
/// ```
/// let spec = venice_workloads::catalog::by_name("hm_0").unwrap();
/// assert_eq!(spec.read_pct, 36.0);
/// ```
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    TABLE2.iter().find(|e| e.name == name).map(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_workloads() {
        assert_eq!(TABLE2.len(), 19);
    }

    #[test]
    fn names_are_unique() {
        let set: std::collections::HashSet<_> = TABLE2.iter().map(|e| e.name).collect();
        assert_eq!(set.len(), 19);
    }

    #[test]
    fn by_name_finds_every_entry() {
        for e in &TABLE2 {
            let s = by_name(e.name).expect("present");
            assert_eq!(s.read_pct, e.read_pct);
            assert_eq!(s.avg_request_kb, e.avg_request_kb);
            assert_eq!(s.avg_interarrival_us, e.avg_interarrival_us);
        }
        assert!(by_name("not-a-workload").is_none());
    }

    #[test]
    fn generated_traces_hit_table2_statistics() {
        // Spot-check three workloads across intensity classes.
        for name in ["hm_0", "YCSB_B", "LUN3"] {
            let spec = by_name(name).unwrap();
            let t = spec.generate(5_000);
            let s = t.stats();
            assert!(
                (s.read_pct - spec.read_pct).abs() < 3.0,
                "{name} read% {}",
                s.read_pct
            );
            // Bursty arrivals make the sample mean noisy at 5k requests
            // (~150 bursts); the long-run mean converges to the target.
            assert!(
                (s.avg_interarrival_us - spec.avg_interarrival_us).abs()
                    / spec.avg_interarrival_us
                    < 0.25,
                "{name} inter-arrival {}",
                s.avg_interarrival_us
            );
            assert!(
                (s.avg_request_kb - spec.avg_request_kb).abs() / spec.avg_request_kb < 0.25,
                "{name} size {}",
                s.avg_request_kb
            );
        }
    }
}

//! Setup cost: host time of `SsdSim::new` plus its drop on an SSD sized
//! for each catalog footprint (2, 4 and 8 GiB) — the FTL map's zeroed
//! allocation, the precondition, the chips' write pointers and the
//! engine's own state, everything a simulated point pays before its first
//! event. The precondition does no per-page work: the map records its
//! stripe and each written block its page count, so what is left scales
//! with blocks, chips and the per-chip engine state, plus the allocations
//! themselves. Prints one `ns/iter` line per footprint and writes
//! `results/bench_setup.json`.

use std::hint::black_box;
use std::time::Duration;

use venice_bench::microbench::Runner;
use venice_interconnect::FabricKind;
use venice_ssd::{SsdConfig, SsdSim};
use venice_workloads::catalog;

fn main() {
    let mut r = Runner::new("setup").sample_budget(Duration::from_millis(500));
    // One catalog workload per footprint: MSR, SYSTOR17 and YCSB volumes.
    for name in ["hm_0", "LUN0", "YCSB_B"] {
        let trace = catalog::by_name(name)
            .expect("catalog workload")
            .generate(100);
        let footprint = trace.footprint_bytes();
        let config = SsdConfig::performance_optimized().sized_for_footprint(footprint);
        r.bench(&format!("new_{}gib_{name}", footprint >> 30), || {
            black_box(SsdSim::new(config.clone(), FabricKind::Venice, &trace));
        });
    }
    r.finish();
}

//! The Venice SSD simulator: full-system assembly of HIL, FTL, interconnect
//! fabrics, and flash chips.
//!
//! This crate is the reproduction's equivalent of MQSim's front end: it
//! wires together the substrates from the sibling crates and exposes a
//! one-call experiment interface. It is single-threaded and holds no
//! global state: parallel sweeps live in `venice_bench::sweep`.
//!
//! * [`SsdConfig`] — the paper's Table 1 configurations
//!   (performance-optimized Z-NAND, cost-optimized 3D TLC) plus shape and
//!   sizing knobs,
//! * [`SsdSim`] — the event-driven SSD model (request lifecycle per the
//!   paper's Figure 3); its fault, host-resilience and RAIN state exists
//!   only when the config arms that subsystem,
//! * [`DispatchPolicyKind`] — pluggable dispatcher retry strategies
//!   (retry-all, conflict-aware backoff, per-fabric auto),
//! * [`run_single`] / [`run_systems`] — run a workload on one fabric or
//!   on several (Baseline, pSSD, pnSSD, NoSSD, Venice, Ideal; the fabric
//!   type is `venice_interconnect::FabricKind`),
//! * [`RunMetrics`] — execution time, IOPS, tail latency, conflict rate,
//!   power/energy: every metric the paper's evaluation reports,
//! * [`report`] — markdown/CSV table helpers for the figure harnesses.
//!
//! # Example
//!
//! ```
//! use venice_interconnect::FabricKind;
//! use venice_ssd::{run_systems, SsdConfig};
//! use venice_workloads::catalog;
//!
//! let trace = catalog::by_name("hm_0").unwrap().generate(500);
//! let cfg = SsdConfig::performance_optimized();
//! let results = run_systems(&cfg, &[FabricKind::Baseline, FabricKind::Venice], &trace);
//! assert_eq!(results[1].completed_requests, 500);
//! // Venice resolves far more requests without path conflicts.
//! assert!(results[1].conflict_pct() < results[0].conflict_pct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dispatch;
mod experiment;
mod fault;
mod metrics;
mod redundancy;
pub mod report;
mod resilience;
mod ssd;

pub use config::{SsdConfig, StaticPower};
pub use dispatch::{
    DispatchPolicyKind, DispatchScanKind, DispatchStats, BACKOFF_MAX_ROUNDS, STARVATION_NS,
};
pub use experiment::{run_single, run_systems};
pub use fault::{FaultAction, FaultPlan};
pub use metrics::{RunMetrics, RunStatus, TenantMetrics};
pub use redundancy::{
    parity_group, RedundancyKind, REBUILD_BURST, REBUILD_MAX_JOBS, REBUILD_RATE,
    REBUILD_RETRY_LIMIT, REBUILD_SCAN_BATCH, REBUILD_TICK,
};
pub use resilience::{
    AdmissionParams, ResilienceParams, ResiliencePolicy, RetryParams, BATCH_DEADLINE,
    LATENCY_DEADLINE, RETRY_JITTER_SEED,
};
pub use ssd::SsdSim;
// Re-exported for config/sweep ergonomics: the scout fast-fail cache mode is
// an `SsdConfig` knob and a sweep axis, like `DispatchPolicyKind`.
pub use venice_interconnect::ScoutCacheKind;
// Re-exported for config/sweep ergonomics: the tenancy model is an
// `SsdConfig` knob and a sweep axis; it lives in `venice_hil` because the
// host interface enforces it. `DeadlineClass` rides along: it is a tenant
// attribute the core's per-tenant deadline stamping consumes.
pub use venice_hil::{DeadlineClass, TenantSet, TenantSpec};

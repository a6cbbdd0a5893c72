//! The Venice SSD simulator: full-system assembly of HIL, FTL, interconnect
//! fabrics, and flash chips.
//!
//! This crate is the reproduction's equivalent of MQSim's front end: it
//! wires together the substrates from the sibling crates and exposes a
//! one-call experiment interface.
//!
//! * [`SsdConfig`] — the paper's Table 1 configurations
//!   (performance-optimized Z-NAND, cost-optimized 3D TLC) plus shape and
//!   sizing knobs,
//! * [`SsdSim`] — the event-driven SSD model (request lifecycle per the
//!   paper's Figure 3),
//! * [`DispatchPolicyKind`] — pluggable dispatcher retry strategies
//!   (retry-all, conflict-aware backoff, per-fabric auto),
//! * [`ExperimentBuilder`] / [`run_systems`] — run workloads across the six
//!   systems (Baseline, pSSD, pnSSD, NoSSD, Venice, Ideal),
//! * [`RunMetrics`] — execution time, IOPS, tail latency, conflict rate,
//!   power/energy: every metric the paper's evaluation reports,
//! * [`report`] — markdown/CSV table helpers for the figure harnesses.
//!
//! # Example
//!
//! ```
//! use venice_ssd::{run_systems, SsdConfig, SystemKind};
//! use venice_workloads::catalog;
//!
//! let trace = catalog::by_name("hm_0").unwrap().generate(500);
//! let cfg = SsdConfig::performance_optimized();
//! let results = run_systems(
//!     &cfg,
//!     &[SystemKind::Baseline, SystemKind::Venice],
//!     &trace,
//! );
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
pub use experiment::{
    all_systems, enter_shared_pool, run_single, run_systems, shared_pool_active,
    ExperimentBuilder, SharedPoolGuard, SystemKind,
};
pub use fault::{FaultAction, FaultPlan};
pub use metrics::{RunMetrics, RunStatus, TenantMetrics};
pub use redundancy::{
    parity_group, RedundancyKind, REBUILD_BURST, REBUILD_MAX_JOBS, REBUILD_RATE,
    REBUILD_RETRY_LIMIT, REBUILD_SCAN_BATCH, REBUILD_TICK,
};
pub use resilience::{
    AdmissionParams, RequestOutcome, ResilienceParams, ResiliencePolicy, RetryParams,
    BATCH_DEADLINE, LATENCY_DEADLINE, RETRY_JITTER_SEED,
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

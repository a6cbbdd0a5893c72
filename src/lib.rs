//! # Venice: conflict-free SSD accesses — reproduction facade
//!
//! This crate re-exports the whole Venice reproduction workspace under one
//! roof so examples and downstream users can write `venice::ssd::...`.
//!
//! The workspace reproduces *Nadig & Sadrosadati et al., "Venice: Improving
//! Solid-State Drive Parallelism at Low Cost via Conflict-Free Accesses",
//! ISCA 2023*: a cycle-approximate multi-queue SSD simulator with five
//! intra-SSD communication fabrics (Baseline shared bus, pSSD, pnSSD, NoSSD,
//! Venice) plus an ideal path-conflict-free fabric.
//!
//! See [`ssd::run_single`] for the one-call entry point (one workload on
//! one fabric, for example a Figure 15 reshape via
//! [`ssd::SsdConfig::with_mesh`]), and `venice_bench::sweep` (a
//! dev-dependency of this facade, used by the examples) for design-space
//! sweep grids over a shared worker pool. `docs/ARCHITECTURE.md` maps the
//! crates and a request's life through them.
//!
//! # Example
//!
//! ```
//! use venice::interconnect::FabricKind;
//! use venice::ssd::{run_single, SsdConfig};
//! use venice::workloads::catalog;
//!
//! let trace = catalog::by_name("hm_0").unwrap().generate(2_000);
//! let metrics = run_single(&SsdConfig::performance_optimized(), FabricKind::Venice, &trace);
//! assert!(metrics.completed_requests > 0);
//! ```

#![warn(missing_docs)]

pub use venice_ftl as ftl;
pub use venice_hil as hil;
pub use venice_interconnect as interconnect;
pub use venice_nand as nand;
pub use venice_sim as sim;
pub use venice_ssd as ssd;
pub use venice_workloads as workloads;

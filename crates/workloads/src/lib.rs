//! Workload catalog and synthetic trace generation for the Venice
//! reproduction.
//!
//! The paper evaluates nineteen real data-intensive storage traces (MSR
//! Cambridge, YCSB, Slacker, SYSTOR '17, YCSB-RocksDB — its Table 2) plus
//! six mixed workloads (Table 3). The raw trace files are external
//! artifacts, and no trace file is read: this crate generates deterministic
//! synthetic traces whose published first-order statistics match Table 2
//! exactly; see [`WorkloadSpec`] for the generator's knobs.
//!
//! * [`catalog`] — the nineteen named workloads with calibrated specs,
//! * [`mix`] — the six Table 3 mixes (partitioned address space, merged and
//!   time-compressed to the published intensity),
//! * [`WorkloadSpec`] — build your own workload,
//! * [`WorkloadAxis`] — uniform catalog/mix/custom adapter for sweep grids,
//! * [`Trace`] — the time-ordered request records handed to the simulator.
//!
//! # Example
//!
//! ```
//! use venice_workloads::catalog;
//! let trace = catalog::by_name("src1_0").unwrap().generate(1_000);
//! assert_eq!(trace.len(), 1_000);
//! let stats = trace.stats();
//! assert!((stats.read_pct - 56.0).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
pub mod catalog;
pub mod mix;
mod synth;
mod trace;

pub use axis::WorkloadAxis;
pub use synth::{WorkloadSpec, SECTOR_BYTES};
pub use trace::{IoOp, Trace, TraceEvent, TraceStats};

//! Host interface layer (HIL) for the Venice reproduction.
//!
//! Models the NVMe-style multi-queue front end of §2.2: the host places
//! requests into one of several submission queues; the HIL arbitrates
//! across queues and posts completions back after a fixed firmware
//! handling latency. Queue depth is finite, so a saturated SSD
//! back-pressures the host — exactly how an open-loop trace replay behaves
//! on a real device.
//!
//! Queues are partitioned across a [`TenantSet`] of namespaces: each
//! tenant owns a contiguous queue range, fetch arbitration is weighted
//! round-robin with per-tenant queue-depth caps, and statistics are kept
//! per tenant. The default single-tenant set degenerates to the plain
//! round-robin arbiter (the NVMe default) bit-for-bit.
//!
//! # Example
//!
//! ```
//! use venice_hil::{HilConfig, HostInterface, HostRequest, TenantSet};
//! use venice_sim::SimTime;
//! use venice_workloads::IoOp;
//!
//! let mut hil = HostInterface::with_tenants(HilConfig::default(), TenantSet::single());
//! let accepted = hil.submit(HostRequest {
//!     id: 1,
//!     tenant: 0,
//!     arrival: SimTime::ZERO,
//!     op: IoOp::Read,
//!     offset: 0,
//!     bytes: 4096,
//!     deadline: None,
//! });
//! assert!(accepted);
//! let fetched = hil.fetch().unwrap();
//! assert_eq!(fetched.id, 1);
//! hil.complete(fetched.id, SimTime::from_micros(9));
//! assert_eq!(hil.stats().completed, 1);
//! assert_eq!(hil.tenant_stats()[0].completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nvme;
mod tenant;

pub use nvme::{HilConfig, HilStats, HostInterface, HostRequest};
pub use tenant::{DeadlineClass, TenantSet, TenantSpec};

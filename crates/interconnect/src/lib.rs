//! Intra-SSD communication fabrics for the Venice reproduction.
//!
//! This crate implements the paper's contribution and every fabric it is
//! compared against, behind the uniform [`Fabric`] interface:
//!
//! * the **Baseline** multi-channel shared bus, **pSSD** (2× bandwidth) and
//!   **pnSSD** (row + column buses) of Kim et al.,
//! * **NoSSD** — a 2D mesh of buffered routers with deterministic
//!   dimension-order routing (Tavakkol et al.),
//! * **Venice** — router chips beside each flash chip, a scout that reserves
//!   a path with the non-minimal fully-adaptive routing algorithm of the
//!   paper's Algorithm 1 ([`mesh::MeshState::scout_walk`]) over
//!   circuit-switched bidirectional links, router reservation tables
//!   ([`router`]), and the scout fast-fail cache ([`scout`]) that replays
//!   failed walks,
//! * the **Ideal** path-conflict-free SSD used as the upper bound.
//!
//! The [`area_power`] module encodes the paper's Table 4 power/area
//! constants and derives the §6.6 overhead results.
//!
//! # Example: reserving a conflict-free path the Venice way
//!
//! ```
//! use venice_interconnect::mesh::MeshState;
//! use venice_interconnect::{Mesh2D, NodeId};
//! use venice_sim::rng::Lfsr2;
//!
//! let mut mesh = MeshState::new(Mesh2D::new(8, 8), 8);
//! let mut lfsr = Lfsr2::new();
//! let (path, outcome) = mesh
//!     .scout_walk(0, NodeId(0), NodeId(63), &mut lfsr)
//!     .expect("idle mesh always has a path");
//! assert_eq!(path.hops(), 14); // minimal Manhattan route
//! assert!(!outcome.detoured);
//! mesh.release(&path);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area_power;
mod fabric;
pub mod mesh;
pub mod router;
pub mod scout;
mod topology;

pub use area_power::{table4, AreaModel, LinkPower, Table4Row};
pub use fabric::{
    build_fabric, AcquireError, Fabric, FabricFault, FabricKind, FabricParams, FabricStats,
    FaultImpact, PathGrant,
};
pub use scout::{FailedWalk, ScoutCache, ScoutCacheKind};
pub use topology::{Direction, FcId, LinkId, Mesh2D, NodeId};

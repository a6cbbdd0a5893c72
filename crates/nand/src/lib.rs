//! NAND flash chip model for the Venice SSD reproduction.
//!
//! Models the flash-chip array of §2.1 of the paper: each **chip** contains
//! one or more **dies** (the unit of operation concurrency), each die has
//! several **planes**, planes contain **blocks** (the erase unit), and
//! blocks contain **pages** (the read/program unit).
//!
//! The engine issues single-page commands: [`FlashChip::start`] takes one
//! page address, and an erase names its block through any of its pages.
//! Real dies can also run multi-plane commands (distinct planes at the same
//! block/page offset); the model leaves them out, and planes matter only to
//! the FTL, which stripes allocation across them and collects garbage plane
//! by plane.
//!
//! The model enforces real NAND constraints:
//!
//! * pages within a block must be programmed strictly in order,
//! * a page cannot be reprogrammed before its block is erased
//!   (erase-before-write),
//! * a die executes one operation at a time.
//!
//! Timing ([`NandTiming`]) and per-operation energy ([`OpEnergy`]) presets
//! correspond to the paper's Table 1 configurations: `z_nand()`
//! (performance-optimized, Samsung Z-NAND-like) and `tlc_3d()`
//! (cost-optimized, 3D TLC like the PM9A3).
//!
//! # Example
//!
//! ```
//! use venice_nand::{ChipGeometry, FlashChip, NandCommandKind, NandTiming, OpEnergy, PageAddr};
//! use venice_sim::SimTime;
//!
//! let geom = ChipGeometry::z_nand_small();
//! let mut chip = FlashChip::with_energy(geom, NandTiming::z_nand(), OpEnergy::z_nand());
//! // One command programs one page.
//! let page = PageAddr { die: 0, plane: 0, block: 0, page: 0 };
//! let done = chip
//!     .start(NandCommandKind::Program, page, SimTime::ZERO)
//!     .expect("die idle, page fresh");
//! assert_eq!(done, SimTime::ZERO + NandTiming::z_nand().t_prog);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod geometry;
mod power;
mod timing;

pub use chip::{ChipError, ChipStats, FlashChip, NandCommandKind};
pub use geometry::{ChipGeometry, ChipId, PageAddr, PhysicalPageAddr};
pub use power::OpEnergy;
pub use timing::NandTiming;

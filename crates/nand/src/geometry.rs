//! Flash array geometry and physical addressing.

use std::fmt;

/// Identifier of a flash chip within the SSD's chip array.
///
/// Chips are numbered row-major over the (channel/row, way/column) grid, so
/// chip `r * cols + c` sits at row `r`, column `c` — the same node numbering
/// the paper's Figure 8 uses for the mesh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipId(pub u16);

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Geometry of a single flash chip (§2.1: chip → die → plane → block → page).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChipGeometry {
    /// Dies per chip (independent operation units), typically 1–4.
    pub dies: u32,
    /// Planes per die, typically 2 or 4.
    pub planes_per_die: u32,
    /// Blocks per plane (erase units).
    pub blocks_per_plane: u32,
    /// Pages per block (program order is enforced within a block).
    pub pages_per_block: u32,
    /// Page size in bytes (unit of read/program transfer).
    pub page_size: u32,
}

impl ChipGeometry {
    /// A scaled-down Z-NAND geometry for fast unit tests (same shape, fewer
    /// blocks/pages).
    pub const fn z_nand_small() -> Self {
        ChipGeometry {
            dies: 1,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_size: 4 * 1024,
        }
    }

    /// Pages per plane.
    pub const fn pages_per_plane(&self) -> u64 {
        self.blocks_per_plane as u64 * self.pages_per_block as u64
    }

    /// Pages per die.
    pub const fn pages_per_die(&self) -> u64 {
        self.pages_per_plane() * self.planes_per_die as u64
    }

    /// Total pages in the chip.
    pub const fn pages_per_chip(&self) -> u64 {
        self.pages_per_die() * self.dies as u64
    }

    /// Number of planes in the chip.
    pub const fn planes_per_chip(&self) -> u32 {
        self.dies * self.planes_per_die
    }

    /// Validates an intra-chip address against this geometry.
    pub fn contains(&self, a: PageAddr) -> bool {
        a.die < self.dies
            && a.plane < self.planes_per_die
            && a.block < self.blocks_per_plane
            && a.page < self.pages_per_block
    }

    /// Flattens an intra-chip page address to a dense index in
    /// `[0, pages_per_chip)`; inverse of [`ChipGeometry::page_from_index`].
    pub fn page_index(&self, a: PageAddr) -> u64 {
        debug_assert!(self.contains(a));
        ((u64::from(a.die) * u64::from(self.planes_per_die) + u64::from(a.plane))
            * u64::from(self.blocks_per_plane)
            + u64::from(a.block))
            * u64::from(self.pages_per_block)
            + u64::from(a.page)
    }

    /// Reconstructs an intra-chip page address from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= pages_per_chip()`.
    pub fn page_from_index(&self, idx: u64) -> PageAddr {
        assert!(idx < self.pages_per_chip(), "page index out of range");
        let page = (idx % u64::from(self.pages_per_block)) as u32;
        let rest = idx / u64::from(self.pages_per_block);
        let block = (rest % u64::from(self.blocks_per_plane)) as u32;
        let rest = rest / u64::from(self.blocks_per_plane);
        let plane = (rest % u64::from(self.planes_per_die)) as u32;
        let die = (rest / u64::from(self.planes_per_die)) as u32;
        PageAddr {
            die,
            plane,
            block,
            page,
        }
    }
}

/// A page address within one chip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}p{}b{}pg{}",
            self.die, self.plane, self.block, self.page
        )
    }
}

/// A fully qualified physical page address: chip plus intra-chip location.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalPageAddr {
    /// The chip holding the page.
    pub chip: ChipId,
    /// Location within the chip.
    pub addr: PageAddr,
}

impl fmt::Display for PhysicalPageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.chip, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_index_roundtrips() {
        let g = ChipGeometry::z_nand_small();
        for idx in 0..g.pages_per_chip() {
            let a = g.page_from_index(idx);
            assert!(g.contains(a));
            assert_eq!(g.page_index(a), idx);
        }
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = ChipGeometry::z_nand_small();
        assert!(!g.contains(PageAddr {
            die: g.dies,
            ..Default::default()
        }));
        assert!(!g.contains(PageAddr {
            plane: g.planes_per_die,
            ..Default::default()
        }));
        assert!(!g.contains(PageAddr {
            block: g.blocks_per_plane,
            ..Default::default()
        }));
        assert!(!g.contains(PageAddr {
            page: g.pages_per_block,
            ..Default::default()
        }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_from_index_rejects_overflow() {
        let g = ChipGeometry::z_nand_small();
        g.page_from_index(g.pages_per_chip());
    }

    #[test]
    fn display_formats() {
        let p = PhysicalPageAddr {
            chip: ChipId(3),
            addr: PageAddr {
                die: 0,
                plane: 1,
                block: 2,
                page: 7,
            },
        };
        assert_eq!(p.to_string(), "F3:d0p1b2pg7");
    }
}

//! Page-level logical-to-physical mapping table.

use crate::Gppa;

const UNMAPPED: u32 = 0;

/// The L2P table: a dense array over the logical page space.
///
/// Real controllers keep this table in DRAM (cached via the CMT, see
/// [`crate::MappingCache`]); the simulator keeps it fully resident and
/// charges DRAM-access latency at the SSD level.
///
/// Each entry is a `u32` holding the physical page plus one, zero meaning
/// unmapped: a fresh table is one zeroed allocation (which the allocator
/// can take straight from zero pages), and it maps physical pages up to
/// [`PageMap::MAX_GPPA`], so arrays stay below 2^32 pages.
///
/// # Example
///
/// ```
/// use venice_ftl::{Gppa, PageMap};
/// let mut m = PageMap::new(100);
/// assert_eq!(m.translate(5), None);
/// assert_eq!(m.update(5, Gppa(42)), None);
/// assert_eq!(m.translate(5), Some(Gppa(42)));
/// assert_eq!(m.update(5, Gppa(77)), Some(Gppa(42))); // old page invalidated
/// ```
#[derive(Clone, Debug)]
pub struct PageMap {
    entries: Vec<u32>,
    mapped: u64,
}

impl PageMap {
    /// The largest physical page an entry can hold.
    pub const MAX_GPPA: u64 = u32::MAX as u64 - 1;

    /// Creates an unmapped table covering `logical_pages` pages.
    pub fn new(logical_pages: u64) -> Self {
        PageMap {
            entries: vec![UNMAPPED; logical_pages as usize],
            mapped: 0,
        }
    }

    /// Number of logical pages the table covers.
    pub fn logical_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Looks up the physical page of `lpa`, or `None` if never written.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical space.
    pub fn translate(&self, lpa: u64) -> Option<Gppa> {
        decode(self.entries[lpa as usize])
    }

    /// Points `lpa` at a new physical page, returning the previous physical
    /// page (now invalid) if there was one — the out-of-place write step of
    /// §2.2.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical space or `gppa` exceeds
    /// [`PageMap::MAX_GPPA`].
    pub fn update(&mut self, lpa: u64, gppa: Gppa) -> Option<Gppa> {
        assert!(gppa.0 <= Self::MAX_GPPA, "{gppa} exceeds the u32 map");
        let slot = &mut self.entries[lpa as usize];
        let old = decode(*slot);
        *slot = gppa.0 as u32 + 1;
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Maps every logical page of an empty table round-robin over
    /// `planes` runs of `plane_stride` physical pages: page `lpa` maps to
    /// `(lpa % planes) * plane_stride + lpa / planes`. The caller says
    /// where a run starts; the map knows no address layout. Writes each
    /// entry once.
    ///
    /// # Panics
    ///
    /// Panics if the table is not empty or a run would overflow.
    pub(crate) fn map_striped(&mut self, planes: usize, plane_stride: u64) {
        assert_eq!(self.mapped, 0, "striping a used table");
        let rows = self.logical_pages().div_ceil(planes as u64);
        assert!(rows <= plane_stride, "{rows} pages overflow a plane");
        assert!(planes as u64 * plane_stride <= Self::MAX_GPPA + 1);
        let stride = plane_stride as u32;
        for (row, entries) in self.entries.chunks_mut(planes).enumerate() {
            let first = row as u32 + 1;
            for (plane, e) in entries.iter_mut().enumerate() {
                *e = first + plane as u32 * stride;
            }
        }
        self.mapped = self.logical_pages();
    }
}

fn decode(entry: u32) -> Option<Gppa> {
    entry.checked_sub(1).map(|g| Gppa(u64::from(g)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_unmapped() {
        let m = PageMap::new(10);
        for lpa in 0..10 {
            assert_eq!(m.translate(lpa), None);
        }
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!(m.logical_pages(), 10);
    }

    #[test]
    fn update_tracks_mapped_count() {
        let mut m = PageMap::new(4);
        assert_eq!(m.update(0, Gppa(1)), None);
        assert_eq!(m.update(1, Gppa(2)), None);
        assert_eq!(m.mapped_pages(), 2);
        // Overwrite does not change the count but reports the stale page.
        assert_eq!(m.update(0, Gppa(9)), Some(Gppa(1)));
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn entries_hold_physical_pages_up_to_the_u32_bound() {
        let mut m = PageMap::new(3);
        let top = Gppa(PageMap::MAX_GPPA);
        assert_eq!(PageMap::MAX_GPPA, u64::from(u32::MAX) - 1);
        assert_eq!(m.update(0, top), None);
        assert_eq!(m.update(1, Gppa(0)), None);
        assert_eq!(m.translate(0), Some(top));
        assert_eq!(m.translate(1), Some(Gppa(0)));
        assert_eq!(m.translate(2), None);
        assert_eq!(m.update(0, Gppa(PageMap::MAX_GPPA - 1)), Some(top));
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 map")]
    fn a_physical_page_past_the_u32_bound_panics() {
        PageMap::new(1).update(0, Gppa(PageMap::MAX_GPPA + 1));
    }

    #[test]
    fn striping_maps_round_robin_over_planes() {
        // Seven pages over three planes of 100 pages: rows of three.
        let mut m = PageMap::new(7);
        m.map_striped(3, 100);
        let expect = [0, 100, 200, 1, 101, 201, 2];
        for (lpa, g) in expect.into_iter().enumerate() {
            assert_eq!(m.translate(lpa as u64), Some(Gppa(g)));
        }
        assert_eq!(m.mapped_pages(), 7);
        // Three planes that fill the u32 bound exactly: the last plane's
        // first page sits above 2^31.
        let stride = u64::from(u32::MAX) / 3;
        assert_eq!(3 * stride, PageMap::MAX_GPPA + 1);
        let mut m = PageMap::new(4);
        m.map_striped(3, stride);
        assert_eq!(m.translate(2), Some(Gppa(2 * stride)));
        assert_eq!(m.translate(3), Some(Gppa(1)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_lpa_panics() {
        let m = PageMap::new(4);
        m.translate(4);
    }
}

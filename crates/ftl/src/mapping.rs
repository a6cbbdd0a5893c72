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
/// [`PageMap::MAX_GPPA`], so arrays stay below 2^32 pages. Once
/// `map_striped` has run, a zero entry means the page's striped location
/// instead, so a preconditioned table holds entries only for pages
/// written since.
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
    /// `(planes, plane_stride)` of a striped table, whose zero entries
    /// read as `(lpa % planes) * plane_stride + lpa / planes`.
    stripe: Option<(u32, u32)>,
}

impl PageMap {
    /// The largest physical page an entry can hold.
    pub const MAX_GPPA: u64 = u32::MAX as u64 - 1;

    /// Creates an unmapped table covering `logical_pages` pages.
    pub fn new(logical_pages: u64) -> Self {
        PageMap {
            entries: vec![UNMAPPED; logical_pages as usize],
            mapped: 0,
            stripe: None,
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
        match self.entries[lpa as usize] {
            UNMAPPED => self.striped(lpa),
            entry => Some(Gppa(u64::from(entry - 1))),
        }
    }

    /// Where `map_striped` put `lpa`, or `None` on a table it never
    /// striped. `map_striped`'s asserts keep the sum below 2^32.
    fn striped(&self, lpa: u64) -> Option<Gppa> {
        let (planes, stride) = self.stripe?;
        let lpa = lpa as u32;
        Some(Gppa(u64::from(lpa % planes * stride + lpa / planes)))
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
        let old = self.translate(lpa);
        self.entries[lpa as usize] = gppa.0 as u32 + 1;
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Maps every logical page of an empty table round-robin over
    /// `planes` runs of `plane_stride` physical pages: page `lpa` maps to
    /// `(lpa % planes) * plane_stride + lpa / planes`. The caller says
    /// where a run starts; the map knows no address layout. Writes no
    /// entry: it records the stripe, and every entry still zero reads as
    /// its striped page.
    ///
    /// # Panics
    ///
    /// Panics if the table is not empty or a run would overflow.
    pub(crate) fn map_striped(&mut self, planes: usize, plane_stride: u64) {
        assert_eq!(self.mapped, 0, "striping a used table");
        let rows = self.logical_pages().div_ceil(planes as u64);
        assert!(rows <= plane_stride, "{rows} pages overflow a plane");
        assert!(planes as u64 * plane_stride <= Self::MAX_GPPA + 1);
        self.stripe = Some((planes as u32, plane_stride as u32));
        self.mapped = self.logical_pages();
    }
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

    /// `(lpa mod P)·stride + lpa div P`, the page `map_striped` documents.
    fn striped_page(lpa: u64, planes: u64, stride: u64) -> Gppa {
        Gppa(lpa % planes * stride + lpa / planes)
    }

    #[test]
    fn a_striped_table_translates_every_page_by_the_formula() {
        // (pages, planes, stride): partial last rows, one page per plane
        // run, and the three planes that fill the u32 bound.
        let top = u64::from(u32::MAX) / 3;
        let cases = [
            (7, 3, 100),
            (100, 7, 15),
            (64, 64, 1),
            (1, 1, 1),
            (4, 3, top),
        ];
        for (pages, planes, stride) in cases {
            let mut m = PageMap::new(pages);
            m.map_striped(planes as usize, stride);
            for lpa in 0..pages {
                let expect = Some(striped_page(lpa, planes, stride));
                assert_eq!(m.translate(lpa), expect, "{pages}/{planes}/{stride}: {lpa}");
            }
            assert_eq!(m.mapped_pages(), pages);
        }
    }

    #[test]
    fn updating_a_striped_page_returns_its_striped_page() {
        let (planes, stride) = (4, 3);
        let mut m = PageMap::new(10);
        m.map_striped(planes as usize, stride);
        let striped = striped_page(5, planes, stride);
        assert_eq!(m.update(5, Gppa(0)), Some(striped));
        assert_eq!(m.mapped_pages(), 10);
        // A written entry wins over the stripe, page 0 included.
        assert_eq!(m.translate(5), Some(Gppa(0)));
        assert_eq!(m.update(5, Gppa(11)), Some(Gppa(0)));
        assert_eq!(m.mapped_pages(), 10);
        for lpa in (0..10).filter(|&l| l != 5) {
            assert_eq!(m.translate(lpa), Some(striped_page(lpa, planes, stride)));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_lpa_panics() {
        let m = PageMap::new(4);
        m.translate(4);
    }
}

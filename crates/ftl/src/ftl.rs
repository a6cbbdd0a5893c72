//! The flash translation layer: out-of-place writes, dynamic page
//! allocation, garbage collection, and wear leveling (§2.2 of the paper).

use venice_nand::PhysicalPageAddr;

use crate::{ArrayGeometry, Gppa, PageMap};

/// FTL configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtlConfig {
    /// Physical array geometry.
    pub array: ArrayGeometry,
    /// Logical pages exposed to the host (must leave over-provisioning
    /// headroom below the physical capacity).
    pub logical_pages: u64,
    /// Garbage collection triggers when a plane's free-block count drops
    /// below this threshold.
    pub gc_threshold_blocks: u32,
    /// Wear leveling triggers when the spread between the most- and
    /// least-erased blocks exceeds this many erase cycles.
    pub wear_delta_threshold: u32,
}

impl FtlConfig {
    /// The engine's config for `logical_pages` of host-visible space on
    /// `array`, which must leave over-provisioning headroom: GC triggers
    /// with half the spare blocks per plane still free (at least 1, at
    /// most the paper-scale 4), wear leveling at a 64-erase spread.
    pub fn new(array: ArrayGeometry, logical_pages: u64) -> Self {
        let spare_blocks_per_plane = (array.total_pages() - logical_pages)
            / u64::from(array.chip.pages_per_block)
            / u64::from(array.total_planes());
        FtlConfig {
            array,
            logical_pages,
            gc_threshold_blocks: (spare_blocks_per_plane / 2).clamp(1, 4) as u32,
            wear_delta_threshold: 64,
        }
    }
}

/// Why the FTL could not complete an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// No plane has a free page left (over-provisioning exhausted and GC
    /// cannot keep up — a configuration error in practice).
    OutOfSpace,
    /// Logical page outside the exposed logical space.
    LpaOutOfRange(u64),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::OutOfSpace => f.write_str("flash array out of free pages"),
            FtlError::LpaOutOfRange(lpa) => write!(f, "logical page {lpa} out of range"),
        }
    }
}

impl std::error::Error for FtlError {}

/// A valid-page migration job (garbage collection or wear leveling): read
/// each `(lpa, old_gppa)` pair, relocate it, then erase the victim block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationJob {
    /// Dense plane index of the victim block.
    pub plane: usize,
    /// Victim block index within the plane.
    pub block: u32,
    /// Valid pages to move before the erase.
    pub pages: Vec<(u64, Gppa)>,
}

/// Cumulative FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FtlStats {
    /// Host page writes.
    pub user_writes: u64,
    /// Host page reads (translated).
    pub user_reads: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Pages relocated by wear leveling.
    pub wear_relocations: u64,
    /// Blocks erased by wear leveling.
    pub wear_erases: u64,
    /// Relocations skipped because the host overwrote the page mid-flight.
    pub stale_relocations: u64,
}

impl FtlStats {
    /// Write amplification: physical programs per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.user_writes == 0 {
            1.0
        } else {
            (self.user_writes + self.gc_relocations + self.wear_relocations) as f64
                / self.user_writes as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Block {
    /// Valid-page bitmap (lazily allocated on first program).
    valid: Option<Box<[u64]>>,
    /// LPA stored in each written page (lazily allocated).
    lpas: Option<Box<[u32]>>,
    valid_count: u32,
    written: u32,
    erase_count: u32,
    under_migration: bool,
}

impl Block {
    const fn new() -> Self {
        Block {
            valid: None,
            lpas: None,
            valid_count: 0,
            written: 0,
            erase_count: 0,
            under_migration: false,
        }
    }

    fn set_valid(&mut self, page: u32, pages_per_block: u32, lpa: u64) {
        let words = (pages_per_block as usize).div_ceil(64);
        let valid = self
            .valid
            .get_or_insert_with(|| vec![0u64; words].into_boxed_slice());
        valid[(page / 64) as usize] |= 1 << (page % 64);
        let lpas = self
            .lpas
            .get_or_insert_with(|| vec![u32::MAX; pages_per_block as usize].into_boxed_slice());
        lpas[page as usize] = lpa as u32;
        self.valid_count += 1;
    }

    fn clear_valid(&mut self, page: u32) {
        if let Some(valid) = &mut self.valid {
            let word = &mut valid[(page / 64) as usize];
            let bit = 1u64 << (page % 64);
            debug_assert!(*word & bit != 0, "double invalidation");
            *word &= !bit;
            self.valid_count -= 1;
        }
    }

    fn is_valid(&self, page: u32) -> bool {
        self.valid
            .as_ref()
            .is_some_and(|v| v[(page / 64) as usize] & (1 << (page % 64)) != 0)
    }

    fn lpa_of(&self, page: u32) -> u64 {
        u64::from(
            self.lpas.as_ref().expect("written block has lpas")[page as usize],
        )
    }
}

#[derive(Clone, Debug)]
struct Plane {
    free_blocks: Vec<u32>,
    /// Current write block, or `None` when the plane is exhausted.
    active: Option<u32>,
    next_page: u32,
}

/// Who an allocation is for: host writes must leave the last free block per
/// plane to garbage collection (forward-progress reserve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reserve {
    User,
    Gc,
}

/// The flash translation layer.
///
/// The FTL is a deterministic, time-free state machine: the SSD core calls
/// into it to translate reads, allocate writes, and drive garbage
/// collection / wear leveling, and turns the returned physical locations
/// into timed flash transactions.
///
/// # Example
///
/// ```
/// use venice_ftl::{ArrayGeometry, Ftl, FtlConfig};
/// use venice_nand::ChipGeometry;
///
/// let array = ArrayGeometry::new(4, ChipGeometry::z_nand_small());
/// let mut ftl = Ftl::new(FtlConfig::new(array, array.total_pages() / 2));
/// let gppa = ftl.allocate_write(7).unwrap();
/// assert_eq!(ftl.translate(7), Some(gppa));
/// ```
#[derive(Clone, Debug)]
pub struct Ftl {
    config: FtlConfig,
    map: PageMap,
    planes: Vec<Plane>,
    /// Indexed `plane * blocks_per_plane + block`.
    blocks: Vec<Block>,
    /// Round-robin cursor for channel-way-die-plane striping.
    plane_cursor: usize,
    stats: FtlStats,
}

impl Ftl {
    /// Creates an FTL over an erased flash array.
    ///
    /// # Panics
    ///
    /// Panics if the logical space does not leave at least
    /// `2 × gc_threshold_blocks` spare blocks per plane of over-provisioning.
    pub fn new(config: FtlConfig) -> Self {
        let planes = config.array.total_planes() as usize;
        let bpp = config.array.chip.blocks_per_plane;
        let spare = config.array.total_pages() - config.logical_pages;
        let spare_blocks_per_plane =
            spare / u64::from(config.array.chip.pages_per_block) / planes as u64;
        assert!(
            spare_blocks_per_plane >= 2 * u64::from(config.gc_threshold_blocks),
            "need over-provisioning: {spare_blocks_per_plane} spare blocks/plane \
             vs GC threshold {}",
            config.gc_threshold_blocks
        );
        Ftl {
            map: PageMap::new(config.logical_pages),
            planes: (0..planes)
                .map(|_| Plane {
                    // Block 0 becomes the first active block; the rest are free.
                    free_blocks: (1..bpp).rev().collect(),
                    active: Some(0),
                    next_page: 0,
                })
                .collect(),
            blocks: vec![Block::new(); planes * bpp as usize],
            plane_cursor: 0,
            config,
            stats: FtlStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.config.logical_pages
    }

    fn block_index(&self, plane: usize, block: u32) -> usize {
        plane * self.config.array.chip.blocks_per_plane as usize + block as usize
    }

    fn block_of(&self, g: Gppa) -> (usize, u32, u32) {
        let p = self.config.array.unpack(g);
        let plane = self.config.array.plane_index(p);
        (plane, p.addr.block, p.addr.page)
    }

    /// Translates a host read. Returns the physical page, or `None` for a
    /// never-written page (served from the controller without flash access).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpaOutOfRange`] if `lpa` exceeds the logical space.
    pub fn translate_read(&mut self, lpa: u64) -> Result<Option<Gppa>, FtlError> {
        if lpa >= self.config.logical_pages {
            return Err(FtlError::LpaOutOfRange(lpa));
        }
        self.stats.user_reads += 1;
        Ok(self.map.translate(lpa))
    }

    /// Pure translation without statistics (diagnostics and tests).
    pub fn translate(&self, lpa: u64) -> Option<Gppa> {
        self.map.translate(lpa)
    }

    /// Allocates a physical page for a host write of `lpa`, invalidating any
    /// previous location (out-of-place write), and returns the new page.
    ///
    /// Host writes never consume a plane's *last* free block — that block is
    /// reserved for garbage-collection relocations, so GC can always make
    /// forward progress. When every plane is down to its reserve, the error
    /// is [`FtlError::OutOfSpace`] and the caller must throttle host writes
    /// until an erase completes (what real controllers do under sustained
    /// random-write overload).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpaOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn allocate_write(&mut self, lpa: u64) -> Result<Gppa, FtlError> {
        if lpa >= self.config.logical_pages {
            return Err(FtlError::LpaOutOfRange(lpa));
        }
        let gppa = self.allocate_round_robin(lpa, Reserve::User)?;
        self.commit_mapping(lpa, gppa);
        self.stats.user_writes += 1;
        Ok(gppa)
    }

    /// Picks the next plane in channel-way-die-plane round-robin order and
    /// allocates its next free page. This dynamic striping spreads
    /// consecutive writes across chips — the allocation strategy MQSim's
    /// baseline uses to maximize array parallelism.
    fn allocate_round_robin(&mut self, lpa: u64, reserve: Reserve) -> Result<Gppa, FtlError> {
        let n = self.planes.len();
        for probe in 0..n {
            let plane_idx = (self.plane_cursor + probe) % n;
            if let Some(g) = self.try_allocate_in_plane(plane_idx, lpa, reserve) {
                self.plane_cursor = (plane_idx + 1) % n;
                return Ok(g);
            }
        }
        Err(FtlError::OutOfSpace)
    }

    /// Allocates the next page of `plane_idx`'s active block, advancing the
    /// write point and rotating in a fresh block when the active one fills.
    fn try_allocate_in_plane(
        &mut self,
        plane_idx: usize,
        lpa: u64,
        reserve: Reserve,
    ) -> Option<Gppa> {
        let pages_per_block = self.config.array.chip.pages_per_block;
        let plane = &mut self.planes[plane_idx];
        let active = plane.active?;
        // Host writes leave the last free block for GC relocations.
        if reserve == Reserve::User && plane.free_blocks.is_empty() {
            return None;
        }
        let page = plane.next_page;
        debug_assert!(page < pages_per_block);
        plane.next_page += 1;
        if plane.next_page == pages_per_block {
            plane.active = plane.free_blocks.pop();
            plane.next_page = 0;
        }
        let bi = self.block_index(plane_idx, active);
        self.blocks[bi].set_valid(page, pages_per_block, lpa);
        self.blocks[bi].written += 1;
        let addr = self.config.array.page_at(plane_idx, active, page);
        Some(self.config.array.pack(addr))
    }

    /// Updates the map and invalidates the stale copy, if any.
    fn commit_mapping(&mut self, lpa: u64, gppa: Gppa) {
        if let Some(old) = self.map.update(lpa, gppa) {
            let (plane, block, page) = self.block_of(old);
            let bi = self.block_index(plane, block);
            self.blocks[bi].clear_valid(page);
        }
    }

    /// Number of free blocks in a plane (counting a fresh active block).
    pub fn free_blocks(&self, plane_idx: usize) -> u32 {
        self.planes[plane_idx].free_blocks.len() as u32
    }

    /// True when `plane_idx` is below the GC threshold.
    pub fn needs_gc(&self, plane_idx: usize) -> bool {
        self.free_blocks(plane_idx) < self.config.gc_threshold_blocks
    }

    /// Planes currently in need of garbage collection, in ascending order.
    pub fn planes_needing_gc(&self) -> Vec<usize> {
        let mut planes = Vec::new();
        self.planes_needing_gc_into(&mut planes);
        planes
    }

    /// [`Ftl::planes_needing_gc`] into `out` (cleared first), so a caller
    /// that checks on every request reuses one buffer.
    pub fn planes_needing_gc_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.planes.len()).filter(|&p| self.needs_gc(p)));
    }

    /// Starts garbage collection on a plane: picks the fully written,
    /// non-active, least-valid block (greedy victim selection, §2.2) and
    /// returns the migration job, or `None` if no block qualifies.
    pub fn start_gc(&mut self, plane_idx: usize) -> Option<MigrationJob> {
        let bpp = self.config.array.chip.blocks_per_plane;
        let pages_per_block = self.config.array.chip.pages_per_block;
        let active = self.planes[plane_idx].active;
        let victim = (0..bpp)
            .filter(|&b| Some(b) != active)
            .map(|b| (b, &self.blocks[self.block_index(plane_idx, b)]))
            .filter(|(_, blk)| blk.written == pages_per_block && !blk.under_migration)
            .min_by_key(|(b, blk)| (blk.valid_count, *b))
            .map(|(b, _)| b)?;
        Some(self.begin_migration(plane_idx, victim))
    }

    fn begin_migration(&mut self, plane_idx: usize, victim: u32) -> MigrationJob {
        let pages_per_block = self.config.array.chip.pages_per_block;
        let bi = self.block_index(plane_idx, victim);
        self.blocks[bi].under_migration = true;
        let mut pages = Vec::with_capacity(self.blocks[bi].valid_count as usize);
        for page in 0..pages_per_block {
            if self.blocks[bi].is_valid(page) {
                let lpa = self.blocks[bi].lpa_of(page);
                let addr = self.config.array.page_at(plane_idx, victim, page);
                pages.push((lpa, self.config.array.pack(addr)));
            }
        }
        MigrationJob {
            plane: plane_idx,
            block: victim,
            pages,
        }
    }

    /// Relocates one page of a migration job: if `lpa` still maps to
    /// `old`, allocates a new page *in the same plane* (keeping GC traffic
    /// local, as MQSim does), remaps, and returns the destination for the
    /// program transaction. Returns `None` when the host overwrote the page
    /// mid-migration (the copy is stale and skipped).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if the plane (and every other plane) is full.
    pub fn relocate(&mut self, lpa: u64, old: Gppa, wear: bool) -> Result<Option<Gppa>, FtlError> {
        if self.map.translate(lpa) != Some(old) {
            self.stats.stale_relocations += 1;
            return Ok(None);
        }
        let (plane_idx, _, _) = self.block_of(old);
        // Prefer the victim's plane; fall back to round-robin if it is full.
        let gppa = match self.try_allocate_in_plane(plane_idx, lpa, Reserve::Gc) {
            Some(g) => g,
            None => self.allocate_round_robin(lpa, Reserve::Gc)?,
        };
        self.commit_mapping(lpa, gppa);
        if wear {
            self.stats.wear_relocations += 1;
        } else {
            self.stats.gc_relocations += 1;
        }
        Ok(Some(gppa))
    }

    /// Completes a migration job after its erase transaction finishes:
    /// resets the victim block and returns it to the plane's free pool.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages (relocation incomplete).
    pub fn finish_erase(&mut self, job: &MigrationJob, wear: bool) {
        let bi = self.block_index(job.plane, job.block);
        let block = &mut self.blocks[bi];
        assert_eq!(
            block.valid_count, 0,
            "erasing a block with valid pages would lose data"
        );
        assert!(block.under_migration, "erase without migration start");
        block.valid = None;
        block.lpas = None;
        block.written = 0;
        block.erase_count += 1;
        block.under_migration = false;
        let plane = &mut self.planes[job.plane];
        if plane.active.is_none() {
            plane.active = Some(job.block);
            plane.next_page = 0;
        } else {
            plane.free_blocks.push(job.block);
        }
        if wear {
            self.stats.wear_erases += 1;
        } else {
            self.stats.gc_erases += 1;
        }
    }

    /// Erase-count spread across all blocks `(min, max)`.
    pub fn erase_count_spread(&self) -> (u32, u32) {
        let mut min = u32::MAX;
        let mut max = 0;
        for b in &self.blocks {
            min = min.min(b.erase_count);
            max = max.max(b.erase_count);
        }
        (min.min(max), max)
    }

    /// Static wear leveling check: when the erase-count spread exceeds the
    /// threshold, returns a migration job for the *coldest* fully written
    /// block, whose static data is then moved onto a hotter free block.
    pub fn check_wear_leveling(&mut self) -> Option<MigrationJob> {
        let (min, max) = self.erase_count_spread();
        if max - min <= self.config.wear_delta_threshold {
            return None;
        }
        let pages_per_block = self.config.array.chip.pages_per_block;
        let bpp = self.config.array.chip.blocks_per_plane as usize;
        // Find the coldest eligible block.
        let mut best: Option<(u32, usize, u32)> = None;
        for (idx, b) in self.blocks.iter().enumerate() {
            if b.written != pages_per_block || b.under_migration {
                continue;
            }
            let plane = idx / bpp;
            let block = (idx % bpp) as u32;
            if self.planes[plane].active == Some(block) {
                continue;
            }
            if best.is_none_or(|(e, _, _)| b.erase_count < e) {
                best = Some((b.erase_count, plane, block));
            }
        }
        let (_, plane, block) = best?;
        Some(self.begin_migration(plane, block))
    }

    /// Preconditions the SSD to steady state: maps every logical page to a
    /// striped physical page (no simulated time passes). Returns the
    /// per-block written-page counts the caller must mirror into the chip
    /// models' write pointers.
    pub fn precondition(&mut self) -> Vec<(PhysicalPageAddr, u32)> {
        assert_eq!(self.map.mapped_pages(), 0, "precondition on a used FTL");
        for lpa in 0..self.config.logical_pages {
            let g = self
                .allocate_round_robin(lpa, Reserve::User)
                .expect("logical space fits under physical capacity");
            self.commit_mapping(lpa, g);
        }
        let bpp = self.config.array.chip.blocks_per_plane as usize;
        let mut out = Vec::new();
        for (idx, b) in self.blocks.iter().enumerate() {
            if b.written > 0 {
                let plane = idx / bpp;
                let block = (idx % bpp) as u32;
                let addr = self.config.array.page_at(plane, block, 0);
                out.push((addr, b.written));
            }
        }
        out
    }

    /// Consistency check used by tests and debug assertions: per-block valid
    /// counts must match the mapping table exactly.
    pub fn check_invariants(&self) {
        let mut valid_from_blocks: u64 = 0;
        for b in &self.blocks {
            valid_from_blocks += u64::from(b.valid_count);
            assert!(b.valid_count <= b.written, "valid pages exceed written");
        }
        assert_eq!(
            valid_from_blocks,
            self.map.mapped_pages(),
            "block valid counts must equal mapped logical pages"
        );
        // Every mapping must point at a page its block marks valid.
        for lpa in 0..self.config.logical_pages {
            if let Some(g) = self.map.translate(lpa) {
                let (plane, block, page) = self.block_of(g);
                let b = &self.blocks[self.block_index(plane, block)];
                assert!(b.is_valid(page), "lpa {lpa} maps to invalid page");
                assert_eq!(b.lpa_of(page), lpa, "reverse map mismatch");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_nand::ChipGeometry;

    fn small_ftl() -> Ftl {
        let array = ArrayGeometry::new(4, ChipGeometry::z_nand_small());
        Ftl::new(FtlConfig {
            array,
            logical_pages: array.total_pages() / 2,
            gc_threshold_blocks: 2,
            wear_delta_threshold: 4,
        })
    }

    #[test]
    fn writes_stripe_across_planes() {
        let mut ftl = small_ftl();
        let mut chips = std::collections::HashSet::new();
        for lpa in 0..8 {
            let g = ftl.allocate_write(lpa).unwrap();
            chips.insert(ftl.config().array.unpack(g).chip);
        }
        // 8 consecutive writes over 4 chips × 2 planes must touch all chips.
        assert_eq!(chips.len(), 4);
        ftl.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut ftl = small_ftl();
        let g1 = ftl.allocate_write(0).unwrap();
        let g2 = ftl.allocate_write(0).unwrap();
        assert_ne!(g1, g2, "out-of-place write must move the page");
        assert_eq!(ftl.translate(0), Some(g2));
        ftl.check_invariants();
    }

    #[test]
    fn read_of_unwritten_page_is_none() {
        let mut ftl = small_ftl();
        assert_eq!(ftl.translate_read(3).unwrap(), None);
        assert_eq!(
            ftl.translate_read(u64::MAX).unwrap_err(),
            FtlError::LpaOutOfRange(u64::MAX)
        );
    }

    #[test]
    fn gc_reclaims_invalidated_space() {
        let mut ftl = small_ftl();
        // Hammer a small working set so blocks fill with stale pages.
        let mut guard = 0;
        while ftl.planes_needing_gc().is_empty() {
            for lpa in 0..32 {
                ftl.allocate_write(lpa).unwrap();
            }
            guard += 1;
            assert!(guard < 10_000, "GC never became necessary");
        }
        let plane = ftl.planes_needing_gc()[0];
        let free_before = ftl.free_blocks(plane);
        let job = ftl.start_gc(plane).expect("a victim exists");
        // Greedy victim selection: hammering a tiny working set leaves
        // mostly-invalid blocks, so the victim should have few valid pages.
        assert!(job.pages.len() < ftl.config().array.chip.pages_per_block as usize);
        for &(lpa, old) in &job.pages {
            ftl.relocate(lpa, old, false).unwrap();
        }
        ftl.finish_erase(&job, false);
        assert_eq!(ftl.free_blocks(plane), free_before + 1);
        assert!(ftl.stats().gc_erases == 1);
        ftl.check_invariants();
    }

    #[test]
    fn stale_relocation_is_skipped() {
        let mut ftl = small_ftl();
        let old = ftl.allocate_write(5).unwrap();
        // Host overwrites lpa 5 before GC migrates it.
        ftl.allocate_write(5).unwrap();
        assert_eq!(ftl.relocate(5, old, false).unwrap(), None);
        assert_eq!(ftl.stats().stale_relocations, 1);
    }

    #[test]
    fn write_amplification_grows_with_gc() {
        let mut ftl = small_ftl();
        for round in 0..200 {
            for lpa in 0..16 {
                ftl.allocate_write(lpa).unwrap();
            }
            for plane in ftl.planes_needing_gc() {
                if let Some(job) = ftl.start_gc(plane) {
                    for &(lpa, old) in &job.pages {
                        ftl.relocate(lpa, old, false).unwrap();
                    }
                    ftl.finish_erase(&job, false);
                }
            }
            let _ = round;
        }
        assert!(ftl.stats().write_amplification() >= 1.0);
        assert!(ftl.stats().gc_erases > 0);
        ftl.check_invariants();
    }

    #[test]
    fn precondition_maps_everything() {
        let mut ftl = small_ftl();
        let blocks = ftl.precondition();
        assert!(!blocks.is_empty());
        for lpa in 0..ftl.logical_pages() {
            assert!(ftl.translate(lpa).is_some());
        }
        ftl.check_invariants();
        // Written counts must cover exactly the logical pages.
        let total: u64 = blocks.iter().map(|&(_, w)| u64::from(w)).sum();
        assert_eq!(total, ftl.logical_pages());
    }

    #[test]
    fn wear_leveling_triggers_on_spread() {
        let mut ftl = small_ftl();
        ftl.precondition();
        assert!(ftl.check_wear_leveling().is_none(), "fresh array is level");
        // Artificially age one plane with GC cycles.
        let mut guard = 0;
        loop {
            for lpa in 0..8 {
                ftl.allocate_write(lpa).unwrap();
            }
            let mut erased = false;
            for plane in ftl.planes_needing_gc() {
                if let Some(job) = ftl.start_gc(plane) {
                    for &(lpa, old) in &job.pages {
                        ftl.relocate(lpa, old, false).unwrap();
                    }
                    ftl.finish_erase(&job, false);
                    erased = true;
                }
            }
            let (min, max) = ftl.erase_count_spread();
            if max - min > ftl.config().wear_delta_threshold {
                break;
            }
            guard += 1;
            assert!(guard < 100_000, "wear spread never exceeded threshold");
            let _ = erased;
        }
        let job = ftl.check_wear_leveling().expect("spread exceeded threshold");
        for &(lpa, old) in &job.pages {
            ftl.relocate(lpa, old, true).unwrap();
        }
        ftl.finish_erase(&job, true);
        assert_eq!(ftl.stats().wear_erases, 1);
        ftl.check_invariants();
    }

    #[test]
    fn out_of_space_is_reported() {
        let array = ArrayGeometry::new(1, ChipGeometry::z_nand_small());
        let mut ftl = Ftl::new(FtlConfig {
            array,
            logical_pages: array.total_pages() / 2,
            gc_threshold_blocks: 1,
            wear_delta_threshold: 1000,
        });
        // Fill without ever garbage collecting: eventually out of space.
        let mut result = Ok(Gppa(0));
        'outer: for _ in 0..10_000 {
            for lpa in 0..ftl.logical_pages() {
                result = ftl.allocate_write(lpa);
                if result.is_err() {
                    break 'outer;
                }
            }
        }
        assert_eq!(result.unwrap_err(), FtlError::OutOfSpace);
    }
}

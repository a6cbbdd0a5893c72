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

/// One erase block. A block the precondition wrote is in *closed form*
/// while `written > 0` and it has no bitmap: pages `0..written` are valid
/// and page `p` holds the logical page [`Ftl::stripe`] derives from where
/// the block sits. Its first program or invalidation materializes the
/// bitmap and reverse map ([`Block::materialize`]).
#[derive(Clone, Debug)]
struct Block {
    /// Valid-page bitmap (allocated on first program or materialization).
    valid: Option<Box<[u64]>>,
    /// LPA stored in each written page (allocated with `valid`).
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

    /// Programs pages `0..pages` of an erased block at once, in closed
    /// form: the block allocates nothing until [`Block::materialize`].
    fn fill(&mut self, pages: u32) {
        debug_assert!(self.written == 0 && self.valid.is_none() && pages > 0);
        self.valid_count = pages;
        self.written = pages;
    }

    /// True while the block is as [`Block::fill`] left it.
    fn is_closed_form(&self) -> bool {
        self.written > 0 && self.valid.is_none()
    }

    /// Builds a closed-form block's bitmap and reverse map, page `p`
    /// holding logical page `first_lpa + p × lpa_stride`: what
    /// `set_valid` would have built for each of its pages.
    fn materialize(&mut self, pages_per_block: u32, first_lpa: u64, lpa_stride: u64) {
        debug_assert!(self.is_closed_form() && self.valid_count == self.written);
        let pages = self.written;
        let words = (pages_per_block as usize).div_ceil(64);
        let mut valid = vec![0u64; words].into_boxed_slice();
        let full_words = pages as usize / 64;
        valid[..full_words].fill(u64::MAX);
        if !pages.is_multiple_of(64) {
            valid[full_words] = (1 << (pages % 64)) - 1;
        }
        let mut lpas = vec![u32::MAX; pages_per_block as usize].into_boxed_slice();
        let (first, stride) = (first_lpa as u32, lpa_stride as u32);
        for (p, lpa) in lpas[..pages as usize].iter_mut().enumerate() {
            *lpa = first + p as u32 * stride;
        }
        self.valid = Some(valid);
        self.lpas = Some(lpas);
    }

    fn clear_valid(&mut self, page: u32) {
        debug_assert!(!self.is_closed_form(), "invalidating a closed-form block");
        if let Some(valid) = &mut self.valid {
            let word = &mut valid[(page / 64) as usize];
            let bit = 1u64 << (page % 64);
            debug_assert!(*word & bit != 0, "double invalidation");
            *word &= !bit;
            self.valid_count -= 1;
        }
    }

    fn is_valid(&self, page: u32) -> bool {
        match &self.valid {
            Some(v) => v[(page / 64) as usize] & (1 << (page % 64)) != 0,
            // Closed form, or never written (no page valid).
            None => page < self.written,
        }
    }

    /// The logical page that valid page `page` holds; the pair is the
    /// block's [`Ftl::stripe`], which only a closed-form block reads.
    fn lpa_of(&self, page: u32, (first_lpa, lpa_stride): (u64, u64)) -> u64 {
        match &self.lpas {
            Some(lpas) => u64::from(lpas[page as usize]),
            None => first_lpa + u64::from(page) * lpa_stride,
        }
    }
}

#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
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

    /// Where the precondition put block `bi`'s pages: page `p` of block
    /// `b` on plane `q` holds logical page `(b·ppb + p)·P + q`, returned
    /// as `(first, stride)` with page `p` at `first + p × stride`.
    fn stripe(&self, bi: usize) -> (u64, u64) {
        let bpp = self.config.array.chip.blocks_per_plane as usize;
        let ppb = u64::from(self.config.array.chip.pages_per_block);
        let planes = self.planes.len() as u64;
        let (plane, block) = ((bi / bpp) as u64, (bi % bpp) as u64);
        (block * ppb * planes + plane, planes)
    }

    /// Gives block `bi` its bitmap and reverse map if it is still in
    /// closed form, before a program or invalidation changes them.
    fn materialize(&mut self, bi: usize) {
        if self.blocks[bi].is_closed_form() {
            let (first_lpa, lpa_stride) = self.stripe(bi);
            let ppb = self.config.array.chip.pages_per_block;
            self.blocks[bi].materialize(ppb, first_lpa, lpa_stride);
        }
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
        self.materialize(bi);
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
            self.materialize(bi);
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
        let stripe = self.stripe(bi);
        let mut pages = Vec::with_capacity(self.blocks[bi].valid_count as usize);
        for page in 0..pages_per_block {
            if self.blocks[bi].is_valid(page) {
                let lpa = self.blocks[bi].lpa_of(page, stripe);
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
    ///
    /// The result is what host writes of logical pages `0, 1, …` would
    /// leave on the fresh array, in closed form: round-robin striping
    /// puts logical page `i` on plane `i mod P` at in-plane offset
    /// `k = i div P` (block `k div ppb`, page `k mod ppb`), so the map
    /// records only the stripe, each written block only its page count
    /// (its valid bits and reverse map follow from where it sits until
    /// its first program or invalidation), and each plane's write point
    /// and free list follow from its page count. No per-page work is done.
    ///
    /// # Panics
    ///
    /// Panics if the FTL was written before, or if a host write would find
    /// a plane's free list empty (its last free block is GC's reserve),
    /// which `Ftl::new`'s over-provisioning check rules out for any
    /// non-zero GC threshold.
    pub fn precondition(&mut self) -> Vec<(PhysicalPageAddr, u32)> {
        // No mapped page means no write ever ran: the planes are fresh.
        assert_eq!(self.map.mapped_pages(), 0, "precondition on a used FTL");
        let chip = self.config.array.chip;
        let (bpp, ppb) = (chip.blocks_per_plane, u64::from(chip.pages_per_block));
        let planes = self.planes.len() as u64;
        let logical = self.config.logical_pages;
        assert!(
            logical.div_ceil(planes) <= u64::from(bpp - 1) * ppb,
            "a host write would take a plane's GC reserve block"
        );
        let stride = chip.pages_per_plane();
        self.map.map_striped(self.planes.len(), stride);
        let mut fills = Vec::new();
        for (q, plane) in self.planes.iter_mut().enumerate() {
            let pages = logical / planes + u64::from((q as u64) < logical % planes);
            let (full, rest) = ((pages / ppb) as u32, (pages % ppb) as u32);
            // Block 0 was active and blocks 1..=full came off the free
            // list's tail, in order.
            plane.active = Some(full);
            plane.next_page = rest;
            plane.free_blocks.truncate((bpp - 1 - full) as usize);
            for block in 0..full + u32::from(rest > 0) {
                let written = if block < full {
                    chip.pages_per_block
                } else {
                    rest
                };
                self.blocks[q * bpp as usize + block as usize].fill(written);
                let first = self.config.array.page_at(q, block, 0);
                // The map's runs follow the geometry's page packing.
                assert_eq!(
                    self.config.array.pack(first).0,
                    q as u64 * stride + u64::from(block) * ppb,
                    "the page map disagrees with ArrayGeometry::pack"
                );
                fills.push((first, written));
            }
        }
        self.plane_cursor = (logical % planes) as usize;
        fills
    }

    /// The per-page loop [`Ftl::precondition`] replaces: every logical
    /// page through the host-write allocator in turn.
    #[cfg(test)]
    fn precondition_reference(&mut self) -> Vec<(PhysicalPageAddr, u32)> {
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
                let bi = self.block_index(plane, block);
                let b = &self.blocks[bi];
                assert!(b.is_valid(page), "lpa {lpa} maps to invalid page");
                assert_eq!(b.lpa_of(page, self.stripe(bi)), lpa, "reverse map mismatch");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_nand::ChipGeometry;
    use venice_sim::rng::Xorshift64Star;

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

    /// Asserts that two FTLs answer the same: every translation, every
    /// block's valid pages and the logical page each holds, its fill,
    /// valid count, erase count and migration flag, every plane's active
    /// block, write point and free list, the cursor and the stats. How a
    /// block stores its pages (closed form or bitmap) is not compared.
    fn assert_same_state(a: &Ftl, b: &Ftl, label: &str) {
        for lpa in 0..a.logical_pages() {
            assert_eq!(a.translate(lpa), b.translate(lpa), "{label}: lpa {lpa}");
        }
        let ppb = a.config.array.chip.pages_per_block;
        let counts = |k: &Block| (k.written, k.valid_count, k.erase_count, k.under_migration);
        for (i, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
            let (sa, sb) = (a.stripe(i), b.stripe(i));
            for page in 0..ppb {
                let valid = x.is_valid(page);
                assert_eq!(valid, y.is_valid(page), "{label}: block {i} page {page}");
                if valid {
                    let lpa = x.lpa_of(page, sa);
                    assert_eq!(lpa, y.lpa_of(page, sb), "{label}: block {i} page {page}");
                }
            }
            assert_eq!(counts(x), counts(y), "{label}: block {i}");
        }
        assert_eq!(a.planes, b.planes, "{label}: planes");
        assert_eq!(a.plane_cursor, b.plane_cursor, "{label}: cursor");
        assert_eq!(a.stats, b.stats, "{label}: stats");
        a.check_invariants();
    }

    /// Relocates and erases `job` on both FTLs, asserting equal outcomes;
    /// a relocation that runs out of space leaves the victim unerased.
    fn migrate_both(a: &mut Ftl, b: &mut Ftl, job: Option<MigrationJob>, wear: bool, label: &str) {
        let Some(job) = job else { return };
        for &(lpa, old) in &job.pages {
            let moved = a.relocate(lpa, old, wear);
            assert_eq!(moved, b.relocate(lpa, old, wear), "{label}: relocate {lpa}");
            if moved.is_err() {
                return;
            }
        }
        a.finish_erase(&job, wear);
        b.finish_erase(&job, wear);
    }

    /// The closed-form precondition equals the per-page loop over random
    /// geometries (chip, die, plane, block and page counts that are not
    /// powers of two; logical spaces with a partial stripe row, a partial
    /// last block, or the tightest over-provisioning `Ftl::new` accepts),
    /// and both FTLs then answer the same random host writes, GC and
    /// wear-leveling jobs identically.
    #[test]
    fn closed_form_precondition_matches_the_per_page_loop() {
        let mut rng = Xorshift64Star::new(0x5EED_0F71);
        let mut closed_form_blocks_kept = 0;
        for case in 0..150 {
            let gc_threshold_blocks = 1 + rng.next_bounded(4) as u32;
            let chip = ChipGeometry {
                dies: 1 + rng.next_bounded(3) as u32,
                planes_per_die: 1 + rng.next_bounded(4) as u32,
                blocks_per_plane: 2 * gc_threshold_blocks + 1 + rng.next_bounded(10) as u32,
                pages_per_block: 1 + rng.next_bounded(140) as u32,
                page_size: 4096,
            };
            let array = ArrayGeometry::new(1 + rng.next_bounded(9) as u16, chip);
            let planes = u64::from(array.total_planes());
            let spare = 2 * u64::from(gc_threshold_blocks) * u64::from(chip.pages_per_block);
            let tightest = array.total_pages() - spare * planes;
            let logical_pages = match rng.next_bounded(4) {
                0 => tightest,
                1 => 1 + rng.next_bounded(planes.min(tightest)),
                _ => 1 + rng.next_bounded(tightest),
            };
            let config = FtlConfig {
                array,
                logical_pages,
                gc_threshold_blocks,
                wear_delta_threshold: 1 + rng.next_bounded(8) as u32,
            };
            let label = format!("case {case}: {config:?}");
            let mut bulk = Ftl::new(config);
            let mut reference = Ftl::new(config);
            let fills = bulk.precondition();
            assert_eq!(
                fills,
                reference.precondition_reference(),
                "{label}: block fills"
            );
            assert_same_state(&bulk, &reference, &label);
            let preconditioned: Vec<u32> = bulk.blocks.iter().map(|b| b.written).collect();

            // Enough writes to use up the spare blocks a few times over.
            let steps = (200 + 3 * spare * planes).min(12_000);
            let hot = 1 + rng.next_bounded(logical_pages);
            for step in 0..steps {
                match rng.next_bounded(10) {
                    0 | 1 => {
                        let planes = bulk.planes_needing_gc();
                        assert_eq!(
                            planes,
                            reference.planes_needing_gc(),
                            "{label}: step {step}"
                        );
                        for plane in planes {
                            let job = bulk.start_gc(plane);
                            assert_eq!(job, reference.start_gc(plane), "{label}: step {step}");
                            migrate_both(&mut bulk, &mut reference, job, false, &label);
                        }
                    }
                    2 => {
                        let job = bulk.check_wear_leveling();
                        assert_eq!(job, reference.check_wear_leveling(), "{label}: step {step}");
                        migrate_both(&mut bulk, &mut reference, job, true, &label);
                    }
                    _ => {
                        let lpa = rng.next_bounded(hot);
                        let written = bulk.allocate_write(lpa);
                        assert_eq!(
                            written,
                            reference.allocate_write(lpa),
                            "{label}: step {step}"
                        );
                    }
                }
            }
            assert_same_state(&bulk, &reference, &label);
            // A block the traffic never programmed, invalidated or erased
            // still allocates nothing.
            for (i, b) in bulk.blocks.iter().enumerate() {
                let untouched = b.erase_count == 0
                    && b.written == preconditioned[i]
                    && b.valid_count == b.written;
                if untouched {
                    assert!(b.valid.is_none() && b.lpas.is_none(), "{label}: block {i}");
                    closed_form_blocks_kept += u32::from(b.written > 0);
                }
            }
        }
        assert!(closed_form_blocks_kept > 0, "no block kept its closed form");
    }

    /// A block stays 48 bytes: two boxed slices, three counters and a
    /// flag. A per-block field for the closed form would cost every block.
    #[test]
    fn a_block_fits_in_48_bytes() {
        assert!(std::mem::size_of::<Block>() <= 48);
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

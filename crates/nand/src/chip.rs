//! The flash chip state machine.

use std::fmt;

use venice_sim::SimTime;

use crate::{ChipGeometry, NandTiming, OpEnergy, PageAddr};

/// The three array operations a flash die can execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NandCommandKind {
    /// Page read (tR): sense a page into the plane's page register.
    Read,
    /// Page program (tPROG): write the page register into the array.
    Program,
    /// Block erase (tBERS): erase a whole block.
    Erase,
}

impl fmt::Display for NandCommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NandCommandKind::Read => "read",
            NandCommandKind::Program => "program",
            NandCommandKind::Erase => "erase",
        };
        f.write_str(s)
    }
}

/// Errors returned when a command violates chip constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChipError {
    /// The addressed die is still executing a previous operation.
    DieBusy {
        /// The die in question.
        die: u32,
        /// When the in-flight operation completes.
        busy_until: SimTime,
    },
    /// An address is outside this chip's geometry.
    AddressOutOfRange(PageAddr),
    /// A multi-plane command addressed the same plane twice, spanned
    /// multiple dies, or used mismatched block/page offsets.
    InvalidMultiPlane,
    /// Programming a page out of order within its block, or reprogramming a
    /// page without an intervening erase.
    ProgramOrderViolation {
        /// The offending address.
        addr: PageAddr,
        /// The next programmable page index in that block.
        expected_page: u32,
    },
    /// Reading a page that has never been programmed since the last erase.
    ReadOfErasedPage(PageAddr),
    /// The command list was empty.
    EmptyCommand,
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::DieBusy { die, busy_until } => {
                write!(f, "die {die} busy until {busy_until}")
            }
            ChipError::AddressOutOfRange(a) => write!(f, "address {a} out of range"),
            ChipError::InvalidMultiPlane => write!(f, "invalid multi-plane command"),
            ChipError::ProgramOrderViolation {
                addr,
                expected_page,
            } => write!(
                f,
                "program order violation at {addr}, expected page {expected_page}"
            ),
            ChipError::ReadOfErasedPage(a) => write!(f, "read of erased page {a}"),
            ChipError::EmptyCommand => write!(f, "empty command"),
        }
    }
}

impl std::error::Error for ChipError {}

/// Per-block bookkeeping: program write pointer and endurance.
#[derive(Clone, Debug, Default)]
struct BlockState {
    /// Next page index that may legally be programmed (0 = freshly erased).
    write_pointer: u32,
    /// Number of erases this block has sustained.
    erase_count: u32,
}

/// Per-die state: one operation at a time.
#[derive(Clone, Debug)]
struct DieState {
    busy_until: SimTime,
}

/// Cumulative statistics of one chip.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChipStats {
    /// Page reads executed.
    pub reads: u64,
    /// Page programs executed (counting each plane of a multi-plane op).
    pub programs: u64,
    /// Block erases executed.
    pub erases: u64,
    /// Total time the chip's dies spent busy, in nanoseconds.
    pub busy_ns: u64,
    /// Total array-operation energy, in nanojoules.
    pub energy_nj: f64,
}

/// A flash chip: dies, planes, blocks, and pages with their operational
/// constraints, plus timing and statistics.
///
/// The chip is a passive resource: the caller (the SSD model's transaction
/// scheduler) asks whether a die is idle, then [`FlashChip::start`]s an
/// operation, which returns the completion time the caller schedules an
/// event for. The chip enforces geometry and NAND ordering invariants and
/// tracks endurance and energy.
#[derive(Clone, Debug)]
pub struct FlashChip {
    geometry: ChipGeometry,
    timing: NandTiming,
    energy: OpEnergy,
    dies: Vec<DieState>,
    /// Indexed by `(die * planes_per_die + plane) * blocks_per_plane + block`.
    blocks: Vec<BlockState>,
    /// Abandoned pages at or past their block's write pointer, as `(block
    /// index, page)` (see [`FlashChip::abandon_program`]); empty unless a
    /// fault failed queued programs.
    abandoned: Vec<(usize, u32)>,
    stats: ChipStats,
}

impl FlashChip {
    /// Creates an idle, fully erased chip with the default energy preset for
    /// its timing.
    pub fn new(geometry: ChipGeometry, timing: NandTiming) -> Self {
        let energy = if timing == NandTiming::z_nand() {
            OpEnergy::z_nand()
        } else {
            OpEnergy::tlc_3d()
        };
        Self::with_energy(geometry, timing, energy)
    }

    /// Creates a chip with an explicit energy preset.
    pub fn with_energy(geometry: ChipGeometry, timing: NandTiming, energy: OpEnergy) -> Self {
        let n_blocks =
            (geometry.dies * geometry.planes_per_die * geometry.blocks_per_plane) as usize;
        FlashChip {
            geometry,
            timing,
            energy,
            dies: (0..geometry.dies)
                .map(|_| DieState {
                    busy_until: SimTime::ZERO,
                })
                .collect(),
            blocks: vec![BlockState::default(); n_blocks],
            abandoned: Vec::new(),
            stats: ChipStats::default(),
        }
    }

    /// This chip's geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// This chip's timing parameters.
    pub fn timing(&self) -> NandTiming {
        self.timing
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// When the given die becomes idle (`SimTime::ZERO` if it never ran).
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn die_busy_until(&self, die: u32) -> SimTime {
        self.dies[die as usize].busy_until
    }

    /// True if the die is idle at time `now`.
    pub fn is_die_idle(&self, die: u32, now: SimTime) -> bool {
        self.die_busy_until(die) <= now
    }

    fn block_index(&self, a: PageAddr) -> usize {
        ((a.die * self.geometry.planes_per_die + a.plane) * self.geometry.blocks_per_plane
            + a.block) as usize
    }

    /// Erase count of the block containing `addr`.
    pub fn erase_count(&self, addr: PageAddr) -> u32 {
        self.blocks[self.block_index(addr)].erase_count
    }

    /// Next programmable page of the block containing `addr` (its write
    /// pointer); equals `pages_per_block` when the block is full.
    pub fn write_pointer(&self, addr: PageAddr) -> u32 {
        self.blocks[self.block_index(addr)].write_pointer
    }

    /// Starts an array operation at `now`, returning its completion time.
    ///
    /// `targets` contains one address for a single-plane operation or
    /// several addresses for a multi-plane operation: all on the same die,
    /// distinct planes, identical block and page offsets (the hardware
    /// constraint described in §2.1 of the paper). A multi-plane operation
    /// occupies the die for one operation latency but performs the work of
    /// `targets.len()` operations (counted in the statistics accordingly).
    ///
    /// # Errors
    ///
    /// * [`ChipError::DieBusy`] if the die is mid-operation at `now`,
    /// * [`ChipError::AddressOutOfRange`] for bad addresses,
    /// * [`ChipError::InvalidMultiPlane`] for malformed multi-plane target sets,
    /// * [`ChipError::ProgramOrderViolation`] for out-of-order or in-place
    ///   programs (erase-before-write); a program may pass only abandoned
    ///   pages,
    /// * [`ChipError::ReadOfErasedPage`] for reads of pages neither
    ///   programmed nor abandoned,
    /// * [`ChipError::EmptyCommand`] if `targets` is empty.
    pub fn start(
        &mut self,
        kind: NandCommandKind,
        targets: &[PageAddr],
        now: SimTime,
    ) -> Result<SimTime, ChipError> {
        let &first = targets.first().ok_or(ChipError::EmptyCommand)?;
        for &t in targets {
            if !self.geometry.contains(t) {
                return Err(ChipError::AddressOutOfRange(t));
            }
        }
        // Multi-plane validity: same die, same block/page offset, distinct planes.
        if targets.len() > 1 {
            if targets.len() > self.geometry.planes_per_die as usize {
                return Err(ChipError::InvalidMultiPlane);
            }
            let mut seen_planes = 0u64;
            for &t in targets {
                if t.die != first.die
                    || t.block != first.block
                    || t.page != first.page
                    || seen_planes & (1 << t.plane) != 0
                {
                    return Err(ChipError::InvalidMultiPlane);
                }
                seen_planes |= 1 << t.plane;
            }
        }
        let die = &self.dies[first.die as usize];
        if die.busy_until > now {
            return Err(ChipError::DieBusy {
                die: first.die,
                busy_until: die.busy_until,
            });
        }
        // Validate data-state transitions before mutating anything.
        match kind {
            NandCommandKind::Program => {
                for &t in targets {
                    let idx = self.block_index(t);
                    let wp = self.blocks[idx].write_pointer;
                    if t.page < wp || (wp..t.page).any(|p| !self.is_abandoned(idx, p)) {
                        return Err(ChipError::ProgramOrderViolation {
                            addr: t,
                            expected_page: wp,
                        });
                    }
                }
            }
            NandCommandKind::Read => {
                for &t in targets {
                    let idx = self.block_index(t);
                    if t.page >= self.blocks[idx].write_pointer && !self.is_abandoned(idx, t.page) {
                        return Err(ChipError::ReadOfErasedPage(t));
                    }
                }
            }
            NandCommandKind::Erase => {}
        }
        // Commit.
        let latency = self.timing.latency(kind);
        let done = now + latency;
        self.dies[first.die as usize].busy_until = done;
        self.stats.busy_ns += latency.as_nanos();
        for &t in targets {
            let idx = self.block_index(t);
            match kind {
                NandCommandKind::Read => self.stats.reads += 1,
                NandCommandKind::Program => {
                    if !self.abandoned.is_empty() {
                        self.abandoned.retain(|&(b, p)| b != idx || p > t.page);
                    }
                    self.blocks[idx].write_pointer = t.page + 1;
                    self.stats.programs += 1;
                }
                NandCommandKind::Erase => {
                    if !self.abandoned.is_empty() {
                        self.abandoned.retain(|&(b, _)| b != idx);
                    }
                    self.blocks[idx].write_pointer = 0;
                    self.blocks[idx].erase_count += 1;
                    self.stats.erases += 1;
                }
            }
            self.stats.energy_nj += self.energy.energy_nj(kind);
        }
        Ok(done)
    }

    /// Marks a block as fully programmed without simulating each program —
    /// used to precondition the SSD before a measured run (the paper's
    /// steady-state assumption). Does not advance time, consume energy, or
    /// count in the statistics.
    pub fn precondition_block(&mut self, addr: PageAddr, pages: u32) {
        assert!(self.geometry.contains(addr), "precondition out of range");
        assert!(pages <= self.geometry.pages_per_block);
        let idx = self.block_index(addr);
        self.blocks[idx].write_pointer = self.blocks[idx].write_pointer.max(pages);
    }

    /// Gives up `addr`'s page without programming it: a program that its
    /// controller failed before it reached the array (the chip died, or
    /// its path went dead, while it was queued) still holds a page the FTL
    /// allocated, and the block's later pages follow it. The page stays
    /// erased and reads as such, and the block's next program may pass
    /// it; until one does, the write pointer stays where it is. Takes no
    /// time or energy and counts in no statistic.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or its page was already programmed.
    pub fn abandon_program(&mut self, addr: PageAddr) {
        assert!(self.geometry.contains(addr), "abandon out of range");
        let idx = self.block_index(addr);
        assert!(
            addr.page >= self.blocks[idx].write_pointer,
            "abandoning programmed page {addr}"
        );
        self.abandoned.push((idx, addr.page));
    }

    fn is_abandoned(&self, block_idx: usize, page: u32) -> bool {
        self.abandoned.contains(&(block_idx, page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_sim::SimDuration;

    fn chip() -> FlashChip {
        FlashChip::new(ChipGeometry::z_nand_small(), NandTiming::z_nand())
    }

    fn page(plane: u32, block: u32, page: u32) -> PageAddr {
        PageAddr {
            die: 0,
            plane,
            block,
            page,
        }
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut c = chip();
        let t0 = SimTime::ZERO;
        let done = c.start(NandCommandKind::Program, &[page(0, 0, 0)], t0).unwrap();
        assert_eq!(done, t0 + NandTiming::z_nand().t_prog);
        let done2 = c.start(NandCommandKind::Read, &[page(0, 0, 0)], done).unwrap();
        assert_eq!(done2, done + NandTiming::z_nand().t_r);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().programs, 1);
    }

    #[test]
    fn die_busy_rejects_overlapping_ops() {
        let mut c = chip();
        c.start(NandCommandKind::Program, &[page(0, 0, 0)], SimTime::ZERO)
            .unwrap();
        let err = c
            .start(NandCommandKind::Program, &[page(1, 0, 0)], SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ChipError::DieBusy { die: 0, .. }));
    }

    #[test]
    fn read_of_erased_page_rejected() {
        let mut c = chip();
        let err = c
            .start(NandCommandKind::Read, &[page(0, 0, 0)], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 0)));
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut c = chip();
        let err = c
            .start(NandCommandKind::Program, &[page(0, 0, 5)], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            ChipError::ProgramOrderViolation {
                addr: page(0, 0, 5),
                expected_page: 0
            }
        );
    }

    #[test]
    fn reprogram_requires_erase() {
        let mut c = chip();
        let mut t = SimTime::ZERO;
        t = c.start(NandCommandKind::Program, &[page(0, 0, 0)], t).unwrap();
        // Reprogramming page 0 must fail (write pointer moved to 1).
        let err = c.start(NandCommandKind::Program, &[page(0, 0, 0)], t).unwrap_err();
        assert!(matches!(err, ChipError::ProgramOrderViolation { .. }));
        // After erase the page is programmable again.
        t = c.start(NandCommandKind::Erase, &[page(0, 0, 0)], t).unwrap();
        c.start(NandCommandKind::Program, &[page(0, 0, 0)], t).unwrap();
        assert_eq!(c.erase_count(page(0, 0, 0)), 1);
    }

    #[test]
    fn multiplane_same_offset_accepted() {
        let mut c = chip();
        let done = c
            .start(
                NandCommandKind::Program,
                &[page(0, 3, 0), page(1, 3, 0)],
                SimTime::ZERO,
            )
            .unwrap();
        // One die occupancy, two programs counted.
        assert_eq!(done, SimTime::ZERO + NandTiming::z_nand().t_prog);
        assert_eq!(c.stats().programs, 2);
        assert_eq!(c.stats().busy_ns, NandTiming::z_nand().t_prog.as_nanos());
    }

    #[test]
    fn multiplane_mismatched_offset_rejected() {
        let mut c = chip();
        let err = c
            .start(
                NandCommandKind::Program,
                &[page(0, 3, 0), page(1, 4, 0)],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, ChipError::InvalidMultiPlane);
        // Duplicate plane also rejected.
        let err = c
            .start(
                NandCommandKind::Program,
                &[page(0, 3, 0), page(0, 3, 0)],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, ChipError::InvalidMultiPlane);
    }

    #[test]
    fn address_validation() {
        let mut c = chip();
        let bad = PageAddr {
            die: 9,
            plane: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(
            c.start(NandCommandKind::Read, &[bad], SimTime::ZERO),
            Err(ChipError::AddressOutOfRange(bad))
        );
        assert_eq!(
            c.start(NandCommandKind::Read, &[], SimTime::ZERO),
            Err(ChipError::EmptyCommand)
        );
    }

    #[test]
    fn erase_resets_write_pointer() {
        let mut c = chip();
        let mut t = SimTime::ZERO;
        for p in 0..3 {
            t = c.start(NandCommandKind::Program, &[page(0, 0, p)], t).unwrap();
        }
        assert_eq!(c.write_pointer(page(0, 0, 0)), 3);
        t = c.start(NandCommandKind::Erase, &[page(0, 0, 0)], t).unwrap();
        assert_eq!(c.write_pointer(page(0, 0, 0)), 0);
        let err = c.start(NandCommandKind::Read, &[page(0, 0, 0)], t).unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 0)));
    }

    #[test]
    fn precondition_marks_pages_readable() {
        let mut c = chip();
        c.precondition_block(page(0, 2, 0), 10);
        c.start(NandCommandKind::Read, &[page(0, 2, 9)], SimTime::ZERO)
            .unwrap();
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().programs, 0);
        assert_eq!(c.stats().energy_nj, OpEnergy::z_nand().read_nj);
    }

    #[test]
    fn programs_pass_abandoned_pages_only() {
        let mut c = chip();
        let mut t = c
            .start(NandCommandKind::Program, &[page(0, 0, 0)], SimTime::ZERO)
            .unwrap();
        // Page 1 programs in flight while pages 2 and 3 are abandoned, the
        // later one first.
        c.abandon_program(page(0, 0, 3));
        c.abandon_program(page(0, 0, 2));
        assert_eq!(c.write_pointer(page(0, 0, 0)), 1);
        let err = c
            .start(NandCommandKind::Program, &[page(0, 0, 4)], t)
            .unwrap_err();
        assert_eq!(
            err,
            ChipError::ProgramOrderViolation {
                addr: page(0, 0, 4),
                expected_page: 1
            }
        );
        // Abandoned pages read as erased without failing.
        t = c.start(NandCommandKind::Read, &[page(0, 0, 3)], t).unwrap();
        t = c
            .start(NandCommandKind::Program, &[page(0, 0, 1)], t)
            .unwrap();
        t = c
            .start(NandCommandKind::Program, &[page(0, 0, 4)], t)
            .unwrap();
        assert_eq!(c.write_pointer(page(0, 0, 0)), 5);
        assert_eq!(c.stats().programs, 3);
        // An erase forgets the block's abandoned pages.
        c.abandon_program(page(0, 0, 5));
        t = c
            .start(NandCommandKind::Erase, &[page(0, 0, 0)], t)
            .unwrap();
        let err = c
            .start(NandCommandKind::Read, &[page(0, 0, 5)], t)
            .unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 5)));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut c = chip();
        let mut t = SimTime::ZERO;
        t = c.start(NandCommandKind::Program, &[page(0, 0, 0)], t).unwrap();
        c.start(NandCommandKind::Read, &[page(0, 0, 0)], t).unwrap();
        let expect = NandTiming::z_nand().t_prog + NandTiming::z_nand().t_r;
        assert_eq!(c.stats().busy_ns, expect.as_nanos());
    }

    #[test]
    fn idle_check_respects_time() {
        let mut c = chip();
        let done = c
            .start(NandCommandKind::Program, &[page(0, 0, 0)], SimTime::ZERO)
            .unwrap();
        assert!(!c.is_die_idle(0, SimTime::ZERO));
        assert!(!c.is_die_idle(0, done - SimDuration::from_nanos(1)));
        assert!(c.is_die_idle(0, done));
    }
}

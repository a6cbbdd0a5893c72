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
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::DieBusy { die, busy_until } => {
                write!(f, "die {die} busy until {busy_until}")
            }
            ChipError::AddressOutOfRange(a) => write!(f, "address {a} out of range"),
            ChipError::ProgramOrderViolation {
                addr,
                expected_page,
            } => write!(
                f,
                "program order violation at {addr}, expected page {expected_page}"
            ),
            ChipError::ReadOfErasedPage(a) => write!(f, "read of erased page {a}"),
        }
    }
}

impl std::error::Error for ChipError {}

/// Cumulative statistics of one chip.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChipStats {
    /// Page reads executed.
    pub reads: u64,
    /// Page programs executed.
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
/// The chip is a passive resource: the caller (the SSD engine, which
/// tracks its own busy dies) [`FlashChip::start`]s an operation, which
/// returns the completion time the caller schedules an event for. The chip
/// enforces geometry, one operation per die and NAND ordering invariants,
/// and tracks energy.
#[derive(Clone, Debug)]
pub struct FlashChip {
    geometry: ChipGeometry,
    timing: NandTiming,
    energy: OpEnergy,
    /// When each die's current operation completes: one at a time.
    die_busy_until: Vec<SimTime>,
    /// Each block's write pointer: the next page index that may legally be
    /// programmed (0 = freshly erased). Indexed by `(die * planes_per_die +
    /// plane) * blocks_per_plane + block`.
    write_pointers: Vec<u32>,
    /// Abandoned pages at or past their block's write pointer, as `(block
    /// index, page)` (see [`FlashChip::abandon_program`]); empty unless a
    /// fault failed queued programs.
    abandoned: Vec<(usize, u32)>,
    stats: ChipStats,
}

impl FlashChip {
    /// Creates an idle, fully erased chip.
    pub fn with_energy(geometry: ChipGeometry, timing: NandTiming, energy: OpEnergy) -> Self {
        let n_blocks =
            (geometry.dies * geometry.planes_per_die * geometry.blocks_per_plane) as usize;
        FlashChip {
            geometry,
            timing,
            energy,
            die_busy_until: vec![SimTime::ZERO; geometry.dies as usize],
            write_pointers: vec![0; n_blocks],
            abandoned: Vec::new(),
            stats: ChipStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    fn block_index(&self, a: PageAddr) -> usize {
        ((a.die * self.geometry.planes_per_die + a.plane) * self.geometry.blocks_per_plane
            + a.block) as usize
    }

    /// Next programmable page of the block containing `addr` (its write
    /// pointer); equals `pages_per_block` when the block is full.
    pub fn write_pointer(&self, addr: PageAddr) -> u32 {
        self.write_pointers[self.block_index(addr)]
    }

    /// Starts an array operation on one page at `now`, returning its
    /// completion time. An erase addresses its block through any of the
    /// block's pages.
    ///
    /// # Errors
    ///
    /// * [`ChipError::AddressOutOfRange`] for a bad address,
    /// * [`ChipError::DieBusy`] if the die is mid-operation at `now`,
    /// * [`ChipError::ProgramOrderViolation`] for out-of-order or in-place
    ///   programs (erase-before-write); a program may pass only abandoned
    ///   pages,
    /// * [`ChipError::ReadOfErasedPage`] for reads of pages neither
    ///   programmed nor abandoned.
    pub fn start(
        &mut self,
        kind: NandCommandKind,
        addr: PageAddr,
        now: SimTime,
    ) -> Result<SimTime, ChipError> {
        if !self.geometry.contains(addr) {
            return Err(ChipError::AddressOutOfRange(addr));
        }
        let busy_until = self.die_busy_until[addr.die as usize];
        if busy_until > now {
            return Err(ChipError::DieBusy {
                die: addr.die,
                busy_until,
            });
        }
        // Validate the data-state transition before mutating anything.
        let idx = self.block_index(addr);
        let wp = self.write_pointers[idx];
        match kind {
            NandCommandKind::Program => {
                if addr.page < wp || (wp..addr.page).any(|p| !self.is_abandoned(idx, p)) {
                    return Err(ChipError::ProgramOrderViolation {
                        addr,
                        expected_page: wp,
                    });
                }
            }
            NandCommandKind::Read => {
                if addr.page >= wp && !self.is_abandoned(idx, addr.page) {
                    return Err(ChipError::ReadOfErasedPage(addr));
                }
            }
            NandCommandKind::Erase => {}
        }
        // Commit.
        let latency = self.timing.latency(kind);
        let done = now + latency;
        self.die_busy_until[addr.die as usize] = done;
        self.stats.busy_ns += latency.as_nanos();
        match kind {
            NandCommandKind::Read => self.stats.reads += 1,
            NandCommandKind::Program => {
                if !self.abandoned.is_empty() {
                    self.abandoned.retain(|&(b, p)| b != idx || p > addr.page);
                }
                self.write_pointers[idx] = addr.page + 1;
                self.stats.programs += 1;
            }
            NandCommandKind::Erase => {
                if !self.abandoned.is_empty() {
                    self.abandoned.retain(|&(b, _)| b != idx);
                }
                self.write_pointers[idx] = 0;
                self.stats.erases += 1;
            }
        }
        self.stats.energy_nj += self.energy.energy_nj(kind);
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
        self.write_pointers[idx] = self.write_pointers[idx].max(pages);
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
            addr.page >= self.write_pointers[idx],
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
        FlashChip::with_energy(
            ChipGeometry::z_nand_small(),
            NandTiming::z_nand(),
            OpEnergy::z_nand(),
        )
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
        let done = c
            .start(NandCommandKind::Program, page(0, 0, 0), t0)
            .unwrap();
        assert_eq!(done, t0 + NandTiming::z_nand().t_prog);
        let done2 = c.start(NandCommandKind::Read, page(0, 0, 0), done).unwrap();
        assert_eq!(done2, done + NandTiming::z_nand().t_r);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().programs, 1);
    }

    #[test]
    fn die_busy_rejects_overlapping_ops() {
        let mut c = chip();
        c.start(NandCommandKind::Program, page(0, 0, 0), SimTime::ZERO)
            .unwrap();
        let err = c
            .start(NandCommandKind::Program, page(1, 0, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ChipError::DieBusy { die: 0, .. }));
    }

    #[test]
    fn read_of_erased_page_rejected() {
        let mut c = chip();
        let err = c
            .start(NandCommandKind::Read, page(0, 0, 0), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 0)));
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut c = chip();
        let err = c
            .start(NandCommandKind::Program, page(0, 0, 5), SimTime::ZERO)
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
        t = c.start(NandCommandKind::Program, page(0, 0, 0), t).unwrap();
        // Reprogramming page 0 must fail (write pointer moved to 1).
        let err = c
            .start(NandCommandKind::Program, page(0, 0, 0), t)
            .unwrap_err();
        assert!(matches!(err, ChipError::ProgramOrderViolation { .. }));
        // After erase the page is programmable again.
        t = c.start(NandCommandKind::Erase, page(0, 0, 0), t).unwrap();
        c.start(NandCommandKind::Program, page(0, 0, 0), t).unwrap();
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
            c.start(NandCommandKind::Read, bad, SimTime::ZERO),
            Err(ChipError::AddressOutOfRange(bad))
        );
    }

    #[test]
    fn erase_resets_write_pointer() {
        let mut c = chip();
        let mut t = SimTime::ZERO;
        for p in 0..3 {
            t = c.start(NandCommandKind::Program, page(0, 0, p), t).unwrap();
        }
        assert_eq!(c.write_pointer(page(0, 0, 0)), 3);
        t = c.start(NandCommandKind::Erase, page(0, 0, 0), t).unwrap();
        assert_eq!(c.write_pointer(page(0, 0, 0)), 0);
        let err = c
            .start(NandCommandKind::Read, page(0, 0, 0), t)
            .unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 0)));
    }

    #[test]
    fn precondition_marks_pages_readable() {
        let mut c = chip();
        c.precondition_block(page(0, 2, 0), 10);
        c.start(NandCommandKind::Read, page(0, 2, 9), SimTime::ZERO)
            .unwrap();
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().programs, 0);
        assert_eq!(c.stats().energy_nj, OpEnergy::z_nand().read_nj);
    }

    #[test]
    fn programs_pass_abandoned_pages_only() {
        let mut c = chip();
        let mut t = c
            .start(NandCommandKind::Program, page(0, 0, 0), SimTime::ZERO)
            .unwrap();
        // Page 1 programs in flight while pages 2 and 3 are abandoned, the
        // later one first.
        c.abandon_program(page(0, 0, 3));
        c.abandon_program(page(0, 0, 2));
        assert_eq!(c.write_pointer(page(0, 0, 0)), 1);
        let err = c
            .start(NandCommandKind::Program, page(0, 0, 4), t)
            .unwrap_err();
        assert_eq!(
            err,
            ChipError::ProgramOrderViolation {
                addr: page(0, 0, 4),
                expected_page: 1
            }
        );
        // Abandoned pages read as erased without failing.
        t = c.start(NandCommandKind::Read, page(0, 0, 3), t).unwrap();
        t = c.start(NandCommandKind::Program, page(0, 0, 1), t).unwrap();
        t = c.start(NandCommandKind::Program, page(0, 0, 4), t).unwrap();
        assert_eq!(c.write_pointer(page(0, 0, 0)), 5);
        assert_eq!(c.stats().programs, 3);
        // An erase forgets the block's abandoned pages.
        c.abandon_program(page(0, 0, 5));
        t = c.start(NandCommandKind::Erase, page(0, 0, 0), t).unwrap();
        let err = c
            .start(NandCommandKind::Read, page(0, 0, 5), t)
            .unwrap_err();
        assert_eq!(err, ChipError::ReadOfErasedPage(page(0, 0, 5)));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut c = chip();
        let mut t = SimTime::ZERO;
        t = c.start(NandCommandKind::Program, page(0, 0, 0), t).unwrap();
        c.start(NandCommandKind::Read, page(0, 0, 0), t).unwrap();
        let expect = NandTiming::z_nand().t_prog + NandTiming::z_nand().t_r;
        assert_eq!(c.stats().busy_ns, expect.as_nanos());
    }

    #[test]
    fn idle_check_respects_time() {
        let mut c = chip();
        let done = c
            .start(NandCommandKind::Program, page(0, 0, 0), SimTime::ZERO)
            .unwrap();
        let other_plane = page(1, 0, 0);
        let just_before = done - SimDuration::from_nanos(1);
        let err = c.start(NandCommandKind::Program, other_plane, just_before);
        assert_eq!(
            err,
            Err(ChipError::DieBusy {
                die: 0,
                busy_until: done
            })
        );
        c.start(NandCommandKind::Program, other_plane, done)
            .unwrap();
    }
}

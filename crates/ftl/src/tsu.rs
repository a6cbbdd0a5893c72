//! Transaction scheduling unit (TSU): per-chip queues with read priority.
//!
//! MQSim's TSU keeps separate read/write/erase queues per chip and serves
//! reads first (reads are latency-critical; the paper's §3.1 notes path
//! conflicts hurt reads the most). Writes and erases to the same plane must
//! additionally issue in FIFO order to respect NAND program-order rules, so
//! only the *head* write of a chip's write queue is eligible for dispatch.
//!
//! Every queued transaction carries its enqueue timestamp, and the TSU
//! exposes the age of each chip's oldest entry
//! ([`TransactionScheduler::oldest_enqueue`]) so dispatch policies can
//! prioritize starving chips instead of treating all queued work alike.
//!
//! Rebuild survivor reads ([`crate::TxnKind::RebuildRead`]) form a fourth,
//! *lowest-priority* class: a chip serves them only when it has no other
//! queued work, so background reconstruction traffic never delays
//! foreground reads, programs, or erases at the TSU. Rebuild *writes* ride
//! the normal write queue — NAND program-order rules bind each program to
//! its allocation order within the block, rebuild or not.

use std::collections::VecDeque;

use venice_sim::{DenseBitSet, SimTime};

use crate::{Transaction, TxnKind};

/// One queued transaction plus the time it entered the TSU.
#[derive(Clone, Copy, Debug)]
struct Queued {
    txn: Transaction,
    at: SimTime,
}

/// Per-chip transaction queues with read priority.
#[derive(Clone, Debug)]
pub struct ChipQueues {
    reads: VecDeque<Queued>,
    writes: VecDeque<Queued>,
    erases: VecDeque<Queued>,
    /// Rebuild survivor reads: served only when every other class is empty.
    rebuilds: VecDeque<Queued>,
}

impl ChipQueues {
    fn new() -> Self {
        ChipQueues {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            erases: VecDeque::new(),
            rebuilds: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.reads.len() + self.writes.len() + self.erases.len() + self.rebuilds.len()
    }

    /// Earliest enqueue time across the class queues. Fronts are the
    /// oldest entry of each class, so the minimum over fronts is the oldest
    /// entry on the chip.
    fn oldest(&self) -> Option<SimTime> {
        [&self.reads, &self.writes, &self.erases, &self.rebuilds]
            .into_iter()
            .filter_map(|q| q.front().map(|e| e.at))
            .min()
    }
}

/// The transaction scheduling unit over all chips.
///
/// # Example
///
/// ```
/// use venice_ftl::{Transaction, TransactionScheduler, TxnId, TxnKind};
/// use venice_nand::{ChipId, PageAddr, PhysicalPageAddr};
/// use venice_sim::SimTime;
///
/// let mut tsu = TransactionScheduler::new(4);
/// let target = PhysicalPageAddr { chip: ChipId(2), addr: PageAddr::default() };
/// tsu.enqueue(Transaction {
///     id: TxnId(1), kind: TxnKind::UserRead, target, lpa: Some(0), request: None,
/// }, SimTime::from_nanos(7));
/// assert_eq!(tsu.pending(), 1);
/// assert_eq!(tsu.oldest_enqueue(2), Some(SimTime::from_nanos(7)));
/// let next = tsu.peek(2).unwrap();
/// assert_eq!(next.id, TxnId(1));
/// tsu.pop(2);
/// assert_eq!(tsu.pending(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct TransactionScheduler {
    chips: Vec<ChipQueues>,
    pending: usize,
    /// Chips with at least one queued transaction, maintained incrementally
    /// at enqueue/pop so the dispatcher walks O(words + busy) instead of
    /// scanning every chip.
    busy_set: DenseBitSet,
}

impl TransactionScheduler {
    /// Creates a scheduler for `chips` flash chips.
    pub fn new(chips: usize) -> Self {
        TransactionScheduler {
            chips: (0..chips).map(|_| ChipQueues::new()).collect(),
            pending: 0,
            busy_set: DenseBitSet::with_capacity(chips),
        }
    }

    /// Number of chips covered.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Total queued transactions.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Queued transactions for one chip.
    pub fn pending_for(&self, chip: u16) -> usize {
        self.chips[usize::from(chip)].len()
    }

    /// True when nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Enqueues a transaction on its target chip's class queue, stamped
    /// with the current simulation time `now`.
    pub fn enqueue(&mut self, txn: Transaction, now: SimTime) {
        let chip = usize::from(txn.target.chip.0);
        let q = &mut self.chips[chip];
        let e = Queued { txn, at: now };
        if txn.kind == TxnKind::RebuildRead {
            q.rebuilds.push_back(e);
        } else if txn.kind.is_read() {
            q.reads.push_back(e);
        } else if txn.kind.is_write() {
            q.writes.push_back(e);
        } else {
            q.erases.push_back(e);
        }
        self.pending += 1;
        self.busy_set.insert(chip);
    }

    /// The next transaction that would dispatch on `chip`: the oldest read
    /// if any (read priority), else the head write, else the head erase,
    /// and only on an otherwise idle chip the head rebuild read.
    pub fn peek(&self, chip: u16) -> Option<&Transaction> {
        let q = &self.chips[usize::from(chip)];
        q.reads
            .front()
            .or_else(|| q.writes.front())
            .or_else(|| q.erases.front())
            .or_else(|| q.rebuilds.front())
            .map(|e| &e.txn)
    }

    /// Removes and returns what [`TransactionScheduler::peek`] returned.
    pub fn pop(&mut self, chip: u16) -> Option<Transaction> {
        let q = &mut self.chips[usize::from(chip)];
        let t = q
            .reads
            .pop_front()
            .or_else(|| q.writes.pop_front())
            .or_else(|| q.erases.pop_front())
            .or_else(|| q.rebuilds.pop_front());
        if t.is_some() {
            self.pending -= 1;
            if q.len() == 0 {
                self.busy_set.remove(usize::from(chip));
            }
        }
        t.map(|e| e.txn)
    }

    /// Removes *every* transaction queued on `chip` into `out` (cleared
    /// first), in dispatch order (reads, then writes, then erases, then
    /// rebuild reads, FIFO within each class), clearing the chip's busy
    /// bit.
    ///
    /// This is the chip-death path: the engine completes the drained
    /// transactions with error status instead of dispatching them. The
    /// caller must re-invoke after processing — failing a migration step
    /// can requeue follow-on work onto the same dead chip.
    pub fn drain_chip_into(&mut self, chip: u16, out: &mut Vec<Transaction>) {
        out.clear();
        let q = &mut self.chips[usize::from(chip)];
        out.extend(
            q.reads
                .drain(..)
                .chain(q.writes.drain(..))
                .chain(q.erases.drain(..))
                .chain(q.rebuilds.drain(..))
                .map(|e| e.txn),
        );
        self.pending -= out.len();
        if !out.is_empty() {
            self.busy_set.remove(usize::from(chip));
        }
    }

    /// Enqueue time of the oldest transaction queued on `chip`, if any —
    /// the chip's *queue age* anchor. Dispatch policies compare this
    /// against the current time to find starving chips.
    pub fn oldest_enqueue(&self, chip: u16) -> Option<SimTime> {
        self.chips[usize::from(chip)].oldest()
    }

    /// Age in nanoseconds of `chip`'s oldest queued transaction at `now`
    /// (zero for an empty chip queue).
    pub fn queue_age_ns(&self, chip: u16, now: SimTime) -> u64 {
        self.oldest_enqueue(chip)
            .map_or(0, |at| now.saturating_since(at).as_nanos())
    }

    /// Iterates over chips that have at least one queued transaction, by
    /// linearly scanning every chip's queues (O(chips)). Retained as the
    /// reference for [`TransactionScheduler::busy_set`] — the full-scan
    /// dispatcher and the randomized cross-checks use it.
    pub fn busy_chips(&self) -> impl Iterator<Item = u16> + '_ {
        self.chips
            .iter()
            .enumerate()
            .filter(|(_, q)| q.len() > 0)
            .map(|(i, _)| i as u16)
    }

    /// The chips with at least one queued transaction, maintained
    /// incrementally at enqueue, pop and drain: the dispatcher walks it
    /// word by word (`venice_sim::SetWalk`) instead of scanning every chip.
    pub fn busy_set(&self) -> &DenseBitSet {
        &self.busy_set
    }

    /// Collects the busy chips into `out` (cleared first), in ascending
    /// chip-id order, reusing `out`'s capacity. Reads the incrementally
    /// maintained busy set, so the cost is O(words + busy chips); the
    /// output is bit-identical to collecting
    /// [`TransactionScheduler::busy_chips`].
    pub fn busy_chips_into(&self, out: &mut Vec<u16>) {
        out.clear();
        out.extend(self.busy_set.iter().map(|c| c as u16));
    }

    /// [`TransactionScheduler::busy_chips_into`] via the linear reference
    /// scan (O(chips)). The retained full-scan dispatcher uses this so the
    /// incremental engine can be cross-checked against an implementation
    /// that shares none of its ready-set bookkeeping.
    pub fn busy_chips_scan_into(&self, out: &mut Vec<u16>) {
        out.clear();
        if self.pending == 0 {
            return;
        }
        out.extend(self.busy_chips());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxnId;
    use venice_nand::{ChipId, PageAddr, PhysicalPageAddr};

    fn txn(id: u64, kind: TxnKind, chip: u16) -> Transaction {
        Transaction {
            id: TxnId(id),
            kind,
            target: PhysicalPageAddr {
                chip: ChipId(chip),
                addr: PageAddr::default(),
            },
            lpa: None,
            request: None,
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut tsu = TransactionScheduler::new(1);
        tsu.enqueue(txn(1, TxnKind::UserWrite, 0), at(0));
        tsu.enqueue(txn(2, TxnKind::UserRead, 0), at(0));
        tsu.enqueue(txn(3, TxnKind::GcErase, 0), at(0));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(2));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(1));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(3));
        assert!(tsu.pop(0).is_none());
    }

    #[test]
    fn drain_chip_empties_one_chip_and_clears_its_busy_bit() {
        let mut tsu = TransactionScheduler::new(2);
        tsu.enqueue(txn(1, TxnKind::UserWrite, 0), at(0));
        tsu.enqueue(txn(2, TxnKind::UserRead, 0), at(1));
        tsu.enqueue(txn(3, TxnKind::GcErase, 0), at(2));
        tsu.enqueue(txn(4, TxnKind::UserRead, 1), at(3));
        let mut out = Vec::new();
        tsu.drain_chip_into(0, &mut out);
        // Dispatch order: reads, writes, erases.
        assert_eq!(
            out.iter().map(|t| t.id).collect::<Vec<_>>(),
            [TxnId(2), TxnId(1), TxnId(3)]
        );
        assert_eq!(tsu.pending_for(0), 0);
        assert_eq!(tsu.pending(), 1);
        let mut busy = Vec::new();
        tsu.busy_chips_into(&mut busy);
        assert_eq!(busy, [1]);
        // Draining an already-empty chip is a no-op.
        tsu.drain_chip_into(0, &mut out);
        assert!(out.is_empty());
        assert_eq!(tsu.pending(), 1);
    }

    #[test]
    fn rebuild_reads_are_the_lowest_priority_class() {
        let mut tsu = TransactionScheduler::new(1);
        tsu.enqueue(txn(1, TxnKind::RebuildRead, 0), at(0));
        tsu.enqueue(txn(2, TxnKind::UserWrite, 0), at(1));
        tsu.enqueue(txn(3, TxnKind::GcErase, 0), at(2));
        tsu.enqueue(txn(4, TxnKind::UserRead, 0), at(3));
        tsu.enqueue(txn(5, TxnKind::RebuildWrite, 0), at(4));
        // Reads, then writes (rebuild writes ride the write FIFO), then
        // erases — the rebuild read dispatches only once the chip idles.
        assert_eq!(tsu.peek(0).unwrap().id, TxnId(4));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(4));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(2));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(5));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(3));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(1));
        assert!(tsu.pop(0).is_none());
        // The drain path empties the rebuild class too.
        tsu.enqueue(txn(6, TxnKind::RebuildRead, 0), at(6));
        assert_eq!(tsu.oldest_enqueue(0), Some(at(6)));
        tsu.enqueue(txn(7, TxnKind::UserRead, 0), at(7));
        let mut out = Vec::new();
        tsu.drain_chip_into(0, &mut out);
        assert_eq!(
            out.iter().map(|t| t.id).collect::<Vec<_>>(),
            [TxnId(7), TxnId(6)],
            "drain yields rebuild reads last"
        );
        assert!(tsu.is_empty());
    }

    #[test]
    fn fifo_within_class() {
        let mut tsu = TransactionScheduler::new(1);
        for id in 0..5 {
            tsu.enqueue(txn(id, TxnKind::UserWrite, 0), at(id));
        }
        for id in 0..5 {
            assert_eq!(tsu.pop(0).unwrap().id, TxnId(id));
        }
    }

    #[test]
    fn busy_chips_lists_nonempty_queues() {
        let mut tsu = TransactionScheduler::new(4);
        tsu.enqueue(txn(1, TxnKind::UserRead, 1), at(0));
        tsu.enqueue(txn(2, TxnKind::UserWrite, 3), at(0));
        let busy: Vec<u16> = tsu.busy_chips().collect();
        assert_eq!(busy, vec![1, 3]);
        assert_eq!(tsu.pending_for(1), 1);
        assert_eq!(tsu.pending_for(0), 0);
        assert_eq!(tsu.pending(), 2);
        assert!(!tsu.is_empty());
        assert_eq!(tsu.chip_count(), 4);
    }

    #[test]
    fn incremental_busy_set_matches_the_linear_scan() {
        // Drive a little enqueue/pop churn and require the set-backed
        // collection to stay bit-identical to the O(chips) reference scan.
        let mut tsu = TransactionScheduler::new(16);
        let check = |tsu: &TransactionScheduler| {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            tsu.busy_chips_into(&mut fast);
            tsu.busy_chips_scan_into(&mut slow);
            assert_eq!(fast, slow);
            let set: Vec<u16> = tsu.busy_set().iter().map(|c| c as u16).collect();
            assert_eq!(set, slow);
        };
        for (id, chip) in [(1u64, 9u16), (2, 3), (3, 9), (4, 15), (5, 0)] {
            tsu.enqueue(txn(id, TxnKind::UserRead, chip), at(id));
            check(&tsu);
        }
        for chip in [9, 9, 0, 3, 15] {
            tsu.pop(chip);
            check(&tsu);
        }
        assert!(tsu.is_empty());
        let mut out = vec![7u16];
        tsu.busy_chips_into(&mut out);
        assert!(out.is_empty(), "collection clears the buffer");
        // Enqueueing re-marks an emptied chip as busy, and a drain clears it.
        tsu.enqueue(txn(9, TxnKind::UserWrite, 5), at(1));
        check(&tsu);
        tsu.drain_chip_into(5, &mut Vec::new());
        check(&tsu);
        assert!(tsu.is_empty());
    }

    #[test]
    fn queue_age_tracks_the_oldest_entry_across_classes() {
        let mut tsu = TransactionScheduler::new(2);
        assert_eq!(tsu.oldest_enqueue(0), None);
        assert_eq!(tsu.queue_age_ns(0, at(500)), 0);
        // A write lands first, then a read: reads pop first, but the *age*
        // anchor stays the older write until it drains.
        tsu.enqueue(txn(1, TxnKind::UserWrite, 0), at(100));
        tsu.enqueue(txn(2, TxnKind::UserRead, 0), at(300));
        assert_eq!(tsu.oldest_enqueue(0), Some(at(100)));
        assert_eq!(tsu.queue_age_ns(0, at(500)), 400);
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(2));
        assert_eq!(tsu.oldest_enqueue(0), Some(at(100)));
        assert_eq!(tsu.pop(0).unwrap().id, TxnId(1));
        assert_eq!(tsu.oldest_enqueue(0), None);
    }
}

//! The event calendar: a bucketed time wheel with a binary-heap overflow
//! tier for the far future, plus a stable reference heap implementation.
//!
//! The hot path of the SSD simulation schedules short-horizon events (wire
//! bursts, firmware latencies, dispatch wake-ups at the current instant) at a
//! much higher rate than long-horizon ones (tPROG/tBERS array operations).
//! [`EventQueue`] exploits that shape: near-future events go into a
//! fixed-size wheel of [`WHEEL_BUCKETS`] buckets of [`BUCKET_NS`] ns each
//! (O(1) schedule, O(1) amortized pop), and anything beyond the wheel's
//! horizon parks in a [`BinaryHeap`] until its bucket rotates into range.
//!
//! Delivery order is exactly the documented calendar contract — ascending
//! timestamp, FIFO among equal timestamps — and is bit-identical to the
//! reference heap ([`ReferenceHeapQueue`]), which `tests/properties.rs`
//! cross-checks with randomized schedules.
//!
//! Control-plane events ride the same wheel as device work: scripted
//! fault/repair scripts, host request-deadline timeouts, and backoff-jittered
//! host resubmissions are all ordinary calendar entries, so a run's event
//! count doubles as a behavioral fingerprint — features whose knobs default
//! off must schedule zero events to leave it untouched.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// Number of buckets in the near-future wheel (must be a power of two).
pub const WHEEL_BUCKETS: usize = 512;
/// Log2 of the default bucket width in nanoseconds.
const DEFAULT_BUCKET_SHIFT: u32 = 8;
/// Width of one wheel bucket in nanoseconds, for [`EventQueue::new`].
/// [`EventQueue::with_bucket_ns`] widens it per configuration (callers
/// auto-tune from their timing parameters); pop order is identical for
/// every width.
pub const BUCKET_NS: u64 = 1 << DEFAULT_BUCKET_SHIFT;
const BITMAP_WORDS: usize = WHEEL_BUCKETS / 64;

/// One scheduled entry: ordered by time, then by insertion sequence so that
/// events scheduled earlier at the same timestamp are delivered first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event calendar: a priority queue of `(SimTime, E)` pairs with
/// FIFO tie-breaking for events scheduled at the same instant.
///
/// The queue tracks the timestamp of the most recently popped event as the
/// current simulation time ([`EventQueue::now`]); scheduling in the past is a
/// logic error that panics in debug builds (events are clamped to `now` in
/// release builds, keeping the clock monotone).
///
/// Internally this is a bucketed time wheel ([`WHEEL_BUCKETS`] buckets of
/// [`BUCKET_NS`] ns) with a binary-heap overflow tier for events beyond the
/// wheel horizon; see the module docs. The observable pop order is identical
/// to a stable binary heap over `(time, seq)`.
///
/// # Example
///
/// ```
/// use venice_sim::{EventQueue, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { A, B }
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), Ev::A);
/// q.schedule(SimTime::from_nanos(10), Ev::B); // same instant: FIFO order
/// assert_eq!(q.pop().unwrap().1, Ev::A);
/// assert_eq!(q.now(), SimTime::from_nanos(10));
/// assert_eq!(q.pop().unwrap().1, Ev::B);
/// ```
pub struct EventQueue<E> {
    /// Events at exactly `batch_time`, ready to pop in FIFO order.
    batch: VecDeque<E>,
    /// Timestamp shared by everything in `batch`.
    batch_time: SimTime,
    /// Near-future buckets; slot `b % WHEEL_BUCKETS` holds absolute bucket
    /// `b` for `b` in `[cursor, cursor + WHEEL_BUCKETS)`.
    wheel: Box<[Vec<Entry<E>>]>,
    /// Occupancy bitmap over wheel slots.
    occupied: [u64; BITMAP_WORDS],
    /// Entries currently in the wheel.
    wheel_len: usize,
    /// Absolute bucket index of the current wheel position (`now >> bucket_shift`).
    cursor: u64,
    /// Far-future overflow tier: events beyond the wheel horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Scratch for sorting one timestamp's batch by sequence number.
    scratch: Vec<(u64, E)>,
    /// Log2 of this calendar's bucket width in nanoseconds.
    bucket_shift: u32,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
    pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar at time zero with the default
    /// [`BUCKET_NS`] bucket width.
    pub fn new() -> Self {
        Self::with_bucket_ns(BUCKET_NS)
    }

    /// Creates an empty calendar whose wheel buckets are `bucket_ns` wide
    /// (rounded up to a power of two, floored at [`BUCKET_NS`]).
    ///
    /// Callers auto-tune the width from their workload's timing parameters
    /// so that common long-horizon events fall inside the wheel's
    /// `WHEEL_BUCKETS × width` horizon instead of the overflow heap. The
    /// width is a pure performance knob: delivery order is bit-identical
    /// to [`ReferenceHeapQueue`] for every value.
    pub fn with_bucket_ns(bucket_ns: u64) -> Self {
        let bucket_shift = bucket_ns
            .max(BUCKET_NS)
            .next_power_of_two()
            .trailing_zeros();
        EventQueue {
            batch: VecDeque::new(),
            batch_time: SimTime::ZERO,
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            wheel_len: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            bucket_shift,
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
            pending: 0,
        }
    }

    /// Width of one wheel bucket in nanoseconds.
    #[inline]
    pub fn bucket_ns(&self) -> u64 {
        1 << self.bucket_shift
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events ever scheduled (diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is before [`EventQueue::now`]. In
    /// release builds such events are clamped to `now` so the clock stays
    /// monotone.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.pending += 1;
        // Same-instant events land directly behind the live batch: their
        // sequence numbers are larger than everything already in it.
        if !self.batch.is_empty() && time == self.batch_time {
            self.batch.push_back(event);
            return;
        }
        let bucket = time.as_nanos() >> self.bucket_shift;
        if bucket < self.cursor + WHEEL_BUCKETS as u64 {
            self.wheel_insert(bucket, Entry { time, seq, event });
        } else {
            self.overflow.push(Entry { time, seq, event });
        }
    }

    #[inline]
    fn wheel_insert(&mut self, bucket: u64, entry: Entry<E>) {
        let slot = (bucket % WHEEL_BUCKETS as u64) as usize;
        self.wheel[slot].push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.wheel_len += 1;
    }

    /// Minimal occupied absolute bucket at or after `cursor`, if any.
    fn next_occupied_bucket(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor % WHEEL_BUCKETS as u64) as usize;
        // Scan the bitmap as a rotation starting at `start`.
        let mut checked = 0usize;
        let mut slot = start;
        while checked < WHEEL_BUCKETS {
            let word = slot / 64;
            let bit = slot % 64;
            // Mask off bits below the current slot within this word.
            let w = self.occupied[word] & (!0u64 << bit);
            if w != 0 {
                let found = word * 64 + w.trailing_zeros() as usize;
                // Only accept hits inside the unchecked window.
                let dist = (found + WHEEL_BUCKETS - start) % WHEEL_BUCKETS;
                if dist >= checked && dist < checked + (64 - bit) {
                    return Some(self.cursor + dist as u64);
                }
            }
            // Advance to the next word boundary.
            let step = 64 - bit;
            checked += step;
            slot = (slot + step) % WHEEL_BUCKETS;
        }
        None
    }

    /// Moves the earliest pending timestamp's events into `batch`.
    /// Returns false when the calendar is empty.
    fn refill_batch(&mut self) -> bool {
        debug_assert!(self.batch.is_empty());
        if self.pending == 0 {
            return false;
        }
        let next_wheel = self.next_occupied_bucket();
        let next_over = self
            .overflow
            .peek()
            .map(|e| e.time.as_nanos() >> self.bucket_shift);
        let target = match (next_wheel, next_over) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("pending > 0 with empty tiers"),
        };
        self.cursor = target;
        // Rotate overflow events whose buckets have come into the wheel's
        // horizon window `[cursor, cursor + WHEEL_BUCKETS)`.
        let horizon_ns = (self.cursor + WHEEL_BUCKETS as u64) << self.bucket_shift;
        while let Some(head) = self.overflow.peek() {
            if head.time.as_nanos() >= horizon_ns {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let bucket = e.time.as_nanos() >> self.bucket_shift;
            self.wheel_insert(bucket, e);
        }
        // Extract the earliest timestamp from the target bucket.
        let slot = (target % WHEEL_BUCKETS as u64) as usize;
        let mut entries = std::mem::take(&mut self.wheel[slot]);
        debug_assert!(!entries.is_empty(), "occupied bucket must have entries");
        let t = entries.iter().map(|e| e.time).min().expect("non-empty");
        let mut i = 0;
        while i < entries.len() {
            if entries[i].time == t {
                let e = entries.swap_remove(i);
                self.scratch.push((e.seq, e.event));
            } else {
                i += 1;
            }
        }
        self.wheel_len -= self.scratch.len();
        if entries.is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.wheel[slot] = entries; // keep the allocation
        self.scratch.sort_unstable_by_key(|&(seq, _)| seq);
        self.batch.extend(self.scratch.drain(..).map(|(_, e)| e));
        self.batch_time = t;
        true
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.batch.is_empty() && !self.refill_batch() {
            return None;
        }
        let event = self.batch.pop_front().expect("refilled");
        self.pending -= 1;
        self.now = self.batch_time;
        Some((self.now, event))
    }

    /// Drains every event scheduled for the earliest pending timestamp into
    /// `out` (in FIFO order) and returns that timestamp, advancing
    /// [`EventQueue::now`] to it. Returns `None` when the calendar is empty.
    ///
    /// Handlers may schedule new events at the returned timestamp while the
    /// batch is being processed; those form a later batch at the same
    /// instant, exactly as they would pop after the already-scheduled events
    /// under one-at-a-time [`EventQueue::pop`].
    ///
    /// # Example
    ///
    /// ```
    /// use venice_sim::{EventQueue, SimTime};
    /// let mut q = EventQueue::new();
    /// q.schedule(SimTime::from_nanos(5), 'a');
    /// q.schedule(SimTime::from_nanos(5), 'b');
    /// q.schedule(SimTime::from_nanos(9), 'c');
    /// let mut batch = Vec::new();
    /// assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(5)));
    /// assert_eq!(batch, vec!['a', 'b']);
    /// ```
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        if self.batch.is_empty() && !self.refill_batch() {
            return None;
        }
        self.pending -= self.batch.len();
        self.now = self.batch_time;
        out.extend(self.batch.drain(..));
        Some(self.now)
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending)
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

/// The original stable binary-heap calendar, kept as the behavioral
/// reference for [`EventQueue`].
///
/// `benches/event_queue.rs` compares the two under hold-model and burst
/// workloads, and the randomized property tests assert bit-identical pop
/// order. Not used on the simulation hot path.
pub struct ReferenceHeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for ReferenceHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceHeapQueue<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        ReferenceHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (diagnostics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedules `event` to fire at `time` (clamped to `now`).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn interleaved_scheduling_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDuration::from_nanos(5), "b");
        q.schedule(t, "same-instant");
        assert_eq!(q.pop().unwrap().1, "same-instant");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn counts_scheduled_total() {
        let mut q = EventQueue::new();
        for i in 0..5u8 {
            q.schedule(SimTime::from_nanos(u64::from(i)), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 5);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_survive_the_overflow_tier() {
        // Events far beyond the wheel horizon (tBERS-scale, milliseconds)
        // must come back in order when the wheel rotates to them.
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(5_000);
        q.schedule(far, "erase-done");
        q.schedule(SimTime::from_nanos(3), "burst");
        q.schedule(far + SimDuration::from_nanos(1), "after");
        q.schedule(SimTime::from_micros(200), "tprog");
        assert_eq!(q.pop().unwrap().1, "burst");
        assert_eq!(q.pop().unwrap().1, "tprog");
        assert_eq!(q.pop().unwrap(), (far, "erase-done"));
        assert_eq!(q.pop().unwrap().1, "after");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_bucket_different_times_pop_in_time_order() {
        // Timestamps 1 ns apart share a wheel bucket; extraction must still
        // deliver them in time order, not insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), "late");
        q.schedule(SimTime::from_nanos(6), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn pop_batch_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 1);
        q.schedule(SimTime::from_nanos(5), 2);
        q.schedule(SimTime::from_nanos(6), 3);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(5)));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.now(), SimTime::from_nanos(5));
        assert_eq!(q.len(), 1);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(6)));
        assert_eq!(out, vec![3]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn pop_batch_interleaves_with_same_instant_schedules() {
        // A handler scheduling at the batch's timestamp forms a second batch
        // at the same instant — identical to the one-at-a-time pop order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(4), "a");
        let mut out = Vec::new();
        let t = q.pop_batch(&mut out).unwrap();
        q.schedule(t, "b");
        q.schedule(t + SimDuration::from_nanos(1), "c");
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(t));
        assert_eq!(out, vec!["b"]);
    }

    #[test]
    fn custom_bucket_widths_round_and_floor() {
        assert_eq!(EventQueue::<()>::new().bucket_ns(), BUCKET_NS);
        assert_eq!(EventQueue::<()>::with_bucket_ns(0).bucket_ns(), BUCKET_NS);
        assert_eq!(EventQueue::<()>::with_bucket_ns(300).bucket_ns(), 512);
        assert_eq!(EventQueue::<()>::with_bucket_ns(4096).bucket_ns(), 4096);
    }

    #[test]
    fn wide_buckets_preserve_reference_order() {
        use crate::rng::Xorshift64Star;
        // A widened wheel (the auto-tuned configuration for slow NAND)
        // must deliver the exact reference sequence too.
        let mut rng = Xorshift64Star::new(99);
        let mut wheel = EventQueue::with_bucket_ns(4096);
        let mut heap = ReferenceHeapQueue::new();
        for id in 0..3_000u64 {
            if rng.next_bool(0.6) || wheel.is_empty() {
                let delta = rng.next_bounded(4096 * WHEEL_BUCKETS as u64 * 2);
                let t = wheel.now() + SimDuration::from_nanos(delta);
                wheel.schedule(t, id);
                heap.schedule(t, id);
            } else {
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_reference_heap_on_a_mixed_schedule() {
        use crate::rng::Xorshift64Star;
        let mut rng = Xorshift64Star::new(7);
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.next_bool(0.55) || wheel.is_empty() {
                // Mixed horizons: same-instant, sub-bucket, cross-bucket,
                // and far-future (overflow tier) deltas.
                let delta = match rng.next_bounded(4) {
                    0 => 0,
                    1 => rng.next_bounded(64),
                    2 => rng.next_bounded(BUCKET_NS * 32),
                    _ => rng.next_bounded(BUCKET_NS * WHEEL_BUCKETS as u64 * 4),
                };
                let t = wheel.now() + SimDuration::from_nanos(delta);
                wheel.schedule(t, next_id);
                heap.schedule(t, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

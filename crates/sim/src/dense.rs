//! A dense, ordered bit set over small integer ids.
//!
//! This is the storage behind the engine's *ready sets*: membership flags
//! for a fixed universe of ids (flash chips, dies) that must support O(1)
//! insert/remove/contains **and** iteration in ascending-id order — the
//! property that lets an incremental dispatcher visit exactly the ids a
//! full linear scan would have visited, in the same order, without paying
//! `O(universe)` per round. Per the workspace's hot-path rule it is a plain
//! word array: no hashing, no allocation after construction.
//!
//! Iteration cost is `O(words + members)`, where `words = universe / 64`;
//! for the mesh sizes the simulator sweeps (64–1024 chips) the word walk is
//! 1–16 machine words, which is what makes the ready-set dispatcher's
//! rounds effectively proportional to the number of *ready* chips.
//! [`SetWalk`] is the dispatcher's form of that walk: circular from a
//! rotating start, over a frozen copy of the set, skipping the ids a second,
//! live mask marks asleep.

/// A fixed-universe dense bit set with ascending-order iteration.
///
/// # Example
///
/// ```
/// use venice_sim::DenseBitSet;
///
/// let mut s = DenseBitSet::with_capacity(200);
/// s.insert(7);
/// s.insert(130);
/// s.insert(64);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 64, 130]);
/// // Rank query: the second-smallest member.
/// assert_eq!(s.nth(1), Some(64));
/// s.remove(64);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Universe size (ids are `0..capacity`).
    capacity: usize,
    /// Current member count (kept incrementally; `len()` is O(1)).
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set over the universe `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Inserts `id`; returns true when it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns true when it was a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        assert!(id < self.capacity, "id {id} outside universe {}", self.capacity);
        let (w, b) = (id / 64, 1u64 << (id % 64));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(was);
        was
    }

    /// Removes every member (O(words)).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            // `wrapping_sub`: `successors` computes the next value while
            // yielding the current one, so the clear-lowest-set-bit step
            // also runs on the 0 terminator `take_while` stops at.
            std::iter::successors(Some(w), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// Word `w` of the set: bit `i` is set when id `64 * w + i` is a member
    /// (zero past the universe). Walks read the live words through this.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Removes every member of `other`, a set over the same universe
    /// (O(words)).
    pub fn remove_all(&mut self, other: &DenseBitSet) {
        debug_assert_eq!(self.capacity, other.capacity, "universes differ");
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            self.len -= (*w & o).count_ones() as usize;
            *w &= !o;
        }
    }

    /// The `k`-th smallest member (0-based), or `None` when the set has at
    /// most `k` members: a rank query in O(words).
    pub fn nth(&self, mut k: usize) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut rest = w;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return Some(wi * 64 + rest.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }
}

/// One pass over a frozen copy of a [`DenseBitSet`] in *circular*
/// ascending order from a start id (first the members `>= start`, then the
/// members `< start`: a rotated full scan restricted to members), that
/// passes over the ids *asleep* when their turn comes.
///
/// The members are copied when the walk begins, so ids that join the set
/// mid-pass are not visited; the asleep mask is read live at every step,
/// one machine word at a time, so an id woken mid-pass is still visited if
/// its turn is ahead. Each step costs O(1) plus the words it crosses, and a
/// walk keeps its buffer across passes (no allocation in steady state).
///
/// # Example
///
/// ```
/// use venice_sim::{DenseBitSet, SetWalk};
///
/// let mut set = DenseBitSet::with_capacity(200);
/// for id in [7, 64, 130] {
///     set.insert(id);
/// }
/// let mut asleep = DenseBitSet::with_capacity(200);
/// asleep.insert(7);
/// let mut walk = SetWalk::default();
/// walk.begin(&set, 64);
/// let mut passed = Vec::new();
/// let mut visited = Vec::new();
/// while let Some(id) = walk.next(|w| asleep.word(w), |w, bits| passed.push((w, bits))) {
///     visited.push(id);
/// }
/// assert_eq!(visited, [64, 130]);
/// assert_eq!(passed, [(0, 1 << 7)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SetWalk {
    /// The walked set's words, copied when the walk began.
    frozen: Vec<u64>,
    /// Index of the word being walked.
    word: usize,
    /// Word-sized segments left after the current one: the start word is
    /// walked twice, its ids `>= start` first and its ids `< start` last.
    segments_left: usize,
    /// The start id's bit offset within the start word.
    split: u32,
    /// Members of the current segment not yet visited or passed over.
    pending: u64,
}

impl SetWalk {
    /// Starts a pass over `set`'s current members, circularly from `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is outside the universe (an empty universe admits
    /// only `start == 0`).
    pub fn begin(&mut self, set: &DenseBitSet, start: usize) {
        assert!(
            start < set.capacity || (start == 0 && set.capacity == 0),
            "start {start} outside universe {}",
            set.capacity
        );
        self.frozen.clear();
        self.frozen.extend_from_slice(&set.words);
        self.word = start / 64;
        self.split = (start % 64) as u32;
        self.segments_left = self.frozen.len();
        self.pending = self
            .frozen
            .get(self.word)
            .map_or(0, |&w| w & (!0u64 << self.split));
    }

    /// The next member that `asleep` (word index → live mask word) does
    /// not mark, or `None` when the pass is over. The members passed over
    /// on the way are reported first, as `passed(word index, bits)`.
    #[inline]
    pub fn next(
        &mut self,
        asleep: impl Fn(usize) -> u64,
        mut passed: impl FnMut(usize, u64),
    ) -> Option<usize> {
        loop {
            if self.pending != 0 {
                let awake = self.pending & !asleep(self.word);
                let lowest = awake & awake.wrapping_neg();
                // Every pending member below the lowest awake one is asleep.
                let skipped = self.pending & lowest.wrapping_sub(1);
                if skipped != 0 {
                    passed(self.word, skipped);
                }
                if awake != 0 {
                    self.pending &= !(skipped | lowest);
                    return Some(self.word * 64 + lowest.trailing_zeros() as usize);
                }
            }
            if self.segments_left == 0 {
                self.pending = 0;
                return None;
            }
            self.segments_left -= 1;
            self.word = (self.word + 1) % self.frozen.len();
            self.pending = self.frozen[self.word];
            if self.segments_left == 0 {
                // Back at the start word: its ids below the start.
                self.pending &= (1u64 << self.split) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_len() {
        let mut s = DenseBitSet::with_capacity(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports existing");
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0), "double remove reports missing");
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty() && !s.contains(129));
    }

    #[test]
    fn iteration_is_ascending_and_matches_a_linear_scan() {
        let mut s = DenseBitSet::with_capacity(256);
        let members = [3usize, 5, 63, 64, 65, 127, 128, 200, 255];
        for &m in &members {
            s.insert(m);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
    }

    #[test]
    fn rank_query_and_bulk_removal() {
        let mut s = DenseBitSet::with_capacity(200);
        let members = [3usize, 63, 64, 130, 199];
        for &m in &members {
            s.insert(m);
        }
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(s.nth(k), Some(m), "rank {k}");
        }
        assert_eq!(s.nth(members.len()), None);
        let mut gone = DenseBitSet::with_capacity(200);
        for m in [63usize, 64, 100] {
            gone.insert(m);
        }
        s.remove_all(&gone);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 130, 199]);
        assert_eq!(s.len(), 3, "len counts only removed members");
        assert_eq!(s.word(2), 1u64 << (130 - 128));
    }

    /// Visits every member once, in the order of a rotated full scan.
    fn walk_all(s: &DenseBitSet, start: usize) -> Vec<usize> {
        let mut walk = SetWalk::default();
        walk.begin(s, start);
        std::iter::from_fn(|| walk.next(|_| 0, |_, _| panic!("nothing asleep"))).collect()
    }

    #[test]
    fn a_walk_with_nobody_asleep_is_a_rotated_full_scan() {
        for cap in [1usize, 64, 130] {
            let mut s = DenseBitSet::with_capacity(cap);
            for m in [0usize, 1, 8, 9, 40, 63, 64, 100, 129] {
                if m < cap {
                    s.insert(m);
                }
            }
            for start in 0..cap {
                let expect: Vec<usize> = (0..cap)
                    .map(|off| (start + off) % cap)
                    .filter(|&id| s.contains(id))
                    .collect();
                assert_eq!(walk_all(&s, start), expect, "cap {cap} start {start}");
            }
        }
        let empty = DenseBitSet::with_capacity(0);
        let mut walk = SetWalk::default();
        walk.begin(&empty, 0);
        assert_eq!(
            walk.next(|w| empty.word(w), |_, _| panic!("no members")),
            None
        );
    }

    #[test]
    fn a_walk_passes_over_sleepers_and_sees_mid_pass_wakes() {
        let mut s = DenseBitSet::with_capacity(130);
        for m in [2usize, 5, 9, 70, 129] {
            s.insert(m);
        }
        let mut asleep = DenseBitSet::with_capacity(130);
        for m in [5usize, 9, 70, 129] {
            asleep.insert(m);
        }
        let mut walk = SetWalk::default();
        walk.begin(&s, 3);
        // A member that joins after the walk began is not visited.
        s.insert(4);
        let mut passed = Vec::new();
        // 5 and 9 are passed over; 70 is woken before its turn comes.
        asleep.remove(70);
        let next = walk.next(|w| asleep.word(w), |w, bits| passed.push((w, bits)));
        assert_eq!(next, Some(70));
        assert_eq!(passed, [(0, (1 << 5) | (1 << 9))]);
        // 129 sleeps through; the walk wraps to the start word's low part.
        let next = walk.next(|w| asleep.word(w), |w, bits| passed.push((w, bits)));
        assert_eq!(next, Some(2));
        assert_eq!(passed[1], (2, 1 << 1));
        assert_eq!(
            walk.next(|w| asleep.word(w), |_, _| panic!("no members left")),
            None
        );
        assert_eq!(walk.next(|_| 0, |_, _| panic!("the pass is over")), None);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_ids_are_rejected() {
        let mut s = DenseBitSet::with_capacity(8);
        s.insert(8);
    }
}

//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! `peak_heap_mb` is the largest high-water mark any one point's
//! `SsdSim::new` + `run` reaches above the heap it started from. Unlike the
//! process's resident set, it does not depend on how the allocator reuses
//! freed pages or on how many runs came before, so a seed gives the same
//! figure on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Starts a new high-water mark at the current live bytes, and returns them.
pub fn mark() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Bytes the high-water mark rose above `base` (a value [`mark`] returned).
pub fn peak_above(base: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_the_largest_live_allocation_since_the_mark() {
        let base = mark();
        let big = vec![0u8; 1 << 20];
        drop(big);
        let small = vec![0u8; 1 << 10];
        let peak = peak_above(base);
        drop(small);
        // Other test threads allocate and free alongside, so allow slack.
        assert!(peak >= (1 << 20) - (1 << 16), "peak {peak}");
    }
}

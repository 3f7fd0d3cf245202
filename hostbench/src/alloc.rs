//! Counting global allocator: allocation count and peak live heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Wraps the system allocator, counting every alloc/realloc and tracking
/// live bytes so a phase's peak footprint can be read back. The counters
/// are statistics that publish no other data, hence `Relaxed`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live bytes. Signed: frees of allocations made before a baseline can
/// drive it below that baseline.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn note_live(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Start a peak measurement at the current live level; returns that level.
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes above `baseline` since the matching [`reset_peak`].
pub fn peak_above(baseline: i64) -> u64 {
    (PEAK.load(Ordering::Relaxed) - baseline).max(0) as u64
}

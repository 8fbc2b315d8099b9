//! Counting global allocator: the byte metrics are live-heap deltas in
//! *requested* bytes, so they repeat exactly from run to run (rule 5 in
//! the README) — unlike RSS, which depends on the allocator's arenas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Requested bytes currently allocated and not yet freed, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// `System` plus one relaxed counter update per call.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds a counter update, so `System`'s guarantees are
// this allocator's guarantees.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

/// Requested heap bytes live right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Heap bytes `value` owns: what dropping it gives back. Only meaningful
/// while no other thread allocates, which holds in every direct-call phase.
pub fn bytes_freed_by_drop<T>(value: T) -> usize {
    let before = live_bytes();
    drop(value);
    let freed = before - live_bytes();
    settle();
    freed
}

/// Make the allocator finish the work a big free left behind.
///
/// glibc only queues freed chunks; each later allocation too big for the
/// thread cache then files up to 10 000 of them before it returns, which
/// takes about a millisecond. After a shard rebuild drops a generation
/// (75 000 keys and more), the next dozen such allocations pay that —
/// measured: ten of the 6 000 `BTreeMap::insert` calls of the following
/// insert round took 1.3 ms each, and doubled the round's time for the
/// map. So whoever frees in bulk calls this before its clock stops (a
/// rebuild) or before the next clock starts (the benchmark dropping a
/// store): allocate and free a page until that is quick twice in a row.
pub fn settle() {
    let mut quick = 0;
    for _ in 0..10_000 {
        let t0 = Instant::now();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
        quick = if t0.elapsed() < Duration::from_micros(20) { quick + 1 } else { 0 };
        if quick == 2 {
            return;
        }
    }
}

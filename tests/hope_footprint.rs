//! One copy of the dictionary: what a built [`hope::Hope`] *holds* is what
//! [`hope::Hope::memory_bytes`] *says*, and that is the Table-1 structure
//! alone — no retained interval division, no code list, no second table
//! restating the first. A counting global allocator measures the bytes
//! dropping a freshly built compressor returns; a copy coming back (the
//! parent commit held 3.2 MB for Double-Char's 526 KB array) fails here.
//!
//! This file holds a single `#[test]` so the test harness cannot run a
//! neighbour concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hope::{HopeBuilder, Scheme};
use hope_workloads::{generate, Dataset};

struct CountingAlloc;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn a_built_hope_holds_its_dictionary_once() {
    let sample = generate(Dataset::Email, 20_000, 7);
    for scheme in Scheme::ALL {
        let hope = HopeBuilder::new(scheme).build_from_sample(sample.iter().cloned()).unwrap();
        let claimed = hope.memory_bytes();
        let dict = hope.encoder().dict().memory_bytes();
        let before = LIVE.load(Ordering::Relaxed);
        drop(hope);
        let held = before - LIVE.load(Ordering::Relaxed);

        println!("{scheme}: drop freed {held} B, memory_bytes() {claimed} B, dictionary {dict} B");
        let off = held.abs_diff(claimed) as f64 / claimed as f64;
        assert!(off <= 0.10, "{scheme}: drop freed {held} B but memory_bytes() says {claimed} B");
        let cap = match scheme {
            Scheme::SingleChar => 8 << 10,
            Scheme::DoubleChar => 640 << 10,
            // 3-/4-Grams keep one table beyond the trie (its automaton),
            // counted in `claimed` and bounded by the 10 % check above.
            Scheme::ThreeGrams | Scheme::FourGrams => usize::MAX,
            // No table beyond the ART itself.
            _ => dict + dict / 10,
        };
        assert!(held <= cap, "{scheme}: holds {held} B, cap {cap} B (dictionary {dict} B)");
    }
}

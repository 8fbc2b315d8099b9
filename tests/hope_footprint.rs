//! One copy of the dictionary: what a built [`hope::Hope`] *holds* is what
//! [`hope::Hope::memory_bytes`] *says*, and that is the Table-1 structure
//! alone — no retained interval division, no code list, no second table
//! restating the first. A counting global allocator measures the bytes
//! dropping a freshly built compressor returns; a copy coming back (one
//! once held 3.2 MB beside Double-Char's array) fails here.
//! The same holds once the first `decode_to` has built the shared decoder,
//! which is the sorted code list, the symbol bytes and one 64 KiB table —
//! not a multi-megabyte automaton. The ALM schemes' ART is flat (one
//! node array, one byte arena, one payload array), so it holds at most
//! [`ART_BYTES_PER_ENTRY`] per dictionary entry on every dataset and
//! dictionary size; a return to per-node allocation fails here.
//!
//! This file holds a single `#[test]` so the test harness cannot run a
//! neighbour concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hope::{DecodeScratch, Hope, HopeBuilder, Scheme};
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

/// Cap on an ART dictionary's bytes per entry: the flat layout of 16 B
/// nodes and 4 B payload words holds 22–36.6 B across Email, URL and Wiki
/// at 256, 4 K and 64 K entries, and the cap is that maximum + 10 %
/// (8 B payloads held 26–41 B, 24 B nodes and 16 B payloads 42–62 B,
/// per-node allocation 135–215 B).
const ART_BYTES_PER_ENTRY: usize = 40;

/// Bytes dropping `hope` returns to the allocator, which must be within
/// 10 % of what it claimed to hold.
fn freed_by_drop(hope: Hope, what: &str) -> usize {
    let claimed = hope.memory_bytes();
    let before = LIVE.load(Ordering::Relaxed);
    drop(hope);
    let held = before - LIVE.load(Ordering::Relaxed);
    let off = held.abs_diff(claimed) as f64 / claimed as f64;
    assert!(off <= 0.10, "{what}: drop freed {held} B but memory_bytes() says {claimed} B");
    held
}

#[test]
fn a_built_hope_holds_its_dictionary_once() {
    let sample = generate(Dataset::Email, 20_000, 7);
    for scheme in Scheme::ALL {
        let build = || HopeBuilder::new(scheme).build_from_sample(sample.iter().cloned()).unwrap();
        let hope = build();
        let dict = hope.dict_memory_bytes();
        let held = freed_by_drop(hope, scheme.name());
        let cap = match scheme {
            // One 4-byte word per slot, and no code on this sample escapes.
            Scheme::SingleChar => 1 << 10,
            Scheme::DoubleChar => 257 << 10,
            // 3-/4-Grams keep one table beyond the trie (its automaton of
            // 1 KiB rows): 928 048 B and 5 796 608 B here, capped at + 10 %.
            Scheme::ThreeGrams => 1_000 << 10,
            Scheme::FourGrams => 6_250 << 10,
            // No table beyond the ART itself.
            _ => dict + dict / 10,
        };
        assert!(held <= cap, "{scheme}: holds {held} B, cap {cap} B (dictionary {dict} B)");

        // The first decode builds the shared decoder: the accounting still
        // holds, and the decoder is the code list, the symbols and one
        // small table.
        let hope = build();
        hope.decode_to(&[], 0, &mut DecodeScratch::new()).expect("the empty key");
        let decoder = hope.memory_bytes() - dict;
        let mut symbol_bytes = 0;
        hope.encoder().dict().for_each_entry(&mut |symbol, _| symbol_bytes += symbol.len());
        let cap = 16 * hope.dict_entries() + symbol_bytes + (80 << 10);
        assert!(decoder <= cap, "{scheme}: decoder holds {decoder} B, cap {cap} B");
        let with_decoder = freed_by_drop(hope, scheme.name());
        println!("{scheme}: dictionary {dict} B, decoder {decoder} B; drop freed {held} B without the decoder, {with_decoder} B with it");
    }

    // The ART per entry, on every dataset and at three dictionary sizes,
    // trained on the store's default sample size (`reservoir_capacity`).
    for dataset in Dataset::ALL {
        let sample = generate(dataset, 2_048, 7);
        for scheme in [Scheme::Alm, Scheme::AlmImproved] {
            for target in [256, 4 << 10, 64 << 10] {
                let hope = HopeBuilder::new(scheme)
                    .dictionary_entries(target)
                    .build_from_sample(sample.iter().cloned())
                    .unwrap();
                let (dict, entries) = (hope.dict_memory_bytes(), hope.dict_entries());
                let what = format!("{scheme} on {dataset} at {target}");
                freed_by_drop(hope, &what);
                println!("{what}: {entries} entries, {dict} B ({} B/entry)", dict / entries);
                assert!(
                    dict <= ART_BYTES_PER_ENTRY * entries,
                    "{what}: {dict} B for {entries} entries, cap {ART_BYTES_PER_ENTRY} B each"
                );
            }
        }
    }
}

//! What an index *holds* is what its `memory_bytes()` *says*:
//! `OrderedIndex::load_sorted` builds the B+tree's and HOT's nodes in
//! exact-capacity storage, and both count their buffers at capacity, so
//! the estimate the store's reports and the paper's figures read is the
//! allocator's truth to within 10 % — for a tree built by inserts too. And
//! packing pays: the same encoded keys pushed through `insert` in sorted
//! order — how generations were loaded before — leave every leaf half
//! full inside buffers grown for more, and the loaded tree is at most ¾ of
//! that and no taller. A loaded B+tree's key blocks hold no more than its
//! `Box<[u8]>` per key did, and a loaded HOT stays below what it held with
//! a `Box<[u8]>` per record.
//!
//! A counting global allocator measures the bytes a drop returns. This
//! file holds a single `#[test]` so the test harness cannot run a
//! neighbour concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hope::{HopeBuilder, OrderedIndex, Scheme};
use hope_btree::BPlusTree;
use hope_hot::Hot;
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

/// Bytes dropping `index` returns to the allocator.
fn freed_by_drop<T>(index: T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(index);
    before - LIVE.load(Ordering::Relaxed)
}

fn bulk_loaded<T: OrderedIndex>(mut index: T, run: &[Vec<u8>]) -> T {
    index.load_sorted(&mut run.iter().map(Vec::as_slice).zip(0..));
    assert_eq!(index.len(), run.len());
    index
}

/// Bytes dropping `index` returns, which must be within 10 % of what it
/// claimed to hold.
fn footprint<T: OrderedIndex>(index: T, what: &str) -> usize {
    let claimed = index.memory_bytes();
    let held = freed_by_drop(index);
    let off = held.abs_diff(claimed) as f64 / claimed as f64;
    assert!(off <= 0.10, "{what}: drop freed {held} B but memory_bytes() says {claimed} B");
    println!("{what}: holds {held} B, memory_bytes() {claimed} B");
    held
}

#[test]
fn a_bulk_loaded_index_holds_what_it_says_and_less_than_an_insert_built_one() {
    let keys = generate(Dataset::Email, 50_000, 7);
    let hope = HopeBuilder::new(Scheme::DoubleChar)
        .build_from_sample(keys.iter().step_by(25).cloned())
        .unwrap();
    let mut run: Vec<Vec<u8>> = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();
    run.sort();
    run.dedup();
    drop((keys, hope));

    // HOT: at most what the loaded trie holds with its records packed in
    // one run and 4-byte partial keys in its leaves (2 136 004 B with a
    // `Box<[u8]>` per record and per separator).
    let loaded = bulk_loaded(Hot::<u64>::new(), &run);
    let mut inserted = Hot::<u64>::new();
    for (k, id) in run.iter().zip(0..) {
        inserted.insert(k, id);
    }
    let (short, tall) = (loaded.height(), inserted.height());
    assert!(short <= tall, "Hot: loaded height {short}, insert-built {tall}");
    let loaded = footprint(loaded, "Hot, loaded");
    assert!(loaded <= 1_850_000, "Hot: loaded holds {loaded} B, more than 1 850 000 B");
    let inserted = footprint(inserted, "Hot, insert-built");
    assert!(
        loaded as f64 <= 0.75 * inserted as f64,
        "Hot: loaded holds {loaded} B, insert-built {inserted} B"
    );
    // The most a loaded B+tree may hold: what it held with a `Box<[u8]>`
    // per key, before key blocks.
    for (what, fresh, most) in [
        ("BPlusTree::plain", BPlusTree::<u64>::plain as fn() -> BPlusTree, 2_255_408),
        ("BPlusTree::prefix", BPlusTree::prefix, 1_972_349),
    ] {
        let loaded = bulk_loaded(fresh(), &run);
        let mut inserted = fresh();
        for (k, id) in run.iter().zip(0..) {
            inserted.insert(k, id);
        }
        let (short, tall) = (loaded.height(), inserted.height());
        assert!(short <= tall, "{what}: loaded height {short}, insert-built {tall}");
        let loaded = footprint(loaded, &format!("{what}, loaded"));
        assert!(loaded <= most, "{what}: loaded holds {loaded} B, more than {most} B");
        let inserted = footprint(inserted, &format!("{what}, insert-built"));
        assert!(
            loaded as f64 <= 0.75 * inserted as f64,
            "{what}: loaded holds {loaded} B, insert-built {inserted} B"
        );
    }
}

//! What a whole store *holds* is what its reports *say*, and a
//! generation's entry log is packed: straight after a build and after a
//! rebuild that keeps the dictionary, each log is one exact-size sorted
//! run — per record its source-key bytes, one `u64` value and one `u32`
//! end offset, nothing else — and the write tail an insert stream grows
//! carries bounded slack.
//!
//! A counting global allocator measures the bytes a drop returns. This
//! file holds a single `#[test]` so the test harness cannot run a
//! neighbour concurrently and pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hope_store::{HopeStore, StoreConfig};
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

const LOADED: usize = 50_000;
const INSERTED: usize = 5_000;
const SHARDS: usize = 4;

/// Bytes of one loaded or tail record beside its key: the `u64` value and
/// the key's `u32` end offset.
const RECORD: usize = std::mem::size_of::<u64>() + 4;

fn build(keys: &[Vec<u8>]) -> HopeStore<u64> {
    let cfg = StoreConfig { shards: SHARDS, ..StoreConfig::default() };
    HopeStore::build(cfg, keys.iter().cloned().zip(0..)).unwrap()
}

/// Per shard: `(records, Σ key bytes)` of `keys`.
fn per_shard(store: &HopeStore<u64>, keys: &[Vec<u8>]) -> [(usize, usize); SHARDS] {
    let mut out = [(0, 0); SHARDS];
    for k in keys {
        let slot = &mut out[store.shard_of(k)];
        slot.0 += 1;
        slot.1 += k.len();
    }
    out
}

/// Every shard's log is exactly its loaded run: key bytes + [`RECORD`]
/// per record.
fn assert_logs_are_exact(store: &HopeStore<u64>, loaded: &[(usize, usize); SHARDS], when: &str) {
    for (s, &(records, key_bytes)) in loaded.iter().enumerate() {
        let generation = store.generation(s).unwrap();
        assert_eq!(generation.len(), records, "{when}: shard {s}");
        let bound = key_bytes + RECORD * records;
        let log = generation.log_bytes();
        assert!(log <= bound, "{when}: shard {s} log holds {log} B, its records {bound} B");
        println!("{when}: shard {s} log {log} B for {records} records of {key_bytes} key bytes");
    }
}

#[test]
fn a_store_holds_what_it_reports_and_its_logs_are_packed() {
    let keys = generate(Dataset::Email, LOADED + INSERTED, 7);
    let (load, fresh) = keys.split_at(LOADED);

    // Straight after the build, and after a rebuild that keeps the
    // dictionary, every log is the exact-size sorted run.
    let store = build(load);
    let loaded = per_shard(&store, load);
    assert!(loaded.iter().all(|&(records, _)| records > 0), "{loaded:?}");
    assert_logs_are_exact(&store, &loaded, "built");
    for s in 0..SHARDS {
        assert!(store.force_rebuild(s).unwrap().incremental, "shard {s} kept its dictionary");
    }
    assert_logs_are_exact(&store, &loaded, "kept");

    // The allocator agrees with the reports: a drop frees the indexes,
    // logs and dictionary they count, and little else.
    let stats = store.stats();
    let owned: usize = stats.iter().map(|s| s.index_bytes + s.dict_bytes).sum();
    let before = LIVE.load(Ordering::Relaxed);
    drop(store);
    let freed = before - LIVE.load(Ordering::Relaxed);
    let off = freed.abs_diff(owned) as f64 / owned as f64;
    println!("store: drop freed {freed} B, reports say {owned} B ({:.2} %)", off * 100.0);
    assert!(off <= 0.10, "drop freed {freed} B but the shard reports say {owned} B");

    // Writes land in the tail: per record its key, value, end offset and
    // version link, in buffers that grow by doubling — slack bounded by
    // twice what the caller inserted.
    let store = build(load);
    let before: Vec<usize> =
        (0..SHARDS).map(|s| store.generation(s).unwrap().log_bytes()).collect();
    for (k, v) in fresh.iter().zip(LOADED as u64..) {
        assert_eq!(store.insert(k.clone(), v).unwrap(), None);
    }
    for (s, &(records, key_bytes)) in per_shard(&store, fresh).iter().enumerate() {
        let tail = store.generation(s).unwrap().log_bytes() - before[s];
        let used = key_bytes + (RECORD + 4) * records;
        let inserted = key_bytes + std::mem::size_of::<u64>() * records;
        assert!(tail >= used, "shard {s}: tail {tail} B under its {used} B of records");
        let slack = tail - used;
        println!("inserted: shard {s} tail {tail} B, {used} B used, {inserted} B inserted");
        assert!(slack <= 2 * inserted, "shard {s}: slack {slack} B for {inserted} B inserted");
    }
    assert_eq!(store.len(), LOADED + INSERTED);
}

//! Property suite for [`hope_store::Snapshot`] — the O(1) copy-on-write
//! point-in-time view behind the `snapshot` drill.
//!
//! Three behavioural claims (frozen equality under a concurrent writer
//! thread is `store_swap.rs`'s, with the other threaded tests):
//!
//! * **cursor pinning** — a snapshot cursor opened before N hot-swaps
//!   finishes its scan on the pinned generations: every served hit
//!   reports a pinned epoch (never a post-swap one) and the full result
//!   equals the shadow, regardless of how many swaps completed mid-scan;
//! * **pin release** — the snapshot's generation pins are real `Arc`s:
//!   a superseded generation stays alive exactly as long as a snapshot
//!   holds it, and dropping the last handle releases it (probed via
//!   `Arc::strong_count` on a diagnostic epoch handle);
//! * **walk-past** — a snapshot scan fills its limit from capture-time
//!   hits however many keys born later sort ahead of them, on the push
//!   path and across a pull cursor's chunk boundaries.

use std::collections::BTreeMap;
use std::sync::Arc;

use hope_store::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// Distinct source keys the scripts draw from: small enough that random
/// scripts revisit keys (updates), large enough to span several shards.
const KEYSPACE: u64 = 1500;

fn key(i: u64) -> Vec<u8> {
    format!("com.gmail@user{:04}", i % KEYSPACE).into_bytes()
}

fn cfg(shards: usize) -> StoreConfig {
    StoreConfig { shards, reservoir_capacity: 128, min_observed_bytes: 512, ..Default::default() }
}

/// Build a store (and its shadow) from a script of key draws; the value
/// is the draw's position, so later draws of the same key overwrite.
fn build(shards: usize, init: &[u64]) -> (Arc<HopeStore<u64>>, BTreeMap<Vec<u8>, u64>) {
    let mut shadow = BTreeMap::new();
    for (n, &x) in init.iter().enumerate() {
        shadow.insert(key(x), n as u64);
    }
    let store = HopeStore::build(cfg(shards), shadow.iter().map(|(k, v)| (k.clone(), *v))).unwrap();
    (Arc::new(store), shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_cursor_survives_swaps_without_crossing_epochs(
        init in vec(any::<u64>(), 60..250),
        swaps in 1usize..5,
        shards in 1usize..5,
    ) {
        let (store, shadow) = build(shards, &init);
        let snap = store.snapshot();
        let pinned = snap.epochs();
        let want: Vec<(Vec<u8>, u64)> = shadow.iter().map(|(k, v)| (k.clone(), *v)).collect();

        let mut cur = snap.cursor(b"a", b"zzzz", usize::MAX).unwrap();
        let mut got = Vec::new();
        // Pull a prefix… (hits are copied out before the epoch probe —
        // `next_hit` lends from the cursor's buffers)
        for _ in 0..want.len() / 2 {
            let hit = cur.next_hit().map(|(k, v)| (k.to_vec(), *v));
            let Some(hit) = hit else { break };
            prop_assert!(pinned.contains(&cur.hit_epoch().unwrap()));
            got.push(hit);
        }
        // …churn every shard's epoch repeatedly under the open cursor…
        for r in 0..swaps {
            for s in 0..store.config().shards {
                store.force_rebuild(s).unwrap();
            }
            store.insert(key(r as u64), 9_999_999).unwrap();
        }
        // …and finish the scan: still the capture instant, still only
        // pinned epochs.
        loop {
            let hit = cur.next_hit().map(|(k, v)| (k.to_vec(), *v));
            let Some(hit) = hit else { break };
            prop_assert!(pinned.contains(&cur.hit_epoch().unwrap()));
            got.push(hit);
        }
        prop_assert!(cur.error().is_none());
        prop_assert_eq!(got, want);
    }
}

/// A watermark scan walks past entries born after the capture without
/// counting them: more than `2 × limit` new keys sorting *before* the
/// range's first capture-time key (and new keys and versions between the
/// old ones) cost a scan nothing but the walk — the push path fills its
/// limit, and a pull cursor resumes correctly across 256-hit chunks.
#[test]
fn snapshot_scans_walk_past_keys_born_after_the_capture() {
    const LIMIT: usize = 300;
    let (store, shadow) = build(1, &(0..600).collect::<Vec<u64>>());
    let snap = store.snapshot();
    for i in 0..2 * LIMIT as u64 + 100 {
        store.insert(format!("com.gmail@a{i:04}").into_bytes(), 7_000_000 + i).unwrap();
    }
    for i in (0..600).step_by(3) {
        store.insert(key(i), 8_000_000 + i).unwrap(); // a newer version
        store.insert([key(i), b"+".to_vec()].concat(), 9_000_000 + i).unwrap(); // a new neighbour
    }
    let (low, high) = (&b"com.gmail@"[..], &b"com.gmail@z"[..]);
    let want: Vec<(Vec<u8>, u64)> = shadow.into_iter().collect();

    let mut pushed = Vec::new();
    let n = snap.range_with(low, high, LIMIT, |k, v| pushed.push((k.to_vec(), *v))).unwrap();
    assert_eq!(n, LIMIT);
    assert_eq!(pushed, want[..LIMIT]);

    let mut cur = snap.cursor(low, high, usize::MAX).unwrap();
    let mut pulled = Vec::new();
    while let Some((k, v)) = cur.next_hit() {
        pulled.push((k.to_vec(), *v));
    }
    assert!(cur.error().is_none());
    assert_eq!(pulled, want);
    // The live store sees all of it.
    assert_eq!(store.len(), 600 + 2 * LIMIT + 100 + 200);
}

#[test]
fn dropping_the_last_snapshot_handle_releases_pinned_generations() {
    let (store, _) = build(2, &(0..200).collect::<Vec<u64>>());
    // A diagnostic handle to shard 0's current generation: the probe the
    // strong count is read through.
    let probe = store.generation(0).unwrap();
    let snap = store.snapshot();
    // Holders now: the shard's epoch slot, the probe, the snapshot pin.
    assert_eq!(Arc::strong_count(&probe), 3);
    store.force_rebuild(0).unwrap();
    // The swap retired the store's handle; the snapshot keeps the old
    // generation alive (this is what "readers drain gracefully" means).
    assert_eq!(Arc::strong_count(&probe), 2);
    assert_eq!(snap.get(b"com.gmail@user0000").unwrap(), Some(0));
    drop(snap);
    // Last external pin gone: only the probe itself remains, i.e. the
    // store no longer retains any reference to the superseded generation.
    assert_eq!(Arc::strong_count(&probe), 1);
}

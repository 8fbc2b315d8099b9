//! Integration suite for the `hope_store` dictionary hot-swap: the store
//! must be indistinguishable from an uncompressed ordered map before,
//! during, and after a swap — including under concurrent readers while a
//! generation is being replaced, and a snapshot must keep its capture
//! instant while a writer thread churns the live store. Readers also push
//! range hits through an encode→decode round-trip (`Hope::decode_to`)
//! against the live generation, so losslessness is checked mid-swap too.
//!
//! Range queries run through the v1 [`hope_store::RangeCursor`] (pull and
//! push forms); dedicated tests cover the cursor's edge cases, its
//! behaviour when a dictionary hot-swap lands mid-iteration, injected
//! rebuild failures, and the scenarios `store_model`'s random programs
//! also reach, kept here as named regressions — among them the point
//! reads an ART store answers from a partial encoding.
//!
//! Sizes scale up in `--release` (CI runs this suite in both profiles;
//! the release run is the stress configuration).

mod common;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Bound::Included;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::LocalKey;

use common::zero_padded;
use hope::{DecodeScratch, EncodedBytes, OrderedIndex, Probe, Scheme};
use hope_art::Art;
use hope_store::serving::{FaultPlan, Request, Response, ScanSummary, Server, ServingConfig};
use hope_store::telemetry::EventKind;
use hope_store::{Backend, HopeStore, RangeCursor, SlotId, StoreConfig, StoreError};
use hope_workloads::{MixedWorkload, StoreOp, TrafficSpec};
use proptest::collection::vec;
use proptest::prelude::*;

fn email_pairs(n: u64) -> Vec<(Vec<u8>, u64)> {
    (0..n).map(|i| (format!("com.gmail@user{i:06}").into_bytes(), i)).collect()
}

/// Collect a bounded range through the cursor, asserting pull and push
/// agree — every scan in this suite doubles as a cursor-equivalence check.
fn range(store: &HopeStore<u64>, low: &[u8], high: &[u8], limit: usize) -> Vec<(Vec<u8>, u64)> {
    let mut pushed = Vec::new();
    let n = store.range_into(low, high, limit, &mut pushed).expect("valid bounds");
    assert_eq!(n, pushed.len());
    let mut cur = store.cursor(low, high, limit).expect("valid bounds");
    let mut pulled = Vec::new();
    while let Some((k, v)) = cur.next_hit() {
        pulled.push((k.to_vec(), *v));
    }
    assert!(cur.error().is_none(), "{:?}", cur.error());
    assert_eq!(pulled, pushed, "pull and push cursors disagree");
    pushed
}

/// Deterministic end-to-end: load, drift, swap, and compare the full
/// contents and a spread of ranges against the shadow map.
#[test]
fn swap_preserves_gets_and_ranges_exactly() {
    let cfg = StoreConfig { shards: 3, min_observed_bytes: 1024, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(3_000)).unwrap();
    let mut shadow: BTreeMap<Vec<u8>, u64> = email_pairs(3_000).into_iter().collect();
    let epochs_before = store.epochs();

    // Drift: traffic the build sample never saw.
    for i in 0..1_500u64 {
        let k = format!("ru.yandex/{i:x}/box{i:05}").into_bytes();
        assert_eq!(store.insert(k.clone(), i).unwrap(), shadow.insert(k, i));
    }
    let (swaps, errors) = store.maintain();
    assert!(errors.is_empty(), "{errors:?}");
    assert!(!swaps.is_empty(), "drift should have triggered at least one swap");
    assert!(store.epochs().iter().zip(&epochs_before).any(|(a, b)| a > b));

    // Every key, point-queried.
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v));
    }
    // Ranges spanning shard boundaries and both populations.
    let probes: Vec<&[u8]> =
        vec![b"com.gmail@user000000", b"com.gmail@user001499", b"ru.yandex/", b"", b"zzz"];
    for low in &probes {
        for high in &probes {
            for limit in [1usize, 7, 100, usize::MAX] {
                let got = range(&store, low, high, limit);
                let want: Vec<(Vec<u8>, u64)> = if low > high {
                    Vec::new() // BTreeMap::range panics on inverted bounds
                } else {
                    shadow
                        .range(low.to_vec()..=high.to_vec())
                        .take(limit)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect()
                };
                assert_eq!(got, want, "range {low:?}..={high:?} limit {limit}");
            }
        }
    }
}

/// The satellite edge cases, all through the cursor: empty range,
/// inverted bounds, equal bounds, limit 0.
#[test]
fn cursor_edge_cases() {
    let store =
        HopeStore::build(StoreConfig { shards: 2, ..StoreConfig::default() }, email_pairs(200))
            .unwrap();

    // Empty range (bounds between keys): no hits, no error.
    assert!(range(&store, b"com.gmail@user000010x", b"com.gmail@user000010zzz", 10).is_empty());
    // Inverted bounds: empty cursor, not an error.
    let mut cur = store.cursor(b"z", b"a", 10).unwrap();
    assert!(cur.next_hit().is_none());
    assert!(cur.error().is_none());
    assert_eq!(store.range_with(b"z", b"a", 10, |_, _| panic!("no hits")).unwrap(), 0);
    // Bounds equal, key present: exactly that key.
    let got = range(&store, b"com.gmail@user000007", b"com.gmail@user000007", 10);
    assert_eq!(got, vec![(b"com.gmail@user000007".to_vec(), 7)]);
    // Bounds equal, key absent: nothing.
    assert!(range(&store, b"com.gmail@userX", b"com.gmail@userX", 10).is_empty());
    // Limit 0: empty cursor with zero remaining.
    let mut cur = store.cursor(b"", b"\xff", 0).unwrap();
    assert_eq!(cur.remaining(), 0);
    assert!(cur.next_hit().is_none());
    // Limit truncates mid-shard and `remaining` counts down.
    let mut cur = store.cursor(b"", b"\xff", 5).unwrap();
    assert_eq!(cur.remaining(), 5);
    assert!(cur.next_hit().is_some());
    assert_eq!(cur.remaining(), 4);
}

/// Keys that share their encoded padded bytes with another key of `keys`
/// in the same shard under the store's current dictionaries — always 0:
/// the store indexes those bytes as the key.
fn tied_keys(store: &HopeStore<u64>, keys: &[Vec<u8>]) -> usize {
    let mut groups: BTreeMap<(usize, Vec<u8>), usize> = BTreeMap::new();
    for k in keys {
        let shard = store.shard_of(k);
        let enc = store.generation(shard).unwrap().hope().encode(k);
        *groups.entry((shard, enc.as_bytes().to_vec())).or_default() += 1;
    }
    groups.values().filter(|&&n| n > 1).sum()
}

/// The keys zero padding would confuse if any could: a Single-Char
/// dictionary trained on a 0x00-dominated sample gives 0x00 the shortest,
/// smallest code there is, and `a`, `a\0`, `a\0\0`, … differ only by
/// repeats of it. That code is never all zeros, so each still indexes
/// under its own byte string, and every backend must keep such families
/// exact through inserts in either key order, updates of first and later
/// members, a snapshot, and a rebuild.
#[test]
fn zero_run_key_families_stay_exact_on_every_backend() {
    let stems: [&[u8]; 6] = [b"a", b"ab", b"b", b"m", b"mz", b"z"];
    // Loaded up front: long 0x00 runs (they dominate the training
    // sample) and, per stem, the odd members of its family.
    let mut loaded: Vec<Vec<u8>> = (1..=40).map(|n| zero_padded(b"", n)).collect();
    let mut fresh: Vec<Vec<u8>> = Vec::new();
    for stem in stems {
        for zeros in 0..8 {
            if zeros % 2 == 1 { &mut loaded } else { &mut fresh }.push(zero_padded(stem, zeros));
        }
    }
    loaded.sort();
    let all: Vec<Vec<u8>> = loaded.iter().chain(&fresh).cloned().collect();

    for backend in
        [Backend::BTree, Backend::PrefixBTree, Backend::Art, Backend::Hot, Backend::BTreeMap]
    {
        let cfg = StoreConfig {
            shards: 2,
            scheme: Scheme::SingleChar,
            backend,
            ..StoreConfig::default()
        };
        let pairs = loaded.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
        let store = HopeStore::build(cfg, pairs.clone()).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = pairs.collect();
        assert_eq!(tied_keys(&store, &all), 0, "{backend:?}: padded bytes must be unique");

        let snap = store.snapshot();
        let frozen = model.clone();

        // Fresh members: descending key order for half the stems (each
        // insert lands in front of its family's loaded members),
        // ascending for the rest (each lands behind or between).
        let (descending, ascending) = fresh.split_at(fresh.len() / 2);
        for (i, k) in descending.iter().rev().chain(ascending).enumerate() {
            let v = 1_000 + i as u64;
            assert_eq!(store.insert(k.clone(), v).unwrap(), model.insert(k.clone(), v), "{k:?}");
        }
        // Updates: every family's first key (`stem`) and a later member.
        for (i, stem) in stems.iter().enumerate() {
            for k in [stem.to_vec(), zero_padded(stem, 3)] {
                let v = 2_000 + i as u64;
                assert_eq!(
                    store.insert(k.clone(), v).unwrap(),
                    model.insert(k.clone(), v),
                    "{k:?}"
                );
            }
        }

        let check_live = |when: &str| {
            for k in &all {
                assert_eq!(
                    store.get(k).unwrap(),
                    model.get(k).copied(),
                    "{backend:?} {when} {k:?}"
                );
            }
            let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(range(&store, b"", b"\xff", usize::MAX), want, "{backend:?} {when}");
            // Bounds that cut families open: only part of one is inside
            // the source range.
            for low in all.iter().step_by(5) {
                for high in all.iter().step_by(7).filter(|h| *h >= low) {
                    let want: Vec<(Vec<u8>, u64)> = model
                        .range(low.clone()..=high.clone())
                        .take(4)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    assert_eq!(
                        range(&store, low, high, 4),
                        want,
                        "{backend:?} {when} {low:?}..={high:?}"
                    );
                }
            }
        };
        let check_snapshot = |when: &str| {
            for k in &all {
                assert_eq!(
                    snap.get(k).unwrap(),
                    frozen.get(k).copied(),
                    "{backend:?} {when} {k:?}"
                );
            }
            let mut got = Vec::new();
            snap.range_into(b"", b"\xff", usize::MAX, &mut got).unwrap();
            let want: Vec<(Vec<u8>, u64)> = frozen.iter().map(|(k, v)| (k.clone(), *v)).collect();
            assert_eq!(got, want, "{backend:?} {when}: snapshot moved");
        };
        check_live("before rebuild");
        check_snapshot("before rebuild");
        for shard in 0..store.config().shards {
            store.force_rebuild(shard).unwrap();
        }
        assert_eq!(tied_keys(&store, &all), 0, "{backend:?}: after rebuild");
        check_live("after rebuild");
        check_snapshot("after rebuild");
    }
}

thread_local! {
    /// Point reads the ART stores below have sent to their index, the
    /// ones it answered with a candidate before the key's end, and the
    /// entries its walks handed to a scan — per thread, so tests running
    /// side by side do not count each other's reads.
    static ART_READS: Cell<u64> = const { Cell::new(0) };
    static ART_CANDIDATES: Cell<u64> = const { Cell::new(0) };
    static ART_VISITED: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<u64>>) {
    counter.set(counter.get() + 1);
}

/// [`Art`], counting the point reads it serves ([`ART_READS`],
/// [`ART_CANDIDATES`]) and the entries it visits ([`ART_VISITED`]). It
/// forwards `seeks_prefixes` too: without it the store would read it
/// through `get`, with the whole key.
#[derive(Debug, Default)]
struct CountedArt(Art<SlotId>);

/// A key's bytes, noting whether they were handed out whole.
struct Watched<'a>(&'a mut dyn EncodedBytes, bool);

impl EncodedBytes for Watched<'_> {
    fn at_least(&mut self, n: usize) -> (&[u8], bool) {
        let (bytes, whole) = self.0.at_least(n);
        self.1 |= whole;
        (bytes, whole)
    }
}

impl OrderedIndex<SlotId> for CountedArt {
    fn get(&self, key: &[u8]) -> Option<&SlotId> {
        bump(&ART_READS);
        self.0.get_ref(key)
    }

    fn seek(&self, key: &mut dyn EncodedBytes) -> Probe<'_, SlotId> {
        bump(&ART_READS);
        let mut watched = Watched(key, false);
        let probe = self.0.seek(&mut watched);
        if !watched.1 && matches!(probe, Probe::Candidate(_)) {
            bump(&ART_CANDIDATES);
        }
        probe
    }

    fn seeks_prefixes(&self) -> bool {
        OrderedIndex::seeks_prefixes(&self.0)
    }

    fn insert(&mut self, key: &[u8], value: SlotId) -> Option<SlotId> {
        self.0.insert(key, value)
    }

    fn load_sorted(&mut self, run: &mut dyn Iterator<Item = (&[u8], SlotId)>) {
        OrderedIndex::load_sorted(&mut self.0, run);
    }

    fn visit(&self, low: &[u8], f: &mut dyn FnMut(&[u8], &SlotId) -> bool) {
        self.0.visit(low, &mut |key, id| {
            bump(&ART_VISITED);
            f(key, id)
        });
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

fn counted_art() -> Box<dyn OrderedIndex<SlotId>> {
    Box::<CountedArt>::default()
}

/// The keys the ART early-stop tests store — the empty key, 0x00 / 0xFF
/// runs, `a` + 0x00 runs, keys that are prefixes of others — sorted, and
/// the probes they read with: every stored key, every strict prefix and
/// a few extensions of each, and runs no key holds.
fn early_stop_keys() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut stored: Vec<Vec<u8>> = vec![Vec::new()];
    for n in [1, 2, 3, 7, 8, 9, 16, 17, 40] {
        stored.extend([vec![0x00; n], vec![0xff; n], zero_padded(b"a", n)]);
    }
    for k in ["com.gmail@alice", "com.gmail@alicia", "com.gmail@al", "http://example.com/a/b/c"] {
        stored.push(k.as_bytes().to_vec());
    }
    stored.sort();
    stored.dedup();
    let mut probes: Vec<Vec<u8>> = stored.clone();
    for k in &stored {
        probes.extend((0..k.len()).map(|n| k[..n].to_vec()));
        for tail in
            [&b"\x00"[..], b"\x00\x00\x00", b"x", b"\xff", b"\xff\xff\xff\xff\xff\xff\xff\xff\xff"]
        {
            probes.push([k.as_slice(), tail].concat());
        }
    }
    probes.extend((1..=48).flat_map(|n| [vec![0x00; n], vec![0xff; n], vec![0x01; n]]));
    (stored, probes)
}

/// The odd keys of `stored`, valued by position: what the early-stop
/// tests load. The even ones, and updates of every third key, go to the
/// write tail after a snapshot ([`write_early_stop_tail`]).
fn early_stop_load(stored: &[Vec<u8>]) -> Vec<(Vec<u8>, u64)> {
    stored
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(i, k)| (k.clone(), i as u64))
        .collect()
}

fn write_early_stop_tail(
    store: &HopeStore<u64>,
    model: &mut BTreeMap<Vec<u8>, u64>,
    stored: &[Vec<u8>],
) {
    for (i, k) in stored.iter().enumerate() {
        if i % 2 == 0 || i % 3 == 0 {
            let v = 1_000 + i as u64;
            assert_eq!(store.insert(k.clone(), v).unwrap(), model.insert(k.clone(), v));
        }
    }
}

/// An ART store answers a get from as few encoded bytes as place the key
/// in its trie, pulled by one descent, and confirms the one candidate
/// left against the record's source key. Under every scheme, live and
/// from a snapshot, whole keys and probes that stop early must both come
/// out exact: the empty key, strict prefixes of stored keys, keys that
/// extend one, and 0x00 / 0xFF runs, stored and not, in the loaded base
/// and in the write tail. Each read calls the index once. A key over
/// `MAX_KEY_BYTES` is a codec error before the index sees it.
#[test]
fn art_point_reads_that_stop_encoding_early_stay_exact() {
    let (stored, probes) = early_stop_keys();
    let loaded = early_stop_load(&stored);
    for scheme in Scheme::ALL {
        for backend in [Backend::Art, Backend::Custom(counted_art)] {
            let cfg = StoreConfig { shards: 2, scheme, backend, ..StoreConfig::default() };
            let store = HopeStore::build(cfg, loaded.clone()).unwrap();
            let mut model: BTreeMap<Vec<u8>, u64> = loaded.iter().cloned().collect();
            let snap = store.snapshot();
            let frozen = model.clone();
            write_early_stop_tail(&store, &mut model, &stored);
            let counted = matches!(backend, Backend::Custom(_));
            let once = |what: &str, read: &dyn Fn()| {
                let reads = ART_READS.get();
                read();
                assert!(!counted || ART_READS.get() == reads + 1, "{what}: index calls");
            };
            for p in &probes {
                let what = format!("{scheme}/{backend:?}: {p:?}");
                once(&what, &|| assert_eq!(store.get(p).unwrap(), model.get(p).copied(), "{what}"));
                once(&what, &|| {
                    assert_eq!(store.get_traced(p).unwrap().0, model.get(p).copied(), "{what}");
                });
                once(&what, &|| {
                    assert_eq!(snap.get(p).unwrap(), frozen.get(p).copied(), "{what}: snapshot");
                });
            }

            let giant = vec![b'a'; hope::MAX_KEY_BYTES + 1];
            let reads = ART_READS.get();
            assert!(matches!(store.get(&giant), Err(StoreError::Codec(_))), "{scheme}");
            assert!(matches!(snap.get(&giant), Err(StoreError::Codec(_))), "{scheme}");
            assert_eq!(ART_READS.get(), reads, "{scheme}: the index was read");
        }
    }
    assert!(ART_CANDIDATES.get() > 0, "no get stopped encoding early");
}

/// The hits of a cursor, pulled one by one.
fn pull(mut cursor: RangeCursor<'_, u64>) -> Vec<(Vec<u8>, u64)> {
    let mut pulled = Vec::new();
    while let Some((k, v)) = cursor.next_hit() {
        pulled.push((k.to_vec(), *v));
    }
    assert!(cursor.error().is_none(), "{:?}", cursor.error());
    pulled
}

/// An ART store starts a scan from as few encoded bytes of its low bound
/// as place it in the trie, and encodes no high bound: each hit's source
/// key is checked against both bounds instead, skipping keys below the
/// low one (or at a cursor's resume key) and stopping at the first above
/// the high one. Under every scheme, live and from a snapshot, pushed
/// and pulled, scans from every probe of the point-read test to highs
/// stored and not must equal a `BTreeMap`'s; whole blocks of more than a
/// cursor chunk resume mid-scan, in the base and in the write tail. A
/// walk visits no more than the index keys inside the range and a few
/// per shard and chunk: a snapshot scan stops at the first key above
/// `high` even when that key was born after the snapshot.
#[test]
fn art_scans_that_stop_encoding_early_stay_exact() {
    let (stored, probes) = early_stop_keys();
    // More than a cursor chunk each: a loaded block, and one written
    // after the snapshot, which the snapshot's scans must walk past.
    let block = |stem: &str| -> Vec<Vec<u8>> {
        (0..300).map(|i| format!("{stem}{i:03}").into_bytes()).collect()
    };
    let mut loaded = early_stop_load(&stored);
    loaded.extend(block("http://example.com/a/").into_iter().zip(5_000..));
    loaded.sort();
    let written = block("com.gmail@alice/");
    let highs: Vec<Vec<u8>> = [
        &b""[..],
        b"com.gmail@alice",
        b"com.gmail@alicia",
        b"http://example.com/a/150",
        &[0xff; 9],
        b"com.gmail@alice/150x",
        b"b",
        b"http://example.com/a/2",
        &[0xff; 100],
    ]
    .map(<[u8]>::to_vec)
    .to_vec();

    let mut early = 0;
    for scheme in Scheme::ALL {
        for backend in [Backend::Art, Backend::Custom(counted_art)] {
            let counted = matches!(backend, Backend::Custom(_));
            let cfg = StoreConfig { shards: 2, scheme, backend, ..StoreConfig::default() };
            let store = HopeStore::build(cfg, loaded.clone()).unwrap();
            let mut model: BTreeMap<Vec<u8>, u64> = loaded.iter().cloned().collect();
            let snap = store.snapshot();
            let frozen = model.clone();
            write_early_stop_tail(&store, &mut model, &stored);
            for (k, v) in written.iter().zip(9_000..) {
                assert_eq!(store.insert(k.clone(), v).unwrap(), model.insert(k.clone(), v));
            }

            let candidates = ART_CANDIDATES.get();
            let check = |low: &[u8], high: &[u8], limit: usize| {
                let what = format!("{scheme}/{backend:?}: {low:?}..={high:?} ({limit})");
                let want = |m: &BTreeMap<Vec<u8>, u64>| -> Vec<(Vec<u8>, u64)> {
                    let range = m.range::<[u8], _>((Included(low), Included(high)));
                    range.take(limit).map(|(k, v)| (k.clone(), *v)).collect()
                };
                let indexed = model.range::<[u8], _>((Included(low), Included(high))).count();
                let visited = ART_VISITED.get();
                let mut pushed = Vec::new();
                store.range_into(low, high, limit, &mut pushed).unwrap();
                assert_eq!(pushed, want(&model), "{what}: pushed");
                assert_eq!(pull(store.cursor(low, high, limit).unwrap()), pushed, "{what}: pulled");
                let mut pushed = Vec::new();
                snap.range_into(low, high, limit, &mut pushed).unwrap();
                assert_eq!(pushed, want(&frozen), "{what}: snapshot pushed");
                let pulled = pull(snap.cursor(low, high, limit).unwrap());
                assert_eq!(pulled, pushed, "{what}: snapshot pulled");
                // Four walks (two per source), each over at most the
                // index keys in range plus, per shard and per chunk, one
                // key below `from` and the one that stops it.
                let walked = ART_VISITED.get() - visited;
                let chunks = 2 * (limit.min(indexed) / 256 + 2);
                assert!(
                    !counted || walked as usize <= 4 * indexed + 4 * chunks,
                    "{what}: {walked}"
                );
            };
            for low in &probes {
                for high in highs.iter().filter(|h| *h >= low) {
                    check(low, high, 3);
                }
            }
            for low in probes.iter().step_by(13) {
                check(low, &[0xff; 100], usize::MAX);
            }
            for (low, high) in [
                (&b"http://example.com/a/"[..], &b"http://example.com/a/\xff"[..]),
                (b"com.gmail@al", b"com.gmail@alicia"),
                (b"", &[0xff; 100]),
            ] {
                check(low, high, usize::MAX);
            }
            early += ART_CANDIDATES.get() - candidates;
        }
    }
    assert!(early > 0, "no scan stopped encoding its low bound early");
}

/// A cursor held across a concurrent dictionary swap keeps serving a
/// consistent view: it pins each shard's generation on entry, so hits
/// stay exact and ordered even though every shard's dictionary was
/// replaced mid-iteration.
#[test]
fn cursor_survives_concurrent_dictionary_swap() {
    let cfg = StoreConfig { shards: 3, ..StoreConfig::default() };
    let n = 3_000u64;
    let store = HopeStore::build(cfg, email_pairs(n)).unwrap();

    let mut cur = store.cursor(b"", b"\xff\xff", usize::MAX).unwrap();
    let mut seen: Vec<(Vec<u8>, u64)> = Vec::new();
    // Pull a prefix (deep enough to be mid-shard), then swap every shard.
    for _ in 0..500 {
        let (k, v) = cur.next_hit().expect("prefix available");
        seen.push((k.to_vec(), *v));
    }
    let epochs_before = store.epochs();
    for s in 0..store.config().shards {
        store.force_rebuild(s).unwrap();
    }
    assert!(store.epochs().iter().zip(&epochs_before).all(|(a, b)| a > b));
    // Drain the rest across the swapped generations.
    while let Some((k, v)) = cur.next_hit() {
        seen.push((k.to_vec(), *v));
    }
    assert!(cur.error().is_none());
    assert_eq!(seen.len() as u64, n, "cursor lost or duplicated hits across the swap");
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "cursor order broke across the swap");
    for (i, (k, v)) in seen.iter().enumerate() {
        assert_eq!(k, &format!("com.gmail@user{i:06}").into_bytes());
        assert_eq!(*v, i as u64);
    }
}

/// The headline concurrency property: reader threads hammer the loaded
/// keys with point and range queries while the main thread applies
/// shifting write traffic and hot-swaps every shard mid-stream. No reader
/// may ever observe a wrong answer — before, during, or after the swaps.
#[test]
fn hot_swap_under_concurrent_readers() {
    let (n_initial, n_ops) = if cfg!(debug_assertions) { (2_000, 2_000) } else { (20_000, 30_000) };
    let workload = MixedWorkload::generate(n_initial, n_ops, TrafficSpec::default(), 0xFEED);
    let cfg = StoreConfig { min_observed_bytes: 4096, ..StoreConfig::default() };
    let initial: Vec<(Vec<u8>, u64)> =
        workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let store = Arc::new(HopeStore::build(cfg, initial.clone()).unwrap());
    let mut shadow: BTreeMap<Vec<u8>, u64> = initial.clone().into_iter().collect();

    let stop = Arc::new(AtomicBool::new(false));
    let frozen = Arc::new(initial);
    let readers: Vec<_> = (0..3)
        .map(|t| {
            let (store, stop, frozen) =
                (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&frozen));
            std::thread::spawn(move || {
                let mut checks = 0u64;
                let mut i = t * 131;
                let mut decode_scratch = DecodeScratch::new();
                let mut range_keys: Vec<Vec<u8>> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let (k, v) = &frozen[i % frozen.len()];
                    assert_eq!(store.get(k).unwrap(), Some(*v), "wrong point result for {k:?}");
                    match i % 3 {
                        0 => {
                            // Exact single-key range, via the zero-alloc
                            // visitor scan.
                            let mut ok = false;
                            let hits = store
                                .range_with(k, k, 2, |rk, rv| {
                                    ok = rk == k.as_slice() && *rv == *v;
                                })
                                .unwrap();
                            assert!(hits == 1 && ok, "wrong single-key range for {k:?}");
                        }
                        1 => {
                            // Open-ended range through the pull cursor: the
                            // anchor key must lead it even while writers add
                            // keys above.
                            let mut high = k.clone();
                            high.push(0xFF);
                            let mut cur = store.cursor(k, &high, 8).unwrap();
                            range_keys.clear();
                            let mut first_val = None;
                            while let Some((rk, rv)) = cur.next_hit() {
                                if first_val.is_none() {
                                    first_val = Some(*rv);
                                }
                                range_keys.push(rk.to_vec());
                            }
                            assert!(cur.error().is_none());
                            assert_eq!(range_keys.first(), Some(k), "anchor key missing");
                            assert_eq!(first_val, Some(*v));
                            assert!(range_keys.windows(2).all(|w| w[0] < w[1]), "unsorted range");
                            assert!(range_keys.iter().all(|rk| rk >= k && rk <= &high));
                            if i % 63 == 1 {
                                // Encode→decode round-trip of the scan's
                                // hits against whichever generation is
                                // serving this shard right now — the
                                // encoding must stay lossless before,
                                // during, and after every hot-swap.
                                let generation = store.generation(store.shard_of(k)).unwrap();
                                let hope = generation.hope();
                                for rk in &range_keys {
                                    let e = hope.encode(rk);
                                    let back = hope
                                        .decode_to(e.as_bytes(), e.bit_len(), &mut decode_scratch)
                                        .expect("range hits must decode");
                                    assert_eq!(back, rk.as_slice(), "round-trip broke mid-swap");
                                }
                            }
                        }
                        _ => {}
                    }
                    checks += 1;
                    i += 1;
                }
                checks
            })
        })
        .collect();

    // Apply the shifting traffic; force a swap of every shard mid-stream
    // (on top of whatever drift-triggered swaps maintenance performs).
    let force_at = workload.shift_at + (n_ops - workload.shift_at) / 2;
    let epochs_start = store.epochs();
    for (i, op) in workload.ops.iter().enumerate() {
        match op {
            StoreOp::Get(k) => {
                assert_eq!(store.get(k).unwrap(), shadow.get(k).copied());
            }
            StoreOp::Insert(k, v) => {
                assert_eq!(store.insert(k.clone(), *v).unwrap(), shadow.insert(k.clone(), *v));
            }
            StoreOp::Scan(low, high, limit) => {
                let got = range(&store, low, high, *limit);
                let want: Vec<(Vec<u8>, u64)> = shadow
                    .range(low.clone()..=high.clone())
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                assert_eq!(got, want);
            }
        }
        if i == force_at {
            for s in 0..store.config().shards {
                store.force_rebuild(s).unwrap();
            }
        }
        if (i + 1) % (n_ops / 10).max(1) == 0 {
            let (_, errors) = store.maintain();
            assert!(errors.is_empty(), "{errors:?}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = readers.into_iter().map(|r| r.join().expect("reader failed")).sum();
    assert!(checks > 0, "readers never ran");

    // Every shard flipped its epoch at least once while readers were live.
    let epochs_end = store.epochs();
    assert!(
        epochs_end.iter().zip(&epochs_start).all(|(a, b)| a > b),
        "not every shard swapped: {epochs_start:?} -> {epochs_end:?}"
    );
    // Full post-swap verification.
    assert_eq!(store.len(), shadow.len());
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v));
    }
}

/// Injected rebuild failure, the drift-triggered path: `maintain()`
/// surfaces the [`StoreError::FaultInjected`] error, the old generation
/// keeps serving exact answers, the failure is fully attributable from
/// telemetry (RebuildFailed event, `rebuild_errors` and
/// `injected_rebuild_failures` counters), and the next maintenance pass
/// — attempt 1 at `rebuild_fail_every: 2` — heals the shard.
#[test]
fn injected_rebuild_failure_surfaces_then_heals() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: 1024, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(2_000)).unwrap();
    let mut shadow: BTreeMap<Vec<u8>, u64> = email_pairs(2_000).into_iter().collect();

    // Drift traffic the build sample never saw, then arm the plan: every
    // even-numbered rebuild attempt per shard fails.
    for i in 0..1_000u64 {
        let k = format!("ru.yandex/{i:x}/box{i:05}").into_bytes();
        assert_eq!(store.insert(k.clone(), i).unwrap(), shadow.insert(k, i));
    }
    store.inject_faults(FaultPlan { rebuild_fail_every: 2, ..FaultPlan::default() });

    let epochs_before = store.epochs();
    let (swaps, errors) = store.maintain();
    assert!(swaps.is_empty(), "attempt 0 must fail, not swap: {swaps:?}");
    assert!(!errors.is_empty(), "drift should have forced rebuild attempts");
    for (shard, e) in &errors {
        assert!(
            matches!(e, StoreError::FaultInjected { shard: s, attempt: 0 } if s == shard),
            "unexpected error on shard {shard}: {e}"
        );
    }
    // Old generations keep serving: no epoch moved, every answer exact.
    assert_eq!(store.epochs(), epochs_before);
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v), "wrong answer after failed rebuild");
    }
    // Attribution: the event ring and both counters agree with the
    // errors the driver collected.
    let tel = store.telemetry();
    let failed_events: Vec<_> = tel.events_of(EventKind::RebuildFailed).collect();
    assert_eq!(failed_events.len(), errors.len());
    for ev in &failed_events {
        assert!(errors.iter().any(|(s, _)| *s == ev.shard as usize));
        assert_eq!(ev.epoch, ev.prev_epoch, "a failed rebuild must not install an epoch");
    }
    assert_eq!(tel.counter("store.faults.injected_rebuild_failures"), Some(errors.len() as u64));
    let per_shard_errors: u64 =
        (0..2).map(|s| tel.counter(&format!("store.shard.{s}.rebuild_errors")).unwrap_or(0)).sum();
    assert_eq!(per_shard_errors, errors.len() as u64);

    // The next pass is attempt 1 per still-drifted shard: it heals.
    let (swaps, errors2) = store.maintain();
    assert!(errors2.is_empty(), "heal pass failed: {errors2:?}");
    assert_eq!(swaps.len(), errors.len(), "every failed shard must heal");
    assert!(store.epochs().iter().zip(&epochs_before).any(|(a, b)| a > b));
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v), "wrong answer after heal");
    }
}

/// Injected rebuild failure, the forced path: with `rebuild_fail_every:
/// 1` every `force_rebuild` fails until [`HopeStore::clear_faults`]
/// disarms the plan, and a cleared store rebuilds normally.
#[test]
fn clear_faults_restores_forced_rebuilds() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(500)).unwrap();
    store.inject_faults(FaultPlan { rebuild_fail_every: 1, ..FaultPlan::default() });

    let epochs_before = store.epochs();
    for attempt in 0..3u64 {
        match store.force_rebuild(0) {
            Err(StoreError::FaultInjected { shard: 0, attempt: a }) => assert_eq!(a, attempt),
            other => panic!("attempt {attempt}: {other:?}"),
        }
    }
    assert_eq!(store.epochs(), epochs_before);
    assert_eq!(store.get(b"com.gmail@user000007").unwrap(), Some(7));

    store.clear_faults();
    store.force_rebuild(0).unwrap();
    assert!(store.epochs()[0] > epochs_before[0], "cleared store must rebuild");
    assert_eq!(store.get(b"com.gmail@user000007").unwrap(), Some(7));
    // The three forced failures stay attributed even after the heal.
    let tel = store.telemetry();
    assert_eq!(tel.counter("store.faults.injected_rebuild_failures"), Some(3));
    assert_eq!(tel.events_of(EventKind::RebuildFailed).count(), 3);
}

/// [`ScanSummary::epochs`] under a forced swap landing mid-scan: the
/// cursor pins each shard's generation on *entry*, so the shard already
/// being read stays on its old epoch while shards entered later serve
/// the new ones — and the summary's dedup keeps the list shard-ordered
/// with at most one epoch per shard, never interleaved.
#[test]
fn scan_epochs_stay_shard_ordered_when_a_swap_lands_mid_scan() {
    let shards = 4usize;
    let cfg = StoreConfig { shards, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let n = 2_000u64;
    let store = HopeStore::build(cfg, email_pairs(n)).unwrap();
    // Builds assign epochs 1..=shards in shard order, from the store's
    // own counter — deterministic for this store instance.
    assert_eq!(store.epochs(), vec![1, 2, 3, 4]);

    let mut cur = store.cursor(b"", b"\xff\xff", usize::MAX).unwrap();
    let mut summary = ScanSummary::default();
    let note = |cur: &hope_store::RangeCursor<u64>, summary: &mut ScanSummary| {
        if let Some(e) = cur.hit_epoch() {
            summary.note_epoch(e);
        }
    };
    // Pull deep enough to be mid-way through shard 0, pinning epoch 1.
    for i in 0..10u64 {
        let (k, v) = cur.next_hit().expect("prefix available");
        assert_eq!(*v, i);
        summary.hits += 1;
        summary.key_bytes += k.len() as u64;
        note(&cur, &mut summary);
    }
    // The swap lands mid-scan: every shard steps to a new generation.
    for s in 0..shards {
        store.force_rebuild(s).unwrap();
    }
    assert_eq!(store.epochs(), vec![5, 6, 7, 8]);
    while let Some((k, _)) = cur.next_hit() {
        summary.hits += 1;
        summary.key_bytes += k.len() as u64;
        note(&cur, &mut summary);
    }
    assert!(cur.error().is_none());
    assert_eq!(summary.hits as u64, n, "swap lost or duplicated hits");

    // Shard 0 was entered pre-swap (epoch 1); shards 1..4 post-swap
    // (epochs 6, 7, 8). One epoch per shard, in shard order.
    assert_eq!(summary.epochs, vec![1, 6, 7, 8]);
    assert!(summary.epochs.len() <= shards, "more epochs than shards: torn scan");
    assert!(
        summary.epochs.windows(2).all(|w| w[0] < w[1]),
        "epoch list not shard-ordered: {:?}",
        summary.epochs
    );
    // The dedup itself: consecutive duplicates collapse, non-consecutive
    // repeats (which would mean a scan bounced between generations) stay
    // visible to the harness assertions.
    let mut s = ScanSummary::default();
    for e in [3u64, 3, 3, 7, 7, 3] {
        s.note_epoch(e);
    }
    assert_eq!(s.epochs, vec![3, 7, 3]);
}

/// Distinct source keys the snapshot scripts draw from: small enough
/// that random scripts revisit keys (updates), large enough to span
/// several shards.
const KEYSPACE: u64 = 1500;

fn user_key(i: u64) -> Vec<u8> {
    format!("com.gmail@user{:04}", i % KEYSPACE).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A snapshot answers every point and range read from the shadow map
    /// of the capture instant while a writer thread churns inserts,
    /// updates and forced dictionary rebuilds through the live store:
    /// nothing that lands after the capture is ever visible.
    #[test]
    fn snapshot_matches_shadow_under_concurrent_inserts_and_rebuilds(
        init in vec(any::<u64>(), 50..250),
        ops in vec(any::<u64>(), 1..150),
        shards in 1usize..5,
    ) {
        // The value is the draw's position, so later draws of the same
        // key overwrite.
        let mut shadow = BTreeMap::new();
        for (n, &x) in init.iter().enumerate() {
            shadow.insert(user_key(x), n as u64);
        }
        let cfg = StoreConfig {
            shards,
            reservoir_capacity: 128,
            min_observed_bytes: 512,
            ..StoreConfig::default()
        };
        let pairs = shadow.iter().map(|(k, v)| (k.clone(), *v));
        let store = Arc::new(HopeStore::build(cfg, pairs).unwrap());
        let snap = store.snapshot();

        // A writer thread churns the live store while the main thread
        // reads the snapshot: every op is an insert/update except every
        // 16th draw, which forces a dictionary hot-swap of some shard.
        let writer = {
            let store = Arc::clone(&store);
            let ops = ops.clone();
            std::thread::spawn(move || {
                for (n, &op) in ops.iter().enumerate() {
                    if op % 16 == 0 {
                        store.force_rebuild(op as usize / 16 % store.config().shards).unwrap();
                    } else {
                        store.insert(user_key(op), 1_000_000 + n as u64).unwrap();
                    }
                }
            })
        };
        // Mid-churn point reads: the capture instant, nothing else.
        for (k, v) in &shadow {
            prop_assert_eq!(snap.get(k).unwrap(), Some(*v));
        }
        writer.join().unwrap();

        // Post-churn: the full snapshot range still equals the shadow
        // byte for byte, and keys born after the capture are invisible.
        prop_assert_eq!(snap.len(), shadow.len());
        let mut got = Vec::new();
        snap.range_into(b"a", b"zzzz", usize::MAX, &mut got).unwrap();
        let want: Vec<(Vec<u8>, u64)> = shadow.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(got, want);
        for &op in ops.iter().filter(|&&op| op % 16 != 0) {
            let k = user_key(op);
            prop_assert_eq!(snap.get(&k).unwrap(), shadow.get(&k).copied());
        }
    }
}

/// The serving-harness swap scenario: scans flow through the
/// thread-per-core pipeline while every shard's dictionary is hot-swapped
/// repeatedly underneath it. Two properties must hold:
///
/// 1. **No torn generation** — every scan's [`ScanSummary::epochs`]
///    (hit epochs in shard order, consecutive duplicates collapsed) has
///    at most one entry per shard the range crosses. A swap landing
///    mid-shard would surface as two epochs for one shard.
/// 2. **Tail latency survives the swap** — p99 in the swap phase stays
///    within a generous multiple of the quiet-phase p99 (swaps happen on
///    background rebuilds; readers never block on them).
///
/// [`ScanSummary::epochs`]: hope_store::serving::ScanSummary::epochs
#[test]
fn serving_harness_scans_never_observe_a_torn_generation() {
    let n = if cfg!(debug_assertions) { 4_000u64 } else { 16_000 };
    let scans = if cfg!(debug_assertions) { 600usize } else { 2_400 };
    // Explicit swaps only, so the test controls exactly when they land.
    let cfg = StoreConfig { shards: 4, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let store = Arc::new(HopeStore::build(cfg, email_pairs(n)).unwrap());
    let serving = ServingConfig {
        workers: 4,
        queue_capacity: 4096,
        batch: 32,
        phases: 2,
        virtual_time: false,
        ..ServingConfig::default()
    };
    let server = Server::start(Arc::clone(&store), serving).expect("start");

    // Each scan anchors at a stride-spread key and runs to the top of the
    // keyspace, so most cross several shards (and many cross all four).
    let scan_at = |i: usize| {
        let lo = format!("com.gmail@user{:06}", (i as u64 * 37) % n).into_bytes();
        Request::scan(lo, b"\xff\xff".to_vec(), 96)
    };
    let check_phase = |tickets: Vec<(usize, hope_store::serving::Ticket<u64>)>, phase: &str| {
        for (i, t) in tickets {
            let lo_shard = match scan_at(i) {
                Request::Scan { ref low, .. } => store.shard_of(low),
                _ => unreachable!(),
            };
            let shards_crossed = (store.config().shards - lo_shard) as usize;
            match t.wait() {
                Response::Scan(summary) => {
                    assert!(summary.hits > 0, "{phase} scan {i} found nothing");
                    assert!(!summary.epochs.is_empty());
                    assert!(
                        summary.epochs.len() <= shards_crossed,
                        "{phase} scan {i} tore a generation: {} epochs across \
                         {shards_crossed} shards ({:?})",
                        summary.epochs.len(),
                        summary.epochs,
                    );
                }
                other => panic!("{phase} scan {i}: {other:?}"),
            }
        }
    };

    // Phase 0: quiet baseline.
    let tickets: Vec<_> =
        (0..scans).map(|i| (i, server.submit(scan_at(i), 0).expect("open"))).collect();
    server.flush();
    check_phase(tickets, "baseline");

    // Phase 1: the same scan stream racing continuous full-store swaps.
    let epochs_before = store.epochs();
    let swapping = Arc::new(AtomicBool::new(true));
    let tickets = std::thread::scope(|s| {
        let swapper = {
            let (store, swapping) = (Arc::clone(&store), Arc::clone(&swapping));
            s.spawn(move || {
                // At least two full rounds even if the scan stream
                // drains first — every shard must swap twice under load.
                let mut swaps = 0u64;
                let mut rounds = 0u32;
                while rounds < 2 || swapping.load(Ordering::Relaxed) {
                    for shard in 0..store.config().shards {
                        store.force_rebuild(shard).expect("rebuild");
                        swaps += 1;
                    }
                    rounds += 1;
                }
                swaps
            })
        };
        let tickets: Vec<_> =
            (0..scans).map(|i| (i, server.submit(scan_at(i), 1).expect("open"))).collect();
        server.flush();
        swapping.store(false, Ordering::Relaxed);
        let swaps = swapper.join().expect("swapper");
        assert!(swaps >= 2 * store.config().shards as u64, "too few swaps to stress: {swaps}");
        tickets
    });
    assert!(
        store.epochs().iter().zip(&epochs_before).all(|(a, b)| a > b),
        "every shard must have swapped during phase 1"
    );
    check_phase(tickets, "swap");

    let report = server.shutdown();
    assert_eq!(report.phases[0].scans, scans as u64);
    assert_eq!(report.phases[1].scans, scans as u64);
    assert_eq!(report.phases[0].errors + report.phases[1].errors, 0);
    // Tail-latency gate: generous (this is correctness CI, not a perf
    // rig), but a reader blocking on a rebuild would blow far past it.
    let p99_quiet = report.phases[0].latency.quantile_ns(0.99).max(1);
    let p99_swap = report.phases[1].latency.quantile_ns(0.99);
    let ratio = p99_swap as f64 / p99_quiet as f64;
    assert!(
        ratio <= 50.0,
        "p99 collapsed during the swap: {p99_quiet}ns quiet vs {p99_swap}ns swapping ({ratio:.1}x)"
    );
}

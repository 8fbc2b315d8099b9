//! The store's dictionary policy, as properties: one dictionary per store
//! at build, **kept** — the same object, no training, no encode call —
//! by every rebuild of a shard that has not drifted, and **replaced**
//! whole, for that shard alone, by the rebuild of one that has.
//!
//! Run over every tree backend × one scheme per dictionary structure
//! (array, bitmap trie, ART).

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{zero_padded, ZERO_STEMS};
use hope::Scheme;
use hope_store::{Backend, HopeStore, StoreConfig, SwapReport};
use hope_workloads::{generate, Dataset};

const BACKENDS: [Backend; 4] = [Backend::BTree, Backend::PrefixBTree, Backend::Art, Backend::Hot];
const SCHEMES: [Scheme; 3] = [Scheme::DoubleChar, Scheme::ThreeGrams, Scheme::AlmImproved];

fn each_combination(mut f: impl FnMut(StoreConfig, &str)) {
    for backend in BACKENDS {
        for scheme in SCHEMES {
            let cfg = StoreConfig {
                backend,
                scheme,
                dict_entries: 2048,
                reservoir_capacity: 512,
                ..StoreConfig::default()
            };
            f(cfg, &format!("{backend:?}/{scheme}"));
        }
    }
}

fn email_pairs(n: u64) -> Vec<(Vec<u8>, u64)> {
    (0..n).map(|i| (format!("com.gmail@user{i:05}").into_bytes(), i)).collect()
}

/// The address of shard `s`'s compressor: generations that share a
/// dictionary report the same one.
fn hope_of(store: &HopeStore<u64>, s: usize) -> *const hope::Hope {
    store.generation(s).unwrap().hope()
}

fn codec_encode_keys(store: &HopeStore<u64>) -> u64 {
    store.telemetry().gauge("store.codec.encode_keys").unwrap()
}

/// Σ encoded length of shard `s`'s live keys under its current dictionary.
fn live_encoded_bytes(store: &HopeStore<u64>, model: &BTreeMap<Vec<u8>, u64>, s: usize) -> u64 {
    let hope_gen = store.generation(s).unwrap();
    model
        .keys()
        .filter(|k| store.shard_of(k) == s)
        .map(|k| hope_gen.hope().encode(k).as_bytes().len() as u64)
        .sum()
}

fn assert_equals_model(store: &HopeStore<u64>, model: &BTreeMap<Vec<u8>, u64>, what: &str) {
    let mut scanned = Vec::new();
    store.range_into(b"", &[0xFF; 4], usize::MAX, &mut scanned).unwrap();
    let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(scanned, want, "{what}: full-range scan");
    for (k, v) in model {
        assert_eq!(store.get(k).unwrap(), Some(*v), "{what}: {k:?}");
    }
}

/// Keys of `keys` that share their encoded padded bytes with another in
/// the same shard under the store's current dictionaries — always 0.
fn tied_keys<'a>(store: &HopeStore<u64>, keys: impl Iterator<Item = &'a Vec<u8>>) -> usize {
    let mut groups: BTreeMap<(usize, Vec<u8>), usize> = BTreeMap::new();
    for k in keys {
        let shard = store.shard_of(k);
        let enc = store.generation(shard).unwrap().hope().encode(k);
        *groups.entry((shard, enc.as_bytes().to_vec())).or_default() += 1;
    }
    groups.values().filter(|&&n| n > 1).sum()
}

/// A swap that kept the dictionary: nothing re-encoded.
fn assert_kept(r: &SwapReport, what: &str) {
    assert!(r.incremental, "{what}: {r:?}");
    assert_eq!(r.reencoded_bytes, 0, "{what}: {r:?}");
    assert_eq!(r.new_baseline_cpr, r.old_baseline_cpr, "{what}: {r:?}");
    assert!(r.new_epoch > r.old_epoch, "{what}: {r:?}");
}

#[test]
fn a_fresh_store_holds_one_dictionary() {
    each_combination(|cfg, what| {
        let store = HopeStore::build(cfg, email_pairs(1_200)).unwrap();
        for s in 1..cfg.shards {
            assert_eq!(hope_of(&store, s), hope_of(&store, 0), "{what}: shard {s}");
        }
        // Attributed once, so the column sums to what the store holds.
        let stats = store.stats();
        let held = store.generation(0).unwrap().hope().memory_bytes();
        assert_eq!(stats.iter().map(|s| s.dict_bytes).sum::<usize>(), held, "{what}");
        assert_eq!(stats[0].dict_bytes, held, "{what}: the lowest-numbered holder reports it");
        let tel = store.telemetry();
        let gauges: u64 = (0..cfg.shards)
            .map(|s| tel.gauge(&format!("store.shard.{s}.dict_bytes")).unwrap())
            .sum();
        assert_eq!(gauges, held as u64, "{what}");
    });
}

#[test]
fn shared_dictionary_counts_every_encode_once() {
    let store = HopeStore::build(StoreConfig::default(), email_pairs(2_000)).unwrap();
    let loaded = codec_encode_keys(&store);
    for i in 0..1_000u64 {
        assert_eq!(
            store.get(format!("com.gmail@user{:05}", i * 2).as_bytes()).unwrap(),
            Some(i * 2)
        );
    }
    // Point encodes flush their count every 64 keys per thread.
    let counted = codec_encode_keys(&store) - loaded;
    assert!((1_000 - 64..=1_000).contains(&counted), "1000 gets counted as {counted}");
    // Keeping a dictionary encodes nothing and retires nothing.
    let before = codec_encode_keys(&store);
    for s in 0..store.config().shards {
        assert_kept(&store.force_rebuild(s).unwrap(), "quiescent");
    }
    assert_eq!(codec_encode_keys(&store), before);
}

/// A scan encodes one key per generation it enters — its low bound, as
/// far as the index needs — not a bound pair: the high bound and a
/// cursor's resume key are compared as source keys.
#[test]
fn a_scan_encodes_one_key_per_generation_it_enters() {
    each_combination(|cfg, what| {
        let store = HopeStore::build(cfg, email_pairs(1_200)).unwrap();
        let (low, high) = (b"com.gmail@user00100", b"com.gmail@user00110");
        assert_eq!(store.shard_of(low), store.shard_of(high), "{what}");
        // A thread's encodes are counted 64 at a time, so a fresh thread's
        // 64 single-shard scans show exactly when they encode one key
        // each: two each would read 128.
        let before = codec_encode_keys(&store);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..64 {
                    assert_eq!(store.range_with(low, high, 100, |_, _| ()).unwrap(), 11);
                }
            });
        });
        assert_eq!(codec_encode_keys(&store) - before, 64, "{what}");
    });
}

/// Hits a pulled cursor fetches per chunk (the cursor's `CHUNK`).
const CURSOR_CHUNK: usize = 256;

/// A scan that crosses shards encodes only in its first one: every key
/// of a later shard lies above the low bound (the split points are
/// fixed), so the walk there starts at the shard's first key. A pulled
/// cursor also encodes its resume key for each chunk that continues
/// inside a shard — and nothing for a chunk that opens one.
#[test]
fn a_scan_encodes_only_in_its_first_shard_and_where_a_chunk_resumes() {
    each_combination(|cfg, what| {
        let store = HopeStore::build(cfg, email_pairs(2_000)).unwrap();
        let (low, high) = (b"com.gmail@user", b"com.gmail@user99999");
        let last = store.shard_of(high);
        assert_eq!((store.shard_of(low), last), (0, 3), "{what}: the range spans every shard");
        // Hits per shard, and what a pulled scan encodes: its low bound,
        // then one resume key per full chunk (the chunk after it goes on
        // in the same shard).
        let mut per_shard = vec![0usize; last + 1];
        let hits =
            store.range_with(low, high, usize::MAX, |k, _| per_shard[store.shard_of(k)] += 1);
        assert_eq!(hits.unwrap(), 2_000, "{what}");
        let pulled: usize = 1 + per_shard.iter().map(|h| h / CURSOR_CHUNK).sum::<usize>();
        assert!(pulled > 1, "{what}: some chunk resumes inside a shard: {per_shard:?}");
        // A thread's encodes are counted 64 at a time: 64 scans on a fresh
        // thread show exactly what one scan encodes.
        let encoded_by_64 = |scan: &(dyn Fn() + Sync)| {
            let before = codec_encode_keys(&store);
            std::thread::scope(|s| {
                s.spawn(|| (0..64).for_each(|_| scan()));
            });
            codec_encode_keys(&store) - before
        };
        let pushed = encoded_by_64(&|| {
            assert_eq!(store.range_with(low, high, usize::MAX, |_, _| ()).unwrap(), 2_000);
        });
        assert_eq!(pushed, 64, "{what}: a push scan encodes once, whatever it crosses");
        let pulled_by_64 = encoded_by_64(&|| {
            let mut cursor = store.cursor(low, high, usize::MAX).unwrap();
            let mut n = 0;
            while cursor.next_hit().is_some() {
                n += 1;
            }
            assert_eq!(n, 2_000);
        });
        assert_eq!(pulled_by_64, 64 * pulled as u64, "{what}: per shard {per_shard:?}");
    });
}

#[test]
fn an_undrifted_rebuild_keeps_the_dictionary_and_encodes_nothing() {
    // `store_model`'s `stem + 0x00^k` families on its 0x00-dominated load:
    // under a dictionary trained on 0x00 runs, members of one stem differ
    // only by repeats of the shortest, smallest code there is.
    let mut loaded: Vec<Vec<u8>> = (1..=40).map(|n| zero_padded(b"", n)).collect();
    let mut fresh: Vec<Vec<u8>> = Vec::new();
    for stem in ZERO_STEMS {
        for zeros in 0..12 {
            if zeros % 2 == 1 { &mut loaded } else { &mut fresh }.push(zero_padded(stem, zeros));
        }
    }
    each_combination(|cfg, what| {
        // Never drifted: this test is about the keep path alone.
        let cfg = StoreConfig { shards: 2, min_observed_bytes: u64::MAX, ..cfg };
        let pairs = loaded.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
        let store = Arc::new(HopeStore::build(cfg, pairs.clone()).unwrap());
        let mut model: BTreeMap<Vec<u8>, u64> = pairs.collect();
        let dictionary = hope_of(&store, 0);

        let snap = store.snapshot();
        let frozen = model.clone();

        // Writes and updates from a second thread while this one rebuilds:
        // whatever lands between a rebuild's snapshot and its splice must
        // be replayed into the new generation.
        let writing = Arc::new(AtomicBool::new(true));
        let writer = {
            let (store, writing, fresh, loaded) =
                (Arc::clone(&store), Arc::clone(&writing), fresh.clone(), loaded.clone());
            std::thread::spawn(move || {
                let mut written: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
                let mut round = 0u64;
                while round < 3 || writing.load(Ordering::Relaxed) {
                    round += 1;
                    for (i, k) in fresh.iter().rev().chain(loaded.iter().step_by(3)).enumerate() {
                        let v = round * 1_000 + i as u64;
                        store.insert(k.clone(), v).unwrap();
                        written.insert(k.clone(), v);
                    }
                }
                written
            })
        };
        for round in 0..6 {
            let r = store.force_rebuild(round % 2).unwrap();
            assert_kept(&r, what);
            assert_eq!(hope_of(&store, round % 2), dictionary, "{what}: rebuild {round}");
        }
        writing.store(false, Ordering::Relaxed);
        model.extend(writer.join().expect("writer"));
        assert_equals_model(&store, &model, what);
        assert_eq!(tied_keys(&store, model.keys()), 0, "{what}: padded bytes must be unique");

        // Quiescent now: the byte accounting and the counters are exact.
        let encoded_before = store.generation(0).unwrap().hope().codec_stats().encode_keys;
        let reports: Vec<SwapReport> = (0..2).map(|s| store.force_rebuild(s).unwrap()).collect();
        assert_eq!(
            store.generation(0).unwrap().hope().codec_stats().encode_keys,
            encoded_before,
            "{what}: a kept dictionary must not be asked to encode"
        );
        for (s, r) in reports.iter().enumerate() {
            assert_kept(r, what);
            assert_eq!(r.replayed, 0, "{what}");
            assert_eq!(hope_of(&store, s), dictionary, "{what}: shard {s}");
            assert_eq!(r.reused_bytes, live_encoded_bytes(&store, &model, s), "{what}: shard {s}");
            assert_eq!(r.live_keys, model.keys().filter(|k| store.shard_of(k) == s).count());
        }
        assert_equals_model(&store, &model, what);

        // The snapshot still reads its capture instant.
        let mut got = Vec::new();
        snap.range_into(b"", &[0xFF; 4], usize::MAX, &mut got).unwrap();
        let want: Vec<(Vec<u8>, u64)> = frozen.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(got, want, "{what}: snapshot moved");
        for k in &fresh {
            assert_eq!(snap.get(k).unwrap(), None, "{what}: {k:?} postdates the snapshot");
        }
    });
}

#[test]
fn a_drifted_shard_replaces_its_dictionary_and_nobody_elses() {
    each_combination(|cfg, what| {
        let cfg = StoreConfig { min_observed_bytes: 1024, ..cfg };
        let store = HopeStore::build(cfg, email_pairs(1_200)).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = email_pairs(1_200).into_iter().collect();
        let original = hope_of(&store, 0);
        let counted_before = codec_encode_keys(&store);

        // Traffic the dictionary never saw, all of it above the top split
        // point: only the last shard drifts.
        let last = cfg.shards - 1;
        for i in 0..400u64 {
            let k = format!("zz#{i:)>6}!!XQ|{:x}", i * 2_654_435_761).into_bytes();
            assert_eq!(store.shard_of(&k), last);
            assert_eq!(store.insert(k.clone(), i).unwrap(), model.insert(k, i));
        }
        let (swaps, errors) = store.maintain();
        let counted = codec_encode_keys(&store) - counted_before;
        assert!(errors.is_empty(), "{what}: {errors:?}");
        assert_eq!(swaps.len(), 1, "{what}: {swaps:?}");
        let r = &swaps[0];
        assert_eq!(r.shard, last, "{what}");
        assert!(!r.incremental, "{what}: {r:?}");
        assert_eq!(r.reused_bytes, 0, "{what}: {r:?}");
        assert_eq!(r.reencoded_bytes, live_encoded_bytes(&store, &model, last), "{what}");

        assert_ne!(hope_of(&store, last), original, "{what}: the drifted shard got its own");
        for s in 0..last {
            assert_eq!(hope_of(&store, s), original, "{what}: shard {s} still shares");
        }
        // Both dictionaries are now held, each reported once.
        let held = store.generation(0).unwrap().hope().memory_bytes()
            + store.generation(last).unwrap().hope().memory_bytes();
        assert_eq!(store.stats().iter().map(|s| s.dict_bytes).sum::<usize>(), held, "{what}");
        // The original dictionary lives on in the other shards, so its
        // counters (the whole bulk load) must not be counted a second
        // time as retired: since the build the store encoded the 400
        // inserts, the withheld part of one training sample, and each
        // live key of the replaced shard once.
        let bound = 400 + (r.live_keys + cfg.reservoir_capacity) as u64;
        assert!(counted <= bound, "{what}: {counted} encodes counted, at most {bound} happened");
        assert_equals_model(&store, &model, what);

        // The replacement's statistics start over: nothing left to do.
        let (swaps, errors) = store.maintain();
        assert!(swaps.is_empty() && errors.is_empty(), "{what}: {swaps:?}");
    });
}

/// The baseline a dictionary is judged against is measured on keys it
/// was not trained on. ALM-Improved fits its own sample ~10 % better than
/// the population the sample came from — right at the default
/// `degrade_ratio` — so an in-sample baseline calls stable traffic drift.
#[test]
fn same_population_traffic_is_not_drift() {
    let keys = generate(Dataset::Url, 22_000, 7);
    let (load, traffic) = keys.split_at(20_000);
    let cfg = StoreConfig { scheme: Scheme::AlmImproved, ..StoreConfig::default() };
    let pairs = load.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = HopeStore::build(cfg, pairs).unwrap();
    for (i, k) in traffic.iter().enumerate() {
        store.insert(k.clone(), i as u64).unwrap();
    }
    for s in store.stats() {
        let observed = s.observed_cpr.expect("every shard saw inserts");
        let ratio = observed / s.baseline_cpr;
        assert!(
            ratio >= 0.95,
            "shard {}: observed {observed:.3} / baseline {:.3}",
            s.shard,
            s.baseline_cpr
        );
    }
    let (swaps, errors) = store.maintain();
    assert!(swaps.is_empty() && errors.is_empty(), "stable traffic swapped: {swaps:?}");
}

//! Every [`hope::OrderedIndex`] the workspace ships — the `BTreeMap`
//! reference, both B+trees (plain and prefix), HOT and ART — against a
//! `BTreeMap` model, over random programs: a bulk load (`load_sorted`)
//! into the empty index or into a full one, inserts, bursts of inserts,
//! updates, point reads, and walks (`visit`) with and without an upper
//! bound, stopped early or run out. Every read is checked.
//!
//! The keys are drawn to break a node's packed keys: bytes from a hostile
//! alphabet (`0x00`, `0x01`, `a`, `0xfe`, `0xff`) and random bytes; keys
//! whose 8-byte B+tree heads tie (`a`, `a\0`, `a\0…\0\x01`, and keys
//! sharing an 8-byte run past a common stem) or whose 4-byte HOT leaf
//! heads tie (a 4-byte run past another stem); prefix chains; the empty
//! key; and a few keys of 64 KiB and more, so a node's byte offsets
//! overflow a `u16`. One program in four loads hundreds of keys under one
//! long stem, with a few prefixes of the stem, and then inserts keys that
//! leave it at every depth, which makes a compound node of HOT drop bytes
//! of its skipped prefix; bursts of inserts under that stem split loaded
//! leaves and compound nodes.
//!
//! The vendored proptest shim does not shrink, so each program draws from
//! its own seed, and a failure names the index, the seed and the op index.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use hope::OrderedIndex;
use hope_art::Art;
use hope_btree::BPlusTree;
use hope_hot::Hot;

/// Programs per index, and ops per program.
const PROGRAMS: u64 = 48;
const OPS: usize = 500;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const HOSTILE: [u8; 5] = [0x00, 0x01, b'a', 0xfe, 0xff];

/// A stem that runs of 8 shared bytes follow.
const STEM: &[u8] = b"\x01stem";

/// A stem that runs of 4 shared bytes follow.
const STEM4: &[u8] = b"\x01hot";

/// The long stem a quarter of the programs load under.
const LONG_STEM: &[u8] = b"\x01long/shared/stem/of/a/loaded/trie/";

/// A few hostile bytes.
fn hostile_tail(rng: &mut Rng, most: usize) -> impl Iterator<Item = u8> + '_ {
    (0..rng.below(most + 1)).map(|_| HOSTILE[rng.below(HOSTILE.len())])
}

/// A key under [`LONG_STEM`]: a hostile byte or two and a counter, so
/// loads of hundreds of them are mostly distinct.
fn long_stem_key(rng: &mut Rng) -> Vec<u8> {
    let mut k = LONG_STEM.to_vec();
    k.extend(hostile_tail(rng, 2));
    k.extend_from_slice(format!("{:04}", rng.below(10_000)).as_bytes());
    k
}

/// One key from the families above.
fn key(rng: &mut Rng) -> Vec<u8> {
    match rng.below(100) {
        0..=3 => Vec::new(),
        4..=27 => hostile_tail(rng, 11).collect(),
        28..=39 => (0..rng.below(20)).map(|_| rng.next() as u8).collect(),
        // Heads tie in zero padding: `a`, `a\0`, `a\0\0`, …, `a\0…\0\x01`.
        40..=51 => {
            let mut k = vec![b'a'];
            k.resize(1 + rng.below(12), 0);
            if rng.below(2) == 0 {
                k.push(0x01);
            }
            k
        }
        // 8-byte heads tie past the stem: one of two 8-byte runs, then a
        // tail.
        52..=65 => {
            let run = if rng.below(2) == 0 { [b'r'; 8] } else { [0xff; 8] };
            let tail: Vec<u8> = hostile_tail(rng, 3).collect();
            STEM.iter().copied().chain(run).chain(tail).collect()
        }
        // 4-byte heads tie past the stem: one 4-byte run, then a tail.
        66..=77 => {
            let tail: Vec<u8> = hostile_tail(rng, 4).collect();
            STEM4.iter().copied().chain([b'r'; 4]).chain(tail).collect()
        }
        // Under the long stem, or leaving it at some depth.
        78..=87 => {
            if rng.below(2) == 0 {
                long_stem_key(rng)
            } else {
                let mut k = LONG_STEM[..rng.below(LONG_STEM.len())].to_vec();
                k.extend(hostile_tail(rng, 3));
                k
            }
        }
        // A prefix chain.
        88..=98 => b"\x00a\xffchain\x00\x00a\x01\xfe"[..rng.below(14)].to_vec(),
        // 64 KiB and more; four of them differ only at their far end.
        _ => {
            let mut k = vec![0x61; 65_536 + rng.below(64)];
            k.push(HOSTILE[rng.below(4)]);
            k
        }
    }
}

/// What the model says `visit(low, high)` yields, up to `limit` pairs.
fn expected(
    model: &BTreeMap<Vec<u8>, u64>,
    low: &[u8],
    high: Option<&[u8]>,
    limit: usize,
) -> Vec<(Vec<u8>, u64)> {
    model
        .range::<[u8], _>((Included(low), Unbounded))
        .take_while(|(k, _)| high.is_none_or(|h| k.as_slice() <= h))
        .take(limit)
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The walk `visit(low, high)`, told to stop with its `limit`-th pair.
fn walk(
    ix: &dyn OrderedIndex,
    low: &[u8],
    high: Option<&[u8]>,
    limit: usize,
) -> Vec<(Vec<u8>, u64)> {
    let mut seen = Vec::new();
    if limit == 0 {
        return seen;
    }
    ix.visit(low, high, &mut |k, v| {
        assert!(seen.len() < limit, "visited {k:?} after the callback returned false");
        seen.push((k.to_vec(), *v));
        seen.len() < limit
    });
    seen
}

/// A short name for a key in a failure message (64 KiB keys are not
/// printed whole).
fn show(k: &[u8]) -> String {
    if k.len() <= 48 {
        format!("{k:?}")
    } else {
        format!("{:?}…({} B)", &k[..16], k.len())
    }
}

/// Insert `k` into both, checking the displaced value.
fn insert(
    ix: &mut dyn OrderedIndex,
    model: &mut BTreeMap<Vec<u8>, u64>,
    k: Vec<u8>,
    v: u64,
    at: &str,
) {
    assert_eq!(ix.insert(&k, v), model.insert(k.clone(), v), "{at}: insert {}", show(&k));
}

/// Run program `seed` on `ix`, checking every read against the model.
fn run(name: &str, ix: &mut dyn OrderedIndex, seed: u64) {
    let mut rng = Rng(seed);
    let mut model = BTreeMap::new();
    let mut value = 0u64;
    for op in 0..OPS {
        let at = format!("{name}: seed {seed}, op {op}");
        value += 1;
        // Even programs start with a bulk load into the empty index, half
        // of them under the long stem; odd ones grow by inserts, with a
        // load into the full index (an insert per pair) now and then in
        // both.
        let kind = if op == 0 && seed.is_multiple_of(2) { 0 } else { rng.below(20) };
        match kind {
            0 if op == 0 || rng.below(8) == 0 => {
                let run: BTreeMap<Vec<u8>, u64> = if op == 0 && seed % 4 == 2 {
                    // A few prefixes of the stem too: the first leaf then
                    // starts with a key shorter than the deeper nodes'
                    // skipped prefixes.
                    let mut keys: Vec<Vec<u8>> = (0..1 + rng.below(3))
                        .map(|_| LONG_STEM[..rng.below(LONG_STEM.len())].to_vec())
                        .collect();
                    keys.extend((0..300 + rng.below(400)).map(|_| long_stem_key(&mut rng)));
                    keys.into_iter().zip(0..).map(|(k, i)| (k, value * 1000 + i)).collect()
                } else {
                    (0..rng.below(300)).map(|i| (key(&mut rng), value * 1000 + i as u64)).collect()
                };
                ix.load_sorted(&mut run.iter().map(|(k, v)| (k.as_slice(), *v)));
                model.extend(run);
                assert_eq!(ix.len(), model.len(), "{at}: len after a load");
            }
            0..=7 => insert(ix, &mut model, key(&mut rng), value, &at),
            // A burst of inserts under the long stem: splits leaves and
            // compound nodes.
            8 => {
                for i in 0..rng.below(80) {
                    let k = long_stem_key(&mut rng);
                    insert(ix, &mut model, k, value * 1000 + i as u64, &format!("{at}.{i}"));
                }
            }
            // An update of a stored key.
            9..=10 if !model.is_empty() => {
                let k = model.keys().nth(rng.below(model.len())).unwrap().clone();
                insert(ix, &mut model, k, value, &at);
            }
            9..=14 => {
                let k = if rng.below(2) == 0 && !model.is_empty() {
                    model.keys().nth(rng.below(model.len())).unwrap().clone()
                } else {
                    key(&mut rng)
                };
                assert_eq!(ix.get(&k), model.get(&k), "{at}: get {}", show(&k));
            }
            _ => {
                let low = key(&mut rng);
                let high = (rng.below(3) != 0).then(|| key(&mut rng));
                let limit = [0, 1, 2, 5, 17, 40, usize::MAX][rng.below(7)];
                assert_eq!(
                    walk(ix, &low, high.as_deref(), limit),
                    expected(&model, &low, high.as_deref(), limit),
                    "{at}: visit {}..={:?} limit {limit}",
                    show(&low),
                    high.as_deref().map(show)
                );
            }
        }
    }
    assert_eq!(ix.len(), model.len(), "{name}: seed {seed}: len");
    assert_eq!(
        walk(ix, b"", None, usize::MAX),
        expected(&model, b"", None, usize::MAX),
        "{name}: seed {seed}: the whole walk"
    );
}

#[test]
fn b_plus_trees_answer_like_a_btreemap() {
    let mut tallest = [0; 2];
    for seed in 0..PROGRAMS {
        let grown = &mut tallest[seed as usize % 2];
        for (name, mut tree) in [("plain", BPlusTree::plain()), ("prefix", BPlusTree::prefix())] {
            run(name, &mut tree, seed);
            *grown = (*grown).max(tree.height());
        }
    }
    // Loaded trees and insert-built ones both reached a third level: leaf
    // and inner splits ran.
    assert!(tallest.iter().all(|&h| h >= 3), "tallest loaded / insert-built: {tallest:?}");
}

#[test]
fn hot_answers_like_a_btreemap() {
    let mut tallest = [0; 2];
    for seed in 0..PROGRAMS {
        let mut hot = Hot::new();
        run("hot", &mut hot, seed);
        let grown = &mut tallest[seed as usize % 2];
        *grown = (*grown).max(hot.height());
    }
    // Compound nodes split over loaded leaves and over insert-built ones.
    assert!(tallest.iter().all(|&h| h >= 3), "tallest loaded / insert-built: {tallest:?}");
}

#[test]
fn art_and_the_reference_answer_like_a_btreemap() {
    for seed in 0..PROGRAMS {
        run("art", &mut Art::new(), seed);
        run("btreemap", &mut BTreeMap::<Vec<u8>, u64>::new(), seed);
    }
}

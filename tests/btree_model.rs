//! Both B+trees (plain and prefix) against a `BTreeMap` model, over random
//! programs: a bulk load (`load_sorted`) into the empty tree or into a full
//! one, inserts, updates, point reads, and walks (`visit`) with and without
//! an upper bound, stopped early or run out. Every read is checked.
//!
//! The keys are drawn to break a node's key block: bytes from a hostile
//! alphabet (`0x00`, `0x01`, `a`, `0xfe`, `0xff`) and random bytes; keys
//! whose 8-byte heads tie (`a`, `a\0`, `a\0…\0\x01`, and keys sharing an
//! 8-byte run past a common stem); prefix chains; the empty key; and a few
//! keys of 64 KiB and more, so a node's byte offsets overflow a `u16`.
//!
//! The vendored proptest shim does not shrink, so each program draws from
//! its own seed, and a failure names the seed and the op index.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use hope::OrderedIndex;
use hope_btree::BPlusTree;

/// Programs per tree, and ops per program.
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

/// One key from the families above.
fn key(rng: &mut Rng) -> Vec<u8> {
    match rng.below(100) {
        0..=4 => Vec::new(),
        5..=34 => (0..rng.below(12)).map(|_| HOSTILE[rng.below(HOSTILE.len())]).collect(),
        35..=49 => (0..rng.below(20)).map(|_| rng.next() as u8).collect(),
        // Heads tie in zero padding: `a`, `a\0`, `a\0\0`, …, `a\0…\0\x01`.
        50..=64 => {
            let mut k = vec![b'a'];
            k.resize(1 + rng.below(12), 0);
            if rng.below(2) == 0 {
                k.push(0x01);
            }
            k
        }
        // Heads tie past the stem: one of two 8-byte runs, then a tail.
        65..=84 => {
            let run = if rng.below(2) == 0 { [b'r'; 8] } else { [0xff; 8] };
            let tail = (0..rng.below(4)).map(|_| HOSTILE[rng.below(HOSTILE.len())]);
            STEM.iter().copied().chain(run).chain(tail).collect()
        }
        // A prefix chain.
        85..=98 => b"\x00a\xffchain\x00\x00a\x01\xfe"[..rng.below(14)].to_vec(),
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
fn walk(t: &BPlusTree, low: &[u8], high: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, u64)> {
    let mut seen = Vec::new();
    if limit == 0 {
        return seen;
    }
    t.visit(low, high, &mut |k, v| {
        assert!(seen.len() < limit, "visited {k:?} after the callback returned false");
        seen.push((k.to_vec(), *v));
        seen.len() < limit
    });
    seen
}

/// A short name for a key in a failure message (64 KiB keys are not
/// printed whole).
fn show(k: &[u8]) -> String {
    if k.len() <= 32 {
        format!("{k:?}")
    } else {
        format!("{:?}…({} B)", &k[..16], k.len())
    }
}

/// Run program `seed` on `tree`, checking every read against the model;
/// returns the height the tree ends at.
fn run(name: &str, mut tree: BPlusTree, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let mut model = BTreeMap::new();
    let mut value = 0u64;
    for op in 0..OPS {
        let at = format!("{name}: seed {seed}, op {op}");
        value += 1;
        // Even programs start with a bulk load into the empty tree; odd ones
        // grow by inserts, with a load into the full tree (an insert per
        // pair) now and then in both.
        let kind = if op == 0 && seed % 2 == 0 { 0 } else { rng.below(20) };
        match kind {
            0 if op == 0 || rng.below(8) == 0 => {
                let run: BTreeMap<Vec<u8>, u64> =
                    (0..rng.below(300)).map(|i| (key(&mut rng), value * 1000 + i as u64)).collect();
                tree.load_sorted(&mut run.iter().map(|(k, v)| (k.as_slice(), *v)));
                model.extend(run);
                assert_eq!(tree.len(), model.len(), "{at}: len after a load");
            }
            0..=8 => {
                let k = key(&mut rng);
                assert_eq!(
                    tree.insert(&k, value),
                    model.insert(k.clone(), value),
                    "{at}: insert {}",
                    show(&k)
                );
            }
            // An update of a stored key.
            9..=10 if !model.is_empty() => {
                let k = model.keys().nth(rng.below(model.len())).unwrap().clone();
                assert_eq!(
                    tree.insert(&k, value),
                    model.insert(k.clone(), value),
                    "{at}: update {}",
                    show(&k)
                );
            }
            9..=14 => {
                let k = if rng.below(2) == 0 && !model.is_empty() {
                    model.keys().nth(rng.below(model.len())).unwrap().clone()
                } else {
                    key(&mut rng)
                };
                assert_eq!(tree.get(&k), model.get(&k).copied(), "{at}: get {}", show(&k));
            }
            _ => {
                let low = key(&mut rng);
                let high = (rng.below(3) != 0).then(|| key(&mut rng));
                let limit = [0, 1, 2, 5, 17, 40, usize::MAX][rng.below(7)];
                assert_eq!(
                    walk(&tree, &low, high.as_deref(), limit),
                    expected(&model, &low, high.as_deref(), limit),
                    "{at}: visit {}..={:?} limit {limit}",
                    show(&low),
                    high.as_deref().map(show)
                );
            }
        }
    }
    assert_eq!(tree.len(), model.len(), "{name}: seed {seed}: len");
    assert_eq!(
        walk(&tree, b"", None, usize::MAX),
        expected(&model, b"", None, usize::MAX),
        "{name}: seed {seed}: the whole walk"
    );
    tree.height()
}

#[test]
fn b_plus_trees_answer_like_a_btreemap() {
    let mut tallest = [0; 2];
    for seed in 0..PROGRAMS {
        let grown = &mut tallest[seed as usize % 2];
        *grown = (*grown).max(run("plain", BPlusTree::plain(), seed));
        *grown = (*grown).max(run("prefix", BPlusTree::prefix(), seed));
    }
    // Loaded trees and insert-built ones both reached a third level: leaf
    // and inner splits ran.
    assert!(tallest.iter().all(|&h| h >= 3), "tallest loaded / insert-built: {tallest:?}");
}

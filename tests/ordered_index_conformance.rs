//! [`hope::OrderedIndex`] conformance, run over every implementation the
//! workspace ships, against a `BTreeMap` model. The trait's one scan
//! primitive is `visit`, an open walk from a low bound; the store scans
//! through it (stopped early by its callback) and rebuilds shards from
//! its walk from the empty key (`for_each`), and `range_into` bounds it
//! at a high key, so a walker that drops, reorders or truncates a key
//! corrupts a scan or the next generation — prefix chains, the empty key and 0x00 / 0xFF runs
//! are the inputs most likely to expose one. The same holds for the bulk
//! loader (`load_sorted`, native in the B+trees and HOT): every generation
//! is built by it, so a loaded index must answer as the insert-built one
//! does — right after the load and after the inserts that split its
//! packed nodes.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use hope::OrderedIndex;
use hope_art::Art;
use hope_btree::BPlusTree;
use hope_hot::Hot;

type Pairs = Vec<(Vec<u8>, u64)>;

/// Up to `stop_after` pairs of `visit(low)`; the walk is told to stop
/// with the `stop_after`-th pair and must not call back after that.
fn visit(ix: &dyn OrderedIndex, low: &[u8], stop_after: usize) -> Pairs {
    let mut seen = Pairs::new();
    let mut stopped = false;
    ix.visit(low, &mut |k, v| {
        assert!(!stopped, "visited {k:?} after the callback returned false");
        seen.push((k.to_vec(), *v));
        stopped = seen.len() >= stop_after;
        !stopped
    });
    seen
}

/// The values of up to `limit` keys in `low..=high`, by `range_into`.
fn range(ix: &dyn OrderedIndex, low: &[u8], high: &[u8], limit: usize) -> Vec<u64> {
    let mut out = Vec::new();
    ix.range_into(low, high, limit, &mut out);
    out
}

fn values(pairs: &[(Vec<u8>, u64)]) -> Vec<u64> {
    pairs.iter().map(|(_, v)| *v).collect()
}

fn collect(ix: &dyn OrderedIndex) -> Pairs {
    let mut seen = Vec::new();
    ix.for_each(&mut |k, v| seen.push((k.to_vec(), *v)));
    seen
}

/// What the model says `low..=high` holds (`BTreeMap::range` panics on
/// inverted bounds, so the upper bound is a filter).
fn expected(model: &BTreeMap<Vec<u8>, u64>, low: &[u8], high: Option<&[u8]>) -> Pairs {
    model
        .range::<[u8], _>((Included(low), Unbounded))
        .take_while(|(k, _)| high.is_none_or(|h| k.as_slice() <= h))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Every bound pair drawn from `bounds` through `range_into`, and every
/// open walk from one of them, unstopped.
fn check_bounds(
    name: &str,
    ix: &dyn OrderedIndex,
    model: &BTreeMap<Vec<u8>, u64>,
    bounds: &[Vec<u8>],
) {
    for low in bounds {
        for high in bounds.iter().map(|h| Some(h.as_slice())).chain([None]) {
            let want = expected(model, low, high);
            let Some(high) = high else {
                assert_eq!(visit(ix, low, usize::MAX), want, "{name}: {low:?}..");
                continue;
            };
            if low.as_slice() > high {
                assert!(want.is_empty());
            }
            assert_eq!(
                range(ix, low, high, usize::MAX),
                values(&want),
                "{name}: {low:?}..={high:?}"
            );
        }
    }
}

fn probe(name: &str, ix: &mut dyn OrderedIndex) {
    assert!(ix.is_empty(), "{name}");
    assert!(collect(ix).is_empty(), "{name}: for_each on an empty index");
    assert!(visit(ix, b"", usize::MAX).is_empty(), "{name}: visit on an empty index");
    assert_eq!(ix.insert(b"b", 2), None, "{name}");
    assert_eq!(ix.insert(b"a", 1), None, "{name}");
    assert_eq!(ix.insert(b"ab", 3), None, "{name}");
    assert_eq!(ix.insert(b"a", 10), Some(1), "{name}");
    assert_eq!(ix.len(), 3, "{name}");
    assert_eq!(ix.get(b"ab"), Some(&3), "{name}");
    assert_eq!(ix.get(b"zz"), None, "{name}");
    // range_into appends to a reused buffer, up to its limit.
    let mut buf = vec![99u64];
    ix.range_into(b"a", b"ab", 10, &mut buf);
    assert_eq!(buf, vec![99, 10, 3], "{name}");
    ix.range_into(b"a", b"b", 2, &mut buf);
    assert_eq!(buf, vec![99, 10, 3, 10, 3], "{name}");
    ix.range_into(b"a", b"b", 0, &mut buf);
    assert_eq!(buf.len(), 5, "{name}: limit 0");
    buf.clear();
    ix.range_into(b"b", b"a", 10, &mut buf);
    assert!(buf.is_empty(), "{name}");
    assert!(ix.memory_bytes() > 0, "{name}");

    // The hostile set: the empty key, a prefix chain, 0x00 / 0xFF runs.
    let hostile: [&[u8]; 6] = [b"", b"abc", b"\0", b"\0\0", b"\xff", b"\xff\xff\xff"];
    for (i, k) in hostile.iter().enumerate() {
        assert_eq!(ix.insert(k, 100 + i as u64), None, "{name} {k:?}");
    }
    let mut model: BTreeMap<Vec<u8>, u64> =
        [(b"a".to_vec(), 10), (b"ab".to_vec(), 3), (b"b".to_vec(), 2)].into();
    model.extend(hostile.iter().enumerate().map(|(i, k)| (k.to_vec(), 100 + i as u64)));
    let all: Pairs = model.clone().into_iter().collect();
    assert_eq!(collect(ix), all, "{name}");

    // Bounds on stored keys (both ends inclusive), between keys, below
    // the first and above the last key; every inverted pair is in there.
    let mut bounds: Vec<Vec<u8>> = model.keys().cloned().collect();
    bounds.extend(
        [&b"\0\0\0"[..], b"aa", b"abb", b"c", b"\xff\xff", b"\xff\xff\xff\xff"].map(Vec::from),
    );
    check_bounds(name, ix, &model, &bounds);

    // Early stop: a callback that returns false on its k-th call sees
    // exactly k pairs (k = 0 is `range_into`'s limit 0: no call at all).
    let bounded = expected(&model, b"\0\0", Some(b"b"));
    for k in 0..=all.len() {
        assert_eq!(range(ix, b"", b"\xff\xff\xff", k), values(&all[..k]), "{name}: limit {k}");
        if k > 0 {
            assert_eq!(visit(ix, b"", k), all[..k], "{name}: stop after {k}");
            let k = k.min(bounded.len());
            assert_eq!(range(ix, b"\0\0", b"b", k), values(&bounded[..k]), "{name}: bounded {k}");
        }
    }

    // Enough keys to split nodes several levels deep, sharing long
    // prefixes (so a prefix-truncating tree must reconstruct them — on a
    // bounded walk as much as on a full one).
    let shared = |i: u64| format!("com.example/shared/prefix/{i:05}").into_bytes();
    for i in 0..2_000u64 {
        let k = shared(i * 7919 % 2_000);
        assert_eq!(ix.insert(&k, i), model.insert(k, i), "{name}");
    }
    assert_eq!(ix.len(), model.len(), "{name}");
    assert_eq!(collect(ix), model.clone().into_iter().collect::<Pairs>(), "{name}: after splits");
    let bounds = [
        shared(0),
        shared(17),
        b"com.example/shared/prefix/00017x".to_vec(),
        shared(1_203),
        shared(1_999),
        b"com.example/shared/prefix/".to_vec(),
        b"com.example/shared/prefiy".to_vec(),
        b"b".to_vec(),
        b"d".to_vec(),
    ];
    check_bounds(name, ix, &model, &bounds);
    let want = expected(&model, &shared(990), Some(&shared(1_500)));
    for k in [1, 2, 15, 16, 17, 33, 500] {
        assert_eq!(
            range(ix, &shared(990), &shared(1_500), k),
            values(&want[..k]),
            "{name}: shared-prefix stop after {k}"
        );
    }
}

#[test]
fn every_index_passes_the_same_probe() {
    for (name, mut ix) in indexes() {
        probe(name, ix.as_mut());
    }
}

/// One fresh index of every kind the workspace ships: `BTreeMap` and
/// `Art` load through the trait's provided body, the B+trees and `Hot`
/// through their own left-to-right builders.
fn indexes() -> Vec<(&'static str, Box<dyn OrderedIndex>)> {
    vec![
        ("BTreeMap", Box::<BTreeMap<Vec<u8>, u64>>::default()),
        ("BPlusTree::plain", Box::new(BPlusTree::plain())),
        ("BPlusTree::prefix", Box::new(BPlusTree::prefix())),
        ("Art", Box::new(Art::new())),
        ("Hot", Box::new(Hot::new())),
    ]
}

fn load(ix: &mut dyn OrderedIndex, run: &Pairs) {
    ix.load_sorted(&mut run.iter().map(|(k, v)| (k.as_slice(), *v)));
}

/// `n` sorted keys with a gap between every two (`gap_key`).
fn even_run(n: usize) -> Pairs {
    (0..n as u64).map(|i| (format!("user{:05}", 2 * i).into_bytes(), i)).collect()
}

/// The absent key just above `even_run`'s key `i` (`i = -1`: below all).
fn gap_key(i: i64) -> Vec<u8> {
    format!("user{:05}", 2 * i + 1).into_bytes()
}

/// Around every stored key: its immediate successor (absent, or the next
/// key of a prefix chain), a key far above it, and its longest proper
/// prefix — so at least one miss falls between every adjacent pair.
fn neighbours(model: &BTreeMap<Vec<u8>, u64>) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for k in model.keys() {
        out.push([k.as_slice(), b"\0"].concat());
        out.push([k.as_slice(), b"\xff"].concat());
        out.push(k[..k.len().saturating_sub(1)].to_vec());
    }
    out
}

/// `ix` holds exactly what `model` holds: length, the full walk, every
/// key and every neighbour through `get`, and bounded and early-stopped
/// walks from a spread of bounds.
fn check_against(name: &str, ix: &dyn OrderedIndex, model: &BTreeMap<Vec<u8>, u64>) {
    assert_eq!(ix.len(), model.len(), "{name}");
    assert_eq!(ix.is_empty(), model.is_empty(), "{name}");
    let all: Pairs = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(collect(ix), all, "{name}: full walk of {} keys", all.len());
    for (k, v) in model {
        assert_eq!(ix.get(k), Some(v), "{name}: {k:?} of {} keys", all.len());
    }
    let neighbours = neighbours(model);
    for k in &neighbours {
        assert_eq!(ix.get(k), model.get(k), "{name}: {k:?} of {} keys", all.len());
    }
    // Every bound pair of a small index, a spread of a large one.
    let mut bounds: Vec<Vec<u8>> = model.keys().cloned().chain(neighbours).collect();
    bounds.sort();
    let step = bounds.len().div_ceil(48).max(1);
    let bounds: Vec<Vec<u8>> = bounds.into_iter().step_by(step).collect();
    check_bounds(name, ix, model, &bounds);
    if let (Some(low), Some(high)) = (bounds.get(bounds.len() / 4), bounds.last()) {
        let want = expected(model, low, Some(high));
        for k in [1, 2, 11, 12, 13, 23, 24, 25, 49].into_iter().filter(|&k| k <= want.len()) {
            assert_eq!(range(ix, low, high, k), values(&want[..k]), "{name}: stop after {k}");
            assert_eq!(visit(ix, low, k), want[..k], "{name}: unbounded, stop after {k}");
        }
    }
}

/// The leaf fills of the two native loaders (¾ of the node fan-out), the
/// lengths around them and around a full second and third level.
fn run_lengths() -> Vec<usize> {
    let fills = [hope_btree::FANOUT * 3 / 4, hope_hot::K * 3 / 4];
    let mut lengths = vec![0, 1, 2];
    for fill in fills {
        lengths.extend([fill - 1, fill, fill + 1, 2 * fill - 1, 2 * fill, 2 * fill + 1]);
        lengths.extend([fill * fill - 1, fill * fill, fill * fill + 1]);
    }
    lengths.extend([hope_btree::FANOUT.pow(2) - 1, hope_btree::FANOUT.pow(2) + 1]);
    lengths.extend([hope_hot::K.pow(2) - 1, hope_hot::K.pow(2) + 1, 12 * 12 * 12 + 1]);
    lengths
}

#[test]
fn a_bulk_load_answers_as_the_same_pairs_inserted() {
    for n in run_lengths() {
        let run = even_run(n);
        let model: BTreeMap<Vec<u8>, u64> = run.iter().cloned().collect();
        for (name, mut ix) in indexes() {
            load(ix.as_mut(), &run);
            check_against(name, ix.as_ref(), &model);
        }
    }
}

#[test]
fn a_bulk_load_of_shared_prefixes_and_hostile_keys_answers_as_inserts() {
    let shared: Pairs = (0..2_000u64)
        .map(|i| (format!("com.example/shared/prefix/{i:05}").into_bytes(), i))
        .collect();
    let hostile: Pairs =
        [&b""[..], b"\0", b"\0\0", b"a", b"ab", b"abc", b"b", b"\xff", b"\xff\xff\xff"]
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_vec(), 100 + i as u64))
            .collect();
    // Both at once: the hostile keys sort around the shared-prefix block.
    let mut both = hostile.clone();
    both.extend(shared.iter().cloned());
    both.sort();
    for run in [shared, hostile, both] {
        let model: BTreeMap<Vec<u8>, u64> = run.iter().cloned().collect();
        for (name, mut ix) in indexes() {
            load(ix.as_mut(), &run);
            check_against(name, ix.as_ref(), &model);
        }
    }
}

/// Inserts into packed nodes: the first split of a loaded leaf (and of
/// the loaded inner nodes above it) keeps the leaf chain and the
/// separators intact, updates land on loaded slots, and keys outside the
/// loaded prefix make a prefix-truncating node re-expand.
#[test]
fn inserts_and_updates_after_a_bulk_load_behave_as_on_an_insert_built_index() {
    let n = hope_btree::FANOUT.pow(2) + 1;
    let run: Pairs =
        even_run(n).into_iter().map(|(k, v)| ([&b"com.example/"[..], &k].concat(), v)).collect();
    for (name, mut ix) in indexes() {
        load(ix.as_mut(), &run);
        let mut model: BTreeMap<Vec<u8>, u64> = run.iter().cloned().collect();
        // One insert into one loaded leaf, then every gap, scattered —
        // a dozen per loaded leaf, so every one of them splits — checking
        // on the way.
        let mut gaps: Vec<i64> = (-1..n as i64).collect();
        gaps.sort_by_key(|g| (g * 7919) % 263);
        for (i, g) in gaps.into_iter().enumerate() {
            let k = [&b"com.example/"[..], &gap_key(g)].concat();
            assert_eq!(ix.insert(&k, 5_000 + i as u64), model.insert(k, 5_000 + i as u64));
            if i < 40 || i % 97 == 0 {
                assert_eq!(collect(ix.as_ref()), model.clone().into_iter().collect::<Pairs>());
            }
        }
        for (i, (k, _)) in run.iter().enumerate().step_by(3) {
            assert_eq!(ix.insert(k, 9_000 + i as u64), model.insert(k.clone(), 9_000 + i as u64));
        }
        // Keys that share nothing with the loaded prefix, at both ends
        // and inside the block.
        for (i, k) in [&b""[..], b"a", b"com.example", b"com.example/userx", b"com.exbmple", b"zz"]
            .iter()
            .enumerate()
        {
            assert_eq!(ix.insert(k, i as u64), model.insert(k.to_vec(), i as u64), "{name}");
        }
        check_against(name, ix.as_ref(), &model);
    }
}

#[test]
fn a_load_into_a_non_empty_index_behaves_as_inserts() {
    for (name, mut ix) in indexes() {
        let mut model = BTreeMap::new();
        for (i, k) in [gap_key(3), gap_key(40), even_run(8).pop().unwrap().0].iter().enumerate() {
            assert_eq!(ix.insert(k, 700 + i as u64), model.insert(k.clone(), 700 + i as u64));
        }
        // The run overwrites one resident key and interleaves the others.
        let run = even_run(60);
        load(ix.as_mut(), &run);
        model.extend(run.iter().cloned());
        check_against(name, ix.as_ref(), &model);
        // An empty run changes nothing, on a loaded and on a fresh index.
        load(ix.as_mut(), &Pairs::new());
        check_against(name, ix.as_ref(), &model);
    }
    for (name, mut ix) in indexes() {
        load(ix.as_mut(), &Pairs::new());
        check_against(name, ix.as_ref(), &BTreeMap::new());
        assert_eq!(ix.insert(b"k", 1), None, "{name}: insert after an empty load");
        assert_eq!(ix.get(b"k"), Some(&1), "{name}");
    }
}

/// `range_into` stops at its first key above `high`, whichever leaf that
/// is. Over five loaded B+tree leaves (two and a half of HOT's), every
/// `high` there is: each leaf's last key, the gap between two leaves
/// (above one leaf's last key and below the next one's first), inside
/// the final leaf, above every key, and none (an open walk) — from every
/// `low`, inverted pairs included.
#[test]
fn a_range_ends_where_it_should_in_whichever_leaf_that_is() {
    let run = even_run(60);
    let model: BTreeMap<Vec<u8>, u64> = run.iter().cloned().collect();
    let mut bounds: Vec<Vec<u8>> = (-1..60).map(gap_key).collect();
    bounds.extend(run.iter().map(|(k, _)| k.clone()));
    bounds.extend([Vec::new(), b"user".to_vec(), b"zz".to_vec()]);
    for (name, mut ix) in indexes() {
        load(ix.as_mut(), &run);
        check_bounds(name, ix.as_ref(), &model, &bounds);
        // And on insert-built leaves, whose boundaries fall elsewhere.
        let (_, mut inserted) = indexes().into_iter().find(|(n, _)| *n == name).unwrap();
        for (k, v) in run.iter().rev() {
            inserted.insert(k, *v);
        }
        check_bounds(name, inserted.as_ref(), &model, &bounds);
    }
}

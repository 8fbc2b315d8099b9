//! [`hope::OrderedIndex`] conformance, run over every implementation the
//! workspace ships, against a `BTreeMap` model. The trait's one scan
//! primitive is `visit`; the store scans through it (bounded, stopped
//! early) and rebuilds shards from its unbounded form (`for_each`), so a
//! walker that drops, reorders or truncates a key corrupts a scan or the
//! next generation — prefix chains, the empty key and 0x00 / 0xFF runs
//! are the inputs most likely to expose one.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use hope::OrderedIndex;
use hope_art::Art;
use hope_btree::BPlusTree;
use hope_hot::Hot;

type Pairs = Vec<(Vec<u8>, u64)>;

/// Up to `stop_after` pairs of `visit(low, high)`; the walk is told to
/// stop with the `stop_after`-th pair and must not call back after that.
fn visit(ix: &dyn OrderedIndex, low: &[u8], high: Option<&[u8]>, stop_after: usize) -> Pairs {
    let mut seen = Pairs::new();
    let mut stopped = false;
    ix.visit(low, high, &mut |k, v| {
        assert!(!stopped, "visited {k:?} after the callback returned false");
        seen.push((k.to_vec(), *v));
        stopped = seen.len() >= stop_after;
        !stopped
    });
    seen
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

/// Every bound pair drawn from `bounds` (and `high: None`), unstopped.
fn check_bounds(
    name: &str,
    ix: &dyn OrderedIndex,
    model: &BTreeMap<Vec<u8>, u64>,
    bounds: &[Vec<u8>],
) {
    for low in bounds {
        for high in bounds.iter().map(|h| Some(h.as_slice())).chain([None]) {
            let want = expected(model, low, high);
            if high.is_some_and(|h| low.as_slice() > h) {
                assert!(want.is_empty());
            }
            assert_eq!(visit(ix, low, high, usize::MAX), want, "{name}: {low:?}..={high:?}");
        }
    }
}

fn probe(name: &str, ix: &mut dyn OrderedIndex) {
    assert!(ix.is_empty(), "{name}");
    assert!(collect(ix).is_empty(), "{name}: for_each on an empty index");
    assert!(visit(ix, b"", None, usize::MAX).is_empty(), "{name}: visit on an empty index");
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
        let mut values = Vec::new();
        ix.range_into(b"", b"\xff\xff\xff", k, &mut values);
        assert!(values.iter().eq(all[..k].iter().map(|(_, v)| v)), "{name}: limit {k}");
        if k > 0 {
            assert_eq!(visit(ix, b"", None, k), all[..k], "{name}: stop after {k}");
            let k = k.min(bounded.len());
            assert_eq!(visit(ix, b"\0\0", Some(b"b"), k), bounded[..k], "{name}: bounded {k}");
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
            visit(ix, &shared(990), Some(&shared(1_500)), k),
            want[..k],
            "{name}: shared-prefix stop after {k}"
        );
    }
}

#[test]
fn every_index_passes_the_same_probe() {
    probe("BTreeMap", &mut BTreeMap::<Vec<u8>, u64>::new());
    probe("BPlusTree::plain", &mut BPlusTree::plain());
    probe("BPlusTree::prefix", &mut BPlusTree::prefix());
    probe("Art", &mut Art::new());
    probe("Hot", &mut Hot::new());
}

//! Every [`hope::OrderedIndex`] the workspace ships — the `BTreeMap`
//! reference, both B+trees (plain and prefix), HOT and ART — against a
//! `BTreeMap` model, over random programs: a bulk load (`load_sorted`)
//! into the empty index or into a full one, inserts, bursts of inserts,
//! updates, point reads, open walks (`visit`) stopped early or run out,
//! the trait's provided `range_into` (bounded: appending to a reused
//! buffer, limit 0 and inverted bounds included) and `for_each`. Every
//! read is checked, and every program ends with a sweep: `get` on every
//! key and on its neighbours, `seek` on every prefix of those, each a
//! whole key pulled through a byte source that records what it is asked,
//! the full walk, and a spread of bounded ranges and early-stopped walks.
//!
//! The keys are `common`'s hostile families. One program in four loads
//! hundreds of keys under one long stem, with a few prefixes of the stem,
//! and then inserts keys that leave it at every depth, which makes a
//! compound node of HOT drop bytes of its skipped prefix; bursts of
//! inserts under that stem split loaded leaves and compound nodes. One
//! more program per [`run_lengths`] entry starts with a native load of an
//! even run of that many keys (the ¾-fill boundaries of the B+tree and HOT
//! loaders) and then draws a third of its keys from the run and from the
//! gaps between its keys, so inserts land inside loaded leaves.
//!
//! The vendored proptest shim does not shrink, so each program draws from
//! its own seed, and a failure names the index, the seed and the op index.

mod common;

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use common::{key, long_stem_key, show, Rng, LONG_STEM};
use hope::axis::lcp_len;
use hope::{EncodedBytes, OrderedIndex, Probe};
use hope_art::Art;
use hope_btree::BPlusTree;
use hope_hot::Hot;

/// Random programs per index, and ops per program (a run program runs
/// half as many).
const PROGRAMS: u64 = 48;
const OPS: usize = 500;

/// What `range_into` finds in its buffer before it appends.
const SENTINEL: u64 = u64::MAX;

type Model = BTreeMap<Vec<u8>, u64>;

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

/// Key `i` of an even run: `user00000`, `user00002`, …, so an odd `i` is
/// the gap between two of them.
fn run_key(i: usize) -> Vec<u8> {
    format!("user{i:05}").into_bytes()
}

/// Every program an index runs: its seed, and the length of the even run
/// it starts by loading, if it does.
fn programs() -> impl Iterator<Item = (u64, Option<usize>)> {
    let lengths = run_lengths().into_iter().enumerate();
    (0..PROGRAMS).map(|seed| (seed, None)).chain(lengths.map(|(i, n)| (1_000 + i as u64, Some(n))))
}

/// Whether the program starts with a load.
fn starts_loaded(seed: u64, even_run: Option<usize>) -> bool {
    even_run.is_some() || seed.is_multiple_of(2)
}

/// A program's next key: under an even run of `n`, a third are its keys
/// or the gaps between them.
fn draw(rng: &mut Rng, even_run: Option<usize>) -> Vec<u8> {
    match even_run {
        Some(n) if rng.below(3) == 0 => run_key(rng.below(2 * n + 2)),
        _ => key(rng),
    }
}

/// The pairs in `model` from `low` up to `high`, at most `limit`
/// (`BTreeMap::range` panics on inverted bounds, so the upper bound is a
/// filter).
fn model_range<'a>(
    model: &'a Model,
    low: &[u8],
    high: Option<&'a [u8]>,
    limit: usize,
) -> impl Iterator<Item = (&'a Vec<u8>, &'a u64)> {
    model
        .range::<[u8], _>((Included(low), Unbounded))
        .take_while(move |(k, _)| high.is_none_or(|h| k.as_slice() <= h))
        .take(limit)
}

/// Whether `visit(low)`, told to stop with its `limit`-th pair, yields
/// exactly the model's pairs — compared in place, because a sweep walks
/// past the 64 KiB keys hundreds of times.
fn walk_matches(ix: &dyn OrderedIndex, model: &Model, low: &[u8], limit: usize) -> bool {
    let mut want = model_range(model, low, None, limit);
    let (mut seen, mut same) = (0, true);
    if limit > 0 {
        ix.visit(low, &mut |k, v| {
            assert!(seen < limit, "visited {} after the callback returned false", show(k));
            seen += 1;
            same &= want.next().is_some_and(|(wk, wv)| wk.as_slice() == k && wv == v);
            seen < limit
        });
    }
    same && want.next().is_none()
}

/// Whether `range_into(low, high, limit)`, on a buffer that already
/// holds `reused` sentinels, keeps them and appends the model's values.
fn range_into_matches(
    ix: &dyn OrderedIndex,
    model: &Model,
    (low, high): (&[u8], &[u8]),
    limit: usize,
    reused: usize,
) -> bool {
    let mut buf = vec![SENTINEL; reused];
    ix.range_into(low, high, limit, &mut buf);
    let want = model_range(model, low, Some(high), limit).map(|(_, v)| *v);
    buf.into_iter().eq(std::iter::repeat_n(SENTINEL, reused).chain(want))
}

/// Whether `for_each` yields exactly the model, compared in place.
fn for_each_matches(ix: &dyn OrderedIndex, model: &Model) -> bool {
    let mut want = model.iter();
    let mut same = true;
    ix.for_each(&mut |k, v| {
        same &= want.next().is_some_and(|(wk, wv)| wk.as_slice() == k && wv == v);
    });
    same && want.next().is_none()
}

/// Insert `k` into both, checking the displaced value.
fn insert(ix: &mut dyn OrderedIndex, model: &mut Model, k: Vec<u8>, v: u64, at: &str) {
    assert_eq!(ix.insert(&k, v), model.insert(k.clone(), v), "{at}: insert {}", show(&k));
}

/// Run program `seed` on `ix`, checking every read against the model,
/// then sweep the result.
fn run(name: &str, ix: &mut dyn OrderedIndex, seed: u64, even_run: Option<usize>) {
    let mut rng = Rng(seed);
    let mut model = Model::new();
    let mut value = 0u64;
    let ops = if even_run.is_some() { OPS / 2 } else { OPS };
    for op in 0..ops {
        let at = format!("{name}: seed {seed}, op {op}");
        value += 1;
        // Even programs and run programs start with a bulk load into the
        // empty index, a quarter of them under the long stem; odd ones
        // grow by inserts, with a load into the full index (an insert per
        // pair) now and then in all of them.
        let kind = if op == 0 && starts_loaded(seed, even_run) { 0 } else { rng.below(20) };
        match kind {
            0 if op == 0 || rng.below(8) == 0 => {
                let run: Model = match even_run {
                    Some(n) if op == 0 => (0..n).map(|i| (run_key(2 * i), i as u64)).collect(),
                    _ if op == 0 && seed % 4 == 2 => {
                        // A few prefixes of the stem too: the first leaf
                        // then starts with a key shorter than the deeper
                        // nodes' skipped prefixes.
                        let mut keys: Vec<Vec<u8>> = (0..1 + rng.below(3))
                            .map(|_| LONG_STEM[..rng.below(LONG_STEM.len())].to_vec())
                            .collect();
                        keys.extend((0..300 + rng.below(400)).map(|_| long_stem_key(&mut rng)));
                        keys.into_iter().zip(0..).map(|(k, i)| (k, value * 1000 + i)).collect()
                    }
                    _ => (0..rng.below(300))
                        .map(|i| (draw(&mut rng, even_run), value * 1000 + i as u64))
                        .collect(),
                };
                ix.load_sorted(&mut run.iter().map(|(k, v)| (k.as_slice(), *v)));
                model.extend(run);
                assert_eq!(ix.len(), model.len(), "{at}: len after a load");
                assert!(model.is_empty() || ix.memory_bytes() > 0, "{at}: memory after a load");
            }
            0..=7 => insert(ix, &mut model, draw(&mut rng, even_run), value, &at),
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
                    draw(&mut rng, even_run)
                };
                assert_eq!(ix.get(&k), model.get(&k), "{at}: get {}", show(&k));
            }
            // The provided `range_into`, appending to a reused buffer.
            15..=16 => {
                let (low, high) = (draw(&mut rng, even_run), draw(&mut rng, even_run));
                let limit = *rng.pick(&[0, 1, 2, 5, 17, usize::MAX]);
                let reused = rng.below(3);
                let (l, h) = (show(&low), show(&high));
                let same = range_into_matches(ix, &model, (&low, &high), limit, reused);
                assert!(same, "{at}: range_into {l}..={h} limit {limit}");
            }
            17 => assert!(for_each_matches(ix, &model), "{at}: for_each"),
            // A walk: two in three bounded (`range_into`), the rest open.
            _ => {
                let low = draw(&mut rng, even_run);
                let high = (rng.below(3) != 0).then(|| draw(&mut rng, even_run));
                let limit = *rng.pick(&[0, 1, 2, 5, 17, 40, usize::MAX]);
                let (l, h) = (show(&low), high.as_deref().map(show));
                let same = match &high {
                    Some(high) => range_into_matches(ix, &model, (&low, high), limit, 0),
                    None => walk_matches(ix, &model, &low, limit),
                };
                assert!(same, "{at}: walk {l}..={h:?} limit {limit}");
            }
        }
    }
    sweep(&format!("{name}: seed {seed}, the sweep"), ix, &model);
}

/// Around every stored key: its immediate successor (absent, or the next
/// key of a prefix chain), a key far above it, and its longest proper
/// prefix — so at least one miss falls between every adjacent pair.
fn neighbours(model: &Model) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for k in model.keys() {
        out.push([k.as_slice(), b"\0"].concat());
        out.push([k.as_slice(), b"\xff"].concat());
        out.push(k[..k.len().saturating_sub(1)].to_vec());
    }
    out
}

/// Prefix lengths [`seeks_match`] tries on a key of `len` bytes: every
/// one from `from` on — of a key over 512 bytes, those within 256 bytes
/// of either end (a seek of a 64 KiB key may compare it in full).
fn prefix_lengths(len: usize, from: usize) -> impl Iterator<Item = usize> {
    (from..=len).filter(move |&n| n <= 256 || len - n < 256)
}

/// A key's bytes, handed out as an encoder would: what is asked and
/// `extra` bytes more, whole once the key is out. It records each ask,
/// and panics on one for bytes it has already handed out, or for any
/// after it has reported the key's end.
struct Recorder<'k> {
    key: &'k [u8],
    extra: usize,
    asked: Vec<usize>,
    out: usize,
    whole: bool,
}

impl EncodedBytes for Recorder<'_> {
    fn at_least(&mut self, n: usize) -> (&[u8], bool) {
        assert!(!self.whole, "asked for {n} bytes after the end: {:?}", self.asked);
        assert!(n > self.out, "asked for {n} bytes, {} already out: {:?}", self.out, self.asked);
        self.asked.push(n);
        self.out = n.saturating_add(self.extra).min(self.key.len());
        self.whole = self.out == self.key.len();
        (&self.key[..self.out], self.whole)
    }
}

/// `seek` on each prefix of `k` from `from` bytes on ([`prefix_lengths`]),
/// each handed over as a whole key by a [`Recorder`], says nothing the
/// model contradicts. A hit is a stored key, and the very value `get`
/// borrows; a candidate for a stored key is that key's own value; and
/// the key is absent only where the model lacks it.
fn seeks_match(at: &str, ix: &dyn OrderedIndex, model: &Model, k: &[u8], from: usize) {
    for len in prefix_lengths(k.len(), from) {
        let p = &k[..len];
        let mut key = Recorder { key: p, extra: len % 3, asked: Vec::new(), out: 0, whole: false };
        let answer = ix.seek(&mut key);
        let what = || format!("{at}: seek({}) asking {:?}", show(p), key.asked);
        let is_stored = |v: &u64| ix.get(p).is_some_and(|w| std::ptr::eq(v, w));
        match answer {
            Probe::Hit(v) => assert!(is_stored(v), "{}: hit {v}", what()),
            Probe::Candidate(v) => {
                let stored = model.contains_key(p);
                assert!(!stored || is_stored(v), "{}: candidate {v}", what());
            }
            Probe::Absent => assert!(!model.contains_key(p), "{}: absent", what()),
        }
    }
}

/// `ix` holds exactly what `model` holds: length, memory, the full walk
/// both ways, every key and every neighbour through `get` and, at each of
/// their prefixes, `seek` ([`seeks_match`]; each prefix once: a
/// key's prefixes up to its common prefix with the key before it were
/// probed with that key, and a neighbour's proper prefixes are a stored
/// key's), every pair
/// from a spread of bounds (inverted ones included) through `range_into`
/// and every open walk from one through `visit`, and early-stopped
/// ranges and walks around the leaf sizes.
fn sweep(at: &str, ix: &dyn OrderedIndex, model: &Model) {
    assert_eq!(ix.len(), model.len(), "{at}");
    assert_eq!(ix.is_empty(), model.is_empty(), "{at}");
    assert!(model.is_empty() || ix.memory_bytes() > 0, "{at}: memory_bytes");
    assert!(for_each_matches(ix, model), "{at}: for_each of {} keys", model.len());
    assert!(walk_matches(ix, model, b"", usize::MAX), "{at}: the whole walk");
    let mut before: Option<&[u8]> = None;
    for (k, v) in model {
        assert_eq!(ix.get(k), Some(v), "{at}: get {}", show(k));
        let fresh = before.map_or(0, |b| lcp_len(b, k) + 1);
        seeks_match(at, ix, model, k, fresh);
        before = Some(k);
    }
    let neighbours = neighbours(model);
    for k in &neighbours {
        assert_eq!(ix.get(k), model.get(k), "{at}: get {}", show(k));
        seeks_match(at, ix, model, k, k.len());
    }
    let mut bounds: Vec<Vec<u8>> = model.keys().cloned().chain(neighbours).collect();
    bounds.sort();
    let step = bounds.len().div_ceil(10).max(1);
    let bounds: Vec<Vec<u8>> = bounds.into_iter().step_by(step).collect();
    for low in &bounds {
        for high in bounds.iter().map(|h| Some(h.as_slice())).chain([None]) {
            let (l, h) = (show(low), high.map(show));
            let same = match high {
                Some(high) => range_into_matches(ix, model, (low, high), usize::MAX, 1),
                None => walk_matches(ix, model, low, usize::MAX),
            };
            assert!(same, "{at}: walk {l}..={h:?}");
        }
    }
    if let (Some(low), Some(high)) = (bounds.get(bounds.len() / 4), bounds.last()) {
        for k in [1, 2, 11, 12, 13, 23, 24, 25, 49] {
            let (l, h) = (show(low), show(high));
            let same = range_into_matches(ix, model, (low, high), k, 0);
            assert!(same, "{at}: range_into {l}..={h} limit {k}");
            assert!(walk_matches(ix, model, low, k), "{at}: {l}.. stop after {k}");
        }
    }
}

#[test]
fn b_plus_trees_answer_like_a_btreemap() {
    let mut tallest = [0; 2];
    for (seed, even_run) in programs() {
        let grown = &mut tallest[usize::from(!starts_loaded(seed, even_run))];
        for (name, mut tree) in [("plain", BPlusTree::plain()), ("prefix", BPlusTree::prefix())] {
            run(name, &mut tree, seed, even_run);
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
    for (seed, even_run) in programs() {
        let mut hot = Hot::new();
        run("hot", &mut hot, seed, even_run);
        let grown = &mut tallest[usize::from(!starts_loaded(seed, even_run))];
        *grown = (*grown).max(hot.height());
    }
    // Compound nodes split over loaded leaves and over insert-built ones.
    assert!(tallest.iter().all(|&h| h >= 3), "tallest loaded / insert-built: {tallest:?}");
}

#[test]
fn art_and_the_reference_answer_like_a_btreemap() {
    for (seed, even_run) in programs() {
        run("art", &mut Art::new(), seed, even_run);
        run("btreemap", &mut Model::new(), seed, even_run);
    }
}

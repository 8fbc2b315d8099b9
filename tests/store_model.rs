//! Random programs over [`HopeStore`] against a versioned `BTreeMap`
//! model: the live map, plus a frozen copy per snapshot the program holds.
//!
//! Each program runs in one cell of the backend × scheme matrix (`BTree`,
//! `PrefixBTree`, `Art`, `Hot`, `BTreeMap` and a `Backend::Custom` factory,
//! times every [`Scheme`], `Scheme::Identity` included), at least two
//! programs per cell. It builds its
//! store from pairs with duplicate keys (the last value wins), then runs
//! inserts and updates, gets, ranges, cursor pages with rebuilds landing
//! mid-cursor, snapshots and their reads, snapshot drops, `maintain`,
//! `force_rebuild`, `inject_faults`, `clear_faults`, and bursts of keys
//! from a population the build sample never saw — which is what makes a
//! shard drift; random mixed traffic does not. Every read is checked, and
//! after every op:
//!
//! - the store's length and every shard's epoch equal the model's (one
//!   counter hands out epochs, so they are monotone and exact);
//! - each shard's live keys encode to strictly increasing padded bytes
//!   under its dictionary and decode back (in full after a build or a
//!   swap, around each inserted key otherwise);
//! - every held snapshot answers from its frozen model, and dropping one
//!   releases exactly the superseded generations no other snapshot pins;
//! - a rebuild keeps the dictionary exactly when the shard has not
//!   drifted, and a kept one encodes nothing (the `store.codec.encode_keys`
//!   gauge, `reencoded_bytes` 0, the same `Hope`);
//! - under `Scheme::Identity`, every shard's baseline and observed CPR
//!   are exactly 1.0, so no shard drifts and no rebuild replaces its
//!   dictionary;
//! - rebuilds fail exactly where the installed `FaultPlan` says, and the
//!   failure counters, `RebuildFailed` events, snapshot counters and
//!   per-dictionary byte reports equal the model's tallies.
//!
//! Keys come from `common`'s hostile families plus an Email-like
//! population. Single-Char programs with an odd seed build on a
//! 0x00-dominated load, which gives 0x00 the shortest, smallest code there
//! is, so `a`, `a\0`, `a\0\0`, … differ only by repeats of it. Each test
//! asserts its programs reached every case in [`CASES`]. The vendored
//! proptest shim does not shrink, so a failure names the backend, the
//! scheme, the seed and the op index.

mod common;

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::sync::{Arc, OnceLock, Weak};

use common::{hostile_keys, key, show, zero_padded, Rng, ZERO_STEMS};
use hope::{DecodeScratch, Hope, OrderedIndex, Scheme};
use hope_store::serving::{FaultPlan, ScanSummary};
use hope_store::telemetry::EventKind;
use hope_store::{
    Backend, Generation, HopeStore, SlotId, Snapshot, StoreConfig, StoreError, SwapReport,
};

/// Ops per program, after the build.
const OPS: usize = 200;

/// Keys per drift burst.
const BURST: usize = 64;

/// Snapshots a program holds at most.
const HELD: usize = 3;

type Model = BTreeMap<Vec<u8>, u64>;
type Pairs = Vec<(Vec<u8>, u64)>;

/// Above every key a program draws (keys are cut to 1 KiB).
fn top() -> Vec<u8> {
    vec![0xff; 1100]
}

/// The fixed hostile set, built once.
fn hostile() -> &'static [Vec<u8>] {
    static KEYS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    KEYS.get_or_init(hostile_keys)
}

/// One key: a hostile family (64 KiB keys cut to 1 KiB), a member of
/// the fixed hostile set, a `stem + 0x00^k` family member, or an
/// Email-like key.
fn store_key(rng: &mut Rng) -> Vec<u8> {
    match rng.below(10) {
        0..=3 => {
            let mut k = key(rng);
            k.truncate(1024);
            k
        }
        4..=5 => rng.pick(hostile()).clone(),
        6..=7 => {
            let stem = *rng.pick(&ZERO_STEMS);
            zero_padded(stem, rng.below(8))
        }
        _ => format!("com.gmail@user{:05}", rng.below(2_000)).into_bytes(),
    }
}

/// A load with duplicates next to each other and far apart: a quarter of
/// the pairs repeat an earlier key with a new value. Zero-dominated: 40
/// 0x00 runs and the odd members of each `stem + 0x00^k` family.
fn build_pairs(rng: &mut Rng, zero_dominated: bool) -> Pairs {
    let fresh: Vec<Vec<u8>> = if zero_dominated {
        let runs = (1..=40).map(|n| zero_padded(b"", n));
        let odd = ZERO_STEMS.iter().flat_map(|s| (1..8).step_by(2).map(|z| zero_padded(s, z)));
        runs.chain(odd).collect()
    } else {
        let n = match rng.below(8) {
            0 => 0,
            1 => 1 + rng.below(8),
            _ => 100 + rng.below(700),
        };
        (0..n).map(|_| store_key(rng)).collect()
    };
    let mut pairs: Pairs = Vec::new();
    for k in fresh {
        while !pairs.is_empty() && rng.below(4) == 0 {
            let again = pairs[rng.below(pairs.len())].0.clone();
            pairs.push((again, 1_000_000 + pairs.len() as u64));
        }
        pairs.push((k, 1_000_000 + pairs.len() as u64));
    }
    pairs
}

/// What a range of `model` holds (`BTreeMap::range` panics on inverted
/// bounds, so the upper bound is a filter).
fn expected(model: &Model, low: &[u8], high: &[u8], limit: usize) -> Pairs {
    model
        .range::<[u8], _>((Included(low), Unbounded))
        .take_while(|(k, _)| k.as_slice() <= high)
        .take(limit)
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// A `Backend::Custom` index: what the factory returns is up to the user.
fn custom_index() -> Box<dyn OrderedIndex<SlotId>> {
    Box::<BTreeMap<Vec<u8>, SlotId>>::default()
}

/// The cases each test's programs must reach at least once.
const CASES: [&str; 9] = [
    "a replace",
    "a keep",
    "an injected failure",
    "a heal: a swap after an injected failure",
    "a live cursor that read a superseded generation after a swap",
    "a snapshot read across a swap",
    "a duplicated key that opens a shard",
    "a snapshot scan that filled its limit past later writes",
    "a dropped snapshot that released a generation",
];

/// How often each of [`CASES`] happened.
type Coverage = BTreeMap<&'static str, u64>;

/// A snapshot the program holds, and what it must answer.
struct Held {
    snap: Snapshot<u64>,
    frozen: Model,
    epochs: Vec<u64>,
    /// The generation each shard served at the capture.
    pins: Vec<Weak<Generation<u64>>>,
}

/// One program: the store, its model, and the model's tallies.
struct Program<'c> {
    cell: String,
    at: String,
    rng: Rng,
    cfg: StoreConfig,
    store: Arc<HopeStore<u64>>,
    model: Model,
    /// Every shard's epoch, and the one the next swap installs.
    epochs: Vec<u64>,
    next_epoch: u64,
    held: Vec<Held>,
    taken: u64,
    dropped: u64,
    plan: Option<FaultPlan>,
    /// Per shard: rebuild attempts since the plan was installed, injected
    /// failures in all, and whether the last attempt failed.
    attempts: Vec<u64>,
    failures: Vec<u64>,
    failing: Vec<bool>,
    /// Per shard: source bytes inserted since its dictionary was installed.
    observed: Vec<u64>,
    value: u64,
    bursts: usize,
    cov: &'c mut Coverage,
}

impl<'c> Program<'c> {
    /// Build the store of program `seed` in one cell, and check it.
    fn build(backend: Backend, scheme: Scheme, seed: u64, cov: &'c mut Coverage) -> Self {
        let cell = format!("{backend:?} × {scheme}, seed {seed}");
        let mut rng = Rng(seed);
        let zero_dominated = scheme == Scheme::SingleChar && seed % 2 == 1;
        let shards = if zero_dominated { 2 } else { 1 + rng.below(3) };
        let cfg = StoreConfig {
            shards,
            scheme,
            backend,
            dict_entries: 512,
            reservoir_capacity: 128,
            min_observed_bytes: 1024,
            event_capacity: 1 << 16,
            ..StoreConfig::default()
        };
        let pairs = build_pairs(&mut rng, zero_dominated);
        let store = Arc::new(HopeStore::build(cfg, pairs.clone()).expect("build"));
        let model: Model = pairs.iter().cloned().collect();
        let mut p = Program {
            at: format!("{cell}, build"),
            cell,
            rng,
            cfg,
            store,
            model,
            epochs: (1..=shards as u64).collect(),
            next_epoch: shards as u64 + 1,
            held: Vec::new(),
            taken: 0,
            dropped: 0,
            plan: None,
            attempts: vec![0; shards],
            failures: vec![0; shards],
            failing: vec![false; shards],
            observed: vec![0; shards],
            value: 0,
            bursts: 0,
            cov,
        };
        // One dictionary, shared by every shard.
        for s in 1..shards {
            assert_eq!(p.hope_of(s), p.hope_of(0), "{}: shard {s} has its own dictionary", p.at);
        }
        for s in 0..shards {
            p.check_shard_order(s);
        }
        for (k, v) in &p.model {
            assert_eq!(p.store.get(k).unwrap(), Some(*v), "{}: get {}", p.at, show(k));
        }
        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for (k, _) in &pairs {
            *counts.entry(k.as_slice()).or_default() += 1;
        }
        let keys: Vec<&Vec<u8>> = p.model.keys().collect();
        let opens = keys.windows(2).filter(|w| p.store.shard_of(w[0]) != p.store.shard_of(w[1]));
        if opens.clone().any(|w| counts[w[1].as_slice()] > 1) {
            p.hit(CASES[6]);
        }
        p.check_invariants();
        p.check_telemetry();
        p
    }

    fn run(mut self) {
        for op in 0..OPS {
            self.at = format!("{}, op {op}", self.cell);
            self.step();
            self.check_invariants();
        }
        self.at = format!("{}, the sweep", self.cell);
        self.sweep();
    }

    fn step(&mut self) {
        match self.rng.below(100) {
            0..=11 => self.get(),
            12 => self.counted_gets(),
            13..=20 => self.range(),
            21..=26 => self.cursor(),
            27..=30 if self.held.len() < HELD => self.take_snapshot(),
            27..=35 if !self.held.is_empty() => self.snapshot_get(),
            36..=40 if !self.held.is_empty() => self.snapshot_range(),
            41..=43 if !self.held.is_empty() => {
                let i = self.rng.below(self.held.len());
                self.drop_snapshot(i);
            }
            44..=48 => self.maintain(),
            49..=55 => self.force_rebuilds(false),
            56..=57 => {
                let plan = FaultPlan {
                    rebuild_fail_every: 1 + self.rng.below(3) as u64,
                    ..FaultPlan::default()
                };
                self.store.inject_faults(plan);
                self.plan = Some(plan);
                self.attempts.fill(0);
            }
            58..=59 => {
                self.store.clear_faults();
                self.plan = None;
                self.attempts.fill(0);
            }
            60..=63 => self.burst(),
            _ => {
                let k = if self.rng.below(3) == 0 && !self.model.is_empty() {
                    self.model_key()
                } else {
                    store_key(&mut self.rng)
                };
                self.insert(k);
            }
        }
    }

    fn hit(&mut self, case: &'static str) {
        *self.cov.entry(case).or_default() += 1;
    }

    /// A key the model holds (the model is not empty).
    fn model_key(&mut self) -> Vec<u8> {
        self.model.keys().nth(self.rng.below(self.model.len())).unwrap().clone()
    }

    /// A key the model holds half the time, any key otherwise.
    fn probe_key(&mut self) -> Vec<u8> {
        if self.rng.below(2) == 0 && !self.model.is_empty() {
            self.model_key()
        } else {
            store_key(&mut self.rng)
        }
    }

    /// Range bounds: equal an eighth of the time, inverted a sixth.
    fn bounds(&mut self) -> (Vec<u8>, Vec<u8>) {
        let low = self.probe_key();
        if self.rng.below(8) == 0 {
            return (low.clone(), low);
        }
        let high = if self.rng.below(8) == 0 { top() } else { self.probe_key() };
        if low > high && self.rng.below(3) != 0 {
            (high, low)
        } else {
            (low, high)
        }
    }

    fn limit(&mut self) -> usize {
        *self.rng.pick(&[0, 1, 7, 100, 300, usize::MAX, usize::MAX])
    }

    fn hope_of(&self, s: usize) -> *const Hope {
        self.store.generation(s).unwrap().hope()
    }

    fn keys_of(&self, s: usize) -> impl Iterator<Item = &Vec<u8>> {
        self.model.keys().filter(move |k| self.store.shard_of(k) == s)
    }

    fn insert(&mut self, k: Vec<u8>) {
        self.value += 1;
        let (v, s) = (self.value, self.store.shard_of(&k));
        let old = self.store.insert(k.clone(), v).unwrap();
        assert_eq!(old, self.model.insert(k.clone(), v), "{}: insert {}", self.at, show(&k));
        self.observed[s] += k.len() as u64;
        self.check_neighbours(&k);
    }

    fn get(&mut self) {
        let k = self.probe_key();
        let want = self.model.get(&k).copied();
        assert_eq!(self.store.get(&k).unwrap(), want, "{}: get {}", self.at, show(&k));
        let doubled = self.store.get_with(&k, |v| v.wrapping_mul(2)).unwrap();
        assert_eq!(doubled, want.map(|v| v.wrapping_mul(2)), "{}: get_with {}", self.at, show(&k));
    }

    /// Gets between two reads of the codec's key counter: point encodes
    /// flush their count every 64 keys per thread, so it moves by the
    /// number of gets, give or take one batch.
    fn counted_gets(&mut self) {
        let n = 64 + self.rng.below(64) as u64;
        let before = self.encode_keys();
        for _ in 0..n {
            let k = self.probe_key();
            assert_eq!(self.store.get(&k).unwrap(), self.model.get(&k).copied(), "{}", self.at);
        }
        let counted = self.encode_keys() - before;
        assert!(n - 63 <= counted && counted <= n + 63, "{}: {n} gets counted {counted}", self.at);
    }

    fn encode_keys(&self) -> u64 {
        self.store.telemetry().gauge("store.codec.encode_keys").unwrap()
    }

    fn range(&mut self) {
        let (low, high) = self.bounds();
        let limit = self.limit();
        let want = expected(&self.model, &low, &high, limit);
        let what = format!("{}: range {}..={} limit {limit}", self.at, show(&low), show(&high));
        let mut got = Vec::new();
        assert_eq!(self.store.range_into(&low, &high, limit, &mut got).unwrap(), got.len());
        assert_eq!(got, want, "{what}: range_into");
        let mut pushed = Vec::new();
        let n = self.store.range_with(&low, &high, limit, |k, v| pushed.push((k.to_vec(), *v)));
        assert_eq!(n.unwrap(), pushed.len(), "{what}");
        assert_eq!(pushed, want, "{what}: range_with");
    }

    /// Pull a page of a live cursor, rebuild one shard or every shard
    /// half the time, and finish the scan by pulling or by `for_each`.
    /// Each shard's hits come from the generation pinned when the cursor
    /// entered it: the shards it had entered before the swap answer from
    /// the superseded generations, the rest from the new ones.
    fn cursor(&mut self) {
        // A third of the cursors scan the whole store and swap every shard
        // after a page shorter than one chunk.
        let whole = self.rng.below(3) == 0;
        let (low, high, limit) = if whole {
            (Vec::new(), top(), usize::MAX)
        } else {
            let (low, high) = self.bounds();
            (low, high, self.limit())
        };
        let want = expected(&self.model, &low, &high, limit);
        let what = format!("{}: cursor {}..={} limit {limit}", self.at, show(&low), show(&high));
        let budget = if low > high { 0 } else { limit };
        // The cursor borrows its own handle, so the program can rebuild
        // under it.
        let store = Arc::clone(&self.store);
        let mut cur = store.cursor(&low, &high, limit).unwrap();
        assert_eq!(cur.remaining(), budget, "{what}");
        let mut got: Vec<(Vec<u8>, u64, Option<u64>)> = Vec::new();
        let pre = self.rng.below(want.len().min(if whole { 255 } else { 400 }) + 1);
        for _ in 0..pre {
            let (k, v) = cur.next_hit().map(|(k, v)| (k.to_vec(), *v)).expect("a hit");
            got.push((k, v, cur.hit_epoch()));
            assert_eq!(cur.remaining(), budget - got.len(), "{what}");
        }
        let before = self.epochs.clone();
        let entered = got.last().map(|(k, ..)| store.shard_of(k));
        if whole || self.rng.below(2) == 0 {
            self.force_rebuilds(whole);
        }
        if self.rng.below(3) == 0 {
            let pulled = got.len();
            let n = cur.for_each(|k, v| got.push((k.to_vec(), *v, None))).unwrap();
            assert_eq!(n, got.len() - pulled, "{what}: for_each");
        } else {
            while let Some((k, v)) = cur.next_hit().map(|(k, v)| (k.to_vec(), *v)) {
                got.push((k, v, cur.hit_epoch()));
                assert_eq!(cur.remaining(), budget - got.len(), "{what}");
            }
            assert!(cur.error().is_none(), "{what}: {:?}", cur.error());
        }
        let pairs: Pairs = got.iter().map(|(k, v, _)| (k.clone(), *v)).collect();
        assert_eq!(pairs, want, "{what}");
        // The epoch each hit must report, fed to the serving layer's
        // torn-scan check too.
        let mut summary = ScanSummary::default();
        let mut want_epochs: Vec<u64> = Vec::new();
        for (i, (k, _, epoch)) in got.iter().enumerate() {
            let Some(epoch) = *epoch else { continue };
            let s = store.shard_of(k);
            let pinned_before = entered.is_some_and(|e| s <= e);
            let want = if pinned_before { before[s] } else { self.epochs[s] };
            assert_eq!(epoch, want, "{what}: hit {i} in shard {s}");
            summary.note_epoch(epoch);
            if want_epochs.last() != Some(&want) {
                want_epochs.push(want);
            }
        }
        assert_eq!(summary.epochs, want_epochs, "{what}: scan summary");
        // An unlimited cursor fetches a shard's hits in chunks of 256: if
        // the shard it was in at the swap held more hits than the chunks
        // fetched by then, the superseded generation served the next
        // chunk after the swap.
        if let Some(s) = entered.filter(|&s| before[s] != self.epochs[s] && limit == usize::MAX) {
            let in_shard = |k: &&Vec<u8>| store.shard_of(k) == s;
            let pulled = got.iter().filter(|(_, _, e)| e.is_some()).map(|(k, ..)| k);
            let all = pulled.clone().filter(in_shard).count();
            let pulled = pulled.take(pre).filter(in_shard).count();
            if all > pulled.div_ceil(256) * 256 {
                self.hit(CASES[4]);
            }
        }
    }

    fn take_snapshot(&mut self) {
        let snap = self.store.snapshot();
        assert_eq!(snap.epochs(), self.epochs, "{}: snapshot epochs", self.at);
        assert_eq!(snap.len(), self.model.len(), "{}: snapshot len", self.at);
        assert_eq!(snap.is_empty(), self.model.is_empty(), "{}", self.at);
        assert_eq!(snap.shards(), self.cfg.shards, "{}", self.at);
        let pins = (0..self.cfg.shards)
            .map(|s| Arc::downgrade(&self.store.generation(s).unwrap()))
            .collect();
        let (frozen, epochs) = (self.model.clone(), self.epochs.clone());
        self.held.push(Held { snap, frozen, epochs, pins });
        self.taken += 1;
        self.check_telemetry();
    }

    fn snapshot_get(&mut self) {
        let i = self.rng.below(self.held.len());
        let k = match self.rng.below(3) {
            0 if !self.held[i].frozen.is_empty() => {
                let frozen = &self.held[i].frozen;
                frozen.keys().nth(self.rng.below(frozen.len())).unwrap().clone()
            }
            _ => self.probe_key(),
        };
        let held = &self.held[i];
        let got = held.snap.get(&k).unwrap();
        assert_eq!(got, held.frozen.get(&k).copied(), "{}: snapshot get {}", self.at, show(&k));
        if held.epochs != self.epochs {
            self.hit(CASES[5]);
        }
    }

    /// A snapshot's push scans, then a page of its cursor with rebuilds
    /// and writes landing mid-cursor: everything answers from the frozen
    /// model, and every hit from the generation pinned at the capture.
    fn snapshot_range(&mut self) {
        let (low, high) = self.bounds();
        let limit = self.limit();
        let held = self.held.swap_remove(self.rng.below(self.held.len()));
        let want = expected(&held.frozen, &low, &high, limit);
        let what = format!("{}: snapshot {}..={} limit {limit}", self.at, show(&low), show(&high));
        let mut got = Vec::new();
        assert_eq!(held.snap.range_into(&low, &high, limit, &mut got).unwrap(), got.len());
        assert_eq!(got, want, "{what}: range_into");
        let mut pushed = Vec::new();
        let n = held.snap.range_with(&low, &high, limit, |k, v| pushed.push((k.to_vec(), *v)));
        assert_eq!(n.unwrap(), pushed.len(), "{what}");
        assert_eq!(pushed, want, "{what}: range_with");

        let mut cur = held.snap.cursor(&low, &high, limit).unwrap();
        let mut pulled: Pairs = Vec::new();
        let pre = self.rng.below(want.len() + 1);
        while let Some((k, v)) = cur.next_hit().map(|(k, v)| (k.to_vec(), *v)) {
            let s = self.store.shard_of(&k);
            assert_eq!(cur.hit_epoch(), Some(held.epochs[s]), "{what}: hit {}", pulled.len());
            pulled.push((k, v));
            if pulled.len() == pre {
                self.force_rebuilds(false);
                for _ in 0..self.rng.below(4) {
                    let k = store_key(&mut self.rng);
                    self.insert(k);
                }
            }
        }
        assert!(cur.error().is_none(), "{what}: {:?}", cur.error());
        assert_eq!(pulled, want, "{what}: cursor");
        drop(cur);

        if held.epochs != self.epochs {
            self.hit(CASES[5]);
        }
        let later = |(k, v): (&Vec<u8>, &u64)| held.frozen.get(k) != Some(v);
        if let Some((last, _)) = want.last().filter(|_| want.len() == limit) {
            if self.model.range::<[u8], _>((Included(&low[..]), Included(&last[..]))).any(later) {
                self.hit(CASES[7]);
            }
        }
        self.held.push(held);
    }

    /// Drop held snapshot `i`: every generation it alone pinned and a swap
    /// superseded is released; every other one stays alive.
    fn drop_snapshot(&mut self, i: usize) {
        let held = self.held.swap_remove(i);
        drop(held.snap);
        self.dropped += 1;
        for s in 0..self.cfg.shards {
            let superseded = held.epochs[s] != self.epochs[s];
            let pinned = self.held.iter().any(|h| h.epochs[s] == held.epochs[s]);
            let alive = held.pins[s].upgrade().is_some();
            assert_eq!(alive, !superseded || pinned, "{}: shard {s}'s pin after a drop", self.at);
            if !alive {
                self.hit(CASES[8]);
            }
        }
        self.check_telemetry();
    }

    /// Whether shard `s`'s next rebuild replaces its dictionary: enough
    /// inserted bytes to judge, and the observed compression under the
    /// configured fraction of the dictionary's baseline.
    fn drifted(&self, s: usize) -> bool {
        let report = &self.store.stats()[s];
        let drifted = self.observed[s] >= self.cfg.min_observed_bytes
            && report
                .observed_cpr
                .is_some_and(|cpr| cpr < self.cfg.degrade_ratio * report.baseline_cpr);
        let identity = self.cfg.scheme == Scheme::Identity;
        assert!(!(identity && drifted), "{}: shard {s}: an identity dictionary drifted", self.at);
        drifted
    }

    /// Force-rebuild every shard, or one shard two times in three.
    fn force_rebuilds(&mut self, every: bool) {
        let shards: Vec<usize> = if every || self.rng.below(3) == 0 {
            (0..self.cfg.shards).collect()
        } else {
            vec![self.rng.below(self.cfg.shards)]
        };
        for s in shards {
            let drifted = self.drifted(s);
            let (hope, encoded) = (self.hope_of(s), self.encode_keys());
            let result = self.store.force_rebuild(s);
            if result.is_ok() && !drifted {
                assert_eq!(self.encode_keys(), encoded, "{}: a kept dictionary encoded", self.at);
            }
            self.check_attempt(s, drifted, hope, result);
        }
        self.check_telemetry();
    }

    /// One maintenance pass: it rebuilds exactly the drifted shards (its
    /// other trigger, a log of 4 096 dead entries, is more than a program
    /// writes), replacing their dictionaries.
    fn maintain(&mut self) {
        let drifted: Vec<usize> = (0..self.cfg.shards).filter(|&s| self.drifted(s)).collect();
        let hopes: Vec<*const Hope> = (0..self.cfg.shards).map(|s| self.hope_of(s)).collect();
        let (swaps, errors) = self.store.maintain();
        let mut tried: Vec<usize> = swaps.iter().map(|r| r.shard).collect();
        tried.extend(errors.iter().map(|(s, _)| *s));
        tried.sort_unstable();
        assert_eq!(tried, drifted, "{}: maintain rebuilt {swaps:?}, failed {errors:?}", self.at);
        let results = swaps
            .into_iter()
            .map(|r| (r.shard, Ok(r)))
            .chain(errors.into_iter().map(|(s, e)| (s, Err(e))));
        let mut results: Vec<_> = results.collect();
        results.sort_by_key(|(s, _)| *s);
        for (s, result) in results {
            self.check_attempt(s, true, hopes[s], result);
        }
        self.check_telemetry();
    }

    /// The model's side of one rebuild attempt of shard `s`: the installed
    /// plan decides whether attempt `n` fails (and the attempt counter
    /// only runs while a plan is installed); a swap installs the next
    /// epoch and keeps the dictionary exactly when the shard had not
    /// drifted.
    fn check_attempt(
        &mut self,
        s: usize,
        drifted: bool,
        hope_before: *const Hope,
        result: Result<SwapReport, StoreError>,
    ) {
        let fails = self.plan.and_then(|plan| {
            let attempt = self.attempts[s];
            self.attempts[s] += 1;
            plan.rebuild_fails(s as u32, attempt).then_some(attempt)
        });
        let r = match (fails, result) {
            (Some(attempt), Err(StoreError::FaultInjected { shard, attempt: a })) => {
                assert_eq!((shard, a), (s, attempt), "{}: injected failure", self.at);
                self.failures[s] += 1;
                self.failing[s] = true;
                self.hit(CASES[2]);
                return;
            }
            (None, Ok(r)) => r,
            (fails, got) => {
                panic!("{}: shard {s}: failure expected at {fails:?}, got {got:?}", self.at)
            }
        };
        if std::mem::take(&mut self.failing[s]) {
            self.hit(CASES[3]);
        }
        let at = format!("{}: shard {s}: {r:?}", self.at);
        let epochs = (r.shard, r.old_epoch, r.new_epoch);
        assert_eq!(epochs, (s, self.epochs[s], self.next_epoch), "{at}");
        self.epochs[s] = self.next_epoch;
        self.next_epoch += 1;
        assert_eq!(r.incremental, !drifted, "{at}: kept or replaced");
        assert_eq!((r.live_keys, r.replayed), (self.keys_of(s).count(), 0), "{at}");
        let encoded = self.check_shard_order(s);
        let same_hope = self.hope_of(s) == hope_before;
        if drifted {
            assert_eq!((r.reused_bytes, r.reencoded_bytes, same_hope), (0, encoded, false), "{at}");
            self.observed[s] = 0;
            self.hit(CASES[0]);
        } else {
            assert_eq!((r.reused_bytes, r.reencoded_bytes, same_hope), (encoded, 0, true), "{at}");
            assert_eq!(r.new_baseline_cpr, r.old_baseline_cpr, "{at}");
            self.hit(CASES[1]);
        }
    }

    /// Keys of a population the build sample never saw, under one of a
    /// few prefixes, so the shard they land in drifts.
    fn burst(&mut self) {
        let prefixes: [&[u8]; 6] = [b"", b"\x00", b"a", b"m", b"com.gmail@", b"\xff"];
        let prefix = *self.rng.pick(&prefixes);
        for _ in 0..BURST {
            let i = self.bursts;
            self.bursts += 1;
            let k = [prefix, format!("XQ#{i:)>6}!!zw|{i:x}").as_bytes()].concat();
            self.insert(k);
        }
    }

    /// `keys`, in order and all in shard `s`, encode to strictly
    /// increasing padded bytes under its current dictionary, and each
    /// decodes back. Returns their total encoded length.
    fn check_order<'k>(&self, s: usize, keys: impl Iterator<Item = &'k [u8]>) -> u64 {
        let generation = self.store.generation(s).unwrap();
        let hope = generation.hope();
        let mut scratch = DecodeScratch::new();
        let mut previous: Option<(Vec<u8>, &[u8])> = None;
        let mut total = 0;
        for k in keys {
            let e = hope.encode(k);
            let back = hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch);
            assert_eq!(back, Ok(k), "{}: {} does not round-trip", self.at, show(k));
            if let Some((p, pk)) = &previous {
                let (a, b) = (show(pk), show(k));
                assert!(p.as_slice() < e.as_bytes(), "{}: shard {s}: {a} !< {b} encoded", self.at);
            }
            total += e.as_bytes().len() as u64;
            previous = Some((e.into_bytes(), k));
        }
        total
    }

    /// The order check over all of shard `s`.
    fn check_shard_order(&self, s: usize) -> u64 {
        self.check_order(s, self.keys_of(s).map(Vec::as_slice))
    }

    /// The order check around an inserted key: it and its neighbours in
    /// its shard.
    fn check_neighbours(&self, k: &[u8]) {
        let s = self.store.shard_of(k);
        let below = self.model.range::<[u8], _>((Unbounded, Excluded(k))).next_back();
        let above = self.model.range::<[u8], _>((Excluded(k), Unbounded)).next();
        let near = below.map(|(n, _)| n.as_slice()).into_iter().chain([k]);
        let near = near.chain(above.map(|(n, _)| n.as_slice()));
        self.check_order(s, near.filter(|n| self.store.shard_of(n) == s));
    }

    /// Cheap checks after every op: length, epochs, and each held
    /// snapshot's length and one read.
    fn check_invariants(&mut self) {
        assert_eq!(self.store.len(), self.model.len(), "{}: len", self.at);
        assert_eq!(self.store.epochs(), self.epochs, "{}: epochs", self.at);
        for i in 0..self.held.len() {
            let k = self.probe_key();
            let held = &self.held[i];
            assert_eq!(held.snap.len(), held.frozen.len(), "{}: snapshot len", self.at);
            let got = held.snap.get(&k).unwrap();
            assert_eq!(got, held.frozen.get(&k).copied(), "{}: snapshot get {}", self.at, show(&k));
        }
    }

    /// Telemetry against the model's tallies: injected failures (counter,
    /// per-shard errors, `RebuildFailed` events that install nothing),
    /// dictionary bytes reported once per dictionary, snapshots.
    fn check_telemetry(&self) {
        let t = self.store.telemetry();
        let at = &self.at;
        let (failures, injected) =
            (self.failures.iter().sum(), "store.faults.injected_rebuild_failures");
        assert_eq!(t.counter(injected).unwrap_or(0), failures, "{at}");
        let failed: Vec<_> = t.events_of(EventKind::RebuildFailed).collect();
        assert_eq!(failed.len() as u64, failures, "{at}: RebuildFailed events");
        assert!(failed.iter().all(|e| e.epoch == e.prev_epoch), "{at}: {failed:?}");
        for (s, report) in self.store.stats().iter().enumerate() {
            if self.cfg.scheme == Scheme::Identity {
                // Encodings are the keys: nothing compresses, nothing drifts.
                let cpr = (report.baseline_cpr, report.observed_cpr.unwrap_or(1.0));
                assert_eq!(cpr, (1.0, 1.0), "{at}: shard {s}'s identity CPR");
            }
            let errors = t.counter(&format!("store.shard.{s}.rebuild_errors")).unwrap_or(0);
            assert_eq!(errors, self.failures[s], "{at}: shard {s}'s rebuild errors");
            let events = failed.iter().filter(|e| e.shard as usize == s).count() as u64;
            assert_eq!(events, self.failures[s], "{at}: shard {s}'s RebuildFailed events");
            // The lowest-numbered holder of a dictionary reports its bytes.
            let first = (0..s).all(|h| self.hope_of(h) != self.hope_of(s));
            let generation = self.store.generation(s).unwrap();
            let bytes = if first { generation.hope().memory_bytes() } else { 0 };
            assert_eq!(report.dict_bytes, bytes, "{at}: shard {s}'s dict_bytes");
            let gauge = t.gauge(&format!("store.shard.{s}.dict_bytes"));
            assert_eq!(gauge, Some(bytes as u64), "{at}: shard {s}'s dict_bytes gauge");
        }
        let active = self.taken - self.dropped;
        assert_eq!(t.counter("store.snapshot.taken").unwrap_or(0), self.taken, "{at}");
        assert_eq!(t.counter("store.snapshot.dropped").unwrap_or(0), self.dropped, "{at}");
        assert_eq!(t.gauge("store.snapshot.active").unwrap_or(0), active, "{at}");
        let created = t.events_of(EventKind::SnapshotCreated).count() as u64;
        let dropped = t.events_of(EventKind::SnapshotDropped).count() as u64;
        assert_eq!((created, dropped), (self.taken, self.dropped), "{at}: snapshot events");
    }

    /// Every key, the whole range, every held snapshot's whole range;
    /// then every snapshot is dropped.
    fn sweep(mut self) {
        for (k, v) in &self.model {
            assert_eq!(self.store.get(k).unwrap(), Some(*v), "{}: get {}", self.at, show(k));
        }
        let want = expected(&self.model, b"", &top(), usize::MAX);
        let mut got = Vec::new();
        self.store.range_into(b"", &top(), usize::MAX, &mut got).unwrap();
        assert_eq!(got, want, "{}: the whole range", self.at);
        for held in &self.held {
            let mut got = Vec::new();
            held.snap.range_into(b"", &top(), usize::MAX, &mut got).unwrap();
            let want = expected(&held.frozen, b"", &top(), usize::MAX);
            assert_eq!(got, want, "{}: a snapshot's whole range", self.at);
        }
        while !self.held.is_empty() {
            self.drop_snapshot(0);
        }
    }
}

/// Run `programs` programs in every scheme's cell of `backends` (the
/// backend cycles with the program index) — the paper's six and the
/// uncompressed `Scheme::Identity` — seeded apart by `salt`, and assert
/// the coverage.
fn run_cells(backends: &[Backend], programs: u64, salt: u64) {
    let mut cov = Coverage::default();
    for (i, scheme) in Scheme::ALL.into_iter().chain([Scheme::Identity]).enumerate() {
        for p in 0..programs {
            let backend = backends[p as usize % backends.len()];
            let seed = 0x5eed_0000 + 1_000 * salt + 100 * i as u64 + p;
            Program::build(backend, scheme, seed, &mut cov).run();
        }
    }
    let missed: Vec<_> = CASES.iter().filter(|c| !cov.contains_key(*c)).collect();
    assert!(missed.is_empty(), "{backends:?}: never reached {missed:?}");
}

#[test]
fn btree_stores_answer_like_the_model() {
    run_cells(&[Backend::BTree], 2, 1);
}

#[test]
fn prefix_btree_stores_answer_like_the_model() {
    run_cells(&[Backend::PrefixBTree], 2, 2);
}

#[test]
fn art_stores_answer_like_the_model() {
    run_cells(&[Backend::Art], 2, 3);
}

#[test]
fn hot_stores_answer_like_the_model() {
    run_cells(&[Backend::Hot], 2, 4);
}

/// Two programs per scheme on the `BTreeMap` backend, and a third on a
/// `Backend::Custom` factory.
#[test]
fn btreemap_and_custom_stores_answer_like_the_model() {
    run_cells(&[Backend::BTreeMap, Backend::BTreeMap, Backend::Custom(custom_index)], 3, 5);
}

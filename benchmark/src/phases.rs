//! The phases, as rounds of fixed work: store builds, the raw twin, and
//! one round each of get, scan, insert, mix and rebuild — each timed
//! against the shadow map doing the same operations, on the calling
//! thread only — and the served phase of the traced run. `run.rs` orders
//! the rounds of an untraced run and `layers.rs` those of a traced one.

use std::sync::Arc;
use std::time::Instant;

use hope::OrderedIndex;
use hope_store::{HopeStore, SlotId, StoreConfig};

use crate::alloc::{bytes_freed_by_drop, settle};
use crate::inputs::{insert_batch, outcome, Fresh, Inputs, Op, OpGen, ScanDigest, Shadow, ERROR};
use crate::run::Tally;
use crate::served::{Served, Window, WindowSpec};
use crate::spec::{Scale, Workload};

/// Gets per timed round at full size.
pub const GET_ROUND_OPS: usize = 50_000;
/// Scan hits per timed round at full size (scans = this / scan length).
pub const SCAN_ROUND_HITS: usize = 500_000;

/// The store configuration of a workload. The seed never reaches it.
pub fn store_config(w: &Workload) -> StoreConfig {
    let base = StoreConfig { scheme: w.scheme, backend: w.backend, ..StoreConfig::default() };
    if w.drift {
        // As `hope_bench::harness::build_serving_store`: judge drift early
        // enough that the shifted half of the stream triggers rebuilds.
        StoreConfig { min_observed_bytes: 1024, event_capacity: 4096, ..base }
    } else {
        base
    }
}

pub fn build_store(w: &Workload, inputs: &Inputs) -> (HopeStore, f64) {
    let pairs = inputs.load_pairs();
    let t0 = Instant::now();
    let store = HopeStore::build(store_config(w), pairs).expect("store build");
    (store, t0.elapsed().as_secs_f64())
}

/// The raw twin: the workload's backend loaded with the *uncompressed*
/// keys and `u64` values — what the store would be without HOPE.
pub fn build_raw_twin(w: &Workload, inputs: &Inputs) -> Box<dyn OrderedIndex<SlotId>> {
    let mut index = w.backend.new_index();
    for &id in &inputs.sorted_load {
        index.insert(inputs.key(id), u64::from(id));
    }
    index
}

/// `store.get` of each probe, outcomes appended to `out`.
#[inline]
pub fn get_batch(store: &HopeStore, inputs: &Inputs, probes: &[u32], out: &mut Vec<u64>) {
    for &id in probes {
        out.push(outcome(store.get(inputs.key(id))));
    }
}

/// `store.range_with` from each start position, digests appended to `out`.
#[inline]
pub fn scan_batch(
    store: &HopeStore,
    inputs: &Inputs,
    starts: &[u32],
    len: usize,
    out: &mut Vec<ScanDigest>,
) {
    for &lo in starts {
        let (low, high) = inputs.scan_bounds(lo, len);
        let mut d = ScanDigest::default();
        // An error leaves the digest short of `len` hits, which the
        // check against the shadow map reports.
        let _ = store.range_with(low, high, len, |k, v| d.fold(k, *v));
        out.push(d);
    }
}

/// Owned copies of the keys `ids` name, as `HopeStore::insert` takes them
/// (cloned before the clock starts).
pub fn owned_keys(inputs: &Inputs, ids: impl Iterator<Item = u32>) -> Vec<Vec<u8>> {
    ids.map(|id| inputs.key(id).to_vec()).collect()
}

/// Check `store` against `shadow` key by key with one full scan.
pub fn full_sweep(store: &HopeStore, shadow: &Shadow<'_>, tally: &mut Tally) {
    let mut want = shadow.iter();
    let mut mismatched = 0u64;
    let hits = store
        .range_with(b"", &[0xFF; 8], usize::MAX, |k, v| {
            mismatched += u64::from(want.next() != Some((k, *v)));
        })
        .unwrap_or(0);
    tally.at("full sweep");
    tally.attempted += shadow.len() as u64;
    tally.fail(mismatched + (shadow.len() as u64).abs_diff(hits as u64));
}

/// What one run is: the workload, its size, and its seed-made inputs.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    pub w: &'a Workload,
    pub scale: Scale,
    pub inputs: &'a Inputs,
    pub seed: u64,
}

/// One round of a phase: the store's time for the round's operations, and
/// the time the shadow map — a `BTreeMap` of the uncompressed keys — took
/// for the very same operations.
///
/// The gated figure is their ratio. Measured: on the shared box this was
/// built on, absolute times drift by 25 % within 90 s and by more between
/// runs, the map's times drift with them, and the ratio moves by about
/// half as much (`CALIBRATION.md`). The map is `std`'s and no change to this
/// repository moves it, so a change in the ratio is a change in the store.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub store_ns: f64,
    pub map_ns: f64,
    /// Operations (hits, for scans; live keys, for a rebuild) in the round.
    pub ops: u64,
}

impl Round {
    pub fn vs_map(&self) -> f64 {
        self.store_ns / self.map_ns
    }

    pub fn store_ns_per_op(&self) -> f64 {
        self.store_ns / self.ops.max(1) as f64
    }
}

/// Store and map take turns over this many slices of a round's
/// operations, so both meet the same machine conditions.
const TURNS: usize = 5;

/// Run `store_side` and `map_side` over the slices of `items` in turns,
/// timing each side; returns `(store_ns, map_ns)`.
fn in_turns<T>(
    items: &[T],
    mut store_side: impl FnMut(&[T]),
    mut map_side: impl FnMut(&[T]),
) -> (f64, f64) {
    let (mut store_ns, mut map_ns) = (0.0, 0.0);
    for part in items.chunks(items.len().div_ceil(TURNS).max(1)) {
        let t0 = Instant::now();
        store_side(part);
        let t1 = Instant::now();
        map_side(part);
        let t2 = Instant::now();
        store_ns += t1.duration_since(t0).as_nanos() as f64;
        map_ns += t2.duration_since(t1).as_nanos() as f64;
    }
    (store_ns, map_ns)
}

/// State the direct-call phases share. Each phase is a `*_round` method
/// doing one [`Round`] of fixed work; the callers decide how rounds are
/// ordered and summarised.
pub struct Direct<'a> {
    pub plan: Plan<'a>,
    pub store: Arc<HopeStore>,
    pub shadow: Shadow<'a>,
    pub ops: OpGen,
    /// What `maintain()` did so far: swaps made, seconds taken.
    pub maintain_swaps: u64,
    pub maintain_s: f64,
    /// What the forced rebuilds did so far.
    pub rebuilds: Rebuilds,
}

/// Totals over the `force_rebuild` calls of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rebuilds {
    pub done: u64,
    pub incremental: u64,
    pub reused_bytes: u64,
    pub reencoded_bytes: u64,
}

impl<'a> Direct<'a> {
    pub fn new(plan: Plan<'a>, store: HopeStore) -> Self {
        Direct {
            plan,
            store: Arc::new(store),
            shadow: Shadow::of_load(plan.inputs),
            ops: OpGen::new(plan.inputs, plan.w.mix, plan.seed ^ 0xD1EC_7CA1),
            maintain_swaps: 0,
            maintain_s: 0.0,
            rebuilds: Rebuilds::default(),
        }
    }

    /// Gets of present keys, uniform over what the store holds.
    pub fn get_round(&mut self, tally: &mut Tally) -> Round {
        let n = self.plan.scale.of(GET_ROUND_OPS);
        let inputs = self.plan.inputs;
        let probes = self.ops.gets(n);
        let (mut got, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (store_ns, map_ns) = in_turns(
            &probes,
            |part| get_batch(&self.store, inputs, part, &mut got),
            |part| want.extend(part.iter().map(|&id| self.shadow.get(inputs.key(id)))),
        );
        tally.at("get");
        tally.check_all(&got, &want);
        Round { store_ns, map_ns, ops: n as u64 }
    }

    /// Scans of exactly `scan_len` hits; `ops` counts hits.
    pub fn scan_round(&mut self, tally: &mut Tally) -> Round {
        let len = self.plan.w.mix.scan_len;
        let n = self.plan.scale.of(SCAN_ROUND_HITS / len);
        let inputs = self.plan.inputs;
        let starts = self.ops.scans(n);
        let (mut got, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (store_ns, map_ns) = in_turns(
            &starts,
            |part| scan_batch(&self.store, inputs, part, len, &mut got),
            |part| {
                want.extend(part.iter().map(|&lo| {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    self.shadow.scan(low, high, len)
                }))
            },
        );
        tally.at("scan");
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(want.hits, len as u64, "generator: a scan must have {len} hits");
            tally.check(got.word(), want.word());
        }
        Round { store_ns, map_ns, ops: (n * len) as u64 }
    }

    /// Inserts of fresh keys from the load's population.
    pub fn insert_round(&mut self, tally: &mut Tally, fresh: &mut Fresh) -> Round {
        let n = insert_batch(self.plan.w, &self.plan.scale);
        let inputs = self.plan.inputs;
        let ids: Vec<u32> = (0..n).map(|_| fresh.main.take()).collect();
        let mut keys = owned_keys(inputs, ids.iter().copied()).into_iter();
        let (mut got, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (store_ns, map_ns) = in_turns(
            &ids,
            |part| {
                for (&id, key) in part.iter().zip(&mut keys) {
                    got.push(outcome(self.store.insert(key, u64::from(id))));
                }
            },
            |part| {
                want.extend(
                    part.iter().map(|&id| self.shadow.insert(inputs.key(id), u64::from(id))),
                )
            },
        );
        tally.at("insert");
        tally.check_all(&got, &want);
        Round { store_ns, map_ns, ops: n as u64 }
    }

    /// Closed-loop replay of one round of the workload's mixed stream. A
    /// drifting workload draws its insert keys from the shifted
    /// population when `shifted`, and calls `maintain()` at the end of
    /// every round, inside the store's clock (the map has no counterpart).
    pub fn mix_round(&mut self, tally: &mut Tally, fresh: &mut Fresh, shifted: bool) -> Round {
        let n = self.plan.scale.of(self.plan.w.mix_round_ops);
        let len = self.plan.w.mix.scan_len;
        let inputs = self.plan.inputs;
        let supply = if shifted { &mut fresh.shifted } else { &mut fresh.main };
        let ops = self.ops.mixed(n, supply);
        let mut keys = owned_keys(
            inputs,
            ops.iter().filter_map(|op| match op {
                Op::Insert(id) => Some(*id),
                _ => None,
            }),
        )
        .into_iter();
        let (mut got, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut store_ns, map_ns) = in_turns(
            &ops,
            |part| {
                for &op in part {
                    got.push(match op {
                        Op::Get(id) => outcome(self.store.get(inputs.key(id))),
                        Op::Insert(id) => {
                            let key = keys.next().expect("one owned key per insert");
                            outcome(self.store.insert(key, u64::from(id)))
                        }
                        Op::Scan(lo) => {
                            let (low, high) = inputs.scan_bounds(lo, len);
                            let mut d = ScanDigest::default();
                            match self.store.range_with(low, high, len, |k, v| d.fold(k, *v)) {
                                Ok(_) => d.word(),
                                Err(_) => ERROR,
                            }
                        }
                    });
                }
            },
            |part| {
                for &op in part {
                    want.push(match op {
                        Op::Get(id) => self.shadow.get(inputs.key(id)),
                        Op::Insert(id) => self.shadow.insert(inputs.key(id), u64::from(id)),
                        Op::Scan(lo) => {
                            let (low, high) = inputs.scan_bounds(lo, len);
                            self.shadow.scan(low, high, len).word()
                        }
                    });
                }
            },
        );
        tally.at("mix");
        if self.plan.w.drift {
            let m0 = Instant::now();
            let (swapped, errors) = self.store.maintain();
            settle();
            let took = m0.elapsed();
            store_ns += took.as_nanos() as f64;
            self.maintain_s += took.as_secs_f64();
            self.maintain_swaps += swapped.len() as u64;
            tally.attempted += 1;
            tally.fail(u64::from(!errors.is_empty()));
        }
        tally.check_all(&got, &want);
        Round { store_ns, map_ns, ops: n as u64 }
    }

    /// One `force_rebuild` of `shard`, per live key, against one
    /// `BTreeMap::get` per key: the map has no rebuild of its own, and
    /// copying it is mostly the allocator's time (measured on
    /// `write_drift_btree`, six same-seed runs: against a copy the ratio
    /// ranged 26 %, against lookups 9 %). Half the
    /// lookups run before the rebuild and half after, so a drift in the
    /// machine's speed across the call cancels. `ops` counts the shard's
    /// live keys.
    pub fn rebuild_round(&mut self, tally: &mut Tally, shard: usize) -> Round {
        let inputs = self.plan.inputs;
        let probes = self.ops.gets(self.shadow.len() / self.store.config().shards);
        let (before, after) = probes.split_at(probes.len() / 2);
        let lookups = |shadow: &Shadow<'_>, part: &[u32]| {
            let t0 = Instant::now();
            let found = part.iter().fold(0, |acc, &id| acc ^ shadow.get(inputs.key(id)));
            std::hint::black_box(found);
            t0.elapsed().as_nanos() as f64
        };
        let mut map_ns = lookups(&self.shadow, before);
        // The rebuild frees the old generation; filing those chunks is
        // its cost, not the next allocation's.
        let t0 = Instant::now();
        let report = self.store.force_rebuild(shard);
        settle();
        let store_ns = t0.elapsed().as_nanos() as f64;
        map_ns += lookups(&self.shadow, after);
        tally.at("rebuild");
        tally.attempted += 1;
        let live_keys = match report {
            Ok(r) => {
                self.rebuilds.done += 1;
                self.rebuilds.incremental += u64::from(r.incremental);
                self.rebuilds.reused_bytes += r.reused_bytes;
                self.rebuilds.reencoded_bytes += r.reencoded_bytes;
                r.live_keys
            }
            Err(_) => {
                tally.fail(1);
                self.shadow.len() / self.store.config().shards
            }
        };
        let map_ns = map_ns * live_keys as f64 / probes.len() as f64;
        Round { store_ns, map_ns, ops: live_keys as u64 }
    }

    /// Check the whole store against the shadow map, then drop it:
    /// `stored_per_user_byte` = the heap bytes the drop gives back ÷
    /// Σ(key bytes + 8) of what it held.
    pub fn finish(self, tally: &mut Tally) -> f64 {
        full_sweep(&self.store, &self.shadow, tally);
        let user_bytes = self.shadow.user_bytes();
        let store = Arc::into_inner(self.store).expect("no other handle to the store");
        bytes_freed_by_drop(store) as f64 / user_bytes as f64
    }
}

/// The served phase: a `Server` with one worker over its own freshly
/// built store, the shadow of that store, and the stream its windows
/// draw requests from.
pub struct ServedPhase<'a> {
    plan: Plan<'a>,
    store: Arc<HopeStore>,
    shadow: Shadow<'a>,
    ops: OpGen,
    served: Served<'a>,
}

impl<'a> ServedPhase<'a> {
    /// A server that will run `windows` windows.
    pub fn start(plan: Plan<'a>, store: HopeStore, windows: usize) -> Self {
        let store = Arc::new(store);
        ServedPhase {
            plan,
            shadow: Shadow::of_load(plan.inputs),
            ops: OpGen::new(plan.inputs, plan.w.mix, plan.seed ^ 0x5E2F_ED00),
            served: Served::start(Arc::clone(&store), plan.inputs, plan.w.mix.scan_len, windows),
            store,
        }
    }

    /// One saturated window of the workload's fixed request count.
    pub fn saturated(&self, name: &'static str) -> WindowSpec {
        WindowSpec { name, rate: None, requests: self.plan.scale.of(self.plan.w.served_window_ops) }
    }

    /// Run one window of the workload's mixed stream.
    pub fn window(&mut self, spec: WindowSpec, fresh: &mut Fresh, tally: &mut Tally) {
        let supply = if self.plan.w.drift { &mut fresh.shifted } else { &mut fresh.main };
        let stream = self.ops.mixed(spec.requests, supply);
        self.served.window(spec, &stream, &mut self.shadow, tally);
    }

    /// Shut the server down, check the whole store against the shadow
    /// map, and return what each window measured.
    pub fn finish(self, tally: &mut Tally) -> Vec<Window> {
        let windows = self.served.finish(tally);
        full_sweep(&self.store, &self.shadow, tally);
        windows
    }
}

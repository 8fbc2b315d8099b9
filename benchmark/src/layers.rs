//! The traced run: per-layer figures, measured from outside the layers.
//!
//! Spans are recorded here, around the calls into each layer's public
//! functions — nothing inside the crates is instrumented. Timings use
//! chunk-interleaved rounds: every *lane* (one layer call) gets its own
//! uniform draw of probes per round, cut into chunks of [`CHUNK`]
//! operations, and the lanes take turns chunk by chunk — so all lanes run
//! under the same machine conditions, and none finds its keys freshly
//! cached by the lane before it (measured: lanes sharing one probe set
//! read 15 % faster than the untraced run's `get_ns`). `*_self_ns`
//! figures are differences of lane medians, so the layers sum to the
//! end-to-end lane and what is left over is visible.

use std::sync::Arc;
use std::time::Instant;

use hope::{DecodeScratch, EncodeScratch, OrderedIndex};
use hope_store::serving::LatencyHistogram;
use hope_store::{Generation, SlotId};

use crate::alloc::bytes_freed_by_drop;
use crate::inputs::{insert_batch, outcome, Fresh, ScanDigest, NONE};
use crate::phases::{
    build_raw_twin, build_store, get_batch, owned_keys, Direct, Plan, Round, ServedPhase,
    GET_ROUND_OPS, SCAN_ROUND_HITS,
};
use crate::run::Tally;
use crate::served::{Window, WindowSpec};
use crate::timing::{median, rounds, Tracer};

/// Operations of one layer call per chunk span.
const CHUNK: usize = 1024;
/// The traced run splits its time over many lanes, so each gets a
/// fraction of an untraced round's operations.
const LANE_SHARE: usize = 6;

/// One layer call timed over a round's chunks.
struct Lanes<'t> {
    tracer: &'t mut Tracer,
    /// Nanoseconds per lane, summed over the round's chunks.
    ns: Vec<f64>,
}

impl Lanes<'_> {
    fn time(&mut self, lane: usize, name: &'static str, ops: usize, body: impl FnOnce()) {
        let t0 = Instant::now();
        body();
        let t1 = Instant::now();
        self.ns[lane] += t1.duration_since(t0).as_nanos() as f64;
        self.tracer.leaf(name, t0, t1, ops as u64);
    }
}

/// Check a lane's result words against `want` per probe, then clear them.
fn check_chunk(tally: &mut Tally, got: &mut Vec<u64>, chunk: &[u32], want: impl Fn(u32) -> u64) {
    for (&id, &g) in chunk.iter().zip(got.iter()) {
        tally.check(g, want(id));
    }
    got.clear();
}

/// Read `bytes` into the cache (one load per cache line). The get lanes
/// do this to their probe keys before their clock starts: a caller holds
/// the key it asks for, and fetching it from the 15 MB input pool would
/// otherwise be charged to whichever layer touches it first (`encode_to`,
/// mostly).
fn touch(bytes: &[u8]) {
    for line in bytes.chunks(64) {
        std::hint::black_box(line[0]);
    }
}

/// Chunk `c` (of `size` items) of lane `lane`'s `per_lane` items.
fn lane_chunk<T>(items: &[T], per_lane: usize, size: usize, lane: usize, c: usize) -> &[T] {
    let at = lane * per_lane + c * size;
    &items[at..(at + size).min((lane + 1) * per_lane)]
}

/// Median per lane over the rounds, each divided by `per`.
fn lane_medians(rounds: &[Vec<f64>], per: f64) -> Vec<f64> {
    (0..rounds[0].len())
        .map(|lane| median(&rounds.iter().map(|r| r[lane] / per).collect::<Vec<_>>()))
        .collect()
}

/// The twins of the traced run: per shard, an index of the shard's keys
/// *encoded* by the shard's own dictionary; and one raw index of all keys.
struct Twins {
    /// Pinned generation of each shard (the dictionary the twin used).
    gens: Vec<Arc<Generation>>,
    encoded: Vec<Box<dyn OrderedIndex<SlotId>>>,
    raw: Box<dyn OrderedIndex<SlotId>>,
    /// Padded encoded bytes and exact bit length of each loaded key.
    enc: Vec<(Vec<u8>, usize)>,
    /// Shard of each loaded key.
    shard: Vec<u8>,
    batch_encode_key_ns: f64,
    bulk_load_key_ns: f64,
    cpr: f64,
}

impl Twins {
    fn build(plan: Plan<'_>, direct: &Direct<'_>) -> Twins {
        let inputs = plan.inputs;
        let store = &direct.store;
        let shards = store.config().shards;
        let gens: Vec<_> =
            (0..shards).map(|s| store.generation(s).expect("shard in range")).collect();
        let shard: Vec<u8> =
            (0..inputs.load as u32).map(|id| store.shard_of(inputs.key(id)) as u8).collect();
        let mut enc = vec![(Vec::new(), 0); inputs.load];
        let mut encoded = Vec::new();
        let (mut encode_ns, mut load_ns, mut src_bytes, mut enc_bytes) = (0.0, 0.0, 0usize, 0usize);
        for (s, generation) in gens.iter().enumerate() {
            let ids: Vec<u32> = inputs
                .sorted_load
                .iter()
                .copied()
                .filter(|&id| shard[id as usize] == s as u8)
                .collect();
            let keys: Vec<&[u8]> = ids.iter().map(|&id| inputs.key(id)).collect();
            let t0 = Instant::now();
            let batch = generation.hope().encode_batch(&keys, store.config().batch_block);
            encode_ns += t0.elapsed().as_nanos() as f64;
            for (&id, e) in ids.iter().zip(batch) {
                src_bytes += inputs.key(id).len();
                enc_bytes += e.byte_len();
                let bits = e.bit_len();
                enc[id as usize] = (e.into_bytes(), bits);
            }
            let mut index = plan.w.backend.new_index();
            let t0 = Instant::now();
            for &id in &ids {
                index.insert(&enc[id as usize].0, u64::from(id));
            }
            load_ns += t0.elapsed().as_nanos() as f64;
            encoded.push(index);
        }
        Twins {
            gens,
            encoded,
            raw: build_raw_twin(plan.w, inputs),
            enc,
            shard,
            batch_encode_key_ns: encode_ns / inputs.load as f64,
            bulk_load_key_ns: load_ns / inputs.load as f64,
            cpr: src_bytes as f64 / enc_bytes as f64,
        }
    }
}

/// Every per-layer metric of one traced run, by name.
pub fn run(
    plan: Plan<'_>,
    fresh: &mut Fresh,
    tracer: &mut Tracer,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let inputs = plan.inputs;
    let (store, _) = build_store(plan.w, inputs);
    let (served_store, _) = build_store(plan.w, inputs);
    let mut direct = Direct::new(plan, store);
    let mut twins = Twins::build(plan, &direct);
    let build_s: f64 = twins.gens.iter().map(|g| g.hope().timings().total().as_secs_f64()).sum();
    let dict_bytes: usize = twins.gens.iter().map(|g| g.hope().dict_memory_bytes()).sum();

    let get = get_lanes(&mut direct, &twins, tracer, tally);
    let scan = scan_lanes(&mut direct, &twins, tracer, tally);
    let (capture_ns, telemetry_ns) = snapshots(&direct, tracer);
    let (get_p99_ns, insert_p99_ns) = per_op_tails(&mut direct, fresh, tracer, tally);
    let insert = insert_lanes(&mut direct, &mut twins, fresh, tracer, tally);

    // Bytes, while the store still holds exactly load + inserted keys in
    // the generations the twins pinned.
    let keys = direct.shadow.len() as f64;
    let generation_bytes: usize = twins.gens.iter().map(|g| g.memory_bytes()).sum();
    let Twins { gens, encoded, raw, batch_encode_key_ns, bulk_load_key_ns, cpr, .. } = twins;
    let twin_keys: usize = encoded.iter().map(|i| i.len()).sum();
    let index_bytes_per_key = bytes_freed_by_drop(encoded) as f64 / twin_keys as f64;
    let raw_keys = raw.len();
    let raw_bytes_per_key = bytes_freed_by_drop(raw) as f64 / raw_keys as f64;
    drop(gens);

    let shifted = |r: usize| plan.w.drift && r > plan.scale.rounds / 2;
    let mix = rounds(tracer, "mix", plan.scale.rounds, |_, r| {
        let round = direct.mix_round(tally, fresh, shifted(r));
        (round, round.ops)
    });
    // Every shard once after the warm-up round (which rebuilds shard 0).
    let shards = direct.store.config().shards;
    let rebuilt = rounds(tracer, "rebuild", shards, |_, r| {
        let round = direct.rebuild_round(tally, r % shards);
        (round, round.ops)
    });
    let ns_per_op =
        |rounds: &[Round]| median(&rounds.iter().map(Round::store_ns_per_op).collect::<Vec<_>>());
    let rebuilds = direct.rebuilds;
    let (maintain_swaps, maintain_s) = (direct.maintain_swaps, direct.maintain_s);

    // Open-loop windows: a warm-up and three measured seconds at the
    // workload's rate, one at twice the rate, then one saturated window.
    let mut served = ServedPhase::start(plan, served_store, 6);
    let rate = plan.w.served_rate;
    let paced = |name, rate: u64| WindowSpec {
        name,
        rate: Some(rate),
        requests: plan.scale.of(rate as usize),
    };
    let schedule = [
        paced("warmup", rate),
        paced("window", rate),
        paced("window", rate),
        paced("window", rate),
        paced("window_2x", 2 * rate),
        served.saturated("saturated"),
    ];
    tracer.open("served");
    for spec in schedule {
        tracer.open(spec.name);
        served.window(spec, fresh, tally);
        tracer.close(spec.requests as u64);
    }
    tracer.close(0);
    let windows = served.finish(tally);
    let (at_2x, saturated) = (&windows[4], &windows[5]);
    for (i, w) in windows[..5].iter().enumerate() {
        if let Some(why) = &w.off_schedule {
            notes.push(format!("open-loop window {i} is off schedule: {why}"));
        }
    }
    // Medians over the measured windows that kept to the schedule (all
    // three, when none did).
    let on_schedule: Vec<&Window> =
        windows[1..4].iter().filter(|w| w.off_schedule.is_none()).collect();
    let measured: Vec<&Window> =
        if on_schedule.is_empty() { windows[1..4].iter().collect() } else { on_schedule };

    // Unaccounted: what the allocator says the store holds beyond what
    // `memory_bytes()` and the dictionaries own up to. Measured at the
    // end, on the rebuilt (compacted) store.
    let stats = direct.store.stats();
    let owned: usize = stats.iter().map(|s| s.index_bytes + s.dict_bytes).sum();
    let final_keys = direct.shadow.len() as f64;
    let user_bytes = direct.shadow.user_bytes() as f64;
    let held = direct.finish(tally) * user_bytes;
    let unaccounted = (held - owned as f64) / final_keys;

    let over = |f: fn(&Window) -> f64| -> Vec<f64> { measured.iter().map(|w| f(w)).collect() };
    let served_p50 = median(&over(|w| w.p50_ns));
    let busy = median(&over(|w| w.busy_ns_per_op));

    let route_self = get.store - get.generation;
    let resolve_self = get.generation - get.encode - get.index;
    vec![
        ("get_ns", get.store),
        ("scan_hit_ns", scan.store),
        ("insert_ns", insert.store),
        ("mix_ops_per_s", 1e9 / ns_per_op(&mix)),
        ("rebuild_key_ns", ns_per_op(&rebuilt)),
        ("served_p50_ns", served_p50),
        ("hope.encode_ns", get.encode),
        ("hope.encode_pair_ns", scan.encode_pair),
        ("hope.decode_ns", get.decode),
        ("hope.batch_encode_key_ns", batch_encode_key_ns),
        ("hope.build_s", build_s),
        ("hope.cpr", cpr),
        ("hope.dict_bytes", dict_bytes as f64),
        ("index.get_ns", get.index),
        ("index.range_hit_ns", scan.index),
        ("index.insert_ns", insert.index),
        ("index.bulk_load_key_ns", bulk_load_key_ns),
        ("index.bytes_per_key", index_bytes_per_key),
        ("index.raw_get_ns", get.raw),
        ("index.raw_range_hit_ns", scan.raw),
        ("index.raw_bytes_per_key", raw_bytes_per_key),
        ("baseline.get_vs_raw", get.store / get.raw),
        ("baseline.scan_vs_raw", scan.store / scan.raw),
        ("generation.get_ns", get.generation),
        ("generation.resolve_self_ns", resolve_self),
        ("generation.range_hit_ns", scan.generation),
        ("generation.bytes_per_key", generation_bytes as f64 / keys),
        ("generation.unaccounted_bytes_per_key", unaccounted),
        ("store.route_self_ns", route_self),
        ("store.get_miss_ns", get.miss),
        ("shard.insert_self_ns", insert.store - get.encode - insert.index),
        (
            "shard.rebuild.incremental_share",
            rebuilds.incremental as f64 / rebuilds.done.max(1) as f64,
        ),
        (
            "shard.rebuild.reencoded_frac",
            rebuilds.reencoded_bytes as f64
                / (rebuilds.reused_bytes + rebuilds.reencoded_bytes).max(1) as f64,
        ),
        ("shard.maintain_swaps", maintain_swaps as f64),
        ("shard.maintain_s_total", maintain_s),
        ("cursor.pull_hit_ns", scan.pull),
        ("cursor.open_ns", scan.open),
        ("versioned.capture_ns", capture_ns),
        ("versioned.get_ns", get.versioned),
        ("versioned.range_hit_ns", scan.versioned),
        ("serving.busy_ns_per_op", busy),
        ("serving.handoff_ns", served_p50 - busy),
        ("serving.p99_ns", median(&over(|w| w.p99_ns))),
        ("serving.p50_at_2x_ns", at_2x.p50_ns),
        ("serving.saturated_ops_per_s", saturated.ops_per_s),
        ("serving.late_mean_ns", median(&over(|w| w.late_mean_ns))),
        ("serving.late_max_ns", over(|w| w.late_max_ns as f64).into_iter().fold(0.0, f64::max)),
        ("serving.peak_depth", windows[3].peak_depth as f64),
        ("serving.rejected", over(|w| w.rejected as f64).into_iter().sum()),
        ("telemetry.get_traced_ns", get.traced),
        ("telemetry.snapshot_ns", telemetry_ns),
        ("trace.overhead_pct", (get.store - get.plain) / get.plain * 100.0),
        ("get_p99_ns", get_p99_ns),
        ("insert_p99_ns", insert_p99_ns),
    ]
}

/// Per-get nanoseconds of each lane of the get decomposition.
struct GetLanes {
    store: f64,
    generation: f64,
    encode: f64,
    index: f64,
    raw: f64,
    traced: f64,
    versioned: f64,
    miss: f64,
    decode: f64,
    /// `store.get` over a whole round's probes in one unchunked, unspanned
    /// pass — the untraced run's loop (which reads its keys cold).
    plain: f64,
}

fn get_lanes(
    direct: &mut Direct<'_>,
    twins: &Twins,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> GetLanes {
    let inputs = direct.plan.inputs;
    let n = direct.plan.scale.of(GET_ROUND_OPS / LANE_SHARE);
    let chunks = n.div_ceil(CHUNK);
    let store = Arc::clone(&direct.store);
    let snap = store.snapshot();
    let mut scratch = EncodeScratch::new();
    let mut decoded = DecodeScratch::new();
    let mut out: Vec<u64> = Vec::with_capacity(n);
    let figures = rounds(tracer, "get_lanes", direct.plan.scale.rounds, |tracer, _| {
        let probes = direct.ops.gets(9 * n);
        let whole = direct.ops.gets(n);
        // A present key with a byte appended is absent: the generators
        // never end a key in 0x01.
        let misses: Vec<Vec<u8>> =
            probes[7 * n..8 * n].iter().map(|&id| [inputs.key(id), &[1u8][..]].concat()).collect();
        out.clear();
        whole.iter().for_each(|&id| touch(inputs.key(id)));
        let t0 = Instant::now();
        get_batch(&store, inputs, &whole, &mut out);
        let plain = t0.elapsed().as_nanos() as f64;
        let mut lanes = Lanes { tracer, ns: vec![0.0; 9] };
        // Every lane's results land here and are checked after its clock
        // stops.
        let mut got: Vec<u64> = Vec::with_capacity(CHUNK);
        let value = |id: u32| direct.shadow.get(inputs.key(id));
        for c in 0..chunks {
            let chunk = lane_chunk(&probes, n, CHUNK, 0, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("store.get");
            lanes.time(0, "store.get", chunk.len(), || {
                get_batch(&store, inputs, chunk, &mut got);
            });
            check_chunk(tally, &mut got, chunk, value);

            let chunk = lane_chunk(&probes, n, CHUNK, 1, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("generation.get");
            lanes.time(1, "generation.get", chunk.len(), || {
                for &id in chunk {
                    let g = &twins.gens[twins.shard[id as usize] as usize];
                    got.push(outcome(g.get(inputs.key(id))));
                }
            });
            check_chunk(tally, &mut got, chunk, value);

            let chunk = lane_chunk(&probes, n, CHUNK, 2, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("hope.encode_to");
            lanes.time(2, "hope.encode_to", chunk.len(), || {
                for &id in chunk {
                    let hope = twins.gens[twins.shard[id as usize] as usize].hope();
                    let enc = hope.encode_to(inputs.key(id), &mut scratch).unwrap_or(&[]);
                    got.push(enc.len() as u64);
                }
            });
            check_chunk(tally, &mut got, chunk, |id| twins.enc[id as usize].0.len() as u64);

            let chunk = lane_chunk(&probes, n, CHUNK, 3, c);
            chunk.iter().for_each(|&id| touch(&twins.enc[id as usize].0));
            tally.at("index.get");
            lanes.time(3, "index.get", chunk.len(), || {
                for &id in chunk {
                    let index = &twins.encoded[twins.shard[id as usize] as usize];
                    got.push(index.get(&twins.enc[id as usize].0).copied().unwrap_or(NONE));
                }
            });
            // Two keys whose padded encodings tie share one twin entry,
            // which then holds the later id; both are right for this lane.
            for (&id, &g) in chunk.iter().zip(got.iter()) {
                let found = twins.enc.get(g as usize).map(|(bytes, _)| bytes);
                tally.check(u64::from(found == Some(&twins.enc[id as usize].0)), 1);
            }
            got.clear();

            let chunk = lane_chunk(&probes, n, CHUNK, 4, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("index.raw_get");
            lanes.time(4, "index.raw_get", chunk.len(), || {
                for &id in chunk {
                    got.push(twins.raw.get(inputs.key(id)).copied().unwrap_or(NONE));
                }
            });
            check_chunk(tally, &mut got, chunk, u64::from);

            let chunk = lane_chunk(&probes, n, CHUNK, 5, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("store.get_traced");
            lanes.time(5, "store.get_traced", chunk.len(), || {
                for &id in chunk {
                    got.push(outcome(store.get_traced(inputs.key(id)).map(|(v, _)| v)));
                }
            });
            check_chunk(tally, &mut got, chunk, value);

            let chunk = lane_chunk(&probes, n, CHUNK, 6, c);
            chunk.iter().for_each(|&id| touch(inputs.key(id)));
            tally.at("snapshot.get");
            lanes.time(6, "snapshot.get", chunk.len(), || {
                for &id in chunk {
                    got.push(outcome(snap.get(inputs.key(id))));
                }
            });
            check_chunk(tally, &mut got, chunk, value);

            let chunk = lane_chunk(&misses, n, CHUNK, 0, c);
            chunk.iter().for_each(|key| touch(key));
            tally.at("store.get_miss");
            lanes.time(7, "store.get_miss", chunk.len(), || {
                for key in chunk {
                    got.push(outcome(store.get(key)));
                }
            });
            for &g in &got {
                tally.check(g, NONE);
            }
            got.clear();

            let chunk = lane_chunk(&probes, n, CHUNK, 8, c);
            chunk.iter().for_each(|&id| touch(&twins.enc[id as usize].0));
            tally.at("hope.decode");
            lanes.time(8, "hope.decode", chunk.len(), || {
                for &id in chunk {
                    let decoder =
                        twins.gens[twins.shard[id as usize] as usize].hope().shared_fast_decoder();
                    let (bytes, bits) = &twins.enc[id as usize];
                    let key = decoder.decode_bits_to(bytes, *bits, &mut decoded).unwrap_or(&[]);
                    got.push(u64::from(key == inputs.key(id)));
                }
            });
            check_chunk(tally, &mut got, chunk, |_| 1);
        }
        tally.at("store.get, whole round");
        for (&id, &g) in whole.iter().zip(&out) {
            tally.check(g, value(id));
        }
        let mut ns = lanes.ns;
        ns.push(plain);
        (ns, 10 * n as u64)
    });
    let m = lane_medians(&figures, n as f64);
    GetLanes {
        store: m[0],
        generation: m[1],
        encode: m[2],
        index: m[3],
        raw: m[4],
        traced: m[5],
        versioned: m[6],
        miss: m[7],
        decode: m[8],
        plain: m[9],
    }
}

/// Per-hit (or per-scan, for `encode_pair` and `open`) nanoseconds of
/// each lane of the scan decomposition.
struct ScanLanes {
    store: f64,
    generation: f64,
    encode_pair: f64,
    index: f64,
    raw: f64,
    pull: f64,
    versioned: f64,
    open: f64,
}

fn scan_lanes(
    direct: &mut Direct<'_>,
    twins: &Twins,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> ScanLanes {
    let inputs = direct.plan.inputs;
    let len = direct.plan.w.mix.scan_len;
    let n = direct.plan.scale.of(SCAN_ROUND_HITS / LANE_SHARE / len);
    let per_chunk = (CHUNK / len).max(1);
    let chunks = n.div_ceil(per_chunk);
    let store = Arc::clone(&direct.store);
    let snap = store.snapshot();
    let mut scratch = EncodeScratch::new();
    let mut ids: Vec<SlotId> = Vec::with_capacity(CHUNK + len);
    let mut ends: Vec<usize> = Vec::with_capacity(per_chunk);
    // Position of each loaded key in key order, to check index lanes.
    let mut rank = vec![0u32; inputs.load];
    for (pos, &id) in inputs.sorted_load.iter().enumerate() {
        rank[id as usize] = pos as u32;
    }
    let shard_of = |lo: u32| twins.shard[inputs.sorted_load[lo as usize] as usize] as usize;
    let figures = rounds(tracer, "scan_lanes", direct.plan.scale.rounds, |tracer, _| {
        let starts = direct.ops.scans(8 * n);
        let mut lanes = Lanes { tracer, ns: vec![0.0; 8] };
        // Hits per lane: the generation and index lanes stop at their
        // shard's edge, so they divide by what they returned.
        let mut hits = [0u64; 8];
        let mut digests: Vec<ScanDigest> = Vec::with_capacity(per_chunk);
        // A lane's digests against the shadow's keys in range: all `len`
        // of them, or (`exact` off) as many as the lane returned.
        let check =
            |tally: &mut Tally, digests: &mut Vec<ScanDigest>, chunk: &[u32], exact: bool| {
                let mut total = 0;
                for (&lo, got) in chunk.iter().zip(digests.iter()) {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    let limit = if exact { len } else { got.hits as usize };
                    tally.check(got.word(), direct.shadow.scan(low, high, limit).word());
                    tally.check(u64::from(got.hits > 0), 1);
                    total += got.hits;
                }
                digests.clear();
                total
            };
        // Index lanes return key ids, scan after scan, into `ids`; a scan
        // from position `lo` must return ids whose ranks climb from `lo`.
        let check_ids =
            |tally: &mut Tally, ids: &mut Vec<SlotId>, ends: &mut Vec<usize>, chunk: &[u32]| {
                let mut from = 0;
                for (&lo, &end) in chunk.iter().zip(ends.iter()) {
                    let scan = &ids[from..end];
                    let climbing =
                        scan.windows(2).all(|w| rank[w[0] as usize] < rank[w[1] as usize]);
                    let in_range =
                        scan.iter().all(|&id| (lo..lo + len as u32).contains(&rank[id as usize]));
                    tally.check(u64::from(!scan.is_empty() && climbing && in_range), 1);
                    from = end;
                }
                let total = ids.len() as u64;
                ids.clear();
                ends.clear();
                total
            };
        for c in 0..chunks {
            let chunk = lane_chunk(&starts, n, per_chunk, 0, c);
            tally.at("store.range_with");
            lanes.time(0, "store.range_with", chunk.len() * len, || {
                crate::phases::scan_batch(&store, inputs, chunk, len, &mut digests);
            });
            hits[0] += check(tally, &mut digests, chunk, true);

            let chunk = lane_chunk(&starts, n, per_chunk, 1, c);
            tally.at("generation.range_with");
            lanes.time(1, "generation.range_with", chunk.len() * len, || {
                for &lo in chunk {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    let mut d = ScanDigest::default();
                    let _ =
                        twins.gens[shard_of(lo)].range_with(low, high, len, |k, v| d.fold(k, *v));
                    digests.push(d);
                }
            });
            hits[1] += check(tally, &mut digests, chunk, false);

            let chunk = lane_chunk(&starts, n, per_chunk, 2, c);
            let mut bound_bytes = 0usize;
            tally.at("hope.encode_range_bounds_to");
            lanes.time(2, "hope.encode_range_bounds_to", chunk.len(), || {
                for &lo in chunk {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    let hope = twins.gens[shard_of(lo)].hope();
                    if let Ok((l, h)) = hope.encode_range_bounds_to(low, high, &mut scratch) {
                        bound_bytes += l.len() + h.len();
                    }
                }
            });
            tally.check(u64::from(bound_bytes > 0), 1);
            hits[2] += chunk.len() as u64;

            // The encoded twin is per shard: end a scan that would cross
            // into the next shard (and its other dictionary) at the edge.
            let chunk = lane_chunk(&starts, n, per_chunk, 3, c);
            let bounds: Vec<(usize, usize)> = chunk
                .iter()
                .map(|&lo| {
                    let mut last = lo as usize + len - 1;
                    while twins.shard[inputs.sorted_load[last] as usize] as usize != shard_of(lo) {
                        last -= 1;
                    }
                    (inputs.sorted_load[lo as usize] as usize, inputs.sorted_load[last] as usize)
                })
                .collect();
            tally.at("index.range_into");
            lanes.time(3, "index.range_into", chunk.len() * len, || {
                for (&lo, &(first, last)) in chunk.iter().zip(&bounds) {
                    let (low, high) = (&twins.enc[first].0, &twins.enc[last].0);
                    twins.encoded[shard_of(lo)].range_into(low, high, len, &mut ids);
                    ends.push(ids.len());
                }
            });
            hits[3] += check_ids(tally, &mut ids, &mut ends, chunk);

            let chunk = lane_chunk(&starts, n, per_chunk, 4, c);
            tally.at("index.raw_range_into");
            lanes.time(4, "index.raw_range_into", chunk.len() * len, || {
                for &lo in chunk {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    twins.raw.range_into(low, high, len, &mut ids);
                    ends.push(ids.len());
                }
            });
            hits[4] += check_ids(tally, &mut ids, &mut ends, chunk);

            let chunk = lane_chunk(&starts, n, per_chunk, 5, c);
            tally.at("cursor.next_hit");
            lanes.time(5, "cursor.next_hit", chunk.len() * len, || {
                for &lo in chunk {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    let mut d = ScanDigest::default();
                    if let Ok(mut cursor) = store.cursor(low, high, len) {
                        while let Some((k, v)) = cursor.next_hit() {
                            d.fold(k, *v);
                        }
                    }
                    digests.push(d);
                }
            });
            hits[5] += check(tally, &mut digests, chunk, true);

            let chunk = lane_chunk(&starts, n, per_chunk, 6, c);
            tally.at("snapshot.range_with");
            lanes.time(6, "snapshot.range_with", chunk.len() * len, || {
                for &lo in chunk {
                    let (low, high) = inputs.scan_bounds(lo, len);
                    let mut d = ScanDigest::default();
                    let _ = snap.range_with(low, high, len, |k, v| d.fold(k, *v));
                    digests.push(d);
                }
            });
            hits[6] += check(tally, &mut digests, chunk, true);

            let chunk = lane_chunk(&starts, n, per_chunk, 7, c);
            tally.at("cursor.open");
            lanes.time(7, "cursor.open", chunk.len(), || {
                for &lo in chunk {
                    let (low, _) = inputs.scan_bounds(lo, len);
                    let mut d = ScanDigest::default();
                    if let Ok(mut cursor) = store.cursor(low, low, 1) {
                        if let Some((k, v)) = cursor.next_hit() {
                            d.fold(k, *v);
                        }
                    }
                    digests.push(d);
                }
            });
            for (&lo, got) in chunk.iter().zip(&digests) {
                let (low, _) = inputs.scan_bounds(lo, len);
                tally.check(got.word(), direct.shadow.scan(low, low, 1).word());
            }
            hits[7] += chunk.len() as u64;
            digests.clear();
        }
        let per_hit: Vec<f64> =
            lanes.ns.iter().zip(hits).map(|(ns, h)| ns / h.max(1) as f64).collect();
        (per_hit, hits.iter().sum())
    });
    let m = lane_medians(&figures, 1.0);
    ScanLanes {
        store: m[0],
        generation: m[1],
        encode_pair: m[2],
        index: m[3],
        raw: m[4],
        pull: m[5],
        versioned: m[6],
        open: m[7],
    }
}

/// `versioned.capture_ns` (`HopeStore::snapshot`, dropped at once) and
/// `telemetry.snapshot_ns` (`HopeStore::telemetry`).
fn snapshots(direct: &Direct<'_>, tracer: &mut Tracer) -> (f64, f64) {
    let plan = direct.plan;
    let captures = plan.scale.of(5_000);
    let capture = rounds(tracer, "snapshot_capture", plan.scale.rounds, |_, _| {
        let t0 = Instant::now();
        for _ in 0..captures {
            std::hint::black_box(direct.store.snapshot());
        }
        (t0.elapsed().as_nanos() as f64 / captures as f64, captures as u64)
    });
    let reads = 20;
    let telemetry = rounds(tracer, "telemetry_snapshot", plan.scale.rounds, |_, _| {
        let t0 = Instant::now();
        for _ in 0..reads {
            std::hint::black_box(direct.store.telemetry());
        }
        (t0.elapsed().as_nanos() as f64 / reads as f64, reads as u64)
    });
    (median(&capture), median(&telemetry))
}

/// `get_p99_ns` and `insert_p99_ns`: one timer per operation (which the
/// end-to-end rounds never pay), over one round's worth of each.
fn per_op_tails(
    direct: &mut Direct<'_>,
    fresh: &mut Fresh,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64) {
    let inputs = direct.plan.inputs;
    let probes = direct.ops.gets(direct.plan.scale.of(GET_ROUND_OPS));
    let mut gets = LatencyHistogram::new();
    tally.at("get per op");
    tracer.open("get_per_op");
    for &id in &probes {
        let t0 = Instant::now();
        let got = outcome(direct.store.get(inputs.key(id)));
        gets.record(t0.elapsed().as_nanos() as u64);
        tally.check(got, direct.shadow.get(inputs.key(id)));
    }
    tracer.close(probes.len() as u64);

    let ids: Vec<u32> =
        (0..insert_batch(direct.plan.w, &direct.plan.scale)).map(|_| fresh.main.take()).collect();
    let mut inserts = LatencyHistogram::new();
    tally.at("insert per op");
    tracer.open("insert_per_op");
    for (key, &id) in owned_keys(inputs, ids.iter().copied()).into_iter().zip(&ids) {
        let t0 = Instant::now();
        let got = outcome(direct.store.insert(key, u64::from(id)));
        inserts.record(t0.elapsed().as_nanos() as u64);
        tally.check(got, direct.shadow.insert(inputs.key(id), u64::from(id)));
    }
    tracer.close(ids.len() as u64);
    (gets.quantile_ns(0.99) as f64, inserts.quantile_ns(0.99) as f64)
}

/// Per-insert nanoseconds: `HopeStore::insert`, and the backend's own
/// `insert` of the same keys pre-encoded into the encoded twin.
struct InsertLanes {
    store: f64,
    index: f64,
}

fn insert_lanes(
    direct: &mut Direct<'_>,
    twins: &mut Twins,
    fresh: &mut Fresh,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> InsertLanes {
    let inputs = direct.plan.inputs;
    let n = insert_batch(direct.plan.w, &direct.plan.scale);
    let chunks = n.div_ceil(CHUNK);
    let mut scratch = EncodeScratch::new();
    let figures = rounds(tracer, "insert_lanes", direct.plan.scale.rounds, |tracer, _| {
        let ids: Vec<u32> = (0..n).map(|_| fresh.main.take()).collect();
        let mut keys = owned_keys(inputs, ids.iter().copied());
        // Pre-encode for the twin with the dictionary of the shard the
        // store will route each key to.
        let encoded: Vec<(usize, Vec<u8>)> = ids
            .iter()
            .map(|&id| {
                let shard = direct.store.shard_of(inputs.key(id));
                let hope = twins.gens[shard].hope();
                (shard, hope.encode_to(inputs.key(id), &mut scratch).unwrap_or(&[]).to_vec())
            })
            .collect();
        let mut lanes = Lanes { tracer, ns: vec![0.0; 2] };
        let mut got: Vec<u64> = Vec::with_capacity(CHUNK);
        for c in 0..chunks {
            let at = c * CHUNK;
            let chunk = lane_chunk(&ids, n, CHUNK, 0, c);
            let owned: Vec<Vec<u8>> =
                keys[at..at + chunk.len()].iter_mut().map(std::mem::take).collect();
            tally.at("store.insert");
            lanes.time(0, "store.insert", chunk.len(), || {
                for (key, &id) in owned.into_iter().zip(chunk) {
                    got.push(outcome(direct.store.insert(key, u64::from(id))));
                }
            });
            for (&id, &g) in chunk.iter().zip(&got) {
                tally.check(g, direct.shadow.insert(inputs.key(id), u64::from(id)));
            }
            got.clear();

            tally.at("index.insert");
            lanes.time(1, "index.insert", chunk.len(), || {
                for (i, &id) in chunk.iter().enumerate() {
                    let (shard, enc) = &encoded[at + i];
                    got.push(twins.encoded[*shard].insert(enc, u64::from(id)).unwrap_or(NONE));
                }
            });
            got.clear();
        }
        (lanes.ns, 2 * n as u64)
    });
    let m = lane_medians(&figures, n as f64);
    InsertLanes { store: m[0], index: m[1] }
}

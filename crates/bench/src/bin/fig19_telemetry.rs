//! `fig19_telemetry` — the telemetry-layer acceptance bench: drive the
//! fig18 mixed-traffic distribution shift through the serving stack with
//! sampled tracing on, then audit the store's own telemetry against
//! ground truth the driver observed directly.
//!
//! Where `fig18_serving_slo` gates *performance* (tail latency under a
//! hot-swap), this binary gates *observability*: after the run, the
//! `TelemetrySnapshot` embedded in the `ServingReport` must tell the
//! same story as the `SwapReport`s the driver collected by calling
//! `HopeStore::maintain` itself. The gates:
//!
//! * **every swap is logged** — each `SwapReport` `(shard, old_epoch,
//!   new_epoch)` has a matching `swap_end` event, and the `swap_begin` /
//!   `swap_end` counts agree with `store.shard.{i}.rebuilds`;
//! * **epochs are monotone** — per shard, successive `swap_end` events
//!   step the epoch strictly upward from the built generation, and event
//!   sequence numbers are strictly increasing in the snapshot;
//! * **nothing was dropped** — `dropped_events == 0` and no
//!   `rebuild_failed` events at the default capacity;
//! * **sampled tracing fired** — with `trace_sample_every = 64` the
//!   `serving.trace.{probe,decode}` histograms are non-empty, and the
//!   codec counters (`store.codec.*`) account the encode traffic;
//! * **exporters round-trip** — the Prometheus text rendering carries the
//!   per-shard epoch gauges and trace series the JSON snapshot has.
//!
//! **Determinism**: unlike fig18, no `Maintainer` thread runs — the
//! driver calls `maintain()` itself after each phase's flush barrier, so
//! swaps happen at deterministic stream positions. The `DIGEST` lines
//! carry only per-phase op counts (a pure function of the seed) and the
//! boolean verdicts, so two `--quick` runs print byte-identical digests;
//! CI diffs them. (Event and swap *counts* stay out of the digest: the
//! reservoir re-sample that seeds a rebuilt dictionary depends on insert
//! arrival order, which can flip a borderline second swap.)
//!
//! The snapshot itself is written to `BENCH_telemetry.json` (`--out PATH`
//! overrides) wrapped in the usual bench envelope.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig19_telemetry
//!         [-- --keys N --queries N --seed N --quick --out PATH]`

use std::collections::BTreeMap;
use std::sync::Arc;

use hope_bench::BenchConfig;
use hope_store::serving::{Request, Server, ServingConfig};
use hope_store::telemetry::{EventKind, TelemetrySnapshot};
use hope_store::{HopeStore, StoreConfig, SwapReport};
use hope_workloads::{MixedWorkload, StoreOp, TrafficSpec};

/// Every Nth request per worker runs the span-timed paths.
const TRACE_EVERY: u32 = 64;

/// Producer threads feeding the server (as in fig18).
const PRODUCERS: usize = 2;

const PHASE_NAMES: [&str; 3] = ["pre_shift", "shift", "post_shift"];

fn flag_value(cfg: &BenchConfig, flag: &str, default: &str) -> String {
    cfg.flags
        .iter()
        .position(|f| f == flag)
        .and_then(|i| cfg.flags.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn to_request(op: &StoreOp) -> Request {
    match op {
        StoreOp::Get(k) => Request::get(k.clone()),
        StoreOp::Insert(k, v) => Request::insert(k.clone(), *v),
        StoreOp::Scan(low, high, limit) => Request::scan(low.clone(), high.clone(), *limit),
    }
}

/// One named boolean verdict, printed diff-style on failure.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

fn main() {
    let cfg = BenchConfig::from_args();
    let out_path = flag_value(&cfg, "--out", "BENCH_telemetry.json");
    let ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(20) };

    println!(
        "# fig19_telemetry: {} initial keys, {} ops, seed {}, trace 1/{}, {} mode",
        cfg.keys,
        ops,
        cfg.seed,
        TRACE_EVERY,
        if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" }
    );
    let workload = MixedWorkload::generate(cfg.keys, ops, TrafficSpec::default(), cfg.seed);
    let shift_end = (workload.shift_at + ops / 5).min(ops);
    let bounds = [(0, workload.shift_at), (workload.shift_at, shift_end), (shift_end, ops)];

    let store_cfg = StoreConfig { min_observed_bytes: 1024, ..StoreConfig::default() };
    let shards = store_cfg.shards;
    let pairs = workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = Arc::new(HopeStore::build(store_cfg, pairs).expect("store build"));
    let serving = ServingConfig {
        workers: 4,
        queue_capacity: 1024,
        batch: 64,
        phases: 3,
        virtual_time: cfg.quick,
        trace_sample_every: TRACE_EVERY,
        faults: None,
        admission: None,
    };
    let server = Server::start(Arc::clone(&store), serving).expect("server start");
    let streams = workload.split_across(PRODUCERS);

    // No Maintainer thread: swaps happen only at the deterministic
    // maintain() calls below, so the event audit has exact ground truth.
    let mut swaps: Vec<SwapReport> = Vec::new();
    let mut submitted = 0u64;
    for (phase, &(lo, hi)) in bounds.iter().enumerate() {
        std::thread::scope(|s| {
            for stream in &streams {
                let server = &server;
                s.spawn(move || {
                    let a = stream.partition_point(|(i, _)| *i < lo);
                    let b = stream.partition_point(|(i, _)| *i < hi);
                    for (_, op) in &stream[a..b] {
                        server.submit_detached(to_request(op), phase).expect("server open");
                    }
                });
            }
        });
        server.flush();
        submitted += (hi - lo) as u64;
        let (reports, errors) = store.maintain();
        assert!(errors.is_empty(), "maintenance rebuild errors: {errors:?}");
        println!("# phase {}: {} swap(s)", PHASE_NAMES[phase], reports.len());
        swaps.extend(reports);
    }
    let report = server.shutdown();
    let snap = &report.telemetry;

    // --- Audit the snapshot against driver-side ground truth. ----------
    let swap_ends: Vec<_> = snap.events_of(EventKind::SwapEnd).collect();
    let swap_begins = snap.events_of(EventKind::SwapBegin).count();
    let built = snap.events_of(EventKind::GenerationBuilt).count();
    let failed = snap.events_of(EventKind::RebuildFailed).count();

    let all_logged = swaps.iter().all(|r| {
        swap_ends.iter().any(|e| {
            e.shard as usize == r.shard && e.prev_epoch == r.old_epoch && e.epoch == r.new_epoch
        })
    });

    let rebuilds: u64 =
        (0..shards).map(|i| snap.counter(&format!("store.shard.{i}.rebuilds")).unwrap_or(0)).sum();
    let counts_agree = rebuilds == swaps.len() as u64
        && swap_begins == swaps.len()
        && swap_ends.len() == swaps.len();

    let seq_monotone = snap.events.windows(2).all(|w| w[0].seq < w[1].seq);
    // Per shard, successive swap_end events (in snapshot = seq order) must
    // chain: each steps the epoch strictly up from the previous swap's.
    let mut last_epoch: BTreeMap<u32, u64> = BTreeMap::new();
    let epochs_monotone = swap_ends.iter().all(|e| {
        let chained = match last_epoch.insert(e.shard, e.epoch) {
            Some(prev) => e.prev_epoch == prev,
            None => true,
        };
        chained && e.epoch > e.prev_epoch
    });

    let traced = snap.histogram("serving.trace.probe").map_or(0, |h| h.count)
        + snap.histogram("serving.trace.decode").map_or(0, |h| h.count);
    let encoded = snap.gauge("store.codec.encode_keys").unwrap_or(0);

    let prom = snap.to_prometheus();
    let prom_ok = prom.contains("# TYPE store_shard_0_epoch gauge")
        && prom.contains("serving_trace_probe_count")
        && prom.contains("# TYPE store_codec_encode_keys gauge");

    let completed = report.total_ops();
    let errors: u64 = report.phases.iter().map(|p| p.errors).sum();
    let checks = [
        check(
            "exactly_once",
            completed == submitted && report.total_rejected() == 0 && errors == 0,
            format!(
                "completed {completed}/{submitted}, rejected {}, errors {errors}",
                report.total_rejected()
            ),
        ),
        check("swap_observed", !swaps.is_empty(), format!("{} swaps reported", swaps.len())),
        check(
            "all_swaps_logged",
            all_logged && counts_agree && failed == 0,
            format!(
                "{} reports vs {} swap_end / {} swap_begin events, rebuilds counter {}, {} failed",
                swaps.len(),
                swap_ends.len(),
                swap_begins,
                rebuilds,
                failed
            ),
        ),
        check(
            "epochs_monotone",
            epochs_monotone && seq_monotone,
            format!("{} swap_end events, seq_monotone={seq_monotone}", swap_ends.len()),
        ),
        check(
            "generation_built",
            built == shards,
            format!("{built} generation_built events for {shards} shards"),
        ),
        check(
            "no_drops",
            snap.dropped_events == 0,
            format!("{} events dropped", snap.dropped_events),
        ),
        check("trace_sampled", traced > 0, format!("{traced} spans recorded")),
        check("codec_counted", encoded > 0, format!("{encoded} keys encoded")),
        check("prometheus", prom_ok, format!("{} bytes rendered", prom.len())),
    ];
    let pass = checks.iter().all(|c| c.ok);

    println!(
        "\n# events: {} built, {} swap_begin, {} swap_end, {} failed, {} dropped",
        built,
        swap_begins,
        swap_ends.len(),
        failed,
        snap.dropped_events
    );
    println!(
        "# trace: {} probe spans, {} decode spans; codec: {} encoded keys",
        snap.histogram("serving.trace.probe").map_or(0, |h| h.count),
        snap.histogram("serving.trace.decode").map_or(0, |h| h.count),
        encoded
    );

    for (p, ph) in report.phases.iter().enumerate() {
        println!(
            "DIGEST phase={} ops={} gets={} inserts={} scans={} errors={}",
            PHASE_NAMES[p], ph.ops, ph.gets, ph.inserts, ph.scans, ph.errors
        );
    }
    let verdicts: Vec<String> = checks.iter().map(|c| format!("{}={}", c.name, c.ok)).collect();
    println!("DIGEST gates {} pass={pass}", verdicts.join(" "));

    write_json(&out_path, &cfg, ops, swaps.len(), pass, snap);
    println!("# wrote {out_path}");
    println!("# fig19_telemetry — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        for c in checks.iter().filter(|c| !c.ok) {
            println!("- {}  (required)", c.name);
            println!("+ {}", c.detail);
        }
        std::process::exit(1);
    }
}

/// Hand-rolled JSON envelope embedding [`TelemetrySnapshot::to_json`]
/// (the workspace builds offline; no serde).
fn write_json(
    path: &str,
    cfg: &BenchConfig,
    ops: usize,
    swaps: usize,
    pass: bool,
    snap: &TelemetrySnapshot,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig19_telemetry\",\n  \"dataset\": \"email-mixed-traffic\",\n");
    s.push_str(&format!(
        "  \"keys\": {},\n  \"ops\": {},\n  \"seed\": {},\n",
        cfg.keys, ops, cfg.seed
    ));
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!("  \"trace_sample_every\": {TRACE_EVERY},\n"));
    s.push_str(&format!("  \"swaps\": {swaps},\n"));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str("  \"telemetry\": ");
    // Indent the embedded snapshot to keep the envelope readable.
    let body = snap.to_json();
    s.push_str(body.trim_end());
    s.push_str("\n}\n");
    std::fs::write(path, s).expect("write BENCH_telemetry.json");
}

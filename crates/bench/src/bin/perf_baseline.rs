//! `perf_baseline` — the repo's recorded scan / telemetry-overhead
//! performance trajectory.
//!
//! Builds a `hope_store` over the Email corpus and times two subsystems:
//!
//! * **scan** (`BENCH_scan.json`, `"scan"` / `"cursor"`) — `hope_store`
//!   bounded range queries, in ns per hit: the allocating collect
//!   (`range_into`), the PR 4 per-shard visitor path
//!   (`Generation::range_with`, reconstructed exactly), and the v1
//!   [`hope_store::RangeCursor`] in both its push (`for_each`) and pull
//!   (`next_hit`) forms. The cursor is gated at ≥ 1.0× the visitor
//!   path — the v1 range redesign must not cost scan throughput — and
//!   pull mode at ≥ 0.85× push mode (the chunk path must stay lean).
//! * **telemetry** (`BENCH_scan.json`, `"telemetry_overhead"`) — the
//!   sampled-tracing get loop against the plain one.
//!
//! Encode and decode each have one implementation (`Dict::encode_into`,
//! `FastDecoder::decode_bits_to`), so there is no trajectory of
//! alternatives to record here: their cost is the whole-store benchmark's
//! `hope.encode_ns` / `hope.encode_pair_ns` / `hope.batch_encode_key_ns` /
//! `hope.decode_ns` / `hope.build_s` / `hope.dict_bytes` (`benchmark/`,
//! DESIGN.md "Reading `BENCH_*.json`").
//!
//! The output path defaults to `BENCH_scan.json` (override with
//! `--out-scan PATH`). The binary exits non-zero when a headline target
//! fails:
//!
//! * the cursor gates above;
//! * sampled tracing (1 request in [`TRACE_SAMPLE_EVERY`] through
//!   [`hope_store::HopeStore::get_traced`]) keeps ≥
//!   [`TARGET_TELEMETRY_RATIO`] of the untraced point-lookup
//!   throughput — the telemetry layer's overhead budget.
//!
//! Gate failures print diff-style (`- required` / `+ measured`) so CI
//! logs show exactly which metric regressed and by how much.
//!
//! Usage: `cargo run --release -p hope_bench --bin perf_baseline
//!         [-- --keys N --quick --out-scan BENCH_scan.json]`

use std::hint::black_box;
use std::time::Duration;

use hope_bench::{load_dataset, ns_per_op, time, BenchConfig};
use hope_store::telemetry::TraceSampler;
use hope_store::{HopeStore, StoreConfig};
use hope_workloads::Dataset;

/// Headline target: the v1 `RangeCursor` scan (better of push/pull) vs
/// the PR 4 per-shard visitor path it replaced, measured in the same run.
const TARGET_CURSOR_RATIO: f64 = 1.0;

/// Headline target: the cursor's pull mode (`next_hit`) vs its push mode
/// (`for_each`) in the same run. Pull buffers chunks and serves borrows,
/// so some overhead is structural — but it must stay within 15% of push
/// (the PR 6 chunk-path rework brought it from 0.74× to above this gate,
/// and the gate keeps it from regressing silently).
const TARGET_PULL_RATIO: f64 = 0.85;

/// Headline target: the sampled-tracing get loop vs the plain get loop.
/// DESIGN.md budgets the telemetry layer at ≤ 2% hot-path overhead, so
/// the traced loop must keep at least this fraction of the untraced
/// throughput.
const TARGET_TELEMETRY_RATIO: f64 = 0.98;

/// Sampling period for the overhead measurement — the same 1-in-64 the
/// serving benches (`fig19_telemetry`) run with.
const TRACE_SAMPLE_EVERY: u32 = 64;

/// Median-of-5 nanoseconds per hit for one scan loop (medians damp the
/// allocator and frequency noise of shared machines).
fn measure(hits: usize, mut run: impl FnMut() -> usize) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let (n, d) = time(&mut run);
            assert!(black_box(n) > 0 || hits == 0);
            ns_per_op(d, hits)
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

struct ScanStats {
    hits: usize,
    range_alloc: f64,
    visitor_pr4: f64,
    cursor_push: f64,
    cursor_pull: f64,
}

impl ScanStats {
    /// Cursor speedup vs the PR 4 visitor path (≥ 1.0 = no regression),
    /// taking the cursor's better scan mode for this workload shape.
    fn cursor_ratio(&self) -> f64 {
        self.visitor_pr4 / self.cursor_push.min(self.cursor_pull)
    }

    /// Pull-mode throughput relative to push mode (1.0 = parity; the
    /// gate requires ≥ [`TARGET_PULL_RATIO`]).
    fn pull_ratio(&self) -> f64 {
        self.cursor_push / self.cursor_pull
    }
}

/// One gating threshold: a measured value that must stay at or above its
/// target for the binary to exit 0.
struct Gate {
    name: &'static str,
    actual: f64,
    target: f64,
    /// What the number is, for the failure message.
    detail: String,
}

impl Gate {
    fn pass(&self) -> bool {
        self.actual >= self.target
    }
}

/// Print every gate verdict; failures come out diff-style (required vs
/// measured) so a CI log shows exactly which metric regressed and by how
/// much. Returns the overall verdict.
fn report_gates(gates: &[Gate]) -> bool {
    let mut pass = true;
    for g in gates {
        if g.pass() {
            println!("# gate {:28} {:>8.4} >= {:.4}  ok", g.name, g.actual, g.target);
        } else {
            pass = false;
            println!("# gate {:28} REGRESSED ({})", g.name, g.detail);
            println!("- {:28} >= {:.4}  (required)", g.name, g.target);
            println!(
                "+ {:28} == {:.4}  (measured, {:+.1}%)",
                g.name,
                g.actual,
                (g.actual / g.target - 1.0) * 100.0
            );
        }
    }
    pass
}

/// Store scan trajectory over bounded scans of ~64 hits each: the
/// allocating collect, the PR 4 per-shard visitor path (reconstructed
/// from the public `Generation::range_with` exactly as the pre-v1
/// `HopeStore::range_with` dispatched it), and the v1 cursor in both
/// scan modes.
fn bench_scan(keys: &[Vec<u8>]) -> ScanStats {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    let pairs = sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = HopeStore::build(StoreConfig::default(), pairs).expect("store build");
    let span = 64usize;
    let starts: Vec<usize> =
        (0..sorted.len().saturating_sub(span)).step_by(97).take(2_000).collect();
    let hits: usize = starts.len() * span;

    // `measure` divides by the hit count, so every scan shape shares one
    // protocol (median-of-5, total_cmp sort, per-hit divisor).
    let range_alloc = measure(hits, || {
        let mut n = 0usize;
        let mut out = Vec::new();
        for &s in &starts {
            out.clear();
            n += store
                .range_into(&sorted[s], &sorted[s + span - 1], span, &mut out)
                .expect("valid bounds");
        }
        assert_eq!(n, hits);
        n
    });

    // The PR 4 visitor path, reconstructed: route the bound shards and
    // run each shard generation's zero-alloc visitor directly — plus the
    // two per-hit source-bound memcmps the PR 4 engine performed on
    // every hit (v1 proved those are only needed on boundary slots and
    // dropped them from interior hits, so the old cost structure is
    // re-added in the callback to keep the baseline honest).
    let visitor_pr4 = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            let (low, high) = (&sorted[s], &sorted[s + span - 1]);
            let (s0, s1) = (store.shard_of(low), store.shard_of(high));
            let mut m = 0usize;
            for shard in s0..=s1 {
                if m == span {
                    break;
                }
                let generation = store.generation(shard).expect("shard in range");
                m += generation
                    .range_with(low, high, span - m, |k, _v| {
                        black_box(k >= low.as_slice() && k <= high.as_slice());
                        bytes += k.len();
                    })
                    .expect("valid bounds");
            }
            n += m;
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    // v1 push: the cursor's for_each adapter (what range_with now wraps).
    let cursor_push = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            n += store
                .range_with(&sorted[s], &sorted[s + span - 1], span, |k, _v| {
                    bytes += k.len();
                })
                .expect("valid bounds");
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    // v1 pull: the lending next_hit loop.
    let cursor_pull = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            let mut cur =
                store.cursor(&sorted[s], &sorted[s + span - 1], span).expect("valid bounds");
            while let Some((k, _v)) = cur.next_hit() {
                bytes += k.len();
                n += 1;
            }
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    ScanStats { hits, range_alloc, visitor_pr4, cursor_push, cursor_pull }
}

struct TelemetryOverhead {
    probes: usize,
    /// ns per get, untraced `HopeStore::get` loop (fastest rep).
    plain_ns: f64,
    /// ns per get with a 1-in-[`TRACE_SAMPLE_EVERY`] sampler diverting
    /// requests to `get_traced` and recording the spans, worker-style
    /// (fastest rep).
    sampled_ns: f64,
    /// Median across reps of the per-rep `plain/sampled` total ratio —
    /// the gate statistic (chunk-paired timing cancels machine-state
    /// drift a back-to-back min-vs-min cannot).
    ratio: f64,
}

impl TelemetryOverhead {
    /// Sampled-loop throughput as a fraction of the plain loop's (1.0 =
    /// tracing is free; the gate requires ≥ [`TARGET_TELEMETRY_RATIO`]).
    fn ratio(&self) -> f64 {
        self.ratio
    }
}

/// Cost of sampled tracing on the store's point-lookup path: the same
/// probe loop untraced, then with a worker-style [`TraceSampler`]
/// sending every 64th get through `get_traced` and recording its spans
/// into registry histograms.
fn bench_telemetry_overhead(keys: &[Vec<u8>]) -> TelemetryOverhead {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    let pairs = sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = HopeStore::build(StoreConfig::default(), pairs).expect("store build");
    let probes: Vec<&[u8]> = sorted.iter().step_by(3).map(|k| k.as_slice()).collect();

    let tel = store.telemetry_handle();
    let encode_h = tel.registry().histo("serving.trace.encode");
    let probe_h = tel.registry().histo("serving.trace.probe");
    let decode_h = tel.registry().histo("serving.trace.decode");
    let mut sampler = TraceSampler::new(TRACE_SAMPLE_EVERY);

    let run_plain = |chunk: &[&[u8]]| {
        let mut n = 0usize;
        for &k in chunk {
            n += store.get(k).expect("valid key").is_some() as usize;
        }
        n
    };
    let mut run_sampled = |chunk: &[&[u8]]| {
        let mut n = 0usize;
        for &k in chunk {
            n += if sampler.tick() {
                let (v, spans) = store.get_traced(k).expect("valid key");
                encode_h.record(spans.encode_ns);
                probe_h.record(spans.probe_ns);
                decode_h.record(spans.decode_ns);
                v.is_some()
            } else {
                store.get(k).expect("valid key").is_some()
            } as usize;
        }
        n
    };

    // The two loops differ by single-digit nanoseconds per get while the
    // machine drifts by far more than that between back-to-back passes
    // (turbo decay, interrupts, cache/NUMA state), so whole-pass timing
    // cannot resolve the ratio. Instead each rep walks the probe set in
    // ~32 chunks, timing the plain and sampled loop back to back *per
    // chunk* (alternating which goes first), so both loops accumulate
    // their totals under near-identical machine state; the gate statistic
    // is the median across reps of the per-rep total ratio, after one
    // untimed warmup rep.
    let chunk_len = probes.len().div_ceil(32).max(1);
    let chunks: Vec<&[&[u8]]> = probes.chunks(chunk_len).collect();
    black_box(run_plain(&probes));
    black_box(run_sampled(&probes));
    let (mut plain_ns, mut sampled_ns) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(5);
    for rep in 0..5 {
        let (mut plain_d, mut sampled_d) = (Duration::ZERO, Duration::ZERO);
        let (mut plain_found, mut sampled_found) = (0usize, 0usize);
        for (ci, chunk) in chunks.iter().enumerate() {
            if (rep + ci) % 2 == 0 {
                let (n, d) = time(|| run_plain(chunk));
                plain_found += n;
                plain_d += d;
                let (n, d) = time(|| run_sampled(chunk));
                sampled_found += n;
                sampled_d += d;
            } else {
                let (n, d) = time(|| run_sampled(chunk));
                sampled_found += n;
                sampled_d += d;
                let (n, d) = time(|| run_plain(chunk));
                plain_found += n;
                plain_d += d;
            }
        }
        assert_eq!(black_box(plain_found), probes.len(), "every probe key must be present");
        assert_eq!(black_box(sampled_found), probes.len(), "every probe key must be present");
        let p = ns_per_op(plain_d, probes.len());
        let s = ns_per_op(sampled_d, probes.len());
        plain_ns = plain_ns.min(p);
        sampled_ns = sampled_ns.min(s);
        if std::env::var_os("OVERHEAD_DEBUG").is_some() {
            eprintln!("rep {rep}: plain {p:.1} sampled {s:.1} ratio {:.4}", p / s);
        }
        ratios.push(p / s);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];

    TelemetryOverhead { probes: probes.len(), plain_ns, sampled_ns, ratio }
}

fn out_flag(cfg: &BenchConfig, flag: &str, default: &str) -> String {
    cfg.flags
        .iter()
        .position(|f| f == flag)
        .and_then(|i| cfg.flags.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let cfg = BenchConfig::from_args();
    let out_scan = out_flag(&cfg, "--out-scan", "BENCH_scan.json");

    let keys = load_dataset(Dataset::Email, &cfg);

    println!("# perf_baseline: store scan trajectory (email, {} keys, ns per hit)", keys.len());
    let scan = bench_scan(&keys);
    println!(
        "{:>8} hits: collect {:.1} ns/hit, pr4-visitor {:.1} ns/hit, cursor push {:.1} ns/hit, \
         cursor pull {:.1} ns/hit (cursor vs visitor {:.2}x)",
        scan.hits,
        scan.range_alloc,
        scan.visitor_pr4,
        scan.cursor_push,
        scan.cursor_pull,
        scan.cursor_ratio()
    );

    println!("\n# telemetry overhead (1/{TRACE_SAMPLE_EVERY} sampled tracing, get path)");
    let overhead = bench_telemetry_overhead(&keys);
    println!(
        "{:>8} probes: plain {:.1} ns/get, sampled {:.1} ns/get ({:.4}x throughput)",
        overhead.probes,
        overhead.plain_ns,
        overhead.sampled_ns,
        overhead.ratio()
    );

    // Headline gates.
    let gates = [
        Gate {
            name: "cursor_vs_visitor_ratio",
            actual: scan.cursor_ratio(),
            target: TARGET_CURSOR_RATIO,
            detail: format!(
                "cursor best {:.1} ns/hit vs pr4 visitor {:.1} ns/hit",
                scan.cursor_push.min(scan.cursor_pull),
                scan.visitor_pr4
            ),
        },
        Gate {
            name: "cursor_pull_ratio",
            actual: scan.pull_ratio(),
            target: TARGET_PULL_RATIO,
            detail: format!(
                "cursor_pull {:.1} ns/hit vs cursor_push {:.1} ns/hit",
                scan.cursor_pull, scan.cursor_push
            ),
        },
        Gate {
            name: "telemetry_overhead_ratio",
            actual: overhead.ratio(),
            target: TARGET_TELEMETRY_RATIO,
            detail: format!(
                "sampled {:.1} ns/get vs plain {:.1} ns/get",
                overhead.sampled_ns, overhead.plain_ns
            ),
        },
    ];
    println!();
    let pass = report_gates(&gates);

    write_scan_json(&out_scan, &cfg, &scan, &overhead, pass);
    println!("# wrote {out_scan}");
    println!("# perf_baseline — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        std::process::exit(1);
    }
}

/// Hand-rolled JSON writer (the workspace builds offline; no serde).
fn write_scan_json(
    path: &str,
    cfg: &BenchConfig,
    scan: &ScanStats,
    overhead: &TelemetryOverhead,
    pass: bool,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"perf_baseline\",\n  \"dataset\": \"email\",\n");
    s.push_str(&format!("  \"keys\": {},\n  \"seed\": {},\n", cfg.keys, cfg.seed));
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str(&format!(
        "  \"scan\": {{\"units\": \"ns_per_hit\", \"hits\": {}, \"range_alloc\": {:.4}, \
         \"range_with\": {:.4}, \"speedup\": {:.4}}},\n",
        scan.hits,
        scan.range_alloc,
        scan.visitor_pr4,
        scan.range_alloc / scan.visitor_pr4
    ));
    s.push_str(&format!(
        "  \"cursor\": {{\"units\": \"ns_per_hit\", \"hits\": {}, \
         \"visitor_pr4\": {:.4}, \"cursor_push\": {:.4}, \"cursor_pull\": {:.4}, \
         \"target_ratio_vs_visitor\": {TARGET_CURSOR_RATIO}, \
         \"ratio_vs_visitor\": {:.4}, \
         \"target_pull_ratio\": {TARGET_PULL_RATIO}, \
         \"pull_ratio\": {:.4}}},\n",
        scan.hits,
        scan.visitor_pr4,
        scan.cursor_push,
        scan.cursor_pull,
        scan.cursor_ratio(),
        scan.pull_ratio()
    ));
    s.push_str(&format!(
        "  \"telemetry_overhead\": {{\"units\": \"ns_per_get\", \"probes\": {}, \
         \"sample_every\": {TRACE_SAMPLE_EVERY}, \"plain\": {:.4}, \"sampled\": {:.4}, \
         \"target_ratio\": {TARGET_TELEMETRY_RATIO}, \"ratio\": {:.4}}}\n",
        overhead.probes,
        overhead.plain_ns,
        overhead.sampled_ns,
        overhead.ratio()
    ));
    s.push_str("}\n");
    std::fs::write(path, s).expect("write BENCH_scan.json");
}

//! The benchmark's fixed tables: the four workloads and every metric name
//! with its unit and direction. `BENCHMARK.json` lists the same names; a
//! test (`tests/contract.rs`) keeps the two in step.

use hope::Scheme;
use hope_store::Backend;
use hope_workloads::Dataset;

/// Operation mix of a workload's mixed stream, in percent; the remainder
/// after gets and inserts are scans of exactly `scan_len` hits.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get_pct: u32,
    pub insert_pct: u32,
    pub scan_len: usize,
}

/// One workload: inputs, store configuration and traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Load from Email-A only and switch the mixed stream's insert keys
    /// to Email-B at half the stream, calling `maintain()` every round.
    pub drift: bool,
    /// Keys bulk-loaded at full size.
    pub keys: usize,
    pub scheme: Scheme,
    pub backend: Backend,
    pub mix: Mix,
    /// Operations per timed round of the mixed stream at full size.
    pub mix_round_ops: usize,
    /// Requests of the traced run's saturated window at full size (about
    /// half a second of the worker's time).
    pub served_window_ops: usize,
    /// Arrival rate of the traced run's open-loop windows, requests per
    /// second: low enough that the worker is ≤ ~25 % busy.
    pub served_rate: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_email_btree",
        dataset: Dataset::Email,
        drift: false,
        keys: 300_000,
        scheme: Scheme::DoubleChar,
        backend: Backend::BTree,
        mix: Mix { get_pct: 90, insert_pct: 5, scan_len: 50 },
        mix_round_ops: 40_000,
        served_window_ops: 150_000,
        served_rate: 50_000,
    },
    Workload {
        name: "encode_url_art",
        dataset: Dataset::Url,
        drift: false,
        keys: 100_000,
        scheme: Scheme::AlmImproved,
        backend: Backend::Art,
        mix: Mix { get_pct: 90, insert_pct: 5, scan_len: 50 },
        mix_round_ops: 30_000,
        served_window_ops: 75_000,
        served_rate: 25_000,
    },
    Workload {
        name: "scan_wiki_hot",
        dataset: Dataset::Wiki,
        drift: false,
        keys: 300_000,
        scheme: Scheme::ThreeGrams,
        backend: Backend::Hot,
        mix: Mix { get_pct: 20, insert_pct: 5, scan_len: 100 },
        mix_round_ops: 8_000,
        served_window_ops: 60_000,
        served_rate: 12_500,
    },
    Workload {
        name: "write_drift_btree",
        dataset: Dataset::Email,
        drift: true,
        keys: 150_000,
        scheme: Scheme::DoubleChar,
        backend: Backend::BTree,
        mix: Mix { get_pct: 30, insert_pct: 60, scan_len: 50 },
        mix_round_ops: 30_000,
        served_window_ops: 60_000,
        served_rate: 25_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one run does. Work is fixed by these counts, never by
/// wall time, so two runs with the same arguments do identical work.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divide every size (keys, ops per round) by this.
    pub shrink: usize,
    /// Timed rounds per phase, after one untimed warm-up round.
    pub rounds: usize,
}

/// `--seconds` the round counts below are sized for.
pub const DEFAULT_SECONDS: u64 = 20;

impl Scale {
    /// Full size; `--seconds` scales the number of rounds (never the size
    /// of one), so a run's length follows it while each round's work is
    /// unchanged. `main` refuses a `seconds` that gives fewer than nine.
    pub fn full(seconds: u64) -> Scale {
        let rounds = (11 * seconds + DEFAULT_SECONDS / 2) / DEFAULT_SECONDS;
        Scale { shrink: 1, rounds: rounds as usize }
    }

    /// `--smoke`: 1/50 size, 3 rounds, all checks on.
    pub fn smoke() -> Scale {
        Scale { shrink: 50, rounds: 3 }
    }

    pub fn of(&self, full_size: usize) -> usize {
        (full_size / self.shrink).max(1)
    }
}

/// Name, unit and direction of one reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher" }
}

/// Unit of the `*_vs_map` figures: multiples of the time `std`'s
/// `BTreeMap`, holding the same keys uncompressed, takes for the same
/// operations in the same round.
pub const VS_MAP: &str = "x_std_BTreeMap";

/// What a user of the store sees; printed by an untraced run.
pub const END_TO_END: [MetricDef; 8] = [
    lower("setup_s", "s"),
    lower("get_vs_map", VS_MAP),
    lower("scan_vs_map", VS_MAP),
    lower("insert_vs_map", VS_MAP),
    lower("mix_vs_map", VS_MAP),
    lower("rebuild_vs_map", VS_MAP),
    lower("mem_vs_raw", "ratio"),
    lower("stored_per_user_byte", "ratio"),
];

/// The store's own time behind each `*_vs_map` ratio, in the order
/// `run.rs` measures them. An untraced run prints them below its metrics
/// (not gated: on a shared box they drift by a quarter on their own); a
/// traced run reports the same names among [`PER_LAYER`].
pub const ABSOLUTE: [MetricDef; 5] = [
    lower("get_ns", "ns"),
    lower("scan_hit_ns", "ns/hit"),
    lower("insert_ns", "ns"),
    higher("mix_ops_per_s", "1/s"),
    lower("rebuild_key_ns", "ns/key"),
];

/// Single-layer figures, and the whole store's absolute ones; printed by
/// a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 54] = [
    // the whole store, in absolute terms (the issue's end-to-end names)
    lower("get_ns", "ns"),
    lower("scan_hit_ns", "ns/hit"),
    lower("insert_ns", "ns"),
    higher("mix_ops_per_s", "1/s"),
    lower("rebuild_key_ns", "ns/key"),
    lower("served_p50_ns", "ns"),
    // hope (crates/core)
    lower("hope.encode_ns", "ns"),
    lower("hope.encode_pair_ns", "ns"),
    lower("hope.decode_ns", "ns"),
    lower("hope.batch_encode_key_ns", "ns/key"),
    lower("hope.build_s", "s"),
    higher("hope.cpr", "ratio"),
    lower("hope.dict_bytes", "bytes"),
    // index (the workload's backend, through OrderedIndex)
    lower("index.get_ns", "ns"),
    lower("index.range_hit_ns", "ns/hit"),
    lower("index.insert_ns", "ns"),
    lower("index.bulk_load_key_ns", "ns/key"),
    lower("index.bytes_per_key", "bytes/key"),
    lower("index.raw_get_ns", "ns"),
    lower("index.raw_range_hit_ns", "ns/hit"),
    lower("index.raw_bytes_per_key", "bytes/key"),
    lower("baseline.get_vs_raw", "ratio"),
    lower("baseline.scan_vs_raw", "ratio"),
    // generation
    lower("generation.get_ns", "ns"),
    lower("generation.resolve_self_ns", "ns"),
    lower("generation.range_hit_ns", "ns/hit"),
    lower("generation.bytes_per_key", "bytes/key"),
    lower("generation.unaccounted_bytes_per_key", "bytes/key"),
    // shard (routing, reservoir, drift, rebuild — reached via HopeStore)
    lower("store.route_self_ns", "ns"),
    lower("store.get_miss_ns", "ns"),
    lower("shard.insert_self_ns", "ns"),
    higher("shard.rebuild.incremental_share", "ratio"),
    lower("shard.rebuild.reencoded_frac", "ratio"),
    lower("shard.maintain_swaps", "count"),
    lower("shard.maintain_s_total", "s"),
    // cursor
    lower("cursor.pull_hit_ns", "ns/hit"),
    lower("cursor.open_ns", "ns"),
    // versioned
    lower("versioned.capture_ns", "ns"),
    lower("versioned.get_ns", "ns"),
    lower("versioned.range_hit_ns", "ns/hit"),
    // serving
    lower("serving.busy_ns_per_op", "ns"),
    lower("serving.handoff_ns", "ns"),
    lower("serving.p99_ns", "ns"),
    lower("serving.p50_at_2x_ns", "ns"),
    higher("serving.saturated_ops_per_s", "1/s"),
    lower("serving.late_mean_ns", "ns"),
    lower("serving.late_max_ns", "ns"),
    lower("serving.peak_depth", "count"),
    lower("serving.rejected", "count"),
    // telemetry
    lower("telemetry.get_traced_ns", "ns"),
    lower("telemetry.snapshot_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    lower("get_p99_ns", "ns"),
    lower("insert_p99_ns", "ns"),
];

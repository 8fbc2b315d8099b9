//! # hope_bench — the benchmark harness for every table and figure
//!
//! One binary per paper table/figure (see DESIGN.md for the full index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig08_microbench` | Fig 8 (CPR / latency / dictionary memory vs size) + Table 1 |
//! | `fig09_build_time` | Fig 9 (build-time breakdown) |
//! | `fig10_surf_ycsb` | Fig 10 (SuRF point/range/build/height) + §5 model |
//! | `fig11_surf_fpr` | Fig 11 (SuRF false-positive rate) |
//! | `fig12_tree_point` | Fig 12 (point query latency vs memory, 4 trees) |
//! | `fig13_sample_size` | Fig 13 / Appendix A (sample-size sensitivity) |
//! | `fig14_batch_encode` | Fig 14 / Appendix B (batch encoding) |
//! | `fig15_distribution_shift` | Fig 15 / Appendix C (key distribution change) |
//! | `fig16_tree_range_insert` | Fig 16 / Appendix D (range + insert, 4 trees) |
//! | `fig17_store_shift` | Extension: `hope_store` dictionary hot-swap under shift |
//! | `drill` | Extension: the five serving drills (`slo`, `telemetry`, `faults`, `adaptive`, `snapshot` — see [`drills`]) → `BENCH_drills.json` |
//!
//! Every binary accepts `--keys N`, `--queries N`, `--seed N` and
//! `--quick`; run with `cargo run --release -p hope_bench --bin <name>`.
//! The drills are rows of one scenario table ([`drills::SCENARIOS`])
//! over one pass driver, gate list, `DIGEST` formatter and JSON writer
//! ([`harness`]).

#![warn(missing_docs)]

pub mod drills;
pub mod harness;

use std::time::{Duration, Instant};

use hope::{Hope, HopeBuilder, Scheme};
use hope_workloads::{generate, sample_keys, Dataset};

/// Command-line configuration shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of dataset keys to generate (paper: 14–25M; default scaled
    /// for laptop runs).
    pub keys: usize,
    /// Number of measured queries (paper: 10M).
    pub queries: usize,
    /// RNG seed for datasets and workloads.
    pub seed: u64,
    /// Quick mode: shrink everything for smoke runs.
    pub quick: bool,
    /// Extra mode flags (binary-specific, e.g. `--model`, `--table1`).
    pub flags: Vec<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { keys: 200_000, queries: 100_000, seed: 42, quick: false, flags: Vec::new() }
    }
}

/// The numeric value of `flag`, or why there is none.
fn numeric<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: `{value}` is not a number"))
}

/// Print a command-line error and the usage line, then exit with status 2.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

impl BenchConfig {
    /// Parse an argument list (without the program name). Arguments
    /// other than the four shared flags are collected into
    /// [`BenchConfig::flags`] for the binary to interpret.
    ///
    /// # Errors
    ///
    /// A message naming the flag whose value is missing or not a number.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<BenchConfig, String> {
        let mut cfg = BenchConfig::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--keys" => cfg.keys = numeric(&arg, args.next())?,
                "--queries" => cfg.queries = numeric(&arg, args.next())?,
                "--seed" => cfg.seed = numeric(&arg, args.next())?,
                "--quick" => cfg.quick = true,
                _ => cfg.flags.push(arg),
            }
        }
        if cfg.quick {
            cfg.keys = cfg.keys.min(20_000);
            cfg.queries = cfg.queries.min(10_000);
        }
        Ok(cfg)
    }

    /// [`BenchConfig::parse`] over `std::env::args`; a malformed command
    /// line prints the error plus a usage line and exits with status 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let binary = args.next().unwrap_or_default();
        Self::parse(args).unwrap_or_else(|e| {
            usage_exit(&e, &format!("{binary} [--keys N] [--queries N] [--seed N] [--quick] […]"))
        })
    }

    /// True if a binary-specific flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The build-phase sample: 1% of the keys (paper default), floored at
    /// 5 000 so tiny runs still exercise the larger dictionaries.
    pub fn sample(&self, keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let pct = ((5_000.0 / keys.len() as f64) * 100.0).clamp(1.0, 100.0);
        sample_keys(keys, pct, self.seed ^ 0x5A3917)
    }
}

/// The six HOPE configurations §7 evaluates on every tree, with their
/// dictionary-size limits: Single-Char, Double-Char, 3-Grams (64K),
/// 4-Grams (64K), ALM-Improved (4K), ALM-Improved (64K).
pub fn paper_tree_configs() -> Vec<(Scheme, usize, String)> {
    vec![
        (Scheme::SingleChar, 256, "Single-Char".into()),
        (Scheme::DoubleChar, 65792, "Double-Char".into()),
        (Scheme::ThreeGrams, 1 << 16, "3-Grams (64K)".into()),
        (Scheme::FourGrams, 1 << 16, "4-Grams (64K)".into()),
        (Scheme::AlmImproved, 1 << 12, "ALM-Improved (4K)".into()),
        (Scheme::AlmImproved, 1 << 16, "ALM-Improved (64K)".into()),
    ]
}

/// Build a HOPE compressor for one configuration.
pub fn build_hope(scheme: Scheme, dict_limit: usize, sample: &[Vec<u8>]) -> Hope {
    HopeBuilder::new(scheme)
        .dictionary_entries(dict_limit)
        .build_from_sample(sample.iter().cloned())
        .expect("HOPE build")
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Nanoseconds per operation.
pub fn ns_per_op(d: Duration, ops: usize) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    d.as_nanos() as f64 / ops as f64
}

/// Microseconds per operation.
pub fn us_per_op(d: Duration, ops: usize) -> f64 {
    ns_per_op(d, ops) / 1000.0
}

/// Bytes → MB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Generate and return a dataset, reporting its statistics.
pub fn load_dataset(dataset: Dataset, cfg: &BenchConfig) -> Vec<Vec<u8>> {
    let (keys, d) = time(|| generate(dataset, cfg.keys, cfg.seed));
    let avg: f64 = keys.iter().map(|k| k.len()).sum::<usize>() as f64 / keys.len() as f64;
    eprintln!("# dataset {dataset}: {} keys, avg len {avg:.1} B, generated in {d:?}", keys.len());
    keys
}

/// Uniform façade over the four updatable trees of Figures 12/16.
pub enum AnyTree {
    /// Adaptive Radix Tree.
    Art(hope_art::Art),
    /// Height-optimized trie.
    Hot(hope_hot::Hot),
    /// Plain TLX-style B+tree.
    BTree(hope_btree::BPlusTree),
    /// Prefix B+tree.
    PrefixBTree(hope_btree::BPlusTree),
}

/// The four tree kinds of Figures 12/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Adaptive Radix Tree.
    Art,
    /// Height-optimized trie.
    Hot,
    /// Plain B+tree.
    BTree,
    /// Prefix B+tree.
    PrefixBTree,
}

impl TreeKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [TreeKind; 4] =
        [TreeKind::Art, TreeKind::Hot, TreeKind::BTree, TreeKind::PrefixBTree];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TreeKind::Art => "ART",
            TreeKind::Hot => "HOT",
            TreeKind::BTree => "B+tree",
            TreeKind::PrefixBTree => "Prefix B+tree",
        }
    }

    /// Fresh empty tree.
    pub fn new_tree(&self) -> AnyTree {
        match self {
            TreeKind::Art => AnyTree::Art(hope_art::Art::new()),
            TreeKind::Hot => AnyTree::Hot(hope_hot::Hot::new()),
            TreeKind::BTree => AnyTree::BTree(hope_btree::BPlusTree::plain()),
            TreeKind::PrefixBTree => AnyTree::PrefixBTree(hope_btree::BPlusTree::prefix()),
        }
    }
}

impl AnyTree {
    /// Insert a key/value pair.
    pub fn insert(&mut self, key: &[u8], value: u64) {
        match self {
            AnyTree::Art(t) => {
                t.insert(key, value);
            }
            AnyTree::Hot(t) => {
                t.insert(key, value);
            }
            AnyTree::BTree(t) | AnyTree::PrefixBTree(t) => {
                t.insert(key, value);
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        match self {
            AnyTree::Art(t) => t.get(key),
            AnyTree::Hot(t) => t.get(key),
            AnyTree::BTree(t) | AnyTree::PrefixBTree(t) => t.get(key),
        }
    }

    /// Range scan from `start` for up to `count` values.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<u64> {
        match self {
            AnyTree::Art(t) => t.scan(start, count),
            AnyTree::Hot(t) => t.scan(start, count),
            AnyTree::BTree(t) | AnyTree::PrefixBTree(t) => t.scan(start, count),
        }
    }

    /// Allocation-free scan: append up to `count` values to a reused
    /// buffer (the YCSB-E hot loop of `fig16` runs on this).
    pub fn scan_into(&self, start: &[u8], count: usize, out: &mut Vec<u64>) {
        match self {
            AnyTree::Art(t) => t.scan_into(start, count, out),
            AnyTree::Hot(t) => t.scan_into(start, count, out),
            AnyTree::BTree(t) | AnyTree::PrefixBTree(t) => t.scan_into(start, count, out),
        }
    }

    /// Index memory. For ART the leaf records stand in for the value
    /// pointers (8 B each) plus key bytes; HOT counts its partial-key
    /// compound nodes plus 8 B of value pointer per key (the record heap's
    /// full keys belong to the table, not the index) — matching how §7
    /// discusses the two.
    pub fn memory_bytes(&self) -> usize {
        match self {
            AnyTree::Art(t) => t.memory_bytes(),
            AnyTree::Hot(t) => t.index_memory_bytes() + t.len() * 8,
            AnyTree::BTree(t) | AnyTree::PrefixBTree(t) => t.memory_bytes(),
        }
    }
}

/// Encoded (or raw) key set for one tree configuration.
pub struct PreparedKeys {
    /// The (possibly compressed) key bytes, index-aligned with the input.
    pub keys: Vec<Vec<u8>>,
    /// HOPE compressor, when compression is enabled.
    pub hope: Option<Hope>,
}

impl PreparedKeys {
    /// Prepare raw keys (the "Uncompressed" baseline).
    pub fn raw(keys: &[Vec<u8>]) -> Self {
        PreparedKeys { keys: keys.to_vec(), hope: None }
    }

    /// Prepare HOPE-encoded keys.
    pub fn encoded(hope: Hope, keys: &[Vec<u8>]) -> Self {
        let enc = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();
        PreparedKeys { keys: enc, hope: Some(hope) }
    }

    /// Encode one query key (identity when uncompressed).
    #[inline]
    pub fn encode_query(&self, key: &[u8]) -> Vec<u8> {
        match &self.hope {
            Some(h) => h.encode(key).into_bytes(),
            None => key.to_vec(),
        }
    }

    /// Allocation-free query encoding: returns the encoded bytes from the
    /// scratch buffer, or the key itself when uncompressed.
    #[inline]
    pub fn encode_query_scratch<'a>(
        &self,
        key: &'a [u8],
        scratch: &'a mut QueryScratch,
    ) -> &'a [u8] {
        match &self.hope {
            Some(h) => h.encode_to(key, &mut scratch.0).expect("bench keys within MAX_KEY_BYTES"),
            None => key,
        }
    }

    /// Dictionary memory attributable to HOPE (0 when uncompressed).
    pub fn dict_memory(&self) -> usize {
        self.hope.as_ref().map_or(0, |h| h.dict_memory_bytes())
    }
}

/// Reusable buffers for [`PreparedKeys::encode_query_scratch`] — a thin
/// wrapper over the core [`hope::EncodeScratch`].
#[derive(Debug, Default)]
pub struct QueryScratch(hope::EncodeScratch);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.keys, 200_000);
        assert!(!cfg.quick);
    }

    fn parse(args: &[&str]) -> Result<BenchConfig, String> {
        BenchConfig::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_numeric_flags_are_errors_not_panics() {
        assert_eq!(parse(&["--keys"]).unwrap_err(), "--keys needs a value");
        assert_eq!(parse(&["--seed", "bogus"]).unwrap_err(), "--seed: `bogus` is not a number");
        let cfg = parse(&["--queries", "7", "--model", "--seed", "9"]).unwrap();
        assert_eq!((cfg.queries, cfg.seed, cfg.has_flag("--model")), (7, 9, true));
    }

    #[test]
    fn quick_clamps_sizes() {
        let cfg = parse(&["--quick"]).unwrap();
        assert_eq!((cfg.keys, cfg.queries, cfg.quick), (20_000, 10_000, true));
        let cfg = parse(&["--keys", "500", "--quick", "--queries", "90000"]).unwrap();
        assert_eq!((cfg.keys, cfg.queries), (500, 10_000));
    }

    #[test]
    fn tree_facade_round_trips() {
        for kind in TreeKind::ALL {
            let mut t = kind.new_tree();
            t.insert(b"alpha", 1);
            t.insert(b"beta", 2);
            assert_eq!(t.get(b"alpha"), Some(1), "{}", kind.name());
            assert_eq!(t.get(b"gamma"), None);
            assert_eq!(t.scan(b"alpha", 2), vec![1, 2]);
            assert!(t.memory_bytes() > 0);
        }
    }

    #[test]
    fn prepared_keys_encode_consistently() {
        let keys: Vec<Vec<u8>> = (0..500).map(|i| format!("user{i:05}").into_bytes()).collect();
        let hope = build_hope(Scheme::DoubleChar, 65792, &keys);
        let prepared = PreparedKeys::encoded(hope, &keys);
        assert_eq!(prepared.encode_query(&keys[7]), prepared.keys[7]);
        assert!(prepared.dict_memory() > 0);
    }

    #[test]
    fn paper_configs_are_six() {
        assert_eq!(paper_tree_configs().len(), 6);
    }
}

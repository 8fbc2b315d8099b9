//! # hope_bench — the benchmark harness for every table and figure
//!
//! Two binaries, each an argument parser over one table of rows
//! (`cargo run --release -p hope_bench --bin <name> -- [ROW…] [--quick]
//! [--keys N] [--queries N] [--seed N] [--out PATH]`):
//!
//! | Binary | Table | Report |
//! |---|---|---|
//! | `figures` | [`figures::FIGURES`]: Table 1 and Figs 8–13 and 15–16 of the paper plus `fig17`, the store's hot-swap under a live distribution shift | `BENCH_figures.json` |
//! | `drill` | [`drills::SCENARIOS`]: the five serving drills (`slo`, `telemetry`, `faults`, `adaptive`, `snapshot`) | `BENCH_drills.json` |
//!
//! Both tables run on one [`harness`]: one row type, one [`harness::Gate`]
//! list, one `DIGEST` / `RECORD` printer, one JSON writer, one `main`.
//! Deterministic columns go into `DIGEST` lines (gated; two `--quick`
//! runs print them byte-identically, which CI diffs); wall-clock columns
//! go into `RECORD` lines (written to the report, never gated).

#![warn(missing_docs)]

pub mod drills;
pub mod figures;
pub mod harness;

use std::time::{Duration, Instant};

use hope::{EncodeScratch, Hope, HopeBuilder, OrderedIndex, Scheme};
use hope_workloads::{generate, sample_keys, Dataset};

/// Command-line configuration shared by both binaries.
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
    /// Rows to run, in command-line order (none named = the whole table).
    pub rows: Vec<String>,
    /// `--out PATH`: where the JSON report goes instead of the table's
    /// default.
    pub out: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            keys: 200_000,
            queries: 100_000,
            seed: 42,
            quick: false,
            rows: Vec::new(),
            out: None,
        }
    }
}

/// The numeric value of `flag`, or why there is none.
fn numeric<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: `{value}` is not a number"))
}

/// [`numeric`] for a size: an empty key set or op stream is an error
/// here, not a panic in whichever generator meets it first.
fn size(flag: &str, value: Option<String>) -> Result<usize, String> {
    match numeric(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

impl BenchConfig {
    /// Parse an argument list (without the program name): the shared
    /// flags, `--out PATH`, and positional row names (checked against the
    /// table by [`harness::Table::select`]).
    ///
    /// # Errors
    ///
    /// A message naming the flag whose value is missing, not a number or
    /// zero, or the flag that does not exist.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<BenchConfig, String> {
        let mut cfg = BenchConfig::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--keys" => cfg.keys = size(&arg, args.next())?,
                "--queries" => cfg.queries = size(&arg, args.next())?,
                "--seed" => cfg.seed = numeric(&arg, args.next())?,
                "--quick" => cfg.quick = true,
                "--out" => cfg.out = Some(args.next().ok_or("--out needs a value")?),
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                _ => cfg.rows.push(arg),
            }
        }
        if cfg.quick {
            cfg.keys = cfg.keys.min(20_000);
            cfg.queries = cfg.queries.min(10_000);
        }
        Ok(cfg)
    }

    /// The build-phase sample: 1% of the keys (paper default), floored at
    /// 5 000 so tiny runs still exercise the larger dictionaries.
    pub fn sample(&self, keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        sample_keys(keys, build_sample_pct(keys.len()), self.seed ^ 0x5A3917)
    }
}

/// The percentage of `n` keys a dictionary is trained on: 1 %, floored at
/// 5 000 keys.
pub fn build_sample_pct(n: usize) -> f64 {
    ((5_000.0 / n as f64) * 100.0).clamp(1.0, 100.0)
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

/// The seven configurations of Figures 10–12 and 16: uncompressed, then
/// the six of [`paper_tree_configs`] trained on `sample`.
pub fn paper_hopes(sample: &[Vec<u8>]) -> Vec<(String, Option<Hope>)> {
    let mut all = vec![("Uncompressed".to_string(), None)];
    for (scheme, limit, label) in paper_tree_configs() {
        all.push((label, Some(build_hope(scheme, limit, sample))));
    }
    all
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

/// Generate and return a dataset, reporting its statistics.
pub fn load_dataset(dataset: Dataset, cfg: &BenchConfig) -> Vec<Vec<u8>> {
    let (keys, d) = time(|| generate(dataset, cfg.keys, cfg.seed));
    let avg: f64 = keys.iter().map(|k| k.len()).sum::<usize>() as f64 / keys.len() as f64;
    eprintln!("# dataset {dataset}: {} keys, avg len {avg:.1} B, generated in {d:?}", keys.len());
    keys
}

/// A tree of Figures 12/16: [`OrderedIndex`] plus the bytes §7 charges
/// to the *index* — the one thing the trait cannot say for HOT, whose
/// `memory_bytes()` also counts the record heap's full keys (they belong
/// to the table, not the index; the figures count 8 B of value pointer
/// per key instead).
pub trait PaperTree: OrderedIndex {
    /// Index bytes as §7 counts them.
    fn index_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl PaperTree for hope_art::Art {}
impl PaperTree for hope_btree::BPlusTree {}
impl PaperTree for hope_hot::Hot {
    fn index_bytes(&self) -> usize {
        self.index_memory_bytes() + self.len() * 8
    }
}

/// A named constructor of one of the four trees.
pub type TreeKind = (&'static str, fn() -> Box<dyn PaperTree>);

/// The four trees of Figures 12/16, in the paper's presentation order.
pub const TREES: [TreeKind; 4] = [
    ("ART", || Box::new(hope_art::Art::new())),
    ("HOT", || Box::new(hope_hot::Hot::new())),
    ("B+tree", || Box::new(hope_btree::BPlusTree::plain())),
    ("Prefix B+tree", || Box::new(hope_btree::BPlusTree::prefix())),
];

/// A key set as one configuration stores it: raw, or HOPE-encoded.
pub struct PreparedKeys {
    /// Configuration label (one of [`paper_hopes`]').
    pub label: String,
    /// The (possibly compressed) key bytes, index-aligned with the input.
    pub keys: Vec<Vec<u8>>,
    /// HOPE compressor, when compression is enabled.
    pub hope: Option<Hope>,
}

impl PreparedKeys {
    /// `keys` under `hope` (raw when `None`).
    pub fn new(label: impl Into<String>, hope: Option<Hope>, keys: &[Vec<u8>]) -> Self {
        let keys = match &hope {
            Some(h) => keys.iter().map(|k| h.encode(k).into_bytes()).collect(),
            None => keys.to_vec(),
        };
        PreparedKeys { label: label.into(), keys, hope }
    }

    /// `keys` under each of the seven [`paper_hopes`].
    pub fn paper_configs(keys: &[Vec<u8>], sample: &[Vec<u8>]) -> Vec<PreparedKeys> {
        paper_hopes(sample).into_iter().map(|(l, hope)| PreparedKeys::new(l, hope, keys)).collect()
    }

    /// Encode one query key into `scratch` (the key itself when
    /// uncompressed) — allocation-free, as a probe path would.
    #[inline]
    pub fn encode_query<'a>(&self, key: &'a [u8], scratch: &'a mut EncodeScratch) -> &'a [u8] {
        match &self.hope {
            Some(h) => h.encode_to(key, scratch).expect("bench keys within MAX_KEY_BYTES"),
            None => key,
        }
    }

    /// Dictionary memory attributable to HOPE (0 when uncompressed).
    pub fn dict_bytes(&self) -> usize {
        self.hope.as_ref().map_or(0, |h| h.dict_memory_bytes())
    }
}

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
        assert_eq!(parse(&["--keys", "0"]).unwrap_err(), "--keys must be at least 1");
        assert_eq!(parse(&["--queries", "0"]).unwrap_err(), "--queries must be at least 1");
        assert_eq!(parse(&["--model"]).unwrap_err(), "unknown flag `--model`");
        assert_eq!(parse(&["fig08", "--out"]).unwrap_err(), "--out needs a value");
        let cfg = parse(&["--queries", "7", "fig12", "--seed", "9", "--out", "x.json"]).unwrap();
        assert_eq!((cfg.queries, cfg.seed, cfg.out.as_deref()), (7, 9, Some("x.json")));
        assert_eq!(cfg.rows, ["fig12"]);
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
        for (name, new_tree) in TREES {
            let mut t = new_tree();
            t.insert(b"alpha", 1);
            t.insert(b"beta", 2);
            assert_eq!(t.get(b"alpha"), Some(&1), "{name}");
            assert_eq!(t.get(b"gamma"), None);
            let mut hits = Vec::new();
            t.range_into(b"alpha", b"beta", 2, &mut hits);
            assert_eq!(hits, vec![1, 2]);
            assert!(t.index_bytes() > 0);
        }
    }

    #[test]
    fn prepared_keys_encode_consistently() {
        let keys: Vec<Vec<u8>> = (0..500).map(|i| format!("user{i:05}").into_bytes()).collect();
        let hope = build_hope(Scheme::DoubleChar, 65792, &keys);
        let prepared = PreparedKeys::new("Double-Char", Some(hope), &keys);
        let mut scratch = EncodeScratch::default();
        assert_eq!(prepared.encode_query(&keys[7], &mut scratch), prepared.keys[7]);
        assert!(prepared.dict_bytes() > 0);
        let raw = PreparedKeys::new("Uncompressed", None, &keys);
        assert_eq!(raw.encode_query(&keys[7], &mut scratch), keys[7]);
        assert_eq!(raw.dict_bytes(), 0);
    }

    #[test]
    fn paper_configs_are_six() {
        assert_eq!(paper_tree_configs().len(), 6);
    }
}

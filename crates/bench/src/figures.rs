//! The paper's tables and figures: one table of ten rows over the
//! shared [`harness`](crate::harness) — what the `figures` binary runs
//! and what `tests/drill_scenarios.rs` holds to the determinism contract.
//!
//! | Row | Reproduces | Gated (deterministic, in the `DIGEST`) | Recorded (never gated) |
//! |---|---|---|---|
//! | `table1` | Table 1 | every scheme's category, code assigner and dictionary equal the paper's | — |
//! | `fig08` | Fig. 8: CPR / encode latency / dictionary memory over the dictionary-size sweep 2⁸ … 2¹⁶, 3 datasets × 6 schemes | CPR at each scheme's largest dictionary orders Single < Double < 3-Grams < 4-Grams < ALM-Improved; Single-/Double-Char dictionaries are exactly 2 KB / 514 KB | ns/char; the cells where CPR *drops* as the dictionary grows (`cpr_dips`) |
//! | `fig09` | Fig. 9: dictionary build time by module, Email | — (timing only; dictionary entries in the `DIGEST`) | the three module times |
//! | `fig10` | Fig. 10: SuRF under YCSB C + range probes, 3 datasets × 7 configurations, and the §5 latency model | no false negatives; trie height and filter bytes below uncompressed under every configuration | point / range / build times, the model's prediction |
//! | `fig11` | Fig. 11: SuRF false-positive rate, Email | FPR ≤ uncompressed for Single-/Double-Char and 3-/4-Grams on SuRF-Base and SuRF-Real8 | the ALM-Improved cells that *raise* the FPR (`alm_raises_fpr`) |
//! | `fig12` | Fig. 12: YCSB C point queries, 3 datasets × 4 trees × 7 configurations | every query hits its own key; every tree × dataset has a configuration whose tree + dictionary bytes are below the uncompressed tree's | point latency, load time |
//! | `fig13` | Fig. 13 / App. A: CPR vs sample size at a 64 K dictionary limit | CPR at a 10 % sample ≥ [`PLATEAU_RATIO`] × CPR at 100 % for the four non-ALM schemes | — |
//! | `fig15` | Fig. 15 / App. C: Dict-A / Dict-B × Email-A / Email-B | crossed cells below matched cells for all six schemes; Single-Char the least affected | — |
//! | `fig16` | Fig. 16 / App. D: YCSB E scans + inserts, 3 datasets × 4 trees × 7 configurations | every scan starts at its own key; the same bytes claim as `fig12` | scan / insert latency |
//! | `fig17` | extension: `hope_store` replacing dictionaries under the live Email-A → Email-B stream | every result equals an uncompressed shadow map's; a dictionary was replaced; post-swap / fresh-built CPR ≥ [`RECOVERY_RATIO`] | build time; per replace the observed CPR against both baselines, per shard the replace count (in the `DIGEST`: deterministic, not gated) |
//!
//! A threshold is HEAD's number with stated slack at both sizes
//! (`--quick` = 20 k keys, default = 200 k); a paper claim that does not
//! hold is a recorded finding with its cells named, not a loosened gate.
//! `hope_surf` is a paper substrate: `fig10` and `fig11` are its rows and
//! it has no store role.
//!
//! **Determinism**: every row is single-threaded and seeded, so its
//! `DIGEST` lines are a pure function of the command line. Anything read
//! off a clock is a `RECORD` line.

use std::collections::{BTreeMap, HashSet};

use hope::{stats, EncodeScratch, Scheme};
use hope_store::StoreConfig;
use hope_surf::{SuffixKind, Surf};
use hope_workloads::{
    generate_email_split, sample_keys, Dataset, MixedWorkload, Op, ScrambledZipf, StoreOp,
    TrafficSpec, WorkloadSpec, YcsbWorkload,
};

use crate::harness::{build_store, Gate, Row, ScenarioReport, Table};
use crate::{
    build_hope, build_sample_pct, load_dataset, ns_per_op, paper_hopes, time, us_per_op,
    BenchConfig, PaperTree, PreparedKeys, TREES,
};

/// `fig13`: CPR from a 10 % sample must reach this fraction of CPR from
/// the whole key set. HEAD's worst cell is Email 4-Grams: 0.917 at 20 k
/// keys (2 000 sampled), 0.986 at 200 k.
pub const PLATEAU_RATIO: f64 = 0.90;

/// `fig17`: CPR of the shifted keys under the store's live dictionaries
/// must reach this fraction of a dictionary built fresh from them (HEAD:
/// 0.945 at 20 k keys, 1.003 at 200 k).
pub const RECOVERY_RATIO: f64 = 0.9;

/// The paper's Table 1: scheme, category, code assigner, dictionary.
const PAPER_TABLE1: [[&str; 4]; 6] = [
    ["Single-Char", "FIVC", "Hu-Tucker", "Array"],
    ["Double-Char", "FIVC", "Hu-Tucker", "Array"],
    ["ALM", "VIFC", "Fixed-Length", "ART-based"],
    ["3-Grams", "VIVC", "Hu-Tucker", "Bitmap-Trie"],
    ["4-Grams", "VIVC", "Hu-Tucker", "Bitmap-Trie"],
    ["ALM-Improved", "VIVC", "Hu-Tucker", "ART-based"],
];

/// Table 1 and Figures 8–13 and 15–17, in the order `figures` runs them.
pub static FIGURES: Table = Table {
    bench: "figures",
    dataset: "email-wiki-url",
    default_out: "BENCH_figures.json",
    rows: &[
        Row { name: "table1", body: table1 },
        Row { name: "fig08", body: fig08 },
        Row { name: "fig09", body: fig09 },
        Row { name: "fig10", body: fig10 },
        Row { name: "fig11", body: fig11 },
        Row { name: "fig12", body: fig12 },
        Row { name: "fig13", body: fig13 },
        Row { name: "fig15", body: fig15 },
        Row { name: "fig16", body: fig16 },
        Row { name: "fig17", body: fig17 },
    ],
};

/// A gate over `checked` cells that holds when none failed; the failing
/// cells are named in what it measured.
fn every_cell(name: &'static str, required: &str, checked: usize, failing: &[String]) -> Gate {
    let measured = match failing {
        [] => format!("all {checked} cells"),
        _ => format!("{} of {checked} cells fail: {}", failing.len(), failing.join("; ")),
    };
    Gate::new(name, failing.is_empty(), required, measured)
}

/// A finding that is recorded with its cells named, never gated.
fn finding(name: &str, cells: &[String]) -> String {
    format!("finding={name} cells={} [{}]", cells.len(), cells.join("; "))
}

fn table1(_cfg: &BenchConfig, out: &mut ScenarioReport) {
    let mut wrong = Vec::new();
    for (s, paper) in Scheme::ALL.iter().zip(PAPER_TABLE1) {
        let assigner = if s.uses_hu_tucker() { "Hu-Tucker" } else { "Fixed-Length" };
        let ours = [s.name(), s.category(), assigner, s.dictionary_kind()];
        let size = s.fixed_dict_size().map_or("tunable".to_string(), |n| n.to_string());
        let columns = format!(
            "category={} code_assigner={assigner} dictionary={} dict_size={size}",
            s.category(),
            s.dictionary_kind()
        );
        out.cell(&format!("scheme={}", s.name()), &columns, "");
        if ours != paper {
            wrong.push(format!("{ours:?} vs the paper's {paper:?}"));
        }
    }
    out.gates = vec![every_cell(
        "table1",
        "every scheme's category, code assigner and dictionary as in the paper's Table 1",
        PAPER_TABLE1.len(),
        &wrong,
    )];
    out.seal_with_verdicts();
}

fn fig08(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let sweep: Vec<usize> = (8..=16).step_by(2).map(|e| 1usize << e).collect();
    let (mut misordered, mut wrong_bytes, mut dips) = (Vec::new(), Vec::new(), Vec::new());
    let fixed_bytes = [(Scheme::SingleChar, 2 << 10), (Scheme::DoubleChar, 514 << 10)];
    for dataset in Dataset::ALL {
        let keys = load_dataset(dataset, cfg);
        let sample = cfg.sample(&keys);
        // CPR at each scheme's largest dictionary, in `Scheme::ALL` order
        // less ALM: Single, Double, 3-Grams, 4-Grams, ALM-Improved.
        let mut largest = Vec::new();
        for scheme in Scheme::ALL {
            let mut last = 0.0;
            let sizes = scheme.fixed_dict_size().map_or(sweep.clone(), |fixed| vec![fixed]);
            for target in sizes {
                let hope = build_hope(scheme, target, &sample);
                let st = stats::measure(&hope, &keys);
                let cell = format!("data={} scheme={}", dataset.name(), scheme.name());
                out.cell(
                    &format!("{cell} target={target}"),
                    &format!(
                        "entries={} cpr={:.3} dict_bytes={}",
                        hope.dict_entries(),
                        st.cpr(),
                        hope.dict_memory_bytes()
                    ),
                    &format!("ns_per_char={:.2}", st.latency_ns_per_char()),
                );
                if st.cpr() < last {
                    dips.push(format!("{cell} {last:.3} -> {:.3} @ {target}", st.cpr()));
                }
                if fixed_bytes.iter().any(|&(s, b)| s == scheme && b != hope.dict_memory_bytes()) {
                    wrong_bytes.push(format!("{cell} {} B", hope.dict_memory_bytes()));
                }
                last = st.cpr();
            }
            if scheme != Scheme::Alm {
                largest.push(last);
            }
        }
        if !largest.windows(2).all(|w| w[0] < w[1]) {
            misordered.push(format!("{} {largest:.3?}", dataset.name()));
        }
    }
    out.digest.push(finding("cpr_dips", &dips));
    out.gates = vec![
        every_cell(
            "cpr_order",
            "CPR at the largest dictionary: Single < Double < 3-Grams < 4-Grams < ALM-Improved",
            Dataset::ALL.len(),
            &misordered,
        ),
        every_cell(
            "fixed_dict_bytes",
            "Single-Char dictionary exactly 2 KB, Double-Char exactly 514 KB",
            2 * Dataset::ALL.len(),
            &wrong_bytes,
        ),
    ];
    out.seal_with_verdicts();
}

fn fig09(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let keys = load_dataset(Dataset::Email, cfg);
    let sample = cfg.sample(&keys);
    let mut runs = vec![(Scheme::SingleChar, 256), (Scheme::DoubleChar, 65792)];
    for scheme in [Scheme::ThreeGrams, Scheme::FourGrams, Scheme::Alm, Scheme::AlmImproved] {
        runs.extend([(scheme, 1 << 12), (scheme, 1 << 16)]);
    }
    for (scheme, target) in runs {
        let hope = build_hope(scheme, target, &sample);
        let t = hope.timings();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        out.cell(
            &format!("scheme={} target={target}", scheme.name()),
            &format!("sampled={} entries={}", sample.len(), hope.dict_entries()),
            &format!(
                "symbol_select_ms={:.1} code_assign_ms={:.1} dictionary_build_ms={:.1} \
                 total_ms={:.1}",
                ms(t.symbol_select),
                ms(t.code_assign),
                ms(t.dictionary_build),
                ms(t.total())
            ),
        );
    }
    out.seal("none (timing only)".into());
}

/// A SuRF over the distinct keys of `keys`.
fn build_surf(keys: &[Vec<u8>], suffix: SuffixKind) -> Surf {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    Surf::build(&sorted, suffix)
}

fn fig10(cfg: &BenchConfig, out: &mut ScenarioReport) {
    out.ops = cfg.queries;
    let (mut missed, mut not_smaller, mut cells) = (Vec::new(), Vec::new(), 0);
    for dataset in Dataset::ALL {
        let keys = load_dataset(dataset, cfg);
        let sample = cfg.sample(&keys);
        let src_bytes: usize = keys.iter().map(Vec::len).sum();
        let mut zipf = ScrambledZipf::ycsb(keys.len(), cfg.seed ^ 0xF16);
        // The uncompressed cell's (height, filter bytes, point ns).
        let mut base = (0.0, 0, 0.0);
        for (label, hope) in paper_hopes(&sample) {
            // The build phase: encode + sort + construct.
            let ((prep, surf), build) = time(|| {
                let prep = PreparedKeys::new(label, hope, &keys);
                let surf = build_surf(&prep.keys, SuffixKind::Real);
                (prep, surf)
            });
            let cell = format!("data={} config={}", dataset.name(), prep.label);
            let enc_bytes: usize = prep.keys.iter().map(Vec::len).sum();

            // Point queries (workload C, Zipf over the key set).
            let point_q: Vec<usize> = (0..cfg.queries).map(|_| zipf.next()).collect();
            let mut scratch = EncodeScratch::default();
            let (hits, d_point) = time(|| {
                let hit = |&&i: &&usize| surf.contains(prep.encode_query(&keys[i], &mut scratch));
                point_q.iter().filter(hit).count()
            });
            // Range queries as §7.1: [key, key with its last byte + 1],
            // both endpoints pair-encoded (§4.2).
            let range_q: Vec<usize> = (0..cfg.queries.div_ceil(2)).map(|_| zipf.next()).collect();
            let (found, d_range) = time(|| {
                let mut found = 0usize;
                for &i in &range_q {
                    let mut end = keys[i].clone();
                    if let Some(last) = end.last_mut() {
                        *last = last.saturating_add(1);
                    }
                    let (lo, hi) = match &prep.hope {
                        Some(h) => h.encode_range_bounds(&keys[i], &end),
                        None => (keys[i].clone(), end),
                    };
                    found += surf.range_may_contain(&lo, &hi) as usize;
                }
                found
            });

            let (height, filter_bytes) = (surf.avg_height(), surf.memory_bytes());
            let point_ns = ns_per_op(d_point, point_q.len());
            out.cell(
                &cell,
                &format!(
                    "hits={hits}/{} range_found={found}/{} height={height:.2} \
                     filter_bytes={filter_bytes} dict_bytes={} cpr={:.3}",
                    point_q.len(),
                    range_q.len(),
                    prep.dict_bytes(),
                    src_bytes as f64 / enc_bytes as f64
                ),
                &format!(
                    "point_us={:.3} range_us={:.3} build_s={:.2}",
                    point_ns / 1e3,
                    us_per_op(d_range, range_q.len()),
                    build.as_secs_f64()
                ),
            );
            if hits != point_q.len() || found != range_q.len() {
                missed.push(cell.clone());
            }
            cells += 1;
            match &prep.hope {
                None => base = (height, filter_bytes, point_ns),
                Some(_) if height >= base.0 || filter_bytes >= base.1 => {
                    not_smaller.push(cell.clone())
                }
                Some(_) => {}
            }
            // §5's model, instantiated like the paper's example:
            // reduction = 1 - 1/cpr - (l * t_encode) / (h * t_trie).
            if let (Dataset::Email, "Double-Char", Some(hope)) =
                (dataset, prep.label.as_str(), &prep.hope)
            {
                let st = stats::measure(hope, &keys);
                let l = src_bytes as f64 / keys.len() as f64;
                let (h, t_trie) = (base.0, base.2 / base.0);
                let reduction =
                    1.0 - 1.0 / st.cpr() - (l * st.latency_ns_per_char()) / (h * t_trie);
                out.recorded.push(format!(
                    "model=section5 {cell} cpr={:.2} l={l:.1} h={h:.1} t_enc_ns_per_char={:.1} \
                     t_trie_ns={t_trie:.1} predicted_latency_reduction_pct={:.0}",
                    st.cpr(),
                    st.latency_ns_per_char(),
                    reduction * 100.0
                ));
            }
        }
    }
    out.gates = vec![
        every_cell(
            "no_false_negatives",
            "every stored key and every range around one is reported present",
            cells,
            &missed,
        ),
        every_cell(
            "surf_smaller",
            "trie height and filter bytes below uncompressed under every configuration",
            cells - Dataset::ALL.len(),
            &not_smaller,
        ),
    ];
    out.seal_with_verdicts();
}

fn fig11(cfg: &BenchConfig, out: &mut ScenarioReport) {
    // Twice the keys: half loaded, half used as negative queries.
    let all = load_dataset(Dataset::Email, &BenchConfig { keys: cfg.keys * 2, ..cfg.clone() });
    let (loaded, negatives) = all.split_at(all.len() / 2);
    let sample = cfg.sample(loaded);
    let present: HashSet<&[u8]> = loaded.iter().map(Vec::as_slice).collect();
    let negatives: Vec<&Vec<u8>> =
        negatives.iter().filter(|q| !present.contains(q.as_slice())).collect();
    out.ops = negatives.len();

    let (mut worse, mut alm_worse) = (Vec::new(), Vec::new());
    let mut base = [0usize; 2];
    for prep in PreparedKeys::paper_configs(loaded, &sample) {
        let filters = [SuffixKind::None, SuffixKind::Real].map(|kind| build_surf(&prep.keys, kind));
        let mut scratch = EncodeScratch::default();
        let mut fp = [0usize; 2];
        for q in &negatives {
            let e = prep.encode_query(q, &mut scratch);
            fp[0] += filters[0].contains(e) as usize;
            fp[1] += filters[1].contains(e) as usize;
        }
        let pct = |n: usize| n as f64 / negatives.len() as f64 * 100.0;
        out.cell(
            &format!("config={}", prep.label),
            &format!(
                "negatives={} surf_fp={} surf_fpr_pct={:.2} real8_fp={} real8_fpr_pct={:.2}",
                negatives.len(),
                fp[0],
                pct(fp[0]),
                fp[1],
                pct(fp[1])
            ),
            "",
        );
        if prep.hope.is_none() {
            base = fp;
        }
        for (variant, fp, base_fp) in [("SuRF", fp[0], base[0]), ("SuRF-Real8", fp[1], base[1])] {
            if fp > base_fp {
                let cell = format!("{} {variant} {:.2} > {:.2}", prep.label, pct(fp), pct(base_fp));
                let list = if prep.label.starts_with("ALM") { &mut alm_worse } else { &mut worse };
                list.push(cell);
            }
        }
    }
    // The paper reports HOPE lowering the FPR under every configuration.
    out.digest.push(finding("alm_raises_fpr", &alm_worse));
    out.gates = vec![every_cell(
        "fpr_not_worse",
        "FPR <= uncompressed for Single-/Double-Char and 3-/4-Grams on SuRF and SuRF-Real8",
        8,
        &worse,
    )];
    out.seal_with_verdicts();
}

/// What one tree × configuration cell of Figures 12/16 measured.
struct TreeCell {
    /// The row's per-cell claim holds (every query hit).
    ok: bool,
    tree_bytes: usize,
    deterministic: String,
    timed: String,
}

/// The grid Figures 12 and 16 share: every dataset × tree × configuration
/// measured by `measure` over the workload `workload(n_keys)`, gated on
/// every cell's queries hitting and on the paper's bytes claim.
fn tree_grid<W>(
    cfg: &BenchConfig,
    out: &mut ScenarioReport,
    workload: impl Fn(usize) -> W,
    measure: impl Fn(&W, &[Vec<u8>], &PreparedKeys, Box<dyn PaperTree>) -> TreeCell,
) {
    out.ops = cfg.queries;
    let (mut missed, mut never_smaller, mut cells) = (Vec::new(), Vec::new(), 0);
    for dataset in Dataset::ALL {
        let keys = load_dataset(dataset, cfg);
        let configs = PreparedKeys::paper_configs(&keys, &cfg.sample(&keys));
        let w = workload(keys.len());
        for (tree, new_tree) in TREES {
            let mut totals = Vec::new();
            for prep in &configs {
                let cell = format!("data={} tree={tree} config={}", dataset.name(), prep.label);
                let m = measure(&w, &keys, prep, new_tree());
                let columns = format!(
                    "{} tree_bytes={} dict_bytes={}",
                    m.deterministic,
                    m.tree_bytes,
                    prep.dict_bytes()
                );
                out.cell(&cell, &columns, &m.timed);
                totals.push(m.tree_bytes + prep.dict_bytes());
                cells += 1;
                if !m.ok {
                    missed.push(cell);
                }
            }
            let best = totals[1..].iter().min().expect("six HOPE configurations");
            if *best >= totals[0] {
                never_smaller.push(format!(
                    "data={} tree={tree} best {best} B vs uncompressed {} B",
                    dataset.name(),
                    totals[0]
                ));
            }
        }
    }
    out.gates = vec![
        every_cell(
            "all_hit",
            "every point query returns its own key's value, every scan starts at its start key",
            cells,
            &missed,
        ),
        every_cell(
            "smaller_config",
            "every tree x dataset has a configuration whose tree + dictionary bytes are below \
             the uncompressed tree's",
            Dataset::ALL.len() * TREES.len(),
            &never_smaller,
        ),
    ];
    out.seal_with_verdicts();
}

fn fig12(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let queries = |n_keys: usize| -> Vec<usize> {
        let mut zipf = ScrambledZipf::ycsb(n_keys, cfg.seed ^ 0xF12);
        (0..cfg.queries).map(|_| zipf.next()).collect()
    };
    // Distinct keys never share padded bytes (DESIGN.md, "Encoded-key
    // comparison"): every query must hit its own key.
    tree_grid(cfg, out, queries, |queries, keys, prep, mut tree| {
        let ((), load) = time(|| {
            for (i, k) in prep.keys.iter().enumerate() {
                tree.insert(k, i as u64);
            }
        });
        let mut scratch = EncodeScratch::default();
        let (hits, d) = time(|| {
            let hit = |&&i: &&usize| {
                tree.get(prep.encode_query(&keys[i], &mut scratch)) == Some(&(i as u64))
            };
            queries.iter().filter(hit).count()
        });
        TreeCell {
            ok: hits == queries.len(),
            tree_bytes: tree.index_bytes(),
            deterministic: format!("hits={hits}/{}", queries.len()),
            timed: format!(
                "point_us={:.3} load_s={:.2}",
                us_per_op(d, queries.len()),
                load.as_secs_f64()
            ),
        }
    });
}

fn fig16(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload =
        |n_keys| YcsbWorkload::generate(WorkloadSpec::E, n_keys, cfg.queries, cfg.seed ^ 0xF16E);
    // A scan starts at a loaded key, so its first hit must be that key.
    tree_grid(cfg, out, workload, |workload, keys, prep, mut tree| {
        for i in 0..workload.load_count {
            tree.insert(&prep.keys[i], i as u64);
        }
        // An open-ended scan is a range up to the largest key there is.
        let top = prep.keys.iter().max().expect("keys");
        let mut scratch = EncodeScratch::default();
        let mut hits = Vec::new();
        let (mut scan_time, mut insert_time) =
            (std::time::Duration::ZERO, std::time::Duration::ZERO);
        let (mut scans, mut inserts, mut started, mut scanned) = (0usize, 0usize, 0usize, 0usize);
        for op in &workload.ops {
            match *op {
                Op::Scan(idx, len) => {
                    let ((), d) = time(|| {
                        let start = prep.encode_query(&keys[idx], &mut scratch);
                        hits.clear();
                        tree.range_into(start, top, len, &mut hits);
                    });
                    scan_time += d;
                    scans += 1;
                    started += (hits.first() == Some(&(idx as u64))) as usize;
                    scanned += hits.len();
                }
                Op::Insert(idx) => {
                    let ((), d) = time(|| {
                        let k = prep.encode_query(&keys[idx], &mut scratch);
                        tree.insert(k, idx as u64);
                    });
                    insert_time += d;
                    inserts += 1;
                }
                Op::Read(_) => unreachable!("workload E has no reads"),
            }
        }
        TreeCell {
            ok: started == scans,
            tree_bytes: tree.index_bytes(),
            deterministic: format!(
                "scans_hit={started}/{scans} scanned={scanned} inserts={inserts}"
            ),
            timed: format!(
                "range_us={:.3} insert_us={:.3}",
                us_per_op(scan_time, scans),
                us_per_op(insert_time, inserts)
            ),
        }
    });
}

fn fig13(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let mut below = Vec::new();
    for dataset in Dataset::ALL {
        let keys = load_dataset(dataset, cfg);
        for scheme in Scheme::ALL {
            let alm = matches!(scheme, Scheme::Alm | Scheme::AlmImproved);
            let mut cpr_at_10 = 0.0;
            for pct in [0.001, 0.01, 0.1, 1.0, 10.0, 100.0f64] {
                let cell =
                    format!("data={} scheme={} sample_pct={pct}", dataset.name(), scheme.name());
                // As in the paper, whose 100 % ALM runs "did not finish in
                // a reasonable amount of time".
                if alm && pct == 100.0 {
                    out.cell(&cell, "samples=- cpr=DNF", "");
                    continue;
                }
                let sample =
                    sample_keys(&keys, pct.max(100.0 / keys.len() as f64), cfg.seed ^ 0x13);
                let cpr = stats::measure(&build_hope(scheme, 1 << 16, &sample), &keys).cpr();
                out.cell(&cell, &format!("samples={} cpr={cpr:.3}", sample.len()), "");
                if pct == 10.0 {
                    cpr_at_10 = cpr;
                }
                if pct == 100.0 && cpr_at_10 < PLATEAU_RATIO * cpr {
                    below.push(format!("{cell}: {cpr_at_10:.3} at 10 % vs {cpr:.3}"));
                }
            }
        }
    }
    out.gates = vec![every_cell(
        "plateau",
        &format!("CPR at a 10 % sample >= {PLATEAU_RATIO} x CPR at 100 %, non-ALM schemes"),
        4 * Dataset::ALL.len(),
        &below,
    )];
    out.seal_with_verdicts();
}

fn fig15(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let (email_a, email_b) = generate_email_split(cfg.keys, cfg.seed);
    let sample_a = sample_keys(&email_a, build_sample_pct(email_a.len()), cfg.seed ^ 0xA);
    let sample_b = sample_keys(&email_b, build_sample_pct(email_b.len()), cfg.seed ^ 0xB);
    out.digest.push(format!("email_a={} email_b={}", email_a.len(), email_b.len()));
    if email_a.is_empty() || email_b.is_empty() {
        // A handful of keys can all fall on one side; there is nothing to cross.
        let sides = format!("{} / {} keys", email_a.len(), email_b.len());
        out.gates = vec![Gate::new("both_populations", false, "Email-A and Email-B keys", sides)];
        return out.seal_with_verdicts();
    }

    let mut not_below = Vec::new();
    // Per scheme, the worse of its two crossed / matched ratios.
    let mut kept = Vec::new();
    for scheme in Scheme::ALL {
        let dict_a = build_hope(scheme, 1 << 16, &sample_a);
        let dict_b = build_hope(scheme, 1 << 16, &sample_b);
        let aa = stats::measure(&dict_a, &email_a).cpr();
        let bb = stats::measure(&dict_b, &email_b).cpr();
        let ab = stats::measure(&dict_a, &email_b).cpr();
        let ba = stats::measure(&dict_b, &email_a).cpr();
        out.cell(
            &format!("scheme={}", scheme.name()),
            &format!(
                "dict_a_email_a={aa:.3} dict_b_email_b={bb:.3} dict_a_email_b={ab:.3} \
                 dict_b_email_a={ba:.3}"
            ),
            "",
        );
        if ab >= bb || ba >= aa {
            not_below.push(scheme.name().to_string());
        }
        kept.push((ab / bb).min(ba / aa));
    }
    let least = kept.iter().copied().fold(f64::MIN, f64::max);
    out.gates = vec![
        every_cell(
            "crossed_below_matched",
            "Dict-A/Email-B < Dict-B/Email-B and Dict-B/Email-A < Dict-A/Email-A",
            Scheme::ALL.len(),
            &not_below,
        ),
        Gate::new(
            "single_char_least_affected",
            kept[0] == least,
            "Single-Char keeps the largest share of its matched CPR when crossed",
            format!("crossed/matched by scheme: {kept:.3?}"),
        ),
    ];
    out.seal_with_verdicts();
}

/// Picks up where Figure 15 leaves off: instead of measuring what a
/// *static* dictionary loses when the distribution drifts, drive the
/// sharded store with mixed traffic whose insert population switches from
/// Email-A to Email-B mid-run, let periodic `maintain()` passes detect the
/// CPR degradation and replace per-shard dictionaries, and compare CPR on
/// the shifted keys with a dictionary built fresh from them. (Readers
/// racing the swaps are `tests/store_swap.rs`'s; this row is one thread.)
fn fig17(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = MixedWorkload::generate(cfg.keys, cfg.queries, TrafficSpec::default(), cfg.seed);
    out.ops = workload.ops.len();
    let store_cfg = StoreConfig {
        // Judge drift on a window scaled to the insert volume so small
        // runs still exercise the swap.
        min_observed_bytes: ((cfg.queries as u64) * 22 / 160).max(1024),
        ..StoreConfig::default()
    };
    // Store and uncompressed shadow, loaded identically (value = position).
    let mut shadow: BTreeMap<Vec<u8>, u64> = workload.initial.iter().cloned().zip(0..).collect();
    let (store, build) = time(|| build_store(&workload, store_cfg));
    out.recorded.push(format!("build_ms={:.1}", build.as_secs_f64() * 1e3));
    out.digest.push(format!(
        "loaded={} ops={} shift_at={}",
        workload.initial.len(),
        workload.ops.len(),
        workload.shift_at
    ));

    // Replay the traffic against the store and the shadow, maintaining
    // periodically (as the background thread would).
    let maintain_every = (workload.ops.len() / 25).max(1);
    let mut diverged = 0usize;
    let mut replaces = vec![0usize; store_cfg.shards];
    let mut shifted_keys: Vec<Vec<u8>> = Vec::new();
    for (i, op) in workload.ops.iter().enumerate() {
        match op {
            StoreOp::Get(k) => {
                diverged += (store.get(k).expect("valid key") != shadow.get(k).copied()) as usize;
            }
            StoreOp::Insert(k, v) => {
                if i >= workload.shift_at {
                    shifted_keys.push(k.clone());
                }
                let old = store.insert(k.clone(), *v).expect("valid key");
                diverged += (old != shadow.insert(k.clone(), *v)) as usize;
            }
            StoreOp::Scan(low, high, limit) => {
                let mut got = Vec::new();
                store.range_into(low, high, *limit, &mut got).expect("valid bounds");
                let want = shadow.range(low.clone()..=high.clone()).take(*limit);
                diverged += !got.iter().map(|(k, v)| (k, v)).eq(want) as usize;
            }
        }
        if (i + 1) % maintain_every == 0 {
            let (reports, errors) = store.maintain();
            assert!(errors.is_empty(), "rebuild errors: {errors:?}");
            for r in reports.iter().filter(|r| !r.incremental) {
                replaces[r.shard] += 1;
                // Recorded, not fixed: the baseline is held-out CPR on a
                // sample topped up with resident Email-A keys, the
                // observation is Email-B inserts only — so a drifted
                // shard's observed CPR stays under every new baseline and
                // it replaces again.
                out.digest.push(format!(
                    "replace op={} shard={} epoch={}->{} observed_cpr={:.3} baseline_before={:.3} \
                     baseline_after={:.3} live_keys={}",
                    i + 1,
                    r.shard,
                    r.old_epoch,
                    r.new_epoch,
                    r.observed_cpr.unwrap_or(0.0),
                    r.old_baseline_cpr,
                    r.new_baseline_cpr,
                    r.live_keys
                ));
            }
        }
    }
    for (k, v) in shadow.iter().step_by(7) {
        diverged += (store.get(k).expect("valid key") != Some(*v)) as usize;
    }

    // Recovery: the shifted population under each shard's *live*
    // dictionary vs a dictionary built fresh from that population.
    let (mut src, mut enc) = (0u64, 0u64);
    for shard in 0..store_cfg.shards {
        let keys: Vec<&Vec<u8>> =
            shifted_keys.iter().filter(|k| store.shard_of(k) == shard).collect();
        let m = stats::measure(store.generation(shard).expect("shard in range").hope(), &keys);
        src += m.src_bytes;
        enc += m.enc_bytes;
    }
    let post_swap = src as f64 / enc.max(1) as f64;
    let fresh_sample =
        sample_keys(&shifted_keys, build_sample_pct(shifted_keys.len()), cfg.seed ^ 0xF);
    let fresh = build_hope(store_cfg.scheme, store_cfg.dict_entries, &fresh_sample);
    let fresh = stats::measure(&fresh, &shifted_keys).cpr();
    let ratio = post_swap / fresh;
    out.digest.push(format!(
        "replaces_by_shard={replaces:?} shifted_keys={} post_swap_cpr={post_swap:.3} \
         fresh_cpr={fresh:.3} ratio={ratio:.3}",
        shifted_keys.len()
    ));
    let replaced: usize = replaces.iter().sum();
    out.gates = vec![
        Gate::new(
            "shadow_agrees",
            diverged == 0,
            "every get, insert and scan result equals the uncompressed shadow map's",
            format!("{diverged} divergences in {} ops", workload.ops.len()),
        ),
        Gate::new(
            "replaced",
            replaced > 0,
            "the shift makes some shard replace its dictionary",
            format!("{replaced} replaces, by shard {replaces:?}"),
        ),
        Gate::new(
            "recovered",
            ratio >= RECOVERY_RATIO,
            format!("post-swap CPR >= {RECOVERY_RATIO} x fresh-built CPR on the shifted keys"),
            format!("{post_swap:.3} / {fresh:.3} = {ratio:.3}"),
        ),
    ];
    out.seal_with_verdicts();
}

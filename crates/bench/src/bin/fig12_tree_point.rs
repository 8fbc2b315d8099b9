//! Figure 12 — YCSB-C point-query latency vs memory for ART, HOT, B+tree
//! and Prefix B+tree, uncompressed vs the six HOPE configurations, on all
//! three datasets.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig12_tree_point
//!         [-- --keys N --queries N --quick]`

use hope_bench::{
    build_hope, load_dataset, mb, paper_tree_configs, time, us_per_op, BenchConfig, PreparedKeys,
    QueryScratch, TreeKind,
};
use hope_workloads::{Dataset, ScrambledZipf};

fn main() {
    let cfg = BenchConfig::from_args();
    println!("# Figure 12: point query latency vs memory (YCSB C)");
    println!(
        "{:6} {:14} {:20} {:>9} {:>10} {:>9}",
        "data", "tree", "config", "point_us", "mem_MB", "load_s"
    );

    for dataset in Dataset::ALL {
        let keys = load_dataset(dataset, &cfg);
        let sample = cfg.sample(&keys);
        let queries: Vec<usize> = {
            let mut zipf = ScrambledZipf::ycsb(keys.len(), cfg.seed ^ 0xF12);
            (0..cfg.queries).map(|_| zipf.next()).collect()
        };

        let mut prepared: Vec<(String, PreparedKeys)> =
            vec![("Uncompressed".into(), PreparedKeys::raw(&keys))];
        for (scheme, limit, label) in paper_tree_configs() {
            let hope = build_hope(scheme, limit, &sample);
            prepared.push((label, PreparedKeys::encoded(hope, &keys)));
        }

        for kind in TreeKind::ALL {
            for (label, prep) in &prepared {
                let (tree, load) = time(|| {
                    let mut t = kind.new_tree();
                    for (i, k) in prep.keys.iter().enumerate() {
                        t.insert(k, i as u64);
                    }
                    t
                });
                let mut scratch = QueryScratch::default();
                let (hits, d) = time(|| {
                    let mut hits = 0usize;
                    for &i in &queries {
                        let q = prep.encode_query_scratch(&keys[i], &mut scratch);
                        hits += (tree.get(q) == Some(i as u64)) as usize;
                    }
                    hits
                });
                // Distinct keys never share padded bytes (DESIGN.md,
                // "Encoded-key comparison"): every query hits its own key.
                assert_eq!(hits, queries.len(), "{label}: missed queries");
                let mem = tree.memory_bytes() + prep.dict_memory();
                println!(
                    "{:6} {:14} {:20} {:>9.3} {:>10.2} {:>9.2}",
                    dataset.name(),
                    kind.name(),
                    label,
                    us_per_op(d, queries.len()),
                    mb(mem),
                    load.as_secs_f64(),
                );
            }
        }
    }
}

//! The paper's motivating scenario (§1): an in-memory OLTP secondary index
//! over email keys, where DRAM is scarce. Compare a plain B+tree over raw
//! keys with HOPE-compressed variants: memory shrinks while point and
//! range queries stay correct (and usually get faster at scale).
//!
//! Run: `cargo run --release --example email_index`

use hope::{HopeBuilder, OrderedIndex, Scheme};
use hope_btree::BPlusTree;
use hope_workloads::{generate, sample_keys, Dataset};

fn main() {
    let n = 100_000;
    let keys = generate(Dataset::Email, n, 7);
    let sample = sample_keys(&keys, 5.0, 1);
    println!("indexing {n} email keys\n");
    println!("{:22} {:>10} {:>12} {:>12}", "configuration", "mem_MB", "point_us", "range_us");

    run("B+tree / raw keys", None, &keys);
    for scheme in [Scheme::SingleChar, Scheme::DoubleChar, Scheme::ThreeGrams] {
        let hope = HopeBuilder::new(scheme)
            .dictionary_entries(1 << 16)
            .build_from_sample(sample.iter().cloned())
            .expect("build");
        run(&format!("B+tree / {}", scheme.name()), Some(hope), &keys);
    }
}

fn run(label: &str, hope: Option<hope::Hope>, keys: &[Vec<u8>]) {
    let enc = |k: &[u8]| -> Vec<u8> {
        match &hope {
            Some(h) => h.encode(k).into_bytes(),
            None => k.to_vec(),
        }
    };
    let mut tree = BPlusTree::plain();
    for (i, k) in keys.iter().enumerate() {
        tree.insert(&enc(k), i as u64);
    }

    // Point queries: every 7th key.
    let t = std::time::Instant::now();
    let mut hits = 0usize;
    let probes: Vec<&Vec<u8>> = keys.iter().step_by(7).collect();
    for (j, k) in probes.iter().enumerate() {
        hits += (tree.get(&enc(k)) == Some((j * 7) as u64)) as usize;
    }
    assert_eq!(hits, probes.len(), "all lookups must hit");
    let point_us = t.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;

    // Short range scans (10 keys) from every 31st key.
    let t = std::time::Instant::now();
    let starts: Vec<&Vec<u8>> = keys.iter().step_by(31).collect();
    let mut total = 0usize;
    for k in &starts {
        let mut n = 0;
        tree.visit(&enc(k), &mut |_, _| {
            n += 1;
            n < 10
        });
        total += n;
    }
    assert!(total >= starts.len());
    let range_us = t.elapsed().as_secs_f64() * 1e6 / starts.len() as f64;

    let mem = tree.memory_bytes() + hope.as_ref().map_or(0, |h| h.dict_memory_bytes());
    println!("{:22} {:>10.2} {:>12.3} {:>12.3}", label, mem as f64 / 1048576.0, point_us, range_us);
}

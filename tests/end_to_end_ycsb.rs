//! Miniature YCSB runs through the full stack (workload generator → HOPE →
//! tree), validated against a `BTreeMap` ground truth.

use std::collections::BTreeMap;

use hope::{HopeBuilder, OrderedIndex, Scheme};
use hope_workloads::{generate, sample_keys, Dataset, Op, WorkloadSpec, YcsbWorkload};

/// Values of the first `count` keys `>= start`, through the trait's one
/// scan primitive.
fn scan(ix: &dyn OrderedIndex, start: &[u8], count: usize) -> Vec<u64> {
    let mut out = Vec::new();
    ix.visit(start, &mut |_, v| {
        out.push(*v);
        out.len() < count
    });
    out
}

#[test]
fn workload_c_returns_correct_values_on_all_trees() {
    let keys = generate(Dataset::Email, 2000, 11);
    let sample = sample_keys(&keys, 20.0, 1);
    let hope = HopeBuilder::new(Scheme::DoubleChar)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let w = YcsbWorkload::generate(WorkloadSpec::C, keys.len(), 3000, 2);

    let enc: Vec<Vec<u8>> = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();

    let mut art = hope_art::Art::new();
    let mut hot = hope_hot::Hot::new();
    let mut bt = hope_btree::BPlusTree::plain();
    let mut pbt = hope_btree::BPlusTree::prefix();
    for (i, e) in enc.iter().enumerate().take(w.load_count) {
        art.insert(e, i as u64);
        hot.insert(e, i as u64);
        bt.insert(e, i as u64);
        pbt.insert(e, i as u64);
    }
    for op in &w.ops {
        let Op::Read(i) = op else { panic!("workload C is reads only") };
        let q = hope.encode(&keys[*i]);
        let want = Some(*i as u64);
        assert_eq!(art.get(q.as_bytes()), want, "ART");
        assert_eq!(hot.get(q.as_bytes()), want, "HOT");
        assert_eq!(bt.get(q.as_bytes()), want, "B+tree");
        assert_eq!(pbt.get(q.as_bytes()), want, "Prefix B+tree");
    }
}

#[test]
fn workload_e_scans_and_inserts_match_model() {
    let keys = generate(Dataset::Url, 1500, 13);
    let sample = sample_keys(&keys, 20.0, 2);
    let hope = HopeBuilder::new(Scheme::ThreeGrams)
        .dictionary_entries(1 << 12)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let w = YcsbWorkload::generate(WorkloadSpec::E, keys.len(), 800, 3);

    let enc: Vec<Vec<u8>> = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();
    let mut tree = hope_art::Art::new();
    let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (i, e) in enc.iter().enumerate().take(w.load_count) {
        tree.insert(e, i as u64);
        model.insert(e.clone(), i as u64);
    }
    for op in &w.ops {
        match op {
            Op::Scan(idx, len) => {
                let start = &enc[*idx];
                let want: Vec<u64> =
                    model.range(start.clone()..).take(*len).map(|(_, v)| *v).collect();
                assert_eq!(scan(&tree, start, *len), want);
            }
            Op::Insert(idx) => {
                tree.insert(&enc[*idx], *idx as u64);
                model.insert(enc[*idx].clone(), *idx as u64);
            }
            Op::Read(_) => unreachable!(),
        }
    }
    assert_eq!(tree.len(), model.len());
}

#[test]
fn surf_filter_under_workload_c_has_no_false_negatives() {
    let keys = generate(Dataset::Wiki, 2000, 17);
    let sample = sample_keys(&keys, 20.0, 4);
    for scheme in Scheme::ALL {
        let hope = HopeBuilder::new(scheme)
            .dictionary_entries(1 << 12)
            .build_from_sample(sample.iter().cloned())
            .expect("build");
        let mut enc: Vec<Vec<u8>> = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();
        enc.sort_unstable();
        enc.dedup();
        let surf = hope_surf::Surf::build(&enc, hope_surf::SuffixKind::Real);
        let w = YcsbWorkload::generate(WorkloadSpec::C, keys.len(), 2000, 5);
        for op in &w.ops {
            let Op::Read(i) = op else { unreachable!() };
            let q = hope.encode(&keys[*i]);
            assert!(surf.contains(q.as_bytes()), "{scheme}: false negative");
        }
    }
}

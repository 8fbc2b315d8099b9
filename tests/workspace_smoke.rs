//! Workspace smoke tests: every example under `examples/` must keep
//! building (their sources are tracked here; CI builds them with
//! `cargo build --examples`), and the exact API path each example drives
//! must run to completion in-process, so a plain `cargo test` catches a
//! broken example flow without shelling out to cargo.

use hope::{HopeBuilder, OrderedIndex, Scheme};
use hope_btree::BPlusTree;
use hope_store::{HopeStore, StoreConfig};
use hope_surf::{SuffixKind, Surf};
use hope_workloads::{generate, generate_email_split, sample_keys, Dataset};

/// The five demo examples this workspace ships.
const EXAMPLES: [&str; 5] =
    ["quickstart", "email_index", "range_filter", "compression_explorer", "store_serving"];

#[test]
fn all_examples_are_present() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for name in EXAMPLES {
        let path = dir.join(format!("{name}.rs"));
        assert!(path.is_file(), "missing example source {path:?}");
        let src = std::fs::read_to_string(&path).unwrap();
        assert!(src.contains("fn main()"), "{name}.rs has no main()");
    }
}

/// `examples/quickstart.rs`, end to end: build from a sample, encode keys
/// the sample never saw, check order preservation, decode losslessly.
#[test]
fn quickstart_path_runs_to_completion() {
    let sample: Vec<Vec<u8>> = [
        "com.gmail@alice",
        "com.gmail@bob",
        "com.gmail@carol",
        "com.yahoo@dave",
        "com.yahoo@erin",
        "org.acm@frank",
        "net.github@grace",
        "com.gmail@heidi",
        "com.outlook@ivan",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();

    let hope =
        HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample.clone()).expect("build");
    assert!(hope.dict_entries() > 0);
    assert!(hope.dict_memory_bytes() > 0);

    let keys = [
        "com.gmail@aaron",
        "com.gmail@zoe",
        "com.hotmail@newcomer",
        "org.acm@turing",
        "zz.unseen@pattern",
    ];
    let mut encoded: Vec<_> = keys.iter().map(|k| hope.encode(k.as_bytes())).collect();

    encoded.sort();
    let decoder = hope.decoder();
    let decoded: Vec<String> = encoded
        .iter()
        .map(|e| decoder.decode(e.as_bytes(), e.bit_len()).expect("lossless"))
        .map(|k| String::from_utf8(k).expect("utf8"))
        .collect();
    let mut expect: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
    expect.sort();
    assert_eq!(decoded, expect, "order preservation violated");
}

/// `examples/email_index.rs` in miniature: a B+tree over compressed email
/// keys answers every point lookup and range scan correctly.
#[test]
fn email_index_path() {
    let keys = generate(Dataset::Email, 3_000, 7);
    let sample = sample_keys(&keys, 20.0, 1);
    let hope = HopeBuilder::new(Scheme::DoubleChar)
        .dictionary_entries(1 << 16)
        .build_from_sample(sample.iter().cloned())
        .expect("build");

    let mut tree = BPlusTree::plain();
    for (i, k) in keys.iter().enumerate() {
        tree.insert(&hope.encode(k).into_bytes(), i as u64);
    }
    for (i, k) in keys.iter().enumerate().step_by(7) {
        assert_eq!(tree.get(&hope.encode(k).into_bytes()), Some(i as u64));
    }
    let first = keys.iter().enumerate().step_by(31).next().unwrap();
    let mut hits = 0;
    tree.visit(&hope.encode(first.1).into_bytes(), &mut |_, _| {
        hits += 1;
        hits < 10
    });
    assert!(hits > 0);
}

/// `examples/range_filter.rs` in miniature: SuRF over compressed URLs has
/// no false negatives on stored keys.
#[test]
fn range_filter_path() {
    let all = generate(Dataset::Url, 2_000, 3);
    let (stored, absent) = all.split_at(1_000);
    let sample = sample_keys(stored, 25.0, 5);
    let hope = HopeBuilder::new(Scheme::FourGrams)
        .dictionary_entries(1 << 14)
        .build_from_sample(sample.iter().cloned())
        .expect("build");

    let mut sorted: Vec<Vec<u8>> = stored.iter().map(|k| hope.encode(k).into_bytes()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let surf = Surf::build(&sorted, SuffixKind::Real);

    for k in stored {
        assert!(surf.contains(&hope.encode(k).into_bytes()), "false negative");
    }
    // FPR sanity only — rejections must be truly absent.
    let fp = absent.iter().filter(|k| surf.contains(&hope.encode(k).into_bytes())).count();
    assert!(fp < absent.len(), "filter accepts everything");
}

/// `examples/store_serving.rs` in miniature: a sharded store over Email-A
/// keys takes drifting Email-B writes, hot-swaps its dictionaries, and
/// keeps serving every key correctly.
#[test]
fn store_serving_path() {
    let (email_a, email_b) = generate_email_split(8_000, 42);
    let load: Vec<(Vec<u8>, u64)> =
        email_a.iter().take(1_500).enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let cfg = StoreConfig { min_observed_bytes: 2048, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, load.clone()).expect("store build");
    assert_eq!(store.get(&load[7].0).expect("valid key"), Some(7));

    for (i, k) in email_b.iter().take(1_500).enumerate() {
        store.insert(k.clone(), i as u64).expect("valid key");
    }
    let (swaps, errors) = store.maintain();
    assert!(errors.is_empty(), "{errors:?}");
    assert!(!swaps.is_empty(), "drift should trigger a swap");
    assert_eq!(store.get(&load[7].0).expect("valid key"), Some(7));
    assert_eq!(store.len(), 3_000);
    let mut all = Vec::new();
    store.range_into(b"", b"\xff\xff\xff", usize::MAX, &mut all).expect("valid bounds");
    assert_eq!(all.len(), 3_000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

/// `examples/compression_explorer.rs` in miniature: every scheme builds on
/// a word sample and actually compresses it.
#[test]
fn compression_explorer_path() {
    let keys = generate(Dataset::Wiki, 2_000, 11);
    let sample = sample_keys(&keys, 25.0, 2);
    for scheme in Scheme::ALL {
        let hope = HopeBuilder::new(scheme)
            .dictionary_entries(1 << 12)
            .build_from_sample(sample.iter().cloned())
            .unwrap_or_else(|e| panic!("{}: {e:?}", scheme.name()));
        let raw: usize = keys.iter().map(|k| k.len()).sum();
        let comp: usize = keys.iter().map(|k| hope.encode(k).byte_len()).sum();
        assert!(comp > 0, "{}", scheme.name());
        assert!(comp < raw, "{} failed to compress: {comp} >= {raw}", scheme.name());
    }
}

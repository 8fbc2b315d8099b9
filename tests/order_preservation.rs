//! End-to-end order preservation: for every scheme and every search tree,
//! inserting HOPE-encoded keys and scanning must return values in exactly
//! the same order as the raw-key tree — the property (§3.1) that makes
//! range queries on compressed keys meaningful — and the padded bytes
//! alone must order strictly as the source keys do, for arbitrary byte
//! keys, so a tree can hold them *as* the key.

mod common;

use common::hostile_keys;
use hope::{EncodedKey, HopeBuilder, OrderedIndex, Scheme};
use hope_workloads::{generate, sample_keys, Dataset};

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

fn dataset_keys(dataset: Dataset, n: usize) -> Vec<Vec<u8>> {
    generate(dataset, n, 0xDEC0DE)
}

fn build(scheme: Scheme, sample: &[Vec<u8>]) -> hope::Hope {
    HopeBuilder::new(scheme)
        .dictionary_entries(1 << 12)
        .build_from_sample(sample.iter().cloned())
        .expect("build")
}

#[test]
fn encoded_keys_sort_like_source_keys() {
    for dataset in Dataset::ALL {
        let keys = dataset_keys(dataset, 3000);
        let sample = sample_keys(&keys, 10.0, 1);
        for scheme in Scheme::ALL {
            let hope = build(scheme, &sample);
            let mut pairs: Vec<(EncodedKey, &Vec<u8>)> =
                keys.iter().map(|k| (hope.encode(k), k)).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut expect: Vec<&Vec<u8>> = keys.iter().collect();
            expect.sort();
            let got: Vec<&Vec<u8>> = pairs.into_iter().map(|(_, k)| k).collect();
            assert_eq!(got, expect, "{dataset}/{scheme}: encoded order diverges");
        }
    }
}

/// The guarantee trees rely on when they index padded bytes *as the key*:
/// over sorted, distinct `keys` the padded bytes strictly increase, every
/// key decodes back, and encoded range bounds admit exactly the keys of
/// the source range.
fn assert_bytes_are_the_key(what: &str, hope: &hope::Hope, keys: &[Vec<u8>]) {
    let mut scratch = hope::DecodeScratch::new();
    let mut pair = hope::EncodeScratch::new();
    let encoded: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| {
            let e = hope.encode(k);
            let back = hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch);
            assert_eq!(back, Ok(k.as_slice()), "{what}: {k:?} does not round-trip");
            e.into_bytes()
        })
        .collect();
    for (i, w) in encoded.windows(2).enumerate() {
        assert!(w[0] < w[1], "{what}: {:?} !< {:?} in padded bytes", keys[i], keys[i + 1]);
    }
    for (low, high) in [
        (&b""[..], &b"\0\0\0"[..]),
        (b"\0\0\0\0\0", b"\0\0\0\0\0\0\0"),
        (b"a\0", b"a\0\0\0\x01"),
        (b"ab", b"ab\0\0"),
        (b"\xff", b"\xff\xff\xff"),
        (b"com.gmail@", b"com.gmail@\0\0"),
    ] {
        let (lo, hi) = hope.encode_range_bounds_to(low, high, &mut pair).unwrap();
        let admitted = keys.iter().zip(&encoded).filter(|(_, e)| lo <= &e[..] && &e[..] <= hi);
        let in_range = keys.iter().filter(|k| low <= k.as_slice() && k.as_slice() <= high);
        assert!(admitted.map(|(k, _)| k).eq(in_range), "{what}: bounds {low:?}..={high:?}");
    }
}

#[test]
fn padded_bytes_strictly_increase_for_arbitrary_keys() {
    // Distinct keys never share padded bytes — not "on the evaluation
    // datasets", but on keys chosen to make zero padding collide, under
    // a dictionary trained to give 0x00 the shortest code there is.
    let email = dataset_keys(Dataset::Email, 20_000);
    let mut hostile = hostile_keys();
    hostile.extend(email.iter().cloned());
    hostile.sort();
    hostile.dedup();
    let zero_runs: Vec<Vec<u8>> = (1..=40).map(|n| vec![0x00; n]).collect();
    let email_sample = sample_keys(&email, 10.0, 2);
    for scheme in Scheme::ALL {
        for (trained_on, sample) in [("0x00 runs", &zero_runs), ("Email", &email_sample)] {
            let what = format!("{scheme} trained on {trained_on}");
            assert_bytes_are_the_key(&what, &build(scheme, sample), &hostile);
        }
        // The evaluation datasets (distinct keys), each under its own
        // dictionary.
        for dataset in Dataset::ALL {
            let mut keys = dataset_keys(dataset, 3000);
            let hope = build(scheme, &sample_keys(&keys, 10.0, 2));
            keys.sort();
            assert_bytes_are_the_key(&format!("{dataset}/{scheme}"), &hope, &keys);
        }
    }
}

/// The uncompressed baseline on the same hostile keys: byte 0x00 has the
/// all-zeros code there (no code is reserved), and order still holds
/// strictly because every code is one whole byte, so nothing is padded and
/// the padded bytes are the key itself.
#[test]
fn identity_bytes_are_the_key_for_hostile_keys() {
    let hope = build(Scheme::Identity, &[]);
    let chain: Vec<Vec<u8>> = [&b"a"[..], b"a\0", b"a\0\0", b"a\x01"].map(<[u8]>::to_vec).into();
    let mut keys = hostile_keys();
    keys.push(Vec::new());
    keys.extend((1..=40).flat_map(|n| [vec![0x00; n], vec![0xff; n]]));
    keys.extend(chain.iter().cloned());
    keys.sort();
    keys.dedup();
    let mut scratch = hope::DecodeScratch::new();
    for k in &keys {
        let e = hope.encode(k);
        assert_eq!((e.as_bytes(), e.bit_len()), (k.as_slice(), 8 * k.len()), "{k:?}");
        assert_eq!(hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch), Ok(k.as_slice()));
    }
    let chain: Vec<_> = chain.iter().map(|k| hope.encode(k).into_bytes()).collect();
    assert!(chain.windows(2).all(|w| w[0] < w[1]), "{chain:?}");
    assert_bytes_are_the_key("Identity", &hope, &keys);
}

#[test]
fn tree_scans_agree_between_raw_and_encoded() {
    let keys = dataset_keys(Dataset::Email, 2000);
    let sample = sample_keys(&keys, 20.0, 3);
    for scheme in [Scheme::DoubleChar, Scheme::ThreeGrams, Scheme::AlmImproved] {
        let hope = build(scheme, &sample);

        // ART
        let mut raw = hope_art::Art::new();
        let mut enc = hope_art::Art::new();
        for (i, k) in keys.iter().enumerate() {
            raw.insert(k, i as u64);
            enc.insert(hope.encode(k).as_bytes(), i as u64);
        }
        for start in keys.iter().step_by(117) {
            let want = scan(&raw, start, 20);
            let got = scan(&enc, hope.encode(start).as_bytes(), 20);
            assert_eq!(got, want, "{scheme}: ART scan from {start:?}");
        }

        // HOT
        let mut raw = hope_hot::Hot::new();
        let mut enc = hope_hot::Hot::new();
        for (i, k) in keys.iter().enumerate() {
            raw.insert(k, i as u64);
            enc.insert(hope.encode(k).as_bytes(), i as u64);
        }
        for start in keys.iter().step_by(117) {
            assert_eq!(
                scan(&enc, hope.encode(start).as_bytes(), 20),
                scan(&raw, start, 20),
                "{scheme}: HOT scan"
            );
        }

        // B+trees
        for prefix_mode in [false, true] {
            let mk = || {
                if prefix_mode {
                    hope_btree::BPlusTree::prefix()
                } else {
                    hope_btree::BPlusTree::plain()
                }
            };
            let mut raw = mk();
            let mut enc = mk();
            for (i, k) in keys.iter().enumerate() {
                raw.insert(k, i as u64);
                enc.insert(hope.encode(k).as_bytes(), i as u64);
            }
            for start in keys.iter().step_by(117) {
                assert_eq!(
                    scan(&enc, hope.encode(start).as_bytes(), 20),
                    scan(&raw, start, 20),
                    "{scheme}: B+tree(prefix={prefix_mode}) scan"
                );
            }
        }
    }
}

#[test]
fn scan_from_unseen_start_keys() {
    // Range starts that were never inserted (the common case in YCSB E).
    let keys = dataset_keys(Dataset::Wiki, 1500);
    let probes = dataset_keys(Dataset::Wiki, 2500);
    let sample = sample_keys(&keys, 20.0, 4);
    let hope = build(Scheme::FourGrams, &sample);

    let mut raw = hope_art::Art::new();
    let mut enc = hope_art::Art::new();
    for (i, k) in keys.iter().enumerate() {
        raw.insert(k, i as u64);
        enc.insert(hope.encode(k).as_bytes(), i as u64);
    }
    for p in probes.iter().step_by(53) {
        let want = scan(&raw, p, 10);
        let got = scan(&enc, hope.encode(p).as_bytes(), 10);
        assert_eq!(got, want, "scan from unseen {p:?}");
    }
}

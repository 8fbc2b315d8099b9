//! SuRF-specific integration properties with HOPE-encoded keys: the filter
//! contract (no false negatives, point and range), the Figure 10 height
//! reduction, and the Figure 11 FPR improvement under compression.

use hope::{HopeBuilder, Scheme};
use hope_surf::{SuffixKind, Surf};
use hope_workloads::{generate, sample_keys, Dataset};

fn encoded_sorted(hope: &hope::Hope, keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut enc: Vec<Vec<u8>> = keys.iter().map(|k| hope.encode(k).into_bytes()).collect();
    enc.sort_unstable();
    enc.dedup();
    enc
}

#[test]
fn no_false_negatives_for_point_and_range_queries() {
    let keys = generate(Dataset::Email, 3000, 61);
    let sample = sample_keys(&keys, 20.0, 1);
    for scheme in Scheme::ALL {
        let hope = HopeBuilder::new(scheme)
            .dictionary_entries(1 << 12)
            .build_from_sample(sample.iter().cloned())
            .expect("build");
        for kind in [SuffixKind::None, SuffixKind::Hash, SuffixKind::Real] {
            let surf = Surf::build(&encoded_sorted(&hope, &keys), kind);
            for k in keys.iter().step_by(7) {
                let e = hope.encode(k);
                assert!(surf.contains(e.as_bytes()), "{scheme}/{kind:?}: point FN");
                // Closed range [k, k+1-last-byte): must report maybe.
                let mut hi = k.clone();
                *hi.last_mut().unwrap() = hi.last().unwrap().saturating_add(1);
                let (lo_e, hi_e) = hope.encode_range_bounds(k, &hi);
                assert!(
                    surf.range_may_contain(&lo_e, &hi_e),
                    "{scheme}/{kind:?}: range FN on [{k:?}, +1)"
                );
            }
        }
    }
}

#[test]
fn compression_reduces_trie_height() {
    // Figure 10, row 3: compressed tries are substantially shorter.
    let keys = generate(Dataset::Email, 4000, 67);
    let sample = sample_keys(&keys, 20.0, 2);
    let mut sorted = keys.clone();
    sorted.sort();
    let raw_height = Surf::build(&sorted, SuffixKind::None).avg_height();
    let hope = HopeBuilder::new(Scheme::DoubleChar)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let enc_height = Surf::build(&encoded_sorted(&hope, &keys), SuffixKind::None).avg_height();
    assert!(
        enc_height < raw_height * 0.8,
        "height {raw_height:.2} -> {enc_height:.2}: expected >20% reduction"
    );
}

#[test]
fn compression_lowers_false_positive_rate() {
    // Figure 11: each compressed-key bit carries more information.
    let all = generate(Dataset::Email, 8000, 71);
    let (stored, absent) = all.split_at(4000);
    let sample = sample_keys(stored, 20.0, 3);
    let fpr = |surf: &Surf, enc: &dyn Fn(&[u8]) -> Vec<u8>| {
        let fp = absent.iter().filter(|k| surf.contains(&enc(k))).count();
        fp as f64 / absent.len() as f64
    };

    let mut sorted: Vec<Vec<u8>> = stored.to_vec();
    sorted.sort();
    let raw = Surf::build(&sorted, SuffixKind::None);
    let raw_fpr = fpr(&raw, &|k| k.to_vec());

    let hope = HopeBuilder::new(Scheme::FourGrams)
        .dictionary_entries(1 << 14)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let comp = Surf::build(&encoded_sorted(&hope, stored), SuffixKind::None);
    let comp_fpr = fpr(&comp, &|k| hope.encode(k).into_bytes());

    assert!(
        comp_fpr <= raw_fpr + 0.02,
        "FPR should not rise under compression: {raw_fpr:.4} -> {comp_fpr:.4}"
    );
}

#[test]
fn memory_shrinks_with_compression() {
    let keys = generate(Dataset::Url, 4000, 73);
    let sample = sample_keys(&keys, 20.0, 4);
    let mut sorted = keys.clone();
    sorted.sort();
    let raw = Surf::build(&sorted, SuffixKind::Real);
    let hope = HopeBuilder::new(Scheme::DoubleChar)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let comp = Surf::build(&encoded_sorted(&hope, &keys), SuffixKind::Real);
    assert!(
        comp.memory_bytes() < raw.memory_bytes(),
        "SuRF memory should shrink: {} -> {}",
        raw.memory_bytes(),
        comp.memory_bytes()
    );
}

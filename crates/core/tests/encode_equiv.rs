//! Encode bit-identity: the production encode path (`Dict::encode_into`
//! over each scheme's Table-1 structure — packed array, bitmap trie with
//! its automaton, ART) must be **bit-identical** to a per-symbol walk over
//! [`SortedDict`], the binary-search baseline built from the same interval
//! division and codes. The reference shares no structure, no layout and no
//! loop with the production path, so the store's persisted order cannot
//! drift with a dictionary refactor.
//!
//! Random samples build the dictionaries; random probe keys (including
//! bytes never sampled — completeness covers them) are encoded through
//! both, individually, pair-wise and in sorted batches. A second suite
//! squeezes the n-gram automaton's state budget down to a handful of rows
//! so the fallback edges (trie walk per symbol) are exercised on random
//! dictionaries too.

use hope::code_assign::CodeAssigner;
use hope::dict::{BitmapTrieDict, Dict, SortedDict};
use hope::selector::{self};
use hope::{Code, EncodeScratch, Encoder, HopeBuilder, Scheme};
use proptest::prelude::*;

const ENTRIES: usize = 256;

fn parts(scheme: Scheme, sample: &[Vec<u8>]) -> (hope::axis::IntervalSet, Vec<Code>) {
    let set = selector::select_intervals(scheme, sample, ENTRIES).expect("select");
    let weights = selector::access_weights(&set, sample);
    let assigner =
        if scheme.uses_hu_tucker() { CodeAssigner::HuTucker } else { CodeAssigner::FixedLength };
    let codes = assigner.assign(&weights);
    (set, codes)
}

/// `production` must match `reference` on every probe: point, scratch,
/// pair and sorted-batch encoding.
fn check_equivalence(production: &Encoder, reference: &Encoder, what: &str, probes: &[Vec<u8>]) {
    let mut scratch = EncodeScratch::new();
    for p in probes {
        let want = reference.encode(p);
        assert_eq!(production.encode(p), want, "{what}: encode({p:?})");
        // Scratch encode returns the same padded bytes and bit length.
        let bytes = production.encode_to(p, &mut scratch);
        assert_eq!(bytes, want.as_bytes(), "{what}: encode_to({p:?})");
        assert_eq!(scratch.bit_len(), want.bit_len(), "{what}: encode_to({p:?}) bits");
    }
    // Pair encoding shares one traversal; results must still match the
    // per-key reference.
    for w in probes.windows(2) {
        let (mut low, mut high) = (w[0].clone(), w[1].clone());
        if low > high {
            std::mem::swap(&mut low, &mut high);
        }
        let (lo, hi) = production.encode_pair(&low, &high);
        assert_eq!(lo, reference.encode(&low), "{what}: pair low {low:?}");
        assert_eq!(hi, reference.encode(&high), "{what}: pair high {high:?}");
    }
    // Sorted-batch encoding (Appendix B prefix reuse) as well.
    let mut sorted: Vec<&[u8]> = probes.iter().map(|p| p.as_slice()).collect();
    sorted.sort_unstable();
    for block in [2usize, 8] {
        let batch = production.encode_batch(&sorted, block);
        for (k, e) in sorted.iter().zip(&batch) {
            assert_eq!(e, &reference.encode(k), "{what}: batch({block}) {k:?}");
        }
    }
}

fn check_scheme(scheme: Scheme, sample: &[Vec<u8>], probes: &[Vec<u8>]) {
    let (set, codes) = parts(scheme, sample);
    let reference = Encoder::new(Dict::Sorted(SortedDict::build(&set, &codes)));
    let production = Encoder::new(Dict::build(scheme, &set, &codes));
    check_equivalence(&production, &reference, &scheme.to_string(), probes);
    // The builder pipeline ends in the same dictionary.
    let hope = HopeBuilder::new(scheme)
        .dictionary_entries(ENTRIES)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    check_equivalence(hope.encoder(), &reference, &format!("{scheme} via HopeBuilder"), probes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn encode_is_bit_identical_to_the_sorted_dict_reference(
        sample in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..24), 1..24),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 2..24),
    ) {
        for scheme in Scheme::ALL {
            check_scheme(scheme, &sample, &probes);
        }
    }

    /// Starved automata (0–12 states) must stay bit-identical: budget
    /// overflow only reroutes symbols through the trie-walk fallback.
    #[test]
    fn tiny_automaton_budgets_stay_bit_identical(
        sample in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16), 1..16),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24), 2..16),
        budget in 0usize..12,
    ) {
        for scheme in [Scheme::ThreeGrams, Scheme::FourGrams] {
            let (set, codes) = parts(scheme, &sample);
            let reference = Encoder::new(Dict::Sorted(SortedDict::build(&set, &codes)));
            let starved = BitmapTrieDict::build_with_state_budget(&set, &codes, budget);
            let production = Encoder::new(Dict::Bitmap(starved));
            check_equivalence(&production, &reference, &format!("{scheme}/budget {budget}"), &probes);
        }
    }
}

/// Deterministic smoke over realistic (email-shaped) keys, so a failure
/// here is reproducible without the proptest RNG.
#[test]
fn encode_is_bit_identical_on_email_keys() {
    let sample: Vec<Vec<u8>> =
        (0..300).map(|i| format!("com.gmail@user{i:04}").into_bytes()).collect();
    let probes: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"com.gmail@user0000".to_vec(),
        b"com.gmail@zzz".to_vec(),
        b"org.never.sampled@x".to_vec(),
        b"\x00\xff\x7f\x80".to_vec(),
        b"odd".to_vec(),
    ];
    for scheme in Scheme::ALL {
        check_scheme(scheme, &sample, &probes);
    }
}

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
//! both, individually, into a reused scratch and pair-wise. A second suite
//! squeezes the n-gram automaton's state budget down to a handful of rows
//! so the fallback edges (trie walk per symbol) are exercised on random
//! dictionaries too. A third builds the ALM schemes' ART at production
//! size (64 K-entry target, URL and Email samples) and on hand-built
//! divisions, where dense nodes, deep chains and the `lo − 1` floor run.

use hope::axis::{next_prefix, IntervalSet};
use hope::code_assign::CodeAssigner;
use hope::dict::{ArtDict, BitmapTrieDict, Dict, SortedDict};
use hope::selector::{self};
use hope::{Code, EncodeScratch, Encoder, HopeBuilder, Scheme};
use hope_workloads::{generate, Dataset};
use proptest::prelude::*;

const ENTRIES: usize = 256;

fn parts(scheme: Scheme, sample: &[Vec<u8>]) -> (IntervalSet, Vec<Code>) {
    parts_at(scheme, sample, ENTRIES)
}

fn parts_at(scheme: Scheme, sample: &[Vec<u8>], entries: usize) -> (IntervalSet, Vec<Code>) {
    let set = selector::select_intervals(scheme, sample, entries).expect("select");
    let weights = selector::access_weights(&set, sample);
    let assigner =
        if scheme.uses_hu_tucker() { CodeAssigner::HuTucker } else { CodeAssigner::FixedLength };
    let codes = assigner.assign(&weights);
    (set, codes)
}

/// `production` must match `reference` on every probe: point, scratch and
/// pair encoding.
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
    // A pair fills one scratch with both bounds, the high one encoded
    // first and moved aside: each must still match the per-key reference.
    for w in probes.windows(2) {
        let (mut low, mut high) = (w[0].clone(), w[1].clone());
        if low > high {
            std::mem::swap(&mut low, &mut high);
        }
        let (want_lo, want_hi) = (reference.encode(&low), reference.encode(&high));
        let (lo, hi) = production.encode_pair_to(&low, &high, &mut scratch);
        assert_eq!(lo, want_lo.as_bytes(), "{what}: pair low {low:?}");
        assert_eq!(hi, want_hi.as_bytes(), "{what}: pair high {high:?}");
        assert_eq!(
            scratch.pair_bit_lens(),
            (want_lo.bit_len(), want_hi.bit_len()),
            "{what}: pair bits [{low:?}, {high:?}]"
        );
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

/// `production` answers every probe's every suffix as `reference` does,
/// and lists the same `(symbol, code)` entries.
fn check_lookups(production: &Dict, reference: &Dict, what: &str, probes: &[Vec<u8>]) {
    for p in probes {
        for start in 0..p.len() {
            let rest = &p[start..];
            assert_eq!(production.lookup(rest), reference.lookup(rest), "{what}: lookup({rest:?})");
        }
    }
    let mut entries = Vec::new();
    reference.for_each_entry(&mut |symbol, code| entries.push((symbol.to_vec(), code)));
    let mut i = 0;
    production.for_each_entry(&mut |symbol, code| {
        assert_eq!(Some(&(symbol.to_vec(), code)), entries.get(i), "{what}: entry {i}");
        i += 1;
    });
    assert_eq!(i, entries.len(), "{what}: entries listed");
}

/// Runs of 0x00 / 0xFF, `stem + 0x00^k` chains and every byte value alone
/// and after each stem — bytes a sample never holds included.
fn hostile_probes(stems: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut probes: Vec<Vec<u8>> = Vec::new();
    for k in 1..=40 {
        probes.extend([vec![0x00; k], vec![0xFF; k]]);
    }
    for stem in stems {
        for k in 1..=8 {
            probes.push([stem.as_slice(), &vec![0x00; k]].concat());
        }
        probes.extend((0..=u8::MAX).map(|b| [stem.as_slice(), &[b]].concat()));
    }
    probes.extend((0..=u8::MAX).map(|b| vec![b]));
    probes
}

#[test]
fn art_dictionaries_at_production_size_match_the_reference() {
    // 2 048 URL keys (the store's reservoir) and 20 000 Email keys, each
    // followed by 2 000 keys the sample never saw.
    for (dataset, n) in [(Dataset::Url, 2_048), (Dataset::Email, 20_000)] {
        let keys = generate(dataset, n + 2_000, 11);
        let sample = &keys[..n];
        let mut probes = keys.clone();
        probes.extend(hostile_probes(&keys[..4]));
        for scheme in [Scheme::Alm, Scheme::AlmImproved] {
            let (set, codes) = parts_at(scheme, sample, 1 << 16);
            let what = format!("{scheme} on {n} {dataset} keys ({} entries)", set.len());
            let production = Dict::build(scheme, &set, &codes);
            let reference = Dict::Sorted(SortedDict::build(&set, &codes));
            check_lookups(&production, &reference, &what, &probes);
            let (production, reference) = (Encoder::new(production), Encoder::new(reference));
            for p in &probes {
                assert_eq!(production.encode(p), reference.encode(p), "{what}: encode({p:?})");
            }
        }
    }
}

/// A complete division over every single byte plus `extra` boundaries,
/// each interval given the longest symbol its right end allows.
fn division(extra: &[Vec<u8>]) -> IntervalSet {
    let mut boundaries: Vec<Vec<u8>> = (0..=u8::MAX).map(|b| vec![b]).collect();
    boundaries.extend(extra.iter().cloned());
    boundaries.sort_unstable();
    boundaries.dedup();
    let lens = (0..boundaries.len())
        .map(|i| {
            let fits = |s: usize| match (next_prefix(&boundaries[i][..s]), boundaries.get(i + 1)) {
                (Some(end), Some(next)) => next.as_slice() <= end.as_slice(),
                (end, _) => end.is_none(),
            };
            (1..=boundaries[i].len()).rev().find(|&s| fits(s)).expect("one byte fits") as u16
        })
        .collect();
    let set =
        IntervalSet::from_parts(boundaries.into_iter().map(Vec::into_boxed_slice).collect(), lens);
    set.validate().expect("a complete division");
    set
}

#[test]
fn art_nodes_of_every_width_and_prefix_chains_match_the_reference() {
    // A node under `m` of exactly 16, 17 and 256 children (its labels
    // spread to include 0x00 and 0xFF), each child a two-level chain, and
    // the terminal prefix chain `a` / `ab` / `abc`.
    for width in [16usize, 17, 256] {
        let labels: Vec<u8> = (0..width).map(|i| (i * 255 / (width - 1)) as u8).collect();
        let mut extra: Vec<Vec<u8>> = vec![b"ab".to_vec(), b"abc".to_vec()];
        for &l in &labels {
            extra.extend([vec![b'm', l], vec![b'm', l, 0x00], vec![b'm', l, 0x80, 0x01]]);
        }
        let set = division(&extra);
        let codes = CodeAssigner::FixedLength.assign(&vec![1; set.len()]);
        let alphabet = [0x00, b'a', b'b', b'c', b'd', b'l', b'm', b'n', 0x7F, 0x80, 0xFF];
        let mut probes: Vec<Vec<u8>> = extra.clone();
        for a in alphabet {
            probes.push(vec![a]);
            for b in alphabet {
                probes.extend(alphabet.iter().map(|&c| vec![a, b, c]));
            }
        }
        probes.extend(hostile_probes(&[b"m".to_vec(), b"ab".to_vec(), b"abc".to_vec()]));
        for l in 0..=u8::MAX {
            probes.extend([
                vec![b'm', l, 0x80],
                vec![b'm', l, 0x80, 0x00],
                vec![b'm', l, 0x80, 0x01, 0x00],
                vec![b'm', l, 0x81],
            ]);
        }
        let what = format!("{width}-child node");
        let production = Dict::Art(ArtDict::build(&set, &codes));
        let reference = Dict::Sorted(SortedDict::build(&set, &codes));
        check_lookups(&production, &reference, &what, &probes);
    }
}

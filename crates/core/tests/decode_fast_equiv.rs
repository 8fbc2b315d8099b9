//! Fast-decoder / reference-decoder equivalence: the byte-table
//! [`hope::FastDecoder`] must agree with the bit-walk [`hope::Decoder`]
//! on every stream — valid or corrupt — for every scheme and every state
//! budget. The table is an implementation detail, never a semantic
//! change; a tiny budget merely shifts work onto the bit-walk fallback.

use hope::{DecodeScratch, FastDecoder, Hope, HopeBuilder, Scheme};
use proptest::prelude::*;

fn build(scheme: Scheme, sample: &[Vec<u8>]) -> Hope {
    HopeBuilder::new(scheme)
        .dictionary_entries(256)
        .build_from_sample(sample.iter().cloned())
        .expect("build")
}

fn check_equivalence(hope: &Hope, scheme: Scheme, probes: &[Vec<u8>], budget: usize) {
    let walk = hope.decoder();
    // The decoders' build input is the dictionary's own entry listing.
    let (mut codes, mut symbols) = (Vec::<hope::Code>::new(), Vec::<Box<[u8]>>::new());
    hope.encoder().dict().for_each_entry(&mut |symbol, code| {
        codes.push(code);
        symbols.push(symbol.into());
    });
    let fast = FastDecoder::new(&codes, symbols, budget);
    let mut scratch = DecodeScratch::new();
    for p in probes {
        let e = hope.encode(p);
        // Valid streams: both decoders recover the source key.
        assert_eq!(walk.decode(&e).as_deref(), Ok(p.as_slice()), "{scheme}: walk {p:?}");
        assert_eq!(
            fast.decode_to(&e, &mut scratch),
            Ok(p.as_slice()),
            "{scheme}/budget {budget}: fast {p:?}"
        );
    }
    // Batch decode agrees item-for-item.
    let encoded: Vec<hope::EncodedKey> = probes.iter().map(|p| hope.encode(p)).collect();
    let batch = fast.decode_batch_keys(&encoded, &mut scratch).expect("valid batch");
    assert_eq!(batch.len(), probes.len());
    for (i, p) in probes.iter().enumerate() {
        assert_eq!(batch.get(i), p.as_slice(), "{scheme}/budget {budget}: batch {i}");
    }
}

/// Truncated and bit-flipped streams must be judged identically (both
/// reject, or both accept with the same output).
fn check_corruption_agreement(hope: &Hope, scheme: Scheme, probes: &[Vec<u8>]) {
    let walk = hope.decoder();
    let fast = hope.fast_decoder();
    let mut scratch = DecodeScratch::new();
    for p in probes {
        let e = hope.encode(p);
        for cut in [e.bit_len() / 2, e.bit_len().saturating_sub(1), e.bit_len() / 3] {
            let bytes = e.as_bytes()[..cut.div_ceil(8)].to_vec();
            // Re-zero the padding bits the truncation exposed.
            let mut bytes = bytes;
            if cut % 8 != 0 {
                let last = bytes.len() - 1;
                bytes[last] &= 0xFFu8 << (8 - cut % 8);
            }
            let t = hope::EncodedKey::from_parts(bytes, cut);
            let a = walk.decode(&t);
            let b = fast.decode_to(&t, &mut scratch).map(|s| s.to_vec());
            assert_eq!(a, b, "{scheme}: truncated({cut}) of {p:?} judged differently");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn fast_decoder_matches_reference_across_schemes_and_budgets(
        sample in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..20), 1..16),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..28), 1..16),
        budget in 1usize..64,
    ) {
        for scheme in Scheme::ALL {
            let hope = build(scheme, &sample);
            check_equivalence(&hope, scheme, &probes, budget);
            check_corruption_agreement(&hope, scheme, &probes);
        }
    }
}

/// Deterministic smoke over realistic keys, reproducible without the
/// proptest RNG.
#[test]
fn fast_decoder_roundtrips_email_keys_under_every_scheme() {
    let sample: Vec<Vec<u8>> =
        (0..300).map(|i| format!("com.gmail@user{i:04}").into_bytes()).collect();
    let probes: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"com.gmail@user0000".to_vec(),
        b"com.gmail@zzz".to_vec(),
        b"org.never.sampled@x".to_vec(),
        b"\x00\xff\x7f\x80".to_vec(),
    ];
    for scheme in Scheme::ALL {
        let hope = build(scheme, &sample);
        let fast = hope.fast_decoder();
        let mut scratch = DecodeScratch::new();
        for p in &probes {
            let e = hope.encode(p);
            assert_eq!(fast.decode_to(&e, &mut scratch), Ok(p.as_slice()), "{scheme}");
        }
        check_corruption_agreement(&hope, scheme, &probes);
    }
}

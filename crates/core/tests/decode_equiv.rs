//! Decoder equivalence: the production [`hope::FastDecoder`] (what
//! `Hope::decode_to` runs) must agree with the bit-walk [`hope::Decoder`]
//! on every stream — valid, truncated, bit-flipped or plain noise, with
//! whatever bit length the caller claims — for every scheme: the same
//! verdict, the same output, and never a panic. The reference shares no
//! structure with the production decoder (a trie walked bit by bit
//! against a floor search over the sorted code list).

use hope::axis::IntervalSet;
use hope::dict::{Dict, SortedDict};
use hope::hu_tucker::canonical_alphabetic_codes;
use hope::{DecodeScratch, Decoder, Encoder, FastDecoder, HopeBuilder, HopeError, Scheme};
use proptest::prelude::*;

/// Both decoders on one stream; returns the verdict they agree on.
fn agreed(
    walk: &Decoder,
    fast: &FastDecoder,
    bytes: &[u8],
    bit_len: usize,
    what: &str,
) -> Result<Vec<u8>, HopeError> {
    let want = walk.decode(bytes, bit_len);
    let mut scratch = DecodeScratch::new();
    let got = fast.decode_bits_to(bytes, bit_len, &mut scratch).map(<[u8]>::to_vec);
    assert_eq!(got, want, "{what}: {bit_len} bits of {bytes:?} judged differently");
    got
}

/// `probes` round-trip; their streams cut short, run on into their zero
/// padding and with single bits flipped, and the `noise` and all-zero
/// streams, are judged identically.
fn check_scheme(
    scheme: Scheme,
    sample: &[Vec<u8>],
    probes: &[Vec<u8>],
    noise: &[(Vec<u8>, usize)],
) {
    let hope = HopeBuilder::new(scheme)
        .dictionary_entries(256)
        .build_from_sample(sample.iter().cloned())
        .expect("build");
    let (walk, fast) = (hope.decoder(), hope.shared_fast_decoder());
    let what = scheme.name();

    for (i, p) in probes.iter().enumerate() {
        let e = hope.encode(p);
        let (bytes, bits) = (e.as_bytes(), e.bit_len());
        assert_eq!(agreed(&walk, fast, bytes, bits, what).as_deref(), Ok(p.as_slice()));
        // Truncated, with the cut-off bits left in place as (nonzero)
        // padding and with the bytes trimmed to fit.
        for cut in [bits / 2, bits.saturating_sub(1), bits / 3] {
            let kept = agreed(&walk, fast, bytes, cut, what);
            assert_eq!(agreed(&walk, fast, &bytes[..cut.div_ceil(8)], cut, what), kept);
        }
        // The zero padding claimed as data: no code is all zeros, so the
        // tail is at best the start of one.
        if bits % 8 != 0 {
            let padded = bytes.len() * 8;
            let verdict = agreed(&walk, fast, bytes, padded, what);
            assert_eq!(verdict, Err(HopeError::CorruptEncoding { bit_len: padded }), "{p:?}");
        }
        // One bit flipped: still a bitstream, rarely the same key.
        if bits > 0 {
            let mut flipped = bytes.to_vec();
            let at = (i * 7 + p.len()) % bits;
            flipped[at / 8] ^= 0x80 >> (at % 8);
            agreed(&walk, fast, &flipped, bits, what).ok();
        }
    }
    for (bytes, bit_len) in noise {
        let verdict = agreed(&walk, fast, bytes, *bit_len, what);
        if *bit_len > bytes.len() * 8 {
            assert_eq!(verdict, Err(HopeError::CorruptEncoding { bit_len: *bit_len }));
        }
    }
    // All zeros is the one pattern no valid stream contains, at any length.
    for bit_len in 1..=64 {
        let verdict = agreed(&walk, fast, &[0; 8], bit_len, what);
        assert_eq!(verdict, Err(HopeError::CorruptEncoding { bit_len }));
    }
    // The empty stream is the empty key, whatever bytes come with it.
    assert_eq!(agreed(&walk, fast, &[], 0, what).as_deref(), Ok(&[][..]));
    assert_eq!(agreed(&walk, fast, &[0xFF], 0, what).as_deref(), Ok(&[][..]));
    // Both forms of the production call are the same decoder.
    let mut scratch = DecodeScratch::new();
    let e = hope.encode(&probes[0]);
    assert_eq!(fast.decode_to(&e, &mut scratch), Ok(probes[0].as_slice()));
    assert_eq!(hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch), Ok(probes[0].as_slice()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn decoder_matches_reference_across_schemes(
        sample in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..20), 1..16),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..28), 1..16),
        noise in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), 0usize..224), 1..24),
    ) {
        // `noise` bit lengths run past the 192 bits the longest byte
        // string holds, so some claim more bits than they bring.
        for scheme in Scheme::ALL {
            check_scheme(scheme, &sample, &probes, &noise);
        }
    }
}

/// Deterministic smoke over realistic keys, reproducible without the
/// proptest RNG.
#[test]
fn decoder_roundtrips_email_keys_under_every_scheme() {
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
    // The shown bug: two bytes cannot hold a hundred bits.
    let noise = [(b"ab".to_vec(), 100), (b"ab".to_vec(), 16), (vec![], 1)];
    for scheme in Scheme::ALL {
        check_scheme(scheme, &sample, &probes, &noise);
    }
}

/// Hu-Tucker may emit codes up to 64 bits, and a code may start at any
/// bit of a byte: the decoder's window must supply 64 valid bits there.
/// A skewed single-byte dictionary puts 1..=56-bit codes on bytes 0..56,
/// 64-bit codes on bytes 56..200 and 63-bit codes on the rest.
#[test]
fn codes_up_to_64_bits_decode_at_every_bit_offset() {
    let depths: Vec<u32> = (1..=56).chain([64; 144]).chain([63; 56]).collect();
    let codes = canonical_alphabetic_codes(&depths);
    let set = IntervalSet::from_patterns(&[]);
    assert_eq!((set.len(), codes.len()), (256, 256));
    let symbols = (0..=u8::MAX).map(|b| vec![b].into()).collect();
    let walk = Decoder::new(&codes, symbols);
    let enc = Encoder::new(Dict::Sorted(SortedDict::build(&set, &codes)));
    let fast = FastDecoder::new(enc.dict());
    let what = "skewed";

    // Every offset within a byte in front of a 64- and a 63-bit code.
    for lead in 0u8..10 {
        let key = [lead, 56, 199, lead, 200, 255, 0];
        let e = enc.encode(&key);
        assert!(e.bit_len() > 2 * 64 + 2 * 63);
        assert_eq!(agreed(&walk, &fast, e.as_bytes(), e.bit_len(), what).as_deref(), Ok(&key[..]));
    }
    // Cut at every bit of the long code: nothing shorter completes it.
    for long in [56u8, 130, 199, 200, 255] {
        let key = [3, long];
        let e = enc.encode(&key);
        let short = usize::from(codes[3].len);
        for cut in short + 1..e.bit_len() {
            assert!(agreed(&walk, &fast, e.as_bytes(), cut, what).is_err(), "{long} cut at {cut}");
        }
        assert_eq!(agreed(&walk, &fast, e.as_bytes(), short, what).as_deref(), Ok(&[3][..]));
    }
}

//! Lossless decoding: the production [`FastDecoder`] and the bit-walk
//! reference [`Decoder`] it is tested against.
//!
//! The paper deliberately skips building decoders ("our target search tree
//! queries need not reconstruct the original keys"), but notes the encoding
//! is lossless. This module provides the inverse:
//!
//! * [`FastDecoder`] — the one production decoder. HOPE's codes are
//!   prefix-free and order-preserving (§3.1), so left-justified in a
//!   `u64` they ascend in symbol order, and the code a stream starts with
//!   is the *floor* of the stream's next 64 bits in that sorted list — the
//!   same search shape as encoding. The decoder is that list (plus code
//!   lengths and one symbol arena), fronted by a 4 096-entry table indexed
//!   by the next 12 stream bits: each entry holds, inline, every symbol
//!   those bits complete, and otherwise narrows the floor search to the
//!   handful of codes sharing the prefix. The window is read at the
//!   current **bit** position, so it always starts on a code boundary and
//!   the table needs a single state.
//! * [`Decoder`] — a binary trie over the code set, walked one bit at a
//!   time. Simple, obviously correct, and the structure that proves
//!   unique decodability; `tests/decode_equiv.rs` holds the production
//!   decoder to its verdict and output on valid, truncated, bit-flipped
//!   and random streams.
//!
//! Decoding is allocation-free on a reused [`DecodeScratch`]. See
//! DESIGN.md, "Decode path".
//!
//! ```
//! use hope::{DecodeScratch, HopeBuilder, HopeError, Scheme};
//!
//! let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
//! let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
//!
//! // The scratch's buffers are reused from key to key.
//! let mut scratch = DecodeScratch::new();
//! for key in [&b"com.gmail@carol"[..], b"com.gmail@dave"] {
//!     let e = hope.encode(key);
//!     assert_eq!(hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch), Ok(key));
//! }
//!
//! // A stream that is not a whole number of codes is an error, not a panic.
//! let e = hope.encode(b"com.gmail@erin");
//! let cut = hope.decode_to(e.as_bytes(), e.bit_len() - 1, &mut scratch);
//! assert!(matches!(cut, Err(HopeError::CorruptEncoding { .. })));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitpack::{Code, EncodedKey};
use crate::builder::HopeError;
use crate::dict::Dict;

const ABSENT: u32 = u32::MAX;

/// Stream bits that index [`FastDecoder`]'s first-bits table.
const FIRST_BITS: usize = 12;
/// Output bytes a first-bits entry holds inline.
const INLINE_CAP: usize = 10;
/// Zero bytes appended to the scratch's copy of the stream, so that a
/// 16-byte window read is in bounds at every bit position of the stream.
const WINDOW_PAD: usize = 15;

/// Reusable decode buffers: the output of one [`FastDecoder::decode_to`] /
/// [`Hope::decode_to`](crate::Hope::decode_to) call, plus the padded copy
/// of the stream the decoder reads its windows from. Every call clears and
/// refills both, retaining the allocations; one scratch per thread (or per
/// scan loop) is the intended usage, mirroring
/// [`EncodeScratch`](crate::encoder::EncodeScratch) on the encode side.
/// Returned slices are invalidated by the next call on the same scratch.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    pub(crate) out: Vec<u8>,
    stream: Vec<u8>,
}

impl DecodeScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Binary code trie: the bit-at-a-time reference decoder.
///
/// Maps an encoded bitstream back to interval symbols by walking one bit
/// per step; leaves carry the interval index. Build one via
/// [`Hope::decoder`](crate::Hope::decoder). Production code decodes with
/// [`Hope::decode_to`](crate::Hope::decode_to); this is what it is
/// tested against.
///
/// ```
/// use hope::{HopeBuilder, Scheme};
///
/// let sample = vec![b"information".to_vec(), b"informal".to_vec()];
/// let hope = HopeBuilder::new(Scheme::ThreeGrams)
///     .dictionary_entries(512)
///     .build_from_sample(sample)
///     .unwrap();
/// let dec = hope.decoder();
/// let e = hope.encode(b"informant");
/// assert_eq!(dec.decode(e.as_bytes(), e.bit_len()).unwrap(), b"informant"); // lossless (§3.1)
/// ```
#[derive(Debug)]
pub struct Decoder {
    /// `nodes[i] = [zero_child, one_child]`; `u32::MAX` = absent.
    nodes: Vec<[u32; 2]>,
    /// Leaf payload per node (interval index), `u32::MAX` if internal.
    leaf: Vec<u32>,
    /// Interval symbols, indexed by interval.
    symbols: Vec<Box<[u8]>>,
}

impl Decoder {
    /// Build from the interval codes and symbols.
    ///
    /// # Panics
    /// Panics if the codes are not prefix-free (a violation of §3.1).
    pub fn new(codes: &[Code], symbols: Vec<Box<[u8]>>) -> Self {
        assert_eq!(codes.len(), symbols.len());
        let mut dec = Decoder { nodes: vec![[ABSENT; 2]], leaf: vec![ABSENT], symbols };
        for (i, code) in codes.iter().enumerate() {
            let mut at = 0usize;
            for b in (0..code.len).rev() {
                let bit = ((code.bits >> b) & 1) as usize;
                assert_eq!(dec.leaf[at], ABSENT, "code {i} extends another code");
                if dec.nodes[at][bit] == ABSENT {
                    dec.nodes[at][bit] = dec.nodes.len() as u32;
                    dec.nodes.push([ABSENT; 2]);
                    dec.leaf.push(ABSENT);
                }
                at = dec.nodes[at][bit] as usize;
            }
            assert_eq!(dec.leaf[at], ABSENT, "duplicate code for interval {i}");
            assert_eq!(dec.nodes[at], [ABSENT; 2], "code {i} is a prefix of another code");
            dec.leaf[at] = i as u32;
        }
        dec
    }

    /// Decode `bit_len` bits of the padded `bytes` back to the source key.
    /// Bits past `bit_len` are not read.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] if `bytes` holds fewer than
    /// `bit_len` bits, or the bitstream leaves the trie or does not end
    /// exactly on a code boundary (impossible for encoder output;
    /// indicates corruption).
    pub fn decode(&self, bytes: &[u8], bit_len: usize) -> Result<Vec<u8>, HopeError> {
        let corrupt = Err(HopeError::CorruptEncoding { bit_len });
        if bit_len.div_ceil(8) > bytes.len() {
            return corrupt;
        }
        let mut out = Vec::with_capacity(bit_len / 4);
        let mut at = 0usize;
        for i in 0..bit_len {
            let bit = (bytes[i / 8] >> (7 - i % 8)) & 1;
            let next = self.nodes[at][bit as usize];
            if next == ABSENT {
                return corrupt;
            }
            at = next as usize;
            let l = self.leaf[at];
            if l != ABSENT {
                out.extend_from_slice(&self.symbols[l as usize]);
                at = 0;
            }
        }
        if at == 0 {
            Ok(out)
        } else {
            corrupt
        }
    }

    /// Bytes of memory used by the trie.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * 8
            + self.leaf.len() * 4
            + self.symbols.iter().map(|s| s.len()).sum::<usize>()
    }
}

/// One first-bits table entry — what the next [`FIRST_BITS`] stream bits
/// decode to, in a single 16-byte load.
#[derive(Debug, Clone, Copy)]
struct FirstEntry {
    /// Codes that sort at or below this prefix zero-extended to 64 bits.
    /// The floor of any window starting with the prefix is the last of
    /// the first `below ..= next entry's below` codes.
    below: u32,
    /// Stream bits the inline run consumes; 0 when the prefix completes
    /// no code (or a symbol too long to inline): floor-search instead.
    bits: u8,
    /// Length of the inline output run.
    len: u8,
    /// The symbols of every code the prefix completes, back to back.
    out: [u8; INLINE_CAP],
}

/// The production decoder: a floor search over the sorted code list,
/// behind a first-bits table that answers most windows outright.
///
/// One per compressor, built lazily by
/// [`Hope::shared_fast_decoder`](crate::Hope::shared_fast_decoder) (which
/// [`Hope::decode_to`](crate::Hope::decode_to) calls) from the dictionary's
/// own entry listing — about 13 bytes per entry, the symbol bytes, and a
/// 64 KiB table. See the [module docs](self) for the method.
#[derive(Debug)]
pub struct FastDecoder {
    /// Codes left-justified in 64 bits; ascending in interval order.
    codes: Box<[u64]>,
    /// Bit length of each code (1..=64).
    lens: Box<[u8]>,
    /// Symbol `i` is `symbols[sym_off[i]..sym_off[i + 1]]`.
    sym_off: Box<[u32]>,
    symbols: Box<[u8]>,
    /// Indexed by the window's top [`FIRST_BITS`] bits, plus one sentinel
    /// entry closing the last prefix's `below` range.
    first: Box<[FirstEntry]>,
    /// Keys decoded, corrupt ones included (telemetry; relaxed).
    keys: AtomicU64,
}

impl FastDecoder {
    /// Build from the dictionary's `(symbol, code)` listing.
    ///
    /// # Panics
    /// Panics if the codes do not ascend as prefix-free bitstrings in
    /// listing order (a violation of §3.1).
    pub fn new(dict: &Dict) -> Self {
        let n = dict.num_entries();
        let (mut codes, mut lens) = (Vec::<u64>::with_capacity(n), Vec::<u8>::with_capacity(n));
        let (mut sym_off, mut symbols) = (Vec::with_capacity(n + 1), Vec::new());
        sym_off.push(0u32);
        dict.for_each_entry(&mut |symbol, code| {
            assert!(code.len >= 1, "empty code for symbol {symbol:?}");
            let left = code.left_aligned();
            if let (Some(&prev), Some(&prev_len)) = (codes.last(), lens.last()) {
                let shift = 64 - u32::from(prev_len);
                assert!(
                    left >> shift > prev >> shift,
                    "code for symbol {symbol:?} does not sort after its predecessor"
                );
            }
            codes.push(left);
            lens.push(code.len);
            symbols.extend_from_slice(symbol);
            sym_off.push(u32::try_from(symbols.len()).expect("symbol bytes fit in u32"));
        });
        let mut dec = FastDecoder {
            codes: codes.into(),
            lens: lens.into(),
            sym_off: sym_off.into(),
            symbols: symbols.into(),
            first: Box::default(),
            keys: AtomicU64::new(0),
        };
        dec.first = (0..=1u64 << FIRST_BITS).map(|prefix| dec.first_entry(prefix)).collect();
        dec
    }

    /// The table entry for `prefix` (the sentinel for `1 << FIRST_BITS`):
    /// greedily decode the prefix's bits for as long as they complete
    /// codes whose symbols fit inline.
    fn first_entry(&self, prefix: u64) -> FirstEntry {
        let n = self.codes.len();
        let mut e = FirstEntry { below: n as u32, bits: 0, len: 0, out: [0; INLINE_CAP] };
        if prefix >> FIRST_BITS != 0 {
            return e;
        }
        let window = prefix << (64 - FIRST_BITS);
        e.below = self.codes.partition_point(|&c| c <= window) as u32;
        while let Some(i) = self.code_at(window << e.bits, FIRST_BITS - e.bits as usize, 0, n) {
            let symbol = self.symbol(i);
            let end = e.len as usize + symbol.len();
            if end > INLINE_CAP {
                break;
            }
            e.out[e.len as usize..end].copy_from_slice(symbol);
            e.len = end as u8;
            e.bits += self.lens[i];
        }
        e
    }

    #[inline]
    fn symbol(&self, i: usize) -> &[u8] {
        &self.symbols[self.sym_off[i] as usize..self.sym_off[i + 1] as usize]
    }

    /// The code `window` starts with, if it is at most `avail` bits long:
    /// the floor of `window` among the codes, which is known to be the
    /// last of the first `lo..=hi` of them. Prefix-free ascending codes
    /// put every window that starts with code `i` in `codes[i] ..
    /// codes[i + 1]`, so no other code can be a prefix of it.
    #[inline]
    fn code_at(&self, window: u64, avail: usize, lo: usize, hi: usize) -> Option<usize> {
        let i = (lo + self.codes[lo..hi].partition_point(|&c| c <= window)).checked_sub(1)?;
        let len = usize::from(self.lens[i]);
        (len <= avail && (window ^ self.codes[i]) >> (64 - len) == 0).then_some(i)
    }

    /// Keys decoded since construction, corrupt streams included
    /// (telemetry counter; relaxed).
    pub(crate) fn key_count(&self) -> u64 {
        self.keys.load(Ordering::Relaxed)
    }

    /// Allocation-free decode of an [`EncodedKey`] into a reused scratch.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] on a corrupt stream.
    pub fn decode_to<'s>(
        &self,
        key: &EncodedKey,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        self.decode_bits_to(key.as_bytes(), key.bit_len(), scratch)
    }

    /// Allocation-free decode of `bit_len` bits of the padded `bytes` (the
    /// form scan paths carry) — the one decode loop. Bits past `bit_len`
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] if `bytes` holds fewer than
    /// `bit_len` bits, or the stream is not a whole number of codes.
    pub fn decode_bits_to<'s>(
        &self,
        bytes: &[u8],
        bit_len: usize,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        self.keys.fetch_add(1, Ordering::Relaxed);
        let corrupt = Err(HopeError::CorruptEncoding { bit_len });
        let Some(bytes) = bytes.get(..bit_len.div_ceil(8)) else {
            return corrupt;
        };
        let DecodeScratch { out, stream } = scratch;
        out.clear();
        stream.clear();
        stream.extend_from_slice(bytes);
        stream.extend_from_slice(&[0; WINDOW_PAD]);

        let mut pos = 0usize;
        while pos < bit_len {
            // The next 64 stream bits, left-justified. Codes run to 64
            // bits and `pos` to 7 bits into a byte, so eight bytes are
            // not enough.
            let at: [u8; 16] = stream[pos / 8..][..16].try_into().expect("padded");
            let window = (u128::from_be_bytes(at) << (pos % 8) >> 64) as u64;
            let avail = bit_len - pos;

            let prefix = (window >> (64 - FIRST_BITS)) as usize;
            let e = &self.first[prefix];
            if e.bits != 0 && usize::from(e.bits) <= avail {
                out.extend_from_slice(&e.out[..usize::from(e.len)]);
                pos += usize::from(e.bits);
                continue;
            }
            let (lo, hi) = (e.below as usize, self.first[prefix + 1].below as usize);
            let Some(i) = self.code_at(window, avail, lo, hi) else {
                return corrupt;
            };
            out.extend_from_slice(self.symbol(i));
            pos += usize::from(self.lens[i]);
        }
        Ok(out)
    }

    /// Bytes of memory the decoder holds.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len() * 8
            + self.lens.len()
            + self.sym_off.len() * 4
            + self.symbols.len()
            + self.first.len() * std::mem::size_of::<FirstEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::IntervalSet;
    use crate::code_assign::CodeAssigner;
    use crate::dict::SortedDict;
    use crate::encoder::Encoder;
    use crate::selector::{self, Scheme};
    use proptest::prelude::*;

    fn build(scheme: Scheme, sample: &[Vec<u8>]) -> (Encoder, Decoder, FastDecoder) {
        let set = selector::select_intervals(scheme, sample, 512).unwrap();
        let weights = selector::access_weights(&set, sample);
        let assigner = if scheme.uses_hu_tucker() {
            CodeAssigner::HuTucker
        } else {
            CodeAssigner::FixedLength
        };
        let codes = assigner.assign(&weights);
        let symbols: Vec<Box<[u8]>> = (0..set.len()).map(|i| set.symbol(i).into()).collect();
        let dict = Dict::build(scheme, &set, &codes);
        let fast = FastDecoder::new(&dict);
        (Encoder::new(dict), Decoder::new(&codes, symbols), fast)
    }

    /// The two symbols of the hand-coded dictionaries below.
    fn xy() -> Vec<Box<[u8]>> {
        vec![b"x"[..].into(), b"y"[..].into()]
    }

    /// A dictionary of the intervals from `x` and from `y`, for
    /// hand-written codes and streams.
    fn xy_dict(codes: &[Code; 2]) -> Dict {
        Dict::Sorted(SortedDict::build(&IntervalSet::from_parts(xy(), vec![1, 1]), codes))
    }

    fn roundtrip_scheme(scheme: Scheme, sample: &[Vec<u8>], keys: &[Vec<u8>]) {
        let (enc, dec, fast) = build(scheme, sample);
        let mut scratch = DecodeScratch::new();
        for key in keys {
            let e = enc.encode(key);
            let walked = dec.decode(e.as_bytes(), e.bit_len());
            assert_eq!(walked.as_deref(), Ok(key.as_slice()), "{scheme}: {key:?}");
            assert_eq!(fast.decode_to(&e, &mut scratch), Ok(key.as_slice()), "{scheme}: {key:?}");
        }
        assert_eq!(fast.key_count(), keys.len() as u64);
    }

    fn sample() -> Vec<Vec<u8>> {
        ["information", "informal", "informant", "covert", "cover", "coverage"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect()
    }

    #[test]
    fn lossless_roundtrip_all_schemes() {
        let s = sample();
        let keys: Vec<Vec<u8>> =
            ["info", "informant", "unseen-key", "c", "", "\u{0}\u{0}", "zzzz", "informationally"]
                .iter()
                .map(|s| s.as_bytes().to_vec())
                .collect();
        for scheme in Scheme::ALL {
            roundtrip_scheme(scheme, &s, &keys);
        }
    }

    #[test]
    fn rejects_prefix_violating_codes() {
        let codes = [Code::new(0b0, 1), Code::new(0b01, 2)];
        assert!(std::panic::catch_unwind(|| Decoder::new(&codes, xy())).is_err());
        assert!(std::panic::catch_unwind(|| FastDecoder::new(&xy_dict(&codes))).is_err());
    }

    #[test]
    fn corrupt_stream_detected_by_both_decoders() {
        let codes = [Code::new(0b10, 2), Code::new(0b11, 2)];
        let (dec, fast) = (Decoder::new(&codes, xy()), FastDecoder::new(&xy_dict(&codes)));
        let mut scratch = DecodeScratch::new();
        for (bytes, bit_len) in [
            (&[0b1000_0000u8][..], 1), // "1" alone is a dangling half-code
            (&[0b0000_0000][..], 1),   // "0" starts no code
            (&[0u8][..], 8),           // ...and neither do eight of them
            (&[0b1011_1000][..], 5),   // two codes, then half of one
            (&[0b1011_0000][..], 12),  // more bits claimed than bytes hold
        ] {
            let corrupt = HopeError::CorruptEncoding { bit_len };
            assert_eq!(dec.decode(bytes, bit_len), Err(corrupt.clone()), "{bytes:?}/{bit_len}");
            let got = fast.decode_bits_to(bytes, bit_len, &mut scratch);
            assert_eq!(got, Err(corrupt), "{bytes:?}/{bit_len}");
        }
        // Bits past `bit_len` are padding, whatever they hold.
        assert_eq!(dec.decode(&[0b1011_0111], 4).as_deref(), Ok(&b"xy"[..]));
        assert_eq!(fast.decode_bits_to(&[0b1011_0111], 4, &mut scratch), Ok(&b"xy"[..]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_keys_roundtrip(
            sample in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..16), 1..12),
            keys in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 1..24),
        ) {
            for scheme in [Scheme::DoubleChar, Scheme::ThreeGrams, Scheme::AlmImproved] {
                roundtrip_scheme(scheme, &sample, &keys);
            }
        }
    }
}

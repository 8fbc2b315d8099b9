//! The HOPE build pipeline (§4.1, Figure 5): Symbol Selector → Code
//! Assigner → Dictionary → Encoder, with per-module timing (Figure 9).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::bitpack::EncodedKey;
use crate::code_assign::{codes_are_order_preserving, CodeAssigner};
use crate::decoder::{Decoder, FastDecoder};
use crate::dict::Dict;
use crate::encoder::Encoder;
use crate::selector::{self, Scheme};

/// Errors from the HOPE codec: the build pipeline *and* the fallible
/// encode / decode surface ([`Hope::encode_to`], [`Hope::decode_to`]).
///
/// Every fallible stage reports through this type instead of panicking or
/// returning a bare `Option`, so embedding systems (e.g. a `hope_store`
/// shard) can surface a failed dictionary build — or a corrupt encoded
/// stream — and keep serving rather than aborting.
///
/// The enum is `#[non_exhaustive]`: future PRs may add variants without a
/// breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HopeError {
    /// The sampled key list was empty and the scheme needs statistics.
    EmptySample,
    /// Target dictionary size was zero.
    ZeroDictionarySize,
    /// The symbol selector produced an interval division that fails
    /// [`IntervalSet::validate`](crate::axis::IntervalSet::validate): not connected, not sorted, or otherwise
    /// violating the complete-division invariant of §3.2.
    InvalidIntervals {
        /// Name of the scheme whose selector failed.
        scheme: &'static str,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A source key exceeded [`MAX_KEY_BYTES`](crate::codec::MAX_KEY_BYTES)
    /// on the validated codec surface (`encode_to` and the store write
    /// path). Encoding is mathematically total, but unbounded keys would
    /// pin unbounded per-thread scratch, so the serving stack rejects them.
    KeyTooLong {
        /// Length of the offending key in bytes.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// An encoded bitstream did not end exactly on a code boundary or left
    /// the code trie — impossible for encoder output, so it indicates
    /// corruption of the stored bytes.
    CorruptEncoding {
        /// Bit length of the stream that failed to decode.
        bit_len: usize,
    },
}

impl std::fmt::Display for HopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HopeError::EmptySample => write!(f, "sampled key list is empty"),
            HopeError::ZeroDictionarySize => write!(f, "dictionary size must be positive"),
            HopeError::InvalidIntervals { scheme, detail } => {
                write!(f, "{scheme}: invalid interval division: {detail}")
            }
            HopeError::KeyTooLong { len, max } => {
                write!(f, "key of {len} bytes exceeds the {max}-byte limit")
            }
            HopeError::CorruptEncoding { bit_len } => {
                write!(f, "corrupt encoding: {bit_len}-bit stream does not decode")
            }
        }
    }
}

impl std::error::Error for HopeError {}

/// Wall-clock breakdown of the build phase, one entry per module (the
/// quantities Figure 9 reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Symbol Selector: pattern counting, interval division, test encoding.
    pub symbol_select: Duration,
    /// Code Assigner: fixed-length or Hu-Tucker construction.
    pub code_assign: Duration,
    /// Dictionary: populating the lookup structure.
    pub dictionary_build: Duration,
}

impl BuildTimings {
    /// Total build time.
    pub fn total(&self) -> Duration {
        self.symbol_select + self.code_assign + self.dictionary_build
    }
}

/// Snapshot of the codec's hot-path counters: how many keys were
/// encoded and decoded, and how often the n-gram automaton's fallback
/// edges actually fired. Read via [`Hope::codec_stats`]; counters are
/// relaxed atomics, and scratch-based point encodes flush their counts in
/// batches of 64 keys, so a snapshot taken under concurrent traffic may
/// lag each live encoding thread by up to one batch.
///
/// ```
/// use hope::{HopeBuilder, Scheme};
///
/// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
/// let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
/// hope.encode(b"com.gmail@carol");
/// let stats = hope.codec_stats();
/// assert_eq!(stats.encode_keys, 1);
/// assert_eq!(stats.automaton_fallback_takes, 0); // arrays have no second tier
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Keys encoded.
    pub encode_keys: u64,
    /// Automaton fallback edges taken (3-/4-Grams symbols resolved by the
    /// bitmap trie's walk instead of its transition table). Always 0 for
    /// the array and ART dictionaries, which have no second tier.
    pub automaton_fallback_takes: u64,
    /// Keys decoded through the shared decoder, corrupt streams included.
    pub decode_keys: u64,
}

/// Configuration for building a [`Hope`] encoder.
#[derive(Debug, Clone)]
pub struct HopeBuilder {
    scheme: Scheme,
    target_entries: usize,
}

impl HopeBuilder {
    /// Builder for the given scheme with the paper's default dictionary
    /// size (64K entries for the variable-size schemes).
    pub fn new(scheme: Scheme) -> Self {
        HopeBuilder { scheme, target_entries: 1 << 16 }
    }

    /// Set the target number of dictionary entries (ignored by the
    /// fixed-size Single-Char / Double-Char schemes).
    pub fn dictionary_entries(mut self, n: usize) -> Self {
        self.target_entries = n;
        self
    }

    /// Build from sampled keys. The sample affects only the compression
    /// rate; any HOPE dictionary encodes arbitrary keys order-preservingly
    /// (§4.1).
    pub fn build_from_sample<I>(self, sample: I) -> Result<Hope, HopeError>
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let sample: Vec<Vec<u8>> = sample.into_iter().collect();
        if self.target_entries == 0 {
            return Err(HopeError::ZeroDictionarySize);
        }
        if sample.is_empty() && self.scheme.fixed_dict_size().is_none() {
            return Err(HopeError::EmptySample);
        }

        // Identity trains nothing and builds no table.
        if self.scheme == Scheme::Identity {
            let (encoder, timings) = (Encoder::new(Dict::Identity), BuildTimings::default());
            let scheme = self.scheme;
            return Ok(Hope { scheme, encoder, timings, shared_decoder: OnceLock::new() });
        }

        // Module 1: Symbol Selector (interval division + test encoding).
        let t0 = Instant::now();
        let set = selector::select_intervals(self.scheme, &sample, self.target_entries)?;
        let weights = selector::access_weights(&set, &sample);
        let symbol_select = t0.elapsed();

        // Module 2: Code Assigner.
        let t1 = Instant::now();
        let codes = if self.scheme.uses_hu_tucker() {
            CodeAssigner::HuTucker.assign(&weights)
        } else {
            CodeAssigner::FixedLength.assign(&weights)
        };
        let code_assign = t1.elapsed();
        debug_assert!(codes_are_order_preserving(&codes));
        debug_assert!(codes[0].bits != 0, "the all-zeros code is reserved");

        // Module 3: Dictionary.
        let t2 = Instant::now();
        let dict = Dict::build(self.scheme, &set, &codes);
        let dictionary_build = t2.elapsed();

        // The interval division and the code list end here: the dictionary
        // is the one copy that outlives the build.
        Ok(Hope {
            scheme: self.scheme,
            encoder: Encoder::new(dict),
            timings: BuildTimings { symbol_select, code_assign, dictionary_build },
            shared_decoder: OnceLock::new(),
        })
    }
}

/// A built HOPE compressor: dictionary + encoder, ready for the encode
/// phase. The one codec type: its validated, fallible `encode_to` /
/// `encode_range_bounds_to` / `decode_to` are what serving layers program
/// against, and [`Scheme::Identity`] makes it the uncompressed baseline.
#[derive(Debug)]
pub struct Hope {
    scheme: Scheme,
    encoder: Encoder,
    timings: BuildTimings,
    /// Lazily built decoder backing [`Hope::decode_to`]; built at most
    /// once and shared across threads.
    shared_decoder: OnceLock<FastDecoder>,
}

impl Hope {
    /// The scheme this compressor was built with.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Encode one key (order-preserving, lossless).
    ///
    /// Allocates a fresh [`EncodedKey`]; query loops should prefer
    /// [`Hope::encode_to`] with a reused scratch.
    #[inline]
    pub fn encode(&self, key: &[u8]) -> EncodedKey {
        self.encoder.encode(key)
    }

    /// Allocation-free point encode into a reusable scratch; returns the
    /// padded encoded bytes (exact bit length via
    /// [`EncodeScratch::bit_len`](crate::encoder::EncodeScratch::bit_len)).
    ///
    /// This is the query-probe hot path: no per-key `Vec`, one
    /// [`Dict::encode_into`] loop. It validates the key; the unvalidated
    /// low-level walk stays available as [`Encoder::encode_to`].
    ///
    /// # Errors
    ///
    /// [`HopeError::KeyTooLong`] when `key` exceeds
    /// [`MAX_KEY_BYTES`](crate::codec::MAX_KEY_BYTES).
    #[inline]
    pub fn encode_to<'s>(
        &self,
        key: &[u8],
        scratch: &'s mut crate::encoder::EncodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        crate::codec::validate_key_len(key)?;
        Ok(self.encoder.encode_to(key, scratch))
    }

    /// Lazy point encode ([`Encoder::encode_lazily`]): `key` as a byte
    /// source that encodes only as far as its reader asks. A point read
    /// into an index that can settle on a partial key
    /// ([`OrderedIndex::seek`](crate::OrderedIndex::seek)) encodes only
    /// the bytes its descent reads. The key is validated here, once.
    ///
    /// # Errors
    ///
    /// [`HopeError::KeyTooLong`] when `key` exceeds
    /// [`MAX_KEY_BYTES`](crate::codec::MAX_KEY_BYTES).
    #[inline]
    pub fn encode_lazily<'s>(
        &'s self,
        key: &'s [u8],
        scratch: &'s mut crate::encoder::EncodeScratch,
    ) -> Result<crate::encoder::LazyEncode<'s>, HopeError> {
        crate::codec::validate_key_len(key)?;
        Ok(self.encoder.encode_lazily(key, scratch))
    }

    /// Encode each key on its own, into one reused scratch; `block_size`
    /// is not read.
    ///
    /// The paper's sorted-block encoder (Appendix B) is not implemented
    /// (DESIGN.md, "Known deviations from the paper"). This name and its
    /// signature remain only because the whole-store benchmark times its
    /// per-key encode lane through them.
    pub fn encode_batch(&self, keys: &[&[u8]], _block_size: usize) -> Vec<EncodedKey> {
        let mut scratch = crate::encoder::EncodeScratch::new();
        let out = keys
            .iter()
            .map(|k| {
                let bytes = self.encoder.encode_to(k, &mut scratch).to_vec();
                EncodedKey::from_parts(bytes, scratch.bit_len())
            })
            .collect();
        self.encoder.flush_count(&mut scratch);
        out
    }

    /// Encode the inclusive boundaries of a range query into a reusable
    /// scratch and return the two padded byte strings order-sensitive
    /// structures index.
    ///
    /// The bounds are exact: a source key `k` encodes to padded bytes
    /// within `[lo, hi]` byte-wise **if and only if** `low <= k <= high`
    /// (padded bytes order strictly as source keys do — see DESIGN.md,
    /// "Encoded-key comparison"), so the pair drives a compressed range
    /// scan directly and no hit needs a source-key re-check. For a
    /// structure that cannot read source keys (SuRF, a plain index over
    /// encoded keys): `hope_store` does not call it, because its scans
    /// check each hit's source key against the high bound and encode only
    /// the low one ([`Hope::encode_lazily`]).
    ///
    /// # Errors
    ///
    /// [`HopeError::KeyTooLong`] when either bound exceeds
    /// [`MAX_KEY_BYTES`](crate::codec::MAX_KEY_BYTES).
    #[inline]
    pub fn encode_range_bounds_to<'s>(
        &self,
        low: &[u8],
        high: &[u8],
        scratch: &'s mut crate::encoder::EncodeScratch,
    ) -> Result<(&'s [u8], &'s [u8]), HopeError> {
        crate::codec::validate_key_len(low)?;
        crate::codec::validate_key_len(high)?;
        Ok(self.encoder.encode_pair_to(low, high, scratch))
    }

    /// Allocation-free decode of `bit_len` bits of padded encoded bytes
    /// back to the source key, via a lazily built, cached
    /// [`FastDecoder`]. The first call pays the decoder build; later calls
    /// share it across threads.
    ///
    /// [`Scheme::Identity`] builds no decoder: its bytes are the key, and
    /// a decode is a copy.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] on a corrupt stream, including one
    /// that claims more bits than `enc` holds.
    pub fn decode_to<'s>(
        &self,
        enc: &[u8],
        bit_len: usize,
        scratch: &'s mut crate::decoder::DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        if let Dict::Identity = self.encoder.dict() {
            // The bytes are the key: whole bytes, no more than `enc` holds.
            let key = enc.get(..bit_len / 8).filter(|_| bit_len.is_multiple_of(8));
            let key = key.ok_or(HopeError::CorruptEncoding { bit_len })?;
            scratch.out.clear();
            scratch.out.extend_from_slice(key);
            return Ok(&scratch.out);
        }
        self.shared_fast_decoder().decode_bits_to(enc, bit_len, scratch)
    }

    /// The lazily built decoder behind [`Hope::decode_to`] — one per
    /// compressor, built on first use and shared thereafter.
    pub fn shared_fast_decoder(&self) -> &FastDecoder {
        self.shared_decoder.get_or_init(|| FastDecoder::new(self.encoder.dict()))
    }

    /// Access the low-level encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Build the bit-walk reference decoder for this dictionary — what
    /// tests hold [`Hope::decode_to`] to.
    pub fn decoder(&self) -> Decoder {
        let n = self.dict_entries();
        let (mut codes, mut symbols) = (Vec::with_capacity(n), Vec::with_capacity(n));
        self.encoder.dict().for_each_entry(&mut |symbol, code| {
            codes.push(code);
            symbols.push(symbol.into());
        });
        Decoder::new(&codes, symbols)
    }

    /// Number of dictionary entries.
    pub fn dict_entries(&self) -> usize {
        self.encoder.dict().num_entries()
    }

    /// Memory footprint of the encode side in bytes: the dictionary
    /// structure, including the bitmap trie's automaton — everything an
    /// encode reads.
    pub fn dict_memory_bytes(&self) -> usize {
        self.encoder.dict().memory_bytes()
    }

    /// Everything this compressor holds: the dictionary
    /// ([`Hope::dict_memory_bytes`]) plus the shared decoder once
    /// [`Hope::decode_to`] / [`Hope::shared_fast_decoder`] has built it.
    pub fn memory_bytes(&self) -> usize {
        self.dict_memory_bytes() + self.shared_decoder.get().map_or(0, FastDecoder::memory_bytes)
    }

    /// Build-phase timing breakdown (Figure 9).
    pub fn timings(&self) -> BuildTimings {
        self.timings
    }

    /// Snapshot the codec's hot-path counters (see [`CodecStats`]).
    ///
    /// The decode counter is the shared decoder's, and zero until
    /// [`Hope::decode_to`] / [`Hope::shared_fast_decoder`] first build it
    /// (so always zero for [`Scheme::Identity`], whose decode is a copy).
    pub fn codec_stats(&self) -> CodecStats {
        CodecStats {
            encode_keys: self.encoder.key_count(),
            automaton_fallback_takes: self.encoder.dict().automaton_fallback_takes(),
            decode_keys: self.shared_decoder.get().map_or(0, FastDecoder::key_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<u8>> {
        (0..200).map(|i| format!("com.gmail@user{i:04}").into_bytes()).collect()
    }

    #[test]
    fn builds_every_scheme() -> Result<(), HopeError> {
        for scheme in Scheme::ALL {
            // Build failures surface as HopeError values, not panics.
            let hope =
                HopeBuilder::new(scheme).dictionary_entries(1024).build_from_sample(sample())?;
            assert!(hope.dict_entries() > 0);
            assert!(hope.dict_memory_bytes() > 0);
            assert!(hope.timings().total() > Duration::ZERO);
            let e = hope.encode(b"com.gmail@user0007");
            assert!(e.bit_len() > 0);
        }
        Ok(())
    }

    #[test]
    fn range_bounds_bracket_contained_keys() {
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample()).unwrap();
        let mut scratch = crate::encoder::EncodeScratch::new();
        let (lo, hi) = hope
            .encode_range_bounds_to(b"com.gmail@user0010", b"com.gmail@user0100", &mut scratch)
            .unwrap();
        assert_eq!(lo, hope.encode(b"com.gmail@user0010").as_bytes());
        assert_eq!(hi, hope.encode(b"com.gmail@user0100").as_bytes());
        for probe in ["com.gmail@user0010", "com.gmail@user0055", "com.gmail@user0100"] {
            let e = hope.encode(probe.as_bytes()).into_bytes();
            assert!(lo <= e.as_slice() && e.as_slice() <= hi, "{probe} escaped its range bounds");
        }
    }

    #[test]
    fn fixed_schemes_build_from_empty_sample() {
        for scheme in [Scheme::SingleChar, Scheme::Identity] {
            let hope = HopeBuilder::new(scheme).build_from_sample(Vec::<Vec<u8>>::new()).unwrap();
            assert_eq!(hope.dict_entries(), 256);
        }
    }

    #[test]
    fn variable_schemes_reject_empty_sample() {
        let err = HopeBuilder::new(Scheme::ThreeGrams)
            .build_from_sample(Vec::<Vec<u8>>::new())
            .unwrap_err();
        assert_eq!(err, HopeError::EmptySample);
    }

    #[test]
    fn zero_dict_size_rejected() {
        let err = HopeBuilder::new(Scheme::ThreeGrams)
            .dictionary_entries(0)
            .build_from_sample(sample())
            .unwrap_err();
        assert_eq!(err, HopeError::ZeroDictionarySize);
    }

    #[test]
    fn roundtrip_through_public_api() {
        let hope = HopeBuilder::new(Scheme::FourGrams)
            .dictionary_entries(512)
            .build_from_sample(sample())
            .unwrap();
        let dec = hope.decoder();
        for key in ["com.gmail@user0000", "unrelated", "", "com"] {
            let e = hope.encode(key.as_bytes());
            assert_eq!(dec.decode(e.as_bytes(), e.bit_len()).unwrap(), key.as_bytes());
        }
    }

    #[test]
    fn codec_stats_track_the_paths_taken() {
        let hope = HopeBuilder::new(Scheme::ThreeGrams)
            .dictionary_entries(512)
            .build_from_sample(sample())
            .unwrap();
        assert_eq!(hope.codec_stats(), CodecStats::default(), "fresh codec counts nothing");
        let mut enc = crate::encoder::EncodeScratch::new();
        let mut dec = crate::decoder::DecodeScratch::new();
        // Scratch encodes batch their counts: one full flush batch makes
        // them visible, plus one immediately-counted allocating encode.
        let flush = crate::encoder::COUNT_FLUSH_EVERY as u64;
        let mut bytes = Vec::new();
        for _ in 0..flush {
            bytes = hope.encode_to(b"com.gmail@user0001", &mut enc).unwrap().to_vec();
        }
        hope.encode(b"com.gmail@user0002");
        let stats = hope.codec_stats();
        assert_eq!(stats.encode_keys, flush + 1);
        assert_eq!(stats.automaton_fallback_takes, 0, "a 512-entry 3-Grams trie tables fully");
        assert_eq!(stats.decode_keys, 0, "decoder unbuilt");
        // A batch counts every key it encodes, though its scratch is
        // dropped before a flush batch fills.
        hope.encode_batch(&[b"com.gmail@user0003".as_slice(), b"com.gmail@user0004"], 16);
        assert_eq!(hope.codec_stats().encode_keys, flush + 3);
        hope.decode_to(&bytes, enc.bit_len(), &mut dec).unwrap();
        assert_eq!(hope.codec_stats().decode_keys, 1, "one key decoded");
    }

    #[test]
    fn error_display() {
        assert!(HopeError::EmptySample.to_string().contains("empty"));
        assert!(HopeError::ZeroDictionarySize.to_string().contains("positive"));
        assert!(HopeError::KeyTooLong { len: 9, max: 4 }.to_string().contains("9 bytes"));
        assert!(HopeError::CorruptEncoding { bit_len: 17 }.to_string().contains("17-bit"));
    }

    #[test]
    fn hope_implements_the_unified_codec_surface() {
        use crate::codec::MAX_KEY_BYTES;
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample()).unwrap();
        let mut enc = crate::encoder::EncodeScratch::new();
        let mut dec = crate::decoder::DecodeScratch::new();
        let bytes = hope.encode_to(b"com.gmail@user0042", &mut enc).unwrap().to_vec();
        let bits = enc.bit_len();
        assert_eq!(bytes, hope.encode(b"com.gmail@user0042").into_bytes());
        let back = hope.decode_to(&bytes, bits, &mut dec).unwrap();
        assert_eq!(back, b"com.gmail@user0042");
        // The pair surface brackets and validates.
        let (lo, hi) = hope.encode_range_bounds_to(b"a", b"b", &mut enc).unwrap();
        assert!(lo <= hi);
        let giant = vec![b'x'; MAX_KEY_BYTES + 1];
        assert!(matches!(hope.encode_to(&giant, &mut enc), Err(HopeError::KeyTooLong { .. })));
        // Truncating the last bit cuts the final code mid-stream; a
        // prefix-free code set can only fail to notice when that final
        // code was a single bit, which a 65K-entry dictionary never
        // assigns. Corruption surfaces as an error, not a panic.
        assert!(matches!(
            hope.decode_to(&bytes, bits - 1, &mut dec),
            Err(HopeError::CorruptEncoding { .. })
        ));
        // So does a bit length the bytes cannot hold.
        assert_eq!(
            hope.decode_to(b"ab", 100, &mut dec),
            Err(HopeError::CorruptEncoding { bit_len: 100 })
        );
    }
}

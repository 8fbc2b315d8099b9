//! The Encoder (§4.2): repeated dictionary lookups + fast bit concatenation.
//!
//! ## One path
//!
//! The [`Dict`] is the encoder's only table. A key is encoded by
//! [`Dict::encode_into`] — the structure is matched once per key and its
//! own loop runs: a packed-array load per symbol for Single-/Double-Char,
//! the bitmap trie's automaton (trie walk on its fallback edges) for
//! 3-/4-Grams, the ART floor walk for ALM / ALM-Improved, a copy for
//! Identity. See DESIGN.md, "One structure per scheme". A point read
//! whose index can place a partial key encodes it lazily
//! ([`Encoder::encode_lazily`]): the same call, bounded by the whole bytes
//! the index's [`seek`](crate::OrderedIndex::seek) asks for and resumed
//! where it stopped (DESIGN.md, "Point reads encode only what the index
//! needs").
//!
//! Everything is allocation-free: codes are appended to a caller-supplied
//! [`BitWriter`], and the `encode_into`-first API plus [`EncodeScratch`]
//! let query hot paths reuse buffers across probes instead of allocating
//! an [`EncodedKey`] per call. See DESIGN.md, "Performance guide".
//!
//! ## Range bounds
//!
//! The two bounds of a closed-range query ([`Encoder::encode_pair_to`])
//! are two plain encodes into one scratch. The paper's Appendix B shares
//! the walk over a sorted block's common prefix instead; that has to stop
//! after every symbol to record a checkpoint, which cost more than the
//! shared prefix saved, so there is no batch encoder (DESIGN.md, "Known
//! deviations from the paper").

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitpack::{BitWriter, EncodedKey};
use crate::dict::Dict;
use crate::index::EncodedBytes;

/// Key encoder: owns the dictionary — the one copy of it, and the only
/// table the encode loop reads.
#[derive(Debug)]
pub struct Encoder {
    dict: Dict,
    /// Keys encoded (telemetry; relaxed).
    keys: AtomicU64,
}

/// Reusable encode buffers for the allocation-free query hot paths.
///
/// Holds a [`BitWriter`] plus output byte buffers for a key (or a pair of
/// range-bound keys); every [`Encoder::encode_to`] /
/// [`Encoder::encode_pair_to`] call clears and refills them, retaining the
/// allocations. One scratch per thread (or per query loop) is the intended
/// usage — `hope_store` keeps one in a thread-local.
///
/// ```
/// use hope::encoder::EncodeScratch;
/// use hope::{HopeBuilder, Scheme};
///
/// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
/// let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
///
/// let mut scratch = EncodeScratch::new();
/// let bytes = hope.encode_to(b"com.gmail@carol", &mut scratch).unwrap().to_vec();
/// assert_eq!(bytes, hope.encode(b"com.gmail@carol").into_bytes());
/// assert_eq!(scratch.bit_len(), hope.encode(b"com.gmail@carol").bit_len());
/// ```
#[derive(Debug, Default)]
pub struct EncodeScratch {
    writer: BitWriter,
    /// The writer of a key [`Encoder::encode_lazily`] encodes as it is
    /// pulled, which keeps its bits between pulls — and after its reader
    /// has stopped early, until the next key starts.
    chunked: BitWriter,
    lo: Vec<u8>,
    hi: Vec<u8>,
    lo_bits: usize,
    hi_bits: usize,
    /// Encoded-key count not yet flushed to the encoder's shared atomic
    /// (see [`Encoder::encode_to`]).
    pending_keys: u32,
}

/// How many [`Encoder::encode_to`] calls a scratch accumulates locally
/// before flushing its key count into the encoder's shared atomic. A
/// per-key `fetch_add` measurably taxed the Single-Char encode (~4%) and
/// would bounce one cache line between every encoding thread; batching
/// divides that traffic by the batch size at the cost of snapshots
/// lagging each live scratch by up to `COUNT_FLUSH_EVERY - 1` keys.
pub(crate) const COUNT_FLUSH_EVERY: u32 = 64;

impl EncodeScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact bit length of the last [`Encoder::encode_to`] result (or of
    /// the *low* bound after [`Encoder::encode_pair_to`]).
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.lo_bits
    }

    /// Exact bit lengths `(low, high)` of the last
    /// [`Encoder::encode_pair_to`] result.
    #[inline]
    pub fn pair_bit_lens(&self) -> (usize, usize) {
        (self.lo_bits, self.hi_bits)
    }
}

impl Encoder {
    /// Wrap a dictionary.
    pub fn new(dict: Dict) -> Self {
        Encoder { dict, keys: AtomicU64::new(0) }
    }

    /// Access the underlying dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Keys encoded since construction. Telemetry counter: relaxed, and
    /// scratch-based encodes batch their counts (a flush every 64 keys), so
    /// a snapshot taken under concurrent encodes lags each live scratch by
    /// up to one batch.
    pub(crate) fn key_count(&self) -> u64 {
        self.keys.load(Ordering::Relaxed)
    }

    /// Encode one key. The empty key encodes to the empty code.
    ///
    /// Allocates a fresh [`EncodedKey`]; query loops should prefer
    /// [`Encoder::encode_to`] with a reused [`EncodeScratch`].
    pub fn encode(&self, key: &[u8]) -> EncodedKey {
        let mut w = BitWriter::with_capacity(key.len());
        self.encode_into(key, &mut w);
        w.finish()
    }

    /// Encode `key`, appending to an existing writer (allocation reuse).
    #[inline]
    pub fn encode_into(&self, key: &[u8], w: &mut BitWriter) {
        self.keys.fetch_add(1, Ordering::Relaxed);
        self.dict.encode_into(key, 0, usize::MAX, w);
    }

    /// Allocation-free point encode: fill `scratch` and return the padded
    /// encoded bytes (exact bit length via [`EncodeScratch::bit_len`]).
    #[inline]
    pub fn encode_to<'s>(&self, key: &[u8], scratch: &'s mut EncodeScratch) -> &'s [u8] {
        self.count_key(scratch);
        if let Dict::Identity = self.dict {
            // The key is its own encoding: one copy, no writer.
            scratch.lo.clear();
            scratch.lo.extend_from_slice(key);
            scratch.lo_bits = 8 * key.len();
            return &scratch.lo;
        }
        self.dict.encode_into(key, 0, usize::MAX, &mut scratch.writer);
        scratch.lo_bits = scratch.writer.finish_into(&mut scratch.lo);
        &scratch.lo
    }

    /// Lazy point encode: start `key` in `scratch` and return it as an
    /// [`EncodedBytes`] source, which encodes only as far as its reader
    /// asks. Its bytes are the whole bytes so far, which later codes never
    /// change, until the key ends; then they are the padded encoded bytes,
    /// as [`Encoder::encode_to`] returns them (exact bit length via
    /// [`EncodeScratch::bit_len`]).
    ///
    /// A key counts once, when it starts, however early its encode stops.
    ///
    /// ```
    /// use hope::encoder::EncodeScratch;
    /// use hope::{EncodedBytes, HopeBuilder, Scheme};
    ///
    /// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
    /// let hope = HopeBuilder::new(Scheme::AlmImproved).build_from_sample(sample).unwrap();
    /// let key = b"com.gmail@carol";
    /// let whole = hope.encode(key);
    ///
    /// let mut scratch = EncodeScratch::new();
    /// let mut lazy = hope.encoder().encode_lazily(key, &mut scratch);
    /// let (first, done) = lazy.at_least(2);
    /// assert!(first.len() >= 2 && !done);
    /// assert!(whole.as_bytes().starts_with(first));
    /// assert_eq!(lazy.at_least(usize::MAX), (whole.as_bytes(), true));
    /// assert_eq!(lazy.bytes(), whole.as_bytes());
    /// assert_eq!(scratch.bit_len(), whole.bit_len());
    /// ```
    pub fn encode_lazily<'s>(
        &'s self,
        key: &'s [u8],
        scratch: &'s mut EncodeScratch,
    ) -> LazyEncode<'s> {
        self.count_key(scratch);
        // Identity's pull copies the key straight out: no writer.
        if !matches!(self.dict, Dict::Identity) {
            scratch.chunked.clear();
        }
        scratch.lo.clear();
        LazyEncode { encoder: self, key, scratch, at: 0, whole: false }
    }

    /// Count one key in `scratch`, flushing to the shared counter once per
    /// `COUNT_FLUSH_EVERY` (64) keys: the per-key cost is one plain
    /// increment on an already-hot line.
    #[inline]
    fn count_key(&self, scratch: &mut EncodeScratch) {
        scratch.pending_keys += 1;
        if scratch.pending_keys >= COUNT_FLUSH_EVERY {
            self.keys.fetch_add(u64::from(scratch.pending_keys), Ordering::Relaxed);
            scratch.pending_keys = 0;
        }
    }

    /// Add the keys `scratch` has encoded but not yet counted to the
    /// shared counter: for a scratch that is about to be dropped.
    pub(crate) fn flush_count(&self, scratch: &mut EncodeScratch) {
        self.keys.fetch_add(u64::from(scratch.pending_keys), Ordering::Relaxed);
        scratch.pending_keys = 0;
    }

    /// Encode the two boundary keys of a closed-range query: fill
    /// `scratch` and return the two padded byte strings (bit lengths via
    /// [`EncodeScratch::pair_bit_lens`]). `hope_store` does not call it:
    /// a store scan encodes its low bound only, as far as its index
    /// needs, and checks each hit's source key against the high one.
    ///
    /// A pair costs two [`Encoder::encode_to`] calls. Sharing the walk
    /// over the bounds' common prefix has to stop after every symbol to
    /// record a checkpoint ([`Dict::lookup`]): on the array schemes that
    /// made a pair 2.6–4 single encodes, and on the trie schemes it saved
    /// a tenth of a pair (DESIGN.md, "The buffer-reuse contract").
    pub fn encode_pair_to<'s>(
        &self,
        low: &[u8],
        high: &[u8],
        scratch: &'s mut EncodeScratch,
    ) -> (&'s [u8], &'s [u8]) {
        self.encode_to(high, scratch);
        std::mem::swap(&mut scratch.lo, &mut scratch.hi);
        scratch.hi_bits = scratch.lo_bits;
        self.encode_to(low, scratch);
        (&scratch.lo, &scratch.hi)
    }
}

/// A key encoded as far as its reader has asked ([`Encoder::encode_lazily`]).
#[derive(Debug)]
pub struct LazyEncode<'s> {
    encoder: &'s Encoder,
    key: &'s [u8],
    scratch: &'s mut EncodeScratch,
    /// Key bytes encoded so far.
    at: usize,
    /// The key has ended, and its padded bytes are out.
    whole: bool,
}

impl LazyEncode<'_> {
    /// The bytes encoded so far: whole bytes until the key ends, its
    /// padded encoding after. Empty before the first pull.
    pub fn bytes(&self) -> &[u8] {
        &self.scratch.lo
    }
}

impl EncodedBytes for LazyEncode<'_> {
    /// Encode on until `n` whole bytes exist or the key ends. Identity's
    /// encoding is the key, copied whole on the first pull.
    #[inline]
    fn at_least(&mut self, n: usize) -> (&[u8], bool) {
        if !self.whole {
            let s = &mut *self.scratch;
            if let Dict::Identity = self.encoder.dict {
                s.lo.extend_from_slice(self.key);
                s.lo_bits = 8 * self.key.len();
                self.whole = true;
            } else {
                self.at = self.encoder.dict.encode_into(self.key, self.at, n, &mut s.chunked);
                self.whole = self.at == self.key.len();
                if self.whole {
                    s.lo_bits = s.chunked.finish_onto(&mut s.lo);
                } else {
                    s.chunked.whole_bytes_onto(&mut s.lo);
                }
            }
        }
        (&self.scratch.lo, self.whole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_assign::CodeAssigner;
    use crate::dict::SortedDict;
    use crate::selector::{self, Scheme};

    /// The production encoder for `scheme`, plus the binary-search
    /// reference over the same intervals and codes.
    fn build_both(scheme: Scheme, sample: &[Vec<u8>]) -> (Encoder, Encoder) {
        let set = selector::select_intervals(scheme, sample, 512).unwrap();
        let weights = selector::access_weights(&set, sample);
        let codes = if scheme.uses_hu_tucker() {
            CodeAssigner::HuTucker.assign(&weights)
        } else {
            CodeAssigner::FixedLength.assign(&weights)
        };
        (
            Encoder::new(Dict::build(scheme, &set, &codes)),
            Encoder::new(Dict::Sorted(SortedDict::build(&set, &codes))),
        )
    }

    fn build_encoder(scheme: Scheme, sample: &[Vec<u8>]) -> Encoder {
        match scheme {
            Scheme::Identity => Encoder::new(Dict::Identity),
            _ => build_both(scheme, sample).0,
        }
    }

    fn sample() -> Vec<Vec<u8>> {
        [
            "com.gmail@alice",
            "com.gmail@bob",
            "com.gmail@carol",
            "com.yahoo@dave",
            "org.acm@erin",
            "net.github@frank",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
    }

    #[test]
    fn empty_key_encodes_empty() {
        let enc = build_encoder(Scheme::SingleChar, &sample());
        let e = enc.encode(b"");
        assert_eq!(e.bit_len(), 0);
        assert_eq!(e.byte_len(), 0);
    }

    #[test]
    fn order_preserved_within_sample() {
        for scheme in Scheme::ALL {
            let s = sample();
            let enc = build_encoder(scheme, &s);
            let mut keys = s.clone();
            keys.push(b"com.gmail@".to_vec());
            keys.push(b"zzz".to_vec());
            keys.push(b"@".to_vec());
            keys.sort();
            let encoded: Vec<EncodedKey> = keys.iter().map(|k| enc.encode(k)).collect();
            for w in encoded.windows(2) {
                assert!(w[0] < w[1], "{scheme}: order violated");
            }
        }
    }

    #[test]
    fn every_scheme_gets_its_table1_structure() {
        let s = sample();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            let kind = match scheme {
                Scheme::SingleChar | Scheme::DoubleChar => "Array",
                Scheme::ThreeGrams | Scheme::FourGrams => "Bitmap-Trie",
                Scheme::Alm | Scheme::AlmImproved => "ART-based",
                Scheme::Identity => "None",
            };
            assert_eq!(enc.dict().kind(), kind, "{scheme}");
            // Only the bitmap trie carries a table beyond its own nodes.
            let has_automaton = matches!(enc.dict(), Dict::Bitmap(d) if d.automaton_stats().0 >= 1);
            assert_eq!(has_automaton, kind == "Bitmap-Trie", "{scheme}");
        }
    }

    #[test]
    fn encode_matches_the_sorted_dict_reference() {
        let s = sample();
        for scheme in Scheme::ALL {
            let (enc, reference) = build_both(scheme, &s);
            for key in
                [b"".as_slice(), b"a", b"com.gmail@zzz", b"odd len", b"\x00\xff", b"unseen bytes"]
            {
                assert_eq!(enc.encode(key), reference.encode(key), "{scheme}: key {key:?}");
            }
        }
    }

    #[test]
    fn encode_to_reuses_scratch_and_matches_encode() {
        let s = sample();
        let mut scratch = EncodeScratch::new();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            for key in [b"com.gmail@alice".as_slice(), b"", b"x", b"com.yahoo@dave!"] {
                let reference = enc.encode(key);
                let bytes = enc.encode_to(key, &mut scratch);
                assert_eq!(bytes, reference.as_bytes(), "{scheme}: key {key:?}");
                assert_eq!(scratch.bit_len(), reference.bit_len(), "{scheme}: key {key:?}");
            }
        }
    }

    /// A key encoded lazily, in pulls of any size, ends in the bytes and
    /// bit length of its whole encode, with every pull's bytes a prefix
    /// of them; a key abandoned after one pull leaves the next whole
    /// encode unaffected; and each key counts once, however it ends, even
    /// when nothing is pulled. Identity too, whose first pull copies the
    /// whole key.
    #[test]
    fn chunked_encodes_match_whole_ones_and_count_once() {
        let s = sample();
        let mut scratch = EncodeScratch::new();
        for scheme in Scheme::ALL.into_iter().chain([Scheme::Identity]) {
            let enc = build_encoder(scheme, &s);
            let keys =
                [&b""[..], b"x", b"com.gmail@alice", b"com.yahoo@dave!", b"\x00\xff\x00\xff"];
            let mut started = 0;
            for key in keys {
                let whole = enc.encode(key);
                for step in 1..=4 {
                    let mut lazy = enc.encode_lazily(key, &mut scratch);
                    started += 1;
                    let mut need = step;
                    loop {
                        let (bytes, done) = lazy.at_least(need);
                        if done {
                            assert_eq!(bytes, whole.as_bytes(), "{scheme}: {key:?} by {step}");
                            break;
                        }
                        assert!(bytes.len() >= need, "{scheme}: {key:?} by {step}");
                        assert!(whole.as_bytes().starts_with(bytes), "{scheme}: {key:?}");
                        need = bytes.len() + step;
                    }
                    assert_eq!(lazy.at_least(1), (whole.as_bytes(), true), "{scheme}: {key:?}");
                    assert_eq!(scratch.bit_len(), whole.bit_len(), "{scheme}: {key:?}");
                }
                enc.encode_lazily(key, &mut scratch).at_least(1);
                assert!(enc.encode_lazily(key, &mut scratch).bytes().is_empty());
                assert_eq!(enc.encode_to(key, &mut scratch), whole.as_bytes(), "{scheme}: {key:?}");
                started += 3;
            }
            enc.flush_count(&mut scratch);
            // Plus one `encode` per key, which counts straight away.
            assert_eq!(enc.key_count(), started + keys.len() as u64, "{scheme}");
        }
    }

    #[test]
    fn compresses_skewed_text() {
        let s = sample();
        let enc = build_encoder(Scheme::DoubleChar, &s);
        let key = b"com.gmail@newuser";
        let e = enc.encode(key);
        assert!(
            e.byte_len() < key.len(),
            "expected compression: {} vs {}",
            e.byte_len(),
            key.len()
        );
    }

    #[test]
    fn pair_encoding_matches_individual() {
        let s = sample();
        let mut scratch = EncodeScratch::new();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            for (low, high) in [
                (b"com.gmail@foo".as_slice(), b"com.gmail@fop".as_slice()),
                (b"com.gmail@foo", b"com.gmail@foo"),
                (b"", b"com.gmail@foo"),
                (b"aaa", b"zzz"),
                (b"com.gmail@", b"com.gmail@zzzzzz"),
            ] {
                let (want_lo, want_hi) = (enc.encode(low), enc.encode(high));
                let (lo, hi) = enc.encode_pair_to(low, high, &mut scratch);
                assert_eq!(lo, want_lo.as_bytes(), "{scheme}: low {low:?}");
                assert_eq!(hi, want_hi.as_bytes(), "{scheme}: high {high:?}");
                assert!(lo <= hi, "{scheme}: [{low:?}, {high:?}] encodes out of order");
                assert_eq!(
                    scratch.pair_bit_lens(),
                    (want_lo.bit_len(), want_hi.bit_len()),
                    "{scheme}: bit lengths of [{low:?}, {high:?}]"
                );
            }
        }
    }
}

//! The Encoder (§4.2): repeated dictionary lookups + fast bit concatenation.
//!
//! ## One path
//!
//! The [`Dict`] is the encoder's only table. A key is encoded by
//! [`Dict::encode_into`] — the structure is matched once per key and its
//! own loop runs: a packed-array load per symbol for Single-/Double-Char,
//! the bitmap trie's automaton (trie walk on its fallback edges) for
//! 3-/4-Grams, the ART floor walk for ALM / ALM-Improved. See DESIGN.md,
//! "One structure per scheme". A point read whose index can place a
//! partial key encodes in chunks ([`Encoder::encode_prefix_to`]): the same
//! call, bounded by the whole bytes it must produce and resumed where it
//! stopped (DESIGN.md, "Point reads encode only what the index needs").
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
    /// The writer of a key [`Encoder::encode_prefix_to`] encodes in
    /// chunks, which keeps its bits between calls — and after its caller
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

    /// Fill the scratch with the key's own bytes (identity encoding) —
    /// used by [`IdentityCodec`](crate::codec::IdentityCodec).
    pub(crate) fn fill_identity(&mut self, key: &[u8]) -> &[u8] {
        self.lo.clear();
        self.lo.extend_from_slice(key);
        self.lo_bits = key.len() * 8;
        &self.lo
    }

    /// Pair form of [`EncodeScratch::fill_identity`].
    pub(crate) fn fill_identity_pair(&mut self, low: &[u8], high: &[u8]) -> (&[u8], &[u8]) {
        self.lo.clear();
        self.lo.extend_from_slice(low);
        self.lo_bits = low.len() * 8;
        self.hi.clear();
        self.hi.extend_from_slice(high);
        self.hi_bits = high.len() * 8;
        (&self.lo, &self.hi)
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
        self.dict.encode_into(key, 0, usize::MAX, &mut scratch.writer);
        self.count_key(scratch);
        scratch.lo_bits = scratch.writer.finish_into(&mut scratch.lo);
        &scratch.lo
    }

    /// Resumable point encode: continue `key` from byte `from` until the
    /// encoding has at least `min_bytes` whole bytes or the key ends, and
    /// return those bytes with the position reached. `from` is 0, which
    /// starts the key afresh in `scratch`, or the position the previous
    /// call for this key returned. While the position is short of
    /// `key.len()` the bytes are the whole bytes so far, which later codes
    /// never change; at the end they are the padded encoded bytes, as
    /// [`Encoder::encode_to`] returns them (exact bit length via
    /// [`EncodeScratch::bit_len`]). A call with `from == 0` and
    /// `min_bytes == usize::MAX` is [`Encoder::encode_to`].
    ///
    /// A key counts once, when it starts, however early its encode stops.
    ///
    /// ```
    /// use hope::encoder::EncodeScratch;
    /// use hope::{HopeBuilder, Scheme};
    ///
    /// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
    /// let hope = HopeBuilder::new(Scheme::AlmImproved).build_from_sample(sample).unwrap();
    /// let key = b"com.gmail@carol";
    /// let whole = hope.encode(key);
    ///
    /// let mut scratch = EncodeScratch::new();
    /// let (first, at) = hope.encoder().encode_prefix_to(key, 0, 2, &mut scratch);
    /// assert!(first.len() >= 2 && at < key.len());
    /// assert!(whole.as_bytes().starts_with(first));
    /// let (rest, at) = hope.encoder().encode_prefix_to(key, at, usize::MAX, &mut scratch);
    /// assert_eq!((rest, at), (whole.as_bytes(), key.len()));
    /// assert_eq!(scratch.bit_len(), whole.bit_len());
    /// ```
    #[inline]
    pub fn encode_prefix_to<'s>(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        scratch: &'s mut EncodeScratch,
    ) -> (&'s [u8], usize) {
        if from == 0 && min_bytes == usize::MAX {
            return (self.encode_to(key, scratch), key.len());
        }
        self.encode_chunk(key, from, min_bytes, scratch)
    }

    /// One chunk of [`Encoder::encode_prefix_to`], in the scratch's own
    /// writer for chunked keys. Out of line, so that a caller whose keys
    /// are whole inlines no more than [`Encoder::encode_to`].
    #[inline(never)]
    fn encode_chunk<'s>(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        scratch: &'s mut EncodeScratch,
    ) -> (&'s [u8], usize) {
        if from == 0 {
            scratch.chunked.clear();
            self.count_key(scratch);
        }
        let at = self.dict.encode_into(key, from, min_bytes, &mut scratch.chunked);
        if at == key.len() {
            scratch.lo_bits = scratch.chunked.finish_into(&mut scratch.lo);
        } else {
            scratch.chunked.whole_bytes_into(&mut scratch.lo);
        }
        (&scratch.lo, at)
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
        build_both(scheme, sample).0
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

    /// A key encoded in chunks of any size ends in the bytes and bit
    /// length of its whole encode, with every chunk's whole bytes a prefix
    /// of them; a key abandoned after one chunk leaves the next whole
    /// encode unaffected; and each key counts once, however it ends.
    #[test]
    fn chunked_encodes_match_whole_ones_and_count_once() {
        let s = sample();
        let mut scratch = EncodeScratch::new();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            let keys =
                [&b""[..], b"x", b"com.gmail@alice", b"com.yahoo@dave!", b"\x00\xff\x00\xff"];
            let mut started = 0;
            for key in keys {
                let whole = enc.encode(key);
                for step in 1..=4 {
                    let (mut from, mut need) = (0, step);
                    started += 1;
                    loop {
                        let (bytes, to) = enc.encode_prefix_to(key, from, need, &mut scratch);
                        if to == key.len() {
                            assert_eq!(bytes, whole.as_bytes(), "{scheme}: {key:?} by {step}");
                            assert_eq!(scratch.bit_len(), whole.bit_len(), "{scheme}: {key:?}");
                            break;
                        }
                        assert!(bytes.len() >= need, "{scheme}: {key:?} by {step}");
                        assert!(whole.as_bytes().starts_with(bytes), "{scheme}: {key:?}");
                        (from, need) = (to, bytes.len() + step);
                    }
                }
                enc.encode_prefix_to(key, 0, 1, &mut scratch);
                assert_eq!(enc.encode_to(key, &mut scratch), whole.as_bytes(), "{scheme}: {key:?}");
                started += 2;
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

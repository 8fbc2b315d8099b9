//! The Encoder (§4.2): repeated dictionary lookups + fast bit concatenation.
//!
//! ## One path
//!
//! The [`Dict`] is the encoder's only table. A key is encoded by
//! [`Dict::encode_into`] — the structure is matched once per key and its
//! own loop runs: a packed-array load per symbol for Single-/Double-Char,
//! the bitmap trie's automaton (trie walk on its fallback edges) for
//! 3-/4-Grams, the ART floor walk for ALM / ALM-Improved. The walks that
//! must stop after each symbol (pair and batch encoding, below) use
//! [`Dict::lookup`], the same structures one symbol at a time. See
//! DESIGN.md, "One structure per scheme".
//!
//! Everything is allocation-free: codes are appended to a caller-supplied
//! [`BitWriter`], and the `encode_into`-first API plus [`EncodeScratch`]
//! let query hot paths reuse buffers across probes instead of allocating
//! an [`EncodedKey`] per call. See DESIGN.md, "Performance guide".
//!
//! ## Batch and pair encoding
//!
//! Also implements the batch-encoding optimization (§4.2, Appendix B):
//! when encoding a sorted batch, the common prefix of a block is encoded
//! once and reused, provided the reuse point is aligned with dictionary
//! lookups (safe for the fixed-gram schemes; ALM's arbitrary-length symbols
//! make a-priori alignment impossible, as the paper notes, so those fall
//! back to individual encoding). The two bounds of a closed-range query
//! ([`Encoder::encode_pair`]) are not such a batch: stopping after every
//! symbol of the first key to record checkpoints costs more than the
//! shared prefix of the second saves, so a pair is two plain encodes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::axis::lcp_len;
use crate::bitpack::{BitWriter, EncodedKey};
use crate::dict::Dict;

/// Key encoder: owns the dictionary — the one copy of it, and the only
/// table the encode loop reads.
#[derive(Debug)]
pub struct Encoder {
    dict: Dict,
    /// Max dictionary boundary length: a lookup checkpoint at byte `p` is
    /// reusable for another key sharing `p + max_boundary_len` prefix bytes.
    /// `None` disables batch reuse (ALM schemes).
    reuse_gram: Option<usize>,
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
        let reuse_gram = dict.reuse_gram();
        Encoder { dict, reuse_gram, keys: AtomicU64::new(0) }
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
        self.dict.encode_into(key, w);
    }

    /// Allocation-free point encode: fill `scratch` and return the padded
    /// encoded bytes (exact bit length via [`EncodeScratch::bit_len`]).
    ///
    /// The key count is accumulated in the scratch and flushed to the
    /// shared counter once per `COUNT_FLUSH_EVERY` (64) keys, keeping the
    /// per-key cost to one plain increment on an already-hot line.
    #[inline]
    pub fn encode_to<'s>(&self, key: &[u8], scratch: &'s mut EncodeScratch) -> &'s [u8] {
        self.dict.encode_into(key, &mut scratch.writer);
        scratch.pending_keys += 1;
        if scratch.pending_keys >= COUNT_FLUSH_EVERY {
            self.keys.fetch_add(u64::from(scratch.pending_keys), Ordering::Relaxed);
            scratch.pending_keys = 0;
        }
        scratch.lo_bits = scratch.writer.finish_into(&mut scratch.lo);
        &scratch.lo
    }

    /// Encode a batch of keys, exploiting shared prefixes within blocks of
    /// `block_size` **sorted** keys (Appendix B). `block_size = 1` encodes
    /// individually; `block_size = 2` is the paper's *pair-encoding* used
    /// for closed-range queries.
    ///
    /// The [`BitWriter`] and the per-block checkpoint list are allocated
    /// once and reused across the whole batch; the only per-key allocation
    /// is the exact-size byte buffer of each returned [`EncodedKey`].
    pub fn encode_batch(&self, keys: &[&[u8]], block_size: usize) -> Vec<EncodedKey> {
        assert!(block_size >= 1);
        let mut out = Vec::with_capacity(keys.len());
        let mut w = BitWriter::with_capacity(keys.first().map_or(0, |k| k.len()));
        if block_size == 1 || self.reuse_gram.is_none() {
            let mut buf = Vec::new();
            for k in keys {
                self.encode_into(k, &mut w);
                let bits = w.finish_into(&mut buf);
                out.push(EncodedKey::from_parts(buf.clone(), bits));
            }
            return out;
        }
        let gram = self.reuse_gram.unwrap();
        let mut checkpoints: Vec<(usize, usize)> = Vec::new();
        let mut bufs = (Vec::new(), Vec::new());
        for block in keys.chunks(block_size) {
            self.encode_block(block, gram, &mut w, &mut checkpoints, &mut bufs, &mut out);
        }
        out
    }

    /// Encode the two boundary keys of a closed-range query.
    ///
    /// Two plain encodes: see [`Encoder::encode_pair_to`].
    pub fn encode_pair(&self, low: &[u8], high: &[u8]) -> (EncodedKey, EncodedKey) {
        let mut scratch = EncodeScratch::new();
        self.encode_pair_to(low, high, &mut scratch);
        let EncodeScratch { lo, hi, lo_bits, hi_bits, .. } = scratch;
        (EncodedKey::from_parts(lo, lo_bits), EncodedKey::from_parts(hi, hi_bits))
    }

    /// Allocation-free [`Encoder::encode_pair`]: fill `scratch` and return
    /// the two padded byte strings (bit lengths via
    /// [`EncodeScratch::pair_bit_lens`]).
    ///
    /// A pair costs two [`Encoder::encode_to`] calls. Sharing the walk
    /// over the bounds' common prefix, as the batch encoder does for a
    /// sorted block, has to stop after every symbol to record a
    /// checkpoint ([`Dict::lookup`]): on the array schemes that made a
    /// pair 2.6–4 single encodes, and on the trie schemes it saved a
    /// tenth of a pair (DESIGN.md, "The buffer-reuse contract").
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

    /// Encode one sorted block: the first key records lookup checkpoints
    /// (source byte offset, encoded bit offset); subsequent keys bit-copy
    /// the longest safely-aligned shared prefix and resume encoding there.
    /// `w`, `checkpoints` and the `bufs` staging buffers are caller-owned
    /// so a batch amortizes their allocations across every block; the only
    /// per-key allocation is each output key's exact-size byte buffer.
    fn encode_block(
        &self,
        block: &[&[u8]],
        gram: usize,
        w: &mut BitWriter,
        checkpoints: &mut Vec<(usize, usize)>,
        bufs: &mut (Vec<u8>, Vec<u8>),
        out: &mut Vec<EncodedKey>,
    ) {
        debug_assert!(!block.is_empty());
        let (first_buf, buf) = bufs;
        let first = block[0];
        // (source bytes consumed, bits emitted) after each lookup.
        checkpoints.clear();
        let mut rest = first;
        let mut consumed_total = 0usize;
        while !rest.is_empty() {
            let (code, consumed) = self.dict.lookup(rest);
            w.put(code);
            consumed_total += consumed;
            rest = &rest[consumed..];
            checkpoints.push((consumed_total, w.bit_len()));
        }
        let first_bits = w.finish_into(first_buf);
        out.push(EncodedKey::from_parts(first_buf.clone(), first_bits));

        for key in &block[1..] {
            let shared = lcp_len(first, key);
            // A checkpoint at byte p is valid if every lookup before it saw
            // identical bytes: boundaries are at most `gram` bytes, so
            // p + gram <= shared suffices (see DESIGN.md).
            let ck = checkpoints.iter().take_while(|&&(p, _)| p + gram <= shared).last().copied();
            match ck {
                Some((bytes, bits)) => {
                    copy_bit_prefix(first_buf, bits, w);
                    self.encode_into(&key[bytes..], w);
                }
                None => self.encode_into(key, w),
            }
            let bits = w.finish_into(buf);
            out.push(EncodedKey::from_parts(buf.clone(), bits));
        }
    }
}

/// Append the first `bits` bits of the padded byte string `src` to `w`.
fn copy_bit_prefix(src: &[u8], bits: usize, w: &mut BitWriter) {
    debug_assert!(bits <= src.len() * 8);
    let whole = bits / 8;
    let mut i = 0;
    while i + 8 <= whole {
        let v = u64::from_be_bytes(src[i..i + 8].try_into().expect("8 bytes"));
        w.put_bits(v, 64);
        i += 8;
    }
    while i < whole {
        w.put_bits(src[i] as u64, 8);
        i += 1;
    }
    let rem = bits % 8;
    if rem > 0 {
        w.put_bits((src[whole] >> (8 - rem)) as u64, rem as u32);
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
            let (kind, gram) = match scheme {
                Scheme::SingleChar => ("Array", Some(1)),
                Scheme::DoubleChar => ("Array", Some(2)),
                Scheme::ThreeGrams => ("Bitmap-Trie", Some(3)),
                Scheme::FourGrams => ("Bitmap-Trie", Some(4)),
                Scheme::Alm | Scheme::AlmImproved => ("ART-based", None),
            };
            assert_eq!(enc.dict().kind(), kind, "{scheme}");
            assert_eq!(enc.reuse_gram, gram, "{scheme}: reuse gram comes from the dictionary");
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
    fn batch_matches_individual_encoding() {
        let s = sample();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            let mut keys: Vec<&[u8]> = vec![
                b"com.gmail@aaa",
                b"com.gmail@aab",
                b"com.gmail@zzz",
                b"com.yahoo@x",
                b"org.acm@y",
                b"zebra",
            ];
            keys.sort();
            for bs in [1usize, 2, 3, 32] {
                let batch = enc.encode_batch(&keys, bs);
                for (k, e) in keys.iter().zip(&batch) {
                    assert_eq!(e, &enc.encode(k), "{scheme} block={bs} key={k:?}");
                }
            }
        }
    }

    #[test]
    fn pair_encoding_matches_individual() {
        let s = sample();
        for scheme in Scheme::ALL {
            let enc = build_encoder(scheme, &s);
            for (low, high) in [
                (b"com.gmail@foo".as_slice(), b"com.gmail@fop".as_slice()),
                (b"com.gmail@foo", b"com.gmail@foo"),
                (b"", b"com.gmail@foo"),
                (b"aaa", b"zzz"),
                (b"com.gmail@", b"com.gmail@zzzzzz"),
            ] {
                let (lo, hi) = enc.encode_pair(low, high);
                assert_eq!(lo, enc.encode(low), "{scheme}: low {low:?}");
                assert_eq!(hi, enc.encode(high), "{scheme}: high {high:?}");
            }
        }
    }

    #[test]
    fn pair_scratch_matches_pair() {
        let s = sample();
        let mut scratch = EncodeScratch::new();
        let enc = build_encoder(Scheme::DoubleChar, &s);
        let (lo, hi) = enc.encode_pair(b"com.gmail@foo", b"com.gmail@fop");
        let (lo2, hi2) = enc.encode_pair_to(b"com.gmail@foo", b"com.gmail@fop", &mut scratch);
        assert_eq!((lo2, hi2), (lo.as_bytes(), hi.as_bytes()));
        assert_eq!(scratch.pair_bit_lens(), (lo.bit_len(), hi.bit_len()));
        assert!(lo < hi);
    }

    #[test]
    fn copy_bit_prefix_roundtrip() {
        let mut w = BitWriter::new();
        for i in 0..20u64 {
            w.put_bits(i % 256, 11);
        }
        let full = w.finish();
        for cut in [0usize, 1, 7, 8, 9, 63, 64, 65, 100, full.bit_len()] {
            let mut w2 = BitWriter::new();
            copy_bit_prefix(full.as_bytes(), cut, &mut w2);
            let partial = w2.finish();
            assert_eq!(partial.bit_len(), cut);
            for b in 0..cut {
                assert_eq!(partial.bit(b), full.bit(b), "bit {b} cut {cut}");
            }
        }
    }
}

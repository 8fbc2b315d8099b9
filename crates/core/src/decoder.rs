//! Lossless decoders: the bit-walk reference [`Decoder`] and the
//! table-driven [`FastDecoder`] used on scan paths.
//!
//! The paper deliberately skips building decoders ("our target search tree
//! queries need not reconstruct the original keys"), but notes the encoding
//! is lossless. This module provides the inverse, in two tiers:
//!
//! * [`Decoder`] — a binary trie over the code set, walked **one bit at a
//!   time**. It is the reference implementation: simple, obviously
//!   correct, and the structure that proves unique decodability (§3.1).
//! * [`FastDecoder`] — the same trie flattened into a **byte-at-a-time**
//!   DFA: for each resume state (a trie node, i.e. a position inside a
//!   partially consumed code) and each possible next byte, a precomputed
//!   entry lists the symbols those eight bits emit and the state they end
//!   in. One table load replaces eight branchy bit steps. States are
//!   allocated breadth-first up to a budget ([`DECODER_STATE_BUDGET`]), so
//!   the shallow states that Hu-Tucker's skew makes hot are always
//!   resident; bytes starting from a cold deep state fall back to the bit
//!   walk. Output is identical to [`Decoder`] by construction and by
//!   property test (`tests/decode_fast_equiv.rs`).
//!
//! Both decoders expose allocation-free variants on top of a reusable
//! [`DecodeScratch`]: [`Decoder::decode_to`] / [`FastDecoder::decode_to`]
//! for a single key, and [`FastDecoder::decode_batch`] for the scan shape —
//! N encoded hits decoded back-to-back into one flat buffer, zero heap
//! allocations once the scratch is warm. See DESIGN.md, "Decode path".
//!
//! ```
//! use hope::{DecodeScratch, HopeBuilder, Scheme};
//!
//! let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
//! let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
//! let fast = hope.fast_decoder();
//!
//! // Zero-allocation single-key decode (scratch buffers are reused).
//! let mut scratch = DecodeScratch::new();
//! let encoded = hope.encode(b"com.gmail@carol");
//! let decoded = fast.decode_to(&encoded, &mut scratch).expect("valid stream");
//! assert_eq!(decoded, b"com.gmail@carol");
//!
//! // Batch decode: N hits into one flat buffer, as a range scan would.
//! let hits = [hope.encode(b"com.gmail@dave"), hope.encode(b"com.gmail@erin")];
//! let batch = fast.decode_batch_keys(&hits, &mut scratch).expect("valid streams");
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch.get(0), b"com.gmail@dave");
//! assert_eq!(batch.iter().last().unwrap(), b"com.gmail@erin");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitpack::{Code, EncodedKey};
use crate::builder::HopeError;

/// Default cap on the number of [`FastDecoder`] byte-table states. One
/// state is a 256-entry row of 16-byte entries (4 KiB), so 2048 states
/// bound the table at 8 MiB; breadth-first allocation keeps the hot
/// shallow states resident and lets cold deep resume points fall back to
/// the bit walk.
pub const DECODER_STATE_BUDGET: usize = 2048;

const ABSENT: u32 = u32::MAX;
/// `node_state` marker: this trie node has no byte-table row.
const STATE_NONE: u32 = u32::MAX;
/// `next` marker: no valid stream passes through this (state, byte) pair.
const NEXT_INVALID: u32 = u32::MAX;
/// `next` marker: resolve this (state, byte) pair through the bit walk
/// (its flattened output run exceeds a `u16` — giant symbols only).
const NEXT_BITWALK: u32 = u32::MAX - 1;
/// Tag bit on a `next` value (and on the hot loop's cursor): the low bits
/// are a raw trie-node id with no byte-table row, not a state id.
const NODE_TAG: u32 = 1 << 31;
/// Emit runs at most this long live inline in the entry; longer runs
/// spill to the shared `emit_bytes` buffer.
const INLINE_CAP: usize = 10;

/// Reusable decode buffers for the allocation-free decode paths.
///
/// Holds the output buffer of a single-key [`Decoder::decode_to`] /
/// [`FastDecoder::decode_to`] call, plus the flat byte buffer and offset
/// list a [`FastDecoder::decode_batch`] fills. Every call clears and
/// refills the buffers it uses, retaining the allocations; one scratch per
/// thread (or per scan loop) is the intended usage, mirroring
/// [`EncodeScratch`](crate::encoder::EncodeScratch) on the encode side.
/// Returned slices are invalidated by the next call on the same scratch.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    out: Vec<u8>,
    flat: Vec<u8>,
    ends: Vec<usize>,
}

impl DecodeScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the single-key buffer with raw bytes and return it — the
    /// identity "decode" used by [`IdentityCodec`](crate::codec::IdentityCodec).
    pub(crate) fn fill(&mut self, bytes: &[u8]) -> &[u8] {
        self.out.clear();
        self.out.extend_from_slice(bytes);
        &self.out
    }
}

/// A batch of decoded keys, laid out back-to-back in one flat buffer
/// (borrowed from the [`DecodeScratch`] that produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedBatch<'s> {
    flat: &'s [u8],
    ends: &'s [usize],
}

impl<'s> DecodedBatch<'s> {
    /// Number of decoded keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the batch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th decoded key.
    pub fn get(&self, i: usize) -> &'s [u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.flat[start..self.ends[i]]
    }

    /// Iterate over the decoded keys in batch order.
    pub fn iter(&self) -> impl Iterator<Item = &'s [u8]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Binary code trie: the bit-at-a-time reference decoder.
///
/// Maps an encoded bitstream back to interval symbols by walking one bit
/// per step; leaves carry the interval index. Build one via
/// [`Hope::decoder`](crate::Hope::decoder).
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
/// assert_eq!(dec.decode(&e).unwrap(), b"informant"); // lossless (§3.1)
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

    /// Walk the top `n` bits of `byte` from trie node `at`, appending the
    /// symbol of every completed code to `out` (leaves resolve eagerly, so
    /// the returned node is never a leaf). `None` on an absent branch.
    #[inline]
    fn walk_bits(&self, mut at: usize, byte: u8, n: usize, out: &mut Vec<u8>) -> Option<usize> {
        debug_assert!(n <= 8);
        for i in 0..n {
            let bit = (byte >> (7 - i)) & 1;
            let next = self.nodes[at][bit as usize];
            if next == ABSENT {
                return None;
            }
            at = next as usize;
            let l = self.leaf[at];
            if l != ABSENT {
                out.extend_from_slice(&self.symbols[l as usize]);
                at = 0;
            }
        }
        Some(at)
    }

    /// Decode `bit_len` bits of the padded bytes, appending the source
    /// bytes to `out`. `false` if the stream does not end exactly on a
    /// code boundary or leaves the trie (corruption).
    fn decode_append(&self, bytes: &[u8], bit_len: usize, out: &mut Vec<u8>) -> bool {
        debug_assert!(bytes.len() * 8 >= bit_len);
        let full = bit_len / 8;
        let mut at = 0usize;
        for &b in &bytes[..full] {
            match self.walk_bits(at, b, 8, out) {
                Some(n) => at = n,
                None => return false,
            }
        }
        let rem = bit_len % 8;
        if rem > 0 {
            match self.walk_bits(at, bytes[full], rem, out) {
                Some(n) => at = n,
                None => return false,
            }
        }
        at == 0
    }

    /// Decode an encoded key back to the original bytes.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] if the bitstream does not end
    /// exactly on a code boundary (impossible for encoder output;
    /// indicates corruption).
    ///
    /// Allocates a fresh `Vec`; loops should prefer [`Decoder::decode_to`]
    /// with a reused [`DecodeScratch`].
    pub fn decode(&self, key: &EncodedKey) -> Result<Vec<u8>, HopeError> {
        let mut out = Vec::with_capacity(key.byte_len() * 2);
        if self.decode_append(key.as_bytes(), key.bit_len(), &mut out) {
            Ok(out)
        } else {
            Err(HopeError::CorruptEncoding { bit_len: key.bit_len() })
        }
    }

    /// Allocation-free [`Decoder::decode`]: fill `scratch` and return the
    /// decoded bytes (invalidated by the next call on the same scratch).
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] on a corrupt stream.
    pub fn decode_to<'s>(
        &self,
        key: &EncodedKey,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        scratch.out.clear();
        if self.decode_append(key.as_bytes(), key.bit_len(), &mut scratch.out) {
            Ok(scratch.out.as_slice())
        } else {
            Err(HopeError::CorruptEncoding { bit_len: key.bit_len() })
        }
    }

    /// Bytes of memory used by the trie.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * 8
            + self.leaf.len() * 4
            + self.symbols.iter().map(|s| s.len()).sum::<usize>()
    }
}

/// One byte-table entry: where the 8 bits land and what they emit — a
/// single 16-byte load on the decode hot loop, with the decoded output
/// run stored **inline** for all but giant entries.
#[derive(Debug, Clone, Copy)]
struct ByteEntry {
    /// Where the 8 bits land: a state id, `NODE_TAG | trie node` for an
    /// untabled landing node, `NEXT_INVALID` for a corrupt stream, or
    /// `NEXT_BITWALK` to resolve this entry through the bit walk.
    next: u32,
    /// Length of the decoded output run.
    len: u16,
    /// The output run itself when `len <= INLINE_CAP`; otherwise the
    /// first four bytes hold its little-endian offset in `emit_bytes`.
    inline: [u8; INLINE_CAP],
}

/// Byte-at-a-time table decoder — the scan path's decoder.
///
/// Flattens the code trie into `state × next byte → (emitted bytes,
/// next state)` so a warm decode does one table load per input byte
/// instead of eight bit steps. Build one via
/// [`Hope::fast_decoder`](crate::Hope::fast_decoder); decode with
/// [`FastDecoder::decode_to`] or, for range-scan hits,
/// [`FastDecoder::decode_batch`] — see the module example.
#[derive(Debug)]
pub struct FastDecoder {
    trie: Decoder,
    /// Byte-table state per trie node (`STATE_NONE` = not tabled).
    node_state: Box<[u32]>,
    /// Trie node of each tabled state (for bit-walk resumes).
    state_node: Box<[u32]>,
    /// `(state << 8) | byte` → packed entry.
    entries: Box<[ByteEntry]>,
    /// Spill buffer for output runs longer than [`INLINE_CAP`].
    emit_bytes: Vec<u8>,
    /// Keys decoded entirely through the byte table (telemetry; relaxed).
    table_keys: AtomicU64,
    /// Keys that needed at least one bit-walk fallback (cold state or
    /// giant-symbol entry) mid-stream (telemetry; relaxed).
    walk_keys: AtomicU64,
}

impl FastDecoder {
    /// Build from the interval codes and symbols, tabling at most
    /// `max_states` trie nodes (breadth-first — shallow, hot states
    /// first).
    ///
    /// # Panics
    /// Panics if the codes are not prefix-free (a violation of §3.1).
    pub fn new(codes: &[Code], symbols: Vec<Box<[u8]>>, max_states: usize) -> Self {
        let trie = Decoder::new(codes, symbols);
        assert!(trie.nodes.len() < NODE_TAG as usize, "code trie exceeds 2^31 nodes");
        // Breadth-first selection of internal nodes (leaves are resolved
        // eagerly, so they are never a resume point between bytes).
        let mut node_state = vec![STATE_NONE; trie.nodes.len()];
        let mut states: Vec<u32> = Vec::new();
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(n) = queue.pop_front() {
            if states.len() >= max_states.max(1) {
                break;
            }
            node_state[n as usize] = states.len() as u32;
            states.push(n);
            for &c in &trie.nodes[n as usize] {
                if c != ABSENT && trie.leaf[c as usize] == ABSENT {
                    queue.push_back(c);
                }
            }
        }

        let rows = states.len();
        let mut entries =
            vec![ByteEntry { next: NEXT_INVALID, len: 0, inline: [0; INLINE_CAP] }; rows << 8];
        let mut emit_bytes: Vec<u8> = Vec::new();
        let mut run: Vec<u8> = Vec::new();
        for (s, &tn) in states.iter().enumerate() {
            for byte in 0..256usize {
                // Simulate the 8-bit walk once (the same walk_bits the
                // bit-walk tier runs), flattening the symbols it completes
                // into one contiguous output run.
                run.clear();
                let e = &mut entries[(s << 8) | byte];
                let Some(at) = trie.walk_bits(tn as usize, byte as u8, 8, &mut run) else {
                    continue; // stays NEXT_INVALID
                };
                let Ok(len) = u16::try_from(run.len()) else {
                    // Over 64 KiB of output from one byte (giant symbols):
                    // resolve this entry via the bit walk.
                    e.next = NEXT_BITWALK;
                    continue;
                };
                // Pre-resolve the landing node into a state id (hot) or a
                // tagged raw node (cold), saving a lookup per input byte.
                e.next = if node_state[at] != STATE_NONE {
                    node_state[at]
                } else {
                    NODE_TAG | at as u32
                };
                e.len = len;
                if run.len() <= INLINE_CAP {
                    e.inline[..run.len()].copy_from_slice(&run);
                } else {
                    e.inline[..4].copy_from_slice(&(emit_bytes.len() as u32).to_le_bytes());
                    emit_bytes.extend_from_slice(&run);
                }
            }
        }
        FastDecoder {
            trie,
            node_state: node_state.into_boxed_slice(),
            state_node: states.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
            emit_bytes,
            table_keys: AtomicU64::new(0),
            walk_keys: AtomicU64::new(0),
        }
    }

    /// Keys decoded entirely through the byte table since construction
    /// (telemetry counter; relaxed). Corrupt streams count too: the
    /// counters classify the path taken, not the outcome.
    pub fn table_key_count(&self) -> u64 {
        self.table_keys.load(Ordering::Relaxed)
    }

    /// Keys whose decode fell back to the bit walk at least once — a cold
    /// (untabled) resume state or a giant-symbol entry mid-stream
    /// (telemetry counter; relaxed).
    pub fn walk_key_count(&self) -> u64 {
        self.walk_keys.load(Ordering::Relaxed)
    }

    /// Trie node behind the hot loop's tagged cursor.
    #[inline]
    fn cursor_node(&self, cur: u32) -> usize {
        if cur & NODE_TAG == 0 {
            self.state_node[cur as usize] as usize
        } else {
            (cur & !NODE_TAG) as usize
        }
    }

    /// Decode `bit_len` bits of `bytes`, appending to `out`; `false` on a
    /// corrupt stream. Tallies one key on the table or walk counter
    /// depending on the path the stream took.
    fn decode_append(&self, bytes: &[u8], bit_len: usize, out: &mut Vec<u8>) -> bool {
        let mut walked = false;
        let ok = self.decode_append_inner(bytes, bit_len, out, &mut walked);
        if walked {
            self.walk_keys.fetch_add(1, Ordering::Relaxed);
        } else {
            self.table_keys.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// The table hot loop: one entry load per input byte, inline output
    /// copy, bit-walk fallback for cold states (which sets `walked`).
    fn decode_append_inner(
        &self,
        bytes: &[u8],
        bit_len: usize,
        out: &mut Vec<u8>,
        walked: &mut bool,
    ) -> bool {
        debug_assert!(bytes.len() * 8 >= bit_len);
        let full = bit_len / 8;
        // Tagged cursor: state id (root state 0 = trie root) or
        // NODE_TAG | untabled trie node.
        let mut cur: u32 = 0;
        for &b in &bytes[..full] {
            if cur & NODE_TAG == 0 {
                let e = &self.entries[((cur as usize) << 8) | b as usize];
                if e.next < NEXT_BITWALK {
                    let len = e.len as usize;
                    if len <= INLINE_CAP {
                        out.extend_from_slice(&e.inline[..len]);
                    } else {
                        let off =
                            u32::from_le_bytes(e.inline[..4].try_into().expect("4 bytes")) as usize;
                        out.extend_from_slice(&self.emit_bytes[off..off + len]);
                    }
                    cur = e.next;
                    continue;
                }
                if e.next == NEXT_INVALID {
                    return false;
                }
            }
            *walked = true;
            match self.trie.walk_bits(self.cursor_node(cur), b, 8, out) {
                Some(n) => {
                    let s = self.node_state[n];
                    cur = if s != STATE_NONE { s } else { NODE_TAG | n as u32 };
                }
                None => return false,
            }
        }
        let rem = bit_len % 8;
        let mut at = self.cursor_node(cur);
        if rem > 0 {
            match self.trie.walk_bits(at, bytes[full], rem, out) {
                Some(n) => at = n,
                None => return false,
            }
        }
        at == 0
    }

    /// Decode an encoded key back to the original bytes
    /// ([`HopeError::CorruptEncoding`] on a corrupt stream). Allocates;
    /// loops should prefer [`FastDecoder::decode_to`] /
    /// [`FastDecoder::decode_batch`].
    pub fn decode(&self, key: &EncodedKey) -> Result<Vec<u8>, HopeError> {
        let mut out = Vec::with_capacity(key.byte_len() * 2);
        if self.decode_append(key.as_bytes(), key.bit_len(), &mut out) {
            Ok(out)
        } else {
            Err(HopeError::CorruptEncoding { bit_len: key.bit_len() })
        }
    }

    /// Allocation-free single-key decode into a reused scratch.
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

    /// Allocation-free decode of raw padded bytes with an exact bit
    /// length (the form scan paths carry).
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] on a corrupt stream.
    pub fn decode_bits_to<'s>(
        &self,
        bytes: &[u8],
        bit_len: usize,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        scratch.out.clear();
        if self.decode_append(bytes, bit_len, &mut scratch.out) {
            Ok(scratch.out.as_slice())
        } else {
            Err(HopeError::CorruptEncoding { bit_len })
        }
    }

    /// Decode a batch of `(padded bytes, bit length)` items back-to-back
    /// into the scratch's flat buffer — the shape of a range scan's hit
    /// list. Zero heap allocations once the scratch is warm.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] if any item is corrupt
    /// (all-or-nothing).
    pub fn decode_batch<'s>(
        &self,
        items: &[(&[u8], usize)],
        scratch: &'s mut DecodeScratch,
    ) -> Result<DecodedBatch<'s>, HopeError> {
        scratch.flat.clear();
        scratch.ends.clear();
        for &(bytes, bit_len) in items {
            if !self.decode_append(bytes, bit_len, &mut scratch.flat) {
                return Err(HopeError::CorruptEncoding { bit_len });
            }
            scratch.ends.push(scratch.flat.len());
        }
        Ok(DecodedBatch { flat: &scratch.flat, ends: &scratch.ends })
    }

    /// [`FastDecoder::decode_batch`] over [`EncodedKey`]s.
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] if any key is corrupt
    /// (all-or-nothing).
    pub fn decode_batch_keys<'s>(
        &self,
        keys: &[EncodedKey],
        scratch: &'s mut DecodeScratch,
    ) -> Result<DecodedBatch<'s>, HopeError> {
        scratch.flat.clear();
        scratch.ends.clear();
        for key in keys {
            if !self.decode_append(key.as_bytes(), key.bit_len(), &mut scratch.flat) {
                return Err(HopeError::CorruptEncoding { bit_len: key.bit_len() });
            }
            scratch.ends.push(scratch.flat.len());
        }
        Ok(DecodedBatch { flat: &scratch.flat, ends: &scratch.ends })
    }

    /// Number of tabled states (≤ the build-time budget; diagnostics).
    pub fn states(&self) -> usize {
        self.entries.len() >> 8
    }

    /// Bytes of memory used by the byte table and the underlying trie.
    pub fn memory_bytes(&self) -> usize {
        self.trie.memory_bytes()
            + self.node_state.len() * 4
            + self.state_node.len() * 4
            + self.entries.len() * std::mem::size_of::<ByteEntry>()
            + self.emit_bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_assign::CodeAssigner;
    use crate::dict::Dict;
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
        let enc = Encoder::new(dict);
        let dec = Decoder::new(&codes, symbols.clone());
        let fast = FastDecoder::new(&codes, symbols, 64);
        (enc, dec, fast)
    }

    fn roundtrip_scheme(scheme: Scheme, sample: &[Vec<u8>], keys: &[Vec<u8>]) {
        let (enc, dec, fast) = build(scheme, sample);
        let mut scratch = DecodeScratch::new();
        for key in keys {
            let e = enc.encode(key);
            assert_eq!(dec.decode(&e).as_deref(), Ok(key.as_slice()), "{scheme}: {key:?}");
            assert_eq!(dec.decode_to(&e, &mut scratch), Ok(key.as_slice()), "{scheme}");
            assert_eq!(fast.decode(&e).as_deref(), Ok(key.as_slice()), "{scheme}");
            assert_eq!(fast.decode_to(&e, &mut scratch), Ok(key.as_slice()), "{scheme}");
        }
        // Batch decode reproduces every key in order.
        let encoded: Vec<EncodedKey> = keys.iter().map(|k| enc.encode(k)).collect();
        let batch = fast.decode_batch_keys(&encoded, &mut scratch).expect("valid batch");
        assert_eq!(batch.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(batch.get(i), key.as_slice(), "{scheme}: batch item {i}");
        }
        assert_eq!(batch.iter().count(), keys.len());
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
        let codes = vec![Code::new(0b0, 1), Code::new(0b01, 2)];
        let symbols = vec![b"a".to_vec().into_boxed_slice(), b"b".to_vec().into_boxed_slice()];
        let r = std::panic::catch_unwind(|| Decoder::new(&codes, symbols));
        assert!(r.is_err());
    }

    #[test]
    fn corrupt_stream_detected_by_both_decoders() {
        let codes = vec![Code::new(0b10, 2), Code::new(0b11, 2)];
        let symbols = vec![b"x".to_vec().into_boxed_slice(), b"y".to_vec().into_boxed_slice()];
        let dec = Decoder::new(&codes, symbols.clone());
        let fast = FastDecoder::new(&codes, symbols, 8);
        let mut scratch = DecodeScratch::new();
        // "1" alone is a dangling half-code.
        let bad = EncodedKey::from_parts(vec![0b1000_0000], 1);
        assert_eq!(dec.decode(&bad), Err(HopeError::CorruptEncoding { bit_len: 1 }));
        assert!(fast.decode_to(&bad, &mut scratch).is_err());
        // "0" hits an absent branch.
        let bad = EncodedKey::from_parts(vec![0b0000_0000], 1);
        assert!(dec.decode(&bad).is_err());
        assert!(fast.decode_to(&bad, &mut scratch).is_err());
        // A full byte of absent branches exercises the table's invalid
        // entries (8 zero bits can never complete these codes).
        let bad = EncodedKey::from_parts(vec![0u8], 8);
        assert!(dec.decode(&bad).is_err());
        assert!(fast.decode(&bad).is_err());
        assert_eq!(
            fast.decode_batch(&[(&[0u8][..], 8)], &mut scratch),
            Err(HopeError::CorruptEncoding { bit_len: 8 })
        );
    }

    #[test]
    fn fast_decoder_budget_bounds_states() {
        let codes = crate::hu_tucker::fixed_len_codes(256);
        let symbols: Vec<Box<[u8]>> = (0..=255u8).map(|b| vec![b].into_boxed_slice()).collect();
        let full = FastDecoder::new(&codes, symbols.clone(), usize::MAX);
        let tiny = FastDecoder::new(&codes, symbols, 2);
        assert!(full.states() > tiny.states());
        assert_eq!(tiny.states(), 2);
        assert!(tiny.memory_bytes() < full.memory_bytes());
        // Both decode identically regardless of budget.
        let key = EncodedKey::from_parts(vec![0xAB, 0xCD], 16);
        assert_eq!(full.decode(&key).ok(), tiny.decode(&key).ok());
    }

    #[test]
    fn batch_view_accessors() {
        let codes = crate::hu_tucker::fixed_len_codes(256);
        let symbols: Vec<Box<[u8]>> = (0..=255u8).map(|b| vec![b].into_boxed_slice()).collect();
        let fast = FastDecoder::new(&codes, symbols, 64);
        let mut scratch = DecodeScratch::new();
        let batch = fast.decode_batch(&[], &mut scratch).unwrap();
        assert!(batch.is_empty());
        let keys = [EncodedKey::from_parts(vec![b'h', b'i'], 16)];
        let batch = fast.decode_batch_keys(&keys, &mut scratch).unwrap();
        assert!(!batch.is_empty());
        assert_eq!(batch.get(0), b"hi");
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

//! Bit-level code representation and the fast non-byte-aligned code
//! concatenation described in §4.2 of the paper ("Encoder").
//!
//! Codes are kept in 64-bit buffers; appending a code is a shift, an OR, and
//! an occasional spill into the output vector — a few cycles per code.
//!
//! [`BitWriter`] is the reusable staging buffer every encode path appends
//! into. Hot paths keep one alive and drain it with
//! [`BitWriter::finish_into`], which hands back the padded bytes without
//! giving up the allocation:
//!
//! ```
//! use hope::bitpack::{BitWriter, Code};
//!
//! let mut w = BitWriter::new();
//! let mut buf = Vec::new();
//! for key in [&b"ab"[..], b"ba"] {
//!     for &b in key {
//!         w.put(Code::new(b as u64, 8));
//!     }
//!     let bits = w.finish_into(&mut buf); // writer reset, allocation kept
//!     assert_eq!((buf.as_slice(), bits), (key, 16));
//! }
//! ```

/// A prefix code: up to 64 bits, stored right-aligned in `bits`.
///
/// Order-preserving schemes assign monotonically increasing codes to
/// intervals; comparing two codes as (left-aligned) bitstrings must agree
/// with the interval order. `Code` provides that comparison via
/// [`Code::cmp_bitstring`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Code {
    /// Code bits, right-aligned (the last bit of the code is bit 0).
    pub bits: u64,
    /// Number of meaningful bits in `bits` (1..=64). A length of 0 denotes
    /// the empty code and is only valid for the empty-string sentinel.
    pub len: u8,
}

impl Code {
    /// Create a code from right-aligned bits.
    ///
    /// # Panics
    /// Panics if `len > 64` or if `bits` has set bits above `len`.
    #[inline]
    pub fn new(bits: u64, len: u8) -> Self {
        assert!(len <= 64, "code length {len} exceeds 64 bits");
        if len < 64 {
            assert!(bits >> len == 0, "code bits exceed stated length");
        }
        Code { bits, len }
    }

    /// Compare two codes as left-aligned bitstrings (the comparison the
    /// string axis model requires: shorter-is-smaller on prefix ties).
    #[inline]
    pub fn cmp_bitstring(&self, other: &Code) -> std::cmp::Ordering {
        let a = self.left_aligned();
        let b = other.left_aligned();
        a.cmp(&b).then(self.len.cmp(&other.len))
    }

    /// The code bits shifted to the top of a u64 (left-aligned).
    #[inline]
    pub fn left_aligned(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            self.bits << (64 - self.len as u32)
        }
    }

    /// True if `self` is a strict bitstring prefix of `other`.
    #[inline]
    pub fn is_prefix_of(&self, other: &Code) -> bool {
        if self.len >= other.len {
            return false;
        }
        (other.bits >> (other.len - self.len)) == self.bits
    }

    /// Render as a 0/1 string (testing and debugging aid).
    pub fn to_bit_string(&self) -> String {
        (0..self.len).rev().map(|i| if (self.bits >> i) & 1 == 1 { '1' } else { '0' }).collect()
    }
}

/// An encoded key: zero-padded bytes plus the exact bit length.
///
/// Byte-wise comparison of the padded bytes of two keys encoded under one
/// dictionary is source-key order, strictly: no assigned code is all zeros,
/// so zero padding never reproduces the bits another encoding continues
/// with (see DESIGN.md, "Encoded-key comparison"). `Ord` compares
/// `(bytes, bit_len)`, which on such keys is therefore plain byte order;
/// the `bit_len` term only separates hand-built values
/// ([`EncodedKey::from_parts`]) that no dictionary produces.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct EncodedKey {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl EncodedKey {
    /// Construct from raw parts. `bytes` must be exactly
    /// `bit_len.div_ceil(8)` long with zero padding bits.
    pub fn from_parts(bytes: Vec<u8>, bit_len: usize) -> Self {
        debug_assert_eq!(bytes.len(), bit_len.div_ceil(8));
        EncodedKey { bytes, bit_len }
    }

    /// The zero-padded encoded bytes (what a byte-oriented tree indexes).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Exact length of the encoding in bits.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Consume and return the padded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Length of the padded encoding in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Read bit `i` (0 = most significant bit of the first byte).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.bit_len);
        (self.bytes[i / 8] >> (7 - (i % 8))) & 1 == 1
    }
}

impl PartialOrd for EncodedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EncodedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes).then(self.bit_len.cmp(&other.bit_len))
    }
}

/// Append-only bit writer backed by a byte vector, using a 64-bit staging
/// buffer exactly as §4.2 describes: shift, OR, spill.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Staging buffer; the most recent bits occupy the low `fill` bits.
    acc: u64,
    /// Number of valid bits in `acc` (0..64).
    fill: u32,
    /// Total bits written (including those still staged).
    total_bits: usize,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with room for `cap_bytes` of output.
    pub fn with_capacity(cap_bytes: usize) -> Self {
        BitWriter { out: Vec::with_capacity(cap_bytes), ..Self::default() }
    }

    /// Discard everything written so far, retaining the allocation.
    pub fn clear(&mut self) {
        self.out.clear();
        self.acc = 0;
        self.fill = 0;
        self.total_bits = 0;
    }

    /// Total number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.total_bits
    }

    /// Append a code (most significant bit first).
    #[inline]
    pub fn put(&mut self, code: Code) {
        self.put_bits(code.bits, code.len as u32);
    }

    /// Append the low `len` bits of `bits`, most significant first.
    #[inline]
    pub fn put_bits(&mut self, bits: u64, len: u32) {
        debug_assert!(len <= 64);
        if len == 0 {
            return;
        }
        self.total_bits += len as usize;
        let room = 64 - self.fill;
        if len <= room {
            // Entire code fits into the staging buffer.
            self.acc = if len == 64 { bits } else { (self.acc << len) | bits };
            self.fill += len;
            if self.fill == 64 {
                self.spill();
            }
        } else {
            // Split the code across the staging-buffer boundary (step 3 of
            // the paper's concatenation procedure). Here `fill >= 1`, so
            // `room <= 63` and `hi` is in 1..=63.
            let hi = len - room; // bits that do not fit
            self.acc = (self.acc << room) | (bits >> hi);
            self.fill = 64;
            self.spill();
            self.acc = bits & ((1u64 << hi) - 1);
            self.fill = hi;
        }
    }

    /// Append whole bytes, each as its own 8-bit code: a copy when no
    /// bits are staged.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        if self.fill != 0 {
            return bytes.iter().for_each(|&b| self.put_bits(b.into(), 8));
        }
        self.out.extend_from_slice(bytes);
        self.total_bits += 8 * bytes.len();
    }

    #[inline]
    fn spill(&mut self) {
        debug_assert_eq!(self.fill, 64);
        self.out.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = 0;
        self.fill = 0;
    }

    /// Finish: zero-pad to a byte boundary and return the encoded key.
    pub fn finish(&mut self) -> EncodedKey {
        let bit_len = self.total_bits;
        let mut bytes = std::mem::take(&mut self.out);
        if self.fill > 0 {
            // Left-align the residual bits and emit whole bytes.
            let res = self.acc << (64 - self.fill);
            let nbytes = (self.fill as usize).div_ceil(8);
            bytes.extend_from_slice(&res.to_be_bytes()[..nbytes]);
        }
        self.acc = 0;
        self.fill = 0;
        self.total_bits = 0;
        EncodedKey::from_parts(bytes, bit_len)
    }

    /// Bring `out` — which holds a prefix of the whole bytes written so
    /// far — up to all of them, appending only the bytes past
    /// `out.len()`, and keep writing: later codes only append bits, so
    /// these bytes are the first bytes of whatever [`Self::finish`] will
    /// return.
    pub fn whole_bytes_onto(&self, out: &mut Vec<u8>) {
        self.bytes_onto(out, (self.fill / 8) as usize);
    }

    /// Allocation-free variant of [`Self::finish`]: write the padded bytes
    /// into `out` (cleared first) and return the exact bit length. The
    /// writer is reset and its internal buffer retained for reuse — the
    /// shape query hot paths want.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) -> usize {
        out.clear();
        self.finish_onto(out)
    }

    /// [`Self::finish_into`] onto an `out` that holds a prefix of the
    /// whole bytes so far ([`Self::whole_bytes_onto`]): only the padded
    /// bytes past `out.len()` are appended.
    pub fn finish_onto(&mut self, out: &mut Vec<u8>) -> usize {
        let bit_len = self.total_bits;
        self.bytes_onto(out, (self.fill as usize).div_ceil(8));
        self.clear();
        bit_len
    }

    /// Append to `out` the spilled bytes and the first `staged` bytes of
    /// the left-aligned staging buffer that `out` does not hold yet.
    #[inline]
    fn bytes_onto(&self, out: &mut Vec<u8>, staged: usize) {
        let (from, spilled) = (out.len(), self.out.len());
        debug_assert!(from <= spilled + staged, "out holds more than was written");
        if from < spilled {
            out.extend_from_slice(&self.out[from..]);
        }
        let skip = from.saturating_sub(spilled);
        if staged > skip {
            out.extend_from_slice(&(self.acc << (64 - self.fill)).to_be_bytes()[skip..staged]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_and_bitstring() {
        let c = Code::new(0b0110, 4);
        assert_eq!(c.to_bit_string(), "0110");
        assert_eq!(c.left_aligned(), 0b0110u64 << 60);
    }

    #[test]
    #[should_panic(expected = "exceed stated length")]
    fn code_rejects_overlong_bits() {
        let _ = Code::new(0b100, 2);
    }

    #[test]
    fn code_prefix_relation() {
        let a = Code::new(0b01, 2);
        let b = Code::new(0b0110, 4);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(!a.is_prefix_of(&a));
        let c = Code::new(0b10, 2);
        assert!(!c.is_prefix_of(&b));
    }

    #[test]
    fn code_bitstring_order() {
        use std::cmp::Ordering;
        let a = Code::new(0b0, 1);
        let b = Code::new(0b01, 2); // "01" > "0" (prefix is smaller)
        let c = Code::new(0b1, 1);
        assert_eq!(a.cmp_bitstring(&b), Ordering::Less);
        assert_eq!(b.cmp_bitstring(&c), Ordering::Less);
        assert_eq!(a.cmp_bitstring(&a), Ordering::Equal);
    }

    #[test]
    fn writer_single_byte() {
        let mut w = BitWriter::new();
        w.put(Code::new(0b101, 3));
        let k = w.finish();
        assert_eq!(k.as_bytes(), &[0b1010_0000]);
        assert_eq!(k.bit_len(), 3);
    }

    #[test]
    fn writer_multi_code_concat() {
        let mut w = BitWriter::new();
        w.put(Code::new(0b010, 3));
        w.put(Code::new(0b011001, 6));
        w.put(Code::new(0b101, 3));
        let k = w.finish();
        // 010 011001 101 -> 0100 1100 1101
        assert_eq!(k.as_bytes(), &[0b0100_1100, 0b1101_0000]);
        assert_eq!(k.bit_len(), 12);
    }

    /// Whole bytes land as 8-bit codes would, on a byte boundary or off it.
    #[test]
    fn writer_put_bytes_matches_8_bit_codes() {
        let bytes: Vec<u8> = (0..20u32).map(|i| (i * 37) as u8).collect();
        for lead in [0, 3, 8, 40, 64] {
            let (mut at_once, mut by_code) = (BitWriter::new(), BitWriter::new());
            at_once.put_bits(0, lead);
            by_code.put_bits(0, lead);
            at_once.put_bytes(&bytes);
            bytes.iter().for_each(|&b| by_code.put_bits(b.into(), 8));
            assert_eq!(at_once.finish(), by_code.finish(), "after {lead} bits");
        }
    }

    #[test]
    fn writer_crosses_u64_boundary() {
        let mut w = BitWriter::new();
        // 10 codes of 13 bits = 130 bits, crosses the 64-bit buffer twice.
        for i in 0..10u64 {
            w.put(Code::new(i & 0x1FFF, 13));
        }
        let k = w.finish();
        assert_eq!(k.bit_len(), 130);
        assert_eq!(k.byte_len(), 17);
        for i in 0..10 {
            let v = (0..13).fold(0u64, |v, b| (v << 1) | k.bit(13 * i + b) as u64);
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn writer_64bit_code() {
        let mut w = BitWriter::new();
        w.put(Code::new(u64::MAX, 64));
        w.put(Code::new(0, 1));
        let k = w.finish();
        assert_eq!(k.bit_len(), 65);
        assert_eq!(&k.as_bytes()[..8], &[0xFF; 8]);
        assert_eq!(k.as_bytes()[8], 0);
    }

    /// After every code, the whole bytes so far are the first bytes of
    /// the finished key — across the 64-bit spill too — whether they are
    /// written afresh or appended to the ones an earlier call wrote, and
    /// a finish onto those appends exactly the rest.
    #[test]
    fn whole_bytes_are_a_prefix_of_the_finished_key() {
        let codes: Vec<Code> =
            (0..40u64).map(|i| Code::new(i % 7 + 1, 3 + (i % 11) as u8)).collect();
        let mut w = BitWriter::new();
        let (mut seen, mut grown) = (Vec::new(), Vec::new());
        for &c in &codes {
            w.put(c);
            let mut whole = Vec::new();
            w.whole_bytes_onto(&mut whole);
            assert_eq!(whole.len(), w.bit_len() / 8);
            w.whole_bytes_onto(&mut grown);
            assert_eq!(grown, whole);
            seen.push(whole);
        }
        let bits = w.bit_len();
        let mut finished = BitWriter::new();
        for &c in &codes {
            finished.put(c);
        }
        let k = finished.finish();
        for whole in seen {
            assert!(k.as_bytes().starts_with(&whole), "{whole:?}");
        }
        assert_eq!((w.finish_onto(&mut grown), grown.as_slice()), (bits, k.as_bytes()));
        assert_eq!(w.bit_len(), 0, "a finish resets the writer");
        let mut empty = Vec::new();
        BitWriter::new().whole_bytes_onto(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn writer_clear_reuses_allocation() {
        let mut w = BitWriter::with_capacity(64);
        w.put(Code::new(0b1, 1));
        let _ = w.finish();
        w.put(Code::new(0b1, 1));
        w.clear();
        assert_eq!(w.bit_len(), 0);
        w.put(Code::new(0b11, 2));
        assert_eq!(w.finish().as_bytes(), &[0b1100_0000]);
    }

    #[test]
    fn encoded_key_ordering_prefix_tie() {
        // "010" vs "010000": padded bytes equal, bit_len breaks the tie.
        let a = EncodedKey::from_parts(vec![0b0100_0000], 3);
        let b = EncodedKey::from_parts(vec![0b0100_0000], 6);
        assert!(a < b);
    }

    #[test]
    fn encoded_key_bit_access() {
        let k = EncodedKey::from_parts(vec![0b1010_0000], 4);
        assert!(k.bit(0));
        assert!(!k.bit(1));
        assert!(k.bit(2));
        assert!(!k.bit(3));
    }
}

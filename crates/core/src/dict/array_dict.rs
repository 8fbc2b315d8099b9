//! Array dictionaries for the fixed-interval schemes (§4.2).
//!
//! The dictionary symbols and interval boundaries are implied by array
//! offsets, so an entry stores only the code — in the form the bit writer
//! consumes, `(code bits << 8) | code length` in one `u64`, so a symbol
//! costs one load, one shift and one mask. The paper's entry is 5 bytes
//! (8-bit length + 32-bit code); these are 8 (DESIGN.md, "Known
//! deviations") and hold codes up to 56 bits. If Hu-Tucker ever emits a
//! longer code (possible only under extreme skew) the array falls back to
//! parallel 64-bit `bits` / 8-bit `len` storage.

use super::DictLookup;
use crate::bitpack::{BitWriter, Code};
use crate::selector::double_char::{double_char_slot, DOUBLE_CHAR_ENTRIES};

/// Longest code a packed `(bits << 8) | len` entry can hold.
const MAX_PACKED_LEN: u8 = 56;

/// Code storage shared by both array dictionaries.
#[derive(Debug)]
enum CodeArray {
    /// One pack-ready `(bits << 8) | len` word per slot.
    Packed(Box<[u64]>),
    /// Some code exceeds 56 bits: parallel arrays.
    Wide { bits: Box<[u64]>, len: Box<[u8]> },
}

impl CodeArray {
    /// Store `n` slots, slot `i` holding `at(i)`.
    fn new(n: usize, at: impl Fn(usize) -> Code) -> Self {
        if (0..n).all(|i| at(i).len <= MAX_PACKED_LEN) {
            CodeArray::Packed((0..n).map(|i| (at(i).bits << 8) | at(i).len as u64).collect())
        } else {
            CodeArray::Wide {
                bits: (0..n).map(|i| at(i).bits).collect(),
                len: (0..n).map(|i| at(i).len).collect(),
            }
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Code {
        match self {
            CodeArray::Packed(t) => Code { bits: t[i] >> 8, len: (t[i] & 0xFF) as u8 },
            CodeArray::Wide { bits, len } => Code { bits: bits[i], len: len[i] },
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            CodeArray::Packed(t) => t.len() * 8,
            CodeArray::Wide { bits, len } => bits.len() * 8 + len.len(),
        }
    }
}

/// 256-entry array dictionary for Single-Char: the lookup is a single
/// (L1-resident) array access.
#[derive(Debug)]
pub struct SingleCharDict {
    codes: CodeArray,
}

impl SingleCharDict {
    /// Wrap the 256 per-byte codes.
    pub fn new(codes: &[Code]) -> Self {
        assert_eq!(codes.len(), 256, "Single-Char dictionary must have 256 entries");
        SingleCharDict { codes: CodeArray::new(256, |b| codes[b]) }
    }

    /// [`super::Dict::encode_into`]: the storage form is matched once,
    /// not per byte.
    #[inline]
    pub(super) fn encode_into(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        w: &mut BitWriter,
    ) -> usize {
        let CodeArray::Packed(t) = &self.codes else {
            return super::encode_by_lookup(self, key, from, min_bytes, w);
        };
        let stop = min_bytes.saturating_mul(8);
        let mut at = from;
        while at < key.len() && w.bit_len() < stop {
            let e = t[key[at] as usize];
            w.put_bits(e >> 8, (e & 0xFF) as u32);
            at += 1;
        }
        at
    }

    /// In-order `(symbol, code)` enumeration: slot `b` is symbol `[b]`.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        for b in 0..=u8::MAX {
            f(&[b], self.codes.get(b as usize));
        }
    }
}

impl DictLookup for SingleCharDict {
    #[inline]
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        (self.codes.get(src[0] as usize), 1)
    }

    fn memory_bytes(&self) -> usize {
        self.codes.memory_bytes()
    }

    fn num_entries(&self) -> usize {
        256
    }
}

/// Slots of the Double-Char pair table; the terminator slots follow.
const PAIR_SLOTS: usize = 1 << 16;

/// 65 792-entry array dictionary for Double-Char. The interval order of
/// [`crate::selector::double_char`] interleaves each leading byte's
/// terminator interval with its 256 pair intervals; the array instead
/// keeps the pairs dense — slot `(b0 << 8) | b1` — and the 256 terminator
/// entries (one trailing byte `b0`) behind them at `PAIR_SLOTS + b0`, so
/// the hot pair lookup needs no multiply.
#[derive(Debug)]
pub struct DoubleCharDict {
    codes: CodeArray,
}

impl DoubleCharDict {
    /// Wrap the 256·257 per-pair codes, given in interval order.
    pub fn new(codes: &[Code]) -> Self {
        assert_eq!(
            codes.len(),
            DOUBLE_CHAR_ENTRIES,
            "Double-Char dictionary must have 256*257 entries"
        );
        let interval = |slot: usize| match slot.checked_sub(PAIR_SLOTS) {
            None => double_char_slot(&[(slot >> 8) as u8, slot as u8]),
            Some(b0) => double_char_slot(&[b0 as u8]),
        };
        DoubleCharDict { codes: CodeArray::new(DOUBLE_CHAR_ENTRIES, |slot| codes[interval(slot)]) }
    }

    /// Array slot of the interval a (non-empty) source suffix falls into.
    #[inline]
    fn slot(src: &[u8]) -> usize {
        match *src {
            [b0, b1, ..] => (b0 as usize) << 8 | b1 as usize,
            _ => PAIR_SLOTS + src[0] as usize,
        }
    }

    /// [`super::Dict::encode_into`]: the storage form is matched once,
    /// not per pair.
    #[inline]
    pub(super) fn encode_into(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        w: &mut BitWriter,
    ) -> usize {
        let CodeArray::Packed(t) = &self.codes else {
            return super::encode_by_lookup(self, key, from, min_bytes, w);
        };
        let stop = min_bytes.saturating_mul(8);
        let mut at = from;
        while at + 1 < key.len() && w.bit_len() < stop {
            let e = t[Self::slot(&key[at..at + 2])];
            w.put_bits(e >> 8, (e & 0xFF) as u32);
            at += 2;
        }
        if at + 1 == key.len() && w.bit_len() < stop {
            let e = t[Self::slot(&key[at..])];
            w.put_bits(e >> 8, (e & 0xFF) as u32);
            at += 1;
        }
        at
    }

    /// In-order `(symbol, code)` enumeration: per leading byte, its
    /// terminator interval then its 256 pairs.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        for b0 in 0..=u8::MAX {
            f(&[b0], self.codes.get(Self::slot(&[b0])));
            for b1 in 0..=u8::MAX {
                f(&[b0, b1], self.codes.get(Self::slot(&[b0, b1])));
            }
        }
    }
}

impl DictLookup for DoubleCharDict {
    #[inline]
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        (self.codes.get(Self::slot(src)), src.len().min(2))
    }

    fn memory_bytes(&self) -> usize {
        self.codes.memory_bytes()
    }

    fn num_entries(&self) -> usize {
        DOUBLE_CHAR_ENTRIES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::{Dict, SortedDict};
    use crate::selector::double_char::double_char_intervals;

    fn fixed_codes(n: usize) -> Vec<Code> {
        crate::hu_tucker::fixed_len_codes(n)
    }

    #[test]
    fn single_char_lookup_is_byte_indexed() {
        let d = SingleCharDict::new(&fixed_codes(256));
        let (c, consumed) = d.lookup(b"az");
        assert_eq!(consumed, 1);
        assert_eq!(c.bits, b'a' as u64);
        assert_eq!(d.num_entries(), 256);
    }

    #[test]
    fn memory_is_one_packed_word_per_entry() {
        // One `(bits << 8) | len` u64 per slot — and nothing else: no
        // second table restating the same codes.
        assert_eq!(SingleCharDict::new(&fixed_codes(256)).memory_bytes(), 256 * 8);
        let d = DoubleCharDict::new(&fixed_codes(DOUBLE_CHAR_ENTRIES));
        assert_eq!(d.memory_bytes(), DOUBLE_CHAR_ENTRIES * 8);
    }

    #[test]
    fn double_char_consumes_two_bytes_when_available() {
        let d = DoubleCharDict::new(&fixed_codes(DOUBLE_CHAR_ENTRIES));
        let (c, consumed) = d.lookup(b"aa rest");
        assert_eq!(consumed, 2);
        assert_eq!(c.bits, 97 * 257 + 97 + 1);
        let (c, consumed) = d.lookup(b"a");
        assert_eq!(consumed, 1);
        assert_eq!(c.bits, 97 * 257);
    }

    /// The packed key loops (pairs, then an odd tail) against the
    /// per-symbol lookup they unroll.
    #[test]
    fn key_loop_matches_per_symbol_lookup_on_both_array_schemes() {
        let single = SingleCharDict::new(&fixed_codes(256));
        let double = DoubleCharDict::new(&fixed_codes(DOUBLE_CHAR_ENTRIES));
        for key in [b"".as_slice(), b"a", b"ab", b"abc", b"\x00\xff\x7f", b"com.gmail@user042"] {
            let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
            single.encode_into(key, 0, usize::MAX, &mut got);
            crate::dict::encode_by_lookup(&single, key, 0, usize::MAX, &mut want);
            assert_eq!(got.finish(), want.finish(), "single: key {key:?}");
            let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
            double.encode_into(key, 0, usize::MAX, &mut got);
            crate::dict::encode_by_lookup(&double, key, 0, usize::MAX, &mut want);
            assert_eq!(got.finish(), want.finish(), "double: key {key:?}");
        }
    }

    #[test]
    fn wide_storage_kicks_in_for_long_codes() {
        let mut codes = fixed_codes(256);
        codes[254] = Code::new(0x1_FFFF_FFFF, 40);
        assert_eq!(SingleCharDict::new(&codes).memory_bytes(), 256 * 8, "40 bits still pack");
        codes[255] = Code::new(u64::MAX >> 4, 60);
        let d = SingleCharDict::new(&codes);
        assert_eq!(d.lookup(b"\xfe"), (codes[254], 1));
        assert_eq!(d.lookup(b"\xff"), (codes[255], 1));
        assert_eq!(d.memory_bytes(), 256 * 9);
    }

    /// Codes over 56 bits cannot be packed; the wide array then serves
    /// the key loop, the lookup and the enumeration — bit-identical to the
    /// binary-search reference over the same codes.
    #[test]
    fn overlong_codes_take_the_wide_array() {
        let set = double_char_intervals();
        let mut codes = fixed_codes(DOUBLE_CHAR_ENTRIES);
        // Keep the code set monotone: lengthen the last code only.
        let last = codes[DOUBLE_CHAR_ENTRIES - 1];
        codes[DOUBLE_CHAR_ENTRIES - 1] = Code::new(last.bits << 43, last.len + 43);
        assert!(codes[DOUBLE_CHAR_ENTRIES - 1].len > MAX_PACKED_LEN);
        let wide = Dict::Double(DoubleCharDict::new(&codes));
        assert_eq!(wide.memory_bytes(), DOUBLE_CHAR_ENTRIES * 9);
        let reference = Dict::Sorted(SortedDict::build(&set, &codes));
        for key in [b"".as_slice(), b"a", b"ab", b"abc", b"\xff\xff", b"\xff\xff\xff", b"\x00"] {
            let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
            wide.encode_into(key, 0, usize::MAX, &mut got);
            reference.encode_into(key, 0, usize::MAX, &mut want);
            assert_eq!(got.finish(), want.finish(), "key {key:?}");
        }
        let mut i = 0;
        wide.for_each_entry(&mut |sym, code| {
            assert_eq!((sym, code), (set.symbol(i), codes[i]), "entry {i}");
            i += 1;
        });
        assert_eq!(i, DOUBLE_CHAR_ENTRIES);
    }
}

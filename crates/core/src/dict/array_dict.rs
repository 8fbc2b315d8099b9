//! Array dictionaries for the fixed-interval schemes (§4.2).
//!
//! The dictionary symbols and interval boundaries are implied by array
//! offsets, so an entry stores only the code — in the form the bit writer
//! consumes, `(code bits << 5) | code length` in one `u32`, so a symbol
//! costs one load, one shift and one mask. The paper's entry is 5 bytes
//! (8-bit length + 32-bit code); these are 4 (DESIGN.md, "Known
//! deviations") and hold codes up to 27 bits; Double-Char's longest on a
//! 20 k URL sample are 25. A longer code escapes: its entry has length 0,
//! and its bits index a side list of `Code`s.

use super::DictLookup;
use crate::bitpack::{BitWriter, Code};
use crate::selector::double_char::{double_char_slot, DOUBLE_CHAR_ENTRIES};

/// Longest code an entry holds.
const MAX_CODE_LEN: u8 = 27;

/// Code storage shared by both array dictionaries.
#[derive(Debug)]
struct CodeArray {
    /// `(bits << 5) | len` per slot; length 0 escapes to `wide[bits]`.
    words: Box<[u32]>,
    /// The codes over 27 bits, in slot order.
    wide: Box<[Code]>,
}

impl CodeArray {
    /// Store `n` slots, slot `i` holding `at(i)`.
    fn new(n: usize, at: impl Fn(usize) -> Code) -> Self {
        let mut wide = Vec::new();
        let words = (0..n)
            .map(|i| match at(i) {
                c if (1..=MAX_CODE_LEN).contains(&c.len) => (c.bits as u32) << 5 | u32::from(c.len),
                c => {
                    wide.push(c);
                    ((wide.len() - 1) as u32) << 5
                }
            })
            .collect();
        CodeArray { words, wide: wide.into_boxed_slice() }
    }

    #[inline]
    fn get(&self, i: usize) -> Code {
        match self.words[i] {
            e if e & 0x1F == 0 => self.wide[(e >> 5) as usize],
            e => Code { bits: u64::from(e >> 5), len: (e & 0x1F) as u8 },
        }
    }

    /// Append slot `i`'s code to `w`. Inlined, with the escape out of
    /// line: otherwise a hot-cache encode costs up to a fifth more.
    #[inline(always)]
    fn put(&self, i: usize, w: &mut BitWriter) {
        let e = self.words[i];
        if e & 0x1F == 0 {
            return self.put_wide(e, w);
        }
        w.put_bits(u64::from(e >> 5), e & 0x1F);
    }

    #[cold]
    fn put_wide(&self, e: u32, w: &mut BitWriter) {
        w.put(self.wide[(e >> 5) as usize]);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.wide)
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

    /// [`super::Dict::encode_into`]: one slot per byte.
    #[inline]
    pub(super) fn encode_into(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        w: &mut BitWriter,
    ) -> usize {
        let stop = min_bytes.saturating_mul(8);
        let mut at = from;
        while at < key.len() && w.bit_len() < stop {
            self.codes.put(key[at] as usize, w);
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

    /// [`super::Dict::encode_into`]: one slot per pair, or per odd tail.
    #[inline]
    pub(super) fn encode_into(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        w: &mut BitWriter,
    ) -> usize {
        let stop = min_bytes.saturating_mul(8);
        let mut at = from;
        while at < key.len() && w.bit_len() < stop {
            self.codes.put(Self::slot(&key[at..]), w);
            at += 2;
        }
        at.min(key.len())
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
        // One `(bits << 5) | len` u32 per slot — and nothing else: no
        // second table restating the same codes.
        assert_eq!(SingleCharDict::new(&fixed_codes(256)).memory_bytes(), 256 * 4);
        let d = DoubleCharDict::new(&fixed_codes(DOUBLE_CHAR_ENTRIES));
        assert_eq!(d.memory_bytes(), DOUBLE_CHAR_ENTRIES * 4);
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
        codes[253] = Code::new(0x7FF_FFFF, 27);
        assert_eq!(SingleCharDict::new(&codes).memory_bytes(), 256 * 4, "27 bits still pack");
        codes[254] = Code::new(0x1_FFFF_FFFF, 40);
        codes[255] = Code::new(u64::MAX >> 4, 60);
        let d = SingleCharDict::new(&codes);
        for b in [253, 254, 255] {
            assert_eq!(d.lookup(&[b]), (codes[b as usize], 1));
        }
        // Only the two escaped codes pay for a side-list `Code`.
        assert_eq!(d.memory_bytes(), 256 * 4 + 2 * std::mem::size_of::<Code>());
    }

    /// A code over 27 bits escapes to the side list, which then serves
    /// the key loop, the lookup and the enumeration — bit-identical to the
    /// binary-search reference over the same codes.
    #[test]
    fn overlong_codes_take_the_wide_array() {
        let set = double_char_intervals();
        let mut codes = fixed_codes(DOUBLE_CHAR_ENTRIES);
        // Keep the code set monotone: lengthen the last code only.
        let last = codes[DOUBLE_CHAR_ENTRIES - 1];
        codes[DOUBLE_CHAR_ENTRIES - 1] = Code::new(last.bits << 43, last.len + 43);
        assert!(codes[DOUBLE_CHAR_ENTRIES - 1].len > MAX_CODE_LEN);
        let wide = Dict::Double(DoubleCharDict::new(&codes));
        // The one escaped entry alone pays for a side-list `Code`.
        assert_eq!(wide.memory_bytes(), DOUBLE_CHAR_ENTRIES * 4 + std::mem::size_of::<Code>());
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

    /// Codes up to the 27-bit limit pack; one bit past it, and up to 64
    /// bits, they escape. Both arrays look up, encode (whole and pulled)
    /// and list such codes as the binary-search reference does.
    #[test]
    fn codes_past_the_packing_limit_escape() {
        use crate::dict::tests::{check_against_reference, codes_around, probes_for};
        use crate::selector::single_char::single_char_intervals;
        let set = single_char_intervals();
        let codes = codes_around(&[MAX_CODE_LEN], &set);
        let single = SingleCharDict::new(&codes);
        let escaped = codes.iter().filter(|c| c.len > MAX_CODE_LEN).count();
        assert!(escaped > 0 && single.codes.wide.len() == escaped);
        let single = Dict::Single(single);
        check_against_reference("Single-Char", &single, &set, &codes, &probes_for(&set));
        let set = double_char_intervals();
        let codes = codes_around(&[MAX_CODE_LEN], &set);
        let double = Dict::Double(DoubleCharDict::new(&codes));
        check_against_reference("Double-Char", &double, &set, &codes, &probes_for(&set));
    }
}

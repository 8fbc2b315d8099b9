//! Dictionary data structures (§4.2): map a source suffix to the interval
//! containing it, returning the interval's code and symbol length.
//!
//! Because intervals are connected and disjoint, a dictionary stores only
//! the left boundary of each interval; a lookup is a *floor* ("greater than
//! or equal to") search. Three structures are implemented, matching
//! Table 1, plus a binary-search baseline used for testing and for the
//! §4.2 ablation ("2.3× faster than binary-searching the entries"):
//!
//! * [`array_dict`] — O(1) arrays for Single-Char / Double-Char;
//! * [`bitmap_trie`] — succinct bitmap trie for 3-Grams / 4-Grams;
//! * [`art_dict`] — ART variant for ALM / ALM-Improved (prefix keys, full
//!   prefixes, leaves store codes);
//! * [`sorted_dict`] — binary search over the boundary list (baseline);
//! * no structure for the uncompressed Identity baseline, whose encode is
//!   a copy ([`Dict::Identity`]).
//!
//! The built [`Dict`] is the only copy of the dictionary and the only
//! thing the encoder walks: [`Dict::encode_into`] is the per-key loop
//! (resumable, and bounded by the whole bytes it must produce),
//! [`Dict::lookup`] the per-symbol primitive, and
//! [`Dict::for_each_entry`] lists the `(symbol, code)` pairs back out for
//! the decoders, so neither the interval division nor the code list
//! outlives the build.
//!
//! ```
//! use hope::{HopeBuilder, Scheme};
//!
//! let sample = vec![b"com.gmail@a".to_vec(), b"com.gmail@b".to_vec()];
//! let hope = HopeBuilder::new(Scheme::SingleChar).build_from_sample(sample).unwrap();
//! // A lookup returns the interval's code and the bytes it consumes.
//! let (code, consumed) = hope.encoder().dict().lookup(b"com");
//! assert_eq!(consumed, 1);          // Single-Char consumes one byte
//! assert!(code.len >= 1);           // ...emitting that byte's prefix code
//! ```

pub mod array_dict;
pub mod art_dict;
mod automaton;
pub mod bitmap_trie;
mod payload;
pub mod sorted_dict;

use crate::axis::IntervalSet;
use crate::bitpack::{BitWriter, Code};
use crate::selector::Scheme;

pub use array_dict::{DoubleCharDict, SingleCharDict};
pub use art_dict::ArtDict;
pub use bitmap_trie::BitmapTrieDict;
pub use sorted_dict::SortedDict;

/// Common interface of every dictionary structure.
pub trait DictLookup {
    /// Find the interval containing the (non-empty) source suffix; return
    /// the interval's code and its symbol length (bytes consumed).
    fn lookup(&self, src: &[u8]) -> (Code, usize);

    /// Bytes of memory used by the structure.
    fn memory_bytes(&self) -> usize;

    /// Number of dictionary entries (intervals).
    fn num_entries(&self) -> usize;
}

/// The encode loop every structure without a denser one shares: one
/// lookup per symbol, under [`Dict::encode_into`]'s bound.
#[inline]
fn encode_by_lookup(
    d: &impl DictLookup,
    key: &[u8],
    from: usize,
    min_bytes: usize,
    w: &mut BitWriter,
) -> usize {
    let stop = min_bytes.saturating_mul(8);
    let mut at = from;
    while at < key.len() && w.bit_len() < stop {
        let (code, consumed) = d.lookup(&key[at..]);
        debug_assert!(consumed >= 1 && at + consumed <= key.len());
        w.put(code);
        at += consumed;
    }
    at
}

/// Static-dispatch wrapper over the concrete dictionary structures (keeps
/// the per-symbol lookup free of virtual calls on the encode hot path).
#[derive(Debug)]
pub enum Dict {
    /// 256-entry array (Single-Char).
    Single(SingleCharDict),
    /// 65 792-entry array (Double-Char).
    Double(DoubleCharDict),
    /// Bitmap trie (3-Grams / 4-Grams).
    Bitmap(BitmapTrieDict),
    /// ART-based (ALM / ALM-Improved).
    Art(ArtDict),
    /// Binary-search baseline.
    Sorted(SortedDict),
    /// No table (Identity): byte `b` is the 8-bit code `b`, so an encode
    /// is a copy of the key. Byte 0x00 has the all-zeros code, and order
    /// still holds strictly because no encoding is ever padded.
    Identity,
}

impl Dict {
    /// Build the Table-1 dictionary structure for `scheme` (Identity reads
    /// neither `set` nor `codes`).
    pub fn build(scheme: Scheme, set: &IntervalSet, codes: &[Code]) -> Dict {
        assert_eq!(set.len(), codes.len());
        match scheme {
            Scheme::Identity => Dict::Identity,
            Scheme::SingleChar => Dict::Single(SingleCharDict::new(codes)),
            Scheme::DoubleChar => Dict::Double(DoubleCharDict::new(codes)),
            Scheme::ThreeGrams | Scheme::FourGrams => {
                Dict::Bitmap(BitmapTrieDict::build(set, codes))
            }
            Scheme::Alm | Scheme::AlmImproved => Dict::Art(ArtDict::build(set, codes)),
        }
    }

    /// Encode `key` from byte `from` — a symbol boundary an earlier call
    /// returned, or 0 — appending its codes to `w` until `w` holds at
    /// least `min_bytes` whole bytes or the key ends; returns the position
    /// reached. The one per-key encode loop: the structure is matched once
    /// per call, and its own loop checks the bound after each symbol, so a
    /// whole encode (`min_bytes == usize::MAX`) and a point read that
    /// stops as soon as its index has seen enough bytes run the same code.
    /// Identity copies the rest of the key, whatever the bound.
    ///
    /// ```
    /// use hope::bitpack::BitWriter;
    /// use hope::{HopeBuilder, Scheme};
    ///
    /// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
    /// let hope = HopeBuilder::new(Scheme::ThreeGrams)
    ///     .dictionary_entries(256)
    ///     .build_from_sample(sample)
    ///     .unwrap();
    /// let dict = hope.encoder().dict();
    ///
    /// // The key loop is the per-symbol lookup, run to the end of the key.
    /// let key = b"com.gmail@carol";
    /// let (mut whole, mut by_symbol) = (BitWriter::new(), BitWriter::new());
    /// assert_eq!(dict.encode_into(key, 0, usize::MAX, &mut whole), key.len());
    /// let mut rest = &key[..];
    /// while !rest.is_empty() {
    ///     let (code, consumed) = dict.lookup(rest);
    ///     by_symbol.put(code);
    ///     rest = &rest[consumed..];
    /// }
    /// // Bounded and resumed, it writes the same bits.
    /// let mut chunked = BitWriter::new();
    /// let at = dict.encode_into(key, 0, 1, &mut chunked);
    /// assert!(at < key.len() && chunked.bit_len() >= 8);
    /// assert_eq!(dict.encode_into(key, at, usize::MAX, &mut chunked), key.len());
    /// let whole = whole.finish();
    /// assert_eq!(whole, by_symbol.finish());
    /// assert_eq!(whole, chunked.finish());
    /// ```
    #[inline]
    pub fn encode_into(
        &self,
        key: &[u8],
        from: usize,
        min_bytes: usize,
        w: &mut BitWriter,
    ) -> usize {
        match self {
            Dict::Single(d) => d.encode_into(key, from, min_bytes, w),
            Dict::Double(d) => d.encode_into(key, from, min_bytes, w),
            Dict::Bitmap(d) => encode_by_lookup(d, key, from, min_bytes, w),
            Dict::Art(d) => encode_by_lookup(d, key, from, min_bytes, w),
            Dict::Sorted(d) => encode_by_lookup(d, key, from, min_bytes, w),
            Dict::Identity => {
                w.put_bytes(&key[from..]);
                key.len()
            }
        }
    }

    /// Call `f(symbol, code)` for every dictionary entry, in interval
    /// order — the listing the decoders are built from. Slot arithmetic
    /// for the arrays, one depth-first walk for the trie and the ART (the
    /// path to an entry is its boundary, the symbol a prefix of it).
    pub fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        match self {
            Dict::Single(d) => d.for_each_entry(f),
            Dict::Double(d) => d.for_each_entry(f),
            Dict::Bitmap(d) => d.for_each_entry(f),
            Dict::Art(d) => d.for_each_entry(f),
            Dict::Sorted(d) => d.for_each_entry(f),
            Dict::Identity => (0..=u8::MAX).for_each(|b| f(&[b], Code::new(b.into(), 8))),
        }
    }

    /// Resolve one symbol. [`Dict::encode_into`] emits what repeated
    /// lookups to the end of the key emit (its doctest and
    /// `tests/encode_equiv.rs` check that). See [`DictLookup::lookup`].
    #[inline]
    pub fn lookup(&self, src: &[u8]) -> (Code, usize) {
        match self {
            Dict::Single(d) => d.lookup(src),
            Dict::Double(d) => d.lookup(src),
            Dict::Bitmap(d) => d.lookup(src),
            Dict::Art(d) => d.lookup(src),
            Dict::Sorted(d) => d.lookup(src),
            Dict::Identity => (Code { bits: src[0].into(), len: 8 }, 1),
        }
    }

    /// See [`DictLookup::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        match self {
            Dict::Single(d) => d.memory_bytes(),
            Dict::Double(d) => d.memory_bytes(),
            Dict::Bitmap(d) => d.memory_bytes(),
            Dict::Art(d) => d.memory_bytes(),
            Dict::Sorted(d) => d.memory_bytes(),
            Dict::Identity => 0,
        }
    }

    /// See [`DictLookup::num_entries`].
    pub fn num_entries(&self) -> usize {
        match self {
            Dict::Single(d) => d.num_entries(),
            Dict::Double(d) => d.num_entries(),
            Dict::Bitmap(d) => d.num_entries(),
            Dict::Art(d) => d.num_entries(),
            Dict::Sorted(d) => d.num_entries(),
            Dict::Identity => 256,
        }
    }

    /// Times the bitmap trie's automaton handed a symbol to the trie walk
    /// (0 for every other structure: their lookups have no second tier).
    pub(crate) fn automaton_fallback_takes(&self) -> u64 {
        match self {
            Dict::Bitmap(d) => d.automaton_fallback_takes(),
            _ => 0,
        }
    }

    /// Name of the underlying structure (for reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Dict::Single(_) | Dict::Double(_) => "Array",
            Dict::Bitmap(_) => "Bitmap-Trie",
            Dict::Art(_) => "ART-based",
            Dict::Sorted(_) => "Sorted-Array",
            Dict::Identity => "None",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_assign::CodeAssigner;
    use crate::selector;
    use proptest::prelude::*;

    /// Every concrete dictionary must agree with the binary-search baseline
    /// on every lookup — the key differential test of this module.
    fn check_against_baseline(scheme: Scheme, sample: &[Vec<u8>], probes: &[Vec<u8>]) {
        let set = selector::select_intervals(scheme, sample, 128).unwrap();
        let weights = selector::access_weights(&set, sample);
        let codes = CodeAssigner::HuTucker.assign(&weights);
        let fast = Dict::build(scheme, &set, &codes);
        let base = SortedDict::build(&set, &codes);
        assert_eq!(fast.num_entries(), base.num_entries());
        for p in probes {
            if p.is_empty() {
                continue;
            }
            let got = fast.lookup(p);
            let want = base.lookup(p);
            assert_eq!(got, want, "{scheme}: lookup({p:?})");
        }
    }

    fn words() -> Vec<Vec<u8>> {
        [
            "singing",
            "ringing",
            "kingdom",
            "sting",
            "ingest",
            "winging",
            "com.gmail@a",
            "com.gmail@b",
            "com.yahoo@c",
            "org.acm@d",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
    }

    #[test]
    fn all_dicts_match_baseline_on_fixed_probes() {
        let sample = words();
        let probes: Vec<Vec<u8>> = [
            "a",
            "ing",
            "inging",
            "com.gmail@zzz",
            "zzz",
            "\u{0}",
            "q",
            "com",
            "con",
            "cz",
            "i",
            "in",
            "kingdoms",
            "\u{7f}\u{7f}",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        for scheme in Scheme::ALL {
            check_against_baseline(scheme, &sample, &probes);
        }
    }

    /// Every structure lists back exactly the `(symbol, code)` pairs it was
    /// built from, in interval order — the decoders' only input.
    fn check_entries(what: &str, dict: &Dict, set: &IntervalSet, codes: &[Code]) {
        let mut i = 0usize;
        dict.for_each_entry(&mut |symbol, code| {
            assert!(i < set.len(), "{what}: more entries than intervals");
            assert_eq!((symbol, code), (set.symbol(i), codes[i]), "{what}: entry {i}");
            i += 1;
        });
        assert_eq!(i, set.len(), "{what}: entries listed");
    }

    fn check_entries_for_patterns(patterns: &[&[u8]]) {
        let pats: Vec<Vec<u8>> = patterns.iter().map(|p| p.to_vec()).collect();
        let set = IntervalSet::from_patterns(&pats);
        set.validate().unwrap();
        let codes = crate::hu_tucker::fixed_len_codes(set.len());
        for dict in [
            Dict::Bitmap(BitmapTrieDict::build(&set, &codes)),
            Dict::Art(ArtDict::build(&set, &codes)),
            Dict::Sorted(SortedDict::build(&set, &codes)),
        ] {
            check_entries(&format!("{} over {patterns:?}", dict.kind()), &dict, &set, &codes);
        }
    }

    #[test]
    fn for_each_entry_lists_the_dictionary_in_interval_order() {
        // Every scheme's production structure, on words and on a one-key
        // sample (Dict::build picks array / trie / ART per scheme).
        for sample in [words(), vec![b"k".to_vec()]] {
            for scheme in Scheme::ALL {
                let set = selector::select_intervals(scheme, &sample, 128).unwrap();
                let weights = selector::access_weights(&set, &sample);
                let codes = CodeAssigner::HuTucker.assign(&weights);
                let dict = Dict::build(scheme, &set, &codes);
                check_entries(&scheme.to_string(), &dict, &set, &codes);
            }
        }
        // Hostile divisions: 0x00 / 0xFF runs, where gap filling produces
        // boundaries that are prefixes of one another and symbols shorter
        // than their boundary.
        check_entries_for_patterns(&[]);
        check_entries_for_patterns(&[b"abc"]);
        check_entries_for_patterns(&[b"\x00\x00\x00", b"\x00\x00\x01"]);
        check_entries_for_patterns(&[b"\xff\xff\xfe", b"\xff\xff\xff"]);
        check_entries_for_patterns(&[b"a\x00\x00", b"a\xff\xff", b"b\x00", b"\xff"]);
        // Prefix-chain boundaries `a` / `ab` / `abc`: patterns may not
        // prefix one another, but boundaries may (terminator slots).
        let (mut chain, mut lens): (Vec<Box<[u8]>>, Vec<u16>) = (Vec::new(), Vec::new());
        for b in 0..=u8::MAX {
            chain.push([b].into());
            lens.push(1);
            if b == b'a' {
                // [ab, abc) shares "ab", [abc, abd) "abc", [abd, b) only "a".
                chain.extend([&b"ab"[..], b"abc", b"abd"].map(Box::from));
                lens.extend([2, 3, 1]);
            }
        }
        let set = IntervalSet::from_parts(chain, lens);
        set.validate().unwrap();
        let codes = crate::hu_tucker::fixed_len_codes(set.len());
        for dict in [
            Dict::Bitmap(BitmapTrieDict::build(&set, &codes)),
            Dict::Art(ArtDict::build(&set, &codes)),
            Dict::Sorted(SortedDict::build(&set, &codes)),
        ] {
            check_entries(&format!("{} over the prefix chain", dict.kind()), &dict, &set, &codes);
        }
    }

    /// Hand-made codes for `set`'s entries, whose lengths cycle through one
    /// bit below, at and one bit past each packing limit in `limits`, then
    /// 1, 40, 63 and 64 bits; every other code is all ones, so a dropped
    /// top bit shows. A symbol over 6 bytes gets a code at the lowest
    /// limit instead, so that its length alone decides whether it escapes.
    /// Not a prefix code: the structures map entries to codes and never
    /// read them as one.
    pub(super) fn codes_around(limits: &[u8], set: &IntervalSet) -> Vec<Code> {
        let mut lens: Vec<u8> = limits.iter().flat_map(|&l| [l - 1, l, l + 1]).collect();
        lens.extend([1, 40, 63, 64]);
        let lowest = *limits.iter().min().expect("a packing limit");
        (0..set.len())
            .map(|i| {
                let len = if set.symbol_len(i) > 6 { lowest } else { lens[i % lens.len()] };
                let mask = u64::MAX >> (64 - len);
                let bits =
                    if i % 2 == 0 { mask } else { (i as u64).wrapping_mul(0x9E37_79B9) & mask };
                Code::new(bits, len)
            })
            .collect()
    }

    /// Probes for a division: every boundary, alone and followed by 0xFF,
    /// and one key that is every symbol in turn.
    pub(super) fn probes_for(set: &IntervalSet) -> Vec<Vec<u8>> {
        let mut probes: Vec<Vec<u8>> = set.iter().map(|(b, _)| b.to_vec()).collect();
        probes.extend(set.iter().map(|(b, _)| [b, &[0xFF]].concat()));
        probes.push((0..set.len()).flat_map(|i| set.symbol(i).to_vec()).collect());
        probes.push(Vec::new());
        probes
    }

    /// `dict` against the binary-search reference over the same division
    /// and codes: each probe's lookup, each probe's encode — whole, and
    /// pulled a byte at a time — and the entry listing.
    pub(super) fn check_against_reference(
        what: &str,
        dict: &Dict,
        set: &IntervalSet,
        codes: &[Code],
        probes: &[Vec<u8>],
    ) {
        let reference = Dict::Sorted(SortedDict::build(set, codes));
        for p in probes.iter().filter(|p| !p.is_empty()) {
            assert_eq!(dict.lookup(p), reference.lookup(p), "{what}: lookup({p:?})");
        }
        for key in probes {
            let mut want = BitWriter::new();
            reference.encode_into(key, 0, usize::MAX, &mut want);
            let want = want.finish();
            let mut whole = BitWriter::new();
            assert_eq!(dict.encode_into(key, 0, usize::MAX, &mut whole), key.len());
            assert_eq!(whole.finish(), want, "{what}: encode {key:?}");
            let (mut pulled, mut at) = (BitWriter::new(), 0);
            while at < key.len() {
                at = dict.encode_into(key, at, pulled.bit_len() / 8 + 1, &mut pulled);
            }
            assert_eq!(pulled.finish(), want, "{what}: pulled encode {key:?}");
        }
        check_entries(what, dict, set, codes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dicts_match_baseline_on_random_probes(
            sample in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..20), 1..20),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..24), 1..40),
        ) {
            for scheme in [Scheme::ThreeGrams, Scheme::FourGrams, Scheme::AlmImproved] {
                check_against_baseline(scheme, &sample, &probes);
            }
        }
    }
}

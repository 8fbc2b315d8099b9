//! Dictionary diffing: which keys would a retrained dictionary encode
//! *identically*?
//!
//! A drift rebuild retrains the dictionary on a fresh sample and then
//! re-encodes every live key — even though retraining on similar data
//! usually perturbs only a fraction of the code assignments (Hu-Tucker
//! is deterministic in its weights, so symbols whose weights ranked the
//! same keep their exact codes). [`EncodingDiff`] compares an old and a
//! new [`Hope`](crate::Hope) at the *symbol* level and answers, per key,
//! whether the new dictionary's output is bit-for-bit the old one's —
//! in which case the already-encoded bytes can be reused verbatim and
//! the re-encode skipped. This is the engine behind the store's
//! incremental merge rebuild (Compressed Key Sort / Fast Index
//! Reconstruction style: a merge pass over already-encoded runs instead
//! of a stop-the-world re-encode).
//!
//! Two comparison strategies, chosen by the dictionary structure:
//!
//! * **Table diff** — both dictionaries are arrays (Single-/Double-Char).
//!   Their symbol space is dense, so one upfront pass over the (at most
//!   65 792) symbols — a [`Dict::lookup`] on each side — yields a
//!   changed-symbol bitset, and a key's verdict is a bitset probe per
//!   symbol: O(key length), no dictionary work at all.
//! * **Walk diff** — the trie and ART dictionaries. Each key is resolved
//!   symbol-by-symbol through *both* dictionaries ([`Dict::lookup`]); the
//!   key is unchanged only if every step consumes the same source length
//!   with an identical code. Segmentation agreement matters: equal total
//!   bit patterns reached through different symbol boundaries would still
//!   be byte-identical, but the walk conservatively rejects anything
//!   whose step-wise agreement breaks, which is always safe (a `false`
//!   merely costs one ordinary re-encode).
//!
//! Identical per-symbol codes along the whole key imply an identical
//! concatenated bit stream, hence identical padded encoded bytes — the
//! reuse the store splices is exact, not approximate.

use crate::dict::Dict;

/// One word per 64 symbols.
/// One bit per symbol, set iff the two dictionaries resolve `symbol(i)`
/// differently.
fn changed_bits<const N: usize>(
    old: &Dict,
    new: &Dict,
    symbols: usize,
    symbol: impl Fn(usize) -> [u8; N],
) -> Box<[u64]> {
    let mut bs = vec![0u64; symbols.div_ceil(64)].into_boxed_slice();
    for i in 0..symbols {
        let sym = symbol(i);
        if old.lookup(&sym) != new.lookup(&sym) {
            bs[i / 64] |= 1 << (i % 64);
        }
    }
    bs
}

fn marked(bs: &[u64], i: usize) -> bool {
    (bs[i / 64] >> (i % 64)) & 1 == 1
}

/// How two dictionaries are compared (module docs).
#[derive(Debug)]
enum Shape<'a> {
    /// Array dictionaries on both sides: precomputed changed-symbol
    /// bitsets over the dense symbol space.
    Table {
        /// Symbol length of the main table (1 or 2 bytes).
        gram: usize,
        /// Changed bit per main-table symbol.
        changed: Box<[u64]>,
        /// Changed bit per one-byte terminator symbol (empty for
        /// Single-Char).
        term_changed: Box<[u64]>,
    },
    /// Per-key dual walk through both dictionaries.
    Walk { old: &'a Dict, new: &'a Dict },
}

/// A symbol-level comparison of two trained dictionaries, answering
/// [`key_unchanged`](EncodingDiff::key_unchanged) per key. Built by
/// [`Hope::encoding_diff`](crate::Hope::encoding_diff); holds borrows of
/// both compressors.
///
/// ```
/// use hope::{HopeBuilder, Scheme};
///
/// let sample: Vec<Vec<u8>> = (0..200).map(|i| format!("user{i:04}").into_bytes()).collect();
/// let old = HopeBuilder::new(Scheme::SingleChar).build_from_sample(sample.clone()).unwrap();
/// let new = HopeBuilder::new(Scheme::SingleChar).build_from_sample(sample).unwrap();
/// let diff = old.encoding_diff(&new).unwrap();
/// // Identical samples ⇒ identical Hu-Tucker weights ⇒ nothing changed.
/// assert!(diff.key_unchanged(b"user0042"));
/// assert_eq!(diff.changed_symbols(), Some(0));
/// ```
#[derive(Debug)]
pub struct EncodingDiff<'a> {
    shape: Shape<'a>,
}

impl<'a> EncodingDiff<'a> {
    /// Compare two dictionaries of the same scheme.
    pub(crate) fn new(old: &'a Dict, new: &'a Dict) -> EncodingDiff<'a> {
        let byte = |i: usize| [i as u8];
        let shape = match (old, new) {
            (Dict::Single(_), Dict::Single(_)) => Shape::Table {
                gram: 1,
                changed: changed_bits(old, new, 1 << 8, byte),
                term_changed: Box::default(),
            },
            (Dict::Double(_), Dict::Double(_)) => Shape::Table {
                gram: 2,
                changed: changed_bits(old, new, 1 << 16, |i| [(i >> 8) as u8, i as u8]),
                term_changed: changed_bits(old, new, 1 << 8, byte),
            },
            _ => Shape::Walk { old, new },
        };
        EncodingDiff { shape }
    }

    /// `true` iff the new dictionary encodes `key` to byte-identical
    /// output, so its already-encoded form can be reused verbatim.
    /// Conservative: a `false` may still encode identically (walk-shape
    /// segmentation disagreement); a `true` is always exact.
    pub fn key_unchanged(&self, key: &[u8]) -> bool {
        match &self.shape {
            Shape::Table { gram: 1, changed, .. } => {
                key.iter().all(|&b| !marked(changed, b as usize))
            }
            Shape::Table { changed, term_changed, .. } => {
                let mut chunks = key.chunks_exact(2);
                for p in &mut chunks {
                    if marked(changed, (p[0] as usize) << 8 | p[1] as usize) {
                        return false;
                    }
                }
                match chunks.remainder() {
                    [b] => !marked(term_changed, *b as usize),
                    _ => true,
                }
            }
            Shape::Walk { old, new } => {
                let mut rest = key;
                while !rest.is_empty() {
                    let (oc, on) = old.lookup(rest);
                    let (nc, nn) = new.lookup(rest);
                    if on != nn || oc != nc || on == 0 {
                        return false;
                    }
                    rest = &rest[on..];
                }
                true
            }
        }
    }

    /// Symbols whose table entry changed, or `None` for the walk shape
    /// (whose symbol space has no dense enumeration). Diagnostics: `0`
    /// means every key is reusable.
    pub fn changed_symbols(&self) -> Option<usize> {
        match &self.shape {
            Shape::Table { changed, term_changed, .. } => Some(
                changed.iter().map(|w| w.count_ones() as usize).sum::<usize>()
                    + term_changed.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            ),
            Shape::Walk { .. } => None,
        }
    }

    /// Comparison strategy in use: `"table"` (precomputed bitsets) or
    /// `"walk"` (per-key dual lookup). Reports and telemetry.
    pub fn kind(&self) -> &'static str {
        match &self.shape {
            Shape::Table { .. } => "table",
            Shape::Walk { .. } => "walk",
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HopeBuilder;
    use crate::selector::Scheme;

    fn sample_a() -> Vec<Vec<u8>> {
        (0..400).map(|i| format!("com.gmail@user{i:04}").into_bytes()).collect()
    }

    /// A sample with a shifted byte distribution: different weights for
    /// many symbols, so retraining genuinely moves codes.
    fn sample_b() -> Vec<Vec<u8>> {
        (0..400).map(|i| format!("zz{:04x}.example/{i:04}", i * 7).into_bytes()).collect()
    }

    fn build(scheme: Scheme, sample: Vec<Vec<u8>>) -> crate::builder::Hope {
        HopeBuilder::new(scheme).dictionary_entries(4096).build_from_sample(sample).unwrap()
    }

    #[test]
    fn identical_training_changes_nothing() {
        for scheme in [Scheme::SingleChar, Scheme::DoubleChar, Scheme::ThreeGrams] {
            let old = build(scheme, sample_a());
            let new = build(scheme, sample_a());
            let diff = old.encoding_diff(&new).unwrap();
            for key in sample_a() {
                assert!(diff.key_unchanged(&key), "{scheme}: {key:?}");
            }
            assert!(diff.key_unchanged(b""), "empty key is vacuously unchanged");
        }
    }

    #[test]
    fn table_diff_counts_changed_symbols_and_walk_does_not() {
        let old = build(Scheme::SingleChar, sample_a());
        let same = build(Scheme::SingleChar, sample_a());
        let diff = old.encoding_diff(&same).unwrap();
        assert_eq!(diff.kind(), "table");
        assert_eq!(diff.changed_symbols(), Some(0));

        let moved = build(Scheme::SingleChar, sample_b());
        let diff = old.encoding_diff(&moved).unwrap();
        assert!(diff.changed_symbols().unwrap() > 0, "shifted sample must move codes");

        let old = build(Scheme::ThreeGrams, sample_a());
        let new = build(Scheme::ThreeGrams, sample_a());
        let diff = old.encoding_diff(&new).unwrap();
        assert_eq!(diff.kind(), "walk");
        assert_eq!(diff.changed_symbols(), None);
    }

    #[test]
    fn unchanged_verdicts_are_exact_and_changed_keys_are_caught() {
        for scheme in [Scheme::SingleChar, Scheme::DoubleChar, Scheme::FourGrams] {
            let old = build(scheme, sample_a());
            let new = build(scheme, sample_b());
            let diff = old.encoding_diff(&new).unwrap();
            let mut unchanged = 0usize;
            let mut changed = 0usize;
            for key in sample_a().iter().chain(sample_b().iter()) {
                let same_bytes = old.encode(key) == new.encode(key);
                if diff.key_unchanged(key) {
                    unchanged += 1;
                    assert!(same_bytes, "{scheme}: reuse verdict must be exact for {key:?}");
                } else {
                    changed += 1;
                }
            }
            // The diff must be useful in both directions on this pair:
            // some keys reusable, some genuinely moved.
            assert!(changed > 0, "{scheme}: shifted dictionaries must change some keys");
            let _ = unchanged;
        }
    }

    #[test]
    fn scheme_mismatch_yields_no_diff() {
        let a = build(Scheme::SingleChar, sample_a());
        let b = build(Scheme::DoubleChar, sample_a());
        assert!(a.encoding_diff(&b).is_none());
    }
}

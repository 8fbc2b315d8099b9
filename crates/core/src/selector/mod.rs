//! Symbol Selectors (§4.2): turn a sampled key list into a complete,
//! order-preserving division of the string axis plus per-interval access
//! weights for the Code Assigner.
//!
//! Each selector implements the interval-division heuristic of one paper
//! scheme. The access probabilities are obtained the way the paper
//! describes: a *test encoding* of the sample keys against the chosen
//! intervals, counting how often each interval is hit.
//!
//! ```
//! use hope::selector::{access_weights, select_intervals, Scheme};
//!
//! let sample = vec![b"singing".to_vec(), b"ringing".to_vec()];
//! let set = select_intervals(Scheme::ThreeGrams, &sample, 64).unwrap();
//! let weights = access_weights(&set, &sample);
//! assert_eq!(weights.len(), set.len());   // one weight per interval
//! assert!(set.validate().is_ok());        // complete division (§3.2)
//! ```

pub mod alm;
pub mod double_char;
pub mod ngram;
pub mod single_char;

pub use alm::{AlmSelector, BLEND_DOC};
pub use double_char::double_char_intervals;
pub use ngram::NGramSelector;
pub use single_char::single_char_intervals;

use crate::axis::IntervalSet;
use crate::builder::HopeError;

/// The six compression schemes of the paper (§3.3, Table 1), plus the
/// uncompressed baseline.
///
/// `#[non_exhaustive]`: future PRs may add schemes without a breaking
/// change, so downstream matches need a wildcard arm (iterate
/// [`Scheme::ALL`] for "every scheme of the paper" loops; it leaves out
/// [`Scheme::Identity`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scheme {
    /// FIVC: 256 single-character intervals, Hu-Tucker codes (the classic
    /// order-preserving Huffman analogue).
    SingleChar,
    /// FIVC: 65 792 double-character intervals (with terminator slots),
    /// Hu-Tucker codes. Exploits first-order entropy.
    DoubleChar,
    /// VIFC: ALM variable-length intervals with fixed-length codes
    /// (Antoshenkov '97).
    Alm,
    /// VIVC: top frequent 3-byte patterns + gap intervals, Hu-Tucker codes.
    ThreeGrams,
    /// VIVC: top frequent 4-byte patterns + gap intervals, Hu-Tucker codes.
    FourGrams,
    /// VIVC: ALM intervals from suffix statistics, Hu-Tucker codes.
    AlmImproved,
    /// The paper's *Uncompressed* baseline: Single-Char's 256 intervals,
    /// byte `b` coded as the 8 bits of `b`. Nothing is trained (an empty
    /// sample builds it), no table is built, and every encoding is a copy
    /// of the key, so a store built with it is the same store with
    /// compression off.
    ///
    /// ```
    /// use hope::{DecodeScratch, EncodeScratch, HopeBuilder, Scheme};
    ///
    /// let hope = HopeBuilder::new(Scheme::Identity).build_from_sample(Vec::new()).unwrap();
    /// let mut enc = EncodeScratch::new();
    /// let mut dec = DecodeScratch::new();
    /// let bytes = hope.encode_to(b"com.gmail@alice", &mut enc).unwrap().to_vec();
    /// assert_eq!((bytes.as_slice(), enc.bit_len()), (&b"com.gmail@alice"[..], 15 * 8));
    /// let back = hope.decode_to(&bytes, enc.bit_len(), &mut dec).unwrap();
    /// assert_eq!(back, b"com.gmail@alice");
    /// ```
    Identity,
}

impl Scheme {
    /// The paper's six schemes in its presentation order
    /// ([`Scheme::Identity`] is not one of them).
    pub const ALL: [Scheme; 6] = [
        Scheme::SingleChar,
        Scheme::DoubleChar,
        Scheme::Alm,
        Scheme::ThreeGrams,
        Scheme::FourGrams,
        Scheme::AlmImproved,
    ];

    /// Human-readable scheme name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::SingleChar => "Single-Char",
            Scheme::DoubleChar => "Double-Char",
            Scheme::Alm => "ALM",
            Scheme::ThreeGrams => "3-Grams",
            Scheme::FourGrams => "4-Grams",
            Scheme::AlmImproved => "ALM-Improved",
            Scheme::Identity => "Identity",
        }
    }

    /// Dictionary-model category (Figure 3).
    pub fn category(&self) -> &'static str {
        match self {
            Scheme::SingleChar | Scheme::DoubleChar => "FIVC",
            Scheme::Alm => "VIFC",
            Scheme::ThreeGrams | Scheme::FourGrams | Scheme::AlmImproved => "VIVC",
            Scheme::Identity => "FIFC",
        }
    }

    /// Whether the number of dictionary entries is fixed by the scheme.
    pub fn fixed_dict_size(&self) -> Option<usize> {
        match self {
            Scheme::SingleChar | Scheme::Identity => Some(256),
            Scheme::DoubleChar => Some(256 * 257),
            _ => None,
        }
    }

    /// Whether the scheme uses optimal order-preserving (Hu-Tucker) codes;
    /// `false` means monotone fixed-length codes (Table 1).
    pub fn uses_hu_tucker(&self) -> bool {
        !matches!(self, Scheme::Alm | Scheme::Identity)
    }

    /// Dictionary data structure used for this scheme (Table 1).
    pub fn dictionary_kind(&self) -> &'static str {
        match self {
            Scheme::SingleChar | Scheme::DoubleChar => "Array",
            Scheme::ThreeGrams | Scheme::FourGrams => "Bitmap-Trie",
            Scheme::Alm | Scheme::AlmImproved => "ART-based",
            Scheme::Identity => "None",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run the scheme's interval-division heuristic over the sample.
///
/// `target_entries` bounds the dictionary size for the variable-size schemes
/// and is ignored by Single-Char/Double-Char.
///
/// The returned division is validated against the complete-division
/// invariant (§3.2); a selector bug surfaces as
/// [`HopeError::InvalidIntervals`] instead of corrupting downstream stages.
pub fn select_intervals(
    scheme: Scheme,
    sample: &[Vec<u8>],
    target_entries: usize,
) -> Result<IntervalSet, HopeError> {
    let set = match scheme {
        Scheme::SingleChar | Scheme::Identity => single_char_intervals(),
        Scheme::DoubleChar => double_char_intervals(),
        Scheme::ThreeGrams => NGramSelector::new(3).select(sample, target_entries),
        Scheme::FourGrams => NGramSelector::new(4).select(sample, target_entries),
        Scheme::Alm => AlmSelector::original().select(sample, target_entries),
        Scheme::AlmImproved => AlmSelector::improved().select(sample, target_entries),
    };
    set.validate()
        .map_err(|detail| HopeError::InvalidIntervals { scheme: scheme.name(), detail })?;
    Ok(set)
}

/// Weight put on one observed interval hit, relative to the +1 smoothing
/// floor every interval receives. Smoothing keeps zero-probability
/// intervals encodable with bounded code length; the scale keeps real
/// observations dominant even for small samples over large dictionaries.
pub const HIT_WEIGHT: u64 = 64;

/// Test-encode the sample against `set` and return per-interval access
/// counts (scaled by [`HIT_WEIGHT`], with +1 smoothing).
pub fn access_weights(set: &IntervalSet, sample: &[Vec<u8>]) -> Vec<u64> {
    let mut w = vec![1u64; set.len()];
    for key in sample {
        let mut rest: &[u8] = key;
        while !rest.is_empty() {
            let i = set.floor_index(rest);
            w[i] += HIT_WEIGHT;
            let consumed = set.symbol_len(i);
            debug_assert!(consumed >= 1 && consumed <= rest.len());
            rest = &rest[consumed..];
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_metadata_matches_table1() {
        assert_eq!(Scheme::SingleChar.fixed_dict_size(), Some(256));
        assert_eq!(Scheme::DoubleChar.fixed_dict_size(), Some(65792));
        assert_eq!(Scheme::ThreeGrams.fixed_dict_size(), None);
        assert!(Scheme::AlmImproved.uses_hu_tucker());
        assert!(!Scheme::Alm.uses_hu_tucker());
        assert_eq!(Scheme::Alm.category(), "VIFC");
        assert_eq!(Scheme::FourGrams.dictionary_kind(), "Bitmap-Trie");
        assert_eq!(Scheme::SingleChar.to_string(), "Single-Char");
        let identity = Scheme::Identity;
        assert_eq!((identity.name(), identity.category()), ("Identity", "FIFC"));
        assert_eq!((identity.fixed_dict_size(), identity.uses_hu_tucker()), (Some(256), false));
        assert_eq!(identity.dictionary_kind(), "None");
        assert!(!Scheme::ALL.contains(&identity), "the six of the paper");
    }

    #[test]
    fn access_weights_count_encode_steps() {
        let set = single_char_intervals();
        let sample = vec![b"ab".to_vec(), b"aa".to_vec()];
        let w = access_weights(&set, &sample);
        assert_eq!(w[b'a' as usize], 1 + 3 * HIT_WEIGHT); // 'a' hit three times
        assert_eq!(w[b'b' as usize], 1 + HIT_WEIGHT);
        assert_eq!(w[b'c' as usize], 1);
    }

    #[test]
    fn every_scheme_selects_valid_intervals() -> Result<(), HopeError> {
        let sample: Vec<Vec<u8>> = [
            "com.gmail@alice",
            "com.gmail@bob",
            "com.yahoo@carol",
            "org.wikipedia@dave",
            "net.github@erin",
            "com.gmail@frank",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        for scheme in Scheme::ALL {
            // A division violating §3.2 comes back as a HopeError here.
            let set = select_intervals(scheme, &sample, 64)?;
            let w = access_weights(&set, &sample);
            assert_eq!(w.len(), set.len());
        }
        Ok(())
    }

    #[test]
    fn invalid_intervals_error_names_the_scheme() {
        let err = HopeError::InvalidIntervals {
            scheme: Scheme::ThreeGrams.name(),
            detail: "boundary 3 out of order".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("3-Grams") && msg.contains("out of order"), "{msg}");
    }
}

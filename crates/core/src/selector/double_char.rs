//! Double-Char selector (§3.3, Figure 4b): fixed-length intervals with
//! consecutive double characters as boundaries, plus a terminator slot per
//! leading byte so the dictionary is complete for odd-length tails.
//!
//! Layout (matching the paper's §4.2 array dictionary): for each leading
//! byte `b0` there are 257 consecutive intervals:
//!
//! * slot `b0*257 + 0`   — boundary `[b0]`, symbol `b0` (the "`b0∅`"
//!   terminator interval `[b0·∅, b0·\x00)`), consumed when exactly one byte
//!   of source remains;
//! * slot `b0*257 + b1 + 1` — boundary `[b0, b1]`, symbol `b0 b1`.
//!
//! The paper's example (footnote 4) gives index `24770 = 96*(256+1)+97+1`
//! for symbol "aa", mixing 96 and 97 for ASCII 'a' (= 97); the consistent
//! version of the same formula, `b0*257 + b1 + 1`, is used here.

use crate::axis::IntervalSet;

/// Total number of Double-Char dictionary entries: 256 * 257.
pub const DOUBLE_CHAR_ENTRIES: usize = 256 * 257;

/// The 65 792 Double-Char intervals.
pub fn double_char_intervals() -> IntervalSet {
    // 256 one-byte and 65 536 two-byte boundaries.
    let mut set = IntervalSet::with_capacity(DOUBLE_CHAR_ENTRIES, 256 * (1 + 256 * 2));
    for b0 in 0..=255u8 {
        set.push(&[b0], 1);
        for b1 in 0..=255u8 {
            set.push(&[b0, b1], 2);
        }
    }
    set
}

/// Index (in interval order) of the interval that a source suffix falls
/// into. The array dictionary answers the same question over its own
/// pair-dense slot order and uses this to translate between the two.
#[inline]
pub fn double_char_slot(src: &[u8]) -> usize {
    debug_assert!(!src.is_empty());
    let b0 = src[0] as usize;
    if src.len() >= 2 {
        b0 * 257 + src[1] as usize + 1
    } else {
        b0 * 257
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_paper_formula() {
        // Paper footnote 4 writes `24770 = 96*(256+1) + 97 + 1` for "aa",
        // but uses 96 for 'a' (ASCII 97) in the first factor and 97 in the
        // second — an internal off-by-one. With the consistent formula
        // `b0*257 + b1 + 1` and ASCII 'a' = 97, "aa" sits at 25027.
        assert_eq!(double_char_slot(b"aa"), 97 * 257 + 97 + 1);
        let set = double_char_intervals();
        assert_eq!(set.len(), DOUBLE_CHAR_ENTRIES);
        assert_eq!(set.boundary(25027), b"aa");
        assert_eq!(set.symbol(25027), b"aa");
    }

    #[test]
    fn terminator_slot_for_single_trailing_byte() {
        let set = double_char_intervals();
        let slot = double_char_slot(b"a");
        assert_eq!(slot, 97 * 257);
        assert_eq!(set.boundary(slot), b"a");
        assert_eq!(set.symbol_len(slot), 1);
    }

    #[test]
    fn slot_agrees_with_binary_search_floor() {
        let set = double_char_intervals();
        for probe in [
            b"\x00\x00\x00".as_slice(),
            b"a",
            b"ab",
            b"abc",
            b"zz",
            b"\xff",
            b"\xff\xff",
            b"a\x00",
            b"a\xff",
        ] {
            assert_eq!(double_char_slot(probe), set.floor_index(probe), "probe {probe:?}");
        }
    }

    #[test]
    fn intervals_validate() {
        double_char_intervals().validate().unwrap();
    }
}

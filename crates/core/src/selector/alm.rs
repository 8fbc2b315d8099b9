//! ALM and ALM-Improved selectors (§3.3, Figures 4c/4f).
//!
//! ALM (Antoshenkov–Lomet–Murray '96/'97) selects substring patterns that
//! are *long and frequent*: a pattern `s` enters the dictionary when
//! `len(s) × freq(s)` exceeds a threshold `W`; `W` is binary-searched to hit
//! a desired dictionary size. Selected patterns must satisfy the prefix
//! property, which is restored by *blending*: the occurrence count of a
//! pattern that is a prefix of another selected candidate is redistributed
//! to its longest extension in the frequency list.
//!
//! ALM-Improved (the paper's contribution) differs in two ways:
//! 1. statistics are collected only for substrings that are **suffixes** of
//!    the sample keys (much cheaper than all-substrings), and
//! 2. codes are Hu-Tucker instead of fixed-length (handled by the Code
//!    Assigner; this module only changes the statistics source).

use std::collections::HashMap;

use crate::axis::IntervalSet;

/// Documentation note: how blending redistributes prefix-pattern counts.
pub const BLEND_DOC: &str =
    "blending moves the count of a prefix pattern onto its longest extension";

/// Which statistics the ALM selector collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StatsSource {
    /// Original ALM: every substring of every sample key (length-capped for
    /// tractability; the paper notes this pass is super-linear and slow).
    AllSubstrings { max_len: usize },
    /// ALM-Improved: only suffixes of the sample keys (length-capped).
    Suffixes { max_len: usize },
}

/// Variable-length-interval selector implementing ALM and ALM-Improved.
#[derive(Clone, Copy, Debug)]
pub struct AlmSelector {
    source: StatsSource,
}

impl AlmSelector {
    /// The original ALM selector (all substrings, capped at 8 bytes).
    pub fn original() -> Self {
        AlmSelector { source: StatsSource::AllSubstrings { max_len: 8 } }
    }

    /// The ALM-Improved selector (suffix statistics, capped at 16 bytes).
    pub fn improved() -> Self {
        AlmSelector { source: StatsSource::Suffixes { max_len: 16 } }
    }

    /// Collect raw pattern counts from the sample.
    fn count_patterns(&self, sample: &[Vec<u8>]) -> HashMap<Vec<u8>, u64> {
        let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
        match self.source {
            StatsSource::AllSubstrings { max_len } => {
                for key in sample {
                    for start in 0..key.len() {
                        let end = (start + max_len).min(key.len());
                        for stop in (start + 1)..=end {
                            *counts.entry(key[start..stop].to_vec()).or_insert(0) += 1;
                        }
                    }
                }
            }
            StatsSource::Suffixes { max_len } => {
                for key in sample {
                    for start in 0..key.len() {
                        let stop = (start + max_len).min(key.len());
                        *counts.entry(key[start..stop].to_vec()).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
    }

    /// Divide the axis targeting roughly `target_entries` dictionary
    /// entries (pattern intervals plus gap intervals).
    pub fn select(&self, sample: &[Vec<u8>], target_entries: usize) -> IntervalSet {
        let counts = self.count_patterns(sample);
        if counts.is_empty() {
            return IntervalSet::from_patterns(&[]);
        }
        let blended = blend(counts);

        // Binary-search the threshold W over the distinct len*freq products
        // so that the resulting interval count lands at or under the target.
        let mut products: Vec<u64> = blended.iter().map(|(p, c)| p.len() as u64 * c).collect();
        products.sort_unstable();
        products.dedup();

        // Larger W -> fewer patterns -> fewer intervals (monotone). Each
        // step borrows its patterns and only counts their intervals: a set
        // built per step costs ~10^6 short-lived allocations per training,
        // and on a fragmented heap those dominate it.
        let kept = |w: u64| -> Vec<&[u8]> {
            let mut pats: Vec<&[u8]> = blended
                .iter()
                .filter(|(p, c)| p.len() as u64 * *c >= w)
                .map(|(p, _)| p.as_slice())
                .collect();
            pats.sort_unstable();
            drop_prefix_patterns(&mut pats);
            pats
        };

        // Find the smallest W (largest dictionary) with len <= target.
        let mut lo = 0usize; // index into products (descending W by index!)
        let mut hi = products.len(); // products[lo..] are candidate thresholds
        let mut best = *products.last().unwrap();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if IntervalSet::count_for(&kept(products[mid])) <= target_entries {
                best = products[mid];
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let pats: Vec<Vec<u8>> = kept(best).into_iter().map(<[u8]>::to_vec).collect();
        IntervalSet::from_patterns(&pats)
    }
}

/// Blending (§4.2): redistribute the count of every pattern that is a prefix
/// of another pattern onto its **longest** extension present in the list,
/// then remove the prefix pattern. Restores the prefix property the
/// interval-division step requires.
///
/// In lexicographic order, the extensions of `entries[i]` form a contiguous
/// run immediately following it, and runs nest; memoizing each run's end and
/// its longest member makes the whole pass near-linear instead of quadratic
/// (the all-substrings statistics of original ALM produce deep prefix
/// chains).
pub fn blend(counts: HashMap<Vec<u8>, u64>) -> Vec<(Vec<u8>, u64)> {
    let mut entries: Vec<(Vec<u8>, u64)> = counts.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let n = entries.len();
    // run_end[i]: first index > i whose pattern does not extend pattern i.
    // longest[i]: index of the longest pattern within {i} ∪ run(i).
    let mut run_end = vec![0usize; n];
    let mut longest = vec![0usize; n];
    for i in (0..n).rev() {
        let mut j = i + 1;
        let mut best = i;
        while j < n && entries[j].0.starts_with(&entries[i].0) {
            if entries[longest[j]].0.len() > entries[best].0.len() {
                best = longest[j];
            }
            j = run_end[j];
        }
        run_end[i] = j;
        longest[i] = best;
    }
    // Cascade counts onto the longest extension; the longest member of a
    // run is never itself extended within the run, so it survives.
    let mut removed = vec![false; n];
    for i in 0..n {
        let t = longest[i];
        if t != i {
            let c = entries[i].1;
            entries[t].1 += c;
            removed[i] = true;
        }
    }
    entries.into_iter().zip(removed).filter(|(_, r)| !r).map(|(e, _)| e).collect()
}

/// Remove any pattern that is a prefix of a later (sorted) pattern, keeping
/// the longest. In sorted order the element immediately after a prefix is
/// always one of its extensions, so an adjacent check suffices.
fn drop_prefix_patterns(pats: &mut Vec<&[u8]>) {
    let n = pats.len();
    let mut keep = vec![true; n];
    for i in 0..n.saturating_sub(1) {
        if pats[i + 1].starts_with(pats[i]) {
            keep[i] = false;
        }
    }
    let mut it = keep.iter();
    pats.retain(|_| *it.next().unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<u8>> {
        [
            "com.gmail@anna",
            "com.gmail@bob",
            "com.gmail@chris",
            "com.yahoo@dora",
            "com.yahoo@emma",
            "org.acm@frank",
            "org.acm@grace",
            "net.slashdot@hugo",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
    }

    #[test]
    fn blending_moves_count_to_longest_extension() {
        let mut counts = HashMap::new();
        counts.insert(b"sig".to_vec(), 10u64);
        counts.insert(b"sigmod".to_vec(), 4u64);
        counts.insert(b"sigmo".to_vec(), 2u64);
        let out = blend(counts);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b"sigmod");
        assert_eq!(out[0].1, 16);
    }

    #[test]
    fn blending_keeps_unrelated_patterns() {
        let mut counts = HashMap::new();
        counts.insert(b"abc".to_vec(), 3u64);
        counts.insert(b"xyz".to_vec(), 5u64);
        let out = blend(counts);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn improved_selector_produces_valid_intervals() {
        // Gap filling needs up to ~260 intervals at minimum, so target above
        // that; the builder returns the smallest achievable set otherwise.
        let set = AlmSelector::improved().select(&sample(), 512);
        set.validate().unwrap();
        assert!(set.len() <= 512, "len = {}", set.len());
        // The shared "com.gmail@" style prefixes should yield multi-byte
        // symbols somewhere.
        let max_sym = (0..set.len()).map(|i| set.symbol_len(i)).max().unwrap();
        assert!(max_sym >= 3, "expected long symbols, max {max_sym}");
    }

    #[test]
    fn original_selector_produces_valid_intervals() {
        let set = AlmSelector::original().select(&sample(), 512);
        set.validate().unwrap();
        assert!(set.len() <= 512);
    }

    #[test]
    fn larger_target_gives_no_smaller_dictionary() {
        let s = sample();
        let small = AlmSelector::improved().select(&s, 32);
        let large = AlmSelector::improved().select(&s, 512);
        assert!(small.len() <= large.len());
    }

    #[test]
    fn empty_sample_degenerates() {
        let set = AlmSelector::improved().select(&[], 64);
        set.validate().unwrap();
        assert_eq!(set.len(), 256);
    }

    #[test]
    fn drop_prefix_patterns_keeps_longest() {
        let mut pats: Vec<&[u8]> = vec![b"a", b"ab", b"abc", b"b"];
        drop_prefix_patterns(&mut pats);
        assert_eq!(pats, vec![&b"abc"[..], b"b"]);
    }
}

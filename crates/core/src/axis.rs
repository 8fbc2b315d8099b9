//! The string axis model (§3.1): complete, order-preserving interval
//! dictionaries over the space of byte strings.
//!
//! A dictionary divides the axis of all byte strings into consecutive
//! intervals `[b_i, b_{i+1})`. Every interval has a *symbol*: a non-empty
//! common prefix of all (non-empty) strings in the interval. Encoding looks
//! up the remaining source suffix, emits the interval's code, and consumes
//! `symbol.len()` bytes; completeness guarantees progress on every step.
//!
//! This module owns the interval arithmetic: longest-common-prefix, prefix
//! successor (`next_prefix`), the max-common-prefix of an interval (`mcp`),
//! and gap filling between selected patterns so that the union of intervals
//! covers the whole axis while every symbol stays non-empty.

/// Longest common prefix length of two byte strings.
#[inline]
pub fn lcp_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Shortest separator `s` with `left < s <= right` — one byte past the
/// common prefix of a split point's neighbours (the suffix truncation of
/// a Prefix B+tree, the discriminative bytes of a HOT node).
pub fn shortest_separator(left: &[u8], right: &[u8]) -> Vec<u8> {
    debug_assert!(left < right);
    let m = lcp_len(left, right);
    // `right[..m+1]` is > left (differs at m, or left ends at m) and a
    // prefix of right, hence <= right.
    right[..(m + 1).min(right.len())].to_vec()
}

/// The exclusive upper bound of the set of strings prefixed by `p`:
/// increment the last byte, dropping trailing `0xff` bytes first.
/// Returns `None` when `p` is all `0xff` (the prefix region extends to the
/// end of the axis).
pub fn next_prefix(p: &[u8]) -> Option<Vec<u8>> {
    let mut v = p.to_vec();
    while let Some(&last) = v.last() {
        if last == 0xff {
            v.pop();
        } else {
            *v.last_mut().unwrap() += 1;
            return Some(v);
        }
    }
    None
}

/// Length of the max-length common prefix (mcp) of the interval `[x, y)`
/// (`y = None` means the end of the axis). The mcp is always a prefix of
/// `x`; the returned length may be 0, in which case the interval spans
/// multiple leading bytes and must be split by the caller.
///
/// `x` must be non-empty and lexicographically below `y`.
pub fn mcp_len(x: &[u8], y: Option<&[u8]>) -> usize {
    debug_assert!(!x.is_empty());
    match y {
        None => {
            // [x, inf): members share x's leading run of 0xff bytes.
            x.iter().take_while(|&&b| b == 0xff).count()
        }
        Some(y) => {
            debug_assert!(x < y, "empty interval [{x:?}, {y:?})");
            if y.starts_with(x) {
                // x is a proper prefix of y: every member starts with x.
                return x.len();
            }
            let mut yd = y.to_vec();
            while yd.last() == Some(&0) {
                yd.pop();
            }
            if yd.is_empty() {
                // y is all zero bytes; x < y means x is a shorter run of
                // zero bytes, and every member starts with x.
                return x.len();
            }
            if yd.len() < y.len() {
                // y had trailing zero bytes: its immediate predecessor is
                // exactly the stripped string, which is the interval's
                // largest member — the mcp is its lcp with x.
                return lcp_len(x, &yd);
            }
            // Otherwise the largest strings below y look like
            // dec(y) ++ 0xff...: compare x against that.
            *yd.last_mut().unwrap() -= 1;
            let k = lcp_len(x, &yd);
            if k == yd.len() {
                // dec(y) is a prefix of x; the virtual 0xff tail keeps
                // matching any 0xff run in x.
                k + x[k..].iter().take_while(|&&b| b == 0xff).count()
            } else {
                k
            }
        }
    }
}

/// The one walk behind [`IntervalSet::from_patterns`]: hand `push` every
/// interval `(left boundary, symbol length)` of the division of the axis by
/// `patterns` (sorted, prefix-free), in order — each pattern's own
/// interval, and the gap intervals before, between and after them.
fn divide<P: AsRef<[u8]>>(patterns: &[P], push: &mut impl FnMut(&[u8], usize)) {
    let mut pos: Option<Vec<u8>> = Some(vec![0x00]);
    for p in patterns {
        let p = p.as_ref();
        debug_assert!(!p.is_empty(), "empty pattern");
        let Some(cur) = pos.as_deref() else {
            debug_assert!(false, "pattern {p:?} after axis end");
            break;
        };
        debug_assert!(cur <= p, "patterns unsorted or overlapping at {p:?}");
        if cur < p {
            fill_gap(cur, Some(p), push);
        }
        push(p, p.len());
        pos = next_prefix(p);
    }
    if let Some(cur) = pos {
        fill_gap(&cur, None, push);
    }
}

/// Hand `push` the intervals covering `[x, y)` (`y = None` = axis end),
/// split at leading-byte boundaries so every symbol is non-empty.
fn fill_gap(x: &[u8], y: Option<&[u8]>, push: &mut impl FnMut(&[u8], usize)) {
    debug_assert!(!x.is_empty());
    let m = mcp_len(x, y);
    if m > 0 {
        push(x, m);
        return;
    }
    // The gap spans multiple leading bytes: [x, b0+1) has mcp >= 1 byte,
    // then one single-byte interval per intermediate leading byte, then
    // [[y0], y) if y extends past its own leading byte.
    let b0 = x[0];
    debug_assert!(b0 < 0xff, "mcp of an 0xff-leading gap is non-empty");
    let m2 = mcp_len(x, Some(&[b0 + 1]));
    debug_assert!(m2 > 0);
    push(x, m2);
    let y0 = y.map(|y| y[0] as u16).unwrap_or(0x100);
    for v in (b0 as u16 + 1)..y0 {
        push(&[v as u8], 1);
    }
    if let Some(y) = y {
        if y.len() > 1 {
            push(&[y[0]], 1);
        }
    }
}

/// A complete, ordered division of the string axis into intervals, each with
/// a non-empty symbol (stored as a prefix length of the left boundary).
///
/// The boundaries lie back to back in one byte buffer, boundary `i` ending
/// at `ends[i]` and starting where boundary `i - 1` ends: one allocation
/// for a Double-Char set's 65 792 intervals rather than one per interval.
///
/// Invariants (checked by [`IntervalSet::validate`]):
/// * boundaries strictly ascending; `boundaries[0] == [0x00]` so every
///   non-empty string has a floor interval,
/// * `1 <= symbol_len[i] <= boundaries[i].len()`,
/// * `boundaries[i][..symbol_len[i]]` is a common prefix of every non-empty
///   string in `[b_i, b_{i+1})`.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    symbol_lens: Vec<u16>,
}

impl IntervalSet {
    /// Build a complete interval set from selected patterns.
    ///
    /// `patterns` must be sorted, deduplicated, non-empty strings, and no
    /// pattern may be a prefix of another (the selectors guarantee this;
    /// debug-asserted here). Gaps between pattern intervals are filled with
    /// intervals whose symbols are the gap's max common prefix, split at
    /// leading-byte boundaries when necessary.
    pub fn from_patterns(patterns: &[Vec<u8>]) -> Self {
        let mut set = IntervalSet::default();
        divide(patterns, &mut |boundary, symbol_len| set.push(boundary, symbol_len));
        set
    }

    /// The number of intervals [`IntervalSet::from_patterns`] makes of
    /// `patterns`, without building them: the ALM selector's threshold
    /// search asks this at every step and builds only the set it keeps.
    pub(crate) fn count_for<P: AsRef<[u8]>>(patterns: &[P]) -> usize {
        let mut n = 0;
        divide(patterns, &mut |_, _| n += 1);
        n
    }

    /// An empty set with room for `intervals` intervals of `bytes`
    /// boundary bytes in all.
    pub(crate) fn with_capacity(intervals: usize, bytes: usize) -> Self {
        IntervalSet {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(intervals),
            symbol_lens: Vec::with_capacity(intervals),
        }
    }

    /// Append the interval starting at `boundary`, above every boundary
    /// so far.
    pub(crate) fn push(&mut self, boundary: &[u8], symbol_len: usize) {
        debug_assert!(symbol_len >= 1 && symbol_len <= boundary.len());
        debug_assert!(
            self.is_empty() || self.boundary(self.len() - 1) < boundary,
            "boundaries must be strictly ascending"
        );
        self.push_boundary(boundary);
        self.symbol_lens.push(symbol_len as u16);
    }

    fn push_boundary(&mut self, boundary: &[u8]) {
        self.bytes.extend_from_slice(boundary);
        self.ends.push(u32::try_from(self.bytes.len()).expect("interval boundaries past 4 GiB"));
    }

    /// Construct directly from parallel boundary/symbol-length arrays
    /// (used by the fixed-interval selectors where the layout is implied).
    pub fn from_parts(boundaries: Vec<Box<[u8]>>, symbol_lens: Vec<u16>) -> Self {
        assert_eq!(boundaries.len(), symbol_lens.len());
        let bytes = boundaries.iter().map(|b| b.len()).sum();
        let mut set = IntervalSet::with_capacity(boundaries.len(), bytes);
        for b in &boundaries {
            set.push_boundary(b);
        }
        set.symbol_lens = symbol_lens;
        set
    }

    /// Number of intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the set holds no intervals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Left boundary of interval `i`.
    #[inline]
    pub fn boundary(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Symbol (common prefix) of interval `i`.
    #[inline]
    pub fn symbol(&self, i: usize) -> &[u8] {
        &self.boundary(i)[..self.symbol_lens[i] as usize]
    }

    /// Symbol length of interval `i` in bytes.
    #[inline]
    pub fn symbol_len(&self, i: usize) -> usize {
        self.symbol_lens[i] as usize
    }

    /// Index of the interval containing `s` (floor lookup by binary
    /// search). `s` must be non-empty and `>= boundaries[0]`.
    #[inline]
    pub fn floor_index(&self, s: &[u8]) -> usize {
        debug_assert!(!s.is_empty());
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.boundary(mid) <= s {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert!(lo > 0, "string below the first boundary");
        lo - 1
    }

    /// Iterate over `(boundary, symbol_len)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], usize)> + '_ {
        (0..self.len()).map(|i| (self.boundary(i), self.symbol_len(i)))
    }

    /// Check all structural invariants; returns a description of the first
    /// violation. Intended for tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("empty interval set".into());
        }
        if self.boundary(0) != [0x00] && !self.boundary(0).is_empty() {
            return Err(format!(
                "first boundary {:?} does not cover the axis start",
                self.boundary(0)
            ));
        }
        for i in 0..self.len() {
            let sl = self.symbol_lens[i] as usize;
            if sl == 0 || sl > self.boundary(i).len() {
                return Err(format!("interval {i}: bad symbol length {sl}"));
            }
            if i + 1 < self.len() && self.boundary(i) >= self.boundary(i + 1) {
                return Err(format!("interval {i}: boundaries not ascending"));
            }
            // The symbol must be the common prefix of the whole interval:
            // check that the region of strings prefixed by the symbol
            // contains the interval.
            let sym = self.symbol(i);
            if !self.boundary(i).starts_with(sym) {
                return Err(format!("interval {i}: symbol not a prefix of boundary"));
            }
            if let Some(end) = next_prefix(sym) {
                if i + 1 < self.len() {
                    if self.boundary(i + 1) > end.as_slice() {
                        return Err(format!(
                            "interval {i}: symbol {sym:?} does not prefix the right end"
                        ));
                    }
                } else {
                    // The last interval extends to the axis end; only an
                    // all-0xff symbol (next_prefix == None) can cover it.
                    return Err(format!("last interval symbol {sym:?} cannot cover the axis tail"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lcp_basics() {
        assert_eq!(lcp_len(b"abc", b"abd"), 2);
        assert_eq!(lcp_len(b"", b"abc"), 0);
        assert_eq!(lcp_len(b"abc", b"abc"), 3);
        assert_eq!(lcp_len(b"abc", b"abcd"), 3);
    }

    #[test]
    fn shortest_separator_properties() {
        let cases: [(&[u8], &[u8]); 4] =
            [(b"abcdef", b"abd"), (b"a", b"b"), (b"abc", b"abcd"), (b"", b"x")];
        for (l, r) in cases {
            let s = shortest_separator(l, r);
            assert!(l < s.as_slice(), "{l:?} {r:?} -> {s:?}");
            assert!(s.as_slice() <= r, "{l:?} {r:?} -> {s:?}");
        }
    }

    #[test]
    fn next_prefix_simple_and_carry() {
        assert_eq!(next_prefix(b"abc").unwrap(), b"abd");
        assert_eq!(next_prefix(b"ab\xff").unwrap(), b"ac");
        assert_eq!(next_prefix(b"a\xff\xff").unwrap(), b"b");
        assert_eq!(next_prefix(b"\xff\xff"), None);
        assert_eq!(next_prefix(b"\x00").unwrap(), b"\x01");
    }

    #[test]
    fn mcp_prefix_case() {
        assert_eq!(mcp_len(b"a", Some(b"abc")), 1); // [a, abc): all start with "a"
        assert_eq!(mcp_len(b"ing", Some(b"inh")), 3); // [ing, inh): all start "ing"
    }

    #[test]
    fn mcp_sibling_case() {
        assert_eq!(mcp_len(b"inh", Some(b"ion")), 1); // lcp via "iom\xff..."
        assert_eq!(mcp_len(b"sinh", Some(b"sion")), 2); // "si"
    }

    #[test]
    fn mcp_carry_case() {
        // [az{, b): every member starts with 'a'.
        assert_eq!(mcp_len(b"az{", Some(b"b")), 1);
        // [a\xff, b): members start with "a\xff".
        assert_eq!(mcp_len(b"a\xff", Some(b"b")), 2);
    }

    #[test]
    fn mcp_cross_byte_gap_is_empty() {
        assert_eq!(mcp_len(b"az", Some(b"ca")), 0);
        assert_eq!(mcp_len(b"\x00", Some(b"aaa")), 0);
    }

    #[test]
    fn mcp_axis_end() {
        assert_eq!(mcp_len(b"q", None), 0);
        assert_eq!(mcp_len(b"\xffq", None), 1);
        assert_eq!(mcp_len(b"\xff\xff", None), 2);
    }

    #[test]
    fn mcp_all_zero_upper() {
        assert_eq!(mcp_len(b"\x00", Some(b"\x00\x00")), 1);
    }

    #[test]
    fn empty_pattern_set_gives_byte_identity() {
        let set = IntervalSet::from_patterns(&[]);
        assert_eq!(set.len(), 256);
        assert_eq!(IntervalSet::count_for::<Vec<u8>>(&[]), 256);
        set.validate().unwrap();
        for v in 0..=255u8 {
            assert_eq!(set.boundary(v as usize), &[v]);
            assert_eq!(set.symbol_len(v as usize), 1);
        }
    }

    #[test]
    fn paper_example_three_grams() {
        // Figure 4d: patterns "ing" and "ion" produce gap intervals with
        // symbols "i" (between) among others.
        let pats = vec![b"ing".to_vec(), b"ion".to_vec()];
        let set = IntervalSet::from_patterns(&pats);
        set.validate().unwrap();
        // find interval [inh, ion): symbol must be "i"
        let i = set.floor_index(b"inz");
        assert_eq!(set.boundary(i), b"inh");
        assert_eq!(set.symbol(i), b"i");
        // the pattern intervals exist with full symbols
        let i = set.floor_index(b"ingest");
        assert_eq!(set.boundary(i), b"ing");
        assert_eq!(set.symbol(i), b"ing");
        let i = set.floor_index(b"ion");
        assert_eq!(set.symbol(i), b"ion");
        // after [ion, ioo): gap with symbol "i" then single bytes
        let i = set.floor_index(b"iz");
        assert_eq!(set.symbol(i), b"i");
        let i = set.floor_index(b"zebra");
        assert_eq!(set.symbol(i), b"z");
    }

    #[test]
    fn adjacent_patterns_no_gap() {
        let pats = vec![b"abc".to_vec(), b"abd".to_vec()];
        let set = IntervalSet::from_patterns(&pats);
        set.validate().unwrap();
        let i = set.floor_index(b"abcz");
        assert_eq!(set.boundary(i), b"abc");
        assert_eq!(set.boundary(i + 1), b"abd");
    }

    #[test]
    fn pattern_with_ff_tail() {
        let pats = vec![b"a\xff\xff".to_vec()];
        let set = IntervalSet::from_patterns(&pats);
        set.validate().unwrap();
        // next_prefix carries to "b"
        let i = set.floor_index(b"a\xff\xff\x33");
        assert_eq!(set.symbol(i), b"a\xff\xff");
        let i = set.floor_index(b"baz");
        assert_eq!(set.symbol(i), b"b");
    }

    #[test]
    fn floor_of_every_nonempty_string_has_prefix_symbol() {
        let pats = vec![b"com".to_vec(), b"net".to_vec(), b"org".to_vec()];
        let set = IntervalSet::from_patterns(&pats);
        set.validate().unwrap();
        for probe in [
            b"\x00".as_slice(),
            b"a",
            b"com",
            b"communication",
            b"con",
            b"cz",
            b"m",
            b"nets",
            b"organic",
            b"p",
            b"\xff\xff\xff",
        ] {
            let i = set.floor_index(probe);
            let sym = set.symbol(i);
            assert!(probe.starts_with(sym), "probe {probe:?} in interval {i} with symbol {sym:?}");
        }
    }

    proptest! {
        /// Core completeness property: for arbitrary pattern sets (same
        /// length, like n-grams), every non-empty probe string lands in an
        /// interval whose symbol prefixes it.
        #[test]
        fn interval_symbols_prefix_members(
            mut pats in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 3), 0..40),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..8), 1..50),
        ) {
            let pats: Vec<Vec<u8>> = std::mem::take(&mut pats).into_iter().collect();
            let set = IntervalSet::from_patterns(&pats);
            prop_assert!(set.validate().is_ok());
            prop_assert_eq!(IntervalSet::count_for(&pats), set.len());
            for probe in &probes {
                let i = set.floor_index(probe);
                let sym = set.symbol(i);
                prop_assert!(probe.starts_with(sym),
                    "probe {:?} interval {} symbol {:?}", probe, i, sym);
                // floor is correct
                prop_assert!(set.boundary(i) <= probe.as_slice());
                if i + 1 < set.len() {
                    prop_assert!(probe.as_slice() < set.boundary(i + 1));
                }
            }
        }

        /// Variable-length patterns (ALM-like), prefix-free by construction.
        #[test]
        fn variable_length_patterns_cover_axis(
            raw in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 1..6), 0..30),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..10), 1..50),
        ) {
            // drop patterns that are prefixes of other patterns
            let all: Vec<Vec<u8>> = raw.iter().cloned().collect();
            let pats: Vec<Vec<u8>> = all
                .iter()
                .filter(|p| !all.iter().any(|q| q.as_slice() != p.as_slice() && q.starts_with(p)))
                .cloned()
                .collect();
            let set = IntervalSet::from_patterns(&pats);
            prop_assert!(set.validate().is_ok(), "{:?}", set.validate());
            prop_assert_eq!(IntervalSet::count_for(&pats), set.len());
            for probe in &probes {
                let i = set.floor_index(probe);
                prop_assert!(probe.starts_with(set.symbol(i)));
            }
        }
    }
}

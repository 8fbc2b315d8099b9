//! Bitmap-trie dictionary for the 3-Grams / 4-Grams schemes (§4.2,
//! Figure 6).
//!
//! Nodes live in a breadth-first array. Each node holds a 256-bit bitmap of
//! its branches plus base offsets; child addressing uses POPCNT over the
//! bitmap. Interval boundaries shorter than the gram length terminate early
//! (the paper's terminator character ∅), recorded by a per-node flag.
//!
//! A lookup is a *floor* search: walk down matching the source bytes,
//! remembering the best smaller boundary seen (terminator slots and the
//! rightmost leaf of any smaller sibling subtree) as a last resort for when
//! the walk falls off the trie.
//!
//! The trie also owns a private accelerator, the prefix automaton
//! (`dict/automaton.rs`): the same floor search flattened into a dense
//! transition table, which answers every lookup it has a row for. The trie
//! walk resolves the automaton's fallback edges and is the reference the
//! table is tested against.

use super::automaton::{Automaton, AUTOMATON_STATE_BUDGET};
use super::payload::Payloads;
use super::DictLookup;
use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// One trie node: 256-bit branch bitmap + subtree bookkeeping.
#[derive(Debug, Clone)]
struct Node {
    bitmap: [u64; 4],
    /// Node index of the first child (children are consecutive in BFS
    /// order); meaningless at the deepest level, where branches are leaves.
    child_base: u32,
    /// First and one-past-last interval index in this node's subtree.
    leaf_base: u32,
    leaf_end: u32,
    /// True if a boundary ends exactly at this node (terminator ∅); that
    /// boundary is interval `leaf_base`.
    term: bool,
}

impl Node {
    fn empty() -> Self {
        Node { bitmap: [0; 4], child_base: 0, leaf_base: 0, leaf_end: 0, term: false }
    }

    #[inline]
    fn has(&self, label: u8) -> bool {
        self.bitmap[(label >> 6) as usize] >> (label & 63) & 1 == 1
    }

    #[inline]
    fn set(&mut self, label: u8) {
        self.bitmap[(label >> 6) as usize] |= 1 << (label & 63);
    }

    /// Number of set bits strictly below `label`.
    #[inline]
    fn rank(&self, label: u8) -> u32 {
        let word = (label >> 6) as usize;
        let mut r = 0;
        for w in &self.bitmap[..word] {
            r += w.count_ones();
        }
        let bit = label & 63;
        if bit > 0 {
            r += (self.bitmap[word] & ((1u64 << bit) - 1)).count_ones();
        }
        r
    }

    /// Largest set label strictly below `label`, if any.
    #[inline]
    fn prev_set(&self, label: u8) -> Option<u8> {
        let word = (label >> 6) as usize;
        let bit = label & 63;
        let masked = if bit == 0 { 0 } else { self.bitmap[word] & ((1u64 << bit) - 1) };
        if masked != 0 {
            return Some(((word as u32) * 64 + 63 - masked.leading_zeros()) as u8);
        }
        for w in (0..word).rev() {
            if self.bitmap[w] != 0 {
                return Some(((w as u32) * 64 + 63 - self.bitmap[w].leading_zeros()) as u8);
            }
        }
        None
    }
}

/// The bitmap-trie dictionary (Figure 6).
#[derive(Debug)]
pub struct BitmapTrieDict {
    nodes: Vec<Node>,
    /// Per-node first-child offsets are implicit in `child_base`; leaves are
    /// the interval indices themselves, one payload word each.
    payloads: Payloads,
    /// Gram length (trie depth): 3 or 4 in the paper, any >= 1 here.
    depth: usize,
    /// The floor search flattened into a transition table.
    automaton: Automaton,
}

impl BitmapTrieDict {
    /// Build from an interval set (all boundaries at most `N` bytes, as the
    /// n-gram selectors produce) and its assigned codes.
    pub fn build(set: &IntervalSet, codes: &[Code]) -> Self {
        Self::build_with_state_budget(set, codes, AUTOMATON_STATE_BUDGET)
    }

    /// [`BitmapTrieDict::build`] with the automaton capped at `max_states`
    /// rows instead of the default budget. Test entry point: a tiny budget
    /// forces lookups through the fallback edges and the trie walk.
    #[doc(hidden)]
    pub fn build_with_state_budget(set: &IntervalSet, codes: &[Code], max_states: usize) -> Self {
        assert_eq!(set.len(), codes.len());
        let depth = (0..set.len()).map(|i| set.boundary(i).len()).max().unwrap_or(1);
        let mut dict = BitmapTrieDict {
            nodes: Vec::new(),
            payloads: Payloads::new(set, codes),
            depth,
            automaton: Automaton::build(set, codes, max_states),
        };

        // BFS construction: a work item is a contiguous boundary range
        // sharing its first `d` bytes.
        use std::collections::VecDeque;
        let mut queue: VecDeque<(usize, usize, usize)> = VecDeque::new(); // (lo, hi, d)
        queue.push_back((0, set.len(), 0));
        let mut next_node_id: usize = 1;
        while let Some((lo, hi, d)) = queue.pop_front() {
            let mut node = Node::empty();
            node.leaf_base = lo as u32;
            node.leaf_end = hi as u32;
            node.term = set.boundary(lo).len() == d;
            let start = lo + node.term as usize;
            // Group the remaining boundaries by their byte at position d.
            let mut i = start;
            let mut first_child = true;
            while i < hi {
                let label = set.boundary(i)[d];
                let mut j = i + 1;
                while j < hi && set.boundary(j)[d] == label {
                    j += 1;
                }
                node.set(label);
                if d + 1 == depth {
                    // Deepest level: branches are leaves (full-length
                    // boundaries); uniqueness follows from strict sorting.
                    debug_assert_eq!(j - i, 1, "duplicate full-length boundary");
                    debug_assert_eq!(set.boundary(i).len(), depth);
                } else {
                    if first_child {
                        node.child_base = next_node_id as u32;
                        first_child = false;
                    }
                    next_node_id += 1;
                    queue.push_back((i, j, d + 1));
                }
                i = j;
            }
            dict.nodes.push(node);
        }
        debug_assert_eq!(dict.nodes.len(), next_node_id);
        dict.nodes.shrink_to_fit();
        dict
    }

    /// Index of the child node reached via `label` from `node`.
    #[inline]
    fn child(&self, node: &Node, label: u8) -> usize {
        node.child_base as usize + node.rank(label) as usize
    }

    /// Interval index of the leaf reached via `label` at the deepest level.
    #[inline]
    fn leaf_at(&self, node: &Node, label: u8) -> usize {
        node.leaf_base as usize + node.term as usize + node.rank(label) as usize
    }

    /// Rightmost interval index in the subtree hanging off `label`.
    #[inline]
    fn branch_max(&self, node: &Node, label: u8, d: usize) -> usize {
        if d + 1 == self.depth {
            self.leaf_at(node, label)
        } else {
            self.nodes[self.child(node, label)].leaf_end as usize - 1
        }
    }

    #[inline]
    fn payload(&self, i: usize) -> (Code, usize) {
        self.payloads.get(i)
    }

    /// The trie floor walk: answers the automaton's fallback edges, and is
    /// the reference the table is tested against.
    fn walk(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        let mut last_resort = usize::MAX;
        let mut node = &self.nodes[0];
        let mut d = 0usize;
        loop {
            if d >= src.len() {
                // Source exhausted: exact boundary iff terminator.
                let i = if node.term { node.leaf_base as usize } else { last_resort };
                debug_assert_ne!(i, usize::MAX, "no floor boundary for {src:?}");
                return self.payload(i);
            }
            let c = src[d];
            if node.term {
                last_resort = node.leaf_base as usize;
            }
            if let Some(below) = node.prev_set(c) {
                last_resort = self.branch_max(node, below, d);
            }
            if node.has(c) {
                if d + 1 == self.depth {
                    return self.payload(self.leaf_at(node, c));
                }
                node = &self.nodes[self.child(node, c)];
                d += 1;
            } else {
                debug_assert_ne!(last_resort, usize::MAX, "no floor boundary for {src:?}");
                return self.payload(last_resort);
            }
        }
    }

    /// In-order `(symbol, code)` enumeration: one DFS, the path to a
    /// terminator slot or leaf being that interval's boundary.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        self.visit(0, &mut Vec::with_capacity(self.depth), f);
    }

    fn visit(&self, n: usize, path: &mut Vec<u8>, f: &mut dyn FnMut(&[u8], Code)) {
        let node = &self.nodes[n];
        let entry = |i: usize, boundary: &[u8], f: &mut dyn FnMut(&[u8], Code)| {
            let (code, sym_len) = self.payload(i);
            f(&boundary[..sym_len], code);
        };
        if node.term {
            entry(node.leaf_base as usize, path, f);
        }
        for label in (0..=u8::MAX).filter(|&l| node.has(l)) {
            path.push(label);
            if path.len() == self.depth {
                entry(self.leaf_at(node, label), path, f);
            } else {
                self.visit(self.child(node, label), path, f);
            }
            path.pop();
        }
    }

    /// `(states, fallback edges)` of the automaton.
    #[cfg(test)]
    pub(crate) fn automaton_stats(&self) -> (usize, usize) {
        self.automaton.stats()
    }

    /// Times an automaton fallback edge was taken — a symbol resolved by
    /// the trie walk instead of the table — since construction.
    pub(crate) fn automaton_fallback_takes(&self) -> u64 {
        self.automaton.fallback_takes()
    }

    /// Trie depth (gram length).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of trie nodes (for memory analysis).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl DictLookup for BitmapTrieDict {
    #[inline]
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        self.automaton.step(src).unwrap_or_else(|| self.walk(src))
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.payloads.memory_bytes()
            + self.automaton.memory_bytes()
    }

    fn num_entries(&self) -> usize {
        self.payloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code_assign::CodeAssigner;
    use crate::dict::sorted_dict::SortedDict;
    use crate::hu_tucker::fixed_len_codes;
    use crate::selector::{self, Scheme};
    use proptest::prelude::*;

    fn build_pair(patterns: &[&[u8]]) -> (BitmapTrieDict, SortedDict) {
        let pats: Vec<Vec<u8>> = patterns.iter().map(|p| p.to_vec()).collect();
        let set = IntervalSet::from_patterns(&pats);
        let codes = fixed_len_codes(set.len());
        (BitmapTrieDict::build(&set, &codes), SortedDict::build(&set, &codes))
    }

    #[test]
    fn basic_three_gram_lookups() {
        let (trie, base) = build_pair(&[b"ing", b"ion"]);
        for probe in [
            b"ingest".as_slice(),
            b"inz",
            b"ion",
            b"io",
            b"i",
            b"a",
            b"zzz",
            b"\x00",
            b"\xff\xff\xff\xff",
        ] {
            assert_eq!(trie.walk(probe), base.lookup(probe), "walk {probe:?}");
            assert_eq!(trie.lookup(probe), base.lookup(probe), "lookup {probe:?}");
        }
    }

    #[test]
    fn exhausted_source_hits_terminator() {
        let (trie, base) = build_pair(&[b"abc"]);
        // probe "ab": shorter than any pattern; must hit the [a, abc) gap
        // boundary ("a" with symbol "a").
        assert_eq!(trie.walk(b"ab"), base.lookup(b"ab"));
        assert_eq!(trie.lookup(b"ab"), base.lookup(b"ab"));
        let (_, consumed) = trie.lookup(b"ab");
        assert_eq!(consumed, 1);
    }

    #[test]
    fn node_bit_operations() {
        let mut n = Node::empty();
        n.set(0);
        n.set(63);
        n.set(64);
        n.set(255);
        assert!(n.has(0) && n.has(63) && n.has(64) && n.has(255));
        assert!(!n.has(100));
        assert_eq!(n.rank(0), 0);
        assert_eq!(n.rank(64), 2);
        assert_eq!(n.rank(255), 3);
        assert_eq!(n.prev_set(255), Some(64));
        assert_eq!(n.prev_set(64), Some(63));
        assert_eq!(n.prev_set(0), None);
        assert_eq!(n.prev_set(1), Some(0));
    }

    #[test]
    fn depth_matches_longest_boundary() {
        let (trie, _) = build_pair(&[b"abcd", b"abce"]);
        assert_eq!(trie.depth(), 4);
        let (trie, _) = build_pair(&[]);
        assert_eq!(trie.depth(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn trie_matches_binary_search(
            pats in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 3), 0..60),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..8), 1..60),
        ) {
            let pats: Vec<Vec<u8>> = pats.into_iter().collect();
            let set = IntervalSet::from_patterns(&pats);
            let codes = fixed_len_codes(set.len());
            let trie = BitmapTrieDict::build(&set, &codes);
            let base = SortedDict::build(&set, &codes);
            for p in &probes {
                prop_assert_eq!(trie.walk(p), base.lookup(p), "walk {:?}", p);
                prop_assert_eq!(trie.lookup(p), base.lookup(p), "lookup {:?}", p);
            }
        }
    }

    // ---- the automaton against the trie walk it flattens ----

    fn gram_parts(scheme: Scheme) -> (IntervalSet, Vec<Code>) {
        let sample: Vec<Vec<u8>> =
            (0..100).map(|i| format!("com.gmail@user{i:03}").into_bytes()).collect();
        let set = selector::select_intervals(scheme, &sample, 1024).unwrap();
        let codes = CodeAssigner::HuTucker.assign(&selector::access_weights(&set, &sample));
        (set, codes)
    }

    fn probes() -> [&'static [u8]; 6] {
        [
            b"",
            b"a",
            b"com.gmail@user042",
            b"odd",
            b"\x00\xff\x7f",
            b"completely unrelated key material \xfe\xfd",
        ]
    }

    /// `lookup` (automaton first) against the walk alone, symbol by symbol
    /// along each probe — which is the whole key loop.
    fn assert_matches_walk(trie: &BitmapTrieDict, what: &str) {
        for key in probes() {
            let mut rest = key;
            while !rest.is_empty() {
                let (code, n) = trie.walk(rest);
                assert_eq!(trie.lookup(rest), (code, n), "{what}: lookup({rest:?}) in {key:?}");
                rest = &rest[n..];
            }
        }
    }

    #[test]
    fn automaton_matches_the_trie_walk() {
        for scheme in [Scheme::ThreeGrams, Scheme::FourGrams] {
            let (set, codes) = gram_parts(scheme);
            let trie = BitmapTrieDict::build(&set, &codes);
            let (states, fallbacks) = trie.automaton_stats();
            assert!(states >= 1);
            assert_eq!(fallbacks, 0, "{scheme}: a 1K-entry dictionary tables fully");
            assert_matches_walk(&trie, &scheme.to_string());
            assert_eq!(trie.automaton_fallback_takes(), 0);
        }
    }

    #[test]
    fn tiny_state_budget_still_encodes_identically_via_fallback() {
        let (set, codes) = gram_parts(Scheme::ThreeGrams);
        // A budget of 0 still gets the root row.
        for budget in [0usize, 1, 2, 7] {
            let trie = BitmapTrieDict::build_with_state_budget(&set, &codes, budget);
            let (states, fallbacks) = trie.automaton_stats();
            assert!(states <= budget.max(1));
            assert!(fallbacks > 0, "a tiny budget must produce fallback edges");
            assert_eq!(trie.automaton_fallback_takes(), 0, "untouched table has no takes");
            assert_matches_walk(&trie, &format!("budget {budget}"));
            assert!(
                trie.automaton_fallback_takes() > 0,
                "budget {budget}: probes must have exercised a fallback edge"
            );
        }
    }

    #[test]
    fn memory_counts_the_automaton() {
        let (set, codes) = gram_parts(Scheme::FourGrams);
        let bare = BitmapTrieDict::build_with_state_budget(&set, &codes, 1);
        let full = BitmapTrieDict::build(&set, &codes);
        let (states, _) = full.automaton_stats();
        assert!(states > 1);
        // One 256-entry row plus one exhaust entry of 4 bytes per state.
        assert_eq!(full.memory_bytes() - bare.memory_bytes(), (states - 1) * 257 * 4);
    }

    /// The automaton's emit holds codes up to 23 bits and symbols up to 7
    /// bytes, the trie's payload word 22 bits and 31 bytes; one past each
    /// limit escapes, codes up to 64 bits. With its rows the automaton
    /// answers every such symbol itself, and with none the trie walk does;
    /// both look up, encode (whole and pulled) and list as the
    /// binary-search reference does.
    #[test]
    fn emits_and_payloads_past_the_word_escape() {
        use crate::dict::tests::{check_against_reference, codes_around, probes_for};
        use crate::dict::Dict;
        let pats: Vec<Vec<u8>> = [3, 6, 7, 8, 30, 31, 32, 33]
            .iter()
            .enumerate()
            .map(|(k, &n)| [&[b'a' + k as u8][..], &vec![b'x'; n - 1]].concat())
            .collect();
        let set = IntervalSet::from_patterns(&pats);
        let lens: Vec<usize> = (0..set.len()).map(|i| set.symbol_len(i)).collect();
        for l in [7, 8, 31, 32] {
            assert!(lens.contains(&l), "a {l}-byte symbol");
        }
        let codes = codes_around(&[22, 23], &set);
        for budget in [AUTOMATON_STATE_BUDGET, 0] {
            let trie = BitmapTrieDict::build_with_state_budget(&set, &codes, budget);
            assert!(trie.payloads.escaped() > 0);
            let dict = Dict::Bitmap(trie);
            let what = format!("bitmap trie, budget {budget}");
            check_against_reference(&what, &dict, &set, &codes, &probes_for(&set));
            let takes = dict.automaton_fallback_takes();
            assert_eq!(takes == 0, budget > 0, "{what}: {takes} symbols the trie walk answered");
        }
    }
}

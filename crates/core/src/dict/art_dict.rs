//! ART-based dictionary for the ALM / ALM-Improved schemes (§4.2).
//!
//! The paper modifies the Adaptive Radix Tree in three ways to make it a
//! HOPE dictionary, all reproduced here:
//!
//! 1. **prefix keys** — a boundary may end at an inner node (`abc` and
//!    `abcd` can both be boundaries), handled by a per-node terminator slot;
//! 2. **no optimistic common-prefix skipping** — nodes store their full
//!    compressed path, because there is no tuple to verify against;
//! 3. **leaves hold dictionary entries** — `(code, symbol length)` instead
//!    of tuple pointers.
//!
//! Like the other dictionary structures, the lookup is a floor search over
//! the interval boundaries, tracking a last-resort entry while descending.

use super::DictLookup;
use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// Adaptive node children, mirroring ART's Node4/16/48/256 layouts.
#[derive(Debug)]
enum Children {
    /// Up to 4 children: parallel label/pointer arrays, linear search.
    N4 { count: u8, labels: [u8; 4], ptrs: [u32; 4] },
    /// Up to 16 children: parallel arrays, linear (SIMD in the original).
    N16 { count: u8, labels: [u8; 16], ptrs: [u32; 16] },
    /// Up to 48 children: 256-entry index into a pointer array.
    N48 { index: Box<[u8; 256]>, ptrs: Box<[u32; 48]> },
    /// Full fan-out: direct pointer array.
    N256 { ptrs: Box<[u32; 256]> },
}

const NO_CHILD: u32 = u32::MAX;
const NO_SLOT: u8 = 0xFF;

impl Children {
    fn build(pairs: &[(u8, u32)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        match pairs.len() {
            0..=4 => {
                let mut labels = [0u8; 4];
                let mut ptrs = [NO_CHILD; 4];
                for (i, &(l, p)) in pairs.iter().enumerate() {
                    labels[i] = l;
                    ptrs[i] = p;
                }
                Children::N4 { count: pairs.len() as u8, labels, ptrs }
            }
            5..=16 => {
                let mut labels = [0u8; 16];
                let mut ptrs = [NO_CHILD; 16];
                for (i, &(l, p)) in pairs.iter().enumerate() {
                    labels[i] = l;
                    ptrs[i] = p;
                }
                Children::N16 { count: pairs.len() as u8, labels, ptrs }
            }
            17..=48 => {
                let mut index = Box::new([NO_SLOT; 256]);
                let mut ptrs = Box::new([NO_CHILD; 48]);
                for (i, &(l, p)) in pairs.iter().enumerate() {
                    index[l as usize] = i as u8;
                    ptrs[i] = p;
                }
                Children::N48 { index, ptrs }
            }
            _ => {
                let mut ptrs = Box::new([NO_CHILD; 256]);
                for &(l, p) in pairs {
                    ptrs[l as usize] = p;
                }
                Children::N256 { ptrs }
            }
        }
    }

    /// Child pointer for `label`, if present.
    #[inline]
    fn get(&self, label: u8) -> Option<u32> {
        match self {
            Children::N4 { count, labels, ptrs } => {
                labels[..*count as usize].iter().position(|&l| l == label).map(|i| ptrs[i])
            }
            Children::N16 { count, labels, ptrs } => {
                labels[..*count as usize].iter().position(|&l| l == label).map(|i| ptrs[i])
            }
            Children::N48 { index, ptrs } => {
                let slot = index[label as usize];
                (slot != NO_SLOT).then(|| ptrs[slot as usize])
            }
            Children::N256 { ptrs } => {
                let p = ptrs[label as usize];
                (p != NO_CHILD).then_some(p)
            }
        }
    }

    /// Child with the largest label strictly below `label`, if any.
    #[inline]
    fn prev_below(&self, label: u8) -> Option<u32> {
        match self {
            Children::N4 { count, labels, ptrs } => {
                prev_in_sorted(&labels[..*count as usize], ptrs, label)
            }
            Children::N16 { count, labels, ptrs } => {
                prev_in_sorted(&labels[..*count as usize], ptrs, label)
            }
            Children::N48 { index, ptrs } => (0..label)
                .rev()
                .find(|&l| index[l as usize] != NO_SLOT)
                .map(|l| ptrs[index[l as usize] as usize]),
            Children::N256 { ptrs } => {
                (0..label).rev().map(|l| ptrs[l as usize]).find(|&p| p != NO_CHILD)
            }
        }
    }

    /// Visit `(label, child)` in ascending label order.
    fn for_each(&self, mut f: impl FnMut(u8, u32)) {
        match self {
            Children::N4 { count, labels, ptrs } => {
                labels[..*count as usize].iter().zip(ptrs).for_each(|(&l, &p)| f(l, p))
            }
            Children::N16 { count, labels, ptrs } => {
                labels[..*count as usize].iter().zip(ptrs).for_each(|(&l, &p)| f(l, p))
            }
            Children::N48 { .. } | Children::N256 { .. } => {
                for l in 0..=u8::MAX {
                    if let Some(p) = self.get(l) {
                        f(l, p);
                    }
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Children::N4 { .. } | Children::N16 { .. } => 0, // inline in node
            Children::N48 { .. } => 256 + 48 * 4,
            Children::N256 { .. } => 256 * 4,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Children::N4 { .. } => "Node4",
            Children::N16 { .. } => "Node16",
            Children::N48 { .. } => "Node48",
            Children::N256 { .. } => "Node256",
        }
    }
}

#[inline]
fn prev_in_sorted(labels: &[u8], ptrs: &[u32], label: u8) -> Option<u32> {
    let idx = labels.partition_point(|&l| l < label);
    (idx > 0).then(|| ptrs[idx - 1])
}

/// Inner node: full compressed path + optional terminator + children.
#[derive(Debug)]
struct ArtNode {
    /// Full path bytes below the parent's branch label (modification 2:
    /// never truncated).
    prefix: Box<[u8]>,
    /// Interval index of a boundary ending exactly at this node
    /// (modification 1: prefix-key support).
    term: Option<u32>,
    children: Children,
    /// Largest interval index in this subtree (floor fallback target).
    leaf_max: u32,
}

/// The ART-based dictionary.
#[derive(Debug)]
pub struct ArtDict {
    nodes: Vec<ArtNode>,
    code_bits: Vec<u64>,
    code_len: Vec<u8>,
    sym_len: Vec<u16>,
}

impl ArtDict {
    /// Build from an interval set and its assigned codes.
    pub fn build(set: &IntervalSet, codes: &[Code]) -> Self {
        assert_eq!(set.len(), codes.len());
        let mut dict = ArtDict {
            nodes: Vec::new(),
            code_bits: codes.iter().map(|c| c.bits).collect(),
            code_len: codes.iter().map(|c| c.len).collect(),
            sym_len: (0..set.len()).map(|i| set.symbol_len(i) as u16).collect(),
        };
        dict.build_node(set, 0, set.len(), 0);
        dict.nodes.shrink_to_fit();
        dict
    }

    /// In-order `(symbol, code)` enumeration: one DFS, the path to a
    /// node's terminator slot being that interval's boundary.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        self.visit(0, &mut Vec::new(), f);
    }

    fn visit(&self, n: u32, path: &mut Vec<u8>, f: &mut dyn FnMut(&[u8], Code)) {
        let node = &self.nodes[n as usize];
        let mark = path.len();
        path.extend_from_slice(&node.prefix);
        if let Some(t) = node.term {
            let (code, sym_len) = self.payload(t as usize);
            f(&path[..sym_len], code);
        }
        node.children.for_each(|label, child| {
            path.push(label);
            self.visit(child, path, f);
            path.pop();
        });
        path.truncate(mark);
    }

    /// Recursively build the subtree for boundaries[lo..hi], which share
    /// their first `depth` bytes. Returns the node index.
    fn build_node(&mut self, set: &IntervalSet, lo: usize, hi: usize, depth: usize) -> u32 {
        debug_assert!(lo < hi);
        // Common path below `depth`: the lcp of the first and last boundary,
        // clipped to the shortest boundary in range (which, sorted, is the
        // first one whenever it ends inside the common path).
        let first = set.boundary(lo);
        let last = set.boundary(hi - 1);
        let mut ext = crate::axis::lcp_len(&first[depth..], &last[depth..]);
        ext = ext.min(first.len() - depth);
        let prefix: Box<[u8]> = first[depth..depth + ext].into();
        let d2 = depth + ext;

        let term = (first.len() == d2).then_some(lo as u32);
        let start = lo + term.is_some() as usize;

        let id = self.nodes.len();
        // Reserve the slot so children get higher indices (parents first).
        self.nodes.push(ArtNode {
            prefix,
            term,
            children: Children::build(&[]),
            leaf_max: (hi - 1) as u32,
        });

        let mut pairs: Vec<(u8, u32)> = Vec::new();
        let mut i = start;
        while i < hi {
            let label = set.boundary(i)[d2];
            let mut j = i + 1;
            while j < hi && set.boundary(j)[d2] == label {
                j += 1;
            }
            let child = self.build_node(set, i, j, d2 + 1);
            pairs.push((label, child));
            i = j;
        }
        self.nodes[id].children = Children::build(&pairs);
        id as u32
    }

    #[inline]
    fn payload(&self, i: usize) -> (Code, usize) {
        (Code { bits: self.code_bits[i], len: self.code_len[i] }, self.sym_len[i] as usize)
    }

    /// Number of tree nodes (for memory analysis / tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Count of nodes per adaptive kind, for diagnostics.
    pub fn node_kind_histogram(&self) -> [(String, usize); 4] {
        let mut h = std::collections::HashMap::new();
        for n in &self.nodes {
            *h.entry(n.children.kind_name()).or_insert(0usize) += 1;
        }
        ["Node4", "Node16", "Node48", "Node256"]
            .map(|k| (k.to_string(), h.get(k).copied().unwrap_or(0)))
    }
}

impl DictLookup for ArtDict {
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        let mut last_resort = usize::MAX;
        let mut node = &self.nodes[0];
        let mut pos = 0usize;
        loop {
            // Match the compressed path.
            let pfx = &node.prefix;
            let avail = src.len() - pos;
            let m = crate::axis::lcp_len(pfx, &src[pos..]);
            if m < pfx.len() {
                let result = if m == avail {
                    // Source exhausted inside the path: src < every
                    // boundary in this subtree.
                    last_resort
                } else if src[pos + m] > pfx[m] {
                    // Source above the whole subtree.
                    node.leaf_max as usize
                } else {
                    last_resort
                };
                debug_assert_ne!(result, usize::MAX, "no floor for {src:?}");
                return self.payload(result);
            }
            pos += pfx.len();
            if pos == src.len() {
                // Ended exactly at this node.
                let i = node.term.map(|t| t as usize).unwrap_or(last_resort);
                debug_assert_ne!(i, usize::MAX, "no floor for {src:?}");
                return self.payload(i);
            }
            if let Some(t) = node.term {
                last_resort = t as usize;
            }
            let c = src[pos];
            if let Some(below) = node.children.prev_below(c) {
                last_resort = self.nodes[below as usize].leaf_max as usize;
            }
            match node.children.get(c) {
                Some(child) => {
                    node = &self.nodes[child as usize];
                    pos += 1;
                }
                None => {
                    debug_assert_ne!(last_resort, usize::MAX, "no floor for {src:?}");
                    return self.payload(last_resort);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of::<ArtNode>() + n.prefix.len() + n.children.memory_bytes())
            .sum();
        node_bytes + self.code_bits.len() * 8 + self.code_len.len() + self.sym_len.len() * 2
    }

    fn num_entries(&self) -> usize {
        self.code_bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::sorted_dict::SortedDict;
    use crate::hu_tucker::fixed_len_codes;
    use proptest::prelude::*;

    fn build_pair(patterns: &[&[u8]]) -> (ArtDict, SortedDict) {
        let pats: Vec<Vec<u8>> = patterns.iter().map(|p| p.to_vec()).collect();
        let set = IntervalSet::from_patterns(&pats);
        let codes = fixed_len_codes(set.len());
        (ArtDict::build(&set, &codes), SortedDict::build(&set, &codes))
    }

    #[test]
    fn variable_length_boundaries() {
        // Patterns as in Figure 4c (the "t" symbol there arises from gap
        // filling between "sion" and "tion", not as a selected pattern).
        let (art, base) = build_pair(&[b"sion", b"tion"]);
        for probe in [
            b"sionx".as_slice(),
            b"sio",
            b"tiona",
            b"tz",
            b"s",
            b"sz",
            b"a",
            b"zzzz",
            b"\x00\x00",
            b"\xff",
        ] {
            assert_eq!(art.lookup(probe), base.lookup(probe), "probe {probe:?}");
        }
    }

    #[test]
    fn prefix_key_boundaries_supported() {
        // After gap filling, "si" (gap) and "sing"/"sion" (patterns)
        // coexist; "si" is a prefix of both — the paper's modification 1.
        let (art, base) = build_pair(&[b"sing", b"sion"]);
        for probe in [b"si".as_slice(), b"sing", b"singer", b"sio", b"sionx", b"sh"] {
            assert_eq!(art.lookup(probe), base.lookup(probe), "probe {probe:?}");
        }
    }

    #[test]
    fn adaptive_node_kinds() {
        // 256 single-byte boundaries at the root -> Node256 root.
        let (art, _) = build_pair(&[]);
        let hist = art.node_kind_histogram();
        assert_eq!(hist[3].1, 1, "{hist:?}"); // one Node256 (the root)
    }

    #[test]
    fn children_prev_below() {
        let pairs = vec![(5u8, 50u32), (9, 90), (200, 2000)];
        for kind_size in [3usize, 10, 30, 100] {
            let mut ps = pairs.clone();
            // pad with extra labels to force different node kinds
            for l in 0..kind_size.saturating_sub(3) {
                ps.push((100 + l as u8, l as u32));
            }
            ps.sort_unstable();
            let ch = Children::build(&ps);
            assert_eq!(ch.get(5), Some(50));
            assert_eq!(ch.get(6), None);
            assert_eq!(ch.prev_below(5), None);
            assert_eq!(ch.prev_below(6), Some(50));
            assert_eq!(ch.prev_below(10), Some(90));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn art_matches_binary_search(
            raw in proptest::collection::btree_set(
                proptest::collection::vec(any::<u8>(), 1..8), 0..60),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..12), 1..60),
        ) {
            let all: Vec<Vec<u8>> = raw.iter().cloned().collect();
            let pats: Vec<Vec<u8>> = all
                .iter()
                .filter(|p| !all.iter().any(|q| q.as_slice() != p.as_slice() && q.starts_with(p)))
                .cloned()
                .collect();
            let set = IntervalSet::from_patterns(&pats);
            let codes = fixed_len_codes(set.len());
            let art = ArtDict::build(&set, &codes);
            let base = SortedDict::build(&set, &codes);
            for p in &probes {
                prop_assert_eq!(art.lookup(p), base.lookup(p), "probe {:?}", p);
            }
        }
    }
}

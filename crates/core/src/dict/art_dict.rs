//! ART-based dictionary for the ALM / ALM-Improved schemes (§4.2).
//!
//! The paper modifies the Adaptive Radix Tree in three ways to make it a
//! HOPE dictionary, all reproduced here:
//!
//! 1. **prefix keys** — a boundary may end at an inner node (`abc` and
//!    `abcd` can both be boundaries), handled by a per-node terminal flag;
//! 2. **no optimistic common-prefix skipping** — nodes store their full
//!    compressed path, because there is no tuple to verify against;
//! 3. **leaves hold dictionary entries** — `(code, symbol length)` instead
//!    of tuple pointers.
//!
//! **Layout.** The tree is three flat arrays: 16-byte plain nodes, one
//! byte arena and one 4-byte payload word per interval. A node's children
//! are allocated together, in label order, so the child of rank `r` is
//! `first_child + r` — no pointer array, no allocation per node. The arena
//! holds each node's prefix followed by its child index: a *sparse* node
//! (≤ 16 children) lists its sorted labels, and a byte's rank — the count
//! of labels below it — is the position of the first label not below it
//! (most inner nodes of an ALM dictionary have two labels, where that
//! early-exit scan beat a branchless count by ~10 % of an encode); a
//! *dense* node (17–256 children) holds 256 little-endian `u16`s of
//! `rank << 1 | hit`, so a hit and a miss both cost one load. ART's four
//! node kinds collapse into these two because the dictionary is read-only:
//! there is no insert for a growable kind to amortise. A payload word is
//! `bits << 10 | symbol length << 5 | code length`, shared with the bitmap
//! trie (`dict/payload.rs`); a code over 22 bits or a symbol over 31 bytes
//! escapes to a side list.
//!
//! **Floor rule.** Every node's subtree holds the intervals `lo..=hi`, and
//! intervals are contiguous, so the floor search tracks no last-resort
//! entry; where the walk stops it reads the floor off the bounds. A node
//! stores only `lo`: the walk carries `hi` down, since a child's `hi` is
//! its next sibling's `lo − 1` (siblings are contiguous, so that read is
//! almost always on a line already loaded), or its parent's `hi` for the
//! last child, and the root's is the last interval.
//!
//! * the next byte is no label — the interval before the next sibling's
//!   subtree (its `lo − 1`), or the node's `hi` when no label is greater;
//! * the source leaves the prefix — `hi` if it is above it, else `lo − 1`;
//! * the source ends at the node — `lo` if a boundary ends there
//!   (terminal), else `lo − 1`.

use super::payload::Payloads;
use super::DictLookup;
use crate::axis::{lcp_len, IntervalSet};
use crate::bitpack::Code;
use std::ops::Range;

/// Most children a node lists as sorted labels; more get a rank table.
const SPARSE: usize = 16;

#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// Arena offset of the prefix (modification 2: never truncated), which
    /// the child index follows.
    at: u32,
    /// First interval index of the subtree.
    lo: u32,
    first_child: u32,
    /// Bytes of the prefix; a longer common run continues in a one-child
    /// node below.
    prefix_len: u16,
    /// `count << 1 | term`: the number of children, 0..=256, and whether
    /// interval `lo`'s boundary ends at this node (modification 1).
    meta: u16,
}

impl Node {
    #[inline]
    fn count(&self) -> usize {
        (self.meta >> 1) as usize
    }

    #[inline]
    fn term(&self) -> bool {
        self.meta & 1 == 1
    }
}

/// The ART-based dictionary.
#[derive(Debug)]
pub struct ArtDict {
    nodes: Vec<Node>,
    bytes: Vec<u8>,
    /// One payload word per interval (modification 3), read with a single
    /// load.
    entries: Payloads,
}

fn u32_of(x: usize) -> u32 {
    u32::try_from(x).expect("ART dictionary past u32 offsets")
}

impl ArtDict {
    /// Build from an interval set and its assigned codes.
    pub fn build(set: &IntervalSet, codes: &[Code]) -> Self {
        assert_eq!(set.len(), codes.len());
        let entries = Payloads::new(set, codes);
        let mut dict = ArtDict { nodes: vec![Node::default()], bytes: Vec::new(), entries };
        dict.build_node(set, 0, 0..set.len(), 0);
        dict.nodes.shrink_to_fit();
        dict.bytes.shrink_to_fit();
        dict
    }

    /// Fill node `id` with the subtree of the intervals `range`, whose
    /// boundaries share their first `depth` bytes.
    fn build_node(&mut self, set: &IntervalSet, id: usize, range: Range<usize>, depth: usize) {
        debug_assert!(!range.is_empty());
        let first = set.boundary(range.start);
        let common = lcp_len(&first[depth..], &set.boundary(range.end - 1)[depth..]);
        // A run past `u16::MAX` bytes ends in one child labelled by its next
        // byte; the rest of the run is that child's prefix.
        let d = depth + common.min(u16::MAX as usize);
        let term = first.len() == d;
        // (label, first interval) per child, in label order.
        let mut kids: Vec<(u8, usize)> = Vec::new();
        for i in range.start + term as usize..range.end {
            let label = set.boundary(i)[d];
            if kids.last().is_none_or(|k| k.0 != label) {
                kids.push((label, i));
            }
        }
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&first[depth..d]);
        if kids.len() <= SPARSE {
            self.bytes.extend(kids.iter().map(|k| k.0));
        } else {
            let mut rank = 0u16;
            for c in 0..=u8::MAX {
                let hit = kids.get(rank as usize).is_some_and(|k| k.0 == c);
                self.bytes.extend_from_slice(&(rank << 1 | hit as u16).to_le_bytes());
                rank += hit as u16;
            }
        }
        let first_child = self.nodes.len();
        self.nodes.resize(first_child + kids.len(), Node::default());
        self.nodes[id] = Node {
            at: u32_of(at),
            lo: u32_of(range.start),
            first_child: u32_of(first_child),
            prefix_len: (d - depth) as u16,
            meta: (kids.len() as u16) << 1 | term as u16,
        };
        for (r, &(_, start)) in kids.iter().enumerate() {
            let end = kids.get(r + 1).map_or(range.end, |k| k.1);
            self.build_node(set, first_child + r, start..end, d + 1);
        }
    }

    fn prefix(&self, n: &Node) -> &[u8] {
        &self.bytes[n.at as usize..][..n.prefix_len as usize]
    }

    /// The arena from `n`'s child index on: labels or rank table.
    fn index(&self, n: &Node) -> &[u8] {
        &self.bytes[n.at as usize + n.prefix_len as usize..]
    }

    /// How many of `n`'s labels are below `c`, and whether `c` is one.
    #[inline]
    fn rank(&self, n: &Node, c: u8) -> (usize, bool) {
        let index = self.index(n);
        if n.count() <= SPARSE {
            let labels = &index[..n.count()];
            let rank = labels.iter().position(|&l| l >= c).unwrap_or(labels.len());
            (rank, labels.get(rank) == Some(&c))
        } else {
            let e = u16::from_le_bytes([index[2 * c as usize], index[2 * c as usize + 1]]);
            ((e >> 1) as usize, e & 1 == 1)
        }
    }

    #[inline]
    fn payload(&self, i: u32) -> (Code, usize) {
        self.entries.get(i as usize)
    }

    /// In-order `(symbol, code)` enumeration: one DFS, the path to a
    /// terminal node being that interval's boundary.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        self.visit(&self.nodes[0], &mut Vec::new(), f);
    }

    fn visit(&self, n: &Node, path: &mut Vec<u8>, f: &mut dyn FnMut(&[u8], Code)) {
        let mark = path.len();
        path.extend_from_slice(self.prefix(n));
        if n.term() {
            let (code, sym_len) = self.payload(n.lo);
            f(&path[..sym_len], code);
        }
        let labels: Vec<u8> = if n.count() <= SPARSE {
            self.index(n)[..n.count()].to_vec()
        } else {
            (0..=u8::MAX).filter(|&c| self.rank(n, c).1).collect()
        };
        for (r, label) in labels.into_iter().enumerate() {
            path.push(label);
            self.visit(&self.nodes[n.first_child as usize + r], path, f);
            path.pop();
        }
        path.truncate(mark);
    }

    /// Number of tree nodes (for memory analysis / tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl DictLookup for ArtDict {
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        let mut n = &self.nodes[0];
        let mut hi = u32_of(self.entries.len() - 1);
        let mut rest = src;
        let floor = loop {
            let prefix = self.prefix(n);
            let m = lcp_len(prefix, rest);
            if m < prefix.len() {
                break if rest.get(m).is_some_and(|&c| c > prefix[m]) { hi } else { n.lo - 1 };
            }
            let Some((&c, tail)) = rest[m..].split_first() else {
                break if n.term() { n.lo } else { n.lo - 1 };
            };
            let (rank, hit) = self.rank(n, c);
            let next = n.first_child as usize + rank;
            if !hit {
                break if rank < n.count() { self.nodes[next].lo - 1 } else { hi };
            }
            // The child's subtree ends where its next sibling's begins.
            if rank + 1 < n.count() {
                hi = self.nodes[next + 1].lo - 1;
            }
            n = &self.nodes[next];
            rest = tail;
        };
        self.payload(floor)
    }

    fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.bytes.len()
            + self.entries.memory_bytes()
    }

    fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::payload::{MAX_CODE_LEN, MAX_SYMBOL_LEN};
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
        // 256 single-byte boundaries: a dense root over 256 sparse leaves.
        let (art, _) = build_pair(&[]);
        let dense = art.nodes.iter().filter(|n| n.count() > SPARSE).count();
        assert_eq!((art.num_nodes(), dense, art.nodes[0].count()), (257, 1, 256));
        // One node per boundary plus the root, 16 B apiece; one 4 B payload
        // word per interval; the arena is the root's 512 B rank table and
        // no prefix byte.
        assert_eq!(std::mem::size_of::<Node>(), 16);
        assert_eq!(art.entries.escaped(), 0);
        assert_eq!(art.bytes.len(), 512);
        assert_eq!(art.memory_bytes(), 257 * 16 + 512 + 256 * 4);
    }

    #[test]
    fn child_rank_on_both_shapes() {
        // A root with prefix "a" over the given labels: rank and hit for
        // every byte, against the sorted label list itself.
        let low_high: Vec<u8> = vec![0x00, 5, 9, 200, 0xFF];
        let inner: Vec<u8> = vec![5, 9, 200];
        let pad = |labels: &[u8], n: usize| {
            let mut l = labels.to_vec();
            l.extend((100u8..).filter(|c| !labels.contains(c)).take(n - labels.len()));
            l.sort_unstable();
            l
        };
        for labels in [
            low_high.clone(),
            inner.clone(),
            pad(&low_high, SPARSE),
            pad(&inner, SPARSE),
            pad(&low_high, SPARSE + 1),
            pad(&inner, SPARSE + 1),
            (0..=u8::MAX).collect(),
        ] {
            let boundaries: Vec<Box<[u8]>> = labels.iter().map(|&l| [b'a', l].into()).collect();
            let set = IntervalSet::from_parts(boundaries, vec![1; labels.len()]);
            let art = ArtDict::build(&set, &fixed_len_codes(set.len()));
            let root = &art.nodes[0];
            assert_eq!((art.prefix(root), root.count()), (&b"a"[..], labels.len()));
            for c in 0..=u8::MAX {
                let want = (labels.partition_point(|&l| l < c), labels.contains(&c));
                assert_eq!(art.rank(root, c), want, "{} labels, byte {c}", labels.len());
            }
        }
    }

    /// Entries the payload word cannot hold — codes of 49–64 bits, a
    /// 300-byte symbol — and a 70 000-byte common run, longer than a node's
    /// prefix, read back as the binary-search reference reads them, and
    /// list back in interval order.
    #[test]
    fn wide_entries_and_long_prefixes() {
        let run = vec![b'q'; 70_000];
        let long_symbol: Box<[u8]> = [&[b'm'][..], &[b'x'; 299]].concat().into();
        let mut boundaries: Vec<Box<[u8]>> = (0..=u8::MAX).map(|b| [b].into()).collect();
        let mut lens = vec![1u16; 256];
        let m = boundaries.iter().position(|b| b[0] == b'm').unwrap();
        // [m x^299, m x^298 y) is the 300-byte symbol's interval.
        let above: Box<[u8]> = [&long_symbol[..299], b"y"].concat().into();
        boundaries.splice(m + 1..m + 1, [long_symbol.clone(), above]);
        lens.splice(m + 1..m + 1, [300, 1]);
        // [q, q^70000) and [q^70000, q^70000 a) share "q"; the run's two
        // intervals above it share the whole run.
        let q = boundaries.iter().position(|b| b[0] == b'q').unwrap();
        let tail = |t: &[u8]| -> Box<[u8]> { [&run[..], t].concat().into() };
        boundaries.splice(q + 1..q + 1, [tail(b""), tail(b"a"), tail(b"b")]);
        lens.splice(q + 1..q + 1, [1, 1, 1]);
        let set = IntervalSet::from_parts(boundaries, lens);
        set.validate().unwrap();
        // Two codes in three are wide, the widest 64 bits; the long
        // symbol's is short, so its length alone makes it wide.
        let codes: Vec<Code> = (0..set.len())
            .map(|i| match i % 3 {
                _ if set.symbol_len(i) > MAX_SYMBOL_LEN => Code::new(i as u64, 20),
                0 => Code::new(i as u64, 49 + (i % 16) as u8),
                1 => Code::new(i as u64, 20),
                _ => Code::new(u64::MAX - i as u64, 64),
            })
            .collect();
        let art = ArtDict::build(&set, &codes);
        let base = SortedDict::build(&set, &codes);
        assert!(art.nodes.iter().any(|n| n.prefix_len == u16::MAX), "the run is split");
        let wide = (0..set.len())
            .filter(|&i| codes[i].len > MAX_CODE_LEN || set.symbol_len(i) > MAX_SYMBOL_LEN);
        assert_eq!(art.entries.escaped(), wide.count());
        assert!(art.entries.escaped() > set.len() / 2 && art.entries.escaped() < set.len());
        let mut probes: Vec<Vec<u8>> = (0..=u8::MAX).map(|b| vec![b]).collect();
        probes.extend([long_symbol.to_vec(), [&long_symbol[..], b"zz"].concat()]);
        probes.extend([b"mx".to_vec(), b"my".to_vec(), vec![b'q'; 69_999]]);
        for t in [&b""[..], b"\x00", b"a", b"ab", b"b", b"c"] {
            probes.push([&run[..], t].concat());
            probes.push([&run[..69_999], b"r", t].concat());
        }
        for p in &probes {
            assert_eq!(art.lookup(p), base.lookup(p), "probe of {} bytes", p.len());
        }
        let mut listed = Vec::new();
        art.for_each_entry(&mut |symbol, code| listed.push((symbol.to_vec(), code)));
        let want: Vec<_> = (0..set.len()).map(|i| (set.symbol(i).to_vec(), codes[i])).collect();
        assert_eq!(listed, want);
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

    /// Codes up to the payload word's 22 bits and symbols up to its 31
    /// bytes pack; one past either escapes, codes up to 64 bits. The ART
    /// looks up, encodes (whole and pulled) and lists them as the
    /// binary-search reference does.
    #[test]
    fn payloads_past_the_word_escape() {
        use crate::dict::tests::{check_against_reference, codes_around, probes_for};
        use crate::dict::Dict;
        let pats: Vec<Vec<u8>> = [30, 31, 32, 33]
            .iter()
            .enumerate()
            .map(|(k, &n)| [&[b'a' + k as u8][..], &vec![b'x'; n - 1]].concat())
            .chain([b"mid".to_vec(), b"q".to_vec()])
            .collect();
        let set = IntervalSet::from_patterns(&pats);
        let lens: Vec<usize> = (0..set.len()).map(|i| set.symbol_len(i)).collect();
        assert!(lens.contains(&MAX_SYMBOL_LEN) && lens.contains(&(MAX_SYMBOL_LEN + 1)));
        let codes = codes_around(&[MAX_CODE_LEN], &set);
        let art = ArtDict::build(&set, &codes);
        let escaped = (0..set.len())
            .filter(|&i| codes[i].len > MAX_CODE_LEN || set.symbol_len(i) > MAX_SYMBOL_LEN);
        assert_eq!(art.entries.escaped(), escaped.count());
        check_against_reference("ART", &Dict::Art(art), &set, &codes, &probes_for(&set));
    }
}

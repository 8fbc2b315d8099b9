//! # hope-btree — B+tree substrates
//!
//! Two of the five search trees the HOPE paper evaluates on:
//!
//! * **plain B+tree** — modeled on the TLX (formerly STX) B+tree the paper
//!   uses: a fan-out of [`FANOUT`] = 16, variable-length string keys stored
//!   whole;
//! * **Prefix B+tree** (Bayer & Unterauer '77) — adds *prefix truncation*
//!   (a node stores the common prefix of its keys once) and *suffix
//!   truncation* (a leaf split promotes the shortest separator that still
//!   partitions the halves).
//!
//! Every node, leaf or inner, of either tree keeps its keys in one **key
//! block** ([`hope::index::KeyBlock`], shared with `hope_hot`): the key
//! bytes back to back in one buffer with a `u32` end offset per key (the
//! node prefix, under truncation, at the front), and beside them each
//! key's **head** — its 8 bytes after the block's common prefix,
//! big-endian in a `u64`. 12 bytes per key (end + head) plus the
//! key bytes, in three allocations per node rather than one per key. A
//! node search compares the common prefix once, counts the heads below the
//! query's without a branch, and compares bytes only where heads tie:
//! shorter (HOPE-encoded) keys put more distinguishing bytes into the
//! heads, which is how compression makes the tree faster (§5).
//!
//! Both trees are generic over their value payload (`BPlusTree<V>`, any
//! [`hope::Value`]; defaults to `u64` record ids) and implement the
//! [`hope::OrderedIndex<V>`] contract serving layers program against.
//!
//! ```
//! use hope::OrderedIndex;
//! use hope_btree::BPlusTree;
//!
//! let mut t = BPlusTree::prefix(); // or BPlusTree::plain()
//! t.insert(b"com.gmail@alice", 1);
//! t.insert(b"com.gmail@bob", 2);
//! assert_eq!(t.get(b"com.gmail@alice"), Some(1));
//! let mut hits = Vec::new();
//! t.range_into(b"com.gmail@", b"com.gmail@~", 10, &mut hits);
//! assert_eq!(hits, vec![1, 2]);
//!
//! // Any Clone + Send + Sync payload works, not just u64.
//! let mut docs: BPlusTree<String> = BPlusTree::plain();
//! docs.insert(b"k", "payload".to_string());
//! assert_eq!(docs.get_ref(b"k").map(String::as_str), Some("payload"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cmp::Ordering;

use hope::axis::shortest_separator;
use hope::index::KeyBlock;

/// Node fan-out: 256-byte nodes / (8-byte key pointer + 8-byte value or
/// child pointer) = 16 slots, matching the paper's TLX configuration.
pub const FANOUT: usize = 16;

/// Slots a bulk load ([`hope::OrderedIndex::load_sorted`]) fills per node:
/// ¾ of [`FANOUT`]. The gap is what keeps the inserts that follow cheap,
/// and it is measured (DESIGN.md, "Bulk load"): filled to 16 of 16 every
/// insert into a loaded leaf splits it, at 14 inserts still cost more
/// than at 12, and 12 also retained the fewest bytes once inserts ran.
const LOAD_FILL: usize = FANOUT * 3 / 4;

/// Keys a key block ever has room for: a leaf holds [`FANOUT`] and splits
/// when an insert makes it [`FANOUT`] + 1 (an inner node splits at
/// [`FANOUT`] separators).
const BLOCK_KEYS: usize = FANOUT + 1;

const NO_NODE: u32 = u32::MAX;

/// The separator a split or a bulk load puts between two adjacent leaves:
/// the right one's first key, cut to the shortest string that still
/// partitions them under suffix truncation.
fn leaf_separator(suffix_truncation: bool, left_max: &[u8], right_min: &[u8]) -> Vec<u8> {
    if suffix_truncation {
        shortest_separator(left_max, right_min)
    } else {
        right_min.to_vec()
    }
}

/// How many of `remaining` children (or keys) the next node of a bulk-
/// loaded level takes: [`LOAD_FILL`], except that the last two nodes of a
/// level share what is left evenly, so none ends up with a single child.
fn load_chunk(remaining: usize) -> usize {
    if remaining <= LOAD_FILL {
        remaining
    } else if remaining < 2 * LOAD_FILL {
        remaining.div_ceil(2)
    } else {
        LOAD_FILL
    }
}

/// Nodes a bulk load of `keys` keys creates, all levels: what `nodes`
/// reserves when the run knows its length.
fn load_node_count(keys: usize) -> usize {
    let mut level = keys.div_ceil(LOAD_FILL).max(1);
    let mut total = level;
    while level > 1 {
        level = level.div_ceil(LOAD_FILL);
        total += level;
    }
    total
}

#[derive(Debug)]
struct LeafNode<V> {
    keys: KeyBlock,
    values: Vec<V>,
    next: u32,
}

#[derive(Debug)]
struct InnerNode {
    /// Separators; child `i` holds keys `< seps[i]`, child `i+1` keys
    /// `>= seps[i]`.
    seps: KeyBlock,
    children: Vec<u32>,
}

#[derive(Debug)]
enum Node<V> {
    Leaf(LeafNode<V>),
    Inner(InnerNode),
}

/// A B+tree over byte-string keys and `V` values (default: `u64` ids).
#[derive(Debug)]
pub struct BPlusTree<V = u64> {
    nodes: Vec<Node<V>>,
    root: u32,
    len: usize,
    prefix_truncation: bool,
    suffix_truncation: bool,
}

impl<V> BPlusTree<V> {
    /// Plain TLX-style B+tree (full keys, no truncation).
    pub fn plain() -> Self {
        Self::with_modes(false, false)
    }

    /// Prefix B+tree: prefix truncation in nodes + suffix-truncated
    /// separators on splits.
    pub fn prefix() -> Self {
        Self::with_modes(true, true)
    }

    fn with_modes(prefix_truncation: bool, suffix_truncation: bool) -> Self {
        let leaf =
            Node::Leaf(LeafNode { keys: KeyBlock::default(), values: Vec::new(), next: NO_NODE });
        BPlusTree { nodes: vec![leaf], root: 0, len: 0, prefix_truncation, suffix_truncation }
    }

    /// Point lookup, borrowing the stored value.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Inner(inner) => at = inner.children[inner.seps.upper_bound(key)],
                Node::Leaf(leaf) => return leaf.keys.search(key).ok().map(|i| &leaf.values[i]),
            }
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut at = self.root;
        while let Node::Inner(inner) = &self.nodes[at as usize] {
            at = inner.children[0];
            h += 1;
        }
        h
    }

    /// Total memory: the node array, and each node's key block, value
    /// slots or child ids, all counted at capacity.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<V>>()
            + self
                .nodes
                .iter()
                .map(|n| match n {
                    Node::Leaf(l) => {
                        l.keys.memory_bytes() + l.values.capacity() * std::mem::size_of::<V>()
                    }
                    Node::Inner(i) => i.seps.memory_bytes() + i.children.capacity() * 4,
                })
                .sum::<usize>()
    }

    /// Insert or update; returns the previous value if present.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        let root = self.root;
        let (split, old) = self.insert_rec(root, key, value);
        if let Some((sep, right)) = split {
            let mut seps = KeyBlock::default();
            seps.insert_at(0, &sep, self.prefix_truncation, BLOCK_KEYS);
            let inner = InnerNode { seps, children: vec![root, right] };
            self.root = self.push_node(Node::Inner(inner));
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn push_node(&mut self, node: Node<V>) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Build the inner levels of a bulk load bottom-up over the leaf level
    /// `level`, `seps[i]` separating node `i` from node `i + 1`. A node
    /// takes [`load_chunk`] children and the separators between them; the
    /// separator between two nodes moves up with them, as it does when an
    /// inner node splits.
    fn load_inner_levels(&mut self, mut seps: Vec<Vec<u8>>, mut level: Vec<u32>) {
        while level.len() > 1 {
            let n = level.len();
            let mut upper_seps = Vec::with_capacity(n / LOAD_FILL);
            let mut upper = Vec::with_capacity(n.div_ceil(LOAD_FILL));
            let mut at = 0;
            while at < n {
                let end = at + load_chunk(n - at);
                let inner = InnerNode {
                    seps: KeyBlock::from_sorted(&seps[at..end - 1], self.prefix_truncation),
                    children: level[at..end].to_vec(),
                };
                upper.push(self.push_node(Node::Inner(inner)));
                if end < n {
                    upper_seps.push(std::mem::take(&mut seps[end - 1]));
                }
                at = end;
            }
            (seps, level) = (upper_seps, upper);
        }
        self.root = level[0];
    }

    /// Returns (optional split (separator, new right node), old value).
    fn insert_rec(&mut self, at: u32, key: &[u8], value: V) -> (Option<(Vec<u8>, u32)>, Option<V>) {
        let truncate = self.prefix_truncation;
        let new_id = self.nodes.len() as u32;
        match &mut self.nodes[at as usize] {
            Node::Leaf(leaf) => {
                let i = match leaf.keys.search(key) {
                    Ok(i) => return (None, Some(std::mem::replace(&mut leaf.values[i], value))),
                    Err(i) => i,
                };
                leaf.keys.insert_at(i, key, truncate, BLOCK_KEYS);
                leaf.values.insert(i, value);
                if leaf.keys.len() <= FANOUT {
                    return (None, None);
                }
                // Split the leaf.
                let mid = leaf.keys.len() / 2;
                let sep = leaf_separator(
                    self.suffix_truncation,
                    &leaf.keys.full_key(mid - 1),
                    &leaf.keys.full_key(mid),
                );
                let keys = leaf.keys.split_off(mid, mid, truncate);
                let values = leaf.values.split_off(mid);
                let next = std::mem::replace(&mut leaf.next, new_id);
                let right = self.push_node(Node::Leaf(LeafNode { keys, values, next }));
                (Some((sep, right)), None)
            }
            Node::Inner(inner) => {
                let child = inner.children[inner.seps.upper_bound(key)];
                let (split, old) = self.insert_rec(child, key, value);
                let Some((sep, right)) = split else {
                    return (None, old);
                };
                let Node::Inner(inner) = &mut self.nodes[at as usize] else {
                    unreachable!("node kind changed")
                };
                let pos = inner.seps.lower_bound(&sep);
                inner.seps.insert_at(pos, &sep, truncate, BLOCK_KEYS);
                inner.children.insert(pos + 1, right);
                if inner.seps.len() < FANOUT {
                    return (None, old);
                }
                // Split the inner node; the middle separator moves up.
                let mid = inner.seps.len() / 2;
                let up = inner.seps.full_key(mid);
                let seps = inner.seps.split_off(mid, mid + 1, truncate);
                let children = inner.children.split_off(mid + 1);
                let right = self.push_node(Node::Inner(InnerNode { seps, children }));
                (Some((up, right)), old)
            }
        }
    }
}

impl<V: Clone> BPlusTree<V> {
    /// Point lookup, cloning the stored value (a copy for `u64` ids). Use
    /// [`BPlusTree::get_ref`] to borrow instead.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        self.get_ref(key).cloned()
    }
}

/// B+trees satisfy the generic ordered-index contract HOPE serving layers
/// program against, for any value payload.
impl<V: hope::Value> hope::OrderedIndex<V> for BPlusTree<V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        BPlusTree::get_ref(self, key)
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        BPlusTree::insert(self, key, value)
    }

    /// Left-to-right build (Compressed Key Sort / Fast Index
    /// Reconstruction): leaves of 12 keys (¾ of [`FANOUT`]) in exact-size
    /// key blocks and value arrays, chained as they are pushed, then the
    /// inner levels bottom-up — no descent and no split per key. Into a
    /// tree that already holds keys the run is inserted pair by pair.
    fn load_sorted(&mut self, run: &mut dyn Iterator<Item = (&[u8], V)>) {
        if self.len != 0 {
            for (key, value) in run {
                self.insert(key, value);
            }
            return;
        }
        let mut pending = run.next();
        if pending.is_none() {
            return;
        }
        // The empty root leaf goes; exact when the run knows its length.
        self.nodes.clear();
        self.nodes.reserve_exact(load_node_count(1 + run.size_hint().0));
        let mut seps: Vec<Vec<u8>> = Vec::new();
        let mut level: Vec<u32> = Vec::new();
        let mut keys: Vec<&[u8]> = Vec::with_capacity(LOAD_FILL);
        let mut values: Vec<V> = Vec::new();
        let mut left_max: &[u8] = &[];
        while let Some((key, value)) = pending {
            debug_assert!(
                self.len == 0 || *keys.last().unwrap_or(&left_max) < key,
                "bulk load must be strictly increasing"
            );
            if keys.is_empty() {
                values.reserve_exact(LOAD_FILL);
            }
            keys.push(key);
            values.push(value);
            self.len += 1;
            pending = run.next();
            if keys.len() < LOAD_FILL && pending.is_some() {
                continue;
            }
            values.shrink_to_fit(); // the last leaf may hold fewer
            let leaf = LeafNode {
                keys: KeyBlock::from_sorted(&keys, self.prefix_truncation),
                values: std::mem::take(&mut values),
                next: NO_NODE,
            };
            let id = self.push_node(Node::Leaf(leaf));
            if let Some(&prev) = level.last() {
                seps.push(leaf_separator(self.suffix_truncation, left_max, keys[0]));
                let Node::Leaf(left) = &mut self.nodes[prev as usize] else { unreachable!() };
                left.next = id;
            }
            level.push(id);
            left_max = key;
            keys.clear();
        }
        self.load_inner_levels(seps, level);
    }

    /// Leaf-chain walk from the first key `>= low`. The end of the range
    /// is located **once per leaf**: `high` is compared with the leaf's
    /// last key, a leaf inside the range is emitted whole and uncompared,
    /// and only the final leaf is searched for the first key `> high`. A
    /// plain tree hands out slices of its key blocks; under prefix
    /// truncation the full key (node prefix + suffix) is rebuilt into one
    /// reused buffer.
    fn visit(&self, low: &[u8], high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool) {
        let mut at = self.root;
        while let Node::Inner(inner) = &self.nodes[at as usize] {
            at = inner.children[inner.seps.upper_bound(low)];
        }
        let mut pos = match &self.nodes[at as usize] {
            Node::Leaf(leaf) => leaf.keys.lower_bound(low),
            Node::Inner(_) => unreachable!(),
        };
        let mut buf = Vec::new();
        while let Some(Node::Leaf(LeafNode { keys, values, next })) = self.nodes.get(at as usize) {
            let n = keys.len();
            // `Some` in the leaf the range ends in.
            let end = match high {
                Some(h) if n > 0 && keys.cmp(n - 1, h) == Ordering::Greater => {
                    Some(keys.upper_bound(h))
                }
                _ => None,
            };
            // Inverted bounds put the end below `pos`: nothing to emit.
            let hits = pos.min(end.unwrap_or(n))..end.unwrap_or(n);
            let prefix = keys.prefix();
            for (suffix, value) in keys.suffixes(hits.clone()).zip(&values[hits]) {
                let key: &[u8] = if prefix.is_empty() {
                    suffix
                } else {
                    buf.clear();
                    buf.extend_from_slice(prefix);
                    buf.extend_from_slice(suffix);
                    &buf
                };
                if !f(key, value) {
                    return;
                }
            }
            if end.is_some() {
                return;
            }
            at = *next; // NO_NODE is out of bounds: ends the walk
            pos = 0;
        }
    }

    fn len(&self) -> usize {
        BPlusTree::len(self)
    }

    fn memory_bytes(&self) -> usize {
        BPlusTree::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::OrderedIndex;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn both() -> [BPlusTree; 2] {
        [BPlusTree::plain(), BPlusTree::prefix()]
    }

    /// Values of the first `count` keys `>= start`.
    fn scan(t: &BPlusTree, start: &[u8], count: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.visit(start, None, &mut |_, v| {
            out.push(*v);
            out.len() < count
        });
        out
    }

    fn range(t: &BPlusTree, low: &[u8], high: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.range_into(low, high, limit, &mut out);
        out
    }

    /// The node is what a tree of many small nodes pays per node: the
    /// key block's three buffers and two offsets, no more.
    #[test]
    fn node_stays_small() {
        assert_eq!(std::mem::size_of::<KeyBlock>(), 80);
        assert_eq!(std::mem::size_of::<Node<u64>>(), 112);
    }

    #[test]
    fn insert_get_small() {
        for mut t in both() {
            assert_eq!(t.insert(b"banana", 2), None);
            assert_eq!(t.insert(b"apple", 1), None);
            assert_eq!(t.insert(b"cherry", 3), None);
            assert_eq!(t.get(b"apple"), Some(1));
            assert_eq!(t.get(b"banana"), Some(2));
            assert_eq!(t.get(b"cherry"), Some(3));
            assert_eq!(t.get(b"durian"), None);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn update_in_place() {
        for mut t in both() {
            t.insert(b"k", 1);
            assert_eq!(t.insert(b"k", 9), Some(1));
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(b"k"), Some(9));
        }
    }

    #[test]
    fn splits_preserve_order() {
        for mut t in both() {
            let n = 500u64;
            for i in 0..n {
                t.insert(format!("key{:06}", i * 7 % n).as_bytes(), i);
            }
            assert_eq!(t.len() as u64, n);
            for i in 0..n {
                let k = format!("key{:06}", i * 7 % n);
                assert_eq!(t.get(k.as_bytes()), Some(i), "{k}");
            }
            assert!(t.height() > 1);
        }
    }

    #[test]
    fn scan_across_leaves() {
        for mut t in both() {
            for i in 0..100u64 {
                t.insert(format!("user{i:04}").as_bytes(), i);
            }
            let got = scan(&t, b"user0050", 10);
            assert_eq!(got, (50..60).collect::<Vec<u64>>());
            let got = scan(&t, b"", 5);
            assert_eq!(got, (0..5).collect::<Vec<u64>>());
            assert!(scan(&t, b"zzz", 5).is_empty());
        }
    }

    #[test]
    fn prefix_variant_uses_less_memory_on_shared_prefixes() {
        let mut plain = BPlusTree::plain();
        let mut pfx = BPlusTree::prefix();
        for i in 0..2000u64 {
            let k = format!("http://www.example.com/very/long/shared/path/item{i:06}");
            plain.insert(k.as_bytes(), i);
            pfx.insert(k.as_bytes(), i);
        }
        assert!(
            pfx.memory_bytes() < plain.memory_bytes(),
            "prefix {} vs plain {}",
            pfx.memory_bytes(),
            plain.memory_bytes()
        );
        for i in (0..2000u64).step_by(97) {
            let k = format!("http://www.example.com/very/long/shared/path/item{i:06}");
            assert_eq!(pfx.get(k.as_bytes()), Some(i));
        }
    }

    /// What a bulk load builds: leaves first, in key order and chained,
    /// all but the last holding `LOAD_FILL` keys; inner nodes of 2 to
    /// `LOAD_FILL` children; every `Vec` at its exact capacity.
    #[test]
    fn bulk_load_packs_nodes_left_to_right() {
        for n in [1, 11, 12, 13, 143, 144, 145, 157, 1_729, 5_000] {
            let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("key{i:06}").into_bytes()).collect();
            for mut t in both() {
                t.load_sorted(&mut keys.iter().map(Vec::as_slice).zip(0..));
                assert_eq!(t.len(), n);
                assert_eq!(t.nodes.len(), load_node_count(n), "{n} keys");
                assert_eq!(t.nodes.capacity(), t.nodes.len(), "{n} keys");
                let leaves = n.div_ceil(LOAD_FILL);
                for (i, node) in t.nodes.iter().enumerate() {
                    match node {
                        Node::Leaf(leaf) => {
                            let last = i + 1 == leaves;
                            assert!(i < leaves, "{n} keys: leaf {i} after an inner node");
                            assert_eq!(leaf.next, if last { NO_NODE } else { i as u32 + 1 });
                            let want = if last { n - i * LOAD_FILL } else { LOAD_FILL };
                            assert_eq!(leaf.keys.len(), want, "{n} keys: leaf {i}");
                            assert!(leaf.keys.is_exact());
                            assert_eq!(leaf.values.capacity(), want);
                        }
                        Node::Inner(inner) => {
                            assert!(i >= leaves);
                            let fan = inner.children.len();
                            assert!((2..=LOAD_FILL).contains(&fan), "{n} keys: fan-out {fan}");
                            assert_eq!(inner.seps.len() + 1, fan);
                            assert!(inner.seps.is_exact());
                            assert_eq!(inner.children.capacity(), fan);
                        }
                    }
                }
                let mut level = leaves;
                let mut height = 1;
                while level > 1 {
                    level = level.div_ceil(LOAD_FILL);
                    height += 1;
                }
                assert_eq!(t.height(), height, "{n} keys");
                assert_eq!(scan(&t, b"", n + 1), (0..n as u64).collect::<Vec<u64>>());
            }
        }
    }

    #[test]
    fn empty_key_supported() {
        for mut t in both() {
            t.insert(b"", 42);
            t.insert(b"a", 1);
            assert_eq!(t.get(b""), Some(42));
            assert_eq!(scan(&t, b"", 2), vec![42, 1]);
        }
    }

    #[test]
    fn bounded_range_is_inclusive_and_ordered() {
        for mut t in both() {
            for i in 0..200u64 {
                t.insert(format!("user{i:04}").as_bytes(), i);
            }
            assert_eq!(range(&t, b"user0010", b"user0013", 100), vec![10, 11, 12, 13]);
            // Limit truncates from the front.
            assert_eq!(range(&t, b"user0010", b"user0100", 3), vec![10, 11, 12]);
            // Bounds need not be stored keys.
            assert_eq!(range(&t, b"user0010x", b"user0012x", 100), vec![11, 12]);
            // Inverted and empty ranges.
            assert!(range(&t, b"user0013", b"user0010", 100).is_empty());
            assert!(range(&t, b"zzz", b"zzzz", 100).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn behaves_like_btreemap(
            ops in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..20), any::<u64>()), 1..300),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..20), 0..40),
            start in proptest::collection::vec(any::<u8>(), 0..20),
        ) {
            for mut t in both() {
                let mut model = BTreeMap::new();
                for (k, v) in &ops {
                    prop_assert_eq!(t.insert(k, *v), model.insert(k.clone(), *v));
                }
                prop_assert_eq!(t.len(), model.len());
                for (k, v) in &model {
                    prop_assert_eq!(t.get(k), Some(*v));
                }
                for p in &probes {
                    prop_assert_eq!(t.get(p), model.get(p).copied());
                }
                let want: Vec<u64> = model.range(start.clone()..).take(25).map(|(_, v)| *v).collect();
                prop_assert_eq!(scan(&t, &start, 25), want);
                let mut hi = start.clone();
                hi.extend_from_slice(b"\xff\xff");
                let want: Vec<u64> =
                    model.range(start.clone()..=hi.clone()).take(25).map(|(_, v)| *v).collect();
                prop_assert_eq!(range(&t, &start, &hi, 25), want);
            }
        }
    }
}

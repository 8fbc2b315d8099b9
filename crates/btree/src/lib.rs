//! # hope-btree — B+tree substrates
//!
//! Two of the five search trees the HOPE paper evaluates on:
//!
//! * **plain B+tree** — modeled on the TLX (formerly STX) B+tree the paper
//!   uses: 256-byte nodes with a fan-out of [`FANOUT`] = 16, variable-length
//!   string keys stored *outside* the node behind reference pointers
//!   (here: `Box<[u8]>`, 16 bytes of slot + the key bytes on the heap);
//! * **Prefix B+tree** (Bayer & Unterauer '77) — adds *prefix truncation*
//!   (a node stores the common prefix of its keys once) and *suffix
//!   truncation* (a leaf split promotes the shortest separator that still
//!   partitions the halves).
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

use hope::axis::{lcp_len, shortest_separator};

/// Node fan-out: 256-byte nodes / (8-byte key pointer + 8-byte value or
/// child pointer) = 16 slots, matching the paper's TLX configuration.
pub const FANOUT: usize = 16;

/// Slots a bulk load ([`hope::OrderedIndex::load_sorted`]) fills per node:
/// ¾ of [`FANOUT`]. The gap is what keeps the inserts that follow cheap,
/// and it is measured (DESIGN.md, "Bulk load"): filled to 16 of 16 every
/// insert into a loaded leaf splits it, at 14 inserts still cost more
/// than at 12, and 12 also retained the fewest bytes once inserts ran.
const LOAD_FILL: usize = FANOUT * 3 / 4;

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

/// A list of keys sharing an optional truncated prefix.
///
/// With `truncate = false` the prefix stays empty and keys are stored
/// whole (plain B+tree). With `truncate = true` the node's common prefix
/// is stored once and only suffixes per key (Prefix B+tree).
#[derive(Debug, Default)]
struct KeyList {
    prefix: Vec<u8>,
    suffixes: Vec<Box<[u8]>>,
}

impl KeyList {
    /// The list of **sorted** `keys` in exact-capacity storage. Under
    /// truncation the shared prefix is stored once: the keys being
    /// sorted, it is the common prefix of the first and the last.
    fn from_sorted<K: AsRef<[u8]>>(keys: &[K], truncate: bool) -> KeyList {
        let m = match (keys.first(), keys.last()) {
            (Some(first), Some(last)) if truncate => lcp_len(first.as_ref(), last.as_ref()),
            _ => 0,
        };
        KeyList {
            prefix: keys.first().map_or_else(Vec::new, |k| k.as_ref()[..m].to_vec()),
            suffixes: keys.iter().map(|k| Box::from(&k.as_ref()[m..])).collect(),
        }
    }

    fn len(&self) -> usize {
        self.suffixes.len()
    }

    fn full_key(&self, i: usize) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(&self.suffixes[i]);
        k
    }

    /// Compare stored key `i` with `q` without materializing it.
    fn cmp(&self, i: usize, q: &[u8]) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        let p = &self.prefix;
        let n = p.len().min(q.len());
        match p[..n].cmp(&q[..n]) {
            Equal => {
                if q.len() < p.len() {
                    return Greater; // stored starts with more than q has
                }
                self.suffixes[i].as_ref().cmp(&q[p.len()..])
            }
            other => other,
        }
    }

    /// First index whose key is `>= q`.
    fn lower_bound(&self, q: &[u8]) -> usize {
        self.partition(|i| self.cmp(i, q) == std::cmp::Ordering::Less)
    }

    /// First index whose key is `> q`.
    fn upper_bound(&self, q: &[u8]) -> usize {
        self.partition(|i| self.cmp(i, q) != std::cmp::Ordering::Greater)
    }

    fn partition(&self, pred: impl Fn(usize) -> bool) -> usize {
        let mut lo = 0;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Insert `key` at sorted position `i`, maintaining the truncated
    /// prefix invariant when enabled.
    fn insert_at(&mut self, i: usize, key: &[u8], truncate: bool) {
        if truncate {
            if self.suffixes.is_empty() {
                self.prefix = key.to_vec();
                self.suffixes.insert(0, Box::from(&[][..]));
                return;
            }
            let m = lcp_len(&self.prefix, key);
            if m < self.prefix.len() {
                // New key breaks the shared prefix: re-expand.
                let dropped = self.prefix[m..].to_vec();
                for s in &mut self.suffixes {
                    let mut v = dropped.clone();
                    v.extend_from_slice(s);
                    *s = v.into_boxed_slice();
                }
                self.prefix.truncate(m);
            }
        } else {
            debug_assert!(self.prefix.is_empty());
        }
        self.suffixes.insert(i, Box::from(&key[self.prefix.len()..]));
    }

    /// Split off the upper half at `at`, re-tightening both prefixes.
    fn split_off(&mut self, at: usize, truncate: bool) -> KeyList {
        let upper = self.suffixes.split_off(at);
        let mut right = KeyList { prefix: self.prefix.clone(), suffixes: upper };
        if truncate {
            self.retighten();
            right.retighten();
        }
        right
    }

    /// Extend the prefix by the common prefix of all suffixes.
    fn retighten(&mut self) {
        if self.suffixes.is_empty() {
            return;
        }
        let mut m = self.suffixes[0].len();
        for s in &self.suffixes[1..] {
            m = m.min(lcp_len(&self.suffixes[0], s));
            if m == 0 {
                return;
            }
        }
        if m > 0 {
            self.prefix.extend_from_slice(&self.suffixes[0][..m]);
            for s in &mut self.suffixes {
                *s = Box::from(&s[m..]);
            }
        }
    }

    /// Heap bytes: key-slot pointers (16 B each, the TLX "reference
    /// pointer") plus out-of-node key bytes plus the shared prefix.
    fn memory_bytes(&self) -> usize {
        self.prefix.len()
            + self
                .suffixes
                .iter()
                .map(|s| std::mem::size_of::<Box<[u8]>>() + s.len())
                .sum::<usize>()
    }
}

#[derive(Debug)]
struct LeafNode<V> {
    keys: KeyList,
    values: Vec<V>,
    next: u32,
}

#[derive(Debug)]
struct InnerNode {
    /// Separators; child `i` holds keys `< seps[i]`, child `i+1` keys
    /// `>= seps[i]`.
    seps: KeyList,
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
    /// Plain TLX-style B+tree (full keys behind reference pointers).
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
            Node::Leaf(LeafNode { keys: KeyList::default(), values: Vec::new(), next: NO_NODE });
        BPlusTree { nodes: vec![leaf], root: 0, len: 0, prefix_truncation, suffix_truncation }
    }

    /// Point lookup, borrowing the stored value.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Inner(inner) => {
                    let i = inner.seps.upper_bound(key);
                    at = inner.children[i];
                }
                Node::Leaf(leaf) => {
                    let i = leaf.keys.lower_bound(key);
                    return (i < leaf.keys.len()
                        && leaf.keys.cmp(i, key) == std::cmp::Ordering::Equal)
                        .then(|| &leaf.values[i]);
                }
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

    /// Total memory: node structures + key slots + out-of-node key bytes
    /// + in-node value slots.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf(l) => {
                    std::mem::size_of::<Node<V>>()
                        + l.keys.memory_bytes()
                        + l.values.len() * std::mem::size_of::<V>()
                }
                Node::Inner(i) => {
                    std::mem::size_of::<Node<V>>() + i.seps.memory_bytes() + i.children.len() * 4
                }
            })
            .sum()
    }

    /// Insert or update; returns the previous value if present.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        let root = self.root;
        let (split, old) = self.insert_rec(root, key, value);
        if let Some((sep, right)) = split {
            let mut seps = KeyList::default();
            seps.insert_at(0, &sep, self.prefix_truncation);
            let inner = InnerNode { seps, children: vec![root, right] };
            self.nodes.push(Node::Inner(inner));
            self.root = (self.nodes.len() - 1) as u32;
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
                    seps: KeyList::from_sorted(&seps[at..end - 1], self.prefix_truncation),
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
        let (sep_right, old) = match &mut self.nodes[at as usize] {
            Node::Leaf(leaf) => {
                let i = leaf.keys.lower_bound(key);
                if i < leaf.keys.len() && leaf.keys.cmp(i, key) == std::cmp::Ordering::Equal {
                    let old = std::mem::replace(&mut leaf.values[i], value);
                    return (None, Some(old));
                }
                let truncate = self.prefix_truncation;
                leaf.keys.insert_at(i, key, truncate);
                leaf.values.insert(i, value);
                if leaf.keys.len() <= FANOUT {
                    return (None, None);
                }
                // Split the leaf.
                let mid = leaf.keys.len() / 2;
                let left_max = leaf.keys.full_key(mid - 1);
                let right_min = leaf.keys.full_key(mid);
                let sep = leaf_separator(self.suffix_truncation, &left_max, &right_min);
                let rk = leaf.keys.split_off(mid, truncate);
                let rv = leaf.values.split_off(mid);
                let new_leaf = Node::Leaf(LeafNode { keys: rk, values: rv, next: leaf.next });
                if truncate {
                    leaf.keys.retighten();
                }
                self.nodes.push(new_leaf);
                let right = (self.nodes.len() - 1) as u32;
                if let Node::Leaf(l) = &mut self.nodes[at as usize] {
                    l.next = right;
                }
                (Some((sep, right)), None)
            }
            Node::Inner(inner) => {
                let i = inner.seps.upper_bound(key);
                let child = inner.children[i];
                let (split, old) = self.insert_rec(child, key, value);
                let Some((sep, right)) = split else {
                    return (None, old);
                };
                let truncate = self.prefix_truncation;
                let Node::Inner(inner) = &mut self.nodes[at as usize] else {
                    unreachable!("node kind changed")
                };
                let pos = inner.seps.lower_bound(&sep);
                inner.seps.insert_at(pos, &sep, truncate);
                inner.children.insert(pos + 1, right);
                if inner.seps.len() < FANOUT {
                    return (None, old);
                }
                // Split the inner node; the middle separator moves up.
                let mid = inner.seps.len() / 2;
                let up = inner.seps.full_key(mid);
                let mut rk = inner.seps.split_off(mid, truncate);
                // Drop the promoted separator from the right half.
                let promoted = rk.suffixes.remove(0);
                debug_assert_eq!(
                    {
                        let mut k = rk.prefix.clone();
                        k.extend_from_slice(&promoted);
                        k
                    },
                    up
                );
                if truncate {
                    rk.retighten();
                    inner.seps.retighten();
                }
                let rc = inner.children.split_off(mid + 1);
                self.nodes.push(Node::Inner(InnerNode { seps: rk, children: rc }));
                let right = (self.nodes.len() - 1) as u32;
                (Some((up, right)), old)
            }
        };
        (sep_right, old)
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
    /// Reconstruction): leaves of 12 keys (¾ of [`FANOUT`]) in exact-capacity
    /// storage, chained as they are pushed, then the inner levels
    /// bottom-up — no descent and no split per key. Into a tree that
    /// already holds keys the run is inserted pair by pair.
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
                keys: KeyList::from_sorted(&keys, self.prefix_truncation),
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
    /// plain tree hands out its stored slices; under prefix truncation
    /// the full key (node prefix + suffix) is rebuilt into one reused
    /// buffer.
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
                Some(h) if n > 0 && keys.cmp(n - 1, h) == std::cmp::Ordering::Greater => {
                    Some(keys.upper_bound(h))
                }
                _ => None,
            };
            // Inverted bounds put the end below `pos`: nothing to emit.
            let hits = pos.min(end.unwrap_or(n))..end.unwrap_or(n);
            for (suffix, value) in keys.suffixes[hits.clone()].iter().zip(&values[hits]) {
                let key: &[u8] = if keys.prefix.is_empty() {
                    suffix
                } else {
                    buf.clear();
                    buf.extend_from_slice(&keys.prefix);
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
                            assert_eq!(leaf.keys.suffixes.capacity(), want);
                            assert_eq!(leaf.values.capacity(), want);
                        }
                        Node::Inner(inner) => {
                            assert!(i >= leaves);
                            let fan = inner.children.len();
                            assert!((2..=LOAD_FILL).contains(&fan), "{n} keys: fan-out {fan}");
                            assert_eq!(inner.seps.len() + 1, fan);
                            assert_eq!(inner.seps.suffixes.capacity() + 1, fan);
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

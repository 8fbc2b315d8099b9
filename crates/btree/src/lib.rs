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
//! block**: the key bytes back to back in one buffer with a `u32` end
//! offset per key (the node prefix, under truncation, at the front), and
//! beside them each key's **head** — its 8 bytes after the block's common
//! prefix, big-endian in a `u64`. 12 bytes per key (end + head) plus the
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

/// The first 8 bytes of `s` as a big-endian `u64`, zero-padded. Heads
/// order as the strings do, except that they may tie where the strings
/// differ: past byte 8, or in zero padding (`a` and `a\0`).
#[inline]
fn head(s: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = s.len().min(8);
    b[..n].copy_from_slice(&s[..n]);
    u64::from_be_bytes(b)
}

/// A byte offset into a key block. A key may be 1 MiB
/// (`hope::MAX_KEY_BYTES`), so a node can hold far more than 64 KiB.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a key block holds less than 4 GiB")
}

/// A node's sorted keys: one byte buffer, a `u32` end offset per key and
/// a `u64` head per key.
///
/// `bytes` holds the node prefix (`plen` bytes; empty in a plain tree)
/// and then every key's bytes past it, back to back. Key `i` ends at
/// `ends[i]` and starts where key `i - 1` ends — key 0 right after the
/// prefix, so `bytes[..ends[0]]` is the whole first key. `skip` is the
/// common prefix of the first and the last key, hence of all of them;
/// `heads[i]` is [`head`] of key `i` from byte `skip`. Under prefix
/// truncation the node prefix is that common prefix (`plen == skip`).
#[derive(Debug, Default)]
struct KeyBlock {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    heads: Vec<u64>,
    plen: u32,
    skip: u32,
}

impl KeyBlock {
    /// The sorted keys `shared ++ k`, one per `k` of `keys`, in
    /// exact-size storage. Under truncation the node prefix is `shared`
    /// plus the common prefix of the first and the last `k`; otherwise
    /// `shared` is empty and keys are stored whole.
    fn packed<'a, I>(shared: &[u8], keys: I, truncate: bool) -> KeyBlock
    where
        I: ExactSizeIterator<Item = &'a [u8]> + Clone,
    {
        debug_assert!(truncate || shared.is_empty());
        let (Some(first), Some(last)) = (keys.clone().next(), keys.clone().last()) else {
            return KeyBlock::default();
        };
        let common = lcp_len(first, last);
        let cut = if truncate { common } else { 0 };
        let plen = shared.len() + cut;
        let mut bytes =
            Vec::with_capacity(plen + keys.clone().map(|k| k.len() - cut).sum::<usize>());
        bytes.extend_from_slice(shared);
        bytes.extend_from_slice(&first[..cut]);
        let mut ends = Vec::with_capacity(keys.len());
        let mut heads = Vec::with_capacity(keys.len());
        for k in keys {
            bytes.extend_from_slice(&k[cut..]);
            ends.push(offset(bytes.len()));
            heads.push(head(&k[common..]));
        }
        KeyBlock { bytes, ends, heads, plen: offset(plen), skip: offset(shared.len() + common) }
    }

    /// The block of **sorted** `keys` in exact-size storage.
    fn from_sorted<K: AsRef<[u8]>>(keys: &[K], truncate: bool) -> KeyBlock {
        KeyBlock::packed(&[], keys.iter().map(AsRef::as_ref), truncate)
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn prefix(&self) -> &[u8] {
        &self.bytes[..self.plen as usize]
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            self.plen as usize
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// Key `i` past the node prefix.
    fn suffix(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// Key `i` past the common prefix: what its head was taken from.
    fn tail(&self, i: usize) -> &[u8] {
        &self.suffix(i)[(self.skip - self.plen) as usize..]
    }

    fn full_key(&self, i: usize) -> Vec<u8> {
        [self.prefix(), self.suffix(i)].concat()
    }

    /// Compare stored key `i` with `q` without materializing it.
    fn cmp(&self, i: usize, q: &[u8]) -> Ordering {
        let p = self.prefix();
        let n = p.len().min(q.len());
        match p[..n].cmp(&q[..n]) {
            // Stored starts with more than q has.
            Ordering::Equal if q.len() < p.len() => Ordering::Greater,
            Ordering::Equal => self.suffix(i).cmp(&q[p.len()..]),
            other => other,
        }
    }

    /// `Ok(i)` if key `i` is `q`, else `Err(i)` with `i` keys below `q`.
    fn search(&self, q: &[u8]) -> Result<usize, usize> {
        let n = self.len();
        if n == 0 {
            return Err(0);
        }
        // 1. The common prefix, once: a mismatch puts q below or above
        //    every key.
        let skip = self.skip as usize;
        let m = skip.min(q.len());
        match q[..m].cmp(&self.bytes[..m]) {
            Ordering::Less => return Err(0),
            Ordering::Greater => return Err(n),
            Ordering::Equal if m < skip => return Err(0),
            Ordering::Equal => {}
        }
        // 2. The heads below q's, counted without a branch: each of those
        //    keys is below q.
        let q = &q[skip..];
        let qh = head(q);
        let mut i = self.heads.iter().map(|&h| usize::from(h < qh)).sum::<usize>();
        // 3. Bytes, only along the run of heads tying with q's.
        while i < n && self.heads[i] == qh {
            match self.tail(i).cmp(q) {
                Ordering::Less => i += 1,
                Ordering::Equal => return Ok(i),
                Ordering::Greater => break,
            }
        }
        Err(i)
    }

    /// First index whose key is `>= q`.
    fn lower_bound(&self, q: &[u8]) -> usize {
        match self.search(q) {
            Ok(i) | Err(i) => i,
        }
    }

    /// First index whose key is `> q` (a block's keys are distinct).
    fn upper_bound(&self, q: &[u8]) -> usize {
        match self.search(q) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Insert `key` at sorted position `i`: its bytes, end and head are
    /// spliced in place. The common prefix can only shrink; when it does,
    /// every head is taken again (and, under truncation, the node prefix
    /// gives its dropped bytes back to every key).
    fn insert_at(&mut self, i: usize, key: &[u8], truncate: bool) {
        let n = self.len();
        if n == 0 {
            // One key is its own common prefix.
            self.reserve(key.len(), if truncate { key.len() } else { 0 });
            self.bytes.extend_from_slice(key);
            self.ends.push(offset(key.len()));
            self.heads.push(0);
            self.skip = offset(key.len());
            self.plen = if truncate { self.skip } else { 0 };
            return;
        }
        let skip = lcp_len(&self.bytes[..self.skip as usize], key);
        let plen = if truncate { skip } else { 0 };
        let dropped = self.plen as usize - plen;
        self.reserve(key.len() - plen + dropped * n, plen);
        if dropped > 0 {
            self.expand_prefix(plen);
        }
        let at = self.start(i);
        let suffix = &key[plen..];
        self.bytes.splice(at..at, suffix.iter().copied());
        for e in &mut self.ends[i..] {
            *e += suffix.len() as u32;
        }
        self.ends.insert(i, offset(at + suffix.len()));
        if skip == self.skip as usize {
            self.heads.insert(i, head(&key[skip..]));
        } else {
            self.skip = offset(skip);
            self.heads.insert(i, 0);
            self.rehead();
        }
    }

    /// Room for one more key and `extra` more bytes, `plen` of the bytes
    /// being the node prefix. A full block grows **once**, to
    /// [`BLOCK_KEYS`] keys at its mean key length, and never doubles past
    /// that: a loaded block stays at exact size until written, and a
    /// split's left half keeps what it has (DESIGN.md, "Key blocks").
    fn reserve(&mut self, extra: usize, plen: usize) {
        let n = self.len() + 1;
        if self.ends.capacity() < n {
            let keys = BLOCK_KEYS.max(n);
            self.ends.reserve_exact(keys - self.ends.len());
            self.heads.reserve_exact(keys - self.heads.len());
        }
        let want = self.bytes.len() + extra;
        assert!(u32::try_from(want).is_ok(), "a key block holds less than 4 GiB");
        if self.bytes.capacity() < want {
            let room = (want - plen) / n * BLOCK_KEYS.saturating_sub(n);
            self.bytes.reserve_exact(extra + room);
        }
    }

    /// Cut the node prefix to its first `plen` bytes, handing the rest to
    /// the front of every key. Key 0 keeps its place (the dropped bytes
    /// already precede it); key `i` moves right by `i` times the cut.
    fn expand_prefix(&mut self, plen: usize) {
        let old = self.plen as usize;
        let d = old - plen;
        let n = self.len();
        self.bytes.resize(self.bytes.len() + d * (n - 1), 0);
        for i in (1..n).rev() {
            let (s, e) = (self.ends[i - 1] as usize, self.ends[i] as usize);
            self.bytes.copy_within(s..e, s + d * i);
            self.bytes.copy_within(plen..old, s + d * (i - 1));
            self.ends[i] = offset(e + d * i);
        }
        self.plen = offset(plen);
    }

    /// Move the first `cut` bytes of every key, common to all, into the
    /// node prefix: the inverse of [`KeyBlock::expand_prefix`].
    fn extend_prefix(&mut self, cut: usize) {
        let n = self.len();
        let mut s = self.ends[0] as usize;
        for i in 1..n {
            let e = self.ends[i] as usize;
            self.bytes.copy_within(s + cut..e, s - cut * (i - 1));
            self.ends[i] = offset(e - cut * i);
            s = e;
        }
        self.bytes.truncate(self.bytes.len() - cut * (n - 1));
        self.plen += offset(cut);
    }

    /// Take every head again, from `skip`.
    fn rehead(&mut self) {
        for i in 0..self.len() {
            self.heads[i] = head(self.tail(i));
        }
    }

    /// Split keys `from..` off into an exact-size block and keep keys
    /// `..at` here, in this block's buffers, re-tightening `skip` (and
    /// under truncation the node prefix) on both sides.
    fn split_off(&mut self, at: usize, from: usize, truncate: bool) -> KeyBlock {
        let right =
            KeyBlock::packed(self.prefix(), (from..self.len()).map(|i| self.suffix(i)), truncate);
        self.bytes.truncate(self.ends[at - 1] as usize);
        self.ends.truncate(at);
        self.heads.truncate(at);
        let skip = self.plen as usize + lcp_len(self.suffix(0), self.suffix(at - 1));
        if truncate && skip > self.plen as usize {
            self.extend_prefix(skip - self.plen as usize);
        }
        if skip != self.skip as usize {
            self.skip = offset(skip);
            self.rehead();
        }
        right
    }

    /// Heap bytes: the three buffers' capacities.
    fn memory_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * 4 + self.heads.capacity() * 8
    }
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
            seps.insert_at(0, &sep, self.prefix_truncation);
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
                leaf.keys.insert_at(i, key, truncate);
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
                inner.seps.insert_at(pos, &sep, truncate);
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
            let mut start = keys.start(hits.start);
            for (&stop, value) in keys.ends[hits.clone()].iter().zip(&values[hits]) {
                let suffix = &keys.bytes[start..stop as usize];
                start = stop as usize;
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

    /// `block` holds `n` keys in buffers of exact size.
    fn assert_exact(block: &KeyBlock, n: usize) {
        assert_eq!(block.len(), n);
        assert_eq!(block.ends.capacity(), n);
        assert_eq!(block.heads.capacity(), n);
        assert_eq!(block.bytes.capacity(), block.bytes.len());
    }

    /// Every string of up to 4 letters over `0x00`, `a`, `0xff`, sorted. A
    /// letter is `width` copies of its byte: at width 3 strings share
    /// 8-byte heads and differ after them, and at width 1 `a` and `a\0`
    /// tie in theirs.
    fn words(width: usize) -> Vec<Vec<u8>> {
        let mut all = vec![Vec::new()];
        let mut level = vec![Vec::new()];
        for _ in 0..4 {
            level = level
                .iter()
                .flat_map(|w: &Vec<u8>| {
                    [0x00, b'a', 0xff].map(|c| [&w[..], &vec![c; width]].concat())
                })
                .collect();
            all.extend(level.iter().cloned());
        }
        all.sort();
        all
    }

    /// `block` holds exactly the sorted `keys`, with a tight `skip`, node
    /// prefix and heads, and both bounds agree with `partition_point` on
    /// every query.
    fn check_block(block: &KeyBlock, keys: &[&[u8]], truncate: bool, queries: &[Vec<u8>]) {
        assert_eq!(block.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(block.full_key(i), *k, "{keys:?}: key {i}");
        }
        if let (Some(first), Some(last)) = (keys.first(), keys.last()) {
            let skip = lcp_len(first, last);
            assert_eq!(block.skip as usize, skip, "{keys:?}");
            assert_eq!(block.plen as usize, if truncate { skip } else { 0 }, "{keys:?}");
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(block.heads[i], head(&k[skip..]), "{keys:?}: head {i}");
            }
        }
        for q in queries {
            let q = q.as_slice();
            let lower = keys.partition_point(|k| *k < q);
            let upper = keys.partition_point(|k| *k <= q);
            assert_eq!(block.lower_bound(q), lower, "{keys:?}: lower_bound({q:?})");
            assert_eq!(block.upper_bound(q), upper, "{keys:?}: upper_bound({q:?})");
        }
    }

    /// Key blocks of up to [`BLOCK_KEYS`] keys — runs of neighbouring
    /// words (long common prefixes) and strided picks (none) — answer like
    /// `partition_point`, whether packed, built by inserts in a scrambled
    /// order (the prefix and `skip` shrinking as they go) or cut by a
    /// leaf or an inner split.
    #[test]
    fn key_block_bounds_match_partition_point() {
        for width in [1, 3] {
            let words = words(width);
            for truncate in [false, true] {
                for start in 0..words.len() {
                    for (n, stride) in [(1, 1), (2, 1), (5, 1), (12, 1), (17, 1), (5, 7), (17, 7)] {
                        let keys: Vec<&[u8]> = (0..n)
                            .map(|j| start + j * stride)
                            .take_while(|&at| at < words.len())
                            .map(|at| words[at].as_slice())
                            .collect();
                        let packed = KeyBlock::from_sorted(&keys, truncate);
                        assert_exact(&packed, keys.len());
                        check_block(&packed, &keys, truncate, &words);

                        let mut inserted = KeyBlock::default();
                        let n = keys.len();
                        let odd_then_even: Vec<usize> =
                            (1..n).step_by(2).chain((0..n).step_by(2).rev()).collect();
                        for j in 0..n {
                            let k = keys[odd_then_even[(j + start) % n]];
                            inserted.insert_at(inserted.lower_bound(k), k, truncate);
                        }
                        check_block(&inserted, &keys, truncate, &words);

                        if n >= 3 {
                            let mid = n / 2;
                            let mut left = KeyBlock::from_sorted(&keys, truncate);
                            let right = left.split_off(mid, mid, truncate);
                            check_block(&left, &keys[..mid], truncate, &words);
                            check_block(&right, &keys[mid..], truncate, &words);
                            assert_exact(&right, n - mid);
                            let right = inserted.split_off(mid, mid + 1, truncate);
                            check_block(&inserted, &keys[..mid], truncate, &words);
                            check_block(&right, &keys[mid + 1..], truncate, &words);
                        }
                    }
                }
            }
        }
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
                            assert_exact(&leaf.keys, want);
                            assert_eq!(leaf.values.capacity(), want);
                        }
                        Node::Inner(inner) => {
                            assert!(i >= leaves);
                            let fan = inner.children.len();
                            assert!((2..=LOAD_FILL).contains(&fan), "{n} keys: fan-out {fan}");
                            assert_eq!(inner.seps.len() + 1, fan);
                            assert_exact(&inner.seps, fan - 1);
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

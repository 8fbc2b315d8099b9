//! # hope_art — Adaptive Radix Tree substrate
//!
//! A from-scratch ART (Leis et al., ICDE 2013) — the default index of
//! HyPer and one of the five search trees the HOPE paper evaluates on.
//! Nodes adapt among four layouts (Node4/16/48/256) by fan-out; paths with
//! single branches are compressed, and, as in the original, compressed
//! prefixes are stored **optimistically**: only the first
//! [`MAX_STORED_PREFIX`] bytes are kept inline (OCPS), with the full key
//! re-checked at the leaf — the partial-key behaviour §5 of the HOPE paper
//! discusses. The same descent reads a key's bytes as it goes
//! ([`Art::seek`]): it asks for a byte only when its next node reads one,
//! and the leaf it reaches is the one stored key the key can be, which
//! the caller checks — so a store encodes a probe key only as far as the
//! bytes that isolate it.
//!
//! Keys are arbitrary byte strings; a key may be a prefix of another key
//! (required for HOPE-encoded keys), handled by a per-node terminator slot.
//! The leaves are packed: leaf `i` is key `i` of one [`KeyRun`] — the keys
//! back to back with a `u32` end each — and value `i` of one `Vec<V>`, so
//! no key has an allocation of its own. A node is 40 bytes: its stored
//! prefix inline, and a Node16's, Node48's or Node256's child arrays
//! boxed. [`hope::OrderedIndex::load_sorted`] into an empty tree builds
//! each node once from the sorted run, with the kind its fan-out needs —
//! the very nodes inserting the run would leave. The tree is generic over
//! its value payload (`Art<V>`, any [`hope::Value`]; defaults to `u64`
//! record ids) and implements the [`hope::OrderedIndex<V>`] contract
//! serving layers program against.
//!
//! ```
//! use hope::OrderedIndex;
//! use hope_art::Art;
//!
//! let mut art = Art::new();
//! art.insert(b"com.gmail@alice", 1);
//! art.insert(b"com.gmail@bob", 2);
//! assert_eq!(art.get(b"com.gmail@alice"), Some(1));
//! let mut hits = Vec::new();
//! art.range_into(b"com.gmail@", b"com.gmail@~", 10, &mut hits);
//! assert_eq!(hits, vec![1, 2]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::ops::Range;

use hope::axis::lcp_len;
use hope::index::KeyRun;
use hope::{EncodedBytes, Probe};

/// Maximum number of compressed-prefix bytes stored inline (the paper's
/// optimistic common prefix skipping threshold).
pub const MAX_STORED_PREFIX: usize = 8;

const LEAF_TAG: u32 = 0x8000_0000;
const NONE_PTR: u32 = u32::MAX;

/// Tagged pointer: leaf index or node index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ptr(u32);

impl Ptr {
    const NONE: Ptr = Ptr(NONE_PTR);

    fn leaf(i: usize) -> Ptr {
        debug_assert!((i as u32) < LEAF_TAG);
        Ptr(i as u32 | LEAF_TAG)
    }

    fn node(i: usize) -> Ptr {
        debug_assert!((i as u32) < LEAF_TAG);
        Ptr(i as u32)
    }

    fn is_none(self) -> bool {
        self.0 == NONE_PTR
    }

    fn as_leaf(self) -> Option<usize> {
        (self.0 != NONE_PTR && self.0 & LEAF_TAG != 0).then_some((self.0 & !LEAF_TAG) as usize)
    }

    fn as_node(self) -> Option<usize> {
        (self.0 != NONE_PTR && self.0 & LEAF_TAG == 0).then_some(self.0 as usize)
    }
}

/// A Node16's labels and children: boxed like Node48's and Node256's
/// arrays, so that every node is 40 bytes (DESIGN.md "ART on a key run").
#[derive(Debug)]
struct Slots16 {
    labels: [u8; 16],
    ptrs: [Ptr; 16],
}

/// Adaptive children container (Node4 → Node16 → Node48 → Node256).
#[derive(Debug)]
enum Children {
    N4 { count: u8, labels: [u8; 4], ptrs: [Ptr; 4] },
    N16 { count: u8, slots: Box<Slots16> },
    N48 { index: Box<[u8; 256]>, ptrs: Box<[Ptr; 48]>, count: u8 },
    N256 { ptrs: Box<[Ptr; 256]> },
}

const NO_SLOT: u8 = 0xFF;

/// The child labelled `label` among sorted `labels`.
fn find(labels: &[u8], ptrs: &[Ptr], label: u8) -> Option<Ptr> {
    labels.iter().position(|&l| l == label).map(|i| ptrs[i])
}

/// Insert or replace `label` among the first `count` of sorted `labels`;
/// false when it is new and every slot is taken.
fn set_sorted(count: &mut u8, labels: &mut [u8], ptrs: &mut [Ptr], label: u8, ptr: Ptr) -> bool {
    let c = *count as usize;
    let pos = labels[..c].partition_point(|&l| l < label);
    if pos < c && labels[pos] == label {
        ptrs[pos] = ptr;
        return true;
    }
    if c == labels.len() {
        return false;
    }
    labels.copy_within(pos..c, pos + 1);
    ptrs.copy_within(pos..c, pos + 1);
    labels[pos] = label;
    ptrs[pos] = ptr;
    *count += 1;
    true
}

impl Children {
    fn new() -> Self {
        Children::N4 { count: 0, labels: [0; 4], ptrs: [Ptr::NONE; 4] }
    }

    /// An empty container of the smallest kind that holds `fanout`
    /// children.
    fn for_fanout(fanout: usize) -> Self {
        match fanout {
            0..=4 => Children::new(),
            5..=16 => Children::N16 {
                count: 0,
                slots: Box::new(Slots16 { labels: [0; 16], ptrs: [Ptr::NONE; 16] }),
            },
            17..=48 => Children::N48 {
                index: Box::new([NO_SLOT; 256]),
                ptrs: Box::new([Ptr::NONE; 48]),
                count: 0,
            },
            _ => Children::N256 { ptrs: Box::new([Ptr::NONE; 256]) },
        }
    }

    /// Children this kind holds before it grows.
    fn capacity(&self) -> usize {
        match self {
            Children::N4 { .. } => 4,
            Children::N16 { .. } => 16,
            Children::N48 { .. } => 48,
            Children::N256 { .. } => 256,
        }
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        match self {
            Children::N4 { count, labels, ptrs } => find(&labels[..*count as usize], ptrs, label),
            Children::N16 { count, slots } => {
                find(&slots.labels[..*count as usize], &slots.ptrs, label)
            }
            Children::N48 { index, ptrs, .. } => {
                let s = index[label as usize];
                (s != NO_SLOT).then(|| ptrs[s as usize])
            }
            Children::N256 { ptrs } => {
                let p = ptrs[label as usize];
                (!p.is_none()).then_some(p)
            }
        }
    }

    /// Insert or replace; grows the node layout when full.
    fn set(&mut self, label: u8, ptr: Ptr) {
        let room = match self {
            Children::N4 { count, labels, ptrs } => set_sorted(count, labels, ptrs, label, ptr),
            Children::N16 { count, slots } => {
                let Slots16 { labels, ptrs } = &mut **slots;
                set_sorted(count, labels, ptrs, label, ptr)
            }
            Children::N48 { index, ptrs, count } => {
                let s = index[label as usize];
                let c = *count as usize;
                if s != NO_SLOT {
                    ptrs[s as usize] = ptr;
                } else if c < 48 {
                    index[label as usize] = *count;
                    ptrs[c] = ptr;
                    *count += 1;
                }
                s != NO_SLOT || c < 48
            }
            Children::N256 { ptrs } => {
                ptrs[label as usize] = ptr;
                true
            }
        };
        if !room {
            self.grow_and_set(label, ptr);
        }
    }

    /// Move the children into the next kind up, then set `label`.
    fn grow_and_set(&mut self, label: u8, ptr: Ptr) {
        let mut grown = Children::for_fanout(self.capacity() + 1);
        self.for_each_from(0, |l, p| {
            grown.set(l, p);
            true
        });
        grown.set(label, ptr);
        *self = grown;
    }

    /// Visit `(label, ptr)` in ascending label order starting at `from`;
    /// the callback returns `false` to stop.
    fn for_each_from(&self, from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
        let (labels, ptrs) = match self {
            Children::N4 { count, labels, ptrs } => (&labels[..*count as usize], &ptrs[..]),
            Children::N16 { count, slots } => (&slots.labels[..*count as usize], &slots.ptrs[..]),
            Children::N48 { index, ptrs, .. } => {
                for l in from..256 {
                    let s = index[l as usize];
                    if s != NO_SLOT && !f(l as u8, ptrs[s as usize]) {
                        return;
                    }
                }
                return;
            }
            Children::N256 { ptrs } => {
                for l in from..256 {
                    let p = ptrs[l as usize];
                    if !p.is_none() && !f(l as u8, p) {
                        return;
                    }
                }
                return;
            }
        };
        for (&l, &p) in labels.iter().zip(ptrs) {
            if (l as u16) >= from && !f(l, p) {
                return;
            }
        }
    }

    /// First child in label order.
    fn first(&self) -> Option<(u8, Ptr)> {
        let mut out = None;
        self.for_each_from(0, |l, p| {
            out = Some((l, p));
            false
        });
        out
    }

    /// Bytes of this kind's boxed arrays.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            Children::N4 { .. } => 0,
            Children::N16 { .. } => size_of::<Slots16>(),
            Children::N48 { .. } => size_of::<[u8; 256]>() + size_of::<[Ptr; 48]>(),
            Children::N256 { .. } => size_of::<[Ptr; 256]>(),
        }
    }
}

#[derive(Debug)]
struct Node {
    /// First `min(prefix_len, MAX_STORED_PREFIX)` bytes of the compressed
    /// path (optimistic storage); the rest of the array is unused.
    prefix: [u8; MAX_STORED_PREFIX],
    /// Full compressed-path length in bytes (may exceed the stored bytes).
    prefix_len: u32,
    /// Leaf for a key ending exactly at this node (prefix-key support).
    term: Ptr,
    children: Children,
}

/// The stored head of the compressed path `path`, and its full length.
fn path_head(path: &[u8]) -> ([u8; MAX_STORED_PREFIX], u32) {
    let mut head = [0; MAX_STORED_PREFIX];
    let stored = path.len().min(MAX_STORED_PREFIX);
    head[..stored].copy_from_slice(&path[..stored]);
    (head, u32::try_from(path.len()).expect("a key is under 4 GiB"))
}

impl Node {
    /// A node under the compressed path `path`, with no terminator.
    fn new(path: &[u8], children: Children) -> Node {
        let (prefix, prefix_len) = path_head(path);
        Node { prefix, prefix_len, term: Ptr::NONE, children }
    }

    /// The stored bytes of the compressed path.
    fn stored_prefix(&self) -> &[u8] {
        &self.prefix[..(self.prefix_len as usize).min(MAX_STORED_PREFIX)]
    }
}

/// The Adaptive Radix Tree over byte-string keys and `V` values
/// (default: `u64` ids).
#[derive(Debug)]
pub struct Art<V = u64> {
    nodes: Vec<Node>,
    /// The leaves: leaf `i`'s key is key `i` of `keys` and its value
    /// `values[i]`, in insertion order — or in key order after a load.
    keys: KeyRun,
    values: Vec<V>,
    root: Option<Ptr>,
    /// Heap bytes of the nodes' boxed child arrays, kept up to date as
    /// nodes grow and as the loader builds them, so that
    /// [`Art::memory_bytes`] walks nothing.
    boxed_bytes: usize,
}

impl<V> Default for Art<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Art<V> {
    /// New empty tree.
    pub fn new() -> Self {
        Art {
            nodes: Vec::new(),
            keys: KeyRun::default(),
            values: Vec::new(),
            root: None,
            boxed_bytes: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Memory footprint, every buffer at capacity: the nodes plus the
    /// leaves' key run and values. O(1).
    pub fn memory_bytes(&self) -> usize {
        self.node_memory_bytes()
            + self.keys.heap_bytes()
            + self.values.capacity() * std::mem::size_of::<V>()
    }

    /// Memory of the inner structure only (leaf keys and values
    /// excluded): the node array at capacity and the boxed child arrays.
    pub fn node_memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>() + self.boxed_bytes
    }

    /// Point lookup with final-key verification (OCPS makes intermediate
    /// comparisons optimistic; the leaf check is authoritative), borrowing
    /// the stored value: [`Art::seek`]'s descent, then the leaf's key.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let leaf = self.descend(&mut &*key)?;
        (self.keys.get(leaf) == key).then(|| &self.values[leaf])
    }

    /// Point lookup on a key whose bytes `key` produces as they are asked
    /// for ([`hope::OrderedIndex::seek`]): one descent, which asks for
    /// bytes only when the next node reads past those it holds — the
    /// node's stored path head and its branch byte. A leaf it reaches, or
    /// the `term` leaf of a node where the key ends, is the one stored key
    /// the key can be: a [`Probe::Candidate`] the caller confirms. A
    /// differing stored path byte, a missing branch, or a key that ends
    /// inside a path or at a node without a `term` leaf is
    /// [`Probe::Absent`].
    ///
    /// OCPS compares only the stored head of a compressed path, so a
    /// descent can pass a path the key leaves in an unstored byte; then
    /// no stored key is the key, and any leaf is a valid candidate.
    ///
    /// ```
    /// use hope::Probe;
    /// use hope_art::Art;
    ///
    /// let mut art = Art::new();
    /// art.insert(b"apple", 1);
    /// art.insert(b"apricot", 2);
    /// art.insert(b"banana", 3);
    /// assert_eq!(art.seek(&mut &b"bandana"[..]), Probe::Candidate(&3));
    /// assert_eq!(art.seek(&mut &b"apricot"[..]), Probe::Candidate(&2));
    /// assert_eq!(art.seek(&mut &b"ap"[..]), Probe::Absent);
    /// assert_eq!(art.seek(&mut &b"cherry"[..]), Probe::Absent);
    /// ```
    pub fn seek(&self, key: &mut dyn EncodedBytes) -> Probe<'_, V> {
        self.descend(key).map_or(Probe::Absent, |leaf| Probe::Candidate(&self.values[leaf]))
    }

    /// The descent behind [`Art::get_ref`] and [`Art::seek`]: the leaf
    /// `key` reaches, unchecked.
    fn descend<K: EncodedBytes + ?Sized>(&self, key: &mut K) -> Option<usize> {
        let mut ptr = self.root?;
        let (mut bytes, mut whole): (&[u8], bool) = (&[], false);
        let mut pos = 0usize;
        loop {
            if let Some(leaf) = ptr.as_leaf() {
                return Some(leaf);
            }
            let node = &self.nodes[ptr.as_node()?];
            // The branch byte's position: the node reads up to it.
            let branch = pos + node.prefix_len as usize;
            if bytes.len() <= branch && !whole {
                (bytes, whole) = key.at_least(branch + 1);
            }
            let stored = node.stored_prefix();
            let known = stored.len().min(bytes.len() - pos);
            if bytes[pos..pos + known] != stored[..known] {
                return None;
            }
            // The key ends inside the path, or at its end.
            let Some(&label) = bytes.get(branch) else {
                return node.term.as_leaf().filter(|_| bytes.len() == branch);
            };
            ptr = node.children.get(label)?;
            pos = branch + 1;
        }
    }

    /// Insert or update; returns the previous value if the key existed.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        match self.root {
            None => {
                self.root = Some(self.new_leaf(key, value));
                None
            }
            Some(root) => {
                let (ptr, old) = self.insert_rec(root, key, 0, value);
                self.root = Some(ptr);
                old
            }
        }
    }

    fn new_leaf(&mut self, key: &[u8], value: V) -> Ptr {
        self.keys.reserve_bytes(key.len());
        self.keys.push(key);
        self.values.push(value);
        Ptr::leaf(self.values.len() - 1)
    }

    /// Set a child of node `node`, counting the boxed bytes a growth
    /// adds.
    fn set_child(&mut self, node: usize, label: u8, ptr: Ptr) {
        let children = &mut self.nodes[node].children;
        let before = children.heap_bytes();
        children.set(label, ptr);
        self.boxed_bytes += children.heap_bytes() - before;
    }

    /// Full bytes of a node's compressed path, recovered from the minimum
    /// leaf when the stored prefix was truncated (the standard OCPS trick:
    /// load the actual key from the record).
    fn full_prefix(&self, node_idx: usize, depth: usize) -> &[u8] {
        let node = &self.nodes[node_idx];
        let pl = node.prefix_len as usize;
        if pl <= MAX_STORED_PREFIX {
            return &node.prefix[..pl];
        }
        &self.keys.get(self.min_leaf(Ptr::node(node_idx)))[depth..depth + pl]
    }

    fn min_leaf(&self, ptr: Ptr) -> usize {
        let mut p = ptr;
        loop {
            if let Some(l) = p.as_leaf() {
                return l;
            }
            let node = &self.nodes[p.as_node().expect("valid ptr")];
            if let Some(l) = node.term.as_leaf() {
                return l;
            }
            p = node.children.first().expect("non-empty node").1;
        }
    }

    /// Insert under `ptr` (subtree rooted at key depth `pos`); returns the
    /// possibly-new subtree pointer and any replaced value.
    fn insert_rec(&mut self, ptr: Ptr, key: &[u8], pos: usize, value: V) -> (Ptr, Option<V>) {
        let rest = &key[pos..];
        if let Some(leaf_idx) = ptr.as_leaf() {
            if self.keys.get(leaf_idx) == key {
                let old = std::mem::replace(&mut self.values[leaf_idx], value);
                return (ptr, Some(old));
            }
            // Split into a node holding both leaves.
            let existing = &self.keys.get(leaf_idx)[pos..];
            let m = lcp_len(existing, rest);
            let existing_next = existing.get(m).copied();
            let mut node = Node::new(&rest[..m], Children::new());
            let new_leaf = self.new_leaf(key, value);
            match existing_next {
                None => {
                    node.term = ptr;
                    node.children.set(rest[m], new_leaf);
                }
                Some(label) if rest.len() == m => {
                    node.term = new_leaf;
                    node.children.set(label, ptr);
                }
                Some(label) => {
                    node.children.set(label, ptr);
                    node.children.set(rest[m], new_leaf);
                }
            }
            self.nodes.push(node);
            return (Ptr::node(self.nodes.len() - 1), None);
        }

        let node_idx = ptr.as_node().expect("valid ptr");
        let pl = self.nodes[node_idx].prefix_len as usize;
        // Pessimistic comparison against the *full* prefix (recovered from
        // a leaf if truncated) — required for correct splits.
        let full = self.full_prefix(node_idx, pos);
        let m = lcp_len(full, rest);
        if m < pl {
            // Split the compressed path at m: the old node keeps what
            // follows the branch byte.
            let old_branch = full[m];
            let (tail, tail_len) = path_head(&full[m + 1..]);
            let new_leaf = self.new_leaf(key, value);
            let mut parent = Node::new(&rest[..m], Children::new());
            let old = &mut self.nodes[node_idx];
            (old.prefix, old.prefix_len) = (tail, tail_len);
            parent.children.set(old_branch, ptr);
            if rest.len() == m {
                parent.term = new_leaf;
            } else {
                parent.children.set(rest[m], new_leaf);
            }
            self.nodes.push(parent);
            return (Ptr::node(self.nodes.len() - 1), None);
        }
        let pos = pos + pl;
        if pos == key.len() {
            let old_term = self.nodes[node_idx].term;
            if let Some(t) = old_term.as_leaf() {
                let old = std::mem::replace(&mut self.values[t], value);
                return (ptr, Some(old));
            }
            let new_leaf = self.new_leaf(key, value);
            self.nodes[node_idx].term = new_leaf;
            return (ptr, None);
        }
        let c = key[pos];
        match self.nodes[node_idx].children.get(c) {
            Some(child) => {
                let (new_child, old) = self.insert_rec(child, key, pos + 1, value);
                if new_child != child {
                    self.set_child(node_idx, c, new_child);
                }
                (ptr, old)
            }
            None => {
                let new_leaf = self.new_leaf(key, value);
                self.set_child(node_idx, c, new_leaf);
                (ptr, None)
            }
        }
    }

    /// Build the subtree of the loaded leaves `leaves` — consecutive keys
    /// of the run, sharing their first `depth` bytes — and return its
    /// root. A node is pushed before its children (DFS pre-order) with
    /// the kind its fan-out needs, so no node grows or moves.
    fn load_subtree(&mut self, leaves: Range<usize>, depth: usize) -> Ptr {
        if leaves.len() == 1 {
            return Ptr::leaf(leaves.start);
        }
        let first = self.keys.get(leaves.start);
        let last = self.keys.get(leaves.end - 1);
        let d = depth + lcp_len(&first[depth..], &last[depth..]);
        // Only the first key can end at the branch point (keys are
        // distinct and sorted); every other one has a byte `d`.
        let term = first.len() == d;
        let kids = leaves.start + term as usize..leaves.end;
        let mut fanout = 0;
        let mut at = kids.start;
        while at < kids.end {
            at = self.label_end(at..kids.end, d);
            fanout += 1;
        }
        let mut node = Node::new(&first[depth..d], Children::for_fanout(fanout));
        if term {
            node.term = Ptr::leaf(leaves.start);
        }
        self.boxed_bytes += node.children.heap_bytes();
        let id = self.nodes.len();
        self.nodes.push(node);
        let mut at = kids.start;
        while at < kids.end {
            let (label, end) = (self.keys.get(at)[d], self.label_end(at..kids.end, d));
            let child = self.load_subtree(at..end, d + 1);
            self.nodes[id].children.set(label, child);
            at = end;
        }
        Ptr::node(id)
    }

    /// End of the keys from `keys.start` on whose byte `d` is that of key
    /// `keys.start`: every key in `keys` is longer than `d`, and the run is
    /// sorted, so they are consecutive. Galloping, then binary search:
    /// most groups are short.
    fn label_end(&self, keys: Range<usize>, d: usize) -> usize {
        let label = self.keys.get(keys.start)[d];
        let same = |i: usize| self.keys.get(i)[d] == label;
        // `same` holds below `lo` and fails at `hi` (or `hi` is the end).
        let (mut lo, mut step) = (keys.start + 1, 1);
        let mut hi = loop {
            let probe = keys.start + step;
            if probe >= keys.end {
                break keys.end;
            }
            if !same(probe) {
                break probe;
            }
            lo = probe + 1;
            step *= 2;
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if same(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Point lookup, cloning the stored value (a copy for `u64` ids). Use
    /// [`Art::get_ref`] to borrow instead.
    pub fn get(&self, key: &[u8]) -> Option<V>
    where
        V: Clone,
    {
        self.get_ref(key).cloned()
    }

    /// In-order traversal (a node's terminator leaf sorts before its
    /// children); `bounded` = the subtree may still contain keys below
    /// `start` (we are on the boundary path). `f` returning false stops
    /// the walk.
    fn scan_rec(
        &self,
        ptr: Ptr,
        depth: usize,
        start: &[u8],
        bounded: bool,
        f: &mut dyn FnMut(&[u8], &V) -> bool,
    ) -> bool {
        if let Some(leaf) = ptr.as_leaf() {
            let key = self.keys.get(leaf);
            return (bounded && key < start) || f(key, &self.values[leaf]);
        }
        let node_idx = ptr.as_node().expect("valid ptr");
        let node = &self.nodes[node_idx];
        let pl = node.prefix_len as usize;
        let mut from: u16 = 0;
        let mut boundary_child = false;
        let mut include_term = true;
        if bounded {
            let full = self.full_prefix(node_idx, depth);
            let rest = if depth <= start.len() { &start[depth..] } else { &[][..] };
            let m = lcp_len(full, rest);
            if m < pl {
                if m < rest.len() && rest[m] > full[m] {
                    return true; // whole subtree below start
                }
                // Subtree entirely above start: scan it all.
            } else if rest.len() > pl {
                // Boundary continues into one child; term (= exactly the
                // node path) lies below start.
                from = rest[pl] as u16;
                boundary_child = true;
                include_term = false;
            }
            // else rest == full prefix: term is exactly start — include.
        }
        if let Some(t) = node.term.as_leaf() {
            // On the boundary path the term may still lie below start.
            let in_range = include_term || self.keys.get(t) >= start;
            if in_range && !f(self.keys.get(t), &self.values[t]) {
                return false;
            }
        }
        let mut keep_going = true;
        node.children.for_each_from(from, |label, child| {
            let child_bounded = boundary_child && (label as u16) == from;
            keep_going = self.scan_rec(child, depth + pl + 1, start, child_bounded, f);
            keep_going
        });
        keep_going
    }

    /// Average leaf depth in node steps (tree-height diagnostic).
    pub fn avg_depth(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sum = 0u64;
        let mut stack = vec![(self.root.expect("non-empty"), 0u32)];
        while let Some((ptr, d)) = stack.pop() {
            if ptr.as_leaf().is_some() {
                sum += d as u64;
                continue;
            }
            let node = &self.nodes[ptr.as_node().expect("valid")];
            if node.term.as_leaf().is_some() {
                sum += d as u64 + 1;
            }
            node.children.for_each_from(0, |_, p| {
                stack.push((p, d + 1));
                true
            });
        }
        sum as f64 / self.len() as f64
    }
}

/// ART satisfies the generic ordered-index contract HOPE serving layers
/// program against, for any value payload.
impl<V: hope::Value> hope::OrderedIndex<V> for Art<V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        Art::get_ref(self, key)
    }

    fn seek(&self, key: &mut dyn EncodedBytes) -> Probe<'_, V> {
        Art::seek(self, key)
    }

    fn seeks_prefixes(&self) -> bool {
        true
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        Art::insert(self, key, value)
    }

    /// The run becomes the leaves — key bytes and values at exact size,
    /// leaf `i` the run's key `i` — and one recursive pass over it builds
    /// each node once, in DFS pre-order: no descent per key and no node
    /// grown. Into a tree that already holds keys the run is inserted
    /// pair by pair.
    fn load_sorted(&mut self, run: &mut dyn Iterator<Item = (&[u8], V)>) {
        if !self.is_empty() {
            for (key, value) in run {
                self.insert(key, value);
            }
            return;
        }
        let hint = run.size_hint().0;
        self.keys = KeyRun::with_capacity(hint, 0);
        self.values.reserve_exact(hint);
        for (key, value) in run {
            debug_assert!(
                self.keys.is_empty() || self.keys.get(self.keys.len() - 1) < key,
                "bulk load must be strictly increasing"
            );
            self.keys.push(key);
            self.values.push(value);
        }
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
        if !self.is_empty() {
            self.root = Some(self.load_subtree(0..self.len(), 0));
            self.nodes.shrink_to_fit();
        }
    }

    fn visit(&self, low: &[u8], f: &mut dyn FnMut(&[u8], &V) -> bool) {
        if let Some(root) = self.root {
            self.scan_rec(root, 0, low, true, f);
        }
    }

    fn len(&self) -> usize {
        Art::len(self)
    }

    fn memory_bytes(&self) -> usize {
        Art::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::OrderedIndex;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Values of the first `count` keys `>= start`.
    fn scan(t: &Art, start: &[u8], count: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.visit(start, &mut |_, v| {
            out.push(*v);
            out.len() < count
        });
        out
    }

    fn range(t: &Art, low: &[u8], high: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.range_into(low, high, limit, &mut out);
        out
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut art = Art::new();
        assert_eq!(art.insert(b"hello", 1), None);
        assert_eq!(art.insert(b"help", 2), None);
        assert_eq!(art.insert(b"world", 3), None);
        assert_eq!(art.get(b"hello"), Some(1));
        assert_eq!(art.get(b"help"), Some(2));
        assert_eq!(art.get(b"world"), Some(3));
        assert_eq!(art.get(b"hel"), None);
        assert_eq!(art.get(b"helloo"), None);
        assert_eq!(art.len(), 3);
    }

    #[test]
    fn update_returns_old_value() {
        let mut art = Art::new();
        art.insert(b"k", 1);
        assert_eq!(art.insert(b"k", 2), Some(1));
        assert_eq!(art.get(b"k"), Some(2));
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut art = Art::new();
        art.insert(b"a", 1);
        art.insert(b"ab", 2);
        art.insert(b"abc", 3);
        art.insert(b"", 4);
        assert_eq!(art.get(b"a"), Some(1));
        assert_eq!(art.get(b"ab"), Some(2));
        assert_eq!(art.get(b"abc"), Some(3));
        assert_eq!(art.get(b""), Some(4));
    }

    #[test]
    fn long_common_prefixes_exceed_ocps_window() {
        let mut art = Art::new();
        let p = "very-long-shared-prefix-exceeding-eight-bytes/";
        art.insert(format!("{p}a").as_bytes(), 1);
        art.insert(format!("{p}b").as_bytes(), 2);
        art.insert(format!("{p}c/deeper").as_bytes(), 3);
        assert_eq!(art.get(format!("{p}a").as_bytes()), Some(1));
        assert_eq!(art.get(format!("{p}b").as_bytes()), Some(2));
        assert_eq!(art.get(format!("{p}c/deeper").as_bytes()), Some(3));
        assert_eq!(art.get(format!("{p}c").as_bytes()), None);
        // Splitting a truncated prefix must still work.
        art.insert(b"very-long-shXred", 4);
        assert_eq!(art.get(b"very-long-shXred"), Some(4));
        assert_eq!(art.get(format!("{p}a").as_bytes()), Some(1));
    }

    /// The seek of `key`, handed out as asked, and the sizes it asked of
    /// it, in order.
    fn seek_asking(art: &Art, key: &[u8]) -> (Option<u64>, Vec<usize>) {
        struct Asked<'k>(&'k [u8], Vec<usize>);
        impl EncodedBytes for Asked<'_> {
            fn at_least(&mut self, n: usize) -> (&[u8], bool) {
                assert!(self.1.last().is_none_or(|&m| m < self.0.len()), "asked past the end");
                self.1.push(n);
                (&self.0[..n.min(self.0.len())], n >= self.0.len())
            }
        }
        let mut asked = Asked(key, Vec::new());
        let found = match art.seek(&mut asked) {
            Probe::Candidate(&v) => Some(v),
            Probe::Absent => None,
            Probe::Hit(v) => panic!("a trie seek never checks its leaf: hit {v}"),
        };
        (found, asked.1)
    }

    /// A seek reads only the stored head of a compressed path, so a key
    /// that leaves a long path in an unstored byte still reaches a leaf:
    /// no stored key is the key, which makes any candidate valid, and the
    /// caller's key check rejects it. A key that leaves the stored head,
    /// or ends inside the path, is absent; one that ends at the node is
    /// its `term` leaf. Each node asks once, for its path and branch byte,
    /// and a leaf asks nothing.
    #[test]
    fn partial_probes_past_the_stored_prefix_are_optimistic() {
        let p = b"very-long-shared-prefix-exceeding-eight-bytes/";
        let branch = p.len() + 1;
        let mut art = Art::new();
        assert_eq!(seek_asking(&art, b"a"), (None, vec![]));
        art.insert(&[&p[..], b"a"].concat(), 1);
        assert_eq!(seek_asking(&art, b"b"), (Some(1), vec![]));
        art.insert(&[&p[..], b"b"].concat(), 2);
        let unstored = [&b"very-long-shXred-prefix-exceeding-eight-bytes/"[..], b"a"].concat();
        assert_eq!(seek_asking(&art, &unstored), (Some(1), vec![branch]));
        assert_eq!(seek_asking(&art, b"very-loXg"), (None, vec![branch]));
        assert_eq!(seek_asking(&art, b"very-long-sh"), (None, vec![branch]));
        assert_eq!(seek_asking(&art, p), (None, vec![branch]));
        assert_eq!(seek_asking(&art, &[&p[..], b"b"].concat()), (Some(2), vec![branch]));
        assert_eq!(seek_asking(&art, &[&p[..], b"c"].concat()), (None, vec![branch]));
        assert_eq!(seek_asking(&art, &[&p[..], b"bb"].concat()), (Some(2), vec![branch]));
        art.insert(p, 3);
        assert_eq!(seek_asking(&art, p), (Some(3), vec![branch]));
        assert_eq!(seek_asking(&art, b""), (None, vec![branch]));
        // A second node asks for its own branch byte; a key already whole
        // asks nothing more.
        art.insert(&[&p[..], b"bc"].concat(), 4);
        assert_eq!(
            seek_asking(&art, &[&p[..], b"bcd"].concat()),
            (Some(4), vec![branch, branch + 1])
        );
        assert_eq!(seek_asking(&art, &[&p[..], b"b"].concat()), (Some(2), vec![branch]));
    }

    #[test]
    fn node_growth_through_all_kinds() {
        let mut art = Art::new();
        for b in 0..=255u8 {
            art.insert(&[b], b as u64);
        }
        for b in 0..=255u8 {
            assert_eq!(art.get(&[b]), Some(b as u64), "byte {b}");
        }
        assert_eq!(art.len(), 256);
    }

    #[test]
    fn scan_in_order_from_start() {
        let mut art = Art::new();
        let keys = ["apple", "banana", "cherry", "date", "elderberry", "fig"];
        for (i, k) in keys.iter().enumerate() {
            art.insert(k.as_bytes(), i as u64);
        }
        assert_eq!(scan(&art, b"banana", 3), vec![1, 2, 3]);
        assert_eq!(scan(&art, b"bananaz", 2), vec![2, 3]);
        assert_eq!(scan(&art, b"", 100), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(scan(&art, b"zz", 5), Vec::<u64>::new());
    }

    #[test]
    fn bounded_range_is_inclusive_and_ordered() {
        let mut art = Art::new();
        let keys = ["apple", "banana", "cherry", "date", "elderberry", "fig"];
        for (i, k) in keys.iter().enumerate() {
            art.insert(k.as_bytes(), i as u64);
        }
        assert_eq!(range(&art, b"banana", b"date", 100), vec![1, 2, 3]);
        assert_eq!(range(&art, b"b", b"dz", 100), vec![1, 2, 3]);
        assert_eq!(range(&art, b"banana", b"date", 2), vec![1, 2]);
        assert!(range(&art, b"date", b"banana", 100).is_empty());
        assert!(range(&art, b"gg", b"zz", 100).is_empty());
        // Prefix keys along the bound path.
        art.insert(b"dat", 9);
        assert_eq!(range(&art, b"dat", b"date", 100), vec![9, 3]);
    }

    #[test]
    fn memory_grows_with_keys() {
        let mut art = Art::new();
        let m0 = art.memory_bytes();
        for i in 0..100 {
            art.insert(format!("user{i:05}").as_bytes(), i);
        }
        assert!(art.memory_bytes() > m0);
        assert!(art.node_memory_bytes() < art.memory_bytes());
        assert!(art.avg_depth() > 0.0);
    }

    /// splitmix64.
    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Key sets that stress a node's shape: the empty key, prefix chains,
    /// 0x00 / 0xFF runs, shared prefixes past the 8 stored bytes, fan-outs
    /// of every node kind, and random bytes.
    fn hostile_families() -> Vec<(&'static str, Vec<Vec<u8>>)> {
        let mut seed = 7;
        let chain = b"\x00a\xffchain\x00\x00a\x01\xfe/and/on";
        let long = b"very-long-shared-prefix-exceeding-eight-bytes/";
        let mut families = vec![
            ("empty key", vec![vec![], vec![0], vec![0xff], b"a".to_vec()]),
            ("prefix chain", (0..=chain.len()).map(|n| chain[..n].to_vec()).collect()),
            (
                "0x00 / 0xFF runs",
                (0..40)
                    .flat_map(|n| {
                        [vec![0x00; n], vec![0xff; n], [vec![0x00; n], vec![0xff]].concat()]
                    })
                    .collect(),
            ),
            (
                "shared prefixes past 8 bytes",
                (0..300)
                    .map(|i| {
                        let cut = mix(&mut seed) as usize % long.len();
                        let mut k = long[..long.len() - cut % 12].to_vec();
                        k.extend_from_slice(format!("{i:03}").as_bytes());
                        k
                    })
                    .collect(),
            ),
            (
                "every fan-out",
                [3usize, 4, 5, 16, 17, 48, 49, 256]
                    .iter()
                    .flat_map(|&n| (0..n).map(move |b| vec![b'f', n as u8, b as u8]))
                    .collect(),
            ),
        ];
        let random = (0..2_000)
            .map(|_| {
                let len = mix(&mut seed) as usize % 12;
                (0..len)
                    .map(|_| [0x00, 0x01, b'a', b'b', 0xfe, 0xff][mix(&mut seed) as usize % 6])
                    .collect()
            })
            .collect();
        families.push(("random hostile bytes", random));
        families
    }

    /// Nodes per kind: Node4, Node16, Node48, Node256.
    fn kinds(t: &Art) -> [usize; 4] {
        let mut out = [0; 4];
        for n in &t.nodes {
            out[match n.children {
                Children::N4 { .. } => 0,
                Children::N16 { .. } => 1,
                Children::N48 { .. } => 2,
                Children::N256 { .. } => 3,
            }] += 1;
        }
        out
    }

    #[test]
    fn loaded_and_inserted_trees_have_the_same_shape() {
        for (family, mut keys) in hostile_families() {
            keys.sort();
            keys.dedup();
            let mut loaded = Art::new();
            loaded.load_sorted(&mut keys.iter().map(Vec::as_slice).zip(0..));
            // Insert in a shuffled order: the shape is the key set's.
            let mut order: Vec<usize> = (0..keys.len()).collect();
            let mut seed = 11;
            for i in (1..order.len()).rev() {
                order.swap(i, mix(&mut seed) as usize % (i + 1));
            }
            let mut inserted = Art::new();
            for &i in &order {
                inserted.insert(&keys[i], i as u64);
            }
            assert_eq!(kinds(&loaded), kinds(&inserted), "{family}: nodes per kind");
            assert_eq!(loaded.avg_depth(), inserted.avg_depth(), "{family}: avg_depth");
            for t in [&loaded, &inserted] {
                let walked: usize = t.nodes.iter().map(|n| n.children.heap_bytes()).sum();
                assert_eq!(t.boxed_bytes, walked, "{family}: boxed bytes");
                for (i, k) in keys.iter().enumerate() {
                    assert_eq!(t.get(k), Some(i as u64), "{family}: {k:?}");
                }
                assert_eq!(scan(t, b"", usize::MAX), (0..keys.len() as u64).collect::<Vec<_>>());
            }
            assert!(loaded.keys.is_exact() && loaded.nodes.capacity() == loaded.nodes.len());
        }
        // The families reach every node kind.
        let mut every = hostile_families().into_iter().find(|f| f.0 == "every fan-out").unwrap().1;
        every.sort();
        let mut t = Art::new();
        t.load_sorted(&mut every.iter().map(Vec::as_slice).zip(0..));
        assert!(kinds(&t).iter().all(|&n| n > 0), "{:?}", kinds(&t));
    }

    #[test]
    fn node_stays_small() {
        assert_eq!(std::mem::size_of::<Children>(), 24);
        assert_eq!(std::mem::size_of::<Node>(), 40);
    }

    /// Two insert-built trees whose keys total the same bytes hold the
    /// same key bytes, whatever the first key's length: the run grows to
    /// powers of two, not by doubling from that length.
    #[test]
    fn inserted_key_bytes_do_not_depend_on_the_first_key() {
        let key_bytes = |first_len: usize, other_len: usize| {
            let mut art = Art::new();
            for i in 0..1000u32 {
                let len = if i == 0 { first_len } else { other_len };
                let mut key = i.to_be_bytes().to_vec();
                key.resize(len, b'x');
                art.insert(&key, u64::from(i));
            }
            art.keys.heap_bytes()
        };
        // 20 000, 20 010 and 20 000 key bytes in all: a 32 KiB run each.
        assert_eq!(key_bytes(20, 20), key_bytes(30, 20));
        assert_eq!(key_bytes(20, 20), key_bytes(1019, 19));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn behaves_like_btreemap(
            ops in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..24), any::<u64>()), 1..200),
            probes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 0..50),
        ) {
            let mut art = Art::new();
            let mut model = BTreeMap::new();
            for (k, v) in &ops {
                let got = art.insert(k, *v);
                let want = model.insert(k.clone(), *v);
                prop_assert_eq!(got, want);
            }
            for (k, v) in &model {
                prop_assert_eq!(art.get(k), Some(*v), "missing {:?}", k);
            }
            for p in &probes {
                prop_assert_eq!(art.get(p), model.get(p).copied());
            }
            prop_assert_eq!(art.len(), model.len());
        }

        #[test]
        fn scan_matches_btreemap_range(
            kvs in proptest::collection::btree_map(
                proptest::collection::vec(any::<u8>(), 0..16), any::<u64>(), 1..150),
            start in proptest::collection::vec(any::<u8>(), 0..16),
            count in 1usize..40,
        ) {
            let mut art = Art::new();
            for (k, v) in &kvs {
                art.insert(k, *v);
            }
            let want: Vec<u64> = kvs.range(start.clone()..).take(count).map(|(_, v)| *v).collect();
            prop_assert_eq!(scan(&art, &start, count), want);
        }

        #[test]
        fn range_matches_btreemap_range(
            kvs in proptest::collection::btree_map(
                proptest::collection::vec(any::<u8>(), 0..16), any::<u64>(), 1..150),
            low in proptest::collection::vec(any::<u8>(), 0..16),
            span in proptest::collection::vec(any::<u8>(), 0..4),
            count in 1usize..40,
        ) {
            let mut art = Art::new();
            for (k, v) in &kvs {
                art.insert(k, *v);
            }
            let mut high = low.clone();
            high.extend_from_slice(&span);
            let want: Vec<u64> =
                kvs.range(low.clone()..=high.clone()).take(count).map(|(_, v)| *v).collect();
            prop_assert_eq!(range(&art, &low, &high, count), want);
        }
    }
}

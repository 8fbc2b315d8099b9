//! # hope_art — Adaptive Radix Tree substrate
//!
//! A from-scratch ART (Leis et al., ICDE 2013) — the default index of
//! HyPer and one of the five search trees the HOPE paper evaluates on.
//! Nodes adapt among four layouts (Node4/16/48/256) by fan-out; paths with
//! single branches are compressed, and, as in the original, compressed
//! prefixes are stored **optimistically**: only the first
//! [`MAX_STORED_PREFIX`] bytes are kept inline (OCPS), with the full key
//! re-checked at the leaf — the partial-key behaviour §5 of the HOPE paper
//! discusses.
//!
//! Keys are arbitrary byte strings; a key may be a prefix of another key
//! (required for HOPE-encoded keys), handled by a per-node terminator slot.
//! The tree is generic over its value payload (`Art<V>`, any
//! [`hope::Value`]; defaults to `u64` record ids) and implements the
//! [`hope::OrderedIndex<V>`] contract serving layers program against.
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

use hope::axis::lcp_len;

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

#[derive(Debug)]
struct Leaf<V> {
    key: Box<[u8]>,
    value: V,
}

/// Adaptive children container (Node4 → Node16 → Node48 → Node256).
#[derive(Debug)]
enum Children {
    N4 { count: u8, labels: [u8; 4], ptrs: [Ptr; 4] },
    N16 { count: u8, labels: [u8; 16], ptrs: [Ptr; 16] },
    N48 { index: Box<[u8; 256]>, ptrs: Box<[Ptr; 48]>, count: u8 },
    N256 { ptrs: Box<[Ptr; 256]> },
}

const NO_SLOT: u8 = 0xFF;

impl Children {
    fn new() -> Self {
        Children::N4 { count: 0, labels: [0; 4], ptrs: [Ptr::NONE; 4] }
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        match self {
            Children::N4 { count, labels, ptrs } => {
                labels[..*count as usize].iter().position(|&l| l == label).map(|i| ptrs[i])
            }
            Children::N16 { count, labels, ptrs } => {
                labels[..*count as usize].iter().position(|&l| l == label).map(|i| ptrs[i])
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
        match self {
            Children::N4 { count, labels, ptrs } => {
                if let Some(i) = labels[..*count as usize].iter().position(|&l| l == label) {
                    ptrs[i] = ptr;
                    return;
                }
                let c = *count as usize;
                if c < 4 {
                    let pos = labels[..c].partition_point(|&l| l < label);
                    for i in (pos..c).rev() {
                        labels[i + 1] = labels[i];
                        ptrs[i + 1] = ptrs[i];
                    }
                    labels[pos] = label;
                    ptrs[pos] = ptr;
                    *count += 1;
                    return;
                }
                self.grow();
                self.set(label, ptr);
            }
            Children::N16 { count, labels, ptrs } => {
                if let Some(i) = labels[..*count as usize].iter().position(|&l| l == label) {
                    ptrs[i] = ptr;
                    return;
                }
                let c = *count as usize;
                if c < 16 {
                    let pos = labels[..c].partition_point(|&l| l < label);
                    for i in (pos..c).rev() {
                        labels[i + 1] = labels[i];
                        ptrs[i + 1] = ptrs[i];
                    }
                    labels[pos] = label;
                    ptrs[pos] = ptr;
                    *count += 1;
                    return;
                }
                self.grow();
                self.set(label, ptr);
            }
            Children::N48 { index, ptrs, count } => {
                let s = index[label as usize];
                if s != NO_SLOT {
                    ptrs[s as usize] = ptr;
                    return;
                }
                if (*count as usize) < 48 {
                    index[label as usize] = *count;
                    ptrs[*count as usize] = ptr;
                    *count += 1;
                    return;
                }
                self.grow();
                self.set(label, ptr);
            }
            Children::N256 { ptrs } => {
                ptrs[label as usize] = ptr;
            }
        }
    }

    fn grow(&mut self) {
        *self = match std::mem::replace(self, Children::new()) {
            Children::N4 { count, labels, ptrs } => {
                let mut nl = [0u8; 16];
                let mut np = [Ptr::NONE; 16];
                nl[..4].copy_from_slice(&labels);
                np[..4].copy_from_slice(&ptrs);
                Children::N16 { count, labels: nl, ptrs: np }
            }
            Children::N16 { count, labels, ptrs } => {
                let mut index = Box::new([NO_SLOT; 256]);
                let mut np = Box::new([Ptr::NONE; 48]);
                for i in 0..count as usize {
                    index[labels[i] as usize] = i as u8;
                    np[i] = ptrs[i];
                }
                Children::N48 { index, ptrs: np, count }
            }
            Children::N48 { index, ptrs, .. } => {
                let mut np = Box::new([Ptr::NONE; 256]);
                for l in 0..256 {
                    let s = index[l];
                    if s != NO_SLOT {
                        np[l] = ptrs[s as usize];
                    }
                }
                Children::N256 { ptrs: np }
            }
            n256 => n256,
        };
    }

    /// Visit `(label, ptr)` in ascending label order starting at `from`;
    /// the callback returns `false` to stop.
    fn for_each_from(&self, from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
        match self {
            Children::N4 { count, labels, ptrs } => {
                for i in 0..*count as usize {
                    if (labels[i] as u16) >= from && !f(labels[i], ptrs[i]) {
                        return;
                    }
                }
            }
            Children::N16 { count, labels, ptrs } => {
                for i in 0..*count as usize {
                    if (labels[i] as u16) >= from && !f(labels[i], ptrs[i]) {
                        return;
                    }
                }
            }
            Children::N48 { index, ptrs, .. } => {
                for l in from..256 {
                    let s = index[l as usize];
                    if s != NO_SLOT && !f(l as u8, ptrs[s as usize]) {
                        return;
                    }
                }
            }
            Children::N256 { ptrs } => {
                for l in from..256 {
                    let p = ptrs[l as usize];
                    if !p.is_none() && !f(l as u8, p) {
                        return;
                    }
                }
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

    fn heap_bytes(&self) -> usize {
        match self {
            Children::N4 { .. } | Children::N16 { .. } => 0,
            Children::N48 { .. } => 256 + 48 * 4,
            Children::N256 { .. } => 256 * 4,
        }
    }
}

#[derive(Debug)]
struct Node {
    /// First `min(prefix_len, MAX_STORED_PREFIX)` bytes of the compressed
    /// path (optimistic storage).
    prefix: Vec<u8>,
    /// Full compressed-path length in bytes (may exceed `prefix.len()`).
    prefix_len: u32,
    /// Leaf for a key ending exactly at this node (prefix-key support).
    term: Ptr,
    children: Children,
}

/// The Adaptive Radix Tree over byte-string keys and `V` values
/// (default: `u64` ids).
#[derive(Debug)]
pub struct Art<V = u64> {
    nodes: Vec<Node>,
    leaves: Vec<Leaf<V>>,
    root: Option<Ptr>,
}

impl<V> Default for Art<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Art<V> {
    /// New empty tree.
    pub fn new() -> Self {
        Art { nodes: Vec::new(), leaves: Vec::new(), root: None }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Memory footprint: adaptive nodes + leaf records (value and key
    /// bytes; see DESIGN.md on what the leaf represents).
    pub fn memory_bytes(&self) -> usize {
        self.node_memory_bytes()
            + self
                .leaves
                .iter()
                .map(|l| std::mem::size_of::<Leaf<V>>() + l.key.len())
                .sum::<usize>()
    }

    /// Memory of the inner structure only (leaf keys excluded).
    pub fn node_memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.prefix.capacity() + n.children.heap_bytes())
            .sum()
    }

    /// Point lookup with final-key verification (OCPS makes intermediate
    /// comparisons optimistic; the leaf check is authoritative), borrowing
    /// the stored value.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let mut ptr = self.root?;
        let mut pos = 0usize;
        loop {
            if let Some(leaf) = ptr.as_leaf() {
                let l = &self.leaves[leaf];
                return (l.key.as_ref() == key).then_some(&l.value);
            }
            let node = &self.nodes[ptr.as_node()?];
            let pl = node.prefix_len as usize;
            if pos + pl > key.len() {
                return None;
            }
            // Optimistic prefix check: compare only the stored bytes.
            let stored = &node.prefix;
            if key[pos..pos + stored.len()] != stored[..] {
                return None;
            }
            pos += pl; // skip the (possibly unstored) remainder
            if pos == key.len() {
                let l = self.leaves.get(node.term.as_leaf()?)?;
                return (l.key.as_ref() == key).then_some(&l.value);
            }
            ptr = node.children.get(key[pos])?;
            pos += 1;
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
        self.leaves.push(Leaf { key: key.into(), value });
        Ptr::leaf(self.leaves.len() - 1)
    }

    /// Full bytes of a node's compressed path, recovered from the minimum
    /// leaf when the stored prefix was truncated (the standard OCPS trick:
    /// load the actual key from the record).
    fn full_prefix(&self, node_idx: usize, depth: usize) -> Vec<u8> {
        let node = &self.nodes[node_idx];
        let pl = node.prefix_len as usize;
        if pl <= node.prefix.len() {
            return node.prefix.clone();
        }
        let leaf = self.min_leaf(Ptr::node(node_idx));
        self.leaves[leaf].key[depth..depth + pl].to_vec()
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

    fn store_prefix(full: &[u8]) -> Vec<u8> {
        full[..full.len().min(MAX_STORED_PREFIX)].to_vec()
    }

    /// Insert under `ptr` (subtree rooted at key depth `pos`); returns the
    /// possibly-new subtree pointer and any replaced value.
    fn insert_rec(&mut self, ptr: Ptr, key: &[u8], pos: usize, value: V) -> (Ptr, Option<V>) {
        if let Some(leaf_idx) = ptr.as_leaf() {
            if self.leaves[leaf_idx].key.as_ref() == key {
                let old = std::mem::replace(&mut self.leaves[leaf_idx].value, value);
                return (ptr, Some(old));
            }
            // Split into a node holding both leaves.
            let existing = self.leaves[leaf_idx].key.clone();
            let a = &existing[pos..];
            let b = &key[pos..];
            let m = lcp_len(a, b);
            let mut node = Node {
                prefix: Self::store_prefix(&b[..m]),
                prefix_len: m as u32,
                term: Ptr::NONE,
                children: Children::new(),
            };
            let new_leaf = self.new_leaf(key, value);
            if a.len() == m {
                node.term = ptr;
                node.children.set(b[m], new_leaf);
            } else if b.len() == m {
                node.term = new_leaf;
                node.children.set(a[m], ptr);
            } else {
                node.children.set(a[m], ptr);
                node.children.set(b[m], new_leaf);
            }
            self.nodes.push(node);
            return (Ptr::node(self.nodes.len() - 1), None);
        }

        let node_idx = ptr.as_node().expect("valid ptr");
        let pl = self.nodes[node_idx].prefix_len as usize;
        let rest = &key[pos..];
        // Pessimistic comparison against the *full* prefix (recovered from
        // a leaf if truncated) — required for correct splits.
        let full = self.full_prefix(node_idx, pos);
        let m = lcp_len(&full, rest);
        if m < pl {
            // Split the compressed path at m.
            let new_leaf = self.new_leaf(key, value);
            let mut parent = Node {
                prefix: Self::store_prefix(&full[..m]),
                prefix_len: m as u32,
                term: Ptr::NONE,
                children: Children::new(),
            };
            let old_branch = full[m];
            let tail = &full[m + 1..];
            {
                let old = &mut self.nodes[node_idx];
                old.prefix = Self::store_prefix(tail);
                old.prefix_len = tail.len() as u32;
            }
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
                let old = std::mem::replace(&mut self.leaves[t].value, value);
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
                    self.nodes[node_idx].children.set(c, new_child);
                }
                (ptr, old)
            }
            None => {
                let new_leaf = self.new_leaf(key, value);
                self.nodes[node_idx].children.set(c, new_leaf);
                (ptr, None)
            }
        }
    }

    /// Point lookup, cloning the stored value (a copy for `u64` ids). Use
    /// [`Art::get_ref`] to borrow instead.
    pub fn get(&self, key: &[u8]) -> Option<V>
    where
        V: Clone,
    {
        self.get_ref(key).cloned()
    }

    /// Hand one leaf to `f` unless it lies above the inclusive upper
    /// bound; returns false to halt the (in-order) traversal.
    fn emit(&self, leaf: usize, high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool) -> bool {
        let l = &self.leaves[leaf];
        // Above `high`, every later key is larger still.
        high.is_none_or(|h| l.key.as_ref() <= h) && f(&l.key, &l.value)
    }

    /// In-order traversal (a node's terminator leaf sorts before its
    /// children); `bounded` = the subtree may still contain keys below
    /// `start` (we are on the boundary path). `high` is the optional
    /// inclusive upper bound; the first key above it, or `f` returning
    /// false, stops the walk.
    fn scan_rec(
        &self,
        ptr: Ptr,
        depth: usize,
        start: &[u8],
        high: Option<&[u8]>,
        bounded: bool,
        f: &mut dyn FnMut(&[u8], &V) -> bool,
    ) -> bool {
        if let Some(leaf) = ptr.as_leaf() {
            return (bounded && self.leaves[leaf].key.as_ref() < start) || self.emit(leaf, high, f);
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
            let m = lcp_len(&full, rest);
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
            let in_range = include_term || self.leaves[t].key.as_ref() >= start;
            if in_range && !self.emit(t, high, f) {
                return false;
            }
        }
        let mut keep_going = true;
        node.children.for_each_from(from, |label, child| {
            let child_bounded = boundary_child && (label as u16) == from;
            keep_going = self.scan_rec(child, depth + pl + 1, start, high, child_bounded, f);
            keep_going
        });
        keep_going
    }

    /// Average leaf depth in node steps (tree-height diagnostic).
    pub fn avg_depth(&self) -> f64 {
        if self.leaves.is_empty() {
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
        sum as f64 / self.leaves.len() as f64
    }
}

/// ART satisfies the generic ordered-index contract HOPE serving layers
/// program against, for any value payload.
impl<V: hope::Value> hope::OrderedIndex<V> for Art<V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        Art::get_ref(self, key)
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        Art::insert(self, key, value)
    }

    fn visit(&self, low: &[u8], high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool) {
        if let Some(root) = self.root {
            self.scan_rec(root, 0, low, high, true, f);
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
        t.visit(start, None, &mut |_, v| {
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

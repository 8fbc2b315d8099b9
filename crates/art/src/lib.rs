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
//! no key has an allocation of its own. Each node class lives in an arena
//! of its own, a node at its own size with its labels and children inline
//! behind a 16-byte head (its stored prefix, path length and terminator):
//! Node4 40 bytes, Node16 100, Node48 468, Node256 1 040. A node that
//! grows moves one class up and leaves its slot on its arena's free list.
//! [`hope::OrderedIndex::load_sorted`] into an empty tree builds each node
//! once from the sorted run, in the class its fan-out needs — the very
//! nodes inserting the run would leave. The tree is generic over
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

use std::mem::size_of;
use std::ops::Range;

use hope::axis::lcp_len;
use hope::index::{eighth_octave_ceil, prefetch, KeyRun};
use hope::{EncodedBytes, Probe};

/// Maximum number of compressed-prefix bytes stored inline (the paper's
/// optimistic common prefix skipping threshold).
pub const MAX_STORED_PREFIX: usize = 8;

const LEAF_TAG: u32 = 0x8000_0000;
/// A node pointer's class sits in the two bits below the leaf bit, and
/// its slot in that class's arena in the 29 bits below them.
const CLASS_SHIFT: u32 = 29;
const SLOT_MASK: u32 = (1 << CLASS_SHIFT) - 1;
const NONE_PTR: u32 = u32::MAX;

/// Tagged pointer: a leaf index, or a node's class and its slot in that
/// class's arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Ptr(u32);

impl Ptr {
    const NONE: Ptr = Ptr(NONE_PTR);

    fn leaf(i: usize) -> Ptr {
        debug_assert!((i as u32) < LEAF_TAG);
        Ptr(i as u32 | LEAF_TAG)
    }

    fn node(class: usize, slot: usize) -> Ptr {
        assert!(slot <= SLOT_MASK as usize, "an arena holds at most 2^29 nodes");
        Ptr((class as u32) << CLASS_SHIFT | slot as u32)
    }

    fn is_none(self) -> bool {
        self.0 == NONE_PTR
    }

    fn as_leaf(self) -> Option<usize> {
        (self.0 != NONE_PTR && self.0 & LEAF_TAG != 0).then_some((self.0 & !LEAF_TAG) as usize)
    }

    /// The node's class and slot.
    fn as_node(self) -> Option<(usize, usize)> {
        (self.0 & LEAF_TAG == 0)
            .then_some(((self.0 >> CLASS_SHIFT) as usize, (self.0 & SLOT_MASK) as usize))
    }
}

/// What every node starts with: the stored head of its compressed path,
/// the path's full length, and the leaf of a key that ends at the node.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Head {
    /// First `min(prefix_len, MAX_STORED_PREFIX)` bytes of the compressed
    /// path (optimistic storage); the rest of the array is unused.
    prefix: [u8; MAX_STORED_PREFIX],
    /// Full compressed-path length in bytes (may exceed the stored bytes).
    prefix_len: u32,
    /// Leaf for a key ending exactly at this node (prefix-key support).
    term: Ptr,
}

/// The stored head of the compressed path `path`, and its full length.
fn path_head(path: &[u8]) -> ([u8; MAX_STORED_PREFIX], u32) {
    let mut head = [0; MAX_STORED_PREFIX];
    let stored = path.len().min(MAX_STORED_PREFIX);
    head[..stored].copy_from_slice(&path[..stored]);
    (head, u32::try_from(path.len()).expect("a key is under 4 GiB"))
}

impl Head {
    /// The head of a node under the compressed path `path`, with no
    /// terminator.
    fn new(path: &[u8]) -> Head {
        let (prefix, prefix_len) = path_head(path);
        Head { prefix, prefix_len, term: Ptr::NONE }
    }

    /// The stored bytes of the compressed path.
    fn stored_prefix(&self) -> &[u8] {
        &self.prefix[..(self.prefix_len as usize).min(MAX_STORED_PREFIX)]
    }
}

/// One node class: the head, then the labels and children inline, in an
/// arena of its own (DESIGN.md "ART on a key run").
trait Inner: Sized {
    /// The class's tag in a [`Ptr`], 0 for Node4 up to 3 for Node256.
    const CLASS: usize;
    /// Whether an insert grows the class's arena to the next eighth of an
    /// octave rather than as a `Vec` grows.
    const EIGHTHS: bool;

    /// A node with `head` and no children.
    fn empty(head: Head) -> Self;

    fn head(&self) -> &Head;

    /// The child labelled `label`.
    fn get(&self, label: u8) -> Option<Ptr>;

    /// Insert or replace; false when `label` is new and every slot is
    /// taken.
    fn set(&mut self, label: u8, ptr: Ptr) -> bool;

    /// Visit `(label, ptr)` in ascending label order starting at `from`;
    /// the callback returns `false` to stop.
    fn for_each_from(&self, from: u16, f: impl FnMut(u8, Ptr) -> bool);

    /// Ask for the lines past the head that a child lookup may read,
    /// whatever its label.
    fn prefetch_children(&self) {}
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

/// [`Inner::for_each_from`] over sorted `labels` and their `ptrs`.
fn sorted_from(labels: &[u8], ptrs: &[Ptr], from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
    for (&l, &p) in labels.iter().zip(ptrs) {
        if (l as u16) >= from && !f(l, p) {
            return;
        }
    }
}

/// Up to 4 children, found by a linear search (40 B).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Node4 {
    head: Head,
    ptrs: [Ptr; 4],
    labels: [u8; 4],
    count: u8,
}

impl Inner for Node4 {
    const CLASS: usize = 0;
    const EIGHTHS: bool = false;

    fn empty(head: Head) -> Self {
        Node4 { head, ptrs: [Ptr::NONE; 4], labels: [0; 4], count: 0 }
    }

    fn head(&self) -> &Head {
        &self.head
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        let i = self.labels[..self.count as usize].iter().position(|&l| l == label)?;
        Some(self.ptrs[i])
    }

    fn set(&mut self, label: u8, ptr: Ptr) -> bool {
        set_sorted(&mut self.count, &mut self.labels, &mut self.ptrs, label, ptr)
    }

    fn for_each_from(&self, from: u16, f: impl FnMut(u8, Ptr) -> bool) {
        sorted_from(&self.labels[..self.count as usize], &self.ptrs, from, f);
    }

    /// The node's last line, when it straddles two.
    fn prefetch_children(&self) {
        prefetch(std::slice::from_ref(&self.count));
    }
}

/// The position of `label` among the first `count` of `labels`: a 16-bit
/// match mask, cut to `count` bits, and its lowest set bit. Branch-free
/// over all 16 labels, so LLVM compiles it to one vector compare.
fn find16(labels: &[u8; 16], count: u8, label: u8) -> Option<usize> {
    let mut mask = 0u32;
    for (i, &l) in labels.iter().enumerate() {
        mask |= u32::from(l == label) << i;
    }
    mask &= (1 << count) - 1;
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// 5 to 16 children, found by a compare mask (100 B).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Node16 {
    head: Head,
    labels: [u8; 16],
    count: u8,
    ptrs: [Ptr; 16],
}

impl Inner for Node16 {
    const CLASS: usize = 1;
    const EIGHTHS: bool = true;

    fn empty(head: Head) -> Self {
        Node16 { head, labels: [0; 16], count: 0, ptrs: [Ptr::NONE; 16] }
    }

    fn head(&self) -> &Head {
        &self.head
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        find16(&self.labels, self.count, label).map(|i| self.ptrs[i])
    }

    fn set(&mut self, label: u8, ptr: Ptr) -> bool {
        set_sorted(&mut self.count, &mut self.labels, &mut self.ptrs, label, ptr)
    }

    fn for_each_from(&self, from: u16, f: impl FnMut(u8, Ptr) -> bool) {
        sorted_from(&self.labels[..self.count as usize], &self.ptrs, from, f);
    }

    /// The lines of `ptrs` past the head's: no two asked-for addresses are
    /// more than a line apart.
    fn prefetch_children(&self) {
        prefetch(&self.ptrs[7..]);
        prefetch(&self.ptrs[15..]);
    }
}

const NO_SLOT: u8 = 0xFF;

/// 17 to 48 children: a slot per label, then the child in that slot
/// (468 B).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Node48 {
    head: Head,
    ptrs: [Ptr; 48],
    index: [u8; 256],
    count: u8,
}

impl Inner for Node48 {
    const CLASS: usize = 2;
    const EIGHTHS: bool = true;

    fn empty(head: Head) -> Self {
        Node48 { head, ptrs: [Ptr::NONE; 48], index: [NO_SLOT; 256], count: 0 }
    }

    fn head(&self) -> &Head {
        &self.head
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        let s = self.index[label as usize];
        (s != NO_SLOT).then(|| self.ptrs[s as usize])
    }

    fn set(&mut self, label: u8, ptr: Ptr) -> bool {
        let s = self.index[label as usize];
        let c = self.count as usize;
        if s != NO_SLOT {
            self.ptrs[s as usize] = ptr;
        } else if c < 48 {
            self.index[label as usize] = self.count;
            self.ptrs[c] = ptr;
            self.count += 1;
        }
        s != NO_SLOT || c < 48
    }

    fn for_each_from(&self, from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
        for l in from..256 {
            let s = self.index[l as usize];
            if s != NO_SLOT && !f(l as u8, self.ptrs[s as usize]) {
                return;
            }
        }
    }

    /// Every line of `ptrs`: which slot the label names is a second miss
    /// (the `index` line), and the slot's line is then on its way.
    fn prefetch_children(&self) {
        for at in [0, 16, 32, 47] {
            prefetch(&self.ptrs[at..]);
        }
    }
}

/// 49 to 256 children, one slot per label (1 040 B).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
struct Node256 {
    head: Head,
    ptrs: [Ptr; 256],
}

impl Inner for Node256 {
    const CLASS: usize = 3;
    const EIGHTHS: bool = true;

    fn empty(head: Head) -> Self {
        Node256 { head, ptrs: [Ptr::NONE; 256] }
    }

    fn head(&self) -> &Head {
        &self.head
    }

    fn get(&self, label: u8) -> Option<Ptr> {
        let p = self.ptrs[label as usize];
        (!p.is_none()).then_some(p)
    }

    fn set(&mut self, label: u8, ptr: Ptr) -> bool {
        self.ptrs[label as usize] = ptr;
        true
    }

    fn for_each_from(&self, from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
        for l in from..256 {
            let p = self.ptrs[l as usize];
            if !p.is_none() && !f(l as u8, p) {
                return;
            }
        }
    }
}

/// One class's nodes, and the slots that growth has vacated.
#[derive(Debug)]
struct Arena<N> {
    nodes: Vec<N>,
    free: Vec<u32>,
}

impl<N> Default for Arena<N> {
    fn default() -> Self {
        Arena { nodes: Vec::new(), free: Vec::new() }
    }
}

impl<N: Inner> Arena<N> {
    /// Append `node` as the loader does, growing as a `Vec` grows; the
    /// loader trims the arena once at the end.
    fn push(&mut self, node: N) -> Ptr {
        self.nodes.push(node);
        Ptr::node(N::CLASS, self.nodes.len() - 1)
    }

    /// Place an inserted `node` in a vacated slot, or else at the end.
    fn alloc(&mut self, node: N) -> Ptr {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            return Ptr::node(N::CLASS, slot as usize);
        }
        let len = self.nodes.len();
        if N::EIGHTHS && len == self.nodes.capacity() {
            self.nodes.reserve_exact(eighth_octave_ceil(len + 1) - len);
        }
        self.push(node)
    }

    /// Set a child of the node in `slot`; when it is full, move it up into
    /// `up`, free its slot, and return where it went.
    fn set_or_grow<U: Inner>(
        &mut self,
        up: &mut Arena<U>,
        slot: usize,
        label: u8,
        ptr: Ptr,
    ) -> Ptr {
        let node = &mut self.nodes[slot];
        if node.set(label, ptr) {
            return Ptr::node(N::CLASS, slot);
        }
        let mut grown = U::empty(*node.head());
        node.for_each_from(0, |l, p| grown.set(l, p));
        grown.set(label, ptr);
        self.free.push(slot as u32);
        up.alloc(grown)
    }

    /// Bytes as allocated: the slots at capacity and the free list.
    fn bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<N>() + self.free.capacity() * size_of::<u32>()
    }

    fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.free.shrink_to_fit();
    }
}

/// A node of any class, borrowed.
#[derive(Clone, Copy)]
enum NodeRef<'a> {
    N4(&'a Node4),
    N16(&'a Node16),
    N48(&'a Node48),
    N256(&'a Node256),
}

impl<'a> NodeRef<'a> {
    fn head(self) -> &'a Head {
        match self {
            NodeRef::N4(n) => n.head(),
            NodeRef::N16(n) => n.head(),
            NodeRef::N48(n) => n.head(),
            NodeRef::N256(n) => n.head(),
        }
    }

    fn get(self, label: u8) -> Option<Ptr> {
        match self {
            NodeRef::N4(n) => n.get(label),
            NodeRef::N16(n) => n.get(label),
            NodeRef::N48(n) => n.get(label),
            NodeRef::N256(n) => n.get(label),
        }
    }

    fn for_each_from(self, from: u16, mut f: impl FnMut(u8, Ptr) -> bool) {
        match self {
            NodeRef::N4(n) => n.for_each_from(from, &mut f),
            NodeRef::N16(n) => n.for_each_from(from, &mut f),
            NodeRef::N48(n) => n.for_each_from(from, &mut f),
            NodeRef::N256(n) => n.for_each_from(from, &mut f),
        }
    }

    fn prefetch_children(self) {
        match self {
            NodeRef::N4(n) => n.prefetch_children(),
            NodeRef::N16(n) => n.prefetch_children(),
            NodeRef::N48(n) => n.prefetch_children(),
            NodeRef::N256(n) => n.prefetch_children(),
        }
    }

    /// First child in label order.
    fn first(self) -> Option<Ptr> {
        let mut out = None;
        self.for_each_from(0, |_, p| {
            out = Some(p);
            false
        });
        out
    }
}

/// The four arenas, one per node class, each node with its children
/// inline.
#[derive(Debug, Default)]
struct Nodes {
    n4: Arena<Node4>,
    n16: Arena<Node16>,
    n48: Arena<Node48>,
    n256: Arena<Node256>,
}

impl Nodes {
    /// The node `ptr` names; `None` for a leaf.
    fn get(&self, ptr: Ptr) -> Option<NodeRef<'_>> {
        let (class, slot) = ptr.as_node()?;
        Some(match class {
            Node4::CLASS => NodeRef::N4(&self.n4.nodes[slot]),
            Node16::CLASS => NodeRef::N16(&self.n16.nodes[slot]),
            Node48::CLASS => NodeRef::N48(&self.n48.nodes[slot]),
            _ => NodeRef::N256(&self.n256.nodes[slot]),
        })
    }

    /// The node `ptr` names, which must be one.
    fn node(&self, ptr: Ptr) -> NodeRef<'_> {
        self.get(ptr).expect("a node pointer")
    }

    fn head_mut(&mut self, ptr: Ptr) -> &mut Head {
        let (class, slot) = ptr.as_node().expect("a node pointer");
        match class {
            Node4::CLASS => &mut self.n4.nodes[slot].head,
            Node16::CLASS => &mut self.n16.nodes[slot].head,
            Node48::CLASS => &mut self.n48.nodes[slot].head,
            _ => &mut self.n256.nodes[slot].head,
        }
    }

    /// Set a child of node `ptr`; returns where the node is now, one class
    /// up if it was full.
    fn set_child(&mut self, ptr: Ptr, label: u8, child: Ptr) -> Ptr {
        let (class, slot) = ptr.as_node().expect("a node pointer");
        match class {
            Node4::CLASS => self.n4.set_or_grow(&mut self.n16, slot, label, child),
            Node16::CLASS => self.n16.set_or_grow(&mut self.n48, slot, label, child),
            Node48::CLASS => self.n48.set_or_grow(&mut self.n256, slot, label, child),
            _ => {
                self.n256.nodes[slot].set(label, child);
                ptr
            }
        }
    }

    /// Append an empty node of the smallest class that holds `fanout`
    /// children, as the loader does.
    fn push_for_fanout(&mut self, fanout: usize, head: Head) -> Ptr {
        match fanout {
            0..=4 => self.n4.push(Node4::empty(head)),
            5..=16 => self.n16.push(Node16::empty(head)),
            17..=48 => self.n48.push(Node48::empty(head)),
            _ => self.n256.push(Node256::empty(head)),
        }
    }

    fn bytes(&self) -> usize {
        self.n4.bytes() + self.n16.bytes() + self.n48.bytes() + self.n256.bytes()
    }

    fn shrink_to_fit(&mut self) {
        self.n4.shrink_to_fit();
        self.n16.shrink_to_fit();
        self.n48.shrink_to_fit();
        self.n256.shrink_to_fit();
    }
}

/// The Adaptive Radix Tree over byte-string keys and `V` values
/// (default: `u64` ids).
#[derive(Debug)]
pub struct Art<V = u64> {
    nodes: Nodes,
    /// The leaves: leaf `i`'s key is key `i` of `keys` and its value
    /// `values[i]`, in insertion order — or in key order after a load.
    keys: KeyRun,
    values: Vec<V>,
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
        Art { nodes: Nodes::default(), keys: KeyRun::default(), values: Vec::new(), root: None }
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
        self.node_memory_bytes() + self.keys.heap_bytes() + self.values.capacity() * size_of::<V>()
    }

    /// Memory of the inner structure only (leaf keys and values
    /// excluded): the four node arenas at capacity and their free lists.
    pub fn node_memory_bytes(&self) -> usize {
        self.nodes.bytes()
    }

    /// Point lookup with final-key verification (OCPS makes intermediate
    /// comparisons optimistic; the leaf check is authoritative), borrowing
    /// the stored value: [`Art::seek`]'s descent, then the leaf's key.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let leaf = self.descend(&mut &*key)?;
        prefetch(&self.values[leaf..]);
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
    /// `key` reaches, unchecked. Each node's label-independent lines are
    /// asked for with its head, before the key's next bytes are pulled.
    fn descend<K: EncodedBytes + ?Sized>(&self, key: &mut K) -> Option<usize> {
        let mut ptr = self.root?;
        let (mut bytes, mut whole): (&[u8], bool) = (&[], false);
        let mut pos = 0usize;
        loop {
            let Some(node) = self.nodes.get(ptr) else {
                return ptr.as_leaf();
            };
            node.prefetch_children();
            let head = node.head();
            // The branch byte's position: the node reads up to it.
            let branch = pos + head.prefix_len as usize;
            if bytes.len() <= branch && !whole {
                (bytes, whole) = key.at_least(branch + 1);
            }
            let stored = head.stored_prefix();
            let known = stored.len().min(bytes.len() - pos);
            if bytes[pos..pos + known] != stored[..known] {
                return None;
            }
            // The key ends inside the path, or at its end.
            let Some(&label) = bytes.get(branch) else {
                return head.term.as_leaf().filter(|_| bytes.len() == branch);
            };
            ptr = node.get(label)?;
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

    /// Full bytes of a node's compressed path, recovered from the minimum
    /// leaf when the stored prefix was truncated (the standard OCPS trick:
    /// load the actual key from the record).
    fn full_prefix(&self, ptr: Ptr, depth: usize) -> &[u8] {
        let head = self.nodes.node(ptr).head();
        let pl = head.prefix_len as usize;
        if pl <= MAX_STORED_PREFIX {
            return &head.prefix[..pl];
        }
        &self.keys.get(self.min_leaf(ptr))[depth..depth + pl]
    }

    fn min_leaf(&self, ptr: Ptr) -> usize {
        let mut p = ptr;
        loop {
            let Some(node) = self.nodes.get(p) else {
                return p.as_leaf().expect("valid ptr");
            };
            if let Some(l) = node.head().term.as_leaf() {
                return l;
            }
            p = node.first().expect("non-empty node");
        }
    }

    /// Insert under `ptr` (subtree rooted at key depth `pos`); returns the
    /// possibly-new subtree pointer and any replaced value: a node that
    /// grows moves up a class.
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
            let mut node = Node4::empty(Head::new(&rest[..m]));
            let new_leaf = self.new_leaf(key, value);
            match existing_next {
                None => {
                    node.head.term = ptr;
                    node.set(rest[m], new_leaf);
                }
                Some(label) if rest.len() == m => {
                    node.head.term = new_leaf;
                    node.set(label, ptr);
                }
                Some(label) => {
                    node.set(label, ptr);
                    node.set(rest[m], new_leaf);
                }
            }
            return (self.nodes.n4.alloc(node), None);
        }

        let head = *self.nodes.node(ptr).head();
        let pl = head.prefix_len as usize;
        // Pessimistic comparison against the *full* prefix (recovered from
        // a leaf if truncated) — required for correct splits.
        let full = self.full_prefix(ptr, pos);
        let m = lcp_len(full, rest);
        if m < pl {
            // Split the compressed path at m: the old node keeps what
            // follows the branch byte.
            let old_branch = full[m];
            let (tail, tail_len) = path_head(&full[m + 1..]);
            let new_leaf = self.new_leaf(key, value);
            let mut parent = Node4::empty(Head::new(&rest[..m]));
            let old = self.nodes.head_mut(ptr);
            (old.prefix, old.prefix_len) = (tail, tail_len);
            parent.set(old_branch, ptr);
            if rest.len() == m {
                parent.head.term = new_leaf;
            } else {
                parent.set(rest[m], new_leaf);
            }
            return (self.nodes.n4.alloc(parent), None);
        }
        let pos = pos + pl;
        if pos == key.len() {
            if let Some(t) = head.term.as_leaf() {
                let old = std::mem::replace(&mut self.values[t], value);
                return (ptr, Some(old));
            }
            let new_leaf = self.new_leaf(key, value);
            self.nodes.head_mut(ptr).term = new_leaf;
            return (ptr, None);
        }
        let c = key[pos];
        match self.nodes.node(ptr).get(c) {
            Some(child) => {
                let (new_child, old) = self.insert_rec(child, key, pos + 1, value);
                let ptr =
                    if new_child != child { self.nodes.set_child(ptr, c, new_child) } else { ptr };
                (ptr, old)
            }
            None => {
                let new_leaf = self.new_leaf(key, value);
                (self.nodes.set_child(ptr, c, new_leaf), None)
            }
        }
    }

    /// Build the subtree of the loaded leaves `leaves` — consecutive keys
    /// of the run, sharing their first `depth` bytes — and return its
    /// root. A node is pushed before its children (DFS pre-order) into
    /// the arena of the class its fan-out needs, so no node grows or
    /// moves.
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
        let mut head = Head::new(&first[depth..d]);
        if term {
            head.term = Ptr::leaf(leaves.start);
        }
        let id = self.nodes.push_for_fanout(fanout, head);
        let mut at = kids.start;
        while at < kids.end {
            let (label, end) = (self.keys.get(at)[d], self.label_end(at..kids.end, d));
            let child = self.load_subtree(at..end, d + 1);
            let same = self.nodes.set_child(id, label, child);
            debug_assert_eq!(same, id, "a loaded node never grows");
            at = end;
        }
        id
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
        let node = self.nodes.node(ptr);
        let pl = node.head().prefix_len as usize;
        let mut from: u16 = 0;
        let mut boundary_child = false;
        let mut include_term = true;
        if bounded {
            let full = self.full_prefix(ptr, depth);
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
        if let Some(t) = node.head().term.as_leaf() {
            // On the boundary path the term may still lie below start.
            let in_range = include_term || self.keys.get(t) >= start;
            if in_range && !f(self.keys.get(t), &self.values[t]) {
                return false;
            }
        }
        let mut keep_going = true;
        node.for_each_from(from, |label, child| {
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
            let Some(node) = self.nodes.get(ptr) else {
                sum += d as u64;
                continue;
            };
            if node.head().term.as_leaf().is_some() {
                sum += d as u64 + 1;
            }
            node.for_each_from(0, |_, p| {
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

    /// Live nodes per class, Node4 to Node256: the slots of each arena
    /// less its free-listed ones.
    fn kinds(t: &Art) -> [usize; 4] {
        let n = &t.nodes;
        [
            n.n4.nodes.len() - n.n4.free.len(),
            n.n16.nodes.len() - n.n16.free.len(),
            n.n48.nodes.len() - n.n48.free.len(),
            n.n256.nodes.len() - n.n256.free.len(),
        ]
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
            assert_eq!(kinds(&loaded), kinds(&inserted), "{family}: nodes per class");
            assert_eq!(loaded.avg_depth(), inserted.avg_depth(), "{family}: avg_depth");
            for t in [&loaded, &inserted] {
                // The node bytes are the arenas at capacity and their free
                // lists, nothing else.
                let n = &t.nodes;
                let arenas = n.n4.nodes.capacity() * 40
                    + n.n16.nodes.capacity() * 100
                    + n.n48.nodes.capacity() * 468
                    + n.n256.nodes.capacity() * 1040;
                let free = n.n4.free.capacity()
                    + n.n16.free.capacity()
                    + n.n48.free.capacity()
                    + n.n256.free.capacity();
                assert_eq!(t.node_memory_bytes(), arenas + free * 4, "{family}: node bytes");
                for (i, k) in keys.iter().enumerate() {
                    assert_eq!(t.get(k), Some(i as u64), "{family}: {k:?}");
                }
                assert_eq!(scan(t, b"", usize::MAX), (0..keys.len() as u64).collect::<Vec<_>>());
            }
            // A loaded tree's arenas are exact-size, with no free slot.
            let n = &loaded.nodes;
            assert!(loaded.keys.is_exact(), "{family}: loaded key run");
            assert_eq!(
                [n.n4.bytes(), n.n16.bytes(), n.n48.bytes(), n.n256.bytes()],
                [
                    n.n4.nodes.len() * 40,
                    n.n16.nodes.len() * 100,
                    n.n48.nodes.len() * 468,
                    n.n256.nodes.len() * 1040
                ],
                "{family}: loaded arenas"
            );
        }
        // The families reach every node class.
        let mut every = hostile_families().into_iter().find(|f| f.0 == "every fan-out").unwrap().1;
        every.sort();
        let mut t = Art::new();
        t.load_sorted(&mut every.iter().map(Vec::as_slice).zip(0..));
        assert!(kinds(&t).iter().all(|&n| n > 0), "{:?}", kinds(&t));
    }

    #[test]
    fn node_stays_small() {
        assert_eq!(size_of::<Ptr>(), 4);
        assert_eq!(size_of::<Head>(), 16);
        assert_eq!(
            [size_of::<Node4>(), size_of::<Node16>(), size_of::<Node48>(), size_of::<Node256>()],
            [40, 100, 468, 1040]
        );
    }

    /// The compare mask finds what a linear search over the first `count`
    /// labels finds, for every count and label byte, whatever the labels
    /// past `count` hold.
    #[test]
    fn node16_mask_search_matches_a_linear_search() {
        let spread: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(5));
        let mut stale = spread;
        stale[8..].copy_from_slice(&spread[..8]);
        for labels in [spread, stale, [0; 16], [0xff; 16]] {
            for count in 0..=16u8 {
                for label in 0..=u8::MAX {
                    let linear = labels[..count as usize].iter().position(|&l| l == label);
                    assert_eq!(find16(&labels, count, label), linear, "{labels:?}[..{count}]");
                }
            }
        }
    }

    /// One node grown Node4 → Node16 → Node48 → Node256 by inserts leaves
    /// one free slot in each of the lower three arenas, and the next node
    /// of each class takes it without growing the arena.
    #[test]
    fn growth_frees_a_slot_that_the_next_node_of_its_class_takes() {
        let mut art = Art::new();
        for b in 0..=255u8 {
            art.insert(&[b], u64::from(b));
        }
        let slots = |t: &Art| {
            let n = &t.nodes;
            [
                (n.n4.nodes.len(), n.n4.nodes.capacity(), n.n4.free.len()),
                (n.n16.nodes.len(), n.n16.nodes.capacity(), n.n16.free.len()),
                (n.n48.nodes.len(), n.n48.nodes.capacity(), n.n48.free.len()),
            ]
        };
        let grown = slots(&art);
        assert!(grown.iter().all(|&(len, _, free)| len == 1 && free == 1), "{grown:?}");
        assert_eq!(kinds(&art), [0, 0, 0, 1]);
        // Key [0] becomes the terminator of a node under byte 0, which
        // then grows through the classes as its children arrive.
        for (class, children) in [(0, 1), (1, 5), (2, 17)] {
            for b in 1..=children {
                art.insert(&[0, b], 1000 + u64::from(b));
            }
            assert_eq!(slots(&art)[class], (1, grown[class].1, 0), "class {class}");
        }
        assert_eq!(kinds(&art), [0, 0, 1, 1]);
        for b in 0..=255u8 {
            assert_eq!(art.get(&[b]), Some(u64::from(b)));
        }
        for b in 1..=17u8 {
            assert_eq!(art.get(&[0, b]), Some(1000 + u64::from(b)));
        }
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

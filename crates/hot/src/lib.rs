//! # hope-hot — Height-Optimized-Trie-like substrate
//!
//! A structure in the spirit of HOT (Binna et al., SIGMOD 2018), one of the
//! five search trees the HOPE paper evaluates on. The defining properties
//! the paper's evaluation relies on are reproduced:
//!
//! * **compound nodes with fan-out up to k = 32** ([`K`]), giving a much
//!   lower height than byte-wise tries;
//! * **partial-key storage**: a node skips the bytes all its keys share
//!   (they are *not* stored) and keeps only suffix-truncated separators —
//!   the minimal discriminative bytes. Full keys live in the record heap
//!   and are verified there after navigation, exactly the
//!   "partial keys + tuple verification" behaviour §5 of the HOPE paper
//!   describes (and the reason HOT benefits less from key compression);
//! * **height-optimized inserts**: leaves overflow into splits, and a
//!   node's skipped-prefix length adapts downward when a new key breaks
//!   the shared prefix.
//!
//! Everything is packed. The **record heap** is one [`KeyRun`] — the full
//! keys back to back with a `u32` end each — beside one `Vec<V>` of
//! values. A compound node keeps its separators, past its skipped prefix,
//! in one [`KeyBlock`] with an 8-byte head per separator. A **leaf** keeps
//! a record id and a 4-byte **partial key** per slot: the big-endian 4
//! bytes of the record's key after the leaf's common prefix. A leaf search
//! counts the partial keys below the query's without a branch and touches
//! the record heap only where partial keys tie; on a hit the first tie is
//! the verification itself. This is the portable form of the original's
//! SIMD partial-key search; the original's bit-level Patricia slices are
//! not reproduced (see DESIGN.md). A probe asks for a node's other
//! buffers before it searches the node ([`hope::index::prefetch`]): a
//! compound node's child ids and the first and last lines of its
//! separators' ends and bytes, and a leaf's record ids, so their misses
//! overlap the count; gets and inserts descend alike. The trie is
//! generic over its value payload (`Hot<V>`, any [`hope::Value`];
//! defaults to `u64` record ids) and implements the
//! [`hope::OrderedIndex<V>`] contract serving layers program against.
//!
//! ```
//! use hope::OrderedIndex;
//! use hope_hot::Hot;
//!
//! let mut hot = Hot::new();
//! hot.insert(b"com.gmail@alice", 1);
//! hot.insert(b"com.gmail@bob", 2);
//! assert_eq!(hot.get(b"com.gmail@alice"), Some(1));
//! let mut hits = Vec::new();
//! hot.range_into(b"com.gmail@", b"com.gmail@~", 10, &mut hits);
//! assert_eq!(hits, vec![1, 2]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cmp::Ordering;

use hope::axis::{lcp_len, shortest_separator};
use hope::index::{prefetch, KeyBlock, KeyRun};

/// Maximum compound-node fan-out (HOT's k).
pub const K: usize = 32;

/// Slots a bulk load ([`hope::OrderedIndex::load_sorted`]) fills per node:
/// ¾ of [`K`], the gap `hope_btree` measured (DESIGN.md, "Bulk load").
const LOAD_FILL: usize = K * 3 / 4;

/// Records a leaf ever has room for: it holds [`K`] and splits when an
/// insert makes it `K + 1`.
const LEAF_ROOM: usize = K + 1;

/// How many of `remaining` records (or children) the next node of a bulk-
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

/// A leaf's partial key: the first 4 bytes of `s` as a big-endian `u32`,
/// zero-padded. Partial keys order as the strings do, except that they
/// may tie where the strings differ: past byte 4, or in zero padding.
#[inline]
fn head(s: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    let n = s.len().min(4);
    b[..n].copy_from_slice(&s[..n]);
    u32::from_be_bytes(b)
}

/// Up to `LEAF_ROOM` sorted record ids, each with its partial key.
#[derive(Debug, Default)]
struct Leaf {
    /// The common prefix of the first and the last record's key, hence of
    /// all of them.
    skip: u32,
    recs: Vec<u32>,
    /// `heads[i]`: [`head`] of record `recs[i]`'s key from byte `skip`.
    heads: Vec<u32>,
}

impl Leaf {
    /// The leaf over sorted `recs`, in exact-size storage.
    fn packed(keys: &KeyRun, recs: Vec<u32>) -> Leaf {
        let mut leaf = Leaf { skip: 0, heads: vec![0; recs.len()], recs };
        leaf.rehead(keys, leaf.tight_skip(keys));
        leaf
    }

    /// The common prefix of the first and the last record's key.
    fn tight_skip(&self, keys: &KeyRun) -> usize {
        match (self.recs.first(), self.recs.last()) {
            (Some(&first), Some(&last)) => {
                lcp_len(keys.get(first as usize), keys.get(last as usize))
            }
            _ => 0,
        }
    }

    /// `Ok(i)` if record `i` holds `key`, else `Err(i)`: the partial keys
    /// below `key`'s (taken from byte `skip`, or from its end if it is
    /// shorter), then the run of ties compared as whole keys. The position
    /// is exact when `key` shares the leaf's first `skip` bytes; a key
    /// that does not cannot be in the leaf, and no record compares equal
    /// to it — so a point read needs no prefix check. It asks for the
    /// first line of `recs` before it counts, so that line is on its way
    /// while the partial keys are read.
    fn probe(&self, keys: &KeyRun, key: &[u8]) -> Result<usize, usize> {
        prefetch(&self.recs);
        let qh = head(&key[(self.skip as usize).min(key.len())..]);
        let mut i = self.heads.iter().map(|&h| usize::from(h < qh)).sum::<usize>();
        while i < self.recs.len() && self.heads[i] == qh {
            match keys.get(self.recs[i] as usize).cmp(key) {
                Ordering::Less => i += 1,
                Ordering::Equal => return Ok(i),
                Ordering::Greater => break,
            }
        }
        Err(i)
    }

    /// [`Leaf::probe`] with its position exact for any `key`: the first
    /// `skip` bytes are compared with record 0's once, and a mismatch puts
    /// `key` below or above every record.
    fn search(&self, keys: &KeyRun, key: &[u8]) -> Result<usize, usize> {
        let Some(&first) = self.recs.first() else { return Err(0) };
        let skip = self.skip as usize;
        let m = skip.min(key.len());
        match key[..m].cmp(&keys.get(first as usize)[..m]) {
            Ordering::Less => Err(0),
            Ordering::Greater => Err(self.recs.len()),
            Ordering::Equal if m < skip => Err(0),
            Ordering::Equal => self.probe(keys, key),
        }
    }

    /// First slot whose key is `>= key`.
    fn lower_bound(&self, keys: &KeyRun, key: &[u8]) -> usize {
        match self.search(keys, key) {
            Ok(i) | Err(i) => i,
        }
    }

    /// Splice record `rec` in at slot `i`. A full leaf grows **once**, to
    /// [`LEAF_ROOM`] slots, and never doubles past that (DESIGN.md, "HOT
    /// on key blocks"). The common prefix can only shrink; when it does,
    /// every partial key is taken again.
    fn insert_at(&mut self, keys: &KeyRun, i: usize, rec: u32) {
        let n = self.recs.len();
        if self.recs.capacity() == n {
            let room = LEAF_ROOM.max(n + 1);
            self.recs.reserve_exact(room - n);
            self.heads.reserve_exact(room - n);
        }
        let key = keys.get(rec as usize);
        // A key between the first and the last shares their prefix; one
        // at either end may cut it.
        let skip = match self.recs.first() {
            None => key.len(),
            Some(&first) => lcp_len(&keys.get(first as usize)[..self.skip as usize], key),
        };
        self.recs.insert(i, rec);
        self.heads.insert(i, head(&key[skip..]));
        if skip != self.skip as usize {
            self.rehead(keys, skip);
        }
    }

    /// Make `skip` the leaf's common prefix and take every partial key
    /// again from it.
    fn rehead(&mut self, keys: &KeyRun, skip: usize) {
        self.skip = skip as u32;
        for (h, &r) in self.heads.iter_mut().zip(&self.recs) {
            *h = head(&keys.get(r as usize)[skip..]);
        }
    }

    /// Split slots `at..` off into an exact-size leaf and keep slots `..at`
    /// here, in this leaf's buffers; both halves re-tighten `skip`.
    fn split_off(&mut self, keys: &KeyRun, at: usize) -> Leaf {
        let right = Leaf::packed(keys, self.recs.split_off(at));
        self.heads.truncate(at);
        let skip = self.tight_skip(keys);
        if skip != self.skip as usize {
            self.rehead(keys, skip);
        }
        right
    }

    /// Heap bytes, at capacity.
    fn memory_bytes(&self) -> usize {
        (self.recs.capacity() + self.heads.capacity()) * 4
    }
}

/// A compound node: `skip` bytes are shared by every key in the subtree
/// and not stored; `seps` holds the separators past them. Child `i` holds
/// keys `< seps[i]`, child `i+1` keys `>= seps[i]` (comparing
/// `key[skip..]`).
#[derive(Debug)]
struct Inner {
    skip: u32,
    seps: KeyBlock,
    children: Vec<u32>,
}

impl Inner {
    /// The child whose subtree `key` belongs in, if `key` shares the
    /// node's skipped prefix (any child otherwise). The child ids and the
    /// separators' ends and bytes are asked for before the separators
    /// are searched.
    #[inline]
    fn child(&self, key: &[u8]) -> u32 {
        prefetch(&self.children);
        self.seps.prefetch();
        self.children[self.seps.upper_bound(&key[(self.skip as usize).min(key.len())..])]
    }
}

#[derive(Debug)]
enum Node {
    Leaf(Leaf),
    Inner(Inner),
}

/// The height-optimized trie over byte-string keys and `V` values
/// (default: `u64` ids).
#[derive(Debug)]
pub struct Hot<V = u64> {
    nodes: Vec<Node>,
    root: u32,
    /// The record heap, the simulated tuple store: record `r`'s full key
    /// is key `r` of `keys` and its value `values[r]`. Navigation uses only
    /// partial keys; exact results are verified here.
    keys: KeyRun,
    values: Vec<V>,
}

impl<V> Default for Hot<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Hot<V> {
    /// New empty trie.
    pub fn new() -> Self {
        Hot {
            nodes: vec![Node::Leaf(Leaf::default())],
            root: 0,
            keys: KeyRun::default(),
            values: Vec::new(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Index memory: the node array and each node's separators, child ids,
    /// record ids and partial keys, all at capacity. Excludes the record
    /// heap — HOT stores only partial keys.
    pub fn index_memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| match n {
                    Node::Leaf(leaf) => leaf.memory_bytes(),
                    Node::Inner(inner) => inner.seps.memory_bytes() + inner.children.capacity() * 4,
                })
                .sum::<usize>()
    }

    /// Memory of the simulated record heap (full keys + values), at
    /// capacity.
    pub fn record_memory_bytes(&self) -> usize {
        self.keys.heap_bytes() + self.values.capacity() * std::mem::size_of::<V>()
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

    #[inline]
    fn rec_key(&self, rec: u32) -> &[u8] {
        self.keys.get(rec as usize)
    }

    /// Smallest record in the subtree (used to recover skipped prefix
    /// bytes: every subtree key shares the node's skipped prefix).
    fn min_record(&self, mut at: u32) -> u32 {
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf(leaf) => return leaf.recs[0],
                Node::Inner(inner) => at = inner.children[0],
            }
        }
    }

    /// Largest record in the subtree.
    fn max_record(&self, mut at: u32) -> u32 {
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf(leaf) => return *leaf.recs.last().expect("non-empty leaf"),
                Node::Inner(inner) => at = *inner.children.last().expect("has children"),
            }
        }
    }

    /// The leaf `key` belongs in.
    fn leaf_of(&self, key: &[u8]) -> &Leaf {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Inner(inner) => at = inner.child(key),
                Node::Leaf(leaf) => return leaf,
            }
        }
    }

    /// Point lookup: navigate by partial keys, verify against the record.
    /// Borrows the stored value; see [`Hot::get`] for the cloning form.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let leaf = self.leaf_of(key);
        let i = leaf.probe(&self.keys, key).ok()?;
        Some(&self.values[leaf.recs[i] as usize])
    }

    /// Point lookup, cloning the stored value (a copy for `u64` ids). Use
    /// [`Hot::get_ref`] to borrow instead.
    pub fn get(&self, key: &[u8]) -> Option<V>
    where
        V: Clone,
    {
        self.get_ref(key).cloned()
    }

    /// Insert or update; returns the previous value if the key existed.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        // Update in place if present (records are authoritative).
        let leaf = self.leaf_of(key);
        if let Ok(i) = leaf.probe(&self.keys, key) {
            let rec = leaf.recs[i] as usize;
            return Some(std::mem::replace(&mut self.values[rec], value));
        }
        let rec = u32::try_from(self.values.len()).expect("fewer than 2^32 records");
        // A record under every node of the path the insert descends until
        // it breaks a skipped prefix; the empty root leaf has none.
        let witness = leaf.recs.first().copied().unwrap_or(rec);
        self.keys.push(key);
        self.values.push(value);
        let root = self.root;
        if let Some((sep, right)) = self.insert_rec(root, rec, witness) {
            // The new root may skip the prefix shared by *all* keys, i.e.
            // lcp(global min, global max); every separator between them
            // shares it too.
            let min = self.min_record(root);
            let max = self.max_record(right);
            let skip = lcp_len(self.rec_key(min), self.rec_key(max));
            debug_assert!(sep.len() > skip, "separator inside shared prefix");
            let seps = KeyBlock::from_sorted(&[&sep[skip..]], false);
            let children = vec![root, right];
            self.root = self.push_node(Node::Inner(Inner { skip: skip as u32, seps, children }));
        }
        None
    }

    fn push_node(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Insert record `rec` under `at`; returns a split (absolute separator,
    /// right node) if `at` overflowed. `witness` is a record of the leaf
    /// the key was first looked up in ([`Hot::reduce_skip`]).
    fn insert_rec(&mut self, at: u32, rec: u32, witness: u32) -> Option<(Vec<u8>, u32)> {
        // Adapt the skipped prefix first if the new key breaks it.
        self.reduce_skip(at, rec, witness);
        let key = self.keys.get(rec as usize);
        match &mut self.nodes[at as usize] {
            Node::Leaf(leaf) => {
                let (Ok(i) | Err(i)) = leaf.search(&self.keys, key);
                leaf.insert_at(&self.keys, i, rec);
                if leaf.recs.len() <= K {
                    return None;
                }
                let mid = leaf.recs.len() / 2;
                let sep = shortest_separator(
                    self.keys.get(leaf.recs[mid - 1] as usize),
                    self.keys.get(leaf.recs[mid] as usize),
                );
                let right = leaf.split_off(&self.keys, mid);
                Some((sep, self.push_node(Node::Leaf(right))))
            }
            Node::Inner(inner) => {
                let child = inner.child(key);
                let (sep_abs, right) = self.insert_rec(child, rec, witness)?;
                let Node::Inner(inner) = &mut self.nodes[at as usize] else {
                    unreachable!("node kind changed")
                };
                let s = inner.skip as usize;
                debug_assert!(sep_abs.len() > s, "separator shorter than skip");
                let sep = &sep_abs[s..];
                let pos = inner.seps.lower_bound(sep);
                inner.seps.insert_at(pos, sep, false, K);
                inner.children.insert(pos + 1, right);
                if inner.seps.len() < K {
                    return None;
                }
                // Split this compound node, promoting the middle separator.
                let mid = inner.seps.len() / 2;
                let up_rel = inner.seps.full_key(mid);
                let seps = inner.seps.split_off(mid, mid + 1, false);
                let children = inner.children.split_off(mid + 1);
                let left_child = inner.children[0];
                let right = self.push_node(Node::Inner(Inner { skip: s as u32, seps, children }));
                // Recover the skipped prefix from any record on the left.
                let prefix_rec = self.min_record(left_child);
                Some(([&self.rec_key(prefix_rec)[..s], &up_rel].concat(), right))
            }
        }
    }

    /// If record `rec`'s key does not share compound node `at`'s skipped
    /// prefix, drop `skip` to the length it does share and rebuild the
    /// node's separator block with the dropped bytes in front of every
    /// separator (rare: only a key outside every key of the subtree).
    ///
    /// `witness` stands in for the subtree's keys in the test, through
    /// its common prefix with the key, capped at `skip`. Down to the first
    /// node the key breaks, the witness lies in the node's subtree, so it
    /// shares the whole skipped prefix. From that node on the descent can
    /// leave the witness's path, and the witness can be shorter than a
    /// deeper node's `skip`; but it shares the broken node's old prefix
    /// with every key below, and the key leaves that prefix at the same
    /// byte for all of them. Only the dropped bytes are read from the
    /// subtree itself.
    fn reduce_skip(&mut self, at: u32, rec: u32, witness: u32) {
        let Node::Inner(inner) = &self.nodes[at as usize] else { return };
        let old = inner.skip as usize;
        let new = lcp_len(self.rec_key(witness), self.rec_key(rec)).min(old);
        if new == old {
            return;
        }
        let reference = self.min_record(at) as usize;
        let dropped = &self.keys.get(reference)[new..old];
        let Node::Inner(inner) = &mut self.nodes[at as usize] else { unreachable!() };
        inner.skip = new as u32;
        let n = inner.seps.len();
        inner.seps = KeyBlock::packed(dropped, (0..n).map(|i| inner.seps.suffix(i)), false);
    }

    /// Build the tree over the record heap — sorted, just filled by a bulk
    /// load — level by level: leaves of [`load_chunk`] consecutive
    /// records, then compound nodes over [`load_chunk`] children each. A
    /// subtree spans a run of consecutive records, so its `skip` is the
    /// common prefix of the first and the last of them, and every
    /// separator inside it — one byte past the common prefix of its two
    /// neighbours — is longer.
    fn load_levels(&mut self) {
        let n = self.len();
        let mut nodes = n.div_ceil(LOAD_FILL);
        let mut total = nodes;
        while nodes > 1 {
            nodes = nodes.div_ceil(LOAD_FILL);
            total += nodes;
        }
        self.nodes.clear();
        self.nodes.reserve_exact(total);
        // Per node of the level: the records it spans; `seps[i]` is the
        // absolute separator between node `i` and node `i + 1`.
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(n.div_ceil(LOAD_FILL));
        let mut seps: Vec<Vec<u8>> = Vec::with_capacity(spans.capacity());
        let mut at = 0;
        while at < n {
            let end = at + load_chunk(n - at);
            if at > 0 {
                seps.push(shortest_separator(self.rec_key(at as u32 - 1), self.rec_key(at as u32)));
            }
            let leaf = Leaf::packed(&self.keys, (at as u32..end as u32).collect());
            self.nodes.push(Node::Leaf(leaf));
            spans.push((at as u32, end as u32 - 1));
            at = end;
        }
        let mut first_node = 0u32; // the level's nodes are consecutive
        while spans.len() > 1 {
            let n = spans.len();
            let mut upper_spans = Vec::with_capacity(n.div_ceil(LOAD_FILL));
            let mut upper_seps = Vec::with_capacity(n / LOAD_FILL);
            let mut at = 0;
            while at < n {
                let end = at + load_chunk(n - at);
                let (min, max) = (spans[at].0, spans[end - 1].1);
                let skip = lcp_len(self.rec_key(min), self.rec_key(max));
                let below = seps[at..end - 1].iter().map(|s| &s[skip..]);
                self.nodes.push(Node::Inner(Inner {
                    skip: skip as u32,
                    seps: KeyBlock::packed(&[], below, false),
                    children: (first_node + at as u32..first_node + end as u32).collect(),
                }));
                upper_spans.push((min, max));
                if end < n {
                    upper_seps.push(std::mem::take(&mut seps[end - 1]));
                }
                at = end;
            }
            first_node += n as u32;
            (spans, seps) = (upper_spans, upper_seps);
        }
        self.root = first_node;
    }

    /// In-order traversal; `bounded` = the subtree may still contain
    /// keys below `start` (we are on the boundary path). `f` returning
    /// false stops the walk.
    fn scan_rec(
        &self,
        at: u32,
        start: &[u8],
        bounded: bool,
        f: &mut dyn FnMut(&[u8], &V) -> bool,
    ) -> bool {
        match &self.nodes[at as usize] {
            Node::Leaf(leaf) => {
                let from = if bounded { leaf.lower_bound(&self.keys, start) } else { 0 };
                leaf.recs[from..].iter().all(|&r| f(self.rec_key(r), &self.values[r as usize]))
            }
            Node::Inner(inner) => {
                let mut from_child = 0usize;
                let mut boundary = false;
                if bounded {
                    // Compare start against the skipped prefix (recovered
                    // from a record) to decide whether navigation by
                    // partial keys is valid.
                    let s = inner.skip as usize;
                    let reference = self.min_record(at);
                    let pfx = &self.rec_key(reference)[..s];
                    let m = lcp_len(pfx, start);
                    if m < s.min(start.len()) {
                        if start[m] > pfx[m] {
                            return true; // whole subtree below start
                        }
                        // subtree entirely above start: unbounded scan
                    } else if start.len() > s {
                        from_child = inner.seps.upper_bound(&start[s..]);
                        boundary = true;
                    }
                    // start exhausted within the prefix: unbounded scan
                }
                inner
                    .children
                    .iter()
                    .enumerate()
                    .skip(from_child)
                    .all(|(i, &c)| self.scan_rec(c, start, boundary && i == from_child, f))
            }
        }
    }

    /// Average leaf depth (compound-node steps) — height diagnostic.
    pub fn avg_depth(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sum = 0u64;
        let mut n = 0u64;
        let mut stack = vec![(self.root, 1u32)];
        while let Some((at, d)) = stack.pop() {
            match &self.nodes[at as usize] {
                Node::Leaf(leaf) => {
                    sum += d as u64 * leaf.recs.len() as u64;
                    n += leaf.recs.len() as u64;
                }
                Node::Inner(inner) => {
                    for &c in &inner.children {
                        stack.push((c, d + 1));
                    }
                }
            }
        }
        sum as f64 / n.max(1) as f64
    }
}

/// HOT satisfies the generic ordered-index contract HOPE serving layers
/// program against, for any value payload. `memory_bytes` counts both the
/// partial-key compound nodes and the record heap — behind this trait the
/// trie is the full store, not an index over an external table.
impl<V: hope::Value> hope::OrderedIndex<V> for Hot<V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        Hot::get_ref(self, key)
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        Hot::insert(self, key, value)
    }

    /// The run becomes the record heap — ids and values reserved from its
    /// `size_hint`, the key bytes exact once the run is in — and the tree
    /// is built over it level by level: no descent and no split per key.
    /// Into a trie that already holds keys the run is inserted pair by
    /// pair.
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
            self.load_levels();
        }
    }

    /// Walks the leaves in key order and hands out each hit's key as a
    /// slice of the record heap.
    fn visit(&self, low: &[u8], f: &mut dyn FnMut(&[u8], &V) -> bool) {
        self.scan_rec(self.root, low, true, f);
    }

    fn len(&self) -> usize {
        Hot::len(self)
    }

    fn memory_bytes(&self) -> usize {
        self.index_memory_bytes() + self.record_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::OrderedIndex;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Values of the first `count` keys `>= start`.
    fn scan(t: &Hot, start: &[u8], count: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.visit(start, &mut |_, v| {
            out.push(*v);
            out.len() < count
        });
        out
    }

    fn range(t: &Hot, low: &[u8], high: &[u8], limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        t.range_into(low, high, limit, &mut out);
        out
    }

    #[test]
    fn insert_get_small() {
        let mut h = Hot::new();
        assert_eq!(h.insert(b"banana", 2), None);
        assert_eq!(h.insert(b"apple", 1), None);
        assert_eq!(h.insert(b"cherry", 3), None);
        assert_eq!(h.get(b"apple"), Some(1));
        assert_eq!(h.get(b"banana"), Some(2));
        assert_eq!(h.get(b"cherry"), Some(3));
        assert_eq!(h.get(b"durian"), None);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn update_in_place() {
        let mut h = Hot::new();
        h.insert(b"k", 1);
        assert_eq!(h.insert(b"k", 9), Some(1));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(b"k"), Some(9));
    }

    #[test]
    fn many_keys_with_shared_prefixes() {
        let mut h = Hot::new();
        let n = 3000u64;
        for i in 0..n {
            h.insert(format!("com.gmail@user{:06}", i * 13 % n).as_bytes(), i);
        }
        assert_eq!(h.len() as u64, n);
        for i in 0..n {
            let k = format!("com.gmail@user{:06}", i * 13 % n);
            assert_eq!(h.get(k.as_bytes()), Some(i), "{k}");
        }
        // Fanout 32 keeps the tree very flat.
        assert!(h.height() <= 4, "height {}", h.height());
    }

    #[test]
    fn skip_reduction_on_prefix_break() {
        let mut h = Hot::new();
        for i in 0..200u64 {
            h.insert(format!("shared-prefix/{i:05}").as_bytes(), i);
        }
        // Now insert keys that do not share the prefix at all.
        h.insert(b"alpha", 900);
        h.insert(b"zz", 901);
        assert_eq!(h.get(b"alpha"), Some(900));
        assert_eq!(h.get(b"zz"), Some(901));
        for i in (0..200u64).step_by(37) {
            let k = format!("shared-prefix/{i:05}");
            assert_eq!(h.get(k.as_bytes()), Some(i), "{k}");
        }
    }

    /// A key breaking the root's `skip` can descend into a subtree whose
    /// own `skip` is longer than the key of the leaf it was first looked
    /// up in: "abd" is first looked up in the leaf that starts with
    /// "abc", but once the root's `skip` drops to "ab" it sorts above
    /// every separator and enters the "abcdefgh…" subtree (skip 9).
    #[test]
    fn skip_break_descends_past_a_short_witness() {
        let mut keys = vec![b"abc".to_vec()];
        keys.extend((0..600).map(|i| format!("abca{i:04}").into_bytes()));
        keys.extend((0..600).map(|i| format!("abcdefgh{i:04}").into_bytes()));
        let mut h = Hot::new();
        h.load_sorted(&mut keys.iter().map(Vec::as_slice).zip(0..));
        assert!(h.height() >= 3, "height {}", h.height());
        assert_eq!(h.insert(b"abd", 9_000), None);
        assert_eq!(h.insert(b"ab", 9_001), None);
        assert_eq!(h.insert(b"abcdefgi", 9_002), None);
        keys.extend([&b"abd"[..], b"ab", b"abcdefgi"].map(<[u8]>::to_vec));
        let values = (0..1_201).chain(9_000..9_003);
        for (k, v) in keys.iter().zip(values) {
            assert_eq!(h.get(k), Some(v), "{k:?}");
        }
        let mut sorted = keys.clone();
        sorted.sort();
        let mut walked = Vec::new();
        h.visit(b"", &mut |k, _| {
            walked.push(k.to_vec());
            true
        });
        assert_eq!(walked, sorted);
    }

    /// What a bulk load builds:the run as the record heap, leaves of
    /// consecutive records first, compound nodes of 2 to `LOAD_FILL`
    /// children whose `skip` is shorter than every separator was, every
    /// buffer at its exact capacity, and every leaf's `skip` and partial
    /// keys tight.
    #[test]
    fn bulk_load_packs_nodes_level_by_level() {
        for n in [1usize, 23, 24, 25, 47, 48, 577, 5_000] {
            let keys: Vec<Vec<u8>> =
                (0..n).map(|i| format!("com.example/{i:06}").into_bytes()).collect();
            let mut h = Hot::new();
            h.load_sorted(&mut keys.iter().map(Vec::as_slice).zip(0..));
            assert_eq!(h.len(), n);
            assert!(h.keys.is_exact(), "{n} keys");
            assert_eq!(h.values.capacity(), n);
            assert_eq!(h.nodes.capacity(), h.nodes.len(), "{n} keys");
            let mut next_rec = 0u32;
            for node in &h.nodes {
                match node {
                    Node::Leaf(leaf) => {
                        let recs = &leaf.recs;
                        assert!((1..=LOAD_FILL).contains(&recs.len()), "{n} keys");
                        assert_eq!(recs.capacity(), recs.len());
                        assert_eq!(leaf.heads.capacity(), recs.len());
                        assert!(recs.iter().copied().eq(next_rec..next_rec + recs.len() as u32));
                        next_rec += recs.len() as u32;
                        check_leaf(leaf, &h.keys);
                    }
                    Node::Inner(inner) => {
                        assert_eq!(next_rec as usize, n, "{n} keys: an inner node before a leaf");
                        let fan = inner.children.len();
                        assert!((2..=LOAD_FILL).contains(&fan), "{n} keys");
                        assert_eq!(inner.seps.len() + 1, fan);
                        assert!(inner.seps.is_exact(), "{n} keys");
                        assert_eq!(inner.children.capacity(), fan);
                        assert!(inner.skip as usize >= b"com.example/".len());
                        assert!(
                            (0..fan - 1).all(|i| !inner.seps.suffix(i).is_empty()),
                            "a separator inside the skip"
                        );
                    }
                }
            }
            assert_eq!(scan(&h, b"", n + 1), (0..n as u64).collect::<Vec<u64>>());
            assert_eq!(h.get(&keys[n / 2]), Some(n as u64 / 2));
        }
    }

    /// `leaf`'s `skip` is the common prefix of its first and last key and
    /// every partial key is taken from it.
    fn check_leaf(leaf: &Leaf, keys: &KeyRun) {
        assert_eq!(leaf.recs.len(), leaf.heads.len());
        let (Some(&first), Some(&last)) = (leaf.recs.first(), leaf.recs.last()) else { return };
        let skip = lcp_len(keys.get(first as usize), keys.get(last as usize));
        assert_eq!(leaf.skip as usize, skip, "a loose or broken leaf skip");
        for (&r, &h) in leaf.recs.iter().zip(&leaf.heads) {
            assert_eq!(h, head(&keys.get(r as usize)[skip..]), "partial key of record {r}");
        }
    }

    /// Every string of up to 4 letters over `0x00`, `a`, `0xff`, sorted. A
    /// letter is `width` copies of its byte: at width 3 strings share
    /// 4-byte partial keys and differ after them, and at width 1 `a` and
    /// `a\0` tie in theirs.
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

    /// `leaf` holds exactly the records `recs` of `keys`, tight, and its
    /// searches agree with `partition_point` on every query: `search` and
    /// `lower_bound` on position, `probe` on membership.
    fn check_search(leaf: &Leaf, keys: &KeyRun, recs: &[u32], queries: &[Vec<u8>]) {
        assert_eq!(leaf.recs, recs);
        check_leaf(leaf, keys);
        let stored: Vec<&[u8]> = recs.iter().map(|&r| keys.get(r as usize)).collect();
        for q in queries {
            let q = q.as_slice();
            let lower = stored.partition_point(|k| *k < q);
            let hit = stored.get(lower) == Some(&q);
            let want = if hit { Ok(lower) } else { Err(lower) };
            assert_eq!(leaf.search(keys, q), want, "{stored:?}: search({q:?})");
            assert_eq!(leaf.probe(keys, q).ok(), want.ok(), "{stored:?}: probe({q:?})");
            assert_eq!(leaf.lower_bound(keys, q), lower);
        }
    }

    /// Leaves of up to `K + 1` records — runs of neighbouring words (long
    /// common prefixes) and strided picks (none) — answer like
    /// `partition_point`, whether loaded, built by inserts in a scrambled
    /// order (`skip` shrinking as they go) or cut by a split.
    #[test]
    fn leaf_search_matches_partition_point() {
        for width in [1, 3] {
            let words = words(width);
            let mut keys = KeyRun::default();
            words.iter().for_each(|w| keys.push(w));
            for start in 0..words.len() {
                for (n, stride) in [(1, 1), (2, 1), (5, 1), (24, 1), (33, 1), (5, 7), (33, 3)] {
                    let recs: Vec<u32> = (0..n)
                        .map(|j| start + j * stride)
                        .take_while(|&at| at < words.len())
                        .map(|at| at as u32)
                        .collect();
                    let loaded = Leaf::packed(&keys, recs.clone());
                    check_search(&loaded, &keys, &recs, &words);

                    let n = recs.len();
                    let mut inserted = Leaf::default();
                    let odd_then_even: Vec<usize> =
                        (1..n).step_by(2).chain((0..n).step_by(2).rev()).collect();
                    for j in 0..n {
                        let rec = recs[odd_then_even[(j + start) % n]];
                        let at = inserted.lower_bound(&keys, keys.get(rec as usize));
                        inserted.insert_at(&keys, at, rec);
                    }
                    check_search(&inserted, &keys, &recs, &words);

                    if n >= 3 {
                        let mid = n / 2;
                        let right = inserted.split_off(&keys, mid);
                        check_search(&inserted, &keys, &recs[..mid], &words);
                        check_search(&right, &keys, &recs[mid..], &words);
                        assert_eq!(right.recs.capacity(), n - mid);
                        assert_eq!(right.heads.capacity(), n - mid);
                    }
                }
            }
        }
    }

    /// A leaf grows once, to `K + 1` slots, whether it was loaded or
    /// started empty, and never past that.
    #[test]
    fn leaves_grow_once_to_room_for_a_split() {
        let words = words(1);
        let mut keys = KeyRun::default();
        words.iter().for_each(|w| keys.push(w));
        let mut leaf = Leaf::packed(&keys, (0..LOAD_FILL as u32).collect());
        leaf.insert_at(&keys, LOAD_FILL, LOAD_FILL as u32);
        assert_eq!((leaf.recs.capacity(), leaf.heads.capacity()), (LEAF_ROOM, LEAF_ROOM));
        for rec in LOAD_FILL as u32 + 1..LEAF_ROOM as u32 {
            leaf.insert_at(&keys, rec as usize, rec);
        }
        assert_eq!((leaf.recs.capacity(), leaf.heads.capacity()), (LEAF_ROOM, LEAF_ROOM));
        let mut fresh = Leaf::default();
        fresh.insert_at(&keys, 0, 0);
        assert_eq!(fresh.recs.capacity(), LEAF_ROOM);
    }

    /// The node is what a trie of many small nodes pays per node: a
    /// compound node's key block, child ids and skip. Leaves, about 96 %
    /// of the nodes, use half of it.
    #[test]
    fn node_stays_small() {
        assert_eq!(std::mem::size_of::<Leaf>(), 56);
        assert_eq!(std::mem::size_of::<Node>(), 112);
    }

    #[test]
    fn scan_in_order() {
        let mut h = Hot::new();
        for i in 0..500u64 {
            h.insert(format!("user{i:04}").as_bytes(), i);
        }
        assert_eq!(scan(&h, b"user0100", 5), vec![100, 101, 102, 103, 104]);
        assert_eq!(scan(&h, b"", 3), vec![0, 1, 2]);
        assert!(scan(&h, b"zzz", 3).is_empty());
    }

    #[test]
    fn bounded_range_is_inclusive_and_ordered() {
        let mut h = Hot::new();
        for i in 0..500u64 {
            h.insert(format!("user{i:04}").as_bytes(), i);
        }
        assert_eq!(range(&h, b"user0100", b"user0104", 10), vec![100, 101, 102, 103, 104]);
        assert_eq!(range(&h, b"user0100", b"user0104", 3).len(), 3);
        assert!(range(&h, b"zz", b"aa", 10).is_empty());
        let mut buf = vec![7u64];
        h.range_into(b"user0000", b"user0001", 10, &mut buf);
        assert_eq!(buf, vec![7, 0, 1]);
    }

    #[test]
    fn non_u64_payloads_round_trip_through_the_trait() {
        let mut h: Hot<Vec<u8>> = Hot::new();
        let ix: &mut dyn OrderedIndex<Vec<u8>> = &mut h;
        assert_eq!(ix.insert(b"a", b"one".to_vec()), None);
        assert_eq!(ix.insert(b"a", b"two".to_vec()), Some(b"one".to_vec()));
        assert_eq!(ix.get(b"a"), Some(&b"two".to_vec()));
        let mut out = Vec::new();
        ix.range_into(b"a", b"z", 10, &mut out);
        assert_eq!(out, vec![b"two".to_vec()]);
    }

    /// The index holds partial keys: lengthening every key's shared path
    /// by 324 bytes leaves the index's bytes where they were and only the
    /// record heap grows. A loaded trie's index is also under half its
    /// heap.
    #[test]
    fn index_memory_is_partial() {
        let build = |path: &str| {
            let mut h = Hot::new();
            for i in 0..2000u64 {
                h.insert(format!("http://site.example/{path}/{i:06}").as_bytes(), i);
            }
            h
        };
        let short = build("long/path");
        let long = build(&format!("long/path{}", "/x".repeat(162)));
        println!(
            "index {} / {} B, heap {} / {} B",
            short.index_memory_bytes(),
            long.index_memory_bytes(),
            short.record_memory_bytes(),
            long.record_memory_bytes()
        );
        assert_eq!(short.index_memory_bytes(), long.index_memory_bytes());
        assert!(
            long.record_memory_bytes() >= 5 * short.record_memory_bytes(),
            "heap {} vs {}",
            long.record_memory_bytes(),
            short.record_memory_bytes()
        );
        let mut loaded = Hot::new();
        let mut run = Vec::new();
        short.for_each(&mut |k, &v| run.push((k.to_vec(), v)));
        loaded.load_sorted(&mut run.iter().map(|(k, v)| (k.as_slice(), *v)));
        println!(
            "loaded: index {} B, heap {} B",
            loaded.index_memory_bytes(),
            loaded.record_memory_bytes()
        );
        assert!(
            loaded.index_memory_bytes() < loaded.record_memory_bytes() / 2,
            "index {} heap {}",
            loaded.index_memory_bytes(),
            loaded.record_memory_bytes()
        );
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
            let mut h = Hot::new();
            let mut model = BTreeMap::new();
            for (k, v) in &ops {
                prop_assert_eq!(h.insert(k, *v), model.insert(k.clone(), *v));
            }
            prop_assert_eq!(h.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(h.get(k), Some(*v), "missing {:?}", k);
            }
            for p in &probes {
                prop_assert_eq!(h.get(p), model.get(p).copied());
            }
            let want: Vec<u64> = model.range(start.clone()..).take(25).map(|(_, v)| *v).collect();
            prop_assert_eq!(scan(&h, &start, 25), want);
            for pair in probes.chunks(2) {
                if let [a, b] = pair {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let want: Vec<u64> =
                        model.range(lo.clone()..=hi.clone()).take(10).map(|(_, v)| *v).collect();
                    prop_assert_eq!(range(&h, lo, hi, 10), want, "range {:?}..={:?}", lo, hi);
                }
            }
        }
    }
}

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
//! Differences from the original (see DESIGN.md): in-node search is
//! binary instead of SIMD, and compound nodes hold separator arrays rather
//! than bit-level Patricia slices. Neither changes the asymptotics the
//! paper's figures measure. The trie is generic over its value payload
//! (`Hot<V>`, any [`hope::Value`]; defaults to `u64` record ids) and
//! implements the [`hope::OrderedIndex<V>`] contract serving layers
//! program against.
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

use hope::axis::{lcp_len, shortest_separator};

/// Maximum compound-node fan-out (HOT's k).
pub const K: usize = 32;

/// Slots a bulk load ([`hope::OrderedIndex::load_sorted`]) fills per node:
/// ¾ of [`K`], the gap `hope_btree` measured (DESIGN.md, "Bulk load").
const LOAD_FILL: usize = K * 3 / 4;

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

#[derive(Debug)]
enum Node {
    /// Sorted record ids (≤ K of them).
    Leaf { recs: Vec<u32> },
    /// `skip` bytes are shared by every key in the subtree and not stored;
    /// separators are relative to `skip`. Child `i` holds keys `< seps[i]`,
    /// child `i+1` keys `>= seps[i]` (comparing `key[skip..]`).
    Inner { skip: u32, seps: Vec<Box<[u8]>>, children: Vec<u32> },
}

/// The height-optimized trie over byte-string keys and `V` values
/// (default: `u64` ids).
#[derive(Debug)]
pub struct Hot<V = u64> {
    nodes: Vec<Node>,
    root: u32,
    /// The simulated tuple store: full keys + values. Navigation uses only
    /// partial keys; exact results are verified here.
    records: Vec<(Box<[u8]>, V)>,
}

impl<V> Default for Hot<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Hot<V> {
    /// New empty trie.
    pub fn new() -> Self {
        Hot { nodes: vec![Node::Leaf { recs: Vec::new() }], root: 0, records: Vec::new() }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index memory: compound nodes (partial separators + child/record
    /// slots). Excludes the record heap — HOT stores only partial keys.
    pub fn index_memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + match n {
                        Node::Leaf { recs } => recs.len() * 4,
                        Node::Inner { seps, children, .. } => {
                            seps.iter()
                                .map(|s| std::mem::size_of::<Box<[u8]>>() + s.len())
                                .sum::<usize>()
                                + children.len() * 4
                        }
                    }
            })
            .sum()
    }

    /// Memory of the simulated record heap (full keys + values).
    pub fn record_memory_bytes(&self) -> usize {
        self.records.iter().map(|(k, _)| std::mem::size_of::<(Box<[u8]>, V)>() + k.len()).sum()
    }

    /// Tree height in levels (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut at = self.root;
        while let Node::Inner { children, .. } = &self.nodes[at as usize] {
            at = children[0];
            h += 1;
        }
        h
    }

    #[inline]
    fn rec_key(&self, rec: u32) -> &[u8] {
        &self.records[rec as usize].0
    }

    /// Smallest record in the subtree (used to recover skipped prefix
    /// bytes: every subtree key shares the node's skipped prefix).
    fn min_record(&self, mut at: u32) -> u32 {
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf { recs } => return recs[0],
                Node::Inner { children, .. } => at = children[0],
            }
        }
    }

    /// Largest record in the subtree.
    fn max_record(&self, mut at: u32) -> u32 {
        loop {
            match &self.nodes[at as usize] {
                Node::Leaf { recs } => return *recs.last().expect("non-empty leaf"),
                Node::Inner { children, .. } => at = *children.last().expect("has children"),
            }
        }
    }

    /// Point lookup: navigate by partial keys, verify against the record.
    /// Borrows the stored value; see [`Hot::get`] for the cloning form.
    pub fn get_ref(&self, key: &[u8]) -> Option<&V> {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Inner { skip, seps, children } => {
                    let q = &key[(*skip as usize).min(key.len())..];
                    let i = seps.partition_point(|s| s.as_ref() <= q);
                    at = children[i];
                }
                Node::Leaf { recs } => {
                    let i = recs.partition_point(|&r| self.rec_key(r) < key);
                    return (i < recs.len() && self.rec_key(recs[i]) == key)
                        .then(|| &self.records[recs[i] as usize].1);
                }
            }
        }
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
        if let Some(rec) = self.find_record(key) {
            let old = std::mem::replace(&mut self.records[rec as usize].1, value);
            return Some(old);
        }
        self.records.push((key.into(), value));
        let rec = (self.records.len() - 1) as u32;
        let root = self.root;
        if let Some((sep, right)) = self.insert_rec(root, key, rec) {
            // The new root may skip the prefix shared by *all* keys, i.e.
            // lcp(global min, global max); every separator between them
            // shares it too.
            let min = self.min_record(root);
            let max = self.max_record(right);
            let skip = lcp_len(self.rec_key(min), self.rec_key(max));
            debug_assert!(sep.len() > skip, "separator inside shared prefix");
            let sep_rel: Box<[u8]> = sep[skip..].into();
            self.nodes.push(Node::Inner {
                skip: skip as u32,
                seps: vec![sep_rel],
                children: vec![root, right],
            });
            self.root = (self.nodes.len() - 1) as u32;
        }
        None
    }

    fn find_record(&self, key: &[u8]) -> Option<u32> {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                Node::Inner { skip, seps, children } => {
                    let q = &key[(*skip as usize).min(key.len())..];
                    let i = seps.partition_point(|s| s.as_ref() <= q);
                    at = children[i];
                }
                Node::Leaf { recs } => {
                    let i = recs.partition_point(|&r| self.rec_key(r) < key);
                    return (i < recs.len() && self.rec_key(recs[i]) == key).then(|| recs[i]);
                }
            }
        }
    }

    /// Returns a split (absolute separator, right node) if `at` overflowed.
    fn insert_rec(&mut self, at: u32, key: &[u8], rec: u32) -> Option<(Vec<u8>, u32)> {
        // Adapt the skipped prefix first if the new key breaks it.
        self.maybe_reduce_skip(at, key);
        match &self.nodes[at as usize] {
            Node::Leaf { .. } => {
                let Node::Leaf { recs } = &mut self.nodes[at as usize] else { unreachable!() };
                let recs_snapshot: Vec<u32> = recs.clone();
                let i =
                    recs_snapshot.partition_point(|&r| self.records[r as usize].0.as_ref() < key);
                let Node::Leaf { recs } = &mut self.nodes[at as usize] else { unreachable!() };
                recs.insert(i, rec);
                if recs.len() <= K {
                    return None;
                }
                let mid = recs.len() / 2;
                let right_recs = recs.split_off(mid);
                let left_max = *recs.last().expect("non-empty left");
                let right_min = right_recs[0];
                let sep = shortest_separator(self.rec_key(left_max), self.rec_key(right_min));
                self.nodes.push(Node::Leaf { recs: right_recs });
                Some((sep, (self.nodes.len() - 1) as u32))
            }
            Node::Inner { skip, seps, children } => {
                let q = &key[(*skip as usize).min(key.len())..];
                let i = seps.partition_point(|s| s.as_ref() <= q);
                let child = children[i];
                let split = self.insert_rec(child, key, rec)?;
                let (sep_abs, right) = split;
                let Node::Inner { skip, seps, children } = &mut self.nodes[at as usize] else {
                    unreachable!()
                };
                let s = *skip as usize;
                debug_assert!(sep_abs.len() > s, "separator shorter than skip");
                let sep_rel: Box<[u8]> = sep_abs[s..].into();
                let pos = seps.partition_point(|x| x.as_ref() < sep_rel.as_ref());
                seps.insert(pos, sep_rel);
                children.insert(pos + 1, right);
                if seps.len() < K {
                    return None;
                }
                // Split this compound node, promoting the middle separator.
                let mid = seps.len() / 2;
                let up_rel = seps[mid].clone();
                let mut up = Vec::with_capacity(s + up_rel.len());
                // Recover the skipped prefix from any record on the left.
                let left_child = children[0];
                let right_seps: Vec<Box<[u8]>> = seps.split_off(mid + 1);
                let promoted = seps.pop().expect("mid separator");
                debug_assert_eq!(&promoted, &up_rel);
                let right_children = children.split_off(mid + 1);
                let skip_val = *skip;
                self.nodes.push(Node::Inner {
                    skip: skip_val,
                    seps: right_seps,
                    children: right_children,
                });
                let right = (self.nodes.len() - 1) as u32;
                let prefix_rec = self.min_record(left_child);
                up.extend_from_slice(&self.rec_key(prefix_rec)[..s]);
                up.extend_from_slice(&up_rel);
                Some((up, right))
            }
        }
    }

    /// Build the tree over `records` — sorted, just filled by a bulk load —
    /// level by level: leaves of [`load_chunk`] consecutive records, then
    /// compound nodes over [`load_chunk`] children each. A subtree spans a
    /// run of consecutive records, so its `skip` is the common prefix of
    /// the first and the last of them, and every separator inside it —
    /// one byte past the common prefix of its two neighbours — is longer.
    fn load_levels(&mut self) {
        let n = self.records.len();
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
            self.nodes.push(Node::Leaf { recs: (at as u32..end as u32).collect() });
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
                self.nodes.push(Node::Inner {
                    skip: skip as u32,
                    seps: seps[at..end - 1].iter().map(|s| Box::from(&s[skip..])).collect(),
                    children: (first_node + at as u32..first_node + end as u32).collect(),
                });
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

    /// If `key` does not share a node's skipped prefix, re-expand the
    /// separators so the node's `skip` drops to the actual shared length.
    fn maybe_reduce_skip(&mut self, at: u32, key: &[u8]) {
        let (old_skip, needs) = match &self.nodes[at as usize] {
            Node::Inner { skip, .. } if *skip > 0 => {
                let reference = self.min_record(at);
                let shared = lcp_len(self.rec_key(reference), key).min(*skip as usize);
                (*skip as usize, (shared < *skip as usize).then_some(shared))
            }
            _ => (0, None),
        };
        let Some(new_skip) = needs else { return };
        let reference = self.min_record(at);
        let dropped: Vec<u8> = self.rec_key(reference)[new_skip..old_skip].to_vec();
        let Node::Inner { skip, seps, .. } = &mut self.nodes[at as usize] else {
            return;
        };
        *skip = new_skip as u32;
        for s in seps.iter_mut() {
            let mut v = dropped.clone();
            v.extend_from_slice(s);
            *s = v.into_boxed_slice();
        }
    }

    /// In-order traversal; `bounded` = the subtree may still contain
    /// keys below `start` (we are on the boundary path). `high` is the
    /// optional inclusive upper bound; the leaf holding the first record
    /// above it, or `f` returning false, stops the walk.
    fn scan_rec(
        &self,
        at: u32,
        start: &[u8],
        high: Option<&[u8]>,
        bounded: bool,
        f: &mut dyn FnMut(&[u8], &V) -> bool,
    ) -> bool {
        match &self.nodes[at as usize] {
            Node::Leaf { recs } => {
                let from =
                    if bounded { recs.partition_point(|&r| self.rec_key(r) < start) } else { 0 };
                // One `high` compare per leaf: a leaf whose last key is
                // inside the range is emitted whole and uncompared, and
                // only the leaf the range ends in is searched (inverted
                // bounds put that end below `from`: nothing to emit).
                let end = match (high, recs.last()) {
                    (Some(h), Some(&last)) if self.rec_key(last) > h => {
                        Some(recs.partition_point(|&r| self.rec_key(r) <= h))
                    }
                    _ => None,
                };
                let to = end.unwrap_or(recs.len());
                recs[from.min(to)..to].iter().all(|&r| {
                    let (key, value) = &self.records[r as usize];
                    f(key, value)
                }) && end.is_none()
            }
            Node::Inner { skip, seps, children } => {
                let mut from_child = 0usize;
                let mut boundary = false;
                if bounded {
                    // Compare start against the skipped prefix (recovered
                    // from a record) to decide whether navigation by
                    // partial keys is valid.
                    let s = *skip as usize;
                    let reference = self.min_record(at);
                    let pfx = &self.rec_key(reference)[..s];
                    let m = lcp_len(pfx, start);
                    if m < s.min(start.len()) {
                        if start[m] > pfx[m] {
                            return true; // whole subtree below start
                        }
                        // subtree entirely above start: unbounded scan
                    } else if start.len() > s {
                        let q = &start[s..];
                        from_child = seps.partition_point(|x| x.as_ref() <= q);
                        boundary = true;
                    }
                    // start exhausted within the prefix: unbounded scan
                }
                children
                    .iter()
                    .enumerate()
                    .skip(from_child)
                    .all(|(i, &c)| self.scan_rec(c, start, high, boundary && i == from_child, f))
            }
        }
    }

    /// Average leaf depth (compound-node steps) — height diagnostic.
    pub fn avg_depth(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let mut sum = 0u64;
        let mut n = 0u64;
        let mut stack = vec![(self.root, 1u32)];
        while let Some((at, d)) = stack.pop() {
            match &self.nodes[at as usize] {
                Node::Leaf { recs } => {
                    sum += d as u64 * recs.len() as u64;
                    n += recs.len() as u64;
                }
                Node::Inner { children, .. } => {
                    for &c in children {
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

    /// The run becomes the record heap (reserved from its `size_hint`),
    /// and the tree is built over it level by level — no descent and no
    /// split per key. Into a trie that already holds keys the run is
    /// inserted pair by pair.
    fn load_sorted(&mut self, run: &mut dyn Iterator<Item = (&[u8], V)>) {
        if !self.records.is_empty() {
            for (key, value) in run {
                self.insert(key, value);
            }
            return;
        }
        self.records.reserve_exact(run.size_hint().0);
        for (key, value) in run {
            debug_assert!(
                self.records.last().is_none_or(|(prev, _)| prev.as_ref() < key),
                "bulk load must be strictly increasing"
            );
            self.records.push((key.into(), value));
        }
        if !self.records.is_empty() {
            self.load_levels();
        }
    }

    fn visit(&self, low: &[u8], high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool) {
        self.scan_rec(self.root, low, high, true, f);
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
        t.visit(start, None, &mut |_, v| {
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

    /// What a bulk load builds: the run as the record heap, leaves of
    /// consecutive records first, compound nodes of 2 to `LOAD_FILL`
    /// children whose `skip` is shorter than every separator was, every
    /// `Vec` at its exact capacity.
    #[test]
    fn bulk_load_packs_nodes_level_by_level() {
        for n in [1usize, 23, 24, 25, 47, 48, 577, 5_000] {
            let keys: Vec<Vec<u8>> =
                (0..n).map(|i| format!("com.example/{i:06}").into_bytes()).collect();
            let mut h = Hot::new();
            h.load_sorted(&mut keys.iter().map(Vec::as_slice).zip(0..));
            assert_eq!(h.len(), n);
            assert_eq!(h.records.capacity(), n);
            assert_eq!(h.nodes.capacity(), h.nodes.len(), "{n} keys");
            let mut next_rec = 0u32;
            for node in &h.nodes {
                match node {
                    Node::Leaf { recs } => {
                        assert!((1..=LOAD_FILL).contains(&recs.len()), "{n} keys");
                        assert_eq!(recs.capacity(), recs.len());
                        assert!(recs.iter().copied().eq(next_rec..next_rec + recs.len() as u32));
                        next_rec += recs.len() as u32;
                    }
                    Node::Inner { skip, seps, children } => {
                        assert_eq!(next_rec as usize, n, "{n} keys: an inner node before a leaf");
                        assert!((2..=LOAD_FILL).contains(&children.len()), "{n} keys");
                        assert_eq!(seps.len() + 1, children.len());
                        assert_eq!(
                            (seps.capacity(), children.capacity()),
                            (seps.len(), children.len())
                        );
                        assert!(*skip as usize >= b"com.example/".len());
                        assert!(seps.iter().all(|s| !s.is_empty()), "a separator inside the skip");
                    }
                }
            }
            assert_eq!(scan(&h, b"", n + 1), (0..n as u64).collect::<Vec<u64>>());
            assert_eq!(h.get(&keys[n / 2]), Some(n as u64 / 2));
        }
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

    #[test]
    fn index_memory_is_partial() {
        let mut h = Hot::new();
        for i in 0..2000u64 {
            h.insert(format!("http://site.example/long/path/{i:06}").as_bytes(), i);
        }
        // Partial-key index should be far smaller than the record heap.
        assert!(
            h.index_memory_bytes() < h.record_memory_bytes() / 2,
            "index {} heap {}",
            h.index_memory_bytes(),
            h.record_memory_bytes()
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

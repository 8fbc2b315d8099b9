//! The [`OrderedIndex`] abstraction: what HOPE requires of a search tree.
//!
//! HOPE compresses keys for *order-sensitive* structures; any index that
//! maps byte-string keys to values and supports ordered iteration can
//! store HOPE-encoded keys and answer the same point and range queries
//! (§5). This trait captures that contract so serving layers — notably the
//! `hope_store` sharded store — can treat the tree backend as pluggable:
//! `hope_btree::BPlusTree`, `hope_art::Art` and `hope_hot::Hot` implement
//! it, and [`std::collections::BTreeMap`] gets a reference implementation
//! used as the differential-testing oracle.
//!
//! Since the v1 API the trait is **generic over its value payload**
//! `V: `[`Value`] (any `Clone + Send + Sync + Debug + 'static` type), with
//! `u64` as the default parameter so `dyn OrderedIndex` keeps meaning the
//! classic id-valued index. The scan surface is one primitive,
//! [`OrderedIndex::visit`] — a bounded, keyed, early-stopping in-order
//! walk; [`OrderedIndex::range_into`] (values of a bounded range) and
//! [`OrderedIndex::for_each`] (every pair) are provided over it. Bulk
//! construction is one more provided method, [`OrderedIndex::load_sorted`]:
//! its default body inserts pair by pair, and a tree that can be built
//! left to right from a sorted run (`hope_btree`, `hope_hot`) overrides it.
//!
//! Keys are plain byte slices: callers index either raw keys or the padded
//! bytes of an [`EncodedKey`](crate::EncodedKey). The trait requires
//! `Send + Sync` so an index can sit behind a shard's epoch handle and be
//! read from many threads.
//!
//! Two packed key types serve the implementations: a [`KeyBlock`] holds a
//! node's sorted keys in one buffer with a fixed-width head per key, which
//! a node search counts without a branch (the `hope_btree` nodes, the
//! `hope_hot` compound nodes' separators), and a [`KeyRun`] holds keys back
//! to back by position (the `hope_hot` record heap, the `hope_store` entry
//! log). Neither is re-exported from the crate root.

mod key_block;
mod key_run;

pub use key_block::KeyBlock;
pub use key_run::KeyRun;

/// Marker bound for index value payloads.
///
/// Blanket-implemented for every `Clone + Send + Sync + Debug + 'static`
/// type, so `u64` record ids, `Vec<u8>` documents, `Arc<T>` handles and
/// user structs all qualify without opt-in:
///
/// ```
/// fn assert_value<V: hope::Value>() {}
/// assert_value::<u64>();
/// assert_value::<Vec<u8>>();
/// assert_value::<(String, f64)>();
/// ```
pub trait Value: Clone + Send + Sync + std::fmt::Debug + 'static {}

impl<T: Clone + Send + Sync + std::fmt::Debug + 'static> Value for T {}

/// An ordered map from byte-string keys to `V` values.
///
/// The ordering contract: iteration-order equals lexicographic byte order
/// of the stored keys, range bounds are **inclusive** on both ends, and
/// a key may be a prefix of another key (required for HOPE-encoded keys).
pub trait OrderedIndex<V: Value = u64>: Send + Sync + std::fmt::Debug {
    /// Point lookup, borrowing the stored value.
    fn get(&self, key: &[u8]) -> Option<&V>;

    /// Insert or update; returns the previous value if the key existed.
    fn insert(&mut self, key: &[u8], value: V) -> Option<V>;

    /// Bulk load: add every pair of `run`, whose keys arrive **strictly
    /// increasing**. On an empty index — what `hope_store` hands it, at
    /// build and at every rebuild — an implementation may build its nodes
    /// left to right instead of descending from the root per key; on a
    /// non-empty index, and in this provided body, it is `insert` per
    /// pair. Either way the index then answers as if every pair had been
    /// inserted. A run out of order is a caller bug: native loaders
    /// `debug_assert!` it and otherwise build an index that misplaces
    /// keys (never memory-unsafe).
    ///
    /// ```
    /// use hope::OrderedIndex;
    /// use std::collections::BTreeMap;
    ///
    /// let run: [(&[u8], u64); 3] = [(b"a", 1), (b"ab", 2), (b"b", 3)];
    /// let mut ix: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    /// ix.load_sorted(&mut run.into_iter());
    /// assert_eq!(OrderedIndex::len(&ix), 3);
    /// assert_eq!(OrderedIndex::get(&ix, b"ab"), Some(&2));
    /// ```
    fn load_sorted(&mut self, run: &mut dyn Iterator<Item = (&[u8], V)>) {
        for (key, value) in run {
            self.insert(key, value);
        }
    }

    /// Visit the `(key, value)` pairs with `low <= key` and, when `high`
    /// is set, `key <= high` (`None` = to the end of the index), in key
    /// order, until `f` returns `false` — the one scan primitive an
    /// implementation writes. The key slice is valid only for the
    /// duration of the call (a prefix-truncating tree rebuilds it in a
    /// reused buffer). Inverted bounds (`low > high`) visit nothing.
    ///
    /// ```
    /// use hope::OrderedIndex;
    /// use std::collections::BTreeMap;
    ///
    /// let mut ix: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    /// for (i, k) in [&b"a"[..], b"ab", b"b", b"c"].into_iter().enumerate() {
    ///     OrderedIndex::insert(&mut ix, k, i as u64);
    /// }
    /// let mut seen = Vec::new();
    /// ix.visit(b"aa", Some(b"c"), &mut |k, v| {
    ///     seen.push((k.to_vec(), *v));
    ///     seen.len() < 2 // stop after two hits
    /// });
    /// assert_eq!(seen, vec![(b"ab".to_vec(), 1), (b"b".to_vec(), 2)]);
    /// ```
    fn visit(&self, low: &[u8], high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool);

    /// Append clones of the values of up to `limit` keys in `low..=high`
    /// to `out`, in key order — [`OrderedIndex::visit`] for callers that
    /// want no keys, reusing one buffer across scans.
    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<V>) {
        if limit == 0 {
            return;
        }
        let stop = out.len().saturating_add(limit);
        self.visit(low, Some(high), &mut |_, v| {
            out.push(v.clone());
            out.len() < stop
        });
    }

    /// Visit every `(key, value)` pair in key order: the unbounded
    /// [`OrderedIndex::visit`]. `hope_store` rebuilds a shard from this
    /// walk: the index is the only holder of the encoded bytes.
    ///
    /// ```
    /// use hope::OrderedIndex;
    /// use std::collections::BTreeMap;
    ///
    /// let mut ix: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    /// OrderedIndex::insert(&mut ix, b"b", 2);
    /// OrderedIndex::insert(&mut ix, b"a", 1);
    /// OrderedIndex::insert(&mut ix, b"ab", 3);
    /// let mut seen = Vec::new();
    /// OrderedIndex::for_each(&ix, &mut |k, v| seen.push((k.to_vec(), *v)));
    /// assert_eq!(seen, vec![(b"a".to_vec(), 1), (b"ab".to_vec(), 3), (b"b".to_vec(), 2)]);
    /// ```
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &V)) {
        self.visit(b"", None, &mut |k, v| {
            f(k, v);
            true
        });
    }

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the index structure in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Reference implementation over the standard library's ordered map, used
/// as the oracle in differential tests and as a no-frills store backend.
impl<V: Value> OrderedIndex<V> for std::collections::BTreeMap<Vec<u8>, V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        std::collections::BTreeMap::get(self, key)
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        std::collections::BTreeMap::insert(self, key.to_vec(), value)
    }

    /// Walks from the borrowed lower bound and tests `high` per pair
    /// (`BTreeMap::range` panics on inverted bounds).
    fn visit(&self, low: &[u8], high: Option<&[u8]>, f: &mut dyn FnMut(&[u8], &V) -> bool) {
        use std::ops::Bound::{Included, Unbounded};
        for (k, v) in self.range::<[u8], _>((Included(low), Unbounded)) {
            if high.is_some_and(|h| k.as_slice() > h) || !f(k, v) {
                return;
            }
        }
    }

    fn len(&self) -> usize {
        std::collections::BTreeMap::len(self)
    }

    fn memory_bytes(&self) -> usize {
        self.keys().map(|k| k.len() + std::mem::size_of::<(Vec<u8>, V)>()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn trait_object_is_usable_behind_a_box() {
        let mut b: Box<dyn OrderedIndex> = Box::<BTreeMap<Vec<u8>, u64>>::default();
        b.insert(b"k", 7);
        assert_eq!(b.get(b"k"), Some(&7));
    }

    #[test]
    fn non_u64_payloads_round_trip() {
        let mut m: BTreeMap<Vec<u8>, String> = BTreeMap::new();
        let ix: &mut dyn OrderedIndex<String> = &mut m;
        assert_eq!(ix.insert(b"k", "alpha".into()), None);
        assert_eq!(ix.insert(b"k", "beta".into()), Some("alpha".into()));
        assert_eq!(ix.get(b"k").map(String::as_str), Some("beta"));
        let mut out = Vec::new();
        ix.range_into(b"a", b"z", 10, &mut out);
        assert_eq!(out, vec!["beta".to_string()]);
    }
}

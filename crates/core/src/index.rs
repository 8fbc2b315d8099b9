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
//! classic id-valued index. The scan surface is the allocation-free
//! [`OrderedIndex::range_into`] (bounded, values only) plus the keyed
//! in-order visitor [`OrderedIndex::for_each`] (everything, keys included).
//!
//! Keys are plain byte slices: callers index either raw keys or the padded
//! bytes of an [`EncodedKey`](crate::EncodedKey). The trait requires
//! `Send + Sync` so an index can sit behind a shard's epoch handle and be
//! read from many threads.

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

    /// Append clones of the values of up to `limit` keys in `low..=high`
    /// to `out`, in key order — the allocation-free form scan loops reuse
    /// a buffer with. For a fixed index state and fixed bounds, growing
    /// `limit` must only *extend* the emitted sequence (results are a
    /// stable prefix), which every ordered structure satisfies naturally;
    /// `hope_store`'s scan retry loop relies on it. Inverted bounds
    /// (`low > high`) must emit nothing.
    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<V>);

    /// Visit every `(key, value)` pair in key order — the one way to get
    /// *keys* back out of an index. The key slice is valid only for the
    /// duration of the call (a prefix-truncating tree rebuilds it in a
    /// reused buffer). `hope_store` rebuilds a shard from this walk: the
    /// index is the only holder of the encoded bytes.
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
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &V));

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

    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<V>) {
        if low > high {
            return;
        }
        out.extend(self.range(low.to_vec()..=high.to_vec()).take(limit).map(|(_, v)| v.clone()));
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &V)) {
        self.iter().for_each(|(k, v)| f(k, v));
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

    fn probe(ix: &mut dyn OrderedIndex) {
        assert!(ix.is_empty());
        assert_eq!(ix.insert(b"b", 2), None);
        assert_eq!(ix.insert(b"a", 1), None);
        assert_eq!(ix.insert(b"ab", 3), None);
        assert_eq!(ix.insert(b"a", 10), Some(1));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.get(b"ab"), Some(&3));
        assert_eq!(ix.get(b"zz"), None);
        // range_into appends to a reused buffer.
        let mut buf = vec![99u64];
        ix.range_into(b"a", b"ab", 10, &mut buf);
        assert_eq!(buf, vec![99, 10, 3]);
        buf.clear();
        ix.range_into(b"b", b"a", 10, &mut buf);
        assert!(buf.is_empty());
        assert!(ix.memory_bytes() > 0);
        // for_each yields exactly the stored pairs, in byte order: the
        // empty key, a prefix chain, and 0x00 / 0xFF runs included.
        let hostile: [&[u8]; 6] = [b"", b"abc", b"\0", b"\0\0", b"\xff", b"\xff\xff\xff"];
        for (i, k) in hostile.iter().enumerate() {
            assert_eq!(ix.insert(k, 100 + i as u64), None);
        }
        let mut seen: Vec<(Vec<u8>, u64)> = Vec::new();
        ix.for_each(&mut |k, v| seen.push((k.to_vec(), *v)));
        let want: Vec<(&[u8], u64)> = vec![
            (b"", 100),
            (b"\0", 102),
            (b"\0\0", 103),
            (b"a", 10),
            (b"ab", 3),
            (b"abc", 101),
            (b"b", 2),
            (b"\xff", 104),
            (b"\xff\xff\xff", 105),
        ];
        assert_eq!(seen.len(), ix.len());
        assert!(seen.iter().map(|(k, v)| (k.as_slice(), *v)).eq(want));
    }

    #[test]
    fn btreemap_reference_implementation() {
        let mut m: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        probe(&mut m);
    }

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

//! [`hope::OrderedIndex`] conformance, run over every implementation the
//! workspace ships: the assertions of `hope::index`'s own `probe` unit
//! test (which can only reach the `BTreeMap` reference implementation),
//! repeated here where the tree crates are in scope. The store rebuilds
//! shards from `for_each`, so a walker that drops, reorders or truncates
//! a key corrupts the next generation — prefix chains, the empty key and
//! 0x00 / 0xFF runs are the inputs most likely to expose one.

use std::collections::BTreeMap;

use hope::OrderedIndex;
use hope_art::Art;
use hope_btree::BPlusTree;
use hope_hot::Hot;

fn collect(ix: &dyn OrderedIndex) -> Vec<(Vec<u8>, u64)> {
    let mut seen = Vec::new();
    ix.for_each(&mut |k, v| seen.push((k.to_vec(), *v)));
    seen
}

fn probe(name: &str, ix: &mut dyn OrderedIndex) {
    assert!(ix.is_empty(), "{name}");
    assert!(collect(ix).is_empty(), "{name}: for_each on an empty index");
    assert_eq!(ix.insert(b"b", 2), None, "{name}");
    assert_eq!(ix.insert(b"a", 1), None, "{name}");
    assert_eq!(ix.insert(b"ab", 3), None, "{name}");
    assert_eq!(ix.insert(b"a", 10), Some(1), "{name}");
    assert_eq!(ix.len(), 3, "{name}");
    assert_eq!(ix.get(b"ab"), Some(&3), "{name}");
    assert_eq!(ix.get(b"zz"), None, "{name}");
    // range_into appends to a reused buffer.
    let mut buf = vec![99u64];
    ix.range_into(b"a", b"ab", 10, &mut buf);
    assert_eq!(buf, vec![99, 10, 3], "{name}");
    buf.clear();
    ix.range_into(b"b", b"a", 10, &mut buf);
    assert!(buf.is_empty(), "{name}");
    assert!(ix.memory_bytes() > 0, "{name}");

    // for_each yields exactly the stored pairs, in byte order: the empty
    // key, a prefix chain, and 0x00 / 0xFF runs included.
    let hostile: [&[u8]; 6] = [b"", b"abc", b"\0", b"\0\0", b"\xff", b"\xff\xff\xff"];
    for (i, k) in hostile.iter().enumerate() {
        assert_eq!(ix.insert(k, 100 + i as u64), None, "{name} {k:?}");
    }
    let mut model: BTreeMap<Vec<u8>, u64> =
        [(b"a".to_vec(), 10), (b"ab".to_vec(), 3), (b"b".to_vec(), 2)].into();
    model.extend(hostile.iter().enumerate().map(|(i, k)| (k.to_vec(), 100 + i as u64)));
    assert_eq!(collect(ix), model.clone().into_iter().collect::<Vec<_>>(), "{name}");

    // Enough keys to split nodes several levels deep, sharing long
    // prefixes (so a prefix-truncating tree must reconstruct them).
    for i in 0..2_000u64 {
        let k = format!("com.example/shared/prefix/{:05}", i * 7919 % 2_000).into_bytes();
        assert_eq!(ix.insert(&k, i), model.insert(k, i), "{name}");
    }
    assert_eq!(ix.len(), model.len(), "{name}");
    assert_eq!(collect(ix), model.into_iter().collect::<Vec<_>>(), "{name}: after splits");
}

#[test]
fn every_index_passes_the_same_probe() {
    probe("BTreeMap", &mut BTreeMap::<Vec<u8>, u64>::new());
    probe("BPlusTree::plain", &mut BPlusTree::plain());
    probe("BPlusTree::prefix", &mut BPlusTree::prefix());
    probe("Art", &mut Art::new());
    probe("Hot", &mut Hot::new());
}

//! [`KeyBlock`]: a search-tree node's sorted keys, packed.

use std::cmp::Ordering;
use std::ops::Range;

use crate::axis::lcp_len;

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
/// ([`MAX_KEY_BYTES`](crate::MAX_KEY_BYTES)), so a node can hold far more
/// than 64 KiB.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a key block holds less than 4 GiB")
}

/// A node's sorted, distinct keys: one byte buffer, a `u32` end offset per
/// key and a `u64` **head** per key — the `hope_btree` B+trees keep every
/// node's keys in one, and `hope_hot` its compound nodes' separators.
///
/// `bytes` holds the node prefix (`plen` bytes; empty unless the block
/// truncates) and then every key's bytes past it, back to back. Key `i`
/// ends at `ends[i]` and starts where key `i - 1` ends — key 0 right after
/// the prefix, so `bytes[..ends[0]]` is the whole first key. `skip` is the
/// common prefix of the first and the last key, hence of all of them;
/// `heads[i]` is the big-endian 8 bytes of key `i` from byte `skip`,
/// zero-padded. Under prefix truncation the node prefix is that common
/// prefix (`plen == skip`).
///
/// A search ([`KeyBlock::search`]) compares the common prefix once, counts
/// the heads below the query's without a branch, and compares bytes only
/// along the run of heads that tie with the query's.
#[derive(Debug, Default)]
pub struct KeyBlock {
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
    /// every key is stored whole, `shared` in front of each.
    pub fn packed<'a, I>(shared: &[u8], keys: I, truncate: bool) -> KeyBlock
    where
        I: ExactSizeIterator<Item = &'a [u8]> + Clone,
    {
        let (Some(first), Some(last)) = (keys.clone().next(), keys.clone().last()) else {
            return KeyBlock::default();
        };
        let common = lcp_len(first, last);
        let (cut, plen, each) =
            if truncate { (common, shared.len() + common, 0) } else { (0, 0, shared.len()) };
        let mut bytes =
            Vec::with_capacity(plen + keys.clone().map(|k| each + k.len() - cut).sum::<usize>());
        if truncate {
            bytes.extend_from_slice(shared);
            bytes.extend_from_slice(&first[..cut]);
        }
        let mut ends = Vec::with_capacity(keys.len());
        let mut heads = Vec::with_capacity(keys.len());
        for k in keys {
            bytes.extend_from_slice(&shared[..each]);
            bytes.extend_from_slice(&k[cut..]);
            ends.push(offset(bytes.len()));
            heads.push(head(&k[common..]));
        }
        KeyBlock { bytes, ends, heads, plen: offset(plen), skip: offset(shared.len() + common) }
    }

    /// The block of **sorted** `keys` in exact-size storage.
    pub fn from_sorted<K: AsRef<[u8]>>(keys: &[K], truncate: bool) -> KeyBlock {
        KeyBlock::packed(&[], keys.iter().map(AsRef::as_ref), truncate)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the block holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The node prefix every key shares (empty unless the block
    /// truncates).
    pub fn prefix(&self) -> &[u8] {
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
    pub fn suffix(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// Keys `range` past the node prefix, in order: one slice of the
    /// buffer each, for a walk over a node.
    pub fn suffixes(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> {
        let mut start = self.start(range.start);
        self.ends[range].iter().map(move |&stop| {
            let suffix = &self.bytes[start..stop as usize];
            start = stop as usize;
            suffix
        })
    }

    /// Key `i` past the common prefix: what its head was taken from.
    fn tail(&self, i: usize) -> &[u8] {
        &self.suffix(i)[(self.skip - self.plen) as usize..]
    }

    /// Key `i`, whole.
    pub fn full_key(&self, i: usize) -> Vec<u8> {
        [self.prefix(), self.suffix(i)].concat()
    }

    /// Compare stored key `i` with `q` without materializing it.
    pub fn cmp(&self, i: usize, q: &[u8]) -> Ordering {
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
    pub fn search(&self, q: &[u8]) -> Result<usize, usize> {
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
    pub fn lower_bound(&self, q: &[u8]) -> usize {
        match self.search(q) {
            Ok(i) | Err(i) => i,
        }
    }

    /// First index whose key is `> q` (a block's keys are distinct).
    pub fn upper_bound(&self, q: &[u8]) -> usize {
        match self.search(q) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Insert `key` at sorted position `i`: its bytes, end and head are
    /// spliced in place. The common prefix can only shrink; when it does,
    /// every head is taken again (and, under truncation, the node prefix
    /// gives its dropped bytes back to every key). A block that is full
    /// grows once, to room for `room` keys, and never doubles past that.
    pub fn insert_at(&mut self, i: usize, key: &[u8], truncate: bool, room: usize) {
        let n = self.len();
        if n == 0 {
            // One key is its own common prefix.
            self.reserve(key.len(), if truncate { key.len() } else { 0 }, room);
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
        self.reserve(key.len() - plen + dropped * n, plen, room);
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
    /// being the node prefix. A full block grows **once**, to `room` keys
    /// at its mean key length, and never doubles past that: a loaded block
    /// stays at exact size until written, and a split's left half keeps
    /// what it has (DESIGN.md, "Key blocks").
    fn reserve(&mut self, extra: usize, plen: usize, room: usize) {
        let n = self.len() + 1;
        if self.ends.capacity() < n {
            let keys = room.max(n);
            self.ends.reserve_exact(keys - self.ends.len());
            self.heads.reserve_exact(keys - self.heads.len());
        }
        let want = self.bytes.len() + extra;
        assert!(u32::try_from(want).is_ok(), "a key block holds less than 4 GiB");
        if self.bytes.capacity() < want {
            let slack = (want - plen) / n * room.saturating_sub(n);
            self.bytes.reserve_exact(extra + slack);
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
    pub fn split_off(&mut self, at: usize, from: usize, truncate: bool) -> KeyBlock {
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

    /// Whether every buffer is at exact size, as a bulk load or a split's
    /// right half leaves it.
    pub fn is_exact(&self) -> bool {
        self.ends.capacity() == self.len()
            && self.heads.capacity() == self.len()
            && self.bytes.capacity() == self.bytes.len()
    }

    /// Heap bytes: the three buffers' capacities.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * 4 + self.heads.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys a test block ever has room for: a B+tree leaf's.
    const ROOM: usize = 17;

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

    /// Key blocks of up to [`ROOM`] keys — runs of neighbouring words
    /// (long common prefixes) and strided picks (none) — answer like
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
                        assert!(packed.is_exact());
                        check_block(&packed, &keys, truncate, &words);

                        let mut inserted = KeyBlock::default();
                        let n = keys.len();
                        let odd_then_even: Vec<usize> =
                            (1..n).step_by(2).chain((0..n).step_by(2).rev()).collect();
                        for j in 0..n {
                            let k = keys[odd_then_even[(j + start) % n]];
                            inserted.insert_at(inserted.lower_bound(k), k, truncate, ROOM);
                        }
                        check_block(&inserted, &keys, truncate, &words);

                        if n >= 3 {
                            let mid = n / 2;
                            let mut left = KeyBlock::from_sorted(&keys, truncate);
                            let right = left.split_off(mid, mid, truncate);
                            check_block(&left, &keys[..mid], truncate, &words);
                            check_block(&right, &keys[mid..], truncate, &words);
                            assert!(right.is_exact());
                            let right = inserted.split_off(mid, mid + 1, truncate);
                            check_block(&inserted, &keys[..mid], truncate, &words);
                            check_block(&right, &keys[mid + 1..], truncate, &words);
                        }
                    }
                }
            }
        }
    }

    /// A block packed behind a shared prefix holds `shared ++ k` per key:
    /// in front of every key when it keeps keys whole, once as the node
    /// prefix when it truncates.
    #[test]
    fn packed_behind_a_shared_prefix() {
        let keys: [&[u8]; 3] = [b"ab", b"abc", b"b"];
        for truncate in [false, true] {
            let block = KeyBlock::packed(b"xy", keys.iter().copied(), truncate);
            assert!(block.is_exact());
            let whole: Vec<Vec<u8>> = keys.iter().map(|k| [&b"xy"[..], k].concat()).collect();
            let whole: Vec<&[u8]> = whole.iter().map(Vec::as_slice).collect();
            check_block(&block, &whole, truncate, &words(1));
            let suffixes: Vec<&[u8]> = block.suffixes(1..3).collect();
            let want: [&[u8]; 2] = if truncate { [b"abc", b"b"] } else { [b"xyabc", b"xyb"] };
            assert_eq!(suffixes, want);
        }
    }
}

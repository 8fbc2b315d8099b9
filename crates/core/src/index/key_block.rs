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

/// Buffer bytes of a key's head, a native-endian `u64`.
const HEAD: usize = 8;
/// Buffer bytes of a key's end, a native-endian `u32`.
const END: usize = 4;
/// Buffer bytes a key slot of room takes besides its key's bytes.
const SLOT: usize = HEAD + END;

/// Bytes of the common prefix a block keeps inline: what its 80 bytes
/// hold beside the box and the five `u32`s (DESIGN.md, "Key blocks", says
/// why the struct keeps 80).
const INLINE: usize = 44;

/// The `N` bytes of `buf` from `at`.
#[inline]
fn word<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf[at..at + N].try_into().expect("N bytes")
}

/// A node's sorted, distinct keys in **one** heap allocation: a `u64`
/// head per key, a `u32` end offset per key and the key bytes — the
/// `hope_btree` B+trees keep every node's keys in one, and `hope_hot` its
/// compound nodes' separators.
///
/// ```text
/// buf: [ heads: room × u64 | ends: room × u32 | node prefix | key 0 | … ]
/// ```
///
/// `room` is the key slots the buffer has; the byte region takes the rest
/// of it. The byte region holds the node prefix (`plen` bytes; empty
/// unless the block truncates) and then every key's bytes past it, back
/// to back. Key `i` ends at `end(i)` and starts where key `i - 1` ends —
/// key 0 right after the prefix, so `bytes()[..end(0)]` is the whole
/// first key. `skip` is the common prefix of the first and the last key,
/// hence of all of them; head `i` is the big-endian 8 bytes of key `i`
/// from byte `skip`, zero-padded. Under prefix truncation the node prefix
/// is that common prefix (`plen == skip`).
///
/// The common prefix's first 44 bytes (`INLINE`) are copied into `pre`, in
/// the struct, so a search compares them without touching the buffer's
/// byte region.
///
/// A search ([`KeyBlock::search`]) compares the common prefix once, counts
/// the heads below the query's without a branch, and compares bytes only
/// along the run of heads that tie with the query's.
#[derive(Debug)]
pub struct KeyBlock {
    buf: Box<[u8]>,
    len: u32,
    room: u32,
    used: u32,
    plen: u32,
    skip: u32,
    pre: [u8; INLINE],
}

impl Default for KeyBlock {
    fn default() -> KeyBlock {
        KeyBlock {
            buf: Box::default(),
            len: 0,
            room: 0,
            used: 0,
            plen: 0,
            skip: 0,
            pre: [0; INLINE],
        }
    }
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
        let n = keys.len();
        let used = plen + keys.clone().map(|k| each + k.len() - cut).sum::<usize>();
        let mut buf = Vec::with_capacity(n * SLOT + used);
        for k in keys.clone() {
            buf.extend_from_slice(&head(&k[common..]).to_ne_bytes());
        }
        let mut end = plen;
        for k in keys.clone() {
            end += each + k.len() - cut;
            buf.extend_from_slice(&offset(end).to_ne_bytes());
        }
        if truncate {
            buf.extend_from_slice(shared);
            buf.extend_from_slice(&first[..cut]);
        }
        for k in keys {
            buf.extend_from_slice(&shared[..each]);
            buf.extend_from_slice(&k[cut..]);
        }
        let mut block = KeyBlock {
            buf: buf.into_boxed_slice(),
            len: offset(n),
            room: offset(n),
            used: offset(used),
            plen: offset(plen),
            ..KeyBlock::default()
        };
        block.set_skip(shared.len() + common);
        block
    }

    /// The block of **sorted** `keys` in exact-size storage.
    pub fn from_sorted<K: AsRef<[u8]>>(keys: &[K], truncate: bool) -> KeyBlock {
        KeyBlock::packed(&[], keys.iter().map(AsRef::as_ref), truncate)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the block holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the ends start in the buffer.
    fn ends_at(&self) -> usize {
        self.room as usize * HEAD
    }

    /// Where the byte region starts in the buffer.
    fn bytes_at(&self) -> usize {
        self.room as usize * SLOT
    }

    /// The byte region's capacity.
    fn byte_room(&self) -> usize {
        self.buf.len() - self.bytes_at()
    }

    /// The node prefix and the keys' bytes.
    fn bytes(&self) -> &[u8] {
        &self.buf[self.bytes_at()..][..self.used as usize]
    }

    /// The byte region, to its capacity.
    fn bytes_mut(&mut self) -> &mut [u8] {
        let at = self.bytes_at();
        &mut self.buf[at..]
    }

    /// Key `i`'s head.
    fn head_at(&self, i: usize) -> u64 {
        u64::from_ne_bytes(word(&self.buf, i * HEAD))
    }

    fn set_head(&mut self, i: usize, h: u64) {
        self.buf[i * HEAD..][..HEAD].copy_from_slice(&h.to_ne_bytes());
    }

    /// Where key `i` ends in the byte region.
    fn end(&self, i: usize) -> usize {
        u32::from_ne_bytes(word(&self.buf, self.ends_at() + i * END)) as usize
    }

    fn set_end(&mut self, i: usize, e: usize) {
        let at = self.ends_at() + i * END;
        self.buf[at..][..END].copy_from_slice(&offset(e).to_ne_bytes());
    }

    /// Make the common prefix `skip` bytes long, and copy its first
    /// [`INLINE`] into `pre`.
    fn set_skip(&mut self, skip: usize) {
        self.skip = offset(skip);
        let (at, n) = (self.bytes_at(), skip.min(INLINE));
        self.pre[..n].copy_from_slice(&self.buf[at..at + n]);
    }

    /// The node prefix every key shares (empty unless the block
    /// truncates).
    pub fn prefix(&self) -> &[u8] {
        &self.bytes()[..self.plen as usize]
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            self.plen as usize
        } else {
            self.end(i - 1)
        }
    }

    /// Key `i` past the node prefix.
    pub fn suffix(&self, i: usize) -> &[u8] {
        &self.bytes()[self.start(i)..self.end(i)]
    }

    /// Keys `range` past the node prefix, in order: one slice of the
    /// buffer each, for a walk over a node.
    pub fn suffixes(&self, range: Range<usize>) -> impl Iterator<Item = &[u8]> {
        let mut start = self.start(range.start);
        let ends = &self.buf[self.ends_at()..][range.start * END..range.end * END];
        let bytes = self.bytes();
        ends.chunks_exact(END).map(move |e| {
            let stop = u32::from_ne_bytes(word(e, 0)) as usize;
            let suffix = &bytes[start..stop];
            start = stop;
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

    /// Ask for the first and the last cache line of the ends and of the
    /// used byte region: what a [`KeyBlock::search`] reads after the heads
    /// when they tie, asked for before it counts them. Every offset asked
    /// for is in bounds, so an empty region asks for nothing.
    pub fn prefetch(&self) {
        for (at, len) in [(self.ends_at(), self.len() * END), (self.bytes_at(), self.used as usize)]
        {
            let region = &self.buf[at..at + len];
            super::prefetch(region);
            super::prefetch(&region[len.saturating_sub(1)..]);
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
        let common = if m <= INLINE { &self.pre[..m] } else { &self.bytes()[..m] };
        match q[..m].cmp(common) {
            Ordering::Less => return Err(0),
            Ordering::Greater => return Err(n),
            Ordering::Equal if m < skip => return Err(0),
            Ordering::Equal => {}
        }
        // 2. The heads below q's, counted without a branch: each of those
        //    keys is below q.
        let q = &q[skip..];
        let qh = head(q);
        let mut i = self.buf[..n * HEAD]
            .chunks_exact(HEAD)
            .map(|h| usize::from(u64::from_ne_bytes(word(h, 0)) < qh))
            .sum::<usize>();
        // 3. Bytes, only along the run of heads tying with q's.
        while i < n && self.head_at(i) == qh {
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
    /// shifted in place. The common prefix can only shrink; when it does,
    /// every head is taken again (and, under truncation, the node prefix
    /// gives its dropped bytes back to every key). A block that is full
    /// grows once, to room for `room` keys, and never doubles past that.
    pub fn insert_at(&mut self, i: usize, key: &[u8], truncate: bool, room: usize) {
        let n = self.len();
        if n == 0 {
            // One key is its own common prefix.
            self.reserve(key.len(), if truncate { key.len() } else { 0 }, room);
            self.bytes_mut()[..key.len()].copy_from_slice(key);
            self.used = offset(key.len());
            self.set_end(0, key.len());
            self.set_head(0, 0);
            self.len = 1;
            self.set_skip(key.len());
            self.plen = if truncate { self.skip } else { 0 };
            return;
        }
        let skip = lcp_len(&self.bytes()[..self.skip as usize], key);
        let plen = if truncate { skip } else { 0 };
        let dropped = self.plen as usize - plen;
        self.reserve(key.len() - plen + dropped * n, plen, room);
        if dropped > 0 {
            self.expand_prefix(plen);
        }
        let (at, used) = (self.start(i), self.used as usize);
        let suffix = &key[plen..];
        let bytes = self.bytes_mut();
        bytes.copy_within(at..used, at + suffix.len());
        bytes[at..at + suffix.len()].copy_from_slice(suffix);
        self.used = offset(used + suffix.len());
        for j in (i..n).rev() {
            self.set_end(j + 1, self.end(j) + suffix.len());
        }
        self.set_end(i, at + suffix.len());
        self.buf.copy_within(i * HEAD..n * HEAD, (i + 1) * HEAD);
        self.len += 1;
        if skip == self.skip as usize {
            self.set_head(i, head(&key[skip..]));
        } else {
            self.set_skip(skip);
            self.rehead();
        }
    }

    /// Room for one more key and `extra` more bytes, `plen` of the bytes
    /// being the node prefix. A full block grows **once**, to `room` keys
    /// at its mean key length, and never doubles past that: a loaded block
    /// stays at exact size until written, and a split's left half keeps
    /// what it has (DESIGN.md, "Key blocks"). Key slots and bytes grow in
    /// the same single reallocation when both are short.
    fn reserve(&mut self, extra: usize, plen: usize, room: usize) {
        let n = self.len() + 1;
        let slots = if (self.room as usize) < n { room.max(n) } else { self.room as usize };
        let want = self.used as usize + extra;
        assert!(u32::try_from(want).is_ok(), "a key block holds less than 4 GiB");
        let bytes = if self.byte_room() < want {
            want + (want - plen) / n * room.saturating_sub(n)
        } else {
            self.byte_room()
        };
        if slots != self.room as usize || bytes != self.byte_room() {
            self.regrow(slots, bytes);
        }
    }

    /// Grow the buffer to `slots` key slots and `bytes` bytes of key room
    /// in one reallocation, moving the ends and the bytes up behind the
    /// larger head and end regions.
    fn regrow(&mut self, slots: usize, bytes: usize) {
        let (ends_at, bytes_at) = (self.ends_at(), self.bytes_at());
        let size = slots * SLOT + bytes;
        let mut buf = std::mem::take(&mut self.buf).into_vec();
        buf.reserve_exact(size - buf.len());
        buf.resize(size, 0);
        if slots != self.room as usize {
            buf.copy_within(bytes_at..bytes_at + self.used as usize, slots * SLOT);
            buf.copy_within(ends_at..ends_at + self.len() * END, slots * HEAD);
            self.room = offset(slots);
        }
        self.buf = buf.into_boxed_slice();
    }

    /// Cut the node prefix to its first `plen` bytes, handing the rest to
    /// the front of every key. Key 0 keeps its place (the dropped bytes
    /// already precede it); key `i` moves right by `i` times the cut.
    fn expand_prefix(&mut self, plen: usize) {
        let old = self.plen as usize;
        let d = old - plen;
        let n = self.len();
        self.used += offset(d * (n - 1));
        for i in (1..n).rev() {
            let (s, e) = (self.end(i - 1), self.end(i));
            let bytes = self.bytes_mut();
            bytes.copy_within(s..e, s + d * i);
            bytes.copy_within(plen..old, s + d * (i - 1));
            self.set_end(i, e + d * i);
        }
        self.plen = offset(plen);
    }

    /// Move the first `cut` bytes of every key, common to all, into the
    /// node prefix: the inverse of [`KeyBlock::expand_prefix`].
    fn extend_prefix(&mut self, cut: usize) {
        let n = self.len();
        let mut s = self.end(0);
        for i in 1..n {
            let e = self.end(i);
            self.bytes_mut().copy_within(s + cut..e, s - cut * (i - 1));
            self.set_end(i, e - cut * i);
            s = e;
        }
        self.used -= offset(cut * (n - 1));
        self.plen += offset(cut);
    }

    /// Take every head again, from `skip`.
    fn rehead(&mut self) {
        for i in 0..self.len() {
            self.set_head(i, head(self.tail(i)));
        }
    }

    /// Split keys `from..` off into an exact-size block and keep keys
    /// `..at` here, in this block's buffer, re-tightening `skip` (and
    /// under truncation the node prefix) on both sides.
    pub fn split_off(&mut self, at: usize, from: usize, truncate: bool) -> KeyBlock {
        let right =
            KeyBlock::packed(self.prefix(), (from..self.len()).map(|i| self.suffix(i)), truncate);
        self.used = offset(self.end(at - 1));
        self.len = offset(at);
        let skip = self.plen as usize + lcp_len(self.suffix(0), self.suffix(at - 1));
        if truncate && skip > self.plen as usize {
            self.extend_prefix(skip - self.plen as usize);
        }
        if skip != self.skip as usize {
            self.set_skip(skip);
            self.rehead();
        }
        right
    }

    /// Whether the buffer is at exact size, as a bulk load or a split's
    /// right half leaves it.
    pub fn is_exact(&self) -> bool {
        self.room == self.len && self.byte_room() == self.used as usize
    }

    /// Heap bytes: the buffer's length, which is its capacity.
    pub fn memory_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys a test block ever has room for: a B+tree leaf's.
    const ROOM: usize = 17;

    /// Every string of up to 4 letters over `0x00`, `a`, `0xff`, sorted. A
    /// letter is `width` copies of its byte: at width 3 strings share
    /// 8-byte heads and differ after them, at width 1 `a` and `a\0` tie
    /// in theirs, and at width 16 a common prefix runs past the inline
    /// [`INLINE`] bytes.
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
                assert_eq!(block.head_at(i), head(&k[skip..]), "{keys:?}: head {i}");
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
        for width in [1, 3, 16] {
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

    /// `prefetch` asks for nothing in an empty region: a block with no
    /// buffer, and one whose keys are all empty (an empty byte region
    /// behind its ends).
    #[test]
    fn prefetch_skips_empty_regions() {
        KeyBlock::default().prefetch();
        for truncate in [false, true] {
            let empty = KeyBlock::from_sorted(&[b""], truncate);
            assert_eq!((empty.len(), empty.used), (1, 0));
            empty.prefetch();
            assert_eq!(empty.full_key(0), b"");
        }
    }

    /// `prefetch` stays inside a block at room after inserts, and inside
    /// both halves of its split.
    #[test]
    fn prefetch_stays_in_bounds_at_room_and_after_a_split() {
        for truncate in [false, true] {
            let keys: Vec<Vec<u8>> = (0..ROOM).map(|i| format!("k{i:02}").into_bytes()).collect();
            let mut block = KeyBlock::default();
            for k in &keys {
                block.insert_at(block.lower_bound(k), k, truncate, ROOM);
                block.prefetch();
            }
            assert_eq!(block.room as usize, ROOM);
            let right = block.split_off(ROOM / 2, ROOM / 2, truncate);
            block.prefetch();
            right.prefetch();
            let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            check_block(&block, &keys[..ROOM / 2], truncate, &words(1));
            check_block(&right, &keys[ROOM / 2..], truncate, &words(1));
        }
    }

    /// A loaded block's first insert grows its one buffer once, to
    /// [`ROOM`] key slots and room's worth of bytes at the mean key length
    /// — as many bytes as three separate buffers held: 17 × (8 + 4) plus
    /// the key room — moving its ends and bytes up; the inserts after it
    /// fit.
    #[test]
    fn a_loaded_block_grows_once_to_room() {
        let all: Vec<Vec<u8>> = (0..17).map(|i| format!("k{:04}", i * 2).into_bytes()).collect();
        // Keys 0, 2, … 14, 15 and 16 loaded; the odd ones below 15 inserted.
        let (inserted, loaded): (Vec<usize>, Vec<usize>) =
            (0..all.len()).partition(|&j| j < 15 && j % 2 == 1);
        for (truncate, loaded_bytes, grown_bytes) in [(false, 50, 85), (true, 3 + 20, 3 + 34)] {
            let mut held: Vec<&[u8]> = loaded.iter().map(|&j| all[j].as_slice()).collect();
            let mut block = KeyBlock::from_sorted(&held, truncate);
            assert_eq!(block.memory_bytes(), held.len() * SLOT + loaded_bytes);
            for &j in &inserted {
                let k = all[j].as_slice();
                block.insert_at(block.lower_bound(k), k, truncate, ROOM);
                held.insert(held.partition_point(|x| *x < k), k);
                check_block(&block, &held, truncate, &words(1));
                let grown = ROOM * SLOT + grown_bytes;
                assert_eq!(block.memory_bytes(), grown, "truncate {truncate}, key {j}");
            }
        }
    }
}

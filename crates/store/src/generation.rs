//! One dictionary **generation** of a shard: an immutable HOPE compressor
//! plus the ordered index of keys encoded under it.
//!
//! A generation is the unit of the epoch-based hot-swap: readers clone the
//! shard's `Arc<Generation>` and keep using it even while a replacement is
//! being built; when the swap lands, stale readers simply drain and the
//! old generation is dropped with its last `Arc`.
//!
//! ## One record table, one entry per index key
//!
//! A generation holds each record once, in the **entry log** (source key,
//! value, one `u32` link). Trees index the *padded bytes* of an
//! encoding, which live only inside the index — every walk
//! ([`OrderedIndex::visit`]) hands them out beside the id, so a scan
//! knows the bytes of each hit and a rebuild that keeps the dictionary
//! reads them back — and the index maps them straight to a log id ([`SlotId`](crate::SlotId)):
//! the key's live entry. Padded bytes order strictly as source keys do
//! (no code is all zeros; see DESIGN.md "Encoded-key comparison"), so
//! the encoded bytes *are* the key, for arbitrary byte keys: a point read
//! that finds them has found the key and never looks at the stored
//! source bytes, an insert that displaces an id has found the version it
//! supersedes, and the encoded bounds of a scan admit exactly the keys of
//! the source range.
//!
//! ## Lock discipline
//!
//! The interior `RwLock` is held briefly by probes and scan chunks. A
//! poisoned lock (a panic in some other thread's callback) is *recovered*,
//! not propagated: the generation's invariants are maintained step-wise,
//! so the data behind a poisoned lock is still coherent, and a read-mostly
//! serving layer should keep serving.

use std::cell::RefCell;
use std::sync::{Arc, PoisonError, RwLock};

use hope::{EncodeScratch, Hope, OrderedIndex, Value};

use crate::dictionary::Dictionary;
use crate::error::StoreError;
use crate::telemetry::SpanRecorder;
use crate::SlotId;

thread_local! {
    /// Per-thread encode scratch: every `get`, `insert` and scan encodes
    /// into it instead of allocating an `EncodedKey` per call, and a scan
    /// resolves each hit as the index walk hands it over, so a scan of N
    /// hits performs no heap allocation once the scratch is warm.
    /// Thread-local rather than per-generation so readers on many
    /// threads never contend.
    static PROBE: RefCell<EncodeScratch> = RefCell::default();
}

/// Link sentinel: end of a version chain ([`Entry::prev`]: this entry
/// superseded nothing). Safe as a sentinel because the capacity guard in
/// [`Generation::insert`] rejects the insert that would *create* log id
/// `u32::MAX` before it happens.
pub(crate) const NO_PREV: u32 = u32::MAX;

/// One stored record: the original (uncompressed) key — what a scan
/// hands to its caller, the swap's log replay re-inserts and a rebuild
/// that replaces the dictionary re-encodes; point reads and a scan's own
/// bookkeeping (bounds, resume point) never touch it — its value, and
/// the link that threads the log.
///
/// `prev` threads the per-key **version chain** through the append-only
/// log: an update's entry records the log id it superseded. Every link
/// strictly decreases the id, so "the value of key K at log watermark W"
/// is: follow `prev` from K's live entry until the id drops below W (that
/// version was live at W), or the chain ends (K did not exist at W). This
/// is what gives store-wide snapshots point-in-time reads over a
/// generation that keeps mutating.
#[derive(Debug, Clone)]
pub(crate) struct Entry<V> {
    pub key: Box<[u8]>,
    pub value: V,
    /// Log id this entry superseded, or [`NO_PREV`].
    pub prev: u32,
}

impl<V> Entry<V> {
    /// A first-version entry.
    pub(crate) fn new(key: Box<[u8]>, value: V) -> Entry<V> {
        Entry { key, value, prev: NO_PREV }
    }
}

/// Resolve the chain member of `ei` visible at log watermark `at`
/// (`None` = the live entry itself). See [`Entry::prev`].
fn visible_at<V>(entries: &[Entry<V>], mut ei: u32, at: Option<usize>) -> Option<&Entry<V>> {
    let Some(w) = at else { return Some(&entries[ei as usize]) };
    loop {
        if (ei as usize) < w {
            return Some(&entries[ei as usize]);
        }
        let prev = entries[ei as usize].prev;
        if prev == NO_PREV {
            return None;
        }
        ei = prev;
    }
}

/// The mutable interior of a generation.
///
/// `entries` is an **append-only log**: updates append a fresh entry and
/// re-point the live chain at it rather than overwriting in place. That
/// makes the swap protocol trivial — everything a writer did after the
/// rebuild snapshot is exactly `entries[watermark..]`, replayable in
/// order — at the cost of dead log entries that the next rebuild
/// compacts away.
#[derive(Debug)]
pub(crate) struct GenData<V> {
    /// Ordered index over encoded padded bytes; values are the log ids of
    /// the keys' live entries.
    pub index: Box<dyn OrderedIndex<SlotId>>,
    /// Append-only entry log (live and superseded).
    pub entries: Vec<Entry<V>>,
    /// Number of live keys.
    pub live: usize,
}

/// A dictionary — shared with every other generation encoded under it —
/// plus the index of keys encoded under it, generic over the value
/// payload `V`.
#[derive(Debug)]
pub struct Generation<V: Value = u64> {
    epoch: u64,
    dict: Arc<Dictionary>,
    /// Shard this generation serves (error attribution only).
    shard: usize,
    /// Write-log entry cap: `insert` returns
    /// [`StoreError::WriteLogFull`] instead of growing past it.
    log_capacity: u32,
    data: RwLock<GenData<V>>,
}

/// The padded bytes of a sorted run of keys, back to back in one buffer
/// with one end offset per key: what a bulk load reads, borrowed slice by
/// slice ([`OrderedIndex::load_sorted`]), without an allocation per key.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct EncodedRun {
    bytes: Vec<u8>,
    /// `ends[i]`: where key `i` ends in `bytes` (key `i` starts where key
    /// `i - 1` ends). `u32` — a shard's encoded keys stay far below
    /// 4 GiB — and checked where it is written.
    ends: Vec<u32>,
}

impl EncodedRun {
    fn with_capacity(keys: usize) -> EncodedRun {
        EncodedRun { bytes: Vec::new(), ends: Vec::with_capacity(keys) }
    }

    fn push(&mut self, enc: &[u8]) {
        self.bytes.extend_from_slice(enc);
        self.ends.push(u32::try_from(self.bytes.len()).expect("an encoded run is under 4 GiB"));
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Total padded bytes of the run's keys.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The keys, in run order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        let mut from = 0;
        self.ends.iter().map(move |&to| {
            let key = &self.bytes[from..to as usize];
            from = to as usize;
            key
        })
    }
}

/// What [`Generation::snapshot_live`] captures: the sorted live entries,
/// their encoded bytes under the current dictionary (empty unless asked
/// for), and the log watermark the swap's splice replays from.
pub(crate) type LiveSnapshot<V> = (Vec<Entry<V>>, EncodedRun, usize);

/// Encode-side footprint of one insert, accumulated into the shard's
/// drift statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodeFootprint {
    /// Uncompressed key bytes.
    pub src_bytes: u64,
    /// Padded encoded bytes.
    pub enc_bytes: u64,
}

/// The padded bytes `hope` encodes **sorted** `entries` to, index-aligned:
/// the sorted-batch prefix-reuse encoder (Appendix B) in blocks of
/// `batch_block`, a stretch of blocks at a time so the per-key
/// [`hope::EncodedKey`]s it returns are folded into the run and freed while
/// they are still in cache.
pub(crate) fn encode_sorted<V>(
    hope: &Hope,
    entries: &[Entry<V>],
    batch_block: usize,
) -> EncodedRun {
    let block = batch_block.max(1);
    let mut run = EncodedRun::with_capacity(entries.len());
    let mut keys: Vec<&[u8]> = Vec::new();
    for stretch in entries.chunks(block * 64) {
        keys.clear();
        keys.extend(stretch.iter().map(|e| e.key.as_ref()));
        for enc in hope.encode_batch(&keys, block) {
            run.push(enc.as_bytes());
        }
    }
    run
}

impl<V: Value> Generation<V> {
    /// The one bulk loader: index **sorted, deduplicated** `entries` under
    /// `encoded`, whose key `i` is entry `i`'s padded bytes under `dict` —
    /// fresh out of [`encode_sorted`], or read back from the index of a
    /// generation that served the same dictionary
    /// ([`Generation::snapshot_live`]); the loader cannot tell and does
    /// not encode. Sorted keys arrive with strictly increasing encodings,
    /// so the index is built by one [`OrderedIndex::load_sorted`] call.
    pub(crate) fn load(
        epoch: u64,
        dict: Arc<Dictionary>,
        mut index: Box<dyn OrderedIndex<SlotId>>,
        mut entries: Vec<Entry<V>>,
        encoded: EncodedRun,
    ) -> Generation<V> {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key), "bulk load must be sorted");
        debug_assert!(
            encoded.iter().zip(encoded.iter().skip(1)).all(|(a, b)| a < b),
            "encodings must strictly increase"
        );
        debug_assert_eq!(entries.len(), encoded.len());
        // Loaded entries start fresh chains: a clone out of another
        // generation's log carries a link that means nothing here.
        entries.iter_mut().for_each(|entry| entry.prev = NO_PREV);
        index.load_sorted(&mut encoded.iter().zip(0..));
        let live = entries.len();
        let data = RwLock::new(GenData { index, entries, live });
        Generation { epoch, dict, shard: 0, log_capacity: NO_PREV, data }
    }

    /// Attach the owning shard id (error attribution) and the write-log
    /// capacity (back-pressure bound) — chained right after a build.
    pub(crate) fn with_context(mut self, shard: usize, log_capacity: u32) -> Generation<V> {
        self.shard = shard;
        self.log_capacity = log_capacity;
        self
    }

    /// Read the interior, recovering from poisoning (see module docs).
    fn read(&self) -> std::sync::RwLockReadGuard<'_, GenData<V>> {
        self.data.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write the interior, recovering from poisoning (see module docs).
    fn write(&self) -> std::sync::RwLockWriteGuard<'_, GenData<V>> {
        self.data.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The epoch this generation was installed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compression rate of the dictionary on the sample keys withheld
    /// from its training — the reference the shard's observed CPR is
    /// compared against.
    pub fn baseline_cpr(&self) -> f64 {
        self.dict.baseline_cpr
    }

    /// The compressor of this generation. Generations that share a
    /// dictionary return the same object.
    pub fn hope(&self) -> &Hope {
        &self.dict.hope
    }

    /// The shared handle behind [`Generation::hope`].
    pub(crate) fn dictionary(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.read().live
    }

    /// True if the generation holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory footprint: index structure + the entry log as allocated
    /// (growth slack included) + the source-key bytes it owns.
    pub fn memory_bytes(&self) -> usize {
        let d = self.read();
        d.index.memory_bytes()
            + d.entries.capacity() * std::mem::size_of::<Entry<V>>()
            + d.entries.iter().map(|e| e.key.len()).sum::<usize>()
    }

    /// Point lookup by source key, cloning the value out (a copy for
    /// `u64` ids). No allocation on this path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails codec validation
    /// (over [`hope::MAX_KEY_BYTES`]).
    pub fn get(&self, key: &[u8]) -> Result<Option<V>, StoreError> {
        self.get_with(key, V::clone)
    }

    /// Zero-clone point lookup: run `f` on a borrow of the stored value
    /// (under the generation's read lock — keep `f` short) and return its
    /// result.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails codec validation.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&V) -> R,
    ) -> Result<Option<R>, StoreError> {
        let (found, ()) = self.lookup(key, None, f)?;
        Ok(found)
    }

    /// The point read behind every `get` form: encode, descend the index
    /// to `key`'s live entry — the encoded bytes identify it, the stored
    /// source key is not read — and resolve it
    /// at log watermark `at` — `None` reads the live value; `Some(w)` the
    /// value `key` had when the log stood at `w` entries, the read
    /// primitive behind [`Snapshot`](crate::versioned::Snapshot) (entries
    /// appended at or after the watermark are invisible, and a key whose
    /// whole version chain postdates it did not exist then; see
    /// [`Entry::prev`]). `S` times the encode and probe stages for the
    /// serving layer's sampled tracing, or is `()` and costs nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails codec validation.
    pub(crate) fn lookup<S: SpanRecorder, R>(
        &self,
        key: &[u8],
        at: Option<usize>,
        f: impl FnOnce(&V) -> R,
    ) -> Result<(Option<R>, S), StoreError> {
        PROBE.with_borrow_mut(|scratch| {
            let mut spans = S::start();
            let enc = self.dict.hope.encode_to(key, scratch)?;
            spans.encoded();
            let d = self.read();
            let found = d
                .index
                .get(enc)
                .and_then(|&id| visible_at(&d.entries, id as u32, at))
                .map(|e| f(&e.value));
            spans.probed();
            Ok((found, spans))
        })
    }

    /// Insert or update; returns the previous value (if any), the encode
    /// footprint for drift accounting, and the stage spans (`S`, see
    /// [`Generation::lookup`]; the index/log mutation is the probe span).
    /// Encoding happens before the data lock is taken. One `index.insert`
    /// both publishes the new entry's id and reports what the byte string
    /// pointed at before: nothing (a new key), or the version of this key
    /// the entry supersedes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key fails codec validation, or
    /// [`StoreError::WriteLogFull`] when the log is at its configured
    /// capacity (always before it could reach `u32::MAX` entries, where
    /// log ids and [`NO_PREV`] would collide). Either way the insert is
    /// **not** applied and the generation stays fully serviceable; a
    /// rebuild compacts the log so the caller can retry.
    pub(crate) fn insert<S: SpanRecorder>(
        &self,
        key: &[u8],
        value: V,
    ) -> Result<(Option<V>, EncodeFootprint, S), StoreError> {
        PROBE.with_borrow_mut(|scratch| {
            let mut spans = S::start();
            let bytes = self.dict.hope.encode_to(key, scratch)?;
            spans.encoded();
            let footprint =
                EncodeFootprint { src_bytes: key.len() as u64, enc_bytes: bytes.len() as u64 };
            let mut d = self.write();
            if d.entries.len() >= self.log_capacity as usize {
                return Err(StoreError::WriteLogFull {
                    shard: self.shard,
                    capacity: self.log_capacity,
                });
            }
            // The id the bytes pointed at, if any, is this key's previous
            // version: the new entry chains to it (snapshot reads walk
            // the link) and it stays in the log as garbage for the next
            // rebuild to compact away. Ids stay in `u32` range: the
            // capacity guard bounds the log below `u32::MAX`.
            let new = d.entries.len() as SlotId;
            let prev = d.index.insert(bytes, new).map_or(NO_PREV, |id| id as u32);
            let old = (prev != NO_PREV).then(|| d.entries[prev as usize].value.clone());
            d.entries.push(Entry { key: key.into(), value, prev });
            d.live += usize::from(old.is_none());
            drop(d);
            spans.probed();
            Ok((old, footprint, spans))
        })
    }

    /// Visitor-form range scan: call `f(key, value)` for up to `limit`
    /// hits in source order and return the hit count. The two bounds are
    /// encoded into, and everything runs on, the per-thread probe
    /// buffers, so a scan of N hits performs **zero heap allocations**
    /// after warm-up — the keys and values handed to `f` are borrowed
    /// from the generation.
    ///
    /// `f` runs under the generation's data read lock: keep it short and
    /// never call back into this store from inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails codec validation.
    pub fn range_with<F>(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
        f: F,
    ) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        if low > high || limit == 0 {
            return Ok(0);
        }
        self.range_with_from(None, low, high, limit, None, f)
    }

    /// The scan engine behind the push ([`Generation::range_with`]) and
    /// pull (cursor chunk) paths: visit up to `limit` hits within
    /// `low..=high` and strictly greater than `after` (when set: the
    /// cursor's resume point, a key the scan already emitted). With `at`,
    /// every live entry resolves through its version chain first
    /// ([`Generation::lookup`]), so the scan observes exactly the state
    /// at that log watermark — keys and versions born later are
    /// invisible. (Index and chain growth happen under the data lock this
    /// scan reads under, so the watermark is never torn.)
    ///
    /// One pass: encode the bounds, then resolve and hand over each hit
    /// as the index walk reaches it, stopping the walk at `limit`. The
    /// encoded bounds admit exactly the keys of the source range, and a
    /// resumed scan starts *at* its resume key (the low bound is
    /// inclusive), so the one hit ever dropped is the first, when its
    /// bytes equal the encoded resume key — under strict order no other
    /// key has them. Entries born after `at` are walked past, not
    /// counted.
    pub(crate) fn range_with_from<F>(
        &self,
        after: Option<&[u8]>,
        low: &[u8],
        high: &[u8],
        limit: usize,
        at: Option<usize>,
        mut f: F,
    ) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        debug_assert!(limit > 0 && after.is_none_or(|a| a >= low));
        PROBE.with_borrow_mut(|scratch| {
            let (enc_low, enc_high) =
                self.dict.hope.encode_range_bounds_to(after.unwrap_or(low), high, scratch)?;
            let d = self.read();
            let mut resumed = after.is_some();
            let mut emitted = 0usize;
            d.index.visit(enc_low, Some(enc_high), &mut |enc, &id| {
                if std::mem::take(&mut resumed) && enc == enc_low {
                    return true;
                }
                let Some(e) = visible_at(&d.entries, id as u32, at) else { return true };
                f(&e.key, &e.value);
                emitted += 1;
                emitted < limit
            });
            Ok(emitted)
        })
    }

    /// Snapshot the live entries in source order, the log watermark
    /// (everything appended after it is what the swap must replay), and —
    /// `with_encoded`, for a rebuild that keeps the dictionary — per live
    /// entry the encoded padded bytes it is indexed under. One in-order
    /// walk of the index, the only holder of the encoded bytes.
    pub(crate) fn snapshot_live(&self, with_encoded: bool) -> LiveSnapshot<V> {
        let d = self.read();
        let mut live = Vec::with_capacity(d.live);
        let mut encoded = EncodedRun::with_capacity(if with_encoded { d.live } else { 0 });
        d.index.for_each(&mut |enc, &id| {
            live.push(d.entries[id as usize].clone());
            if with_encoded {
                encoded.push(enc);
            }
        });
        (live, encoded, d.entries.len())
    }

    /// Clone of the log entries appended after `watermark`, in order.
    pub(crate) fn entries_since(&self, watermark: usize) -> Vec<Entry<V>> {
        let d = self.read();
        d.entries[watermark.min(d.entries.len())..].to_vec()
    }

    /// `(live keys, total log entries)` — the gap between the two is dead
    /// log garbage a rebuild would compact away.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let d = self.read();
        (d.live, d.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::{HopeBuilder, Scheme};

    /// Encode sorted `entries` under `hope` and bulk-load them.
    fn load_fresh<V: Value>(epoch: u64, hope: Hope, entries: Vec<Entry<V>>) -> Generation<V> {
        let encoded = encode_sorted(&hope, &entries, 8);
        let dict = Dictionary::new(hope, 1.5, Arc::default());
        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        Generation::load(epoch, dict, index, entries, encoded)
    }

    fn build_gen(pairs: &[(&str, u64)]) -> Generation<u64> {
        let sample: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.as_bytes().to_vec()).collect();
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
        let mut sorted: Vec<Entry<u64>> =
            pairs.iter().map(|(k, v)| Entry::new(k.as_bytes().into(), *v)).collect();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        load_fresh(7, hope, sorted)
    }

    #[test]
    fn bulk_load_and_get() {
        let g = build_gen(&[("com.gmail@a", 1), ("com.gmail@b", 2), ("org.acm@c", 3)]);
        assert_eq!(g.epoch(), 7);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(1));
        assert_eq!(g.get(b"org.acm@c").unwrap(), Some(3));
        assert_eq!(g.get(b"com.gmail@zz").unwrap(), None);
        assert_eq!(g.get_with(b"com.gmail@b", |v| v + 100).unwrap(), Some(102));
        assert!(g.memory_bytes() > 0);
        // Probe-side validation surfaces as an error, not a panic.
        let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
        assert!(matches!(g.get(&giant), Err(StoreError::Codec(_))));
    }

    #[test]
    fn insert_update_and_log_replay_watermark() {
        let g = build_gen(&[("com.gmail@a", 1)]);
        let (_, _, w0) = g.snapshot_live(false);
        assert_eq!(g.insert::<()>(b"com.gmail@b", 2).unwrap().0, None);
        assert_eq!(g.insert::<()>(b"com.gmail@a", 9).unwrap().0, Some(1));
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(9));
        assert_eq!(g.len(), 2);
        // The log after the watermark replays both mutations in order.
        let delta = g.entries_since(w0);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].key.as_ref(), b"com.gmail@b");
        assert_eq!(delta[1].value, 9);
    }

    #[test]
    fn range_with_is_inclusive_and_source_ordered() {
        let g = build_gen(&[
            ("com.gmail@a", 1),
            ("com.gmail@b", 2),
            ("com.gmail@c", 3),
            ("org.acm@d", 4),
        ]);
        let collect = |low: &[u8], high: &[u8], limit: usize| {
            let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
            let n = g.range_with(low, high, limit, |k, v| out.push((k.to_vec(), *v))).unwrap();
            assert_eq!(n, out.len());
            out
        };
        let got = collect(b"com.gmail@a", b"com.gmail@c", 10);
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"com.gmail@a"[..], b"com.gmail@b", b"com.gmail@c"]);
        assert_eq!(collect(b"com.gmail@a", b"com.gmail@c", 2).len(), 2);
        assert!(collect(b"x", b"a", 10).is_empty());
        assert!(collect(b"zz", b"zzz", 10).is_empty());
        assert!(collect(b"a", b"b", 0).is_empty());
    }

    #[test]
    fn range_visit_resumes_strictly_after_a_key() {
        let g = build_gen(&[("a", 1), ("ab", 2), ("abc", 3), ("b", 4)]);
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let n = g
            .range_with_from(Some(b"ab"), b"a", b"b", 10, None, |k, _| seen.push(k.to_vec()))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(seen, vec![b"abc".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn snapshot_live_is_sorted_and_deduplicated() {
        let g = build_gen(&[("b", 2), ("a", 1)]);
        g.insert::<()>(b"c", 3).unwrap();
        g.insert::<()>(b"a", 10).unwrap();
        let (live, _, _) = g.snapshot_live(false);
        let keys: Vec<&[u8]> = live.iter().map(|e| e.key.as_ref()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
        assert_eq!(live[0].value, 10, "snapshot must carry the updated value");
    }

    #[test]
    fn write_log_capacity_back_pressures_instead_of_panicking() {
        let g = build_gen(&[("com.gmail@a", 1)]).with_context(3, 3);
        // Entry 0 is the bulk load; two appends fit under the cap of 3.
        assert!(g.insert::<()>(b"com.gmail@b", 2).is_ok());
        assert!(g.insert::<()>(b"com.gmail@c", 3).is_ok());
        let err = g.insert::<()>(b"com.gmail@d", 4).unwrap_err();
        assert!(matches!(err, StoreError::WriteLogFull { shard: 3, capacity: 3 }), "got {err:?}");
        // The rejected insert left the generation fully serviceable.
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(b"com.gmail@c").unwrap(), Some(3));
        assert_eq!(g.get(b"com.gmail@d").unwrap(), None);
        // Updates are appends too: same back-pressure.
        assert!(matches!(g.insert::<()>(b"com.gmail@a", 9), Err(StoreError::WriteLogFull { .. })));
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(1));
    }

    #[test]
    fn watermark_reads_observe_the_point_in_time_state() {
        let g = build_gen(&[("a", 1), ("c", 3)]);
        g.insert::<()>(b"a", 10).unwrap();
        let (_, _, w) = g.snapshot_live(false);
        // Post-watermark: update a again, add a new key between a and c.
        g.insert::<()>(b"a", 100).unwrap();
        g.insert::<()>(b"b", 2).unwrap();

        let get_at = |k: &[u8]| g.lookup::<(), _>(k, Some(w), u64::clone).unwrap().0;
        assert_eq!(get_at(b"a"), Some(10), "chain resolves to the pre-W version");
        assert_eq!(get_at(b"b"), None, "key born after W is invisible");
        assert_eq!(get_at(b"c"), Some(3));
        // And the live view still sees everything.
        assert_eq!(g.get(b"a").unwrap(), Some(100));
        assert_eq!(g.get(b"b").unwrap(), Some(2));

        let mut at_w: Vec<(Vec<u8>, u64)> = Vec::new();
        g.range_with_from(None, b"a", b"z", 10, Some(w), |k, v| at_w.push((k.to_vec(), *v)))
            .unwrap();
        assert_eq!(at_w, vec![(b"a".to_vec(), 10), (b"c".to_vec(), 3)]);
    }

    /// The loader cannot tell where its bytes came from: bytes read back
    /// from an index and `encode_sorted` bytes of the same dictionary
    /// build identical indexes.
    #[test]
    fn kept_bytes_and_fresh_bytes_load_identical_indexes() {
        // Single-Char trained on 0x00 runs gives 0x00 the shortest,
        // smallest code there is — and `a`, `a\0`, `a\0\0` still index
        // under three byte strings, because that code is not all zeros.
        let mut keys: Vec<Vec<u8>> = (1..=40).map(|n| vec![0u8; n]).collect();
        keys.extend([b"a".to_vec(), b"a\0".to_vec(), b"a\0\0".to_vec(), b"b".to_vec()]);
        let hope = HopeBuilder::new(Scheme::SingleChar).build_from_sample(keys.clone()).unwrap();
        let entries: Vec<Entry<u64>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Entry::new(k.as_slice().into(), i as u64))
            .collect();
        let fresh = load_fresh(7, hope, entries);

        let (live, kept, _) = fresh.snapshot_live(true);
        assert_eq!(live.len(), keys.len());
        assert_eq!(kept.len(), keys.len());
        assert_eq!(kept.byte_len(), kept.iter().map(<[u8]>::len).sum::<usize>());
        let bytes: Vec<&[u8]> = kept.iter().collect();
        assert!(bytes.windows(2).all(|w| w[0] < w[1]), "padded bytes must strictly increase");
        assert_eq!(kept, encode_sorted(fresh.hope(), &live, 8));

        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        let reloaded = Generation::load(8, Arc::clone(fresh.dictionary()), index, live, kept);
        assert_eq!(reloaded.epoch(), 8);
        assert!(std::ptr::eq(reloaded.hope(), fresh.hope()));
        let walk = |g: &Generation<u64>| {
            let mut out: Vec<(Vec<u8>, SlotId)> = Vec::new();
            g.read().index.for_each(&mut |enc, &id| out.push((enc.to_vec(), id)));
            out
        };
        assert_eq!(walk(&reloaded), walk(&fresh));
        assert_eq!(reloaded.snapshot_live(true).1, fresh.snapshot_live(true).1);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(reloaded.get(k).unwrap(), Some(i as u64), "{k:?}");
        }
    }

    #[test]
    fn generic_payloads_round_trip() {
        let sample: Vec<Vec<u8>> = vec![b"k1".to_vec(), b"k2".to_vec()];
        let hope = HopeBuilder::new(Scheme::SingleChar).build_from_sample(sample).unwrap();
        let pairs = vec![
            Entry::new(b"k1".as_slice().into(), b"one".to_vec()),
            Entry::new(b"k2".as_slice().into(), b"two".to_vec()),
        ];
        let g: Generation<Vec<u8>> = load_fresh(1, hope, pairs);
        assert_eq!(g.get(b"k2").unwrap(), Some(b"two".to_vec()));
        assert_eq!(g.insert::<()>(b"k1", b"uno".to_vec()).unwrap().0, Some(b"one".to_vec()));
        assert_eq!(g.get_with(b"k1", |v| v.len()).unwrap(), Some(3));
    }
}

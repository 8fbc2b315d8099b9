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
//! A generation holds each record once, in the **entry log**, and the log
//! is two packed runs ([`Records`]):
//!
//! * the **base** — the records the generation was loaded with, sorted by
//!   source key and immutable: the keys back to back in one byte buffer
//!   with a `u32` end offset each ([`KeyRun`]), and one `Vec<V>` of
//!   values, both allocated at exactly their size. A loaded record starts
//!   a fresh version chain, so the base has no links: a never-updated key
//!   costs its key bytes + `size_of::<V>()` + 4.
//! * the **tail** — every write since the load, appended in arrival order:
//!   a second key run and value vector, plus one `u32` link per record
//!   (`prev`, the version it superseded).
//!
//! A log id is a position: ids below `base.len()` are base records, the
//! rest index the tail. Trees index the *padded bytes* of an encoding,
//! which live only inside the index — every walk
//! ([`OrderedIndex::visit`]) hands them out beside the id, so a scan
//! knows the bytes of each hit and a rebuild that keeps the dictionary
//! reads them back — and the index maps them straight to a log id
//! ([`SlotId`](crate::SlotId)): the key's live record. Padded bytes order
//! strictly as source keys do (no code is all zeros; see DESIGN.md
//! "Encoded-key comparison"), so the encoded bytes *are* the key, for
//! arbitrary byte keys: a point read that finds them has found the key
//! and never looks at the stored source bytes, an insert that displaces
//! an id has found the version it supersedes, and the encoded bounds of a
//! scan admit exactly the keys of the source range. A scan reads the
//! source keys of its hits out of the base in key order — sequential
//! memory — until writes have moved them to the tail.
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

use hope::index::KeyRun;
use hope::{EncodeScratch, Hope, HopeError, OrderedIndex, Value};

use crate::dictionary::Dictionary;
use crate::error::StoreError;
use crate::telemetry::SpanRecorder;
use crate::SlotId;

thread_local! {
    /// Per-thread encode scratch: every `get`, `insert`, scan and bulk
    /// encode runs in it instead of allocating an `EncodedKey` per call,
    /// and a scan resolves each hit as the index walk hands it over, so a
    /// scan of N hits performs no heap allocation once the scratch is
    /// warm. Thread-local rather than per-generation so readers on many
    /// threads never contend.
    static PROBE: RefCell<EncodeScratch> = RefCell::default();
}

/// Link sentinel: end of a version chain (a tail record that superseded
/// nothing; base records have no link at all). Safe as a sentinel because
/// the capacity guard in [`Generation::insert`] rejects the insert that
/// would *create* log id `u32::MAX` before it happens.
pub(crate) const NO_PREV: u32 = u32::MAX;

/// A run of records: key `i` of `keys` holds value `i` of `values`. The
/// shape of a generation's base and tail, of the live run a rebuild
/// snapshots, and of the log suffix a swap replays.
#[derive(Debug)]
pub(crate) struct Records<V> {
    pub keys: KeyRun,
    pub values: Vec<V>,
}

impl<V> Records<V> {
    /// Room for exactly `records` records of `key_bytes` key bytes in all.
    pub(crate) fn with_capacity(records: usize, key_bytes: usize) -> Records<V> {
        Records {
            keys: KeyRun::with_capacity(records, key_bytes),
            values: Vec::with_capacity(records),
        }
    }

    pub(crate) fn push(&mut self, key: &[u8], value: V) {
        self.keys.push(key);
        self.values.push(value);
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes as allocated (the values' own heap, if any, excluded).
    fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes() + self.values.capacity() * std::mem::size_of::<V>()
    }
}

/// The mutable interior of a generation.
///
/// The log is **append-only**: updates append a tail record and re-point
/// the index at it rather than overwriting in place. That makes the swap
/// protocol trivial — everything a writer did after the rebuild snapshot
/// is exactly the log from the snapshot's watermark on, replayable in
/// order — at the cost of dead records that the next rebuild compacts
/// away.
#[derive(Debug)]
pub(crate) struct GenData<V> {
    /// Ordered index over encoded padded bytes; values are the log ids of
    /// the keys' live records.
    pub index: Box<dyn OrderedIndex<SlotId>>,
    /// The loaded records, sorted by key and never written again: ids
    /// `0..base.len()`.
    base: Records<V>,
    /// Records appended since the load: id `base.len() + i` is record `i`.
    tail: Records<V>,
    /// `prev[i]`: the log id tail record `i` superseded, or [`NO_PREV`].
    ///
    /// It threads the per-key **version chain** through the log. Every
    /// link strictly decreases the id, so "the value of key K at log
    /// watermark W" is: follow `prev` from K's live record until the id
    /// drops below W (that version was live at W), or the chain ends (K
    /// did not exist at W). A base record ends its chain: a loaded record
    /// starts a fresh one. This is what gives store-wide snapshots
    /// point-in-time reads over a generation that keeps mutating.
    prev: Vec<u32>,
    /// Number of live keys.
    live: usize,
    /// Source bytes of the live keys: what [`Generation::snapshot_live`]
    /// sizes its run with.
    live_key_bytes: usize,
}

impl<V> GenData<V> {
    /// Records in the log, live and superseded: the next log id.
    fn log_len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// Source key and value of log id `id`.
    fn record(&self, id: usize) -> (&[u8], &V) {
        match id.checked_sub(self.base.len()) {
            None => (self.base.keys.get(id), &self.base.values[id]),
            Some(t) => (self.tail.keys.get(t), &self.tail.values[t]),
        }
    }

    /// Value of log id `id`.
    fn value(&self, id: usize) -> &V {
        match id.checked_sub(self.base.len()) {
            None => &self.base.values[id],
            Some(t) => &self.tail.values[t],
        }
    }

    /// The chain member of live record `id` visible at log watermark `at`
    /// (`None` = the live record itself), following `prev` through the
    /// tail; a base record ends the chain. See [`GenData::prev`].
    fn visible_at(&self, mut id: usize, at: Option<usize>) -> Option<usize> {
        let Some(w) = at else { return Some(id) };
        loop {
            if id < w {
                return Some(id);
            }
            let prev = id.checked_sub(self.base.len()).map_or(NO_PREV, |t| self.prev[t]);
            if prev == NO_PREV {
                return None;
            }
            id = prev as usize;
        }
    }

    /// Heap bytes of the log as allocated: both runs, growth slack
    /// included, and the tail's links.
    fn log_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.tail.heap_bytes()
            + self.prev.capacity() * std::mem::size_of::<u32>()
    }
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
    /// Write-log record cap: `insert` returns
    /// [`StoreError::WriteLogFull`] instead of growing past it.
    log_capacity: u32,
    data: RwLock<GenData<V>>,
}

/// What [`Generation::snapshot_live`] captures: the live records in source
/// order (an exact-size run), their encoded bytes under the current
/// dictionary (empty unless asked for), and the log watermark the swap's
/// splice replays from.
pub(crate) type LiveSnapshot<V> = (Records<V>, KeyRun, usize);

/// Encode-side footprint of one insert, accumulated into the shard's
/// drift statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodeFootprint {
    /// Uncompressed key bytes.
    pub src_bytes: u64,
    /// Padded encoded bytes.
    pub enc_bytes: u64,
}

/// The padded bytes `hope` encodes `keys` to, index-aligned: one
/// [`Hope::encode_to`] per key, straight into the run, on this thread's
/// probe scratch. The keys are sorted, so the run is strictly increasing.
///
/// # Errors
///
/// [`HopeError`] when a key fails codec validation — never for keys that
/// already passed it at their load or insert.
pub(crate) fn encode_run(hope: &Hope, keys: &KeyRun) -> Result<KeyRun, HopeError> {
    PROBE.with_borrow_mut(|scratch| {
        let mut run = KeyRun::with_capacity(keys.len(), keys.byte_len());
        for key in keys.iter() {
            run.push(hope.encode_to(key, scratch)?);
        }
        Ok(run)
    })
}

impl<V: Value> Generation<V> {
    /// The one bulk loader: `run`, **sorted and deduplicated** by source
    /// key, becomes the generation's base, indexed under `encoded`, whose
    /// key `i` is record `i`'s padded bytes under `dict` — fresh out of
    /// [`encode_run`], or read back from the index of a generation that
    /// served the same dictionary ([`Generation::snapshot_live`]); the
    /// loader cannot tell and does not encode. Sorted keys arrive with
    /// strictly increasing encodings, so the index is built by one
    /// [`OrderedIndex::load_sorted`] call. The run is kept as it comes:
    /// callers size it exactly.
    pub(crate) fn load(
        epoch: u64,
        dict: Arc<Dictionary>,
        mut index: Box<dyn OrderedIndex<SlotId>>,
        run: Records<V>,
        encoded: KeyRun,
    ) -> Generation<V> {
        debug_assert!(
            run.keys.iter().zip(run.keys.iter().skip(1)).all(|(a, b)| a < b),
            "bulk load must be sorted"
        );
        debug_assert!(
            encoded.iter().zip(encoded.iter().skip(1)).all(|(a, b)| a < b),
            "encodings must strictly increase"
        );
        debug_assert_eq!(run.len(), encoded.len());
        debug_assert_eq!(run.len(), run.keys.len());
        index.load_sorted(&mut encoded.iter().zip(0..));
        let (live, live_key_bytes) = (run.len(), run.keys.byte_len());
        let tail = Records::with_capacity(0, 0);
        let data =
            RwLock::new(GenData { index, base: run, tail, prev: Vec::new(), live, live_key_bytes });
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

    /// Memory footprint: index structure + [`Generation::log_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let d = self.read();
        d.index.memory_bytes() + d.log_bytes()
    }

    /// The entry log's bytes as allocated: the loaded run (source keys,
    /// end offsets, values — exact size), and the write tail with its
    /// growth slack and one version link per record. A value's own heap
    /// (a `Vec<u8>` payload's buffer) is not counted.
    pub fn log_bytes(&self) -> usize {
        self.read().log_bytes()
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
    /// to `key`'s live record — the encoded bytes identify it, the stored
    /// source key is not read — and resolve it
    /// at log watermark `at` — `None` reads the live value; `Some(w)` the
    /// value `key` had when the log stood at `w` records, the read
    /// primitive behind [`Snapshot`](crate::versioned::Snapshot) (records
    /// appended at or after the watermark are invisible, and a key whose
    /// whole version chain postdates it did not exist then; see
    /// [`GenData::prev`]). `S` times the encode and probe stages for the
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
                .and_then(|&id| d.visible_at(id as usize, at))
                .map(|id| f(d.value(id)));
            spans.probed();
            Ok((found, spans))
        })
    }

    /// Insert or update; returns the previous value (if any), the encode
    /// footprint for drift accounting, and the stage spans (`S`, see
    /// [`Generation::lookup`]; the index/log mutation is the probe span).
    /// Encoding happens before the data lock is taken. One `index.insert`
    /// both publishes the new record's id and reports what the byte string
    /// pointed at before: nothing (a new key), or the version of this key
    /// the record supersedes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key fails codec validation, or
    /// [`StoreError::WriteLogFull`] when the log is at its configured
    /// capacity (always before it could reach `u32::MAX` records, where
    /// log ids and [`NO_PREV`] would collide) or the tail's key bytes
    /// would pass its `u32` end offsets. Either way the insert is **not**
    /// applied and the generation stays fully serviceable; a rebuild
    /// compacts the log so the caller can retry.
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
            let id = d.log_len();
            if id >= self.log_capacity as usize || !d.tail.keys.fits(key.len()) {
                return Err(StoreError::WriteLogFull {
                    shard: self.shard,
                    capacity: self.log_capacity,
                });
            }
            // The id the bytes pointed at, if any, is this key's previous
            // version: the new record chains to it (snapshot reads walk
            // the link) and it stays in the log as garbage for the next
            // rebuild to compact away. Ids stay in `u32` range: the
            // capacity guard bounds the log below `u32::MAX`.
            let prev = d.index.insert(bytes, id as SlotId).map_or(NO_PREV, |old| old as u32);
            let old = (prev != NO_PREV).then(|| d.value(prev as usize).clone());
            d.tail.push(key, value);
            d.prev.push(prev);
            if old.is_none() {
                d.live += 1;
                d.live_key_bytes += key.len();
            }
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
    /// every live record resolves through its version chain first
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
    /// key has them. Records born after `at` are walked past, not
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
                let Some(id) = d.visible_at(id as usize, at) else { return true };
                let (key, value) = d.record(id);
                f(key, value);
                emitted += 1;
                emitted < limit
            });
            Ok(emitted)
        })
    }

    /// Snapshot the live records in source order, the log watermark
    /// (everything appended after it is what the swap must replay), and —
    /// `with_encoded`, for a rebuild that keeps the dictionary — per live
    /// record the encoded padded bytes it is indexed under. One in-order
    /// walk of the index, the only holder of the encoded bytes, copies
    /// each live key out of the log into a run sized exactly; superseded
    /// records are never reached.
    pub(crate) fn snapshot_live(&self, with_encoded: bool) -> LiveSnapshot<V> {
        let d = self.read();
        let mut live = Records::with_capacity(d.live, d.live_key_bytes);
        let mut encoded = KeyRun::with_capacity(if with_encoded { d.live } else { 0 }, 0);
        d.index.for_each(&mut |enc, &id| {
            let (key, value) = d.record(id as usize);
            live.push(key, value.clone());
            if with_encoded {
                encoded.push(enc);
            }
        });
        (live, encoded, d.log_len())
    }

    /// Clone of the records appended at or after log id `watermark` — a
    /// watermark this generation's [`Generation::snapshot_live`] returned,
    /// so never inside the base — in order.
    pub(crate) fn entries_since(&self, watermark: usize) -> Records<V> {
        let d = self.read();
        debug_assert!(watermark >= d.base.len(), "a watermark is never inside the base");
        let from = watermark.saturating_sub(d.base.len()).min(d.tail.len());
        let key_bytes = d.tail.keys.byte_len() - d.tail.keys.start(from);
        let mut delta = Records::with_capacity(d.tail.len() - from, key_bytes);
        for (t, value) in d.tail.values.iter().enumerate().skip(from) {
            delta.push(d.tail.keys.get(t), value.clone());
        }
        delta
    }

    /// `(live keys, total log records)` — the gap between the two is dead
    /// log garbage a rebuild would compact away.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let d = self.read();
        (d.live, d.log_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::{HopeBuilder, Scheme};

    /// `pairs` sorted by key, as one exact-size run.
    fn sorted_run<V: Clone>(pairs: &[(&[u8], V)]) -> Records<V> {
        let mut pairs = pairs.to_vec();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut run = Records::with_capacity(pairs.len(), pairs.iter().map(|p| p.0.len()).sum());
        for (key, value) in pairs {
            run.push(key, value);
        }
        run
    }

    /// Encode sorted `run` under `hope` and bulk-load it.
    fn load_fresh<V: Value>(epoch: u64, hope: Hope, run: Records<V>) -> Generation<V> {
        let encoded = encode_run(&hope, &run.keys).unwrap();
        let dict = Dictionary::new(hope, 1.5, Arc::default());
        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        Generation::load(epoch, dict, index, run, encoded)
    }

    fn build_gen(pairs: &[(&str, u64)]) -> Generation<u64> {
        let pairs: Vec<(&[u8], u64)> = pairs.iter().map(|(k, v)| (k.as_bytes(), *v)).collect();
        let mut sample: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.to_vec()).collect();
        sample.push(b"com.gmail@sample".to_vec());
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
        load_fresh(7, hope, sorted_run(&pairs))
    }

    fn get_at(g: &Generation<u64>, key: &[u8], at: usize) -> Option<u64> {
        g.lookup::<(), _>(key, Some(at), u64::clone).unwrap().0
    }

    /// The source keys of a delta or snapshot, owned.
    fn keys_of<V>(run: &Records<V>) -> Vec<Vec<u8>> {
        run.keys.iter().map(<[u8]>::to_vec).collect()
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
        assert!(g.memory_bytes() > g.log_bytes());
        // The loaded run is exact: key bytes + one value + one end each.
        assert_eq!(g.log_bytes(), 11 + 11 + 9 + 3 * (8 + 4));
        // Probe-side validation surfaces as an error, not a panic.
        let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
        assert!(matches!(g.get(&giant), Err(StoreError::Codec(_))));
    }

    #[test]
    fn key_runs_hold_empty_keys_anywhere() {
        let mut run = KeyRun::default();
        for key in [&b""[..], b"x", b"", b"yz", b""] {
            run.push(key);
        }
        assert_eq!(run.len(), 5);
        assert_eq!(run.byte_len(), 3);
        let got: Vec<&[u8]> = (0..run.len()).map(|i| run.get(i)).collect();
        assert_eq!(got, vec![&b""[..], b"x", b"", b"yz", b""]);
        assert_eq!(run.iter().collect::<Vec<_>>(), got);
        assert!(run.fits(u32::MAX as usize - 3) && !run.fits(u32::MAX as usize - 2));
    }

    /// The empty key sorts first, so it is the first base record — and the
    /// last one too when it is all the base holds — and it can be the
    /// tail's first record.
    #[test]
    fn empty_keys_at_the_ends_of_the_base_and_the_start_of_the_tail() {
        let g = build_gen(&[("", 1)]);
        assert_eq!(g.get(b"").unwrap(), Some(1));
        g.insert::<()>(b"a", 2).unwrap();
        g.insert::<()>(b"", 3).unwrap();
        assert_eq!(g.get(b"").unwrap(), Some(3));
        assert_eq!(get_at(&g, b"", 1), Some(1));
        let (live, _, _) = g.snapshot_live(false);
        assert_eq!(keys_of(&live), vec![b"".to_vec(), b"a".to_vec()]);
        assert_eq!(live.values, vec![3, 2]);

        let g = build_gen(&[("", 1), ("com.gmail@a", 2), ("org.acm@b", 3)]);
        let mut hits: Vec<(Vec<u8>, u64)> = Vec::new();
        g.range_with(b"", b"zz", 10, |k, v| hits.push((k.to_vec(), *v))).unwrap();
        assert_eq!(hits[0], (b"".to_vec(), 1));
        assert_eq!(hits.len(), 3);

        let g = build_gen(&[("com.gmail@a", 1), ("org.acm@b", 2)]);
        assert_eq!(g.insert::<()>(b"", 9).unwrap().0, None);
        assert_eq!(g.get(b"").unwrap(), Some(9));
        assert_eq!(get_at(&g, b"", 2), None, "born at the seam, invisible before it");
        assert_eq!(get_at(&g, b"", 3), Some(9));
        let delta = g.entries_since(2);
        assert_eq!(keys_of(&delta), vec![b"".to_vec()]);
        assert_eq!(delta.values, vec![9]);
        let (live, kept, _) = g.snapshot_live(true);
        assert_eq!(
            keys_of(&live),
            vec![b"".to_vec(), b"com.gmail@a".to_vec(), b"org.acm@b".to_vec()]
        );
        assert_eq!(kept.len(), 3);
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
        assert_eq!(delta.keys.get(0), b"com.gmail@b");
        assert_eq!(delta.values[1], 9);
    }

    /// `a` is loaded (id 0) and updated twice in the tail (ids 3 and 5),
    /// with `b`'s two records (ids 2 and 4) between: every watermark reads
    /// the version live when the log stood there.
    #[test]
    fn an_update_chain_crosses_the_seam_and_reads_at_every_watermark() {
        let g = build_gen(&[("a", 10), ("c", 30)]);
        g.insert::<()>(b"b", 20).unwrap(); // id 2
        assert_eq!(g.insert::<()>(b"a", 11).unwrap().0, Some(10)); // id 3
        g.insert::<()>(b"b", 21).unwrap(); // id 4
        assert_eq!(g.insert::<()>(b"a", 12).unwrap().0, Some(11)); // id 5
        assert_eq!(g.occupancy(), (3, 6));
        let expect_a = [None, Some(10), Some(10), Some(10), Some(11), Some(11), Some(12)];
        let expect_b = [None, None, None, Some(20), Some(20), Some(21), Some(21)];
        for w in 0..=6 {
            assert_eq!(get_at(&g, b"a", w), expect_a[w], "a at {w}");
            assert_eq!(get_at(&g, b"b", w), expect_b[w], "b at {w}");
            assert_eq!(get_at(&g, b"c", w), (w > 1).then_some(30), "c at {w}");
        }
        assert_eq!(g.get(b"a").unwrap(), Some(12));
        let mut at_4: Vec<(Vec<u8>, u64)> = Vec::new();
        g.range_with_from(None, b"a", b"z", 10, Some(4), |k, v| at_4.push((k.to_vec(), *v)))
            .unwrap();
        assert_eq!(at_4, vec![(b"a".to_vec(), 11), (b"b".to_vec(), 20), (b"c".to_vec(), 30)]);
    }

    #[test]
    fn entries_since_starts_at_the_base_end_or_mid_tail() {
        let g = build_gen(&[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(g.entries_since(3).len(), 0, "nothing written yet");
        g.insert::<()>(b"d", 4).unwrap();
        g.insert::<()>(b"a", 5).unwrap();
        g.insert::<()>(b"", 6).unwrap();
        let all = g.entries_since(3);
        assert_eq!(keys_of(&all), vec![b"d".to_vec(), b"a".to_vec(), b"".to_vec()]);
        assert_eq!(all.values, vec![4, 5, 6]);
        let mid = g.entries_since(4);
        assert_eq!(keys_of(&mid), vec![b"a".to_vec(), b"".to_vec()]);
        assert_eq!(mid.values, vec![5, 6]);
        assert_eq!(mid.keys.heap_bytes(), 1 + 2 * 4, "a replayed suffix is sized exactly");
        assert_eq!(g.entries_since(6).len(), 0);
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
        assert_eq!(keys_of(&live), vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(live.values[0], 10, "snapshot must carry the updated value");
    }

    /// Superseded base records are not copied, and the run comes out
    /// sorted and allocated at exactly its size.
    #[test]
    fn snapshot_live_after_updates_is_exact_and_skips_superseded_records() {
        let g = build_gen(&[("com.gmail@a", 1), ("com.gmail@bb", 2), ("org.acm@c", 3)]);
        g.insert::<()>(b"com.gmail@bb", 20).unwrap();
        g.insert::<()>(b"net.x@d", 4).unwrap();
        g.insert::<()>(b"com.gmail@bb", 21).unwrap();
        g.insert::<()>(b"com.gmail@", 5).unwrap();
        assert_eq!(g.occupancy(), (5, 7));
        let (live, kept, watermark) = g.snapshot_live(true);
        assert_eq!(watermark, 7);
        let keys = keys_of(&live);
        assert_eq!(
            keys,
            ["com.gmail@", "com.gmail@a", "com.gmail@bb", "net.x@d", "org.acm@c"]
                .map(|k| k.as_bytes().to_vec())
        );
        assert_eq!(live.values, vec![5, 1, 21, 4, 3]);
        let key_bytes: usize = keys.iter().map(Vec::len).sum();
        assert_eq!((live.keys.byte_len(), live.keys.len()), (key_bytes, 5));
        assert!(live.keys.is_exact());
        assert_eq!(live.values.capacity(), 5);
        assert_eq!(kept.len(), 5);

        // Loaded back, the run is the base and the tail is empty.
        let reloaded = Generation::load(
            8,
            Arc::clone(g.dictionary()),
            Box::new(hope_btree::BPlusTree::plain()),
            live,
            kept,
        );
        assert_eq!(reloaded.log_bytes(), key_bytes + 5 * (8 + 4));
        assert_eq!(reloaded.get(b"com.gmail@bb").unwrap(), Some(21));
    }

    #[test]
    fn write_log_capacity_back_pressures_instead_of_panicking() {
        let g = build_gen(&[("com.gmail@a", 1)]).with_context(3, 3);
        // Record 0 is the bulk load; two appends fit under the cap of 3.
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

    /// A cap equal to the base admits no write at all; one above it admits
    /// exactly one, new key or update alike.
    #[test]
    fn write_log_capacity_holds_on_both_sides_of_the_seam() {
        let full = |r: Result<(Option<u64>, EncodeFootprint, ()), StoreError>| {
            matches!(r, Err(StoreError::WriteLogFull { shard: 1, capacity: _ }))
        };
        let g = build_gen(&[("a", 1), ("b", 2)]).with_context(1, 2);
        assert!(full(g.insert(b"c", 3)));
        assert!(full(g.insert(b"a", 9)));
        assert_eq!((g.occupancy(), g.get(b"a").unwrap()), ((2, 2), Some(1)));
        assert_eq!(g.entries_since(2).len(), 0);

        let g = build_gen(&[("a", 1), ("b", 2)]).with_context(1, 3);
        assert_eq!(g.insert::<()>(b"a", 9).unwrap().0, Some(1));
        assert!(full(g.insert(b"c", 3)));
        assert!(full(g.insert(b"a", 10)));
        assert_eq!((g.occupancy(), g.get(b"a").unwrap()), ((2, 3), Some(9)));
        assert_eq!(get_at(&g, b"a", 2), Some(1));
    }

    #[test]
    fn watermark_reads_observe_the_point_in_time_state() {
        let g = build_gen(&[("a", 1), ("c", 3)]);
        g.insert::<()>(b"a", 10).unwrap();
        let (_, _, w) = g.snapshot_live(false);
        // Post-watermark: update a again, add a new key between a and c.
        g.insert::<()>(b"a", 100).unwrap();
        g.insert::<()>(b"b", 2).unwrap();

        assert_eq!(get_at(&g, b"a", w), Some(10), "chain resolves to the pre-W version");
        assert_eq!(get_at(&g, b"b", w), None, "key born after W is invisible");
        assert_eq!(get_at(&g, b"c", w), Some(3));
        // And the live view still sees everything.
        assert_eq!(g.get(b"a").unwrap(), Some(100));
        assert_eq!(g.get(b"b").unwrap(), Some(2));

        let mut at_w: Vec<(Vec<u8>, u64)> = Vec::new();
        g.range_with_from(None, b"a", b"z", 10, Some(w), |k, v| at_w.push((k.to_vec(), *v)))
            .unwrap();
        assert_eq!(at_w, vec![(b"a".to_vec(), 10), (b"c".to_vec(), 3)]);
    }

    /// The loader cannot tell where its bytes came from: bytes read back
    /// from an index and `encode_run` bytes of the same dictionary build
    /// identical indexes.
    #[test]
    fn kept_bytes_and_fresh_bytes_load_identical_indexes() {
        // Single-Char trained on 0x00 runs gives 0x00 the shortest,
        // smallest code there is — and `a`, `a\0`, `a\0\0` still index
        // under three byte strings, because that code is not all zeros.
        let mut keys: Vec<Vec<u8>> = (1..=40).map(|n| vec![0u8; n]).collect();
        keys.extend([b"a".to_vec(), b"a\0".to_vec(), b"a\0\0".to_vec(), b"b".to_vec()]);
        let hope = HopeBuilder::new(Scheme::SingleChar).build_from_sample(keys.clone()).unwrap();
        let pairs: Vec<(&[u8], u64)> =
            keys.iter().enumerate().map(|(i, k)| (k.as_slice(), i as u64)).collect();
        let fresh = load_fresh(7, hope, sorted_run(&pairs));

        let (live, kept, _) = fresh.snapshot_live(true);
        assert_eq!(live.len(), keys.len());
        assert_eq!(kept.len(), keys.len());
        assert_eq!(kept.byte_len(), kept.iter().map(<[u8]>::len).sum::<usize>());
        let bytes: Vec<&[u8]> = kept.iter().collect();
        assert!(bytes.windows(2).all(|w| w[0] < w[1]), "padded bytes must strictly increase");
        assert_eq!(kept, encode_run(fresh.hope(), &live.keys).unwrap());

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
        let run = sorted_run(&[(&b"k1"[..], b"one".to_vec()), (b"k2", b"two".to_vec())]);
        let g: Generation<Vec<u8>> = load_fresh(1, hope, run);
        assert_eq!(g.get(b"k2").unwrap(), Some(b"two".to_vec()));
        assert_eq!(g.insert::<()>(b"k1", b"uno".to_vec()).unwrap().0, Some(b"one".to_vec()));
        assert_eq!(g.get_with(b"k1", |v| v.len()).unwrap(), Some(3));
    }
}

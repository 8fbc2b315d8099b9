//! # hope_store — a concurrent, sharded store over HOPE-compressed keys
//!
//! The paper's dictionaries are static: built once from a sample, then
//! frozen. Appendix C (the `fig15` row of `figures`) shows what that costs a
//! long-running system — when the key distribution drifts, the compression
//! rate quietly decays. This crate adds the serving layer the ROADMAP
//! calls for: an order-preserving compressed key-value store that keeps
//! its dictionaries *fresh* without ever blocking readers.
//!
//! ## Architecture
//!
//! * **Generic values** — [`HopeStore<V>`] serves any
//!   [`hope::Value`] payload (`Clone + Send + Sync + Debug + 'static`):
//!   `u64` record ids (the default), `Vec<u8>` documents, `Arc<T>`
//!   handles. Only *keys* are HOPE-compressed; values live in each
//!   shard's entry log.
//! * **Sharding** — keys are split across N partitions on encoded-key
//!   ranges (quantiles of the bulk-load's encoded sort order; because the
//!   encoding is order-preserving the same split points, kept in source
//!   form, stay valid across dictionary swaps). Each shard owns an
//!   independent index, statistics and epoch, and shares the store's one
//!   dictionary — trained once, on a sample of the whole load — until
//!   its own traffic drifts away from it.
//! * **Pluggable trees** — every shard indexes the encoded padded bytes
//!   in any [`OrderedIndex`] backend: the repo's B+tree (plain or
//!   prefix), its ART, its HOT, `std`'s `BTreeMap` as reference, or a
//!   user-supplied factory ([`Backend::Custom`]).
//! * **Cursor-based ranges** — range queries go through a lazy
//!   [`RangeCursor`]: pull hits one at a time (`next_hit`), stream them
//!   zero-copy (`for_each`), or collect (`collect_into`). See the
//!   [`cursor`] module for the consistency story across swaps.
//! * **O(1) snapshots** — [`HopeStore::snapshot`] captures a store-wide
//!   point-in-time [`Snapshot`] in O(shard count): per shard, an `Arc`
//!   clone of the generation handle plus its write-log watermark. Reads
//!   on the handle (point, range, cursor) observe exactly the capture
//!   instant while writers and swaps proceed (the [`versioned`] module).
//! * **Epoch-based dictionary hot-swap** — each shard tracks the CPR its
//!   inserts actually achieve; when it degrades past a threshold of the
//!   dictionary's held-out baseline, [`HopeStore::maintain`] trains a
//!   replacement from a reservoir sample of recent traffic, re-encodes
//!   the shard into a fresh [`Generation`] in the background, replays the
//!   writes that landed meanwhile, and flips the shard's `Arc` epoch
//!   handle. Readers on the old generation drain gracefully; none ever
//!   block. A rebuild of an undrifted shard (log compaction,
//!   [`HopeStore::force_rebuild`]) keeps the dictionary and reloads the
//!   already-encoded keys verbatim.
//!
//! Every fallible operation returns [`StoreError`] — no panics, no bare
//! `Option`s on failure paths (see `DESIGN.md`, "Public API v1").
//!
//! ```
//! use hope_store::prelude::*;
//!
//! let pairs = (0..1000u64).map(|i| (format!("com.gmail@user{i:04}").into_bytes(), i));
//! let store = HopeStore::build(StoreConfig::default(), pairs)?;
//! assert_eq!(store.get(b"com.gmail@user0007")?, Some(7));
//! store.insert(b"com.gmail@newcomer".to_vec(), 9999)?;
//!
//! // Lazy cursor: pull hits one at a time, borrowed from the cursor.
//! let mut cur = store.cursor(b"com.gmail@user0100", b"com.gmail@user0102", 10)?;
//! let mut hits = 0;
//! while let Some((key, value)) = cur.next_hit() {
//!     assert!(key.starts_with(b"com.gmail@user010"));
//!     let _ = value;
//!     hits += 1;
//! }
//! assert_eq!(hits, 3);
//! # Ok::<(), hope_store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cursor;
mod dictionary;
mod error;
mod generation;
pub mod serving;
mod shard;
pub mod telemetry;
pub mod versioned;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hope::{OrderedIndex, Scheme, Value};

pub use cursor::RangeCursor;
pub use error::StoreError;
pub use generation::Generation;
pub use versioned::Snapshot;

use dictionary::{train, CodecTotal};
use error::validate_key;
use generation::{encode_run, Records};
use shard::{lock, Shard, ShardTelemetry};
use telemetry::{Event, EventKind, ProbeSpans, Stopwatch, Telemetry, TelemetrySnapshot};

/// The value type every shard *index* stores: the log id of the key's
/// live entry — the one key whose encoding is the indexed padded bytes
/// (see DESIGN.md, "The serving layer"). The index is always id-valued regardless of the
/// store's payload type `V`, which lives in the generation's entry log,
/// so a custom [`Backend`] factory produces `OrderedIndex<SlotId>`
/// instances.
pub type SlotId = u64;

/// Factory for a user-supplied shard index ([`Backend::Custom`]).
pub type IndexFactory = fn() -> Box<dyn OrderedIndex<SlotId>>;

/// Which ordered-index structure each shard runs on.
///
/// `#[non_exhaustive]`: future PRs may add backends without a breaking
/// change, so downstream matches need a wildcard arm. Deliberately **not**
/// `PartialEq` (a pre-v1 regression): [`Backend::Custom`] holds a function
/// pointer, and function-pointer equality is not meaningful (addresses are
/// neither unique nor stable across codegen units) — compare via
/// `matches!` on the variant instead.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum Backend {
    /// Plain TLX-style B+tree (`hope_btree`).
    BTree,
    /// Prefix-truncating B+tree (`hope_btree`).
    PrefixBTree,
    /// Adaptive Radix Tree (`hope_art`).
    Art,
    /// Height-optimized trie (`hope_hot`).
    Hot,
    /// `std::collections::BTreeMap` — the reference backend.
    BTreeMap,
    /// A user-supplied index: any [`OrderedIndex<SlotId>`] implementation
    /// behind a factory function. An implementation writes `get`,
    /// `insert`, `len`, `memory_bytes` and one in-order walker
    /// ([`OrderedIndex::visit`]: bounded, keyed, stopped by its callback);
    /// the store scans and rebuilds through that walker alone. Every
    /// generation fills its index with one
    /// [`OrderedIndex::load_sorted`] call on the empty index the factory
    /// returns — provided by the trait as an insert per pair; override it
    /// when the structure can be built left to right from a sorted run.
    ///
    /// ```
    /// use hope_store::{Backend, SlotId};
    /// use std::collections::BTreeMap;
    ///
    /// fn my_index() -> Box<dyn hope::OrderedIndex<SlotId>> {
    ///     Box::<BTreeMap<Vec<u8>, SlotId>>::default()
    /// }
    /// let backend = Backend::Custom(my_index);
    /// assert!(backend.new_index().is_empty());
    /// ```
    Custom(IndexFactory),
}

impl Backend {
    /// Fresh empty index of this kind.
    pub fn new_index(&self) -> Box<dyn OrderedIndex<SlotId>> {
        match self {
            Backend::BTree => Box::new(hope_btree::BPlusTree::plain()),
            Backend::PrefixBTree => Box::new(hope_btree::BPlusTree::prefix()),
            Backend::Art => Box::new(hope_art::Art::new()),
            Backend::Hot => Box::new(hope_hot::Hot::new()),
            Backend::BTreeMap => Box::<std::collections::BTreeMap<Vec<u8>, SlotId>>::default(),
            Backend::Custom(factory) => factory(),
        }
    }
}

/// Store construction and maintenance parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Number of partitions (≥ 1).
    pub shards: usize,
    /// Compression scheme for every dictionary.
    pub scheme: Scheme,
    /// Target dictionary entries (variable-size schemes).
    pub dict_entries: usize,
    /// Tree backend indexing the encoded keys.
    pub backend: Backend,
    /// Keys held in each shard's traffic reservoir — the size of every
    /// dictionary training sample, the store-wide one at build included.
    pub reservoir_capacity: usize,
    /// A shard has drifted — its next rebuild replaces the dictionary —
    /// when observed CPR falls below this fraction of the dictionary's
    /// baseline CPR.
    pub degrade_ratio: f64,
    /// Minimum inserted source bytes before drift is judged at all.
    pub min_observed_bytes: u64,
    /// Not read: bulk loads encode key by key, and there is no sorted-block
    /// encoder (DESIGN.md, "Known deviations from the paper"). The field
    /// remains only because the whole-store benchmark passes it to
    /// [`hope::Hope::encode_batch`], which ignores it; both go together.
    pub batch_block: usize,
    /// Seed for the reservoir sampling decisions.
    pub seed: u64,
    /// Capacity of the telemetry event ring (lifecycle events retained
    /// for [`HopeStore::telemetry`] snapshots; oldest are dropped — and
    /// counted — past this). Clamped to at least 1.
    pub event_capacity: usize,
    /// Maximum entries in one generation's append-only write log. Writes
    /// past this back-pressure with [`StoreError::WriteLogFull`] instead
    /// of overflowing the log's `u32` ids (the default leaves the capacity
    /// effectively unbounded while still refusing the one id reserved as
    /// the version-chain sentinel).
    pub write_log_capacity: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 4,
            scheme: Scheme::DoubleChar,
            dict_entries: 1 << 16,
            backend: Backend::BTree,
            reservoir_capacity: 2048,
            degrade_ratio: 0.9,
            min_observed_bytes: 64 * 1024,
            batch_block: 16,
            seed: 42,
            event_capacity: 1024,
            write_log_capacity: u32::MAX,
        }
    }
}

/// What one successful hot-swap did. Every swap compacts the write log
/// and steps the epoch; what it does to the dictionary is one decision,
/// taken once under the shard's rebuild lock: a **drifted** shard (enough
/// observed bytes, observed CPR under `degrade_ratio` × baseline)
/// *replaces* it — trains on the traffic reservoir and re-encodes every
/// live key — and any other shard *keeps* it: same dictionary object,
/// same baseline, the encoded bytes read back from the old index and
/// loaded verbatim, with no training and no encode call.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// Shard that swapped.
    pub shard: usize,
    /// Epoch of the superseded generation.
    pub old_epoch: u64,
    /// Epoch of the freshly installed generation.
    pub new_epoch: u64,
    /// CPR observed on the shard's insert traffic under the old
    /// generation's dictionary, at swap time.
    pub observed_cpr: Option<f64>,
    /// Baseline CPR of the old generation's dictionary.
    pub old_baseline_cpr: f64,
    /// Baseline CPR of the new generation's dictionary: the same number
    /// when the dictionary was kept, the replacement's held-out CPR
    /// otherwise.
    pub new_baseline_cpr: f64,
    /// Live keys loaded into the new generation.
    pub live_keys: usize,
    /// Writes replayed from the log tail during the splice.
    pub replayed: usize,
    /// `true`: the dictionary was **kept**; `false`: it was **replaced**.
    pub incremental: bool,
    /// Encoded bytes read back from the old index and loaded verbatim:
    /// every live entry's encoded length on a keep, 0 on a replace.
    pub reused_bytes: u64,
    /// Encoded bytes produced by encoding under the replacement
    /// dictionary: every live entry's encoded length on a replace, 0 on a
    /// keep.
    pub reencoded_bytes: u64,
}

/// Point-in-time health of one shard.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard id (position in split order).
    pub shard: usize,
    /// Current epoch.
    pub epoch: u64,
    /// Live keys.
    pub keys: usize,
    /// CPR observed on insert traffic since the shard's dictionary was
    /// installed (rebuilds that keep the dictionary do not reset it).
    pub observed_cpr: Option<f64>,
    /// CPR of the shard's dictionary on the sample keys withheld from its
    /// training. Shards sharing a dictionary report the same number.
    pub baseline_cpr: f64,
    /// Compressor memory in bytes: the dictionary plus its shared
    /// decoder once built ([`hope::Hope::memory_bytes`]). A dictionary
    /// several shards share is reported by the lowest-numbered of them
    /// and as 0 by the others, so the column sums to what the store
    /// holds.
    pub dict_bytes: usize,
    /// Index + record memory in bytes.
    pub index_bytes: usize,
}

/// A concurrent, sharded key-value store over HOPE-compressed keys and
/// `V`-typed values.
///
/// All operations take `&self`; the store is `Send + Sync` and designed to
/// sit behind an `Arc` with many reader and writer threads.
#[derive(Debug)]
pub struct HopeStore<V: Value = u64> {
    cfg: StoreConfig,
    /// Source-form split points, `boundaries.len() == shards - 1`; shard
    /// `i` holds keys in `[boundaries[i-1], boundaries[i])`.
    boundaries: Vec<Vec<u8>>,
    shards: Vec<Shard<V>>,
    epoch_counter: AtomicU64,
    telemetry: Arc<Telemetry>,
    /// What the store's dictionaries have published of their codec
    /// counters (`dictionary::Dictionary::publish_codec_stats`).
    codec_total: CodecTotal,
}

impl<V: Value> HopeStore<V> {
    /// Build a store from an initial key-value load.
    ///
    /// Duplicate keys keep the last value. The load is sorted once (a
    /// stable sort of the collected pairs); **one** dictionary is
    /// trained, on `reservoir_capacity` keys evenly spaced over the whole
    /// sorted load, and shared by every shard; shard split points are the
    /// quantiles of the sorted **encoded** order (identical to source
    /// order — the encoding is order-preserving), and every shard copies
    /// its slice into one exact-size run, encodes it key by key and
    /// bulk-loads it ([`OrderedIndex::load_sorted`]).
    ///
    /// # Errors
    ///
    /// * [`StoreError::InvalidConfig`] — `shards == 0` or `degrade_ratio`
    ///   outside `(0, 1]`;
    /// * [`StoreError::Codec`] — a load key fails validation
    ///   ([`hope::HopeError::KeyTooLong`]) or the dictionary fails to build.
    pub fn build<I>(cfg: StoreConfig, pairs: I) -> Result<HopeStore<V>, StoreError>
    where
        I: IntoIterator<Item = (Vec<u8>, V)>,
    {
        if cfg.shards == 0 {
            return Err(StoreError::InvalidConfig { reason: "need at least one shard" });
        }
        if !(cfg.degrade_ratio > 0.0 && cfg.degrade_ratio <= 1.0) {
            return Err(StoreError::InvalidConfig { reason: "degrade_ratio must be in (0, 1]" });
        }
        // Keys validated up front and left where the caller put them; the
        // load is sorted as borrowed slices, the stable sort keeping
        // duplicates in load order so the last write wins.
        let pairs = pairs.into_iter();
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(pairs.size_hint().0);
        let mut values: Vec<V> = Vec::with_capacity(pairs.size_hint().0);
        for (k, v) in pairs {
            validate_key(&k)?;
            keys.push(k);
            values.push(v);
        }
        let mut sorted: Vec<(&[u8], V)> = keys.iter().map(Vec::as_slice).zip(values).collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        sorted.dedup_by(|later, kept| {
            let duplicate = later.0 == kept.0;
            if duplicate {
                std::mem::swap(later, kept);
            }
            duplicate
        });

        // Split points at the quantiles of the (encoded) sort order.
        let n = sorted.len();
        let boundaries: Vec<Vec<u8>> = (1..cfg.shards)
            .map(|i| {
                if n == 0 {
                    // No data to learn a split from: divide the byte space.
                    vec![(i * 256 / cfg.shards) as u8]
                } else {
                    sorted[(i * n / cfg.shards).min(n - 1)].0.to_vec()
                }
            })
            .collect();

        // The store's one dictionary, from an evenly spaced sample of the
        // whole load; a shard trains its own only once it drifts.
        let codec_total = CodecTotal::default();
        let step = (n / cfg.reservoir_capacity.max(1)).max(1);
        let sample: Vec<Vec<u8>> = sorted.iter().step_by(step).map(|(k, _)| k.to_vec()).collect();
        let dict = train(&cfg, &sample, &codec_total)?;

        let epoch_counter = AtomicU64::new(0);
        let telemetry = Arc::new(Telemetry::new(cfg.event_capacity));
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut rest = sorted.into_iter();
        for s in 0..cfg.shards {
            let build_started = std::time::Instant::now();
            // Each shard takes the load up to its boundary; the last shard
            // (no boundary above it) takes the remainder. Its run is sized
            // exactly: the keys are copied in, the values moved.
            let slice = rest.as_slice();
            let len = boundaries
                .get(s)
                .map_or(slice.len(), |b| slice.partition_point(|(k, _)| *k < b.as_slice()));
            let mut run =
                Records::with_capacity(len, slice[..len].iter().map(|(k, _)| k.len()).sum());
            for (key, value) in rest.by_ref().take(len) {
                run.push(key, value);
            }

            let epoch = epoch_counter.fetch_add(1, Ordering::Relaxed) + 1;
            let encoded = encode_run(&dict.hope, &run.keys)?;
            let index = cfg.backend.new_index();
            let generation = Generation::load(epoch, Arc::clone(&dict), index, run, encoded)
                .with_context(s, cfg.write_log_capacity);
            telemetry.events().record(Event {
                kind: EventKind::GenerationBuilt,
                shard: s as u32,
                epoch,
                keys: generation.len() as u64,
                bytes: generation.hope().memory_bytes() as u64,
                duration_ns: build_started.elapsed().as_nanos() as u64,
                ..Event::default()
            });
            let shard_tel = ShardTelemetry::new(Arc::clone(&telemetry), s as u32);
            shards.push(Shard::new(
                generation,
                cfg.reservoir_capacity,
                cfg.seed ^ (s as u64),
                shard_tel,
                Arc::clone(&codec_total),
            ));
        }
        // The caller's keys go once every shard holds its copy, freed in
        // address order: in arrival order the frees walk chunks the
        // allocator handed out scattered, in address order they walk
        // memory forward (2-vCPU box, 300 k Wiki keys: the drop's median
        // 81 → 48 ms over 18 builds; 300 k Email keys: `setup_s` 0.344 →
        // 0.275 s over 5 pairs).
        drop(rest);
        keys.sort_unstable_by_key(|k| k.as_ptr() as usize);
        drop(keys);
        Ok(HopeStore { cfg, boundaries, shards, epoch_counter, telemetry, codec_total })
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Shard index responsible for `key`.
    pub(crate) fn route(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }

    /// The shard structure itself (cursor internals).
    pub(crate) fn shard_ref(&self, shard: usize) -> &Shard<V> {
        &self.shards[shard]
    }

    /// Which shard serves `key` (diagnostics; routing is internal).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.route(key)
    }

    /// Epoch handle of one shard's current generation (diagnostics: lets
    /// harnesses measure the live dictionary without racing a swap).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchShard`] when `shard` is out of range.
    pub fn generation(&self, shard: usize) -> Result<Arc<Generation<V>>, StoreError> {
        match self.shards.get(shard) {
            Some(s) => Ok(s.current()),
            None => Err(StoreError::NoSuchShard { shard, shards: self.shards.len() }),
        }
    }

    /// Point lookup, cloning the value out (a copy for `u64` ids). For
    /// heavyweight payloads, [`HopeStore::get_with`] borrows instead.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails validation.
    pub fn get(&self, key: &[u8]) -> Result<Option<V>, StoreError> {
        self.get_with(key, V::clone)
    }

    /// Zero-clone point lookup: run `f` on a borrow of the stored value
    /// (under a shard read lock — keep `f` short) and return its result.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails validation.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&V) -> R,
    ) -> Result<Option<R>, StoreError> {
        let (found, ()) = self.shards[self.route(key)].get_with(key, f)?;
        Ok(found)
    }

    /// Insert or update; returns the previous value if the key existed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key fails validation
    /// ([`hope::HopeError::KeyTooLong`]); the store is unchanged in that case.
    pub fn insert(&self, key: Vec<u8>, value: V) -> Result<Option<V>, StoreError> {
        // No up-front validation: the generation's `encode_to` call
        // validates the key before anything is mutated.
        let (old, ()) = self.shards[self.route(&key)].insert(&key, value)?;
        Ok(old)
    }

    /// Open a lazy [`RangeCursor`] over `low..=high` (inclusive), capped
    /// at `limit` hits, in global source-key order. Inverted bounds or a
    /// zero limit yield an empty cursor (not an error), matching ordered-
    /// map conventions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
    pub fn cursor(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
    ) -> Result<RangeCursor<'_, V>, StoreError> {
        validate_key(low)?;
        validate_key(high)?;
        Ok(RangeCursor::new(self, low, high, limit))
    }

    /// Visitor-form range scan: call `f(key, value)` for up to `limit`
    /// hits in source-key order (possibly spanning shards) and return the
    /// hit count. A thin wrapper over the cursor's push engine (what a
    /// fresh [`RangeCursor::for_each`] runs), taken over borrowed bounds —
    /// zero heap allocations per scan after warm-up; the key and value
    /// are borrowed and valid only for the duration of the callback.
    ///
    /// `f` runs under a shard generation's read lock: keep it short and
    /// never call back into the store from inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
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
        validate_key(low)?;
        validate_key(high)?;
        cursor::push_scan(self, low, high, limit, f)
    }

    /// Collect-form range scan: append up to `limit` `(key, value)` pairs
    /// to `out` and return the count appended. A thin wrapper over
    /// [`RangeCursor::collect_into`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
    pub fn range_into(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
        out: &mut Vec<(Vec<u8>, V)>,
    ) -> Result<usize, StoreError> {
        self.range_with(low, high, limit, |k, v| out.push((k.to_vec(), v.clone())))
    }

    /// Total live keys across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.current().len()).sum()
    }

    /// True if no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current epoch of every shard, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.current().epoch()).collect()
    }

    /// Capture an O(1) copy-on-write [`Snapshot`] of the whole store: a
    /// point-in-time view that [`Snapshot::get`] and the snapshot's
    /// range surface read while writers and dictionary hot-swaps proceed
    /// unhindered (see the [`versioned`] module docs for the mechanism
    /// and lifetime story).
    ///
    /// Cost is `shards × (Arc clone + two usize reads)` — independent of
    /// key count; no key, value, or index node is copied. The capture
    /// briefly holds every shard's writer mutex (ascending order) so the
    /// per-shard watermarks form one cross-shard instant; readers are
    /// never blocked, and writers only for the pointer reads themselves.
    ///
    /// ```
    /// use hope_store::prelude::*;
    ///
    /// let pairs = (0..300u64).map(|i| (format!("user{i:04}").into_bytes(), i));
    /// let store = HopeStore::build(StoreConfig::default(), pairs)?;
    /// let snap = store.snapshot();
    /// store.insert(b"user0042".to_vec(), 999)?;
    /// assert_eq!(snap.get(b"user0042")?, Some(42)); // frozen
    /// assert_eq!(store.get(b"user0042")?, Some(999)); // live
    /// # Ok::<(), StoreError>(())
    /// ```
    pub fn snapshot(&self) -> Snapshot<V> {
        // Every shard's writer mutex, ascending — the one code path that
        // holds more than one (see `Shard::writer_lock`), so the global
        // order keeps it deadlock-free. With all writers excluded, the
        // per-shard `(generation, watermark)` pairs are one instant: no
        // insert or swap splice can land between the first read and the
        // last.
        let _guards: Vec<_> = self.shards.iter().map(|s| s.writer_lock()).collect();
        let pins = self
            .shards
            .iter()
            .map(|s| {
                let generation = s.current();
                let (live, watermark) = generation.occupancy();
                versioned::Pin { generation, watermark, live }
            })
            .collect();
        Snapshot::capture(pins, self.boundaries.clone(), Arc::clone(&self.telemetry))
    }

    /// One maintenance pass: every shard whose observed compression rate
    /// has degraded past the threshold gets a replacement dictionary
    /// trained from its reservoir sample, and every shard whose write log
    /// wants compacting is reloaded under the dictionary it has; either
    /// way the new generation is hot-swapped in. Returns a report per
    /// swap ([`SwapReport::incremental`] says which it was).
    ///
    /// Shards whose rebuild *fails* (a [`StoreError`] from the dictionary
    /// pipeline) keep serving their current generation; the error is
    /// returned alongside the successful swaps. Concurrent passes (a
    /// [`Maintainer`] thread plus a direct call) never double-rebuild a
    /// shard: the trigger is re-checked under the shard's rebuild lock.
    pub fn maintain(&self) -> (Vec<SwapReport>, Vec<(usize, StoreError)>) {
        let mut swaps = Vec::new();
        let mut errors = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.needs_rebuild(&self.cfg) {
                match shard.maybe_rebuild(i, &self.cfg, &self.epoch_counter) {
                    Ok(Some(report)) => swaps.push(report),
                    Ok(None) => {} // a concurrent pass already swapped it
                    Err(e) => errors.push((i, e)),
                }
            }
        }
        (swaps, errors)
    }

    /// Install a fault-injection plan on every shard's maintenance path:
    /// rebuild attempts the plan selects ([`FaultPlan::rebuild_fails`])
    /// fail with [`StoreError::FaultInjected`] *before* any build work,
    /// and flow through the shard's normal failure handling — the old
    /// generation keeps serving, `store.shard.{i}.rebuild_errors` and
    /// `store.faults.injected_rebuild_failures` tick, and a
    /// [`RebuildFailed`](telemetry::EventKind::RebuildFailed) event lands
    /// in the ring. Installing resets every shard's attempt counter;
    /// [`HopeStore::clear_faults`] uninstalls.
    ///
    /// [`FaultPlan::rebuild_fails`]: serving::FaultPlan::rebuild_fails
    ///
    /// ```
    /// use hope_store::prelude::*;
    ///
    /// let pairs = (0..500u64).map(|i| (format!("user{i:04}").into_bytes(), i));
    /// let store = HopeStore::build(StoreConfig::default(), pairs)?;
    /// store.inject_faults(FaultPlan { rebuild_fail_every: 2, ..FaultPlan::default() });
    /// // Attempt 0 is forced to fail; the shard keeps serving …
    /// assert!(matches!(store.force_rebuild(0), Err(StoreError::FaultInjected { .. })));
    /// assert_eq!(store.get(b"user0007")?, Some(7));
    /// // … and attempt 1 heals it.
    /// assert!(store.force_rebuild(0).is_ok());
    /// # Ok::<(), StoreError>(())
    /// ```
    pub fn inject_faults(&self, plan: serving::FaultPlan) {
        for s in &self.shards {
            s.set_fault_plan(Some(plan));
        }
    }

    /// Remove any installed fault-injection plan (see
    /// [`HopeStore::inject_faults`]).
    pub fn clear_faults(&self) {
        for s in &self.shards {
            s.set_fault_plan(None);
        }
    }

    /// Unconditionally rebuild and swap one shard (testing/operations):
    /// the write log is compacted and the epoch steps. The dictionary
    /// follows the same rule as under [`HopeStore::maintain`] — replaced
    /// when the shard has drifted, otherwise kept, in which case nothing
    /// is trained and no key is encoded (see [`SwapReport`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchShard`] for an out-of-range shard;
    /// [`StoreError::Codec`] when a replacement dictionary fails to
    /// build (the shard keeps serving its current generation).
    pub fn force_rebuild(&self, shard: usize) -> Result<SwapReport, StoreError> {
        match self.shards.get(shard) {
            Some(s) => s.rebuild_forced(shard, &self.cfg, &self.epoch_counter),
            None => Err(StoreError::NoSuchShard { shard, shards: self.shards.len() }),
        }
    }

    /// Point-in-time telemetry snapshot: every registered metric, the
    /// resident tail of the lifecycle event ring, and freshly refreshed
    /// per-shard / codec gauges. Export it with
    /// [`TelemetrySnapshot::to_json`] or
    /// [`TelemetrySnapshot::to_prometheus`].
    ///
    /// ```
    /// use hope_store::prelude::*;
    ///
    /// let pairs = (0..500u64).map(|i| (format!("user{i:04}").into_bytes(), i));
    /// let store = HopeStore::build(StoreConfig::default(), pairs)?;
    /// store.get(b"user0007")?;
    /// let snap = store.telemetry();
    /// // Every shard built one generation at load time.
    /// assert_eq!(snap.events_of(EventKind::GenerationBuilt).count(), 4);
    /// assert!(snap.gauge("store.shard.0.epoch").is_some());
    /// assert!(snap.to_prometheus().contains("store_shard_0_epoch"));
    /// # Ok::<(), StoreError>(())
    /// ```
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.refresh_gauges();
        self.telemetry.snapshot()
    }

    /// Shared handle to the live telemetry hub — register additional
    /// metrics, or read the event ring without taking a full snapshot.
    pub fn telemetry_handle(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Every shard's current generation, paired with whether the shard
    /// is the lowest-numbered holder of its dictionary — the one a shared
    /// dictionary's bytes and counters are attributed to.
    fn generations(&self) -> Vec<(Arc<Generation<V>>, bool)> {
        let gens: Vec<_> = self.shards.iter().map(Shard::current).collect();
        let first_holder =
            |i: usize| !gens[..i].iter().any(|g| Arc::ptr_eq(g.dictionary(), gens[i].dictionary()));
        (0..gens.len()).map(|i| (Arc::clone(&gens[i]), first_holder(i))).collect()
    }

    /// Publish the derived per-shard and codec gauges into the registry.
    /// Ratios are exported in milli-units (`×1000`, truncated) — the
    /// registry is integer-valued by design.
    fn refresh_gauges(&self) {
        let reg = self.telemetry.registry();
        for (i, (s, (g, first_holder))) in self.shards.iter().zip(self.generations()).enumerate() {
            let dict_bytes = if first_holder { g.hope().memory_bytes() } else { 0 };
            reg.gauge(&format!("store.shard.{i}.epoch")).set(g.epoch());
            reg.gauge(&format!("store.shard.{i}.keys")).set(g.len() as u64);
            reg.gauge(&format!("store.shard.{i}.dict_bytes")).set(dict_bytes as u64);
            reg.gauge(&format!("store.shard.{i}.index_bytes")).set(g.memory_bytes() as u64);
            let baseline = g.baseline_cpr();
            reg.gauge(&format!("store.shard.{i}.baseline_cpr_milli"))
                .set((baseline * 1000.0) as u64);
            let observed = s.observed_cpr().unwrap_or(0.0);
            reg.gauge(&format!("store.shard.{i}.observed_cpr_milli"))
                .set((observed * 1000.0) as u64);
            // Drift score: observed/baseline. 1000 = holding the baseline;
            // a rebuild triggers when it sinks under degrade_ratio × 1000.
            let drift = if baseline > 0.0 && observed > 0.0 { observed / baseline } else { 0.0 };
            reg.gauge(&format!("store.shard.{i}.drift_milli")).set((drift * 1000.0) as u64);
            g.dictionary().publish_codec_stats();
        }
        let codec = *lock(&self.codec_total);
        reg.gauge("store.codec.encode_keys").set(codec.encode_keys);
        reg.gauge("store.codec.automaton_fallback_takes").set(codec.automaton_fallback_takes);
        reg.gauge("store.codec.decode_keys").set(codec.decode_keys);
    }

    /// [`HopeStore::get`] with per-stage span timing (encode vs probe) —
    /// the serving layer's sampled tracing path. The same code as `get`,
    /// instantiated with a stopwatch where `get` passes the no-op span
    /// recorder; the spans cost three `Instant` reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails validation.
    pub fn get_traced(&self, key: &[u8]) -> Result<(Option<V>, ProbeSpans), StoreError> {
        let (found, watch): (_, Stopwatch) =
            self.shards[self.route(key)].get_with(key, V::clone)?;
        Ok((found, watch.spans))
    }

    /// [`HopeStore::insert`] with per-stage span timing (encode vs the
    /// index/log mutation, reported as the probe span).
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key fails validation; the store is
    /// unchanged in that case.
    pub fn insert_traced(
        &self,
        key: Vec<u8>,
        value: V,
    ) -> Result<(Option<V>, ProbeSpans), StoreError> {
        let (old, watch): (_, Stopwatch) = self.shards[self.route(&key)].insert(&key, value)?;
        Ok((old, watch.spans))
    }

    /// Per-shard health snapshot.
    pub fn stats(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .zip(self.generations())
            .enumerate()
            .map(|(i, (s, (g, first_holder)))| ShardReport {
                shard: i,
                epoch: g.epoch(),
                keys: g.len(),
                observed_cpr: s.observed_cpr(),
                baseline_cpr: g.baseline_cpr(),
                dict_bytes: if first_holder { g.hope().memory_bytes() } else { 0 },
                index_bytes: g.memory_bytes(),
            })
            .collect()
    }
}

/// Handle for a background maintenance thread; stops (and joins) the
/// thread when dropped or on an explicit [`Maintainer::stop`].
#[derive(Debug)]
pub struct Maintainer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    log: Arc<Mutex<MaintenanceLog>>,
}

/// Everything a [`Maintainer`] thread did: successful swaps and rebuild
/// failures (shard id + error). Failed shards keep serving their current
/// generation; the errors are surfaced here so operators can act.
#[derive(Debug, Default, Clone)]
pub struct MaintenanceLog {
    /// Completed hot-swaps, in the order they happened.
    pub swaps: Vec<SwapReport>,
    /// Rebuild failures as `(shard, error)` pairs.
    pub errors: Vec<(usize, StoreError)>,
}

impl Maintainer {
    /// Spawn a thread that calls [`HopeStore::maintain`] every `interval`
    /// until stopped, collecting swap reports and rebuild errors.
    pub fn spawn<V: Value>(store: Arc<HopeStore<V>>, interval: std::time::Duration) -> Maintainer {
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(MaintenanceLog::default()));
        let (stop2, log2) = (Arc::clone(&stop), Arc::clone(&log));
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                let (reports, errors) = store.maintain();
                if !reports.is_empty() || !errors.is_empty() {
                    let mut log = log2.lock().unwrap_or_else(PoisonError::into_inner);
                    log.swaps.extend(reports);
                    log.errors.extend(errors);
                }
                std::thread::sleep(interval);
            }
        });
        Maintainer { stop, handle: Some(handle), log }
    }

    /// Stop the thread, join it, and return everything it did — swaps
    /// *and* rebuild failures.
    pub fn stop(mut self) -> MaintenanceLog {
        self.shutdown();
        std::mem::take(&mut *self.log.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One-stop import for the store's v1 public API.
pub mod prelude {
    pub use crate::serving::{
        AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionReport, FaultAction,
        FaultPlan, FaultTally, Request, Response, Server, ServingConfig, ServingReport, Ticket,
        WorkerStats,
    };
    pub use crate::telemetry::{
        Event, EventKind, EventLog, HistogramSummary, LatencyHistogram, MetricsRegistry,
        ProbeSpans, Telemetry, TelemetrySnapshot, TraceSampler,
    };
    pub use crate::{
        Backend, HopeStore, IndexFactory, Maintainer, MaintenanceLog, RangeCursor, ShardReport,
        SlotId, Snapshot, StoreConfig, StoreError, SwapReport,
    };
    pub use hope::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            shards: 4,
            reservoir_capacity: 256,
            min_observed_bytes: 512,
            ..StoreConfig::default()
        }
    }

    fn load(n: u64) -> Vec<(Vec<u8>, u64)> {
        (0..n).map(|i| (format!("com.gmail@user{i:05}").into_bytes(), i)).collect()
    }

    /// Collect a range through the cursor (the tests' standard scan).
    fn collect(
        store: &HopeStore<u64>,
        low: &[u8],
        high: &[u8],
        limit: usize,
    ) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        let n = store.range_into(low, high, limit, &mut out).unwrap();
        assert_eq!(n, out.len());
        out
    }

    #[test]
    fn build_get_insert_range_across_shards() {
        let store = HopeStore::build(small_cfg(), load(2000)).unwrap();
        assert_eq!(store.len(), 2000);
        assert_eq!(store.epochs(), vec![1, 2, 3, 4]);
        assert_eq!(store.get(b"com.gmail@user00123").unwrap(), Some(123));
        assert_eq!(store.get(b"com.gmail@missing").unwrap(), None);
        assert_eq!(store.get_with(b"com.gmail@user00123", |v| v * 2).unwrap(), Some(246));
        assert_eq!(store.insert(b"com.gmail@user00123".to_vec(), 9).unwrap(), Some(123));
        assert_eq!(store.get(b"com.gmail@user00123").unwrap(), Some(9));
        // A range spanning every shard boundary.
        let all = collect(&store, b"com.gmail@user00000", b"com.gmail@user01999", usize::MAX);
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "range not sorted");
        assert_eq!(collect(&store, b"com.gmail@user00500", b"com.gmail@user00504", 3).len(), 3);
    }

    #[test]
    fn every_backend_serves_identically() {
        let pairs = load(600);
        fn custom_index() -> Box<dyn OrderedIndex<SlotId>> {
            Box::<std::collections::BTreeMap<Vec<u8>, SlotId>>::default()
        }
        for backend in [
            Backend::BTree,
            Backend::PrefixBTree,
            Backend::Art,
            Backend::Hot,
            Backend::BTreeMap,
            Backend::Custom(custom_index),
        ] {
            let cfg = StoreConfig { backend, ..small_cfg() };
            let store = HopeStore::build(cfg, pairs.clone()).unwrap();
            assert_eq!(store.get(b"com.gmail@user00042").unwrap(), Some(42), "{backend:?}");
            let r = collect(&store, b"com.gmail@user00010", b"com.gmail@user00013", 10);
            assert_eq!(r.len(), 4, "{backend:?}");
            assert_eq!(store.len(), 600, "{backend:?}");
        }
    }

    #[test]
    fn cursor_pull_matches_push_across_shards() {
        let store = HopeStore::build(small_cfg(), load(900)).unwrap();
        for (low, high, limit) in [
            (b"com.gmail@user00000".as_slice(), b"com.gmail@user00899".as_slice(), usize::MAX),
            (b"com.gmail@user00100", b"com.gmail@user00500", 7),
            (b"a", b"z", 25),
            (b"x", b"a", 10),
        ] {
            let mut pushed = Vec::new();
            let n =
                store.range_with(low, high, limit, |k, v| pushed.push((k.to_vec(), *v))).unwrap();
            assert_eq!(n, pushed.len());
            let mut pulled = Vec::new();
            let mut cur = store.cursor(low, high, limit).unwrap();
            while let Some((k, v)) = cur.next_hit() {
                pulled.push((k.to_vec(), *v));
            }
            assert!(cur.error().is_none());
            assert_eq!(pulled, pushed, "{low:?}..={high:?}");
        }
    }

    #[test]
    fn cursor_mixes_pull_then_push() {
        let store = HopeStore::build(small_cfg(), load(500)).unwrap();
        let mut cur = store.cursor(b"com.gmail@user00000", b"com.gmail@user00499", 400).unwrap();
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (k, v) = cur.next_hit().expect("hits available");
            seen.push((k.to_vec(), *v));
        }
        let n = cur.for_each(|k, v| seen.push((k.to_vec(), *v))).unwrap();
        assert_eq!(seen.len(), 3 + n);
        assert_eq!(seen.len(), 400);
        assert_eq!(seen, collect(&store, b"com.gmail@user00000", b"com.gmail@user00499", 400));
    }

    #[test]
    fn empty_store_works_and_accepts_inserts() {
        let store = HopeStore::build(small_cfg(), Vec::new()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.get(b"anything").unwrap(), None);
        assert!(collect(&store, b"a", b"z", 10).is_empty());
        store.insert(b"k1".to_vec(), 1).unwrap();
        store.insert(b"zz".to_vec(), 2).unwrap();
        assert_eq!(store.get(b"k1").unwrap(), Some(1));
        assert_eq!(store.len(), 2);
        assert_eq!(collect(&store, b"a", b"zz", 10).len(), 2);
    }

    #[test]
    fn invalid_config_and_keys_error_instead_of_panicking() {
        let cfg = StoreConfig { shards: 0, ..StoreConfig::default() };
        assert!(matches!(
            HopeStore::<u64>::build(cfg, Vec::new()),
            Err(StoreError::InvalidConfig { .. })
        ));
        let cfg = StoreConfig { degrade_ratio: 1.5, ..StoreConfig::default() };
        assert!(matches!(
            HopeStore::<u64>::build(cfg, Vec::new()),
            Err(StoreError::InvalidConfig { .. })
        ));
        let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
        assert!(matches!(
            HopeStore::build(StoreConfig::default(), vec![(giant.clone(), 1u64)]),
            Err(StoreError::Codec(hope::HopeError::KeyTooLong { .. }))
        ));
        let store = HopeStore::build(small_cfg(), load(10)).unwrap();
        assert!(store.insert(giant.clone(), 1).is_err());
        assert!(store.get(&giant).is_err());
        assert!(store.cursor(&giant, b"z", 1).is_err());
        assert!(matches!(store.generation(99), Err(StoreError::NoSuchShard { .. })));
        assert!(matches!(store.force_rebuild(99), Err(StoreError::NoSuchShard { .. })));
    }

    #[test]
    fn forced_swap_preserves_contents_and_bumps_epoch() {
        let store = HopeStore::build(small_cfg(), load(800)).unwrap();
        store.insert(b"org.acm@drift".to_vec(), 7777).unwrap();
        let shard = store.shard_of(b"org.acm@drift");
        let before = store.epochs();
        let report = store.force_rebuild(shard).unwrap();
        assert_eq!(report.old_epoch, before[shard]);
        assert!(report.new_epoch > before[shard]);
        assert_eq!(store.get(b"org.acm@drift").unwrap(), Some(7777));
        assert_eq!(store.len(), 801);
        for i in (0..800).step_by(97) {
            let k = format!("com.gmail@user{i:05}");
            assert_eq!(store.get(k.as_bytes()).unwrap(), Some(i), "{k}");
        }
    }

    #[test]
    fn maintain_triggers_only_after_drift() {
        let cfg = StoreConfig { shards: 1, min_observed_bytes: 2048, ..StoreConfig::default() };
        let store = HopeStore::build(cfg, load(1500)).unwrap();
        // Matching traffic (a continuation of the loaded population): no swap.
        for i in 0..200u64 {
            store.insert(format!("com.gmail@user{:05}", 1500 + i).into_bytes(), 1500 + i).unwrap();
        }
        let (swaps, errors) = store.maintain();
        assert!(errors.is_empty());
        assert!(swaps.is_empty(), "stable traffic must not trigger a swap");
        // Radically different traffic: CPR collapses, swap fires.
        for i in 0..600u64 {
            store.insert(format!("XQ#{i:)>6}!!zw|{i:x}").into_bytes(), i).unwrap();
        }
        let (swaps, errors) = store.maintain();
        assert!(errors.is_empty());
        assert_eq!(swaps.len(), 1, "drifted traffic must trigger the swap");
        let r = &swaps[0];
        assert!(r.new_epoch > r.old_epoch);
        assert!(r.new_baseline_cpr > 0.0, "new dictionary must have a baseline");
        assert_eq!(store.len(), 1500 + 200 + 600);
        assert_eq!(store.get(b"com.gmail@user00003").unwrap(), Some(3));
    }

    #[test]
    fn update_heavy_stable_traffic_compacts_the_log() {
        let cfg = StoreConfig { shards: 1, ..StoreConfig::default() };
        let store = HopeStore::build(cfg, load(100)).unwrap();
        // Stable distribution, pure updates: CPR never degrades, but the
        // append-only log fills with superseded entries.
        for round in 1..=51u64 {
            for i in 0..100u64 {
                store
                    .insert(format!("com.gmail@user{i:05}").into_bytes(), round * 1000 + i)
                    .unwrap();
            }
        }
        let (swaps, errors) = store.maintain();
        assert!(errors.is_empty());
        assert_eq!(swaps.len(), 1, "log garbage should trigger a compacting swap");
        assert_eq!(store.len(), 100);
        assert_eq!(store.get(b"com.gmail@user00007").unwrap(), Some(51_000 + 7));
        // The swap compacted the log back to the live set.
        let generation = store.generation(0).unwrap();
        assert_eq!(generation.len(), 100);
        assert!(generation.memory_bytes() > 0);
    }

    #[test]
    fn snapshots_freeze_a_point_in_time_across_writes_and_swaps() {
        let store = HopeStore::build(small_cfg(), load(1200)).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1200);
        assert!(!snap.is_empty());
        assert_eq!(snap.shards(), 4);
        assert_eq!(snap.epochs(), store.epochs());
        // Mutate the live store and hot-swap every shard under the
        // snapshot's feet.
        store.insert(b"com.gmail@user00042".to_vec(), 999).unwrap();
        store.insert(b"aaa@newcomer".to_vec(), 7).unwrap();
        for s in 0..4 {
            store.force_rebuild(s).unwrap();
        }
        store.insert(b"com.gmail@user00100".to_vec(), 123_456).unwrap();
        assert_eq!(store.get(b"com.gmail@user00042").unwrap(), Some(999));
        assert_eq!(store.len(), 1201);
        // The snapshot still reads the capture instant in every shard.
        assert_eq!(snap.get(b"com.gmail@user00042").unwrap(), Some(42));
        assert_eq!(snap.get(b"com.gmail@user00100").unwrap(), Some(100));
        assert_eq!(snap.get(b"aaa@newcomer").unwrap(), None);
        assert_eq!(snap.len(), 1200);
        // Snapshot ranges span shards in source order and exclude every
        // post-capture write.
        let mut out = Vec::new();
        let n = snap
            .range_into(b"com.gmail@user00000", b"com.gmail@user01199", usize::MAX, &mut out)
            .unwrap();
        assert_eq!(n, 1200);
        for (i, (k, v)) in out.iter().enumerate() {
            assert_eq!(k, format!("com.gmail@user{i:05}").as_bytes());
            assert_eq!(*v, i as u64);
        }
        // Pull cursor agrees with the push path and reports only pinned
        // epochs (all pre-swap).
        let pinned = snap.epochs();
        let mut cur = snap.cursor(b"com.gmail@user00000", b"com.gmail@user01199", 500).unwrap();
        let mut pulled = 0usize;
        while let Some((_, _)) = cur.next_hit() {
            assert!(pinned.contains(&cur.hit_epoch().unwrap()), "cursor escaped its pins");
            pulled += 1;
        }
        assert!(cur.error().is_none());
        assert_eq!(pulled, 500);
        // Lifecycle telemetry: one taken, zero dropped … then the drop.
        let t = store.telemetry();
        assert_eq!(t.counter("store.snapshot.taken"), Some(1));
        assert_eq!(t.gauge("store.snapshot.active"), Some(1));
        assert_eq!(t.events_of(EventKind::SnapshotCreated).count(), 1);
        drop(snap);
        let t = store.telemetry();
        assert_eq!(t.counter("store.snapshot.dropped"), Some(1));
        assert_eq!(t.gauge("store.snapshot.active"), Some(0));
        assert_eq!(t.events_of(EventKind::SnapshotDropped).count(), 1);
    }

    #[test]
    fn snapshot_of_empty_store_is_empty() {
        let store: HopeStore<u64> = HopeStore::build(small_cfg(), Vec::new()).unwrap();
        let snap = store.snapshot();
        store.insert(b"k1".to_vec(), 1).unwrap();
        assert!(snap.is_empty());
        assert_eq!(snap.get(b"k1").unwrap(), None);
        let mut out = Vec::new();
        assert_eq!(snap.range_into(b"a", b"z", 10, &mut out).unwrap(), 0);
    }

    #[test]
    fn rebuilds_report_their_path_and_preserve_contents() {
        /// Σ encoded length of every live key under the shard's current
        /// dictionary — what a rebuild's byte total must equal.
        fn live_encoded_bytes(store: &HopeStore<u64>) -> u64 {
            let gen = store.shards[0].current();
            let (live, _, _) = gen.snapshot_live(false);
            live.keys.iter().map(|k| gen.hope().encode(k).as_bytes().len() as u64).sum()
        }
        let cfg = StoreConfig { shards: 1, ..small_cfg() };

        // Undrifted: the dictionary is kept and every byte reloaded.
        let store = HopeStore::build(cfg, load(800)).unwrap();
        let r = store.force_rebuild(0).unwrap();
        assert!(r.incremental);
        assert_eq!(r.reencoded_bytes, 0, "a kept dictionary re-encodes nothing");
        assert_eq!(r.reused_bytes, live_encoded_bytes(&store));
        assert_eq!(r.new_baseline_cpr, r.old_baseline_cpr);
        for i in (0..800).step_by(41) {
            let k = format!("com.gmail@user{i:05}");
            assert_eq!(store.get(k.as_bytes()).unwrap(), Some(i), "{k}");
        }
        let t = store.telemetry();
        assert_eq!(t.counter("store.rebuild.incremental"), Some(1));
        let ev = t.events_of(EventKind::RebuildIncremental).next().unwrap();
        assert_eq!(ev.replayed, r.reused_bytes);
        assert_eq!(ev.bytes, r.reencoded_bytes);

        // Drifted traffic: the dictionary is replaced and every live key
        // encoded under the replacement.
        let store = HopeStore::build(cfg, load(800)).unwrap();
        for i in 0..600u64 {
            store.insert(format!("XQ#{i:)>6}!!zw|{i:x}").into_bytes(), i).unwrap();
        }
        let r = store.force_rebuild(0).unwrap();
        assert!(!r.incremental);
        assert_eq!(r.reused_bytes, 0, "a replaced dictionary reuses nothing");
        assert_eq!(r.reencoded_bytes, live_encoded_bytes(&store));
        assert_eq!(store.get(b"com.gmail@user00003").unwrap(), Some(3));
        assert_eq!(store.len(), 1400);
        assert_eq!(store.stats()[0].observed_cpr, None, "a new dictionary starts unjudged");
        let t = store.telemetry();
        assert_eq!(t.counter("store.rebuild.full"), Some(1));
        assert_eq!(t.events_of(EventKind::RebuildFull).count(), 1);
    }

    #[test]
    fn maintainer_thread_runs_and_stops() {
        let store = Arc::new(HopeStore::build(small_cfg(), load(400)).unwrap());
        let m = Maintainer::spawn(Arc::clone(&store), std::time::Duration::from_millis(1));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let log = m.stop();
        // Stable traffic: the thread ran but had nothing to do.
        assert!(log.swaps.is_empty());
        assert!(log.errors.is_empty());
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn non_u64_payloads_round_trip() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300u32)
            .map(|i| {
                (format!("com.gmail@user{i:04}").into_bytes(), format!("doc-{i}").into_bytes())
            })
            .collect();
        let store: HopeStore<Vec<u8>> = HopeStore::build(small_cfg(), pairs.clone()).unwrap();
        assert_eq!(store.get(b"com.gmail@user0042").unwrap(), Some(b"doc-42".to_vec()));
        assert_eq!(store.get_with(b"com.gmail@user0007", |v| v.len()).unwrap(), Some(5));
        let old = store.insert(b"com.gmail@user0042".to_vec(), b"doc-42b".to_vec()).unwrap();
        assert_eq!(old, Some(b"doc-42".to_vec()));
        let mut hits = Vec::new();
        store.range_into(b"com.gmail@user0100", b"com.gmail@user0102", 10, &mut hits).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].1, b"doc-100".to_vec());
        // Swaps re-encode keys but carry the payloads through untouched.
        store.force_rebuild(0).unwrap();
        assert_eq!(store.get(b"com.gmail@user0042").unwrap(), Some(b"doc-42b".to_vec()));
        assert_eq!(store.len(), 300);
    }
}

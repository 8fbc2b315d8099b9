//! [`RangeCursor`]: the lazy, zero-alloc range-scan surface of the store.
//!
//! A range query is one lazy cursor, consumed one of two ways:
//!
//! * [`RangeCursor::next_hit`] — **pull**: a lending iterator step. Hits
//!   are fetched from the shards in chunks (under short read-lock holds)
//!   into cursor-owned buffers and served out as borrows, so the caller
//!   can pause, interleave other work, and resume — even across a
//!   concurrent dictionary hot-swap (the cursor pins each shard's
//!   generation with an epoch handle while traversing it). After the
//!   buffers warm up, a scan of N hits performs **zero per-hit heap
//!   allocations** (the payload clone itself is the only copy a
//!   non-`Copy` `V` pays).
//! * [`RangeCursor::for_each`] — **push**: consumes the cursor and
//!   streams the remaining hits straight out of the shard engine with
//!   borrowed keys and values, no chunk copies, using the probe
//!   thread-locals. This is the fastest scan shape, and the one push
//!   loop [`HopeStore::range_with`] and [`Snapshot::range_with`] run
//!   over their borrowed bounds.
//!
//! Every read of a shard is one seek and one open walk
//! (`Generation::range_with_from`): the scan's first shard starts at
//! its low bound, a chunk that resumes inside a shard starts after the
//! last key it emitted, and every later shard starts at its first key —
//! the split points are fixed, so all its keys lie above the low bound,
//! and nothing is encoded to enter it.
//!
//! ## Consistency
//!
//! The cursor pins the generation of the shard it is currently reading
//! the moment it enters that shard, so a hot-swap mid-scan never tears a
//! shard's results: the cursor finishes the shard on the superseded
//! generation (kept alive by its `Arc`) and picks up the *new* generation
//! only when it crosses into the next shard. Writes that land after the
//! cursor entered a shard may or may not be observed — the same
//! read-committed behaviour the push path always had.
//!
//! A cursor opened on a [`Snapshot`] is
//! stronger: every generation was pinned (with its log watermark) at
//! capture time, so the scan observes exactly the capture instant — no
//! swap, insert, or update after it is ever visible, in any shard.

use std::ops::Bound;
use std::sync::Arc;

use hope::Value;

use crate::error::StoreError;
use crate::generation::Generation;
use crate::versioned::Snapshot;
use crate::HopeStore;

/// Hits fetched per pull-mode chunk: large enough to amortize the
/// per-chunk encode of the resume key (as far as the index needs it)
/// and index descent, small enough to keep read-lock holds and resume
/// latency short.
const CHUNK: usize = 256;

/// What a cursor (or push scan) reads from: the live store, pinning each
/// shard's *current* generation the moment the scan enters it, or a
/// [`Snapshot`], whose generations and watermarks were all pinned at
/// capture time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a, V: Value> {
    Live(&'a HopeStore<V>),
    Snap(&'a Snapshot<V>),
}

impl<'a, V: Value> Source<'a, V> {
    /// Shard index responsible for `key` (both variants route on the
    /// same immutable split points).
    fn route(&self, key: &[u8]) -> usize {
        match self {
            Source::Live(store) => store.route(key),
            Source::Snap(snap) => snap.route(key),
        }
    }

    /// Pin `shard` for reading: its generation plus the point-in-time
    /// watermark to read at (`None` = latest, the live store's view).
    fn pin(&self, shard: usize) -> (Arc<Generation<V>>, Option<usize>) {
        match self {
            Source::Live(store) => (store.shard_ref(shard).current(), None),
            Source::Snap(snap) => {
                let (g, w) = snap.pin(shard);
                (g, Some(w))
            }
        }
    }
}

/// A lazy cursor over a bounded range query (see the module docs).
///
/// Created by [`HopeStore::cursor`] (live, read-committed) or
/// [`Snapshot::cursor`] (point-in-time); bounds are inclusive on both
/// ends and hits arrive in global source-key order, spanning shards.
#[derive(Debug)]
pub struct RangeCursor<'a, V: Value = u64> {
    source: Source<'a, V>,
    /// Where the next read of the current shard starts: the low bound
    /// (`Included`) in the first shard, after the last key emitted
    /// (`Excluded`) when a chunk resumes inside a shard, and the shard's
    /// first key (`Unbounded`) in every later one.
    start: Bound<Vec<u8>>,
    high: Vec<u8>,
    /// Hits still allowed by the query's `limit`.
    remaining: usize,
    /// Current shard, advancing `..=shard_end`.
    shard: usize,
    shard_end: usize,
    /// Epoch handle pinning the current shard's generation.
    generation: Option<Arc<Generation<V>>>,
    /// Watermark the current shard is read at (snapshot sources only;
    /// `None` reads latest). Set alongside `generation` on shard entry.
    watermark: Option<usize>,
    /// Pull-mode chunk buffers: keys back-to-back + `(start, end)` spans
    /// into them + values. Spans (not end offsets) so serving hit `i`
    /// needs no branch on `i == 0` and no second offset load.
    keys_flat: Vec<u8>,
    key_spans: Vec<(u32, u32)>,
    vals: Vec<V>,
    /// Epoch of the generation the current chunk was fetched from. Kept
    /// separately from `generation` (which is cleared the moment a shard
    /// is exhausted, possibly with hits still buffered).
    chunk_epoch: Option<u64>,
    /// Next buffered hit to serve.
    pos: usize,
    done: bool,
    error: Option<StoreError>,
}

impl<'a, V: Value> RangeCursor<'a, V> {
    /// A cursor over `source` (see [`HopeStore::cursor`] and
    /// [`Snapshot::cursor`], which validate the bounds first).
    pub(crate) fn new(
        source: Source<'a, V>,
        low: &[u8],
        high: &[u8],
        limit: usize,
    ) -> RangeCursor<'a, V> {
        let empty = low > high || limit == 0;
        let (shard, shard_end) =
            if empty { (1, 0) } else { (source.route(low), source.route(high)) };
        RangeCursor {
            source,
            start: Bound::Included(low.to_vec()),
            high: high.to_vec(),
            remaining: if empty { 0 } else { limit },
            shard,
            shard_end,
            generation: None,
            watermark: None,
            keys_flat: Vec::new(),
            key_spans: Vec::new(),
            vals: Vec::new(),
            chunk_epoch: None,
            pos: 0,
            done: empty,
            error: None,
        }
    }

    /// Upper bound on the hits this cursor can still yield: the limit's
    /// unconsumed budget plus any hits already fetched into the chunk
    /// buffers but not yet served.
    pub fn remaining(&self) -> usize {
        self.remaining + (self.vals.len() - self.pos)
    }

    /// The error that ended the scan early, if any ([`RangeCursor::next_hit`]
    /// returns `None` on error; the push adapters return `Err` directly).
    pub fn error(&self) -> Option<&StoreError> {
        self.error.as_ref()
    }

    /// Pull the next hit: `(source key, value)`, borrowed from the
    /// cursor's buffers until the next call (a lending iterator — this
    /// deliberately does not implement [`Iterator`], which cannot express
    /// that lifetime). Returns `None` when the range, the limit, or an
    /// error ends the scan; check [`RangeCursor::error`] to distinguish.
    pub fn next_hit(&mut self) -> Option<(&[u8], &V)> {
        while self.pos >= self.vals.len() {
            if !self.fetch_chunk() {
                return None;
            }
        }
        let i = self.pos;
        self.pos += 1;
        Some(self.buffered_hit(i))
    }

    /// Epoch of the generation that served the most recent
    /// [`RangeCursor::next_hit`] (`None` before the first hit). Buffered
    /// hits report the epoch pinned when their chunk was fetched, so a
    /// consumer can assert that every shard's hits decode under exactly
    /// one dictionary — the serving harness's torn-swap check.
    pub fn hit_epoch(&self) -> Option<u64> {
        self.chunk_epoch
    }

    /// The `i`-th hit in the chunk buffers — the one slicing rule both
    /// consumption paths share.
    fn buffered_hit(&self, i: usize) -> (&[u8], &V) {
        let (start, end) = self.key_spans[i];
        (&self.keys_flat[start as usize..end as usize], &self.vals[i])
    }

    /// Refill the chunk buffers from the current shard (entering the next
    /// shard as needed). Returns false when the scan is over.
    ///
    /// Runs on the probe thread-locals via
    /// [`Generation::range_with_from`], exactly like the push path — the
    /// cursor owns no encode scratch of its own, so opening a cursor per
    /// query costs no scratch allocations (the whole-store benchmark's
    /// `cursor.open_ns` is what it does cost).
    fn fetch_chunk(&mut self) -> bool {
        self.keys_flat.clear();
        self.key_spans.clear();
        self.vals.clear();
        self.pos = 0;
        if self.key_spans.capacity() == 0 && !self.done {
            // First fetch of this cursor: size the buffers once, instead
            // of letting each grow through its doubling steps (a fresh
            // cursor per query is the common shape — a dozen-plus
            // reallocations per scan showed up directly in the pull-mode
            // ns/hit, the benchmark's `cursor.pull_hit_ns`).
            let cap = CHUNK.min(self.remaining);
            self.key_spans.reserve(cap);
            self.vals.reserve(cap);
            self.keys_flat.reserve(cap * 32);
        }
        loop {
            if self.done || self.remaining == 0 {
                self.done = true;
                return false;
            }
            let generation = match &self.generation {
                Some(g) => Arc::clone(g),
                None => {
                    if self.shard > self.shard_end {
                        self.done = true;
                        return false;
                    }
                    // Entering a shard: pin its generation (the current
                    // one for a live source; the capture-time one, plus
                    // its watermark, for a snapshot).
                    let (g, w) = self.source.pin(self.shard);
                    self.watermark = w;
                    self.generation = Some(Arc::clone(&g));
                    g
                }
            };
            let chunk = CHUNK.min(self.remaining);
            self.chunk_epoch = Some(generation.epoch());
            let visited = {
                let Self { start, high, watermark, keys_flat, key_spans, vals, .. } = self;
                generation.range_with_from(
                    start.as_ref().map(Vec::as_slice),
                    high,
                    chunk,
                    *watermark,
                    |k, v| {
                        let start = keys_flat.len() as u32;
                        keys_flat.extend_from_slice(k);
                        key_spans.push((start, keys_flat.len() as u32));
                        vals.push(v.clone());
                    },
                )
            };
            let emitted = match visited {
                Ok(n) => n,
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    return false;
                }
            };
            self.remaining -= emitted;
            if emitted < chunk {
                // Fewer hits than asked: this shard is exhausted, and the
                // next one is read from its first key.
                self.generation = None;
                self.shard += 1;
                self.start = Bound::Unbounded;
            } else if self.remaining > 0 {
                // Full chunk with budget left: resume after the last
                // emitted key, reusing the bound's buffer across chunks.
                // A full chunk that *spent* the budget skips this — the
                // scan is over and the copy would be dead work.
                let (last_start, _) = self.key_spans[self.key_spans.len() - 1];
                let last = &self.keys_flat[last_start as usize..];
                let mut key = match std::mem::replace(&mut self.start, Bound::Unbounded) {
                    Bound::Included(key) | Bound::Excluded(key) => key,
                    Bound::Unbounded => Vec::new(),
                };
                key.clear();
                key.extend_from_slice(last);
                self.start = Bound::Excluded(key);
            }
            if emitted > 0 {
                return true;
            }
            // Zero hits from an exhausted shard: try the next one.
        }
    }

    /// Push adapter: consume the cursor and call `f(key, value)` for
    /// every remaining hit, returning the total emitted. Already-buffered
    /// hits are served from the buffers; the rest streams zero-copy
    /// through the shard engine, the push loop [`HopeStore::range_with`]
    /// runs too — zero heap allocations per scan once the probe
    /// thread-locals are warm.
    ///
    /// `f` runs under a shard generation's read lock: keep it short and
    /// never call back into the store from inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] if a bound fails validation mid-scan (the
    /// constructor validates bounds, so this is defensive).
    pub fn for_each<F>(mut self, mut f: F) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        let mut emitted = 0usize;
        // Serve what pull mode already fetched.
        while self.pos < self.vals.len() {
            let i = self.pos;
            self.pos += 1;
            let (k, v) = self.buffered_hit(i);
            f(k, v);
            emitted += 1;
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let pinned = self.generation.take().map(|g| (g, self.watermark));
        let start = self.start.as_ref().map(Vec::as_slice);
        let shards = self.shard..=self.shard_end;
        Ok(emitted + push(self.source, start, &self.high, shards, pinned, self.remaining, f)?)
    }
}

/// The one push loop, behind [`RangeCursor::for_each`] and [`scan`]: up
/// to `limit` hits from `start` to `high` over `shards`, in order, handed
/// to `f` straight out of each generation's walk. The first shard is read
/// at `pinned` when the cursor already holds its generation, and from
/// `start`; every later one is pinned on entry and read from its first
/// key.
fn push<V, F>(
    source: Source<'_, V>,
    mut start: Bound<&[u8]>,
    high: &[u8],
    shards: std::ops::RangeInclusive<usize>,
    mut pinned: Option<(Arc<Generation<V>>, Option<usize>)>,
    limit: usize,
    mut f: F,
) -> Result<usize, StoreError>
where
    V: Value,
    F: FnMut(&[u8], &V),
{
    let mut emitted = 0usize;
    for shard in shards {
        if emitted == limit {
            break;
        }
        let (generation, watermark) = pinned.take().unwrap_or_else(|| source.pin(shard));
        emitted += generation.range_with_from(start, high, limit - emitted, watermark, &mut f)?;
        start = Bound::Unbounded;
    }
    Ok(emitted)
}

/// The push scan over **borrowed** bounds: what a fresh cursor's
/// [`RangeCursor::for_each`] does, without the cursor object's
/// owned-bounds copies. [`HopeStore::range_with`] and
/// [`Snapshot::range_with`] (and the `range_into` forms over them) call
/// it directly so the visitor scan stays allocation-free end to end (the
/// probe thread-locals carry all scratch).
pub(crate) fn scan<V, F>(
    source: Source<'_, V>,
    low: &[u8],
    high: &[u8],
    limit: usize,
    f: F,
) -> Result<usize, StoreError>
where
    V: Value,
    F: FnMut(&[u8], &V),
{
    if low > high || limit == 0 {
        return Ok(0);
    }
    let shards = source.route(low)..=source.route(high);
    push(source, Bound::Included(low), high, shards, None, limit, f)
}

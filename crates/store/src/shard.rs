//! One shard: an epoch handle over the current [`Generation`], live drift
//! statistics, and the rebuild/swap machinery.
//!
//! The probe paths (`get` / `range` / `insert`) delegate to the current
//! generation, which encodes probe keys into thread-local scratch buffers
//! (see [`crate::generation`]) — a shard probe performs no per-key
//! allocation on the encode side.
//!
//! ## Concurrency protocol
//!
//! * **Readers** (`get`/range cursors) clone the `Arc<Generation>` out of
//!   the epoch slot (a short `RwLock` read) and run against that
//!   generation — they never block on writers or on a rebuild, and a
//!   reader holding a superseded generation drains gracefully because the
//!   `Arc` keeps it alive.
//! * **Writers** (`insert`) serialize on the shard's writer mutex, then
//!   mutate the current generation through its interior lock.
//! * **Rebuild** does the expensive work — loading the new index and,
//!   when the shard has drifted, the dictionary build and re-encoding the
//!   live keys — with *no* locks held; writers contend only with the
//!   initial snapshot clone (a data read-lock hold) and the final splice
//!   (writer mutex: replay the log tail, flip the epoch slot). Lock order
//!   is always `writer → epoch slot → generation data`, so the protocol
//!   is deadlock-free.
//!
//! ## The dictionary policy
//!
//! A dictionary is trained in one function ([`crate::dictionary::train`])
//! and at two moments: once per store at build, and in
//! `Shard::rebuild_inner` when the shard has **drifted** — the drift arm
//! of [`Shard::needs_rebuild`], read once under the rebuild lock. A
//! drifted rebuild *replaces* the dictionary: trains on the traffic
//! reservoir and encodes every live key. Any other rebuild (log
//! compaction, a forced one) *keeps* it: the next generation shares the
//! same `Arc`, and the encoded bytes walked out of the old index are
//! loaded verbatim — no training, no encode call.
//!
//! Shard locks recover from poisoning like the generation's interior lock
//! does (see [`crate::generation`], "Lock discipline").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use hope::Value;

use crate::dictionary::{train, CodecTotal};
use crate::error::StoreError;
use crate::generation::{encode_run, Generation};
use crate::serving::FaultPlan;
use crate::telemetry::{Counter, Event, EventKind, SpanRecorder, Telemetry};
use crate::{StoreConfig, SwapReport};

pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's slice of the store-wide telemetry hub: the shared hub (for
/// the event ring), the shard id stamped on every event, and the shard's
/// pre-registered rebuild counters (`store.shard.{i}.rebuilds` /
/// `.rebuild_errors`).
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    hub: Arc<Telemetry>,
    shard: u32,
    rebuilds: Counter,
    rebuild_errors: Counter,
}

impl ShardTelemetry {
    pub(crate) fn new(hub: Arc<Telemetry>, shard: u32) -> Self {
        let reg = hub.registry();
        let rebuilds = reg.counter(&format!("store.shard.{shard}.rebuilds"));
        let rebuild_errors = reg.counter(&format!("store.shard.{shard}.rebuild_errors"));
        ShardTelemetry { hub, shard, rebuilds, rebuild_errors }
    }

    /// Event template stamped with this shard's id.
    fn event(&self, kind: EventKind) -> Event {
        Event { kind, shard: self.shard, ..Event::default() }
    }
}

/// The maintenance-path fault hook: an optionally installed [`FaultPlan`]
/// plus the per-shard rebuild-attempt counter its decisions key on. The
/// counter only advances while a plan is installed, so an injection
/// window's attempt numbering is deterministic regardless of what the
/// store did before it.
#[derive(Debug)]
pub(crate) struct ShardFaults {
    plan: Mutex<Option<FaultPlan>>,
    attempts: AtomicU64,
}

impl ShardFaults {
    fn new() -> Self {
        ShardFaults { plan: Mutex::new(None), attempts: AtomicU64::new(0) }
    }

    /// The injection decision for one rebuild attempt (`None` = proceed).
    fn check(&self, shard: usize) -> Option<StoreError> {
        let plan = (*lock(&self.plan))?;
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        plan.rebuild_fails(shard as u32, attempt)
            .then_some(StoreError::FaultInjected { shard, attempt })
    }
}

/// Uniform reservoir sample over the keys inserted since the shard's
/// dictionary was installed; reset whenever the dictionary is replaced so
/// the sample tracks the *current* traffic mix rather than the whole shard
/// lifetime.
///
/// Once full it samples by skips (Li's Algorithm L): it draws the stream
/// position of the next key it takes, so every other insert only bumps a
/// counter, and a taken key overwrites the evicted one's buffer in place
/// (at most a reallocation to its length, never a new buffer).
#[derive(Debug)]
pub(crate) struct Reservoir {
    keys: Vec<Vec<u8>>,
    cap: usize,
    seen: u64,
    /// The stream position (1-based, as `seen`) of the next key taken once
    /// the sample is full.
    next: u64,
    /// Algorithm L's `W`: the largest of the `cap` uniform tags the sample
    /// would hold, which the gap to `next` is drawn from.
    w: f64,
    state: u64,
}

impl Reservoir {
    pub(crate) fn new(cap: usize, seed: u64) -> Self {
        Reservoir { keys: Vec::new(), cap: cap.max(1), seen: 0, next: 0, w: 1.0, state: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64; good enough for sampling decisions.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from the open interval (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next_rand() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Shrink `W` by one more sampled tag and draw the gap to the next key
    /// taken: geometric, with success chance `W` per key.
    fn skip_ahead(&mut self) {
        self.w *= (self.unit().ln() / self.cap as f64).exp();
        let gap = (self.unit().ln() / (-self.w).ln_1p()).floor();
        // A float past `u64::MAX` (W underflowed) saturates the cast.
        self.next = self.seen.saturating_add(gap as u64).saturating_add(1);
    }

    fn offer(&mut self, key: &[u8]) {
        self.seen += 1;
        if self.keys.len() < self.cap {
            self.keys.push(key.to_vec());
            if self.keys.len() == self.cap {
                self.skip_ahead();
            }
        } else if self.seen == self.next {
            let slot = (self.next_rand() % self.cap as u64) as usize;
            // The evicted key's buffer, resized in place to exactly the
            // new key's length: a sampled key holds what `to_vec` gave it.
            let evicted = &mut self.keys[slot];
            evicted.clear();
            evicted.shrink_to(key.len());
            evicted.reserve_exact(key.len());
            evicted.extend_from_slice(key);
            self.skip_ahead();
        }
    }

    fn reset(&mut self) {
        self.keys.clear();
        self.seen = 0;
        self.w = 1.0;
    }
}

/// One partition of the store's key space.
#[derive(Debug)]
pub(crate) struct Shard<V: Value = u64> {
    /// The epoch slot: the current generation, swapped atomically.
    gen: RwLock<Arc<Generation<V>>>,
    /// Serializes writers against each other and against the swap splice.
    writer: Mutex<()>,
    /// Serializes whole rebuilds: two overlapping rebuilds could otherwise
    /// both snapshot the same generation and the later flip would drop the
    /// earlier one's replayed writes.
    rebuilding: Mutex<()>,
    /// Source bytes encoded by inserts since the current dictionary was
    /// installed (a rebuild that keeps the dictionary keeps the count).
    obs_src: AtomicU64,
    /// Padded encoded bytes produced by those inserts.
    obs_enc: AtomicU64,
    /// Traffic sample a replacement dictionary is trained on.
    reservoir: Mutex<Reservoir>,
    /// Telemetry slice: rebuild counters and the shared event ring.
    tel: ShardTelemetry,
    /// Fault-injection hook on the rebuild path (testing/acceptance).
    faults: ShardFaults,
    /// The store-wide codec total a replacement dictionary reports into.
    codec_total: CodecTotal,
}

impl<V: Value> Shard<V> {
    pub(crate) fn new(
        generation: Generation<V>,
        reservoir_capacity: usize,
        seed: u64,
        tel: ShardTelemetry,
        codec_total: CodecTotal,
    ) -> Self {
        Shard {
            gen: RwLock::new(Arc::new(generation)),
            writer: Mutex::new(()),
            rebuilding: Mutex::new(()),
            obs_src: AtomicU64::new(0),
            obs_enc: AtomicU64::new(0),
            reservoir: Mutex::new(Reservoir::new(reservoir_capacity, seed)),
            tel,
            faults: ShardFaults::new(),
            codec_total,
        }
    }

    /// Install (or clear) the rebuild fault-injection plan. Installing
    /// resets the attempt counter so injection cadences start from
    /// attempt 0.
    pub(crate) fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *lock(&self.faults.plan) = plan;
        self.faults.attempts.store(0, Ordering::Relaxed);
    }

    /// Clone the current generation out of the epoch slot.
    pub(crate) fn current(&self) -> Arc<Generation<V>> {
        Arc::clone(&self.gen.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Hold this shard's writer mutex. The store-wide snapshot capture
    /// takes every shard's writer lock (ascending shard order) so no
    /// insert or swap splice can interleave between its per-shard
    /// `(generation, watermark)` reads — the only code path that ever
    /// holds more than one writer lock, which keeps it deadlock-free.
    pub(crate) fn writer_lock(&self) -> MutexGuard<'_, ()> {
        lock(&self.writer)
    }

    /// Point read through the current generation (`S`: see
    /// [`Shard::insert`]).
    pub(crate) fn get_with<S: SpanRecorder, R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&V) -> R,
    ) -> Result<(Option<R>, S), StoreError> {
        self.current().lookup(key, None, f)
    }

    /// Insert or update through the current generation, feeding the drift
    /// statistics and the reservoir. `S` is the span recorder: `()` for
    /// the plain path, a stopwatch for the sampled tracing path.
    pub(crate) fn insert<S: SpanRecorder>(
        &self,
        key: &[u8],
        value: V,
    ) -> Result<(Option<V>, S), StoreError> {
        let _w = lock(&self.writer);
        let (old, footprint, spans) = self.current().insert(key, value)?;
        self.obs_src.fetch_add(footprint.src_bytes, Ordering::Relaxed);
        self.obs_enc.fetch_add(footprint.enc_bytes, Ordering::Relaxed);
        lock(&self.reservoir).offer(key);
        Ok((old, spans))
    }

    /// CPR observed on the insert traffic since the current dictionary was
    /// installed, or `None` until any insert has been encoded.
    pub(crate) fn observed_cpr(&self) -> Option<f64> {
        let enc = self.obs_enc.load(Ordering::Relaxed);
        let src = self.obs_src.load(Ordering::Relaxed);
        (enc > 0).then(|| src as f64 / enc as f64)
    }

    /// True when the shard should be rebuilt: either it has drifted
    /// ([`Shard::drifted`]), or the append-only write log has accumulated
    /// enough dead entries that a compacting rebuild pays for itself even
    /// with a stable distribution.
    pub(crate) fn needs_rebuild(&self, cfg: &StoreConfig) -> bool {
        let generation = self.current();
        let (live, log) = generation.occupancy();
        // Update-heavy stable traffic: compact the log.
        log > live.saturating_mul(4) + 4096 || self.drifted(cfg, &generation)
    }

    /// The drift arm, and the one statistic the keep-or-replace decision
    /// reads: after enough traffic to judge, the observed CPR has
    /// degraded past the configured fraction of the dictionary's
    /// baseline.
    fn drifted(&self, cfg: &StoreConfig, generation: &Generation<V>) -> bool {
        self.obs_src.load(Ordering::Relaxed) >= cfg.min_observed_bytes
            && self
                .observed_cpr()
                .is_some_and(|cpr| cpr < cfg.degrade_ratio * generation.baseline_cpr())
    }

    /// Maintenance rebuild: re-checks the trigger under the rebuild lock
    /// (a concurrent maintenance pass may have just swapped this shard,
    /// compacting its log or resetting its statistics and reservoir, in
    /// which case a second back-to-back rebuild would only churn the
    /// epoch) and returns `Ok(None)` when the rebuild was skipped for
    /// that reason.
    pub(crate) fn maybe_rebuild(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
    ) -> Result<Option<SwapReport>, StoreError> {
        let guard = lock(&self.rebuilding);
        if !self.needs_rebuild(cfg) {
            return Ok(None);
        }
        self.rebuild_locked(shard_id, cfg, epoch_counter, guard).map(Some)
    }

    /// Unconditional rebuild (testing/operations): always swaps.
    pub(crate) fn rebuild_forced(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
    ) -> Result<SwapReport, StoreError> {
        let guard = lock(&self.rebuilding);
        self.rebuild_locked(shard_id, cfg, epoch_counter, guard)
    }

    /// Build a new generation and hot-swap it into the epoch slot.
    /// Readers keep serving the old generation until the flip and never
    /// block. Writers are paused twice: during the snapshot clone (it
    /// holds the generation's data read lock) and during the replay+flip
    /// splice; the index load — and, for a drifted shard, the dictionary
    /// build and re-encode — in between run with no locks held.
    fn rebuild_locked(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
        _rebuild_guard: MutexGuard<'_, ()>,
    ) -> Result<SwapReport, StoreError> {
        let started = Instant::now();
        let prev_epoch = self.current().epoch();
        // epoch == prev_epoch by contract: nothing installed yet.
        self.tel.hub.events().record(Event {
            prev_epoch,
            epoch: prev_epoch,
            ..self.tel.event(EventKind::SwapBegin)
        });
        match self.rebuild_inner(shard_id, cfg, epoch_counter) {
            Ok((report, dict_bytes)) => {
                self.tel.rebuilds.inc();
                self.tel.hub.events().record(Event {
                    prev_epoch: report.old_epoch,
                    epoch: report.new_epoch,
                    keys: report.live_keys as u64,
                    replayed: report.replayed as u64,
                    bytes: dict_bytes as u64,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(EventKind::SwapEnd)
                });
                // Path attribution: dictionary kept or replaced, and the
                // encoded bytes it reloaded or re-encoded (repurposed
                // fields documented on the event kinds).
                let kind = if report.incremental {
                    EventKind::RebuildIncremental
                } else {
                    EventKind::RebuildFull
                };
                self.tel.hub.events().record(Event {
                    prev_epoch: report.old_epoch,
                    epoch: report.new_epoch,
                    keys: report.live_keys as u64,
                    replayed: report.reused_bytes,
                    bytes: report.reencoded_bytes,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(kind)
                });
                let reg = self.tel.hub.registry();
                reg.counter("store.rebuild.reused_bytes").add(report.reused_bytes);
                reg.counter("store.rebuild.reencoded_bytes").add(report.reencoded_bytes);
                reg.counter(if report.incremental {
                    "store.rebuild.incremental"
                } else {
                    "store.rebuild.full"
                })
                .inc();
                Ok(report)
            }
            Err(e) => {
                self.tel.rebuild_errors.inc();
                // epoch == prev_epoch by contract: nothing new installed.
                self.tel.hub.events().record(Event {
                    prev_epoch,
                    epoch: prev_epoch,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(EventKind::RebuildFailed)
                });
                Err(e)
            }
        }
    }

    /// The rebuild itself (runs under the caller-held rebuild guard);
    /// returns the report plus the memory footprint of the dictionary the
    /// new generation serves with, for the swap-end event.
    fn rebuild_inner(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
    ) -> Result<(SwapReport, usize), StoreError> {
        // The fault hook fires before any build work: an injected failure
        // costs nothing, mutates nothing, and flows through the same
        // error path (rebuild_errors counter + RebuildFailed event) a
        // real dictionary-build failure would.
        if let Some(e) = self.faults.check(shard_id) {
            self.tel.hub.registry().counter("store.faults.injected_rebuild_failures").inc();
            return Err(e);
        }
        let old = self.current();
        // Keep or replace: decided here, once, for the whole rebuild.
        let drifted = self.drifted(cfg, &old);
        let (live, kept, watermark) = old.snapshot_live(!drifted);
        let (dict, encoded) = if drifted {
            // Sample = reservoir (recent traffic), topped up with resident
            // keys when traffic alone is too thin to train a dictionary.
            let mut sample: Vec<Vec<u8>> = lock(&self.reservoir).keys.clone();
            if sample.len() < cfg.reservoir_capacity {
                let need = cfg.reservoir_capacity - sample.len();
                let step = (live.len() / need.max(1)).max(1);
                sample.extend(live.keys.iter().step_by(step).map(<[u8]>::to_vec));
            }
            let dict = train(cfg, &sample, &self.codec_total)?;
            let encoded = encode_run(&dict.hope, &live.keys)?;
            (dict, encoded)
        } else {
            (Arc::clone(old.dictionary()), kept)
        };
        let epoch = epoch_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let live_keys = live.len();
        let encoded_bytes = encoded.byte_len() as u64;
        let next = Generation::load(epoch, dict, cfg.backend.new_index(), live, encoded)
            .with_context(shard_id, cfg.write_log_capacity);

        // Splice: block writers, replay their log tail, flip the epoch.
        // Replay inserts re-encode keys that already passed validation at
        // their original insert, so a failure here (which would abort the
        // swap and keep the old generation serving) cannot happen in
        // practice; `?` still propagates it honestly if it ever does.
        let _w = lock(&self.writer);
        let delta = old.entries_since(watermark);
        let replayed = delta.len();
        for (key, value) in delta.keys.iter().zip(delta.values) {
            next.insert::<()>(key, value)?;
        }
        let report = SwapReport {
            shard: shard_id,
            old_epoch: old.epoch(),
            new_epoch: epoch,
            observed_cpr: self.observed_cpr(),
            old_baseline_cpr: old.baseline_cpr(),
            new_baseline_cpr: next.baseline_cpr(),
            live_keys,
            replayed,
            incremental: !drifted,
            reused_bytes: if drifted { 0 } else { encoded_bytes },
            reencoded_bytes: if drifted { encoded_bytes } else { 0 },
        };
        let dict_bytes = next.hope().memory_bytes();
        *self.gen.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        // The drift statistics and the reservoir judge the dictionary, so
        // they start over with a new one and carry on under a kept one.
        if drifted {
            self.obs_src.store(0, Ordering::Relaxed);
            self.obs_enc.store(0, Ordering::Relaxed);
            lock(&self.reservoir).reset();
        }
        Ok((report, dict_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_bounded_and_uniformish() {
        let mut r = Reservoir::new(64, 1);
        for i in 0..10_000u32 {
            r.offer(format!("key{i:05}").as_bytes());
        }
        assert_eq!(r.keys.len(), 64);
        assert_eq!(r.seen, 10_000);
        // Late keys must be able to displace early ones.
        let late = r.keys.iter().filter(|k| k.as_slice() >= b"key05000".as_slice()).count();
        assert!(late > 10, "late keys under-represented: {late}/64");
        r.reset();
        assert!(r.keys.is_empty());
    }

    /// Every stream position ends up in the sample with chance
    /// `cap / seen`: over 10 000 seeds, each of 200 positions' inclusion
    /// count stays within 15 % of `10 000 × 16 / 200` = 800 (±4.4 standard
    /// deviations), and the first `cap` positions — taken while the sample
    /// fills — are no exception. Each kept key's buffer is exactly its
    /// length, as a fresh `to_vec` would be.
    #[test]
    fn reservoir_includes_every_position_with_chance_cap_over_seen() {
        let (cap, seen, seeds) = (16, 200usize, 10_000u64);
        let mut count = vec![0u32; seen];
        for seed in 0..seeds {
            let mut r = Reservoir::new(cap, 2 * seed + 1);
            for i in 0..seen as u32 {
                // 4, 8 or 12 bytes: a taken key's buffer is resized to it.
                r.offer(&i.to_le_bytes().repeat(i as usize % 3 + 1));
            }
            assert_eq!(r.keys.len(), cap);
            for k in &r.keys {
                assert_eq!(k.capacity(), k.len());
                count[u32::from_le_bytes(k[..4].try_into().unwrap()) as usize] += 1;
            }
        }
        let want = seeds as f64 * cap as f64 / seen as f64;
        for (at, &got) in count.iter().enumerate() {
            let off = (f64::from(got) - want).abs() / want;
            assert!(off <= 0.15, "position {at}: in {got} samples of {seeds}, want {want:.0}");
        }
    }
}

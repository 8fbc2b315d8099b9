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
//! drifted rebuild *replaces* the dictionary: trains on keys evenly
//! spaced over the old generation's write tail — the writes since the
//! shard's last rebuild, in arrival order, topped up with live keys when
//! they are too few ([`crate::dictionary::replace_sample`]) — and encodes
//! every live key. Any other rebuild (log compaction, a forced one)
//! *keeps* it: the next generation shares the same `Arc`, and the encoded
//! bytes walked out of the old index are loaded verbatim — no training,
//! no encode call. Either way the next generation's tail starts empty, so
//! "recent traffic" means the writes since the last compaction. Inserts
//! sample nothing.
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
        tel: ShardTelemetry,
        codec_total: CodecTotal,
    ) -> Self {
        Shard {
            gen: RwLock::new(Arc::new(generation)),
            writer: Mutex::new(()),
            rebuilding: Mutex::new(()),
            obs_src: AtomicU64::new(0),
            obs_enc: AtomicU64::new(0),
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
    /// statistics: the writer lock, the generation insert and two adds,
    /// and nothing else. The write lands in the generation's tail, where
    /// a replacement dictionary's sample reads it back. `S` is the span
    /// recorder: `()` for the plain path, a stopwatch for the sampled
    /// tracing path.
    pub(crate) fn insert<S: SpanRecorder>(
        &self,
        key: &[u8],
        value: V,
    ) -> Result<(Option<V>, S), StoreError> {
        let _w = lock(&self.writer);
        let (old, footprint, spans) = self.current().insert(key, value)?;
        self.obs_src.fetch_add(footprint.src_bytes, Ordering::Relaxed);
        self.obs_enc.fetch_add(footprint.enc_bytes, Ordering::Relaxed);
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
    /// compacting its log or resetting its statistics, in
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
        let (live, kept, sample, watermark) =
            old.snapshot_live(drifted.then_some(cfg.reservoir_capacity));
        let (dict, encoded) = if drifted {
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
        // The drift statistics judge the dictionary, so they start over
        // with a new one and carry on under a kept one.
        if drifted {
            self.obs_src.store(0, Ordering::Relaxed);
            self.obs_enc.store(0, Ordering::Relaxed);
        }
        Ok((report, dict_bytes))
    }
}

#[cfg(test)]
mod tests {
    use crate::HopeStore;

    use super::*;

    /// A keep-rebuild starts the next generation's write tail empty: of
    /// the writes before it, none reaches the sample a replace would
    /// train on next; the 16 after it give every second one (cap 8).
    #[test]
    fn writes_before_a_keep_rebuild_never_reach_the_next_replace_sample() {
        let cfg = StoreConfig { shards: 1, reservoir_capacity: 8, ..StoreConfig::default() };
        let load = (0..64u64).map(|i| (format!("com.gmail@user{i:03}").into_bytes(), i));
        let store = HopeStore::build(cfg, load).unwrap();
        let write = |tag: &str, i: u64| store.insert(format!("{tag}@{i:02}").into_bytes(), i);
        for i in 0..20 {
            write("old", i).unwrap();
        }
        assert!(store.force_rebuild(0).unwrap().incremental, "undrifted: the dictionary is kept");
        for i in 0..16 {
            write("new", i).unwrap();
        }
        let (.., sample, _) = store.shards[0].current().snapshot_live(Some(cfg.reservoir_capacity));
        let want: Vec<Vec<u8>> = (0..16).step_by(2).map(|i| format!("new@{i:02}").into()).collect();
        assert_eq!(sample, want);
    }
}

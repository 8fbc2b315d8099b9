//! The swap/rebuild event ring: a fixed-capacity, lock-free log of
//! lifecycle [`Event`]s that any number of writers record into and any
//! number of readers snapshot — without ever tearing an event.
//!
//! ## Protocol (safe code only — no `unsafe`)
//!
//! Each event packs into [`EVENT_WORDS`] `u64` words stored in a slot of
//! per-word atomics guarded by a per-slot **sequence** atomic (a seqlock):
//!
//! * A writer takes a global ticket `t` (`head.fetch_add`), claims slot
//!   `t % capacity` by CAS-ing its sequence from the previous occupant's
//!   *published* value to the *writing* value `2t + 1` (this serializes
//!   lapped writers on the same slot), stores the payload words, then
//!   publishes with `2t + 2`.
//! * A reader loads the sequence, the words, and the sequence again; the
//!   event is accepted only when both loads saw the same *published*
//!   value — a concurrent rewrite flips the sequence and the reader skips
//!   that slot instead of returning a torn event.
//!
//! All slot accesses use `SeqCst`: events are recorded at swap/rebuild
//! frequency (not per request), so the protocol is tuned for
//! obviousness, not nanoseconds.
//!
//! Capacity overflow drops the **oldest** events first — slot `t % cap`
//! is, by construction, always overwritten by the lap-`t` writer — and
//! the count of dropped events is exact: `head - capacity`, clamped at 0
//! ([`EventLog::dropped`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// `u64` payload words one packed event occupies in a ring slot.
const EVENT_WORDS: usize = 7;

/// What kind of lifecycle moment an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A generation was built and installed at store construction.
    GenerationBuilt,
    /// A dictionary rebuild started (snapshot taken, build beginning).
    SwapBegin,
    /// A rebuilt generation was spliced in; `epoch` is now serving.
    SwapEnd,
    /// A rebuild failed; the shard keeps serving `prev_epoch`.
    RebuildFailed,
    /// The admission controller raised a worker's shed level. The packed
    /// fields are repurposed: `shard` = worker, `prev_epoch`/`epoch` =
    /// from/to shed percent, `keys` = the sealed window, `bytes` = the
    /// window's p99 ratio ×1000.
    AdmissionEngage,
    /// The admission controller lowered a worker's shed level (same
    /// field repurposing as [`EventKind::AdmissionEngage`]).
    AdmissionRelease,
    /// A rebuild **kept** the shard's dictionary (the shard had not
    /// drifted): the live keys' encoded bytes were read back from the old
    /// index and loaded verbatim, nothing was trained or encoded. Emitted
    /// alongside the shard's [`EventKind::SwapEnd`] with fields
    /// repurposed: `replayed` = encoded bytes reloaded, `bytes` = 0.
    RebuildIncremental,
    /// A rebuild **replaced** the shard's dictionary (the shard had
    /// drifted): a new one was trained on a sample of its write tail
    /// and every live key encoded under it. Same field repurposing as
    /// [`EventKind::RebuildIncremental`]: `replayed` = 0, `bytes` =
    /// encoded bytes produced.
    RebuildFull,
    /// A store-wide snapshot was taken. Fields repurposed: `keys` = the
    /// shard count pinned, `prev_epoch`/`epoch` = the minimum/maximum
    /// pinned generation epoch.
    SnapshotCreated,
    /// A [`Snapshot`](crate::versioned::Snapshot) handle was dropped,
    /// releasing its generation pins (same field repurposing as
    /// [`EventKind::SnapshotCreated`]).
    SnapshotDropped,
}

impl EventKind {
    fn to_code(self) -> u64 {
        match self {
            EventKind::GenerationBuilt => 0,
            EventKind::SwapBegin => 1,
            EventKind::SwapEnd => 2,
            EventKind::RebuildFailed => 3,
            EventKind::AdmissionEngage => 4,
            EventKind::AdmissionRelease => 5,
            EventKind::RebuildIncremental => 6,
            EventKind::RebuildFull => 7,
            EventKind::SnapshotCreated => 8,
            EventKind::SnapshotDropped => 9,
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::GenerationBuilt),
            1 => Some(EventKind::SwapBegin),
            2 => Some(EventKind::SwapEnd),
            3 => Some(EventKind::RebuildFailed),
            4 => Some(EventKind::AdmissionEngage),
            5 => Some(EventKind::AdmissionRelease),
            6 => Some(EventKind::RebuildIncremental),
            7 => Some(EventKind::RebuildFull),
            8 => Some(EventKind::SnapshotCreated),
            9 => Some(EventKind::SnapshotDropped),
            _ => None,
        }
    }

    /// Stable lowercase name (JSON/Prometheus exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GenerationBuilt => "generation_built",
            EventKind::SwapBegin => "swap_begin",
            EventKind::SwapEnd => "swap_end",
            EventKind::RebuildFailed => "rebuild_failed",
            EventKind::AdmissionEngage => "admission_engage",
            EventKind::AdmissionRelease => "admission_release",
            EventKind::RebuildIncremental => "rebuild_incremental",
            EventKind::RebuildFull => "rebuild_full",
            EventKind::SnapshotCreated => "snapshot_created",
            EventKind::SnapshotDropped => "snapshot_dropped",
        }
    }
}

/// One lifecycle event of a shard's dictionary (see [`EventKind`]).
///
/// `seq` is assigned by [`EventLog::record`] (the global ticket) and is
/// strictly increasing across the whole store — snapshot order is the
/// order things happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global record order (assigned by the log; input value is ignored).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Shard the event belongs to.
    pub shard: u32,
    /// Epoch serving *before* the event (for `SwapEnd`: the superseded
    /// generation).
    pub prev_epoch: u64,
    /// Epoch the event installed or refers to (for `SwapBegin` /
    /// `RebuildFailed` this equals `prev_epoch`: nothing new installed).
    pub epoch: u64,
    /// Live keys involved (built or re-encoded).
    pub keys: u64,
    /// Write-log entries replayed during the splice (`SwapEnd` only).
    pub replayed: u64,
    /// Dictionary memory of the (new) generation in bytes.
    pub bytes: u64,
    /// Wall-clock duration of the whole rebuild (`SwapEnd` only), ns.
    pub duration_ns: u64,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            seq: 0,
            kind: EventKind::GenerationBuilt,
            shard: 0,
            prev_epoch: 0,
            epoch: 0,
            keys: 0,
            replayed: 0,
            bytes: 0,
            duration_ns: 0,
        }
    }
}

impl Event {
    fn pack(&self) -> [u64; EVENT_WORDS] {
        [
            self.kind.to_code() | (u64::from(self.shard) << 32),
            self.prev_epoch,
            self.epoch,
            self.keys,
            self.replayed,
            self.bytes,
            self.duration_ns,
        ]
    }

    fn unpack(seq: u64, w: [u64; EVENT_WORDS]) -> Option<Event> {
        Some(Event {
            seq,
            kind: EventKind::from_code(w[0] & 0xFFFF_FFFF)?,
            shard: (w[0] >> 32) as u32,
            prev_epoch: w[1],
            epoch: w[2],
            keys: w[3],
            replayed: w[4],
            bytes: w[5],
            duration_ns: w[6],
        })
    }
}

#[derive(Debug)]
struct Slot {
    /// `0` = never written; `2t + 1` = ticket `t` writing; `2t + 2` =
    /// ticket `t` published.
    seq: AtomicU64,
    words: [AtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// A fixed-capacity, lock-free ring of lifecycle [`Event`]s (module docs
/// describe the seqlock protocol).
///
/// ```
/// use hope_store::telemetry::{Event, EventKind, EventLog};
///
/// let log = EventLog::new(2);
/// for epoch in 1..=3u64 {
///     log.record(Event { kind: EventKind::SwapEnd, epoch, ..Event::default() });
/// }
/// let events = log.snapshot();
/// assert_eq!(events.len(), 2); // capacity 2: the oldest was dropped
/// assert_eq!(log.dropped(), 1);
/// assert_eq!((events[0].epoch, events[1].epoch), (2, 3));
/// assert!(events[0].seq < events[1].seq);
/// ```
#[derive(Debug)]
pub struct EventLog {
    /// Tickets issued == events ever recorded.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl EventLog {
    /// New ring holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog { head: AtomicU64::new(0), slots: (0..capacity).map(|_| Slot::new()).collect() }
    }

    /// Events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Events lost to capacity overflow, oldest-first — exact by
    /// construction: `recorded() - capacity()`, clamped at zero.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Record one event; returns the global sequence number it got.
    /// Lock-free: writers serialize per slot only when the ring has
    /// lapped, and never against readers.
    pub fn record(&self, ev: Event) -> u64 {
        let cap = self.slots.len() as u64;
        let t = self.head.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(t % cap) as usize];
        // Claim the slot from its previous occupant (ticket `t - cap`,
        // or the pristine 0 on the first lap). Lapped writers on the
        // same slot publish in ticket order because each waits for its
        // predecessor's published value.
        let prev = if t >= cap { 2 * (t - cap) + 2 } else { 0 };
        while slot
            .seq
            .compare_exchange(prev, 2 * t + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            std::hint::spin_loop();
        }
        for (w, v) in slot.words.iter().zip(ev.pack()) {
            w.store(v, Ordering::SeqCst);
        }
        slot.seq.store(2 * t + 2, Ordering::SeqCst);
        t
    }

    /// Copy out the resident events, oldest first (ascending `seq`).
    ///
    /// Wait-free for the caller: slots mid-rewrite by a concurrent
    /// writer are skipped (their *previous* occupant is gone, their next
    /// value not yet published), never returned torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`EventLog::snapshot`] into a caller-owned buffer (cleared first).
    pub fn snapshot_into(&self, out: &mut Vec<Event>) {
        out.clear();
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::SeqCst);
        for t in head.saturating_sub(cap)..head {
            let slot = &self.slots[(t % cap) as usize];
            let published = 2 * t + 2;
            if slot.seq.load(Ordering::SeqCst) != published {
                continue; // not yet published, or already lapped
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::SeqCst));
            if slot.seq.load(Ordering::SeqCst) != published {
                continue; // rewritten while we read: skip, don't tear
            }
            if let Some(ev) = Event::unpack(t, words) {
                out.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swap_end(shard: u32, epoch: u64) -> Event {
        Event {
            kind: EventKind::SwapEnd,
            shard,
            prev_epoch: epoch - 1,
            epoch,
            keys: 10 * epoch,
            replayed: epoch,
            bytes: 100 * epoch,
            duration_ns: 7,
            ..Event::default()
        }
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let log = EventLog::new(8);
        assert_eq!(log.record(swap_end(3, 5)), 0);
        assert_eq!(log.record(swap_end(1, 6)), 1);
        let evs = log.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].shard, 3);
        assert_eq!(evs[0].kind, EventKind::SwapEnd);
        assert_eq!(evs[0].keys, 50);
        assert_eq!(evs[1], Event { seq: 1, ..swap_end(1, 6) });
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.recorded(), 2);
    }

    #[test]
    fn overflow_drops_oldest_first_and_counts() {
        let log = EventLog::new(4);
        for e in 1..=11u64 {
            log.record(swap_end(0, e));
        }
        assert_eq!(log.dropped(), 7);
        let evs = log.snapshot();
        assert_eq!(evs.len(), 4);
        let epochs: Vec<u64> = evs.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![8, 9, 10, 11], "the resident tail is the newest events");
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn every_kind_survives_the_pack_unpack_trip() {
        let log = EventLog::new(16);
        let kinds = [
            EventKind::GenerationBuilt,
            EventKind::SwapBegin,
            EventKind::SwapEnd,
            EventKind::RebuildFailed,
            EventKind::AdmissionEngage,
            EventKind::AdmissionRelease,
            EventKind::RebuildIncremental,
            EventKind::RebuildFull,
            EventKind::SnapshotCreated,
            EventKind::SnapshotDropped,
        ];
        for kind in kinds {
            log.record(Event { kind, shard: u32::MAX, epoch: u64::MAX, ..Event::default() });
        }
        let evs = log.snapshot();
        assert_eq!(evs.len(), kinds.len());
        for (ev, kind) in evs.iter().zip(kinds) {
            assert_eq!(ev.kind, kind);
            assert_eq!(ev.shard, u32::MAX);
            assert_eq!(ev.epoch, u64::MAX);
        }
        assert_eq!(evs[0].kind.name(), "generation_built");
        assert_eq!(evs[6].kind.name(), "rebuild_incremental");
        assert_eq!(evs[9].kind.name(), "snapshot_dropped");
    }
}

//! Bounded MPSC request queues with admission control.
//!
//! Each serving worker owns exactly one [`BoundedQueue`]; any number of
//! producer threads push into it. The queue is the harness's **admission
//! controller**: [`BoundedQueue::try_push`] never blocks and never grows
//! the queue past its budget — when the worker has fallen behind, the
//! push is refused and the request handed back to the caller, who decides
//! whether to shed the load or to apply backpressure by waiting
//! ([`BoundedQueue::push_blocking`]).
//!
//! The implementation is a `Mutex<VecDeque>` with two condvars (space /
//! items) rather than a lock-free ring: the consumer drains in batches,
//! so producers and the worker exchange one lock round per *batch*, not
//! per request, and the mutex keeps the admitted/completed accounting
//! exact — which the overload tests assert op-for-op.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::telemetry::{Counter, Gauge, MetricsRegistry};

/// The telemetry handles one queue's admission accounting lands on.
///
/// [`QueueCounters::detached`] (the [`BoundedQueue::new`] default) counts
/// without exporting anywhere — unit tests and standalone queues pay one
/// relaxed atomic per op either way. [`QueueCounters::register`] puts the
/// same handles under `serving.worker.{i}.*` in a registry, which is how
/// the server wires every worker queue into the store's telemetry hub.
#[derive(Debug, Clone, Default)]
pub struct QueueCounters {
    /// Total requests ever admitted.
    pub enqueued: Counter,
    /// Requests refused by `try_push` because the queue was at budget.
    pub rejected: Counter,
    /// Consumer-side batch drains (one lock round each).
    pub batches: Counter,
    /// Deepest backlog ever observed at admission time.
    pub peak_depth: Gauge,
    /// Requests homed on this queue's worker that the adaptive admission
    /// controller sent to a healthy peer instead.
    pub shed_away: Counter,
}

impl QueueCounters {
    /// Handles not registered anywhere (they count, but never export).
    pub fn detached() -> QueueCounters {
        QueueCounters::default()
    }

    /// Handles registered under `serving.worker.{worker}.*`.
    pub fn register(reg: &MetricsRegistry, worker: usize) -> QueueCounters {
        QueueCounters {
            enqueued: reg.counter(&format!("serving.worker.{worker}.enqueued")),
            rejected: reg.counter(&format!("serving.worker.{worker}.rejected")),
            batches: reg.counter(&format!("serving.worker.{worker}.batches")),
            peak_depth: reg.gauge(&format!("serving.worker.{worker}.queue_depth_peak")),
            shed_away: reg.counter(&format!("serving.worker.{worker}.shed_away")),
        }
    }
}

/// A bounded multi-producer single-consumer queue.
///
/// `close()` wakes everyone; after close, pushes fail and pops drain the
/// remainder — an admitted request is never dropped.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    /// Signals consumers: items available (or the queue closed).
    items: Condvar,
    /// Signals blocked producers: space freed (or the queue closed).
    space: Condvar,
    capacity: usize,
    /// Admission accounting (shared registry handles or detached).
    counters: QueueCounters,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The target queue was at its admission budget (shed or retry).
    Overloaded,
    /// The server is shutting down; no new requests are admitted.
    Closed,
}

/// Counters snapshot of one worker queue (see [`BoundedQueue`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests admitted over the queue's lifetime.
    pub enqueued: u64,
    /// Requests refused with [`RejectReason::Overloaded`].
    pub rejected: u64,
    /// Consumer batch drains performed.
    pub batches: u64,
    /// Deepest backlog observed at admission time.
    pub peak_depth: u64,
    /// Requests homed here that adaptive admission shed to a peer.
    pub shed_away: u64,
}

impl<T> BoundedQueue<T> {
    /// New queue with an admission budget of `capacity` (min 1) and
    /// detached (unexported) counters.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue::with_counters(capacity, QueueCounters::detached())
    }

    /// New queue recording its admission accounting into `counters`
    /// (typically [`QueueCounters::register`]ed in a telemetry registry).
    pub fn with_counters(capacity: usize, counters: QueueCounters) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            items: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            counters,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note_admitted(&self, depth: usize) {
        self.counters.enqueued.inc();
        self.counters.peak_depth.record_max(depth as u64);
    }

    /// Admission-controlled push: refuse instead of blocking or growing.
    pub fn try_push(&self, item: T) -> Result<(), (T, RejectReason)> {
        let mut q = self.lock();
        if q.closed {
            return Err((item, RejectReason::Closed));
        }
        if q.items.len() >= self.capacity {
            drop(q);
            self.counters.rejected.inc();
            return Err((item, RejectReason::Overloaded));
        }
        q.items.push_back(item);
        let depth = q.items.len();
        drop(q);
        self.note_admitted(depth);
        self.items.notify_one();
        Ok(())
    }

    /// Backpressure push: wait for space instead of shedding. Used by
    /// drivers that must admit a fixed op sequence (the deterministic
    /// `--quick` benches). Fails only when the queue is closed.
    pub fn push_blocking(&self, item: T) -> Result<(), (T, RejectReason)> {
        let mut q = self.lock();
        while q.items.len() >= self.capacity && !q.closed {
            q = self.space.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        if q.closed {
            return Err((item, RejectReason::Closed));
        }
        q.items.push_back(item);
        let depth = q.items.len();
        drop(q);
        self.note_admitted(depth);
        self.items.notify_one();
        Ok(())
    }

    /// Consumer side: move up to `max` items into `out`, blocking while
    /// the queue is empty and open. Returns `false` once the queue is
    /// closed **and** fully drained — the worker's exit condition.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        let mut q = self.lock();
        while q.items.is_empty() {
            if q.closed {
                return false;
            }
            q = self.items.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        let take = max.max(1).min(q.items.len());
        out.extend(q.items.drain(..take));
        drop(q);
        self.counters.batches.inc();
        // A batch drain can free many slots: wake every blocked producer.
        self.space.notify_all();
        true
    }

    /// Close the queue: pushes fail from now on, consumers drain the rest.
    pub fn close(&self) {
        self.lock().closed = true;
        self.items.notify_all();
        self.space.notify_all();
    }

    /// Current backlog (diagnostics; racy by nature).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Note a request homed on this queue's worker that adaptive
    /// admission sent to a peer (it never entered this queue).
    pub fn note_shed_away(&self) {
        self.counters.shed_away.inc();
    }

    /// Counters snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.counters.enqueued.get(),
            rejected: self.counters.rejected.get(),
            batches: self.counters.batches.get(),
            peak_depth: self.counters.peak_depth.get(),
            shed_away: self.counters.shed_away.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (back, why) = q.try_push(3).unwrap_err();
        assert_eq!((back, why), (3, RejectReason::Overloaded));
        let st = q.stats();
        assert_eq!((st.enqueued, st.rejected, st.peak_depth), (2, 1, 2));
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 10));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_admitted_items_then_stops() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8).unwrap_err().1, RejectReason::Closed);
        assert_eq!(q.push_blocking(9).unwrap_err().1, RejectReason::Closed);
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 10), "admitted item must still drain");
        assert_eq!(out, vec![7]);
        assert!(!q.pop_batch(&mut out, 10), "closed and empty ends the consumer");
    }

    #[test]
    fn push_blocking_waits_for_space() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 1));
        assert!(producer.join().unwrap(), "producer should admit after space frees");
        out.clear();
        assert!(q.pop_batch(&mut out, 1));
        assert_eq!(out, vec![2]);
    }
}

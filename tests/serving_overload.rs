//! Overload behavior of the serving harness: admission control sheds
//! load at the queue budget, and what it admits it *finishes* — every
//! admitted op completes exactly once, every rejected op is handed back
//! to the caller (never silently dropped), and the store ends up exactly
//! where the admitted writes put it.

use std::collections::BTreeMap;
use std::sync::Arc;

use hope_store::serving::{RejectReason, Request, Response, Server, ServingConfig};
use hope_store::{HopeStore, StoreConfig};

fn store_with(n: u64) -> Arc<HopeStore<u64>> {
    let pairs = (0..n).map(|i| (format!("com.gmail@user{i:05}").into_bytes(), i));
    Arc::new(HopeStore::build(StoreConfig::default(), pairs).expect("build"))
}

/// Many producers hammer tiny queues with `try_submit_detached`: the
/// server must shed (reporting every shed request back), complete every
/// admitted request exactly once, and the final store state must equal a
/// shadow map replay of exactly the admitted writes.
#[test]
fn admission_control_sheds_but_never_drops() {
    let store = store_with(500);
    // Tiny queues + tiny batches against fast producers: rejections are
    // guaranteed at these sizes (asserted below), which is the point.
    let cfg = ServingConfig {
        workers: 2,
        queue_capacity: 8,
        batch: 4,
        phases: 1,
        virtual_time: false,
        ..ServingConfig::default()
    };
    let server = Server::start(Arc::clone(&store), cfg).expect("start");

    let producers = 4;
    let per_producer = if cfg!(debug_assertions) { 1_500 } else { 6_000 };
    // (key, value) pairs admitted, per producer — disjoint key spaces so
    // the shadow merge below is order-independent.
    type ProducerOutcome = (Vec<(Vec<u8>, u64)>, u64);
    let outcome: Vec<ProducerOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let server = &server;
                s.spawn(move || {
                    let mut admitted = Vec::new();
                    let mut rejected = 0u64;
                    for i in 0..per_producer {
                        let key = format!("org.load@p{p}-{i:06}").into_bytes();
                        let value = ((p as u64) << 32) | i as u64;
                        match server.try_submit_detached(Request::insert(key.clone(), value), 0) {
                            Ok(()) => admitted.push((key, value)),
                            Err(r) => {
                                // The refused request comes back intact.
                                assert_eq!(r.reason, RejectReason::Overloaded);
                                match r.request {
                                    Request::Insert { key: k, value: v } => {
                                        assert_eq!((k, v), (key, value));
                                    }
                                    other => panic!("wrong request returned: {other:?}"),
                                }
                                rejected += 1;
                            }
                        }
                    }
                    (admitted, rejected)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("producer")).collect()
    });

    let report = server.shutdown();

    let admitted_total: u64 = outcome.iter().map(|(a, _)| a.len() as u64).sum();
    let rejected_total: u64 = outcome.iter().map(|(_, r)| *r).sum();
    assert_eq!(admitted_total + rejected_total, (producers * per_producer) as u64);
    assert!(rejected_total > 0, "queues of 8 against 4 fast producers must shed");
    assert!(admitted_total > 0, "some requests must get through");

    // Exactly-once completion: the workers completed precisely the
    // admitted set — shutdown drains queues rather than dropping them.
    assert_eq!(report.total_ops(), admitted_total);
    assert_eq!(report.total_rejected(), rejected_total);
    let queue_admitted: u64 = report.queues.iter().map(|q| q.enqueued).sum();
    assert_eq!(queue_admitted, admitted_total);
    assert_eq!(report.phases[0].inserts, admitted_total);
    assert_eq!(report.phases[0].errors, 0);
    for q in &report.queues {
        assert!(q.peak_depth <= 8, "queue exceeded its admission budget");
    }

    // Shadow-map check: the store holds the original load plus exactly
    // the admitted inserts (producer key spaces are disjoint, so the
    // merge order cannot matter).
    let mut shadow: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for i in 0..500u64 {
        shadow.insert(format!("com.gmail@user{i:05}").into_bytes(), i);
    }
    for (admitted, _) in &outcome {
        for (k, v) in admitted {
            shadow.insert(k.clone(), *v);
        }
    }
    assert_eq!(store.len(), shadow.len());
    for (k, v) in &shadow {
        assert_eq!(store.get(k).expect("valid key"), Some(*v), "{}", String::from_utf8_lossy(k));
    }
}

/// Ticketed requests complete exactly once even when the server is shut
/// down with requests still queued: `shutdown` drains, so every ticket
/// resolves.
#[test]
fn shutdown_completes_every_admitted_ticket() {
    let store = store_with(200);
    let cfg = ServingConfig {
        workers: 1,
        queue_capacity: 256,
        batch: 16,
        phases: 1,
        virtual_time: false,
        ..ServingConfig::default()
    };
    let server = Server::start(Arc::clone(&store), cfg).expect("start");
    let tickets: Vec<_> = (0..200u64)
        .map(|i| {
            server
                .submit(Request::get(format!("com.gmail@user{i:05}").into_bytes()), 0)
                .expect("open")
        })
        .collect();
    let report = server.shutdown();
    assert_eq!(report.total_ops(), 200);
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Response::Get(Some(v)) => assert_eq!(v, i as u64),
            other => panic!("ticket {i}: {other:?}"),
        }
    }
}

/// A dropped (not shut down) server closes and joins cleanly, and the
/// store it served stays fully usable by a successor pipeline —
/// ownership makes submitting to a closed `Server` unrepresentable, and
/// the queue-level `Closed` refusal is covered by the module's unit
/// tests.
#[test]
fn dropped_server_closes_cleanly_and_store_survives() {
    let store = store_with(50);
    let server = Server::start(Arc::clone(&store), ServingConfig::default()).expect("start");
    drop(server);
    // A second server on the same store still works (the store outlives
    // any one serving pipeline).
    let server = Server::start(Arc::clone(&store), ServingConfig::default()).expect("start");
    let t = server.submit(Request::get(b"com.gmail@user00007".to_vec()), 0).expect("open");
    assert!(matches!(t.wait(), Response::Get(Some(7))));
    server.shutdown();
}

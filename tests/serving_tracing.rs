//! A traced request answers like an untraced one. Two identically built
//! stores serve one ticketed stream on one virtual-time worker (so every
//! response and every latency sample is deterministic), one with every
//! request traced and one with tracing off. The responses, phase totals
//! and latency histograms must be equal, and the traced run's span
//! histograms must hold exactly its non-error requests.

use std::sync::Arc;

use hope::MAX_KEY_BYTES;
use hope_store::serving::{PhaseStats, Request, Response, Server, ServingConfig, ServingReport};
use hope_store::{HopeStore, StoreConfig};

const KEYS: u64 = 2_000;

fn key(i: u64) -> Vec<u8> {
    format!("com.gmail@user{i:06}").into_bytes()
}

/// Even-numbered keys are loaded; odd ones are absent until inserted.
fn store() -> Arc<HopeStore<u64>> {
    let pairs = (0..KEYS).map(|i| (key(2 * i), i));
    let cfg = StoreConfig { min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    Arc::new(HopeStore::build(cfg, pairs).expect("store build"))
}

/// Two phases of every request kind: gets that hit and miss, fresh
/// inserts and updates, live and snapshot scans (some reaching keys the
/// stream inserted), and an over-long key on every kind.
fn stream() -> Vec<Request<u64>> {
    let mut reqs = Vec::new();
    let long = vec![b'x'; MAX_KEY_BYTES + 1];
    for i in 0..400u64 {
        let k = (i * 37) % (2 * KEYS);
        reqs.push(match i % 8 {
            0 | 1 => Request::get(key(k)),
            2 => Request::get(key(k | 1)),
            3 => Request::insert(key(k | 1), 10_000 + i),
            4 => Request::insert(key(k & !1), 20_000 + i),
            5 => Request::scan(key(k), key(k + 40), 16),
            6 => Request::snapshot_scan(key(k), key(k + 400), 64),
            _ => Request::get(key(k | 1)),
        });
        if i % 100 == 99 {
            reqs.push(Request::get(long.clone()));
            reqs.push(Request::insert(long.clone(), i));
            reqs.push(Request::scan(key(k), long.clone(), 8));
            reqs.push(Request::snapshot_scan(long.clone(), key(k), 8));
        }
    }
    reqs
}

fn serve(trace_sample_every: u32) -> (Vec<Response<u64>>, ServingReport) {
    let cfg = ServingConfig {
        workers: 1,
        phases: 2,
        virtual_time: true,
        trace_sample_every,
        ..ServingConfig::default()
    };
    let server = Server::start(store(), cfg).expect("server start");
    let reqs = stream();
    let n = reqs.len();
    let tickets: Vec<_> = reqs
        .into_iter()
        .enumerate()
        .map(|(i, r)| server.submit(r, i * 2 / n).expect("server open"))
        .collect();
    let responses = tickets.into_iter().map(|t| t.wait()).collect();
    (responses, server.shutdown())
}

/// Everything a phase total says, its histogram read at every percentile.
fn phase_view(p: &PhaseStats) -> Vec<u64> {
    let mut v = vec![p.ops, p.gets, p.inserts, p.scans, p.scan_hits, p.errors];
    v.extend([p.busy_ns_max, p.busy_ns_total]);
    v.extend([p.latency.count(), p.latency.sum_ns(), p.latency.max_ns()]);
    v.extend((1..=100).map(|q| p.latency.quantile_ns(f64::from(q) / 100.0)));
    v
}

#[test]
fn traced_requests_answer_like_untraced_ones() {
    let (plain, plain_report) = serve(0);
    let (traced, traced_report) = serve(1);

    assert_eq!(plain.len(), traced.len());
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(a, b, "response {i}");
    }
    let views = |r: &ServingReport| r.phases.iter().map(phase_view).collect::<Vec<_>>();
    assert_eq!(views(&plain_report), views(&traced_report));

    // The stream really covers what it claims to.
    let count = |f: fn(&Response<u64>) -> bool| plain.iter().filter(|r| f(r)).count();
    assert!(count(|r| matches!(r, Response::Get(Some(_)))) > 0);
    assert!(count(|r| matches!(r, Response::Get(None))) > 0);
    assert!(count(|r| matches!(r, Response::Insert(None))) > 0);
    assert!(count(|r| matches!(r, Response::Insert(Some(_)))) > 0);
    assert!(count(|r| matches!(r, Response::Scan(s) if s.hits > 1 && !s.epochs.is_empty())) > 0);
    assert_eq!(count(|r| matches!(r, Response::Error(_))), 16);

    // Every request that succeeded left one sample in each stage; an
    // error leaves none.
    let ok = plain.len() - 16;
    let tel = &traced_report.telemetry;
    for stage in ["encode", "probe", "decode"] {
        let h = tel.histogram(&format!("serving.trace.{stage}")).expect("traced stage");
        assert_eq!(h.count, ok as u64, "serving.trace.{stage}");
        assert!(plain_report.telemetry.histogram(&format!("serving.trace.{stage}")).is_none());
    }
    assert!(tel.histogram("serving.trace.probe").is_some_and(|h| h.sum_ns > 0));
    assert!(tel.histogram("serving.trace.decode").is_some_and(|h| h.max_ns > 0));
    // Virtual time has no enqueue instant, so queue wait is never
    // recorded there: the one span a virtual-time run cannot show.
    assert_eq!(tel.histogram("serving.trace.queue_wait").map(|h| h.count), Some(0));
}

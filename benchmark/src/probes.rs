//! Per-layer probes: each times calls into one module's public
//! functions from outside, in the traced run only. None of them feeds
//! a gated metric.

use crate::report::Metric;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tt_core::{Policy, ServiceRequest};
use tt_net::service::CachedAnswer;
use tt_net::{metrics_document, stats_document, ComputeService};
use tt_obs::{AtomicHistogram, BucketScheme, Tracer, WindowStore};
use tt_serve::live::WorkerPool;

/// Run `op` in timed batches of `batch` calls until `budget` is spent
/// (at least three batches) and return each batch's mean time per call
/// in `unit_ns`-sized units.
fn batches(budget: Duration, batch: usize, unit_ns: f64, mut op: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut means = Vec::new();
    let mut i = 0;
    while means.len() < 3 || start.elapsed() < budget {
        let begin = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        means.push(begin.elapsed().as_nanos() as f64 / batch as f64 / unit_ns);
    }
    means
}

/// Median ns per call of `op`.
fn ns_per_call(
    name: &'static str,
    budget: Duration,
    batch: usize,
    op: impl FnMut(usize),
) -> Metric {
    let means = batches(budget, batch, 1.0, op);
    Metric::value(name, "ns", median(&means)).with_samples(means.len() * batch)
}

/// Median µs per call of `op`.
fn us_per_call(
    name: &'static str,
    budget: Duration,
    batch: usize,
    op: impl FnMut(usize),
) -> Metric {
    let means = batches(budget, batch, 1e3, op);
    Metric::value(name, "us", median(&means)).with_samples(means.len() * batch)
}

/// The layers under `HttpHandler::handle`, each called directly:
/// annotation parsing, routing, admission, one-request policy
/// execution, and `ComputeService::execute` (no HTTP). `service` is a
/// probe-only instance, so the calls that bill do not disturb a gate.
pub fn request_layers(
    service: &ComputeService,
    requests: &[ServiceRequest],
    budget: Duration,
) -> Vec<Metric> {
    let each = budget / 5;
    let annotations: Vec<String> = requests
        .iter()
        .map(|r| {
            format!(
                "Tolerance: {}\r\nObjective: {}\r\n",
                r.tolerance.value(),
                r.objective
            )
        })
        .collect();
    let frontend = service.frontend();
    let pick = |i: usize| &requests[i % requests.len()];
    vec![
        ns_per_call("serve.frontend.parse_annotations_ns", each, 4096, |i| {
            black_box(
                tt_serve::parse_annotations(&annotations[i % annotations.len()])
                    .expect("well-formed annotations"),
            );
        }),
        ns_per_call("serve.frontend.route_ns", each, 4096, |i| {
            black_box(frontend.route(pick(i)));
        }),
        ns_per_call("net.admission.decide_ns", each, 4096, |i| {
            let r = pick(i);
            black_box(service.admission().decide(r.objective, r.tolerance.value()));
        }),
        ns_per_call("core.policy.execute_ns", each, 4096, |i| {
            let r = pick(i);
            let policy: Policy = frontend.route(r);
            black_box(policy.execute(service.matrix(), r.payload));
        }),
        ns_per_call("net.service.execute_ns", each, 4096, |i| {
            black_box(service.execute(pick(i)).expect("fault-free execute"));
        }),
    ]
}

/// What an operator's scrape costs: the service snapshot and the two
/// documents built from it.
pub fn scrapes(service: &ComputeService, budget: Duration) -> Vec<Metric> {
    let each = budget / 3;
    let uptime_ms = 1_000;
    let mut out = vec![
        us_per_call("net.service.snapshot_us", each, 16, |_| {
            black_box(service.snapshot());
        }),
        us_per_call("net.stats.scrape_us", each, 16, |_| {
            black_box(stats_document(&service.snapshot(), uptime_ms).render());
        }),
    ];
    if let Some(obs) = service.observability() {
        out.push(us_per_call("net.metrics.scrape_us", each, 16, |_| {
            black_box(metrics_document(obs, uptime_ms).render());
        }));
    }
    out
}

/// `tt-obs` primitives on their own: one histogram record, one traced
/// request's span bookkeeping, one telemetry-window seal.
pub fn obs_primitives(budget: Duration) -> Vec<Metric> {
    let each = budget / 3;
    let histogram = AtomicHistogram::new(BucketScheme::DEFAULT);
    let tracer = Tracer::new(256);
    let windows = WindowStore::new(250_000, 64);
    let mut now_us = 0;
    vec![
        ns_per_call("obs.hist.record_ns", each, 65_536, |i| {
            histogram.record(black_box(i as u64 % 50_000));
        }),
        ns_per_call("obs.span.open_close_ns", each, 4096, |i| {
            let handle = tracer.begin();
            let id = handle.open("probe", None, i as u64);
            handle.close(id, i as u64 + 1);
            tracer.finish(&handle);
        }),
        us_per_call("obs.window.seal_us", each, 64, |_| {
            for tier in ["response-time/0.000", "response-time/0.010", "cost/0.050"] {
                for _ in 0..32 {
                    windows.record_arrival(tier);
                    windows.record_service(2, 30_000);
                }
            }
            now_us += 250_000;
            black_box(windows.tick(now_us));
        }),
    ]
}

/// The model worker pool: a no-op call through `submit` + `recv` (two
/// thread hand-offs) against the same call run inline under a permit.
pub fn worker_pool(workers: usize, budget: Duration) -> Vec<Metric> {
    let each = budget / 2;
    let pool: WorkerPool<u64> = WorkerPool::new(workers);
    let out = vec![
        us_per_call("serve.live.submit_roundtrip_us", each, 256, |i| {
            let rx = pool.submit(Box::new(move || (i as u64, 1.0)));
            black_box(rx.recv().expect("pool answers"));
        }),
        ns_per_call("serve.live.inline_ns", each, 4096, |i| {
            black_box(pool.run_inline(Box::new(move || (i as u64, 1.0))));
        }),
    ];
    pool.shutdown();
    out
}

/// `SemanticCache` on its own, sized like the cache workload's: hit
/// lookups over resident keys, miss lookups over absent ones, and
/// inserts of fresh keys into a full cache (each one evicts).
pub fn cache_ops(config: tt_cache::CacheConfig, budget: Duration) -> Vec<Metric> {
    let each = budget / 3;
    let capacity = config.capacity as u64;
    let cache: tt_cache::SemanticCache<CachedAnswer> = tt_cache::SemanticCache::new(config);
    let epoch = cache.epoch();
    let key = |i: u64| tt_cache::mix64(i);
    let answer = CachedAnswer { answered_by: 2 };
    for i in 0..capacity * 4 {
        cache.insert(key(i), i, 0, 0, 2, answer.clone(), epoch);
    }
    // What is resident after the fill is whatever the per-shard LRU
    // kept; probe it rather than assume.
    let resident: Vec<u64> = (0..capacity * 4)
        .filter(|&i| {
            matches!(
                cache.lookup(key(i), i, 10, epoch),
                tt_cache::Lookup::Exact(_)
            )
        })
        .collect();
    assert!(!resident.is_empty(), "cache kept nothing");
    let mut fresh = capacity * 4;
    vec![
        ns_per_call("cache.lookup_hit_ns", each, 4096, |i| {
            let k = resident[i % resident.len()];
            black_box(cache.lookup(key(k), k, 10, epoch));
        }),
        ns_per_call("cache.lookup_miss_ns", each, 4096, |i| {
            let k = u64::MAX - i as u64;
            black_box(cache.lookup(key(k), k, 10, epoch));
        }),
        ns_per_call("cache.insert_ns", each, 4096, |_| {
            fresh += 1;
            black_box(cache.insert(key(fresh), fresh, 0, 0, 2, answer.clone(), epoch));
        }),
    ]
}

//! Semantic result-cache benchmark: boots the wire-protocol stack with
//! `tt-cache` ahead of policy evaluation and measures what the cache
//! buys under key-skewed traffic, plus the correctness gates the cache
//! must never trade away. Emits `BENCH_cache.json`.
//!
//! Usage: `bench_cache [--quick] [--out PATH]`
//!
//! Four sections:
//!
//! * **Skew curve** — hit ratio, throughput, and p99 as the Zipf
//!   exponent rises (uniform traffic barely repeats; web-like skew
//!   repeats constantly). The cache's value is this curve.
//! * **Cache arm** — cache-on vs cache-off under Zipf(1.2). With a hit
//!   rate ≥ 50% the cache-on arm must *strictly dominate*: more
//!   throughput and a lower median latency. In `--quick` mode a
//!   violation exits non-zero, so CI catches a hit path that got
//!   slower than executing.
//! * **Billing parity** — a repeat-free (sequential keyspace) run
//!   bills bit-identically cache-on vs cache-off, and the Zipf runs
//!   bill identically too: hits settle at the declared tier through
//!   the same accounts, so the cache can never move a billed cent.
//! * **Strict safety** — tolerance-0 tiers take exact hits only; the
//!   load generator asserts client-side that no strict request was
//!   ever answered by a semantic match.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tt_bench::perfjson::{Json, JsonObject};
use tt_cache::{CacheConfig, SemanticCache};
use tt_net::loadgen::{run_load, LoadConfig, LoadReport};
use tt_net::server::{RunningServer, Server, ServerConfig};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_workloads::Keyspace;

struct BenchParams {
    label: &'static str,
    payloads: usize,
    requests: usize,
    concurrency: usize,
    latency_scale: f64,
}

const QUICK: BenchParams = BenchParams {
    label: "quick",
    payloads: 80,
    requests: 960,
    concurrency: 12,
    latency_scale: 0.02,
};

const STANDARD: BenchParams = BenchParams {
    label: "standard",
    payloads: 200,
    requests: 6_000,
    concurrency: 24,
    latency_scale: 0.05,
};

const SEED: u64 = 42;
const MODEL_WORKERS: usize = 8;

/// The skew exponents the curve sweeps, shallow to steep.
const SKEWS: [f64; 4] = [0.6, 0.9, 1.2, 1.5];

/// The headline arm's skew: web-like traffic.
const HEADLINE_SKEW: f64 = 1.2;

/// Open-loop passes per arm; the lowest-p99 pass is kept.
const OPEN_PASSES: usize = 3;

fn boot(params: &BenchParams, cached: bool) -> (Arc<ComputeService>, RunningServer) {
    let service = Arc::new(tt_net::demo::demo_service(
        params.payloads,
        SEED,
        ServiceConfig {
            latency_scale: params.latency_scale,
            model_workers: MODEL_WORKERS,
            cache: cached.then(|| Arc::new(SemanticCache::new(CacheConfig::defaults()))),
            ..ServiceConfig::defaults()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            http_workers: params.concurrency,
            backlog: 256,
            keep_alive_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    (service, server.spawn())
}

fn keyed_load(params: &BenchParams, keyspace: Keyspace, seed: u64) -> LoadConfig {
    let mut config = LoadConfig::closed(params.requests, params.concurrency, params.payloads, seed);
    config.keyspace = keyspace;
    config
}

/// Hit ratio over cache consults (hits + misses).
fn hit_ratio(report: &LoadReport) -> f64 {
    let consults = report.cache_hits + report.cache_misses;
    if consults == 0 {
        0.0
    } else {
        report.cache_hits as f64 / consults as f64
    }
}

/// Semantic hits observed on strict (tolerance-0) tiers — must be 0.
/// (The load generator already panics on one; this records the proof.)
fn strict_semantic_hits(report: &LoadReport) -> usize {
    report
        .per_tier
        .iter()
        .filter(|((_, milli), _)| *milli == 0)
        .map(|(_, tier)| tier.cache_hits_semantic)
        .sum()
}

/// Per-(objective, tolerance-milli) billed totals, bitwise.
fn billed_tiers(service: &ComputeService) -> BTreeMap<(String, u32), (usize, u64)> {
    service
        .snapshot()
        .billing
        .tiers
        .iter()
        .map(|(k, v)| (k.clone(), (v.requests, v.revenue.as_dollars().to_bits())))
        .collect()
}

fn report_json(report: &LoadReport) -> JsonObject {
    JsonObject::new()
        .with_int("sent", report.sent as i64)
        .with_int("ok", report.ok as i64)
        .with_int("cache_hits", report.cache_hits as i64)
        .with_int("cache_misses", report.cache_misses as i64)
        .with_int("cache_bypass", report.cache_bypass as i64)
        .with_num("hit_ratio", hit_ratio(report))
        .with_num("throughput_rps", report.throughput_rps())
        .with_num("p50_ms", report.latency_ms(0.50).unwrap_or(0.0))
        .with_num("p99_ms", report.latency_ms(0.99).unwrap_or(0.0))
}

/// One cache-on vs cache-off comparison under the headline Zipf skew.
/// Throughput is measured closed-loop (each arm at its own capacity);
/// tail latency is measured open-loop at the *same* offered rate for
/// both arms — 60% of the cache-off arm's measured capacity — because
/// a closed loop moves the operating point with the speedup and makes
/// p99s incomparable. Billing parity covers everything each arm
/// served (warm-up, closed, open): identical seeded multisets must bill
/// bit-identically whether or not the cache answered.
struct CacheArm {
    closed_on: LoadReport,
    closed_off: LoadReport,
    open_on: LoadReport,
    open_off: LoadReport,
    offered_rate: f64,
    parity: bool,
}

fn cache_arm(params: &BenchParams) -> CacheArm {
    let zipf = Keyspace::Zipf { s: HEADLINE_SKEW };
    let closed = |cached: bool| {
        let (service, running) = boot(params, cached);
        // Warm (connections, allocator, scheduler — and the cache:
        // steady state is the scenario under test, not a cold start).
        let mut warm = keyed_load(params, zipf.clone(), SEED);
        warm.requests = (warm.requests / 4).max(1);
        let _ = run_load(running.addr(), &warm);
        let report =
            run_load(running.addr(), &keyed_load(params, zipf.clone(), SEED)).expect("zipf run");
        assert_eq!(report.ok, report.sent, "closed arm lost requests");
        (service, running, report)
    };
    let (on_service, on_running, closed_on) = closed(true);
    let (off_service, off_running, closed_off) = closed(false);
    let offered_rate = (closed_off.throughput_rps() * 0.6).max(100.0);
    // Best p99 of `OPEN_PASSES` per arm: a 99th percentile over one
    // pass is the Nth-slowest request and swings wildly on a shared
    // host; the best pass is the machine's honest answer for both arms.
    let open = |running: &tt_net::server::RunningServer| {
        let mut best: Option<LoadReport> = None;
        for pass in 0..OPEN_PASSES {
            let mut config = LoadConfig::open(
                params.requests,
                offered_rate,
                params.payloads,
                SEED + 1 + pass as u64,
            );
            config.keyspace = zipf.clone();
            let report = run_load(running.addr(), &config).expect("open run");
            assert!(
                report.ok as f64 >= report.sent as f64 * 0.99,
                "open arm shed load at 60% of cache-off capacity"
            );
            let p99 = report.latency_ms(0.99).unwrap_or(f64::MAX);
            if best
                .as_ref()
                .is_none_or(|b| p99 < b.latency_ms(0.99).unwrap_or(f64::MAX))
            {
                best = Some(report);
            }
        }
        best.expect("at least one open pass")
    };
    let open_on = open(&on_running);
    let open_off = open(&off_running);
    let billed_on = billed_tiers(&on_service);
    let billed_off = billed_tiers(&off_service);
    on_running.stop().expect("graceful stop");
    off_running.stop().expect("graceful stop");
    CacheArm {
        closed_on,
        closed_off,
        open_on,
        open_off,
        offered_rate,
        parity: billed_on == billed_off,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cache.json".to_string());
    let params = if quick { QUICK } else { STANDARD };

    eprintln!(
        "bench_cache[{}]: {} payloads, {} requests, concurrency {}",
        params.label, params.payloads, params.requests, params.concurrency
    );

    // 1. Hit-rate-vs-skew curve.
    let mut curve = Vec::new();
    for s in SKEWS {
        let (_service, running) = boot(&params, true);
        let report = run_load(
            running.addr(),
            &keyed_load(&params, Keyspace::Zipf { s }, SEED),
        )
        .expect("skew run");
        assert_eq!(report.ok, report.sent);
        running.stop().expect("graceful stop");
        eprintln!(
            "bench_cache[{}]: zipf s={s:.1} hit ratio {:.2}, {:.0} rps, p99 {:.2} ms",
            params.label,
            hit_ratio(&report),
            report.throughput_rps(),
            report.latency_ms(0.99).unwrap_or(0.0),
        );
        curve.push((s, report));
    }
    let monotone = curve
        .windows(2)
        .all(|w| hit_ratio(&w[1].1) >= hit_ratio(&w[0].1) - 0.02);

    // 2. Cache-on vs cache-off at the headline skew: capacity
    // closed-loop, latency open-loop at equal offered rate. The CI
    // gate compares capacity and *median* open-loop latency: the p50
    // split (hits answer in microseconds, executions in milliseconds)
    // is orders of magnitude and cannot flip on a noisy host, unlike a
    // p99 that is the Nth-slowest request of one pass. The standard
    // artifact's p99s are stable (60× the sample) and are recorded as
    // `p99_dominates`.
    let arm = cache_arm(&params);
    let speedup = if arm.closed_off.throughput_rps() > 0.0 {
        arm.closed_on.throughput_rps() / arm.closed_off.throughput_rps()
    } else {
        0.0
    };
    let p = |report: &LoadReport, q: f64| report.latency_ms(q).unwrap_or(0.0);
    eprintln!(
        "bench_cache[{}]: capacity {:.0} rps on vs {:.0} rps off ({speedup:.2}x, \
         hit ratio {:.2}); at {:.0} rps offered: p50 {:.3} ms on vs {:.3} ms off, \
         p99 {:.2} ms on vs {:.2} ms off",
        params.label,
        arm.closed_on.throughput_rps(),
        arm.closed_off.throughput_rps(),
        hit_ratio(&arm.closed_on),
        arm.offered_rate,
        p(&arm.open_on, 0.50),
        p(&arm.open_off, 0.50),
        p(&arm.open_on, 0.99),
        p(&arm.open_off, 0.99),
    );
    assert!(
        hit_ratio(&arm.closed_on) >= 0.5,
        "headline skew must reach a 50% hit rate, got {:.2}",
        hit_ratio(&arm.closed_on)
    );
    let dominance_ok = arm.closed_on.throughput_rps() > arm.closed_off.throughput_rps()
        && p(&arm.open_on, 0.50) < p(&arm.open_off, 0.50);
    if !dominance_ok {
        eprintln!(
            "bench_cache[{}]: hit path failed to dominate the miss path",
            params.label
        );
    }
    let p99_dominates = p(&arm.open_on, 0.99) < p(&arm.open_off, 0.99);

    // 3. Billing parity on a repeat-free stream: the cache never hits,
    // and the totals are bit-identical anyway.
    let sequential_parity = {
        let run = |cached: bool| {
            let (service, running) = boot(&params, cached);
            let report = run_load(
                running.addr(),
                &keyed_load(&params, Keyspace::Sequential, SEED + 7),
            )
            .expect("sequential run");
            assert_eq!(report.ok, report.sent);
            let billed = billed_tiers(&service);
            running.stop().expect("graceful stop");
            (report, billed)
        };
        let (_on_report, on_billed) = run(true);
        let (_off_report, off_billed) = run(false);
        on_billed == off_billed
    };
    assert!(
        sequential_parity && arm.parity,
        "billing parity broke: sequential {sequential_parity}, zipf {}",
        arm.parity
    );
    eprintln!(
        "bench_cache[{}]: billing parity cache on==off — sequential {sequential_parity}, \
         zipf {}",
        params.label, arm.parity
    );

    // 4. Strict tiers never saw a semantic hit, on any arm.
    let strict_semantic: usize = curve
        .iter()
        .map(|(_, r)| strict_semantic_hits(r))
        .sum::<usize>()
        + strict_semantic_hits(&arm.closed_on)
        + strict_semantic_hits(&arm.open_on);
    assert_eq!(strict_semantic, 0, "strict tier took a semantic hit");
    eprintln!(
        "bench_cache[{}]: strict tiers took 0 semantic hits across every arm",
        params.label
    );

    let curve_json: Vec<Json> = curve
        .iter()
        .map(|(s, report)| {
            Json::Object(
                JsonObject::new()
                    .with_num("zipf_s", *s)
                    .with("report", Json::Object(report_json(report))),
            )
        })
        .collect();
    let arm_json = JsonObject::new()
        .with("closed_cache_on", Json::Object(report_json(&arm.closed_on)))
        .with(
            "closed_cache_off",
            Json::Object(report_json(&arm.closed_off)),
        )
        .with("open_cache_on", Json::Object(report_json(&arm.open_on)))
        .with("open_cache_off", Json::Object(report_json(&arm.open_off)))
        .with_num("open_offered_rate_rps", arm.offered_rate)
        .with_num("throughput_speedup", speedup);
    let doc = JsonObject::new()
        .with_str("bench", "cache")
        .with_str("mode", params.label)
        .with(
            "config",
            Json::Object(
                JsonObject::new()
                    .with_int("payloads", params.payloads as i64)
                    .with_int("requests", params.requests as i64)
                    .with_int("concurrency", params.concurrency as i64)
                    .with_num("latency_scale", params.latency_scale)
                    .with_int("seed", SEED as i64)
                    .with_int("model_workers", MODEL_WORKERS as i64)
                    .with_num("headline_zipf_s", HEADLINE_SKEW)
                    .with_int("cache_capacity", CacheConfig::defaults().capacity as i64)
                    .with_int("cache_shards", CacheConfig::defaults().shards as i64),
            ),
        )
        .with("skew_curve", Json::Array(curve_json))
        .with("hit_ratio_monotone_in_skew", Json::Bool(monotone))
        .with("reactor", Json::Object(arm_json))
        .with(
            "billing_parity",
            Json::Object(
                JsonObject::new()
                    .with("sequential", Json::Bool(sequential_parity))
                    .with("zipf_reactor", Json::Bool(arm.parity)),
            ),
        )
        .with_int("strict_semantic_hits", strict_semantic as i64)
        .with("hit_path_dominates", Json::Bool(dominance_ok))
        .with("p99_dominates", Json::Bool(p99_dominates));
    std::fs::write(&out_path, doc.render()).expect("write artifact");
    eprintln!("bench_cache[{}]: wrote {out_path}", params.label);

    if quick && !dominance_ok {
        eprintln!(
            "bench_cache[{}]: FAIL — cache hit path slower than the miss path",
            params.label
        );
        std::process::exit(1);
    }
}

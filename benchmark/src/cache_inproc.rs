//! Workload `cache_inproc`: the in-process path with the semantic
//! result cache on, used in two opposite ways.
//!
//! * `hot` — Zipf(1.2) keys over the payload population: hits
//!   dominate, the cache is read.
//! * `churn` — repeat-free sequential keys over a population four
//!   times the cache's capacity: every request is a lookup miss, an
//!   insert and an eviction, the cache is written.
//!
//! A gain for one phase that costs the other shows here; on
//! `path_inproc` the cache does no work and the prediction is no
//! change.

use crate::common::{
    checked_sweep, clock_speed, heartbeat, peak_rss_mb, ready_inproc, serving_gates, Ctx, Ready,
};
use crate::deploy::{boot_service, describe, Knobs};
use crate::gen::{plan, Check, Plan};
use crate::inproc::{run_single, Caller};
use crate::probes;
use crate::report::{Gate, Metric, Outcome};
use crate::spans::{totals_by_name, Recorder};
use crate::stats::median;
use std::sync::Arc;
use std::time::Instant;
use tt_cache::{CacheConfig, CacheStats, SemanticCache};
use tt_net::{ComputeService, ObsConfig};
use tt_workloads::Keyspace;

/// Profiled payloads: the key population of both phases.
const PAYLOADS: usize = 512;

/// Requests per plan sweep.
const PLAN_REQUESTS: usize = 8192;

/// Most sweeps per phase the traced run records spans for.
const TRACED_SWEEPS: usize = 4;

/// Wordings each payload is asked in, so tolerant tiers see semantic
/// matches and strict tiers must refuse them.
const PARAPHRASES: usize = 3;

/// The pinned cache. A key is (objective, payload), so the key
/// population is `2 * PAYLOADS`; the cache holds a quarter of it, and
/// `churn`'s cyclic keys never find their entry still resident.
fn cache_config() -> CacheConfig {
    CacheConfig {
        capacity: PAYLOADS / 2,
        shards: 8,
        seed: 42,
        admit_permille: 1000,
        ttl_accesses: None,
    }
}

/// Fresh knobs with a fresh, empty cache.
fn knobs() -> Knobs {
    Knobs {
        payloads: PAYLOADS,
        latency_scale: 0.0,
        cache: Some(Arc::new(SemanticCache::new(cache_config()))),
        obs: ObsConfig::defaults(),
        batching: false,
    }
}

fn make_plan(seed: u64, keyspace: Keyspace) -> impl FnOnce(&ComputeService) -> Plan {
    move |service| {
        plan(
            seed,
            PLAN_REQUESTS,
            &keyspace,
            PARAPHRASES,
            service.matrix(),
            &service.frontend(),
        )
    }
}

fn hot_keys() -> Keyspace {
    Keyspace::Zipf { s: 1.2 }
}

/// A strict-tier reply must never be a semantic (not bit-equal) match.
fn strict_gate(ready: &Ready) -> Gate {
    Gate::check(
        "strict_never_semantic",
        ready.strict_semantic == 0,
        format!(
            "{} semantic matches on strict-tier replies in {} checked replies",
            ready.strict_semantic, ready.attempted
        ),
    )
}

fn measure(ctx: &Ctx) -> Outcome {
    let (mut ready, hot_plan) = ready_inproc(knobs, make_plan(ctx.seed, hot_keys()), Check::Status);
    let service = ready.service.clone();
    let churn_plan = make_plan(ctx.seed, Keyspace::Sequential)(&service);

    let before_hot = service.cache().expect("cache on").stats();
    let hot = run_single(&service, &hot_plan, ctx.share(0.5), || heartbeat(&service));
    let after_hot = service.cache().expect("cache on").stats();
    let churn = run_single(&service, &churn_plan, ctx.share(0.5), || {
        heartbeat(&service)
    });
    let after_churn = service.cache().expect("cache on").stats();
    let rss_mb = peak_rss_mb();
    // One more checked sweep of each kind, so the strict-tier gate sees
    // a warm cache and a churning one, not only the cold warm-up.
    checked_sweep(&mut ready, &hot_plan, Check::Status);
    checked_sweep(&mut ready, &churn_plan, Check::Status);

    ready.tally.add_sweeps(&hot_plan, hot.pass_means_us.len());
    ready
        .tally
        .add_sweeps(&churn_plan, churn.pass_means_us.len());

    let hot_us = median(&hot.scaled_means_us());
    let churn_us = median(&churn.scaled_means_us());
    let churn_miss_share = 1.0 - hit_ratio(&after_hot, &after_churn);
    let timed_failed = hot.failed + churn.failed;
    let mut gates = serving_gates(&ready, timed_failed);
    gates.push(strict_gate(&ready));
    gates.push(Gate::check(
        "churn_always_misses",
        churn_miss_share > 0.999,
        format!(
            "miss share {churn_miss_share:.4} of {} churn requests",
            churn.served
        ),
    ));
    Outcome {
        attempted: ready.attempted + hot.served + churn.served,
        failed: ready.failed + timed_failed,
        gates,
        metrics: vec![
            Metric::value("setup_s", "s", ready.setup_median_s()).with_samples(ready.setup_s.len()),
            Metric::value("request_us", "us", hot_us).with_samples(hot.pass_means_us.len()),
            Metric::median("strict_us", "us", &hot.tier_us(&hot_plan, 0)),
            Metric::median("tol10_us", "us", &hot.tier_us(&hot_plan, 100)),
            Metric::value("throughput_per_s", "1/s", 1e6 / churn_us)
                .with_samples(churn.pass_means_us.len()),
            Metric::value("peak_rss_mb", "MB", rss_mb),
        ],
        detail: vec![
            Metric::value("hot_us_per_request", "us", hot_us).with_samples(hot.pass_means_us.len()),
            Metric::median(
                "hot_request_p99_us",
                "us",
                &hot.sweep_quantiles_us(&hot_plan, 0.99),
            ),
            Metric::value("churn_us_per_request", "us", churn_us)
                .with_samples(churn.pass_means_us.len()),
            Metric::value("hot_hit_ratio", "ratio", hit_ratio(&before_hot, &after_hot)),
            Metric::value("churn_miss_share", "ratio", churn_miss_share),
            Metric::value("hot_us_unscaled", "us", median(&hot.pass_means_us))
                .with_samples(hot.pass_means_us.len()),
            clock_speed(hot.brackets.iter().chain(&churn.brackets)),
        ],
        notes: notes(&service),
    }
}

fn notes(service: &ComputeService) -> Vec<String> {
    let mut notes = describe(&knobs(), service);
    notes.push(format!(
        "cache: {:?}; hot=Zipf(1.2) churn=sequential, {PARAPHRASES} wordings per payload",
        cache_config()
    ));
    notes
}

/// Hits as a share of the lookups made between two readings of the
/// cache's counters.
fn hit_ratio(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits =
        (after.hits_exact + after.hits_semantic) - (before.hits_exact + before.hits_semantic);
    let lookups = hits + (after.misses - before.misses);
    hits as f64 / lookups.max(1) as f64
}

/// Mean `handle` span over traced sweeps of `plan`, and how many
/// requests that is.
fn traced_handle_ns(
    service: &ComputeService,
    plan: &Plan,
    recorder: &mut Recorder,
    budget: std::time::Duration,
) -> (f64, usize) {
    let mut caller = Caller::default();
    let first = recorder.spans().len();
    let start = Instant::now();
    let mut request_id = first as u64;
    let mut sweeps = 0;
    while sweeps == 0 || (start.elapsed() < budget && sweeps < TRACED_SWEEPS) {
        for planned in &plan.requests {
            caller.serve_traced(service, &planned.bytes, recorder, request_id);
            request_id += 1;
        }
        heartbeat(service);
        sweeps += 1;
    }
    let handle = totals_by_name(&recorder.spans()[first..])["net.service.handle"];
    (
        handle.total_ns as f64 / handle.count as f64,
        handle.count as usize,
    )
}

fn trace(ctx: &Ctx) -> Outcome {
    let service = boot_service(&knobs());
    let hot_plan = make_plan(ctx.seed, hot_keys())(&service);
    let churn_plan = make_plan(ctx.seed, Keyspace::Sequential)(&service);
    let mut ready = Ready::new(service.clone());
    checked_sweep(&mut ready, &hot_plan, Check::Status);

    let cache = service.cache().expect("cache on").clone();
    let mut recorder = Recorder::new(Instant::now());
    let before = cache.stats();
    let (hot_ns, hot_n) = traced_handle_ns(&service, &hot_plan, &mut recorder, ctx.share(0.35));
    let after_hot = cache.stats();
    let (churn_ns, churn_n) =
        traced_handle_ns(&service, &churn_plan, &mut recorder, ctx.share(0.35));
    let after_churn = cache.stats();
    let timed = run_single(&service, &hot_plan, ctx.share(0.05), || heartbeat(&service));
    checked_sweep(&mut ready, &churn_plan, Check::Status);

    let mut metrics = vec![
        Metric::value("cache.hot_handle_ns", "ns", hot_ns).with_samples(hot_n),
        Metric::value("cache.churn_handle_ns", "ns", churn_ns).with_samples(churn_n),
        Metric::median(
            "cache.hot_p99_us",
            "us",
            &timed.sweep_quantiles_us(&hot_plan, 0.99),
        ),
        Metric::value("cache.hit_ratio", "ratio", hit_ratio(&before, &after_hot))
            .with_samples(hot_n),
        Metric::value(
            "cache.evictions",
            "count",
            (after_churn.evictions - after_hot.evictions) as f64,
        )
        .with_samples(churn_n),
        Metric::value("trace.spans", "count", recorder.spans().len() as f64),
    ];
    metrics.extend(probes::cache_ops(cache_config(), ctx.share(0.25)));
    recorder
        .write_jsonl(&ctx.trace_path("cache_inproc"))
        .expect("write trace file");
    Outcome {
        attempted: ready.attempted + hot_n + churn_n + timed.served,
        failed: ready.failed + timed.failed,
        gates: vec![
            Gate::check(
                "answers_are_200",
                ready.failed == 0,
                format!("{} checked replies", ready.attempted),
            ),
            strict_gate(&ready),
        ],
        metrics,
        detail: Vec::new(),
        notes: notes(&service),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        trace(ctx)
    } else {
        measure(ctx)
    }
}

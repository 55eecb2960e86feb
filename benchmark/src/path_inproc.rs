//! Workload `path_inproc`: the whole request path with no sockets and
//! no model sleeps — first one caller, then `nproc` callers sharing
//! one service. Parse, admission, route, evaluate, settle, observe and
//! serialize do all the work here; the shared phase is where the
//! settle path's global locks show.

use crate::common::{
    checked_sweep, clock_speed, heartbeat, peak_rss_mb, ready_inproc, serving_gates, Ctx, Ready,
};
use crate::deploy::{boot_service, describe, nproc, Knobs, PAYLOADS};
use crate::gen::{plan, Check, Plan};
use crate::inproc::{run_shared, run_single, Caller};
use crate::probes;
use crate::report::{Gate, Metric, Outcome};
use crate::spans::{totals_by_name, Recorder};
use crate::stats::median;
use std::time::{Duration, Instant};
use tt_net::{ComputeService, ObsConfig};
use tt_workloads::{Keyspace, RequestMix};

/// Requests in the plan one sweep serves.
const PLAN_REQUESTS: usize = 8192;

/// Most sweeps the traced run records spans for: enough requests for
/// steady means, few enough that the trace file stays in the tens of
/// megabytes.
const TRACED_SWEEPS: usize = 8;

/// Wall time of one shared-phase pass.
const SHARED_PASS: Duration = Duration::from_millis(250);

fn make_plan(seed: u64) -> impl FnOnce(&ComputeService) -> Plan {
    move |service| {
        plan(
            seed,
            PLAN_REQUESTS,
            &Keyspace::Uniform,
            1,
            service.matrix(),
            &service.frontend(),
        )
    }
}

/// The untraced run: the gated frame.
fn measure(ctx: &Ctx) -> Outcome {
    let (mut ready, plan) = ready_inproc(Knobs::path, make_plan(ctx.seed), Check::Version);
    let service = ready.service.clone();

    let single = run_single(&service, &plan, ctx.share(0.5), || heartbeat(&service));
    let shared = run_shared(
        &service,
        &plan,
        nproc(),
        ctx.share(0.5),
        SHARED_PASS,
        || heartbeat(&service),
    );

    // Read before the statistics below copy the samples around: the
    // high-water mark should be the program's, not the report's.
    let rss_mb = peak_rss_mb();
    let sweeps = single.pass_means_us.len();
    ready.tally.add_sweeps(&plan, sweeps);
    for (tier, &served) in plan.tiers.iter().zip(&shared.served_by_tier) {
        ready.tally.add(tier, served);
    }
    // A failed timed request was sent but not billed; the tally above
    // counted it, so the billing gate fails with it, as it should.

    let all_us = single.request_us(&plan, |_| true);
    let path_us = median(&single.scaled_means_us());
    let mt_rps = median(&shared.scaled_rps());
    let timed_failed = single.failed + shared.failed;
    Outcome {
        attempted: ready.attempted + single.served + shared.attempted,
        failed: ready.failed + timed_failed,
        gates: serving_gates(&ready, timed_failed),
        metrics: vec![
            Metric::value("setup_s", "s", ready.setup_median_s()).with_samples(ready.setup_s.len()),
            Metric::value("request_us", "us", path_us).with_samples(sweeps),
            Metric::median("strict_us", "us", &single.tier_us(&plan, 0)),
            Metric::median("tol10_us", "us", &single.tier_us(&plan, 100)),
            Metric::value("throughput_per_s", "1/s", mt_rps).with_samples(shared.pass_rps.len()),
            Metric::value("peak_rss_mb", "MB", rss_mb),
        ],
        detail: vec![
            Metric::value("path_us_per_request", "us", path_us).with_samples(sweeps),
            Metric::median("path_request_p50_us", "us", &all_us),
            Metric::median(
                "path_request_p99_us",
                "us",
                &single.sweep_quantiles_us(&plan, 0.99),
            ),
            Metric::value("path_mt_rps", "1/s", mt_rps).with_samples(shared.pass_rps.len()),
            Metric::value("net.service.mt_scaling", "ratio", mt_rps / (1e6 / path_us)),
            Metric::value("path_us_unscaled", "us", median(&single.pass_means_us))
                .with_samples(sweeps),
            Metric::value("path_mt_rps_unscaled", "1/s", median(&shared.pass_rps))
                .with_samples(shared.pass_rps.len()),
            clock_speed(single.brackets.iter().chain(&shared.brackets)),
        ],
        notes: describe(&Knobs::path(), &service),
    }
}

/// Sweep `plan` alternately with and without spans until `budget` is
/// spent or [`TRACED_SWEEPS`] pairs are done; returns (traced sweep
/// means, untraced sweep means) in µs per request.
fn alternate_sweeps(
    service: &ComputeService,
    plan: &Plan,
    recorder: &mut Recorder,
    budget: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let mut caller = Caller::default();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let per_request =
        |begin: Instant| begin.elapsed().as_secs_f64() * 1e6 / plan.requests.len() as f64;
    let start = Instant::now();
    let mut request_id = 0;
    while traced.is_empty() || (start.elapsed() < budget && traced.len() < TRACED_SWEEPS) {
        let begin = Instant::now();
        for planned in &plan.requests {
            caller.serve_traced(service, &planned.bytes, recorder, request_id);
            request_id += 1;
        }
        traced.push(per_request(begin));
        heartbeat(service);
        let begin = Instant::now();
        for planned in &plan.requests {
            caller.serve(service, &planned.bytes);
        }
        plain.push(per_request(begin));
        heartbeat(service);
    }
    (traced, plain)
}

/// The traced run: spans around parse / handle / serialize, then the
/// direct-call probes of every layer under `handle`.
fn trace(ctx: &Ctx) -> Outcome {
    let service = boot_service(&Knobs::path());
    let plan = make_plan(ctx.seed)(&service);
    let mut ready = Ready::new(service.clone());
    checked_sweep(&mut ready, &plan, Check::Version);

    let mut recorder = Recorder::new(Instant::now());
    let (traced, plain) = alternate_sweeps(&service, &plan, &mut recorder, ctx.share(0.3));
    let totals = totals_by_name(recorder.spans());
    let requests = totals["path.request"].count as f64;
    let mean_ns = |name: &str| totals[name].total_ns as f64 / requests;
    let path_ns = mean_ns("path.request");
    let residual_ns = totals["path.request"].self_ns as f64 / requests;

    // Observability's share of `handle`: the same sweeps on a twin
    // service with the registry, tracer and sentinel removed.
    let bare = boot_service(&Knobs {
        obs: ObsConfig::disabled(),
        ..Knobs::path()
    });
    let handle_ns = |service: &ComputeService| {
        let mut caller = Caller::default();
        let mut means = Vec::new();
        let start = Instant::now();
        while means.len() < 3 || start.elapsed() < ctx.share(0.06) {
            let mut spent = Duration::ZERO;
            for planned in &plan.requests {
                let request = caller.parse(&planned.bytes);
                let begin = Instant::now();
                std::hint::black_box(caller.handle(service, &request));
                spent += begin.elapsed();
            }
            means.push(spent.as_nanos() as f64 / plan.requests.len() as f64);
        }
        median(&means)
    };
    let obs_overhead_ns = handle_ns(&service) - handle_ns(&bare);

    let timed = run_single(&service, &plan, ctx.share(0.05), || heartbeat(&service));
    let single_rps = 1e6 / median(&plain);
    let shared = run_shared(
        &service,
        &plan,
        nproc(),
        ctx.share(0.1),
        SHARED_PASS,
        || heartbeat(&service),
    );

    let probe = boot_service(&Knobs::path());
    let requests_list = RequestMix::representative().sample(4096, PAYLOADS, ctx.seed);
    let mut metrics = vec![
        Metric::value("net.http.parse_ns", "ns", mean_ns("net.http.parse"))
            .with_samples(requests as usize),
        Metric::value("net.service.handle_ns", "ns", mean_ns("net.service.handle"))
            .with_samples(requests as usize),
        Metric::value("net.http.serialize_ns", "ns", mean_ns("net.http.serialize"))
            .with_samples(requests as usize),
        Metric::value("path.residual_ns", "ns", residual_ns).with_samples(requests as usize),
        Metric::value("path.traced_ns", "ns", path_ns).with_samples(requests as usize),
        Metric::median(
            "path.request_p99_us",
            "us",
            &timed.sweep_quantiles_us(&plan, 0.99),
        ),
        Metric::value(
            "trace.overhead_pct",
            "%",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
        )
        .with_samples(traced.len()),
        Metric::value(
            "net.service.mt_scaling",
            "ratio",
            median(&shared.pass_rps) / single_rps,
        )
        .with_samples(shared.pass_rps.len()),
        Metric::value("obs.overhead_ns", "ns", obs_overhead_ns),
        Metric::value("trace.spans", "count", recorder.spans().len() as f64),
    ];
    metrics.extend(probes::request_layers(
        &probe,
        &requests_list,
        ctx.share(0.2),
    ));
    metrics.extend(probes::scrapes(&service, ctx.share(0.06)));
    metrics.extend(probes::obs_primitives(ctx.share(0.09)));

    recorder
        .write_jsonl(&ctx.trace_path("path_inproc"))
        .expect("write trace file");
    let sum_ns =
        mean_ns("net.http.parse") + mean_ns("net.service.handle") + mean_ns("net.http.serialize");
    Outcome {
        attempted: ready.attempted
            + (traced.len() + plain.len()) * plan.requests.len()
            + timed.served
            + shared.attempted,
        failed: ready.failed + timed.failed + shared.failed,
        gates: vec![
            Gate::check(
                "answers_match_plan",
                ready.failed + timed.failed + shared.failed == 0,
                format!("{} checked replies, {} mismatched", ready.attempted, ready.failed),
            ),
            Gate::check(
                "spans_cover_the_path",
                (path_ns - sum_ns - residual_ns).abs() < 1.0 && residual_ns < 0.1 * path_ns,
                format!(
                    "parse+handle+serialize={sum_ns:.0} ns, residual={residual_ns:.0} ns of {path_ns:.0} ns"
                ),
            ),
        ],
        metrics,
        detail: Vec::new(),
        notes: describe(&Knobs::path(), &service),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        trace(ctx)
    } else {
        measure(ctx)
    }
}

//! Workload `tiers_wire`: what an API consumer sees. Real loopback
//! sockets against the reactor, model calls sleeping 5 % of their
//! profiled latency (0.1–1.8 ms).
//!
//! * closed loop on `nproc` keep-alive connections: capacity, and the
//!   per-tier latency of a caller who waits for each reply — the
//!   paper's strict-versus-tolerant gap. These are the gated figures;
//! * open loop, seeded Poisson arrivals at two fixed rates, each
//!   request timed from its due time: latency under arrivals. Reported,
//!   not gated: with `nproc` connections the generator is itself a
//!   queue at 56 % load, and a queue multiplies whatever lengthens
//!   service — a host that takes 17 % of the process's time raises
//!   this median 43 % and the closed loop's 2 %.
//!
//! The sleep-bound phases run with the whole process — reactor, worker
//! pool and callers — confined to one hardware thread. A request is a
//! chain of five wake-ups, and each one that crosses to a halted vCPU
//! costs about 60 µs more than one that stays. Left alone, the guest
//! scheduler keeps the chain on one thread in a run that follows idle
//! time (p50 1.85 ms) and spreads it in a run that follows a build or a
//! CPU-bound workload (1.97 ms, for the whole run): 6 % of median
//! latency and 7 % of capacity decided by what ran before. Confined,
//! the two read 1.85 and 1.85 ms. Utilisation is an eighth of the one
//! thread, so nothing waits for it.
//!
//! Model time is over 90 % of every latency here, so changes to the
//! request path are predicted to leave this workload unchanged, while
//! routing and pool scheduling changes move it.

use crate::affinity;
use crate::common::{peak_rss_mb, Ctx};
use crate::deploy::{boot_server, boot_service, describe, nproc, Knobs};
use crate::gates::{self, billed, Billed, Tally};
use crate::gen::{drive, plan, schedule, Check, Client, LoopReport, Pace, Plan};
use crate::inproc::run_single;
use crate::probes;
use crate::report::{Gate, Metric, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_net::server::RunningServer;
use tt_net::ComputeService;
use tt_workloads::Keyspace;

/// Share of profiled latency each model call sleeps.
const LATENCY_SCALE: f64 = 0.05;

/// Open-loop rates, requests per second: about 30 % and 60 % of the
/// reference host's closed-loop capacity.
const RATE_LO: f64 = 300.0;
const RATE_HI: f64 = 600.0;

/// Times the wire set-up (about 0.4 s) is repeated; `setup_s` is the
/// median.
const SETUP_ROUNDS: usize = 5;

/// The open-loop tail is taken within windows of this length.
const TAIL_WINDOW: Duration = Duration::from_secs(1);

/// Completions per block of the closed loop's throughput (about a
/// quarter of a second each).
const RATE_BLOCK: usize = 256;

/// Requests of the fixed-count wire warm-up in every set-up round.
const WARMUP_REQUESTS: usize = 400;

/// The latency limit the rate ladder holds p99 to, µs.
const SLO_P99_US: f64 = 5_000.0;

/// First rung of the rate ladder and the 10 % spacing between rungs.
const LADDER_START: f64 = 440.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 6;

fn knobs(latency_scale: f64, batching: bool) -> Knobs {
    Knobs {
        latency_scale,
        batching,
        ..Knobs::path()
    }
}

fn notes(service: &ComputeService) -> Vec<String> {
    let mut notes = describe(&knobs(LATENCY_SCALE, false), service);
    notes.push(format!(
        "generator: {} threads x 1 keep-alive connection; open loop at {RATE_LO} and {RATE_HI} rps, \
         latency from due time",
        nproc()
    ));
    notes.push(
        "placement: the sleep-bound phases run with the whole process on one hardware thread"
            .to_string(),
    );
    notes
}

/// A served deployment and the 200s its generator has seen.
struct Deployment {
    service: Arc<ComputeService>,
    server: RunningServer,
    tally: Tally,
    attempted: usize,
    failed: usize,
}

impl Deployment {
    fn boot(knobs: &Knobs) -> Deployment {
        let service = boot_service(knobs);
        let server = boot_server(&service);
        Deployment {
            service,
            server,
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Run one generator phase and fold what it saw into the tally.
    fn phase(&mut self, plan: &Plan, pace: Pace<'_>, anchor: Option<Instant>) -> LoopReport {
        let report = drive(
            self.server.addr(),
            plan,
            nproc(),
            pace,
            Check::Version,
            anchor,
        );
        for sample in &report.samples {
            if sample.ok {
                self.tally.add(&plan.tiers[usize::from(sample.tier)], 1);
            }
        }
        self.attempted += report.attempted();
        self.failed += report.failed();
        report
    }
}

/// The request list of an open-loop phase at `rate` for `duration`,
/// with its due times.
fn open_inputs(
    service: &ComputeService,
    seed: u64,
    rate: f64,
    duration: Duration,
) -> (Plan, Vec<Duration>) {
    let n = ((rate * duration.as_secs_f64()) as usize).max(1);
    (
        plan(
            seed,
            n,
            &Keyspace::Uniform,
            1,
            service.matrix(),
            &service.frontend(),
        ),
        schedule(rate, seed, n),
    )
}

/// Latencies of the tiers at `tol_milli`, whatever their objective.
fn tier_latencies(report: &LoopReport, plan: &Plan, tol_milli: u32) -> Vec<f64> {
    report
        .samples
        .iter()
        .filter(|s| s.ok && plan.tiers[usize::from(s.tier)].tol_milli == tol_milli)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

/// Confine this thread, and so every thread spawned from it, to the
/// first hardware thread it may use; returns all it could use before.
/// `nproc` is counted first, so pool sizes and the generator's thread
/// count stay the host's.
fn share_one_hardware_thread() -> Vec<usize> {
    nproc();
    let cpus = affinity::allowed();
    affinity::confine(&cpus[..1]);
    cpus
}

fn measure(ctx: &Ctx) -> Outcome {
    let scout = boot_service(&knobs(LATENCY_SCALE, false));
    let closed_plan = plan(
        ctx.seed,
        8192,
        &Keyspace::Uniform,
        1,
        scout.matrix(),
        &scout.frontend(),
    );
    let (hi_plan, hi_due) = open_inputs(&scout, ctx.seed, RATE_HI, ctx.share(0.3));
    let (lo_plan, lo_due) = open_inputs(&scout, ctx.seed + 1, RATE_LO, ctx.share(0.2));
    drop(scout);

    // Set-up: boot (matrix, rule generation, pool spawn), bind, spawn
    // the reactor, and a fixed-count warm-up over the wire.
    let mut setup_s = Vec::new();
    let mut billed_rounds: Vec<Billed> = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        let begin = Instant::now();
        let mut deployment = Deployment::boot(&knobs(LATENCY_SCALE, false));
        deployment.phase(&closed_plan, Pace::ClosedCount(WARMUP_REQUESTS), None);
        setup_s.push(begin.elapsed().as_secs_f64());
        billed_rounds.push(billed(&deployment.service));
        if let Some(previous) = kept.replace(deployment) {
            let previous: Deployment = previous;
            previous.server.stop().expect("graceful stop");
        }
    }
    let mut deployment = kept.expect("at least one set-up round");

    let closed = deployment.phase(&closed_plan, Pace::ClosedFor(ctx.share(0.5)), None);
    let hi = deployment.phase(&hi_plan, Pace::Open(&hi_due), None);
    let lo = deployment.phase(&lo_plan, Pace::Open(&lo_due), None);

    let rss_mb = peak_rss_mb();
    let closed_all = closed.latencies_us(None);
    let strict = tier_latencies(&closed, &closed_plan, 0);
    let tol10 = tier_latencies(&closed, &closed_plan, 100);
    let block_rates = closed.block_rates(RATE_BLOCK);
    let hi_all = hi.latencies_us(None);
    let late = hi.lateness_us();
    let gates = vec![
        Gate::check(
            "answers_match_plan",
            deployment.failed == 0,
            format!(
                "{} replies, {} failed or mismatched",
                deployment.attempted, deployment.failed
            ),
        ),
        gates::billing_matches_counts(&deployment.service, &deployment.tally),
        gates::billing_repeatable(&billed_rounds),
        gates::tolerance_honoured(&deployment.service),
        gates::nothing_dropped(&deployment.service),
    ];
    let outcome = Outcome {
        attempted: deployment.attempted,
        failed: deployment.failed,
        gates,
        metrics: vec![
            Metric::value("setup_s", "s", median(&setup_s)).with_samples(setup_s.len()),
            Metric::median("request_us", "us", &closed_all),
            Metric::median("strict_us", "us", &strict),
            Metric::median("tol10_us", "us", &tol10),
            Metric::median("throughput_per_s", "1/s", &block_rates),
            Metric::value("peak_rss_mb", "MB", rss_mb),
        ],
        detail: vec![
            Metric::median("capacity_rps", "1/s", &block_rates),
            Metric::value("capacity_whole_phase_rps", "1/s", closed.rps())
                .with_samples(closed.attempted()),
            Metric::median("closed_p50_us", "us", &closed_all),
            Metric::median("closed_strict_p50_us", "us", &strict),
            Metric::median("closed_tol10_p50_us", "us", &tol10),
            Metric::median("open_p50_us", "us", &hi_all),
            Metric::median(
                "open_p90_by_second_us",
                "us",
                &hi.windowed_quantiles_us(TAIL_WINDOW, 0.90),
            ),
            Metric::quantile("open_p90_us", "us", &hi_all, 0.90),
            Metric::quantile("open_p95_us", "us", &hi_all, 0.95),
            Metric::quantile("open_p99_us", "us", &hi_all, 0.99),
            Metric::quantile("open_lo_p99_us", "us", &lo.latencies_us(None), 0.99),
            Metric::median("open_lo_p50_us", "us", &lo.latencies_us(None)),
            Metric::median("strict_p50_us", "us", &tier_latencies(&hi, &hi_plan, 0)),
            Metric::median("tol10_p50_us", "us", &tier_latencies(&hi, &hi_plan, 100)),
            Metric::quantile("gen.late_p99_us", "us", &late, 0.99),
            Metric::value(
                "gen.late_max_us",
                "us",
                late.iter().copied().fold(0.0, f64::max),
            )
            .with_samples(late.len()),
        ],
        notes: notes(&deployment.service),
    };
    deployment.server.stop().expect("graceful stop");
    outcome
}

/// Time from opening a fresh connection to its first reply, µs.
fn connect_us(deployment: &mut Deployment, plan: &Plan, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let planned = &plan.requests[i % plan.requests.len()];
            let begin = Instant::now();
            let reply = Client::connect(deployment.server.addr())
                .ok()
                .and_then(|mut c| c.roundtrip(&planned.bytes));
            let us = begin.elapsed().as_secs_f64() * 1e6;
            deployment.attempted += 1;
            if reply.is_some_and(|r| r.status == 200) {
                deployment
                    .tally
                    .add(&plan.tiers[usize::from(planned.tier)], 1);
            } else {
                deployment.failed += 1;
            }
            us
        })
        .collect()
}

/// Walk the 10 %-spaced rate ladder upward; the answer is the highest
/// rung whose p99 stays within [`SLO_P99_US`] with no failure and no
/// growing backlog (the last tenth of requests is sent on time), or 0
/// when even the first rung misses.
fn slo_rate(deployment: &mut Deployment, seed: u64, rung: Duration) -> f64 {
    let mut best = 0.0;
    let mut rate = LADDER_START;
    for step in 0..LADDER_RUNGS {
        let (plan, due) = open_inputs(&deployment.service, seed + 10 + step as u64, rate, rung);
        let report = deployment.phase(&plan, Pace::Open(&due), None);
        let late = report.lateness_us();
        let last_tenth = &late[late.len() - (late.len() / 10).max(1)..];
        let backlog = median(last_tenth) > SLO_P99_US;
        let latencies = report.latencies_us(None);
        let p99 = if latencies.is_empty() {
            f64::INFINITY
        } else {
            quantile(&latencies, 0.99)
        };
        if report.failed() > 0 || backlog || p99 > SLO_P99_US {
            break;
        }
        best = rate;
        rate *= LADDER_STEP;
    }
    best
}

fn trace(ctx: &Ctx, cpus: &[usize]) -> Outcome {
    let anchor = Instant::now();
    let mut recorder = Recorder::new(anchor);
    let mut keep_spans = |report: &mut LoopReport| {
        if let Some(spans) = report.recorder.take() {
            recorder.absorb(spans);
        }
    };

    // The measured deployment, with the generator's spans on.
    let mut sleepy = Deployment::boot(&knobs(LATENCY_SCALE, false));
    let closed_plan = plan(
        ctx.seed,
        8192,
        &Keyspace::Uniform,
        1,
        sleepy.service.matrix(),
        &sleepy.service.frontend(),
    );
    sleepy.phase(&closed_plan, Pace::ClosedCount(WARMUP_REQUESTS), None);
    let mut closed = sleepy.phase(&closed_plan, Pace::ClosedFor(ctx.share(0.1)), Some(anchor));
    keep_spans(&mut closed);
    let (hi_plan, hi_due) = open_inputs(&sleepy.service, ctx.seed, RATE_HI, ctx.share(0.2));
    let mut hi = sleepy.phase(&hi_plan, Pace::Open(&hi_due), Some(anchor));
    keep_spans(&mut hi);
    let (lo_plan, lo_due) = open_inputs(&sleepy.service, ctx.seed + 1, RATE_LO, ctx.share(0.1));
    let lo = sleepy.phase(&lo_plan, Pace::Open(&lo_due), None);
    let slo_rate_rps = slo_rate(&mut sleepy, ctx.seed, ctx.share(0.3 / LADDER_RUNGS as f64));
    let (admitted, browned_out, rejected) = sleepy.service.admission().totals();

    // Batching on: what the closed loop would read if it were pinned.
    let mut batched = Deployment::boot(&knobs(LATENCY_SCALE, true));
    batched.phase(&closed_plan, Pace::ClosedCount(WARMUP_REQUESTS), None);
    let on = batched.phase(&closed_plan, Pace::ClosedFor(ctx.share(0.1)), None);

    // The stack alone: same wire, no model sleeps. CPU-bound, so on
    // every hardware thread the host gives.
    affinity::confine(cpus);
    let mut bare = Deployment::boot(&knobs(0.0, false));
    bare.phase(&closed_plan, Pace::ClosedCount(WARMUP_REQUESTS), None);
    let stack = bare.phase(&closed_plan, Pace::ClosedFor(ctx.share(0.1)), None);
    let connects = connect_us(&mut bare, &closed_plan, 100);
    let inproc = run_single(&bare.service, &closed_plan, ctx.share(0.02), || {});
    bare.tally
        .add_sweeps(&closed_plan, inproc.pass_means_us.len());
    let stack_p50 = median(&stack.latencies_us(None));
    let inproc_p50 = median(&inproc.request_us(&closed_plan, |_| true));

    let late = hi.lateness_us();
    let hi_all = hi.latencies_us(None);
    let mut metrics = vec![
        Metric::median("wire.closed_p50_us", "us", &closed.latencies_us(None)),
        Metric::value("wire.stack_rps", "1/s", stack.rps()).with_samples(stack.attempted()),
        Metric::value("wire.stack_p50_us", "us", stack_p50).with_samples(stack.attempted()),
        Metric::value("wire.overhead_us", "us", stack_p50 - inproc_p50),
        Metric::median("wire.connect_us", "us", &connects),
        Metric::value("wire.slo_rate_rps", "1/s", slo_rate_rps),
        Metric::median("wire.open_p50_us", "us", &hi_all),
        Metric::median(
            "wire.open_strict_p50_us",
            "us",
            &tier_latencies(&hi, &hi_plan, 0),
        ),
        Metric::median(
            "wire.open_tol10_p50_us",
            "us",
            &tier_latencies(&hi, &hi_plan, 100),
        ),
        Metric::quantile("wire.open_p90_us", "us", &hi_all, 0.90),
        Metric::quantile("wire.open_p99_us", "us", &hi_all, 0.99),
        Metric::quantile("wire.open_lo_p99_us", "us", &lo.latencies_us(None), 0.99),
        Metric::quantile("gen.late_p99_us", "us", &late, 0.99),
        Metric::value(
            "gen.late_max_us",
            "us",
            late.iter().copied().fold(0.0, f64::max),
        )
        .with_samples(late.len()),
        Metric::value("net.admission.admitted", "count", admitted as f64),
        Metric::value("net.admission.browned_out", "count", browned_out as f64),
        Metric::value("net.admission.rejected", "count", rejected as f64),
        Metric::value("net.batch.on_capacity_rps", "1/s", on.rps()).with_samples(on.attempted()),
        Metric::median(
            "net.batch.on_tol10_p50_us",
            "us",
            &tier_latencies(&on, &closed_plan, 100),
        ),
        Metric::value("trace.spans", "count", recorder.spans().len() as f64),
    ];
    metrics.extend(probes::worker_pool(2 * nproc(), ctx.share(0.05)));
    recorder
        .write_jsonl(&ctx.trace_path("tiers_wire"))
        .expect("write trace file");

    let notes = notes(&sleepy.service);
    let mut gates = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (label, deployment) in [("sleepy", sleepy), ("bare", bare), ("batched", batched)] {
        let mut billing = gates::billing_matches_counts(&deployment.service, &deployment.tally);
        billing.detail = format!("{label}: {}", billing.detail);
        gates.push(billing);
        attempted += deployment.attempted;
        failed += deployment.failed;
        deployment.server.stop().expect("graceful stop");
    }
    gates.push(Gate::check(
        "answers_match_plan",
        failed == 0,
        format!("{attempted} replies, {failed} failed or mismatched"),
    ));
    Outcome {
        attempted,
        failed,
        gates,
        metrics,
        detail: Vec::new(),
        notes,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let cpus = share_one_hardware_thread();
    if ctx.trace {
        trace(ctx, &cpus)
    } else {
        measure(ctx)
    }
}

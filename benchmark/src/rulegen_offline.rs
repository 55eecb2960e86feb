//! Workload `rulegen_offline`: the paper's routing-rule generator as
//! the offline job it is — no sockets, no sleeps.
//!
//! Set-up builds the ASR (400 utterances) and vision (1000 images)
//! profile matrices. The measured phases are repeated
//! `RoutingRuleGenerator::new_threaded` runs over both matrices at
//! `nproc` threads, then `Policy::evaluate` sweeps of every deployed
//! tier policy over both matrices. `tt-core::rulegen` and
//! `tt-stats::bootstrap` do all the work here and none on the serving
//! workloads except at boot.

use crate::clock::Bracket;
use crate::common::{peak_rss_mb, Ctx};
use crate::deploy::nproc;
use crate::report::{Gate, Metric, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tt_asr::CorpusConfig;
use tt_core::policy::PolicyPerformance;
use tt_core::rulegen::RoutingRuleGenerator;
use tt_core::{CandidateRecord, Objective, Policy, ProfileMatrix};
use tt_net::demo::DEMO_TIERS;
use tt_serve::cluster::{ClusterConfig, ClusterSim};
use tt_serve::TieredFrontend;
use tt_sim::ArrivalProcess;
use tt_stats::TrialLimits;
use tt_vision::dataset::DatasetConfig;
use tt_vision::Device;
use tt_workloads::{AsrWorkload, RequestMix, VisionWorkload};

const UTTERANCES: usize = 400;
const IMAGES: usize = 1_000;

/// Bootstrap confidence of every generation.
const CONFIDENCE: f64 = 0.999;

/// Times the workloads are built; `setup_s` is the median.
const BUILD_ROUNDS: usize = 3;

fn build() -> (AsrWorkload, VisionWorkload) {
    (
        AsrWorkload::build(CorpusConfig::evaluation().with_utterances(UTTERANCES)),
        VisionWorkload::build(DatasetConfig::evaluation().with_images(IMAGES), Device::Cpu),
    )
}

/// One generation over `matrix`: wall seconds and the generator.
fn generate<'m>(
    matrix: &'m ProfileMatrix,
    candidates: &[Policy],
    seed: u64,
    threads: usize,
) -> (f64, RoutingRuleGenerator<'m>) {
    let begin = Instant::now();
    let generator = RoutingRuleGenerator::new_threaded(
        matrix,
        candidates.to_vec(),
        CONFIDENCE,
        seed,
        TrialLimits::default(),
        threads,
    )
    .expect("default candidates are valid for their matrix");
    (begin.elapsed().as_secs_f64(), generator)
}

/// One deployment under measurement: its matrix, candidate set, and
/// the records every generation at this seed must reproduce.
struct Arm<'m> {
    label: &'static str,
    matrix: &'m ProfileMatrix,
    candidates: Vec<Policy>,
    /// The 1-thread generation: the reference output and its time.
    reference: Vec<CandidateRecord>,
    sequential_s: f64,
    /// Wall seconds of each `nproc`-thread generation.
    parallel_s: Vec<f64>,
    /// Every deployed tier policy, both objectives: `(tolerance, policy)`.
    policies: Vec<(f64, Policy)>,
    diverged: usize,
}

impl<'m> Arm<'m> {
    fn new(label: &'static str, matrix: &'m ProfileMatrix, seed: u64) -> Arm<'m> {
        let candidates = RoutingRuleGenerator::default_candidates(matrix)
            .expect("matrix supports the default candidate set");
        let (sequential_s, generator) = generate(matrix, &candidates, seed, 1);
        let policies = Objective::all()
            .flat_map(|objective| {
                generator
                    .generate(&DEMO_TIERS, objective)
                    .expect("every tier has a feasible policy")
                    .tiers()
                    .to_vec()
            })
            .collect();
        Arm {
            label,
            matrix,
            candidates,
            reference: generator.records().to_vec(),
            sequential_s,
            parallel_s: Vec::new(),
            policies,
            diverged: 0,
        }
    }

    /// One `nproc`-thread generation, checked against the reference.
    fn generate_parallel(&mut self, seed: u64) -> f64 {
        let (seconds, generator) = generate(self.matrix, &self.candidates, seed, nproc());
        self.diverged += usize::from(generator.records() != self.reference.as_slice());
        self.parallel_s.push(seconds);
        seconds
    }

    fn trials(&self) -> usize {
        self.reference.iter().map(|r| r.trials).sum()
    }
}

/// Per-request `Policy::evaluate` times, ns at the reference clock,
/// from repeated sweeps of every deployed policy over both matrices.
///
/// A chunk of sweeps leaves its medians, not its sweeps, so what a run
/// keeps does not grow with the host's clock: one entry per sweep puts
/// a boosted run across a doubling of the buffers that a base-clock
/// run stays under, and that is a tenth of the process's peak memory.
#[derive(Default)]
struct EvaluateRun {
    sweeps: usize,
    /// Each chunk's median sweep, ns per request evaluated.
    sweep_ns: Vec<f64>,
    /// Host speed of each chunk of sweeps.
    speeds: Vec<f64>,
    /// The 90th-percentile sweep of each chunk, ns per request.
    chunk_p90_ns: Vec<f64>,
    strict_ns: Vec<f64>,
    tol10_ns: Vec<f64>,
    evaluated: usize,
    unstable: usize,
}

/// Sweeps timed between two clock readings.
const SWEEPS_PER_CHUNK: usize = 128;

fn evaluate_sweeps(arms: &[Arm<'_>], budget: Duration) -> EvaluateRun {
    let mut run = EvaluateRun::default();
    let mut first: Vec<PolicyPerformance> = Vec::new();
    let start = Instant::now();
    while run.sweep_ns.is_empty() || start.elapsed() < budget {
        let (bracket, chunk) = Bracket::around(1, || {
            let mut chunk = Vec::with_capacity(SWEEPS_PER_CHUNK);
            for _ in 0..SWEEPS_PER_CHUNK {
                let (mut sweep, mut strict, mut tol10) = ((0.0, 0), (0.0, 0), (0.0, 0));
                let mut seen = Vec::new();
                for arm in arms {
                    for &(tolerance, policy) in &arm.policies {
                        let begin = Instant::now();
                        let perf =
                            black_box(policy.evaluate(arm.matrix, None).expect("valid policy"));
                        let ns = begin.elapsed().as_nanos() as f64;
                        let n = arm.matrix.requests();
                        sweep = (sweep.0 + ns, sweep.1 + n);
                        if tolerance == 0.0 {
                            strict = (strict.0 + ns, strict.1 + n);
                        } else if (tolerance - 0.10).abs() < 1e-12 {
                            tol10 = (tol10.0 + ns, tol10.1 + n);
                        }
                        seen.push(perf);
                    }
                }
                run.evaluated += sweep.1;
                if first.is_empty() {
                    first = seen;
                } else if first != seen {
                    run.unstable += 1;
                }
                chunk.push([
                    sweep.0 / sweep.1 as f64,
                    strict.0 / strict.1 as f64,
                    tol10.0 / tol10.1 as f64,
                ]);
            }
            chunk
        });
        let column = |i: usize| -> Vec<f64> { chunk.iter().map(|c| c[i]).collect() };
        run.sweeps += chunk.len();
        run.chunk_p90_ns
            .push(bracket.time(crate::stats::quantile(&column(0), 0.90)));
        run.sweep_ns.push(bracket.time(median(&column(0))));
        run.strict_ns.push(bracket.time(median(&column(1))));
        run.tol10_ns.push(bracket.time(median(&column(2))));
        run.speeds.push(bracket.speed());
    }
    run
}

fn notes(arms: &[Arm<'_>]) -> Vec<String> {
    let mut notes = vec![format!(
        "pinned: confidence={CONFIDENCE} limits=TrialLimits::default threads={} bootstrap seed=--seed",
        nproc()
    )];
    notes.extend(arms.iter().map(|arm| {
        format!(
            "{}: {} requests x {} versions, {} candidates, {} bootstrap trials",
            arm.label,
            arm.matrix.requests(),
            arm.matrix.versions(),
            arm.candidates.len(),
            arm.trials()
        )
    }));
    notes
}

fn parity_gate(arms: &[Arm<'_>]) -> Gate {
    let diverged: usize = arms.iter().map(|a| a.diverged).sum();
    let generations: usize = arms.iter().map(|a| a.parallel_s.len()).sum();
    Gate::check(
        "rulegen_thread_parity",
        diverged == 0 && generations > 0,
        format!(
            "{generations} generations at {} threads, {diverged} differ from the 1-thread records",
            nproc()
        ),
    )
}

fn evaluate_gate(run: &EvaluateRun) -> Gate {
    Gate::check(
        "evaluate_repeatable",
        run.unstable == 0,
        format!(
            "{} sweeps, {} differ from the first",
            run.sweeps, run.unstable
        ),
    )
}

fn to_us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

fn measure(ctx: &Ctx) -> Outcome {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..BUILD_ROUNDS {
        let (bracket, seconds) = Bracket::around(1, || {
            let begin = Instant::now();
            built = Some(build());
            begin.elapsed().as_secs_f64()
        });
        setup_s.push(bracket.time(seconds));
    }
    let (asr, ic) = built.expect("at least one build");
    let mut arms = [
        Arm::new("asr", asr.matrix(), ctx.seed),
        Arm::new("ic", ic.matrix(), ctx.seed),
    ];

    let mut pair_s = Vec::new();
    let mut pair_raw_s = Vec::new();
    let mut speeds = Vec::new();
    let start = Instant::now();
    while pair_s.len() < 9 || start.elapsed() < ctx.share(0.7) {
        let (bracket, seconds) = Bracket::around(nproc(), || {
            arms.iter_mut()
                .map(|arm| arm.generate_parallel(ctx.seed))
                .sum::<f64>()
        });
        pair_s.push(bracket.time(seconds));
        pair_raw_s.push(seconds);
        speeds.push(bracket.speed());
    }
    let evaluated = evaluate_sweeps(&arms, ctx.share(0.3));
    let rss_mb = peak_rss_mb();

    let candidates: usize = arms.iter().map(|a| a.candidates.len()).sum();
    let rulegen_s = median(&pair_s);
    let sweep_us = to_us(&evaluated.sweep_ns);
    Outcome {
        attempted: candidates * (pair_s.len() + 1) + evaluated.evaluated,
        failed: 0,
        gates: vec![parity_gate(&arms), evaluate_gate(&evaluated)],
        metrics: vec![
            Metric::value("setup_s", "s", median(&setup_s)).with_samples(setup_s.len()),
            Metric::median("request_us", "us", &sweep_us),
            Metric::median("strict_us", "us", &to_us(&evaluated.strict_ns)),
            Metric::median("tol10_us", "us", &to_us(&evaluated.tol10_ns)),
            Metric::value("throughput_per_s", "1/s", candidates as f64 / rulegen_s)
                .with_samples(pair_s.len()),
            Metric::value("peak_rss_mb", "MB", rss_mb),
        ],
        detail: vec![
            Metric::value("rulegen_s", "s", rulegen_s).with_samples(pair_s.len()),
            Metric::median("evaluate_ns_per_request", "ns", &evaluated.sweep_ns),
            Metric::median("evaluate_chunk_p90_ns", "ns", &evaluated.chunk_p90_ns),
            Metric::value("rulegen_candidates", "count", candidates as f64),
            Metric::value("rulegen_s_unscaled", "s", median(&pair_raw_s))
                .with_samples(pair_raw_s.len()),
            Metric::value("clock.speed_generate", "ratio", median(&speeds))
                .with_samples(speeds.len()),
            Metric::value("clock.speed_evaluate", "ratio", median(&evaluated.speeds))
                .with_samples(evaluated.speeds.len()),
        ],
        notes: notes(&arms),
    }
}

/// `ClusterSim` requests per wall second: a seeded open-loop stream
/// over the vision matrix through the rules this run generated.
fn clustersim_rps(
    matrix: &ProfileMatrix,
    frontend: &TieredFrontend,
    seed: u64,
    budget: Duration,
) -> Metric {
    let n = 4_000;
    let requests = RequestMix::representative().sample(n, matrix.requests(), seed);
    let arrivals: Vec<_> = ArrivalProcess::poisson(200.0, seed)
        .expect("positive rate")
        .take(n)
        .zip(requests)
        .collect();
    let sim = ClusterSim::new(matrix, ClusterConfig::uniform_cpu(matrix.versions(), 8));
    let mut rps = Vec::new();
    let start = Instant::now();
    while rps.len() < 3 || start.elapsed() < budget {
        let begin = Instant::now();
        let report = black_box(sim.run(frontend, &arrivals));
        assert_eq!(report.served, n, "the simulator serves every request");
        rps.push(n as f64 / begin.elapsed().as_secs_f64());
    }
    Metric::value("serve.clustersim.requests_per_s", "1/s", median(&rps))
        .with_samples(rps.len() * n)
}

fn trace(ctx: &Ctx) -> Outcome {
    let mut recorder = Recorder::new(Instant::now());
    let root = recorder.open("workloads.build", None, 0);
    let asr = recorder.span("workloads.build.asr", Some(root), 0, || {
        AsrWorkload::build(CorpusConfig::evaluation().with_utterances(UTTERANCES))
    });
    let ic = recorder.span("workloads.build.ic", Some(root), 0, || {
        VisionWorkload::build(DatasetConfig::evaluation().with_images(IMAGES), Device::Cpu)
    });
    recorder.close(root);
    let build_s = recorder.spans()[root as usize].duration_ns() as f64 / 1e9;

    // The model substrates behind the two matrices, one call at a time.
    let version = &asr.versions()[asr.versions().len() / 2];
    let utterances = &asr.engine().corpus().utterances()[..40];
    let begin = Instant::now();
    for utterance in utterances {
        black_box(asr.engine().decode(utterance, version));
    }
    let decode_ms = begin.elapsed().as_secs_f64() * 1e3 / utterances.len() as f64;
    let model = &ic.service().zoo()[ic.service().zoo().len() / 2];
    let images = ic.service().dataset().images();
    let begin = Instant::now();
    for image in images {
        black_box(ic.service().classify(image, model, Device::Cpu));
    }
    let infer_us = begin.elapsed().as_secs_f64() * 1e6 / images.len() as f64;

    // Generations at 1 and at `nproc` threads, alternating.
    let mut arms = [
        Arm::new("asr", asr.matrix(), ctx.seed),
        Arm::new("ic", ic.matrix(), ctx.seed),
    ];
    let mut sequential_s: [Vec<f64>; 2] = [vec![arms[0].sequential_s], vec![arms[1].sequential_s]];
    let start = Instant::now();
    let mut round = 0;
    while round < 3 || start.elapsed() < ctx.share(0.6) {
        for (i, arm) in arms.iter_mut().enumerate() {
            let span = recorder.open("core.rulegen.generate", None, round);
            arm.generate_parallel(ctx.seed);
            recorder.close(span);
            sequential_s[i].push(generate(arm.matrix, &arm.candidates, ctx.seed, 1).0);
        }
        round += 1;
    }
    let span = recorder.open("core.policy.evaluate_sweeps", None, 0);
    let evaluated = evaluate_sweeps(&arms, ctx.share(0.1));
    recorder.close(span);

    let ic_generator = generate(ic.matrix(), &arms[1].candidates, ctx.seed, nproc()).1;
    let frontend = TieredFrontend::new(
        Objective::all()
            .map(|o| {
                ic_generator
                    .generate(&DEMO_TIERS, o)
                    .expect("feasible tiers")
            })
            .collect(),
    );
    let clustersim = clustersim_rps(ic.matrix(), &frontend, ctx.seed, ctx.share(0.1));

    let parallel = |i: usize| median(&arms[i].parallel_s);
    let pair_s = parallel(0) + parallel(1);
    let candidates: usize = arms.iter().map(|a| a.candidates.len()).sum();
    let trials: usize = arms.iter().map(Arm::trials).sum();
    let generations: usize = arms.iter().map(|a| a.parallel_s.len()).sum();
    let metrics = vec![
        Metric::value("core.rulegen.asr_s", "s", parallel(0))
            .with_samples(arms[0].parallel_s.len()),
        Metric::value("core.rulegen.ic_s", "s", parallel(1)).with_samples(arms[1].parallel_s.len()),
        Metric::value(
            "core.rulegen.candidates_per_s",
            "1/s",
            candidates as f64 / pair_s,
        )
        .with_samples(generations),
        Metric::value(
            "core.rulegen.thread_speedup_asr",
            "ratio",
            median(&sequential_s[0]) / parallel(0),
        )
        .with_samples(sequential_s[0].len()),
        Metric::value(
            "core.rulegen.thread_speedup_ic",
            "ratio",
            median(&sequential_s[1]) / parallel(1),
        )
        .with_samples(sequential_s[1].len()),
        Metric::value(
            "stats.bootstrap.trials_per_s",
            "1/s",
            trials as f64 / pair_s,
        )
        .with_samples(generations),
        Metric::median("core.policy.evaluate_ns", "ns", &evaluated.sweep_ns),
        Metric::value("asr.decode_ms_per_utt", "ms", decode_ms).with_samples(utterances.len()),
        Metric::value("vision.infer_us_per_image", "us", infer_us).with_samples(images.len()),
        Metric::value("workloads.build_s", "s", build_s),
        clustersim,
        Metric::value("trace.spans", "count", recorder.spans().len() as f64),
    ];
    recorder
        .write_jsonl(&ctx.trace_path("rulegen_offline"))
        .expect("write trace file");
    Outcome {
        attempted: candidates * generations + evaluated.evaluated,
        failed: 0,
        gates: vec![parity_gate(&arms), evaluate_gate(&evaluated)],
        metrics,
        detail: Vec::new(),
        notes: notes(&arms),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        trace(ctx)
    } else {
        measure(ctx)
    }
}

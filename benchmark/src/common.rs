//! What every workload shares: the run's parameters, the repeated
//! set-up of the in-process serving workloads, and the process's
//! memory high-water mark.

use crate::clock::Bracket;
use crate::deploy::{boot_service, Knobs};
use crate::gates::{self, billed, Billed, Tally};
use crate::gen::{Check, Plan};
use crate::inproc::Caller;
use crate::report::{Gate, Metric};
use crate::stats::median;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_net::server::HttpHandler;
use tt_net::ComputeService;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Shapes the inputs only: request lists, arrival schedules,
    /// bootstrap resample streams.
    pub seed: u64,
    /// Measured seconds, divided among the workload's phases.
    pub seconds: f64,
    /// The traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `share` of the measured time.
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir.join(format!("trace-{workload}.jsonl"))
    }
}

/// Times an in-process set-up (about 80 ms) is repeated; `setup_s` is
/// the median. The first rounds of a fresh process pay its page
/// faults, so there are enough rounds for the median to sit past them.
pub const SETUP_ROUNDS: usize = 11;

/// An in-process service ready to measure, and what getting it ready
/// showed.
pub struct Ready {
    pub service: Arc<ComputeService>,
    /// Time of each set-up round (boot + checked warm-up), scaled to
    /// the reference clock.
    pub setup_s: Vec<f64>,
    /// What each round's service billed for the same warm-up.
    pub billed_rounds: Vec<Billed>,
    /// 200s the kept service has answered so far, per tier.
    pub tally: Tally,
    pub attempted: usize,
    pub failed: usize,
    /// Strict-tier replies that were semantic cache matches.
    pub strict_semantic: usize,
}

impl Ready {
    pub fn new(service: Arc<ComputeService>) -> Ready {
        Ready {
            service,
            setup_s: Vec::new(),
            billed_rounds: Vec::new(),
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
            strict_semantic: 0,
        }
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// One checked sweep of `plan` on `service`, folded into `ready`.
pub fn checked_sweep(ready: &mut Ready, plan: &Plan, check: Check) {
    let mut caller = Caller::default();
    for planned in &plan.requests {
        let (ok, semantic) = caller.serve_checked(&ready.service, planned, check);
        let tier = &plan.tiers[usize::from(planned.tier)];
        ready.attempted += 1;
        if ok {
            ready.tally.add(tier, 1);
        } else {
            ready.failed += 1;
        }
        if semantic && tier.tol_milli == 0 {
            ready.strict_semantic += 1;
        }
    }
}

/// Set an in-process serving workload up [`SETUP_ROUNDS`] times — boot
/// the pinned deployment (matrix, rule generation, pool spawn), then
/// serve one checked sweep of the warm-up plan — and keep the last
/// service. `make_plan` sees a throw-away service first so plans are
/// built outside the timed set-up.
pub fn ready_inproc(
    knobs: impl Fn() -> Knobs,
    make_plan: impl FnOnce(&ComputeService) -> Plan,
    check: Check,
) -> (Ready, Plan) {
    let warm_plan = make_plan(&boot_service(&knobs()));
    let mut setup_s = Vec::new();
    let mut billed_rounds = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        let (bracket, (seconds, ready)) = Bracket::around(1, || {
            let begin = Instant::now();
            let mut ready = Ready::new(boot_service(&knobs()));
            checked_sweep(&mut ready, &warm_plan, check);
            (begin.elapsed().as_secs_f64(), ready)
        });
        setup_s.push(bracket.time(seconds));
        billed_rounds.push(billed(&ready.service));
        kept = Some(ready);
    }
    let mut ready = kept.expect("at least one set-up round");
    ready.setup_s = setup_s;
    ready.billed_rounds = billed_rounds;
    (ready, warm_plan)
}

/// The gates every in-process serving run ends with.
pub fn serving_gates(ready: &Ready, timed_failed: usize) -> Vec<Gate> {
    vec![
        Gate::check(
            "answers_match_plan",
            ready.failed == 0 && timed_failed == 0,
            format!(
                "{} checked replies, {} mismatched; {timed_failed} timed replies not 200",
                ready.attempted, ready.failed
            ),
        ),
        gates::billing_matches_counts(&ready.service, &ready.tally),
        gates::billing_repeatable(&ready.billed_rounds),
        gates::tolerance_honoured(&ready.service),
        gates::nothing_dropped(&ready.service),
    ]
}

/// The host's median speed over `brackets` relative to the reference
/// clock (1.0 = the reference host's base clock).
pub fn clock_speed<'a>(brackets: impl Iterator<Item = &'a Bracket>) -> Metric {
    let speeds: Vec<f64> = brackets.map(Bracket::speed).collect();
    Metric::value("clock.speed", "ratio", median(&speeds)).with_samples(speeds.len())
}

/// The reactor's idle heartbeat, which in-process callers must supply
/// themselves: seals telemetry windows and runs the control loops.
pub fn heartbeat(service: &ComputeService) {
    HttpHandler::on_idle(service);
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

//! The request path driven in-process: bytes in, bytes out, no
//! sockets.
//!
//! One request is `RequestAssembler::push` + `next_request` (parse),
//! `HttpHandler::handle` on the `ComputeService` (admission, cache,
//! route, execute, settle, observe), and `write_response_with` into a
//! `Vec<u8>` (serialize) — the same three calls, on the same bytes,
//! the reactor makes per request.

use crate::clock::Bracket;
use crate::gen::{body_int, Check, Plan, Planned};
use crate::spans::Recorder;
use std::sync::atomic::AtomicBool;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tt_net::http::{write_response_with, Limits, Request, RequestAssembler};
use tt_net::server::{HttpHandler, Reply};
use tt_net::ComputeService;

/// One caller's reusable parse and serialize buffers.
pub struct Caller {
    assembler: RequestAssembler,
    out: Vec<u8>,
    shutdown: AtomicBool,
}

impl Default for Caller {
    fn default() -> Self {
        Caller {
            assembler: RequestAssembler::new(Limits::default()),
            out: Vec::with_capacity(1024),
            shutdown: AtomicBool::new(false),
        }
    }
}

impl Caller {
    pub fn parse(&mut self, bytes: &[u8]) -> Request {
        self.assembler.push(bytes);
        self.assembler
            .next_request()
            .expect("planned requests are well-formed")
            .expect("planned requests are complete")
    }

    pub fn handle(&self, service: &ComputeService, request: &Request) -> Reply {
        service.handle(request, &self.shutdown)
    }

    pub fn serialize(&mut self, reply: &Reply) {
        self.out.clear();
        write_response_with(
            &mut self.out,
            reply.status,
            reply.reason,
            reply.content_type,
            &reply.headers,
            reply.body.as_bytes(),
            true,
        )
        .expect("serializing to a Vec cannot fail");
    }

    /// One request through the whole path; returns the status.
    pub fn serve(&mut self, service: &ComputeService, bytes: &[u8]) -> u16 {
        let request = self.parse(bytes);
        let reply = self.handle(service, &request);
        self.serialize(&reply);
        std::hint::black_box(&self.out);
        reply.status
    }

    /// [`Caller::serve`] with a span around each of the three calls.
    pub fn serve_traced(
        &mut self,
        service: &ComputeService,
        bytes: &[u8],
        recorder: &mut Recorder,
        request_id: u64,
    ) -> u16 {
        let root = recorder.open("path.request", None, request_id);
        let request = recorder.span("net.http.parse", Some(root), request_id, || {
            self.parse(bytes)
        });
        let reply = recorder.span("net.service.handle", Some(root), request_id, || {
            self.handle(service, &request)
        });
        recorder.span("net.http.serialize", Some(root), request_id, || {
            self.serialize(&reply)
        });
        recorder.close(root);
        reply.status
    }

    /// Serve one request and compare the serialized reply with the
    /// plan. Returns `(ok, semantic cache match)`.
    pub fn serve_checked(
        &mut self,
        service: &ComputeService,
        planned: &Planned,
        check: Check,
    ) -> (bool, bool) {
        let status = self.serve(service, &planned.bytes);
        let semantic = self
            .out
            .windows(b"X-Cache-Match: semantic".len())
            .any(|w| w == b"X-Cache-Match: semantic");
        let ok = status == 200
            && (check == Check::Status
                || body_int(&self.out, "version") == Some(u64::from(planned.expect_version)));
        (ok, semantic)
    }
}

/// Samples from one caller sweeping a plan repeatedly.
#[derive(Debug, Default)]
pub struct SingleRun {
    /// Mean µs per request of each complete sweep of the plan.
    pub pass_means_us: Vec<f64>,
    /// The clock readings around each sweep.
    pub brackets: Vec<Bracket>,
    /// Per-request time in ns of the first [`RECORDED_SWEEPS`] sweeps;
    /// sample `i` served request `i % plan.len()`.
    pub per_request_ns: Vec<u32>,
    /// Requests served, recorded or not.
    pub served: usize,
    pub failed: usize,
}

impl SingleRun {
    /// Sweep means scaled to the reference clock.
    pub fn scaled_means_us(&self) -> Vec<f64> {
        self.pass_means_us
            .iter()
            .zip(&self.brackets)
            .map(|(mean, bracket)| bracket.time(*mean))
            .collect()
    }

    /// The `q` quantile of per-request time within each sweep, µs at
    /// the reference clock. The median of these is a tail figure that
    /// a disturbed stretch of the run cannot set on its own, as it
    /// would a quantile taken over all requests at once.
    pub fn sweep_quantiles_us(&self, plan: &Plan, q: f64) -> Vec<f64> {
        self.per_request_ns
            .chunks(plan.requests.len())
            .zip(&self.brackets)
            .map(|(sweep, bracket)| {
                let us: Vec<f64> = sweep.iter().map(|ns| f64::from(*ns) / 1e3).collect();
                bracket.time(crate::stats::quantile(&us, q))
            })
            .collect()
    }

    /// [`SingleRun::request_us`] of the tiers at `tol_milli`, whatever
    /// their objective.
    pub fn tier_us(&self, plan: &Plan, tol_milli: u32) -> Vec<f64> {
        self.request_us(plan, |p| {
            plan.tiers[usize::from(p.tier)].tol_milli == tol_milli
        })
    }

    /// Per-request times in µs, scaled to the reference clock, of the
    /// requests `keep` selects.
    pub fn request_us(&self, plan: &Plan, keep: impl Fn(&Planned) -> bool) -> Vec<f64> {
        let sweep = plan.requests.len();
        self.per_request_ns
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(&plan.requests[i % sweep]))
            .map(|(i, ns)| self.brackets[i / sweep].time(f64::from(*ns) / 1e3))
            .collect()
    }
}

/// Sweeps whose per-request times are kept. A fixed number, reached in
/// every full-length run, so that what the harness keeps — a fifth of
/// the process's memory, were it every sweep — does not grow with the
/// host's clock.
pub const RECORDED_SWEEPS: usize = 64;

/// One caller, one thread: sweep `plan` until `duration` has passed
/// (always at least one sweep). `between` runs after every sweep,
/// outside the timed interval.
pub fn run_single(
    service: &ComputeService,
    plan: &Plan,
    duration: Duration,
    mut between: impl FnMut(),
) -> SingleRun {
    let mut caller = Caller::default();
    let mut run = SingleRun {
        per_request_ns: Vec::with_capacity(RECORDED_SWEEPS * plan.requests.len()),
        ..SingleRun::default()
    };
    let start = Instant::now();
    loop {
        let record = run.brackets.len() < RECORDED_SWEEPS;
        let (bracket, pass) = Bracket::around(1, || {
            let pass_start = Instant::now();
            let mut prev = pass_start;
            for planned in &plan.requests {
                let status = caller.serve(service, &planned.bytes);
                // Read the clock per request whether or not the sweep
                // is recorded, so every sweep costs the same.
                let now = Instant::now();
                if record {
                    run.per_request_ns.push((now - prev).as_nanos() as u32);
                }
                prev = now;
                run.served += 1;
                run.failed += usize::from(status != 200);
            }
            prev - pass_start
        });
        run.brackets.push(bracket);
        run.pass_means_us
            .push(pass.as_secs_f64() * 1e6 / plan.requests.len() as f64);
        between();
        if start.elapsed() >= duration {
            return run;
        }
    }
}

/// Aggregate throughput of `threads` callers sharing one service.
#[derive(Debug, Default)]
pub struct SharedRun {
    /// Requests per second of each pass, all threads together.
    pub pass_rps: Vec<f64>,
    /// The clock readings around each pass.
    pub brackets: Vec<Bracket>,
    pub attempted: usize,
    pub failed: usize,
    /// Requests answered 200, by index into the plan's tiers.
    pub served_by_tier: Vec<usize>,
}

impl SharedRun {
    /// Pass throughputs scaled to the reference clock.
    pub fn scaled_rps(&self) -> Vec<f64> {
        self.pass_rps
            .iter()
            .zip(&self.brackets)
            .map(|(rps, bracket)| bracket.rate(*rps))
            .collect()
    }
}

/// `threads` callers on one service: passes of `pass` wall time each,
/// started together on a barrier, until `duration` has passed.
pub fn run_shared(
    service: &ComputeService,
    plan: &Plan,
    threads: usize,
    duration: Duration,
    pass: Duration,
    mut between: impl FnMut(),
) -> SharedRun {
    assert!(
        (1..=crate::deploy::nproc()).contains(&threads),
        "more callers than hardware threads"
    );
    let mut run = SharedRun::default();
    let start = Instant::now();
    while run.pass_rps.is_empty() || start.elapsed() < duration {
        let barrier = Barrier::new(threads);
        let (bracket, results): (_, Vec<(Vec<usize>, usize, Duration)>) =
            Bracket::around(threads, || {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..threads)
                        .map(|t| {
                            let barrier = &barrier;
                            scope.spawn(move || {
                                let mut caller = Caller::default();
                                let mut index = t * plan.requests.len() / threads;
                                let mut served = vec![0usize; plan.tiers.len()];
                                let mut failed = 0;
                                barrier.wait();
                                let begin = Instant::now();
                                while begin.elapsed() < pass {
                                    // Check the clock once per 32 requests.
                                    for _ in 0..32 {
                                        let planned = &plan.requests[index % plan.requests.len()];
                                        index += 1;
                                        if caller.serve(service, &planned.bytes) == 200 {
                                            served[usize::from(planned.tier)] += 1;
                                        } else {
                                            failed += 1;
                                        }
                                    }
                                }
                                (served, failed, begin.elapsed())
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("caller thread panicked"))
                        .collect()
                })
            });
        run.brackets.push(bracket);
        run.pass_rps.push(
            results
                .iter()
                .map(|(served, _, wall)| served.iter().sum::<usize>() as f64 / wall.as_secs_f64())
                .sum(),
        );
        run.served_by_tier.resize(plan.tiers.len(), 0);
        for (served, failed, _) in &results {
            for (total, n) in run.served_by_tier.iter_mut().zip(served) {
                *total += n;
            }
            run.attempted += served.iter().sum::<usize>() + failed;
            run.failed += failed;
        }
        between();
    }
    run
}

//! The benchmark's own load generator.
//!
//! One process, at most `nproc` generator threads, at most `nproc`
//! open connections. Inputs (the request list and the arrival
//! schedule) are pure functions of the command-line seed.
//!
//! * **Closed loop** — `nproc` threads, each with one keep-alive
//!   connection, sending its next request when the previous reply
//!   lands: a fixed population of callers that wait.
//! * **Open loop** — the same `nproc` connections pull the next due
//!   request from one seeded Poisson schedule. Latency is measured
//!   from the request's *due* time, so a stall charges every request
//!   it delays, and how late the generator sent each one is reported
//!   alongside.

use crate::deploy::nproc;
use crate::spans::Recorder;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tt_core::{Objective, ProfileMatrix, ServiceRequest};
use tt_net::http::{read_response, Limits, Response};
use tt_serve::TieredFrontend;
use tt_sim::ArrivalProcess;
use tt_workloads::{Keyspace, RequestMix};

/// One advertised (objective, tolerance) tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    pub objective: Objective,
    pub tol_milli: u32,
}

impl Tier {
    pub fn of(request: &ServiceRequest) -> Tier {
        Tier {
            objective: request.objective,
            tol_milli: (request.tolerance.value() * 1000.0).round() as u32,
        }
    }

    /// The key the service's billing and trace maps use.
    pub fn key(&self) -> (String, u32) {
        (self.objective.to_string(), self.tol_milli)
    }
}

/// One request of a plan, rendered once so the timed loops only copy
/// bytes.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Index into [`Plan::tiers`].
    pub tier: u8,
    /// The version the deployed rules answer this request with when
    /// nothing (cache, fault, brownout) intervenes.
    pub expect_version: u8,
    pub bytes: Vec<u8>,
}

/// A seeded request list.
#[derive(Debug, Clone)]
pub struct Plan {
    pub requests: Vec<Planned>,
    pub tiers: Vec<Tier>,
}

/// The wire form of one request: the paper's two annotation headers,
/// the payload index, and a body naming the payload. Paraphrase 0 is
/// the canonical body; other paraphrases ask the same question in
/// different bytes, so the cache sees a semantic, not a bit-equal,
/// match.
pub fn render(request: &ServiceRequest, paraphrase: usize) -> Vec<u8> {
    let body = match paraphrase {
        0 => format!("payload-{}", request.payload),
        n => format!("payload-{}~{n}", request.payload),
    };
    format!(
        "POST /compute HTTP/1.1\r\nTolerance: {}\r\nObjective: {}\r\nPayload: {}\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        request.tolerance.value(),
        request.objective,
        request.payload,
        body.len(),
        body,
    )
    .into_bytes()
}

/// Draw `n` requests from the representative consumer mix with payload
/// indices following `keyspace`, bodies cycling through `paraphrases`
/// wordings (1 = always canonical), and resolve what the deployed
/// rules answer each with.
pub fn plan(
    seed: u64,
    n: usize,
    keyspace: &Keyspace,
    paraphrases: usize,
    matrix: &ProfileMatrix,
    frontend: &TieredFrontend,
) -> Plan {
    let sampled = RequestMix::representative().sample_keyed(n, matrix.requests(), seed, keyspace);
    let mut tiers: Vec<Tier> = Vec::new();
    let requests = sampled
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let tier = Tier::of(request);
            let index = tiers.iter().position(|t| *t == tier).unwrap_or_else(|| {
                tiers.push(tier);
                tiers.len() - 1
            });
            let outcome = frontend.route(request).execute(matrix, request.payload);
            Planned {
                tier: index as u8,
                expect_version: outcome.answered_by as u8,
                bytes: render(request, i % paraphrases.max(1)),
            }
        })
        .collect();
    Plan { requests, tiers }
}

/// Seeded Poisson due times for `n` requests at `rate_per_sec`.
pub fn schedule(rate_per_sec: f64, seed: u64, n: usize) -> Vec<Duration> {
    ArrivalProcess::poisson(rate_per_sec, seed)
        .expect("positive rate")
        .take(n)
        .map(|t| Duration::from_micros(t.as_micros()))
        .collect()
}

/// The integer following `"key": ` in a rendered JSON body.
pub fn body_int(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let pattern = format!("\"{key}\":");
    let rest = text[text.find(&pattern)? + pattern.len()..].trim_start();
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// What the generator keeps per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Which request of the plan this was.
    pub index: u32,
    pub tier: u8,
    /// A 200 whose answer matched the plan.
    pub ok: bool,
    /// Completion minus due time (open loop) or minus send time
    /// (closed loop), ns.
    pub latency_ns: u64,
    /// Send minus due time, ns; 0 in the closed loop.
    pub late_ns: u64,
    /// The origin (due or send time) since the phase began, ns.
    pub origin_ns: u64,
    /// The reply was a semantic (not bit-exact) cache match.
    pub semantic_hit: bool,
}

/// Outcome of one generator phase.
#[derive(Debug, Default)]
pub struct LoopReport {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// The phase's spans, when it ran traced.
    pub recorder: Option<Recorder>,
}

impl LoopReport {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    /// Non-200, refused, transport error, or an answer that differs
    /// from the plan.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    pub fn rps(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall.as_secs_f64()
    }

    /// Latencies of successful requests in µs, optionally of one tier.
    /// A failed request has no latency: it misses every figure.
    pub fn latencies_us(&self, tier: Option<u8>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && tier.is_none_or(|t| t == s.tier))
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect()
    }

    /// The `q` quantile of successful latencies, µs, within each
    /// `window` of the phase, by origin. The median of these is a tail
    /// figure one stall cannot set on its own.
    pub fn windowed_quantiles_us(&self, window: Duration, q: f64) -> Vec<f64> {
        let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for s in self.samples.iter().filter(|s| s.ok) {
            windows
                .entry(s.origin_ns / window.as_nanos() as u64)
                .or_default()
                .push(s.latency_ns as f64 / 1e3);
        }
        windows
            .into_values()
            .map(|us| crate::stats::quantile(&us, q))
            .collect()
    }

    /// Successful completions per second over each run of `block`
    /// consecutive completions. The median of these is a throughput
    /// that a stall of the host, which empties one block, cannot set.
    pub fn block_rates(&self, block: usize) -> Vec<f64> {
        let mut done: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.origin_ns + s.latency_ns)
            .collect();
        done.sort_unstable();
        done.iter()
            .step_by(block)
            .zip(done.iter().step_by(block).skip(1))
            .map(|(from, to)| block as f64 * 1e9 / (to - from).max(1) as f64)
            .collect()
    }

    pub fn lateness_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.late_ns as f64 / 1e3)
            .collect()
    }

    fn absorb(&mut self, other: LoopReport) {
        self.samples.extend(other.samples);
        if let (Some(mine), Some(theirs)) = (&mut self.recorder, other.recorder) {
            mine.absorb(theirs);
        }
    }
}

/// Failed requests as a share of attempted ones.
pub fn failed_share(attempted: usize, failed: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One keep-alive connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    limits: Limits,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            limits: Limits::default(),
        })
    }

    /// Send one pre-rendered request and read its reply; `None` on any
    /// transport or framing error.
    pub fn roundtrip(&mut self, bytes: &[u8]) -> Option<Response> {
        self.writer.write_all(bytes).ok()?;
        read_response(&mut self.reader, &self.limits).ok()
    }
}

/// How strictly a reply is compared with the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// 200 and answered by the planned version.
    Version,
    /// 200 only — for cache workloads, where a stored answer from an
    /// admissible tier may legitimately come from another version.
    Status,
}

/// Judge one reply against its planned request.
pub fn judge(reply: Option<&Response>, planned: &Planned, check: Check) -> (bool, bool) {
    let Some(reply) = reply else {
        return (false, false);
    };
    let semantic = reply
        .header("x-cache-match")
        .is_some_and(|v| v.eq_ignore_ascii_case("semantic"));
    let ok = reply.status == 200
        && (check == Check::Status
            || body_int(&reply.body, "version") == Some(u64::from(planned.expect_version)));
    (ok, semantic)
}

/// The generator may never out-number the host: more threads than
/// hardware threads measures the scheduler, not the stack.
fn assert_within_host(threads: usize) {
    assert!(
        (1..=nproc()).contains(&threads),
        "generator wants {threads} threads/connections on a {}-thread host",
        nproc()
    );
}

/// How a generator phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    /// Closed loop for a wall-clock duration, cycling through the plan.
    ClosedFor(Duration),
    /// Closed loop over the first `n` requests of the plan (cycled).
    ClosedCount(usize),
    /// Open loop: request `i` of the plan is due at `due[i]`.
    Open(&'a [Duration]),
}

/// Run one generator phase: `threads` callers, one keep-alive
/// connection each, pulling request indices from one shared counter.
/// With a `trace_anchor`, every request leaves a `wire.request` span
/// (origin to reply) with `gen.late` (origin to send) and
/// `wire.roundtrip` (send to reply) under it, timed from the anchor;
/// the origin is the due time in the open loop and the send time in
/// the closed one.
pub fn drive(
    addr: SocketAddr,
    plan: &Plan,
    threads: usize,
    pace: Pace<'_>,
    check: Check,
    trace_anchor: Option<Instant>,
) -> LoopReport {
    assert_within_host(threads);
    if let Pace::Open(due) = pace {
        assert!(
            due.len() <= plan.requests.len(),
            "a due time without a request"
        );
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut report = LoopReport {
        recorder: trace_anchor.map(Recorder::new),
        ..LoopReport::default()
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = LoopReport {
                        recorder: trace_anchor.map(Recorder::new),
                        ..LoopReport::default()
                    };
                    let mut client = Client::connect(addr).ok();
                    loop {
                        if matches!(pace, Pace::ClosedFor(d) if start.elapsed() >= d) {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let due = match pace {
                            Pace::ClosedFor(_) => None,
                            Pace::ClosedCount(n) if index < n => None,
                            Pace::Open(due) if index < due.len() => Some(due[index]),
                            _ => break,
                        };
                        let planned = &plan.requests[index % plan.requests.len()];
                        if let Some(wait) = due.and_then(|d| d.checked_sub(start.elapsed())) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let reply = client.as_mut().and_then(|c| c.roundtrip(&planned.bytes));
                        let done = start.elapsed();
                        let origin = due.unwrap_or(sent);
                        let (ok, semantic_hit) = judge(reply.as_ref(), planned, check);
                        if reply.is_none() {
                            // A broken connection is replaced, never
                            // added to: the count stays at `threads`.
                            client = Client::connect(addr).ok();
                        }
                        local.samples.push(Sample {
                            index: index as u32,
                            tier: planned.tier,
                            ok,
                            latency_ns: done.saturating_sub(origin).as_nanos() as u64,
                            late_ns: sent.saturating_sub(origin).as_nanos() as u64,
                            origin_ns: origin.as_nanos() as u64,
                            semantic_hit,
                        });
                        if let (Some(recorder), Some(anchor)) = (&mut local.recorder, trace_anchor)
                        {
                            let ns = |d: Duration| (start - anchor + d).as_nanos() as u64;
                            let request = index as u64;
                            let root =
                                recorder.push("wire.request", None, request, ns(origin), ns(done));
                            recorder.push("gen.late", Some(root), request, ns(origin), ns(sent));
                            recorder.push(
                                "wire.roundtrip",
                                Some(root),
                                request,
                                ns(sent),
                                ns(done),
                            );
                        }
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            report.absorb(worker.join().expect("generator thread panicked"));
        }
    });
    report.wall = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_net::demo::{demo_frontend, demo_matrix};

    fn demo() -> (ProfileMatrix, TieredFrontend) {
        let matrix = demo_matrix(60, 5);
        let frontend = demo_frontend(&matrix, 5);
        (matrix, frontend)
    }

    #[test]
    fn plans_and_schedules_are_pure_functions_of_the_seed() {
        let (matrix, frontend) = demo();
        let bytes =
            |p: &Plan| -> Vec<Vec<u8>> { p.requests.iter().map(|r| r.bytes.clone()).collect() };
        let a = plan(9, 200, &Keyspace::Uniform, 1, &matrix, &frontend);
        let b = plan(9, 200, &Keyspace::Uniform, 1, &matrix, &frontend);
        let c = plan(10, 200, &Keyspace::Uniform, 1, &matrix, &frontend);
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(a.tiers, b.tiers);
        assert_ne!(bytes(&a), bytes(&c));

        let due = schedule(800.0, 9, 500);
        assert_eq!(due, schedule(800.0, 9, 500));
        assert_ne!(due, schedule(800.0, 10, 500));
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    }

    #[test]
    fn rendered_requests_carry_the_annotations_and_parse_back() {
        let (matrix, frontend) = demo();
        let p = plan(1, 20, &Keyspace::Sequential, 3, &matrix, &frontend);
        let wire = String::from_utf8(p.requests[3].bytes.clone()).unwrap();
        assert!(wire.starts_with("POST /compute HTTP/1.1\r\n"));
        assert!(wire.contains("Payload: 3\r\n"));
        assert!(
            wire.ends_with("\r\n\r\npayload-3"),
            "request 3 is paraphrase 0"
        );
        assert!(p.requests[4].bytes.ends_with(b"payload-4~1"));
        let mut assembler = tt_net::RequestAssembler::new(Limits::default());
        assembler.push(wire.as_bytes());
        let request = assembler.next_request().unwrap().unwrap();
        assert_eq!(request.header("payload"), Some("3"));
        assert!(assembler.is_empty());
    }

    #[test]
    fn a_refusal_counts_as_a_failure_and_has_no_latency() {
        let sample = |ok| Sample {
            index: 0,
            tier: 0,
            ok,
            latency_ns: 2_000,
            late_ns: 0,
            origin_ns: 0,
            semantic_hit: false,
        };
        let report = LoopReport {
            samples: vec![sample(true), sample(false), sample(true), sample(false)],
            wall: Duration::from_secs(1),
            recorder: None,
        };
        assert_eq!(report.attempted(), 4);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.latencies_us(None), vec![2.0, 2.0]);
        assert_eq!(report.rps(), 2.0);
        assert_eq!(failed_share(report.attempted(), report.failed()), 0.5);
        assert_eq!(failed_share(0, 0), 0.0);

        let planned = Planned {
            tier: 0,
            expect_version: 2,
            bytes: Vec::new(),
        };
        let reply = |status: u16, version: u8| Response {
            status,
            headers: Vec::new(),
            body: format!("{{\n  \"version\": {version},\n}}").into_bytes(),
        };
        assert_eq!(judge(None, &planned, Check::Version), (false, false));
        assert!(!judge(Some(&reply(429, 2)), &planned, Check::Version).0);
        assert!(!judge(Some(&reply(200, 1)), &planned, Check::Version).0);
        assert!(judge(Some(&reply(200, 1)), &planned, Check::Status).0);
        assert!(judge(Some(&reply(200, 2)), &planned, Check::Version).0);
    }

    #[test]
    fn a_stall_sets_one_block_rate_not_the_median() {
        // One completion per ms, and a 500 ms stall after the 250th.
        let samples = (0..1000u64)
            .map(|i| Sample {
                index: i as u32,
                tier: 0,
                ok: true,
                latency_ns: 1_000_000,
                late_ns: 0,
                origin_ns: (i + if i >= 250 { 500 } else { 0 }) * 1_000_000,
                semantic_hit: false,
            })
            .collect();
        let report = LoopReport {
            samples,
            wall: Duration::from_millis(1500),
            recorder: None,
        };
        let rates = report.block_rates(100);
        assert_eq!(rates.len(), 9, "the last 99 completions fill no block");
        assert_eq!(rates.iter().filter(|r| **r == 1000.0).count(), 8);
        assert_eq!(crate::stats::median(&rates), 1000.0);
        assert!(report.rps() < 700.0);
    }

    #[test]
    fn body_ints_parse_from_rendered_json() {
        let body = b"{\n  \"answered_by\": \"fast\",\n  \"version\": 12,\n  \"payload\": 7\n}";
        assert_eq!(body_int(body, "version"), Some(12));
        assert_eq!(body_int(body, "payload"), Some(7));
        assert_eq!(body_int(body, "missing"), None);
    }
}

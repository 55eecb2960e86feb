//! The HTTP server: binding, routing, and graceful shutdown.
//!
//! [`Server::run`] drives the epoll reactor (`crate::reactor`), so the
//! server is Linux-only; elsewhere it returns an `Unsupported` error.
//! The reactor multiplexes every connection on one event-loop thread,
//! hands complete requests to a bounded job queue, and answers `503`
//! inline when that queue is full — load shedding at the front door,
//! mirroring what the circuit breakers do per model pool behind it.
//! Graceful shutdown ([`ShutdownHandle::initiate`], or `POST /drain`)
//! stops accepting, switches every response to `Connection: close`,
//! and returns only once every in-flight request has its answer.
//!
//! Routes: `POST /compute` (the paper's API), `GET /healthz` (which
//! degrades to `503` naming the tiers the SLO sentinel rules out of
//! contract), `GET /stats`, `GET /metrics`, `GET /trace/recent`,
//! `POST /drain`. The event loop doubles as the sentinel's heartbeat:
//! every ~2ms it ticks the sliding SLO window.

use crate::admission::{AdmissionDecision, BrownoutLevel, InFlight};
use crate::doc::{capacity_object, events_document, windows_document};
use crate::http::{
    encode_response, HeaderValue, Limits, Request, RULES_EPOCH_HEADER, TRACE_ID_HEADER,
};
use crate::metrics::{admission_object, metrics_document, supervisor_object};
use crate::obs::{CacheEvent, Observability};
use crate::service::{CacheAdmitTicket, CacheServed, ComputeOutcome, ComputeService, ServiceError};
use crate::stats::stats_document;
use crate::tiers::Tier;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tt_bench::perfjson::{Json, JsonObject, JsonWriter};
use tt_core::objective::Objective;
use tt_core::policy::Policy;
use tt_core::profile::ProfileMatrix;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_obs::{AdmissionOutcome, TraceHandle};
use tt_serve::frontend::{AnnotationError, Annotations};

/// How long any component of the stack waits on a peer's response
/// before giving up on the connection: the proxy tier reading from a
/// node, the load generator reading from a server. One shared bound so
/// a hung peer is detected on the same clock everywhere.
pub const PEER_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The connection-handling engine [`Server::run`] drives. There is
/// one; the type and [`ServerConfig::engine`] stay so that configs
/// naming the engine keep building.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Readiness-driven epoll reactor (`crate::reactor`): one thread
    /// multiplexes every connection, workers only ever see complete
    /// requests. Linux only.
    #[default]
    Reactor,
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Wire-parsing limits (header/body bounds).
    pub limits: Limits,
    /// Dispatch worker threads: they run the requests the handler
    /// does not promise to answer promptly.
    pub http_workers: usize,
    /// Complete requests that may wait for a dispatch worker before
    /// the server starts shedding with `503`.
    pub backlog: usize,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_timeout: Duration,
    /// Hard ceiling on reading a single request. A peer may idle
    /// between requests (bounded by `keep_alive_timeout`), but once
    /// bytes of a request start arriving the whole head+body must
    /// complete within this window — the slow-loris defense.
    pub request_deadline: Duration,
    /// Connection-handling engine; [`Engine`] has one variant.
    pub engine: Engine,
    /// Open connections the reactor holds before it stops accepting
    /// (the listener's read interest is deregistered — backpressure —
    /// until a slot frees up).
    pub max_connections: usize,
    /// How long outbound client-side reads (proxy tier → node) wait
    /// before declaring the peer hung. Defaults to
    /// [`PEER_READ_TIMEOUT`].
    pub peer_read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: Limits::default(),
            http_workers: 4,
            backlog: 64,
            keep_alive_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            engine: Engine::Reactor,
            max_connections: 1024,
            peer_read_timeout: PEER_READ_TIMEOUT,
        }
    }
}

/// Process-wide count of connections dropped because a just-accepted
/// socket refused its configuration (`set_nodelay`, timeouts, …).
/// Surfaced in `/metrics` as `socket_config_failures`; normally zero,
/// and any non-zero value means connections were closed at the door
/// rather than served with unbounded blocking reads.
static SOCKET_CONFIG_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Total connections dropped at accept time over this process's life
/// because socket configuration failed.
pub fn socket_config_failures() -> u64 {
    SOCKET_CONFIG_FAILURES.load(Ordering::Relaxed)
}

/// Count one dropped-at-the-door connection.
pub(crate) fn record_socket_config_failure() {
    SOCKET_CONFIG_FAILURES.fetch_add(1, Ordering::Relaxed);
}

/// Remote control for a running server: flip the flag and the accept
/// loop begins a graceful drain.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Begin graceful shutdown (idempotent).
    pub fn initiate(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Completion callback for [`HttpHandler::handle_async`]: invoked
/// exactly once with the finished reply, possibly from a different
/// thread after `handle_async` itself has returned.
pub type ReplySink = Box<dyn FnOnce(Reply) + Send + 'static>;

/// What a [`Server`] serves. The connection machinery is identical for
/// a compute node and for a fleet's front-tier router; only the hooks
/// below differ.
pub trait HttpHandler: Send + Sync + 'static {
    /// Answer one parsed request. `shutdown` is the server's drain
    /// flag; a handler may raise it (`POST /drain`).
    fn handle(&self, request: &Request, shutdown: &AtomicBool) -> Reply;

    /// Answer one request through a completion callback instead of a
    /// return value, freeing the calling worker while the reply is
    /// deferred (the batching compute path parks requests here until a
    /// batch forms). The default implementation completes synchronously
    /// via [`HttpHandler::handle`]; the server drives this entry point
    /// for every request.
    fn handle_async(&self, request: &Request, shutdown: &AtomicBool, done: ReplySink) {
        done(self.handle(request, shutdown));
    }

    /// Whether [`HttpHandler::handle_async`] for this request returns
    /// without blocking the calling thread — any wait deferred to a
    /// background executor. The reactor runs such requests inline on
    /// its event loop, skipping the worker hand-off (and its context
    /// switch); a handler must answer `false` for anything that may
    /// sleep, so the conservative default is that nothing is prompt.
    fn completes_promptly(&self, _request: &Request) -> bool {
        false
    }

    /// Heartbeat from the event loop (~every 2ms). Control loops live
    /// here.
    fn on_idle(&self) {}

    /// The reply written inline when the job queue refuses a request —
    /// front-door load shedding.
    fn shed(&self) -> Reply {
        Reply::json(
            503,
            "Service Unavailable",
            error_body("server saturated, retry later"),
        )
    }
}

/// A bound-but-not-yet-running server over any [`HttpHandler`] — a
/// single compute node by default, or a fleet front tier.
#[derive(Debug)]
pub struct Server<H: HttpHandler = ComputeService> {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<H>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl<H: HttpHandler> Server<H> {
    /// Bind `addr` (use port 0 for an ephemeral loopback port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<H>,
        config: ServerConfig,
    ) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            service,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can initiate graceful shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serve until shutdown is initiated, then drain in-flight
    /// connections and return. Blocking; see [`Server::spawn`] for the
    /// background variant.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener and poller errors (per-connection
    /// errors are contained); off Linux, always `Unsupported`.
    pub fn run(self) -> io::Result<()> {
        run_engine(self.listener, self.service, self.config, self.shutdown)
    }

    /// Run on a background thread; the returned handle stops and joins
    /// the server (also on drop).
    pub fn spawn(self) -> RunningServer {
        let addr = self.addr;
        let handle = self.shutdown_handle();
        let thread = std::thread::spawn(move || self.run());
        RunningServer {
            addr,
            handle,
            thread: Some(thread),
        }
    }
}

#[cfg(target_os = "linux")]
use crate::reactor::run_reactor as run_engine;

/// The reactor is built on epoll, so off Linux there is no engine.
#[cfg(not(target_os = "linux"))]
fn run_engine<H: HttpHandler>(
    _listener: TcpListener,
    _service: Arc<H>,
    _config: ServerConfig,
    _shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the server runs on an epoll reactor, and epoll is Linux-only",
    ))
}

/// A server running on a background thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Initiate shutdown, wait for the drain, and return the server
    /// thread's result.
    ///
    /// # Errors
    ///
    /// Propagates the server loop's fatal error, if any.
    pub fn stop(mut self) -> io::Result<()> {
        self.handle.initiate();
        match self.thread.take() {
            Some(t) => t.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.initiate();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One response, pre-serialization — what an [`HttpHandler`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase for the status line.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra headers beyond the ones the writer always emits.
    pub headers: Vec<(&'static str, HeaderValue)>,
}

impl Reply {
    /// A JSON reply with no extra headers.
    pub fn json(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    /// Append one extra header: a fixed label or an integer stays off
    /// the heap, a `String` is carried as is.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<HeaderValue>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }

    /// First extra header matching `name` case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A `HEAD` reply keeps its headers and drops its body.
    fn wire_body(&self, is_head: bool) -> &[u8] {
        if is_head {
            &[]
        } else {
            self.body.as_bytes()
        }
    }

    /// This reply's wire bytes, appended to `out`: how the reactor
    /// fills a completion.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, is_head: bool, keep_alive: bool) {
        encode_response(
            out,
            self.status,
            self.reason,
            self.content_type,
            &self.headers,
            self.wire_body(is_head),
            keep_alive,
        );
    }
}

impl HttpHandler for ComputeService {
    /// Route a request through this node behind the rules-epoch gate
    /// ([`epoch_gate`]); every reply carries the epoch it was served
    /// under.
    fn handle(&self, request: &Request, shutdown: &AtomicBool) -> Reply {
        let (epoch, refusal) = epoch_gate(self, request);
        refusal
            .unwrap_or_else(|| route(self, shutdown, request))
            .with_header(RULES_EPOCH_HEADER, epoch)
    }

    /// The reactor's entry point: `POST /compute` goes through the
    /// async execution path (so batched requests park in the
    /// coalescing queue instead of pinning a worker), every other
    /// route answers synchronously through [`HttpHandler::handle`].
    fn handle_async(&self, request: &Request, shutdown: &AtomicBool, done: ReplySink) {
        if request.method != "POST" || request.path() != "/compute" {
            return done(self.handle(request, shutdown));
        }
        let (epoch, refusal) = epoch_gate(self, request);
        let done: ReplySink =
            Box::new(move |reply| done(reply.with_header(RULES_EPOCH_HEADER, epoch)));
        match refusal {
            Some(reply) => done(reply),
            None => compute_async(self, request, done),
        }
    }

    /// A `POST /compute` that will park in the batcher never blocks
    /// `handle_async`: its only wait happens on a batch executor. On a
    /// service that does not batch nothing is prompt, and no header is
    /// read; on one that does, the request's tier is resolved on the
    /// live table, and every tier but a strict one parks. Malformed
    /// annotations are left to a worker.
    fn completes_promptly(&self, request: &Request) -> bool {
        if !self.batching_prompt() || request.method != "POST" || request.path() != "/compute" {
            return false;
        }
        annotations(request)
            .is_ok_and(|(tolerance, objective)| !self.resolve(objective, tolerance).strict())
    }

    /// Advance the SLO sentinel's sliding window; a window roll is the
    /// control-loop heartbeat (AIMD admission tick, supervisor
    /// judgement of the closed window).
    fn on_idle(&self) {
        if let Some(obs) = self.observability() {
            if obs.tick() {
                self.on_window();
            }
        }
    }

    /// Front-door saturation is a congestion signal for the AIMD
    /// admission limiter, and the shed carries the same Retry-After
    /// hint as an admission 429.
    fn shed(&self) -> Reply {
        self.admission().on_congestion();
        Reply::json(
            503,
            "Service Unavailable",
            error_body("server saturated, retry later"),
        )
        .with_header("Retry-After", self.admission().retry_after_secs())
    }
}

/// `{"error": message}`, plus the request's id when it is traced: the
/// body of every refusal.
fn refusal_body(message: &str, request_id: Option<u64>) -> String {
    let mut body = String::with_capacity(message.len() + 64);
    let mut doc = JsonWriter::object(&mut body);
    doc.key("error").str(message);
    if let Some(id) = request_id {
        doc.key("request_id").int(id as i64);
    }
    doc.finish();
    body
}

pub(crate) fn error_body(message: &str) -> String {
    refusal_body(message, None)
}

/// The rules-epoch protocol at the door, once for both entry points:
/// the epoch this node serves under, and the refusal when the
/// request's stamp breaks protocol. A malformed stamp is a 400; a
/// stamp ahead of this node's epoch means the node missed a broadcast
/// and must refuse rather than serve stale rules (409).
fn epoch_gate(service: &ComputeService, request: &Request) -> (u64, Option<Reply>) {
    let epoch = service.rules_epoch();
    let refusal = match request.rules_epoch() {
        Err(err) => Some(Reply::json(
            400,
            "Bad Request",
            error_body(&err.to_string()),
        )),
        Ok(Some(expected)) if expected > epoch => Some(Reply::json(
            409,
            "Conflict",
            JsonObject::new()
                .with_str("error", "stale rules epoch")
                .with_int("node", service.node_id() as i64)
                .with_int("node_epoch", epoch as i64)
                .with_int("expected_epoch", expected as i64)
                .render(),
        )),
        Ok(_) => None,
    };
    (epoch, refusal)
}

/// Route one parsed request to a handler.
pub(crate) fn route(service: &ComputeService, shutdown: &AtomicBool, request: &Request) -> Reply {
    match (request.method.as_str(), request.path()) {
        ("POST", "/compute") => compute(service, request),
        ("GET", "/healthz") | ("HEAD", "/healthz") => healthz(service),
        ("GET", "/stats") | ("HEAD", "/stats") => {
            let uptime_ms = service.started().elapsed().as_millis() as u64;
            Reply::json(
                200,
                "OK",
                stats_document(&service.snapshot(), uptime_ms).render(),
            )
        }
        ("GET", "/metrics") | ("HEAD", "/metrics") => metrics(service),
        ("GET", "/metrics/windows") | ("HEAD", "/metrics/windows") => windows(service, request),
        ("GET", "/events") | ("HEAD", "/events") => events(service, request),
        ("GET", "/planner") | ("HEAD", "/planner") => planner(service),
        ("GET", "/trace/recent") | ("HEAD", "/trace/recent") => trace_recent(service),
        ("GET", path) | ("HEAD", path) if path.strip_prefix("/trace/").is_some() => {
            trace_by_id(service, path)
        }
        ("POST", "/drain") => {
            if let Some(obs) = service.observability() {
                obs.event(
                    "drain",
                    format!(
                        "node {} draining, {} in flight",
                        service.node_id(),
                        service.admission().pressure()
                    ),
                );
            }
            shutdown.store(true, Ordering::SeqCst);
            // The acknowledgement tells the operator what they are
            // draining and how much work is still in flight, so a
            // rolling restart can wait for zero instead of sleeping.
            Reply::json(
                202,
                "Accepted",
                JsonObject::new()
                    .with("draining", Json::Bool(true))
                    .with_int("in_flight", service.admission().pressure() as i64)
                    .with_int("epoch", service.rules_epoch() as i64)
                    .with_int("node", service.node_id() as i64)
                    .render(),
            )
        }
        (_, "/compute")
        | (_, "/healthz")
        | (_, "/stats")
        | (_, "/metrics")
        | (_, "/metrics/windows")
        | (_, "/events")
        | (_, "/planner")
        | (_, "/trace/recent")
        | (_, "/drain") => Reply::json(
            405,
            "Method Not Allowed",
            error_body(&format!(
                "method {} not allowed for {}",
                request.method,
                request.path()
            )),
        ),
        (_, path) => Reply::json(
            404,
            "Not Found",
            error_body(&format!("no route for {path}")),
        ),
    }
}

/// `GET /healthz`: `200 ok` while every tier honors its guarantee;
/// `503` naming the out-of-contract tiers once the SLO sentinel rules
/// otherwise.
fn healthz(service: &ComputeService) -> Reply {
    let canary = service
        .supervisor_status()
        .is_some_and(|status| status.in_canary);
    let violations = service
        .observability()
        .map(|obs| obs.sentinel().violations())
        .unwrap_or_default();
    if violations.is_empty() {
        return Reply {
            status: 200,
            reason: "OK",
            content_type: "text/plain",
            body: if canary {
                "ok (canary rules active)\n".to_string()
            } else {
                "ok\n".to_string()
            },
            headers: Vec::new(),
        };
    }
    let tiers: Vec<Json> = violations.into_iter().map(Json::Str).collect();
    Reply::json(
        503,
        "Service Unavailable",
        JsonObject::new()
            .with_str("status", "degraded")
            .with("violations", Json::Array(tiers))
            .with("canary", Json::Bool(canary))
            .render(),
    )
}

/// `GET /metrics`: registry totals, per-tier telemetry, and SLO
/// verdicts in the perfjson dialect.
fn metrics(service: &ComputeService) -> Reply {
    let uptime_ms = service.started().elapsed().as_millis() as u64;
    let base = match service.observability() {
        Some(obs) => metrics_document(obs, uptime_ms),
        None => JsonObject::new()
            .with_str("service", "toltiers")
            .with("observability", Json::Bool(false)),
    };
    // The control loops report regardless of observability: admission
    // always runs, and the supervisor subtree appears whenever a
    // supervisor is configured.
    let mut doc = base
        .with_int("node", service.node_id() as i64)
        .with_int("rules_epoch", service.rules_epoch() as i64)
        // Process-wide accept-time drops; deliberately outside
        // "totals", which only holds per-request deterministic series.
        .with_int("socket_config_failures", socket_config_failures() as i64)
        .with(
            "admission",
            Json::Object(admission_object(service.admission())),
        );
    if let Some(status) = service.supervisor_status() {
        doc = doc.with("supervisor", Json::Object(supervisor_object(&status)));
    }
    Reply::json(200, "OK", doc.render())
}

/// `GET /trace/recent`: the tracer's ring of finished request traces,
/// newest last.
fn trace_recent(service: &ComputeService) -> Reply {
    let Some(obs) = service.observability() else {
        return Reply::json(404, "Not Found", error_body("tracing disabled"));
    };
    let traces = obs.tracer().recent(obs.tracer().capacity());
    let mut body = String::with_capacity(64 + traces.len() * 256);
    body.push_str("{\"count\": ");
    body.push_str(&traces.len().to_string());
    body.push_str(", \"traces\": [");
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&trace.to_json_line());
    }
    body.push_str("]}");
    Reply::json(200, "OK", body)
}

/// One query parameter's value from a request target, e.g. `n` from
/// `/metrics/windows?n=4`.
pub(crate) fn query_param<'a>(request: &'a Request, name: &str) -> Option<&'a str> {
    let (_, query) = request.target.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// `GET /metrics/windows?n=K`: the sealed telemetry-window ring plus
/// the cumulative fold — the capacity planner's input contract.
///
/// `n` must be a non-negative integer when present; anything else is a
/// 400 naming the offending value. Values beyond the ring's retention
/// capacity clamp silently — the ring can never answer with more.
fn windows(service: &ComputeService, request: &Request) -> Reply {
    let Some(obs) = service.observability() else {
        return Reply::json(404, "Not Found", error_body("observability disabled"));
    };
    let capacity = obs.windows().capacity();
    let limit = match query_param(request, "n") {
        None => 8.min(capacity),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.min(capacity),
            Err(_) => {
                return Reply::json(
                    400,
                    "Bad Request",
                    error_body(&format!(
                        "query parameter n must be a non-negative integer, got {raw:?}"
                    )),
                );
            }
        },
    };
    let uptime_ms = service.started().elapsed().as_millis() as u64;
    Reply::json(
        200,
        "OK",
        windows_document(obs.windows(), limit, uptime_ms)
            .with_int("node", service.node_id() as i64)
            .render(),
    )
}

/// `GET /planner`: the capacity planner's live status — forecast
/// state, resize/regen counters, tuner posture, and the recent
/// decision log. 404 when no planner is configured.
fn planner(service: &ComputeService) -> Reply {
    let Some(status) = service.capacity_status() else {
        return Reply::json(404, "Not Found", error_body("planner disabled"));
    };
    Reply::json(
        200,
        "OK",
        capacity_object(&status)
            .with_int("node", service.node_id() as i64)
            .with_int("rules_epoch", service.rules_epoch() as i64)
            .render(),
    )
}

/// `GET /events?since=N`: the control-plane event log past the cursor.
fn events(service: &ComputeService, request: &Request) -> Reply {
    let Some(obs) = service.observability() else {
        return Reply::json(404, "Not Found", error_body("observability disabled"));
    };
    let since = query_param(request, "since")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let log = obs.events();
    Reply::json(
        200,
        "OK",
        events_document(&log.since(since), log.last_seq(), log.dropped())
            .with_int("node", service.node_id() as i64)
            .render(),
    )
}

/// `GET /trace/{id}`: every retained trace on this node belonging to
/// fleet-wide trace `id` (the front tier assembles the cross-node
/// tree; a node answers its own hops).
fn trace_by_id(service: &ComputeService, path: &str) -> Reply {
    let Some(obs) = service.observability() else {
        return Reply::json(404, "Not Found", error_body("tracing disabled"));
    };
    let raw = path.strip_prefix("/trace/").unwrap_or_default();
    let Ok(trace_id) = raw.parse::<u64>() else {
        return Reply::json(
            404,
            "Not Found",
            error_body(&format!("no route for {path}")),
        );
    };
    let traces = obs.tracer().find(trace_id);
    if traces.is_empty() {
        return Reply::json(
            404,
            "Not Found",
            error_body(&format!("trace {trace_id} not retained on this node")),
        );
    }
    Reply::json(200, "OK", trace_tree_body(trace_id, &traces))
}

/// Render one fleet-wide trace's hops as a JSON document, ordered by
/// (hop, local request id) — the deterministic assembly order both a
/// node and the front tier use.
pub(crate) fn trace_tree_body(trace_id: u64, traces: &[tt_obs::RequestTrace]) -> String {
    let mut ordered: Vec<&tt_obs::RequestTrace> = traces.iter().collect();
    ordered.sort_by_key(|t| (t.hop, t.request_id));
    let mut body = String::with_capacity(96 + ordered.len() * 256);
    body.push_str("{\"trace_id\": ");
    body.push_str(&trace_id.to_string());
    body.push_str(", \"hops\": ");
    body.push_str(&ordered.len().to_string());
    body.push_str(", \"traces\": [");
    for (i, trace) in ordered.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&trace.to_json_line());
    }
    body.push_str("]}");
    body
}

/// FNV-1a over the body bytes: payload selection for clients that send
/// opaque data without a `Payload` header.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Which profiled payload a request maps to: an explicit `Payload`
/// header (index, used by the load generator for determinism), else a
/// stable hash of the body.
fn payload_for(request: &Request, payloads: usize) -> Result<usize, String> {
    match request.header("payload") {
        Some(value) => value
            .trim()
            .parse::<usize>()
            .map(|p| p % payloads.max(1))
            .map_err(|_| format!("bad Payload header `{value}` (want an index)")),
        None => Ok((fnv1a(&request.body) % payloads.max(1) as u64) as usize),
    }
}

/// Whether the client forbade cache use for this request
/// (`Cache-Control: no-cache` or `no-store`).
fn client_no_cache(request: &Request) -> bool {
    request.header("cache-control").is_some_and(|value| {
        value.split(',').any(|directive| {
            let directive = directive.trim();
            directive.eq_ignore_ascii_case("no-cache") || directive.eq_ignore_ascii_case("no-store")
        })
    })
}

/// An admission brownout verdict: the substitute plan, the tier it is
/// billed at, and the rung that chose it.
type BrownoutPlan = (Policy, f64, BrownoutLevel);

/// One `POST /compute` past its front half: parsed, admitted, through
/// the cache consult, and owning everything the back half needs — so
/// the reply is built the same way whoever calls the continuation
/// (the handler thread, or a batch executor after the group flushes).
/// Only the tracer is lent by that caller: the synchronous
/// [`HttpHandler::handle`] borrows the service's, so its hot path never
/// touches the shared refcount, and the async continuation carries a
/// clone.
struct ComputeCall {
    service_request: ServiceRequest,
    brownout: Option<BrownoutPlan>,
    /// The request's trace, when observability is on.
    handle: Option<TraceHandle>,
    /// The `Retry-After` hint a `503` carries.
    retry_after_secs: u64,
    /// The request counts against the admission limit until its reply
    /// is built.
    _in_flight: InFlight,
    /// The insert permit of a cache miss.
    ticket: Option<CacheAdmitTicket>,
    /// The `X-Cache` value; `None` when no cache is configured, so
    /// cache-off replies carry no cache header at all.
    cache_tag: Option<&'static str>,
    /// A hit's `X-Cache-Match`: bit-exact, or semantic
    /// (tolerance-rule admissible).
    cache_match: Option<&'static str>,
}

/// Room for any `/compute` answer (a 200 is under 330 bytes), so a
/// body is one block that never regrows.
const COMPUTE_BODY_BYTES: usize = 384;

impl ComputeCall {
    /// The front half of `POST /compute`, the same on both paths:
    /// begin (or join) the trace, parse and admit, raise the in-flight
    /// guard, consult the cache. `Ok` carries the request's tier,
    /// resolved once in [`parse_and_admit`], for execution to take.
    /// `Err` is a reply that needs no execution — a 400, a 429, or a
    /// cache hit — already sealed like any other.
    fn prepare(service: &ComputeService, request: &Request) -> Result<(ComputeCall, Tier), Reply> {
        // When observability is on, the whole handler runs under a
        // traced request: parsing gets its own span, and the handle
        // rides into the service (and across its worker pool) for the
        // rest. A request stamped with a remote trace context (proxied
        // by a front tier) joins that trace instead of starting its
        // own.
        let obs = service.observability();
        let handle = obs.map(|o| match request.trace_context() {
            Some(context) => o.tracer().begin_remote(context),
            None => o.tracer().begin(),
        });
        let (service_request, tier, brownout) =
            match parse_and_admit(service, request, handle.as_ref()) {
                Ok(admitted) => admitted,
                Err(reply) => return Err(seal(obs, handle, reply)),
            };
        let mut call = ComputeCall {
            service_request,
            brownout,
            handle,
            retry_after_secs: service.admission().retry_after_secs(),
            _in_flight: service.admission().begin(),
            ticket: None,
            cache_tag: None,
            cache_match: None,
        };
        match call.consult_cache(service, request, &tier) {
            // A hit already settled: answer on the calling thread,
            // never touching the batcher or a worker pool.
            Some(outcome) => Err(call.finish(obs, service.matrix(), Ok(outcome))),
            None => Ok((call, tier)),
        }
    }

    /// The cache consult: brownout-shaped requests and client
    /// `Cache-Control: no-cache` bypass (a browned-out answer must not
    /// shadow the tier's real one, and a bypass must not be admitted
    /// either — the entry would be indistinguishable from a clean
    /// answer), everything else asks the service's semantic cache.
    /// Returns a hit's settled outcome; otherwise the call goes on to
    /// execute, holding the insert permit when it missed.
    fn consult_cache(
        &mut self,
        service: &ComputeService,
        request: &Request,
        tier: &Tier,
    ) -> Option<ComputeOutcome> {
        service.cache()?;
        if self.brownout.is_some() || client_no_cache(request) {
            service.note_cache_event(tier, CacheEvent::Bypass);
            self.cache_tag = Some("bypass");
            return None;
        }
        let fingerprint = fnv1a(&request.body);
        let request = &self.service_request;
        match service.cache_serve_tier(request, tier, fingerprint, self.handle.as_ref()) {
            CacheServed::Hit { outcome, exact } => {
                self.cache_tag = Some("hit");
                self.cache_match = Some(if exact { "exact" } else { "semantic" });
                Some(outcome)
            }
            CacheServed::Miss => {
                self.cache_tag = Some("miss");
                self.ticket = service.cache_ticket(request, tier, fingerprint);
                None
            }
            CacheServed::Bypass => {
                self.cache_tag = Some("bypass");
                None
            }
        }
    }

    /// The back half, and the only place a `/compute` reply is built
    /// from an execution result — so a batched request's bytes cannot
    /// differ from an unbatched one's: offer a miss's answer to the
    /// cache, render the outcome, tag the cache disposition, seal.
    fn finish(
        self,
        obs: Option<&Arc<Observability>>,
        matrix: &ProfileMatrix,
        result: Result<ComputeOutcome, ServiceError>,
    ) -> Reply {
        if let (Some(ticket), Ok(outcome)) = (&self.ticket, &result) {
            ticket.admit(outcome);
        }
        let request = &self.service_request;
        let request_id = self.handle.as_ref().map(TraceHandle::request_id);
        let mut reply = match result {
            Ok(outcome) => {
                let mut body = String::with_capacity(COMPUTE_BODY_BYTES);
                let mut doc = JsonWriter::object(&mut body);
                doc.key("answered_by")
                    .str(&matrix.version_names()[outcome.answered_by]);
                doc.key("version").int(outcome.answered_by as i64);
                doc.key("payload").int(request.payload as i64);
                doc.key("tolerance").num(request.tolerance.value());
                doc.key("billed_tolerance").num(outcome.billed_tolerance);
                doc.key("objective").str(request.objective.name());
                doc.key("quality_err").num(outcome.quality_err);
                doc.key("confidence").num(outcome.confidence);
                doc.key("latency_us")
                    .int(outcome.simulated_latency_us as i64);
                doc.key("price_usd").num(outcome.price.as_dollars());
                doc.key("degraded").bool(outcome.degraded);
                if let Some(level) = outcome.brownout {
                    doc.key("brownout").str(level.label());
                }
                if let Some(id) = request_id {
                    doc.key("request_id").int(id as i64);
                }
                doc.finish();
                let reply = Reply::json(200, "OK", body);
                match outcome.brownout {
                    Some(level) => reply.with_header("Brownout", level.label()),
                    None => reply,
                }
            }
            Err(ServiceError::Unavailable) => Reply::json(
                503,
                "Service Unavailable",
                refusal_body(&ServiceError::Unavailable.to_string(), request_id),
            )
            .with_header("Retry-After", self.retry_after_secs),
        };
        if let Some(tag) = self.cache_tag {
            reply = reply.with_header("X-Cache", tag);
        }
        if let Some(kind) = self.cache_match {
            reply = reply.with_header("X-Cache-Match", kind);
        }
        seal(obs, self.handle, reply)
    }
}

/// The exit every `/compute` reply takes, early or executed: finish
/// the request's trace, and echo its id so a client (or the relaying
/// front tier) can drill into `GET /trace/{id}` with one curl. The
/// handle is retired here, so when nothing else holds it the thread's
/// next request traces on it again.
fn seal(obs: Option<&Arc<Observability>>, handle: Option<TraceHandle>, reply: Reply) -> Reply {
    match obs.zip(handle) {
        Some((obs, handle)) => {
            let trace_id = handle.trace_id();
            obs.tracer().retire(handle);
            reply.with_header(TRACE_ID_HEADER, trace_id)
        }
        None => reply,
    }
}

/// `POST /compute` answered on the calling thread: the synchronous
/// [`HttpHandler::handle`], which in-process callers use.
fn compute(service: &ComputeService, request: &Request) -> Reply {
    match ComputeCall::prepare(service, request) {
        Ok((call, tier)) => {
            let result = service.execute_tier(
                &call.service_request,
                tier,
                call.brownout,
                call.handle.as_ref(),
            );
            call.finish(service.observability(), service.matrix(), result)
        }
        Err(reply) => reply,
    }
}

/// `POST /compute` in continuation-passing style (the server's path):
/// the same two halves as [`compute`], differing only in who calls the
/// continuation — execution goes through
/// [`ComputeService::execute_shaped_async`], so a batched request
/// parks in the coalescing queue without pinning the worker, and
/// `done` fires with the finished reply wherever settlement happens.
/// The call lends its trace handle to execution, which hands it back
/// with the result, so an unbatched request seals the only reference.
fn compute_async(service: &ComputeService, request: &Request, done: ReplySink) {
    match ComputeCall::prepare(service, request) {
        Ok((mut call, tier)) => {
            let obs = service.observability().cloned();
            let matrix = Arc::clone(service.shared_matrix());
            let (executed, handle) = (call.service_request.clone(), call.handle.take());
            service.execute_tier_async(
                &executed,
                tier,
                call.brownout,
                handle,
                move |result, handle| {
                    call.handle = handle;
                    done(call.finish(obs.as_ref(), &matrix, result));
                },
            );
        }
        Err(reply) => done(reply),
    }
}

/// The request's `Tolerance` and `Objective` annotations. Only the
/// API's own annotation headers reach the annotation parser; transport
/// headers (Host, Content-Length, ...) belong to HTTP, not to the
/// Tolerance Tiers API. Duplicates reach it too, so its
/// `DuplicateHeader` error still fires.
#[inline]
pub(crate) fn annotations(request: &Request) -> Result<(Tolerance, Objective), AnnotationError> {
    let mut annotations = Annotations::new();
    request
        .headers
        .iter()
        .filter(|(name, _)| {
            name.eq_ignore_ascii_case("tolerance") || name.eq_ignore_ascii_case("objective")
        })
        .try_for_each(|(name, value)| annotations.header(name, value))?;
    Ok(annotations.finish())
}

/// Parse annotations and payload, stamp the parse span, resolve the
/// tier and run admission: the request to execute, its tier and its
/// brownout plan, or the reply (400, 429) that ends it here.
fn parse_and_admit(
    service: &ComputeService,
    request: &Request,
    handle: Option<&TraceHandle>,
) -> Result<(ServiceRequest, Tier, Option<BrownoutPlan>), Reply> {
    let parse_span = handle.map(|h| h.open("parse", None, service.wall_us()));
    let parsed = annotations(request);
    let close_parse = |error: Option<&str>| {
        if let (Some(h), Some(id)) = (handle, parse_span) {
            h.edit(|t| {
                if let Some(why) = error {
                    t.attr_text(id, "error", why);
                }
                t.close(id, service.wall_us());
            });
        }
    };
    let (tolerance, objective) = match parsed {
        Ok(pair) => pair,
        Err(err) => {
            let why = err.to_string();
            close_parse(Some(&why));
            return Err(Reply::json(400, "Bad Request", error_body(&why)));
        }
    };
    // The one tier resolution of the request's life: this request is
    // an arrival on that tier's open telemetry window (pre-admission —
    // the planner's arrival rate).
    let tier = service.resolve(objective, tolerance);
    if let Some(o) = service.observability() {
        o.record_arrival(&tier);
    }
    let payload = match payload_for(request, service.matrix().requests()) {
        Ok(p) => p,
        Err(why) => {
            close_parse(Some(&why));
            return Err(Reply::json(400, "Bad Request", error_body(&why)));
        }
    };
    if let (Some(h), Some(id)) = (handle, parse_span) {
        h.edit(|t| {
            t.attr_int(
                id,
                "tolerance_milli",
                (tolerance.value() * 1000.0).round() as i64,
            );
            t.attr_int(id, "payload", payload as i64);
            t.close(id, service.wall_us());
        });
    }

    let service_request = tt_core::request::ServiceRequest::new(payload, tolerance, objective);

    // Admission runs before execution: under pressure, high-tolerance
    // requests are first browned out onto a cheaper plan and only then
    // rejected; strict tiers are always admitted. The decision comes
    // first so a rejected request never counts against the limit, then
    // the in-flight guard covers the whole execution.
    let admission = service.admission();
    let decision = admission.decide_tier(&tier, tolerance.value(), admission.pressure());
    let outcome = match &decision {
        AdmissionDecision::Reject { .. } => AdmissionOutcome::Rejected,
        AdmissionDecision::Brownout { .. } => AdmissionOutcome::BrownedOut,
        _ => AdmissionOutcome::Admitted,
    };
    if let Some(o) = service.observability() {
        o.record_admission(&tier, outcome);
    }
    match decision {
        AdmissionDecision::Reject { retry_after_secs } => Err(Reply::json(
            429,
            "Too Many Requests",
            refusal_body(
                "overloaded, retry later",
                handle.map(TraceHandle::request_id),
            ),
        )
        .with_header("Retry-After", retry_after_secs)),
        AdmissionDecision::Brownout {
            policy,
            billed_tolerance,
            level,
        } => Ok((
            service_request,
            tier,
            Some((policy, billed_tolerance, level)),
        )),
        _ => Ok((service_request, tier, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_service;
    use crate::http::{read_response, Limits};
    use crate::service::ServiceConfig;
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    fn svc() -> Arc<ComputeService> {
        Arc::new(demo_service(60, 9, ServiceConfig::defaults()))
    }

    fn req(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn routes_cover_the_api_surface() {
        let service = svc();
        let off = AtomicBool::new(false);
        let ok = route(
            &service,
            &off,
            &req(
                "POST",
                "/compute",
                &[
                    ("Tolerance", "0.05"),
                    ("Objective", "cost"),
                    ("Payload", "3"),
                ],
                b"",
            ),
        );
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"answered_by\""));
        assert!(ok.body.contains("\"price_usd\""));

        assert_eq!(
            route(&service, &off, &req("GET", "/healthz", &[], b"")).status,
            200
        );
        let stats = route(&service, &off, &req("GET", "/stats?x=1", &[], b""));
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("\"service\": \"toltiers\""));
        assert_eq!(
            route(&service, &off, &req("GET", "/compute", &[], b"")).status,
            405
        );
        assert_eq!(
            route(&service, &off, &req("POST", "/nope", &[], b"")).status,
            404
        );
    }

    #[test]
    fn bad_annotations_become_400_bodies() {
        let service = svc();
        let off = AtomicBool::new(false);
        for (headers, needle) in [
            (vec![("Tolerance", "lots")], "invalid tolerance"),
            (vec![("Tolerance", "-1")], "out of range"),
            (vec![("Objective", "teleport")], "invalid objective"),
            (
                vec![("Tolerance", "0.01"), ("Tolerance", "0.05")],
                "duplicate",
            ),
            (vec![("Payload", "banana")], "bad Payload header"),
        ] {
            let reply = route(&service, &off, &req("POST", "/compute", &headers, b""));
            assert_eq!(reply.status, 400, "headers {headers:?}");
            assert!(reply.body.contains(needle), "{} !~ {needle}", reply.body);
        }
    }

    #[test]
    fn unannotated_requests_get_the_strict_default_tier() {
        let service = svc();
        let off = AtomicBool::new(false);
        let reply = route(
            &service,
            &off,
            &req("POST", "/compute", &[], b"opaque-bytes"),
        );
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"tolerance\": 0"));
        assert!(reply.body.contains("\"objective\": \"response-time\""));
    }

    /// `body` with every span timestamp zeroed: the one part of a
    /// trace document that reads the wall clock.
    fn without_clock(body: &str) -> String {
        let mut out = String::with_capacity(body.len());
        let mut rest = body;
        while let Some(at) = ["\"start_us\": ", "\"end_us\": "]
            .iter()
            .filter_map(|key| rest.find(key).map(|i| i + key.len()))
            .min()
        {
            out.push_str(&rest[..at]);
            let tail = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
            if tail.len() < rest.len() - at {
                out.push('0');
            }
            rest = tail;
        }
        out.push_str(rest);
        out
    }

    /// The goldens under `tests/golden/` are what the renderer printed
    /// for this request set before spans became flat records copied
    /// into ring slots (clock zeroed): every tier shape, two rejected
    /// requests whose error text needs escaping, and two hops joined
    /// to a remote trace.
    #[test]
    fn trace_documents_match_the_golden_bytes() {
        let service = Arc::new(demo_service(80, 42, ServiceConfig::defaults()));
        let off = AtomicBool::new(false);
        let compute = |headers: &[(&str, &str)]| {
            route(&service, &off, &req("POST", "/compute", headers, b"")).status
        };
        let tiers = [
            ("0", "response-time", "3"),
            ("0.05", "cost", "3"),
            ("0.1", "response-time", "7"),
            ("0.01", "response-time", "11"),
        ];
        for (tolerance, objective, payload) in tiers {
            let headers = [
                ("Tolerance", tolerance),
                ("Objective", objective),
                ("Payload", payload),
            ];
            assert_eq!(compute(&headers), 200);
        }
        assert_eq!(
            compute(&[("Tolerance", "\"lots\"\t"), ("Payload", "1")]),
            400
        );
        assert_eq!(compute(&[("Tolerance", "0.1"), ("Payload", "x\\y")]), 400);
        let joined = [
            ("Tolerance", "0.1"),
            ("Objective", "cost"),
            ("Payload", "5"),
            ("X-Trace-Id", "9001"),
            ("X-Parent-Span", "4/2"),
        ];
        assert_eq!(compute(&joined), 200);
        assert_eq!(compute(&joined), 200);

        for (target, golden) in [
            (
                "/trace/recent",
                include_str!("../tests/golden/trace_recent.json"),
            ),
            (
                "/trace/9001",
                include_str!("../tests/golden/trace_joined.json"),
            ),
            ("/trace/2", include_str!("../tests/golden/trace_local.json")),
        ] {
            let reply = route(&service, &off, &req("GET", target, &[], b""));
            assert_eq!(reply.status, 200);
            assert_eq!(without_clock(&reply.body), golden.trim_end(), "{target}");
        }
    }

    #[test]
    fn metrics_and_trace_endpoints_expose_the_request_journey() {
        let service = svc();
        let off = AtomicBool::new(false);
        let ok = route(
            &service,
            &off,
            &req(
                "POST",
                "/compute",
                &[
                    ("Tolerance", "0.05"),
                    ("Objective", "cost"),
                    ("Payload", "3"),
                ],
                b"",
            ),
        );
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"request_id\": 1"));

        let metrics = route(&service, &off, &req("GET", "/metrics", &[], b""));
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("\"totals\""));
        assert!(metrics.body.contains("\"requests_total\": 1"));
        assert!(metrics.body.contains("\"cost/0.050\""));
        assert!(metrics.body.contains("\"slo\""));

        let traces = route(&service, &off, &req("GET", "/trace/recent", &[], b""));
        assert_eq!(traces.status, 200);
        assert!(traces.body.contains("\"count\": 1"));
        assert!(traces.body.contains("\"request_id\": 1"));
        for span in ["parse", "execute", "route", "model_call", "bill"] {
            assert!(
                traces.body.contains(&format!("\"name\": \"{span}\"")),
                "missing span {span} in {}",
                traces.body
            );
        }

        assert_eq!(
            route(&service, &off, &req("POST", "/metrics", &[], b"")).status,
            405
        );
        assert_eq!(
            route(&service, &off, &req("POST", "/trace/recent", &[], b"")).status,
            405
        );
    }

    #[test]
    fn disabled_observability_degrades_the_endpoints_gracefully() {
        let service = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                obs: crate::obs::ObsConfig::disabled(),
                ..ServiceConfig::defaults()
            },
        ));
        let off = AtomicBool::new(false);
        let metrics = route(&service, &off, &req("GET", "/metrics", &[], b""));
        assert_eq!(metrics.status, 200);
        assert!(metrics.body.contains("\"observability\": false"));
        assert_eq!(
            route(&service, &off, &req("GET", "/trace/recent", &[], b"")).status,
            404
        );
        // Compute still serves, without a request_id.
        let ok = route(
            &service,
            &off,
            &req("POST", "/compute", &[("Payload", "1")], b""),
        );
        assert_eq!(ok.status, 200);
        assert!(!ok.body.contains("request_id"));
        assert_eq!(
            route(&service, &off, &req("GET", "/healthz", &[], b"")).status,
            200
        );
    }

    #[test]
    fn healthz_degrades_naming_the_violating_tier() {
        let service = svc();
        let off = AtomicBool::new(false);
        assert_eq!(
            route(&service, &off, &req("GET", "/healthz", &[], b"")).status,
            200
        );
        let obs = service.observability().unwrap();
        // Inject a window of traffic violating the 5% cost tier, then
        // close the window.
        let tier = service.resolve(
            tt_core::objective::Objective::Cost,
            tt_core::request::Tolerance::new(0.05).unwrap(),
        );
        for _ in 0..30 {
            obs.record_served(
                &tier,
                &crate::obs::ServedSample {
                    sim_latency_us: 5_000,
                    quality_err: 0.5,
                    baseline_err: 0.1,
                    degraded: false,
                    invocations: 1,
                    version: 0,
                },
            );
        }
        obs.sentinel().force_tick(obs.now_us());
        let reply = route(&service, &off, &req("GET", "/healthz", &[], b""));
        assert_eq!(reply.status, 503);
        assert!(reply.body.contains("\"status\": \"degraded\""));
        assert!(reply.body.contains("cost/0.050"), "{}", reply.body);
        let metrics = route(&service, &off, &req("GET", "/metrics", &[], b""));
        assert!(metrics.body.contains("\"in_contract\": false"));
    }

    #[test]
    fn overload_rejects_tolerant_tiers_with_retry_after_but_admits_strict() {
        use crate::admission::AdmissionConfig;
        let service = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                admission: AdmissionConfig {
                    initial_limit: 1,
                    min_limit: 1,
                    ..AdmissionConfig::defaults()
                },
                ..ServiceConfig::defaults()
            },
        ));
        let off = AtomicBool::new(false);
        // Saturate: hold enough in-flight guards that pressure clears
        // limit * reject_factor.
        let _held: Vec<_> = (0..4).map(|_| service.admission().begin()).collect();
        let rejected = route(
            &service,
            &off,
            &req(
                "POST",
                "/compute",
                &[
                    ("Tolerance", "0.10"),
                    ("Objective", "cost"),
                    ("Payload", "2"),
                ],
                b"",
            ),
        );
        assert_eq!(rejected.status, 429, "{}", rejected.body);
        assert!(rejected.header("Retry-After").is_some());
        assert!(rejected.body.contains("overloaded"));
        // The strict default tier is protected: same pressure, served.
        let strict = route(
            &service,
            &off,
            &req("POST", "/compute", &[("Payload", "2")], b""),
        );
        assert_eq!(strict.status, 200, "{}", strict.body);
        let (_admitted, _browned, rejected_total) = service.admission().totals();
        assert_eq!(rejected_total, 1);
    }

    #[test]
    fn metrics_include_the_control_loop_subtrees() {
        let service = svc();
        let off = AtomicBool::new(false);
        let reply = route(&service, &off, &req("GET", "/metrics", &[], b""));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"admission\""), "{}", reply.body);
        assert!(reply.body.contains("\"limit\""));
        assert!(reply.body.contains("\"supervisor\""));
        assert!(reply.body.contains("\"rules_revision\": 1"));
        // Disabled observability still reports the control loops.
        let bare = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                obs: crate::obs::ObsConfig::disabled(),
                ..ServiceConfig::defaults()
            },
        ));
        let reply = route(&bare, &off, &req("GET", "/metrics", &[], b""));
        assert!(reply.body.contains("\"observability\": false"));
        assert!(reply.body.contains("\"admission\""));
        assert!(reply.body.contains("\"supervisor\""));
    }

    #[test]
    fn cache_round_trip_serves_hits_with_headers() {
        let service = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                cache: Some(Arc::new(tt_cache::SemanticCache::new(
                    tt_cache::CacheConfig::defaults(),
                ))),
                ..ServiceConfig::defaults()
            },
        ));
        let off = AtomicBool::new(false);
        let tolerant = [
            ("Tolerance", "0.05"),
            ("Objective", "cost"),
            ("Payload", "3"),
        ];
        // First sight: miss, executed, offered back.
        let first = route(&service, &off, &req("POST", "/compute", &tolerant, b"q1"));
        assert_eq!(first.status, 200);
        assert_eq!(first.header("X-Cache"), Some("miss"));
        // Same body: bit-exact hit.
        let second = route(&service, &off, &req("POST", "/compute", &tolerant, b"q1"));
        assert_eq!(second.status, 200);
        assert_eq!(second.header("X-Cache"), Some("hit"));
        assert_eq!(second.header("X-Cache-Match"), Some("exact"));
        // Different body, same semantic key, admissible degradation:
        // semantic hit.
        let third = route(&service, &off, &req("POST", "/compute", &tolerant, b"q2"));
        assert_eq!(third.status, 200);
        assert_eq!(third.header("X-Cache"), Some("hit"));
        assert_eq!(third.header("X-Cache-Match"), Some("semantic"));
        // Hit and miss answer the same bytes for the answer fields.
        for key in ["\"answered_by\"", "\"billed_tolerance\": 0.05"] {
            assert!(first.body.contains(key) && third.body.contains(key));
        }
        // Client opt-out bypasses without touching the cache.
        let mut with_no_cache = tolerant.to_vec();
        with_no_cache.push(("Cache-Control", "no-cache"));
        let bypass = route(
            &service,
            &off,
            &req("POST", "/compute", &with_no_cache, b"q1"),
        );
        assert_eq!(bypass.header("X-Cache"), Some("bypass"));

        // Strict (tolerance-0) requests: exact bit-equal hits only.
        let strict = [("Payload", "5")];
        let miss = route(&service, &off, &req("POST", "/compute", &strict, b"s1"));
        assert_eq!(miss.header("X-Cache"), Some("miss"));
        let exact = route(&service, &off, &req("POST", "/compute", &strict, b"s1"));
        assert_eq!(exact.header("X-Cache"), Some("hit"));
        assert_eq!(exact.header("X-Cache-Match"), Some("exact"));
        let other_body = route(&service, &off, &req("POST", "/compute", &strict, b"s2"));
        assert_ne!(
            other_body.header("X-Cache-Match"),
            Some("semantic"),
            "strict tiers must never take a semantic hit"
        );

        // A rules hot-swap (broadcast form) purges: the exact hit
        // above is gone.
        let epoch = service.rules_epoch() + 1;
        service.adopt_rules(crate::demo::demo_frontend(service.matrix(), 9), epoch);
        let after_swap = route(&service, &off, &req("POST", "/compute", &tolerant, b"q1"));
        assert_eq!(after_swap.header("X-Cache"), Some("miss"));
        let stats = service.cache().unwrap().stats();
        assert!(stats.purges >= 1);
    }

    #[test]
    fn cache_off_replies_carry_no_cache_header() {
        let service = svc();
        let off = AtomicBool::new(false);
        let reply = route(
            &service,
            &off,
            &req("POST", "/compute", &[("Payload", "1")], b""),
        );
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("X-Cache"), None);
    }

    #[test]
    fn handle_and_handle_async_reply_alike_off_the_happy_path() {
        use crate::admission::AdmissionConfig;
        use crate::batch::BatchConfig;
        let twin = |batching: bool| {
            Arc::new(demo_service(
                60,
                9,
                ServiceConfig {
                    admission: AdmissionConfig {
                        initial_limit: 1,
                        min_limit: 1,
                        ..AdmissionConfig::defaults()
                    },
                    cache: Some(Arc::new(tt_cache::SemanticCache::new(
                        tt_cache::CacheConfig::defaults(),
                    ))),
                    batch: BatchConfig {
                        enabled: batching,
                        ..BatchConfig::defaults()
                    },
                    ..ServiceConfig::defaults()
                },
            ))
        };
        // The async twin batches, as the reactor deployment does.
        let (sync_svc, async_svc) = (twin(false), twin(true));
        let off = AtomicBool::new(false);
        let both = |request: &Request| {
            let (tx, rx) = std::sync::mpsc::channel();
            async_svc.handle_async(
                request,
                &off,
                Box::new(move |reply| tx.send(reply).unwrap()),
            );
            (sync_svc.handle(request, &off), rx.recv().unwrap())
        };
        let tolerant = [
            ("Tolerance", "0.05"),
            ("Objective", "cost"),
            ("Payload", "3"),
        ];
        let mut no_cache = tolerant.to_vec();
        no_cache.push(("Cache-Control", "no-cache"));
        for (what, headers, status, cache) in [
            ("bad annotation", vec![("Tolerance", "lots")], 400, None),
            ("bad payload", vec![("Payload", "banana")], 400, None),
            ("malformed epoch", vec![("Rules-Epoch", "soon")], 400, None),
            ("stale epoch", vec![("Rules-Epoch", "99")], 409, None),
            ("cache miss", tolerant.to_vec(), 200, Some("miss")),
            ("cache hit", tolerant.to_vec(), 200, Some("hit")),
            ("cache bypass", no_cache, 200, Some("bypass")),
        ] {
            let (sync_reply, async_reply) = both(&req("POST", "/compute", &headers, b"q"));
            assert_eq!(sync_reply.status, status, "{what}: {}", sync_reply.body);
            assert_eq!(sync_reply.header("X-Cache"), cache, "{what}");
            assert!(sync_reply.header(RULES_EPOCH_HEADER).is_some(), "{what}");
            assert_eq!(sync_reply, async_reply, "{what}");
        }
        // Saturate both twins: the tolerant tier is turned away with
        // the same 429 and the same Retry-After hint.
        let _held: Vec<_> = [&sync_svc, &async_svc]
            .iter()
            .flat_map(|svc| (0..4).map(|_| svc.admission().begin()))
            .collect();
        let (sync_reply, async_reply) = both(&req("POST", "/compute", &tolerant, b"q2"));
        assert_eq!(sync_reply.status, 429, "{}", sync_reply.body);
        assert!(sync_reply.header("Retry-After").is_some());
        assert_eq!(sync_reply, async_reply);
    }

    #[test]
    fn requests_billed_as_strict_never_park_in_the_batcher() {
        let service = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                batch: crate::batch::BatchConfig {
                    enabled: true,
                    ..crate::batch::BatchConfig::defaults()
                },
                ..ServiceConfig::defaults()
            },
        ));
        let off = AtomicBool::new(false);
        // 0.007 sits below the demo's 1% tier: it resolves to, and is
        // billed as, the strict baseline, so it must not wait for
        // batchmates either.
        for (tolerance, batched) in [("0", false), ("0.007", false), ("0.01", true)] {
            let request = req(
                "POST",
                "/compute",
                &[
                    ("Tolerance", tolerance),
                    ("Objective", "response-time"),
                    ("Payload", "3"),
                ],
                b"",
            );
            assert_eq!(
                service.completes_promptly(&request),
                batched,
                "tolerance {tolerance}"
            );
            let (tx, rx) = std::sync::mpsc::channel();
            service.handle_async(
                &request,
                &off,
                Box::new(move |reply| tx.send(reply).unwrap()),
            );
            assert_eq!(rx.recv().unwrap().status, 200);
            let trace = &service.observability().unwrap().tracer().recent(1)[0];
            assert_eq!(
                trace.span("batch").is_some(),
                batched,
                "tolerance {tolerance}: parked in the batcher"
            );
        }
    }

    #[test]
    fn drain_endpoint_flips_the_shutdown_flag() {
        let service = svc();
        let flag = AtomicBool::new(false);
        let reply = route(&service, &flag, &req("POST", "/drain", &[], b""));
        assert_eq!(reply.status, 202);
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn windows_n_param_is_validated_and_clamped() {
        let service = svc();
        let off = AtomicBool::new(false);

        // Non-numeric n is a named 400, not a silent default.
        for bad in ["abc", "-3", "1.5", ""] {
            let reply = route(
                &service,
                &off,
                &req("GET", &format!("/metrics/windows?n={bad}"), &[], b""),
            );
            assert_eq!(reply.status, 400, "n={bad:?}");
            assert!(
                reply.body.contains("query parameter n"),
                "{} for n={bad:?}",
                reply.body
            );
        }

        // Overfill the ring on a synthetic clock, so the clamp has more
        // sealed windows than it may return.
        let store = service.observability().unwrap().windows();
        let capacity = store.capacity();
        for k in 1..=capacity as u64 + 3 {
            store.record_arrival("response-time/0.000");
            assert_eq!(store.tick(k * store.window_us()), Some(k - 1));
        }
        // The window list, without the wall-clock `uptime_ms` and the
        // cumulative fold around it.
        let window_list = |n: &str| {
            let reply = route(
                &service,
                &off,
                &req("GET", &format!("/metrics/windows?n={n}"), &[], b""),
            );
            assert_eq!(reply.status, 200, "n={n}");
            let list = reply.body.split("\"windows\": ").nth(1).unwrap();
            list.split(", \"cumulative\": ").next().unwrap().to_string()
        };
        // Numeric n clamps to the ring capacity instead of failing.
        let huge = window_list("999999999");
        assert_eq!(huge.matches("\"index\": ").count(), capacity);
        assert!(huge.contains(&format!("\"index\": {}", capacity + 2)));
        // Same ring state, clamped limit: identical window list.
        assert_eq!(huge, window_list(&capacity.to_string()));
        assert_eq!(
            route(
                &service,
                &off,
                &req("GET", "/metrics/windows?n=0", &[], b"")
            )
            .status,
            200
        );
    }

    #[test]
    fn planner_endpoint_is_404_without_a_planner_and_live_with_one() {
        let off = AtomicBool::new(false);

        let bare = svc();
        assert_eq!(
            route(&bare, &off, &req("GET", "/planner", &[], b"")).status,
            404
        );
        assert_eq!(
            route(&bare, &off, &req("POST", "/planner", &[], b"")).status,
            405
        );

        let planned = Arc::new(demo_service(
            60,
            9,
            ServiceConfig {
                planner: Some(crate::service::PlannerSetup::defaults()),
                ..ServiceConfig::defaults()
            },
        ));
        let reply = route(&planned, &off, &req("GET", "/planner", &[], b""));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"planner\""));
        assert!(reply.body.contains("\"tuner\""));
        assert!(reply.body.contains("\"pool_workers\""));
        assert!(reply.body.contains("\"rules_epoch\""));
    }

    #[test]
    fn body_hash_payloads_are_stable_and_in_range() {
        let r = req("POST", "/compute", &[], b"some payload bytes");
        assert_eq!(payload_for(&r, 17), payload_for(&r, 17));
        assert!(payload_for(&r, 17).unwrap() < 17);
        let explicit = req("POST", "/compute", &[("Payload", "41")], b"");
        assert_eq!(payload_for(&explicit, 7).unwrap(), 41 % 7);
    }

    #[test]
    fn loopback_round_trip_and_graceful_stop() {
        let server = Server::bind(
            "127.0.0.1:0",
            svc(),
            ServerConfig {
                keep_alive_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let running = server.spawn();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"POST /compute HTTP/1.1\r\nTolerance: 0.10\r\nObjective: response-time\r\n\
                  Payload: 5\r\nContent-Length: 0\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.text().contains("\"answered_by\""));

        // Keep-alive: a second request rides the same connection.
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);

        drop(stream);
        running.stop().unwrap();
    }
}

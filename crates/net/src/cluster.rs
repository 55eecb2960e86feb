//! tt-cluster: fault-tolerant multi-node tolerance-tier serving.
//!
//! PRs 1–5 defend the paper's per-request guarantees on a single node;
//! this module promotes that node into a *fleet*: N in-process
//! [`ComputeService`] nodes, each behind its own loopback
//! [`Server`], fronted by a [`FrontTier`] router that picks a node per
//! request by tolerance tier **and** live node health.
//!
//! Three routing strategies ([`RouteStrategy`]): primary-first
//! failover, round-robin, and smooth weighted round-robin. Requests
//! the nodes serve on a strict (0%) tier always route primary-first
//! regardless of strategy, so the tier with the hardest contract sees
//! the most predictable path; failover covers every tier when a node
//! dies.
//!
//! The control plane carries a monotonically versioned **rules
//! epoch**: [`Fleet::broadcast_rules`] installs freshly generated
//! rules on every reachable node under a new epoch, the front tier
//! stamps proxied requests with the epoch it expects
//! ([`RULES_EPOCH_HEADER`]), nodes stamp every response with the epoch
//! they served under, and the front fences any node whose stamp trails
//! the fleet — a node that missed a broadcast (control-plane
//! partition) becomes a detectable fault class instead of a silent
//! billing/accuracy bug. Node-level faults (crash, restart, data /
//! control partition) pair with [`tt_sim::NodeFaultScript`] so chaos
//! runs replay deterministically.
//!
//! Billing stays bit-identical at any node count: every node is a
//! replica of the same seeded deployment, each request bills
//! identically wherever it lands, and [`Fleet::billing_totals`]
//! aggregates per-tier *request counts* (exact integers) and derives
//! revenue closed-form as `count × unit price` — immune to
//! float-fold-order differences across arbitrary request partitions.

use crate::demo::{demo_frontend, demo_matrix};
use crate::doc::{capacity_object, events_document, fleet_windows_document};
use crate::http::{
    format_parent_span, read_response, Limits, Request, Response, PARENT_SPAN_HEADER,
    RULES_EPOCH_HEADER, TRACE_ID_HEADER,
};
use crate::server::{
    annotations, error_body, query_param, trace_tree_body, HttpHandler, Reply, RunningServer,
    Server, ServerConfig,
};
use crate::service::{ComputeService, ServiceConfig};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_bench::perfjson::{Json, JsonObject};
use tt_core::profile::ProfileMatrix;
use tt_obs::{EventLog, TraceContext, Tracer, WindowAccum};

/// How the front tier spreads tolerant-tier requests over healthy
/// nodes. Strict-tier requests always use `Failover` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Always the lowest-indexed healthy node; the rest are spares.
    Failover,
    /// Healthy nodes in rotation.
    RoundRobin,
    /// Smooth weighted round-robin over [`FleetConfig::weights`].
    Weighted,
}

impl RouteStrategy {
    /// Stable label for metrics documents.
    pub fn label(self) -> &'static str {
        match self {
            RouteStrategy::Failover => "failover",
            RouteStrategy::RoundRobin => "round-robin",
            RouteStrategy::Weighted => "weighted",
        }
    }
}

/// Fleet assembly parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replica nodes.
    pub nodes: usize,
    /// Tolerant-tier routing strategy.
    pub strategy: RouteStrategy,
    /// Per-node weights for [`RouteStrategy::Weighted`]; padded with
    /// `1` when shorter than the fleet.
    pub weights: Vec<u32>,
    /// Demo deployment size (profiled payload population).
    pub payloads: usize,
    /// Demo deployment seed; replicas are pure functions of
    /// `(payloads, seed)`, which is what makes them interchangeable.
    pub seed: u64,
    /// Per-node service template. `node_id` is overridden per node;
    /// the default template disables the per-node supervisor because
    /// rule updates are the fleet control plane's job
    /// ([`Fleet::broadcast_rules`]).
    pub service: ServiceConfig,
    /// Per-node server tuning.
    pub node_server: ServerConfig,
    /// Front-tier server tuning.
    pub front_server: ServerConfig,
}

impl FleetConfig {
    /// A small failover fleet over the demo deployment: supervisors
    /// off (the control plane owns rule swaps), snappy keep-alive.
    pub fn defaults(nodes: usize) -> Self {
        FleetConfig {
            nodes,
            strategy: RouteStrategy::Failover,
            weights: Vec::new(),
            payloads: 120,
            seed: 2024,
            service: ServiceConfig {
                supervisor: None,
                ..ServiceConfig::defaults()
            },
            node_server: ServerConfig {
                keep_alive_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            front_server: ServerConfig {
                keep_alive_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        }
    }
}

/// A node's health as the front tier sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving.
    Up,
    /// Unreachable (crashed or data-partitioned and discovered).
    Down,
    /// Reachable but serving under a stale rules epoch; excluded from
    /// routing until it re-adopts the fleet epoch.
    Fenced,
    /// Draining on request; no new work.
    Draining,
}

impl NodeState {
    fn label(self) -> &'static str {
        match self {
            NodeState::Up => "up",
            NodeState::Down => "down",
            NodeState::Fenced => "fenced",
            NodeState::Draining => "draining",
        }
    }
}

/// One pooled keep-alive connection from the front tier to a node.
struct ProxyConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ProxyConn {
    fn open(addr: SocketAddr, peer_timeout: Duration) -> io::Result<ProxyConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(peer_timeout))?;
        stream.set_write_timeout(Some(peer_timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ProxyConn {
            writer: stream,
            reader,
        })
    }

    fn exchange(&mut self, wire: &[u8], limits: &Limits) -> io::Result<Response> {
        self.writer.write_all(wire)?;
        read_response(&mut self.reader, limits)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Per-node bookkeeping shared between the front tier (data plane) and
/// the [`Fleet`] control plane.
struct NodeSlot {
    id: usize,
    weight: u32,
    service: Arc<ComputeService>,
    addr: RwLock<SocketAddr>,
    running: Mutex<Option<RunningServer>>,
    down: AtomicBool,
    fenced: AtomicBool,
    draining: AtomicBool,
    /// Front↔node data path artificially severed (chaos): proxy
    /// attempts fail as if the network ate them.
    part_data: AtomicBool,
    /// Control path severed: broadcasts skip this node.
    part_control: AtomicBool,
    served: AtomicU64,
    failures: AtomicU64,
    pool: Mutex<Vec<ProxyConn>>,
}

impl NodeSlot {
    fn name(&self) -> String {
        format!("node-{}", self.id)
    }

    fn state(&self) -> NodeState {
        if self.down.load(Ordering::SeqCst) {
            NodeState::Down
        } else if self.draining.load(Ordering::SeqCst) {
            NodeState::Draining
        } else if self.fenced.load(Ordering::SeqCst) {
            NodeState::Fenced
        } else {
            NodeState::Up
        }
    }

    /// Eligible to receive proxied work. Data-partitioned nodes stay
    /// eligible until an attempt fails — the front cannot know about a
    /// partition it hasn't hit yet.
    fn eligible(&self) -> bool {
        self.state() == NodeState::Up
    }

    fn drop_pool(&self) {
        self.pool.lock().clear();
    }
}

/// The fleet's router: an [`HttpHandler`] that proxies `/compute` to
/// healthy nodes over loopback, fails over on node death, fences
/// stale-epoch nodes, and serves fleet-level `/healthz`, `/metrics`,
/// `/cluster`, and `/drain`.
pub struct FrontTier {
    slots: Vec<Arc<NodeSlot>>,
    strategy: RouteStrategy,
    epoch: Arc<AtomicU64>,
    limits: Limits,
    /// How long proxied node reads/writes may stall before the node is
    /// declared hung — [`ServerConfig::peer_read_timeout`], so the
    /// whole stack detects a dead peer on one clock.
    peer_timeout: Duration,
    rr_cursor: AtomicUsize,
    /// Smooth weighted round-robin state (`current` weights).
    wrr: Mutex<Vec<i64>>,
    proxied: AtomicU64,
    failovers: AtomicU64,
    fence_events: AtomicU64,
    /// The front's own span ring: every proxied request gets a route
    /// span with one child span per node attempt, joined (by trace id)
    /// to the span trees the nodes record for the same request.
    tracer: Tracer,
    /// The fleet control-plane event log: epoch publishes,
    /// fence/unfence transitions, node deaths and restarts, drains.
    events: EventLog,
    boot: Instant,
}

impl std::fmt::Debug for FrontTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontTier")
            .field("nodes", &self.slots.len())
            .field("strategy", &self.strategy)
            .finish_non_exhaustive()
    }
}

/// Reason phrase for the statuses a node can answer with.
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

impl FrontTier {
    /// The fleet's current rules epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Microseconds since the front tier booted (event and span
    /// timestamps).
    fn now_us(&self) -> u64 {
        u64::try_from(self.boot.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Record one control-plane event, stamped with the front's clock.
    fn event(&self, kind: &'static str, detail: String) -> u64 {
        self.events.record(self.now_us(), kind, detail)
    }

    /// The front tier's control-plane event log.
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    /// The front tier's span ring (route + per-attempt proxy spans).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Successfully proxied requests.
    pub fn proxied(&self) -> u64 {
        self.proxied.load(Ordering::SeqCst)
    }

    /// Requests that had to move past at least one failed node.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::SeqCst)
    }

    /// Times a node was fenced for serving a stale epoch.
    pub fn fence_events(&self) -> u64 {
        self.fence_events.load(Ordering::SeqCst)
    }

    /// States of every node, in id order.
    pub fn node_states(&self) -> Vec<NodeState> {
        self.slots.iter().map(|s| s.state()).collect()
    }

    /// Whether the nodes serve `request` on a strict (0%) tier. The
    /// nodes are replicas, so the first one's tier table resolves it by
    /// the rule every node applies ([`tt_core::serving_tier`]):
    /// `Tolerance: 0.005` is as strict as `0`. A request with malformed
    /// annotations counts as strict, so its 400 comes from the primary.
    fn strict(&self, request: &Request) -> bool {
        annotations(request).map_or(true, |(tolerance, objective)| {
            self.slots[0].service.resolve(objective, tolerance).strict()
        })
    }

    /// Candidate order for one request: eligible nodes, arranged by
    /// the strategy — except strict requests, which are pinned to
    /// primary-first failover order for path predictability.
    fn order(&self, strict: bool) -> Vec<usize> {
        let eligible: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].eligible())
            .collect();
        if eligible.is_empty() {
            return eligible;
        }
        let strategy = if strict {
            RouteStrategy::Failover
        } else {
            self.strategy
        };
        match strategy {
            RouteStrategy::Failover => eligible,
            RouteStrategy::RoundRobin => {
                let start = self.rr_cursor.fetch_add(1, Ordering::SeqCst) % eligible.len();
                let mut order = Vec::with_capacity(eligible.len());
                order.extend_from_slice(&eligible[start..]);
                order.extend_from_slice(&eligible[..start]);
                order
            }
            RouteStrategy::Weighted => {
                // Smooth WRR (nginx): bump every eligible node by its
                // weight, pick the largest, subtract the total.
                let mut current = self.wrr.lock();
                let total: i64 = eligible
                    .iter()
                    .map(|&i| i64::from(self.slots[i].weight))
                    .sum();
                let mut best = eligible[0];
                for &i in &eligible {
                    current[i] += i64::from(self.slots[i].weight);
                    if current[i] > current[best] {
                        best = i;
                    }
                }
                current[best] -= total;
                let mut order = vec![best];
                order.extend(eligible.iter().copied().filter(|&i| i != best));
                order
            }
        }
    }

    /// Forward `request` to `slot`, stamped with the fleet epoch and
    /// the trace context (`trace` parents the node's span tree under
    /// this attempt's proxy span). Pooled connections get one retry on
    /// a fresh socket before the node is declared unreachable.
    fn proxy_once(
        &self,
        slot: &NodeSlot,
        request: &Request,
        trace: &TraceContext,
    ) -> io::Result<Response> {
        if slot.part_data.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "data partition",
            ));
        }
        let epoch = self.epoch();
        let mut wire = format!("{} {} HTTP/1.1\r\n", request.method, request.target).into_bytes();
        for (name, value) in &request.headers {
            // Only the API's own headers cross the proxy; transport
            // headers are per-hop. Duplicates are preserved so the
            // node's DuplicateHeader 400 still fires.
            if name.eq_ignore_ascii_case("tolerance")
                || name.eq_ignore_ascii_case("objective")
                || name.eq_ignore_ascii_case("payload")
                || name.eq_ignore_ascii_case("cache-control")
            {
                wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
            }
        }
        wire.extend_from_slice(format!("{RULES_EPOCH_HEADER}: {epoch}\r\n").as_bytes());
        wire.extend_from_slice(format!("{TRACE_ID_HEADER}: {}\r\n", trace.trace_id).as_bytes());
        wire.extend_from_slice(
            format!("{PARENT_SPAN_HEADER}: {}\r\n", format_parent_span(trace)).as_bytes(),
        );
        wire.extend_from_slice(
            format!(
                "Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                request.body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(&request.body);

        let addr = *slot.addr.read();
        let pooled = slot.pool.lock().pop();
        if let Some(mut conn) = pooled {
            if let Ok(response) = conn.exchange(&wire, &self.limits) {
                slot.pool.lock().push(conn);
                return Ok(response);
            }
            // The pooled socket may simply have been reaped by the
            // node's keep-alive timeout; only a fresh socket failing
            // proves the node unreachable.
        }
        let mut conn = ProxyConn::open(addr, self.peer_timeout)?;
        let response = conn.exchange(&wire, &self.limits)?;
        if slot.pool.lock().len() < 8 {
            slot.pool.lock().push(conn);
        }
        Ok(response)
    }

    /// Proxy with health-aware failover: walk the candidate order,
    /// marking unreachable nodes down and stale nodes fenced, until a
    /// node answers under the fleet epoch.
    ///
    /// Every request gets a front-side trace: a `route` span with one
    /// `proxy` child per attempted node (failed and successful
    /// attempts are sibling spans), and the chosen node joins the same
    /// trace id on its own ring — `GET /trace/{id}` on the front
    /// reassembles the full cross-node tree.
    fn proxy_compute(&self, request: &Request) -> Reply {
        let strict = self.strict(request);
        // Originate the fleet trace — or join one the client carried.
        let handle = match request.trace_context() {
            Some(context) => self.tracer.begin_remote(context),
            None => self.tracer.begin(),
        };
        let trace_id = handle.trace_id();
        let hop = handle.context().hop;
        let route = handle.open("route", None, self.now_us());
        handle.attr_str(
            route,
            "strategy",
            if strict {
                RouteStrategy::Failover.label()
            } else {
                self.strategy.label()
            },
        );
        let mut moved_past_failure = false;
        let mut relayed = None;
        for id in self.order(strict) {
            let slot = &self.slots[id];
            let attempt = handle.open("proxy", Some(route), self.now_us());
            handle.attr_text(attempt, "node", slot.name());
            let downstream = TraceContext {
                trace_id,
                parent_span: Some(attempt),
                hop: hop + 1,
            };
            match self.proxy_once(slot, request, &downstream) {
                Err(_) => {
                    handle.attr_str(attempt, "outcome", "error");
                    handle.close(attempt, self.now_us());
                    slot.failures.fetch_add(1, Ordering::SeqCst);
                    let newly_down = !slot.down.swap(true, Ordering::SeqCst);
                    slot.drop_pool();
                    moved_past_failure = true;
                    if newly_down {
                        self.event(
                            "node_down",
                            format!("{} unreachable; failing over", slot.name()),
                        );
                    }
                }
                Ok(response) => {
                    let fleet_epoch = self.epoch();
                    let stamp = response
                        .header(RULES_EPOCH_HEADER)
                        .and_then(|v| v.trim().parse::<u64>().ok());
                    let stale =
                        response.status == 409 || stamp.is_some_and(|served| served < fleet_epoch);
                    if stale {
                        // The node answered from an older rules
                        // generation: fence it and move on.
                        handle.attr_str(attempt, "outcome", "stale");
                        handle.close(attempt, self.now_us());
                        let newly_fenced = !slot.fenced.swap(true, Ordering::SeqCst);
                        self.fence_events.fetch_add(1, Ordering::SeqCst);
                        moved_past_failure = true;
                        if newly_fenced {
                            self.event(
                                "fence",
                                format!(
                                    "{} served a stale epoch (fleet at {fleet_epoch})",
                                    slot.name()
                                ),
                            );
                        }
                        continue;
                    }
                    handle.attr_str(attempt, "outcome", "ok");
                    handle.attr_int(attempt, "status", i64::from(response.status));
                    handle.close(attempt, self.now_us());
                    slot.served.fetch_add(1, Ordering::SeqCst);
                    self.proxied.fetch_add(1, Ordering::SeqCst);
                    if moved_past_failure {
                        self.failovers.fetch_add(1, Ordering::SeqCst);
                    }
                    relayed = Some(relay(slot, &response));
                    break;
                }
            }
        }
        handle.close(route, self.now_us());
        self.tracer.retire(handle);
        let reply = relayed.unwrap_or_else(|| {
            Reply::json(
                503,
                "Service Unavailable",
                JsonObject::new()
                    .with_str("error", "no healthy node")
                    .with_int("epoch", self.epoch() as i64)
                    .render(),
            )
            .with_header(RULES_EPOCH_HEADER, self.epoch())
        });
        // The front's trace id wins over the node's echo: both name
        // the same fleet-wide trace, but only one copy may cross back
        // to the client.
        reply.with_header(TRACE_ID_HEADER, trace_id)
    }

    /// `GET /trace/{id}` at the fleet level: join the front's route
    /// span tree with every node-local tree recorded for the same
    /// trace id, ordered by hop then request id — the full cross-node
    /// story of one request, assembled in-process.
    fn trace_by_id(&self, path: &str) -> Reply {
        let Some(id) = path
            .strip_prefix("/trace/")
            .and_then(|raw| raw.parse::<u64>().ok())
        else {
            return Reply::json(404, "Not Found", error_body("no such trace"));
        };
        let mut traces = self.tracer.find(id);
        for slot in &self.slots {
            if let Some(obs) = slot.service.observability() {
                traces.extend(obs.tracer().find(id));
            }
        }
        if traces.is_empty() {
            return Reply::json(404, "Not Found", error_body("no such trace"));
        }
        Reply::json(200, "OK", trace_tree_body(id, &traces))
    }

    /// `GET /metrics/windows` at the fleet level: each node's
    /// cumulative telemetry fold plus the deterministic fleet merge —
    /// the capacity planner's input contract, node-count-invariant for
    /// a fixed request multiset.
    fn windows(&self) -> Reply {
        let nodes: Vec<(usize, WindowAccum)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.service
                    .observability()
                    .map(|obs| (slot.id, obs.windows().cumulative()))
            })
            .collect();
        let doc = fleet_windows_document(&nodes, self.now_us() / 1_000)
            .with_str("strategy", self.strategy.label())
            .with_int("epoch", self.epoch() as i64);
        Reply::json(200, "OK", doc.render())
    }

    /// `GET /events?since=seq`: the fleet control-plane event log
    /// (epoch publishes, fence/unfence, node deaths, drains). With
    /// `?node=i`, the named node's own log instead — planner resizes,
    /// forecast regens, and tuner nudges land there, so the fleet
    /// endpoint surfaces every control decision in the cluster.
    fn events_reply(&self, request: &Request) -> Reply {
        let since = query_param(request, "since")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if let Some(raw) = query_param(request, "node") {
            let Ok(id) = raw.parse::<usize>() else {
                return Reply::json(400, "Bad Request", error_body("bad node index"));
            };
            let Some(slot) = self.slots.get(id) else {
                return Reply::json(404, "Not Found", error_body(&format!("no node {id}")));
            };
            let Some(obs) = slot.service.observability() else {
                return Reply::json(404, "Not Found", error_body("observability disabled"));
            };
            let log = obs.events();
            let doc = events_document(&log.since(since), log.last_seq(), log.dropped())
                .with_str("scope", &slot.name());
            return Reply::json(200, "OK", doc.render());
        }
        let events = self.events.since(since);
        let doc = events_document(&events, self.events.last_seq(), self.events.dropped())
            .with_str("scope", "fleet");
        Reply::json(200, "OK", doc.render())
    }

    /// `GET /planner` at the fleet level: every node's capacity-planner
    /// status side by side, plus fleet-wide provisioning totals. 404
    /// when no node runs a planner.
    fn planner_reply(&self) -> Reply {
        let mut nodes = JsonObject::new();
        let mut configured = 0i64;
        let mut pool_workers = 0i64;
        let mut resizes = 0i64;
        let mut mix_regens = 0i64;
        for slot in &self.slots {
            if let Some(status) = slot.service.capacity_status() {
                configured += 1;
                pool_workers += status.pool_workers as i64;
                resizes += status.planner.resizes as i64;
                mix_regens += status.mix_regens as i64;
                nodes = nodes.with(&slot.name(), Json::Object(capacity_object(&status)));
            }
        }
        if configured == 0 {
            return Reply::json(404, "Not Found", error_body("planner disabled"));
        }
        let doc = JsonObject::new()
            .with_str("scope", "fleet")
            .with_int("epoch", self.epoch() as i64)
            .with_int("planned_nodes", configured)
            .with_int("pool_workers", pool_workers)
            .with_int("resizes", resizes)
            .with_int("mix_regens", mix_regens)
            .with("nodes", Json::Object(nodes));
        Reply::json(200, "OK", doc.render())
    }

    /// `GET /healthz` at the fleet level: `200 ok` while every node is
    /// up; degraded JSON naming the unhealthy nodes while at least one
    /// node still serves; `503` when none do.
    fn healthz(&self) -> Reply {
        let states = self.node_states();
        let healthy = states.iter().filter(|s| **s == NodeState::Up).count();
        if healthy == states.len() {
            return Reply {
                status: 200,
                reason: "OK",
                content_type: "text/plain",
                body: format!("ok ({healthy} nodes)\n"),
                headers: Vec::new(),
            };
        }
        let name = |wanted: NodeState| {
            Json::Array(
                self.slots
                    .iter()
                    .filter(|s| s.state() == wanted)
                    .map(|s| Json::Str(s.name()))
                    .collect(),
            )
        };
        let body = JsonObject::new()
            .with_str(
                "status",
                if healthy == 0 {
                    "unavailable"
                } else {
                    "degraded"
                },
            )
            .with_int("healthy", healthy as i64)
            .with_int("epoch", self.epoch() as i64)
            .with("down", name(NodeState::Down))
            .with("fenced", name(NodeState::Fenced))
            .with("draining", name(NodeState::Draining))
            .render();
        if healthy == 0 {
            Reply::json(503, "Service Unavailable", body)
        } else {
            Reply::json(200, "OK", body)
        }
    }

    /// The fleet metrics document: routing counters, per-node health
    /// and epochs, and the closed-form billing aggregate whose
    /// `totals` subtree is bit-identical at any node count.
    fn metrics(&self) -> Reply {
        let mut nodes = JsonObject::new();
        for slot in &self.slots {
            nodes = nodes.with(
                &slot.name(),
                Json::Object(
                    JsonObject::new()
                        .with_str("state", slot.state().label())
                        .with_int("epoch", slot.service.rules_epoch() as i64)
                        .with_int("weight", i64::from(slot.weight))
                        .with_int("served", slot.served.load(Ordering::SeqCst) as i64)
                        .with_int("failures", slot.failures.load(Ordering::SeqCst) as i64)
                        .with_str("addr", &slot.addr.read().to_string()),
                ),
            );
        }
        let fenced = Json::Array(
            self.slots
                .iter()
                .filter(|s| s.state() == NodeState::Fenced)
                .map(|s| Json::Str(s.name()))
                .collect(),
        );
        let mut totals = JsonObject::new();
        for ((objective, milli), (requests, revenue)) in aggregate_billing(&self.slots) {
            totals = totals.with(
                &format!("{objective}/{:.3}", milli as f64 / 1000.0),
                Json::Object(
                    JsonObject::new()
                        .with_int("requests", requests as i64)
                        .with_num("revenue_usd", revenue),
                ),
            );
        }
        let doc = JsonObject::new()
            .with_str("service", "toltiers-fleet")
            .with_str("strategy", self.strategy.label())
            .with_int("epoch", self.epoch() as i64)
            .with_int("nodes", self.slots.len() as i64)
            .with_int("proxied", self.proxied() as i64)
            .with_int("failovers", self.failovers() as i64)
            .with_int("fence_events", self.fence_events() as i64)
            .with("fenced", fenced)
            .with("node_states", Json::Object(nodes))
            .with(
                "billing",
                Json::Object(JsonObject::new().with("totals", Json::Object(totals))),
            );
        Reply::json(200, "OK", doc.render())
    }

    /// `POST /drain?node=i`: relay a drain to one node and take it out
    /// of rotation; without `node`, drain the front tier itself.
    fn drain(&self, request: &Request, shutdown: &AtomicBool) -> Reply {
        let node = request
            .target
            .split_once('?')
            .and_then(|(_, q)| q.split('&').find_map(|kv| kv.strip_prefix("node=")))
            .map(|v| v.parse::<usize>());
        match node {
            None => {
                shutdown.store(true, Ordering::SeqCst);
                Reply::json(
                    202,
                    "Accepted",
                    JsonObject::new()
                        .with("draining", Json::Bool(true))
                        .with_int("in_flight", 0)
                        .with_int("epoch", self.epoch() as i64)
                        .with_str("node", "front")
                        .render(),
                )
            }
            Some(Err(_)) => Reply::json(400, "Bad Request", error_body("bad node index")),
            Some(Ok(id)) if id >= self.slots.len() => {
                Reply::json(404, "Not Found", error_body(&format!("no node {id}")))
            }
            Some(Ok(id)) => {
                let slot = &self.slots[id];
                let wire = b"POST /drain HTTP/1.1\r\nConnection: close\r\n\r\n";
                let addr = *slot.addr.read();
                let relayed = ProxyConn::open(addr, self.peer_timeout)
                    .and_then(|mut conn| conn.exchange(wire, &self.limits));
                match relayed {
                    Ok(response) => {
                        slot.draining.store(true, Ordering::SeqCst);
                        slot.drop_pool();
                        self.event("drain", format!("{} draining on request", slot.name()));
                        relay(slot, &response)
                    }
                    Err(_) => {
                        slot.down.store(true, Ordering::SeqCst);
                        Reply::json(
                            503,
                            "Service Unavailable",
                            error_body(&format!("{} unreachable", slot.name())),
                        )
                    }
                }
            }
        }
    }
}

/// Convert a node's wire response into the front tier's reply,
/// preserving the protocol headers and naming the serving node.
fn relay(slot: &NodeSlot, response: &Response) -> Reply {
    let content_type = match response.header("content-type") {
        Some(v) if v.starts_with("text/plain") => "text/plain",
        _ => "application/json",
    };
    let mut reply = Reply {
        status: response.status,
        reason: reason_for(response.status),
        content_type,
        body: response.text(),
        headers: Vec::new(),
    };
    for known in [
        RULES_EPOCH_HEADER,
        "Retry-After",
        "Brownout",
        "X-Cache",
        "X-Cache-Match",
    ] {
        if let Some(value) = response.header(known) {
            reply = reply.with_header(known, value.to_string());
        }
    }
    reply.with_header("Served-By", slot.name())
}

impl HttpHandler for FrontTier {
    fn handle(&self, request: &Request, shutdown: &AtomicBool) -> Reply {
        match (request.method.as_str(), request.path()) {
            ("POST", "/compute") => self.proxy_compute(request),
            ("GET", "/healthz") | ("HEAD", "/healthz") => self.healthz(),
            ("GET", "/metrics/windows") | ("HEAD", "/metrics/windows") => self.windows(),
            ("GET", "/events") | ("HEAD", "/events") => self.events_reply(request),
            ("GET", "/planner") | ("HEAD", "/planner") => self.planner_reply(),
            ("GET", "/metrics")
            | ("HEAD", "/metrics")
            | ("GET", "/cluster")
            | ("HEAD", "/cluster") => self.metrics(),
            ("GET", path) | ("HEAD", path) if path.starts_with("/trace/") => self.trace_by_id(path),
            ("POST", "/drain") => self.drain(request, shutdown),
            (_, "/compute")
            | (_, "/healthz")
            | (_, "/metrics")
            | (_, "/metrics/windows")
            | (_, "/events")
            | (_, "/planner")
            | (_, "/cluster")
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

    /// The front tier's heartbeat is the epoch probe: any node whose
    /// adopted epoch trails the fleet is fenced (it missed a
    /// broadcast), and a fenced node that has caught back up is
    /// unfenced. Runs every idle tick (~2ms), far inside one SLO
    /// sentinel window, so a deliberately stale node is fenced within
    /// a window of going stale.
    fn on_idle(&self) {
        let fleet_epoch = self.epoch();
        for slot in &self.slots {
            if slot.down.load(Ordering::SeqCst) || slot.draining.load(Ordering::SeqCst) {
                continue;
            }
            let node_epoch = slot.service.rules_epoch();
            if node_epoch < fleet_epoch {
                if !slot.fenced.swap(true, Ordering::SeqCst) {
                    self.fence_events.fetch_add(1, Ordering::SeqCst);
                    self.event(
                        "fence",
                        format!(
                            "{} at epoch {node_epoch}, fleet at {fleet_epoch}",
                            slot.name()
                        ),
                    );
                }
            } else if slot.fenced.swap(false, Ordering::SeqCst) {
                self.event(
                    "unfence",
                    format!("{} re-adopted epoch {node_epoch}", slot.name()),
                );
            }
        }
    }
}

/// Per-tier `(requests, revenue)` aggregated across nodes. Request
/// counts add exactly (integers); revenue is derived closed-form as
/// `count × unit price`, so the aggregate is invariant under *any*
/// partition of the same request multiset across nodes — the
/// float-fold order inside each node never leaks into the fleet total.
fn aggregate_billing(slots: &[Arc<NodeSlot>]) -> BTreeMap<(String, u32), (usize, f64)> {
    let mut totals: BTreeMap<(String, u32), usize> = BTreeMap::new();
    for slot in slots {
        for (key, tier) in &slot.service.snapshot().billing.tiers {
            *totals.entry(key.clone()).or_insert(0) += tier.requests;
        }
    }
    totals
        .into_iter()
        .map(|((objective, milli), requests)| {
            let price = slots[0]
                .service
                .schedule()
                .price_for(milli as f64 / 1000.0)
                .as_dollars();
            ((objective, milli), (requests, requests as f64 * price))
        })
        .collect()
}

/// A running fleet: N replica nodes, the front tier, and the control
/// plane (rules broadcast, chaos operations, billing aggregation).
pub struct Fleet {
    slots: Vec<Arc<NodeSlot>>,
    front: Arc<FrontTier>,
    front_running: Option<RunningServer>,
    epoch: Arc<AtomicU64>,
    matrix: Arc<ProfileMatrix>,
    config: FleetConfig,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("nodes", &self.slots.len())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Build and boot a fleet: one shared demo deployment, N replica
    /// services each behind its own loopback server, and the front
    /// tier listening on its own ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding any server.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes == 0`.
    pub fn launch(config: FleetConfig) -> io::Result<Fleet> {
        assert!(config.nodes > 0, "a fleet needs at least one node");
        let matrix = Arc::new(demo_matrix(config.payloads, config.seed));
        let epoch = Arc::new(AtomicU64::new(1));
        let mut slots = Vec::with_capacity(config.nodes);
        for id in 0..config.nodes {
            let service = Arc::new(ComputeService::new(
                Arc::clone(&matrix),
                demo_frontend(&matrix, config.seed),
                ServiceConfig {
                    node_id: id,
                    ..config.service.clone()
                },
            ));
            let server = Server::bind(
                "127.0.0.1:0",
                Arc::clone(&service),
                config.node_server.clone(),
            )?;
            let addr = server.local_addr();
            let weight = config.weights.get(id).copied().unwrap_or(1).max(1);
            slots.push(Arc::new(NodeSlot {
                id,
                weight,
                service,
                addr: RwLock::new(addr),
                running: Mutex::new(Some(server.spawn())),
                down: AtomicBool::new(false),
                fenced: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                part_data: AtomicBool::new(false),
                part_control: AtomicBool::new(false),
                served: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                pool: Mutex::new(Vec::new()),
            }));
        }
        let front = Arc::new(FrontTier {
            wrr: Mutex::new(vec![0; slots.len()]),
            slots: slots.clone(),
            strategy: config.strategy,
            epoch: Arc::clone(&epoch),
            limits: config.front_server.limits,
            peer_timeout: config.front_server.peer_read_timeout,
            rr_cursor: AtomicUsize::new(0),
            proxied: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            fence_events: AtomicU64::new(0),
            tracer: Tracer::new(config.service.obs.trace_capacity),
            events: EventLog::new(config.service.obs.event_capacity),
            boot: Instant::now(),
        });
        let front_server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&front),
            config.front_server.clone(),
        )?;
        let front_running = Some(front_server.spawn());
        Ok(Fleet {
            slots,
            front,
            front_running,
            epoch,
            matrix,
            config,
        })
    }

    /// The front tier's listening address — where clients point.
    pub fn front_addr(&self) -> SocketAddr {
        self.front_running
            .as_ref()
            .map(RunningServer::addr)
            .expect("front tier is running")
    }

    /// The front tier router (health states, counters).
    pub fn front(&self) -> &Arc<FrontTier> {
        &self.front
    }

    /// The fleet's current rules epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of nodes (in any state).
    pub fn nodes(&self) -> usize {
        self.slots.len()
    }

    /// Node `id`'s service (billing snapshots, epoch checks).
    pub fn node_service(&self, id: usize) -> &Arc<ComputeService> {
        &self.slots[id].service
    }

    /// Node `id`'s current listening address.
    pub fn node_addr(&self, id: usize) -> SocketAddr {
        *self.slots[id].addr.read()
    }

    /// Kill node `id`: pooled connections are dropped and its server
    /// stops. The front tier is *not* told — it discovers the death
    /// the way a real router would, by a proxy attempt failing, and
    /// fails the request over. In-flight requests finish first (the
    /// server drains before its threads join, so TCP delivers their
    /// responses), and a request whose connect fails was never
    /// executed — a crash therefore never loses or double-bills.
    pub fn crash_node(&self, id: usize) {
        let slot = &self.slots[id];
        slot.drop_pool();
        if let Some(running) = slot.running.lock().take() {
            let _ = running.stop();
        }
        self.front
            .event("node_crash", format!("{} killed (chaos)", slot.name()));
    }

    /// Restart a crashed node on a fresh port with its state intact,
    /// and hand it the current rules under the current epoch so it
    /// rejoins unfenced.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the new bind.
    pub fn restart_node(&self, id: usize) -> io::Result<()> {
        let slot = &self.slots[id];
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&slot.service),
            self.config.node_server.clone(),
        )?;
        *slot.addr.write() = server.local_addr();
        *slot.running.lock() = Some(server.spawn());
        if !slot.part_control.load(Ordering::SeqCst) {
            slot.service
                .adopt_rules(demo_frontend(&self.matrix, self.config.seed), self.epoch());
        }
        slot.fenced.store(false, Ordering::SeqCst);
        slot.draining.store(false, Ordering::SeqCst);
        slot.down.store(false, Ordering::SeqCst);
        self.front.event(
            "node_restart",
            format!("{} back at {}", slot.name(), slot.addr.read()),
        );
        Ok(())
    }

    /// Sever or heal the front↔node data path (requests fail on the
    /// wire; the node itself keeps running).
    pub fn partition_data(&self, id: usize, severed: bool) {
        let slot = &self.slots[id];
        slot.part_data.store(severed, Ordering::SeqCst);
        if severed {
            slot.drop_pool();
        } else {
            // A healed node is reachable again; let routing rediscover
            // it.
            slot.down.store(false, Ordering::SeqCst);
        }
    }

    /// Sever or heal the control path: while severed the node misses
    /// every [`Fleet::broadcast_rules`] and drifts to a stale epoch.
    pub fn partition_control(&self, id: usize, severed: bool) {
        self.slots[id].part_control.store(severed, Ordering::SeqCst);
    }

    /// Broadcast freshly generated routing rules to every reachable
    /// node under a new fleet epoch (the cluster-wide form of the PR-5
    /// supervisor hot-swap). Rules are generated once and installed on
    /// the nodes *before* the fleet epoch is published — a node may
    /// briefly run ahead of the fleet (harmless; the fence only
    /// triggers on nodes running behind), but a healthy node is never
    /// transiently fenced mid-rollout. Nodes behind a control
    /// partition or down are skipped — the front tier's probe fences
    /// them until they re-adopt. Returns the new epoch.
    pub fn broadcast_rules(&self) -> u64 {
        let epoch = self.epoch.load(Ordering::SeqCst) + 1;
        let frontend = demo_frontend(&self.matrix, self.config.seed);
        // Fence the shared result cache first: the purge must land
        // before any node installs (and starts serving under) the new
        // rules, so no node can answer a post-epoch request with a
        // pre-epoch cached entry. Skipped nodes are epoch-fenced by
        // the same advance — their lookups go Stale until re-adopt.
        if let Some(cache) = &self.config.service.cache {
            cache.purge_to_epoch(epoch);
        }
        let mut adopted = 0usize;
        for slot in &self.slots {
            if slot.part_control.load(Ordering::SeqCst) || slot.down.load(Ordering::SeqCst) {
                continue;
            }
            slot.service.adopt_rules(frontend.clone(), epoch);
            adopted += 1;
        }
        self.epoch.store(epoch, Ordering::SeqCst);
        self.front.event(
            "epoch_publish",
            format!("rules epoch {epoch} published to {adopted} nodes"),
        );
        epoch
    }

    /// Fleet-wide per-tier billing:
    /// `(objective, tolerance-milli) → (requests, revenue_usd)`.
    /// Request counts add exactly across nodes; revenue is closed-form
    /// `count × unit price`, so a fixed request multiset yields
    /// bit-identical totals at any node count, thread count, or
    /// failover history.
    pub fn billing_totals(&self) -> BTreeMap<(String, u32), (usize, f64)> {
        aggregate_billing(&self.slots)
    }

    /// Stop the front tier, then every node, surfacing the first
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates the first server-thread error.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut result = Ok(());
        if let Some(front) = self.front_running.take() {
            result = front.stop();
        }
        for slot in &self.slots {
            if let Some(running) = slot.running.lock().take() {
                let stopped = running.stop();
                if result.is_ok() {
                    result = stopped;
                }
            }
        }
        result
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(front) = self.front_running.take() {
            let _ = front.stop();
        }
        for slot in &self.slots {
            if let Some(running) = slot.running.lock().take() {
                let _ = running.stop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{run_load, LoadConfig};

    fn small_fleet(nodes: usize, strategy: RouteStrategy) -> Fleet {
        let mut config = FleetConfig::defaults(nodes);
        config.payloads = 60;
        config.seed = 9;
        config.strategy = strategy;
        Fleet::launch(config).expect("fleet boots")
    }

    #[test]
    fn round_robin_spreads_and_failover_pins() {
        let fleet = small_fleet(3, RouteStrategy::RoundRobin);
        let report = run_load(fleet.front_addr(), &LoadConfig::closed(90, 3, 60, 5)).expect("load");
        assert_eq!(report.ok, 90);
        let served: Vec<u64> = fleet
            .slots
            .iter()
            .map(|s| s.served.load(Ordering::SeqCst))
            .collect();
        assert_eq!(served.iter().sum::<u64>(), 90);
        // Strict requests pin to node 0; tolerant ones rotate, so
        // every node must have seen work.
        assert!(
            served.iter().all(|&n| n > 0),
            "round-robin must spread: {served:?}"
        );
        fleet.shutdown().expect("clean shutdown");
    }

    #[test]
    fn weighted_routing_respects_weights() {
        let mut config = FleetConfig::defaults(2);
        config.payloads = 60;
        config.seed = 9;
        config.strategy = RouteStrategy::Weighted;
        config.weights = vec![3, 1];
        let fleet = Fleet::launch(config).expect("fleet boots");
        let report = run_load(fleet.front_addr(), &LoadConfig::closed(80, 2, 60, 5)).expect("load");
        assert_eq!(report.ok, 80);
        let a = fleet.slots[0].served.load(Ordering::SeqCst);
        let b = fleet.slots[1].served.load(Ordering::SeqCst);
        assert!(
            a > b,
            "weight 3 node must out-serve weight 1 node: {a} vs {b}"
        );
        fleet.shutdown().expect("clean shutdown");
    }

    #[test]
    fn billing_aggregate_is_node_count_invariant() {
        let totals_at = |nodes: usize| {
            let fleet = small_fleet(nodes, RouteStrategy::RoundRobin);
            let report =
                run_load(fleet.front_addr(), &LoadConfig::closed(120, 4, 60, 11)).expect("load");
            assert_eq!(report.ok, 120);
            let totals = fleet.billing_totals();
            fleet.shutdown().expect("clean shutdown");
            totals
        };
        let one = totals_at(1);
        let three = totals_at(3);
        assert_eq!(one.len(), three.len());
        for (key, (requests, revenue)) in &one {
            let (r3, v3) = three[key];
            assert_eq!(r3, *requests, "requests for {key:?}");
            assert_eq!(
                v3.to_bits(),
                revenue.to_bits(),
                "revenue for {key:?} must be bit-identical"
            );
        }
    }

    #[test]
    fn stale_epoch_nodes_are_fenced_and_recover() {
        let fleet = small_fleet(2, RouteStrategy::RoundRobin);
        fleet.partition_control(1, true);
        let epoch = fleet.broadcast_rules();
        assert_eq!(fleet.node_service(0).rules_epoch(), epoch);
        assert!(
            fleet.node_service(1).rules_epoch() < epoch,
            "node 1 missed it"
        );
        // The front's idle probe fences node 1 (invoke directly — the
        // live event loop does the same every ~2ms).
        fleet.front().on_idle();
        assert_eq!(fleet.front().node_states()[1], NodeState::Fenced);
        // A direct proxied request stamped with the fleet epoch is
        // refused by the stale node with 409.
        let reply = fleet.front().proxy_compute(&Request {
            method: "POST".into(),
            target: "/compute".into(),
            headers: vec![("Payload".into(), "3".into())],
            body: Vec::new(),
            keep_alive: false,
        });
        assert_eq!(reply.status, 200, "healthy node still serves");
        assert_eq!(reply.header("served-by"), Some("node-0"));
        // Heal and re-broadcast: the node adopts, the probe unfences.
        fleet.partition_control(1, false);
        fleet.broadcast_rules();
        fleet.front().on_idle();
        assert_eq!(fleet.front().node_states()[1], NodeState::Up);
        fleet.shutdown().expect("clean shutdown");
    }

    #[test]
    fn sub_tier_tolerances_route_primary_first_like_strict_ones() {
        let fleet = small_fleet(2, RouteStrategy::RoundRobin);
        // What the front's route span names, and which node answered,
        // for two requests in a row at `tolerance`.
        let route = |tolerance: &str| -> Vec<(String, String)> {
            (0..2)
                .map(|_| {
                    let reply = fleet.front().proxy_compute(&Request {
                        method: "POST".into(),
                        target: "/compute".into(),
                        headers: vec![
                            ("Tolerance".into(), tolerance.into()),
                            ("Payload".into(), "3".into()),
                        ],
                        body: Vec::new(),
                        keep_alive: false,
                    });
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    let trace = fleet.front().tracer().recent(1).remove(0);
                    let span = trace.span("route").expect("a route span");
                    let strategy = trace
                        .attrs(span.id)
                        .find_map(|(key, value)| match value {
                            tt_obs::AttrValue::Str(label) if key == "strategy" => {
                                Some(label.to_string())
                            }
                            _ => None,
                        })
                        .expect("the route span names its strategy");
                    (strategy, reply.header("served-by").unwrap().to_string())
                })
                .collect()
        };
        let primary_first = vec![("failover".to_string(), "node-0".to_string()); 2];
        // Every node serves 0.5% on the strict tier (the loosest
        // advertised tier not above it is 0%), so the front pins it to
        // the primary exactly as it pins 0.
        assert_eq!(route("0"), primary_first);
        assert_eq!(route("0.005"), primary_first);
        assert_eq!(route("0.01")[0].0, "round-robin");
        fleet.shutdown().expect("clean shutdown");
    }

    #[test]
    fn data_partition_downs_a_node_and_heals() {
        let fleet = small_fleet(2, RouteStrategy::RoundRobin);
        fleet.partition_data(1, true);
        let report = run_load(fleet.front_addr(), &LoadConfig::closed(40, 2, 60, 3)).expect("load");
        assert_eq!(report.ok, 40, "failover hides the partition");
        assert_eq!(fleet.front().node_states()[1], NodeState::Down);
        assert!(fleet.front().failovers() > 0);
        fleet.partition_data(1, false);
        let report = run_load(fleet.front_addr(), &LoadConfig::closed(40, 2, 60, 4)).expect("load");
        assert_eq!(report.ok, 40);
        assert_eq!(fleet.front().node_states()[1], NodeState::Up);
        fleet.shutdown().expect("clean shutdown");
    }
}

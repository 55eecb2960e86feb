//! A real wire-protocol serving stack for Tolerance Tiers.
//!
//! The workspace simulates the paper's tiered cloud service in virtual
//! time; this crate puts the same stack behind an actual socket. A
//! hand-rolled, bounded HTTP/1.1 layer ([`http`]) carries the paper's
//! API:
//!
//! ```text
//! curl --header "Tolerance: 0.01" \
//!      --header "Objective: response-time" \
//!      --data-binary @input-file \
//!      -X POST http://127.0.0.1:8737/compute
//! ```
//!
//! A request traverses annotation parsing
//! ([`tt_serve::frontend::parse_annotations`]), tier resolution (once,
//! against the deployment's [`tiers::TierTable`]), resilient execution on a
//! live worker pool (retries, circuit breakers, degradation — the
//! [`service`] module), and billing — end to end over the wire. The
//! [`server`] module adds the operational surface (`/healthz`,
//! `/stats`, `/metrics`, `/trace/recent`, `/drain`, load shedding,
//! graceful drain) and [`loadgen`]
//! drives it all in closed- or open-loop mode ([`crate::demo`]
//! supplies the deterministic synthetic deployment they share).
//!
//! No HTTP framework is involved: the build environment is offline, so
//! the wire layer sits directly on `std::net` with hard input bounds,
//! and the server is an epoll reactor (Linux only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batch;
pub mod cluster;
pub mod demo;
pub mod doc;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod obs;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod service;
pub mod stats;
pub mod tiers;

pub use cluster::{Fleet, FleetConfig, FrontTier, NodeState, RouteStrategy};

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, BrownoutLevel, TierAdmission,
};
pub use batch::BatchConfig;
pub use http::{
    read_request, read_response, write_response_with, HeaderValue, HttpError, Limits, Request,
    RequestAssembler, Response,
};
pub use loadgen::{
    post_drain, run_load, ArrivalShape, CacheFact, DrainAck, DrainedBy, LoadConfig, LoadMode,
    LoadReport, SlowRequest, TierLoad,
};
pub use metrics::{admission_object, metrics_document, supervisor_object};
pub use obs::{CacheEvent, ObsConfig, Observability, ServedSample};
pub use server::{
    socket_config_failures, Engine, RunningServer, Server, ServerConfig, ShutdownHandle,
    PEER_READ_TIMEOUT,
};
pub use service::{
    semantic_key, CacheAdmitTicket, CacheServed, CachedAnswer, CapacityStatus, ComputeOutcome,
    ComputeService, OutcomeSink, PlannerSetup, ResultCache, ServiceConfig, ServiceError,
    ServiceSnapshot, SupervisorSetup, SupervisorStatus, CACHE_HIT_SIM_LATENCY_US,
};
pub use stats::stats_document;

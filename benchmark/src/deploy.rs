//! The pinned deployment every serving workload measures.
//!
//! Every knob that shapes the measured path is named here and echoed
//! into the run's output; nothing is taken from a default a later
//! change may flip. The deployment (profile matrix and generated
//! rules) is part of this configuration, so it is built from the fixed
//! [`DEPLOYMENT_SEED`]; the command-line seed shapes only the inputs
//! (request streams and arrival schedules).

use std::sync::Arc;
use std::time::Duration;
use tt_net::demo::demo_service;
use tt_net::server::{Engine, RunningServer, Server, ServerConfig};
use tt_net::service::{ComputeService, ResultCache, ServiceConfig, SupervisorSetup};
use tt_net::{BatchConfig, ObsConfig};

/// Seed of the demo profile matrix and its routing rules.
pub const DEPLOYMENT_SEED: u64 = 42;

/// Profiled payloads behind the path and wire workloads.
pub const PAYLOADS: usize = 80;

/// Hardware threads on this host: the cap on generator threads and
/// connections, and the unit the pinned pool sizes are stated in.
/// Counted once, at the first call: a workload that later confines
/// itself to fewer still sizes everything by the host.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(tt_core::available_threads)
}

/// The knobs a workload may vary; everything else is fixed in
/// [`service_config`].
#[derive(Clone)]
pub struct Knobs {
    pub payloads: usize,
    /// Wall-clock sleep per model call as a share of profiled latency.
    pub latency_scale: f64,
    pub cache: Option<Arc<ResultCache>>,
    pub obs: ObsConfig,
    pub batching: bool,
}

impl Knobs {
    /// No sleeps, no cache, default observability, no batching.
    pub fn path() -> Self {
        Knobs {
            payloads: PAYLOADS,
            latency_scale: 0.0,
            cache: None,
            obs: ObsConfig::defaults(),
            batching: false,
        }
    }
}

/// The pinned service configuration: supervisor on, planner off,
/// `2·nproc` model workers.
pub fn service_config(knobs: &Knobs) -> ServiceConfig {
    ServiceConfig {
        latency_scale: knobs.latency_scale,
        model_workers: 2 * nproc(),
        obs: knobs.obs.clone(),
        supervisor: Some(SupervisorSetup::defaults()),
        planner: None,
        batch: BatchConfig {
            enabled: knobs.batching,
            workers: nproc(),
            ..BatchConfig::defaults()
        },
        cache: knobs.cache.clone(),
        ..ServiceConfig::defaults()
    }
}

/// Build the demo deployment (matrix, generated rules, worker pool).
pub fn boot_service(knobs: &Knobs) -> Arc<ComputeService> {
    Arc::new(demo_service(
        knobs.payloads,
        DEPLOYMENT_SEED,
        service_config(knobs),
    ))
}

/// Put `service` behind the epoll reactor on an ephemeral loopback
/// port with `nproc` HTTP workers.
pub fn boot_server(service: &Arc<ComputeService>) -> RunningServer {
    Server::bind(
        "127.0.0.1:0",
        Arc::clone(service),
        ServerConfig {
            engine: Engine::Reactor,
            http_workers: nproc(),
            backlog: 256,
            keep_alive_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
    .spawn()
}

/// The pinned configuration of a service built from `knobs`, and the
/// rules the demo deployment generated — the policies behind every
/// tier, which the measured path depends on — for the run's stamp.
pub fn describe(knobs: &Knobs, service: &ComputeService) -> Vec<String> {
    let mut rules: Vec<String> = service
        .frontend()
        .rules()
        .map(|r| format!("rules {}: {:?}", r.objective(), r.tiers()))
        .collect();
    rules.sort();
    let mut notes =
        vec![format!(
        "pinned: deployment=demo_service({}, {DEPLOYMENT_SEED}) engine=reactor http_workers={} \
         model_workers={} batching={} cache={} obs={} supervisor=on planner=off latency_scale={} \
         mix=RequestMix::representative",
        knobs.payloads,
        nproc(),
        2 * nproc(),
        if knobs.batching { "on" } else { "off" },
        match &knobs.cache {
            Some(_) => "on",
            None => "off",
        },
        if knobs.obs.enabled { "defaults" } else { "disabled" },
        knobs.latency_scale,
    )];
    notes.extend(rules);
    notes
}

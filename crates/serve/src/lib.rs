//! The serving layer: a Tolerance Tiers deployment.
//!
//! This crate assembles the pieces the paper's Fig. 4/§IV architecture
//! describes around the core library:
//!
//! * [`pricing`] — the IaaS/API price catalog.
//! * [`frontend`] — parsing consumer annotations (`Tolerance:` /
//!   `Objective:` headers) and mapping requests to deployed routing
//!   rules.
//! * [`cluster`] — a discrete-event cluster: per-version node pools fed
//!   by a load balancer executing the tier policies, with genuine
//!   queueing, concurrent dispatch and early-termination cancellation,
//!   plus cost accounting.
//! * [`resilience`] — the fault-tolerance policy layer: retry budgets
//!   with capped exponential backoff, per-pool circuit breakers,
//!   deadlines, hedging, and graceful degradation, plus the statistics
//!   the cluster reports about them.
//! * [`live`] — a real thread-pool executor (crossbeam channels) for
//!   running actual model code behind the same tiered API, used by the
//!   examples; live-resizable with drain-before-reap semantics.
//! * [`planner`] — continuous capacity planning: a low-frequency
//!   forecast-driven planner (pool resizes, forecast-mix rule regen)
//!   plus a high-frequency tuner (admission/batching nudges), both
//!   pure deterministic automatons.
//!
//! # Examples
//!
//! ```
//! use tt_serve::frontend::parse_annotations;
//!
//! let (tol, obj) = parse_annotations("Tolerance: 0.05\nObjective: cost").unwrap();
//! assert_eq!(tol.value(), 0.05);
//! assert_eq!(obj, tt_core::Objective::Cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod cluster;
pub mod frontend;
pub mod live;
pub mod planner;
pub mod pricing;
pub mod resilience;
pub mod supervisor;
pub mod trace;

pub use billing::{BillingReport, TierPriceSchedule};
pub use cluster::{ClusterConfig, ClusterSim, ServingReport};
pub use frontend::{parse_annotations, AnnotationError, Annotations, TieredFrontend};
pub use planner::{
    Planner, PlannerAction, PlannerConfig, PlannerInput, PlannerStatus, ServiceTotals, Tuner,
    TunerConfig, TunerDecision,
};
pub use pricing::PricingCatalog;
pub use resilience::{
    BreakerPolicy, BreakerState, CircuitBreaker, ResilienceConfig, ResilienceStats, RetryPolicy,
};
pub use supervisor::{
    Supervisor, SupervisorAction, SupervisorConfig, SupervisorPhase, Transition, TransitionKind,
    VersionWindow, WindowObservation,
};
pub use trace::{TraceEvent, TraceRecorder};

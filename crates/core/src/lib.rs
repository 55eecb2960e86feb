//! **Tolerance Tiers** — the primary contribution of the reproduced
//! paper: a cloud-service architecture in which API consumers
//! programmatically trade result accuracy for response time or
//! invocation cost.
//!
//! The crate is organized around one central data structure and three
//! capabilities:
//!
//! * [`profile::ProfileMatrix`] — per-request observations
//!   (quality, latency, cost, confidence) for every service version;
//!   substrates produce it once, everything else consumes it.
//! * **Ensembling policies** ([`policy`]) — how multiple service
//!   versions combine to answer one request: a single version, or a
//!   cheap/accurate cascade run sequentially or concurrently, with or
//!   without early termination of the expensive version.
//! * **Routing-rule generation** ([`rulegen`]) — the paper's Fig. 7
//!   bootstrapping framework: simulate candidate ensembles on training
//!   data until the worst-case error degradation, response time and
//!   cost are known with the requested confidence, then pick per
//!   tolerance tier the policy that minimizes the consumer's objective.
//! * **Guarantees** ([`guarantee`]) — cross-validated verification that
//!   deployed tiers never degrade accuracy beyond their advertised
//!   tolerance.
//!
//! Supporting modules: [`category`] (the paper's §III per-request
//! accuracy-latency behaviour categories), [`tier`] (tier tables),
//! [`request`] (tolerance/objective annotations), [`objective`].
//!
//! # Examples
//!
//! ```
//! use tt_core::objective::Objective;
//! use tt_core::profile::{Observation, ProfileMatrixBuilder};
//! use tt_core::rulegen::RoutingRuleGenerator;
//!
//! // Two versions, three requests (toy numbers).
//! let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "accurate".into()]);
//! for _ in 0..3 {
//!     b.push_request(vec![
//!         Observation { quality_err: 0.2, latency_us: 100, cost: 1.0, confidence: 0.9 },
//!         Observation { quality_err: 0.1, latency_us: 300, cost: 3.0, confidence: 0.95 },
//!     ]);
//! }
//! let matrix = b.build().unwrap();
//! let gen = RoutingRuleGenerator::with_defaults(&matrix, 0.9, 42).unwrap();
//! let rules = gen.generate(&[0.5], Objective::ResponseTime).unwrap();
//! assert_eq!(rules.tiers().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod drift;
pub mod error;
pub mod guarantee;
pub mod objective;
pub mod parallel;
pub mod policy;
pub mod profile;
pub mod request;
pub mod router;
pub mod rulegen;
pub mod tier;

pub use category::{categorize, Category, CategoryBreakdown};
pub use drift::{DriftDetector, DriftVerdict};
pub use error::CoreError;
pub use guarantee::{CrossValidator, TierGuarantee, ViolationReport};
pub use objective::Objective;
pub use parallel::{available_threads, mix_seed, parallel_map, parallel_map_init};
pub use policy::{Policy, PolicyEvaluator, PolicyOutcome, Scheduling, Termination};
pub use profile::{Observation, ProfileMatrix, ProfileMatrixBuilder, VersionColumns};
pub use request::{ServiceRequest, Tolerance};
pub use router::BucketRouter;
pub use rulegen::{CandidateRecord, RoutingRuleGenerator, RoutingRules};
pub use tier::{serving_tier, ToleranceTier};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

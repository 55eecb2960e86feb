//! Workload builders bridging the ASR and image-classification
//! substrates to Tolerance Tiers [`tt_core::ProfileMatrix`] form, plus
//! annotated request streams and named fault scenarios ([`faults`])
//! for the serving layer.
//!
//! # Examples
//!
//! ```
//! use tt_asr::CorpusConfig;
//! use tt_workloads::AsrWorkload;
//!
//! let workload = AsrWorkload::build(CorpusConfig::small());
//! assert_eq!(workload.matrix().versions(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asr_workload;
pub mod faults;
pub mod keyspace;
pub mod mix;
mod profile;
pub mod vision_workload;

pub use asr_workload::AsrWorkload;
pub use faults::FaultScenario;
pub use keyspace::{Keyspace, KeyspaceSampler};
pub use mix::RequestMix;
pub use vision_workload::VisionWorkload;

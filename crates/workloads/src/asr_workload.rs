//! The ASR service as a Tolerance Tiers workload.

use crate::profile::{assemble, observation};
use tt_asr::decoder::BeamConfig;
use tt_asr::service::AsrEngine;
use tt_asr::CorpusConfig;
use tt_core::parallel::parallel_map_init;
use tt_core::profile::ProfileMatrix;

/// The ASR workload: every corpus utterance decoded under every beam
/// configuration, assembled into a profile matrix.
///
/// Invocation cost is the CPU node's IaaS charge for the decode time
/// (the paper's ASR engine is CPU-only).
#[derive(Debug, Clone)]
pub struct AsrWorkload {
    engine: AsrEngine,
    versions: Vec<BeamConfig>,
    matrix: ProfileMatrix,
}

impl AsrWorkload {
    /// Decode the corpus under the seven paper versions and profile it.
    pub fn build(config: CorpusConfig) -> Self {
        Self::build_with_versions(config, BeamConfig::paper_versions())
    }

    /// Same, with an explicit version ladder.
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty.
    pub fn build_with_versions(config: CorpusConfig, versions: Vec<BeamConfig>) -> Self {
        Self::build_on(0, config, versions)
    }

    /// [`AsrWorkload::build_with_versions`] on `threads` workers (`0`:
    /// one per hardware thread). Crate-private because it is not a
    /// choice: every utterance is rendered once and decoded under the
    /// whole ladder by whichever worker picks it up, rows are collected
    /// in corpus order, and a decode depends on nothing an earlier one
    /// left in the worker's decoder — so the matrix is the same at any
    /// count, and the tests hold it to that.
    fn build_on(threads: usize, config: CorpusConfig, versions: Vec<BeamConfig>) -> Self {
        assert!(!versions.is_empty(), "need at least one service version");
        let engine = AsrEngine::synthesize(config);
        let cpu_price = tt_sim::InstanceType::cpu_node().price_per_hour();

        let rows = parallel_map_init(
            threads,
            engine.corpus().utterances(),
            || engine.decoder(),
            |decoder, _, utterance| {
                engine
                    .decode_ladder(decoder, utterance, &versions)
                    .iter()
                    .map(|o| observation(o.wer, o.confidence, o.latency_us, cpu_price))
                    .collect()
            },
        );
        let names = versions.iter().map(|v| v.name.clone()).collect();
        let matrix = assemble(names, rows);
        AsrWorkload {
            engine,
            versions,
            matrix,
        }
    }

    /// The profile matrix (requests × versions).
    pub fn matrix(&self) -> &ProfileMatrix {
        &self.matrix
    }

    /// The underlying engine.
    pub fn engine(&self) -> &AsrEngine {
        &self.engine
    }

    /// The version ladder.
    pub fn versions(&self) -> &[BeamConfig] {
        &self.versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_dimensions_match_corpus_and_ladder() {
        let w = AsrWorkload::build(CorpusConfig::small());
        assert_eq!(w.matrix().versions(), 7);
        assert_eq!(
            w.matrix().requests(),
            w.engine().corpus().utterances().len()
        );
    }

    #[test]
    fn cost_scales_with_latency() {
        let w = AsrWorkload::build(CorpusConfig::small());
        let m = w.matrix();
        for r in 0..m.requests() {
            for v in 0..m.versions() {
                let o = m.get(r, v);
                let expected =
                    o.latency_us as f64 / 3.6e9 * tt_sim::InstanceType::cpu_node().price_per_hour();
                assert!((o.cost - expected).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn most_accurate_version_is_near_the_wide_end() {
        let w = AsrWorkload::build(CorpusConfig::small().with_utterances(120));
        let best = w.matrix().best_version().unwrap();
        assert!(best >= 4, "expected a wide beam to win, got v{}", best + 1);
    }

    #[test]
    fn matrix_is_the_same_on_any_number_of_workers() {
        // `tests/asr_profile_golden.rs` pins `build` to the recorded
        // fingerprints; this pins every worker count to `build`.
        for config in [
            CorpusConfig::small(),
            CorpusConfig::evaluation().with_utterances(400),
        ] {
            let reference = AsrWorkload::build(config.clone());
            for threads in [1, 2, 4] {
                let built =
                    AsrWorkload::build_on(threads, config.clone(), BeamConfig::paper_versions());
                assert_eq!(built.matrix(), reference.matrix(), "threads={threads}");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = AsrWorkload::build(CorpusConfig::small());
        let b = AsrWorkload::build(CorpusConfig::small());
        assert_eq!(a.matrix(), b.matrix());
    }
}

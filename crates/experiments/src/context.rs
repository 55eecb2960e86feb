//! Standard experiment workloads and CLI scale switches.

use tt_asr::CorpusConfig;
use tt_core::ProfileMatrix;
use tt_vision::dataset::DatasetConfig;
use tt_vision::Device;
use tt_workloads::{AsrWorkload, VisionWorkload};

/// Workload scale for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred requests: smoke tests and CI.
    Quick,
    /// The default: thousands of requests, stable statistics, seconds
    /// of runtime.
    Standard,
    /// Paper scale: 35 438 utterances / 45 000 images.
    Full,
}

impl Scale {
    /// Parse from CLI arguments (`--quick` / `--full`; default
    /// standard).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Standard
        }
    }
}

/// Worker threads requested on the command line (`--threads N`).
/// `0` — the default when the flag is absent or malformed — means one
/// worker per available hardware thread; `1` forces the sequential
/// path (bit-identical output either way).
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl Scale {
    /// The ASR corpus configuration at this scale.
    pub fn asr_config(self) -> CorpusConfig {
        match self {
            Scale::Quick => CorpusConfig::evaluation().with_utterances(400),
            Scale::Standard => CorpusConfig::evaluation(),
            Scale::Full => CorpusConfig::voxforge_scale(),
        }
    }

    /// The IC dataset configuration at this scale.
    pub fn vision_config(self) -> DatasetConfig {
        match self {
            Scale::Quick => DatasetConfig::evaluation().with_images(1_000),
            Scale::Standard => DatasetConfig::evaluation(),
            Scale::Full => DatasetConfig::ilsvrc_scale(),
        }
    }
}

/// The three service deployments every experiment reports on: the
/// CPU-based ASR engine and the IC service on CPUs and on GPUs.
#[derive(Debug)]
pub struct ExperimentContext {
    /// ASR on CPU nodes.
    pub asr: AsrWorkload,
    /// Image classification on CPU nodes.
    pub ic_cpu: VisionWorkload,
    /// Image classification on GPU nodes.
    pub ic_gpu: VisionWorkload,
    /// The scale the context was built at.
    pub scale: Scale,
}

impl ExperimentContext {
    /// Build all three workloads at a scale.
    pub fn at_scale(scale: Scale) -> Self {
        ExperimentContext {
            asr: AsrWorkload::build(scale.asr_config()),
            ic_cpu: VisionWorkload::build(scale.vision_config(), Device::Cpu),
            ic_gpu: VisionWorkload::build(scale.vision_config(), Device::Gpu),
            scale,
        }
    }

    /// Build at the scale requested on the command line.
    pub fn from_args() -> Self {
        Self::at_scale(Scale::from_args())
    }

    /// `(label, matrix)` for the three deployments.
    pub fn deployments(&self) -> Vec<(&'static str, &ProfileMatrix)> {
        vec![
            ("ASR (CPU)", self.asr.matrix()),
            ("IC (CPU)", self.ic_cpu.matrix()),
            ("IC (GPU)", self.ic_gpu.matrix()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Quick context, built once for every test in this binary.
    fn quick_context() -> &'static ExperimentContext {
        static CELL: OnceLock<ExperimentContext> = OnceLock::new();
        CELL.get_or_init(|| ExperimentContext::at_scale(Scale::Quick))
    }

    #[test]
    fn quick_context_builds_all_three_deployments() {
        let ctx = quick_context();
        assert_eq!(ctx.deployments().len(), 3);
        assert_eq!(ctx.asr.matrix().versions(), 7);
        assert_eq!(ctx.ic_cpu.matrix().versions(), 6);
        assert_eq!(ctx.ic_gpu.matrix().versions(), 6);
    }

    #[test]
    fn scales_order_workload_sizes() {
        assert!(Scale::Quick.asr_config().utterances < Scale::Standard.asr_config().utterances);
        assert!(Scale::Standard.asr_config().utterances < Scale::Full.asr_config().utterances);
        assert_eq!(Scale::Full.vision_config().images, 45_000);
        assert_eq!(Scale::Full.asr_config().utterances, 35_438);
    }
}

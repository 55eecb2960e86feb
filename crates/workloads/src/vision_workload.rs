//! The image-classification service as a Tolerance Tiers workload.

use crate::profile::{assemble, observation};
use tt_core::profile::ProfileMatrix;
use tt_vision::dataset::DatasetConfig;
use tt_vision::latency::Device;
use tt_vision::service::VisionService;

/// The IC workload: every dataset image classified by every zoo model
/// on a given device, assembled into a profile matrix.
///
/// Invocation cost is the node's IaaS charge for the inference time —
/// GPU nodes are faster per request but ~4.5× the hourly price, which
/// is exactly the trade-off the paper's cost tiers exploit.
#[derive(Debug, Clone)]
pub struct VisionWorkload {
    service: VisionService,
    device: Device,
    matrix: ProfileMatrix,
}

impl VisionWorkload {
    /// Classify the dataset under the full zoo on `device` and profile
    /// it.
    pub fn build(config: DatasetConfig, device: Device) -> Self {
        Self::from_service(VisionService::synthesize(config), device)
    }

    /// Same, over an explicit service (e.g. one built with
    /// [`tt_vision::zoo::extended_zoo`]).
    pub fn from_service(service: VisionService, device: Device) -> Self {
        let price = match device {
            Device::Cpu => tt_sim::InstanceType::cpu_node().price_per_hour(),
            Device::Gpu => tt_sim::InstanceType::gpu_node().price_per_hour(),
        };

        let names = service.zoo().iter().map(|m| m.name().to_string()).collect();
        let rows = service.dataset().images().iter().map(|image| {
            service
                .zoo()
                .iter()
                .map(|model| {
                    let o = service.classify(image, model, device);
                    observation(o.top1_err, o.confidence, o.latency_us, price)
                })
                .collect()
        });
        let matrix = assemble(names, rows);
        VisionWorkload {
            service,
            device,
            matrix,
        }
    }

    /// The profile matrix (requests × models).
    pub fn matrix(&self) -> &ProfileMatrix {
        &self.matrix
    }

    /// The underlying service.
    pub fn service(&self) -> &VisionService {
        &self.service
    }

    /// Which device this workload profiled.
    pub fn device(&self) -> Device {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_dimensions_match_dataset_and_zoo() {
        let w = VisionWorkload::build(DatasetConfig::small(), Device::Cpu);
        assert_eq!(w.matrix().versions(), 6);
        assert_eq!(w.matrix().requests(), 300);
    }

    #[test]
    fn most_accurate_model_is_the_calibrated_best() {
        let w = VisionWorkload::build(DatasetConfig::evaluation().with_images(2000), Device::Cpu);
        let best = w.matrix().best_version().unwrap();
        assert_eq!(w.matrix().version_names()[best], "res152-x");
    }

    #[test]
    fn gpu_workload_is_faster_but_pricier_per_hour() {
        let cpu = VisionWorkload::build(DatasetConfig::small(), Device::Cpu);
        let gpu = VisionWorkload::build(DatasetConfig::small(), Device::Gpu);
        let v = cpu.matrix().versions() - 1;
        let cpu_lat = cpu.matrix().version_latency(v, None).unwrap();
        let gpu_lat = gpu.matrix().version_latency(v, None).unwrap();
        assert!(cpu_lat > gpu_lat * 2.0);
        // Per-request cost on GPU is nonetheless *lower* here because the
        // speedup (~12×) exceeds the price ratio (~4.5×).
        let cpu_cost = cpu.matrix().version_cost(v, None).unwrap();
        let gpu_cost = gpu.matrix().version_cost(v, None).unwrap();
        assert!(gpu_cost < cpu_cost);
    }

    #[test]
    fn quality_err_is_binary() {
        let w = VisionWorkload::build(DatasetConfig::small(), Device::Gpu);
        let m = w.matrix();
        for r in 0..m.requests() {
            for v in 0..m.versions() {
                let e = m.get(r, v).quality_err;
                assert!(e == 0.0 || e == 1.0);
            }
        }
    }
}

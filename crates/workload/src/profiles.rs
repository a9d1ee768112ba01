//! Profiled workload characteristics across device types (Figure 7).
//!
//! The paper profiles three ML models on three edge accelerators and reports
//! per-inference energy (10⁻³–10¹ J, up to 45× across models on the same
//! device and ~2× across devices for the same model), GPU memory (up to
//! ~500 MB) and inference time (up to ~40 ms).  The numbers below reproduce
//! those orders of magnitude; they are the "profiling service" data that the
//! placement service consumes.

use serde::{Deserialize, Serialize};

/// The edge device (accelerator) types used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// NVIDIA Jetson Orin Nano: 1024 CUDA cores, 8 GB, 15 W.
    OrinNano,
    /// NVIDIA A2: 1280 CUDA cores, 16 GB, 60 W.
    A2,
    /// NVIDIA GTX 1080: 2560 CUDA cores, 8 GB, 180 W.
    Gtx1080,
    /// A 40-core Xeon E5-2660v3 CPU server (the testbed's CPU path).
    XeonCpu,
}

impl DeviceKind {
    /// All device kinds in a stable order.
    pub const ALL: [DeviceKind; 4] = [
        DeviceKind::OrinNano,
        DeviceKind::A2,
        DeviceKind::Gtx1080,
        DeviceKind::XeonCpu,
    ];

    /// The GPU devices used in the heterogeneity experiments (Figure 15).
    pub const GPUS: [DeviceKind; 3] = [DeviceKind::OrinNano, DeviceKind::A2, DeviceKind::Gtx1080];

    /// Maximum (TDP) power draw of the device in watts.
    pub fn max_power_w(&self) -> f64 {
        match self {
            DeviceKind::OrinNano => 15.0,
            DeviceKind::A2 => 60.0,
            DeviceKind::Gtx1080 => 180.0,
            DeviceKind::XeonCpu => 105.0,
        }
    }

    /// Idle/base power draw of the device in watts.
    pub fn base_power_w(&self) -> f64 {
        match self {
            DeviceKind::OrinNano => 5.0,
            DeviceKind::A2 => 18.0,
            DeviceKind::Gtx1080 => 45.0,
            DeviceKind::XeonCpu => 55.0,
        }
    }

    /// Device memory capacity in MB (GPU memory for accelerators, a
    /// per-application RAM budget for the CPU path).
    pub fn memory_mb(&self) -> f64 {
        match self {
            DeviceKind::OrinNano => 8.0 * 1024.0,
            DeviceKind::A2 => 16.0 * 1024.0,
            DeviceKind::Gtx1080 => 8.0 * 1024.0,
            DeviceKind::XeonCpu => 256.0 * 1024.0,
        }
    }

    /// Number of applications' worth of compute the device exposes to the
    /// placement capacity model: a GPU is treated as one schedulable device,
    /// while the 40-core Xeon server can serve several CPU applications
    /// concurrently.
    pub fn compute_slots(&self) -> f64 {
        match self {
            DeviceKind::XeonCpu => 8.0,
            _ => 1.0,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceKind::OrinNano => "Orin Nano",
            DeviceKind::A2 => "A2",
            DeviceKind::Gtx1080 => "GTX 1080",
            DeviceKind::XeonCpu => "Xeon CPU",
        }
    }
}

/// The workload models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// EfficientNetB0 image classification (lightest GPU model).
    EfficientNetB0,
    /// ResNet50 image classification.
    ResNet50,
    /// YOLOv4 object detection (heaviest GPU model).
    YoloV4,
    /// CPU-based scientific/sensor-processing application ("Sci").
    SciCpu,
}

impl ModelKind {
    /// All model kinds in a stable order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::EfficientNetB0,
        ModelKind::ResNet50,
        ModelKind::YoloV4,
        ModelKind::SciCpu,
    ];

    /// The three GPU inference models of Figure 7.
    pub const GPU_MODELS: [ModelKind; 3] = [
        ModelKind::EfficientNetB0,
        ModelKind::ResNet50,
        ModelKind::YoloV4,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::EfficientNetB0 => "EfficientNetB0",
            ModelKind::ResNet50 => "ResNet50",
            ModelKind::YoloV4 => "YOLOv4",
            ModelKind::SciCpu => "Sci",
        }
    }
}

/// A profiled (model, device) combination: what the profiling service of
/// Section 5.1 would measure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// The workload model.
    pub model: ModelKind,
    /// The device it was profiled on.
    pub device: DeviceKind,
    /// Energy per request in joules.
    pub energy_per_request_j: f64,
    /// Device memory used, in MB.
    pub memory_mb: f64,
    /// Per-request processing (inference) time in milliseconds.
    pub processing_time_ms: f64,
}

impl WorkloadProfile {
    /// Looks up the profiled numbers for a (model, device) pair.
    ///
    /// Returns `None` for combinations that were not profiled (the CPU
    /// application only runs on the CPU device and the GPU models only run
    /// on GPUs).
    pub fn lookup(model: ModelKind, device: DeviceKind) -> Option<WorkloadProfile> {
        // (energy J/request, memory MB, processing ms), following Figure 7:
        //  - energy spans ~1e-3 .. ~1e1 J,
        //  - YOLOv4 is ~45x EfficientNetB0 on the same device,
        //  - GTX 1080 is fastest but most power hungry, Orin Nano slowest but
        //    most efficient.
        let entry = match (model, device) {
            (ModelKind::EfficientNetB0, DeviceKind::OrinNano) => (0.009, 180.0, 12.0),
            (ModelKind::EfficientNetB0, DeviceKind::A2) => (0.015, 210.0, 6.5),
            (ModelKind::EfficientNetB0, DeviceKind::Gtx1080) => (0.030, 240.0, 3.5),
            (ModelKind::ResNet50, DeviceKind::OrinNano) => (0.075, 310.0, 28.0),
            (ModelKind::ResNet50, DeviceKind::A2) => (0.120, 350.0, 13.0),
            (ModelKind::ResNet50, DeviceKind::Gtx1080) => (0.230, 380.0, 6.0),
            (ModelKind::YoloV4, DeviceKind::OrinNano) => (0.420, 480.0, 42.0),
            (ModelKind::YoloV4, DeviceKind::A2) => (0.650, 520.0, 21.0),
            (ModelKind::YoloV4, DeviceKind::Gtx1080) => (1.300, 560.0, 9.5),
            (ModelKind::SciCpu, DeviceKind::XeonCpu) => (6.000, 2048.0, 80.0),
            _ => return None,
        };
        Some(WorkloadProfile {
            model,
            device,
            energy_per_request_j: entry.0,
            memory_mb: entry.1,
            processing_time_ms: entry.2,
        })
    }

    /// All profiled combinations.
    pub fn all() -> Vec<WorkloadProfile> {
        let mut out = Vec::new();
        for model in ModelKind::ALL {
            for device in DeviceKind::ALL {
                if let Some(p) = Self::lookup(model, device) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Fraction of the device the workload occupies when serving
    /// `requests_per_second`, based on processing time (an M/D/1-style
    /// utilization estimate).  Values above 1.0 mean the device is saturated.
    pub fn utilization(&self, requests_per_second: f64) -> f64 {
        requests_per_second.max(0.0) * self.processing_time_ms / 1000.0
    }

    /// Maximum sustainable request rate on this device (requests/second).
    pub fn max_throughput_rps(&self) -> f64 {
        1000.0 / self.processing_time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gpu_models_profiled_on_all_gpus() {
        for m in ModelKind::GPU_MODELS {
            for d in DeviceKind::GPUS {
                assert!(WorkloadProfile::lookup(m, d).is_some(), "{m:?} on {d:?}");
            }
        }
    }

    #[test]
    fn cpu_model_only_on_cpu() {
        assert!(WorkloadProfile::lookup(ModelKind::SciCpu, DeviceKind::XeonCpu).is_some());
        assert!(WorkloadProfile::lookup(ModelKind::SciCpu, DeviceKind::A2).is_none());
        assert!(WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::XeonCpu).is_none());
    }

    #[test]
    fn energy_spans_figure7_range() {
        // Figure 7a: energy per inference spans roughly 1e-3 .. 1e1 J (log scale).
        let profiles = WorkloadProfile::all();
        let min = profiles
            .iter()
            .map(|p| p.energy_per_request_j)
            .fold(f64::INFINITY, f64::min);
        let max = profiles
            .iter()
            .map(|p| p.energy_per_request_j)
            .fold(0.0, f64::max);
        assert!(min < 0.05, "min {min}");
        assert!(max > 1.0, "max {max}");
    }

    #[test]
    fn yolo_is_much_heavier_than_efficientnet_on_same_device() {
        // The paper reports up to ~45x energy difference across models on a device.
        for d in DeviceKind::GPUS {
            let light = WorkloadProfile::lookup(ModelKind::EfficientNetB0, d).unwrap();
            let heavy = WorkloadProfile::lookup(ModelKind::YoloV4, d).unwrap();
            let ratio = heavy.energy_per_request_j / light.energy_per_request_j;
            assert!(ratio > 20.0, "ratio {ratio} on {d:?}");
        }
    }

    #[test]
    fn device_energy_spread_for_same_model_is_about_2x_or_more() {
        for m in ModelKind::GPU_MODELS {
            let e: Vec<f64> = DeviceKind::GPUS
                .iter()
                .map(|d| WorkloadProfile::lookup(m, *d).unwrap().energy_per_request_j)
                .collect();
            let spread = e.iter().cloned().fold(0.0, f64::max)
                / e.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(spread >= 2.0, "spread {spread} for {m:?}");
        }
    }

    #[test]
    fn gtx1080_is_fastest_but_least_efficient() {
        let on_1080 = WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::Gtx1080).unwrap();
        let on_nano = WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::OrinNano).unwrap();
        assert!(on_1080.processing_time_ms < on_nano.processing_time_ms);
        assert!(on_1080.energy_per_request_j > on_nano.energy_per_request_j);
    }

    #[test]
    fn inference_times_match_figure7_range() {
        // Figure 7c: inference times are below ~45 ms.
        for p in WorkloadProfile::all() {
            if p.model != ModelKind::SciCpu {
                assert!(
                    p.processing_time_ms > 1.0 && p.processing_time_ms < 45.0,
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn memory_below_600mb_for_gpu_models() {
        // Figure 7b: GPU memory usage stays below ~600 MB.
        for p in WorkloadProfile::all() {
            if p.model != ModelKind::SciCpu {
                assert!(p.memory_mb < 600.0, "{p:?}");
            }
        }
    }

    #[test]
    fn utilization_and_throughput_are_consistent() {
        let p = WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::A2).unwrap();
        let max_rps = p.max_throughput_rps();
        assert!((p.utilization(max_rps) - 1.0).abs() < 1e-9);
        assert!(p.utilization(0.0) == 0.0);
        assert!(p.utilization(-5.0) == 0.0);
    }

    #[test]
    fn device_base_power_below_max_power() {
        for d in DeviceKind::ALL {
            assert!(d.base_power_w() < d.max_power_w());
            assert!(d.memory_mb() > 0.0);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|m| m.name()).collect();
        names.extend(DeviceKind::ALL.iter().map(|d| d.name()));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}

#![forbid(unsafe_code)]
//! Edge workloads for CarbonEdge.
//!
//! The paper evaluates two compute-intensive edge workloads: a CPU-based
//! sensor-data-processing application ("Sci") and GPU model-serving
//! applications (EfficientNetB0, ResNet50, YOLOv4) profiled on three device
//! types (Jetson Orin Nano, NVIDIA A2, GTX 1080); see Figure 7 and
//! Section 6.1.  This crate provides:
//!
//! * the profiled per-request energy, memory, and inference-time table
//!   ([`profiles`]),
//! * application descriptions with resource demands, request rates and
//!   latency SLOs ([`app`]),
//! * arrival processes that modulate per-hour request intensity
//!   ([`generator`]),
//! * deterministic per-(app, site) request streams for the event-level
//!   serving engine ([`stream`]).

pub mod app;
pub mod generator;
pub mod profiles;
pub mod stream;

pub use app::{AppId, Application, ResourceDemand};
pub use generator::{sample_standard_normal, splitmix64, ArrivalProcess};
pub use profiles::{DeviceKind, ModelKind, WorkloadProfile};
pub use stream::{RequestStream, StreamScratch};

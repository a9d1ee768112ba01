// lint:allow(unreached-pub): only tests/placement_end_to_end.rs uses it; it goes when a perfbench revision may drop its sim edge
#![forbid(unsafe_code)]
//! Edge data-center substrate for CarbonEdge.
//!
//! The paper's prototype runs on Sinfonia, a Kubernetes-based orchestrator,
//! with Prometheus/RAPL/DCGM telemetry (Section 5.1), and its large-scale
//! evaluation uses a simulator that "represents the components of Sinfonia
//! and follows the same decision process and metrics" (Section 5.2).  This
//! crate is that substrate: edge servers and sites with capacities and power
//! models, power-state management, an orchestrator that commits placement
//! decisions, and a telemetry service that accounts energy and carbon.

pub mod orchestrator;
pub mod power;
pub mod server;
pub mod site;
pub mod telemetry;

pub use orchestrator::{DeploymentOutcome, Orchestrator};
pub use power::{PowerModel, PowerState};
pub use server::{Server, ServerId, ServerSpec};
pub use site::{EdgeSite, SiteId};
pub use telemetry::{CarbonAccount, Telemetry};

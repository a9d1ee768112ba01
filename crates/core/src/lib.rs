#![forbid(unsafe_code)]
//! CarbonEdge: carbon-aware placement for mesoscale edge data centers.
//!
//! This crate implements the paper's primary contribution (Section 4): the
//! carbon-aware placement problem with latency constraints, the placement
//! policies evaluated in Section 6, and the incremental placement algorithm
//! (Algorithm 1).
//!
//! * [`problem`] — the placement problem: server snapshots, application
//!   batches, latency/energy/carbon inputs (Table 2) and the carbon
//!   objective (Eq. 6) with its multi-objective extension (Eq. 8), and the
//!   placement skeleton a deployment decided again and again builds once,
//!   and the incumbent state whose moves the stateful re-placement pipeline
//!   counts and charges;
//! * [`policy`] — the placement policies: `CarbonEdge` (carbon-aware),
//!   `Latency-aware`, `Energy-aware`, `Intensity-aware`, and the
//!   carbon–energy trade-off policy;
//! * [`algorithm`] — the incremental placement algorithm that filters
//!   latency-feasible servers, solves the optimization, and commits the
//!   resulting placement and power-state decisions.
//!
//! # Quick example
//!
//! ```
//! use carbonedge_core::prelude::*;
//! use carbonedge_geo::Coordinates;
//! use carbonedge_grid::ZoneId;
//! use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};
//!
//! // Two single-server edge sites: a dirty zone and a green zone 100 km away.
//! let servers = vec![
//!     ServerSnapshot::new(0, 0, ZoneId(0), DeviceKind::A2, Coordinates::new(48.1, 11.6))
//!         .with_carbon_intensity(550.0),
//!     ServerSnapshot::new(1, 1, ZoneId(1), DeviceKind::A2, Coordinates::new(46.9, 7.4))
//!         .with_carbon_intensity(45.0),
//! ];
//! let app = Application::new(
//!     AppId(0), ModelKind::ResNet50, 20.0, 30.0, Coordinates::new(48.1, 11.6), 0,
//! );
//! let problem = PlacementProblem::new(servers, vec![app], 1.0);
//! let decision = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
//!     .place(&problem)
//!     .expect("feasible placement");
//! // The carbon-aware policy shifts the app to the green zone.
//! assert_eq!(decision.assignment[0], Some(1));
//! ```

pub mod algorithm;
pub mod policy;
pub mod problem;

pub use algorithm::{IncrementalPlacer, PlacementDecision, PlacementError, PlacementModel};
pub use policy::PlacementPolicy;
pub use problem::{
    MigrationCost, MigrationCostLevel, PairLatencyCache, PlacementProblem, PlacementSkeleton,
    PlacementState, ServerSnapshot,
};

/// Convenient re-exports of the types needed to drive a placement.
pub mod prelude {
    pub use crate::algorithm::{
        IncrementalPlacer, PlacementDecision, PlacementError, PlacementModel,
    };
    pub use crate::policy::PlacementPolicy;
    pub use crate::problem::{
        MigrationCost, MigrationCostLevel, PlacementProblem, PlacementState, ServerSnapshot,
    };
}

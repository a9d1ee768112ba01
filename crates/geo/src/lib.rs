#![forbid(unsafe_code)]
//! Geographic primitives for CarbonEdge.
//!
//! This crate provides the small geographic substrate that the rest of the
//! workspace builds on: coordinates and great-circle (haversine) distances.
//! The paper's mesoscale analysis (Section 3) and the CDN-scale evaluation
//! (Section 6.3) are both driven by pairwise distances between edge data
//! centers, which this crate computes.

pub mod coord;

pub use coord::{haversine_km, Coordinates, EARTH_RADIUS_KM};

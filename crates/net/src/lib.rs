#![forbid(unsafe_code)]
//! Network latency substrate for CarbonEdge.
//!
//! The paper uses WonderNetwork round-trip ping traces between 246 cities to
//! derive cross-data-center latencies (Section 6.1.1).  Those traces are
//! replaced here by a geodesic latency model: one-way latency is propagation
//! delay over the great-circle path at two-thirds the speed of light,
//! inflated by a routing factor, plus a fixed per-endpoint access delay.
//! The model is calibrated so that the Florida and Central-EU latencies of
//! Table 1 (≈ 2–16 ms one-way at 100–800 km) are reproduced.

pub mod latency;
pub mod matrix;

pub use latency::LatencyModel;
pub use matrix::LatencyMatrix;

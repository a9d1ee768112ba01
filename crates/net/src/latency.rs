//! Distance-based network latency model.

use carbonedge_geo::Coordinates;

/// Speed of light in fiber, km per millisecond (≈ 2/3 c).
const FIBER_KM_PER_MS: f64 = 200.0;

/// Geodesic latency model replacing the WonderNetwork ping dataset.
///
/// One-way latency between two points is modeled as
///
/// ```text
/// latency = access_delay + routing_inflation * distance / (2/3 c)
/// ```
///
/// * `access_delay_ms` captures last-mile/metro access and processing delays
///   at both endpoints (the WonderNetwork data shows a ~1–3 ms floor even for
///   nearby cities, e.g. Orlando–Tampa at 1.86 ms one-way for ~135 km);
/// * `routing_inflation` captures the fact that fiber paths do not follow
///   great circles (typical inflation factors are 1.5–2.5×).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-path access and processing delay, in ms (one-way).
    pub access_delay_ms: f64,
    /// Multiplicative inflation of the great-circle distance.
    pub routing_inflation: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            access_delay_ms: 1.5,
            routing_inflation: 1.8,
        }
    }
}

impl LatencyModel {
    /// The default model, for callers that name their choice explicitly.
    pub fn deterministic() -> Self {
        Self::default()
    }

    /// One-way latency between two coordinates in milliseconds.
    pub fn one_way_ms(&self, a: Coordinates, b: Coordinates) -> f64 {
        let distance = a.distance_km(&b);
        if distance < 1e-9 {
            // Same site: only local processing delay applies.
            return self.access_delay_ms * 0.2;
        }
        self.access_delay_ms + self.routing_inflation * distance / FIBER_KM_PER_MS
    }

    /// Round-trip latency between two coordinates in milliseconds.
    pub fn round_trip_ms(&self, a: Coordinates, b: Coordinates) -> f64 {
        self.one_way_ms(a, b) * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn coords() -> (Coordinates, Coordinates) {
        (
            Coordinates::new(25.7617, -80.1918), // Miami
            Coordinates::new(28.5384, -81.3789), // Orlando
        )
    }

    #[test]
    fn latency_grows_with_distance() {
        let m = LatencyModel::deterministic();
        let miami = Coordinates::new(25.7617, -80.1918);
        let orlando = Coordinates::new(28.5384, -81.3789);
        let tallahassee = Coordinates::new(30.4383, -84.2807);
        assert!(m.one_way_ms(miami, tallahassee) > m.one_way_ms(miami, orlando));
    }

    #[test]
    fn florida_scale_latencies_match_table1() {
        // Table 1a reports one-way latencies between Florida cities in the
        // 1.9 – 7.2 ms range; the deterministic model should land there.
        let m = LatencyModel::deterministic();
        let (miami, orlando) = coords();
        let l = m.one_way_ms(miami, orlando);
        assert!(l > 1.0 && l < 9.0, "got {l}");
    }

    #[test]
    fn central_eu_scale_latencies_match_table1() {
        // Bern–Graz is ~550 km; Table 1b reports 8.78 ms one-way.
        let m = LatencyModel::deterministic();
        let bern = Coordinates::new(46.9480, 7.4474);
        let graz = Coordinates::new(47.0707, 15.4395);
        let l = m.one_way_ms(bern, graz);
        assert!(l > 4.0 && l < 13.0, "got {l}");
    }

    #[test]
    fn same_location_has_small_latency() {
        let m = LatencyModel::default();
        let c = Coordinates::new(40.0, -75.0);
        assert!(m.one_way_ms(c, c) < 1.0);
    }

    #[test]
    fn round_trip_is_twice_one_way() {
        let m = LatencyModel::default();
        let (a, b) = coords();
        assert!((m.round_trip_ms(a, b) - 2.0 * m.one_way_ms(a, b)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn one_way_latency_nonnegative_and_symmetric(
            lat1 in -60.0f64..70.0, lon1 in -170.0f64..170.0,
            lat2 in -60.0f64..70.0, lon2 in -170.0f64..170.0,
        ) {
            let m = LatencyModel::default();
            let a = Coordinates::new(lat1, lon1);
            let b = Coordinates::new(lat2, lon2);
            let ab = m.one_way_ms(a, b);
            let ba = m.one_way_ms(b, a);
            prop_assert!(ab >= 0.0);
            prop_assert!((ab - ba).abs() < 1e-9);
        }

        #[test]
        fn latency_lower_bounded_by_propagation(
            lat1 in -60.0f64..70.0, lon1 in -170.0f64..170.0,
            lat2 in -60.0f64..70.0, lon2 in -170.0f64..170.0,
        ) {
            let m = LatencyModel::deterministic();
            let a = Coordinates::new(lat1, lon1);
            let b = Coordinates::new(lat2, lon2);
            prop_assume!(a.distance_km(&b) > 1.0);
            // Latency can never be lower than straight-line light-in-fiber time.
            prop_assert!(m.one_way_ms(a, b) >= a.distance_km(&b) / FIBER_KM_PER_MS);
        }
    }
}

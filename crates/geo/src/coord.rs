//! Geographic coordinates and great-circle distances.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometers, used by the haversine formula.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 latitude/longitude pair in decimal degrees.
///
/// Latitude is in `[-90, 90]`, longitude in `[-180, 180]`.  Constructors
/// normalize longitudes outside that range and clamp latitudes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coordinates {
    /// Latitude in decimal degrees (positive = north).
    pub lat: f64,
    /// Longitude in decimal degrees (positive = east).
    pub lon: f64,
}

impl Coordinates {
    /// Creates a coordinate pair, clamping latitude to `[-90, 90]` and
    /// wrapping longitude into `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = lon % 360.0;
        if lon > 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometers.
    pub fn distance_km(&self, other: &Coordinates) -> f64 {
        haversine_km(*self, *other)
    }
}

/// Haversine great-circle distance between two coordinates, in kilometers.
///
/// This is the distance metric used throughout the mesoscale analysis
/// (radius thresholds of 200/500/1000 km in Figure 5) and by the latency
/// model in `carbonedge-net`.
pub fn haversine_km(a: Coordinates, b: Coordinates) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();

    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn zero_distance_to_self() {
        let c = Coordinates::new(42.38, -72.52);
        assert!(c.distance_km(&c) < 1e-9);
    }

    #[test]
    fn known_distance_boston_to_nyc() {
        // Boston (42.3601, -71.0589) to New York (40.7128, -74.0060) is ~306 km.
        let boston = Coordinates::new(42.3601, -71.0589);
        let nyc = Coordinates::new(40.7128, -74.0060);
        let d = boston.distance_km(&nyc);
        assert!(approx(d, 306.0, 5.0), "got {d}");
    }

    #[test]
    fn known_distance_miami_to_orlando() {
        // Miami to Orlando is ~320-330 km, a canonical "mesoscale" distance in
        // the paper's Florida region.
        let miami = Coordinates::new(25.7617, -80.1918);
        let orlando = Coordinates::new(28.5384, -81.3789);
        let d = miami.distance_km(&orlando);
        assert!(approx(d, 325.0, 15.0), "got {d}");
    }

    #[test]
    fn known_distance_bern_to_munich() {
        // Bern to Munich is ~335 km great-circle (Central EU region, Table 1).
        let bern = Coordinates::new(46.9480, 7.4474);
        let munich = Coordinates::new(48.1351, 11.5820);
        let d = bern.distance_km(&munich);
        assert!(approx(d, 335.0, 20.0), "got {d}");
    }

    #[test]
    fn latitude_is_clamped() {
        let c = Coordinates::new(95.0, 10.0);
        assert_eq!(c.lat, 90.0);
        let c = Coordinates::new(-100.0, 10.0);
        assert_eq!(c.lat, -90.0);
    }

    #[test]
    fn longitude_is_wrapped() {
        let c = Coordinates::new(0.0, 190.0);
        assert!(approx(c.lon, -170.0, 1e-9));
        let c = Coordinates::new(0.0, -200.0);
        assert!(approx(c.lon, 160.0, 1e-9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn distance_is_symmetric(lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
                                 lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0) {
            let a = Coordinates::new(lat1, lon1);
            let b = Coordinates::new(lat2, lon2);
            let d1 = a.distance_km(&b);
            let d2 = b.distance_km(&a);
            prop_assert!((d1 - d2).abs() < 1e-6);
        }

        #[test]
        fn distance_is_nonnegative_and_bounded(lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
                                               lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0) {
            let a = Coordinates::new(lat1, lon1);
            let b = Coordinates::new(lat2, lon2);
            let d = a.distance_km(&b);
            prop_assert!(d >= 0.0);
            // Half the Earth's circumference is the maximum great-circle distance.
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1.0);
        }

        #[test]
        fn triangle_inequality(lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
                               lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
                               lat3 in -80.0f64..80.0, lon3 in -179.0f64..179.0) {
            let a = Coordinates::new(lat1, lon1);
            let b = Coordinates::new(lat2, lon2);
            let c = Coordinates::new(lat3, lon3);
            prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
        }
    }
}

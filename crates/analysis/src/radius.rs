//! Continental-scale radius analysis (Figure 5).
//!
//! For every CDN edge site, find the site within a search radius `D` whose
//! carbon intensity is lowest, and report the relative carbon saving
//! `1 − CI_best / CI_self`; the distribution of those savings over all sites
//! (Figure 5a–c) shows how prevalent mesoscale opportunities are, and the
//! latency of reaching the chosen site (Figure 5d) shows their cost.

use crate::stats::Cdf;
use carbonedge_datasets::EdgeSiteCatalog;
use carbonedge_grid::ZoneTraces;
use carbonedge_net::LatencyModel;
use rayon::prelude::*;

/// The per-site outcome of the radius analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusPoint {
    /// Index of the site in the catalog.
    pub site: usize,
    /// The best (largest) carbon saving available within the radius, as a
    /// fraction in `[0, 1]`.
    pub best_saving: f64,
    /// One-way latency (ms) to the site providing that saving.
    pub one_way_latency_ms: f64,
    /// Distance (km) to that site.
    pub distance_km: f64,
}

/// The radius analysis over a full edge-site catalog.
#[derive(Debug, Clone)]
pub struct RadiusAnalysis {
    /// Search radius in km.
    pub radius_km: f64,
    /// Per-site outcomes.
    pub points: Vec<RadiusPoint>,
}

impl RadiusAnalysis {
    /// Runs the analysis for one radius, using yearly-mean carbon intensity
    /// per zone (the paper computes percentage differences between
    /// locations; yearly means make the statistic stable).
    pub fn run(
        sites: &EdgeSiteCatalog,
        traces: &ZoneTraces,
        latency: &LatencyModel,
        radius_km: f64,
    ) -> Self {
        let records = sites.sites();
        // Only the zones the sites sit in are read, each once.
        let mut zones: Vec<usize> = records.iter().map(|s| s.zone.index()).collect();
        zones.sort_unstable();
        zones.dedup();
        let mut zone_mean = vec![0.0; traces.len()];
        for zone in zones {
            zone_mean[zone] = traces[zone].mean();
        }
        let points: Vec<RadiusPoint> = records
            .par_iter()
            .map(|site| {
                let own = zone_mean[site.zone.index()];
                let mut best_saving = 0.0f64;
                let mut best_latency = 0.0f64;
                let mut best_distance = 0.0f64;
                for other in records {
                    if other.id == site.id {
                        continue;
                    }
                    let d = site.location.distance_km(&other.location);
                    if d > radius_km {
                        continue;
                    }
                    let other_ci = zone_mean[other.zone.index()];
                    if own <= 0.0 {
                        continue;
                    }
                    let saving = 1.0 - other_ci / own;
                    if saving > best_saving {
                        best_saving = saving;
                        best_latency = latency.one_way_ms(site.location, other.location);
                        best_distance = d;
                    }
                }
                RadiusPoint {
                    site: site.id,
                    best_saving: best_saving.max(0.0),
                    one_way_latency_ms: best_latency,
                    distance_km: best_distance,
                }
            })
            .collect();
        Self { radius_km, points }
    }

    /// CDF of the per-site best savings (in percent, 0–100), matching the
    /// x-axis of Figure 5a–c.
    pub fn saving_cdf(&self) -> Cdf {
        Cdf::new(self.points.iter().map(|p| p.best_saving * 100.0).collect())
    }

    /// Fraction of sites whose best saving is below `threshold_percent`.
    pub fn fraction_below(&self, threshold_percent: f64) -> f64 {
        self.saving_cdf().fraction_at_most(threshold_percent)
    }

    /// Fraction of sites whose best saving exceeds `threshold_percent`.
    pub fn fraction_above(&self, threshold_percent: f64) -> f64 {
        self.saving_cdf().fraction_above(threshold_percent)
    }

    /// Median one-way latency (ms) to the chosen greener site, over sites
    /// that found any saving (Figure 5d).
    pub fn median_latency_ms(&self) -> f64 {
        let latencies: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.best_saving > 0.0)
            .map(|p| p.one_way_latency_ms)
            .collect();
        Cdf::new(latencies).median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbonedge_datasets::ZoneCatalog;

    fn setup() -> (EdgeSiteCatalog, ZoneTraces) {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        let traces = zones.traces(7);
        (sites, traces)
    }

    #[test]
    fn savings_grow_with_radius() {
        // Figure 5: the fraction of sites with >20% savings grows from 32%
        // (200 km) to 57% (500 km) to 78% (1000 km).
        let (sites, traces) = setup();
        let model = LatencyModel::deterministic();
        let r200 = RadiusAnalysis::run(&sites, &traces, &model, 200.0);
        let r500 = RadiusAnalysis::run(&sites, &traces, &model, 500.0);
        let r1000 = RadiusAnalysis::run(&sites, &traces, &model, 1000.0);
        let f = |r: &RadiusAnalysis| r.fraction_above(20.0);
        assert!(
            f(&r200) < f(&r500),
            "200km {} vs 500km {}",
            f(&r200),
            f(&r500)
        );
        assert!(
            f(&r500) < f(&r1000),
            "500km {} vs 1000km {}",
            f(&r500),
            f(&r1000)
        );
        // Broad agreement with the paper's magnitudes.
        assert!(
            f(&r200) > 0.10 && f(&r200) < 0.75,
            "200km fraction {}",
            f(&r200)
        );
        assert!(f(&r1000) > 0.50, "1000km fraction {}", f(&r1000));
    }

    #[test]
    fn large_savings_are_rarer_than_moderate_savings() {
        let (sites, traces) = setup();
        let model = LatencyModel::deterministic();
        let r500 = RadiusAnalysis::run(&sites, &traces, &model, 500.0);
        assert!(r500.fraction_above(40.0) <= r500.fraction_above(20.0));
    }

    #[test]
    fn latency_grows_with_radius() {
        // Figure 5d: median one-way latency rises from ~5 ms (200 km) to
        // ~14 ms (1000 km).
        let (sites, traces) = setup();
        let model = LatencyModel::deterministic();
        let r200 = RadiusAnalysis::run(&sites, &traces, &model, 200.0);
        let r1000 = RadiusAnalysis::run(&sites, &traces, &model, 1000.0);
        assert!(r200.median_latency_ms() < r1000.median_latency_ms());
        assert!(
            r200.median_latency_ms() < 10.0,
            "200km median {}",
            r200.median_latency_ms()
        );
        assert!(r1000.median_latency_ms() < 30.0);
    }

    #[test]
    fn chosen_sites_are_within_radius() {
        let (sites, traces) = setup();
        let model = LatencyModel::deterministic();
        let r500 = RadiusAnalysis::run(&sites, &traces, &model, 500.0);
        for p in &r500.points {
            assert!(p.distance_km <= 500.0 + 1e-9);
            assert!(p.best_saving >= 0.0 && p.best_saving <= 1.0);
        }
        assert_eq!(r500.points.len(), sites.len());
    }

    #[test]
    fn zero_radius_finds_no_savings() {
        let (sites, traces) = setup();
        let model = LatencyModel::deterministic();
        let r0 = RadiusAnalysis::run(&sites, &traces, &model, 0.0);
        // Sites in the same city are a few km apart, so nothing is reachable.
        assert!(r0.fraction_above(1.0) < 0.05);
    }
}

//! The CDN edge-site catalog (the Akamai-trace substitute).
//!
//! The paper's CDN-scale evaluation uses the locations of 496 Akamai edge
//! data centers across the US and Europe (Section 3.2 and Section 6.3),
//! mapped to carbon zones by coordinates and to the nearest city for
//! latency.  This module synthesizes an equivalent catalog: edge sites are
//! placed at (and around) the catalog's US/EU zone cities, with the number
//! of sites per city proportional to metro population, until the paper's
//! site count is reached.

use crate::zones::{ZoneArea, ZoneCatalog};
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;

/// One edge data center in the CDN catalog.
#[derive(Debug, Clone)]
pub struct EdgeSiteRecord {
    /// Site index.
    pub id: usize,
    /// Site name (city, possibly with a suffix when a city hosts several sites).
    pub name: String,
    /// Site location.
    pub location: Coordinates,
    /// Carbon zone the site draws power from.
    pub zone: ZoneId,
    /// Whether the site is in the US or Europe.
    pub area: ZoneArea,
    /// Population weight of the site's metro (millions).
    pub population_m: f64,
}

/// The full CDN edge-site catalog.
#[derive(Debug, Clone)]
pub struct EdgeSiteCatalog {
    sites: Vec<EdgeSiteRecord>,
}

/// Number of edge sites in the paper's Akamai trace (US + Europe).
pub const PAPER_SITE_COUNT: usize = 496;

impl EdgeSiteCatalog {
    /// Builds the 496-site catalog from a zone catalog.
    ///
    /// Cities receive `1 + floor(population / 2M)` candidate sites; extra
    /// sites within the same city are offset by a few kilometres (they would
    /// be merged for latency purposes anyway, but they carry capacity).  The
    /// allocation is truncated/extended round-robin so the total is exactly
    /// [`PAPER_SITE_COUNT`].
    pub fn akamai_like(catalog: &ZoneCatalog) -> Self {
        let mut sites = Vec::new();
        let zones: Vec<_> = catalog
            .records()
            .iter()
            .filter(|r| r.area != ZoneArea::RestOfWorld)
            .collect();

        // First pass: population-proportional allocation.
        let mut allocations: Vec<usize> = zones
            .iter()
            .map(|z| 1 + (z.population_m / 2.0).floor() as usize)
            .collect();
        let mut total: usize = allocations.iter().sum();

        // Adjust to exactly PAPER_SITE_COUNT: add to (or remove from) the
        // largest cities round-robin.
        let mut order: Vec<usize> = (0..zones.len()).collect();
        order.sort_by(|a, b| zones[*b].population_m.total_cmp(&zones[*a].population_m));
        let mut cursor = 0usize;
        while total < PAPER_SITE_COUNT {
            allocations[order[cursor % order.len()]] += 1;
            total += 1;
            cursor += 1;
        }
        cursor = 0;
        while total > PAPER_SITE_COUNT {
            let idx = order[order.len() - 1 - (cursor % order.len())];
            if allocations[idx] > 1 {
                allocations[idx] -= 1;
                total -= 1;
            }
            cursor += 1;
        }

        for (zi, zone) in zones.iter().enumerate() {
            for k in 0..allocations[zi] {
                // Spread additional sites on a small ring (~10 km) around the city.
                let (dlat, dlon) = if k == 0 {
                    (0.0, 0.0)
                } else {
                    let angle = k as f64 * 2.399963; // golden angle for spread
                    (0.09 * angle.sin(), 0.09 * angle.cos())
                };
                let name = if k == 0 {
                    zone.name.clone()
                } else {
                    format!("{} #{}", zone.name, k + 1)
                };
                sites.push(EdgeSiteRecord {
                    id: sites.len(),
                    name,
                    location: Coordinates::new(zone.location.lat + dlat, zone.location.lon + dlon),
                    zone: zone.id,
                    area: zone.area,
                    population_m: zone.population_m / allocations[zi] as f64,
                });
            }
        }
        Self { sites }
    }

    /// All sites.
    pub fn sites(&self) -> &[EdgeSiteRecord] {
        &self.sites
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Sites restricted to one area.
    pub fn in_area(&self, area: ZoneArea) -> Vec<&EdgeSiteRecord> {
        self.sites.iter().filter(|s| s.area == area).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_paper_site_count() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        assert_eq!(sites.len(), PAPER_SITE_COUNT);
    }

    #[test]
    fn both_areas_are_represented() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        let us = sites.in_area(ZoneArea::UnitedStates).len();
        let eu = sites.in_area(ZoneArea::Europe).len();
        assert!(us > 100, "us {us}");
        assert!(eu > 100, "eu {eu}");
        assert_eq!(us + eu, PAPER_SITE_COUNT);
    }

    #[test]
    fn every_zone_hosts_at_least_one_site() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        let zone_ids: std::collections::HashSet<_> = sites.sites().iter().map(|s| s.zone).collect();
        let us_eu_zones = zones
            .records()
            .iter()
            .filter(|r| r.area != ZoneArea::RestOfWorld)
            .count();
        assert_eq!(zone_ids.len(), us_eu_zones);
    }

    #[test]
    fn large_cities_get_more_sites() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        let count_for = |prefix: &str| {
            sites
                .sites()
                .iter()
                .filter(|s| s.name == prefix || s.name.starts_with(&format!("{prefix} #")))
                .count()
        };
        assert!(count_for("New York") > count_for("Kingman"));
        assert!(count_for("Paris, FR") > count_for("Bern, CH"));
    }

    #[test]
    fn extra_sites_stay_near_their_city() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        for s in sites.sites() {
            let zone = &zones.records()[s.zone.index()];
            assert!(
                s.location.distance_km(&zone.location) < 30.0,
                "{} is {} km from its zone city",
                s.name,
                s.location.distance_km(&zone.location)
            );
        }
    }

    #[test]
    fn site_ids_are_sequential() {
        let zones = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&zones);
        for (i, s) in sites.sites().iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }
}

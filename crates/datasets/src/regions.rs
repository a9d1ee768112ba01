//! The mesoscale study regions of the paper.
//!
//! Figure 2 analyses four mesoscale regions of five carbon zones each
//! (Florida, West US, Italy, Central EU); the regional testbed evaluation of
//! Section 6.2 deploys edge data centers in the Florida and Central-EU
//! regions.  This module names those regions and resolves them against the
//! zone catalog.

use crate::zones::ZoneCatalog;
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;

/// The four mesoscale regions studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyRegion {
    /// Five Florida cities (Fig. 2a).
    Florida,
    /// Five cities in the western US (Fig. 2b).
    WestUs,
    /// Five Italian cities (Fig. 2c).
    Italy,
    /// Five central-European cities (Fig. 2d).
    CentralEu,
}

impl StudyRegion {
    /// All study regions.
    pub const ALL: [StudyRegion; 4] = [
        StudyRegion::Florida,
        StudyRegion::WestUs,
        StudyRegion::Italy,
        StudyRegion::CentralEu,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StudyRegion::Florida => "Florida",
            StudyRegion::WestUs => "West US",
            StudyRegion::Italy => "Italy",
            StudyRegion::CentralEu => "Central EU",
        }
    }

    /// The zone names composing the region, in the order the paper lists them.
    pub fn zone_names(&self) -> [&'static str; 5] {
        match self {
            StudyRegion::Florida => ["Jacksonville", "Miami", "Orlando", "Tampa", "Tallahassee"],
            StudyRegion::WestUs => ["Kingman", "Las Vegas", "Flagstaff", "Phoenix", "San Diego"],
            StudyRegion::Italy => [
                "Milan, IT",
                "Rome, IT",
                "Cagliari, IT",
                "Palermo, IT",
                "Arezzo, IT",
            ],
            StudyRegion::CentralEu => [
                "Bern, CH",
                "Graz, AT",
                "Lyon, FR",
                "Milan, IT",
                "Munich, DE",
            ],
        }
    }
}

/// A study region resolved against a zone catalog.
#[derive(Debug, Clone)]
pub struct MesoscaleRegion {
    /// Which study region this is.
    pub region: StudyRegion,
    /// Zone ids of the five member zones (catalog order matches
    /// [`StudyRegion::zone_names`]).
    pub zones: Vec<ZoneId>,
    /// Member names and locations.
    pub members: Vec<(String, Coordinates)>,
}

impl MesoscaleRegion {
    /// Resolves a study region against a catalog.  Panics if a member zone
    /// is missing from the catalog (a programming error in the datasets).
    pub fn resolve(region: StudyRegion, catalog: &ZoneCatalog) -> Self {
        let mut zones = Vec::with_capacity(5);
        let mut members = Vec::with_capacity(5);
        for name in region.zone_names() {
            let record = catalog
                .by_name(name)
                .unwrap_or_else(|| panic!("zone {name} missing from catalog"));
            zones.push(record.id);
            members.push((record.name.clone(), record.location));
        }
        Self {
            region,
            zones,
            members,
        }
    }

    /// All four study regions resolved against a catalog.
    pub fn all(catalog: &ZoneCatalog) -> Vec<MesoscaleRegion> {
        StudyRegion::ALL
            .iter()
            .map(|r| Self::resolve(*r, catalog))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_regions_resolve_with_five_zones() {
        let catalog = ZoneCatalog::worldwide();
        for region in MesoscaleRegion::all(&catalog) {
            assert_eq!(region.zones.len(), 5);
            assert_eq!(region.members.len(), 5);
        }
    }

    #[test]
    fn regions_are_mesoscale_in_extent() {
        // Figure 2 annotates each region with an extent around 700-1400 km;
        // the diameter is the largest distance between two member cities.
        let catalog = ZoneCatalog::worldwide();
        for region in MesoscaleRegion::all(&catalog) {
            let diameter = region
                .members
                .iter()
                .flat_map(|(_, a)| region.members.iter().map(move |(_, b)| a.distance_km(b)))
                .fold(0.0, f64::max);
            assert!(
                diameter > 200.0 && diameter < 1600.0,
                "{} diameter {diameter}",
                region.region.name()
            );
        }
    }

    #[test]
    fn central_eu_contains_expected_cities() {
        let catalog = ZoneCatalog::worldwide();
        let region = MesoscaleRegion::resolve(StudyRegion::CentralEu, &catalog);
        let names: Vec<&str> = region.members.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"Bern, CH"));
        assert!(names.contains(&"Munich, DE"));
    }

    #[test]
    fn milan_is_shared_between_italy_and_central_eu() {
        let catalog = ZoneCatalog::worldwide();
        let italy = MesoscaleRegion::resolve(StudyRegion::Italy, &catalog);
        let central = MesoscaleRegion::resolve(StudyRegion::CentralEu, &catalog);
        let milan = catalog.id_of("Milan, IT").unwrap();
        assert!(italy.zones.contains(&milan));
        assert!(central.zones.contains(&milan));
    }

    #[test]
    fn region_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            StudyRegion::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), 4);
    }
}

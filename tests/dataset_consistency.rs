//! Consistency checks across the dataset, grid and network substrates.

use carbonedge_analysis::mesoscale::{region_latency_table, standard_regions_and_traces};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, StudyRegion, ZoneCatalog};
use carbonedge_net::LatencyModel;

#[test]
fn catalog_counts_match_the_paper() {
    let zones = ZoneCatalog::worldwide();
    assert_eq!(zones.len(), 148);
    assert_eq!(zones.in_area(ZoneArea::UnitedStates).len(), 54);
    assert_eq!(zones.in_area(ZoneArea::Europe).len(), 45);
    let sites = EdgeSiteCatalog::akamai_like(&zones);
    assert_eq!(sites.len(), 496);
}

#[test]
fn every_edge_site_references_a_valid_zone_with_a_trace() {
    let zones = ZoneCatalog::worldwide();
    let sites = EdgeSiteCatalog::akamai_like(&zones);
    let traces = zones.traces(7);
    for site in sites.sites() {
        assert!(site.zone.index() < zones.len(), "{}", site.name);
        let trace = &traces[site.zone.index()];
        assert!(trace.mean() > 5.0 && trace.mean() < 900.0, "{}", site.name);
        // The site must be geographically close to its zone's reference city.
        let zone = &zones.records()[site.zone.index()];
        assert!(site.location.distance_km(&zone.location) < 50.0);
    }
}

#[test]
fn study_regions_resolve_against_the_worldwide_catalog_and_traces() {
    let (catalog, regions, traces) = standard_regions_and_traces(42);
    assert_eq!(traces.len(), catalog.len());
    assert_eq!(regions.len(), 4);
    for region in &regions {
        for zone in &region.zones {
            assert!(zone.index() < traces.len());
        }
    }
}

#[test]
fn regional_latencies_stay_in_the_table1_envelope() {
    let (_, regions, _) = standard_regions_and_traces(42);
    let model = LatencyModel::deterministic();
    for region in &regions {
        let table = region_latency_table(region, &model);
        for i in 0..table.len() {
            for j in 0..table.len() {
                if i != j {
                    let l = table.one_way(i, j);
                    assert!(
                        l > 0.5 && l < 25.0,
                        "{} {}-{}: {}",
                        region.region.name(),
                        i,
                        j,
                        l
                    );
                }
            }
        }
    }
}

#[test]
fn mesoscale_regions_are_actually_mesoscale() {
    // Figure 2 annotates each region with an extent around 700-1400 km; the
    // diameter is the largest distance between two member cities.
    let (_, regions, _) = standard_regions_and_traces(42);
    for region in &regions {
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
fn calibrated_spreads_for_figure3_regions() {
    let (catalog, regions, traces) = standard_regions_and_traces(42);
    let spread = |region: StudyRegion| {
        let r = regions.iter().find(|r| r.region == region).unwrap();
        let means: Vec<f64> = r.zones.iter().map(|z| traces[z.index()].mean()).collect();
        means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            / means.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    assert!(spread(StudyRegion::CentralEu) > spread(StudyRegion::WestUs));
    assert!(spread(StudyRegion::CentralEu) > 6.0);
    assert!(spread(StudyRegion::WestUs) > 1.8);
    // Sanity on the overall catalog: Europe is greener than the US on average.
    let mean_of = |area: ZoneArea| {
        let zones = catalog.in_area(area);
        zones
            .iter()
            .map(|z| traces[z.id.index()].mean())
            .sum::<f64>()
            / zones.len() as f64
    };
    assert!(mean_of(ZoneArea::Europe) < mean_of(ZoneArea::UnitedStates));
}

//! Mesoscale carbon-intensity analysis (Section 3 of the paper).
//!
//! Reproduces the motivation study: how much does grid carbon intensity vary
//! within regions spanning tens to hundreds of kilometres, and how common
//! are such opportunities across a continental CDN footprint?
//!
//! Run with `cargo run --release -p carbonedge-examples --bin mesoscale_analysis`.

use carbonedge_analysis::mesoscale::{standard_regions_and_traces, RegionSnapshot, RegionYearly};
use carbonedge_analysis::RadiusAnalysis;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_net::LatencyModel;

fn main() {
    let (_, regions, traces) = standard_regions_and_traces(42);

    println!("Per-region carbon-intensity variation (most-varied hour of the year):\n");
    for region in &regions {
        let (_, snapshot) = RegionSnapshot::most_varied_hour(region, &traces);
        let yearly = RegionYearly::compute(region, &traces);
        println!(
            "  {:<12} snapshot spread {:>5.1}x   yearly spread {:>5.1}x",
            snapshot.region, snapshot.variation_factor, yearly.spread
        );
    }

    println!("\nHow common are these opportunities across the CDN footprint?");
    let catalog = ZoneCatalog::worldwide();
    let sites = EdgeSiteCatalog::akamai_like(&catalog);
    let site_traces = catalog.traces(42);
    let latency = LatencyModel::deterministic();
    println!(
        "{:>10} {:>24} {:>24} {:>20}",
        "radius", "sites with >20% saving", "sites with >40% saving", "median latency ms"
    );
    for radius in [200.0, 500.0, 1000.0] {
        let analysis = RadiusAnalysis::run(&sites, &site_traces, &latency, radius);
        println!(
            "{:>8}km {:>23.0}% {:>23.0}% {:>20.1}",
            radius,
            analysis.fraction_above(20.0) * 100.0,
            analysis.fraction_above(40.0) * 100.0,
            analysis.median_latency_ms()
        );
    }
    println!(
        "\nEven within a few hundred kilometres, a large fraction of edge sites can reach\n\
         a significantly greener zone — the observation that motivates CarbonEdge."
    );
}

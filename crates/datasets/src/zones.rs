//! The carbon-zone catalog: 148 zones (54 US, 45 Europe, 49 rest-of-world).
//!
//! Each zone is described by a representative city, a generation-mix
//! archetype and a fossil-share perturbation.  The perturbations of the
//! zones used in the paper's figures are calibrated so the reported regional
//! statistics hold: the Central-EU region spans ~10.8× between its greenest
//! and dirtiest zone over a year, the West-US region ~2.7×, Florida's
//! greenest zone (Miami) sits ~40% below the regional mean, Poland is
//! coal-heavy (~700 g·CO2eq/kWh) while Ontario and Scandinavia are below
//! 80 g·CO2eq/kWh.

use crate::archetype::MixArchetype;
use carbonedge_geo::Coordinates;
use carbonedge_grid::{TraceGenerator, ZoneId, ZoneProfile, ZoneTraces};

/// Which macro-region a zone belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneArea {
    /// United States (and Ontario, which the paper groups with its US analysis).
    UnitedStates,
    /// Europe.
    Europe,
    /// Rest of the world.
    RestOfWorld,
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct ZoneRecord {
    /// Zone id (index in the catalog).
    pub id: ZoneId,
    /// Representative city / zone name.
    pub name: String,
    /// Macro-region.
    pub area: ZoneArea,
    /// Location of the representative city.
    pub location: Coordinates,
    /// Mix archetype.
    pub archetype: MixArchetype,
    /// Fossil-share perturbation applied to the archetype mix.
    pub fossil_delta: f64,
    /// Metro population in millions (used as demand/capacity weight).
    pub population_m: f64,
}

impl ZoneRecord {
    /// The zone profile (input to the trace generator).
    pub fn profile(&self) -> ZoneProfile {
        let mix = self.archetype.perturbed_mix(self.fossil_delta);
        // Southern zones get stronger solar seasonality; wind-heavy zones get
        // more stochastic wind.
        let solar_seasonality = ((55.0 - self.location.lat.abs()) / 40.0).clamp(0.2, 0.9);
        let wind_variability = match self.archetype {
            MixArchetype::WindGas => 0.6,
            MixArchetype::GreenMixed => 0.4,
            _ => 0.25,
        };
        ZoneProfile::new(self.name.clone(), self.location, mix)
            .with_solar_seasonality(solar_seasonality)
            .with_wind_variability(wind_variability)
            .with_demand_swing(0.15)
    }
}

/// The full zone catalog; [`ZoneCatalog::traces`] gives its year-long
/// traces for a seed.
#[derive(Debug, Clone)]
pub struct ZoneCatalog {
    records: Vec<ZoneRecord>,
}

type RawZone = (&'static str, f64, f64, MixArchetype, f64, f64);

#[rustfmt::skip]
const US_ZONES: &[RawZone] = &[
    // name, lat, lon, archetype, fossil_delta, population (millions)
    // --- Florida mesoscale region (Fig. 2a, Sec. 6.2) ---
    ("Miami", 25.7617, -80.1918, MixArchetype::SolarGas, -0.30, 6.1),
    ("Orlando", 28.5384, -81.3789, MixArchetype::GasHeavy, 0.10, 2.7),
    ("Tampa", 27.9506, -82.4572, MixArchetype::GasHeavy, 0.00, 3.2),
    ("Jacksonville", 30.3322, -81.6557, MixArchetype::GasHeavy, 0.20, 1.6),
    ("Tallahassee", 30.4383, -84.2807, MixArchetype::GasHeavy, 0.30, 0.4),
    // --- West-US mesoscale region (Fig. 2b) ---
    ("San Diego", 32.7157, -117.1611, MixArchetype::SolarGas, -0.30, 3.3),
    ("Phoenix", 33.4484, -112.0740, MixArchetype::SolarGas, 0.00, 4.9),
    ("Las Vegas", 36.1699, -115.1398, MixArchetype::SolarGas, 0.10, 2.3),
    ("Kingman", 35.1894, -114.0530, MixArchetype::Balanced, 0.00, 0.1),
    ("Flagstaff", 35.1983, -111.6513, MixArchetype::CoalHeavy, -0.10, 0.1),
    // --- Fig. 1 reference zones ---
    ("Ontario", 43.6532, -79.3832, MixArchetype::NuclearHeavy, -0.30, 6.2),
    ("California North", 37.7749, -122.4194, MixArchetype::SolarGas, -0.20, 4.7),
    ("New York", 40.7128, -74.0060, MixArchetype::Balanced, -0.20, 19.2),
    // --- Pacific Northwest (hydro) ---
    ("Seattle", 47.6062, -122.3321, MixArchetype::HydroHeavy, 0.00, 4.0),
    ("Portland", 45.5152, -122.6784, MixArchetype::HydroHeavy, 0.10, 2.5),
    ("Spokane", 47.6588, -117.4260, MixArchetype::HydroHeavy, 0.20, 0.6),
    ("Boise", 43.6150, -116.2023, MixArchetype::GreenMixed, 0.10, 0.8),
    // --- Mountain / Southwest ---
    ("Salt Lake City", 40.7608, -111.8910, MixArchetype::FossilMixed, 0.30, 1.3),
    ("Denver", 39.7392, -104.9903, MixArchetype::WindGas, 0.10, 3.0),
    ("Albuquerque", 35.0844, -106.6504, MixArchetype::SolarGas, 0.10, 0.9),
    ("El Paso", 31.7619, -106.4850, MixArchetype::SolarGas, 0.20, 0.9),
    ("Tucson", 32.2226, -110.9747, MixArchetype::SolarGas, 0.05, 1.1),
    ("Reno", 39.5296, -119.8138, MixArchetype::SolarGas, -0.10, 0.5),
    ("Sacramento", 38.5816, -121.4944, MixArchetype::SolarGas, -0.25, 2.4),
    ("Los Angeles", 34.0522, -118.2437, MixArchetype::SolarGas, -0.10, 13.2),
    ("Fresno", 36.7378, -119.7871, MixArchetype::SolarGas, -0.15, 1.0),
    // --- Texas / South ---
    ("Dallas", 32.7767, -96.7970, MixArchetype::WindGas, 0.00, 7.6),
    ("Houston", 29.7604, -95.3698, MixArchetype::GasHeavy, 0.10, 7.1),
    ("Austin", 30.2672, -97.7431, MixArchetype::WindGas, -0.10, 2.3),
    ("San Antonio", 29.4241, -98.4936, MixArchetype::WindGas, 0.05, 2.6),
    ("Oklahoma City", 35.4676, -97.5164, MixArchetype::WindGas, 0.10, 1.4),
    ("New Orleans", 29.9511, -90.0715, MixArchetype::GasHeavy, 0.15, 1.3),
    ("Memphis", 35.1495, -90.0490, MixArchetype::Balanced, 0.10, 1.3),
    ("Nashville", 36.1627, -86.7816, MixArchetype::Balanced, 0.00, 2.0),
    ("Atlanta", 33.7490, -84.3880, MixArchetype::Balanced, 0.05, 6.1),
    ("Birmingham", 33.5186, -86.8104, MixArchetype::FossilMixed, 0.10, 1.1),
    ("Charlotte", 35.2271, -80.8431, MixArchetype::NuclearHeavy, 0.20, 2.7),
    ("Raleigh", 35.7796, -78.6382, MixArchetype::NuclearHeavy, 0.25, 1.4),
    // --- Midwest ---
    ("Chicago", 41.8781, -87.6298, MixArchetype::NuclearHeavy, 0.35, 9.5),
    ("Detroit", 42.3314, -83.0458, MixArchetype::FossilMixed, 0.15, 4.3),
    ("Cleveland", 41.4993, -81.6944, MixArchetype::FossilMixed, 0.20, 2.1),
    ("Columbus", 39.9612, -82.9988, MixArchetype::FossilMixed, 0.25, 2.1),
    ("Indianapolis", 39.7684, -86.1581, MixArchetype::CoalHeavy, -0.05, 2.1),
    ("St Louis", 38.6270, -90.1994, MixArchetype::CoalHeavy, 0.00, 2.8),
    ("Kansas City", 39.0997, -94.5786, MixArchetype::WindGas, 0.15, 2.2),
    ("Minneapolis", 44.9778, -93.2650, MixArchetype::WindGas, 0.00, 3.7),
    ("Milwaukee", 43.0389, -87.9065, MixArchetype::FossilMixed, 0.10, 1.6),
    ("Des Moines", 41.5868, -93.6250, MixArchetype::WindGas, -0.20, 0.7),
    ("Omaha", 41.2565, -95.9345, MixArchetype::WindGas, 0.05, 1.0),
    // --- Northeast ---
    ("Boston", 42.3601, -71.0589, MixArchetype::GasHeavy, -0.20, 4.9),
    ("Philadelphia", 39.9526, -75.1652, MixArchetype::NuclearHeavy, 0.30, 6.2),
    ("Pittsburgh", 40.4406, -79.9959, MixArchetype::FossilMixed, 0.20, 2.3),
    ("Washington DC", 38.9072, -77.0369, MixArchetype::Balanced, -0.05, 6.3),
    ("Buffalo", 42.8864, -78.8784, MixArchetype::HydroHeavy, 0.25, 1.1),
];

#[rustfmt::skip]
const EUROPE_ZONES: &[RawZone] = &[
    // --- Central-EU mesoscale region (Fig. 2d, Sec. 6.2) ---
    ("Bern, CH", 46.9480, 7.4474, MixArchetype::HydroHeavy, -0.50, 0.4),
    ("Lyon, FR", 45.7640, 4.8357, MixArchetype::NuclearHeavy, -0.20, 2.3),
    ("Graz, AT", 47.0707, 15.4395, MixArchetype::GreenMixed, 0.10, 0.6),
    ("Milan, IT", 45.4642, 9.1900, MixArchetype::GasHeavy, 0.00, 4.3),
    ("Munich, DE", 48.1351, 11.5820, MixArchetype::FossilMixed, 0.20, 2.9),
    // --- Italy mesoscale region (Fig. 2c) ---
    ("Rome, IT", 41.9028, 12.4964, MixArchetype::GasHeavy, -0.10, 4.3),
    ("Cagliari, IT", 39.2238, 9.1217, MixArchetype::FossilMixed, 0.05, 0.4),
    ("Palermo, IT", 38.1157, 13.3615, MixArchetype::GasHeavy, 0.10, 1.2),
    ("Arezzo, IT", 43.4633, 11.8796, MixArchetype::SolarGas, -0.25, 0.3),
    // --- Fig. 1 / Fig. 13 reference zones ---
    ("Warsaw, PL", 52.2297, 21.0122, MixArchetype::CoalHeavy, 0.10, 3.1),
    ("Paris, FR", 48.8566, 2.3522, MixArchetype::NuclearHeavy, -0.10, 11.0),
    ("Oslo, NO", 59.9139, 10.7522, MixArchetype::HydroHeavy, -0.50, 1.0),
    ("Vienna, AT", 48.2082, 16.3738, MixArchetype::GreenMixed, 0.20, 1.9),
    ("Zagreb, HR", 45.8150, 15.9819, MixArchetype::Balanced, 0.00, 0.8),
    // --- Nordics / Baltics ---
    ("Stockholm, SE", 59.3293, 18.0686, MixArchetype::GreenMixed, -0.40, 1.6),
    ("Gothenburg, SE", 57.7089, 11.9746, MixArchetype::GreenMixed, -0.30, 1.0),
    ("Copenhagen, DK", 55.6761, 12.5683, MixArchetype::WindGas, -0.30, 1.3),
    ("Helsinki, FI", 60.1699, 24.9384, MixArchetype::NuclearHeavy, -0.10, 1.2),
    ("Bergen, NO", 60.3913, 5.3221, MixArchetype::HydroHeavy, -0.50, 0.4),
    ("Riga, LV", 56.9496, 24.1052, MixArchetype::Balanced, -0.10, 0.6),
    ("Vilnius, LT", 54.6872, 25.2797, MixArchetype::Balanced, 0.00, 0.5),
    ("Tallinn, EE", 59.4370, 24.7536, MixArchetype::FossilMixed, 0.15, 0.4),
    // --- Western Europe ---
    ("London, UK", 51.5074, -0.1278, MixArchetype::WindGas, -0.10, 9.0),
    ("Manchester, UK", 53.4808, -2.2426, MixArchetype::WindGas, 0.00, 2.8),
    ("Edinburgh, UK", 55.9533, -3.1883, MixArchetype::WindGas, -0.30, 0.5),
    ("Dublin, IE", 53.3498, -6.2603, MixArchetype::WindGas, 0.05, 1.4),
    ("Amsterdam, NL", 52.3676, 4.9041, MixArchetype::GasHeavy, 0.10, 2.5),
    ("Brussels, BE", 50.8503, 4.3517, MixArchetype::NuclearHeavy, 0.20, 2.1),
    ("Luxembourg, LU", 49.6116, 6.1319, MixArchetype::Balanced, -0.10, 0.6),
    ("Marseille, FR", 43.2965, 5.3698, MixArchetype::NuclearHeavy, -0.05, 1.8),
    ("Bordeaux, FR", 44.8378, -0.5792, MixArchetype::NuclearHeavy, -0.15, 1.0),
    ("Toulouse, FR", 43.6047, 1.4442, MixArchetype::NuclearHeavy, -0.10, 1.0),
    ("Madrid, ES", 40.4168, -3.7038, MixArchetype::SolarGas, -0.15, 6.7),
    ("Barcelona, ES", 41.3851, 2.1734, MixArchetype::SolarGas, -0.05, 5.6),
    ("Valencia, ES", 39.4699, -0.3763, MixArchetype::SolarGas, -0.10, 1.6),
    ("Lisbon, PT", 38.7223, -9.1393, MixArchetype::WindGas, -0.20, 2.9),
    ("Porto, PT", 41.1579, -8.6291, MixArchetype::WindGas, -0.25, 1.7),
    // --- Central / Eastern Europe ---
    ("Berlin, DE", 52.5200, 13.4050, MixArchetype::FossilMixed, 0.10, 3.8),
    ("Frankfurt, DE", 50.1109, 8.6821, MixArchetype::FossilMixed, 0.15, 2.3),
    ("Hamburg, DE", 53.5511, 9.9937, MixArchetype::WindGas, 0.10, 1.8),
    ("Prague, CZ", 50.0755, 14.4378, MixArchetype::FossilMixed, 0.30, 1.3),
    ("Krakow, PL", 50.0647, 19.9450, MixArchetype::CoalHeavy, 0.05, 0.8),
    ("Budapest, HU", 47.4979, 19.0402, MixArchetype::NuclearHeavy, 0.30, 1.8),
    ("Bratislava, SK", 48.1486, 17.1077, MixArchetype::NuclearHeavy, 0.10, 0.4),
    ("Athens, GR", 37.9838, 23.7275, MixArchetype::SolarGas, 0.15, 3.2),
];

#[rustfmt::skip]
const WORLD_ZONES: &[RawZone] = &[
    ("Tokyo, JP", 35.6762, 139.6503, MixArchetype::GasHeavy, 0.05, 37.0),
    ("Osaka, JP", 34.6937, 135.5023, MixArchetype::GasHeavy, 0.00, 19.0),
    ("Seoul, KR", 37.5665, 126.9780, MixArchetype::Balanced, 0.15, 25.0),
    ("Beijing, CN", 39.9042, 116.4074, MixArchetype::CoalHeavy, 0.00, 21.0),
    ("Shanghai, CN", 31.2304, 121.4737, MixArchetype::CoalHeavy, -0.10, 26.0),
    ("Shenzhen, CN", 22.5431, 114.0579, MixArchetype::FossilMixed, 0.10, 17.5),
    ("Hong Kong", 22.3193, 114.1694, MixArchetype::GasHeavy, 0.20, 7.5),
    ("Taipei, TW", 25.0330, 121.5654, MixArchetype::GasHeavy, 0.10, 7.0),
    ("Singapore", 1.3521, 103.8198, MixArchetype::GasHeavy, 0.15, 5.9),
    ("Mumbai, IN", 19.0760, 72.8777, MixArchetype::CoalHeavy, 0.00, 20.7),
    ("Delhi, IN", 28.7041, 77.1025, MixArchetype::CoalHeavy, 0.05, 31.0),
    ("Bangalore, IN", 12.9716, 77.5946, MixArchetype::FossilMixed, 0.10, 12.8),
    ("Chennai, IN", 13.0827, 80.2707, MixArchetype::CoalHeavy, -0.05, 11.2),
    ("Jakarta, ID", -6.2088, 106.8456, MixArchetype::CoalHeavy, 0.00, 10.6),
    ("Bangkok, TH", 13.7563, 100.5018, MixArchetype::GasHeavy, 0.10, 10.7),
    ("Manila, PH", 14.5995, 120.9842, MixArchetype::FossilMixed, 0.10, 13.9),
    ("Kuala Lumpur, MY", 3.1390, 101.6869, MixArchetype::GasHeavy, 0.05, 8.0),
    ("Ho Chi Minh City, VN", 10.8231, 106.6297, MixArchetype::FossilMixed, 0.00, 9.0),
    ("Sydney, AU", -33.8688, 151.2093, MixArchetype::FossilMixed, 0.20, 5.3),
    ("Melbourne, AU", -37.8136, 144.9631, MixArchetype::CoalHeavy, -0.05, 5.0),
    ("Brisbane, AU", -27.4698, 153.0251, MixArchetype::CoalHeavy, 0.00, 2.5),
    ("Perth, AU", -31.9505, 115.8605, MixArchetype::SolarGas, 0.10, 2.1),
    ("Auckland, NZ", -36.8485, 174.7633, MixArchetype::GreenMixed, -0.10, 1.7),
    ("Wellington, NZ", -41.2866, 174.7756, MixArchetype::GreenMixed, -0.20, 0.4),
    ("Sao Paulo, BR", -23.5505, -46.6333, MixArchetype::HydroHeavy, 0.20, 22.0),
    ("Rio de Janeiro, BR", -22.9068, -43.1729, MixArchetype::HydroHeavy, 0.15, 13.5),
    ("Brasilia, BR", -15.8267, -47.9218, MixArchetype::HydroHeavy, 0.10, 4.8),
    ("Buenos Aires, AR", -34.6037, -58.3816, MixArchetype::GasHeavy, 0.00, 15.2),
    ("Santiago, CL", -33.4489, -70.6693, MixArchetype::SolarGas, -0.05, 6.8),
    ("Lima, PE", -12.0464, -77.0428, MixArchetype::HydroHeavy, 0.25, 10.7),
    ("Bogota, CO", 4.7110, -74.0721, MixArchetype::HydroHeavy, 0.10, 10.9),
    ("Mexico City, MX", 19.4326, -99.1332, MixArchetype::GasHeavy, 0.10, 21.8),
    ("Monterrey, MX", 25.6866, -100.3161, MixArchetype::GasHeavy, 0.15, 5.3),
    ("Guadalajara, MX", 20.6597, -103.3496, MixArchetype::GasHeavy, 0.05, 5.3),
    ("Johannesburg, ZA", -26.2041, 28.0473, MixArchetype::CoalHeavy, 0.10, 9.6),
    ("Cape Town, ZA", -33.9249, 18.4241, MixArchetype::CoalHeavy, 0.00, 4.6),
    ("Cairo, EG", 30.0444, 31.2357, MixArchetype::GasHeavy, 0.10, 21.3),
    ("Lagos, NG", 6.5244, 3.3792, MixArchetype::GasHeavy, 0.20, 15.4),
    ("Nairobi, KE", -1.2921, 36.8219, MixArchetype::GreenMixed, 0.00, 4.7),
    ("Casablanca, MA", 33.5731, -7.5898, MixArchetype::FossilMixed, 0.05, 3.7),
    ("Istanbul, TR", 41.0082, 28.9784, MixArchetype::FossilMixed, 0.05, 15.5),
    ("Tel Aviv, IL", 32.0853, 34.7818, MixArchetype::GasHeavy, 0.05, 4.0),
    ("Dubai, AE", 25.2048, 55.2708, MixArchetype::GasHeavy, 0.10, 3.5),
    ("Riyadh, SA", 24.7136, 46.6753, MixArchetype::GasHeavy, 0.20, 7.7),
    ("Doha, QA", 25.2854, 51.5310, MixArchetype::GasHeavy, 0.15, 2.4),
    ("Montreal, CA", 45.5017, -73.5673, MixArchetype::HydroHeavy, -0.40, 4.3),
    ("Vancouver, CA", 49.2827, -123.1207, MixArchetype::HydroHeavy, -0.30, 2.6),
    ("Calgary, CA", 51.0447, -114.0719, MixArchetype::GasHeavy, 0.20, 1.6),
    ("Winnipeg, CA", 49.8951, -97.1384, MixArchetype::HydroHeavy, -0.20, 0.8),
];

impl ZoneCatalog {
    /// Builds the full 148-zone catalog.
    pub fn worldwide() -> Self {
        let mut records = Vec::new();
        let push = |raw: &[RawZone], area: ZoneArea, records: &mut Vec<ZoneRecord>| {
            for (name, lat, lon, archetype, delta, pop) in raw {
                records.push(ZoneRecord {
                    id: ZoneId(records.len()),
                    name: (*name).to_string(),
                    area,
                    location: Coordinates::new(*lat, *lon),
                    archetype: *archetype,
                    fossil_delta: *delta,
                    population_m: *pop,
                });
            }
        };
        push(US_ZONES, ZoneArea::UnitedStates, &mut records);
        push(EUROPE_ZONES, ZoneArea::Europe, &mut records);
        push(WORLD_ZONES, ZoneArea::RestOfWorld, &mut records);
        Self { records }
    }

    /// All records.
    pub fn records(&self) -> &[ZoneRecord] {
        &self.records
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a zone by name.
    pub fn by_name(&self, name: &str) -> Option<&ZoneRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Zone id by name.
    pub fn id_of(&self, name: &str) -> Option<ZoneId> {
        self.by_name(name).map(|r| r.id)
    }

    /// Records restricted to an area.
    pub fn in_area(&self, area: ZoneArea) -> Vec<&ZoneRecord> {
        self.records.iter().filter(|r| r.area == area).collect()
    }

    /// The year-long traces of every zone for the given seed, indexed by
    /// zone id.  Each zone's trace is generated on its first read.
    pub fn traces(&self, seed: u64) -> ZoneTraces {
        let profiles = self.records.iter().map(ZoneRecord::profile).collect();
        ZoneTraces::new(TraceGenerator::new(seed), profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_paper_zone_counts() {
        let cat = ZoneCatalog::worldwide();
        assert_eq!(cat.len(), 148, "total zones");
        assert_eq!(cat.in_area(ZoneArea::UnitedStates).len(), 54);
        assert_eq!(cat.in_area(ZoneArea::Europe).len(), 45);
        assert_eq!(cat.in_area(ZoneArea::RestOfWorld).len(), 49);
    }

    #[test]
    fn zone_names_are_unique() {
        let cat = ZoneCatalog::worldwide();
        let mut names: Vec<&str> = cat.records().iter().map(|r| r.name.as_str()).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn study_zones_exist() {
        let cat = ZoneCatalog::worldwide();
        for name in [
            "Miami",
            "Orlando",
            "Tampa",
            "Jacksonville",
            "Tallahassee",
            "San Diego",
            "Phoenix",
            "Las Vegas",
            "Kingman",
            "Flagstaff",
            "Bern, CH",
            "Lyon, FR",
            "Graz, AT",
            "Milan, IT",
            "Munich, DE",
            "Rome, IT",
            "Cagliari, IT",
            "Palermo, IT",
            "Arezzo, IT",
            "Ontario",
            "Warsaw, PL",
            "Paris, FR",
            "Oslo, NO",
            "Vienna, AT",
            "Zagreb, HR",
        ] {
            assert!(cat.by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn poland_is_coal_heavy_and_ontario_is_clean() {
        let cat = ZoneCatalog::worldwide();
        let poland = cat
            .by_name("Warsaw, PL")
            .unwrap()
            .profile()
            .baseline_intensity();
        let ontario = cat
            .by_name("Ontario")
            .unwrap()
            .profile()
            .baseline_intensity();
        assert!(poland > 600.0, "Poland {poland}");
        assert!(ontario < 80.0, "Ontario {ontario}");
    }

    #[test]
    fn central_eu_yearly_spread_matches_paper() {
        // Figure 3b: ~10.8x between max and min yearly average in Central EU.
        let cat = ZoneCatalog::worldwide();
        let names = [
            "Bern, CH",
            "Lyon, FR",
            "Graz, AT",
            "Milan, IT",
            "Munich, DE",
        ];
        let intensities: Vec<f64> = names
            .iter()
            .map(|n| cat.by_name(n).unwrap().profile().baseline_intensity())
            .collect();
        let max = intensities.iter().cloned().fold(0.0, f64::max);
        let min = intensities.iter().cloned().fold(f64::INFINITY, f64::min);
        let ratio = max / min;
        assert!(ratio > 7.0 && ratio < 16.0, "ratio {ratio}");
    }

    #[test]
    fn west_us_yearly_spread_matches_paper() {
        // Figure 3a: ~2.7x in the West US region.
        let cat = ZoneCatalog::worldwide();
        let names = ["Kingman", "Las Vegas", "Flagstaff", "Phoenix", "San Diego"];
        let intensities: Vec<f64> = names
            .iter()
            .map(|n| cat.by_name(n).unwrap().profile().baseline_intensity())
            .collect();
        let max = intensities.iter().cloned().fold(0.0, f64::max);
        let min = intensities.iter().cloned().fold(f64::INFINITY, f64::min);
        let ratio = max / min;
        assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn florida_greenest_zone_sits_well_below_mean() {
        // Needed for the ~39% testbed savings of Figure 10.
        let cat = ZoneCatalog::worldwide();
        let names = ["Miami", "Orlando", "Tampa", "Jacksonville", "Tallahassee"];
        let intensities: Vec<f64> = names
            .iter()
            .map(|n| cat.by_name(n).unwrap().profile().baseline_intensity())
            .collect();
        let mean = intensities.iter().sum::<f64>() / intensities.len() as f64;
        let min = intensities.iter().cloned().fold(f64::INFINITY, f64::min);
        let saving = 1.0 - min / mean;
        assert!(saving > 0.25 && saving < 0.55, "saving {saving}");
    }

    #[test]
    fn europe_is_greener_than_us_on_average() {
        // Underpins the 67.8% (EU) vs 49.5% (US) CDN savings of Figure 11.
        let cat = ZoneCatalog::worldwide();
        let mean = |area: ZoneArea| {
            let zones = cat.in_area(area);
            zones
                .iter()
                .map(|r| r.profile().baseline_intensity())
                .sum::<f64>()
                / zones.len() as f64
        };
        assert!(mean(ZoneArea::Europe) < mean(ZoneArea::UnitedStates));
    }

    #[test]
    fn traces_generate_for_all_zones() {
        let cat = ZoneCatalog::worldwide();
        let traces = cat.traces(42);
        assert_eq!(traces.len(), cat.len());
        for zone in 0..traces.len() {
            let t = &traces[zone];
            assert!(t.mean() > 0.0 && t.mean() < 1000.0);
        }
    }

    #[test]
    fn traces_match_generate_in_any_read_order() {
        let cat = ZoneCatalog::worldwide();
        let reverse: Vec<usize> = (0..cat.len()).rev().collect();
        // A stride coprime to the zone count visits every zone once, out of
        // id order.
        let shuffled: Vec<usize> = (0..cat.len()).map(|k| (k * 89 + 31) % cat.len()).collect();
        let mut visited = shuffled.clone();
        visited.sort_unstable();
        visited.dedup();
        assert_eq!(visited.len(), cat.len());
        let bits = |t: &carbonedge_grid::CarbonTrace| -> Vec<u64> {
            t.values().iter().map(|v| v.to_bits()).collect()
        };
        for seed in [0, 1, 42] {
            let gen = TraceGenerator::new(seed);
            for order in [&reverse, &shuffled] {
                let traces = cat.traces(seed);
                for &zone in order {
                    let expected = gen.generate(&cat.records()[zone].profile());
                    assert!(
                        bits(&traces[zone]) == bits(&expected),
                        "zone {zone} at seed {seed}"
                    );
                }
                assert_eq!(traces.generated_count(), cat.len());
            }
        }
    }

    #[test]
    fn populations_are_positive() {
        for r in ZoneCatalog::worldwide().records() {
            assert!(r.population_m > 0.0, "{}", r.name);
        }
    }
}

#![forbid(unsafe_code)]
//! Electric-grid carbon-intensity substrate for CarbonEdge.
//!
//! The paper relies on hourly carbon-intensity traces from Electricity Maps
//! for 148 carbon zones over the year 2023 (Section 6.1.1).  Those traces are
//! proprietary, so this crate builds the closest synthetic equivalent: each
//! carbon zone is described by an [`mix::EnergyMix`] plus renewable
//! variability parameters ([`zone::ZoneProfile`]), and an hourly trace for a
//! whole year is generated deterministically from a seed
//! ([`trace::TraceGenerator`]), one zone at a time on its first read
//! ([`trace::ZoneTraces`]).  The per-source carbon factors are standard
//! lifecycle values (IPCC AR5 medians), so the absolute magnitudes
//! (g·CO2eq/kWh) land in the same ranges the paper reports.
//!
//! On top of the traces, a [`forecast::ForecasterKind`] value forecasts the
//! mean intensity the placement service decides with — the role of the
//! *carbon intensity service* of the CarbonEdge architecture (Figure 6,
//! step 0).  Real-time readings are plain trace lookups
//! ([`trace::CarbonTrace::at`]).

pub mod forecast;
pub mod mix;
pub mod source;
pub mod time;
pub mod trace;
pub mod zone;

pub use forecast::ForecasterKind;
pub use mix::EnergyMix;
pub use source::EnergySource;
pub use time::{Epoch, EpochSchedule, HourOfYear, HOURS_PER_DAY, HOURS_PER_YEAR};
pub use trace::{CarbonTrace, TraceGenerator, ZoneTraces};
pub use zone::{ZoneId, ZoneProfile};

//! Simulation time: hours of a (non-leap) year.

use serde::{Deserialize, Serialize};

/// Hours in a simulated day.
pub const HOURS_PER_DAY: usize = 24;
/// Hours in the simulated (non-leap) year used by all traces.
pub const HOURS_PER_YEAR: usize = 365 * HOURS_PER_DAY;

/// Days in each month of the simulated year (non-leap, like 2023).
pub const DAYS_PER_MONTH: [usize; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// An hour index within the simulated year, in `[0, HOURS_PER_YEAR)`.
///
/// All traces in the workspace are indexed by `HourOfYear`, mirroring the
/// hourly resolution of the Electricity Maps data used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HourOfYear(pub usize);

impl HourOfYear {
    /// First hour of the year.
    pub const START: HourOfYear = HourOfYear(0);

    /// Creates an hour index, wrapping values past the end of the year.
    pub fn new(hour: usize) -> Self {
        HourOfYear(hour % HOURS_PER_YEAR)
    }

    /// The raw hour index.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Hour of day in `[0, 24)`.
    pub fn hour_of_day(&self) -> usize {
        self.0 % HOURS_PER_DAY
    }

    /// Day of year in `[0, 365)`.
    pub fn day_of_year(&self) -> usize {
        self.0 / HOURS_PER_DAY
    }

    /// Month index in `[0, 12)`.
    pub fn month(&self) -> usize {
        let mut day = self.day_of_year();
        for (m, &len) in DAYS_PER_MONTH.iter().enumerate() {
            if day < len {
                return m;
            }
            day -= len;
        }
        11
    }

    /// Advances by `hours`, wrapping at the end of the year.
    pub fn plus(&self, hours: usize) -> HourOfYear {
        HourOfYear::new(self.0 + hours)
    }

    /// Iterator over every hour of the simulated year.
    pub fn all() -> impl Iterator<Item = HourOfYear> {
        (0..HOURS_PER_YEAR).map(HourOfYear)
    }

    /// Iterator over every hour of a given month (0-based).
    pub fn month_hours(month: usize) -> impl Iterator<Item = HourOfYear> {
        let start_day: usize = DAYS_PER_MONTH[..month].iter().sum();
        let days = DAYS_PER_MONTH[month];
        (start_day * HOURS_PER_DAY..(start_day + days) * HOURS_PER_DAY).map(HourOfYear)
    }
}

/// One placement epoch: a contiguous, non-wrapping hour range of the
/// simulated year over which a placement decision stays in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epoch {
    /// Position in the schedule, `[0, epoch_count)`.
    pub index: usize,
    /// First hour of the epoch.
    pub start: HourOfYear,
    /// Number of hours the epoch spans.
    pub hours: usize,
}

/// How often a year-long simulation re-solves its placement: the year is
/// partitioned into consecutive epochs, a decision is made at each epoch's
/// first hour against the forecast mean intensity over the epoch, and
/// realized carbon is accounted from the actual trace over the same hours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EpochSchedule {
    /// Twelve calendar-month epochs (the legacy CDN-simulation granularity).
    Monthly,
    /// Fifty-two 168-hour epochs; the final epoch absorbs the year's
    /// remaining day (192 hours), so the partition is exact.
    Weekly,
    /// 365 one-day epochs.
    Daily,
}

impl EpochSchedule {
    /// Display name used in reports and sweep axes.
    pub fn name(&self) -> &'static str {
        match self {
            EpochSchedule::Monthly => "monthly",
            EpochSchedule::Weekly => "weekly",
            EpochSchedule::Daily => "daily",
        }
    }

    /// Number of epochs in the schedule.
    pub fn epoch_count(&self) -> usize {
        match self {
            EpochSchedule::Monthly => 12,
            EpochSchedule::Weekly => 52,
            EpochSchedule::Daily => 365,
        }
    }

    /// The epochs of the schedule, in order; together they cover every hour
    /// of the year exactly once and never wrap past the year end.
    pub fn epochs(&self) -> Vec<Epoch> {
        match self {
            EpochSchedule::Monthly => {
                let mut start = 0usize;
                DAYS_PER_MONTH
                    .iter()
                    .enumerate()
                    .map(|(index, days)| {
                        let hours = days * HOURS_PER_DAY;
                        let epoch = Epoch {
                            index,
                            start: HourOfYear(start),
                            hours,
                        };
                        start += hours;
                        epoch
                    })
                    .collect()
            }
            EpochSchedule::Weekly => (0..52)
                .map(|index| {
                    let start = index * 7 * HOURS_PER_DAY;
                    let hours = if index == 51 {
                        HOURS_PER_YEAR - start
                    } else {
                        7 * HOURS_PER_DAY
                    };
                    Epoch {
                        index,
                        start: HourOfYear(start),
                        hours,
                    }
                })
                .collect(),
            EpochSchedule::Daily => (0..365)
                .map(|index| Epoch {
                    index,
                    start: HourOfYear(index * HOURS_PER_DAY),
                    hours: HOURS_PER_DAY,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hours_per_year_is_8760() {
        assert_eq!(HOURS_PER_YEAR, 8760);
        assert_eq!(DAYS_PER_MONTH.iter().sum::<usize>(), 365);
    }

    #[test]
    fn wrapping_constructor() {
        assert_eq!(HourOfYear::new(HOURS_PER_YEAR + 5).index(), 5);
    }

    #[test]
    fn hour_of_day_and_day_of_year() {
        let h = HourOfYear::new(25);
        assert_eq!(h.hour_of_day(), 1);
        assert_eq!(h.day_of_year(), 1);
    }

    #[test]
    fn month_boundaries() {
        assert_eq!(HourOfYear::new(0).month(), 0);
        assert_eq!(HourOfYear::new(31 * 24 - 1).month(), 0);
        assert_eq!(HourOfYear::new(31 * 24).month(), 1);
        assert_eq!(HourOfYear::new(HOURS_PER_YEAR - 1).month(), 11);
    }

    #[test]
    fn month_hours_cover_year_exactly_once() {
        let mut count = 0usize;
        for m in 0..12 {
            count += HourOfYear::month_hours(m).count();
        }
        assert_eq!(count, HOURS_PER_YEAR);
    }

    #[test]
    fn month_hours_agree_with_month() {
        for m in 0..12 {
            for h in HourOfYear::month_hours(m) {
                assert_eq!(h.month(), m);
            }
        }
    }

    #[test]
    fn plus_wraps() {
        let h = HourOfYear::new(HOURS_PER_YEAR - 1);
        assert_eq!(h.plus(2).index(), 1);
    }

    #[test]
    fn all_yields_every_hour() {
        assert_eq!(HourOfYear::all().count(), HOURS_PER_YEAR);
    }

    #[test]
    fn every_schedule_partitions_the_year_exactly() {
        for schedule in [
            EpochSchedule::Monthly,
            EpochSchedule::Weekly,
            EpochSchedule::Daily,
        ] {
            let epochs = schedule.epochs();
            assert_eq!(epochs.len(), schedule.epoch_count(), "{}", schedule.name());
            let mut next = 0usize;
            for (k, epoch) in epochs.iter().enumerate() {
                assert_eq!(epoch.index, k);
                assert_eq!(epoch.start.index(), next, "{} gap", schedule.name());
                assert!(epoch.hours > 0);
                next += epoch.hours;
            }
            assert_eq!(
                next,
                HOURS_PER_YEAR,
                "{} must cover the year",
                schedule.name()
            );
        }
    }

    #[test]
    fn monthly_epochs_align_with_calendar_months() {
        for epoch in EpochSchedule::Monthly.epochs() {
            assert_eq!(epoch.start.month(), epoch.index);
            assert_eq!(epoch.hours, DAYS_PER_MONTH[epoch.index] * HOURS_PER_DAY);
        }
    }

    #[test]
    fn weekly_last_epoch_absorbs_the_leftover_day() {
        let epochs = EpochSchedule::Weekly.epochs();
        assert!(epochs[..51].iter().all(|e| e.hours == 168));
        assert_eq!(epochs[51].hours, 192);
    }
}

// Fixture: decision logic takes timing as data; a measuring caller at the
// bench edge stamps it after the run.
pub struct RunStats {
    pub wall_seconds: f64,
}

pub fn stamp(stats: &mut RunStats, wall_seconds: f64) {
    stats.wall_seconds = wall_seconds;
}

// The worker count is an input, and the fold runs in a fixed order.
pub fn doubled_total(values: &mut [f64], jobs: usize) -> (f64, usize) {
    values.iter_mut().for_each(|v| *v *= 2.0);
    (values.iter().sum(), jobs.max(1))
}

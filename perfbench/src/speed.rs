//! Speed normalization against a fixed reference kernel.
//!
//! On a shared host, other tenants' load slows this process down by up to
//! about 1.8× for seconds to minutes at a time.  The process is not
//! descheduled (its CPU time equals its wall time); it runs on a contended
//! core, cache and memory bus.  A slow spell can cover a whole run, so no
//! statistic over one run's ops can see past it.  The probe here does a
//! fixed amount of the same kind of work — sorting a buffer that overflows
//! the private caches — right before every op, and the op's time is scaled
//! by how much slower than [`REFERENCE_MS`] the probe ran around it.  The
//! buffer is allocated once, so nothing the repository's code controls,
//! allocator included, changes what the probe does.

use std::time::Instant;

/// `u64` keys the probe sorts: 2 MiB.
const KEYS: usize = 1 << 18;
/// Probe runs per measurement; the fastest counts, so one interrupt does
/// not read as a slow machine.
const RUNS: usize = 2;

/// The probe's time on an unloaded core of the reference machine (the
/// 2-vCPU Xeon the baseline in `README.md` was measured on), in ms.
/// Normalized times read as if the op had run at that speed; on another
/// machine they are off by a constant factor, which comparisons between
/// commits on that machine cancel.
pub const REFERENCE_MS: f64 = 5.0;

/// The reference kernel and its buffer.
pub struct SpeedProbe {
    keys: Vec<u64>,
    /// Every measurement so far, in ms, in the order taken.
    pub measured: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// Allocates the probe's buffer.
    pub fn new() -> Self {
        Self {
            keys: vec![0; KEYS],
            measured: Vec::new(),
        }
    }

    /// Measures the machine's current speed: runs the kernel [`RUNS`] times
    /// and records the fastest run, in ms.
    pub fn measure(&mut self) {
        let mut fastest = f64::INFINITY;
        for _ in 0..RUNS {
            let started = Instant::now();
            for (i, key) in self.keys.iter_mut().enumerate() {
                *key = crate::seed::splitmix64(i as u64);
            }
            self.keys.sort_unstable();
            std::hint::black_box(&self.keys);
            fastest = fastest.min(started.elapsed().as_secs_f64() * 1e3);
        }
        self.measured.push(fastest);
    }

    /// Scales an op's time `ms` to the reference speed, given the probe
    /// measurements `before` and `after` it (indices into
    /// [`Self::measured`]).
    pub fn normalize(&self, ms: f64, before: usize, after: usize) -> f64 {
        let around = (self.measured[before] + self.measured[after]) / 2.0;
        if around > 0.0 {
            ms * REFERENCE_MS / around
        } else {
            ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_by_the_probe_around_the_op() {
        let mut probe = SpeedProbe::new();
        probe.measure();
        assert!(probe.measured[0] > 0.0);
        probe.measured = vec![REFERENCE_MS, REFERENCE_MS, 2.0 * REFERENCE_MS];
        // At reference speed the time is unchanged; when the machine runs
        // at half speed it halves.
        assert_eq!(probe.normalize(8.0, 0, 1), 8.0);
        assert_eq!(probe.normalize(8.0, 2, 2), 4.0);
        assert!((probe.normalize(9.0, 1, 2) - 6.0).abs() < 1e-12);
    }
}

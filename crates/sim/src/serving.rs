//! Event-level serving engine: batched per-hour request simulation.
//!
//! The aggregate CDN model prices hour-aggregated demand; this module
//! re-simulates the same year at request granularity.  For every hour each
//! application's [`RequestStream`]
//! materializes a request *batch* into reusable structure-of-arrays buffers
//! (no per-request allocations), the batches are routed through per-site
//! queues with admission control and latency-aware spill to the nearest
//! alternate site, and the drained totals feed a weighted latency histogram
//! from which tail percentiles (p50/p95/p99), drop rates and utilization are
//! read.  Streams conserve the aggregate demand model exactly (per-hour
//! counts sum to `rate × 3600 × hours` per window), so the carbon accounting
//! of the aggregate path is untouched — the event level *adds* serving
//! metrics on top.
//!
//! The engine also powers the online re-placement trigger: it tracks
//! observed per-site demand against the assumption baked into the last
//! placement decision and reports when the relative drift exceeds a
//! threshold, at which point the simulator re-solves mid-epoch (see
//! `CdnSimulator::run_with`).

use carbonedge_net::LatencyModel;
use carbonedge_workload::{RequestStream, StreamScratch};

/// Latency histogram resolution (ms per bin).
const BIN_MS: f64 = 0.25;
/// Histogram bins; the last bin collects everything ≥ `BIN_MS * (BINS - 1)`.
const BINS: usize = 4096;
/// Admission control: a site queues at most this many hours' worth of its
/// capacity; requests beyond that spill to the fallback site or drop.
const MAX_BACKLOG_HOURS: f64 = 0.25;
/// Queueing-delay utilization clamp for the M/D/1 waiting-time term.
const RHO_CLAMP: f64 = 0.98;

/// How the simulator serves demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServingMode {
    /// Hour-aggregated demand (the legacy model); no serving metrics.
    #[default]
    Aggregate,
    /// Batched event-level serving on top of the aggregate carbon
    /// accounting: per-hour request batches, per-site queues, tail metrics.
    EventLevel,
    /// Event-level serving plus the online re-placement trigger: the
    /// placement is re-solved mid-epoch whenever observed per-site demand
    /// drifts past the configured threshold from the decision's assumption.
    OnlineReplace,
}

impl ServingMode {
    /// Every mode, in sweep-axis order.
    pub const ALL: [ServingMode; 3] = [
        ServingMode::Aggregate,
        ServingMode::EventLevel,
        ServingMode::OnlineReplace,
    ];

    /// Short label used in sweep cell labels.
    pub fn label(&self) -> &'static str {
        match self {
            ServingMode::Aggregate => "agg",
            ServingMode::EventLevel => "events",
            ServingMode::OnlineReplace => "events-online",
        }
    }

    /// Whether the mode runs the event-level serving loop.
    pub fn is_event_level(&self) -> bool {
        !matches!(self, ServingMode::Aggregate)
    }
}

/// Serving-quality metrics drained from the event loop over a full run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServingMetrics {
    /// Requests materialized from the streams (exact integer total).
    pub requests_total: u64,
    /// Requests served (locally or after spill), in request units.
    pub served: f64,
    /// Requests served at the fallback site after spilling.
    pub rerouted: f64,
    /// Requests rejected by admission control.
    pub dropped: f64,
    /// Median end-to-end latency of served requests, ms.
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean per-site utilization over all site-hours.
    pub mean_utilization: f64,
    /// Highest single site-hour utilization observed (clamped to 1).
    pub peak_utilization: f64,
    /// Hours simulated.
    pub hours: usize,
    /// Mid-epoch re-placements triggered by demand drift
    /// ([`ServingMode::OnlineReplace`] only).
    pub online_replacements: usize,
}

impl ServingMetrics {
    /// Dropped requests as a percentage of the total.
    pub fn drop_percent(&self) -> f64 {
        if self.requests_total == 0 {
            0.0
        } else {
            self.dropped / self.requests_total as f64 * 100.0
        }
    }
}

/// The batched event loop.  One engine lives for a whole simulation run; all
/// buffers are structure-of-arrays and reused across hours and epochs.
pub struct ServingEngine {
    streams: Vec<RequestStream>,
    scratch: StreamScratch,
    /// Flat `[app][hour-in-epoch]` request counts for the current epoch.
    epoch_counts: Vec<u64>,
    epoch_hours: usize,

    // Per-site state (index = site).
    capacity_per_hour: Vec<f64>,
    backlog: Vec<f64>,
    arrivals: Vec<f64>,
    used: Vec<f64>,
    site_total: Vec<f64>,
    spill: Vec<f64>,
    frac_local: Vec<f64>,
    frac_reroute: Vec<f64>,
    frac_drop: Vec<f64>,
    queue_delay_ms: Vec<f64>,
    fallback: Vec<usize>,
    fallback_penalty_ms: Vec<f64>,
    /// Demand (requests/hour) the current placement assumed per site.
    assumed: Vec<f64>,

    // Per-app state (index = app).
    app_site: Vec<usize>,
    app_base_ms: Vec<f64>,

    /// Per-request service time of the configured (model, device), ms.
    service_ms: f64,
    hist: Vec<f64>,

    // Accumulators.
    requests_total: u64,
    served: f64,
    rerouted: f64,
    dropped: f64,
    util_sum: f64,
    util_samples: u64,
    peak_utilization: f64,
    hours: usize,
    online_replacements: usize,
}

impl ServingEngine {
    /// Builds an engine for a deployment: one stream per app (seeded from
    /// its (app, origin-site) pair), per-site hourly capacities, and each
    /// site's nearest-alternate fallback for latency-aware spill.
    pub fn new(
        streams: Vec<RequestStream>,
        site_locations: &[carbonedge_geo::Coordinates],
        servers_per_site: &[usize],
        max_throughput_rps: f64,
        service_ms: f64,
        latency_model: &LatencyModel,
    ) -> Self {
        let site_count = site_locations.len();
        let capacity_per_hour: Vec<f64> = servers_per_site
            .iter()
            .map(|&n| n as f64 * max_throughput_rps * 3600.0)
            .collect();
        // Nearest other site by round-trip time; spilled requests pay the
        // inter-site hop on top of their origin latency.
        let mut fallback = vec![usize::MAX; site_count];
        let mut fallback_penalty_ms = vec![0.0; site_count];
        for s in 0..site_count {
            let mut best = usize::MAX;
            let mut best_rtt = f64::INFINITY;
            for t in 0..site_count {
                if t == s {
                    continue;
                }
                let rtt = latency_model.round_trip_ms(site_locations[s], site_locations[t]);
                if rtt < best_rtt {
                    best_rtt = rtt;
                    best = t;
                }
            }
            fallback[s] = best;
            fallback_penalty_ms[s] = if best == usize::MAX { 0.0 } else { best_rtt };
        }
        let app_count = streams.len();
        Self {
            streams,
            scratch: StreamScratch::default(),
            epoch_counts: Vec::new(),
            epoch_hours: 0,
            capacity_per_hour,
            backlog: vec![0.0; site_count],
            arrivals: vec![0.0; site_count],
            used: vec![0.0; site_count],
            site_total: vec![0.0; site_count],
            spill: vec![0.0; site_count],
            frac_local: vec![0.0; site_count],
            frac_reroute: vec![0.0; site_count],
            frac_drop: vec![0.0; site_count],
            queue_delay_ms: vec![0.0; site_count],
            fallback,
            fallback_penalty_ms,
            assumed: vec![0.0; site_count],
            app_site: vec![usize::MAX; app_count],
            app_base_ms: vec![0.0; app_count],
            service_ms,
            hist: vec![0.0; BINS],
            requests_total: 0,
            served: 0.0,
            rerouted: 0.0,
            dropped: 0.0,
            util_sum: 0.0,
            util_samples: 0,
            peak_utilization: 0.0,
            hours: 0,
            online_replacements: 0,
        }
    }

    /// Materializes the per-hour request batches for an epoch window into
    /// the flat SoA count buffer (reused across epochs).
    pub fn load_epoch(&mut self, start_hour: usize, hours: usize) {
        self.epoch_hours = hours;
        self.epoch_counts.clear();
        self.epoch_counts.resize(self.streams.len() * hours, 0);
        for (i, stream) in self.streams.iter().enumerate() {
            let slice = &mut self.epoch_counts[i * hours..(i + 1) * hours];
            stream.fill_hourly_counts(start_hour, slice, &mut self.scratch);
        }
    }

    /// Installs a placement decision: per-app target site and base latency
    /// (round-trip to the assigned server plus service time), and the
    /// per-site demand the decision assumed (for drift monitoring).
    pub fn set_assignment(
        &mut self,
        assignment: &[Option<usize>],
        server_site: &[usize],
        latency_ms: impl Fn(usize, usize) -> f64,
    ) {
        self.assumed.iter_mut().for_each(|a| *a = 0.0);
        for (app, assigned) in assignment.iter().enumerate() {
            match assigned {
                Some(server) => {
                    let site = server_site[*server];
                    self.app_site[app] = site;
                    self.app_base_ms[app] = latency_ms(app, *server) + self.service_ms;
                    self.assumed[site] += self.streams[app].rate_rps * 3600.0;
                }
                None => {
                    self.app_site[app] = usize::MAX;
                    self.app_base_ms[app] = 0.0;
                }
            }
        }
    }

    /// Serves hours `[from, to)` of the loaded epoch.  Drift is checked each
    /// hour once `cooldown` hours of the current decision have been served;
    /// when the observed per-site demand deviates from the decision's
    /// assumption by more than `drift_threshold` (relative), serving stops
    /// *after* the offending hour and the number of hours served is
    /// returned together with `true`.  Drift on the window's last hour is
    /// not a fire: the window ends there anyway, so no re-placement would
    /// follow.  A non-finite threshold disables the trigger (plain
    /// [`ServingMode::EventLevel`]).
    pub fn serve_hours(
        &mut self,
        from: usize,
        to: usize,
        drift_threshold: f64,
        cooldown: usize,
    ) -> (usize, bool) {
        debug_assert!(to <= self.epoch_hours);
        for hour in from..to {
            let drift = self.step_hour(hour);
            if drift_threshold.is_finite()
                && hour + 1 < to
                && hour + 1 - from > cooldown
                && drift > drift_threshold
            {
                self.online_replacements += 1;
                return (hour + 1 - from, true);
            }
        }
        (to - from, false)
    }

    /// One batched hour: route request batches to their assigned sites,
    /// drain per-site queues under admission control, spill overflow to the
    /// fallback site, and fold latencies into the histogram.  Returns the
    /// maximum relative per-site demand drift observed this hour.
    fn step_hour(&mut self, hour: usize) -> f64 {
        let hours = self.epoch_hours;
        let sites = self.capacity_per_hour.len();
        self.arrivals.iter_mut().for_each(|a| *a = 0.0);

        // Phase 1: materialize this hour's batches onto their target sites.
        let mut hour_total = 0u64;
        for (app, &site) in self.app_site.iter().enumerate() {
            let count = self.epoch_counts[app * hours + hour];
            hour_total += count;
            if site != usize::MAX {
                self.arrivals[site] += count as f64;
            } else {
                // Unplaced applications cannot be served at all.
                self.dropped += count as f64;
            }
        }
        self.requests_total += hour_total;

        // Phase 2: drain each site queue; compute local service, admitted
        // backlog and spill beyond the admission bound.
        let mut max_drift = 0.0f64;
        for s in 0..sites {
            let cap = self.capacity_per_hour[s];
            let backlog_before = self.backlog[s];
            let total = backlog_before + self.arrivals[s];
            let served_local = total.min(cap);
            let overflow = total - served_local;
            let admitted = overflow.min(cap * MAX_BACKLOG_HOURS);
            self.spill[s] = overflow - admitted;
            self.backlog[s] = admitted;
            self.used[s] = served_local;
            self.site_total[s] = total;
            // Waiting time: drain the queue ahead of you, plus the M/D/1
            // in-hour queueing term at the hour's utilization.
            let rho = if cap > 0.0 {
                (total / cap).min(RHO_CLAMP)
            } else {
                0.0
            };
            let drain_ms = if cap > 0.0 {
                backlog_before / cap * 3_600_000.0
            } else {
                0.0
            };
            self.queue_delay_ms[s] = drain_ms + rho / (2.0 * (1.0 - rho)) * self.service_ms;
            let util = if cap > 0.0 {
                (total / cap).min(1.0)
            } else {
                0.0
            };
            self.util_sum += util;
            self.util_samples += 1;
            self.peak_utilization = self.peak_utilization.max(util);
            if self.assumed[s] > 0.0 {
                max_drift =
                    max_drift.max((self.arrivals[s] - self.assumed[s]).abs() / self.assumed[s]);
            }
        }

        // Phase 3: latency-aware spill — route overflow to the nearest
        // alternate site's leftover capacity; what does not fit is dropped.
        for s in 0..sites {
            let total = self.site_total[s];
            if total <= 0.0 {
                self.frac_local[s] = 0.0;
                self.frac_reroute[s] = 0.0;
                self.frac_drop[s] = 0.0;
                continue;
            }
            let spill = self.spill[s];
            // Locally served requests: everything that neither queued nor
            // spilled.  `used` doubles as the fallback's consumed capacity,
            // so read local service from the phase-2 balance instead.
            let local = (total - self.backlog[s] - spill).max(0.0);
            let mut moved = 0.0;
            if spill > 0.0 {
                let f = self.fallback[s];
                if f != usize::MAX {
                    let headroom = (self.capacity_per_hour[f] - self.used[f]).max(0.0);
                    moved = spill.min(headroom);
                    self.used[f] += moved;
                }
            }
            let dropped = spill - moved;
            self.served += local + moved;
            self.rerouted += moved;
            self.dropped += dropped;
            self.frac_local[s] = local / total;
            self.frac_reroute[s] = moved / total;
            self.frac_drop[s] = dropped / total;
        }

        // Phase 4: fold this hour's batches into the latency histogram,
        // weighting each app's batch by its site's serve/spill fractions.
        for (app, &site) in self.app_site.iter().enumerate() {
            if site == usize::MAX {
                continue;
            }
            let count = self.epoch_counts[app * hours + hour] as f64;
            if count <= 0.0 {
                continue;
            }
            let base = self.app_base_ms[app];
            let local = count * self.frac_local[site];
            if local > 0.0 {
                let ms = base + self.queue_delay_ms[site];
                hist_add(&mut self.hist, ms, local);
            }
            let remote = count * self.frac_reroute[site];
            if remote > 0.0 {
                let f = self.fallback[site];
                let fallback_delay = if f != usize::MAX {
                    self.queue_delay_ms[f]
                } else {
                    0.0
                };
                let ms = base + self.fallback_penalty_ms[site] + fallback_delay;
                hist_add(&mut self.hist, ms, remote);
            }
        }

        self.hours += 1;
        max_drift
    }

    /// Finalizes the run: drains what is still queued as served (the year
    /// ends; queued work completes) and reads the percentiles.
    pub fn finish(mut self) -> ServingMetrics {
        let trailing: f64 = self.backlog.iter().sum();
        self.served += trailing;
        let (p50, p95, p99) = percentiles(&self.hist);
        ServingMetrics {
            requests_total: self.requests_total,
            served: self.served,
            rerouted: self.rerouted,
            dropped: self.dropped,
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
            mean_utilization: if self.util_samples == 0 {
                0.0
            } else {
                self.util_sum / self.util_samples as f64
            },
            peak_utilization: self.peak_utilization,
            hours: self.hours,
            online_replacements: self.online_replacements,
        }
    }
}

fn hist_add(hist: &mut [f64], ms: f64, weight: f64) {
    // Latencies are sums of propagation, queueing and penalty terms — all
    // finite and non-negative by construction.
    debug_assert!(
        ms.is_finite() && ms >= 0.0,
        "latency sample must be finite and non-negative, got {ms}"
    );
    // Clamp explicitly instead of relying on the float→usize cast: a
    // negative or NaN value casts to bin 0 silently (understating the
    // tail), and +∞ saturates only by accident of the cast's semantics.
    let bin = if ms.is_finite() && ms > 0.0 {
        ((ms / BIN_MS) as usize).min(hist.len() - 1)
    } else if ms == f64::INFINITY {
        hist.len() - 1
    } else {
        // NaN, negative, or zero: the first bin is the only honest slot.
        0
    };
    hist[bin] += weight;
}

fn percentiles(hist: &[f64]) -> (f64, f64, f64) {
    let total: f64 = hist.iter().sum();
    if total <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let mut targets = [0.50 * total, 0.95 * total, 0.99 * total];
    let mut out = [0.0f64; 3];
    let mut cumulative = 0.0;
    let mut next = 0;
    for (bin, weight) in hist.iter().enumerate() {
        cumulative += weight;
        while next < 3 && cumulative >= targets[next] {
            out[next] = (bin as f64 + 0.5) * BIN_MS;
            next += 1;
        }
        if next == 3 {
            break;
        }
    }
    // Degenerate float accumulation: fill any unreached targets with the max.
    while next < 3 {
        out[next] = (hist.len() as f64 - 0.5) * BIN_MS;
        targets[next] = 0.0;
        next += 1;
    }
    (out[0], out[1], out[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbonedge_geo::Coordinates;
    use carbonedge_workload::ArrivalProcess;

    #[test]
    fn hist_add_clamps_pathological_latencies() {
        let mut hist = vec![0.0f64; 8];
        hist_add(&mut hist, 0.0, 1.0);
        hist_add(&mut hist, BIN_MS * 2.5, 1.0);
        hist_add(&mut hist, BIN_MS * 1e9, 1.0); // far past the last bin
        assert_eq!(hist[0], 1.0);
        assert_eq!(hist[2], 1.0);
        assert_eq!(hist[7], 1.0);

        // Non-finite and negative samples are an upstream bug: loudly
        // rejected in debug builds, explicitly clamped in release so the
        // percentiles never read memory-safety-adjacent garbage bins.
        for (ms, bin) in [(f64::NAN, 0usize), (-3.0, 0), (f64::INFINITY, 7)] {
            let outcome = std::panic::catch_unwind(|| {
                let mut h = vec![0.0f64; 8];
                hist_add(&mut h, ms, 1.0);
                h
            });
            if cfg!(debug_assertions) {
                assert!(outcome.is_err(), "debug build must assert on {ms}");
            } else {
                let h = outcome.unwrap();
                assert_eq!(h[bin], 1.0, "sample {ms} must land in bin {bin}");
            }
        }
    }

    fn two_site_engine(rate_rps: f64, servers: usize) -> ServingEngine {
        let locations = vec![Coordinates::new(48.0, 2.0), Coordinates::new(50.0, 8.0)];
        let streams = vec![
            RequestStream::new(0, 0, rate_rps, ArrivalProcess::diurnal_bursty(), 42),
            RequestStream::new(1, 1, rate_rps, ArrivalProcess::diurnal_bursty(), 42),
        ];
        ServingEngine::new(
            streams,
            &locations,
            &[servers; 2],
            76.9,
            13.0,
            &LatencyModel::deterministic(),
        )
    }

    fn identity_assignment(engine: &mut ServingEngine) {
        let server_site = vec![0, 1];
        engine.set_assignment(&[Some(0), Some(1)], &server_site, |_, server| {
            if server == 0 {
                1.0
            } else {
                2.0
            }
        });
    }

    #[test]
    fn lightly_loaded_engine_serves_everything() {
        let mut engine = two_site_engine(15.0, 4);
        engine.load_epoch(0, 240);
        identity_assignment(&mut engine);
        let (served_hours, fired) = engine.serve_hours(0, 240, f64::INFINITY, 0);
        assert_eq!((served_hours, fired), (240, false));
        let m = engine.finish();
        assert_eq!(m.hours, 240);
        assert!(m.requests_total > 0);
        assert_eq!(m.dropped, 0.0, "4 servers at 15 rps never saturate");
        assert!((m.served - m.requests_total as f64).abs() < 1e-6);
        assert!(m.p50_ms > 13.0, "latency includes service time");
        assert!(m.p50_ms <= m.p95_ms && m.p95_ms <= m.p99_ms);
    }

    #[test]
    fn overload_drops_requests_and_inflates_tails() {
        // 200 rps against one 76.9 rps server: persistent overload.
        let mut engine = two_site_engine(200.0, 1);
        engine.load_epoch(0, 96);
        identity_assignment(&mut engine);
        engine.serve_hours(0, 96, f64::INFINITY, 0);
        let m = engine.finish();
        assert!(m.dropped > 0.0, "admission control must reject overflow");
        assert!(m.drop_percent() > 10.0, "drop {}", m.drop_percent());
        assert!(m.peak_utilization >= 0.999);
        // Persistent saturation drives every served batch to the maximal
        // queueing delay, so the tails merge at the top of the histogram.
        assert!(m.p99_ms >= m.p50_ms);
        assert!(m.p99_ms > 100.0, "saturated queues must show heavy tails");
    }

    #[test]
    fn serving_conserves_requests() {
        let mut engine = two_site_engine(90.0, 1);
        engine.load_epoch(100, 336);
        identity_assignment(&mut engine);
        engine.serve_hours(0, 336, f64::INFINITY, 0);
        let m = engine.finish();
        let accounted = m.served + m.dropped;
        assert!(
            (accounted - m.requests_total as f64).abs() < 1e-6 * m.requests_total as f64 + 1e-6,
            "served {} + dropped {} vs total {}",
            m.served,
            m.dropped,
            m.requests_total
        );
    }

    #[test]
    fn drift_trigger_fires_only_past_the_threshold() {
        let mut engine = two_site_engine(60.0, 1);
        engine.load_epoch(0, 168);
        identity_assignment(&mut engine);
        // Impossible threshold: never fires.
        let (hours, fired) = engine.serve_hours(0, 168, 1e12, 0);
        assert_eq!((hours, fired), (168, false));
        // Tiny threshold: the first checked hour past the cooldown fires
        // (diurnal swing alone exceeds 1%).
        let mut engine = two_site_engine(60.0, 1);
        engine.load_epoch(0, 168);
        identity_assignment(&mut engine);
        let (hours, fired) = engine.serve_hours(0, 168, 0.01, 6);
        assert!(fired, "1% threshold must fire against a 35% diurnal swing");
        assert!(hours > 6 && hours <= 168, "fired after {hours} hours");
        let m = engine.finish();
        assert_eq!(m.online_replacements, 1);
    }

    #[test]
    fn drift_on_the_last_hour_of_the_window_is_not_a_fire() {
        // The window ends after its last hour anyway, so drift there must
        // neither stop serving early nor count as a re-placement.  (A
        // one-hour *epoch* would carry exactly the mean rate and no drift.)
        let mut engine = two_site_engine(60.0, 1);
        engine.load_epoch(0, 24);
        identity_assignment(&mut engine);
        assert_eq!(engine.serve_hours(0, 1, 0.0, 0), (1, false));
        assert_eq!(engine.finish().online_replacements, 0);
    }

    #[test]
    fn unplaced_apps_count_as_dropped() {
        let mut engine = two_site_engine(10.0, 4);
        engine.load_epoch(0, 24);
        let server_site = vec![0, 1];
        engine.set_assignment(&[Some(0), None], &server_site, |_, _| 1.0);
        engine.serve_hours(0, 24, f64::INFINITY, 0);
        let m = engine.finish();
        assert!(m.dropped > 0.0);
        assert!((m.dropped + m.served - m.requests_total as f64).abs() < 1e-6);
    }

    #[test]
    fn serving_mode_labels_are_stable() {
        assert_eq!(ServingMode::default(), ServingMode::Aggregate);
        assert_eq!(ServingMode::Aggregate.label(), "agg");
        assert_eq!(ServingMode::EventLevel.label(), "events");
        assert_eq!(ServingMode::OnlineReplace.label(), "events-online");
        assert!(!ServingMode::Aggregate.is_event_level());
        assert!(ServingMode::OnlineReplace.is_event_level());
        assert_eq!(ServingMode::ALL.len(), 3);
    }
}

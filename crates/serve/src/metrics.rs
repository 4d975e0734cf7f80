//! Service-wide observability: a shared [`MetricsRegistry`] behind a lock,
//! rolling latency windows, and the Prometheus exposition path.
//!
//! Every stage of the supervision ladder leaves a trace here — admission
//! sheds, retries, serial fallbacks, deadline misses, session restarts,
//! degradation level changes — so the whole ladder is visible through one
//! `{"op":"stats"}` request or a `{"op":"metrics"}` / `--expose` scrape.
//! Names are the stable ops surface:
//!
//! | metric                   | kind    | meaning                                   |
//! |--------------------------|---------|-------------------------------------------|
//! | `serve.sessions`         | gauge   | sessions currently open                   |
//! | `serve.degraded`         | gauge   | sessions below full quality               |
//! | `serve.budget_total`     | gauge   | configured global worker budget           |
//! | `serve.budget_in_use`    | gauge   | worker slots currently leased             |
//! | `serve.session.<id>.level`| gauge  | per-session ladder level (0/1/2), removed on close |
//! | `serve.util.w<p>`        | gauge   | last frame's busy %% for worker lane `p`  |
//! | `serve.requests`         | counter | render requests accepted off the wire     |
//! | `serve.frames`           | counter | frames delivered successfully             |
//! | `serve.quality.<q>`      | counter | frames delivered at quality `q`           |
//! | `serve.shed`             | counter | requests refused by admission control     |
//! | `serve.retries`          | counter | parallel retries after a render fault     |
//! | `serve.serial_fallbacks` | counter | requests completed on the serial rung     |
//! | `serve.deadline_missed`  | counter | requests that blew their deadline         |
//! | `serve.errors`           | counter | typed error responses sent                |
//! | `serve.session_restarts` | counter | supervised pipeline restarts after panics |
//! | `serve.faults_injected`  | counter | chaos faults armed via the wire           |
//! | `serve.flight_dumps`     | counter | flight-recorder forensics files written   |
//! | `serve.brick_evictions`  | counter | streamed-brick cache evictions (thrash)   |
//! | `serve.brick_resident_bytes` | gauge | bytes resident in the streamed-brick cache (each render worker's brick-row pin holds up to 2 × `nb_i` more bricks outside it) |
//! | `serve.scrapes`          | counter | metrics expositions served                |
//! | `serve.frame_latency_ms` | histogram | arrival → frame-response latency        |
//! | `serve.queue_wait_ms`    | histogram | arrival → dequeue wait                  |
//! | `serve.frame_steals`     | histogram | steals per delivered frame              |
//!
//! # Scrape semantics
//!
//! [`ServeMetrics::exposition`] never blocks a render on the scraper: the
//! registry snapshot is taken with a `try_lock`, and when a recording
//! thread holds the lock at that instant the scrape serves the last good
//! snapshot instead of waiting. Render-side operations only ever hold the
//! lock for a single counter/histogram update, so the snapshot is at most
//! one scrape interval stale and a slow scraper can never wedge the
//! supervision ladder. Each histogram observed through
//! [`ServeMetrics::observe`] also feeds a rolling window
//! ([`RollingHistogram`], rotated once per scrape) whose p50/p95/p99 export
//! as the `<name>_window` summary family — *recent* tails, not
//! process-lifetime averages.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use swr_telemetry::{metrics_json, prometheus_text, Histogram, Json, MetricsRegistry};
use swr_telemetry::{Correlation, RollingHistogram};

/// Rotation intervals (scrapes) a windowed histogram spans.
pub const WINDOW_SLOTS: usize = 8;

/// Cheaply clonable handle to the service's shared metrics registry.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    reg: Arc<Mutex<MetricsRegistry>>,
    windows: Arc<Mutex<BTreeMap<String, RollingHistogram>>>,
    snap: Arc<Mutex<Arc<MetricsRegistry>>>,
}

impl ServeMetrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to a counter.
    pub fn inc(&self, name: &str) {
        self.reg.lock().inc(name, 1);
    }

    /// Adds `by` to a counter.
    pub fn add(&self, name: &str, by: u64) {
        self.reg.lock().inc(name, by);
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.reg.lock().set_gauge(name, v);
    }

    /// Drops a gauge (per-session gauges on session close).
    pub fn remove_gauge(&self, name: &str) {
        self.reg.lock().remove_gauge(name);
    }

    /// Adjusts a gauge by a delta (absent gauges start at zero).
    pub fn adjust_gauge(&self, name: &str, delta: f64) {
        let mut m = self.reg.lock();
        let v = m.gauge(name).unwrap_or(0.0) + delta;
        m.set_gauge(name, v);
    }

    /// Records a sample into the named histogram *and* its rolling window.
    pub fn observe(&self, name: &str, v: u64) {
        self.reg.lock().observe(name, v);
        self.windows
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| RollingHistogram::new(WINDOW_SLOTS))
            .observe(v);
    }

    /// Current counter value.
    pub fn counter(&self, name: &str) -> u64 {
        self.reg.lock().counter(name)
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.reg.lock().gauge(name)
    }

    /// A point-in-time copy of the whole registry.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.reg.lock().clone()
    }

    /// The merged rolling window for a histogram, if it has one.
    pub fn window(&self, name: &str) -> Option<Histogram> {
        self.windows.lock().get(name).map(RollingHistogram::merged)
    }

    /// The registry as the exporters' metrics JSON document.
    pub fn to_json(&self) -> Json {
        metrics_json(&self.reg.lock())
    }

    /// The Prometheus text exposition of the registry plus the rolling-
    /// window quantile summaries, then rotates the windows (one scrape =
    /// one window slot).
    ///
    /// Snapshot semantics: `try_lock` + last-good-snapshot fallback, so a
    /// scrape can never stall behind (or stall) a render holding the
    /// metrics lock — see the module docs.
    pub fn exposition(&self) -> String {
        self.inc("serve.scrapes");
        let snap: Arc<MetricsRegistry> = match self.reg.try_lock() {
            Some(g) => {
                let fresh = Arc::new(g.clone());
                drop(g);
                *self.snap.lock() = Arc::clone(&fresh);
                fresh
            }
            None => Arc::clone(&self.snap.lock()),
        };
        let merged: Vec<(String, Histogram)> = {
            let mut w = self.windows.lock();
            let merged = w
                .iter()
                .map(|(k, rh)| (k.clone(), rh.merged()))
                .collect::<Vec<_>>();
            for rh in w.values_mut() {
                rh.rotate();
            }
            merged
        };
        let windows: Vec<(&str, Histogram)> = merged
            .iter()
            .map(|(k, h)| (k.as_str(), h.clone()))
            .collect();
        prometheus_text(&snap, &windows)
    }
}

/// Builds the correlation tag a session stamps onto the pipeline.
pub fn correlate(session: u64, request: u64) -> Correlation {
    Correlation { session, request }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swr_telemetry::validate_exposition;

    #[test]
    fn gauges_adjust_relative_and_counters_accumulate() {
        let m = ServeMetrics::new();
        m.inc("serve.shed");
        m.add("serve.shed", 2);
        assert_eq!(m.counter("serve.shed"), 3);
        m.adjust_gauge("serve.sessions", 1.0);
        m.adjust_gauge("serve.sessions", 1.0);
        m.adjust_gauge("serve.sessions", -1.0);
        assert_eq!(m.gauge("serve.sessions"), Some(1.0));
        let json = m.to_json().to_string();
        assert!(json.contains("serve.shed"), "{json}");
        assert_eq!(m.snapshot().counter("serve.shed"), 3);
        m.remove_gauge("serve.sessions");
        assert_eq!(m.gauge("serve.sessions"), None);
    }

    #[test]
    fn exposition_is_valid_and_scrape_counter_is_monotone() {
        let m = ServeMetrics::new();
        m.inc("serve.frames");
        m.set_gauge("serve.sessions", 1.0);
        for v in [5u64, 12, 80, 400] {
            m.observe("serve.frame_latency_ms", v);
        }
        let a = m.exposition();
        let sa = validate_exposition(&a).expect("first scrape valid");
        let b = m.exposition();
        let sb = validate_exposition(&b).expect("second scrape valid");
        assert!(b.contains("swr_serve_frame_latency_ms_window{quantile=\"0.99\"}"));
        assert!(b.contains("swr_serve_frame_latency_ms_bucket{le=\"+Inf\"} 4"));
        let scrapes = "swr_serve_scrapes_total";
        assert!(sa.counters[scrapes] < sb.counters[scrapes]);
    }

    #[test]
    fn windows_rotate_out_old_samples_after_enough_scrapes() {
        let m = ServeMetrics::new();
        m.observe("serve.frame_latency_ms", 1_000_000);
        for _ in 0..WINDOW_SLOTS + 1 {
            let _ = m.exposition();
        }
        m.observe("serve.frame_latency_ms", 10);
        // The cumulative histogram remembers the spike; the window forgot.
        assert_eq!(
            m.snapshot()
                .histogram("serve.frame_latency_ms")
                .map(|h| h.count),
            Some(2)
        );
        let w = m.window("serve.frame_latency_ms").expect("window exists");
        assert_eq!(w.count, 1);
        assert_eq!(w.quantile(0.99), 10);
    }
}

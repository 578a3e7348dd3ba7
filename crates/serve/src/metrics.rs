//! The request-metrics registry: lock-free counters on the hot path,
//! fixed-bucket latency histograms with percentile extraction, and a
//! JSON rendering for `GET /metrics` and the shutdown dump.
//!
//! Every counter is an atomic; recording a solve costs a handful of
//! relaxed atomic increments, so metrics never serialize the worker
//! pool. Per-solver slots are created on first use behind a short-held
//! `RwLock` write; steady-state lookups take the read lock only.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds latencies whose
/// microsecond count has bit length `i`, i.e. `[2^(i-1), 2^i)` µs, so
/// 38 buckets span sub-µs to ~38 hours.
const BUCKETS: usize = 38;

/// A fixed-bucket (base-2) latency histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th observation, in microseconds.
    /// `None` when the histogram is empty. Resolution is a factor of 2
    /// — the tradeoff for constant memory and lock-free recording.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(if i == 0 { 1 } else { 1u64 << i });
            }
        }
        Some(1u64 << (BUCKETS - 1))
    }

    fn render(&self) -> Value {
        Value::obj([
            ("count", Value::from(self.count())),
            ("mean_micros", Value::from(self.mean_micros())),
            ("p50_micros", opt_num(self.quantile_micros(0.50))),
            ("p95_micros", opt_num(self.quantile_micros(0.95))),
            ("p99_micros", opt_num(self.quantile_micros(0.99))),
        ])
    }
}

fn opt_num(x: Option<u64>) -> Value {
    x.map_or(Value::Null, Value::from)
}

/// Per-solver request accounting.
#[derive(Default)]
pub struct SolverMetrics {
    /// Solve requests routed to this solver (sync and async).
    pub requests: AtomicU64,
    /// Requests that ended in a solve failure.
    pub errors: AtomicU64,
    /// Solve latency (queue wait excluded; pure solver wall time).
    pub latency: Histogram,
}

/// The server-wide metrics registry.
#[derive(Default)]
pub struct Metrics {
    solvers: RwLock<BTreeMap<String, Arc<SolverMetrics>>>,
    /// All HTTP requests accepted (any endpoint, any outcome).
    pub http_requests: AtomicU64,
    /// TCP connections accepted (each may carry many requests).
    pub connections_accepted: AtomicU64,
    /// Connections turned away at the cap (HTTP 503 + `Retry-After`).
    pub rejected_connection_cap: AtomicU64,
    /// Submissions rejected because the queue was full (HTTP 429).
    pub rejected_queue_full: AtomicU64,
    /// Submissions rejected during shutdown drain (HTTP 503).
    pub rejected_shutting_down: AtomicU64,
    /// Jobs that reached `done`.
    pub jobs_completed: AtomicU64,
    /// Jobs that reached `failed` (solve errors and expiries).
    pub jobs_failed: AtomicU64,
    /// Terminal jobs dropped from the job table by the reaper.
    pub jobs_reaped: AtomicU64,
    /// Sync solves that hit their wait deadline (HTTP 504; the job
    /// keeps running and stays pollable).
    pub deadline_exceeded: AtomicU64,
    /// Graph uploads accepted.
    pub graphs_uploaded: AtomicU64,
    /// Graphs mutated in place by an accepted `PATCH /graphs/{name}`.
    pub graphs_patched: AtomicU64,
    /// Solve requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Solve requests that had to run the solver.
    pub cache_misses: AtomicU64,
    /// Cache entries evicted to stay under the entry/byte budgets.
    pub cache_evictions: AtomicU64,
}

/// Point-in-time gauges the caller samples right before rendering
/// `/metrics` (they live outside the registry: queue, cache, and
/// connection-gate state each belong to their own structure).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs queued, not yet running.
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// Jobs tracked in the table, terminal ones included.
    pub jobs_tracked: usize,
    /// Resident result-cache entries.
    pub cache_entries: usize,
    /// Estimated resident result-cache bytes.
    pub cache_bytes: usize,
    /// Connections currently open.
    pub open_connections: usize,
    /// The connection cap.
    pub connection_cap: usize,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The per-solver slot for `key`, created on first use.
    pub fn solver(&self, key: &str) -> Arc<SolverMetrics> {
        if let Some(m) = self.solvers.read().expect("metrics lock").get(key) {
            return m.clone();
        }
        self.solvers.write().expect("metrics lock").entry(key.to_string()).or_default().clone()
    }

    /// Convenience: bump a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the whole registry (plus the caller-sampled live
    /// [`Gauges`]) as the `GET /metrics` JSON document.
    pub fn render(&self, gauges: &Gauges) -> Value {
        let solvers: BTreeMap<String, Value> = self
            .solvers
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(key, m)| {
                (
                    key.clone(),
                    Value::obj([
                        ("requests", Value::from(m.requests.load(Ordering::Relaxed))),
                        ("errors", Value::from(m.errors.load(Ordering::Relaxed))),
                        ("latency", m.latency.render()),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("queue_depth", Value::from(gauges.queue_depth)),
            ("queue_capacity", Value::from(gauges.queue_capacity)),
            ("jobs_tracked", Value::from(gauges.jobs_tracked)),
            ("cache_entries", Value::from(gauges.cache_entries)),
            ("cache_bytes", Value::from(gauges.cache_bytes)),
            ("open_connections", Value::from(gauges.open_connections)),
            ("connection_cap", Value::from(gauges.connection_cap)),
            ("http_requests", Value::from(self.http_requests.load(Ordering::Relaxed))),
            (
                "connections_accepted",
                Value::from(self.connections_accepted.load(Ordering::Relaxed)),
            ),
            (
                "rejected_connection_cap",
                Value::from(self.rejected_connection_cap.load(Ordering::Relaxed)),
            ),
            ("rejected_queue_full", Value::from(self.rejected_queue_full.load(Ordering::Relaxed))),
            (
                "rejected_shutting_down",
                Value::from(self.rejected_shutting_down.load(Ordering::Relaxed)),
            ),
            ("jobs_completed", Value::from(self.jobs_completed.load(Ordering::Relaxed))),
            ("jobs_failed", Value::from(self.jobs_failed.load(Ordering::Relaxed))),
            ("jobs_reaped", Value::from(self.jobs_reaped.load(Ordering::Relaxed))),
            ("deadline_exceeded", Value::from(self.deadline_exceeded.load(Ordering::Relaxed))),
            ("graphs_uploaded", Value::from(self.graphs_uploaded.load(Ordering::Relaxed))),
            ("graphs_patched", Value::from(self.graphs_patched.load(Ordering::Relaxed))),
            ("cache_hits", Value::from(self.cache_hits.load(Ordering::Relaxed))),
            ("cache_misses", Value::from(self.cache_misses.load(Ordering::Relaxed))),
            ("cache_evictions", Value::from(self.cache_evictions.load(Ordering::Relaxed))),
            ("solvers", Value::Obj(solvers)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = Histogram::default();
        assert_eq!(h.quantile_micros(0.5), None);
        // 90 fast observations (~100 µs) and 10 slow ones (~50 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_micros(0.50).unwrap();
        let p99 = h.quantile_micros(0.99).unwrap();
        assert!((64..=256).contains(&p50), "p50 bucket bound {p50} should bracket 100µs");
        assert!(p99 >= 50_000, "p99 bound {p99} must reach the slow tail");
        assert!(p50 < p99);
        let mean = h.mean_micros();
        assert!((1000..20_000).contains(&mean), "{mean}");
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(60 * 60 * 24 * 7)); // a week: clamps to the top bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_micros(0.01).unwrap(), 1);
        assert!(h.quantile_micros(1.0).unwrap() >= 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn registry_renders_and_reuses_slots() {
        let m = Metrics::new();
        let s1 = m.solver("mds/exact");
        let s2 = m.solver("mds/exact");
        assert!(Arc::ptr_eq(&s1, &s2));
        Metrics::bump(&s1.requests);
        s1.latency.record(Duration::from_micros(300));
        Metrics::bump(&m.rejected_queue_full);
        Metrics::bump(&m.cache_hits);
        Metrics::bump(&m.graphs_patched);
        let doc = m.render(&Gauges {
            queue_depth: 3,
            queue_capacity: 16,
            jobs_tracked: 5,
            connection_cap: 64,
            ..Gauges::default()
        });
        assert_eq!(doc.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("rejected_queue_full").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("jobs_tracked").unwrap().as_u64(), Some(5));
        assert_eq!(doc.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("cache_misses").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("graphs_patched").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("connection_cap").unwrap().as_u64(), Some(64));
        let solver = doc.get("solvers").unwrap().get("mds/exact").unwrap();
        assert_eq!(solver.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(solver.get("latency").unwrap().get("count").unwrap().as_u64(), Some(1));
    }
}

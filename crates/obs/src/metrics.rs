//! The unified metrics plane: named atomic counters, gauges and
//! histograms shared by every crate in the stack.
//!
//! A [`MetricsRegistry`] hands out cheap `Arc`-backed handles
//! ([`Counter`], [`Gauge`], [`MetricHistogram`]) that hot paths bump with
//! a single atomic op — no allocation, no lock. Registration is
//! idempotent: asking for the same name twice returns a handle to the
//! same underlying cell, so the scheduler, the vOS and the farm can all
//! contribute to one plane without coordinating ownership.
//!
//! Exposition is pull-based and deterministic: [`MetricsRegistry::snapshot_json`]
//! and [`MetricsRegistry::prometheus_text`] iterate names in sorted
//! order, so two snapshots of identical state are byte-identical.
//!
//! Naming follows Prometheus conventions: `snake_case` bases with a
//! `_total` suffix for counters, and optional `{key="value"}` label
//! suffixes embedded directly in the registered name (e.g.
//! `vos_stream_bytes{stream="QUEUE"}`); the exposition splits the base
//! name off for `# TYPE` lines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::hist::{bucket_of, Histogram, BUCKETS};
use crate::json::Json;

/// A monotonically increasing counter that saturates at `u64::MAX`
/// instead of wrapping (a wrapped counter reads as a reset to a scraper,
/// a saturated one reads as "off the scale" — strictly less misleading).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not in any registry) starting at 0.
    #[must_use]
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        // CAS loop so concurrent adds near the ceiling still saturate
        // rather than wrap. `fetch_update` with a `Some` closure never
        // returns `Err`.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A gauge: a value that can move both ways (queue depth, live workers).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A detached gauge starting at 0.
    #[must_use]
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (saturating).
    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Subtracts `n` (saturating at 0).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

struct AtomicHist {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log2 histogram handle mirroring [`Histogram`]'s bucket
/// layout; [`MetricHistogram::snapshot`] materialises a plain
/// [`Histogram`] for percentile queries and merging.
#[derive(Clone)]
pub struct MetricHistogram(Arc<AtomicHist>);

impl MetricHistogram {
    /// A detached, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        MetricHistogram(Arc::new(AtomicHist::new()))
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy as a plain [`Histogram`]. Not a consistent
    /// cut under concurrent writers (counts may be mid-update), which is
    /// fine for telemetry; quiesced readers get exact values.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        Histogram::from_parts(
            buckets,
            self.0.count.load(Ordering::Relaxed),
            self.0.sum.load(Ordering::Relaxed),
            self.0.min.load(Ordering::Relaxed),
            self.0.max.load(Ordering::Relaxed),
        )
    }
}

impl Default for MetricHistogram {
    fn default() -> Self {
        MetricHistogram::new()
    }
}

impl std::fmt::Debug for MetricHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MetricHistogram")
            .field(&self.snapshot())
            .finish()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, MetricHistogram>,
}

/// The process-wide metric namespace.
///
/// Handles registered here stay live for the registry's lifetime;
/// snapshots walk the sorted name space so exposition output is
/// deterministic. Typically shared as an `Arc<MetricsRegistry>` between
/// the run configuration, the scheduler and the exporters.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) the counter `name` and returns a handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .lock()
            .counters
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Registers (or finds) the gauge `name` and returns a handle.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .lock()
            .gauges
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Registers (or finds) the histogram `name` and returns a handle.
    #[must_use]
    pub fn histogram(&self, name: &str) -> MetricHistogram {
        self.inner
            .lock()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Convenience: bump counter `name` by `n` (registering on first use).
    pub fn count(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// A deterministic JSON snapshot of every metric, names sorted.
    ///
    /// Values are JSON numbers (f64), exact up to 2^53; counters past
    /// that render rounded but [`Counter::get`] stays exact.
    #[must_use]
    pub fn snapshot_json(&self) -> Json {
        let inner = self.inner.lock();
        let counters = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(v.get() as f64)))
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(v.get() as f64)))
            .collect();
        let hists = inner
            .histograms
            .iter()
            .map(|(k, v)| {
                let h = v.snapshot();
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(h.count() as f64)),
                        ("sum".into(), Json::Num(h.sum() as f64)),
                        ("min".into(), Json::Num(h.min() as f64)),
                        ("max".into(), Json::Num(h.max() as f64)),
                        ("mean".into(), Json::Num(h.mean())),
                        ("p50".into(), Json::Num(h.percentile(0.5) as f64)),
                        ("p99".into(), Json::Num(h.percentile(0.99) as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(hists)),
        ])
    }

    /// Prometheus text exposition (format 0.0.4): `# TYPE` lines keyed by
    /// the base name (label suffixes embedded in registered names are
    /// passed through), histograms as cumulative `_bucket{le=...}` series
    /// up to the highest non-empty power-of-two edge plus `+Inf`.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (name, c) in &inner.counters {
            let base = base_name(name);
            if typed.insert(base) {
                out.push_str(&format!("# TYPE {base} counter\n"));
            }
            out.push_str(&format!("{name} {}\n", c.get()));
        }
        for (name, g) in &inner.gauges {
            let base = base_name(name);
            if typed.insert(base) {
                out.push_str(&format!("# TYPE {base} gauge\n"));
            }
            out.push_str(&format!("{name} {}\n", g.get()));
        }
        for (name, mh) in &inner.histograms {
            let h = mh.snapshot();
            let base = base_name(name);
            if typed.insert(base) {
                out.push_str(&format!("# TYPE {base} histogram\n"));
            }
            let top = h.buckets().iter().rposition(|&n| n > 0).unwrap_or(0);
            let mut cum = 0u64;
            for (b, &n) in h.buckets().iter().enumerate().take(top + 1) {
                cum += n;
                // Bucket b covers [2^(b-1), 2^b); its le edge is 2^b - 1
                // for full buckets, 0 for the zero bucket.
                let le = if b == 0 { 0 } else { (1u128 << b) as u64 - 1 };
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", name));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// The `# TYPE` key for a registered name: everything before the first
/// `{` (label suffixes are embedded in the name).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("sched_wakeups_total");
        let b = reg.counter("sched_wakeups_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("sched_wakeups_total").get(), 3);
    }

    #[test]
    fn counter_saturates_at_max() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(12);
        assert_eq!(g.get(), 3);
        g.sub(100);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_snapshot_matches_plain() {
        let mh = MetricHistogram::new();
        let mut plain = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 4096] {
            mh.record(v);
            plain.record(v);
        }
        let snap = mh.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.sum(), plain.sum());
        assert_eq!(snap.min(), plain.min());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.percentile(0.99), plain.percentile(0.99));
        assert_eq!(snap.buckets(), plain.buckets());
    }

    #[test]
    fn snapshots_are_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").add(1);
        reg.counter("a_total").add(2);
        reg.gauge("workers").set(4);
        reg.histogram("tick_ns").record(100);
        let a = reg.snapshot_json().to_pretty();
        let b = reg.snapshot_json().to_pretty();
        assert_eq!(a, b);
        let az = a.find("\"a_total\"").unwrap();
        let zz = a.find("\"z_total\"").unwrap();
        assert!(az < zz, "names must be sorted");
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("runs_total").add(7);
        reg.counter("vos_stream_bytes{stream=\"QUEUE\"}").add(64);
        reg.gauge("workers").set(2);
        reg.histogram("tick_ns").record(3);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE runs_total counter\nruns_total 7\n"));
        assert!(text.contains("# TYPE vos_stream_bytes counter\n"));
        assert!(text.contains("vos_stream_bytes{stream=\"QUEUE\"} 64\n"));
        assert!(text.contains("# TYPE workers gauge\nworkers 2\n"));
        assert!(text.contains("tick_ns_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("tick_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("tick_ns_sum 3\n"));
        assert!(text.contains("tick_ns_count 1\n"));
    }

    #[test]
    fn labelelled_names_group_under_one_type_line() {
        let reg = MetricsRegistry::new();
        reg.counter("s{stream=\"A\"}").add(1);
        reg.counter("s{stream=\"B\"}").add(2);
        let text = reg.prometheus_text();
        assert_eq!(text.matches("# TYPE s counter").count(), 1);
    }
}

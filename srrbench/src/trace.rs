//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are opened and closed from the benchmark's own code only — the
//! program is not instrumented. Every span carries the iteration it
//! belongs to; spans of one iteration hang off one root. A layer's self
//! time is its span's duration minus the part its children cover, so on
//! the blocking path the self times of an iteration add up to its root.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use srr_obs::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called (`record`, `save_dir`, `run_farm`, ...).
    pub name: &'static str,
    /// The crate the call lands in (`core`, `vos`, `replay`, ...).
    pub layer: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; equals `start_ns` while open.
    pub end_ns: u64,
    /// The enclosing span, `None` for an iteration root.
    pub parent: Option<SpanId>,
    /// The iteration all spans of one root share.
    pub iter: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("layer".into(), Json::Str(self.layer.into())),
            ("start_ns".into(), Json::Num(self.start_ns as f64)),
            ("end_ns".into(), Json::Num(self.end_ns as f64)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("iter".into(), Json::Num(self.iter as f64)),
        ])
    }
}

/// Collects spans when enabled; every method is a no-op otherwise, so
/// untraced iterations pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; `None` when tracing is off.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        iter: u64,
    ) -> Option<SpanId> {
        self.on.then(|| {
            let now = self.ns(Instant::now());
            self.push_ns(name, layer, parent, iter, now, now)
        })
    }

    /// Closes an open span at the current time.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned by a panic")[id].end_ns = now;
        }
    }

    /// Records a span whose bounds were taken elsewhere (a callback the
    /// layer invoked). Returns its id when tracing is on.
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        iter: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.on
            .then(|| self.push_ns(name, layer, parent, iter, self.ns(start), self.ns(end)))
    }

    fn push_ns(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        iter: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            iter,
        });
        spans.len() - 1
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per layer in milliseconds, over all spans.
#[must_use]
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Total duration of the root spans in milliseconds.
#[must_use]
pub fn root_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            layer,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench", None, 0, 100),
            span("core", Some(0), 10, 40),
            span("vos", Some(1), 12, 20),
            span("replay", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 8, 10]);
        let total: f64 = layer_self_ms(&spans).values().sum();
        assert!((total - root_ms(&spans)).abs() < 1e-12);

        let overlapping = vec![
            span("bench", None, 0, 100),
            span("core", Some(0), 10, 40),
            span("core", Some(0), 30, 60),
        ];
        assert_eq!(self_times(&overlapping)[0], 50);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("a", "core", None, 0);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}

//! FastTrack-style dynamic data-race detection over shadow memory.
//!
//! This crate reproduces the race-detection substrate that tsan11rec
//! inherits from tsan/tsan11: every *plain* (non-atomic) access to a
//! potentially shared location is checked against the location's shadow
//! state using the accessing thread's vector clock. Two accesses race when
//! they are performed by different threads, at least one is a write, and
//! neither happens-before the other.
//!
//! The algorithm follows FastTrack (Flanagan & Freund, PLDI 2009):
//!
//! * a location's **write history** is a single [`Epoch`] — write-write
//!   races make multiple concurrent "last writes" impossible to miss;
//! * a location's **read history** adaptively switches between a single
//!   epoch (same-thread or ordered reads: the overwhelmingly common case)
//!   and a full vector clock (genuinely concurrent readers).
//!
//! Detected races are surfaced as [`RaceReport`]s through a [`RaceSink`].
//! Reporting and detection are separated because the paper's evaluation
//! (§5.2) distinguishes "race checking on, reports off" from full
//! reporting — report materialization has measurable cost on racy programs.
//!
//! # Example
//!
//! ```
//! use srr_racedet::{AccessKind, RaceDetector};
//! use srr_vclock::VectorClock;
//!
//! let mut det = RaceDetector::new();
//! let loc = det.register_location("counter");
//!
//! let mut t0 = VectorClock::new();
//! let mut t1 = VectorClock::new();
//! t0.tick(0);
//! t1.tick(1);
//!
//! det.on_access(loc, 0, &t0, AccessKind::Write);
//! det.on_access(loc, 1, &t1, AccessKind::Write); // unordered: a race
//! assert_eq!(det.race_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use srr_vclock::{Epoch, TidIndex, VectorClock};

/// Whether an access reads or writes the location.
///
/// `Read < Write` (declaration order) — [`RaceSignature`] relies on the
/// ordering to normalize unordered access-kind pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// A plain load.
    Read,
    /// A plain store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// Identifier of a registered shared location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(u32);

impl LocationId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The read history of a shadow cell: an epoch in the common case, a full
/// vector clock once concurrent readers are seen ("the FastTrack switch").
#[derive(Clone, Debug)]
enum ReadState {
    Epoch(Epoch),
    Clock(VectorClock),
}

/// Shadow state for one shared location.
#[derive(Clone, Debug)]
pub struct ShadowCell {
    write: Epoch,
    read: ReadState,
}

impl Default for ShadowCell {
    fn default() -> Self {
        ShadowCell::new()
    }
}

impl ShadowCell {
    /// A cell with no recorded accesses.
    #[must_use]
    pub fn new() -> Self {
        ShadowCell {
            write: Epoch::ZERO,
            read: ReadState::Epoch(Epoch::ZERO),
        }
    }

    /// Records a read by `tid` at `clock`; returns the racing prior write's
    /// epoch if the read races.
    pub fn on_read(&mut self, tid: TidIndex, clock: &VectorClock) -> Option<Epoch> {
        let race = (!self.write.le(clock) && self.write.tid() != tid).then_some(self.write);
        let me = clock.epoch(tid);
        match &mut self.read {
            ReadState::Epoch(e) => {
                if e.tid() == tid || e.le(clock) {
                    *e = me;
                } else {
                    // Concurrent readers: inflate to a clock.
                    let mut vc = VectorClock::new();
                    vc.set(e.tid(), e.clock());
                    vc.set(tid, me.clock());
                    self.read = ReadState::Clock(vc);
                }
            }
            ReadState::Clock(vc) => vc.set(tid, me.clock()),
        }
        race
    }

    /// Records a write by `tid` at `clock`; returns the epoch of a racing
    /// prior access (write preferred over read) if one exists.
    pub fn on_write(&mut self, tid: TidIndex, clock: &VectorClock) -> Option<RacyPrior> {
        let mut racy = None;
        if !self.write.le(clock) && self.write.tid() != tid {
            racy = Some(RacyPrior {
                epoch: self.write,
                kind: AccessKind::Write,
            });
        }
        if racy.is_none() {
            match &self.read {
                ReadState::Epoch(e) => {
                    if !e.le(clock) && e.tid() != tid {
                        racy = Some(RacyPrior {
                            epoch: *e,
                            kind: AccessKind::Read,
                        });
                    }
                }
                ReadState::Clock(vc) => {
                    for (rt, rc) in vc.iter_nonzero() {
                        if rt != tid && rc > clock.get(rt) {
                            racy = Some(RacyPrior {
                                epoch: Epoch::new(rt, rc),
                                kind: AccessKind::Read,
                            });
                            break;
                        }
                    }
                }
            }
        }
        self.write = clock.epoch(tid);
        // FastTrack: a write resets the read history (any read race was
        // already reported above).
        self.read = ReadState::Epoch(Epoch::ZERO);
        racy
    }
}

/// The racing prior access discovered by a write check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RacyPrior {
    /// Epoch of the earlier conflicting access.
    pub epoch: Epoch,
    /// Whether that access was a read or a write.
    pub kind: AccessKind,
}

/// A fully-described data race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The shared location involved.
    pub location: LocationId,
    /// Human-readable label the location was registered with.
    pub label: String,
    /// The earlier access.
    pub prior_epoch: Epoch,
    /// Kind of the earlier access.
    pub prior_kind: AccessKind,
    /// The current (racing) access's thread.
    pub current_tid: TidIndex,
    /// Kind of the current access.
    pub current_kind: AccessKind,
}

impl RaceReport {
    /// The report's corpus-stable identity: the detector's
    /// `(location, pair, kind)` dedup key normalized for cross-run
    /// comparison. Locations travel by registration label (raw
    /// [`LocationId`]s are per-run), the thread pair is unordered, and so
    /// is the access-kind pair — a read racing a prior write and a write
    /// racing a prior read at the same site are the same bug.
    #[must_use]
    pub fn signature(&self) -> RaceSignature {
        let (a, b) = (self.prior_epoch.tid(), self.current_tid);
        let (ka, kb) = (self.prior_kind, self.current_kind);
        RaceSignature {
            label: self.label.clone(),
            tids: (a.min(b), a.max(b)),
            kinds: (ka.min(kb), ka.max(kb)),
        }
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race on `{}`: {} by thread {} races with prior {} at {}",
            self.label, self.current_kind, self.current_tid, self.prior_kind, self.prior_epoch
        )
    }
}

/// Normalized cross-run identity of a data race (see
/// [`RaceReport::signature`]). Ordered and hashable so signature sets
/// from different runs, seeds, and machines can be compared directly;
/// the exploration corpus generalizes this key to deadlocks and desyncs.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RaceSignature {
    /// Label the location was registered with.
    pub label: String,
    /// Racing thread pair, normalized `min ≤ max`.
    pub tids: (TidIndex, TidIndex),
    /// Access kinds of the two sides, normalized `Read` before `Write`.
    pub kinds: (AccessKind, AccessKind),
}

impl RaceSignature {
    /// Compact single-token key: `label|t0,t1|rw` with `r`/`w` for the
    /// normalized kinds.
    #[must_use]
    pub fn key(&self) -> String {
        let k = |kind: AccessKind| match kind {
            AccessKind::Read => 'r',
            AccessKind::Write => 'w',
        };
        format!(
            "{}|{},{}|{}{}",
            self.label,
            self.tids.0,
            self.tids.1,
            k(self.kinds.0),
            k(self.kinds.1)
        )
    }
}

impl fmt::Display for RaceSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// Consumer of race reports.
///
/// tsan11rec hands the tool's report aggregator in here; tests use
/// [`CollectSink`].
pub trait RaceSink {
    /// Called once per detected race (deduplication is the detector's job).
    fn report(&mut self, report: RaceReport);
}

/// A [`RaceSink`] that stores every report.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected reports, in detection order.
    pub reports: Vec<RaceReport>,
}

impl RaceSink for CollectSink {
    fn report(&mut self, report: RaceReport) {
        self.reports.push(report);
    }
}

/// The race detector: a registry of shadow cells plus dedup and counting.
///
/// Races are counted always; full [`RaceReport`]s are materialized only when
/// reporting is enabled (the default) — mirroring the paper's
/// "Race reports" vs "No reports" configurations.
#[derive(Debug)]
pub struct RaceDetector {
    cells: Vec<ShadowCell>,
    labels: Vec<String>,
    /// Dedup key: (location, unordered thread pair, unordered access-kind
    /// pair), normalised as [`RaceSignature`] does, so a race counts once
    /// whichever of its two accesses ran first.
    seen: std::collections::HashSet<(u32, TidIndex, TidIndex, (AccessKind, AccessKind))>,
    races: u64,
    suppressed: u64,
    reporting_enabled: bool,
    reports: Vec<RaceReport>,
    /// Pair-targeted checking: `(label, tid, tid)` armed by witness
    /// replays; [`RaceDetector::target_hit`] reports whether the detector
    /// fired there (dedup and reporting notwithstanding).
    target: Option<(String, TidIndex, TidIndex)>,
    target_hit: bool,
}

impl Default for RaceDetector {
    fn default() -> Self {
        RaceDetector::new()
    }
}

impl RaceDetector {
    /// Creates an empty detector with reporting enabled.
    #[must_use]
    pub fn new() -> Self {
        RaceDetector {
            cells: Vec::new(),
            labels: Vec::new(),
            seen: std::collections::HashSet::new(),
            races: 0,
            suppressed: 0,
            reporting_enabled: true,
            reports: Vec::new(),
            target: None,
            target_hit: false,
        }
    }

    /// Enables or disables report materialization (detection continues).
    pub fn set_reporting(&mut self, enabled: bool) {
        self.reporting_enabled = enabled;
    }

    /// Registers a shared location under a diagnostic label.
    pub fn register_location(&mut self, label: impl Into<String>) -> LocationId {
        let id = LocationId(self.cells.len() as u32);
        self.cells.push(ShadowCell::new());
        self.labels.push(label.into());
        id
    }

    /// Checks and records an access; any race is counted and (if enabled)
    /// materialized as a report.
    pub fn on_access(
        &mut self,
        loc: LocationId,
        tid: TidIndex,
        clock: &VectorClock,
        kind: AccessKind,
    ) {
        let cell = &mut self.cells[loc.index()];
        let prior = match kind {
            AccessKind::Read => cell.on_read(tid, clock).map(|epoch| RacyPrior {
                epoch,
                kind: AccessKind::Write,
            }),
            AccessKind::Write => cell.on_write(tid, clock),
        };
        if let Some(prior) = prior {
            self.record_race(loc, prior, tid, kind);
        }
    }

    fn record_race(&mut self, loc: LocationId, prior: RacyPrior, tid: TidIndex, kind: AccessKind) {
        let (a, b) = (prior.epoch.tid().min(tid), prior.epoch.tid().max(tid));
        if let Some((label, ta, tb)) = &self.target {
            let (ta, tb) = ((*ta).min(*tb), (*ta).max(*tb));
            if (ta, tb) == (a, b) && self.labels[loc.index()] == *label {
                self.target_hit = true;
            }
        }
        let kinds = (prior.kind.min(kind), prior.kind.max(kind));
        let key = (loc.0, a, b, kinds);
        if !self.seen.insert(key) {
            self.suppressed += 1;
            return;
        }
        self.races += 1;
        if self.reporting_enabled {
            let report = RaceReport {
                location: loc,
                label: self.labels[loc.index()].clone(),
                prior_epoch: prior.epoch,
                prior_kind: prior.kind,
                current_tid: tid,
                current_kind: kind,
            };
            self.reports.push(report);
        }
    }

    /// Number of distinct races detected so far.
    #[must_use]
    pub fn race_count(&self) -> u64 {
        self.races
    }

    /// Number of race firings suppressed as duplicates of an
    /// already-reported (location, thread-pair, access-kind-pair) site.
    #[must_use]
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// Arms pair-targeted checking on the location labelled `label`
    /// between threads `a` and `b` (order-insensitive).
    pub fn set_target(&mut self, label: impl Into<String>, a: TidIndex, b: TidIndex) {
        self.target = Some((label.into(), a, b));
        self.target_hit = false;
    }

    /// Whether the armed target pair raced (meaningless if no target was
    /// set).
    #[must_use]
    pub fn target_hit(&self) -> bool {
        self.target_hit
    }

    /// The materialized reports (empty if reporting was disabled).
    #[must_use]
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Drains the materialized reports into `sink`.
    pub fn drain_into(&mut self, sink: &mut dyn RaceSink) {
        for r in self.reports.drain(..) {
            sink.report(r);
        }
    }

    /// Number of registered locations.
    #[must_use]
    pub fn location_count(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clocks(n: usize) -> Vec<VectorClock> {
        (0..n)
            .map(|t| {
                let mut c = VectorClock::new();
                c.tick(t);
                c
            })
            .collect()
    }

    #[test]
    fn unordered_write_write_races() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Write);
        det.on_access(loc, 1, &cs[1], AccessKind::Write);
        assert_eq!(det.race_count(), 1);
        let r = &det.reports()[0];
        assert_eq!(r.current_tid, 1);
        assert_eq!(r.prior_kind, AccessKind::Write);
        assert_eq!(r.label, "x");
    }

    #[test]
    fn signatures_normalize_pair_and_kind_order() {
        // The same race seen from either side must produce one signature.
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(3);
        det.on_access(loc, 2, &cs[2], AccessKind::Write);
        det.on_access(loc, 0, &cs[0], AccessKind::Read);
        let sig = det.reports()[0].signature();
        assert_eq!(sig.tids, (0, 2), "unordered thread pair");
        assert_eq!(sig.kinds, (AccessKind::Read, AccessKind::Write));
        assert_eq!(sig.key(), "x|0,2|rw");
        assert_eq!(sig.to_string(), sig.key());
        // Mirror-image report (read first, racing write second).
        let mut det2 = RaceDetector::new();
        let loc2 = det2.register_location("x");
        det2.on_access(loc2, 0, &cs[0], AccessKind::Read);
        det2.on_access(loc2, 2, &cs[2], AccessKind::Write);
        assert_eq!(det2.reports()[0].signature(), sig);
    }

    #[test]
    fn ordered_write_write_does_not_race() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let mut t0 = VectorClock::new();
        t0.tick(0);
        det.on_access(loc, 0, &t0, AccessKind::Write);
        // t1 synchronized with t0 (joined its clock):
        let mut t1 = VectorClock::new();
        t1.tick(1);
        t1.join(&t0);
        det.on_access(loc, 1, &t1, AccessKind::Write);
        assert_eq!(det.race_count(), 0);
    }

    #[test]
    fn unordered_write_then_read_races() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Write);
        det.on_access(loc, 1, &cs[1], AccessKind::Read);
        assert_eq!(det.race_count(), 1);
        assert_eq!(det.reports()[0].current_kind, AccessKind::Read);
    }

    #[test]
    fn unordered_read_then_write_races() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Read);
        det.on_access(loc, 1, &cs[1], AccessKind::Write);
        assert_eq!(det.race_count(), 1);
        assert_eq!(det.reports()[0].prior_kind, AccessKind::Read);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(3);
        det.on_access(loc, 0, &cs[0], AccessKind::Read);
        det.on_access(loc, 1, &cs[1], AccessKind::Read);
        det.on_access(loc, 2, &cs[2], AccessKind::Read);
        assert_eq!(det.race_count(), 0);
    }

    #[test]
    fn write_after_concurrent_reads_races_with_inflated_history() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(3);
        det.on_access(loc, 0, &cs[0], AccessKind::Read);
        det.on_access(loc, 1, &cs[1], AccessKind::Read); // inflates to clock
        det.on_access(loc, 2, &cs[2], AccessKind::Write);
        assert_eq!(det.race_count(), 1, "racing with at least one reader");
    }

    #[test]
    fn write_ordered_after_all_readers_is_clean() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let mut t0 = VectorClock::new();
        t0.tick(0);
        let mut t1 = VectorClock::new();
        t1.tick(1);
        det.on_access(loc, 0, &t0, AccessKind::Read);
        det.on_access(loc, 1, &t1, AccessKind::Read);
        let mut t2 = VectorClock::new();
        t2.tick(2);
        t2.join(&t0);
        t2.join(&t1);
        det.on_access(loc, 2, &t2, AccessKind::Write);
        assert_eq!(det.race_count(), 0);
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let mut t0 = VectorClock::new();
        for _ in 0..5 {
            t0.tick(0);
            det.on_access(loc, 0, &t0, AccessKind::Write);
            det.on_access(loc, 0, &t0, AccessKind::Read);
        }
        assert_eq!(det.race_count(), 0);
    }

    #[test]
    fn duplicate_races_are_deduplicated() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let mut t0 = VectorClock::new();
        let mut t1 = VectorClock::new();
        for _ in 0..10 {
            t0.tick(0);
            t1.tick(1);
            det.on_access(loc, 0, &t0, AccessKind::Write);
            det.on_access(loc, 1, &t1, AccessKind::Write);
        }
        assert_eq!(
            det.race_count(),
            1,
            "one per (location, thread-pair, access-kind-pair) site"
        );
        assert_eq!(
            det.suppressed_count(),
            18,
            "19 firing accesses, first reported, rest suppressed"
        );
    }

    #[test]
    fn dedup_distinguishes_access_kinds() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Write);
        det.on_access(loc, 1, &cs[1], AccessKind::Read);
        det.on_access(loc, 1, &cs[1], AccessKind::Write);
        assert_eq!(det.race_count(), 2, "racy read and racy write both report");
        assert_eq!(det.suppressed_count(), 0);
    }

    #[test]
    fn dedup_counts_a_read_write_pair_once_in_either_order() {
        // W→R then R→W, and R→W then W→R, between threads 0 and 1 on one
        // location: each is one race, whichever access ran first.
        for write_first in [true, false] {
            let mut det = RaceDetector::new();
            let loc = det.register_location("x");
            let mut t0 = VectorClock::new();
            let mut t1 = VectorClock::new();
            let mut access = |det: &mut RaceDetector, tid: TidIndex, kind| {
                let clock = if tid == 0 { &mut t0 } else { &mut t1 };
                clock.tick(tid);
                det.on_access(loc, tid, clock, kind);
            };
            if write_first {
                access(&mut det, 0, AccessKind::Write);
                access(&mut det, 1, AccessKind::Read); // W→R
                access(&mut det, 0, AccessKind::Write); // R→W
            } else {
                access(&mut det, 1, AccessKind::Read);
                access(&mut det, 0, AccessKind::Write); // R→W
                access(&mut det, 1, AccessKind::Read); // W→R
            }
            assert_eq!(det.race_count(), 1, "write first: {write_first}");
            assert_eq!(det.suppressed_count(), 1, "write first: {write_first}");
            let sig = det.reports()[0].signature();
            assert_eq!(sig.kinds, (AccessKind::Read, AccessKind::Write));
        }
    }

    #[test]
    fn target_hit_survives_dedup_and_disabled_reporting() {
        let mut det = RaceDetector::new();
        det.set_reporting(false);
        let loc = det.register_location("x");
        det.register_location("y");
        assert!(!det.target_hit());
        det.set_target("x", 1, 0); // order-insensitive
        let mut t0 = VectorClock::new();
        let mut t1 = VectorClock::new();
        for _ in 0..3 {
            t0.tick(0);
            t1.tick(1);
            det.on_access(loc, 0, &t0, AccessKind::Write);
            det.on_access(loc, 1, &t1, AccessKind::Write);
        }
        assert!(det.target_hit());
        assert!(det.reports().is_empty());
    }

    #[test]
    fn target_other_location_or_pair_does_not_hit() {
        let mut det = RaceDetector::new();
        let x = det.register_location("x");
        let y = det.register_location("y");
        det.set_target("y", 0, 1);
        let cs = clocks(3);
        det.on_access(x, 0, &cs[0], AccessKind::Write);
        det.on_access(x, 1, &cs[1], AccessKind::Write);
        assert!(!det.target_hit(), "wrong location");
        det.on_access(y, 0, &cs[0], AccessKind::Write);
        det.on_access(y, 2, &cs[2], AccessKind::Write);
        assert!(!det.target_hit(), "wrong thread pair");
        // Last write epoch is now t2's; a t1 write races as pair (1,2)...
        det.on_access(y, 1, &cs[1], AccessKind::Write);
        assert!(!det.target_hit(), "still the wrong pair");
        // ...and a t0 read against t1's write epoch is the armed pair.
        det.on_access(y, 0, &cs[0], AccessKind::Read);
        assert!(det.target_hit());
    }

    #[test]
    fn reporting_disabled_still_counts() {
        let mut det = RaceDetector::new();
        det.set_reporting(false);
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Write);
        det.on_access(loc, 1, &cs[1], AccessKind::Write);
        assert_eq!(det.race_count(), 1);
        assert!(det.reports().is_empty());
    }

    #[test]
    fn distinct_locations_are_independent() {
        let mut det = RaceDetector::new();
        let a = det.register_location("a");
        let b = det.register_location("b");
        let cs = clocks(2);
        det.on_access(a, 0, &cs[0], AccessKind::Write);
        det.on_access(b, 1, &cs[1], AccessKind::Write);
        assert_eq!(det.race_count(), 0);
        assert_eq!(det.location_count(), 2);
    }

    #[test]
    fn drain_into_sink() {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let cs = clocks(2);
        det.on_access(loc, 0, &cs[0], AccessKind::Write);
        det.on_access(loc, 1, &cs[1], AccessKind::Write);
        let mut sink = CollectSink::default();
        det.drain_into(&mut sink);
        assert_eq!(sink.reports.len(), 1);
        assert!(det.reports().is_empty());
        assert!(sink.reports[0].to_string().contains("data race on `x`"));
    }

    #[test]
    fn report_display_is_informative() {
        let r = RaceReport {
            location: LocationId(0),
            label: "buf".into(),
            prior_epoch: Epoch::new(0, 3),
            prior_kind: AccessKind::Write,
            current_tid: 2,
            current_kind: AccessKind::Read,
        };
        let s = r.to_string();
        assert!(s.contains("read by thread 2"));
        assert!(s.contains("prior write at 3@0"));
    }
}

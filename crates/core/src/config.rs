//! Tool configuration: modes, strategies and the sparse recording set.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use srr_obs::{MetricsRegistry, TraceSpec};

/// Scheduling strategy for controlled modes (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Pick the next thread uniformly at random among enabled threads at
    /// each tick. The whole interleaving is a function of the seeds.
    Random,
    /// First-come-first-served among threads arriving at `Wait()`;
    /// order is physical-timing-dependent and recorded in QUEUE.
    Queue,
    /// PCT-style skewed random (the paper's §7 future-work direction):
    /// keep scheduling one "hot" thread; with probability `1/switch_denom`
    /// per tick, move the hot role to a uniformly random thread.
    Pct {
        /// Expected run length: hot thread switches with probability
        /// `1/switch_denom` per tick.
        switch_denom: u32,
    },
    /// rr-style sequentialized round-robin with a visible-op time slice
    /// (used by the `srr-rr` baseline). Order recorded in QUEUE.
    Slice {
        /// Visible operations per slice before preemption.
        quantum: u32,
    },
    /// Delay bounding (Emmi et al., POPL 2011 — the §7 future-work
    /// direction): a deterministic non-preemptive round-robin baseline
    /// scheduler, plus a small budget of PRNG-placed *delays*, each of
    /// which deschedules the running thread at one point. Empirically,
    /// most concurrency bugs need only a few delays.
    Delay {
        /// Maximum delays injected per execution.
        budget: u32,
        /// A delay fires with probability `1/denom` per visible
        /// operation while budget remains.
        denom: u32,
    },
}

impl Strategy {
    /// Name written into demo headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Queue => "queue",
            Strategy::Pct { .. } => "pct",
            Strategy::Slice { .. } => "slice",
            Strategy::Delay { .. } => "delay",
        }
    }

    /// Whether this strategy's interleaving must be recorded in QUEUE
    /// (physically-timed strategies) or is derivable from the seeds.
    #[must_use]
    pub fn needs_queue_stream(self) -> bool {
        matches!(self, Strategy::Queue | Strategy::Slice { .. })
    }
}

/// Top-level tool mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation beyond pass-through: the native baseline.
    Native,
    /// tsan11: race detection + weak memory semantics, OS scheduling,
    /// no record/replay.
    Tsan11,
    /// tsan11rec: controlled scheduling + race detection + optional
    /// record/replay.
    Tsan11Rec(Strategy),
}

impl Mode {
    /// Whether visible operations are wrapped in `Wait()`/`Tick()`.
    #[must_use]
    pub fn is_controlled(self) -> bool {
        matches!(self, Mode::Tsan11Rec(_))
    }

    /// Whether race detection and the weak memory model are active.
    #[must_use]
    pub fn is_instrumented(self) -> bool {
        !matches!(self, Mode::Native)
    }

    /// The strategy, if controlled.
    #[must_use]
    pub fn strategy(self) -> Option<Strategy> {
        match self {
            Mode::Tsan11Rec(s) => Some(s),
            _ => None,
        }
    }
}

/// Which syscalls the sparse recorder captures (§4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseConfig {
    /// Syscall kinds to record.
    recorded: BTreeSet<String>,
    /// Record `read`/`write` when the fd is a pipe (the paper found this
    /// necessary for IPC pipes but wasteful for regular files).
    pub record_pipe_rw: bool,
    /// Record `read`/`write` when the fd is a regular file.
    pub record_file_rw: bool,
    /// Ignore `ioctl` entirely: do not record it while recording and
    /// re-issue it natively during replay (the §5.4 games workaround).
    pub ignore_ioctl: bool,
}

impl SparseConfig {
    /// The paper's supported set: read, write, recvmsg, recv, sendmsg,
    /// accept, accept4, clock_gettime, ioctl, select and bind — with
    /// pipe-but-not-file read/write recording.
    #[must_use]
    pub fn paper_default() -> Self {
        let recorded = [
            "read",
            "write",
            "recvmsg",
            "recv",
            "send", // the paper's examples record send results too (Fig 2)
            "sendmsg",
            "accept",
            "accept4",
            "clock_gettime",
            "ioctl",
            "select",
            "poll", // httpd's epoll→poll workaround makes poll essential
            "bind",
        ];
        SparseConfig {
            recorded: recorded.iter().map(|s| (*s).to_owned()).collect(),
            record_pipe_rw: true,
            record_file_rw: false,
            ignore_ioctl: false,
        }
    }

    /// The games configuration: the paper's set with ioctl ignored.
    #[must_use]
    pub fn games() -> Self {
        let mut c = SparseConfig::paper_default();
        c.ignore_ioctl = true;
        c
    }

    /// Record nothing (the "empty demo": trivially synchronised, soft
    /// desynchronised nearly everywhere).
    #[must_use]
    pub fn none() -> Self {
        SparseConfig {
            recorded: BTreeSet::new(),
            record_pipe_rw: false,
            record_file_rw: false,
            ignore_ioctl: true,
        }
    }

    /// Record every syscall kind the vOS offers (what a comprehensive,
    /// rr-style recorder does).
    #[must_use]
    pub fn comprehensive() -> Self {
        let mut c = SparseConfig::paper_default();
        c.recorded.insert("open".into());
        c.recorded.insert("close".into());
        c.recorded.insert("pipe".into());
        c.record_file_rw = true;
        c
    }

    /// Adds a syscall kind to the recorded set.
    #[must_use]
    pub fn with(mut self, kind: &str) -> Self {
        self.recorded.insert(kind.to_owned());
        self
    }

    /// Removes a syscall kind from the recorded set.
    #[must_use]
    pub fn without(mut self, kind: &str) -> Self {
        self.recorded.remove(kind);
        self
    }

    /// Whether `kind` is in the recorded set (before fd classification).
    #[must_use]
    pub fn records_kind(&self, kind: &str) -> bool {
        self.recorded.contains(kind)
    }

    /// Number of recorded kinds.
    #[must_use]
    pub fn recorded_len(&self) -> usize {
        self.recorded.len()
    }
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig::paper_default()
    }
}

/// How a plan rules on one plain-access label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanDecision {
    /// A statically proven `Conflict` site (or no plan armed): record.
    Record,
    /// Statically proven `Local`/`Guarded`: the access still feeds the
    /// race detector but is filtered out of the event log.
    Filtered,
    /// The plan has never heard of this label — the plan is stale or
    /// the label is built at runtime. Fail open: record, and flag it.
    Unplanned,
}

/// Runtime form of an `srr plan` access plan: which plain-access labels
/// must still be recorded (`Conflict`-classified sites) and which the
/// analysis has proven race-free. Built from an `srr-plan` report by
/// the CLI/harness; srr-core stays independent of the analysis crate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessPlan {
    /// Labels whose accesses stay in the event log.
    record: BTreeSet<String>,
    /// Every label the plan classified (recorded or filtered).
    known: BTreeSet<String>,
}

impl AccessPlan {
    /// Builds a plan from the set of labels to keep recording and the
    /// set of all statically known labels (a superset of `record`).
    #[must_use]
    pub fn new(
        record: impl IntoIterator<Item = String>,
        known: impl IntoIterator<Item = String>,
    ) -> Self {
        let record: BTreeSet<String> = record.into_iter().collect();
        let mut known: BTreeSet<String> = known.into_iter().collect();
        known.extend(record.iter().cloned());
        AccessPlan { record, known }
    }

    /// Rules on a runtime location label. `SharedArray` cells are
    /// labeled `base[i]`; they inherit the base label's ruling.
    #[must_use]
    pub fn decide(&self, label: &str) -> PlanDecision {
        let base = match label.rfind('[') {
            Some(at) if label.ends_with(']') => &label[..at],
            _ => label,
        };
        if self.record.contains(label) || self.record.contains(base) {
            PlanDecision::Record
        } else if self.known.contains(label) || self.known.contains(base) {
            PlanDecision::Filtered
        } else {
            PlanDecision::Unplanned
        }
    }

    /// Number of labels the plan keeps recording.
    #[must_use]
    pub fn recorded_len(&self) -> usize {
        self.record.len()
    }

    /// Number of labels the plan knows.
    #[must_use]
    pub fn known_len(&self) -> usize {
        self.known.len()
    }
}

/// Record/replay selection for an execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RecordMode {
    /// Neither record nor replay.
    #[default]
    Off,
    /// Record a demo.
    Record,
    /// Replay the given demo (held by the harness).
    Replay,
}

/// Full tool configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Tool mode.
    pub mode: Mode,
    /// PRNG seeds; `None` means sample from the environment.
    pub seeds: Option<[u64; 2]>,
    /// Materialize race reports (§5.2's "Race reports" vs "No reports").
    pub report_races: bool,
    /// The sparse recording set.
    pub sparse: SparseConfig,
    /// Liveness reschedule interval (§3.3); `None` disables the
    /// background rescheduler.
    pub liveness: Option<Duration>,
    /// Per-location store-history bound for the weak memory model.
    pub history_cap: usize,
    /// Thread that receives asynchronous process-directed signals.
    pub signal_target: u32,
    /// Record the allocator's address stream (comprehensive, rr-style
    /// recorders only — sparse tsan11rec deliberately does not, §5.5).
    pub record_alloc: bool,
    /// Run the race detector and weak memory model. Disabled by the
    /// plain-rr baseline, which sequentializes and records but performs
    /// no analysis (§5's "rr" rows, as opposed to "tsan11 + rr").
    pub detect_races: bool,
    /// The event log (`srr-obs`) and the classes it keeps: the schedule
    /// (ticks, decisions, wakeups, signals, syscall and cursor markers,
    /// desyncs), sync operations, and plain accesses. With the sync class
    /// kept, the offline analysis passes (`srr-analysis`) run over the
    /// log at the end of the run. Sync and access events need a
    /// controlled mode. `None` (the default) means no collector is even
    /// constructed, so every emit site pays only an `Option` check.
    pub trace: Option<TraceSpec>,
    /// Pair-targeted race checking: `(location label, tid A, tid B)`.
    /// When the detector fires on that location between those threads,
    /// `ExecReport::race_target_hit` is set — how witness replays confirm
    /// a predicted race fired at the predicted pair.
    pub race_target: Option<(String, u32, u32)>,
    /// The unified metrics plane (`srr-obs::metrics`). When set, the
    /// scheduler, the vOS and the demo-stream accounting publish named
    /// counters here; `None` (the default) skips registration entirely.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Static sparsification plan (`srr plan`): when set (implies the
    /// access class), only `Conflict`-classified labels emit
    /// `PlainAccess` trace events — sparse by proof. Unplanned labels
    /// fail open (recorded + counted as plan staleness). Race
    /// detection itself is unaffected; the plan filters the *trace*.
    pub access_plan: Option<Arc<AccessPlan>>,
}

impl Config {
    /// A configuration for the given mode with paper defaults.
    #[must_use]
    pub fn new(mode: Mode) -> Self {
        Config {
            mode,
            seeds: None,
            report_races: true,
            sparse: SparseConfig::paper_default(),
            liveness: Some(Duration::from_millis(10)),
            history_cap: srr_memmodel::DEFAULT_HISTORY_CAP,
            signal_target: 0,
            record_alloc: false,
            detect_races: true,
            trace: None,
            race_target: None,
            metrics: None,
            access_plan: None,
        }
    }

    /// Sets fixed seeds (tests and replay).
    #[must_use]
    pub fn with_seeds(mut self, seeds: [u64; 2]) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Disables race-report materialization.
    #[must_use]
    pub fn without_reports(mut self) -> Self {
        self.report_races = false;
        self
    }

    /// Replaces the sparse set.
    #[must_use]
    pub fn with_sparse(mut self, sparse: SparseConfig) -> Self {
        self.sparse = sparse;
        self
    }

    /// Disables the liveness rescheduler (fully deterministic runs).
    #[must_use]
    pub fn without_liveness(mut self) -> Self {
        self.liveness = None;
        self
    }

    /// Sets the signal target thread.
    #[must_use]
    pub fn with_signal_target(mut self, tid: u32) -> Self {
        self.signal_target = tid;
        self
    }

    /// Enables allocator-stream recording (the rr baseline's behaviour).
    #[must_use]
    pub fn with_alloc_recording(mut self) -> Self {
        self.record_alloc = true;
        self
    }

    /// Disables race detection and the weak memory model entirely
    /// (visible operations remain scheduling points). The plain-rr
    /// baseline configuration.
    #[must_use]
    pub fn without_race_detection(mut self) -> Self {
        self.detect_races = false;
        self
    }

    /// Keeps the event classes `spec` names in the run's event log, on
    /// top of any already configured.
    #[must_use]
    pub fn with_trace(mut self, spec: TraceSpec) -> Self {
        self.trace = Some(self.trace.unwrap_or_default().union(spec));
        self
    }

    /// Keeps the sync and access classes: the input of the analysis
    /// passes and of predictive race detection, which needs the plain
    /// accesses.
    #[must_use]
    pub fn with_access_trace(self) -> Self {
        self.with_trace(TraceSpec {
            sync: true,
            access: true,
            ..TraceSpec::default()
        })
    }

    /// Attaches the unified metrics plane: scheduler wakeup/stall
    /// counters, per-stream demo bytes and vOS totals are published onto
    /// `registry` during the run.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Arms pair-targeted race checking on `label` between threads `a`
    /// and `b` (order-insensitive).
    #[must_use]
    pub fn with_race_target(mut self, label: &str, a: u32, b: u32) -> Self {
        self.race_target = Some((label.to_owned(), a, b));
        self
    }

    /// Arms a static access plan (implies [`Config::with_access_trace`]):
    /// only labels the plan marked `Conflict` keep emitting `PlainAccess`
    /// events; statically proven sites are filtered, and labels the plan
    /// has never seen fail open (recorded, flagged as plan staleness).
    #[must_use]
    pub fn with_access_plan(mut self, plan: AccessPlan) -> Self {
        self.access_plan = Some(Arc::new(plan));
        self.with_access_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_and_queue_needs() {
        assert_eq!(Strategy::Random.name(), "random");
        assert_eq!(Strategy::Queue.name(), "queue");
        assert_eq!(Strategy::Pct { switch_denom: 8 }.name(), "pct");
        assert_eq!(Strategy::Slice { quantum: 10 }.name(), "slice");
        assert!(!Strategy::Random.needs_queue_stream());
        assert!(!Strategy::Pct { switch_denom: 8 }.needs_queue_stream());
        assert!(Strategy::Queue.needs_queue_stream());
        assert!(Strategy::Slice { quantum: 10 }.needs_queue_stream());
    }

    #[test]
    fn mode_classification() {
        assert!(!Mode::Native.is_controlled());
        assert!(!Mode::Native.is_instrumented());
        assert!(!Mode::Tsan11.is_controlled());
        assert!(Mode::Tsan11.is_instrumented());
        let rec = Mode::Tsan11Rec(Strategy::Random);
        assert!(rec.is_controlled());
        assert!(rec.is_instrumented());
        assert_eq!(rec.strategy(), Some(Strategy::Random));
        assert_eq!(Mode::Tsan11.strategy(), None);
    }

    #[test]
    fn paper_default_matches_section_4_4() {
        let c = SparseConfig::paper_default();
        for kind in [
            "read",
            "write",
            "recvmsg",
            "recv",
            "sendmsg",
            "accept",
            "accept4",
            "clock_gettime",
            "ioctl",
            "select",
            "bind",
        ] {
            assert!(c.records_kind(kind), "{kind} must be in the paper's set");
        }
        assert!(c.record_pipe_rw);
        assert!(!c.record_file_rw);
        assert!(!c.ignore_ioctl);
    }

    #[test]
    fn games_config_ignores_ioctl() {
        assert!(SparseConfig::games().ignore_ioctl);
    }

    #[test]
    fn with_without_modify_set() {
        let c = SparseConfig::none().with("recv");
        assert!(c.records_kind("recv"));
        assert_eq!(c.recorded_len(), 1);
        let c = c.without("recv");
        assert!(!c.records_kind("recv"));
    }

    #[test]
    fn comprehensive_is_superset() {
        let c = SparseConfig::comprehensive();
        assert!(c.records_kind("open"));
        assert!(c.record_file_rw);
    }

    #[test]
    fn access_plan_rules_on_labels_and_array_cells() {
        let plan = AccessPlan::new(
            ["cell".to_owned()],
            ["cell".to_owned(), "scratch".to_owned(), "slots".to_owned()],
        );
        assert_eq!(plan.decide("cell"), PlanDecision::Record);
        assert_eq!(plan.decide("scratch"), PlanDecision::Filtered);
        assert_eq!(plan.decide("slots[3]"), PlanDecision::Filtered);
        assert_eq!(plan.decide("cell[0]"), PlanDecision::Record);
        assert_eq!(plan.decide("mystery"), PlanDecision::Unplanned);
        assert_eq!(plan.recorded_len(), 1);
        assert_eq!(plan.known_len(), 3);
    }

    #[test]
    fn access_plan_known_is_superset_of_record() {
        let plan = AccessPlan::new(["hot".to_owned()], []);
        assert_eq!(plan.decide("hot"), PlanDecision::Record);
        assert_eq!(plan.known_len(), 1);
    }

    #[test]
    fn with_access_plan_implies_access_trace() {
        let c = Config::new(Mode::Tsan11Rec(Strategy::Queue))
            .with_access_plan(AccessPlan::new(["cell".to_owned()], []));
        let spec = c.trace.expect("tracing on");
        assert!(spec.sync && spec.access);
        let plan = c.access_plan.as_ref().expect("plan armed");
        assert_eq!(plan.decide("cell"), PlanDecision::Record);
    }

    #[test]
    fn config_builders() {
        let c = Config::new(Mode::Tsan11Rec(Strategy::Queue))
            .with_seeds([1, 2])
            .without_reports()
            .without_liveness()
            .with_signal_target(2);
        assert_eq!(c.seeds, Some([1, 2]));
        assert!(!c.report_races);
        assert!(c.liveness.is_none());
        assert_eq!(c.signal_target, 2);
        assert!(c.trace.is_none(), "tracing is off by default");
        let schedule = TraceSpec {
            schedule: true,
            ..TraceSpec::default()
        };
        let traced = c.with_trace(schedule);
        assert_eq!(traced.trace, Some(schedule));
    }

    #[test]
    fn access_trace_keeps_sync_and_access_and_merges() {
        let c = Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_access_trace();
        assert_eq!(
            c.trace,
            Some(TraceSpec {
                schedule: false,
                sync: true,
                access: true,
            }),
            "the preset leaves the schedule class out"
        );
        let c = c.with_trace(TraceSpec {
            schedule: true,
            ..TraceSpec::default()
        });
        let spec = c.trace.unwrap();
        assert!(spec.schedule && spec.sync && spec.access, "classes add up");
        let t = c.with_race_target("x", 2, 1);
        assert_eq!(t.race_target, Some(("x".to_owned(), 2, 1)));
    }
}

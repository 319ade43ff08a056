//! Execution reports.

use std::time::Duration;

use srr_analysis::{Finding, SyncTrace};
use srr_obs::ObsReport;
use srr_racedet::RaceReport;
use srr_replay::{HardDesync, SoftDesync};

/// Scheduler wakeup accounting (§3.1's `Wait()`/`Tick()` protocol).
///
/// The counters make the cost of the wakeup mechanism observable: a
/// broadcast-based scheduler wakes every parked thread per tick (most of
/// which go back to sleep — `spurious_wakeups`), while the targeted
/// parking-slot design wakes exactly the chosen thread, so
/// `wakeups_issued` stays bounded by `ticks` plus the genuine broadcast
/// points (`broadcasts`: shutdown/failure and replay-stall recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Critical sections executed (the global tick).
    pub ticks: u64,
    /// Targeted (single-thread) wakeups issued by the scheduler.
    pub wakeups_issued: u64,
    /// Broadcast wakeups (every parked thread notified at once).
    pub broadcasts: u64,
    /// Times a thread woke inside `Wait()` and found itself ineligible,
    /// going back to sleep. The thundering-herd cost, directly.
    pub spurious_wakeups: u64,
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program ran to completion.
    Completed,
    /// All live threads were disabled: a program deadlock (preserved, not
    /// masked — §3.2).
    Deadlock,
    /// Replay could not enforce a demo constraint (§4).
    HardDesync(HardDesync),
    /// A program thread panicked.
    Panicked(String),
}

impl Outcome {
    /// Whether the run completed normally.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Completed)
    }
}

/// Everything measured about one execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// How the execution ended.
    pub outcome: Outcome,
    /// Distinct data races detected.
    pub races: u64,
    /// Materialized race reports (empty when reporting was disabled).
    pub race_reports: Vec<RaceReport>,
    /// Race firings suppressed as duplicates of an already-reported
    /// (location, thread-pair, access-kind) site.
    pub suppressed: u64,
    /// Pair-targeted checking (`Config::with_race_target`): whether the
    /// armed (location, thread-pair) raced. `None` when no target was
    /// armed.
    pub race_target_hit: Option<bool>,
    /// Critical sections executed (0 in uncontrolled modes — see
    /// `visible_ops`).
    pub ticks: u64,
    /// Visible operations (ticks in controlled modes).
    pub visible_ops: u64,
    /// Virtual syscalls issued.
    pub syscalls: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Raw console output (fd 1/2) — the observable surface compared for
    /// soft desynchronisation.
    pub console: Vec<u8>,
    /// Serialized demo size in bytes, when the run recorded one.
    pub demo_bytes: Option<usize>,
    /// Replay-only: SYSCALL entries left unconsumed at exit (a nonzero
    /// value usually accompanies soft desynchronisation).
    pub replay_leftover_syscalls: usize,
    /// vOS strace log (only when the vOS was configured with strace).
    pub strace: Vec<String>,
    /// The run's event log: every event of the classes
    /// `Config::with_trace` kept, once, in emission order (empty when
    /// tracing was off). [`ExecReport::tick_trace`] is its schedule.
    pub sync_trace: SyncTrace,
    /// Scheduler wakeup counters (zeroed in uncontrolled modes).
    pub sched: SchedCounters,
    /// Observability report: tick histograms from the schedule class of
    /// `sync_trace`, stream counters whenever the run recorded or
    /// replayed a demo, and desync diagnostics.
    pub obs: ObsReport,
    /// Access-plan accounting (`Config::with_access_plan`); all-zero when
    /// no plan was armed.
    pub plan: PlanCounters,
}

/// What the access plan did during one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Plain-access locations that consulted the plan at construction.
    pub sites: u64,
    /// `PlainAccess` events suppressed from the event log.
    pub filtered_events: u64,
    /// Labels the plan had never seen (recorded fail-open, sorted).
    /// Nonempty means the plan is stale relative to the workload.
    pub unplanned: Vec<String>,
}

impl PlanCounters {
    /// Whether the run hit labels the plan does not cover.
    #[must_use]
    pub fn is_stale(&self) -> bool {
        !self.unplanned.is_empty()
    }
}

impl ExecReport {
    /// Console contents as UTF-8 (lossy).
    #[must_use]
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// The schedule: `(tid, tick)` of every completed `Tick()`, in tick
    /// order, from the event log (empty unless the schedule class was
    /// traced).
    #[must_use]
    pub fn tick_trace(&self) -> Vec<(u32, u64)> {
        self.sync_trace.tick_order()
    }

    /// Findings of the offline analysis passes (`srr-analysis`:
    /// deadlock prediction, then the misuse lints) over `sync_trace`;
    /// none unless it kept sync events. Computed on each call, for the
    /// callers that read them.
    #[must_use]
    pub fn analysis(&self) -> Vec<Finding> {
        if self.sync_trace.sync_events().next().is_some() {
            srr_analysis::analyze(&self.sync_trace)
        } else {
            Vec::new()
        }
    }

    /// Whether any data race was detected.
    #[must_use]
    pub fn racy(&self) -> bool {
        self.races > 0
    }

    /// The hard desynchronisation, if the outcome was one.
    #[must_use]
    pub fn desync(&self) -> Option<&HardDesync> {
        match &self.outcome {
            Outcome::HardDesync(d) => Some(d),
            _ => None,
        }
    }
}

/// Classifies observable divergence between two runs — the paper's *soft
/// desynchronisation*: no constraint was violated, but console output
/// differs.
#[must_use]
pub fn soft_desync(recorded: &ExecReport, replayed: &ExecReport) -> bool {
    recorded.console != replayed.console
}

/// Builds a diagnosable [`SoftDesync`] for a divergent replay, or `None`
/// when the consoles match. Names the CONSOLE surface and the byte offset
/// of the first divergence, and adds leftover-syscall context when the
/// replay also left SYSCALL entries unconsumed.
#[must_use]
pub fn soft_desync_report(recorded: &ExecReport, replayed: &ExecReport) -> Option<SoftDesync> {
    if !soft_desync(recorded, replayed) {
        return None;
    }
    let offset = recorded
        .console
        .iter()
        .zip(replayed.console.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| recorded.console.len().min(replayed.console.len()));
    let mut context = vec![format!(
        "recorded console {} bytes, replayed {} bytes",
        recorded.console.len(),
        replayed.console.len()
    )];
    if replayed.replay_leftover_syscalls > 0 {
        context.push(format!(
            "{} SYSCALL entries left unconsumed at exit",
            replayed.replay_leftover_syscalls
        ));
    }
    Some(
        SoftDesync::new(replayed.ticks, "console output diverged")
            .with_stream("CONSOLE", offset as u64)
            .with_context(context),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcome: Outcome, console: &[u8]) -> ExecReport {
        ExecReport {
            outcome,
            races: 0,
            race_reports: vec![],
            suppressed: 0,
            race_target_hit: None,
            ticks: 0,
            visible_ops: 0,
            syscalls: 0,
            duration: Duration::ZERO,
            console: console.to_vec(),
            demo_bytes: None,
            replay_leftover_syscalls: 0,
            strace: Vec::new(),
            sync_trace: SyncTrace::default(),
            sched: SchedCounters::default(),
            obs: ObsReport::default(),
            plan: PlanCounters::default(),
        }
    }

    #[test]
    fn outcome_classification() {
        assert!(Outcome::Completed.is_ok());
        assert!(!Outcome::Deadlock.is_ok());
        let r = report(Outcome::Completed, b"hi");
        assert!(!r.racy());
        assert!(r.desync().is_none());
        assert_eq!(r.console_text(), "hi");
    }

    #[test]
    fn desync_accessor() {
        let d = HardDesync::new(1, "c", "e", "a");
        let r = report(Outcome::HardDesync(d.clone()), b"");
        assert_eq!(r.desync(), Some(&d));
    }

    #[test]
    fn tick_trace_reads_the_tick_ends() {
        use srr_obs::{EventKind, ObsEvent, ObsOp};
        let mut r = report(Outcome::Completed, b"");
        let ev = |tid, tick, kind| ObsEvent { tid, tick, kind };
        let end = EventKind::TickEnd {
            dur_nanos: 0,
            op: ObsOp::Other,
        };
        r.sync_trace.events = vec![
            ev(0, 1, EventKind::TickBegin),
            ev(0, 1, end),
            ev(1, 2, EventKind::TickBegin),
            ev(1, 2, EventKind::MutexAcquire { mutex: 0 }),
            ev(1, 2, end),
        ];
        assert_eq!(r.tick_trace(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn soft_desync_compares_consoles() {
        let a = report(Outcome::Completed, b"one");
        let b = report(Outcome::Completed, b"two");
        let c = report(Outcome::Completed, b"one");
        assert!(soft_desync(&a, &b));
        assert!(!soft_desync(&a, &c));
    }

    #[test]
    fn soft_desync_report_names_console_offset() {
        let a = report(Outcome::Completed, b"shared-prefix-AAA");
        let mut b = report(Outcome::Completed, b"shared-prefix-BBB");
        b.replay_leftover_syscalls = 3;
        let d = soft_desync_report(&a, &b).expect("diverged");
        assert_eq!(d.stream, "CONSOLE");
        assert_eq!(d.offset, 14, "first differing byte");
        assert!(d.context.iter().any(|l| l.contains("3 SYSCALL")), "{d:?}");
        assert!(soft_desync_report(&a, &a.clone()).is_none());
        // Pure-truncation divergence points at the shorter length.
        let short = report(Outcome::Completed, b"shared");
        let d = soft_desync_report(&a, &short).expect("diverged");
        assert_eq!(d.offset, 6);
    }
}

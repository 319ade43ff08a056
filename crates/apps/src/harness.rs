//! The paper's tool configurations and measurement helpers.

use std::fmt;
use std::time::Duration;

use srr_rr::{rr_config, tsan11_under_rr_config, RrOptions};
use tsan11rec::{Config, Demo, ExecReport, Execution, Mode, SchedCounters, Strategy};

/// One of the paper's tool configurations (§5's table columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// Uninstrumented execution.
    Native,
    /// tsan11: race detection, OS scheduling.
    Tsan11,
    /// Plain rr: sequentialized comprehensive record, no analysis.
    Rr,
    /// tsan11-instrumented code under rr.
    Tsan11Rr,
    /// tsan11rec with the random strategy, recording off.
    Rnd,
    /// tsan11rec with the queue strategy, recording off.
    Queue,
    /// `rnd + rec`.
    RndRec,
    /// `queue + rec`.
    QueueRec,
    /// PCT-style skewed random (§7 future work; ablation A4).
    Pct,
    /// Delay bounding (§7 future work; ablation A4).
    Delay,
}

impl Tool {
    /// All configurations in the paper's usual column order.
    pub const ALL: [Tool; 10] = [
        Tool::Native,
        Tool::Tsan11,
        Tool::Rr,
        Tool::Tsan11Rr,
        Tool::Rnd,
        Tool::Queue,
        Tool::RndRec,
        Tool::QueueRec,
        Tool::Pct,
        Tool::Delay,
    ];

    /// The label used in the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tool::Native => "native",
            Tool::Tsan11 => "tsan11",
            Tool::Rr => "rr",
            Tool::Tsan11Rr => "tsan11 + rr",
            Tool::Rnd => "rnd",
            Tool::Queue => "queue",
            Tool::RndRec => "rnd + rec",
            Tool::QueueRec => "queue + rec",
            Tool::Pct => "pct",
            Tool::Delay => "delay",
        }
    }

    /// Whether this configuration records a demo.
    #[must_use]
    pub fn records(self) -> bool {
        matches!(
            self,
            Tool::Rr | Tool::Tsan11Rr | Tool::RndRec | Tool::QueueRec
        )
    }

    /// The tool configuration for the given seeds.
    #[must_use]
    pub fn config(self, seeds: [u64; 2]) -> Config {
        match self {
            Tool::Native => Config::new(Mode::Native).with_seeds(seeds),
            Tool::Tsan11 => Config::new(Mode::Tsan11).with_seeds(seeds),
            Tool::Rr => {
                let mut c = rr_config(RrOptions::default());
                c.seeds = Some(seeds);
                c
            }
            Tool::Tsan11Rr => {
                let mut c = tsan11_under_rr_config(RrOptions::default());
                c.seeds = Some(seeds);
                c
            }
            Tool::Rnd | Tool::RndRec => {
                Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds(seeds)
            }
            Tool::Queue | Tool::QueueRec => {
                Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds(seeds)
            }
            Tool::Pct => {
                Config::new(Mode::Tsan11Rec(Strategy::Pct { switch_denom: 8 })).with_seeds(seeds)
            }
            Tool::Delay => Config::new(Mode::Tsan11Rec(Strategy::Delay {
                budget: 3,
                denom: 16,
            }))
            .with_seeds(seeds),
        }
    }
}

impl fmt::Display for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The PRNG seed pair the CLI, the explore farm and the tests derive
/// from one user-facing seed.
#[must_use]
pub fn seed_pair(seed: u64) -> [u64; 2] {
    [seed, seed.wrapping_mul(0x9E37) + 1]
}

/// The outcome of one measured run.
#[derive(Debug)]
pub struct RunResult {
    /// The execution report.
    pub report: ExecReport,
    /// The demo, when the tool records.
    pub demo: Option<Demo>,
}

/// Runs `program` once under `tool`, recording when the tool does.
pub fn run_tool<F>(
    tool: Tool,
    seeds: [u64; 2],
    setup: impl FnOnce(&tsan11rec::vos::Vos) + Send + 'static,
    program: F,
) -> RunResult
where
    F: FnOnce() + Send + 'static,
{
    let exec = Execution::new(tool.config(seeds)).setup(setup);
    if tool.records() {
        let (report, demo) = exec.record(program);
        RunResult {
            report,
            demo: Some(demo),
        }
    } else {
        RunResult {
            report: exec.run(program),
            demo: None,
        }
    }
}

/// Summary statistics over repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes statistics over `samples` (non-empty).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    #[must_use]
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "stats need at least one sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let q = |p: f64| -> f64 {
            let idx = p * (n - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
            }
        };
        Stats {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            p25: q(0.25),
            median: q(0.5),
            p75: q(0.75),
            max: sorted[n - 1],
        }
    }

    /// Coefficient of variation (stddev / mean); the paper remarks on it
    /// for every table.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Milliseconds of a duration as f64 (table-friendly).
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// Demo-stream totals summed over repeated runs of one benchmark cell
/// (entries per stream plus serialized demo bytes), for the
/// `BENCH_*.json` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Serialized demo bytes.
    pub demo_bytes: u64,
    /// QUEUE stream entries.
    pub queue_entries: u64,
    /// SYSCALL stream entries.
    pub syscall_entries: u64,
    /// SIGNAL stream entries.
    pub signal_entries: u64,
    /// ASYNC stream entries.
    pub async_entries: u64,
}

/// Accumulates scheduler wakeup counters and demo-stream totals over
/// repeated runs of one benchmark cell, for the `BENCH_*.json` reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedTotals {
    sum: SchedCounters,
    streams: StreamTotals,
    saw_streams: bool,
    runs: u64,
}

impl SchedTotals {
    /// Folds one run's counters in.
    pub fn add(&mut self, report: &ExecReport) {
        self.sum.ticks += report.sched.ticks;
        self.sum.wakeups_issued += report.sched.wakeups_issued;
        self.sum.broadcasts += report.sched.broadcasts;
        self.sum.spurious_wakeups += report.sched.spurious_wakeups;
        if let Some(bytes) = report.demo_bytes {
            self.streams.demo_bytes += bytes as u64;
        }
        for s in &report.obs.streams {
            self.saw_streams = true;
            match s.stream.as_str() {
                "QUEUE" => self.streams.queue_entries += s.entries,
                "SYSCALL" => self.streams.syscall_entries += s.entries,
                "SIGNAL" => self.streams.signal_entries += s.entries,
                "ASYNC" => self.streams.async_entries += s.entries,
                _ => {}
            }
        }
        self.runs += 1;
    }

    /// Summed counters across all folded runs.
    #[must_use]
    pub fn total(&self) -> SchedCounters {
        self.sum
    }

    /// Summed demo-stream totals, `None` when no folded run recorded or
    /// replayed a demo.
    #[must_use]
    pub fn streams(&self) -> Option<StreamTotals> {
        self.saw_streams.then_some(self.streams)
    }

    /// Whether any folded run actually exercised the scheduler.
    #[must_use]
    pub fn any(&self) -> bool {
        self.runs > 0 && self.sum.ticks > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_labels_match_the_paper() {
        assert_eq!(Tool::Tsan11Rr.label(), "tsan11 + rr");
        assert_eq!(Tool::RndRec.label(), "rnd + rec");
        assert_eq!(Tool::ALL.len(), 10);
    }

    #[test]
    fn recording_classification() {
        assert!(!Tool::Native.records());
        assert!(!Tool::Rnd.records());
        assert!(Tool::RndRec.records());
        assert!(Tool::Rr.records());
        assert!(Tool::Tsan11Rr.records());
    }

    #[test]
    fn configs_have_expected_modes() {
        assert_eq!(Tool::Native.config([1, 2]).mode, Mode::Native);
        assert_eq!(Tool::Tsan11.config([1, 2]).mode, Mode::Tsan11);
        assert!(matches!(
            Tool::Rnd.config([1, 2]).mode,
            Mode::Tsan11Rec(Strategy::Random)
        ));
        assert!(!Tool::Rr.config([1, 2]).detect_races);
        assert!(Tool::Tsan11Rr.config([1, 2]).detect_races);
    }

    #[test]
    fn run_tool_records_when_asked() {
        let r = run_tool(
            Tool::QueueRec,
            [1, 2],
            |_| {},
            || {
                tsan11rec::sys::println("x");
            },
        );
        assert!(r.demo.is_some());
        let r = run_tool(Tool::Queue, [1, 2], |_| {}, || {});
        assert!(r.demo.is_none());
    }

    #[test]
    fn stats_basic() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-9);
        assert!(s.cv() > 0.0);
    }

    #[test]
    fn stats_single_sample() {
        let s = Stats::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.p25, 7.0);
        assert_eq!(s.p75, 7.0);
    }

    #[test]
    fn ms_converts() {
        assert!((ms(Duration::from_millis(250)) - 250.0).abs() < 1e-9);
    }
}

//! Causal-profiler overhead: what `srr profile` costs on top of a plain
//! replay, and what an attached metrics registry costs a normal run.
//! Emits `BENCH_profile.json` for the CI gate (`ci/check_profile.sh`).
//!
//! Three measurements over the httpd-sim workload:
//!
//! * **plain replay** — the demo replayed with every trace plane off
//!   (the baseline `srr replay` path);
//! * **profiled replay** — the same demo with the schedule and sync
//!   classes traced, plus the critical-path walk itself (the full
//!   `srr profile` path). The gate
//!   bounds profiled/plain: profiling is a diagnostic replay, not a tax
//!   on recording;
//! * **metrics on/off** — a normal controlled run with and without
//!   `Config::with_metrics`. The registry handles are single atomic
//!   bumps, so the gate pins this ratio near 1.

use std::sync::Arc;
use std::time::Instant;

use srr_apps::httpd;
use srr_bench::report::{BenchReport, BenchRow, Json};
use srr_bench::{banner, bench_runs, Stats, TablePrinter, Tool};
use srr_obs::MetricsRegistry;
use tsan11rec::vos::Vos;
use tsan11rec::{Demo, Execution, TraceSpec};

fn httpd_setup(vos: &Vos) {
    (httpd::world(httpd::HttpdParams::default()))(vos);
}

fn httpd_program() {
    (httpd::server(httpd::HttpdParams::default()))();
}

fn record_demo() -> Demo {
    let config = Tool::QueueRec.config([3, 3 * 0x9E37 + 1]);
    let (report, demo) = Execution::new(config)
        .setup(httpd_setup)
        .record(httpd_program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    demo
}

/// One plain replay; returns elapsed ms.
fn replay_plain(demo: &Demo) -> f64 {
    let config = Tool::QueueRec.config(demo.header.seeds);
    let t = Instant::now();
    let report = Execution::new(config)
        .setup(httpd_setup)
        .replay(demo, httpd_program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    t.elapsed().as_secs_f64() * 1e3
}

/// One fully profiled replay (schedule and sync classes traced, plus the
/// critical-path walk); returns elapsed ms.
fn replay_profiled(demo: &Demo) -> f64 {
    let config = Tool::QueueRec
        .config(demo.header.seeds)
        .with_trace(TraceSpec {
            sync: true,
            ..TraceSpec::SCHEDULE
        });
    let t = Instant::now();
    let report = Execution::new(config)
        .setup(httpd_setup)
        .replay(demo, httpd_program);
    let prof = srr_obs::profile(&report.sync_trace);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert_eq!(
        prof.attributed_ticks(),
        prof.total_ticks,
        "profiler exactness invariant"
    );
    ms
}

/// One controlled run, optionally with the metrics plane attached;
/// returns elapsed ms.
fn run_once(metrics: bool) -> f64 {
    let mut config = Tool::Queue.config([7, 8]);
    if metrics {
        config = config.with_metrics(Arc::new(MetricsRegistry::new()));
    }
    let t = Instant::now();
    let report = Execution::new(config).setup(httpd_setup).run(httpd_program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    t.elapsed().as_secs_f64() * 1e3
}

fn measure(reps: usize, mut f: impl FnMut() -> f64) -> Stats {
    // One warm-up rep keeps allocator/page-cache noise out of the mean.
    let _ = f();
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    Stats::of(&samples)
}

fn main() {
    let reps = bench_runs(10);
    banner(&format!(
        "Causal profiler overhead: httpd-sim, {reps} rep(s)"
    ));
    let mut report = BenchReport::new("profile", "causal profiler overhead", reps, 1);
    let demo = record_demo();

    let table = TablePrinter::new(&["measurement", "mean ms", "sd", "ratio"], &[30, 10, 8, 8]);

    let plain = measure(reps, || replay_plain(&demo));
    table.row(&[
        "plain replay",
        &format!("{:.2}", plain.mean),
        &format!("{:.2}", plain.stddev),
        "1.00",
    ]);
    report.push(BenchRow::from_stats(
        "httpd replay",
        "plain",
        "ms",
        false,
        &plain,
    ));

    let profiled = measure(reps, || replay_profiled(&demo));
    let profile_ratio = profiled.mean / plain.mean.max(1e-9);
    table.row(&[
        "profiled replay + walk",
        &format!("{:.2}", profiled.mean),
        &format!("{:.2}", profiled.stddev),
        &format!("{profile_ratio:.2}"),
    ]);
    report.push(
        BenchRow::from_stats("httpd replay", "profiled", "ms", false, &profiled)
            .with_overhead(profile_ratio),
    );

    let metrics_off = measure(reps, || run_once(false));
    table.row(&[
        "run, metrics off",
        &format!("{:.2}", metrics_off.mean),
        &format!("{:.2}", metrics_off.stddev),
        "1.00",
    ]);
    report.push(BenchRow::from_stats(
        "httpd run",
        "metrics off",
        "ms",
        false,
        &metrics_off,
    ));

    let metrics_on = measure(reps, || run_once(true));
    let metrics_ratio = metrics_on.mean / metrics_off.mean.max(1e-9);
    table.row(&[
        "run, metrics on",
        &format!("{:.2}", metrics_on.mean),
        &format!("{:.2}", metrics_on.stddev),
        &format!("{metrics_ratio:.2}"),
    ]);
    report.push(
        BenchRow::from_stats("httpd run", "metrics on", "ms", false, &metrics_on)
            .with_overhead(metrics_ratio),
    );

    report.note("profile_overhead_ratio", Json::Num(profile_ratio));
    report.note("metrics_overhead_ratio", Json::Num(metrics_ratio));
    println!();
    println!("Shape checks: the profiled replay stays within a small constant factor of");
    println!("the plain one (it adds rings + sync trace + an O(ticks) walk), and the");
    println!("metrics plane is invisible — a handful of relaxed atomics per tick.");
    report.write().expect("writing BENCH_profile.json");
}

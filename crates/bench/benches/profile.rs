//! Causal-profiler overhead: what `srr profile` costs on top of a plain
//! replay, and what an attached metrics registry costs a normal run.
//! Emits `BENCH_profile.json` for the CI gate (`ci/check_profile.sh`).
//!
//! Three measurements over the httpd-sim workload:
//!
//! * **plain replay** — the committed httpd demo (the one
//!   `ci/check_profile.sh` profiles) replayed with every trace plane off
//!   (the baseline `srr replay` path);
//! * **profiled replay** — the same demo with the schedule and sync
//!   classes traced, plus the critical-path walk itself (the full
//!   `srr profile` path). The gate
//!   bounds profiled/plain: profiling is a diagnostic replay, not a tax
//!   on recording;
//! * **metrics on/off** — a normal controlled run with and without
//!   `Config::with_metrics`, under the random strategy at fixed seeds
//!   (a queue run's schedule, and so its length, follows thread
//!   arrival). The registry handles are single atomic bumps, so the
//!   gate pins this ratio near 1.
//!
//! Each ratio is the median over alternating pairs (plain then
//! profiled, off then on), not a mean of one block over a mean of a
//! later one: the two runs of a pair see the same moment of the host's
//! load, so a slow phase moves both and cancels in their ratio. Runs go
//! without the liveness thread: reaping it waits out its 10 ms sleep,
//! which would round every sample up to a multiple of 10 ms and make a
//! ratio read 1, 2 or 3 by where a run happened to end.

use std::path::Path;
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

/// The committed httpd demo `srr profile` is checked on. A fresh queue
/// recording follows thread arrival order, and replays of two
/// recordings may take 1 ms or 6 ms: one demo for every run keeps the
/// ratio about the profiler, not the schedule.
fn fixture_demo() -> Demo {
    let dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../apps/tests/fixtures/profile/httpd_demo"
    );
    Demo::load_dir(Path::new(dir)).expect("the committed httpd demo loads")
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One plain replay; returns elapsed ms.
fn replay_plain(demo: &Demo) -> f64 {
    let config = Tool::QueueRec.config(demo.header.seeds).without_liveness();
    let t = Instant::now();
    let report = Execution::new(config)
        .setup(httpd_setup)
        .replay(demo, httpd_program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    ms_since(t)
}

/// One fully profiled replay (schedule and sync classes traced, plus the
/// critical-path walk); returns elapsed ms.
fn replay_profiled(demo: &Demo) -> f64 {
    let config = Tool::QueueRec
        .config(demo.header.seeds)
        .without_liveness()
        .with_trace(TraceSpec {
            sync: true,
            ..TraceSpec::SCHEDULE
        });
    let t = Instant::now();
    let report = Execution::new(config)
        .setup(httpd_setup)
        .replay(demo, httpd_program);
    let prof = srr_obs::profile(&report.sync_trace);
    let ms = ms_since(t);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert_eq!(
        prof.attributed_ticks(),
        prof.total_ticks,
        "profiler exactness invariant"
    );
    ms
}

/// One seeded random-strategy run, optionally with the metrics plane
/// attached; returns elapsed ms.
fn run_once(metrics: bool) -> f64 {
    let mut config = Tool::Rnd.config([7, 8]).without_liveness();
    if metrics {
        config = config.with_metrics(Arc::new(MetricsRegistry::new()));
    }
    let t = Instant::now();
    let report = Execution::new(config).setup(httpd_setup).run(httpd_program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    ms_since(t)
}

/// Times `base` and `other` alternately, `reps` pairs after one warm-up
/// pair (which keeps allocator and page-cache noise out). Returns the
/// samples of each and the median of the per-pair ratios other/base.
fn paired(
    reps: usize,
    mut base: impl FnMut() -> f64,
    mut other: impl FnMut() -> f64,
) -> (Stats, Stats, f64) {
    let _ = (base(), other());
    let (mut xs, mut ys, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (x, y) = (base(), other());
        xs.push(x);
        ys.push(y);
        ratios.push(y / x.max(1e-9));
    }
    (Stats::of(&xs), Stats::of(&ys), Stats::of(&ratios).median)
}

fn main() {
    let reps = bench_runs(10);
    banner(&format!(
        "Causal profiler overhead: httpd-sim, {reps} rep(s)"
    ));
    let mut report = BenchReport::new("profile", "causal profiler overhead", reps, 1);
    let demo = fixture_demo();

    let table = TablePrinter::new(
        &["measurement", "mean ms", "sd", "pair ratio"],
        &[30, 10, 8, 10],
    );

    let (plain, profiled, profile_ratio) =
        paired(reps, || replay_plain(&demo), || replay_profiled(&demo));
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

    let (metrics_off, metrics_on, metrics_ratio) =
        paired(reps, || run_once(false), || run_once(true));
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

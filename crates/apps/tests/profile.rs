//! End-to-end tests of the causal profiler and the unified metrics
//! plane through the real `srr` binary and the library API:
//!
//! * `srr profile --json` over the committed httpd demo is byte-identical
//!   across runs, its bucket totals sum exactly to the tick count, and
//!   its ranking matches `fixtures/cli/profile_expected.txt`
//!   (`UPDATE_GOLDEN=1` regenerates it);
//! * `-o`/`--folded` route output to files and leave stdout clean;
//! * `srr explore --metrics-out` leaves metrics.json + metrics.prom;
//! * `Config::with_metrics` publishes scheduler counters and vOS gauges
//!   onto a caller-owned registry;
//! * `PredictReport::publish_metrics` mirrors the prediction totals.

mod common;

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use srr_apps::harness::Tool;
use srr_obs::MetricsRegistry;
use srr_predict::Classification;
use tsan11rec::obs::Json;
use tsan11rec::Execution;

fn srr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srr"))
}

fn fixture_demo() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/profile/httpd_demo"
    )
    .to_owned()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("srr-profile-{tag}-{}", std::process::id()))
}

#[test]
fn profile_json_is_exact_ranked_and_byte_identical() {
    let run = || {
        srr()
            .args(["profile", "httpd", "--demo", &fixture_demo(), "--json"])
            .output()
            .expect("srr profile runs")
    };
    let a = run();
    assert!(
        a.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    let b = run();
    assert_eq!(a.stdout, b.stdout, "profile --json must be byte-identical");

    let doc = Json::parse(std::str::from_utf8(&a.stdout).unwrap()).expect("valid JSON");
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{k}"))
    };
    let total = num("total_ticks");
    assert!(total > 0.0, "replay produced ticks");
    assert_eq!(num("attributed_ticks"), total, "no tick goes unattributed");
    assert!(num("segments") > 0.0);

    let buckets = doc
        .get("buckets")
        .and_then(Json::as_array)
        .expect("buckets array");
    assert!(!buckets.is_empty());
    let ticks: Vec<f64> = buckets
        .iter()
        .map(|b| b.get("ticks").and_then(Json::as_f64).expect("ticks"))
        .collect();
    // The exactness invariant: the telescoping critical-path walk means
    // bucket totals partition the replay's tick count.
    assert_eq!(ticks.iter().sum::<f64>(), total, "buckets partition ticks");
    assert!(
        ticks.windows(2).all(|w| w[0] >= w[1]),
        "buckets ranked by ticks: {ticks:?}"
    );
    let shares: f64 = buckets
        .iter()
        .map(|b| b.get("share").and_then(Json::as_f64).expect("share"))
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1, got {shares}");
    // The ranking is in logical time only, so it is exact: a drift means
    // the attribution rules or the replay itself changed.
    let ranking: String = buckets
        .iter()
        .zip(&ticks)
        .map(|(b, t)| {
            format!(
                "{} {t}\n",
                b.get("name").and_then(Json::as_str).expect("name")
            )
        })
        .collect();
    common::assert_golden("profile_expected.txt", &ranking);
}

#[test]
fn profile_output_flags_route_to_files() {
    let dir = scratch("out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("prof.txt");
    let folded = dir.join("prof.folded");
    let out = srr()
        .args(["profile", "httpd", "--demo", &fixture_demo()])
        .args(["-o", report.to_str().unwrap()])
        .args(["--folded", folded.to_str().unwrap()])
        .output()
        .expect("srr profile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // With `-o` the report lands in the file; stdout stays clean.
    assert!(out.stdout.is_empty(), "stdout clean with -o");
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(text.contains("rank  ticks  share  bucket"), "{text}");
    assert!(text.contains("exact: bucket totals sum to"), "{text}");

    let stacks = std::fs::read_to_string(&folded).expect("folded written");
    assert!(!stacks.is_empty());
    for line in stacks.lines() {
        assert!(line.starts_with("srr;"), "folded frame shape: {line}");
        let count = line.rsplit(' ').next().unwrap();
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("count in {line}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_metrics_out_leaves_a_telemetry_trail() {
    let dir = scratch("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let out = srr()
        .args([
            "explore",
            "barrier",
            "--runs",
            "12",
            "--strategies",
            "queue",
        ])
        .args(["--json", "--metrics-out", dir.to_str().unwrap()])
        .output()
        .expect("srr explore runs");
    assert!(
        matches!(out.status.code(), Some(0 | 2)),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let snap = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json");
    let doc = Json::parse(&snap).expect("valid snapshot JSON");
    let gauge = |k: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(k))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("gauge {k} in {snap}"))
    };
    assert_eq!(gauge("farm_runs"), 12.0);
    assert_eq!(gauge("farm_workers"), 1.0);
    assert!(gauge("farm_findings") >= gauge("farm_distinct_signatures"));

    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    assert!(
        prom.contains("# TYPE farm_runs gauge\nfarm_runs 12\n"),
        "{prom}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_with_metrics_publishes_sched_and_vos_planes() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = Tool::Queue
        .config([1, 2])
        .with_metrics(Arc::clone(&registry));
    let report = Execution::new(config)
        .run(|| (srr_apps::hazards::ab_ba_locks(srr_apps::hazards::AbBaParams::default()))());
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);

    assert_eq!(registry.gauge("run_ticks").get(), report.ticks);
    assert_eq!(registry.gauge("run_visible_ops").get(), report.visible_ops);
    // Both count at the one site that wakes a parked thread. A run
    // where no thread ever parks (the child done before `main` joins)
    // issues none, so the count itself depends on the schedule.
    assert_eq!(
        registry.counter("sched_wakeups_total").get(),
        report.sched.wakeups_issued
    );
    // The vOS plane registers even when the workload never syscalls.
    let snap = registry.snapshot_json();
    assert!(
        snap.get("gauges")
            .and_then(|g| g.get("vos_syscalls"))
            .is_some(),
        "vos gauges registered: {}",
        snap.to_pretty()
    );
}

#[test]
fn predict_report_publishes_metrics() {
    fn no_setup(_: &tsan11rec::vos::Vos) {}
    let prog: fn() = || (srr_apps::hazards::hidden_handoff())();
    let run = srr_apps::predictor::run_prediction_in_world([1, 2], no_setup, move || prog);
    let registry = MetricsRegistry::new();
    run.predictions.publish_metrics(&registry);
    assert_eq!(
        registry.gauge("predict_candidates").get(),
        run.predictions.races.len() as u64
    );
    assert_eq!(
        registry.gauge("predict_confirmed").get(),
        run.predictions.count(Classification::Confirmed) as u64
    );
    assert_eq!(
        registry.gauge("predict_hidden").get(),
        run.predictions.hidden_count() as u64
    );
}

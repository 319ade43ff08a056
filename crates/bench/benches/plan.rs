//! Sparsification-plan quality report: runs the static planner over the
//! hazard corpus, records each workload with and without the resulting
//! access plan, and emits `BENCH_plan.json` with per-workload plain
//! `PlainAccess` event counts (deterministic under the queue strategy —
//! the trajectory CI gates) plus the trace-reduction ratio and the
//! predict pruning/wall-time notes.
//!
//! The reduction must never cost recall: the plan-pruned prediction run
//! is asserted to confirm exactly as many races as the full one. Both
//! grade the committed queue recording of hidden_handoff, so they start
//! from one schedule (a fresh queue recording follows thread arrival
//! order, and two of them may differ).

use std::path::PathBuf;
use std::time::Instant;

use srr_apps::hazards;
use srr_apps::predictor::{replay_prediction, replay_prediction_with};
use srr_bench::report::{BenchReport, BenchRow, Json};
use srr_bench::{banner, seeds_for, Stats, TablePrinter, Tool};
use srr_predict::Classification;
use tsan11rec::vos::Vos;
use tsan11rec::{AccessPlan, Demo, ExecReport, Execution};

fn plain_events(r: &ExecReport) -> usize {
    r.sync_trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, srr_obs::EventKind::PlainAccess { .. }))
        .count()
}

fn main() {
    banner("Static sparsification plan: trace reduction + predict pruning");
    let hazards_rs = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../apps/src/hazards.rs"
    ));
    let static_plan = srr_plan::plan_paths(
        std::slice::from_ref(&hazards_rs),
        &srr_vet::allow::Allowlist::default(),
    )
    .expect("hazards.rs is readable");
    let arm = || AccessPlan::new(static_plan.recorded_labels(), static_plan.known_labels());

    let table = TablePrinter::new(
        &["workload", "events(full)", "events(plan)", "reduction"],
        &[18, 14, 14, 10],
    );
    let mut report = BenchReport::new("plan", "static sparsification plan", 1, 1);

    type Hazard = (&'static str, fn() -> Box<dyn FnOnce() + Send>);
    let suite: [Hazard; 3] = [
        ("hidden_handoff", || Box::new(hazards::hidden_handoff())),
        ("mixed_counter", || Box::new(hazards::mixed_counter())),
        ("planned_local", || Box::new(hazards::planned_local())),
    ];
    let (mut full_total, mut filtered_total) = (0usize, 0usize);
    for (name, make) in suite {
        let full = Execution::new(Tool::Queue.config(seeds_for(7)).with_access_trace()).run(make());
        let planned = Execution::new(
            Tool::Queue
                .config(seeds_for(7))
                .with_access_trace()
                .with_access_plan(arm()),
        )
        .run(make());
        assert!(
            !planned.plan.is_stale(),
            "{name}: plan is stale: {:?}",
            planned.plan.unplanned
        );
        let (f, p) = (plain_events(&full), plain_events(&planned));
        full_total += f;
        filtered_total += p;
        let reduction = if f == 0 {
            0.0
        } else {
            1.0 - p as f64 / f as f64
        };
        table.row(&[
            name,
            &f.to_string(),
            &p.to_string(),
            &format!("{:.0}%", reduction * 100.0),
        ]);
        report.push(BenchRow::from_stats(
            name,
            "queue+trace",
            "plain_events",
            false,
            &Stats::of(&[f as f64]),
        ));
        report.push(BenchRow::from_stats(
            name,
            "queue+plan",
            "plain_events",
            false,
            &Stats::of(&[p as f64]),
        ));
    }

    // Predict under the plan: statically proven labels are pruned before
    // witness synthesis; the verdicts must not change.
    fn no_setup(_: &Vos) {}
    let fixture = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../apps/tests/fixtures/predict/hidden_handoff_queue"
    ));
    let recording = Demo::load_dir(&fixture).expect("the committed hidden_handoff recording");
    let t0 = Instant::now();
    let base = replay_prediction(recording.clone(), hazards::hidden_handoff);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let proven = static_plan.proven_labels();
    let t0 = Instant::now();
    let pruned_run = replay_prediction_with(
        recording,
        no_setup,
        hazards::hidden_handoff,
        Some(arm()),
        |label| !proven.contains(label),
    );
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        base.predictions.count(Classification::Confirmed),
        pruned_run.predictions.count(Classification::Confirmed),
        "pruning must not change the confirmed verdicts"
    );
    report.push(BenchRow::from_stats(
        "hidden_handoff",
        "predict+plan",
        "pruned",
        true,
        &Stats::of(&[pruned_run.predictions.pruned as f64]),
    ));

    let reduction = if full_total == 0 {
        0.0
    } else {
        1.0 - filtered_total as f64 / full_total as f64
    };
    report.note("plain_events_full", Json::Num(full_total as f64));
    report.note("plain_events_plan", Json::Num(filtered_total as f64));
    report.note("event_reduction", Json::Num(reduction));
    report.note("plan_sites", Json::Num(static_plan.sites.len() as f64));
    report.note(
        "recorded_labels",
        Json::Num(static_plan.recorded_labels().len() as f64),
    );
    report.note(
        "proven_labels",
        Json::Num(static_plan.proven_labels().len() as f64),
    );
    report.note("predict_ms_full", Json::Num(full_ms));
    report.note("predict_ms_plan", Json::Num(plan_ms));
    println!(
        "totals: {full_total} plain event(s) full, {filtered_total} under the plan \
         ({:.0}% reduction); predict {full_ms:.1} ms full vs {plan_ms:.1} ms planned \
         ({} candidate(s) pruned)",
        reduction * 100.0,
        pruned_run.predictions.pruned
    );
    report.write().expect("writing BENCH_plan.json");
}

//! End-to-end predictive race detection over a workload.
//!
//! Gluing the layers together: record the workload once under the queue
//! strategy with the access trace on, run `srr-predict`'s weak-order pass
//! and witness synthesis over the recording, then replay every witness
//! demo with the race detector *targeted* at the predicted pair. A
//! prediction is only reported [`Confirmed`](srr_predict::Classification)
//! when its witness replays without hard desync and FastTrack fires at
//! exactly the predicted location and thread pair.

use srr_predict::{classify_with, predict_with, PredictReport, ReplayVerdict};
use srr_replay::Demo;
use tsan11rec::vos::Vos;
use tsan11rec::{AccessPlan, ExecReport, Execution, Outcome};

use crate::harness::Tool;

/// The artifacts of one record→predict→confirm pipeline run.
pub struct PredictionRun {
    /// The recording run's report, or the replay's for
    /// [`replay_prediction`] (its FastTrack pass saw the *observed*
    /// schedule only).
    pub record: ExecReport,
    /// The recorded demo.
    pub demo: Demo,
    /// The graded predictions.
    pub predictions: PredictReport,
}

/// Records `make()` under `queue + rec` with the access trace enabled,
/// predicts races, and replays each synthesized witness to confirm.
/// `make` is called once for the recording and once per witness replay —
/// it must build the same program each time.
pub fn run_prediction<P, F>(seeds: [u64; 2], make: F) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    fn no_setup(_: &Vos) {}
    run_prediction_in_world(seeds, no_setup, make)
}

/// [`run_prediction`] with world state (listeners, devices, signal
/// sources) installed before every run — the recording and each witness
/// replay get a fresh world from the same `setup`.
pub fn run_prediction_in_world<P, F>(seeds: [u64; 2], setup: fn(&Vos), make: F) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    run_prediction_in_world_with(seeds, setup, make, None, |_| true)
}

/// [`run_prediction_in_world`] under an access plan: the recording run
/// arms `plan` (filtering statically proven `PlainAccess` events from
/// the trace), and `keep` filters candidate pairs before witness
/// synthesis (pass a closure rejecting proven labels; see
/// [`srr_predict::predict_with`]). Witness replays run without the plan:
/// replay consumes the demo's schedule/syscall streams only, and the
/// targeted FastTrack check must see every access.
pub fn run_prediction_in_world_with<P, F>(
    seeds: [u64; 2],
    setup: fn(&Vos),
    make: F,
    plan: Option<AccessPlan>,
    keep: impl Fn(&str) -> bool,
) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    let (record, demo) = Execution::new(traced(seeds, plan))
        .setup(setup)
        .record(make());
    confirm(record, demo, setup, &make, keep)
}

/// [`run_prediction`] from a queue demo recorded before: its replay,
/// with the access trace on, stands in for the recording. A queue
/// recording follows the host's thread arrival order, so this is how a
/// prediction starts from one fixed schedule.
pub fn replay_prediction<P, F>(demo: Demo, make: F) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    fn no_setup(_: &Vos) {}
    replay_prediction_with(demo, no_setup, make, None, |_| true)
}

/// [`replay_prediction`] with a world `setup`, an access `plan` armed
/// on the replay and a `keep` filter, as [`run_prediction_in_world_with`]
/// takes them.
pub fn replay_prediction_with<P, F>(
    demo: Demo,
    setup: fn(&Vos),
    make: F,
    plan: Option<AccessPlan>,
    keep: impl Fn(&str) -> bool,
) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    let record = Execution::new(traced(demo.header.seeds, plan))
        .setup(setup)
        .replay(&demo, make());
    confirm(record, demo, setup, &make, keep)
}

/// The queue strategy with the access trace on, and `plan` armed.
fn traced(seeds: [u64; 2], plan: Option<AccessPlan>) -> tsan11rec::Config {
    let config = Tool::Queue.config(seeds).with_access_trace();
    match plan {
        Some(plan) => config.with_access_plan(plan),
        None => config,
    }
}

/// Predicts races over `record`'s trace of `demo`'s schedule, and
/// replays each synthesized witness to confirm it.
fn confirm<P, F>(
    record: ExecReport,
    demo: Demo,
    setup: fn(&Vos),
    make: &F,
    keep: impl Fn(&str) -> bool,
) -> PredictionRun
where
    F: Fn() -> P,
    P: FnOnce() + Send + 'static,
{
    let seeds = demo.header.seeds;
    let mut predictions = predict_with(&record.sync_trace, &demo, keep);
    classify_with(&mut predictions, |race, witness| {
        let cfg =
            Tool::Queue
                .config(seeds)
                .with_race_target(&race.loc_label, race.tids.0, race.tids.1);
        let report = Execution::new(cfg).setup(setup).replay(witness, make());
        ReplayVerdict {
            hard_desync: matches!(report.outcome, Outcome::HardDesync(_)),
            target_hit: report.race_target_hit.unwrap_or(false),
        }
    });
    PredictionRun {
        record,
        demo,
        predictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazards::{self, hidden_handoff_recording};
    use srr_predict::Classification;

    #[test]
    fn hidden_handoff_is_predicted_and_confirmed() {
        let run = replay_prediction(hidden_handoff_recording(), hazards::hidden_handoff);
        assert_eq!(
            run.record.races, 0,
            "the recorded schedule itself must not race: {:?}",
            run.record.race_reports
        );
        let confirmed: Vec<_> = run
            .predictions
            .races
            .iter()
            .filter(|r| r.classification == Classification::Confirmed)
            .collect();
        assert!(
            !confirmed.is_empty(),
            "the hidden handoff race must be confirmed: {:?}",
            run.predictions
                .races
                .iter()
                .map(|r| (r.loc_label.clone(), r.classification))
                .collect::<Vec<_>>()
        );
        let race = confirmed[0];
        assert_eq!(race.loc_label, "cell");
        assert!(race.hidden, "the observed order hides the pair");
        assert!(race.witness.is_some());
    }

    #[test]
    fn plan_pruned_prediction_keeps_the_verdicts() {
        fn no_setup(_: &Vos) {}
        fn grades(run: &PredictionRun) -> Vec<(String, srr_predict::Classification)> {
            let mut v: Vec<_> = run
                .predictions
                .races
                .iter()
                .map(|r| (r.loc_label.clone(), r.classification))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }
        /// Both predictions start from `demo`'s one schedule: plan
        /// filtering must not change a verdict, whichever schedule that is.
        /// Returns the plain events the plan filtered from the trace.
        fn check<P, F>(name: &str, demo: Demo, make: F) -> u64
        where
            F: Fn() -> P,
            P: FnOnce() + Send + 'static,
        {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
            let report = srr_plan::plan_paths(&[path], &srr_vet::allow::Allowlist::default())
                .expect("hazards.rs is readable");
            let proven = report.proven_labels();
            let plan = AccessPlan::new(report.recorded_labels(), report.known_labels());
            let base = replay_prediction(demo.clone(), &make);
            let planned = replay_prediction_with(demo, no_setup, &make, Some(plan), |label| {
                !proven.contains(label)
            });
            assert_eq!(
                grades(&base),
                grades(&planned),
                "{name}: plan-filtered prediction must grade identically"
            );
            assert!(
                !planned.record.plan.is_stale(),
                "{name}: {:?}",
                planned.record.plan.unplanned
            );
            planned.record.plan.filtered_events
        }
        fn recorded<P: FnOnce() + Send + 'static>(program: P) -> Demo {
            let config = Tool::Queue.config([7, 11]).with_access_trace();
            Execution::new(config).record(program).1
        }
        let filtered = check(
            "hidden_handoff",
            hidden_handoff_recording(),
            hazards::hidden_handoff,
        );
        assert!(
            filtered > 0,
            "the plan filters hidden_handoff's proven sites"
        );
        check(
            "atomic_guard",
            recorded(hazards::atomic_guard()),
            hazards::atomic_guard,
        );
        check(
            "mixed_counter",
            recorded(hazards::mixed_counter()),
            hazards::mixed_counter,
        );
    }

    #[test]
    fn atomic_guard_is_classified_infeasible() {
        let run = run_prediction([7, 11], hazards::atomic_guard);
        assert_eq!(run.record.races, 0);
        assert_eq!(
            run.predictions.count(Classification::Confirmed),
            0,
            "no reorder can break the value dependency: {:?}",
            run.predictions
                .races
                .iter()
                .map(|r| (r.loc_label.clone(), r.classification))
                .collect::<Vec<_>>()
        );
        assert!(
            run.predictions.count(Classification::Infeasible) >= 1,
            "the guarded pair must be proved infeasible: {:?}",
            run.predictions
                .races
                .iter()
                .map(|r| (r.loc_label.clone(), r.classification))
                .collect::<Vec<_>>()
        );
    }
}

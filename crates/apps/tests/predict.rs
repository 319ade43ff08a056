//! Integration tests for predictive race detection (`srr-predict` +
//! `srr_apps::predictor`):
//!
//! * golden classifications over the hazard suite — the schedule-hidden
//!   handoff race is CONFIRMED (the recorded run's own FastTrack pass
//!   reports nothing; it starts from a committed queue recording, since
//!   a fresh one follows the host's thread arrival order), the
//!   value-guarded pair is INFEASIBLE;
//! * the committed witness-demo fixture replays and the targeted race
//!   fires at the predicted pair;
//! * synthesized witnesses round-trip through the demo linter and the
//!   serialization codec before replaying (the programmatic builder must
//!   produce demos `srr lint-demo` accepts);
//! * property: every CONFIRMED witness replays without hard desync,
//!   across seeds.

use std::path::PathBuf;

use proptest::prelude::*;
use srr_apps::harness::Tool;
use srr_apps::hazards;
use srr_apps::predictor::{replay_prediction, run_prediction};
use srr_predict::Classification;
use tsan11rec::{Demo, Execution, Outcome};

fn witness_fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/predict/hidden_handoff_witness")
}

/// A queue recording of `hidden_handoff` at seeds `[7, 11]` whose
/// schedule hides the race: the first thread releases the handoff lock
/// before the second takes it. A fresh queue recording follows the
/// host's thread arrival order, and one where the second thread locks
/// first races plainly, so the golden tests start from this committed
/// one. `UPDATE_GOLDEN=1` records it again, until a recording hides
/// the race.
fn hidden_handoff_recording() -> Demo {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/predict/hidden_handoff_queue");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let config = || Tool::Queue.config([7, 11]).with_access_trace();
        let demo = (0..100)
            .map(|_| Execution::new(config()).record(hazards::hidden_handoff()))
            .find_map(|(report, demo)| (report.races == 0).then_some(demo))
            .expect("a queue recording that hides the race");
        let _ = std::fs::remove_dir_all(&dir);
        demo.save_dir(&dir).expect("writing the fixture");
    }
    Demo::load_dir(&dir).unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", dir.display()))
}

#[test]
fn hidden_handoff_classification_is_golden() {
    let run = replay_prediction(hidden_handoff_recording(), hazards::hidden_handoff);
    assert_eq!(
        run.record.races, 0,
        "plain FastTrack over the recorded schedule must miss the race"
    );
    let confirmed: Vec<_> = run
        .predictions
        .races
        .iter()
        .filter(|r| r.classification == Classification::Confirmed)
        .collect();
    assert_eq!(confirmed.len(), 1, "{:?}", summary(&run.predictions));
    assert_eq!(confirmed[0].loc_label, "cell");
    assert!(confirmed[0].hidden);
}

#[test]
fn atomic_guard_classification_is_golden() {
    let run = run_prediction([7, 11], hazards::atomic_guard);
    assert_eq!(run.predictions.count(Classification::Confirmed), 0);
    assert_eq!(
        run.predictions.count(Classification::Infeasible),
        1,
        "{:?}",
        summary(&run.predictions)
    );
}

fn summary(report: &srr_predict::PredictReport) -> Vec<(String, Classification)> {
    report
        .races
        .iter()
        .map(|r| (r.loc_label.clone(), r.classification))
        .collect()
}

#[test]
fn committed_witness_fixture_replays_and_races() {
    let dir = witness_fixture_dir();
    let demo = Demo::load_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e:?}", dir.display()));
    assert_eq!(demo.header.strategy, "queue");
    let cfg = Tool::Queue
        .config(demo.header.seeds)
        .with_race_target("cell", 1, 2);
    let report = Execution::new(cfg).replay(&demo, hazards::hidden_handoff());
    assert!(
        !matches!(report.outcome, Outcome::HardDesync(_)),
        "witness fixture must stay in sync: {:?}",
        report.outcome
    );
    assert_eq!(
        report.race_target_hit,
        Some(true),
        "the predicted pair must race under the witness schedule: {:?}",
        report.race_reports
    );
}

#[test]
fn synthesized_witness_round_trips_through_linter_and_codec() {
    let run = run_prediction([7, 11], hazards::hidden_handoff);
    let witness = run
        .predictions
        .races
        .iter()
        .find_map(|r| r.witness.as_ref())
        .expect("a witness was synthesized");

    // Lint: the programmatic builder's demos must satisfy the same QUEUE
    // invariants `srr lint-demo` enforces on recorded directories.
    let diags = srr_analysis::lint_demo(witness);
    assert!(diags.is_empty(), "witness demo must lint clean: {diags:?}");

    // Codec round-trip, then replay the reloaded demo.
    let reloaded =
        Demo::from_bytes_map(&witness.to_bytes_map()).expect("witness demo reserializes");
    let cfg = Tool::Queue
        .config(reloaded.header.seeds)
        .with_race_target("cell", 1, 2);
    let report = Execution::new(cfg).replay(&reloaded, hazards::hidden_handoff());
    assert!(!matches!(report.outcome, Outcome::HardDesync(_)));
    assert_eq!(report.race_target_hit, Some(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of the CONFIRMED grade: whatever the seed, a witness
    /// that classified as confirmed did replay without hard desync and
    /// did fire at the predicted pair — re-replaying it reproduces both.
    #[test]
    fn confirmed_witnesses_replay_without_hard_desync(seed in 1u64..50) {
        let seeds = [seed, seed.wrapping_mul(0x9E37) + 1];
        let run = run_prediction(seeds, hazards::hidden_handoff);
        for race in &run.predictions.races {
            if race.classification != Classification::Confirmed {
                continue;
            }
            let witness = race.witness.as_ref().expect("confirmed implies witness");
            let cfg = Tool::Queue
                .config(witness.header.seeds)
                .with_race_target(&race.loc_label, race.tids.0, race.tids.1);
            let report = Execution::new(cfg).replay(witness, hazards::hidden_handoff());
            prop_assert!(
                !matches!(report.outcome, Outcome::HardDesync(_)),
                "seed {seed}: confirmed witness hard-desynced: {:?}",
                report.outcome
            );
            prop_assert_eq!(report.race_target_hit, Some(true));
        }
    }
}

//! Golden and gate checks of the `srr` analysis commands through the real
//! binary, run from the repository root as a user would:
//!
//! * `srr plan` classifies the hazard corpus exactly as
//!   `fixtures/cli/plan_expected.txt` says;
//! * `srr predict --json` grades the hidden-handoff and atomic-guard
//!   hazards as `fixtures/cli/predict_expected.txt` says, exiting 2 only
//!   on a confirmed race. hidden_handoff predicts from the committed
//!   queue recording `fixtures/predict/hidden_handoff_queue`: a fresh
//!   queue recording follows the host's thread arrival order, and on
//!   some orders it races plainly;
//! * `srr vet` passes the examples under `ci/vet_allow.txt` and gates on
//!   the raw-clock and raw-spawn fixtures in `crates/apps`.
//!
//! `UPDATE_GOLDEN=1` regenerates the golden files.

mod common;

use std::path::Path;
use std::process::{Command, Output};

use common::assert_golden;

/// `srr ARGS...` run from the repository root.
fn srr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srr"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("srr runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// The planner's classifications and counts. Spans are cut to the file
/// name, so code that only moves does not churn the golden.
#[test]
fn plan_classifies_the_hazard_corpus_as_its_golden() {
    let out = srr(&["plan", "crates/apps/src/hazards.rs", "--allow", "none"]);
    assert_eq!(out.status.code(), Some(2), "hazard conflicts gate");
    let text = stdout(&out);
    let mut golden = String::new();
    for line in text.lines().filter(|l| l.starts_with('[')) {
        let tokens: Vec<&str> = line
            .split(' ')
            .map(|tok| match tok.split_once("/hazards.rs:") {
                Some((_, span)) if span.split(':').all(|n| n.parse::<u32>().is_ok()) => {
                    "hazards.rs"
                }
                _ => tok,
            })
            .collect();
        golden.push_str(&tokens.join(" "));
        golden.push('\n');
    }
    for line in text.lines().filter(|l| l.starts_with("scanned ")) {
        golden.push_str(line);
        golden.push('\n');
    }
    assert_golden("plan_expected.txt", &golden);
}

/// The grading counters and per-race classifications of `predict
/// --json`, with each workload's exit code: 2 when a race is confirmed.
#[test]
fn predict_json_grades_the_hazards_as_its_golden() {
    const KEYS: [&str; 7] = [
        "recorded_races",
        "candidates",
        "confirmed",
        "unconfirmed",
        "infeasible",
        "hidden",
        "classification",
    ];
    const HIDDEN_HANDOFF: &str = "crates/apps/tests/fixtures/predict/hidden_handoff_queue";
    let mut golden = String::new();
    for (workload, from) in [
        ("hidden_handoff", ["--demo", HIDDEN_HANDOFF]),
        ("atomic_guard", ["--seed", "7"]),
    ] {
        let out = srr(&[&["predict", workload, "--json"], &from[..]].concat());
        for line in stdout(&out).lines() {
            if KEYS.iter().any(|k| line.contains(&format!("\"{k}\""))) {
                let line = line.trim_start().trim_end_matches(',');
                golden.push_str(&format!("{workload} {line}\n"));
            }
        }
        let code = out.status.code().expect("exit code");
        golden.push_str(&format!("{workload} exit={code}\n"));
    }
    assert_golden("predict_expected.txt", &golden);
    // The demo header fixes the seeds.
    let out = srr(&[
        "predict",
        "hidden_handoff",
        "--demo",
        HIDDEN_HANDOFF,
        "--seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(1), "--seed beside --demo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed or --demo"), "{stderr}");
}

#[test]
fn vet_passes_the_examples_and_gates_on_the_hazard_fixtures() {
    // Every escape in the examples is host-side and allowlisted.
    let out = srr(&["vet", "examples", "--allow", "ci/vet_allow.txt"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));

    // The hazard fixtures gate; the allowlisted httpd sleeps do not.
    let out = srr(&["vet", "crates/apps", "--allow", "ci/vet_allow.txt"]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(2), "{text}");
    let finds = |file: &str, what: &str| {
        text.lines().any(|l| {
            l.split_once(file)
                .is_some_and(|(_, rest)| rest.contains(what))
        })
    };
    for kind in ["raw-clock", "raw-spawn"] {
        assert!(
            finds("hazards.rs", &format!("[deny] {kind}")),
            "no deny {kind} finding in hazards.rs:\n{text}"
        );
    }
    assert!(!finds("httpd.rs", "[deny]"), "{text}");

    // The escape map names both kinds.
    let out = srr(&[
        "vet",
        "crates/apps/src/hazards.rs",
        "--allow",
        "none",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let map = stdout(&out);
    for kind in ["raw-clock", "raw-spawn"] {
        assert!(map.contains(&format!("\"{kind}\"")), "{map}");
    }
}

//! End-to-end tests of the exploration farm through the real `srr`
//! binary — the process-worker transport included:
//!
//! * worker-count invariance: `--workers 2` over real child processes
//!   finds exactly the signature set of `--workers 1` on fixed seeds;
//! * the on-disk corpus round-trips (INDEX + imported demos) and the
//!   imported demos replay through `srr replay`;
//! * `explore-worker` speaks the pipe protocol verbatim over
//!   stdin/stdout;
//! * the signatures found on fixed seeds match
//!   `fixtures/cli/explore_expected.txt` (`UPDATE_GOLDEN=1` regenerates
//!   it): a missing one is a finding the farm lost.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use tsan11rec::obs::Json;

fn srr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srr"))
}

/// Runs `srr explore WORKLOAD` on the fixed seeds with the given extra
/// args and parses the JSON report from stdout.
fn explore_workload(workload: &str, extra: &[&str]) -> (Json, Option<i32>) {
    let out = srr()
        .args(["explore", workload, "--runs", "24", "--shard", "6"])
        .args(["--strategies", "rnd,queue", "--json"])
        .args(extra)
        .output()
        .expect("srr explore runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = Json::parse(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    (doc, out.status.code())
}

fn signature_set(doc: &Json) -> Vec<String> {
    let mut sigs: Vec<String> = doc
        .get("signatures")
        .and_then(Json::as_array)
        .expect("signatures array")
        .iter()
        .map(|s| {
            s.get("signature")
                .and_then(Json::as_str)
                .expect("signature string")
                .to_owned()
        })
        .collect();
    sigs.sort();
    sigs
}

#[test]
fn worker_count_is_invisible_in_the_results() {
    let (serial, code1) = explore_workload("barrier", &["--workers", "1"]);
    let (parallel, code2) = explore_workload("barrier", &["--workers", "2"]);
    let (wide, code4) = explore_workload("barrier", &["--workers", "4"]);

    let sigs = signature_set(&serial);
    assert!(!sigs.is_empty(), "barrier races within 24 seeds");
    assert_eq!(sigs, signature_set(&parallel), "1 vs 2 workers");
    assert_eq!(sigs, signature_set(&wide), "1 vs 4 workers");
    // Findings exit code travels through every transport.
    assert_eq!(code1, Some(2));
    assert_eq!(code2, Some(2));
    assert_eq!(code4, Some(2));

    // Same totals, too: the farm ran every shard exactly once.
    let runs = |d: &Json| {
        d.get("farm")
            .and_then(|f| f.get("runs"))
            .and_then(Json::as_f64)
    };
    assert_eq!(runs(&serial), Some(48.0), "2 strategies × 24 seeds");
    assert_eq!(runs(&serial), runs(&parallel));
    assert_eq!(runs(&serial), runs(&wide));
}

#[test]
fn explore_signatures_match_their_golden() {
    let mut golden = String::new();
    for workload in ["barrier", "dekker-fences"] {
        let (doc, code) = explore_workload(workload, &["--workers", "1"]);
        assert_eq!(code, Some(2), "{workload}: known races found");
        for sig in signature_set(&doc) {
            golden.push_str(&format!("{workload} {sig}\n"));
        }
    }
    common::assert_golden("explore_expected.txt", &golden);
}

#[test]
fn corpus_persists_and_its_demos_replay() {
    let dir = std::env::temp_dir().join(format!("srr-explore-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (doc, _) = explore_workload(
        "barrier",
        &["--workers", "2", "--corpus", dir.to_str().unwrap()],
    );

    let index = std::fs::read_to_string(dir.join("INDEX")).expect("corpus INDEX written");
    assert_eq!(
        index.lines().count(),
        signature_set(&doc).len(),
        "one INDEX line per signature"
    );
    // The spool is session-scratch and must be gone.
    assert!(!dir.join(".spool").exists(), "spool cleaned up");

    // Every recorded entry's demo dir was imported and replays cleanly
    // through the stock replay path.
    let mut replayed = 0;
    for line in index.lines() {
        let Some(demo) = line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("demo="))
            .filter(|d| *d != "-")
        else {
            continue;
        };
        let demo_dir = dir.join(demo);
        assert!(demo_dir.join("HEADER").exists(), "demo at {demo_dir:?}");
        let out = srr()
            .args(["replay", "barrier", "--demo", demo_dir.to_str().unwrap()])
            .output()
            .expect("srr replay runs");
        assert!(
            out.status.success(),
            "replaying {demo_dir:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        replayed += 1;
    }
    assert!(replayed > 0, "at least one corpus demo replays");

    // Reopening the corpus with more of the same seeds keeps it stable:
    // no signature vanishes, winners only improve.
    let (_, _) = explore_workload(
        "barrier",
        &["--workers", "1", "--corpus", dir.to_str().unwrap()],
    );
    let reindex = std::fs::read_to_string(dir.join("INDEX")).expect("INDEX survives reopening");
    assert!(reindex.lines().count() >= index.lines().count());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_worker_speaks_the_pipe_protocol() {
    let mut child = srr()
        .arg("explore-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "TASK id=7 workload=barrier strategy=queue seeds=0..4"
    )
    .unwrap();
    writeln!(stdin, "EXIT").unwrap();
    drop(stdin);

    let lines: Vec<String> = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .collect();
    assert!(child.wait().unwrap().success(), "worker exits 0");
    let done = lines.last().expect("worker answered");
    assert!(done.starts_with("DONE task=7 "), "{lines:?}");
    assert!(done.contains("runs=4"), "{done}");
    assert!(
        lines[..lines.len() - 1]
            .iter()
            .all(|l| l.starts_with("FIND task=7 ")),
        "only FIND lines before DONE: {lines:?}"
    );
    // Any finding reported must carry a decodable signature token.
    for find in &lines[..lines.len() - 1] {
        let sig = find
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("sig="))
            .expect("sig field");
        srr_explore::Signature::decode(sig).expect("decodable signature");
    }
}

#[test]
fn bad_explore_usage_fails_fast() {
    let out = srr()
        .args(["explore", "barrier", "--strategies", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    let out = srr()
        .args(["explore", "barrier", "--shard", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    let out = srr()
        .args(["explore", "no-such-workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// A clean workload (no races in range) exits 0 with an empty corpus —
/// the findings gate must not fire on nothing.
#[test]
fn clean_workload_exits_zero() {
    let out = srr()
        .args([
            "explore",
            "atomic_guard",
            "--runs",
            "6",
            "--strategies",
            "queue",
            "--json",
        ])
        .output()
        .expect("srr explore runs");
    assert_eq!(out.status.code(), Some(0), "no findings → exit 0");
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(signature_set(&doc).is_empty());
}

/// `SRR_EXPLORE_WORKER_BIN` overrides the worker binary — pointing it at
/// something that is not a worker makes every shard requeue and the farm
/// fail loudly rather than hang or succeed silently.
#[test]
fn broken_worker_binary_is_a_loud_error() {
    let out = srr()
        .args(["explore", "barrier", "--runs", "6", "--workers", "2"])
        .env("SRR_EXPLORE_WORKER_BIN", "/bin/false")
        .output()
        .expect("srr explore runs");
    assert_eq!(out.status.code(), Some(1), "farm failure is an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exploration farm"), "{stderr}");
}

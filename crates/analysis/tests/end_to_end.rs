//! End-to-end tests: the analysis passes driven through the full runtime
//! stack (event-log collection in `tsan11rec`, workloads from
//! `srr-apps`), and the demo linter over genuinely recorded demos.

use srr_apps::harness::Tool;
use srr_apps::hazards::{self, AbBaParams};
use srr_apps::{client, httpd};
use std::sync::Arc;

use tsan11rec::{Demo, Execution, FindingKind, Outcome, TraceSpec};

/// The sync class alone: what the deadlock and misuse passes read.
const SYNC: TraceSpec = TraceSpec {
    schedule: false,
    sync: true,
    access: false,
};

fn deadlock_findings(report: &tsan11rec::ExecReport) -> Vec<tsan11rec::Finding> {
    report
        .analysis()
        .into_iter()
        .filter(|f| f.kind == FindingKind::PotentialDeadlock)
        .collect()
}

/// The regression the predictive pass exists for: the ABBA inversion is
/// reported even though this particular schedule never deadlocked.
#[test]
fn completed_abba_run_is_flagged_as_potential_deadlock() {
    let report = Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC))
        .run(hazards::ab_ba_locks(AbBaParams::default()));
    assert_eq!(report.outcome, Outcome::Completed);
    let dl = deadlock_findings(&report);
    assert_eq!(dl.len(), 1, "exactly one cycle: {dl:?}");
    let f = &dl[0];
    assert!(f.labels.iter().any(|l| l.contains("lock-a")), "{f:?}");
    assert!(f.labels.iter().any(|l| l.contains("lock-b")), "{f:?}");
    assert_eq!(f.threads.len(), 2, "two threads participate: {f:?}");
    assert!(!f.ticks.is_empty(), "acquisition ticks reported: {f:?}");
    assert!(f.message.contains("tick"), "{f:?}");
}

/// §3.2 deadlock preservation plus prediction: when the schedule *does*
/// wedge, the runtime reports `Outcome::Deadlock` and the offline pass
/// still derives the same cycle from the partial trace — MutexRequest is
/// emitted before the blocking acquisition, so the edge exists even
/// though the acquire never happened.
#[test]
fn deadlocked_abba_run_reports_the_same_cycle() {
    let completed = Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC))
        .run(hazards::ab_ba_locks(AbBaParams::default()));
    let wedged = Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC)).run(
        hazards::ab_ba_locks(AbBaParams {
            force_deadlock: true,
        }),
    );
    assert_eq!(wedged.outcome, Outcome::Deadlock);

    let from_completed = deadlock_findings(&completed);
    let from_wedged = deadlock_findings(&wedged);
    assert!(!from_wedged.is_empty(), "{:?}", wedged.analysis());
    // Same cycle: identical participating lock labels either way.
    let mut a: Vec<_> = from_completed[0].labels.clone();
    let mut b: Vec<_> = from_wedged[0].labels.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "completed and deadlocked runs expose the same cycle");
}

/// Workloads with consistent lock ordering stay clean — the predictor
/// must not cry wolf on the ordinary apps.
#[test]
fn well_ordered_workloads_produce_no_deadlock_findings() {
    let params = httpd::HttpdParams::default();
    let report = Execution::new(Tool::Queue.config([3, 5]).with_trace(SYNC))
        .setup(move |vos| (httpd::world(params))(vos))
        .run(httpd::server(params));
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(
        deadlock_findings(&report).is_empty(),
        "httpd has a consistent lock order: {:?}",
        report.analysis()
    );
}

/// Every recorded demo (two different workloads, two strategies) passes
/// the offline linter; a syscall record that skips a seq is flagged at
/// its entry, and a truncated SYSCALL file as its stream's load error.
#[test]
fn recorded_demos_lint_clean_and_faults_are_entry_precise() {
    type Case = (&'static str, Tool, Box<dyn FnOnce() + Send>);
    let dir = std::env::temp_dir().join(format!("srr-analysis-e2e-{}", std::process::id()));
    let cases: Vec<Case> = vec![
        ("client-queue", Tool::QueueRec, {
            let p = client::ClientParams::default();
            Box::new(move || (client::client(p))())
        }),
        ("client-rnd", Tool::RndRec, {
            let p = client::ClientParams::default();
            Box::new(move || (client::client(p))())
        }),
        ("hazard-queue", Tool::QueueRec, {
            Box::new(move || (hazards::mixed_counter())())
        }),
    ];
    for (name, tool, program) in cases {
        let out = dir.join(name);
        let needs_world = name.starts_with("client");
        let exec = Execution::new(tool.config([9, 13]));
        let exec = if needs_world {
            let p = client::ClientParams::default();
            exec.setup(move |vos| (client::world(p))(vos))
        } else {
            exec
        };
        let (report, demo) = exec.record(program);
        assert!(report.outcome.is_ok(), "{name}: {:?}", report.outcome);
        demo.save_dir(&out).expect("save demo");
        let diags = srr_analysis::lint_demo_dir(&out);
        assert!(diags.is_empty(), "{name} must lint clean: {diags:?}");
    }

    // Skip one seq from the client-queue demo's second syscall record on.
    let client = dir.join("client-queue");
    let mut demo = Demo::load_dir(&client).expect("the saved demo loads");
    assert!(demo.syscalls.len() >= 2, "client records syscalls");
    for r in &mut Arc::make_mut(&mut demo.syscalls)[1..] {
        r.seq += 1;
    }
    demo.save_dir(&client).unwrap();
    let diags = srr_analysis::lint_demo_dir(&client);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        diags[0].to_string(),
        "SYSCALL entry 2: seq 2 breaks contiguity (expected 1)"
    );

    // Truncate the SYSCALL file: its load error is the one diagnostic.
    let syscall = client.join("SYSCALL");
    let bytes = std::fs::read(&syscall).unwrap();
    std::fs::write(&syscall, &bytes[..bytes.len() / 2]).unwrap();
    let diags = srr_analysis::lint_demo_dir(&client);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].stream.as_str(), diags[0].entry), ("SYSCALL", 0));
    assert!(
        diags[0].message.starts_with("cannot decode SYSCALL"),
        "{}",
        diags[0]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The misuse lints ride the same end-to-end path. The mixed-access
/// lint needs the plain-access stream, which is opt-in via
/// `with_access_trace()` (it keeps the sync class too).
#[test]
fn misuse_lints_fire_through_the_full_stack() {
    let mixed = Execution::new(Tool::Queue.config([7, 11]).with_access_trace())
        .run(hazards::mixed_counter());
    assert!(mixed
        .analysis()
        .iter()
        .any(|f| f.kind == FindingKind::MixedAtomicPlain));

    let cond = Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC))
        .run(hazards::cond_no_recheck());
    assert!(cond
        .analysis()
        .iter()
        .any(|f| f.kind == FindingKind::CondvarNoRecheck));

    let relaxed =
        Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC)).run(hazards::relaxed_guard());
    assert!(relaxed
        .analysis()
        .iter()
        .any(|f| f.kind == FindingKind::RelaxedLoadDecision));
}

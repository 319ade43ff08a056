//! End-to-end tests: the analysis passes driven through the full runtime
//! stack (event-log collection in `tsan11rec`, workloads from
//! `srr-apps`), and the demo linter over genuinely recorded demos.

use srr_apps::harness::Tool;
use srr_apps::hazards::{self, AbBaParams};
use srr_apps::{client, httpd};
use tsan11rec::{Execution, FindingKind, Outcome, TraceSpec};

/// The sync class alone: what the deadlock and misuse passes read.
const SYNC: TraceSpec = TraceSpec {
    schedule: false,
    sync: true,
    access: false,
};

fn deadlock_findings(report: &tsan11rec::ExecReport) -> Vec<&tsan11rec::Finding> {
    report
        .analysis
        .iter()
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
    assert_eq!(dl.len(), 1, "exactly one cycle: {:?}", report.analysis);
    let f = dl[0];
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
    assert!(!from_wedged.is_empty(), "{:?}", wedged.analysis);
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
        report.analysis
    );
}

/// Every recorded demo (two different workloads, two strategies) passes
/// the offline linter, and a truncated SYSCALL stream is rejected with a
/// diagnostic pointing at the syscall header line.
#[test]
fn recorded_demos_lint_clean_and_truncation_is_line_precise() {
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
        // Text format: the truncation below edits SYSCALL line by line.
        demo.save_dir_as(&out, srr_replay::DemoFormat::Text)
            .expect("save demo");
        let diags = srr_analysis::lint_demo_dir(&out).expect("readable demo dir");
        assert!(diags.is_empty(), "{name} must lint clean: {diags:?}");
    }

    // Corrupt the client-queue demo: drop everything after the first
    // syscall record's header line, leaving its buffers missing.
    let syscall = dir.join("client-queue").join("SYSCALL");
    let text = std::fs::read_to_string(&syscall).expect("client records syscalls");
    let first_syscall_ln = text
        .lines()
        .position(|l| l.trim_start().starts_with("syscall ") && !l.contains("nbufs=0"))
        .expect("at least one syscall record carrying buffers")
        + 1;
    let keep: String = text
        .lines()
        .take(first_syscall_ln)
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(keep.contains("nbufs="), "header line declares buffers");
    std::fs::write(&syscall, keep).unwrap();
    let diags = srr_analysis::lint_demo_dir(&dir.join("client-queue")).unwrap();
    assert!(!diags.is_empty(), "truncated SYSCALL must be rejected");
    let hit = diags
        .iter()
        .find(|d| d.file == "SYSCALL" && d.line == first_syscall_ln)
        .unwrap_or_else(|| panic!("diagnostic at SYSCALL:{first_syscall_ln}, got {diags:?}"));
    assert!(hit.message.contains("missing"), "{hit}");

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
        .analysis
        .iter()
        .any(|f| f.kind == FindingKind::MixedAtomicPlain));

    let cond = Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC))
        .run(hazards::cond_no_recheck());
    assert!(cond
        .analysis
        .iter()
        .any(|f| f.kind == FindingKind::CondvarNoRecheck));

    let relaxed =
        Execution::new(Tool::Queue.config([7, 11]).with_trace(SYNC)).run(hazards::relaxed_guard());
    assert!(relaxed
        .analysis
        .iter()
        .any(|f| f.kind == FindingKind::RelaxedLoadDecision));
}

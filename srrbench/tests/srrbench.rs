//! Runs every workload through the library entry point with a tiny
//! sample count and checks what the benchmark command would print.

use std::path::Path;

use srr_obs::Json;
use srrbench::trace::{self_times, Span};
use srrbench::{compare, Options, Report, Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

/// One set-up, one sample, no time floor.
fn tiny(workload: Workload, trace: bool) -> Options {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "srrbench-test-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    Options {
        min_samples: 1,
        setups: 1,
        ..Options::new(workload, 1, 0.0, trace, dir)
    }
}

fn run(workload: Workload, trace: bool) -> Report {
    let report = srrbench::run(workload, &tiny(workload, trace));
    assert!(
        report.correct(),
        "{} (trace {trace}): {:?}",
        workload.name(),
        report.failures
    );
    report
}

#[test]
fn the_catalogs_are_the_ones_benchmark_json_lists() {
    let pairs = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(pairs(&END_TO_END), listed("end_to_end"));
    assert_eq!(pairs(&PER_LAYER), listed("per_layer"));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    // Every workload is listed there, or has its own bound in `compare`.
    let unlisted: Vec<&str> = compare::UNLISTED.iter().map(|(w, _)| *w).collect();
    let listed_here: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .filter(|w| !unlisted.contains(w))
        .map(str::to_owned)
        .collect();
    assert_eq!(listed_here, workloads);
    for w in unlisted {
        assert!(Workload::from_name(w).is_ok(), "{w}");
    }
}

/// Every span's parent encloses it and shares its iteration; the self
/// times of each root's tree are non-negative and add up to the root.
fn assert_spans_nest(spans: &[Span]) {
    let own = self_times(spans);
    let mut root_of = Vec::with_capacity(spans.len());
    let mut tree_total = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        assert!(s.end_ns >= s.start_ns, "{s:?}");
        let root = match s.parent {
            None => i,
            Some(p) => {
                assert!(p < i, "parents open first: {s:?}");
                let parent = &spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{parent:?} encloses {s:?}"
                );
                assert_eq!(parent.iter, s.iter);
                root_of[p]
            }
        };
        root_of.push(root);
        tree_total[root] += own[i];
    }
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        assert_eq!(
            tree_total[i],
            s.dur_ns(),
            "self times add up to the root {s:?}"
        );
    }
}

#[test]
fn every_workload_prints_its_metrics_traced_and_untraced() {
    for w in Workload::ALL {
        let untraced = run(w, false);
        assert_eq!(printed(&untraced), listed("end_to_end"), "{}", w.name());
        assert!(untraced.spans.is_empty(), "untraced runs keep no spans");
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{} {} reads {}", w.name(), m.name, m.value);
        }

        let traced = run(w, true);
        assert_eq!(printed(&traced), listed("per_layer"), "{}", w.name());
        assert!(
            !traced.spans.is_empty(),
            "{}: traced runs keep spans",
            w.name()
        );
        assert_spans_nest(&traced.spans);

        // The first farm batch explores the same seeds either way.
        assert_eq!(untraced.signatures, traced.signatures, "{}", w.name());
        if w == Workload::ExploreBarrier {
            assert!(untraced.signatures.is_some_and(|n| n >= 1));
        }
    }
}

#[test]
fn a_damaged_demo_is_counted_as_an_error() {
    fn flip_a_queue_byte(dir: &Path) {
        let path = dir.join("QUEUE");
        let mut bytes = std::fs::read(&path).expect("a QUEUE stream was saved");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).expect("rewrite QUEUE");
    }
    let opts = Options {
        damage: Some(flip_a_queue_byte),
        ..tiny(Workload::Fluidanimate, false)
    };
    let report = srrbench::run(Workload::Fluidanimate, &opts);
    assert!(
        !opts.work_dir.exists(),
        "the run removes its work directory"
    );
    assert!(report.failed > 0, "{report:?}");
    assert!(!report.correct());
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.contains("loading the demo")),
        "{:?}",
        report.failures
    );
}

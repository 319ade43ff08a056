//! Binary demo codec report: load time of the framed binary format, its
//! size against the text export, and the on-disk footprint of an
//! explore-style corpus (the hazard set recorded at several seeds)
//! rendered as text, stored raw-binary, and stored through the
//! content-addressed `DemoStore`. Emits `BENCH_codec.json`.
//!
//! One invariant is asserted here rather than gated downstream, because
//! it is the store's reason to exist: the hazard-set corpus shrinks
//! ≥ 40% going from text files to the deduplicating store.
//!
//! The byte-count rows are deterministic (recordings at a fixed seed
//! are byte-reproducible, and the committed httpd and fluidanimate
//! fixtures re-encode to their own bytes — the codec golden suite pins
//! both), so the CI baseline gates them; the timing rows are
//! machine-dependent and stay out of the baseline.

use std::path::Path;
use std::time::Instant;

use srr_apps::harness::seed_pair;
use srr_apps::{hazards, httpd};
use srr_bench::report::{BenchReport, BenchRow, Json};
use srr_bench::{banner, bench_runs, quick_mode, Stats, TablePrinter, Tool};
use srr_replay::{Demo, DemoStore};
use tsan11rec::Execution;

type Hazard = (&'static str, fn() -> Box<dyn FnOnce() + Send>);

const HAZARDS: [Hazard; 9] = [
    ("ab_ba_locks", || {
        Box::new(hazards::ab_ba_locks(hazards::AbBaParams::default()))
    }),
    ("mixed_counter", || Box::new(hazards::mixed_counter())),
    ("cond_no_recheck", || Box::new(hazards::cond_no_recheck())),
    ("relaxed_guard", || Box::new(hazards::relaxed_guard())),
    ("hidden_handoff", || Box::new(hazards::hidden_handoff())),
    ("atomic_guard", || Box::new(hazards::atomic_guard())),
    ("planned_local", || Box::new(hazards::planned_local())),
    ("raw_clock", || Box::new(hazards::raw_clock())),
    ("raw_spawn", || Box::new(hazards::raw_spawn())),
];

fn record_hazard(make: fn() -> Box<dyn FnOnce() + Send>, seed: u64) -> Demo {
    let seeds = seed_pair(seed);
    let cfg = Tool::RndRec.config(seeds).without_liveness();
    Execution::new(cfg).record(make()).1
}

fn record_httpd() -> Demo {
    let cfg = Tool::QueueRec.config([7, 40398]).without_liveness();
    Execution::new(cfg)
        .setup(|vos| (httpd::world(httpd::HttpdParams::default()))(vos))
        .record(|| (httpd::server(httpd::HttpdParams::default()))())
        .1
}

/// Mean microseconds per full-demo deserialization.
fn time_loads(iters: usize, mut load: impl FnMut()) -> Stats {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        load();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Stats::of(&samples)
}

fn main() {
    banner("Binary demo codec: load time + corpus footprint");
    let iters = bench_runs(10) * 20;
    let mut report = BenchReport::new(
        "codec",
        "binary demo codec throughput and corpus size",
        iters,
        1,
    );

    // --- Load time: the recorded httpd demo (syscall-heavy, the
    // paper's flagship workload), beside the size of its text export.
    let demo = record_httpd();
    let bin = demo.to_bytes_map();
    let bin_stats = time_loads(iters, || {
        let d = Demo::from_bytes_map(&bin).expect("binary demo loads");
        assert_eq!(d.syscalls.len(), demo.syscalls.len());
    });

    let table = TablePrinter::new(
        &["workload", "config", "load(us)", "bytes"],
        &[14, 8, 10, 9],
    );
    let text_bytes: usize = demo.to_string_map().values().map(String::len).sum();
    let bin_bytes: usize = bin.values().map(Vec::len).sum();
    table.row(&["httpd", "text", "-", &text_bytes.to_string()]);
    table.row(&[
        "httpd",
        "bin",
        &format!("{:.1}", bin_stats.mean),
        &bin_bytes.to_string(),
    ]);
    report.push(BenchRow::from_stats(
        "httpd", "bin", "load_us", false, &bin_stats,
    ));

    // --- Stored size of the committed httpd and fluidanimate golden
    // fixtures: a fresh queue recording follows OS arrival order, the
    // fixture does not.
    for workload in ["httpd", "fluidanimate"] {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../apps/tests/fixtures/codec")
            .join(workload);
        let stored = Demo::load_dir(&fixture)
            .unwrap_or_else(|e| panic!("the {workload} codec fixture loads: {e}"))
            .size_bytes();
        table.row(&[workload, "fixture", "-", &stored.to_string()]);
        report.push(BenchRow::from_stats(
            workload,
            "fixture",
            "stored_bytes",
            false,
            &Stats::of(&[stored as f64]),
        ));
    }

    // --- Corpus footprint: the hazard set at several seeds, the shape
    // an explore corpus takes (many reproductions, much shared
    // content), stored three ways.
    let seeds_per_workload: u64 = if quick_mode() { 2 } else { 3 };
    let store_root = std::env::temp_dir().join(format!("srr-bench-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let mut store = DemoStore::open(&store_root).expect("open bench store");
    let (mut corpus_text, mut corpus_bin) = (0usize, 0usize);
    let mut demos = 0usize;
    for (name, make) in HAZARDS {
        for seed in 7..7 + seeds_per_workload {
            let demo = record_hazard(make, seed);
            corpus_text += demo
                .to_string_map()
                .values()
                .map(String::len)
                .sum::<usize>();
            corpus_bin += demo.to_bytes_map().values().map(Vec::len).sum::<usize>();
            store
                .insert(&format!("{name}-{seed}"), &demo)
                .expect("store insert");
            demos += 1;
        }
    }
    let store_bytes = store.disk_bytes().expect("store size") as usize;
    let reduction = 1.0 - store_bytes as f64 / corpus_text as f64;
    table.row(&["hazard-set", "text", "-", &corpus_text.to_string()]);
    table.row(&["hazard-set", "bin", "-", &corpus_bin.to_string()]);
    table.row(&["hazard-set", "store", "-", &store_bytes.to_string()]);
    for (config, bytes) in [
        ("text", corpus_text),
        ("bin", corpus_bin),
        ("store", store_bytes),
    ] {
        report.push(BenchRow::from_stats(
            "hazard-set",
            config,
            "corpus_bytes",
            false,
            &Stats::of(&[bytes as f64]),
        ));
    }
    report.note("demos", Json::Num(demos as f64));
    report.note("store_blobs", Json::Num(store.blob_count().unwrap() as f64));
    report.note("corpus_reduction", Json::Num(reduction));
    assert!(
        reduction >= 0.4,
        "store must shrink the text corpus ≥ 40%, measured {:.0}%",
        reduction * 100.0
    );
    let _ = std::fs::remove_dir_all(&store_root);

    println!(
        "totals: httpd load {:.1} us bin ({bin_bytes} B, {text_bytes} B as text); corpus \
         {demos} demo(s): {corpus_text} B text, {corpus_bin} B bin, {store_bytes} B stored \
         ({:.0}% reduction)",
        bin_stats.mean,
        reduction * 100.0
    );
    report.write().expect("writing BENCH_codec.json");
}

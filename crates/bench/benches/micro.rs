//! Criterion micro-benchmarks for the substrates: vector-clock
//! operations, the RLE codecs, the weak-memory cell, the FastTrack cell,
//! and the scheduler's Wait/Tick round-trip.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn vclock_benches(c: &mut Criterion) {
    use srr_vclock::VectorClock;
    let mut group = c.benchmark_group("vclock");
    let a: VectorClock = (0..8u64).collect();
    let b: VectorClock = (0..8u64).rev().collect();
    group.bench_function("join_8", |bench| {
        bench.iter(|| {
            let mut x = black_box(&a).clone();
            x.join(black_box(&b));
            x
        });
    });
    group.bench_function("le_8", |bench| {
        bench.iter(|| black_box(&a).le(black_box(&b)));
    });
    group.finish();
}

fn rle_benches(c: &mut Criterion) {
    use srr_replay::rle;
    let mut group = c.benchmark_group("rle");
    let ticks: Vec<u64> = (1..2_000).collect();
    group.bench_function("encode_u64_run_2k", |bench| {
        bench.iter(|| rle::encode_u64s(black_box(&ticks).iter().copied()));
    });
    let payload: Vec<u8> = (0..4096)
        .map(|i| if i % 7 == 0 { 0 } else { b'x' })
        .collect();
    group.bench_function("encode_bytes_4k", |bench| {
        bench.iter(|| rle::encode_bytes(black_box(&payload)));
    });
    group.finish();
}

fn memmodel_benches(c: &mut Criterion) {
    use srr_memmodel::{AtomicCell, CounterChooser, MemOrder, ThreadView};
    let mut group = c.benchmark_group("memmodel");
    group.bench_function("store_load_pair", |bench| {
        let mut view = ThreadView::new(0);
        let mut cell = AtomicCell::new(0, &view);
        let mut chooser = CounterChooser::always_latest();
        let mut i = 0u64;
        bench.iter(|| {
            view.tick();
            cell.store(&mut view, i, MemOrder::Release);
            i += 1;
            view.tick();
            black_box(cell.load(&mut view, MemOrder::Acquire, &mut chooser))
        });
    });
    group.finish();
}

fn racedet_benches(c: &mut Criterion) {
    use srr_racedet::{AccessKind, RaceDetector};
    use srr_vclock::VectorClock;
    let mut group = c.benchmark_group("racedet");
    group.bench_function("same_thread_rw", |bench| {
        let mut det = RaceDetector::new();
        let loc = det.register_location("x");
        let mut clock = VectorClock::new();
        bench.iter(|| {
            clock.tick(0);
            det.on_access(loc, 0, &clock, AccessKind::Write);
            det.on_access(loc, 0, &clock, AccessKind::Read);
        });
    });
    group.finish();
}

fn scheduler_benches(c: &mut Criterion) {
    use srr_apps::harness::Tool;
    use tsan11rec::{Atomic, Execution, MemOrder};
    let mut group = c.benchmark_group("tool");
    group.sample_size(10);
    for tool in [Tool::Native, Tool::Tsan11, Tool::Queue, Tool::Rnd] {
        group.bench_function(format!("1k_atomic_ops_{}", tool.label()), |bench| {
            bench.iter(|| {
                let report = Execution::new(tool.config([1, 2])).run(|| {
                    let a = Atomic::new(0u64);
                    for i in 0..1_000 {
                        a.store(i, MemOrder::SeqCst);
                    }
                });
                assert!(report.outcome.is_ok());
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    vclock_benches,
    rle_benches,
    memmodel_benches,
    racedet_benches,
    scheduler_benches
);
criterion_main!(benches);

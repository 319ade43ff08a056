//! Additional coverage: sparse-set edge cases through the live tool, and
//! report accessors.

use std::sync::Arc;

use tsan11rec::obs::EventKind;
use tsan11rec::vos::{EchoPeer, Fd, Vos};
use tsan11rec::{Atomic, Config, Execution, MemOrder, Mode, SparseConfig, Strategy, TraceSpec};

fn config(sparse: SparseConfig) -> Config {
    Config::new(Mode::Tsan11Rec(Strategy::Queue))
        .with_seeds([17, 23])
        .without_liveness()
        .with_sparse(sparse)
}

#[test]
fn pipe_rw_recorded_file_rw_not_under_paper_default() {
    let program = || {
        let (pr, pw) = tsan11rec::sys::pipe();
        tsan11rec::sys::write(pw, b"ipc").expect("pipe write");
        let mut buf = [0u8; 8];
        tsan11rec::sys::read(pr, &mut buf).expect("pipe read");

        let fd = Fd(tsan11rec::sys::open("/etc/motd", false).expect("file") as i32);
        tsan11rec::sys::read(fd, &mut buf).expect("file read");
    };
    let setup = |vos: &Vos| vos.add_file("/etc/motd", b"hello".to_vec());
    let (report, demo) = Execution::new(config(SparseConfig::paper_default()))
        .setup(setup)
        .record(program);
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);

    let kinds: Vec<&str> = demo.syscalls.iter().map(|s| s.kind.as_str()).collect();
    assert_eq!(
        kinds.iter().filter(|k| **k == "write").count(),
        1,
        "the pipe write is recorded: {kinds:?}"
    );
    assert_eq!(
        kinds.iter().filter(|k| **k == "read").count(),
        1,
        "only the pipe read is recorded (file reads are sparse-skipped): {kinds:?}"
    );
}

#[test]
fn custom_sparse_set_with_and_without() {
    // Remove recv from the set: the recv runs live in both directions.
    let sparse = SparseConfig::paper_default()
        .without("recv")
        .without("send");
    let program = || {
        let fd = tsan11rec::sys::connect(Box::new(EchoPeer::new(0)));
        tsan11rec::sys::send(fd, b"abc").expect("send");
        let mut buf = [0u8; 8];
        let n = tsan11rec::sys::recv(fd, &mut buf).expect("recv");
        tsan11rec::sys::println(&format!("echoed {n}"));
    };
    let (rec, demo) = Execution::new(config(sparse.clone())).record(program);
    assert!(rec.outcome.is_ok(), "{:?}", rec.outcome);
    assert!(
        demo.syscalls
            .iter()
            .all(|s| s.kind != "recv" && s.kind != "send"),
        "excluded kinds must not appear: {:?}",
        demo.syscalls.iter().map(|s| &s.kind).collect::<Vec<_>>()
    );
    // Replay with the live echo peer present: unrecorded syscalls
    // re-execute and the behaviour still reproduces (the peer is
    // deterministic), so this is the sparse bet paying off.
    let rep = Execution::new(config(sparse)).replay(&demo, program);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
    assert_eq!(rep.console, rec.console);
}

#[test]
fn tick_trace_filters_wait_markers() {
    let mut c = Config::new(Mode::Tsan11Rec(Strategy::Queue))
        .with_seeds([1, 2])
        .without_liveness();
    c = c.with_trace(TraceSpec::SCHEDULE);
    let report = Execution::new(c).run(|| {
        let a = Atomic::new(0u32);
        a.store(1, MemOrder::SeqCst);
        a.store(2, MemOrder::SeqCst);
    });
    let waits = report
        .sync_trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::TickBegin)
        .count();
    let ticks = report.tick_trace();
    assert_eq!(waits, ticks.len(), "one Wait() marker per Tick() entry");
    assert!(ticks.iter().all(|&(tid, _)| tid & 0x8000_0000 == 0));
    // Tick numbers are consecutive from 1.
    for (i, &(_, tick)) in ticks.iter().enumerate() {
        assert_eq!(tick, i as u64 + 1);
    }
}

#[test]
fn report_accessors_roundtrip() {
    let report = Execution::new(
        Config::new(Mode::Tsan11Rec(Strategy::Random))
            .with_seeds([9, 9])
            .without_liveness(),
    )
    .run(|| {
        tsan11rec::sys::println("alpha");
        let s = Arc::new(tsan11rec::Shared::new("racy", 0u64));
        let s2 = Arc::clone(&s);
        let t = tsan11rec::thread::spawn(move || s2.write(1));
        s.write(2);
        t.join();
    });
    assert!(report.outcome.is_ok());
    assert!(report.racy());
    assert_eq!(report.console_text(), "alpha\n");
    assert!(report.desync().is_none());
    assert!(report.visible_ops >= 4);
}

#[test]
fn epoll_wait_is_refused_like_the_paper_says() {
    // §5.2: tsan11rec cannot handle epoll_wait; httpd must switch to
    // poll. Our vOS surfaces that as ENOTSUP.
    let report = Execution::new(config(SparseConfig::paper_default())).run(|| {
        let r = tsan11rec::sys::epoll_wait();
        assert_eq!(r, Err(tsan11rec::Errno::ENOTSUP));
    });
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
}

#[test]
fn rwlock_works_under_controlled_scheduling() {
    for strategy in [Strategy::Random, Strategy::Queue] {
        let report = Execution::new(
            Config::new(Mode::Tsan11Rec(strategy))
                .with_seeds([21, 34])
                .without_liveness(),
        )
        .run(|| {
            let lock = Arc::new(tsan11rec::RwLock::new(0u64));
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    tsan11rec::thread::spawn(move || {
                        let mut sum = 0;
                        for _ in 0..5 {
                            sum += *lock.read();
                        }
                        sum
                    })
                })
                .collect();
            let writer = {
                let lock = Arc::clone(&lock);
                tsan11rec::thread::spawn(move || {
                    for _ in 0..5 {
                        *lock.write() += 1;
                    }
                })
            };
            for r in readers {
                let _ = r.join();
            }
            writer.join();
            assert_eq!(*lock.read(), 5);
        });
        assert!(report.outcome.is_ok(), "{strategy:?}: {:?}", report.outcome);
        assert_eq!(report.races, 0, "{strategy:?}: rwlock data is protected");
    }
}

#[test]
fn barrier_works_under_controlled_scheduling_and_replay() {
    let program = || {
        let b = Arc::new(tsan11rec::Barrier::new(3));
        let counter = Arc::new(tsan11rec::Atomic::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                let c = Arc::clone(&counter);
                tsan11rec::thread::spawn(move || {
                    c.fetch_add(1, tsan11rec::MemOrder::SeqCst);
                    b.wait();
                    // After the barrier, everyone must see all arrivals.
                    assert_eq!(c.load(tsan11rec::MemOrder::SeqCst), 3);
                })
            })
            .collect();
        counter.fetch_add(1, tsan11rec::MemOrder::SeqCst);
        b.wait();
        assert_eq!(counter.load(tsan11rec::MemOrder::SeqCst), 3);
        for h in handles {
            h.join();
        }
    };
    let make_config = || {
        Config::new(Mode::Tsan11Rec(Strategy::Queue))
            .with_seeds([3, 7])
            .without_liveness()
    };
    let (rec, demo) = Execution::new(make_config()).record(program);
    assert!(rec.outcome.is_ok(), "{:?}", rec.outcome);
    let rep = Execution::new(make_config()).replay(&demo, program);
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
}

#[test]
fn delay_strategy_runs_programs_end_to_end() {
    let report = Execution::new(
        Config::new(Mode::Tsan11Rec(Strategy::Delay {
            budget: 4,
            denom: 8,
        }))
        .with_seeds([6, 28])
        .without_liveness(),
    )
    .run(|| {
        let c = Arc::new(Atomic::new(0u64));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&c);
                tsan11rec::thread::spawn(move || {
                    for _ in 0..10 {
                        c.fetch_add(1, MemOrder::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(MemOrder::SeqCst), 30);
    });
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
}

#[test]
fn stream_counters_size_a_recording_and_count_a_replay() {
    // A recording encodes its demo: counters carry entries and on-disk
    // bytes, mirrored onto both gauges. A replay encodes nothing: the
    // same entries, bytes 0, and no bytes gauge.
    let program = || {
        let (pr, pw) = tsan11rec::sys::pipe();
        tsan11rec::sys::write(pw, b"ipc").expect("pipe write");
        let mut buf = [0u8; 8];
        tsan11rec::sys::read(pr, &mut buf).expect("pipe read");
    };
    let rec_metrics = Arc::new(tsan11rec::obs::MetricsRegistry::new());
    let (recorded, demo) = Execution::new(
        config(SparseConfig::paper_default()).with_metrics(Arc::clone(&rec_metrics)),
    )
    .record(program);
    assert!(recorded.outcome.is_ok(), "{:?}", recorded.outcome);
    let rep_metrics = Arc::new(tsan11rec::obs::MetricsRegistry::new());
    let replayed = Execution::new(
        config(SparseConfig::paper_default()).with_metrics(Arc::clone(&rep_metrics)),
    )
    .replay(&demo, program);
    assert!(replayed.outcome.is_ok(), "{:?}", replayed.outcome);

    let syscall = |r: &tsan11rec::ExecReport| r.obs.stream("SYSCALL").cloned().expect("counter");
    assert_eq!(syscall(&recorded).entries, 2);
    assert!(syscall(&recorded).bytes > 0);
    assert_eq!(recorded.demo_bytes, Some(demo.size_bytes()));
    assert_eq!(syscall(&replayed).entries, 2);
    assert!(replayed.obs.streams.iter().all(|s| s.bytes == 0));
    assert_eq!(replayed.demo_bytes, None);

    let rec_text = rec_metrics.prometheus_text();
    let rep_text = rep_metrics.prometheus_text();
    assert!(rec_text.contains("vos_stream_bytes{stream=\"SYSCALL\"}"));
    assert!(rep_text.contains("vos_stream_entries{stream=\"SYSCALL\"} 2\n"));
    assert!(!rep_text.contains("vos_stream_bytes"), "{rep_text}");
}

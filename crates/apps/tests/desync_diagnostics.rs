//! Desync diagnostics: corrupting the committed queue fixture's QUEUE
//! stream must produce a hard desync whose report names the first
//! divergent tick, the failing thread, and the stream offset.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::{bounded_buffer, config, fixture_dir};
use srr_apps::harness::Tool;
use srr_apps::httpd::{self, HttpdParams};
use srr_replay::QueueStream;
use tsan11rec::obs::TickDiff;
use tsan11rec::{Demo, Execution, Strategy, TraceSpec};

/// `queue` cut to the next ticks of its first `keep` sections.
fn truncated(queue: &QueueStream, keep: usize) -> Arc<QueueStream> {
    Arc::new(QueueStream::new(
        queue.first_tick.clone(),
        queue.next_ticks().take(keep),
    ))
}

/// Truncates the fixture's QUEUE stream to `keep` entries, round-trips
/// the corrupted demo through the on-disk format, and replays it.
fn corrupt_and_replay(keep: usize) -> (tsan11rec::ExecReport, Demo, Vec<(u32, u64)>) {
    let dir = fixture_dir("queue");
    let mut demo = Demo::load_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e:?}", dir.display()));
    let full_order = demo.queue.schedule_order();
    assert!(
        keep < full_order.len(),
        "fixture too short to truncate at {keep}"
    );
    demo.queue = truncated(&demo.queue, keep);

    // Round-trip through serialization so the corruption exercises the
    // same loader path a hand-edited demo directory would.
    let tmp = std::env::temp_dir().join(format!("srr-desync-fixture-{}", std::process::id()));
    demo.save_dir(&tmp).expect("save corrupted demo");
    let corrupted = Demo::load_dir(&tmp).expect("reload corrupted demo");
    std::fs::remove_dir_all(&tmp).ok();
    assert_eq!(corrupted.queue.ticks(), keep as u64);

    let cfg = config(Strategy::Queue, [11, 13]).with_trace(TraceSpec::SCHEDULE);
    let rep = Execution::new(cfg).replay(&corrupted, bounded_buffer);
    (rep, corrupted, full_order)
}

#[test]
fn truncated_queue_stream_reports_first_divergent_tick() {
    // Keep M entries: replay consumes entry k-1 when critical section k
    // closes, so the first missing entry is consulted at tick M+1.
    const M: usize = 10;
    let (rep, _corrupted, full_order) = corrupt_and_replay(M);

    let hd = rep
        .desync()
        .expect("truncated QUEUE stream must hard-desync");
    assert_eq!(hd.tick, M as u64 + 1, "desync at the first missing entry");
    assert_eq!(hd.constraint, "queue-schedule");
    assert_eq!(hd.stream, "QUEUE", "report names the failing stream");
    assert_eq!(hd.offset, M as u64, "report names the stream offset");
    assert!(
        hd.context
            .iter()
            .any(|l| l.starts_with("failing thread: T")),
        "context names the failing thread: {:?}",
        hd.context
    );
    assert!(
        hd.context
            .iter()
            .any(|l| l.contains("stream QUEUE") && l.contains(&format!("entry {M}"))),
        "context carries the diagnostics summary: {:?}",
        hd.context
    );

    // The structured diagnostics on the obs report agree, and pinpoint
    // the thread that owned the divergent tick.
    let diag = rep.obs.desync.as_ref().expect("obs carries diagnostics");
    assert_eq!(diag.tick, M as u64 + 1);
    assert_eq!(diag.stream, "QUEUE");
    assert_eq!(diag.offset, M as u64);
    let owner = full_order[M].0;
    assert_eq!(full_order[M].1, M as u64 + 1, "order entry M is tick M+1");
    assert_eq!(
        diag.thread,
        Some(owner),
        "last replayed thread is the owner of the divergent tick"
    );
    let div = diag
        .first_divergence
        .expect("truncation shows up in the tick diff");
    assert_eq!(div.index, M, "divergence at the truncation point");
    assert_eq!(
        div.recorded, None,
        "the corrupted recording ends at the truncation"
    );
    assert_eq!(div.replayed, Some(owner));

    // The rendered report names all three coordinates.
    let text = diag.render();
    assert!(text.contains(&format!("tick {}", M + 1)), "{text}");
    assert!(text.contains(&format!("QUEUE @ entry {M}")), "{text}");
    assert!(text.contains(&format!("T{owner}")), "{text}");
}

#[test]
fn diagnostics_skip_divergence_when_tracing_off() {
    // Without tracing there is no replayed schedule to diff, but the
    // failure point (tick, stream, offset) must still be reported.
    const M: usize = 10;
    let dir = fixture_dir("queue");
    let mut demo = Demo::load_dir(&dir).expect("fixture");
    demo.queue = truncated(&demo.queue, M);
    let mut cfg = config(Strategy::Queue, [11, 13]);
    cfg.trace = None;
    let rep = Execution::new(cfg).replay(&demo, bounded_buffer);
    let hd = rep.desync().expect("hard desync");
    assert_eq!((hd.tick, hd.offset), (M as u64 + 1, M as u64));
    let diag = rep.obs.desync.as_ref().expect("diagnostics built");
    assert_eq!(diag.first_divergence, None, "no replayed schedule to diff");
    assert_eq!(diag.thread, None);
}

#[test]
fn long_replay_diffs_the_whole_schedule() {
    // The committed httpd profile fixture (1,356 ticks) with QUEUE cut
    // at 1,000, traced as `srr trace --demo` traces it. The recording
    // ends at position 1,000, where replay ran the owner of tick 1,001:
    // the diff must read the run's whole schedule to say so, and the
    // report keeps no more than the last eight events of each track.
    const CUT: usize = 1000;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/profile/httpd_demo");
    let mut demo = Demo::load_dir(&dir).expect("httpd fixture");
    let full_order = demo.queue.schedule_order();
    assert_eq!(full_order.len(), 1356);
    assert_eq!(
        full_order[CUT].1,
        CUT as u64 + 1,
        "order entry CUT is tick CUT+1"
    );
    demo.queue = truncated(&demo.queue, CUT);

    let cfg = Tool::QueueRec
        .config(demo.header.seeds)
        .with_trace(TraceSpec::SCHEDULE);
    let rep = Execution::new(cfg)
        .setup(|vos| (httpd::world(HttpdParams::default()))(vos))
        .replay(&demo, httpd::server(HttpdParams::default()));
    let diag = rep.obs.desync.as_ref().expect("a cut QUEUE hard-desyncs");
    assert_eq!(
        diag.first_divergence,
        Some(TickDiff {
            index: CUT,
            recorded: None,
            replayed: Some(full_order[CUT].0),
        }),
        "{}",
        diag.render()
    );
    assert!(diag.last_events.iter().all(|t| t.events.len() <= 8));
}

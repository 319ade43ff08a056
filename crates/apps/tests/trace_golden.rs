//! Golden test for the Chrome trace exporter: replaying the committed
//! queue fixture with the schedule traced must export exactly the
//! committed golden, so every replay exports byte-identical
//! `trace_event` JSON, and that JSON must round-trip through the parser.

mod common;

use std::path::PathBuf;

use common::{bounded_buffer, config, fixture_dir};
use tsan11rec::obs::Json;
use tsan11rec::{chrome_trace, Demo, Execution, Strategy, TraceSpec};

// The export keeps every track whole (no `--ring` cut): wakeup events
// are timing-dependent and never exported, and with nothing cut they
// cannot move which deterministic events survive either.
fn traced_replay(demo: &Demo) -> String {
    let cfg = config(Strategy::Queue, [11, 13]).with_trace(TraceSpec::SCHEDULE);
    let rep = Execution::new(cfg).replay(demo, bounded_buffer);
    assert!(
        rep.desync().is_none(),
        "fixture replay must stay in sync: {:?}",
        rep.outcome
    );
    assert!(!rep.sync_trace.is_empty(), "tracing was requested");
    chrome_trace(&rep.sync_trace, None).to_pretty()
}

#[test]
fn chrome_trace_matches_the_golden() {
    // The golden holds the export one record per line; it parses to the
    // same document the exporter builds.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace/queue_chrome.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} unreadable: {e}", path.display()));
    let golden = Json::parse(&text).expect("golden is valid JSON");
    let demo = Demo::load_dir(&fixture_dir("queue")).expect("fixture");
    assert!(
        traced_replay(&demo) == golden.to_pretty(),
        "the Chrome export of the queue fixture's replay drifted from {}",
        path.display()
    );
}

#[test]
fn chrome_trace_deterministic_across_replays() {
    let dir = fixture_dir("queue");
    let demo = Demo::load_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e:?}", dir.display()));
    let a = traced_replay(&demo);
    let b = traced_replay(&demo);
    assert_eq!(
        a, b,
        "two replays of the same demo must export identical Chrome traces"
    );
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let dir = fixture_dir("queue");
    let demo = Demo::load_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e:?}", dir.display()));
    let text = traced_replay(&demo);

    let parsed = Json::parse(&text).expect("exported trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");
    let mut slices = 0;
    for ev in events {
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "name");
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(ev.get("pid").and_then(Json::as_f64).is_some(), "pid");
        assert!(ev.get("tid").and_then(Json::as_f64).is_some(), "tid");
        if ph != "M" {
            assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts");
        }
        if ph == "X" {
            slices += 1;
        }
    }
    assert!(slices > 0, "at least one tick slice");
    // Re-serializing the parsed value must be stable, too.
    let again = Json::parse(&parsed.to_pretty()).expect("re-parse");
    assert_eq!(
        again
            .get("traceEvents")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(events.len())
    );
}

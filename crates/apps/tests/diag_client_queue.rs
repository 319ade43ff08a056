//! Diagnostic: queue-strategy record/replay trace diff for the client.

use srr_apps::client::{client, world, ClientParams};
use srr_apps::harness::Tool;
use tsan11rec::{Execution, TraceSpec};

#[test]
fn queue_client_record_replay_traces_match() {
    let params = ClientParams::default();
    let mut config = Tool::QueueRec.config([4, 8]);
    config = config.with_trace(TraceSpec::SCHEDULE);
    let (rec_report, demo) = Execution::new(config.clone())
        .setup(world(params))
        .record(client(params));
    assert!(rec_report.outcome.is_ok(), "{:?}", rec_report.outcome);

    let rep_report = Execution::new(config).replay(&demo, client(params));
    let rec_trace = rec_report.tick_trace();
    let rep_trace = rep_report.tick_trace();
    for (i, (a, b)) in rec_trace.iter().zip(rep_trace.iter()).enumerate() {
        assert_eq!(
            (a.0, a.1),
            (b.0, b.1),
            "first divergence at cs #{i}\nrec ctx: {:?}\nrep ctx: {:?}",
            &rec_trace[i.saturating_sub(6)..(i + 4).min(rec_trace.len())],
            &rep_trace[i.saturating_sub(6)..(i + 4).min(rep_trace.len())],
        );
    }
    assert!(
        rep_report.outcome.is_ok(),
        "replay: {:?}\nrec len {} rep len {}\nrec tail {:?}\nrep tail {:?}",
        rep_report.outcome,
        rec_trace.len(),
        rep_trace.len(),
        &rec_trace[rec_trace.len().saturating_sub(10)..],
        &rep_trace[rep_trace.len().saturating_sub(10)..],
    );
}

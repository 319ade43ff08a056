//! Quickstart: record the paper's Figure 2 client, save the demo to
//! disk, load it back, and replay it **without a live server** — the
//! motivating workflow of §2 and §4.1.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sparse_rr::apps::client::{client, world, ClientParams};
use sparse_rr::apps::harness::Tool;
use sparse_rr::tsan11rec::Execution;
use sparse_rr::Demo;

fn main() {
    let params = ClientParams::default();
    let seeds = [2024, 7];

    println!("== recording: client connected to a live (virtual) server ==");
    let (recorded, demo) = Execution::new(Tool::QueueRec.config(seeds))
        .setup(world(params))
        .record(client(params));
    assert!(recorded.outcome.is_ok(), "{:?}", recorded.outcome);
    println!("{}", recorded.console_text());
    println!(
        "captured: {} syscalls, {} signals, {} scheduling entries, {} bytes total",
        demo.syscalls.len(),
        demo.signals.len(),
        demo.queue.ticks(),
        demo.size_bytes()
    );

    // The demo is a directory of one file per stream, as in §4, saved in
    // the binary format (an empty stream writes no file). The text form
    // of each stream reads like the paper's.
    let dir = std::env::temp_dir().join("sparse-rr-quickstart-demo");
    demo.save_dir(&dir).expect("write demo");
    println!("\ndemo saved to {}", dir.display());
    let streams = demo.to_string_map();
    for name in ["HEADER", "QUEUE", "SIGNAL", "SYSCALL", "ASYNC"] {
        let first = streams
            .get(name)
            .and_then(|text| text.lines().next())
            .unwrap_or("<empty>");
        println!("  {name:8} | {first}");
    }

    println!("\n== replaying: empty world — no server, no signal source ==");
    let loaded = Demo::load_dir(&dir).expect("load demo");
    let replayed = Execution::new(Tool::QueueRec.config(seeds)).replay(&loaded, client(params));
    assert!(replayed.outcome.is_ok(), "{:?}", replayed.outcome);
    println!("{}", replayed.console_text());

    assert_eq!(
        replayed.console, recorded.console,
        "replay reproduces the recorded behaviour bit-for-bit"
    );
    println!("replay is synchronised: console output identical to the recording.");
    let _ = std::fs::remove_dir_all(&dir);
}

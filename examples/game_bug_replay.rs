//! The §5.4 case study as a runnable demo: record Zandronum-style
//! multiplayer sessions until the historical map-change bug manifests,
//! then replay the demo into a fresh world and watch the bug reproduce.
//!
//! ```text
//! cargo run --example game_bug_replay
//! ```

use sparse_rr::apps::game::netplay::{netplay_client, record_until_bug, NetPlayParams};
use sparse_rr::apps::harness::Tool;
use sparse_rr::substrates::replay::StreamId;
use sparse_rr::tsan11rec::{Execution, SparseConfig};

fn main() {
    let params = NetPlayParams::default();
    let config = || {
        Tool::QueueRec
            .config([7, 9])
            .with_sparse(SparseConfig::games())
    };

    println!("== playing multiplayer sessions until the map-change bug bites ==");
    println!("(the bug needs another client's join to race a map change — an");
    println!(" environmental coincidence, like the paper's ~12 minutes of play)\n");

    let (session, demo, rec_console) = record_until_bug(params, config, 128);
    println!("bug manifested in session #{session}:");
    for line in String::from_utf8_lossy(&rec_console)
        .lines()
        .filter(|l| l.contains("DESYNC") || l.contains("session over"))
    {
        println!("  {line}");
    }
    let stats = demo.stats();
    println!(
        "\ndemo: {} bytes total, {} bytes of syscall data, {} recorded syscalls",
        stats.total_bytes(),
        stats.stored_bytes(StreamId::Syscall),
        demo.syscalls.len()
    );

    println!("\n== replaying into a fresh world (different entropy, no bug scheduled) ==");
    let rep = Execution::new(config())
        .with_vos(sparse_rr::vos::VosConfig::deterministic(session + 4096))
        .replay(&demo, netplay_client(params));
    assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
    for line in rep
        .console_text()
        .lines()
        .filter(|l| l.contains("DESYNC") || l.contains("session over"))
    {
        println!("  {line}");
    }
    assert!(
        rep.console_text().contains("DESYNC BUG"),
        "bug must reproduce"
    );
    assert_eq!(rep.console, rec_console, "bit-identical session log");
    println!("\nThe bug replays deterministically from the demo — record once,");
    println!("debug forever (the paper's Zandronum tracker-#2380 result).");
}

//! Golden record→replay→diff suite for the binary demo codec.
//!
//! Every hazard workload plus httpd has a committed binary fixture under
//! `tests/fixtures/codec/<workload>/`. For each one the suite asserts:
//!
//! 1. re-encoding the decoded fixture reproduces the committed bytes
//!    exactly (decode∘encode is the identity — the reader and writer
//!    agree on one canonical form, so any framing or payload-encoding
//!    change fails here until the fixtures are regenerated
//!    deliberately),
//! 2. for the seed-deterministic workloads, a fresh recording at the
//!    pinned seed is **byte-identical** to the committed fixture,
//! 3. the fixture replays without a hard desync, deterministically
//!    (two replays agree tick for tick), and a fresh record→replay
//!    roundtrip reproduces the recorded schedule.
//!
//! Run with `UPDATE_GOLDEN=1` to regenerate the fixtures after an
//! intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p srr-apps --test demo_codec
//! ```
//!
//! The hazard workloads record under the random strategy with liveness
//! off: their schedule is then a pure function of the seed, so fresh
//! recordings are fully reproducible. httpd and fluidanimate record
//! under the queue strategy instead — queue captures OS arrival order
//! in the QUEUE stream (that is its design), which makes its *replay*
//! robust but its fresh recordings machine-dependent, so they are held
//! to the decode∘encode and replay assertions only. `UPDATE_GOLDEN=1`
//! transcodes their committed fixtures rather than re-recording them,
//! so an encoder change keeps their schedules. A codec version change
//! cannot: this build reads no older frames (nor text), so those
//! fixtures are then recorded again. A missing queue fixture is
//! recorded afresh.
//!
//! fluidanimate's fixture is a recording with srrbench's parameters
//! (two threads of 800 cells, ≈25.6k ticks in a few dozen QUEUE runs),
//! and its bytes are gated: see [`fluidanimate_fixture_fits_its_byte_budget`]. The two escape workloads
//! (`raw_clock`, `raw_spawn`) leak real time into the *console*, never
//! into the demo streams, so byte-identity holds for them; console
//! equivalence is checked only for the others.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use srr_apps::harness::Tool;
use srr_apps::parsec::{fluidanimate, ParsecParams};
use srr_apps::{hazards, httpd};
use tsan11rec::vos::Vos;
use tsan11rec::{soft_desync, Config, Demo, ExecReport, Execution, TraceSpec};

/// Pinned golden seed, derived exactly like the CLI derives `--seed 7`.
const SEED: u64 = 7;

/// The engine multiplexes real threads; concurrent recordings in one
/// test process perturb thread arrival timing enough to flake the
/// timing-sensitive workloads. One recording at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn seeds() -> [u64; 2] {
    [SEED, SEED.wrapping_mul(0x9E37) + 1]
}

fn config_for(tool: Tool) -> Config {
    // Liveness reschedules arrive on wall-clock time and would inject
    // timing-dependent ASYNC events into the recording; off for golden
    // byte-identity, exactly as the sched determinism suite does.
    tool.config(seeds())
        .without_liveness()
        .with_trace(TraceSpec::SCHEDULE)
}

fn no_setup(_: &Vos) {}

/// Workloads whose console output is not replay-deterministic: the two
/// escape hazards embed real time by design, and httpd records under the
/// *sparse* default set, where the paper accepts occasional soft desyncs
/// (unrecorded plain accesses may resolve differently) as long as the
/// schedule itself is reproduced. Their demo *streams* and tick traces
/// stay deterministic.
const CONSOLE_NONDET: [&str; 3] = ["raw_clock", "raw_spawn", "httpd"];

/// srrbench's fluidanimate parameters: 2 threads × 800 cells × 4 steps.
const FLUID: ParsecParams = ParsecParams {
    threads: 2,
    size: 800,
};

/// The most bytes the fluidanimate fixture may take on disk: 0.0331 B
/// per cell-step, what codec v1 spent on such a recording, times its
/// 6,400 cell-steps.
const FLUID_BYTE_BUDGET: usize = 211;

struct Case {
    name: &'static str,
    tool: Tool,
    setup: fn(&Vos),
    program: fn(),
    /// Fresh recordings reproduce the fixture bytes (random strategy
    /// only; queue records OS arrival order).
    byte_golden: bool,
}

impl Case {
    fn rnd(name: &'static str, program: fn()) -> Case {
        Case {
            name,
            tool: Tool::RndRec,
            setup: no_setup,
            program,
            byte_golden: true,
        }
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "httpd",
            tool: Tool::QueueRec,
            setup: |vos| (httpd::world(httpd::HttpdParams::default()))(vos),
            program: || (httpd::server(httpd::HttpdParams::default()))(),
            byte_golden: false,
        },
        Case {
            name: "fluidanimate",
            tool: Tool::QueueRec,
            setup: no_setup,
            program: || fluidanimate(FLUID),
            byte_golden: false,
        },
        Case::rnd("ab_ba_locks", || {
            (hazards::ab_ba_locks(hazards::AbBaParams::default()))()
        }),
        Case::rnd("mixed_counter", || (hazards::mixed_counter())()),
        Case::rnd("cond_no_recheck", || (hazards::cond_no_recheck())()),
        Case::rnd("relaxed_guard", || (hazards::relaxed_guard())()),
        Case::rnd("hidden_handoff", || (hazards::hidden_handoff())()),
        Case::rnd("atomic_guard", || (hazards::atomic_guard())()),
        Case::rnd("planned_local", || (hazards::planned_local())()),
        Case::rnd("raw_clock", || (hazards::raw_clock())()),
        Case::rnd("raw_spawn", || (hazards::raw_spawn())()),
    ]
}

fn fixture_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/codec")
        .join(name)
}

fn read_dir_bytes(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    let entries = fs::read_dir(dir).unwrap_or_else(|e| {
        panic!(
            "fixture {} missing ({e}); run UPDATE_GOLDEN=1",
            dir.display()
        )
    });
    for entry in entries {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        map.insert(name, fs::read(entry.path()).unwrap());
    }
    map
}

/// Points at the first differing byte so a codec regression reports
/// *where* the formats diverged, not just that they did.
fn assert_same_bytes(workload: &str, file: &str, want: &[u8], got: &[u8]) {
    if want == got {
        return;
    }
    let at = want
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.len().min(got.len()));
    panic!(
        "{workload}/{file}: committed fixture and fresh encoding diverge at byte {at} \
         (fixture {} bytes, fresh {} bytes) — if the codec changed on purpose, \
         regenerate with UPDATE_GOLDEN=1",
        want.len(),
        got.len()
    );
}

fn replay_fixture(case: &Case, demo: &Demo) -> ExecReport {
    let cfg = case
        .tool
        .config(demo.header.seeds)
        .without_liveness()
        .with_trace(TraceSpec::SCHEDULE);
    Execution::new(cfg)
        .setup(case.setup)
        .replay(demo, case.program)
}

#[test]
fn golden_record_replay_diff() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for case in cases() {
        let name = case.name;
        let (rec, demo) = Execution::new(config_for(case.tool))
            .setup(case.setup)
            .record(case.program);
        let dir = fixture_dir(name);

        if update {
            // A queue fixture keeps its schedule: it is transcoded.
            let fixture = match Demo::load_dir(&dir) {
                Ok(committed) if !case.byte_golden => committed,
                _ => demo.clone(),
            };
            let _ = fs::remove_dir_all(&dir);
            fixture
                .save_dir(&dir)
                .unwrap_or_else(|e| panic!("{name}: writing fixture: {e}"));
            eprintln!("regenerated {}", dir.display());
        }
        let committed = read_dir_bytes(&dir);

        // decode∘encode over the fixture is the identity: re-encoding
        // the loaded demo reproduces the committed bytes exactly.
        let loaded = Demo::load_dir(&dir).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reencoded = loaded.to_bytes_map();
        assert_eq!(
            committed.keys().collect::<Vec<_>>(),
            reencoded.keys().collect::<Vec<_>>(),
            "{name}: stream file set changed"
        );
        for (file, want) in &committed {
            assert_same_bytes(name, file, want, &reencoded[file]);
        }

        // Seed-deterministic workloads: the fresh recording *is* the
        // fixture, byte for byte.
        if case.byte_golden && !update {
            let fresh = demo.to_bytes_map();
            assert_eq!(
                committed.keys().collect::<Vec<_>>(),
                fresh.keys().collect::<Vec<_>>(),
                "{name}: fresh recording produced a different stream set"
            );
            for (file, want) in &committed {
                assert_same_bytes(name, file, want, &fresh[file]);
            }
        }

        // The committed fixture replays clean, and deterministically.
        let rep1 = replay_fixture(&case, &loaded);
        assert!(
            rep1.desync().is_none(),
            "{name}: fixture replay hit a hard desync: {:?}",
            rep1.outcome
        );
        let rep2 = replay_fixture(&case, &loaded);
        assert_eq!(
            rep1.tick_trace(),
            rep2.tick_trace(),
            "{name}: two replays of one fixture must agree tick for tick"
        );
        if !CONSOLE_NONDET.contains(&name) {
            assert!(
                !soft_desync(&rep1, &rep2),
                "{name}: two replays of one fixture must print the same console"
            );
        }

        // And the fresh record→replay roundtrip reproduces its own
        // schedule (this is the record→replay diff for httpd, whose
        // fresh recording legitimately differs from the fixture).
        let rep = replay_fixture(&case, &demo);
        assert!(
            rep.desync().is_none(),
            "{name}: fresh-record replay hit a hard desync: {:?}",
            rep.outcome
        );
        assert_eq!(
            rec.tick_trace(),
            rep.tick_trace(),
            "{name}: replay must reproduce the recorded schedule"
        );
        if !CONSOLE_NONDET.contains(&name) {
            assert!(
                !soft_desync(&rec, &rep),
                "{name}: replay console must match the recording"
            );
        }
    }
}

/// The premise behind fixture byte-identity, checked locally: recording
/// the same workload twice at the same seed yields the same bytes. If
/// this fails on some host, the golden diff above is blameless.
#[test]
fn recording_is_byte_deterministic() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for case in cases() {
        if !case.byte_golden {
            continue;
        }
        let (_, a) = Execution::new(config_for(case.tool))
            .setup(case.setup)
            .record(case.program);
        let (_, b) = Execution::new(config_for(case.tool))
            .setup(case.setup)
            .record(case.program);
        assert_eq!(
            a.to_bytes_map(),
            b.to_bytes_map(),
            "{}: two recordings at one seed must serialize identically",
            case.name
        );
    }
}

/// fluidanimate's demo is a few dozen QUEUE runs of up to thousands of
/// sections each. Codec v1 spent 0.0331 B per cell-step on it; v2's LZ77
/// matches paid a length byte per 255 bytes of such runs and spent 27%
/// more. Byte counts are exact, so the committed recording is held to
/// v1's budget exactly: srrbench's own comparison bounds fluidanimate
/// only loosely, for its timing noise.
#[test]
fn fluidanimate_fixture_fits_its_byte_budget() {
    let files = read_dir_bytes(&fixture_dir("fluidanimate"));
    let bytes: usize = files.values().map(Vec::len).sum();
    let demo = Demo::load_dir(&fixture_dir("fluidanimate")).expect("fixture loads");
    assert!(
        demo.queue.ticks() > 25_000,
        "{} ticks: not srrbench's fluidanimate",
        demo.queue.ticks()
    );
    assert!(
        bytes <= FLUID_BYTE_BUDGET,
        "fluidanimate fixture takes {bytes} B (budget {FLUID_BYTE_BUDGET}): {:?}",
        files.iter().map(|(f, b)| (f, b.len())).collect::<Vec<_>>()
    );
}

/// Corruption smoke over a *real* fixture (the synthetic battery lives
/// in srr-replay): flipping any single bit of the httpd SYSCALL frame
/// must surface a typed load error, never a panic or a silent success.
#[test]
fn fixture_bit_flips_are_detected() {
    let committed = read_dir_bytes(&fixture_dir("httpd"));
    let syscall = committed
        .get("SYSCALL")
        .expect("httpd fixture records syscalls");
    for byte in 0..syscall.len() {
        for bit in 0..8 {
            let mut map = committed.clone();
            map.get_mut("SYSCALL").unwrap()[byte] ^= 1 << bit;
            assert!(
                Demo::from_bytes_map(&map).is_err(),
                "flip at byte {byte} bit {bit} went undetected"
            );
        }
    }
}

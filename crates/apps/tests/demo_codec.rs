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
//! keeps them too, but not through this suite, since this build reads
//! no older frames (nor text): every committed fixture directory, here
//! and under `sched/`, `profile/` and `predict/`, is transcoded in place
//! by a throwaway build that reads both versions, and `srr demo export`
//! of each must equal the old build's export byte for byte. A missing
//! queue fixture is recorded afresh.
//!
//! fluidanimate's fixture is a recording with srrbench's parameters
//! (two threads of 800 cells, ≈25.6k ticks in a few dozen QUEUE runs),
//! and the bytes of it and of httpd's are gated: see
//! [`fluidanimate_fixture_fits_its_byte_budget`] and
//! [`httpd_fixture_fits_its_byte_budget`]. [`HTTPD_SYSCALL_ZLIB9`] and
//! [`TEXT_ZLIB_FIXED`] check the decoder against blocks CPython's `zlib`
//! made. The two escape workloads
//! (`raw_clock`, `raw_spawn`) leak real time into the *console*, never
//! into the demo streams, so byte-identity holds for them; console
//! equivalence is checked only for the others.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use srr_apps::harness::{seed_pair, Tool};
use srr_apps::parsec::{fluidanimate, ParsecParams};
use srr_apps::{hazards, httpd};
use srr_replay::codec::{fnv1a64, parse_frame, write_varint, CODEC_VERSION, MAGIC, PACKED};
use srr_replay::StreamId;
use tsan11rec::vos::Vos;
use tsan11rec::{soft_desync, Config, Demo, ExecReport, Execution, TraceSpec};

/// Pinned golden seed, derived exactly like the CLI derives `--seed 7`.
const SEED: u64 = 7;

/// The engine multiplexes real threads; concurrent recordings in one
/// test process perturb thread arrival timing enough to flake the
/// timing-sensitive workloads. One recording at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn seeds() -> [u64; 2] {
    seed_pair(SEED)
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

/// The most bytes the httpd fixture may take on disk: what codec v4
/// spends on it (v3 spent 1,555). srrbench bounds `demo_bytes_per_op`
/// at ±10% and the bench baseline its codec rows at ±25%; byte counts
/// are exact, so this budget is too.
const HTTPD_BYTE_BUDGET: usize = 990;

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

/// The httpd fixture is the codec's headline number, demo bytes per
/// request (paper §5.2, Table 2), and it may not grow.
#[test]
fn httpd_fixture_fits_its_byte_budget() {
    let files = read_dir_bytes(&fixture_dir("httpd"));
    let bytes: usize = files.values().map(Vec::len).sum();
    let demo = Demo::load_dir(&fixture_dir("httpd")).expect("fixture loads");
    assert_eq!(
        demo.syscalls.len(),
        331,
        "not the committed httpd recording"
    );
    assert!(
        bytes <= HTTPD_BYTE_BUDGET,
        "httpd fixture takes {bytes} B (budget {HTTPD_BYTE_BUDGET}): {:?}",
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

/// Raw-DEFLATE blocks made by CPython's `zlib`, an implementation
/// independent of this codec's encoder: each is one final block, and
/// must inflate to its input through a packed frame.
///
/// The httpd fixture's SYSCALL payload (4,888 bytes) at level 9, a
/// dynamic block whose matches run up to 258 bytes:
///
/// ```text
/// python3 -c 'import zlib; f = open("crates/apps/tests/fixtures/codec/httpd/SYSCALL", "rb").read(); c = zlib.compressobj(9, zlib.DEFLATED, -15); print((c.compress(zlib.decompress(f[10:-8], -15)) + c.flush()).hex())'
/// ```
///
/// (`f[10:-8]`: the block between the frame's magic, version, stream
/// id, two-byte payload length and two-byte raw length, and its
/// checksum.)
const HTTPD_SYSCALL_ZLIB9: [u8; 744] = [
    0xed, 0x55, 0x4b, 0x6e, 0xdb, 0x30, 0x10, 0xe5, 0x67, 0x4a, 0x08, 0x86, 0x61, 0x08, 0x28, 0xba,
    0xeb, 0x22, 0x6b, 0x2d, 0xea, 0xfa, 0x1b, 0xfb, 0x00, 0x45, 0xbb, 0xec, 0xc2, 0x17, 0x68, 0x1d,
    0x2f, 0x02, 0xa4, 0x69, 0xd0, 0x06, 0x3d, 0x4e, 0x4f, 0xe1, 0x5b, 0xf4, 0x52, 0xe5, 0x0c, 0x49,
    0x91, 0x94, 0x45, 0x68, 0x94, 0x64, 0x19, 0x22, 0x26, 0x67, 0xe6, 0x91, 0xef, 0x0d, 0xc9, 0x11,
    0xf3, 0x06, 0xbe, 0xdf, 0xde, 0xdf, 0xc0, 0xc3, 0xcf, 0xbb, 0x3b, 0xf3, 0xed, 0x78, 0x3c, 0x3d,
    0x3c, 0xc2, 0xaf, 0xd3, 0xf1, 0x0f, 0xfc, 0x3e, 0xdd, 0xdf, 0xfc, 0x53, 0x42, 0xbd, 0xb6, 0x17,
    0x6a, 0x42, 0x08, 0x25, 0xdc, 0x81, 0x6a, 0xa1, 0x85, 0xd2, 0x76, 0xd4, 0x4a, 0x83, 0x50, 0xf6,
    0x4f, 0x03, 0x9a, 0x0a, 0xd0, 0x47, 0xcc, 0x99, 0x9a, 0x69, 0x40, 0xe2, 0xab, 0x04, 0x27, 0x81,
    0xbc, 0xb7, 0xec, 0xd1, 0x23, 0x61, 0x61, 0x27, 0x6a, 0xb7, 0x06, 0x7d, 0xe1, 0x4d, 0x87, 0x44,
    0x10, 0x30, 0xf7, 0x00, 0xa1, 0x08, 0x68, 0x14, 0x23, 0x15, 0xd0, 0xd2, 0x06, 0xed, 0x4f, 0x52,
    0x32, 0x52, 0xe1, 0x0f, 0x7b, 0x3b, 0x78, 0x2b, 0x8d, 0xe2, 0x22, 0xa9, 0xd1, 0x94, 0x98, 0x28,
    0xe4, 0xb6, 0x94, 0x16, 0x97, 0xf8, 0x47, 0x06, 0x58, 0xbf, 0xed, 0x7d, 0x53, 0x7f, 0xdf, 0xaa,
    0xf7, 0x98, 0xc3, 0xd4, 0x18, 0x50, 0x46, 0xd9, 0x64, 0x2a, 0x55, 0x19, 0x3c, 0x5a, 0xc0, 0xce,
    0x50, 0x08, 0x4d, 0xdf, 0x41, 0xb0, 0xd4, 0xa0, 0x61, 0x20, 0xfa, 0x15, 0x44, 0xdc, 0x10, 0x12,
    0x7b, 0x94, 0xb4, 0x41, 0x1a, 0x0d, 0x85, 0x9d, 0x3c, 0x20, 0x86, 0x88, 0xf3, 0xc8, 0x04, 0x35,
    0x41, 0xa2, 0x16, 0xf4, 0x2b, 0x1d, 0x64, 0x3c, 0x42, 0xad, 0x72, 0x62, 0xca, 0xa9, 0x9a, 0x60,
    0x1b, 0x82, 0x94, 0xe7, 0x35, 0x49, 0xd4, 0xf8, 0x5c, 0xdb, 0x3c, 0xdb, 0x3d, 0xd3, 0x8c, 0x8a,
    0x24, 0x48, 0xc5, 0xe7, 0x8a, 0x7b, 0xaa, 0xc0, 0x2e, 0x9b, 0x81, 0x99, 0x42, 0x55, 0x09, 0x7b,
    0x27, 0x92, 0x0e, 0x1e, 0x70, 0x74, 0x87, 0x8f, 0xe7, 0xad, 0x31, 0x88, 0x37, 0x6b, 0x2d, 0xbc,
    0x00, 0xc4, 0x9c, 0xa9, 0xb9, 0x46, 0xba, 0x3c, 0x09, 0x87, 0xab, 0x4d, 0x7b, 0x2c, 0x94, 0xe0,
    0x49, 0x52, 0x4b, 0xe9, 0x5c, 0x79, 0x05, 0xa6, 0x14, 0xf4, 0x2b, 0x5b, 0x76, 0xa2, 0x90, 0xf4,
    0x49, 0xd8, 0xc1, 0x91, 0x5b, 0x0f, 0xe5, 0xb1, 0x84, 0xb4, 0xb3, 0xb1, 0xc6, 0x2e, 0xa3, 0x24,
    0xe4, 0x37, 0x8b, 0x9c, 0xb9, 0xed, 0xf8, 0x3c, 0x59, 0x9e, 0xbf, 0x74, 0x05, 0x6b, 0xf0, 0x8e,
    0x9a, 0xc9, 0xd9, 0x76, 0xf6, 0xa7, 0x9a, 0xa9, 0x3a, 0x93, 0xd5, 0x28, 0x72, 0x9b, 0x99, 0x1d,
    0xce, 0xce, 0x6b, 0x1a, 0xb2, 0x55, 0x53, 0x27, 0x5e, 0xf3, 0x24, 0xbb, 0x4b, 0x99, 0xa3, 0x61,
    0x46, 0xcf, 0xa8, 0xaa, 0x2c, 0xe2, 0xf2, 0x99, 0x74, 0x65, 0xac, 0x31, 0xcd, 0xf9, 0x6d, 0xd2,
    0x1d, 0x05, 0x35, 0xeb, 0xa6, 0xe5, 0x58, 0x71, 0xf0, 0x5a, 0x4d, 0x08, 0x53, 0x08, 0xe7, 0xe2,
    0xd4, 0x33, 0xad, 0x71, 0x78, 0xea, 0x74, 0x41, 0x9f, 0x48, 0x7b, 0x6a, 0x24, 0xd7, 0xe3, 0x7b,
    0xa5, 0xa8, 0xd2, 0xb3, 0x75, 0x67, 0x9c, 0xe9, 0x41, 0x7e, 0x6d, 0x2f, 0xd4, 0xa4, 0xb0, 0x9f,
    0xa5, 0x1d, 0xdc, 0x28, 0xbd, 0x2f, 0x5d, 0x30, 0x09, 0xb7, 0x48, 0x1e, 0x1b, 0x30, 0xa2, 0x1f,
    0xc3, 0x31, 0x94, 0x53, 0x46, 0x69, 0xd1, 0x66, 0x12, 0xbc, 0x4b, 0xa6, 0x96, 0xeb, 0x32, 0xc7,
    0x90, 0x7a, 0x3b, 0x35, 0xd8, 0x9e, 0x29, 0x72, 0xe6, 0xd1, 0x34, 0x8d, 0x8c, 0x4f, 0x44, 0xe2,
    0x76, 0x6a, 0x9a, 0x7f, 0xc8, 0x01, 0xdb, 0xbb, 0xcf, 0x9f, 0x0e, 0x57, 0xf3, 0xdb, 0xc7, 0xd3,
    0x8f, 0xf9, 0xc7, 0xab, 0x2f, 0x87, 0xc3, 0xd7, 0xf9, 0xe2, 0xc3, 0x62, 0x92, 0xc5, 0x17, 0x69,
    0x9c, 0xb5, 0x62, 0xc9, 0x63, 0xca, 0xb0, 0x55, 0xc4, 0xc6, 0x2a, 0x64, 0xc8, 0xba, 0x97, 0xa7,
    0xbc, 0x87, 0x55, 0x11, 0xd9, 0xf4, 0x32, 0x95, 0xf6, 0xb6, 0x2e, 0xf2, 0x6c, 0x7b, 0x79, 0x56,
    0x05, 0x9e, 0x4d, 0x91, 0xe7, 0xba, 0x97, 0x67, 0x5d, 0xe0, 0xd9, 0x16, 0x79, 0x76, 0xbd, 0x3c,
    0x9b, 0x02, 0xcf, 0x75, 0x91, 0x67, 0xdf, 0xcb, 0xb3, 0x2d, 0xf0, 0x24, 0xaa, 0xb2, 0x2e, 0x2b,
    0xf4, 0xf3, 0x97, 0xeb, 0xae, 0xac, 0x50, 0xaa, 0xbc, 0x92, 0x42, 0xa9, 0xea, 0x64, 0x3d, 0xb6,
    0xb2, 0x19, 0xb7, 0xcc, 0xaa, 0xa2, 0x67, 0x55, 0x0b, 0xab, 0x2e, 0xc6, 0xdf, 0x3f, 0xe3, 0x1e,
    0x38, 0x15, 0xc0, 0xb9, 0x1d, 0x56, 0xe5, 0x75, 0x90, 0x25, 0xaf, 0x32, 0x18, 0x2f, 0xcf, 0xf8,
    0xda, 0x58, 0x73, 0xf6, 0xc7, 0x7a, 0x63, 0xc6, 0xbe, 0xab, 0xdb, 0xd1, 0x2f, 0xf7, 0xf5, 0xf0,
    0x9b, 0xc4, 0x52, 0xde, 0x0d, 0x9f, 0x12, 0xeb, 0x84, 0xf6, 0x23, 0xf3, 0x59, 0x0c, 0xbe, 0x61,
    0x35, 0xf3, 0x75, 0x5e, 0x0e, 0xd7, 0x30, 0x63, 0x67, 0x1b, 0xce, 0xff, 0x17, 0x56, 0x6d, 0x2f,
    0x46, 0xe6, 0xb3, 0x1b, 0x79, 0xd2, 0xcb, 0xa7, 0x7f, 0x6b, 0xcf, 0xd8, 0x6f, 0xf9, 0xf5, 0xdf,
    0x8e, 0x7e, 0xc1, 0xf6, 0x8c, 0x1d, 0xd4, 0x8c, 0x97, 0x6d, 0x37, 0xf2, 0x6b, 0xda, 0x33, 0x5e,
    0xc8, 0x9a, 0xa5, 0x90, 0x32, 0xd5, 0xff, 0x01,
];

/// [`CPYTHON_TEXT`] under the fixed code:
///
/// ```text
/// python3 -c 'import zlib; c = zlib.compressobj(9, zlib.DEFLATED, -15, 9, zlib.Z_FIXED); print((c.compress(b"GET /index.html HTTP/1.1\r\nHost: localhost\r\n\r\n" * 2) + c.flush()).hex())'
/// ```
const TEXT_ZLIB_FIXED: [u8; 49] = [
    0x73, 0x77, 0x0d, 0x51, 0xd0, 0xcf, 0xcc, 0x4b, 0x49, 0xad, 0xd0, 0xcb, 0x28, 0xc9, 0xcd, 0x51,
    0xf0, 0x08, 0x09, 0x09, 0xd0, 0x37, 0xd4, 0x33, 0xe4, 0xe5, 0xf2, 0xc8, 0x2f, 0x2e, 0xb1, 0x52,
    0xc8, 0xc9, 0x4f, 0x4e, 0xcc, 0xc9, 0x00, 0x32, 0x79, 0xb9, 0x78, 0xb9, 0xdc, 0x49, 0x51, 0x0c,
    0x00,
];

/// The input of [`TEXT_ZLIB_FIXED`].
const CPYTHON_TEXT: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: localhost\r\n\r\nGET /index.html HTTP/1.1\r\nHost: localhost\r\n\r\n";

#[test]
fn cpython_deflate_vectors_inflate_to_their_inputs() {
    let syscall = fs::read(fixture_dir("httpd").join("SYSCALL")).expect("httpd fixture");
    let httpd = parse_frame(&syscall)
        .expect("fixture frame")
        .payload
        .into_owned();
    assert_eq!(httpd.len(), 4888);
    for (block, want) in [
        (&HTTPD_SYSCALL_ZLIB9[..], httpd.as_slice()),
        (&TEXT_ZLIB_FIXED[..], CPYTHON_TEXT),
    ] {
        // A packed SYSCALL frame: magic, version, stream id, payload
        // length, then the raw length and the block, then the checksum.
        let mut payload = Vec::new();
        write_varint(&mut payload, want.len() as u64);
        payload.extend_from_slice(block);
        let mut frame = MAGIC.to_vec();
        write_varint(&mut frame, CODEC_VERSION);
        frame.push(StreamId::Syscall as u8 | PACKED);
        write_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        let sum = fnv1a64(&frame[MAGIC.len()..]);
        frame.extend_from_slice(&sum.to_le_bytes());
        let parsed = parse_frame(&frame).unwrap_or_else(|e| panic!("{} B block: {e}", block.len()));
        assert_eq!(&*parsed.payload, want);
    }
}

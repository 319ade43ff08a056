//! `game-sim`: the §5.4 SDL-game workload (Zandronum / QuakeSpasm).
//!
//! A fixed-structure game: the main thread runs the logic+render loop
//! (input poll → state update → frame submission through the opaque GPU
//! `ioctl`), an audio thread mixes continuously, and (for multiplayer,
//! [`netplay`]) a network thread talks to the game server.
//!
//! The §5.4 claims reproduced here:
//!
//! * recording requires `SparseConfig::games()` (ignore `ioctl`): the
//!   display driver is an opaque device, so a comprehensive recorder
//!   aborts (see the rr test in `srr-rr`) and a sparse recorder that
//!   captures ioctl also aborts — ignoring it works because display
//!   traffic has no effect on game logic;
//! * frame rate under the queue strategy stays playable while the random
//!   strategy starves the main thread (it keeps scheduling the audio
//!   thread's visible operations);
//! * the networked map-change bug records and replays ([`netplay`]).

pub mod netplay;

use std::sync::Arc;

use tsan11rec::vos::{Fd, PollFd, ScriptedPeer, Vos, GPU_GET_VSYNC, GPU_SUBMIT_FRAME};
use tsan11rec::{Atomic, MemOrder};

/// Game parameters.
#[derive(Debug, Clone, Copy)]
pub struct GameParams {
    /// Frames to run.
    pub frames: u32,
    /// Cap at ~60 fps (sleep between frames) or run uncapped.
    pub capped: bool,
    /// Units of invisible per-frame compute.
    pub frame_work: u32,
    /// Background threads besides audio (sound channels, music decoder,
    /// …). Each spends most of its time in invisible sleeps between
    /// visible operations — the §5.4 starvation mechanism: a random
    /// scheduler picks them while they sleep and stalls the ready main
    /// thread; the queue scheduler only serves threads that arrive.
    pub aux_threads: u32,
    /// Milliseconds each background thread sleeps between its visible
    /// operations.
    pub aux_period_ms: u64,
}

impl Default for GameParams {
    fn default() -> Self {
        GameParams {
            frames: 60,
            capped: false,
            frame_work: 200,
            aux_threads: 2,
            aux_period_ms: 5,
        }
    }
}

/// Installs the GPU device and an input-event source.
pub fn world(_params: GameParams) -> impl FnOnce(&Vos) + Send + 'static {
    move |vos: &Vos| {
        vos.install_gpu();
    }
}

fn simulate(units: u32, seedish: u64) -> u64 {
    // Invisible game-logic compute: entity updates, collision checks...
    let mut h = seedish | 1;
    for _ in 0..units {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
    }
    h
}

/// The game program. Prints `frames=N elapsed_ns=T` at exit so harnesses
/// can compute the frame rate.
pub fn game(params: GameParams) -> impl FnOnce() + Send + 'static {
    move || {
        let gpu = Fd(tsan11rec::sys::open("/dev/gpu", false).expect("gpu device") as i32);
        // Input events arrive from the window system; modelled as a
        // connection delivering periodic key events.
        let input = tsan11rec::sys::connect(Box::new(ScriptedPeer::new(
            (0..params.frames as u64 / 4)
                .map(|i| (i * 8_000, format!("key{}\n", i % 7).into_bytes()))
                .collect(),
        )));

        let quit = Arc::new(Atomic::new(false));
        let audio_frames = Arc::new(Atomic::new(0u64));

        // Audio thread: mixes a buffer every few milliseconds. Between
        // buffers it sleeps — *invisible* time during which a random
        // scheduler may still pick it, stalling everyone (§5.4's
        // starvation; the liveness rescheduler bounds the stall).
        let audio = {
            let quit = Arc::clone(&quit);
            let audio_frames = Arc::clone(&audio_frames);
            let period = params.aux_period_ms;
            tsan11rec::thread::spawn(move || {
                let mut acc = 1u64;
                while !quit.load(MemOrder::Acquire) {
                    // vet: allow(raw-clock) invisible op: pacing only, no recorded state
                    std::thread::sleep(std::time::Duration::from_millis(period));
                    acc = simulate(16, acc); // mix a buffer (invisible)
                    audio_frames.fetch_add(1, MemOrder::Release);
                }
                acc
            })
        };
        // Further background threads (sound channels, music decoder …):
        // the same sleep-then-visible-op shape.
        let aux: Vec<_> = (0..params.aux_threads)
            .map(|i| {
                let quit = Arc::clone(&quit);
                let period = params.aux_period_ms;
                tsan11rec::thread::spawn(move || {
                    let ticker = Atomic::new(0u64);
                    let mut acc = u64::from(i) + 7;
                    while !quit.load(MemOrder::Acquire) {
                        // vet: allow(raw-clock) invisible op: pacing only, no recorded state
                        std::thread::sleep(std::time::Duration::from_millis(period));
                        acc = simulate(8, acc);
                        ticker.fetch_add(1, MemOrder::Relaxed);
                    }
                    acc
                })
            })
            .collect();

        let start = tsan11rec::sys::clock_gettime().unwrap_or(0);
        let mut state = 0xD00Du64;
        let mut arg = [0u8; 8];
        for frame in 0..params.frames {
            // Input poll.
            let mut fds = [PollFd::readable(input)];
            if let Ok(n) = tsan11rec::sys::poll(&mut fds) {
                if n > 0 && fds[0].revents.readable {
                    let mut buf = [0u8; 32];
                    if let Ok(n) = tsan11rec::sys::recv(input, &mut buf) {
                        // Fold the input into the game state.
                        state ^= simulate(4, u64::from(buf[..n as usize].len() as u32));
                    }
                }
            }
            // Logic + render (invisible compute).
            state = simulate(params.frame_work, state ^ u64::from(frame));
            // Mix-position check (cheap atomic read keeps the audio
            // thread's data flowing into the frame).
            state ^= audio_frames.load(MemOrder::Acquire);
            // Submit the frame to the display driver.
            let _ = tsan11rec::sys::ioctl(gpu, GPU_SUBMIT_FRAME, &mut arg);
            if frame % 8 == 0 {
                let _ = tsan11rec::sys::ioctl(gpu, GPU_GET_VSYNC, &mut arg);
            }
            if params.capped {
                tsan11rec::sys::sleep_ms(16); // ~60 fps budget
            }
        }
        let end = tsan11rec::sys::clock_gettime().unwrap_or(0);
        quit.store(true, MemOrder::Release);
        let _ = audio.join();
        for h in aux {
            let _ = h.join();
        }
        tsan11rec::sys::println(&format!(
            "frames={} elapsed_ns={} state={state:x}",
            params.frames,
            end.saturating_sub(start)
        ));
    }
}

/// Parses the `frames=N elapsed_ns=T` line into (frames, elapsed ns).
#[must_use]
pub fn parse_frame_stats(console: &str) -> Option<(u32, u64)> {
    let line = console.lines().find(|l| l.starts_with("frames="))?;
    let mut frames = None;
    let mut elapsed = None;
    for field in line.split_whitespace() {
        if let Some(v) = field.strip_prefix("frames=") {
            frames = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("elapsed_ns=") {
            elapsed = v.parse().ok();
        }
    }
    Some((frames?, elapsed?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_tool, Tool};
    use tsan11rec::{Execution, SparseConfig};

    fn small() -> GameParams {
        GameParams {
            frames: 16,
            capped: false,
            frame_work: 20,
            aux_threads: 1,
            aux_period_ms: 2,
        }
    }

    #[test]
    fn game_runs_under_native_and_controlled_tools() {
        for tool in [Tool::Native, Tool::Tsan11, Tool::Queue, Tool::Rnd] {
            let params = small();
            let r = run_tool(tool, [8, 2], world(params), game(params));
            assert!(r.report.outcome.is_ok(), "{tool}: {:?}", r.report.outcome);
            let (frames, _) = parse_frame_stats(&r.report.console_text()).expect("stats line");
            assert_eq!(frames, 16);
        }
    }

    #[test]
    fn recording_with_default_sparse_config_aborts_on_gpu() {
        // Without the games workaround, ioctl is in the recorded set and
        // the GPU is opaque: recording must abort (as §5.4 describes for
        // the initial attempts).
        let params = small();
        let (report, _) = Execution::new(Tool::QueueRec.config([8, 2]))
            .setup(world(params))
            .record(game(params));
        match report.outcome {
            tsan11rec::Outcome::HardDesync(d) => {
                assert_eq!(d.constraint, "unsupported-ioctl");
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn games_config_records_and_replays() {
        let params = small();
        let config = || {
            Tool::QueueRec
                .config([8, 2])
                .with_sparse(SparseConfig::games())
        };
        let (rec, demo) = Execution::new(config())
            .setup(world(params))
            .record(game(params));
        assert!(rec.outcome.is_ok(), "{:?}", rec.outcome);
        assert!(demo.syscalls.iter().all(|s| s.head.kind != "ioctl"));
        // Replay needs the device present but not the input peer script
        // contents — display runs natively, inputs come from the demo.
        let rep = Execution::new(config())
            .setup(|vos: &Vos| vos.install_gpu())
            .replay(&demo, game(params));
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert_eq!(rep.console, rec.console, "same frames, same state hash");
    }

    #[test]
    fn frame_stats_parse() {
        assert_eq!(
            parse_frame_stats("frames=60 elapsed_ns=12345 state=ff\n"),
            Some((60, 12345))
        );
        assert_eq!(parse_frame_stats("nonsense"), None);
    }
}

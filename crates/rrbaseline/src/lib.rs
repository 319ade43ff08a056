//! The rr-like comprehensive record/replay baseline.
//!
//! The paper evaluates tsan11rec against Mozilla's **rr 5.1.0** (§5). rr's
//! relevant characteristics, reproduced here over the same virtual OS:
//!
//! * **full sequentialization** — one thread runs at a time on a
//!   priority/first-come-first-served schedule with a time slice; the
//!   paper repeatedly attributes rr's slowdowns on parallel workloads to
//!   this (e.g. §5.3's blackscholes discussion);
//! * **comprehensive recording** — every syscall is captured (no sparse
//!   configuration), *and* memory-layout nondeterminism is eliminated:
//!   the allocator's address stream is recorded and replayed, which is
//!   why rr handles SQLite/SpiderMonkey (§5.5) where tsan11rec
//!   desynchronises;
//! * **opaque-device failure** — proprietary ioctl traffic (the NVIDIA
//!   module of §5.4) cannot be captured; recording such an application
//!   aborts, exactly as rr cannot handle the SDL games.
//!
//! Two configurations mirror the paper's rows:
//! [`rr_config`] (plain rr: no race analysis) and
//! [`tsan11_under_rr_config`] ("tsan11 + rr": instrumented code running
//! under the sequentialized recorder).
//!
//! # Example
//!
//! ```
//! use srr_rr::{rr_config, RrOptions};
//! use tsan11rec::Execution;
//!
//! let (report, demo) = Execution::new(rr_config(RrOptions::default()))
//!     .record(|| {
//!         let addr = tsan11rec::sys::valloc(64);
//!         tsan11rec::sys::println(&format!("allocated {addr:#x}"));
//!     });
//! assert!(report.outcome.is_ok());
//! assert!(!demo.alloc.is_empty(), "rr records the allocator");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tsan11rec::{Config, Mode, SparseConfig, Strategy};

/// Tunables for the baseline.
#[derive(Debug, Clone, Copy)]
pub struct RrOptions {
    /// Visible operations per scheduling slice (rr gives each thread a
    /// time slice before yielding; we count visible operations instead of
    /// cycles).
    pub quantum: u32,
    /// Fixed PRNG seeds (rr itself is deterministic; seeds only matter
    /// for the vOS interplay).
    pub seeds: [u64; 2],
}

impl Default for RrOptions {
    fn default() -> Self {
        RrOptions {
            quantum: 16,
            seeds: [0xECED, 0x5EED],
        }
    }
}

/// Plain rr: sequentialized, comprehensive recording, **no** race
/// analysis (the paper's `rr` rows).
#[must_use]
pub fn rr_config(opts: RrOptions) -> Config {
    Config::new(Mode::Tsan11Rec(Strategy::Slice {
        quantum: opts.quantum,
    }))
    .with_seeds(opts.seeds)
    .with_sparse(SparseConfig::comprehensive())
    .with_alloc_recording()
    .without_race_detection()
    .without_liveness()
}

/// tsan11-instrumented code running under rr (the paper's `tsan11 + rr`
/// rows): race detection *and* sequentialized comprehensive recording.
#[must_use]
pub fn tsan11_under_rr_config(opts: RrOptions) -> Config {
    Config::new(Mode::Tsan11Rec(Strategy::Slice {
        quantum: opts.quantum,
    }))
    .with_seeds(opts.seeds)
    .with_sparse(SparseConfig::comprehensive())
    .with_alloc_recording()
    .without_liveness()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tsan11rec::vos::{Fd, SilentPeer, Vos};
    use tsan11rec::{Atomic, Execution, MemOrder, Outcome, Shared, TraceSpec};

    #[test]
    fn rr_configs_have_the_right_knobs() {
        let c = rr_config(RrOptions::default());
        assert!(matches!(c.mode, Mode::Tsan11Rec(Strategy::Slice { .. })));
        assert!(!c.detect_races);
        assert!(c.record_alloc);
        assert!(c.sparse.records_kind("open"), "comprehensive set");

        let c = tsan11_under_rr_config(RrOptions::default());
        assert!(c.detect_races, "tsan11+rr analyses races");
    }

    #[test]
    fn plain_rr_detects_no_races() {
        let report = Execution::new(rr_config(RrOptions::default())).run(|| {
            let s = Arc::new(Shared::new("x", 0u64));
            let s2 = Arc::clone(&s);
            let t = tsan11rec::thread::spawn(move || s2.write(1));
            s.write(2);
            t.join();
        });
        assert!(report.outcome.is_ok());
        assert_eq!(report.races, 0, "analysis is off");
    }

    #[test]
    fn tsan11_under_rr_detects_races() {
        let report = Execution::new(tsan11_under_rr_config(RrOptions::default())).run(|| {
            let s = Arc::new(Shared::new("x", 0u64));
            let s2 = Arc::clone(&s);
            let t = tsan11rec::thread::spawn(move || s2.write(1));
            s.write(2);
            t.join();
        });
        assert!(report.outcome.is_ok());
        assert!(report.races > 0);
    }

    #[test]
    fn rr_replays_allocator_addresses() {
        // The §5.5 property: pointer values reproduce under rr because the
        // allocator stream is part of the recording.
        let program = || {
            let a = tsan11rec::sys::valloc(64);
            let b = tsan11rec::sys::valloc(128);
            tsan11rec::sys::println(&format!("{a:#x} {b:#x}"));
        };
        // Record under a randomized (ASLR-like) allocator.
        let vos_cfg = || {
            tsan11rec::vos::VosConfig::deterministic(7)
                .with_alloc(tsan11rec::vos::AllocMode::Randomized { entropy: 1234 })
        };
        let (rec, demo) = Execution::new(rr_config(RrOptions::default()))
            .with_vos(vos_cfg())
            .record(program);
        assert!(!demo.alloc.is_empty());
        // Replay under a *different* entropy: recorded addresses win.
        let rep = Execution::new(rr_config(RrOptions::default()))
            .with_vos(
                tsan11rec::vos::VosConfig::deterministic(7)
                    .with_alloc(tsan11rec::vos::AllocMode::Randomized { entropy: 9999 }),
            )
            .replay(&demo, program);
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert_eq!(rec.console, rep.console, "identical pointer values");
    }

    #[test]
    fn rr_records_file_reads() {
        let program = || {
            let fd = Fd(tsan11rec::sys::open("/etc/conf", false).expect("exists") as i32);
            let mut buf = [0u8; 16];
            let n = tsan11rec::sys::read(fd, &mut buf).expect("read") as usize;
            tsan11rec::sys::println(&String::from_utf8_lossy(&buf[..n]));
        };
        let setup = |vos: &Vos| vos.add_file("/etc/conf", b"alpha".to_vec());
        let (rec, demo) = Execution::new(rr_config(RrOptions::default()))
            .setup(setup)
            .record(program);
        assert!(
            demo.syscalls.iter().any(|s| s.kind == "read"),
            "comprehensive recording includes file reads"
        );
        // Replay against a world whose file says something else: the
        // recorded bytes win.
        let rep = Execution::new(rr_config(RrOptions::default()))
            .setup(|vos| vos.add_file("/etc/conf", b"WRONG".to_vec()))
            .replay(&demo, program);
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert_eq!(rec.console, rep.console);
    }

    #[test]
    fn rr_aborts_on_opaque_gpu_ioctl() {
        // §5.4: the games are out of scope for rr.
        let (report, _demo) = Execution::new(rr_config(RrOptions::default()))
            .setup(|vos| vos.install_gpu())
            .record(|| {
                let gpu = Fd(tsan11rec::sys::open("/dev/gpu", false).expect("gpu") as i32);
                let mut arg = [0u8; 8];
                let _ = tsan11rec::sys::ioctl(gpu, tsan11rec::vos::GPU_SUBMIT_FRAME, &mut arg);
            });
        match report.outcome {
            Outcome::HardDesync(d) => assert_eq!(d.constraint, "unsupported-ioctl"),
            other => panic!("rr must refuse the opaque device, got {other:?}"),
        }
    }

    #[test]
    fn rr_schedule_is_sequentialized_slices() {
        let report = {
            let mut config = rr_config(RrOptions {
                quantum: 4,
                seeds: [1, 1],
            });
            config = config.with_trace(TraceSpec::SCHEDULE);
            Execution::new(config).run(|| {
                let a = Arc::new(Atomic::new(0u64));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let a = Arc::clone(&a);
                        tsan11rec::thread::spawn(move || {
                            for _ in 0..12 {
                                a.fetch_add(1, MemOrder::SeqCst);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
            })
        };
        assert!(report.outcome.is_ok());
        // Count context switches: with quantum 4 the trace must show runs
        // of the same tid, not fine-grained interleaving.
        let tids: Vec<u32> = report.tick_trace().iter().map(|&(t, _)| t).collect();
        let switches = tids.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches * 3 < tids.len(),
            "slices imply few switches: {switches} in {} cs",
            tids.len()
        );
    }

    #[test]
    fn rr_record_replay_roundtrip_with_network() {
        let program = || {
            let fd = tsan11rec::sys::connect(Box::new(tsan11rec::vos::EchoPeer::new(0)));
            tsan11rec::sys::send(fd, b"ping").expect("send");
            let mut buf = [0u8; 8];
            let n = tsan11rec::sys::recv(fd, &mut buf).expect("recv") as usize;
            tsan11rec::sys::println(&String::from_utf8_lossy(&buf[..n]));
        };
        let (rec, demo) = Execution::new(rr_config(RrOptions::default())).record(program);
        // Empty replay world: connect() gives a silent peer-less conn...
        // actually connect re-creates an echo peer from program code, but
        // the recorded recv bytes win regardless.
        let rep = Execution::new(rr_config(RrOptions::default()))
            .setup(|_vos: &Vos| {})
            .replay(&demo, program);
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert_eq!(rec.console, rep.console);
        let _ = SilentPeer; // (referenced to document the alternative)
    }
}

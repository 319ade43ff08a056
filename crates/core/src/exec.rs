//! The execution harness: runs a program under a tool configuration,
//! optionally recording or replaying a demo.

use std::sync::atomic::Ordering as AOrd;
use std::sync::Arc;
use std::time::Instant;

use srr_memmodel::ThreadView;
use srr_obs::{DesyncDiagnostics, EventClass, ObsReport, StreamCounter};
use srr_replay::{Demo, DemoHeader, StreamId};
use srr_vos::{AllocMode, Vos, VosConfig};

use crate::config::{Config, RecordMode};
use crate::ids::Tid;
use crate::prng::Prng;
use crate::report::{ExecReport, Outcome};
use crate::runtime::{clear_ctx, install_ctx, Runtime};
use crate::sched::{FailReason, SchedAbort, Scheduler};
use crate::thread::{finish_thread, handle_panic};

/// Installs (once, process-wide) a panic hook that silences the
/// intentional [`SchedAbort`] unwinds the scheduler uses as control flow
/// — they would otherwise spam stderr with backtraces on every detected
/// deadlock or desynchronisation. All other panics keep the default
/// behaviour.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SchedAbort>().is_some() {
                return; // expected unwind; the harness reports it
            }
            default_hook(info);
        }));
    });
}

/// World-setup callback installed via [`Execution::setup`].
type SetupFn = Box<dyn FnOnce(&Vos) + Send>;

/// Builder for one program execution.
///
/// ```
/// use tsan11rec::{Config, Execution, Mode, Strategy};
///
/// let report = Execution::new(
///     Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds([1, 2]),
/// )
/// .run(|| {
///     tsan11rec::sys::println("hello");
/// });
/// assert!(report.outcome.is_ok());
/// assert_eq!(report.console_text(), "hello\n");
/// ```
pub struct Execution {
    config: Config,
    vos_config: VosConfig,
    setup: Option<SetupFn>,
}

impl Execution {
    /// An execution under `config` with a deterministic virtual world.
    #[must_use]
    pub fn new(config: Config) -> Self {
        Execution {
            config,
            vos_config: VosConfig::deterministic(0x5eed),
            setup: None,
        }
    }

    /// Replaces the virtual-OS configuration.
    #[must_use]
    pub fn with_vos(mut self, vos_config: VosConfig) -> Self {
        self.vos_config = vos_config;
        self
    }

    /// Installs world state (listeners, devices, files, signal sources)
    /// before the program starts.
    #[must_use]
    pub fn setup(mut self, f: impl FnOnce(&Vos) + Send + 'static) -> Self {
        self.setup = Some(Box::new(f));
        self
    }

    /// Runs `program` without recording.
    pub fn run<F>(self, program: F) -> ExecReport
    where
        F: FnOnce() + Send + 'static,
    {
        self.launch(program, RecordMode::Off, None).0
    }

    /// Runs `program` while recording; returns the report and the demo.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not `Tsan11Rec` (only controlled executions
    /// can record).
    pub fn record<F>(self, program: F) -> (ExecReport, Demo)
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(
            self.config.mode.is_controlled(),
            "recording requires a controlled (Tsan11Rec) mode"
        );
        let (report, demo) = self.launch(program, RecordMode::Record, None);
        (report, demo.expect("record mode produces a demo"))
    }

    /// Replays `demo` over `program`.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not `Tsan11Rec`, or if the demo's strategy
    /// does not match the configuration's.
    pub fn replay<F>(mut self, demo: &Demo, program: F) -> ExecReport
    where
        F: FnOnce() + Send + 'static,
    {
        let strategy = self
            .config
            .mode
            .strategy()
            .expect("replay requires a controlled (Tsan11Rec) mode");
        assert_eq!(
            demo.header.strategy,
            strategy.name(),
            "demo was recorded under a different strategy"
        );
        // Replay reuses the recorded seeds: for the random strategy they
        // *are* the interleaving (§4.2).
        self.config.seeds = Some(demo.header.seeds);
        // A comprehensive demo carries the allocator stream; replaying it
        // reproduces pointer values (what rr does, §5.5).
        if !demo.alloc.is_empty() {
            self.vos_config = self.vos_config.with_alloc(AllocMode::Scripted {
                addresses: Arc::clone(&demo.alloc),
            });
        }
        self.launch(program, RecordMode::Replay, Some(demo)).0
    }

    fn launch<F>(
        self,
        program: F,
        rec_mode: RecordMode,
        demo: Option<&Demo>,
    ) -> (ExecReport, Option<Demo>)
    where
        F: FnOnce() + Send + 'static,
    {
        install_quiet_abort_hook();
        let Execution {
            config,
            vos_config,
            setup,
        } = self;
        let seeds = config.seeds.unwrap_or_else(Prng::environment_seeds);
        let record_alloc = config.record_alloc;
        let vos = Arc::new(Vos::new(vos_config));
        if let Some(setup) = setup {
            setup(&vos);
        }

        let strategy = config.mode.strategy();
        let liveness = config.liveness;
        let race_target = config.race_target.clone();
        let metrics = config.metrics.clone();
        let rt = Runtime::new(config, Arc::clone(&vos), seeds);
        if let Some((label, a, b)) = &race_target {
            rt.racedet
                .lock()
                .set_target(label.clone(), *a as usize, *b as usize);
        }
        if let Some(reg) = &metrics {
            if rt.mode().is_controlled() {
                rt.sched().enable_metrics(reg);
            }
        }

        // A replay reads the demo's streams in place: the scheduler and
        // the syscall cursor share them with the caller's demo.
        match (&rec_mode, demo) {
            (RecordMode::Record, _) => {
                rt.sched().enable_recording();
                rt.set_record_mode(RecordMode::Record, Arc::default());
            }
            (RecordMode::Replay, Some(demo)) => {
                rt.sched().enable_replay(
                    Arc::clone(&demo.queue),
                    &demo.signals,
                    &demo.async_events,
                );
                rt.set_record_mode(RecordMode::Replay, Arc::clone(&demo.syscalls));
            }
            _ => {}
        }

        // The liveness rescheduler (§3.3): tsan's background thread
        // periodically forces a reschedule when the active thread sits in
        // invisible code.
        let liveness_handle = match (rt.mode().is_controlled(), liveness) {
            (true, Some(interval)) => {
                let rt2 = Arc::clone(&rt);
                Some(std::thread::spawn(move || {
                    while !rt2.stop_liveness.load(AOrd::Relaxed) {
                        std::thread::sleep(interval);
                        rt2.sched().reschedule();
                    }
                }))
            }
            _ => None,
        };

        let start = Instant::now();
        let rt_main = Arc::clone(&rt);
        let main = std::thread::spawn(move || {
            install_ctx(Arc::clone(&rt_main), Tid::MAIN, ThreadView::new(0));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(program));
            match outcome {
                Ok(()) => finish_thread(&rt_main, Tid::MAIN),
                Err(payload) => handle_panic(&rt_main, Tid::MAIN, payload),
            }
            clear_ctx();
        });
        let _ = main.join();

        // Wait for every program thread (programs may leak unjoined
        // threads; their logical ThreadDelete keeps the scheduler sound,
        // and we still want the OS threads gone before reporting).
        loop {
            let handle = rt.os_handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // Measure before reaping the liveness thread: its sleep interval
        // must not put a floor under short executions' durations.
        let duration = start.elapsed();
        rt.stop_liveness.store(true, AOrd::Relaxed);
        if let Some(h) = liveness_handle {
            let _ = h.join();
        }

        let mut outcome = match rt.sched.as_ref().and_then(|s| s.failure()) {
            Some(FailReason::Deadlock) => Outcome::Deadlock,
            Some(FailReason::Desync(d)) => Outcome::HardDesync(d),
            Some(FailReason::ProgramPanic(msg)) => Outcome::Panicked(msg),
            None => match rt.panic_note.lock().clone() {
                Some(msg) => Outcome::Panicked(msg),
                None => Outcome::Completed,
            },
        };

        let (races, race_reports, suppressed, race_target_hit) = {
            let mut det = rt.racedet.lock();
            let races = det.race_count();
            let mut sink = srr_racedet::CollectSink::default();
            det.drain_into(&mut sink);
            let hit = race_target.is_some().then(|| det.target_hit());
            (races, sink.reports, det.suppressed_count(), hit)
        };

        let produced_demo = if rec_mode == RecordMode::Record {
            let (queue, signals, async_events) = rt.sched().take_recording();
            let strategy = strategy.expect("record mode is controlled");
            let mut d = Demo::new(DemoHeader::new("tsan11rec", strategy.name(), seeds));
            d.queue = Arc::new(queue);
            d.signals = signals;
            d.async_events = async_events;
            d.syscalls = Arc::new(rt.take_syscall_recording());
            if record_alloc {
                d.alloc = Arc::new(vos.alloc_log());
            }
            Some(d)
        } else {
            None
        };

        let sync_trace = rt.obs.as_ref().map(|o| o.finish()).unwrap_or_default();
        let schedule_traced = rt.keeps(EventClass::Schedule);

        let mut obs_report = ObsReport::of(&sync_trace);
        // Stream counters describe the demo the run produced or consumed,
        // and are reported even with the event trace off. Only a demo the
        // run produced is encoded: one binary encode sizes its streams and
        // the whole demo. A replay writes nothing, so its counters carry
        // entries only.
        let demo_bytes = match (&produced_demo, demo) {
            (Some(d), _) => {
                let stats = d.stats();
                obs_report.streams = demo_stream_counters(d, |id| stats.stored_bytes(id));
                Some(stats.total_bytes())
            }
            (None, Some(d)) => {
                obs_report.streams = demo_stream_counters(d, |_| 0);
                None
            }
            (None, None) => None,
        };
        if let Outcome::HardDesync(hd) = &mut outcome {
            // Diagnose the divergence: the demo's intended schedule vs
            // the ticks the log saw (none without the schedule class —
            // the report still pinpoints the failing stream entry). The
            // run saw at most `ran` ticks, so the diff needs no more of
            // the demo's schedule than one past them.
            let ran = rt.sched.as_ref().map_or(0, |s| s.total_ticks()) as usize;
            let recorded: Vec<(u32, u64)> = demo
                .map(|d| d.queue.schedule().take(ran + 1).collect())
                .unwrap_or_default();
            let diag = DesyncDiagnostics::build(
                hd.tick,
                &hd.constraint,
                &hd.stream,
                hd.offset,
                &recorded,
                schedule_traced.then_some(&sync_trace),
            );
            hd.context.extend(diag.summary_lines());
            obs_report.desync = Some(diag);
        }

        let report = ExecReport {
            outcome,
            races,
            race_reports,
            suppressed,
            race_target_hit,
            ticks: rt.sched.as_ref().map_or(0, |s| s.total_ticks()),
            visible_ops: rt.visible_ops(),
            syscalls: vos.syscall_count(),
            duration,
            console: vos.console(),
            demo_bytes,
            replay_leftover_syscalls: rt.replay_leftover(),
            strace: vos.take_strace(),
            sync_trace,
            sched: rt
                .sched
                .as_ref()
                .map(Scheduler::counters)
                .unwrap_or_default(),
            obs: obs_report,
            plan: rt.plan_counters(),
        };
        if let Some(reg) = &metrics {
            vos.publish_metrics(reg);
            reg.gauge("run_ticks").set(report.ticks);
            reg.gauge("run_visible_ops").set(report.visible_ops);
            if report.plan.sites > 0 {
                reg.counter("plan_sites_total").add(report.plan.sites);
                reg.counter("plan_filtered_total")
                    .add(report.plan.filtered_events);
            }
            for s in &report.obs.streams {
                reg.gauge(&format!("vos_stream_entries{{stream=\"{}\"}}", s.stream))
                    .set(s.entries);
                if report.demo_bytes.is_some() {
                    reg.gauge(&format!("vos_stream_bytes{{stream=\"{}\"}}", s.stream))
                        .set(s.bytes);
                }
            }
        }
        (report, produced_demo)
    }
}

/// Per-stream entry and on-disk byte counters for a demo, keyed the way
/// the demo directory is laid out; `bytes` sizes a stream's file (0 for a
/// consumed demo, which is not encoded, and for an empty stream, which
/// writes no file).
fn demo_stream_counters(demo: &Demo, bytes: impl Fn(StreamId) -> usize) -> Vec<StreamCounter> {
    StreamId::ALL
        .iter()
        .map(|&id| StreamCounter {
            stream: id.file_name().to_owned(),
            entries: demo.entries(id),
            bytes: bytes(id) as u64,
        })
        .collect()
}

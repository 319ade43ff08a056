//! `srrbench`: one benchmark for record, replay, explore and predict.
//!
//! Every time is taken from outside, around the public calls a user
//! makes (`Execution::{run,record,replay}`, `Demo::{save_dir,load_dir}`,
//! `run_farm`, `predict_with`, `classify_with`), so costs the program's
//! own clocks leave out — the liveness thread's teardown, farm dispatch,
//! demo I/O — are counted. Each workload sets up several times (the
//! median is `setup_s`), then measures for a fixed number of seconds
//! with a floor on the sample count, checking every output as it goes.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]). A
//! traced run alternates traced and untraced steps: the traced ones keep
//! a span per public call and turn on `Config::with_metrics`, and the
//! run reports the per-layer metrics ([`PER_LAYER`]), including the cost
//! of tracing itself.

#![deny(unsafe_code)]

pub mod compare;
mod explore;
mod heap;
mod pipeline;
mod predict;
mod probes;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use srr_obs::{Json, MetricsRegistry};
use tsan11rec::vos::Vos;
use tsan11rec::{Config, Demo, ExecReport, Execution};

use crate::trace::{SpanId, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// httpd-sim under `queue + rec`: record → save → load → replay.
    Httpd,
    /// fluidanimate under `queue + rec`: record → save → load → replay.
    Fluidanimate,
    /// The exploration farm over the barrier litmus (rnd + queue).
    ExploreBarrier,
    /// record → predict → classify over the `hidden_handoff` hazard.
    PredictHazards,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Httpd,
        Workload::Fluidanimate,
        Workload::ExploreBarrier,
        Workload::PredictHazards,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Httpd => "httpd",
            Workload::Fluidanimate => "fluidanimate",
            Workload::ExploreBarrier => "explore_barrier",
            Workload::PredictHazards => "predict_hazards",
        }
    }

    /// Resolves a workload name.
    ///
    /// # Errors
    ///
    /// Fails on an unknown name, listing the valid ones.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (valid: {})", valid.join(", "))
            })
    }

    /// Samples a measurement takes at least, whatever its length: enough
    /// for ten samples beyond [`Workload::tail_quantile`].
    #[must_use]
    pub fn min_samples(self) -> usize {
        match self {
            Workload::Httpd | Workload::Fluidanimate => 40,
            Workload::ExploreBarrier | Workload::PredictHazards => 100,
        }
    }

    /// The quantile `iter_ms_tail` reports: the highest one with at least
    /// ten samples beyond it at [`Workload::min_samples`] (p75, p90). A
    /// run measures more samples than that; higher quantiles of the
    /// ~10 ms workloads caught host stalls and moved 20% between runs.
    #[must_use]
    pub fn tail_quantile(self) -> f64 {
        1.0 - 10.0 / self.min_samples() as f64
    }
}

/// `(name, unit)` of every end-to-end metric, as an untraced run prints
/// them. See `srrbench/README.md` for their definitions.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_heap_mb_p50", "MB"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("record_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("demo_bytes_per_op", "B/op"),
];

/// `(name, unit)` of every per-layer metric, as a traced run prints
/// them. Layers are named after the crates. Every time here is measured
/// on every workload; what a layer costs only on the workloads that use
/// it is its share of the iteration's wall (`<layer>.self_pct`, the
/// per-layer self-time table), 0 where the workload does not use it.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("core.record_slowdown_x", "x"),
    ("core.teardown_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.ticks_per_op", "1/op"),
    ("core.visible_ops_per_op", "1/op"),
    ("core.ns_per_tick", "ns"),
    ("core.wakeups_per_tick", "1/tick"),
    ("core.spurious_wakeups", "count"),
    ("core.handoff_ns", "ns"),
    ("core.self_pct", "%"),
    ("vos.syscalls_per_op", "1/op"),
    ("vos.syscall_ns", "ns"),
    ("vos.self_pct", "%"),
    ("replay.save_ms", "ms"),
    ("replay.load_ms", "ms"),
    ("replay.encode_ms", "ms"),
    ("replay.decode_ms", "ms"),
    ("replay.queue_bytes_per_op", "B/op"),
    ("replay.syscall_bytes_per_op", "B/op"),
    ("replay.hard_desyncs", "count"),
    ("replay.soft_desyncs", "count"),
    ("replay.self_pct", "%"),
    ("racedet.races_per_run", "count"),
    ("racedet.access_ns", "ns"),
    ("memmodel.store_load_ns", "ns"),
    ("vclock.join_ns", "ns"),
    ("explore.signatures", "count"),
    ("explore.race_rate", "ratio"),
    ("explore.self_pct", "%"),
    ("predict.witnesses_per_run", "count"),
    ("predict.confirmed_per_run", "count"),
    ("predict.self_pct", "%"),
    ("bench.self_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// How one workload run is measured.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Samples the measurement takes at least.
    pub min_samples: usize,
    /// Set-ups (each: fresh state + one warm-up step); `setup_s` is
    /// their median.
    pub setups: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work directory for saved demos (created and removed by the run).
    pub work_dir: PathBuf,
    /// Called on every saved demo directory before it is loaded back; a
    /// test uses it to damage the demo.
    pub damage: Option<fn(&Path)>,
}

impl Options {
    /// The measurement the benchmark command makes of `workload`.
    #[must_use]
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: PathBuf,
    ) -> Self {
        Options {
            seed,
            seconds,
            min_samples: workload.min_samples(),
            setups: 15,
            trace,
            work_dir,
            damage: None,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// One message per failure (the first few are kept).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// catalog order.
    pub metrics: Vec<Metric>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<trace::Span>,
    /// Samples measured (iterations; seed-runs for `explore_barrier`).
    pub samples: usize,
    /// Of those, the samples measured with tracing on.
    pub traced_samples: u64,
    /// Distinct race signatures of the first farm batch
    /// (`explore_barrier` only): the same for a traced and an untraced
    /// run of one seed.
    pub signatures: Option<u64>,
}

impl Report {
    /// Whether every checked output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics` (`{name: {value, unit}}`).
    #[must_use]
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// World set-up installed before a program starts.
pub(crate) type World = Box<dyn FnOnce(&Vos) + Send>;
/// A program body.
pub(crate) type Program = Box<dyn FnOnce() + Send>;

/// The `Execution` entry point a controlled call goes through.
pub(crate) enum Call<'d> {
    /// A recording standing for this many ops of the workload.
    Record(f64),
    Replay(&'d Demo),
}

/// One timed execution.
pub(crate) struct Exec {
    pub report: ExecReport,
    pub demo: Option<Demo>,
    pub wall_ms: f64,
}

/// One measured step: an iteration, or a farm batch for
/// `explore_barrier`.
pub(crate) struct Step {
    pub iter: u64,
    pub traced: bool,
    pub tracer: Arc<Tracer>,
}

impl Step {
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        self.tracer.open(name, layer, parent, self.iter)
    }

    pub fn close(&self, id: Option<SpanId>) {
        self.tracer.close(id);
    }
}

/// Per-layer sums over the traced steps.
#[derive(Default)]
pub(crate) struct LayerAcc {
    /// Samples the traced steps measured.
    pub samples: u64,
    // core, one entry per controlled call
    pub calls: u64,
    pub run_ms: Vec<f64>,
    pub teardown_ms: Vec<f64>,
    pub ticks: u64,
    pub run_ns: f64,
    pub wakeups: u64,
    pub spurious: u64,
    // recordings only
    pub records: u64,
    pub record_ops: f64,
    pub record_ticks: u64,
    pub record_visible_ops: u64,
    pub record_syscalls: u64,
    pub record_races: u64,
    // replay
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    /// Ops the demos passed through `codec` stand for.
    pub codec_ops: f64,
    pub queue_bytes: u64,
    pub syscall_bytes: u64,
    pub hard_desyncs: u64,
    pub soft_desyncs: u64,
    // explore
    pub runs: u64,
    pub race_runs: u64,
    pub signatures: Vec<f64>,
    // predict
    pub pipelines: u64,
    pub witnesses: u64,
    pub confirmed: u64,
}

impl LayerAcc {
    /// Times saving `demo` to `dir` and loading it back, for workloads
    /// whose iterations keep their demos in memory. Fails when the
    /// loaded demo differs.
    pub fn save_load(&mut self, demo: &Demo, dir: &Path) -> Result<(), String> {
        let t = Instant::now();
        demo.save_dir(dir)
            .map_err(|e| format!("saving {}: {e}", dir.display()))?;
        self.save_ms.push(ms_since(t));
        let t = Instant::now();
        let loaded = Demo::load_dir(dir).map_err(|e| format!("loading the demo: {e}"))?;
        self.load_ms.push(ms_since(t));
        if loaded == *demo {
            Ok(())
        } else {
            Err("a demo changed through save and load".to_owned())
        }
    }

    /// Times encoding `demo`, which stands for `ops` ops, and decoding it
    /// back, and folds its stream sizes in. Fails when the decoded demo
    /// differs.
    pub fn codec(&mut self, demo: &Demo, ops: f64) -> Result<(), String> {
        let t = Instant::now();
        let map = demo.to_bytes_map();
        self.encode_ms.push(ms_since(t));
        let t = Instant::now();
        let decoded =
            Demo::from_bytes_map(&map).map_err(|e| format!("decoding a fresh encoding: {e}"))?;
        self.decode_ms.push(ms_since(t));
        if decoded != *demo {
            return Err("a demo changed through encode and decode".to_owned());
        }
        let len = |name: &str| map.get(name).map_or(0, |b| b.len() as u64);
        self.codec_ops += ops;
        self.queue_bytes += len("QUEUE");
        self.syscall_bytes += len("SYSCALL");
        Ok(())
    }
}

/// Measurement state shared by the workloads.
pub(crate) struct Ctx {
    pub opts: Options,
    tracer: Arc<Tracer>,
    untraced: Arc<Tracer>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per-sample wall times, untraced `[0]` and traced `[1]`.
    pub iter_ms: [Vec<f64>; 2],
    /// Wall of each recording.
    pub record_ms: Vec<f64>,
    /// Wall per native run of the same program (traced runs only).
    pub native_ms: Vec<f64>,
    /// Demo bytes written, and the ops those demos record.
    pub demo_bytes: f64,
    pub demo_ops: f64,
    /// Ops per second of each step.
    pub step_rate: Vec<f64>,
    pub acc: LayerAcc,
}

pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The scheduler seeds of iteration `iter` of a run with `seed`.
pub(crate) fn seeds(seed: u64, iter: u64) -> [u64; 2] {
    [mix(seed, iter), mix(!seed, iter)]
}

/// A 64-bit mix of `seed` and `i` (splitmix64).
pub(crate) fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Ctx {
    fn new(opts: Options) -> Self {
        let tracer = Arc::new(Tracer::new(opts.trace));
        Ctx {
            opts,
            tracer,
            untraced: Arc::new(Tracer::new(false)),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            iter_ms: [Vec::new(), Vec::new()],
            record_ms: Vec::new(),
            native_ms: Vec::new(),
            demo_bytes: 0.0,
            demo_ops: 0.0,
            step_rate: Vec::new(),
            acc: LayerAcc::default(),
        }
    }

    pub fn step(&self, iter: u64, traced: bool) -> Step {
        Step {
            iter,
            traced,
            tracer: Arc::clone(if traced { &self.tracer } else { &self.untraced }),
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.checks(1, result.err().into_iter().collect());
    }

    /// Counts `attempted` checked operations, one failed per message.
    pub fn checks(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }

    /// Records one sample's wall time.
    pub fn sample(&mut self, traced: bool, ms: f64) {
        self.iter_ms[usize::from(traced)].push(ms);
        if traced {
            self.acc.samples += 1;
        }
    }

    /// Counts a step that completed `ops` ops in `ms` and wrote
    /// `demo_bytes` of demos recording `demo_ops` of them.
    pub fn completed(&mut self, ops: f64, ms: f64, demo_bytes: f64, demo_ops: f64) {
        self.demo_bytes += demo_bytes;
        self.demo_ops += demo_ops;
        self.step_rate.push(per_op(ops, ms / 1e3));
    }

    fn samples(&self) -> usize {
        self.iter_ms[0].len() + self.iter_ms[1].len()
    }

    /// Forgets every measurement (not the checks): set-up is over.
    fn reset(&mut self) {
        let [untraced, traced] = &mut self.iter_ms;
        for samples in [
            untraced,
            traced,
            &mut self.record_ms,
            &mut self.native_ms,
            &mut self.step_rate,
        ] {
            samples.clear();
        }
        self.demo_bytes = 0.0;
        self.demo_ops = 0.0;
        self.acc = LayerAcc::default();
        self.tracer = Arc::new(Tracer::new(self.opts.trace));
    }

    /// Runs one execution through the public entry point, timing the
    /// call and the world set-up callback from outside. A traced step
    /// also attaches a metrics registry and folds the counters into the
    /// per-layer sums.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &mut self,
        st: &Step,
        parent: Option<SpanId>,
        name: &'static str,
        mut config: Config,
        world: Option<World>,
        call: Call<'_>,
        program: Program,
    ) -> Exec {
        let registry = st.traced.then(|| Arc::new(MetricsRegistry::new()));
        if let Some(r) = &registry {
            config = config.with_metrics(Arc::clone(r));
        }
        let mut exec = Execution::new(config);
        let world_span: Arc<Mutex<Option<(Instant, Instant)>>> = Arc::default();
        if let Some(world) = world {
            let slot = Arc::clone(&world_span);
            exec = exec.setup(move |vos: &Vos| {
                let t = Instant::now();
                world(vos);
                *slot.lock().expect("world timing slot") = Some((t, Instant::now()));
            });
        }
        let span = st.open(name, "core", parent);
        let t = Instant::now();
        let (report, demo, record_ops) = match call {
            Call::Record(ops) => {
                let (report, demo) = exec.record(program);
                (report, Some(demo), Some(ops))
            }
            Call::Replay(demo) => (exec.replay(demo, program), None, None),
        };
        let wall_ms = ms_since(t);
        st.close(span);
        let world = world_span.lock().expect("world timing slot").take();
        if let Some((a, b)) = world {
            st.tracer.record("world_setup", "vos", span, st.iter, a, b);
        }
        if let Some(registry) = registry {
            let setup_ms = world.map_or(0.0, |(a, b)| (b - a).as_secs_f64() * 1e3);
            let run_ms = report.duration.as_secs_f64() * 1e3;
            let acc = &mut self.acc;
            acc.calls += 1;
            acc.run_ms.push(run_ms);
            acc.teardown_ms.push(wall_ms - run_ms - setup_ms);
            acc.ticks += report.ticks;
            acc.run_ns += run_ms * 1e6;
            acc.wakeups += registry.counter("sched_wakeups_total").get();
            acc.spurious += registry.counter("sched_spurious_wakeups_total").get();
            if let Some(ops) = record_ops {
                acc.records += 1;
                acc.record_ops += ops;
                acc.record_ticks += report.ticks;
                acc.record_visible_ops += report.visible_ops;
                acc.record_syscalls += registry.gauge("vos_syscalls").get();
                acc.record_races += report.races;
            }
        }
        Exec {
            report,
            demo,
            wall_ms,
        }
    }

    /// Runs a program natively (no instrumentation, no scheduler) `runs`
    /// times back to back and keeps the mean wall per run as one baseline
    /// sample of `core.record_slowdown_x`; single runs of a ~0.2 ms
    /// program vary by half with thread start-up. Counts one check,
    /// failed when `check` rejects any run.
    pub fn native(
        &mut self,
        runs: u32,
        seed: u64,
        world: impl Fn() -> Option<World>,
        program: impl Fn() -> Program,
        check: impl Fn(&ExecReport) -> Result<(), String>,
    ) {
        let mut wall_ms = 0.0;
        let mut result = Ok(());
        for i in 0..runs {
            let config =
                Config::new(tsan11rec::Mode::Native).with_seeds([mix(seed, u64::from(i)), 0]);
            let mut exec = Execution::new(config);
            if let Some(world) = world() {
                exec = exec.setup(world);
            }
            let program = program();
            let t = Instant::now();
            let report = exec.run(program);
            wall_ms += ms_since(t);
            result = result.and(check(&report));
        }
        self.native_ms.push(wall_ms / f64::from(runs));
        self.check(result);
    }
}

/// The check of a native run whose only output is that it ends normally.
pub(crate) fn native_completed(report: &ExecReport) -> Result<(), String> {
    if report.outcome.is_ok() {
        Ok(())
    } else {
        Err(format!("native run ended {:?}", report.outcome))
    }
}

/// What every workload implements.
pub(crate) trait Bench {
    /// One measured step. `st.traced` says whether spans and metrics are
    /// on for it.
    fn step(&mut self, ctx: &mut Ctx, st: &Step);

    /// The warm-up step each set-up ends with.
    fn warm_up(&mut self, ctx: &mut Ctx) {
        let st = ctx.step(u64::MAX, false);
        self.step(ctx, &st);
    }

    /// Work after the measurement: final checks, extra samples.
    fn finish(&mut self, _ctx: &mut Ctx) {}

    /// Distinct signatures of the first farm batch, where there is one.
    fn signatures(&self) -> Option<u64> {
        None
    }
}

fn make(workload: Workload, opts: &Options) -> Box<dyn Bench> {
    match workload {
        Workload::Httpd => Box::new(pipeline::Pipeline::httpd(opts)),
        Workload::Fluidanimate => Box::new(pipeline::Pipeline::fluidanimate(opts)),
        Workload::ExploreBarrier => Box::new(explore::Explore::new(opts)),
        Workload::PredictHazards => Box::new(predict::Predict::new(opts)),
    }
}

/// Runs one workload: `opts.setups` set-ups, then the measurement.
/// The live heap counted for `peak_heap_mb_p50` is the process's, so it
/// stands for one workload only in a process that runs nothing else.
#[must_use]
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut ctx = Ctx::new(opts.clone());
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        ctx.check(Err(format!("creating {}: {e}", opts.work_dir.display())));
    }
    let mut setup_s = Vec::new();
    let mut step_heap_mb = Vec::new();
    for _ in 0..opts.setups.max(1) {
        let t = Instant::now();
        make(workload, opts).warm_up(&mut ctx);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    ctx.reset();

    let mut bench = make(workload, opts);
    let started = Instant::now();
    let mut step = 0u64;
    // A failing step adds no sample: once the run is wrong, the time
    // bound alone ends it.
    while started.elapsed().as_secs_f64() < opts.seconds
        || (ctx.samples() < opts.min_samples && ctx.failed == 0)
    {
        let st = ctx.step(step, opts.trace && step.is_multiple_of(2));
        heap::restart_peak();
        bench.step(&mut ctx, &st);
        step_heap_mb.push(heap::peak() as f64 / 1e6);
        step += 1;
    }
    bench.finish(&mut ctx);
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    let spans = ctx.tracer.spans();
    let metrics = if opts.trace {
        per_layer(&ctx, &spans, &probes::run())
    } else {
        end_to_end(
            &ctx,
            workload,
            stats::median(&setup_s),
            stats::median(&step_heap_mb),
        )
    };
    Report {
        workload,
        attempted: ctx.attempted,
        failed: ctx.failed,
        failures: ctx.failures.clone(),
        metrics,
        samples: ctx.samples(),
        traced_samples: ctx.acc.samples,
        spans,
        signatures: bench.signatures(),
    }
}

fn per_op(x: f64, ops: f64) -> f64 {
    if ops > 0.0 {
        x / ops
    } else {
        0.0
    }
}

fn end_to_end(ctx: &Ctx, workload: Workload, setup_s: f64, peak_heap_mb: f64) -> Vec<Metric> {
    let iter = &ctx.iter_ms[0];
    let values = [
        setup_s,
        peak_heap_mb,
        stats::median(iter),
        stats::percentile(iter, workload.tail_quantile()),
        stats::median(&ctx.record_ms),
        stats::median(&ctx.step_rate),
        per_op(ctx.demo_bytes, ctx.demo_ops),
    ];
    catalog(&END_TO_END, &values)
}

fn per_layer(ctx: &Ctx, spans: &[trace::Span], probes: &probes::Probes) -> Vec<Metric> {
    let a = &ctx.acc;
    let layer = trace::layer_self_ms(spans);
    let root = trace::root_ms(spans);
    let self_pct = |name: &str| per_op(layer.get(name).copied().unwrap_or(0.0), root) * 100.0;
    let untraced = stats::median(&ctx.iter_ms[0]);
    let overhead = per_op(stats::median(&ctx.iter_ms[1]) - untraced, untraced) * 100.0;
    let values = [
        per_op(stats::median(&ctx.record_ms), stats::median(&ctx.native_ms)),
        stats::median(&a.teardown_ms),
        stats::median(&a.run_ms),
        per_op(a.record_ticks as f64, a.record_ops),
        per_op(a.record_visible_ops as f64, a.record_ops),
        per_op(a.run_ns, a.ticks as f64),
        per_op(a.wakeups as f64, a.ticks as f64),
        per_op(a.spurious as f64, a.calls as f64),
        probes.handoff_ns,
        self_pct("core"),
        per_op(a.record_syscalls as f64, a.record_ops),
        probes.syscall_ns,
        self_pct("vos"),
        stats::median(&a.save_ms),
        stats::median(&a.load_ms),
        stats::median(&a.encode_ms),
        stats::median(&a.decode_ms),
        per_op(a.queue_bytes as f64, a.codec_ops),
        per_op(a.syscall_bytes as f64, a.codec_ops),
        a.hard_desyncs as f64,
        a.soft_desyncs as f64,
        self_pct("replay"),
        per_op(a.record_races as f64, a.records as f64),
        probes.access_ns,
        probes.store_load_ns,
        probes.join_ns,
        stats::median(&a.signatures),
        per_op(a.race_runs as f64, a.runs as f64),
        self_pct("explore"),
        per_op(a.witnesses as f64, a.pipelines as f64),
        per_op(a.confirmed as f64, a.pipelines as f64),
        self_pct("predict"),
        self_pct("bench"),
        overhead,
    ];
    catalog(&PER_LAYER, &values)
}

fn catalog(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(names.len(), values.len(), "one value per catalog entry");
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric {
            name,
            unit,
            // JSON has no NaN: a metric without samples reads 0.
            value: if value.is_finite() { value } else { 0.0 },
        })
        .collect()
}

/// Per-layer self time per traced sample (ms), and the root time per
/// traced sample they add up to — the traced run's table.
#[must_use]
pub fn self_time_table(report: &Report) -> (BTreeMap<&'static str, f64>, f64) {
    let n = report.traced_samples.max(1) as f64;
    let layers = trace::layer_self_ms(&report.spans)
        .into_iter()
        .map(|(k, v)| (k, v / n))
        .collect();
    (layers, trace::root_ms(&report.spans) / n)
}

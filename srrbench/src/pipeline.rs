//! `httpd` and `fluidanimate`: record → save → load → replay under
//! `queue + rec`, the paper's Tables 2 and 4 pipeline.
//!
//! httpd is syscall-heavy and overlaps its service latency across
//! workers, so the vOS, the SYSCALL stream and the disk do the work and
//! the scheduler hides behind the latency. fluidanimate is dense in
//! ticks and plain accesses with a tiny demo, so the Wait/Tick handoff,
//! FastTrack and the mutexes do the work and the codec does nothing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use srr_apps::httpd::{self, HttpdParams};
use srr_apps::parsec::{fluidanimate, ParsecParams};
use tsan11rec::{Config, Demo, ExecReport, Mode, Outcome, Strategy};

use crate::{mix, ms_since, seeds, Bench, Call, Ctx, Options, Program, Step, World};

/// 2 workers serving 2 client connections overlap their 1 ms service
/// latency: 300 queries make each recording ≈170 ms, so one 10 ms
/// liveness step is under a tenth of it.
const HTTPD: HttpdParams = HttpdParams {
    workers: 2,
    clients: 2,
    total_queries: 300,
    response_bytes: 128,
    service_latency_us: 1000,
};

/// 6 400 cell-steps (≈25 600 ticks) make a recording ≈230 ms when the OS
/// runs the two threads on different CPUs, so one 10 ms liveness step is
/// under a tenth of it. On one CPU it takes ≈11 ms.
const FLUID: ParsecParams = ParsecParams {
    threads: 2,
    size: 800,
};

/// fluidanimate runs four timesteps over `size × threads` cells.
const FLUID_CELL_STEPS: f64 = (FLUID.size * FLUID.threads * 4) as f64;

/// Iterations of a traced run that also run the program natively.
const NATIVE_ITERS: u32 = 20;

#[derive(Clone, Copy)]
enum Kind {
    Httpd,
    Fluidanimate,
}

pub(crate) struct Pipeline {
    kind: Kind,
    dir: PathBuf,
    natives_left: u32,
    damage: Option<fn(&Path)>,
}

fn console_ok(report: &ExecReport) -> Result<(), String> {
    let want = format!("served {} requests", HTTPD.total_queries);
    let text = report.console_text();
    if text.starts_with(&want) {
        Ok(())
    } else {
        Err(format!("console `{}` lacks `{want}`", text.trim_end()))
    }
}

fn outcome_ok(what: &str, report: &ExecReport) -> Result<(), String> {
    match &report.outcome {
        Outcome::Completed => Ok(()),
        other => Err(format!("{what} ended {other:?}")),
    }
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

impl Pipeline {
    fn new(kind: Kind, name: &str, opts: &Options) -> Self {
        Pipeline {
            kind,
            dir: opts.work_dir.join(name),
            natives_left: NATIVE_ITERS,
            damage: opts.damage,
        }
    }

    pub fn httpd(opts: &Options) -> Self {
        Pipeline::new(Kind::Httpd, "httpd-demo", opts)
    }

    pub fn fluidanimate(opts: &Options) -> Self {
        Pipeline::new(Kind::Fluidanimate, "fluidanimate-demo", opts)
    }

    fn ops(&self) -> f64 {
        match self.kind {
            Kind::Httpd => f64::from(HTTPD.total_queries),
            Kind::Fluidanimate => FLUID_CELL_STEPS,
        }
    }

    fn world(&self) -> Option<World> {
        match self.kind {
            Kind::Httpd => Some(Box::new(httpd::world(HTTPD))),
            Kind::Fluidanimate => None,
        }
    }

    fn program(&self) -> Program {
        match self.kind {
            Kind::Httpd => Box::new(httpd::server(HTTPD)),
            Kind::Fluidanimate => Box::new(|| fluidanimate(FLUID)),
        }
    }

    /// The program's own output check (fluidanimate asserts its density
    /// sum itself; a failed assertion ends the run `Panicked`).
    fn output_ok(&self, what: &str, report: &ExecReport) -> Result<(), String> {
        outcome_ok(what, report)?;
        match self.kind {
            Kind::Httpd => console_ok(report).map_err(|e| format!("{what}: {e}")),
            Kind::Fluidanimate => Ok(()),
        }
    }

    /// record → save → load → replay; returns the iteration's wall and
    /// the demo's on-disk bytes.
    fn iteration(&mut self, ctx: &mut Ctx, st: &Step) -> Result<(f64, u64), String> {
        let seeds = seeds(ctx.opts.seed, st.iter);
        let queue = || Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds(seeds);
        let root = st.open("iteration", "bench", None);
        let t = Instant::now();
        let rec = ctx.execute(
            st,
            root,
            "record",
            queue(),
            self.world(),
            Call::Record(self.ops()),
            self.program(),
        );
        self.output_ok("record", &rec.report)?;
        ctx.record_ms.push(rec.wall_ms);
        let demo = rec.demo.expect("a recording returns its demo");

        let span = st.open("save_dir", "replay", root);
        let s = Instant::now();
        demo.save_dir(&self.dir)
            .map_err(|e| format!("saving {}: {e}", self.dir.display()))?;
        let save_ms = ms_since(s);
        st.close(span);
        if let Some(damage) = self.damage {
            damage(&self.dir);
        }
        let bytes = dir_bytes(&self.dir).map_err(|e| format!("sizing the demo: {e}"))?;

        let span = st.open("load_dir", "replay", root);
        let l = Instant::now();
        let loaded = Demo::load_dir(&self.dir).map_err(|e| format!("loading the demo: {e}"))?;
        let load_ms = ms_since(l);
        st.close(span);

        // httpd replays into an empty world: the SYSCALL stream stands
        // in for the clients.
        let rep = ctx.execute(
            st,
            root,
            "replay",
            queue(),
            None,
            Call::Replay(&loaded),
            self.program(),
        );
        if st.traced && rep.report.desync().is_some() {
            ctx.acc.hard_desyncs += 1;
        }
        self.output_ok("replay", &rep.report)?;
        let wall = ms_since(t);
        st.close(root);

        if st.traced {
            let acc = &mut ctx.acc;
            acc.save_ms.push(save_ms);
            acc.load_ms.push(load_ms);
            // The racy `stat_requests` counter is plain memory, which
            // sparse replay does not enforce (§4): a different `(N stat)`
            // suffix is a soft desync, not an error.
            acc.soft_desyncs += u64::from(rep.report.console != rec.report.console);
            acc.codec(&loaded, self.ops())?;
        }
        Ok((wall, bytes))
    }
}

impl Bench for Pipeline {
    fn step(&mut self, ctx: &mut Ctx, st: &Step) {
        if ctx.opts.trace && self.natives_left > 0 {
            self.natives_left -= 1;
            let seed = mix(ctx.opts.seed, st.iter);
            ctx.native(
                1,
                seed,
                || self.world(),
                || self.program(),
                |r| self.output_ok("native run", r),
            );
        }
        let result = self.iteration(ctx, st).map(|(wall, bytes)| {
            ctx.sample(st.traced, wall);
            ctx.completed(self.ops(), wall, bytes as f64, self.ops());
        });
        ctx.check(result);
    }
}

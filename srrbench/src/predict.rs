//! `predict_hazards`: time-to-confirm of predictive race detection.
//!
//! Each iteration records `hidden_handoff` with the access trace, runs
//! `predict_with` over the trace and `classify_with` over the
//! predictions — which replays each synthesised witness demo with the
//! race target armed. Every witness must replay to a confirmation, and a
//! run must confirm the hidden race at least once. `atomic_guard`, whose
//! candidate pair no reorder can make race, runs once per run as the
//! control that must grade Infeasible.

use std::path::{Path, PathBuf};
use std::time::Instant;

use srr_apps::hazards;
use srr_predict::{classify_with, predict_with, Classification, PredictReport, ReplayVerdict};
use tsan11rec::{Config, Mode, Strategy};

use crate::{ms_since, native_completed, seeds, Bench, Call, Ctx, Options, Program, Step};

/// Iterations of a traced run that also time a batch of native runs.
const NATIVE_ITERS: u32 = 40;
const NATIVE_BATCH: u32 = 25;

pub(crate) struct Predict {
    /// Where a traced step saves its recording to time `save_dir`.
    dir: PathBuf,
    natives_left: u32,
    /// Confirmed predictions over the measured iterations.
    confirmed: u64,
}

fn queue(seeds: [u64; 2]) -> Config {
    Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds(seeds)
}

/// What one pipeline produced.
struct Run {
    predictions: PredictReport,
    wall_ms: f64,
    record_ms: f64,
    demo_bytes: usize,
}

/// One record → predict → classify pipeline.
fn pipeline(
    ctx: &mut Ctx,
    st: &Step,
    seeds: [u64; 2],
    make: fn() -> Program,
    dir: &Path,
) -> Result<Run, String> {
    let root = st.open("iteration", "bench", None);
    let t = Instant::now();
    let rec = ctx.execute(
        st,
        root,
        "record",
        queue(seeds).with_access_trace(),
        None,
        Call::Record(1.0),
        make(),
    );
    if !rec.report.outcome.is_ok() {
        return Err(format!("recording ended {:?}", rec.report.outcome));
    }
    let demo = rec.demo.expect("a recording returns its demo");

    let span = st.open("predict_with", "predict", root);
    let mut predictions = predict_with(&rec.report.sync_trace, &demo, |_| true);
    st.close(span);

    let span = st.open("classify_with", "predict", root);
    classify_with(&mut predictions, |race, witness| {
        let cfg = queue(seeds).with_race_target(&race.loc_label, race.tids.0, race.tids.1);
        let run = ctx.execute(st, span, "replay", cfg, None, Call::Replay(witness), make());
        ReplayVerdict {
            hard_desync: run.report.desync().is_some(),
            target_hit: run.report.race_target_hit.unwrap_or(false),
        }
    });
    st.close(span);
    let wall_ms = ms_since(t);
    st.close(root);

    if st.traced {
        let acc = &mut ctx.acc;
        acc.pipelines += 1;
        acc.witnesses += predictions
            .races
            .iter()
            .filter(|r| r.witness.is_some())
            .count() as u64;
        acc.confirmed += predictions.count(Classification::Confirmed) as u64;
        acc.codec(&demo, 1.0)?;
        acc.save_load(&demo, dir)?;
    }
    Ok(Run {
        predictions,
        wall_ms,
        record_ms: rec.wall_ms,
        demo_bytes: demo.size_bytes(),
    })
}

fn hidden_handoff() -> Program {
    Box::new(hazards::hidden_handoff())
}

fn atomic_guard() -> Program {
    Box::new(hazards::atomic_guard())
}

impl Predict {
    pub fn new(opts: &Options) -> Self {
        Predict {
            dir: opts.work_dir.join("predict-demo"),
            natives_left: NATIVE_ITERS,
            confirmed: 0,
        }
    }
}

impl Bench for Predict {
    fn step(&mut self, ctx: &mut Ctx, st: &Step) {
        let seeds = seeds(ctx.opts.seed, st.iter);
        if ctx.opts.trace && self.natives_left > 0 {
            self.natives_left -= 1;
            ctx.native(
                NATIVE_BATCH,
                seeds[0],
                || None,
                hidden_handoff,
                native_completed,
            );
        }
        let result = pipeline(ctx, st, seeds, hidden_handoff, &self.dir).and_then(|run| {
            // Synthesis may find no witness for some queue recordings;
            // every witness it does build must replay to a confirmation.
            let p = &run.predictions;
            let witnessed = p.races.iter().filter(|r| r.witness.is_some()).count();
            let confirmed = p.count(Classification::Confirmed);
            if confirmed < witnessed {
                return Err(format!(
                    "hidden_handoff seeds {seeds:?}: {confirmed} of {witnessed} witnesses confirmed"
                ));
            }
            self.confirmed += confirmed as u64;
            ctx.sample(st.traced, run.wall_ms);
            ctx.record_ms.push(run.record_ms);
            ctx.completed(1.0, run.wall_ms, run.demo_bytes as f64, 1.0);
            Ok(())
        });
        ctx.check(result);
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        ctx.check(if self.confirmed > 0 {
            Ok(())
        } else {
            Err("no hidden_handoff race was confirmed".to_owned())
        });
        let seeds = seeds(ctx.opts.seed, u64::MAX - 1);
        let st = ctx.step(u64::MAX, false);
        let result = pipeline(ctx, &st, seeds, atomic_guard, &self.dir).and_then(|run| {
            let (confirmed, infeasible) = (
                run.predictions.count(Classification::Confirmed),
                run.predictions.count(Classification::Infeasible),
            );
            if confirmed == 0 && infeasible >= 1 {
                Ok(())
            } else {
                Err(format!(
                    "atomic_guard graded {confirmed} confirmed / {infeasible} infeasible"
                ))
            }
        });
        ctx.check(result);
    }
}

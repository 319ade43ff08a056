//! `explore_barrier`: the exploration farm over the barrier litmus, the
//! paper's controlled-testing use.
//!
//! Each seed-run is a ~0.1 ms program, so the fixed cost of a run —
//! execution set-up, liveness teardown, farm dispatch, signature dedup —
//! is what this workload measures. One farm worker runs single-seed
//! shards; the benchmark's `ShardRunner` times each
//! `explorer::run_shard` call.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use srr_apps::{explorer, litmus};
use srr_explore::{run_farm, Corpus, ShardPlan, ShardRunner, ThreadSpawner};

use crate::trace::Tracer;
use crate::{mix, ms_since, native_completed, Bench, Call, Ctx, Options, Program, Step};

const STRATEGIES: [&str; 2] = ["rnd", "queue"];
/// Seeds per farm batch (one step); each runs once per strategy.
const BATCH_SEEDS: u64 = 50;
/// Seeds of the warm-up batch each set-up runs.
const WARM_UP_SEEDS: u64 = 5;
/// Batches of native runs a traced run times, a few per step.
const NATIVE_BATCHES: u32 = 40;
const NATIVE_BATCHES_PER_STEP: u32 = 2;
const NATIVE_BATCH: u32 = 25;
/// Seeds of the first batch re-run directly through `Execution::record`
/// in a traced run, for the `core` counters `run_shard` does not return.
const CORE_SAMPLE_SEEDS: u64 = 25;

pub(crate) struct Explore {
    base: u64,
    /// Where a traced run saves its re-recorded demos to time `save_dir`.
    dir: PathBuf,
    natives_left: u32,
    first_signatures: Option<u64>,
}

/// What the runner saw of one seed-run.
struct RunLog {
    wall_ms: f64,
    races: u64,
    demo_bytes: u64,
}

impl Explore {
    pub fn new(opts: &Options) -> Self {
        Explore {
            // A window per benchmark seed, of seeds that all have the top
            // bit set: the demo header stores the seed as a varint, so
            // seeds of different magnitudes would move
            // `demo_bytes_per_op` with the benchmark seed.
            base: (1 << 63) | (mix(opts.seed, 0) >> 2),
            dir: opts.work_dir.join("barrier-demo"),
            natives_left: NATIVE_BATCHES,
            first_signatures: None,
        }
    }

    /// Seeds `[lo, hi)` of batch `iter` (the warm-up batch sits below
    /// the measured ones).
    fn window(&self, iter: u64, seeds: u64) -> (u64, u64) {
        let lo = if iter == u64::MAX {
            self.base.wrapping_sub(BATCH_SEEDS)
        } else {
            self.base.wrapping_add(iter * BATCH_SEEDS)
        };
        (lo, lo.wrapping_add(seeds))
    }

    fn batch(&mut self, ctx: &mut Ctx, st: &Step, seeds: u64) {
        let (lo, hi) = self.window(st.iter, seeds);
        for _ in 0..NATIVE_BATCHES_PER_STEP {
            if ctx.opts.trace && self.natives_left > 0 {
                self.natives_left -= 1;
                let barrier = || -> Program { Box::new(litmus::barrier) };
                ctx.native(
                    NATIVE_BATCH,
                    lo + u64::from(self.natives_left),
                    || None,
                    barrier,
                    native_completed,
                );
            }
        }

        let strategies: Vec<String> = STRATEGIES.iter().map(|s| (*s).to_owned()).collect();
        let plan = ShardPlan::build("barrier", &strategies, lo, hi, 1, &[]);
        let log: Arc<Mutex<Vec<RunLog>>> = Arc::default();
        let root = st.open("run_farm", "explore", None);
        let runner: Arc<ShardRunner> = {
            let (log, tracer, iter) = (Arc::clone(&log), Arc::clone(&st.tracer), st.iter);
            Arc::new(move |task| {
                let span = tracer.open("run_shard", "core", root, iter);
                let t = Instant::now();
                let out = explorer::run_shard(task, |_| {}, litmus::barrier, None);
                let wall_ms = ms_since(t);
                tracer.close(span);
                if let Ok(out) = &out {
                    // Findings of one run share its demo: count it once.
                    let demo_bytes = out.findings.first().and_then(|f| f.demo_bytes).unwrap_or(0);
                    log.lock().expect("run log").push(RunLog {
                        wall_ms,
                        races: out.races,
                        demo_bytes,
                    });
                }
                out
            })
        };
        let mut corpus = Corpus::in_memory();
        let t = Instant::now();
        let outcome = run_farm(&plan, 1, &ThreadSpawner { runner }, &mut corpus, None);
        let farm_ms = ms_since(t);
        st.close(root);

        let planned = plan.tasks.len() as u64;
        let log = std::mem::take(&mut *log.lock().expect("run log"));
        // A failed seed-run reaches the farm as a worker error.
        let mut failures = match outcome {
            Ok(o) => o.errors,
            Err(e) => vec![e],
        };
        // Every batch must surface the barrier's race.
        let signatures = corpus.len() as u64;
        if signatures == 0 {
            failures.push(format!("no race signature in seeds {lo}..{hi}"));
        }
        ctx.checks(planned + 1, failures);
        if st.iter == 0 {
            self.first_signatures = Some(signatures);
        }

        for r in &log {
            ctx.sample(st.traced, r.wall_ms);
            ctx.record_ms.push(r.wall_ms);
        }
        // The farm keeps a demo of the seed-runs that found a race only.
        let demo_bytes: u64 = log.iter().map(|r| r.demo_bytes).sum();
        let demos = log.iter().filter(|r| r.demo_bytes > 0).count();
        ctx.completed(log.len() as f64, farm_ms, demo_bytes as f64, demos as f64);
        if st.traced {
            let acc = &mut ctx.acc;
            acc.runs += log.len() as u64;
            acc.race_runs += log.iter().map(|r| r.races).sum::<u64>();
            acc.signatures.push(signatures as f64);
        }
    }
}

impl Bench for Explore {
    fn step(&mut self, ctx: &mut Ctx, st: &Step) {
        self.batch(ctx, st, BATCH_SEEDS);
    }

    fn warm_up(&mut self, ctx: &mut Ctx) {
        let st = ctx.step(u64::MAX, false);
        self.batch(ctx, &st, WARM_UP_SEEDS);
    }

    /// `run_shard` returns neither an `ExecReport` nor a demo, so a
    /// traced run re-runs the first batch's seeds directly through
    /// `Execution::record` under the same strategy configurations to fill
    /// in the `core` counters and time the `replay` layer on their demos.
    fn finish(&mut self, ctx: &mut Ctx) {
        if !ctx.opts.trace {
            return;
        }
        // Counters on, spans off: these runs are not part of a step.
        let traced = Step {
            iter: 0,
            traced: true,
            tracer: Arc::new(Tracer::new(false)),
        };
        let (lo, hi) = self.window(0, CORE_SAMPLE_SEEDS);
        let mut failures = Vec::new();
        let mut attempted = 0;
        for name in STRATEGIES {
            let strategy = explorer::parse_strategy(name).expect("built-in strategy");
            for seed in lo..hi {
                attempted += 1;
                let run = ctx.execute(
                    &traced,
                    None,
                    "record",
                    strategy.config(seed),
                    None,
                    Call::Record(1.0),
                    Box::new(litmus::barrier),
                );
                let demo = run.demo.expect("a recording returns its demo");
                let result = if run.report.outcome.is_ok() {
                    ctx.acc
                        .codec(&demo, 1.0)
                        .and_then(|()| ctx.acc.save_load(&demo, &self.dir))
                } else {
                    Err(format!(
                        "barrier seed {seed} ended {:?}",
                        run.report.outcome
                    ))
                };
                failures.extend(result.err());
            }
        }
        ctx.checks(attempted, failures);
    }

    fn signatures(&self) -> Option<u64> {
        self.first_signatures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_of_consecutive_batches_do_not_overlap() {
        let e = Explore {
            base: 7 << 32,
            dir: PathBuf::new(),
            natives_left: 0,
            first_signatures: None,
        };
        let (a_lo, a_hi) = e.window(0, BATCH_SEEDS);
        let (b_lo, _) = e.window(1, BATCH_SEEDS);
        let (w_lo, w_hi) = e.window(u64::MAX, WARM_UP_SEEDS);
        assert_eq!(a_hi, b_lo);
        assert!(w_hi <= a_lo && w_lo < w_hi);
    }
}

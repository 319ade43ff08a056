//! Exploration-farm throughput: how fast the farm burns through the
//! seed×strategy space, and how quickly it surfaces the first confirmed
//! race — the paper's "thousands of controlled runs per minute" claim as
//! a tracked number. Emits `BENCH_explore.json` for the CI gate
//! (`ci/check_bench.sh`).
//!
//! Two measurements:
//!
//! * **engine farm** — the real pipeline (shard → execute under
//!   rnd/queue → extract signatures → dedup into the corpus) over the
//!   racy barrier litmus, through the same thread transport and pipe
//!   protocol `srr explore --workers 1` uses. Reported: runs/sec,
//!   time-to-first-confirmed-race, distinct signatures (deterministic —
//!   gated tightly).
//! * **orchestration overhead** — the farm over a no-op synthetic
//!   runner at 1 and 4 workers: protocol encode/decode, dispatch, and
//!   work stealing with the execution cost subtracted out.

use std::sync::Arc;

use srr_apps::{explorer, litmus};
use srr_bench::report::{BenchReport, BenchRow, Json};
use srr_bench::{banner, bench_runs, Stats, TablePrinter};
use srr_explore::{run_farm, Corpus, ShardOutput, ShardPlan, ShardRunner, ThreadSpawner};
use srr_obs::FarmCounters;

const SEEDS: u64 = 24;
const STRATEGIES: [&str; 2] = ["rnd", "queue"];

fn strategies() -> Vec<String> {
    STRATEGIES.iter().map(|s| (*s).to_owned()).collect()
}

/// One farm session over the barrier litmus with the real engine;
/// returns the counters and the distinct signature count.
fn engine_session() -> FarmCounters {
    let barrier = litmus::table1_suite()
        .into_iter()
        .find(|l| l.name == "barrier")
        .expect("barrier litmus exists");
    let program = barrier.run;
    let runner: Arc<ShardRunner> =
        Arc::new(move |task| explorer::run_shard(task, |_| {}, program, None));
    let plan = ShardPlan::build("barrier", &strategies(), 0, SEEDS, 6, &[]);
    let mut corpus = Corpus::in_memory();
    let outcome =
        run_farm(&plan, 1, &ThreadSpawner { runner }, &mut corpus, None).expect("farm runs");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    outcome.counters
}

/// One farm session over a no-op runner: pure orchestration cost.
fn overhead_session(workers: usize, shards: u64) -> FarmCounters {
    let runner: Arc<ShardRunner> = Arc::new(|task| {
        Ok(ShardOutput {
            runs: task.runs(),
            ..ShardOutput::default()
        })
    });
    let plan = ShardPlan::build("noop", &strategies(), 0, shards * 8, 8, &[]);
    let mut corpus = Corpus::in_memory();
    let outcome =
        run_farm(&plan, workers, &ThreadSpawner { runner }, &mut corpus, None).expect("farm runs");
    outcome.counters
}

fn main() {
    let reps = bench_runs(5);
    banner(&format!(
        "Exploration farm: {} seeds × {} strategies, {reps} rep(s)",
        SEEDS,
        STRATEGIES.len()
    ));
    let mut report = BenchReport::new("explore", "exploration farm throughput", reps, 1);

    // --- The real pipeline ------------------------------------------
    let mut rps = Vec::new();
    let mut first_race = Vec::new();
    let mut sigs = Vec::new();
    for _ in 0..reps {
        let c = engine_session();
        rps.push(c.runs_per_sec());
        sigs.push(c.distinct_signatures as f64);
        if let Some(ms) = c.time_to_first_race_ms {
            first_race.push(ms);
        }
    }
    let table = TablePrinter::new(&["measurement", "mean", "sd"], &[34, 12, 12]);
    let rps_stats = Stats::of(&rps);
    table.row(&[
        "engine runs/sec",
        &format!("{:.0}", rps_stats.mean),
        &format!("{:.0}", rps_stats.stddev),
    ]);
    report.push(BenchRow::from_stats(
        "barrier farm",
        "rnd,queue",
        "runs/s",
        true,
        &rps_stats,
    ));
    assert!(
        !first_race.is_empty(),
        "barrier must race within {SEEDS} seeds"
    );
    let fr_stats = Stats::of(&first_race);
    table.row(&[
        "time to first confirmed race (ms)",
        &format!("{:.1}", fr_stats.mean),
        &format!("{:.1}", fr_stats.stddev),
    ]);
    report.push(BenchRow::from_stats(
        "barrier farm",
        "rnd,queue",
        "ms",
        false,
        &fr_stats,
    ));
    let sig_stats = Stats::of(&sigs);
    table.row(&[
        "distinct signatures",
        &format!("{:.1}", sig_stats.mean),
        &format!("{:.2}", sig_stats.stddev),
    ]);
    report.push(BenchRow::from_stats(
        "barrier farm",
        "rnd,queue",
        "sigs",
        true,
        &sig_stats,
    ));

    // --- Orchestration overhead -------------------------------------
    for workers in [1usize, 4] {
        let mut rps = Vec::new();
        for _ in 0..reps {
            rps.push(overhead_session(workers, 32).runs_per_sec());
        }
        let s = Stats::of(&rps);
        table.row(&[
            &format!("no-op dispatch runs/sec (w={workers})"),
            &format!("{:.0}", s.mean),
            &format!("{:.0}", s.stddev),
        ]);
        report.push(BenchRow::from_stats(
            "noop dispatch",
            &format!("{workers} worker(s)"),
            "runs/s",
            true,
            &s,
        ));
    }

    report.note("seeds", Json::Num(SEEDS as f64));
    report.note("strategies", Json::Str(STRATEGIES.join(",")));
    println!();
    println!("Shape checks: the engine farm clears hundreds of runs/sec in debug and");
    println!("the distinct-signature count is deterministic across repetitions; no-op");
    println!("dispatch shows the protocol+stealing overhead is thousands of shards/sec.");
    report.write().expect("writing BENCH_explore.json");
}

//! The worker-side bridge between the exploration farm and the
//! execution engine.
//!
//! srr-explore deliberately knows nothing about tsan11rec: the farm
//! speaks only its pipe protocol, and *this* module is where a protocol
//! [`Task`] becomes real executions — one per seed, under the strategy's
//! tool configuration — and an [`ExecReport`] becomes corpus
//! [`Signature`]s. `srr explore-worker` and the explore bench both run
//! shards through [`run_shard`].

use std::path::Path;

use srr_explore::{Finding, ShardOutput, Signature, Task};
use tsan11rec::vos::Vos;
use tsan11rec::{ExecReport, Execution, Outcome};

use crate::harness::Tool;

/// A farm strategy: the controlled tool it runs under and, when the
/// strategy can record, the recording variant used to capture demos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarmStrategy {
    /// The canonical wire name (`rnd`, `pct`, `delay`, `queue`).
    pub name: &'static str,
    /// The recording variant when one exists (`rnd`/`queue`); `pct` and
    /// `delay` cannot record, so their findings are recipe-only — the
    /// corpus keeps `(strategy, seed)` instead of a demo.
    tool: Tool,
}

/// The strategies the farm shards over, in canonical order.
pub const FARM_STRATEGIES: [FarmStrategy; 4] = [
    FarmStrategy {
        name: "rnd",
        tool: Tool::RndRec,
    },
    FarmStrategy {
        name: "pct",
        tool: Tool::Pct,
    },
    FarmStrategy {
        name: "delay",
        tool: Tool::Delay,
    },
    FarmStrategy {
        name: "queue",
        tool: Tool::QueueRec,
    },
];

/// Resolves a strategy wire name (`rnd`, `pct`, `delay`, `queue`).
///
/// # Errors
///
/// Fails on an unknown name, listing the valid ones.
pub fn parse_strategy(name: &str) -> Result<FarmStrategy, String> {
    FARM_STRATEGIES
        .iter()
        .find(|s| s.name == name)
        .copied()
        .ok_or_else(|| {
            let valid: Vec<&str> = FARM_STRATEGIES.iter().map(|s| s.name).collect();
            format!(
                "unknown strategy `{name}` (valid strategies: {})",
                valid.join(", ")
            )
        })
}

impl FarmStrategy {
    /// Whether runs under this strategy record a demo.
    #[must_use]
    pub fn records(self) -> bool {
        self.tool.records()
    }

    /// The tool configuration for one seed (recording variant when the
    /// strategy records).
    #[must_use]
    pub fn config(self, seed: u64) -> tsan11rec::Config {
        self.tool.config(crate::harness::seed_pair(seed))
    }
}

/// Extracts the corpus signatures of one run: every distinct race
/// report, plus the terminal outcome when it is itself a finding
/// (deadlock, hard desync, panic). `workload` scopes deadlocks — the
/// engine reports the deadlock fact, not the lock set, so the workload
/// name is the stable identity.
#[must_use]
pub fn signatures_of(workload: &str, report: &ExecReport) -> Vec<Signature> {
    let mut sigs: Vec<Signature> = report
        .race_reports
        .iter()
        .map(|r| Signature::race(&r.signature()))
        .collect();
    match &report.outcome {
        Outcome::Completed => {}
        Outcome::Deadlock => sigs.push(Signature::deadlock(&[workload.to_owned()])),
        Outcome::HardDesync(d) => sigs.push(Signature::desync(&d.stream, &d.constraint)),
        Outcome::Panicked(msg) => sigs.push(Signature::panic(msg)),
    }
    sigs.sort();
    sigs.dedup();
    sigs
}

/// Runs one farm shard for real: every seed in the task's range under
/// the task's strategy, extracting findings as they happen. When the
/// strategy records and `spool` is given, each finding-bearing run's
/// demo is saved under `spool/t<task>_s<seed>` and referenced from its
/// findings (the corpus imports the winners and the spool is discarded).
///
/// # Errors
///
/// Fails on an unknown strategy or a spool I/O error; per-seed execution
/// itself never fails (panics and deadlocks are findings, not errors).
pub fn run_shard(
    task: &Task,
    setup: fn(&Vos),
    program: fn(),
    spool: Option<&Path>,
) -> Result<ShardOutput, String> {
    let strategy = parse_strategy(&task.strategy)?;
    let mut out = ShardOutput::default();
    for seed in task.seed_lo..task.seed_hi {
        let mut config = strategy.config(seed);
        if let Some(t) = &task.target {
            config = config.with_race_target(&t.label, t.a, t.b);
        }
        let exec = Execution::new(config).setup(setup);
        let (report, demo) = if strategy.records() {
            let (report, demo) = exec.record(program);
            (report, Some(demo))
        } else {
            (exec.run(program), None)
        };
        out.runs += 1;
        if report.races > 0 {
            out.races += 1;
        }
        if task.target.is_some() {
            out.targeted += 1;
            if report.race_target_hit == Some(true) {
                out.target_hits += 1;
            }
        }
        let sigs = signatures_of(&task.workload, &report);
        if sigs.is_empty() {
            continue;
        }
        let demo_bytes = report.demo_bytes.map(|b| b as u64);
        let demo_path = match (&demo, spool) {
            (Some(demo), Some(spool)) => {
                let dir = spool.join(format!("t{}_s{}", task.id, seed));
                demo.save_dir(&dir)
                    .map_err(|e| format!("spooling demo {}: {e}", dir.display()))?;
                Some(dir.display().to_string())
            }
            _ => None,
        };
        for signature in sigs {
            out.findings.push(Finding {
                task_id: task.id,
                signature,
                strategy: task.strategy.clone(),
                seed,
                demo_bytes,
                demo_path: demo_path.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hazards, litmus};
    use srr_explore::SignatureKind;

    /// The barrier litmus races readily (≈80% of seeds), making it the
    /// test workload of choice for "findings show up fast".
    fn barrier() -> fn() {
        litmus::table1_suite()
            .into_iter()
            .find(|l| l.name == "barrier")
            .expect("barrier litmus exists")
            .run
    }

    #[test]
    fn strategy_names_roundtrip() {
        for s in FARM_STRATEGIES {
            assert_eq!(parse_strategy(s.name).unwrap(), s);
        }
        let err = parse_strategy("bogus").unwrap_err();
        assert!(err.contains("rnd, pct, delay, queue"), "{err}");
        assert!(parse_strategy("rnd").unwrap().records());
        assert!(!parse_strategy("pct").unwrap().records());
    }

    fn task(strategy: &str, lo: u64, hi: u64) -> Task {
        Task {
            id: 3,
            workload: "barrier".to_owned(),
            strategy: strategy.to_owned(),
            seed_lo: lo,
            seed_hi: hi,
            target: None,
        }
    }

    #[test]
    fn shard_over_a_racy_workload_reports_race_findings() {
        let out = run_shard(&task("rnd", 0, 6), |_| {}, barrier(), None).expect("shard runs");
        assert_eq!(out.runs, 6);
        assert!(!out.findings.is_empty(), "barrier races readily");
        assert!(out
            .findings
            .iter()
            .all(|f| f.signature.kind == SignatureKind::Race));
        // rnd records: every finding carries the run's demo size even
        // without a spool (no demo path, though).
        assert!(out.findings.iter().all(|f| f.demo_bytes.is_some()));
        assert!(out.findings.iter().all(|f| f.demo_path.is_none()));
    }

    /// Two sibling threads write one `Shared` with nothing ordering the
    /// writes, and main joins them only after spawning both: the run
    /// races on every schedule, whatever order the threads arrive in.
    fn sibling_writes() {
        let cell = std::sync::Arc::new(tsan11rec::Shared::new("cell", 0u64));
        let writers: Vec<_> = (1..=2u64)
            .map(|v| {
                let cell = std::sync::Arc::clone(&cell);
                tsan11rec::thread::spawn(move || cell.write(v))
            })
            .collect();
        for w in writers {
            w.join();
        }
    }

    #[test]
    fn recording_strategies_spool_demos() {
        let spool = std::env::temp_dir().join(format!("srr-explorer-spool-{}", std::process::id()));
        std::fs::create_dir_all(&spool).unwrap();
        let out = run_shard(&task("queue", 0, 6), |_| {}, sibling_writes, Some(&spool))
            .expect("shard runs");
        assert_eq!(out.races, 6, "every schedule races");
        assert!(!out.findings.is_empty());
        for f in &out.findings {
            let dir = std::path::PathBuf::from(f.demo_path.clone().expect("queue spools a demo"));
            assert!(dir.join("HEADER").exists(), "saved demo at {dir:?}");
        }
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn non_recording_strategies_yield_recipe_only_findings() {
        let spool = std::env::temp_dir().join(format!("srr-explorer-pct-{}", std::process::id()));
        std::fs::create_dir_all(&spool).unwrap();
        let out =
            run_shard(&task("pct", 0, 6), |_| {}, barrier(), Some(&spool)).expect("shard runs");
        assert!(out
            .findings
            .iter()
            .all(|f| f.demo_bytes.is_none() && f.demo_path.is_none()));
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn deadlock_and_panic_outcomes_become_signatures() {
        // ABBA locks deadlock under some schedules; hunt a few seeds.
        let out = run_shard(
            &task("queue", 0, 10),
            |_| {},
            || (hazards::ab_ba_locks(hazards::AbBaParams::default()))(),
            None,
        )
        .expect("shard runs");
        assert_eq!(out.runs, 10);
        // Deadlocks are schedule-dependent; when one fires it must carry
        // the workload name as its identity.
        for d in out
            .findings
            .iter()
            .filter(|f| f.signature.kind == SignatureKind::Deadlock)
        {
            assert_eq!(d.signature.detail, "barrier");
        }
    }

    #[test]
    fn unknown_strategy_is_a_worker_error() {
        assert!(run_shard(&task("bogus", 0, 1), |_| {}, || {}, None).is_err());
    }
}

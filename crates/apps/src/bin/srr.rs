//! `srr` — command-line front end for the tsan11rec reproduction.
//!
//! Every command is one entry of [`COMMANDS`]: its name, its synopsis,
//! the flags it reads and its handler. `srr --help` prints the synopses
//! from the table, then the tools, sparse sets and exit codes; a flag
//! the command does not read is a usage error naming the flags it does.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use srr_apps::harness::{seed_pair, Tool};
use srr_apps::{client, explorer, game, hazards, httpd, litmus, pbzip, predictor, ptrmap};
use srr_explore::{
    run_farm, serve_worker, Corpus, ProcessSpawner, RaceTarget, ShardPlan, ShardRunner,
    ThreadSpawner,
};
use srr_obs::{FarmCounters, MetricsRegistry};
use srr_plan::SiteClass;
use srr_predict::Classification;
use srr_replay::StreamHash;
use srr_vet::Allowlist;
use tsan11rec::obs::Json;
use tsan11rec::vos::Vos;
use tsan11rec::{
    chrome_trace, text_timeline, AccessPlan, Config, Demo, Execution, SparseConfig, TraceSpec,
};

/// One `srr` command.
struct Command {
    name: &'static str,
    /// Usage forms, one `srr --help` line each; a `\n` continues a form
    /// on the next line. Empty for the hidden `explore-worker`.
    synopsis: &'static [&'static str],
    /// Every flag the handler reads, space-separated. `-o` is `--out`
    /// wherever `--out` is listed.
    flags: &'static str,
    run: fn(&Args) -> Result<u8, String>,
}

impl Command {
    fn takes(&self, flag: &str) -> bool {
        self.flags.split(' ').any(|f| f == flag)
    }
}

// One row per command, kept in table layout.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", run: cmd_list, flags: "", synopsis: &[""] },
    Command { name: "run", run: cmd_run, flags: "--tool --seed --sparse",
        synopsis: &["<workload> [--tool TOOL] [--seed N] [--sparse SET]"] },
    Command { name: "record", run: cmd_record, flags: "--tool --seed --sparse --out",
        synopsis: &["<workload> [--tool queue|random] [--seed N] [--sparse SET] --out DIR"] },
    Command { name: "replay", run: cmd_replay, flags: "--demo --sparse",
        synopsis: &["<workload> --demo DIR [--sparse SET]"] },
    Command { name: "explore", run: cmd_explore,
        flags: "--runs --workers --strategies --shard --corpus --predict --seed --plan --json \
                --out --metrics-out",
        synopsis: &["<workload> [--runs N] [--workers N] [--strategies LIST]\n\
                     [--shard N] [--corpus DIR] [--predict] [--seed N] [--plan FILE]\n\
                     [--json] [--out FILE] [--metrics-out DIR]"] },
    Command { name: "explore-worker", run: cmd_explore_worker, flags: "--out", synopsis: &[] },
    Command { name: "analyze", run: cmd_analyze, flags: "--tool --seed --sparse --json --out",
        synopsis: &["<workload> [--tool TOOL] [--seed N] [--sparse SET] [--json] [--out FILE]"] },
    Command { name: "predict", run: cmd_predict, flags: "--seed --plan --json --out",
        synopsis: &["<workload> [--seed N] [--plan FILE] [--json] [--out DIR]"] },
    Command { name: "demo", run: cmd_demo, flags: "--demo --out",
        synopsis: &["export --demo DIR --out DIR", "hash|stats --demo DIR"] },
    Command { name: "lint-demo", run: cmd_lint_demo, flags: "--demo", synopsis: &["--demo DIR"] },
    Command { name: "vet", run: cmd_vet, flags: "--allow --json --out",
        synopsis: &["<path>... [--allow FILE|none] [--json] [--out FILE]"] },
    Command { name: "plan", run: cmd_plan, flags: "--allow --json --out",
        synopsis: &["<path>... [--allow FILE|none] [--json] [--out FILE]"] },
    Command { name: "trace", run: cmd_trace, flags: "--demo --tool --seed --sparse --ring --out",
        synopsis: &["<workload> [--demo DIR] [--tool TOOL] [--seed N] [--sparse SET]\n\
                     [--ring N] [-o FILE]"] },
    Command { name: "profile", run: cmd_profile, flags: "--demo --sparse --json --out --folded",
        synopsis: &["<workload> --demo DIR [--sparse SET] [--json] [-o FILE] [--folded FILE]"] },
    Command { name: "stats", run: cmd_stats, flags: "--vet --out",
        synopsis: &["<report.json> [--vet FILE] [-o FILE]"] },
];

/// The parsed command line. The parser sets only flags the command's
/// [`Command::flags`] lists.
#[derive(Debug, Default)]
struct Args {
    command: &'static str,
    positional: Vec<String>,
    tool: Option<String>,
    seed: Option<u64>,
    out: Option<PathBuf>,
    demo: Option<PathBuf>,
    sparse: Option<String>,
    runs: Option<u64>,
    ring: Option<usize>,
    allow: Option<String>,
    vet: Option<PathBuf>,
    json: bool,
    workers: Option<usize>,
    corpus: Option<PathBuf>,
    strategies: Option<String>,
    shard: Option<u64>,
    predict: bool,
    plan: Option<PathBuf>,
    folded: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn parse_args(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: cmd.name,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        // Any dash-prefixed token is a (mis)spelled flag, never a
        // workload name — `-seed` must not silently become a positional
        // and mask the user's intent.
        if !a.starts_with('-') {
            args.positional.push(a.clone());
            continue;
        }
        let flag = if a == "-o" { "--out" } else { a.as_str() };
        if !cmd.takes(flag) {
            let error = if COMMANDS.iter().any(|c| c.takes(flag)) {
                format!("`{}` does not take `{a}`", cmd.name)
            } else {
                format!("unknown flag `{a}`")
            };
            let flags = if cmd.flags.is_empty() {
                "no flags"
            } else {
                cmd.flags
            };
            return Err(format!("{error} ({} takes {flags})", cmd.name));
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--tool" => args.tool = Some(value()?),
            "--seed" => args.seed = Some(number(flag, &value()?)?),
            "--out" => args.out = Some(value()?.into()),
            "--demo" => args.demo = Some(value()?.into()),
            "--sparse" => args.sparse = Some(value()?),
            "--runs" => args.runs = Some(number(flag, &value()?)?),
            "--ring" => args.ring = Some(number(flag, &value()?)?),
            "--allow" => args.allow = Some(value()?),
            "--vet" => args.vet = Some(value()?.into()),
            "--json" => args.json = true,
            "--workers" => args.workers = Some(number(flag, &value()?)?),
            "--corpus" => args.corpus = Some(value()?.into()),
            "--strategies" => args.strategies = Some(value()?),
            "--shard" => args.shard = Some(number(flag, &value()?)?),
            "--predict" => args.predict = true,
            "--plan" => args.plan = Some(value()?.into()),
            "--folded" => args.folded = Some(value()?.into()),
            "--metrics-out" => args.metrics_out = Some(value()?.into()),
            other => unreachable!("`{other}` is in the command table but has no parser"),
        }
    }
    Ok(args)
}

/// The value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

impl Args {
    /// The workload the first positional names.
    fn workload(&self) -> Result<Workload, String> {
        let name = self
            .positional
            .first()
            .ok_or_else(|| format!("{} needs a workload", self.command))?;
        find_workload(name)
    }

    /// `config` with `--sparse` applied.
    fn sparse(&self, config: Config) -> Result<Config, String> {
        Ok(match &self.sparse {
            Some(s) => config.with_sparse(parse_sparse(s)?),
            None => config,
        })
    }

    /// The tool `--tool` names (`default_tool` without it) at the seed
    /// pair of `--seed` (default 1), with `--sparse` applied.
    fn config(&self, default_tool: Tool) -> Result<(Tool, Config), String> {
        let tool = match &self.tool {
            Some(t) => parse_tool(t)?,
            None => default_tool,
        };
        let config = self.sparse(tool.config(seed_pair(self.seed.unwrap_or(1))))?;
        Ok((tool, config))
    }

    /// [`Args::config`] at the queue default, refusing a tool that is not
    /// a controlled mode; `needs` names what the command needs one for.
    fn controlled_config(&self, needs: &str) -> Result<(Tool, Config), String> {
        let (tool, config) = self.config(Tool::Queue)?;
        if !config.mode.is_controlled() {
            return Err(format!(
                "{tool} is not a controlled mode; {needs} needs one of rnd, queue, pct, delay"
            ));
        }
        Ok((tool, config))
    }

    /// `--demo DIR`, which the command needs.
    fn demo_dir(&self) -> Result<&Path, String> {
        self.demo
            .as_deref()
            .ok_or_else(|| format!("{} needs --demo DIR", self.command))
    }

    /// The demo at `dir` and the config that replays it — the tool its
    /// recorded strategy maps back to, at its seeds — with `--sparse`
    /// applied.
    fn replay(&self, dir: &Path) -> Result<(Demo, Config), String> {
        let demo = load_demo(dir)?;
        let tool = match demo.header.strategy.as_str() {
            "random" => Tool::RndRec,
            "queue" => Tool::QueueRec,
            "slice" => Tool::Rr,
            other => return Err(format!("demo has unknown strategy `{other}`")),
        };
        let config = self.sparse(tool.config(demo.header.seeds))?;
        Ok((demo, config))
    }
}

fn load_demo(dir: &Path) -> Result<Demo, String> {
    Demo::load_dir(dir).map_err(|e| format!("loading demo: {e}"))
}

/// A named workload: world setup + program body.
struct Workload {
    name: &'static str,
    describe: &'static str,
    setup: fn(&Vos),
    program: fn(),
}

fn workloads() -> Vec<Workload> {
    fn no_setup(_: &Vos) {}
    let mut list = vec![
        Workload {
            name: "client",
            describe: "Figure 2 client: poll/recv/send loop ended by a signal",
            setup: |vos| (client::world(client::ClientParams::default()))(vos),
            program: || (client::client(client::ClientParams::default()))(),
        },
        Workload {
            name: "httpd",
            describe: "httpd-sim: worker-pool server under an ab-like swarm",
            setup: |vos| (httpd::world(httpd::HttpdParams::default()))(vos),
            program: || (httpd::server(httpd::HttpdParams::default()))(),
        },
        Workload {
            name: "pbzip",
            describe: "pbzip-sim: parallel block compression",
            setup: |vos| (pbzip::world(pbzip::PbzipParams::default()))(vos),
            program: || (pbzip::pbzip(pbzip::PbzipParams::default()))(),
        },
        Workload {
            name: "game",
            describe: "game-sim: frame loop with GPU ioctl and an audio thread",
            setup: |vos| (game::world(game::GameParams::default()))(vos),
            program: || (game::game(game::GameParams::default()))(),
        },
        Workload {
            name: "netplay",
            describe: "multiplayer client with the Zandronum-style map-change bug",
            setup: no_setup,
            program: || (game::netplay::netplay_client(game::netplay::NetPlayParams::default()))(),
        },
        Workload {
            name: "ptrmap",
            describe: "pointer-order workload (the S5.5 limitation)",
            setup: no_setup,
            program: || (ptrmap::ptrmap(ptrmap::PtrMapParams::default()))(),
        },
        Workload {
            name: "ab_ba_locks",
            describe: "ABBA lock-order inversion that completes (analyze flags it)",
            setup: no_setup,
            program: || (hazards::ab_ba_locks(hazards::AbBaParams::default()))(),
        },
        Workload {
            name: "mixed_counter",
            describe: "one location accessed both atomically and plainly",
            setup: no_setup,
            program: || (hazards::mixed_counter())(),
        },
        Workload {
            name: "cond_no_recheck",
            describe: "condvar wait with `if` instead of `while` around the predicate",
            setup: no_setup,
            program: || (hazards::cond_no_recheck())(),
        },
        Workload {
            name: "relaxed_guard",
            describe: "relaxed flag load deciding a lock acquisition (S6 hazard)",
            setup: no_setup,
            program: || (hazards::relaxed_guard())(),
        },
        Workload {
            name: "hidden_handoff",
            describe: "race hidden behind an empty lock handoff (predict confirms it)",
            setup: no_setup,
            program: || (hazards::hidden_handoff())(),
        },
        Workload {
            name: "atomic_guard",
            describe: "writes ordered by a real flag handoff (predict proves infeasible)",
            setup: no_setup,
            program: || (hazards::atomic_guard())(),
        },
        Workload {
            name: "planned_local",
            describe: "thread-local + lock-guarded traffic the plan filters to zero events",
            setup: no_setup,
            program: || (hazards::planned_local())(),
        },
        Workload {
            name: "raw_clock",
            describe: "recording escape: reads the host wall clock (vet flags raw-clock)",
            setup: no_setup,
            program: || (hazards::raw_clock())(),
        },
        Workload {
            name: "raw_spawn",
            describe:
                "recording escape: rogue OS thread outside the scheduler (vet flags raw-spawn)",
            setup: no_setup,
            program: || (hazards::raw_spawn())(),
        },
    ];
    for l in litmus::table1_suite() {
        list.push(Workload {
            name: l.name,
            describe: "CDSchecker litmus benchmark",
            setup: no_setup,
            program: l.run,
        });
    }
    list
}

fn find_workload(name: &str) -> Result<Workload, String> {
    workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `srr list`)"))
}

fn parse_tool(s: &str) -> Result<Tool, String> {
    Ok(match s {
        "native" => Tool::Native,
        "tsan11" => Tool::Tsan11,
        "rr" => Tool::Rr,
        "tsan11+rr" => Tool::Tsan11Rr,
        "rnd" | "random" => Tool::Rnd,
        "queue" => Tool::Queue,
        "pct" => Tool::Pct,
        "delay" => Tool::Delay,
        other => return Err(format!("unknown tool `{other}`")),
    })
}

fn parse_sparse(s: &str) -> Result<SparseConfig, String> {
    Ok(match s {
        "default" | "paper" => SparseConfig::paper_default(),
        "games" => SparseConfig::games(),
        "none" => SparseConfig::none(),
        "comprehensive" | "full" => SparseConfig::comprehensive(),
        other => return Err(format!("unknown sparse set `{other}`")),
    })
}

/// Parses the `--strategies` list (comma-separated farm strategy
/// names); defaults to all four in canonical order.
fn parse_strategies(list: Option<&str>) -> Result<Vec<String>, String> {
    let Some(list) = list else {
        return Ok(explorer::FARM_STRATEGIES
            .iter()
            .map(|s| s.name.to_owned())
            .collect());
    };
    let strategies: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| explorer::parse_strategy(s).map(|st| st.name.to_owned()))
        .collect::<Result<_, _>>()?;
    if strategies.is_empty() {
        return Err("--strategies needs at least one strategy".to_owned());
    }
    Ok(strategies)
}

/// The `srr explore` JSON report: farm counters plus the deduplicated
/// signature corpus (`srr stats` renders it back).
fn explore_json(
    workload: &str,
    strategies: &[String],
    counters: &FarmCounters,
    corpus: &Corpus,
) -> Json {
    let signatures = corpus
        .iter()
        .map(|(sig, e)| {
            let mut fields = vec![
                ("signature", Json::Str(sig.encode())),
                ("kind", Json::Str(sig.kind.tag().to_owned())),
                ("detail", Json::Str(sig.detail.clone())),
                ("strategy", Json::Str(e.strategy.clone())),
                ("seed", Json::Num(e.seed as f64)),
            ];
            if let Some(b) = e.demo_bytes {
                fields.push(("demo_bytes", Json::Num(b as f64)));
            }
            if let Some(d) = &e.demo_subdir {
                fields.push(("demo", Json::Str(d.clone())));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("workload", Json::Str(workload.to_owned())),
        (
            "strategies",
            Json::Arr(strategies.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("farm", counters.to_json()),
        ("signatures", Json::Arr(signatures)),
    ])
}
/// A JSON object from `(key, value)` pairs, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn print_report(report: &tsan11rec::ExecReport) {
    println!("--- console ---");
    print!("{}", report.console_text());
    println!("--- report ----");
    println!("outcome:      {:?}", report.outcome);
    println!(
        "races:        {} ({} duplicate report(s) suppressed)",
        report.races, report.suppressed
    );
    for r in report.race_reports.iter().take(5) {
        println!("  {r}");
    }
    println!("critical sections: {}", report.ticks);
    println!("syscalls:     {}", report.syscalls);
    println!(
        "wall time:    {:.1} ms",
        report.duration.as_secs_f64() * 1e3
    );
}

/// Exit status of a successful invocation: `0` for a clean run, `2`
/// (`EXIT_FINDINGS`) when the command completed but surfaced findings.
/// Usage and execution errors travel as `Err` and exit `1`.
const EXIT_OK: u8 = 0;
/// See [`EXIT_OK`].
const EXIT_FINDINGS: u8 = 2;

/// The shared findings gate: every finding-producing command (`analyze`,
/// `predict`, `lint-demo`, `vet`) funnels its gating count through here
/// so the exit-code convention cannot drift per command. With findings,
/// a trailing summary goes to stderr (stdout stays clean for reports and
/// `--json` documents) and the exit code is [`EXIT_FINDINGS`].
fn findings_exit(count: usize, noun: &str) -> u8 {
    if count == 0 {
        return EXIT_OK;
    }
    eprintln!("{count} {noun}(s) — exit {EXIT_FINDINGS}");
    EXIT_FINDINGS
}

/// Writes a report file, mapping IO errors to the CLI error shape.
fn write_output(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The shared `-o/--out FILE` sink for report-producing commands
/// (`trace` always names a file; `profile` and `stats` print to stdout
/// unless one is given). File writes get a one-line stderr note so
/// stdout stays clean either way.
fn emit_report(out: Option<&Path>, what: &str, contents: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            write_output(path, contents)?;
            eprintln!("{what}: {}", path.display());
            Ok(())
        }
        None => {
            print!("{contents}");
            Ok(())
        }
    }
}

/// The shared `--json` / `--out FILE` sink for the JSON-document
/// commands (`explore`, `analyze`, `predict`, `vet`, `plan`): `--out`
/// captures the pretty-printed document on disk, `--json` routes it to
/// stdout. Returns `true` when the caller still owes the user a
/// human-readable rendering (`--json` was not given). One helper so the
/// previously hand-rolled per-command paths cannot drift.
fn emit_json_doc(doc: &Json, json: bool, out: Option<&Path>) -> Result<bool, String> {
    if let Some(path) = out {
        write_output(path, &doc.to_pretty())?;
    }
    if json {
        println!("{}", doc.to_pretty());
    }
    Ok(!json)
}

/// The `<path>...` operands `vet` and `plan` scan, each checked to
/// exist, and the allowlist they scan under: `--allow none` > `--allow
/// FILE` > the checked-in default when running from the repo root. A
/// human-readable report opens with the allowlist's origin.
fn scan_inputs(args: &Args) -> Result<(Vec<PathBuf>, Allowlist), String> {
    let cmd = args.command;
    if args.positional.is_empty() {
        return Err(format!("{cmd} needs at least one file or directory"));
    }
    let paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
    if let Some(p) = paths.iter().find(|p| !p.exists()) {
        return Err(format!("{cmd}: no such path `{}`", p.display()));
    }
    let default_allow = "ci/vet_allow.txt";
    let origin = match args.allow.as_deref() {
        Some("none") => return Ok((paths, Allowlist::default())),
        None if !Path::new(default_allow).exists() => return Ok((paths, Allowlist::default())),
        allow => allow.unwrap_or(default_allow),
    };
    let text =
        std::fs::read_to_string(origin).map_err(|e| format!("reading allowlist {origin}: {e}"))?;
    let allow = Allowlist::parse(&text)?;
    if !args.json {
        println!("allowlist: {origin} ({} entr(ies))", allow.entries.len());
    }
    Ok((paths, allow))
}

/// Loads a `--plan FILE` document (produced by `srr plan --json`/`--out`).
fn load_plan(path: &Path) -> Result<srr_plan::PlanReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading plan {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing plan {}: {e}", path.display()))?;
    srr_plan::plan_from_json(&doc).map_err(|e| format!("plan {}: {e}", path.display()))
}

/// `srr --help`: the synopses from [`COMMANDS`], then the notes.
fn usage() -> String {
    let mut text = "srr — sparse record/replay front end\n\nusage:\n".to_owned();
    for cmd in COMMANDS {
        for form in cmd.synopsis {
            let form = form.replace('\n', &format!("\n{:16}", ""));
            text.push_str(format!("  srr {:<9} {form}", cmd.name).trim_end());
            text.push('\n');
        }
    }
    text.push_str(USAGE_NOTES);
    text
}

const USAGE_NOTES: &str = "
tools: native, tsan11, rr, tsan11+rr, rnd, queue, pct, delay
sparse sets: default, games, none, comprehensive

explore shards the seed×strategy space (--strategies rnd,pct,delay,queue)
across --workers worker processes with work stealing, dedups findings into
a corpus keyed by signature (smallest reproduction wins; --corpus persists
it), and with --predict feeds `srr predict` candidates back as directed
search targets. Exit 2 when distinct signatures were found.

trace runs or replays with the schedule traced and writes a Chrome trace;
--ring N keeps the last N exported events of each track (default 256),
cut at export.

profile replays a recorded demo and walks the critical path backwards
through the sync events, attributing every logical tick to a bucket: lock
wait/held time per lock site, condvar waits, join stalls, per-thread
on-CPU time. Bucket totals sum exactly to the replay's tick count and
`--json` output is byte-identical across runs of the same demo.
`--folded FILE` writes flamegraph-style folded stacks. `explore
--metrics-out DIR` snapshots the unified metrics registry once a second
and leaves metrics.json + metrics.prom behind.

vet scans workload source for recording-soundness escapes (raw clocks,
rogue threads, Wait/Tick misuse, address-as-value); --allow defaults to
ci/vet_allow.txt when present. `stats --vet` joins a trace's desync
diagnostics against the vet escape map to rank likely root causes.

plan runs the static sparsification planner (thread-escape + lockset
analysis) over workload source and classifies every labeled plain-access
site local/guarded/conflict. The JSON plan feeds back in three places:
`predict --plan` arms sparse recording, prunes statically proven candidate
pairs and cross-checks static lock cycles against the dynamic Goodlock
pass (static-only cycles are new findings); `explore --plan` seeds the
conflict sites as directed shards. Exit 2 on unallowed conflicts or
static lock cycles; `// plan: allow(conflict)` markers or the vet
allowlist-file format waive the gate (never the recording).

demo writes a recording's line-oriented text rendering to another
directory for reading and diffing (export; nothing loads it back),
prints the per-stream content hashes DemoStore dedups by (hash), or
summarizes a recording (stats). Demos are read and written in the
binary codec only; a stream file that is not a codec frame fails to
load with an error naming it.

exit codes:
  0  success
  1  usage or execution error
  2  clean run with findings (explore signatures, analyze hazards, predict confirmations, lint-demo diagnostics, vet deny findings, plan conflicts)";

fn cmd_list(_: &Args) -> Result<u8, String> {
    println!("{:<18} description", "workload");
    println!("{}", "-".repeat(64));
    for w in workloads() {
        println!("{:<18} {}", w.name, w.describe);
    }
    Ok(EXIT_OK)
}

fn cmd_run(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let (tool, config) = args.config(Tool::Queue)?;
    println!("running `{}` under {tool}", w.name);
    let report = Execution::new(config).setup(w.setup).run(w.program);
    print_report(&report);
    Ok(EXIT_OK)
}

fn cmd_record(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let out = args.out.as_deref().ok_or("record needs --out DIR")?;
    let (tool, mut config) = args.config(Tool::QueueRec)?;
    let tool = match tool {
        Tool::Rnd => Tool::RndRec,
        Tool::Queue => Tool::QueueRec,
        t if t.records() => t,
        t => {
            return Err(format!(
                "{t} cannot record; use rnd, queue, rr or tsan11+rr"
            ))
        }
    };
    config.mode = tool.config([1, 1]).mode;
    println!("recording `{}` under {tool}", w.name);
    let (report, demo) = Execution::new(config).setup(w.setup).record(w.program);
    print_report(&report);
    demo.save_dir(out)
        .map_err(|e| format!("saving demo: {e}"))?;
    println!("demo:         {} -> {}", demo.stats(), out.display());
    Ok(EXIT_OK)
}

fn cmd_replay(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let (demo, config) = args.replay(args.demo_dir()?)?;
    println!(
        "replaying `{}` ({} demo, {} bytes)",
        w.name,
        demo.header.strategy,
        demo.size_bytes()
    );
    let report = Execution::new(config)
        .setup(w.setup)
        .replay(&demo, w.program);
    print_report(&report);
    Ok(EXIT_OK)
}

fn cmd_explore(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let runs = args.runs.unwrap_or(200);
    let shard = args.shard.unwrap_or(25);
    if shard == 0 {
        return Err("--shard must be positive".to_owned());
    }
    let workers = args.workers.unwrap_or(1).max(1);
    let strategies = parse_strategies(args.strategies.as_deref())?;

    // Plan feedback: every statically classified `Conflict` site is a
    // directed target — the plan already proved these are the only
    // label/context pairs that can race, so they get shards before the
    // undirected sweep (and before any dynamic predict feedback below).
    let mut targets: Vec<RaceTarget> = Vec::new();
    if let Some(path) = &args.plan {
        let plan_report = load_plan(path)?;
        let mut conflict_sites = 0usize;
        for s in &plan_report.sites {
            if !(s.kind.is_plain() && matches!(s.class, SiteClass::Conflict)) {
                continue;
            }
            conflict_sites += 1;
            // `contexts` are tid hints (0 = fn body, k = k-th spawn); a
            // single-context conflict is a looped spawn racing with
            // itself, so both sides share it.
            let ctxs: Vec<u32> = if s.contexts.len() == 1 {
                vec![s.contexts[0], s.contexts[0]]
            } else {
                s.contexts.clone()
            };
            for (i, &a) in ctxs.iter().enumerate() {
                for &b in &ctxs[i + 1..] {
                    let t = RaceTarget::normalized(&s.label, a, b);
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
            }
        }
        if !args.json {
            println!(
                "plan feedback: {} directed target(s) from {conflict_sites} conflict site(s)",
                targets.len()
            );
        }
    }

    // Predict feedback: candidate pairs (everything the weak partial
    // order did not prove infeasible) become directed shards, scheduled
    // before the undirected sweep.
    if args.predict {
        let seed = args.seed.unwrap_or(1);
        let program = w.program;
        let run = predictor::run_prediction_in_world(seed_pair(seed), w.setup, move || program);
        let before = targets.len();
        for r in &run.predictions.races {
            if r.classification == Classification::Infeasible {
                continue;
            }
            // Canonical pair order so plan-seeded and predicted targets
            // for the same pair dedupe.
            let t = RaceTarget::normalized(&r.loc_label, r.tids.0, r.tids.1);
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        if !args.json {
            println!(
                "predict feedback: {} directed target(s) from seed {seed}",
                targets.len() - before
            );
        }
    }

    let mut corpus = match &args.corpus {
        Some(dir) => {
            Corpus::open(dir).map_err(|e| format!("opening corpus {}: {e}", dir.display()))?
        }
        None => Corpus::in_memory(),
    };
    // Workers spool finding demos next to the corpus; the corpus copies
    // the winners out and the spool is discarded.
    let spool = args.corpus.as_ref().map(|d| d.join(".spool"));
    if let Some(s) = &spool {
        std::fs::create_dir_all(s).map_err(|e| format!("creating spool: {e}"))?;
    }

    let plan = ShardPlan::build(w.name, &strategies, 0, runs, shard, &targets);
    if !args.json {
        println!(
            "exploring `{}`: {} run(s) in {} shard(s) ({}) across {workers} worker(s)",
            w.name,
            plan.total_runs(),
            plan.tasks.len(),
            strategies.join(","),
        );
    }
    // The unified metrics plane: with `--metrics-out DIR` the ticker
    // snapshots the registry once a second and the final counters land
    // as metrics.json + metrics.prom.
    let registry = MetricsRegistry::new();
    let metrics_dir = args.metrics_out.clone();
    if let Some(d) = &metrics_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    // Live progress to stderr, at most once a second — stdout stays
    // clean for the report, and the `#` prefix marks the line as human
    // chatter (the data travels via --metrics-out and the JSON report).
    let mut last_tick = std::time::Instant::now();
    let mut snap_idx = 0u32;
    let quiet = args.json;
    let mut ticker = |c: &FarmCounters| {
        if last_tick.elapsed().as_secs_f64() >= 1.0 {
            last_tick = std::time::Instant::now();
            if !quiet {
                eprintln!("# {}", c.render());
            }
            if let Some(dir) = &metrics_dir {
                c.publish(&registry);
                snap_idx += 1;
                let path = dir.join(format!("snapshot_{snap_idx:04}.json"));
                let _ = std::fs::write(&path, registry.snapshot_json().to_pretty());
            }
        }
    };
    let progress: Option<&mut dyn FnMut(&FarmCounters)> = if args.json && args.metrics_out.is_none()
    {
        None
    } else {
        Some(&mut ticker)
    };

    let outcome = if workers == 1 {
        // In-process farm: the engine is single-threaded per process, so
        // one worker runs the shards right here over the same protocol
        // the process transport uses.
        let (setup, program) = (w.setup, w.program);
        let spool_dir = spool.clone();
        let runner: std::sync::Arc<ShardRunner> = std::sync::Arc::new(move |task| {
            explorer::run_shard(task, setup, program, spool_dir.as_deref())
        });
        run_farm(&plan, 1, &ThreadSpawner { runner }, &mut corpus, progress)
    } else {
        let bin = match std::env::var_os("SRR_EXPLORE_WORKER_BIN") {
            Some(p) => PathBuf::from(p),
            None => std::env::current_exe().map_err(|e| format!("resolving worker binary: {e}"))?,
        };
        let spool_dir = spool.clone();
        let spawner = ProcessSpawner {
            make: move |_index| {
                let mut c = std::process::Command::new(&bin);
                c.arg("explore-worker");
                if let Some(s) = &spool_dir {
                    c.arg("--out").arg(s);
                }
                c
            },
        };
        run_farm(&plan, workers, &spawner, &mut corpus, progress)
    }
    .map_err(|e| format!("exploration farm: {e}"))?;

    if let Some(s) = &spool {
        let _ = std::fs::remove_dir_all(s);
    }
    for e in &outcome.errors {
        eprintln!("explore: {e}");
    }
    if let Some(dir) = &args.metrics_out {
        outcome.counters.publish(&registry);
        write_output(
            &dir.join("metrics.json"),
            &registry.snapshot_json().to_pretty(),
        )?;
        write_output(&dir.join("metrics.prom"), &registry.prometheus_text())?;
        eprintln!("# metrics: {}", dir.display());
    }

    let doc = explore_json(w.name, &strategies, &outcome.counters, &corpus);
    if emit_json_doc(&doc, args.json, args.out.as_deref())? {
        println!("{}", outcome.counters.render());
        for (sig, entry) in corpus.iter() {
            let mut line = format!("  {sig}  strategy={} seed={}", entry.strategy, entry.seed);
            if let Some(b) = entry.demo_bytes {
                line.push_str(&format!(" demo={b}B"));
            }
            if let Some(d) = &entry.demo_subdir {
                line.push_str(&format!(" ({d})"));
            }
            println!("{line}");
        }
        if let Some(dir) = &args.corpus {
            println!("corpus: {} entr(ies) in {}", corpus.len(), dir.display());
        }
    }
    Ok(findings_exit(corpus.len(), "distinct signature"))
}

/// The farm's worker entry point. Reads TASK lines on stdin, answers
/// FIND/DONE on stdout until EXIT (see srr-explore's protocol module).
/// `--out` is the demo spool.
fn cmd_explore_worker(args: &Args) -> Result<u8, String> {
    let spool = args.out.as_deref();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_worker(
        std::io::BufRead::lines(stdin.lock()).map_while(Result::ok),
        |line| {
            use std::io::Write as _;
            let mut out = stdout.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        },
        |task| {
            let w = find_workload(&task.workload)?;
            explorer::run_shard(task, w.setup, w.program, spool)
        },
    );
    Ok(EXIT_OK)
}

fn cmd_analyze(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let (tool, config) = args.controlled_config("analysis")?;
    if !args.json {
        println!("analyzing `{}` under {tool}", w.name);
    }
    let report = Execution::new(config.with_access_trace())
        .setup(w.setup)
        .run(w.program);
    let findings = report.analysis();
    let doc = obj(vec![
        ("workload", Json::Str(w.name.to_owned())),
        ("tool", Json::Str(tool.label().to_owned())),
        (
            "sync_events",
            Json::Num(report.sync_trace.events.len() as f64),
        ),
        ("races", Json::Num(report.races as f64)),
        ("suppressed", Json::Num(report.suppressed as f64)),
        (
            "findings",
            Json::Arr(
                findings
                    .iter()
                    .map(|f| {
                        obj(vec![
                            ("kind", Json::Str(f.kind.name().to_owned())),
                            ("message", Json::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if emit_json_doc(&doc, args.json, args.out.as_deref())? {
        print_report(&report);
        println!("--- analysis --");
        println!("sync events:  {}", report.sync_trace.events.len());
        if findings.is_empty() {
            println!("no findings");
        }
        for f in &findings {
            println!("[{}] {}", f.kind.name(), f.message);
        }
    }
    Ok(findings_exit(findings.len(), "finding"))
}

fn cmd_predict(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    let seed = args.seed.unwrap_or(1);
    let seeds = seed_pair(seed);
    let plan_report = args.plan.as_deref().map(load_plan).transpose()?;
    if !args.json {
        println!(
            "predicting races in `{}` (queue record + witness replay, seed {seed})",
            w.name
        );
    }
    let (setup, program) = (w.setup, w.program);
    // Under `--plan` the recording runs sparse (statically
    // proven plain sites never reach the event log) and the
    // proven labels are pruned before witness synthesis.
    let run = match &plan_report {
        Some(p) => {
            let proven = p.proven_labels();
            let plan = AccessPlan::new(p.recorded_labels(), p.known_labels());
            predictor::run_prediction_in_world_with(
                seeds,
                setup,
                move || program,
                Some(plan),
                move |label| !proven.contains(label),
            )
        }
        None => predictor::run_prediction_in_world(seeds, setup, move || program),
    };
    if run.record.plan.is_stale() {
        eprintln!(
            "warning: plan is stale — {} unplanned label(s) recorded fail-open: {}",
            run.record.plan.unplanned.len(),
            run.record.plan.unplanned.join(", ")
        );
    }
    // Static/dynamic lock-cycle cross-check: a static cycle the
    // recorded trace's Goodlock pass never saw is a *new*
    // finding — the observed schedule simply never interleaved
    // those locks.
    let static_only: Vec<Vec<String>> = plan_report
        .as_ref()
        .map(|p| {
            let dynamic: Vec<BTreeSet<String>> = run
                .record
                .analysis()
                .iter()
                .filter(|f| f.kind == srr_analysis::FindingKind::PotentialDeadlock)
                .map(|f| f.labels.iter().cloned().collect())
                .collect();
            p.lock_cycles
                .iter()
                .filter(|c| {
                    let set: BTreeSet<String> = c.iter().cloned().collect();
                    !dynamic.iter().any(|d| d.is_superset(&set))
                })
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    let confirmed = run.predictions.count(Classification::Confirmed);
    let unconfirmed = run.predictions.count(Classification::Unconfirmed);
    let infeasible = run.predictions.count(Classification::Infeasible);
    if let Some(dir) = &args.out {
        let witness = run
            .predictions
            .races
            .iter()
            .find(|r| r.classification == Classification::Confirmed)
            .and_then(|r| r.witness.as_ref())
            .ok_or("--out given but no confirmed witness to save")?;
        witness
            .save_dir(dir)
            .map_err(|e| format!("saving witness demo: {e}"))?;
        if !args.json {
            println!("witness demo: {}", dir.display());
        }
    }
    // Static-only cycles gate alongside the confirmed races,
    // but only under `--plan` (the vector is empty otherwise).
    let gate = confirmed + static_only.len();
    let noun = if static_only.is_empty() {
        "confirmed race"
    } else {
        "finding"
    };
    let races = run
        .predictions
        .races
        .iter()
        .map(|r| {
            obj(vec![
                ("loc", Json::Str(r.loc_label.clone())),
                (
                    "tids",
                    Json::Arr(vec![
                        Json::Num(f64::from(r.tids.0)),
                        Json::Num(f64::from(r.tids.1)),
                    ]),
                ),
                (
                    "writes",
                    Json::Arr(vec![Json::Bool(r.writes.0), Json::Bool(r.writes.1)]),
                ),
                ("hidden", Json::Bool(r.hidden)),
                (
                    "classification",
                    Json::Str(r.classification.name().to_owned()),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("workload", Json::Str(w.name.to_owned())),
        ("seed", Json::Num(seed as f64)),
        ("recorded_races", Json::Num(run.record.races as f64)),
        ("candidates", Json::Num(run.predictions.races.len() as f64)),
        ("confirmed", Json::Num(confirmed as f64)),
        ("unconfirmed", Json::Num(unconfirmed as f64)),
        ("infeasible", Json::Num(infeasible as f64)),
        ("hidden", Json::Num(run.predictions.hidden_count() as f64)),
        (
            "confirmation_rate",
            match run.predictions.confirmation_rate() {
                Some(r) => Json::Num(r),
                None => Json::Null,
            },
        ),
        ("races", Json::Arr(races)),
    ];
    if plan_report.is_some() {
        fields.push(("pruned", Json::Num(run.predictions.pruned as f64)));
        fields.push((
            "plan_filtered_events",
            Json::Num(run.record.plan.filtered_events as f64),
        ));
        fields.push((
            "static_only_cycles",
            Json::Arr(
                static_only
                    .iter()
                    .map(|c| Json::Arr(c.iter().map(|l| Json::Str(l.clone())).collect()))
                    .collect(),
            ),
        ));
    }
    let doc = obj(fields);
    if !emit_json_doc(&doc, args.json, None)? {
        return Ok(findings_exit(gate, noun));
    }
    println!(
        "recorded: {:?}, {} tick(s), {} race(s) in the observed schedule",
        run.record.outcome, run.record.ticks, run.record.races
    );
    println!("--- predictions ---");
    if run.predictions.races.is_empty() {
        println!("no candidate pairs under the weak partial order");
    } else {
        for r in &run.predictions.races {
            println!(
                "[{}] {}: threads {} & {} ({}/{}){}",
                r.classification.name(),
                r.loc_label,
                r.tids.0,
                r.tids.1,
                if r.writes.0 { "write" } else { "read" },
                if r.writes.1 { "write" } else { "read" },
                if r.hidden {
                    " — hidden from the recorded schedule"
                } else {
                    ""
                }
            );
        }
        let rate = run
            .predictions
            .confirmation_rate()
            .map_or("n/a".to_owned(), |r| format!("{:.0}%", r * 100.0));
        println!(
            "{} candidate(s) — {confirmed} confirmed, {unconfirmed} unconfirmed, \
             {infeasible} infeasible (confirmation rate {rate})",
            run.predictions.races.len()
        );
    }
    if plan_report.is_some() {
        println!(
            "plan: pruned {} statically proven candidate(s), filtered {} plain \
             event(s) from the trace",
            run.predictions.pruned, run.record.plan.filtered_events
        );
        for c in &static_only {
            println!(
                "[static-only lock cycle] {} — never interleaved in the recorded \
                 schedule",
                c.join(" -> ")
            );
        }
    }
    Ok(findings_exit(gate, noun))
}

fn cmd_demo(args: &Args) -> Result<u8, String> {
    let sub = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or("demo needs a subcommand: export | hash | stats")?;
    let dir = args.demo_dir()?;
    let demo = load_demo(dir)?;
    match (sub, args.out.as_deref()) {
        ("export", None) => Err("export needs --out DIR".to_owned()),
        ("export", Some(dest)) => {
            // Text over the demo's own streams would leave a directory
            // that no longer loads.
            if std::fs::canonicalize(dest).ok() == std::fs::canonicalize(dir).ok() {
                return Err(format!(
                    "export --out {} is the demo itself; name another directory",
                    dest.display()
                ));
            }
            std::fs::create_dir_all(dest)
                .map_err(|e| format!("creating {}: {e}", dest.display()))?;
            let mut bytes = 0;
            for (file, text) in demo.to_string_map() {
                std::fs::write(dest.join(&file), &text)
                    .map_err(|e| format!("writing {}: {e}", dest.join(&file).display()))?;
                bytes += text.len();
            }
            eprintln!("{}: text export, {bytes} bytes", dest.display());
            Ok(EXIT_OK)
        }
        ("hash" | "stats", Some(_)) => Err(format!(
            "`demo {sub}` does not take `--out` (only `demo export` writes a directory)"
        )),
        ("hash", None) => {
            // The same content addresses `DemoStore` uses, so two demos
            // dedup in a store iff their hash lines match here.
            for (file, bytes) in demo.to_bytes_map() {
                println!("{}  {file}", StreamHash::of(&bytes));
            }
            Ok(EXIT_OK)
        }
        ("stats", None) => {
            let stats = demo.stats();
            println!("{stats}");
            print!("{}", stats.table());
            Ok(EXIT_OK)
        }
        (other, _) => Err(format!(
            "unknown demo subcommand `{other}` (export | hash | stats)"
        )),
    }
}

fn cmd_lint_demo(args: &Args) -> Result<u8, String> {
    let dir = args.demo_dir()?;
    let diags = srr_analysis::lint_demo_dir(dir);
    if diags.is_empty() {
        println!("{}: demo is well-formed", dir.display());
    }
    for d in &diags {
        eprintln!("{d}");
    }
    Ok(findings_exit(diags.len(), "demo problem"))
}

fn cmd_vet(args: &Args) -> Result<u8, String> {
    let (paths, allow) = scan_inputs(args)?;
    let report = srr_vet::vet_paths(&paths, &allow).map_err(|e| format!("vet: {e}"))?;
    if emit_json_doc(&report.to_json(), args.json, args.out.as_deref())? {
        for f in &report.findings {
            println!("{f}");
        }
        for f in &report.allowed {
            println!("{f} [allowed]");
        }
        println!(
            "scanned {} file(s): {} deny, {} warn, {} allowed",
            report.scanned_files,
            report.deny_count(),
            report.warn_count(),
            report.allowed.len()
        );
    }
    // Warn findings report but do not gate; deny findings gate.
    Ok(findings_exit(report.deny_count(), "deny finding"))
}

fn cmd_plan(args: &Args) -> Result<u8, String> {
    let (paths, allow) = scan_inputs(args)?;
    let report = srr_plan::plan_paths(&paths, &allow).map_err(|e| format!("plan: {e}"))?;
    if emit_json_doc(&report.to_json(), args.json, args.out.as_deref())? {
        for s in &report.sites {
            let mut line = format!(
                "[{}] {} ({}) {}:{}:{}",
                s.class.name(),
                s.label,
                s.kind.name(),
                s.span.file,
                s.span.line,
                s.span.col
            );
            if let SiteClass::Guarded(locks) = &s.class {
                line.push_str(&format!(" under {}", locks.join("+")));
            }
            if s.severity == srr_analysis::Severity::Allow {
                line.push_str(" [allowed]");
            }
            println!("{line}");
        }
        for c in &report.lock_cycles {
            println!("[lock-cycle] {}", c.join(" -> "));
        }
        println!(
            "scanned {} file(s): {} site(s), {} recorded / {} proven label(s), \
             {} conflict gate(s), {} lock cycle(s)",
            report.scanned_files,
            report.sites.len(),
            report.recorded_labels().len(),
            report.proven_labels().len(),
            report.conflict_count(),
            report.lock_cycles.len(),
        );
    }
    // Unallowed plain-access conflicts and static lock-order cycles
    // gate; proven sites and allowed conflicts do not.
    Ok(findings_exit(
        report.conflict_count() + report.lock_cycles.len(),
        "plan finding",
    ))
}

fn cmd_trace(args: &Args) -> Result<u8, String> {
    let w = args.workload()?;
    // The last N events per track, cut at export.
    let ring = Some(args.ring.unwrap_or(256));
    let report = if let Some(dir) = &args.demo {
        let (demo, config) = args.replay(dir)?;
        println!("tracing `{}` replaying {}", w.name, dir.display());
        Execution::new(config.with_trace(TraceSpec::SCHEDULE))
            .setup(w.setup)
            .replay(&demo, w.program)
    } else {
        let (tool, config) = args.controlled_config("tracing")?;
        println!("tracing `{}` under {tool}", w.name);
        Execution::new(config.with_trace(TraceSpec::SCHEDULE))
            .setup(w.setup)
            .run(w.program)
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("trace_{}.json", w.name)));
    let mut trace = chrome_trace(&report.sync_trace, ring);
    // Embed the desync diagnostics so `srr stats --vet` can join the
    // diverged stream against a static escape map offline.
    if let (Some(diag), Json::Obj(fields)) = (&report.obs.desync, &mut trace) {
        fields.push(("desync".to_owned(), diag.to_json()));
    }
    write_output(&out, &trace.to_pretty())?;
    println!("outcome:      {:?}", report.outcome);
    println!("tick latency: {}", report.obs.tick_latency.summary());
    println!("run lengths:  {}", report.obs.run_lengths.summary());
    let timeline = text_timeline(&report.sync_trace, &report.obs, ring);
    let lines: Vec<&str> = timeline.lines().collect();
    let tail = 20usize;
    if lines.len() > tail {
        println!("--- timeline (last {tail} of {} lines) ---", lines.len());
    } else {
        println!("--- timeline ---");
    }
    for line in lines.iter().rev().take(tail).rev() {
        println!("{line}");
    }
    if let Some(diag) = &report.obs.desync {
        println!("{}", diag.render());
    }
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    println!("chrome trace: {} ({events} events)", out.display());
    Ok(EXIT_OK)
}

fn cmd_profile(args: &Args) -> Result<u8, String> {
    use std::fmt::Write as _;
    let w = args.workload()?;
    let dir = args.demo_dir()?;
    let (demo, config) = args.replay(dir)?;
    let report = Execution::new(config.with_trace(TraceSpec {
        sync: true,
        ..TraceSpec::SCHEDULE
    }))
    .setup(w.setup)
    .replay(&demo, w.program);
    if let Some(diag) = &report.obs.desync {
        eprintln!(
            "warning: replay desynced — profile covers the ticks before divergence\n{}",
            diag.render()
        );
    }
    let prof = srr_obs::profile(&report.sync_trace);
    if let Some(folded) = &args.folded {
        write_output(folded, &prof.folded_stacks())?;
        eprintln!("folded stacks: {}", folded.display());
    }
    let contents = if args.json {
        // The JSON document is purely logical (ticks and sync structure,
        // never wall time): the same demo profiles to byte-identical
        // output on every run.
        format!("{}\n", prof.to_json().to_pretty())
    } else {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "profiling `{}` replaying {} ({} demo)",
            w.name,
            dir.display(),
            demo.header.strategy,
        );
        text.push_str(&prof.render_text());
        let _ = writeln!(
            text,
            "exact: bucket totals sum to {} of {} replay tick(s)",
            prof.attributed_ticks(),
            prof.total_ticks,
        );
        let _ = writeln!(text, "tick latency: {}", report.obs.tick_latency.summary());
        text
    };
    emit_report(args.out.as_deref(), "profile", &contents)?;
    Ok(EXIT_OK)
}

fn cmd_stats(args: &Args) -> Result<u8, String> {
    let path = args
        .positional
        .first()
        .ok_or("stats needs a report path (BENCH_*.json or trace_*.json)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    // The whole report accumulates here so `-o FILE` captures it
    // verbatim; without `-o` it lands on stdout unchanged.
    use std::fmt::Write as _;
    let mut buf = String::new();
    macro_rules! statln {
        ($($t:tt)*) => {{ let _ = writeln!(buf, $($t)*); }}
    }
    let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("-").to_owned();
    let num_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64);
    // The bench section only renders for bench documents — a
    // trace file passed for `--vet` analysis gets no empty table.
    let is_bench = doc.get("rows").is_some() || doc.get("table").is_some();
    if is_bench {
        statln!(
            "{} — {} (quick: {}, runs: {}, scale: {})",
            str_of(&doc, "table"),
            str_of(&doc, "title"),
            doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
            num_of(&doc, "runs").unwrap_or(0.0),
            num_of(&doc, "scale").unwrap_or(0.0),
        );
    }
    let empty: &[Json] = &[];
    let rows = doc.get("rows").and_then(Json::as_array).unwrap_or(empty);
    for row in rows {
        let mean = num_of(row, "mean").unwrap_or(0.0);
        let sd = num_of(row, "stddev").unwrap_or(0.0);
        let mut line = format!(
            "  {:<16} {:<14} {:>10.3} ±{:<8.3} {:<4} n={}",
            str_of(row, "workload"),
            str_of(row, "config"),
            mean,
            sd,
            str_of(row, "metric"),
            num_of(row, "n").unwrap_or(0.0),
        );
        if let Some(o) = num_of(row, "overhead_vs_native") {
            line.push_str(&format!("  {o:.1}x native"));
        }
        if let Some(t) = num_of(row, "ticks") {
            line.push_str(&format!(
                "  [ticks {t:.0}, wakeups {:.0}, broadcasts {:.0}, spurious {:.0}]",
                num_of(row, "wakeups_issued").unwrap_or(0.0),
                num_of(row, "broadcasts").unwrap_or(0.0),
                num_of(row, "spurious_wakeups").unwrap_or(0.0),
            ));
        }
        if let Some(b) = num_of(row, "demo_bytes") {
            line.push_str(&format!(
                "  [demo {b:.0}B: queue {:.0}, syscall {:.0}, signal {:.0}, async {:.0}]",
                num_of(row, "queue_entries").unwrap_or(0.0),
                num_of(row, "syscall_entries").unwrap_or(0.0),
                num_of(row, "signal_entries").unwrap_or(0.0),
                num_of(row, "async_entries").unwrap_or(0.0),
            ));
        }
        statln!("{line}");
    }
    // Top-level counters some tables attach as notes (race
    // suppression, prediction outcomes).
    let mut extras = Vec::new();
    for key in [
        "races",
        "suppressed",
        "candidates",
        "confirmed",
        "unconfirmed",
        "infeasible",
        "hidden",
        "confirmation_rate",
    ] {
        if let Some(v) = num_of(&doc, key) {
            extras.push(format!("{key} {v}"));
        }
    }
    if !extras.is_empty() {
        statln!("totals: {}", extras.join(", "));
    }
    if is_bench {
        statln!("{} row(s)", rows.len());
    }
    // Exploration-farm documents (`srr explore --out`): render
    // the counters and the deduplicated signature corpus.
    if let Some(farm) = doc.get("farm") {
        statln!("farm: {}", FarmCounters::from_json(farm).render());
    }
    if let Some(sigs) = doc.get("signatures").and_then(Json::as_array) {
        statln!("{} distinct signature(s):", sigs.len());
        for s in sigs {
            let mut line = format!(
                "  {}({})  strategy={} seed={}",
                str_of(s, "kind"),
                str_of(s, "detail"),
                str_of(s, "strategy"),
                num_of(s, "seed").unwrap_or(0.0),
            );
            if let Some(b) = num_of(s, "demo_bytes") {
                line.push_str(&format!(" demo={b:.0}B"));
            }
            statln!("{line}");
        }
    }
    // Desync ↔ escape-map cross-link: only when the document
    // actually carries desync diagnostics (`srr trace` embeds
    // them when a replay diverged) — never an empty section.
    let desync = doc.get("desync").filter(|d| !matches!(d, Json::Null));
    if let Some(vet_path) = &args.vet {
        let Some(desync) = desync else {
            eprintln!("no desync recorded in {path} — vet cross-link skipped (replay was clean?)");
            emit_report(args.out.as_deref(), "stats", &buf)?;
            return Ok(EXIT_OK);
        };
        let vet_text = std::fs::read_to_string(vet_path)
            .map_err(|e| format!("reading {}: {e}", vet_path.display()))?;
        let vet_doc =
            Json::parse(&vet_text).map_err(|e| format!("parsing {}: {e}", vet_path.display()))?;
        let escapes = srr_vet::escape_map_from_json(&vet_doc);
        let stream = desync
            .get("stream")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        statln!(
            "--- desync root causes (stream {stream} @ entry {}, constraint `{}`) ---",
            num_of(desync, "offset").unwrap_or(0.0),
            str_of(desync, "constraint"),
        );
        let ranked = srr_vet::rank_desync_causes(&stream, &escapes);
        if ranked.is_empty() {
            statln!(
                "no static escape implicates {stream}; the cause is outside the vetted \
                 source ({} escape(s) in the map)",
                escapes.len()
            );
        } else {
            for r in &ranked {
                statln!(
                    "  [{}] {}",
                    if r.score == 2 { "primary" } else { "secondary" },
                    r.finding
                );
            }
        }
    } else if desync.is_some() {
        statln!(
            "desync diagnostics present — pass `--vet vet.json` (from `srr vet --json`) \
             to rank root causes"
        );
    }
    emit_report(args.out.as_deref(), "stats", &buf)?;
    Ok(EXIT_OK)
}

fn run_command(argv: &[String]) -> Result<u8, String> {
    let Some(name) = argv.first() else {
        return Err(format!("missing command\n{}", usage()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(EXIT_OK);
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n{}", usage()))?;
    (cmd.run)(&parse_args(cmd, &argv[1..])?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_command(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("srr: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("in the table")
    }

    /// The flag contract, checked from the table: each command parses
    /// every flag its entry lists and refuses every other one with its
    /// own flag list, and its synopsis names exactly the listed flags.
    #[test]
    fn every_command_reads_exactly_the_flags_its_entry_lists() {
        let every: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.flags.split_whitespace())
            .collect();
        for cmd in COMMANDS {
            let listed: BTreeSet<&str> = cmd.flags.split_whitespace().collect();
            for &flag in &every {
                let parsed = parse_args(cmd, &argv(&["w", flag, "7"]));
                if !listed.contains(flag) {
                    let err = parsed.expect_err(flag);
                    assert!(
                        err.contains(&format!("`{}` does not take `{flag}`", cmd.name)),
                        "{err}"
                    );
                    assert!(
                        err.ends_with(&format!("({} takes {})", cmd.name, cmd.flags))
                            || (cmd.flags.is_empty() && err.ends_with("takes no flags)"))
                    );
                    continue;
                }
                let args = parsed.unwrap_or_else(|e| panic!("{} {flag}: {e}", cmd.name));
                // A switch leaves its neighbour a positional; every other
                // flag takes it as its value.
                let switch = matches!(flag, "--json" | "--predict");
                assert_eq!(args.positional.len(), if switch { 2 } else { 1 });
                assert_eq!(args.command, cmd.name);
            }
            // `-o` is `--out` wherever `--out` is listed, and only there.
            let short = parse_args(cmd, &argv(&["-o", "f"]));
            assert_eq!(short.is_ok(), listed.contains("--out"), "{}", cmd.name);
            let named: BTreeSet<&str> = cmd
                .synopsis
                .iter()
                .flat_map(|form| form.split(|c: char| c.is_whitespace() || "[]|".contains(c)))
                .filter(|t| t.starts_with('-'))
                .map(|t| if t == "-o" { "--out" } else { t })
                .collect();
            // The hidden worker entry point has no synopsis to check.
            if !cmd.synopsis.is_empty() {
                assert_eq!(named, listed, "the synopsis of `{}`", cmd.name);
            }
        }
    }

    #[test]
    fn flag_values_land_in_their_fields() {
        let a = parse_args(
            command("explore"),
            &argv(&[
                "barrier", "--seed", "7", "--runs", "9", "-o", "/tmp/x", "--json",
            ]),
        )
        .unwrap();
        assert_eq!(a.positional, vec!["barrier"]);
        assert_eq!((a.seed, a.runs), (Some(7), Some(9)));
        assert_eq!(a.out.as_deref(), Some(Path::new("/tmp/x")));
        assert!(a.json && !a.predict);
        let p = parse_args(command("profile"), &argv(&["httpd", "--folded", "/tmp/f"])).unwrap();
        assert_eq!(p.folded.as_deref(), Some(Path::new("/tmp/f")));
        // A value-taking flag needs its value, and a count must parse.
        let run = command("run");
        assert_eq!(
            parse_args(run, &argv(&["client", "--seed"])).unwrap_err(),
            "--seed needs a value"
        );
        assert_eq!(
            parse_args(run, &argv(&["client", "--seed", "xyz"])).unwrap_err(),
            "bad --seed"
        );
        assert!(parse_args(command("trace"), &argv(&["httpd", "-o"])).is_err());
    }

    #[test]
    fn misspelled_flags_are_refused_with_the_commands_flags() {
        // A dash-prefixed token is a malformed flag, never a workload.
        let err = parse_args(command("run"), &argv(&["client", "-seed", "7"])).unwrap_err();
        assert_eq!(
            err,
            "unknown flag `-seed` (run takes --tool --seed --sparse)"
        );
        for bad in ["-x", "-", "--nope"] {
            assert!(parse_args(command("run"), &argv(&[bad])).is_err(), "{bad}");
        }
        let err = parse_args(command("list"), &argv(&["--json"])).unwrap_err();
        assert_eq!(err, "`list` does not take `--json` (list takes no flags)");
        // One spelling per flag: `record` writes to `--out` only.
        let err = run_command(&argv(&["record", "client", "--demo", "/tmp/d"])).unwrap_err();
        assert!(err.contains("`record` does not take `--demo`"), "{err}");
    }

    #[test]
    fn commands_without_their_workload_are_usage_errors() {
        for cmd in COMMANDS {
            if cmd
                .synopsis
                .first()
                .is_some_and(|s| s.starts_with("<workload>"))
            {
                let err = run_command(&argv(&[cmd.name])).unwrap_err();
                assert_eq!(err, format!("{} needs a workload", cmd.name));
            }
        }
    }

    #[test]
    fn tool_and_sparse_parsers() {
        assert!(parse_tool("queue").is_ok());
        assert!(parse_tool("tsan11+rr").is_ok());
        assert!(parse_tool("bogus").is_err());
        assert!(parse_sparse("games").is_ok());
        assert!(parse_sparse("bogus").is_err());
    }

    #[test]
    fn workload_registry_is_complete() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        for expected in [
            "client",
            "httpd",
            "pbzip",
            "game",
            "netplay",
            "ptrmap",
            "ms-queue",
            "planned_local",
        ] {
            assert!(
                names.contains(&expected),
                "{expected} missing from {names:?}"
            );
        }
        assert!(find_workload("client").is_ok());
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn run_command_errors_are_usable() {
        assert!(run_command(&[]).is_err());
        assert!(run_command(&argv(&["frobnicate"])).is_err());
        assert!(run_command(&argv(&["run"])).is_err(), "missing workload");
        assert!(
            run_command(&argv(&["record", "client"])).is_err(),
            "missing --out"
        );
        assert!(
            run_command(&argv(&["replay", "client"])).is_err(),
            "missing --demo"
        );
    }

    #[test]
    fn analyze_command_runs_and_validates() {
        // The ABBA workload is built to be flagged: findings exit 2.
        let code = run_command(&argv(&["analyze", "ab_ba_locks", "--seed", "7"])).expect("analyze");
        assert_eq!(code, EXIT_FINDINGS);
        assert!(
            run_command(&argv(&["analyze"])).is_err(),
            "missing workload"
        );
        let err = run_command(&argv(&["analyze", "ab_ba_locks", "--tool", "native"])).unwrap_err();
        assert!(err.contains("controlled"), "{err}");
    }

    #[test]
    fn parse_strategies_defaults_and_validates() {
        assert_eq!(
            parse_strategies(None).unwrap(),
            vec!["rnd", "pct", "delay", "queue"]
        );
        assert_eq!(
            parse_strategies(Some("queue, rnd")).unwrap(),
            vec!["queue", "rnd"]
        );
        assert!(parse_strategies(Some("bogus")).is_err());
        assert!(parse_strategies(Some(",")).is_err());
    }

    #[test]
    fn explore_runs_the_farm_in_process() {
        // workers=1 runs shards in-process (no subprocess — under `cargo
        // test` current_exe is the test harness, which must never be
        // spawned). The racy litmus gates with the findings exit code…
        let code = run_command(&argv(&[
            "explore",
            "barrier",
            "--runs",
            "12",
            "--shard",
            "6",
            "--strategies",
            "rnd",
            "--json",
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_FINDINGS);
        // …and a guarded workload explores clean.
        let code = run_command(&argv(&[
            "explore",
            "atomic_guard",
            "--runs",
            "4",
            "--strategies",
            "queue",
            "--json",
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_OK);
        // Usage errors stay errors.
        assert!(run_command(&argv(&["explore"])).is_err());
        assert!(run_command(&argv(&["explore", "barrier", "--shard", "0"])).is_err());
        assert!(run_command(&argv(&["explore", "barrier", "--strategies", "nope"])).is_err());
    }

    #[test]
    fn explore_report_round_trips_through_stats() {
        let out = std::env::temp_dir().join(format!("srr-explore-doc-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "explore",
            "barrier",
            "--runs",
            "8",
            "--strategies",
            "queue",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        assert_eq!(code, EXIT_FINDINGS);
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
        assert!(doc.get("farm").is_some(), "farm counters embedded");
        let sigs = doc
            .get("signatures")
            .and_then(Json::as_array)
            .expect("signatures");
        assert!(!sigs.is_empty());
        // `srr stats` renders the farm document without error.
        assert_eq!(
            run_command(&argv(&["stats", out.to_str().unwrap()])),
            Ok(EXIT_OK)
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn explore_predict_feedback_arms_directed_shards() {
        let out =
            std::env::temp_dir().join(format!("srr-explore-pred-{}.json", std::process::id()));
        run_command(&argv(&[
            "explore",
            "hidden_handoff",
            "--runs",
            "6",
            "--strategies",
            "queue",
            "--predict",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let targeted = doc
            .get("farm")
            .and_then(|f| f.get("targeted_runs"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            targeted > 0.0,
            "predict candidates became directed shards: {doc:?}"
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn help_prints_exit_codes() {
        assert_eq!(run_command(&argv(&["--help"])), Ok(EXIT_OK));
        assert_eq!(run_command(&argv(&["help"])), Ok(EXIT_OK));
        assert!(usage().contains("exit codes"));
        assert!(usage().contains("2  clean run with findings"));
        for cmd in COMMANDS {
            let shown = usage().contains(&format!("  srr {:<9} ", cmd.name).trim_end().to_owned());
            assert_eq!(shown, cmd.name != "explore-worker", "{}", cmd.name);
        }
        // Usage travels with the missing-command error too.
        let err = run_command(&[]).unwrap_err();
        assert!(err.contains("exit codes"), "{err}");
    }

    #[test]
    fn lint_demo_command_accepts_recorded_and_rejects_corrupt() {
        let dir = std::env::temp_dir().join(format!("srr-lint-test-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "client",
            "--tool",
            "queue",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", dir.to_str().unwrap()])),
            Ok(EXIT_OK),
            "recorded demo lints clean"
        );
        // Corrupt the binary SYSCALL stream mid-record: the linter must
        // object with the findings exit code (not a usage error).
        let syscall = dir.join("SYSCALL");
        let mut bytes = std::fs::read(&syscall).expect("recorded syscalls");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&syscall, bytes).unwrap();
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", dir.to_str().unwrap()])),
            Ok(EXIT_FINDINGS)
        );
        assert!(
            run_command(&argv(&["lint-demo"])).is_err(),
            "missing --demo"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_command_exports_hashes_and_reports_stats() {
        let dir = std::env::temp_dir().join(format!("srr-demo-cmd-{}", std::process::id()));
        let text_dir = std::env::temp_dir().join(format!("srr-demo-cmd-t-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "client",
            "--tool",
            "queue",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        let d = dir.to_str().unwrap();
        let t = text_dir.to_str().unwrap();
        assert_eq!(
            run_command(&argv(&["demo", "stats", "--demo", d])),
            Ok(EXIT_OK)
        );
        assert_eq!(
            run_command(&argv(&["demo", "hash", "--demo", d])),
            Ok(EXIT_OK)
        );
        // Export the text rendering to a second directory.
        run_command(&argv(&["demo", "export", "--demo", d, "--out", t])).expect("export");
        let header = std::fs::read_to_string(text_dir.join("HEADER")).expect("text HEADER");
        assert!(header.starts_with("tsan11rec-demo v1\n"), "{header}");
        let demo = Demo::load_dir(&dir).unwrap();
        for (file, text) in demo.to_string_map() {
            assert_eq!(std::fs::read_to_string(text_dir.join(&file)).unwrap(), text);
        }
        // The export is not a demo: every reader refuses it, naming the
        // file, and exits 1.
        for cmd in [
            &["replay", "client", "--demo", t][..],
            &["profile", "client", "--demo", t],
            &["demo", "hash", "--demo", t],
        ] {
            let err = run_command(&argv(cmd)).expect_err("a text export does not load");
            assert!(
                err.contains("cannot decode HEADER: bad magic"),
                "{cmd:?}: {err}"
            );
        }
        // The linter reports the load error as its one diagnostic.
        assert_eq!(
            run_command(&argv(&["lint-demo", "--demo", t])),
            Ok(EXIT_FINDINGS)
        );
        // Exporting over the demo itself would destroy it.
        let err = run_command(&argv(&["demo", "export", "--demo", d, "--out", d]))
            .expect_err("export over the demo");
        assert!(err.contains("is the demo itself"), "{err}");
        assert_eq!(Demo::load_dir(&dir).unwrap(), demo, "demo untouched");
        // Usage errors: missing subcommand, unknown subcommand, missing
        // --out, and the retired --to flag.
        assert!(run_command(&argv(&["demo", "--demo", d])).is_err());
        assert!(run_command(&argv(&["demo", "bogus", "--demo", d])).is_err());
        assert!(run_command(&argv(&["demo", "export", "--demo", d])).is_err());
        assert!(run_command(&argv(&["demo", "convert", "--demo", d, "--to", "text"])).is_err());
        // Only export writes a directory.
        let err = run_command(&argv(&["demo", "hash", "--demo", d, "--out", t])).unwrap_err();
        assert!(err.contains("does not take `--out`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&text_dir);
    }

    #[test]
    fn record_and_replay_through_the_cli_paths() {
        let dir = std::env::temp_dir().join(format!("srr-cli-test-{}", std::process::id()));
        run_command(&argv(&[
            "record",
            "barrier",
            "--tool",
            "queue",
            "--seed",
            "3",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("record");
        run_command(&argv(&[
            "replay",
            "barrier",
            "--demo",
            dir.to_str().unwrap(),
        ]))
        .expect("replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_command_writes_parseable_chrome_json() {
        let out = std::env::temp_dir().join(format!("srr-trace-test-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "trace",
            "barrier",
            "--tool",
            "queue",
            "--seed",
            "3",
            "--ring",
            "64",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("trace");
        assert_eq!(code, EXIT_OK);
        let text = std::fs::read_to_string(&out).expect("trace file");
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "trace captured events");
        // Uncontrolled tools cannot trace.
        assert!(run_command(&argv(&["trace", "barrier", "--tool", "native"])).is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn vet_command_gates_on_deny_and_honours_allowlists() {
        let dir = std::env::temp_dir().join(format!("srr-vet-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.rs");
        std::fs::write(
            &bad,
            "fn w() { std::thread::spawn(|| {}); std::time::Instant::now(); }",
        )
        .unwrap();
        let clean = dir.join("clean.rs");
        std::fs::write(&clean, "fn w() { tsan11rec::sys::println(\"ok\"); }").unwrap();

        // Deny findings gate with the shared findings exit code.
        let code = run_command(&argv(&["vet", bad.to_str().unwrap(), "--allow", "none"]))
            .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS);
        // Shim-only code passes.
        let code = run_command(&argv(&["vet", clean.to_str().unwrap(), "--allow", "none"]))
            .expect("vet runs");
        assert_eq!(code, EXIT_OK);
        // An allowlist covering the file waves the escapes through.
        let allow = dir.join("allow.txt");
        std::fs::write(&allow, "allow * */bad.rs fixture\n").unwrap();
        let code = run_command(&argv(&[
            "vet",
            bad.to_str().unwrap(),
            "--allow",
            allow.to_str().unwrap(),
            "--json",
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_OK);
        // `--out` writes the escape map; it parses back.
        let map = dir.join("vet.json");
        let code = run_command(&argv(&[
            "vet",
            bad.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            map.to_str().unwrap(),
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS);
        let doc = Json::parse(&std::fs::read_to_string(&map).unwrap()).unwrap();
        let escapes = srr_vet::escape_map_from_json(&doc);
        assert!(
            escapes.iter().any(|f| f.kind == srr_vet::VetKind::RawSpawn),
            "{escapes:?}"
        );
        // Usage errors: no paths, missing path.
        assert!(run_command(&argv(&["vet"])).is_err());
        assert!(run_command(&argv(&["vet", "/nonexistent/nope.rs"])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vet_hazard_fixtures_are_flagged_through_the_cli() {
        // The repo's own hazard workloads are the true-positive corpus:
        // raw_clock/raw_spawn must gate `srr vet` on this very file set.
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let code = run_command(&argv(&[
            "vet",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
        ]))
        .expect("vet runs");
        assert_eq!(code, EXIT_FINDINGS, "escape fixtures must be flagged");
    }

    #[test]
    fn plan_command_classifies_hazards_and_roundtrips() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let out = std::env::temp_dir().join(format!("srr-plan-cli-{}.json", std::process::id()));
        let code = run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("plan runs");
        assert_eq!(
            code, EXIT_FINDINGS,
            "hazard fixtures have unallowed conflicts"
        );
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
        let report = srr_plan::plan_from_json(&doc).expect("plan parses back");
        assert!(
            report.recorded_labels().contains("cell"),
            "hidden_handoff's conflict stays recorded: {:?}",
            report.recorded_labels()
        );
        assert!(
            report.proven_labels().contains("worker-acc"),
            "planned_local's thread-local accumulator is proven: {:?}",
            report.proven_labels()
        );
        // Usage errors: no paths, missing path.
        assert!(run_command(&argv(&["plan"])).is_err());
        assert!(run_command(&argv(&["plan", "/nonexistent/nope.rs"])).is_err());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn predict_plan_prunes_but_still_confirms() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let plan = std::env::temp_dir().join(format!("srr-predplan-{}.json", std::process::id()));
        run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            plan.to_str().unwrap(),
        ]))
        .expect("plan");
        let code = run_command(&argv(&[
            "predict",
            "hidden_handoff",
            "--seed",
            "7",
            "--plan",
            plan.to_str().unwrap(),
            "--json",
        ]))
        .expect("predict");
        assert_eq!(
            code, EXIT_FINDINGS,
            "the sparse trace still confirms the race"
        );
        // A bogus plan path is a usage error, not a silent full record.
        assert!(run_command(&argv(&[
            "predict",
            "hidden_handoff",
            "--plan",
            "/nonexistent/plan.json"
        ]))
        .is_err());
        let _ = std::fs::remove_file(&plan);
    }

    #[test]
    fn explore_plan_seeds_directed_shards() {
        let hazards = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let plan = std::env::temp_dir().join(format!("srr-explplan-{}.json", std::process::id()));
        run_command(&argv(&[
            "plan",
            hazards.to_str().unwrap(),
            "--allow",
            "none",
            "--out",
            plan.to_str().unwrap(),
        ]))
        .expect("plan");
        let out =
            std::env::temp_dir().join(format!("srr-explplan-doc-{}.json", std::process::id()));
        run_command(&argv(&[
            "explore",
            "hidden_handoff",
            "--runs",
            "6",
            "--strategies",
            "queue",
            "--plan",
            plan.to_str().unwrap(),
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("explore runs");
        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let targeted = doc
            .get("farm")
            .and_then(|f| f.get("targeted_runs"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            targeted > 0.0,
            "plan conflict sites became directed shards: {doc:?}"
        );
        let _ = std::fs::remove_file(&plan);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn stats_vet_crosslink_only_renders_with_a_desync() {
        let dir = std::env::temp_dir().join(format!("srr-statsvet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Escape map with one raw-clock escape (SYSCALL primary).
        let vet = dir.join("vet.json");
        std::fs::write(
            &vet,
            r#"{"findings": [{"kind": "raw-clock", "severity": "deny",
                "file": "w.rs", "line": 3, "col": 5, "path": "std::time::Instant::now",
                "message": "m", "suggestion": "sys::clock_gettime"}]}"#,
        )
        .unwrap();
        // A trace document carrying desync diagnostics joins and exits 0.
        let trace = dir.join("trace.json");
        std::fs::write(
            &trace,
            r#"{"traceEvents": [], "desync": {"tick": 9, "constraint": "syscall-kind",
                "stream": "SYSCALL", "offset": 4}}"#,
        )
        .unwrap();
        assert_eq!(
            run_command(&argv(&[
                "stats",
                trace.to_str().unwrap(),
                "--vet",
                vet.to_str().unwrap()
            ])),
            Ok(EXIT_OK)
        );
        // No desync in the document: the section is skipped, not empty.
        let clean = dir.join("clean.json");
        std::fs::write(&clean, r#"{"traceEvents": []}"#).unwrap();
        assert_eq!(
            run_command(&argv(&[
                "stats",
                clean.to_str().unwrap(),
                "--vet",
                vet.to_str().unwrap()
            ])),
            Ok(EXIT_OK)
        );
        // Unreadable escape map is a usage error.
        assert!(run_command(&argv(&[
            "stats",
            trace.to_str().unwrap(),
            "--vet",
            "/nonexistent/vet.json"
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_embeds_desync_diagnostics_for_divergent_replays() {
        use srr_apps::ptrmap;
        let dir = std::env::temp_dir().join(format!("srr-tracedsy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Record ptrmap under ASLR entropy A, then trace a replay under
        // entropy B: the §5.5 hard desync must surface in the JSON.
        let (_, demo) = Execution::new(Tool::QueueRec.config([2, 3]))
            .with_vos(ptrmap::aslr_world(111))
            .record(ptrmap::ptrmap(ptrmap::PtrMapParams::default()));
        let report = Execution::new(
            Tool::QueueRec
                .config(demo.header.seeds)
                .with_trace(TraceSpec::SCHEDULE),
        )
        .with_vos(ptrmap::aslr_world(999))
        .replay(&demo, ptrmap::ptrmap(ptrmap::PtrMapParams::default()));
        let mut trace = chrome_trace(&report.sync_trace, Some(128));
        if let (Some(diag), Json::Obj(fields)) = (&report.obs.desync, &mut trace) {
            fields.push(("desync".to_owned(), diag.to_json()));
        }
        let doc = Json::parse(&trace.to_pretty()).unwrap();
        let desync = doc.get("desync").expect("desync diagnostics embedded");
        assert_eq!(
            desync.get("stream").and_then(Json::as_str),
            Some("SYSCALL"),
            "{desync:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_reads_bench_reports() {
        let path = std::env::temp_dir().join(format!("srr-stats-test-{}.json", std::process::id()));
        let doc = r#"{
  "schema_version": 1, "table": "t1", "title": "demo", "quick": true,
  "runs": 2, "scale": 1,
  "rows": [
    {"workload": "w", "config": "queue", "metric": "ms",
     "higher_is_better": false, "mean": 1.5, "stddev": 0.1, "n": 2,
     "overhead_vs_native": 2.0, "ticks": 10, "wakeups_issued": 9,
     "broadcasts": 1, "spurious_wakeups": 0,
     "demo_bytes": 128, "queue_entries": 6, "syscall_entries": 2,
     "signal_entries": 1, "async_entries": 0}
  ]
}"#;
        std::fs::write(&path, doc).unwrap();
        assert_eq!(
            run_command(&argv(&["stats", path.to_str().unwrap()])),
            Ok(EXIT_OK)
        );
        assert!(run_command(&argv(&["stats"])).is_err(), "missing path");
        assert!(
            run_command(&argv(&["stats", "/nonexistent/bench.json"])).is_err(),
            "unreadable file"
        );
        let _ = std::fs::remove_file(&path);
    }
}

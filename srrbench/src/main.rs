//! The `srrbench` command.
//!
//! ```text
//! srrbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! srrbench run --seed N [--json FILE]
//! srrbench trace --seed N --out FILE
//! srrbench compare --parent A.json... --change B.json...
//! ```
//!
//! The first form measures one workload and prints, last on stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced). `run` and
//! `trace` measure every workload, each in a child process of its own so
//! set-up time and peak memory stay per workload, for `run_seconds` of
//! `./BENCHMARK.json`. `compare` applies the bounds of `BENCHMARK.json`,
//! and its own for the workloads that file does not list, to two sets of
//! `run --json` results and exits 1 when a metric got worse or is
//! unresolved, or an error rate rose.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use srr_obs::Json;
use srrbench::{compare, self_time_table, Options, Report, Workload};

const USAGE: &str = "usage:
  srrbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
  srrbench run --seed N [--json FILE]
  srrbench trace --seed N --out FILE
  srrbench compare --parent A.json... --change B.json...";

/// Parsed `--flag value` pairs; a flag may repeat (compare's lists).
struct Flags(BTreeMap<String, Vec<String>>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for arg in args {
            if let Some(flag) = arg.strip_prefix("--") {
                if !known.contains(&flag) {
                    return Err(format!(
                        "unknown flag `{arg}` (valid: --{})",
                        known.join(", --")
                    ));
                }
                map.entry(flag.to_owned()).or_default();
                current = Some(flag.to_owned());
            } else if let Some(flag) = &current {
                map.get_mut(flag)
                    .expect("flag entry exists")
                    .push(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(Flags(map))
    }

    fn one(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.get(flag).map(Vec::as_slice) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("--{flag} takes exactly one value")),
        }
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.one(flag)?.ok_or(format!("--{flag} is required"))
    }

    fn many(&self, flag: &str) -> &[String] {
        self.0.get(flag).map_or(&[], Vec::as_slice)
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("--{flag}: `{v}` is not a valid number"))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A JSON value on one line.
fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim).collect()
}

fn run_seconds() -> Result<f64, String> {
    read_json(Path::new("BENCHMARK.json"))?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds".to_owned())
}

/// The human-readable lines a workload run prints before its result.
fn describe(report: &Report) -> Vec<String> {
    let name = report.workload.name();
    let mut lines: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{name} {} {} {}", m.name, m.value, m.unit))
        .collect();
    let tail = report.workload.tail_quantile() * 100.0;
    lines.push(format!(
        "# {name}: {} samples (iter_ms_tail is p{tail}), {} of {} checks failed",
        report.samples, report.failed, report.attempted
    ));
    if let Some(sigs) = report.signatures {
        lines.push(format!(
            "# {name}: first farm batch found {sigs} race signature(s)"
        ));
    }
    if !report.spans.is_empty() {
        let (layers, root) = self_time_table(report);
        lines.push(format!("# {name}: self time per traced sample (ms)"));
        for (layer, ms) in &layers {
            lines.push(format!(
                "#   {layer:<8} {ms:>10.4}  {:>5.1}%",
                ms / root * 100.0
            ));
        }
        let sum: f64 = layers.values().sum();
        lines.push(format!(
            "#   {:<8} {sum:>10.4}  = root span {root:.4}",
            "sum"
        ));
    }
    lines
}

/// One workload in this process: the benchmark command itself.
fn measure(flags: &Flags) -> Result<ExitCode, String> {
    let workload = Workload::from_name(flags.required("workload")?)?;
    let seed = parse_num("seed", flags.required("seed")?)?;
    let seconds = parse_num("seconds", flags.required("seconds")?)?;
    let trace = match flags.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let work_root = Path::new(".srrbench-work");
    let work_dir = work_root.join(format!("{}-{}", workload.name(), std::process::id()));
    let report = srrbench::run(
        workload,
        &Options::new(workload, seed, seconds, trace, work_dir),
    );
    // Left in place while another run still works in it.
    let _ = std::fs::remove_dir(work_root);
    for failure in &report.failures {
        eprintln!("srrbench: {}: {failure}", workload.name());
    }
    if let Some(out) = flags.one("out")? {
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.name().into())),
            ("result".into(), report.result_json()),
            (
                "spans".into(),
                Json::Arr(report.spans.iter().map(|s| s.to_json()).collect()),
            ),
        ]);
        write_file(Path::new(out), &doc.to_pretty())?;
    }
    for line in describe(&report) {
        println!("{line}");
    }
    println!("{}", one_line(&report.result_json()));
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process; returns its result object.
fn child(workload: Workload, seed: u64, seconds: f64, out: Option<&Path>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating srrbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if out.is_some() { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{} exited {}", workload.name(), output.status));
    }
    Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))
}

/// `run` and `trace`: every workload in a child process of its own. A
/// traced child also writes its spans, gathered into `--out`.
fn all(flags: &Flags, traced: bool) -> Result<ExitCode, String> {
    let seed: u64 = parse_num("seed", flags.required("seed")?)?;
    let seconds = run_seconds()?;
    let out = if traced {
        Some(flags.required("out")?)
    } else {
        flags.one("json")?
    }
    .map(PathBuf::from);
    let mut docs = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let part = out
            .as_ref()
            .filter(|_| traced)
            .map(|o| o.with_extension(format!("{}.part", w.name())));
        let result = child(w, seed, seconds, part.as_deref())?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        let doc = match &part {
            Some(part) => {
                let doc = read_json(part)?;
                let _ = std::fs::remove_file(part);
                doc
            }
            None => result,
        };
        docs.push((w.name().to_owned(), doc));
    }
    if let Some(out) = &out {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::Num(seed as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("workloads".into(), Json::Obj(docs)),
        ]);
        write_file(out, &doc.to_pretty())?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("srrbench: some workload output was wrong");
        ExitCode::FAILURE
    })
}

fn compare_runs(flags: &Flags) -> Result<ExitCode, String> {
    let specs = compare::specs(&read_json(Path::new("BENCHMARK.json"))?)?;
    let load = |flag: &str| -> Result<Vec<Json>, String> {
        flags
            .many(flag)
            .iter()
            .map(|p| read_json(Path::new(p)))
            .collect()
    };
    let (parents, changes) = (load("parent")?, load("change")?);
    let result = compare::compare(&specs, &parents, &changes)?;
    let pairs = parents.len().min(changes.len());
    if pairs < 10 {
        println!("# {pairs} pair(s): at least 10 are needed to claim a gain");
    }
    println!(
        "{:<16} {:<18} {:>30} {:>30} {:>7} {:>6}  verdict",
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "bound", "wins"
    );
    let q = |v: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", v[0], v[1], v[2]);
    for r in &result.rows {
        println!(
            "{:<16} {:<18} {:>30} {:>30} {:>7} {:>6}  {}",
            r.workload,
            format!("{} ({})", r.spec.name, r.spec.unit),
            q(r.parent),
            q(r.change),
            r.spec.bound,
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.name()
        );
    }
    for e in &result.errors {
        println!(
            "{:<16} {:<18} {:>30.6} {:>30.6} {:>7} {:>6}  {}",
            e.workload,
            "error_rate",
            e.parent,
            e.change,
            0,
            "-",
            if e.change > e.parent { "worse" } else { "same" }
        );
    }
    Ok(if result.fails() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..], &["seed", "json"]).and_then(|f| all(&f, false)),
        Some("trace") => Flags::parse(&args[1..], &["seed", "out"]).and_then(|f| all(&f, true)),
        Some("compare") => {
            Flags::parse(&args[1..], &["parent", "change"]).and_then(|f| compare_runs(&f))
        }
        Some(a) if a.starts_with("--") => {
            Flags::parse(&args, &["workload", "seed", "seconds", "trace", "out"])
                .and_then(|f| measure(&f))
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("srrbench: {e}");
        ExitCode::from(2)
    })
}

//! `fedbench` command line.
//!
//! One workload (what the benchmark driver calls):
//!
//! ```text
//! fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a report on stderr and, as the last line of stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! Without `--workload` it runs all five, each in a fresh child process (so
//! `peak_rss_mb` is the workload's own): `--smoke` for a seconds-long
//! fixed-pass run, `--repeat 2 --check-bounds` for the repeatability table,
//! `--record` to append every result to the trajectory file.

use fedbench::bench::{self, Length, Options, Outcome};
use fedbench::json::{self, Json};
use fedbench::workload::WorkloadId;
use fedbench::{pin, spec};
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: fedbench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--repeat <n>] [--check-bounds] [--record] | --repro <name>";

/// Where `--trace 1` writes `trace-<workload>.jsonl` and `--record` appends,
/// relative to the repository root the command is run from.
const TRACE_DIR: &str = "fedbench/out";
const TRAJECTORY: &str = "fedbench/results/trajectory.jsonl";

#[derive(Debug, Clone)]
struct Cli {
    workload: Option<WorkloadId>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    check_bounds: bool,
    record: bool,
    repro: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::run_seconds()?,
        trace: false,
        smoke: false,
        repeat: 1,
        check_bounds: false,
        record: false,
        repro: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                cli.workload = Some(
                    WorkloadId::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value(&mut i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--repeat" => {
                cli.repeat = value(&mut i)?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--check-bounds" => cli.check_bounds = true,
            "--record" => cli.record = true,
            "--repro" => cli.repro = Some(value(&mut i)?.clone()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn report(outcome: &Outcome, trace: bool) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "== {} ({}) — attempted {}, failed {}",
        outcome.workload.name(),
        if trace { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        let _ = writeln!(err, "{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        let _ = writeln!(err, "{note}");
    }
    for (class, digest) in &outcome.digests {
        let _ = writeln!(err, "digest {:<15} {digest:016x}", class.name());
    }
    for e in &outcome.errors {
        let _ = writeln!(err, "FAILED: {e}");
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |name| name.trim().to_string())
}

/// One workload in this process, pinned to one CPU per driving session.
fn run_one(cli: &Cli, workload: WorkloadId) -> Result<Outcome, String> {
    let nproc = nproc();
    let pinned = pin::enter_bench_environment(workload.sessions());
    if pinned != Some(workload.sessions()) {
        eprintln!(
            "fedbench: wanted {} CPU(s) and one malloc arena, got {pinned:?}; timings will be \
             noisier",
            workload.sessions()
        );
    }
    let length = if cli.smoke {
        Length::Passes(workload.smoke_passes())
    } else {
        Length::Seconds(cli.seconds)
    };
    let opts = Options { workload, seed: cli.seed, length };
    let outcome = if cli.trace { bench::traced(&opts)? } else { bench::end_to_end(&opts)? };
    report(&outcome, cli.trace);
    let write_error = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(spans) = &outcome.trace {
        let path = Path::new(TRACE_DIR).join(format!("trace-{}.jsonl", workload.name()));
        spans.write_jsonl(&path).map_err(|e| write_error(&path, e))?;
        eprintln!("spans written to {}", path.display());
    }
    if cli.record {
        let host = format!("{}, pinned to {} CPU(s)", hostname(), pinned.unwrap_or(0));
        let line = json::trajectory_line(&outcome, &git_sha(), cli.seed, nproc, &host, cli.trace);
        let path = Path::new(TRAJECTORY);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| write_error(dir, e))?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| write_error(path, e))?;
        writeln!(file, "{line}").map_err(|e| write_error(path, e))?;
    }
    Ok(outcome)
}

/// `(name, value, unit)` per metric of one child's result line.
type Row = Vec<(String, f64, String)>;

/// Runs one workload in a child process and parses its result line.
fn run_child(cli: &Cli, workload: WorkloadId) -> Result<(bool, Row), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if cli.record {
        cmd.arg("--record");
    }
    let output =
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    let parsed = json::parse(line)?;
    let correct = parsed.get("correct") == Some(&Json::Bool(true));
    let metrics = parsed.get("metrics").and_then(Json::as_object).ok_or("no metrics in result")?;
    let row = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("`{name}` has no value or no unit in the result")),
            }
        })
        .collect::<Result<Row, String>>()?;
    Ok((correct, row))
}

/// All five workloads, `repeat` times; optionally the repeatability table.
fn run_suite(cli: &Cli) -> Result<bool, String> {
    let mut sets: Vec<Vec<(WorkloadId, Row)>> = Vec::new();
    let mut all_correct = true;
    for rep in 0..cli.repeat.max(1) {
        eprintln!("#### set {} of {}", rep + 1, cli.repeat.max(1));
        let mut set = Vec::new();
        for name in spec::workloads()? {
            let workload = WorkloadId::parse(&name)
                .ok_or_else(|| format!("BENCHMARK.json names an unknown workload `{name}`"))?;
            let (correct, row) = run_child(cli, workload)?;
            all_correct &= correct;
            set.push((workload, row));
        }
        sets.push(set);
    }
    println!("nproc {}, seed {}, git {}", nproc(), cli.seed, git_sha());
    for (rep, set) in sets.iter().enumerate() {
        for (workload, row) in set {
            for (name, value, unit) in row {
                println!(
                    "set{} {:<12} {:<40} {:>16.4} {}",
                    rep + 1,
                    workload.name(),
                    name,
                    value,
                    unit
                );
            }
        }
    }
    if cli.check_bounds && sets.len() >= 2 && !cli.trace {
        println!();
        println!(
            "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "set1", "set2", "diff", "bound"
        );
        let defs = spec::end_to_end()?;
        let mut unresolved = 0;
        for ((workload, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
            for def in &defs {
                let find = |row: &Row| row.iter().find(|(n, _, _)| *n == def.name).map(|r| r.1);
                let (Some(x), Some(y)) = (find(a), find(b)) else {
                    return Err(format!("{} missing from a result", def.name));
                };
                let diff = if x == 0.0 { 0.0 } else { (y - x) / x };
                let bound = def.bound.unwrap_or(0.0);
                let verdict = if diff.abs() <= bound { "PASS" } else { "UNRESOLVED" };
                if verdict != "PASS" {
                    unresolved += 1;
                }
                println!(
                    "{:<12} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {verdict}",
                    workload.name(),
                    def.name,
                    x,
                    y,
                    diff * 100.0,
                    bound * 100.0
                );
            }
        }
        println!("{unresolved} pairing(s) UNRESOLVED");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &cli.repro {
        return match fedbench::repro::run(name) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fedbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match cli.workload {
        Some(workload) => match run_one(&cli, workload) {
            Ok(outcome) => {
                println!("{}", json::result_line(&outcome));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fedbench: {}: {e}", workload.name());
                ExitCode::FAILURE
            }
        },
        None => match run_suite(&cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("fedbench: at least one workload reported failures");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("fedbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

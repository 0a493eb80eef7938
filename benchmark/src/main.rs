//! `qbench`: the Q reproduction's benchmark. See `benchmark/README.md`.

mod check;
mod gen;
mod metrics;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use q_integration::serve::json::{parse, Json};

const USAGE: &str = "usage:
  qbench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run; the last line is the result object
  qbench all [--seed N] [--seconds S] [--runs R] [--out FILE] [--smoke]
                                                                   every workload, untraced then traced, each in its own process
  qbench check                                                     BENCHMARK.json against the one generated from the run's tables
  qbench compare A B                                               apply the bounds to two result files of `all`
workloads: miss_100x miss_rows zipf_cached live_mixed";

const SMOKE_SECONDS: u64 = 2;

/// `--name value` pairs and bare `--smoke`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if name == "smoke" {
                String::new()
            } else {
                args.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            flags.push((name.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v.as_str()))
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} {v:?} is not a whole number"))
        })
    }
}

/// One run in this process.
fn run_one(flags: &Flags, traced: bool) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let mut workload =
        workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if flags.get("smoke").is_some() {
        workload = workload::smoke(workload);
    }
    let seed = flags.number("seed", 1)?;
    let window = Duration::from_secs(flags.number("seconds", workload::RUN_SECONDS)?.max(1));
    println!("{}", setup::machine_line());
    println!(
        "workload {} seed {seed} window_s {} traced {traced}",
        workload.name,
        window.as_secs()
    );
    let (outcome, table) = if traced {
        let names: Vec<_> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        (trace::run(&workload, seed, window), names)
    } else {
        let names: Vec<_> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        (run::run(&workload, seed, window), names)
    };
    let emitted: Vec<_> = outcome.metrics.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        emitted, table,
        "a run emits exactly the metrics of its table"
    );
    outcome.print();
    Ok(())
}

/// Run one workload in a child process (a clean peak RSS per run); returns
/// the child's result object and whether it counts as a pass.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> Result<(Json, bool), String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning qbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    std::io::stderr()
        .write_all(&output.stderr)
        .map_err(|e| e.to_string())?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(traced),
            output.status
        ));
    }
    let result = parse(last.as_bytes())
        .map_err(|e| format!("{workload}: last line is not a result: {e}"))?;
    let undersampled = lines.iter().any(|line| line.contains(" n/a "));
    let passed = result.get("correct") == Some(&Json::Bool(true)) && !undersampled;
    Ok((result, passed))
}

fn all(flags: &Flags) -> Result<(), String> {
    let smoke = flags.get("smoke").is_some();
    let seed = flags.number("seed", 1)?;
    let seconds = flags.number(
        "seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            workload::RUN_SECONDS
        },
    )?;
    let runs = flags.number("runs", 1)?;
    let out = flags
        .get("out")
        .map_or_else(|| setup::out_dir().join("results.jsonl"), PathBuf::from);
    let mut file = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let started = Instant::now();
    let mut failures = Vec::new();
    for run in 0..runs {
        for traced in [false, true] {
            for workload in &workload::WORKLOADS {
                println!("run {run} {} trace {}", workload.name, u8::from(traced));
                let child_started = Instant::now();
                let (result, passed) = run_child(workload.name, seed, seconds, traced, smoke)?;
                println!("  took {:.1} s", child_started.elapsed().as_secs_f64());
                if !passed {
                    failures.push(format!(
                        "run {run} {} trace {}",
                        workload.name,
                        u8::from(traced)
                    ));
                }
                let line = Json::object([
                    ("workload", Json::Str(workload.name.to_string())),
                    ("seed", Json::Int(seed as i64)),
                    ("trace", Json::Int(i64::from(traced))),
                    ("result", result),
                ]);
                writeln!(file, "{}", line.encode()).map_err(|e| e.to_string())?;
            }
        }
    }
    println!("{}", setup::machine_line());
    println!(
        "{} runs in {:.1} s, results in {}",
        runs * 2 * workload::WORKLOADS.len() as u64,
        started.elapsed().as_secs_f64(),
        out.display()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "incorrect or under-sampled: {}",
            failures.join(", ")
        ))
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("all") => all(&Flags::parse(&args[1..])?),
        Some("check") => check::check(),
        Some("compare") => match &args[1..] {
            [a, b] => check::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args)?;
            let traced = match flags.get("trace") {
                Some("1") => true,
                Some("0") | None => false,
                Some(other) => return Err(format!("--trace {other:?} is not 0 or 1")),
            };
            run_one(&flags, traced)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("qbench: {message}");
            ExitCode::FAILURE
        }
    }
}

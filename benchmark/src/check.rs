//! `qbench check`: `BENCHMARK.json` is generated from the metric and
//! workload tables a run emits, and the committed file must be that text.
//! `qbench compare A B`: apply the bounds to two result sets.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

use q_integration::serve::json::{parse, Json};

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::{RUN_SECONDS, WORKLOADS};

/// The driver's form of one run, up to the `--workload …` flags it appends.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Everything about the tables that would make the driver refuse the file
/// generated from them, or leave a layer metric pointing nowhere.
pub fn table_problems() -> Vec<String> {
    let mut problems = Vec::new();
    if WORKLOADS.len() > 8 || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        problems.push("more than 8 workloads, 16 end-to-end or 128 per-layer metrics".to_string());
    }
    let mut names = HashSet::new();
    let metric_names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in WORKLOADS.iter().map(|w| w.name).chain(metric_names) {
        if !well_formed(name) || !names.insert(name) {
            problems.push(format!(
                "name {name:?} is used twice or is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
    }
    for workload in &WORKLOADS {
        if workload.why.len() > 200 || workload.why.contains('\n') {
            problems.push(format!(
                "{}: `why` is not one line of at most 200",
                workload.name
            ));
        }
    }
    let setup_bound = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .map_or(0.0, |m| m.bound);
    for metric in END_TO_END {
        if !(metric.bound > 0.0 && metric.bound <= 0.25 && metric.bound <= setup_bound) {
            problems.push(format!(
                "{}: bound {} is not in (0, 0.25] or exceeds that of setup_s",
                metric.name, metric.bound
            ));
        }
    }
    for layer in PER_LAYER {
        if layer.moves.is_empty() || layer.on.is_empty() {
            problems.push(format!(
                "{} names no metric or workload it should move",
                layer.name
            ));
        }
        for moved in layer.moves {
            if !END_TO_END.iter().any(|m| m.name == *moved) {
                problems.push(format!("{} moves unknown metric {moved}", layer.name));
            }
        }
        for on in layer.on {
            if !WORKLOADS.iter().any(|w| w.name == *on) {
                problems.push(format!("{} names unknown workload {on}", layer.name));
            }
        }
    }
    problems
}

/// `BENCHMARK.json` as the tables give it, one entry per line.
pub fn manifest() -> String {
    let quoted = |text: &str| Json::Str(text.to_string()).encode();
    let list = |entries: Vec<String>| format!("[\n    {}\n  ]", entries.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|arg| quoted(arg)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// On a stale file the generated one goes to stdout: `qbench check >
/// BENCHMARK.json` refreshes it.
pub fn check() -> Result<(), String> {
    let problems = table_problems();
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    let path = manifest_path();
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if committed != manifest() {
        print!("{}", manifest());
        return Err("BENCHMARK.json is not what the tables generate (printed above)".to_string());
    }
    eprintln!(
        "BENCHMARK.json is what the tables generate: {} workloads, {} end-to-end, {} per-layer metrics",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len()
    );
    Ok(())
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Json::Str(s)) => s,
        _ => "",
    }
}

fn number(entry: &Json, key: &str) -> Option<f64> {
    match entry.get(key) {
        Some(Json::Float(x)) => Some(*x),
        Some(Json::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

/// `(workload, metric) → values` of the untraced runs in a results file
/// (one JSON object per line, as `qbench all` writes them).
fn end_to_end_values(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        let run = parse(line.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        if number(&run, "trace") != Some(0.0) {
            continue;
        }
        let Some(Json::Object(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{}: a run has no metrics", path.display()));
        };
        for (name, metric) in metrics {
            if let Some(value) = number(metric, "value") {
                values
                    .entry((text(&run, "workload").to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

/// Interquartile range as a share of the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    stats::quartiles(values).map_or(0.0, |(q1, median, q3)| (q3 - q1) / median)
}

/// One row per (metric, workload); `Err` when any pair regressed.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (before, after) = (end_to_end_values(a)?, end_to_end_values(b)?);
    let mut regressed = 0;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "metric", "workload", "median A", "median B", "worse", "spread", "bound"
    );
    for metric in END_TO_END {
        for workload in &WORKLOADS {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (before.get(&key), after.get(&key)) else {
                return Err(format!(
                    "{} on {} is missing from a result set",
                    metric.name, workload.name
                ));
            };
            let (ma, mb) = (
                stats::median(va).unwrap_or(f64::NAN),
                stats::median(vb).unwrap_or(f64::NAN),
            );
            let worse = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let widest = spread(va).max(spread(vb));
            let verdict = if widest > metric.bound {
                "unresolved"
            } else if worse > metric.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {verdict}",
                metric.name,
                workload.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * widest,
                100.0 * metric.bound,
            );
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} (metric, workload) pairs regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_are_sound_and_the_committed_manifest_is_generated_from_them() {
        assert_eq!(table_problems(), Vec::<String>::new());
        let generated = manifest();
        assert!(parse(generated.as_bytes()).is_ok());
        let committed = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json reads");
        assert_eq!(
            committed, generated,
            "refresh with `qbench check > BENCHMARK.json`"
        );
    }

    #[test]
    fn compare_applies_bounds_and_spread() {
        let dir = crate::setup::out_dir();
        let write = |name: &str, qps: [f64; 3]| {
            let path = dir.join(format!("compare-test-{}-{name}.jsonl", std::process::id()));
            let mut lines = String::new();
            for workload in &WORKLOADS {
                for value in qps {
                    let metrics: Vec<String> = END_TO_END
                        .iter()
                        .map(|m| {
                            let v = if m.name == "query_qps" { value } else { 1.0 };
                            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
                        })
                        .collect();
                    lines.push_str(&format!(
                        "{{\"workload\":\"{}\",\"seed\":1,\"trace\":0,\"result\":{{\"metrics\":{{{}}}}}}}\n",
                        workload.name,
                        metrics.join(",")
                    ));
                }
            }
            std::fs::write(&path, lines).unwrap();
            path
        };
        let base = write("base", [100.0, 101.0, 102.0]);
        let same = write("same", [99.0, 100.0, 101.0]);
        let slow = write("slow", [59.0, 60.0, 61.0]);
        let noisy = write("noisy", [60.0, 100.0, 140.0]);
        assert!(compare(&base, &same).is_ok());
        assert!(
            compare(&base, &slow).is_err(),
            "-40% qps is beyond the bound"
        );
        assert!(
            compare(&base, &noisy).is_ok(),
            "too noisy to call: unresolved, not regressed"
        );
        for path in [base, same, slow, noisy] {
            let _ = std::fs::remove_file(path);
        }
    }
}

//! `--steadiness N`: runs every workload of `BENCHMARK.json` N times, each
//! in a child process with its own seed, and prints per metric the median,
//! quartiles and min–max range. An end-to-end metric whose quartile spread
//! (Q3 − Q1, as a share of the median) exceeds its bound is flagged.
//!
//! Seeds are 1, …, N. The mode exits non-zero when a spread is flagged,
//! when a run crashes or fails its checks, or when a workload yields no
//! samples.

use crate::stats;
use sm_audit::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// One metric's samples and, for end-to-end metrics, its bound.
#[derive(Default)]
struct Series {
    unit: String,
    bound: Option<f64>,
    values: Vec<f64>,
}

/// What the steadiness report needs from `BENCHMARK.json`.
struct Benchmark {
    workloads: Vec<String>,
    /// End-to-end metric names and bounds.
    bounds: Vec<(String, f64)>,
    run_seconds: u64,
}

/// Reads `BENCHMARK.json` in the working directory.
fn read_benchmark() -> Result<Benchmark, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| format!("reading BENCHMARK.json: {err}"))?;
    let doc = parse_json(&text)?;
    let array = |key: &str| match doc.get(key) {
        Some(JsonValue::Array(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json: {key} must be an array")),
    };
    let workloads = array("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str).map(String::from))
        .collect();
    let metrics = array("end_to_end")?
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect();
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_usize)
        .unwrap_or(30) as u64;
    Ok(Benchmark {
        workloads,
        bounds: metrics,
        run_seconds: seconds,
    })
}

/// Adds the `{"name": {"value": v, "unit": u}}` entries of `object` to
/// `series`.
fn collect(object: Option<&JsonValue>, series: &mut BTreeMap<String, Series>) {
    if let Some(JsonValue::Object(entries)) = object {
        for (name, metric) in entries {
            let entry = series.entry(name.clone()).or_default();
            entry.unit = metric
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            if let Some(value) = metric.get("value").and_then(JsonValue::as_f64) {
                entry.values.push(value);
            }
        }
    }
}

/// `value` with six significant digits, so sub-millisecond set-up times
/// stay readable next to seconds.
fn significant(value: f64) -> String {
    format!("{value:.5e}")
}

pub fn main(argv: &[String], at: usize) -> ExitCode {
    let Some(runs) = argv
        .get(at + 1)
        .and_then(|n| n.parse::<u64>().ok())
        .filter(|&n| n >= 2)
    else {
        eprintln!("perfbench: --steadiness expects a run count of at least 2");
        return ExitCode::from(2);
    };
    let Benchmark {
        workloads,
        bounds,
        run_seconds: seconds,
    } = match read_benchmark() {
        Ok(read) => read,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: locating own executable: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut flagged = 0;
    let mut failed = 0;
    for workload in &workloads {
        let mut series: BTreeMap<String, Series> = BTreeMap::new();
        let mut failed_runs = 0;
        for seed in 1..=runs {
            let started = Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let stdout = match output {
                Ok(output) if output.status.success() => {
                    String::from_utf8_lossy(&output.stdout).into_owned()
                }
                _ => {
                    failed_runs += 1;
                    continue;
                }
            };
            let mut run = BTreeMap::new();
            for line in stdout.lines() {
                let Ok(doc) = parse_json(line) else { continue };
                collect(doc.get("diagnostics"), &mut run);
                collect(doc.get("metrics"), &mut run);
                if doc.get("correct") == Some(&JsonValue::Bool(false)) {
                    failed_runs += 1;
                }
            }
            // One line per run: its end-to-end metrics and the canary.
            let shown: Vec<String> = run
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("host.") || bounds.iter().any(|(b, _)| b == *name)
                })
                .map(|(name, entry)| {
                    format!(
                        "{name}={:.5e}",
                        entry.values.first().copied().unwrap_or(f64::NAN)
                    )
                })
                .collect();
            eprintln!(
                "{workload} seed {seed}: {} wall={:.1}s",
                shown.join(" "),
                started.elapsed().as_secs_f64()
            );
            for (name, entry) in run {
                let merged = series.entry(name).or_default();
                merged.unit = entry.unit;
                merged.values.extend(entry.values);
            }
        }
        for (name, bound) in &bounds {
            if let Some(entry) = series.get_mut(name) {
                entry.bound = Some(*bound);
            }
        }
        println!("\n{workload}: {runs} runs, seeds 1..{runs}, {failed_runs} failed");
        if series.is_empty() {
            println!("  no samples");
            failed += 1;
        }
        failed += failed_runs;
        println!(
            "  {:<26} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound"
        );
        for (name, entry) in &series {
            let (Some(median), Some((q1, q3))) = (
                stats::median(&entry.values),
                stats::quartiles(&entry.values),
            ) else {
                continue;
            };
            let min = entry.values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = entry
                .values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let spread = (q3 - q1) / median;
            let (bound, mark) = match entry.bound {
                Some(bound) if spread > bound => {
                    (format!("{:.1}%", 100.0 * bound), " WIDER THAN BOUND")
                }
                Some(bound) if spread > bound / 3.0 => {
                    (format!("{:.1}%", 100.0 * bound), " above bound/3")
                }
                Some(bound) => (format!("{:.1}%", 100.0 * bound), ""),
                None => ("-".to_string(), ""),
            };
            if entry.bound.is_some_and(|b| spread > b) {
                flagged += 1;
            }
            println!(
                "  {:<26} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7.2}% {:>7} {}{}",
                name,
                significant(median),
                significant(q1),
                significant(q3),
                significant(min),
                significant(max),
                100.0 * spread,
                bound,
                entry.unit,
                mark
            );
        }
    }
    if flagged > 0 {
        println!("\n{flagged} end-to-end metric(s) spread wider than their bound");
    }
    if failed > 0 {
        println!("\n{failed} run(s) failed or produced no samples");
    }
    if flagged > 0 || failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! End-to-end workload benchmark of the selfish-mining workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload certify_d4f1l4 --seed 0 --seconds 25 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --steadiness 10
//! ```
//!
//! One run executes one workload in this process, single-threaded, checks
//! its outputs and prints one JSON object as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--steadiness N` re-runs every workload of `BENCHMARK.json`
//! N times in child processes and reports each metric's spread. See
//! `perfbench/README.md`.

mod procfs;
mod stats;
mod steadiness;
mod trace;
mod workloads;

use sm_audit::json::{write_json, JsonValue};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Outcome, Reps, Size};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "certify_d4f1l4",
    "curve_d2f2l4",
    "grid_conformance",
    "service_session",
];

/// End-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Noise diagnostics printed by every run, and their units. Traced runs
/// also report them as per-layer metrics.
const DIAGNOSTICS: [(&str, &str); 7] = [
    ("host.mem_canary_start_ms", "ms"),
    ("host.mem_canary_end_ms", "ms"),
    ("host.cpu_canary_start_ms", "ms"),
    ("host.cpu_canary_end_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.minor_faults", "count"),
    ("proc.invol_ctx_switches", "count"),
];

/// Per-layer metrics and their units. Every traced run reports all of them;
/// a layer the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_s", "s"),
    ("core.build_peak_mb", "MB"),
    ("core.states", "count"),
    ("core.transitions", "count"),
    ("core.arena_mb", "MB"),
    ("core.instantiate_ms", "ms"),
    ("core.instantiate_peak_mb", "MB"),
    ("core.beta_rewards_ms", "ms"),
    ("core.beta_rewards_peak_mb", "MB"),
    ("core.advance_warm_p50_ms", "ms"),
    ("core.advance_cold_ms", "ms"),
    ("mdp.dinkelbach_steps", "count"),
    ("mdp.rvi_sweeps", "count"),
    ("mdp.solve_s", "s"),
    ("mdp.solve_peak_mb", "MB"),
    ("mdp.ns_per_transition_sweep", "ns"),
    ("mdp.sweep_bytes_computed", "bytes"),
    ("markov.revenue_eval_ms", "ms"),
    ("audit.artifact_ms", "ms"),
    ("audit.artifact_kb", "KB"),
    ("audit.check_s", "s"),
    ("audit.check_peak_mb", "MB"),
    ("conformance.replicas", "count"),
    ("conformance.sim_steps", "count"),
    ("conformance.unconverged", "count"),
    ("conformance.ns_per_sim_step", "ns"),
    ("grid.fresh_s", "s"),
    ("grid.resume_s", "s"),
    ("grid.scan_ms", "ms"),
    ("grid.merge_ms", "ms"),
    ("grid.artifact_kb", "KB"),
    ("grid.produced", "count"),
    ("grid.reused", "count"),
    ("grid.retries", "count"),
    ("grid.rounds", "count"),
    ("service.queries", "count"),
    ("service.query_p50_ms", "ms"),
    ("service.query_p99_ms", "ms"),
    ("service.memo_count", "count"),
    ("service.memo_p50_ms", "ms"),
    ("service.probe_count", "count"),
    ("service.probe_p50_ms", "ms"),
    ("service.advance_count", "count"),
    ("service.advance_p50_ms", "ms"),
    ("service.cold_count", "count"),
    ("service.cold_p50_ms", "ms"),
    ("service.parse_us", "us"),
    ("service.cache_hits", "count"),
    ("service.probes", "count"),
    ("service.anchor_advances", "count"),
    ("service.arena_builds", "count"),
    ("service.resident_arena_mb", "MB"),
    ("rss.unaccounted_mb", "MB"),
    ("proc.cpu_s", "s"),
    ("proc.invol_ctx_switches", "count"),
    ("proc.minor_faults", "count"),
    ("host.mem_canary_start_ms", "ms"),
    ("host.mem_canary_end_ms", "ms"),
    ("host.cpu_canary_start_ms", "ms"),
    ("host.cpu_canary_end_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_time_pct", "%"),
    ("trace.attributed_rss_pct", "%"),
];

/// Scratch space for the grid's artifact directories, inside the directory
/// the benchmark runs from; removed when empty.
const SCRATCH: &str = ".perfbench_tmp";

/// A fixed loop that streams a 48 MiB buffer three times. It depends on
/// nothing in the program, so a change in its time is host drift in memory
/// bandwidth. The buffer is larger than glibc's 32 MiB dynamic mmap
/// threshold cap, so freeing it leaves the allocator's thresholds, and with
/// them the workload's memory behaviour, as they were.
fn mem_canary_ms() -> f64 {
    let buffer: Vec<u64> = (0..(6u64 << 20)).collect();
    let buffer = std::hint::black_box(buffer);
    let start = Instant::now();
    let mut sum = 0u64;
    for pass in 0..3u64 {
        for word in &buffer {
            sum = sum.wrapping_add(word ^ pass);
        }
    }
    std::hint::black_box(sum);
    1e3 * start.elapsed().as_secs_f64()
}

/// A fixed loop of dependent integer multiplies and shifts that touches no
/// memory: host drift in CPU speed (a busy sibling hyperthread, a lower
/// clock), which the memory canary does not see.
fn cpu_canary_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    1e3 * start.elapsed().as_secs_f64()
}

/// Runs one workload at `size`, repeating its unit of work as `reps` allows.
pub fn run_workload(
    name: &str,
    seed: u64,
    size: Size,
    reps: Reps,
    rec: &mut Recorder,
) -> Option<Outcome> {
    Some(match name {
        "certify_d4f1l4" => workloads::certify::run(size, reps, rec),
        "curve_d2f2l4" => workloads::curve::run(size, reps, rec),
        "grid_conformance" => {
            let scratch = Path::new(SCRATCH);
            let outcome = workloads::grid::run(size, reps, scratch, rec);
            // Only removes the directory when no concurrent run still uses it.
            let _ = std::fs::remove_dir(scratch);
            outcome
        }
        "service_session" => workloads::service::run(seed, size, reps, rec),
        _ => return None,
    })
}

/// Repetitions of a traced run: one unit of work, whose spans split it by
/// layer, or for the service enough sessions for its p99 latency.
fn traced_reps(name: &str) -> Reps {
    match name {
        "service_session" => Reps::Exactly(workloads::service::TRACED_SESSIONS),
        _ => Reps::Exactly(1),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|arg| arg == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

fn metrics(values: &[(&str, f64)], units: &[(&str, &str)]) -> JsonValue {
    JsonValue::Object(
        units
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".to_string(), JsonValue::Number(value)),
                        ("unit".to_string(), JsonValue::String(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|arg| arg == "--steadiness") {
        return steadiness::main(&argv, at);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };

    let mem_canary_start_ms = mem_canary_ms();
    let cpu_canary_start_ms = cpu_canary_ms();
    // The memory canary's buffer is freed; start the high-water mark afresh, and
    // count CPU time, faults and switches from here.
    let reset = procfs::reset_peak_rss();
    let stat_before = procfs::proc_stat();
    let invol_before = procfs::status_count("nonvoluntary_ctxt_switches");
    let mut rec = Recorder::new(args.trace);
    let reps = if args.trace {
        traced_reps(&args.workload)
    } else {
        Reps::For(Duration::from_secs(args.seconds))
    };
    let started = Instant::now();
    let outcome = run_workload(&args.workload, args.seed, Size::Full, reps, &mut rec)
        .expect("workload names are validated");
    let traced_wall_s = started.elapsed().as_secs_f64();
    // A traced run resets the mark per span, so its process peak is the
    // highest span peak or what came after the last one. The benchmark's
    // own `check.*` spans and off-peak checks are left out.
    let top_level_peak = rec
        .spans()
        .iter()
        .filter(|span| span.parent.is_none() && !span.name.starts_with("check."))
        .filter_map(|span| span.peak_mb)
        .fold(0.0, f64::max);
    let peak_rss_mb = procfs::peak_rss_mb()
        .unwrap_or(0.0)
        .max(top_level_peak)
        .max(outcome.peak_before_checks_mb);
    let stat = procfs::proc_stat().zip(stat_before);
    let invol = procfs::status_count("nonvoluntary_ctxt_switches").zip(invol_before);
    let mem_canary_end_ms = mem_canary_ms();
    let cpu_canary_end_ms = cpu_canary_ms();

    for failure in &outcome.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    if !reset {
        eprintln!("perfbench: /proc/self/clear_refs refused the reset; peaks include start-up");
    }
    let diagnostics = [
        ("host.mem_canary_start_ms", mem_canary_start_ms),
        ("host.mem_canary_end_ms", mem_canary_end_ms),
        ("host.cpu_canary_start_ms", cpu_canary_start_ms),
        ("host.cpu_canary_end_ms", cpu_canary_end_ms),
        (
            "proc.cpu_s",
            stat.map_or(0.0, |(end, start)| end.cpu_s - start.cpu_s),
        ),
        (
            "proc.minor_faults",
            stat.map_or(0.0, |(end, start)| {
                end.minor_faults.saturating_sub(start.minor_faults) as f64
            }),
        ),
        (
            "proc.invol_ctx_switches",
            invol.map_or(0.0, |(end, start)| end.saturating_sub(start) as f64),
        ),
    ];
    let mut line = String::new();
    write_json(
        &JsonValue::Object(vec![(
            "diagnostics".to_string(),
            metrics(&diagnostics, &DIAGNOSTICS),
        )]),
        &mut line,
    );
    println!("{line}");

    let reported = if args.trace {
        eprint!("{}", rec.render());
        // Share of the timed phase that named layer spans cover: the `run`
        // span's children, or the curve's advances, which are the whole of
        // its `run_s`.
        let attributed = match rec.spans().iter().position(|span| span.name == "run") {
            Some(run) => 1.0 - rec.self_time(run) / rec.spans()[run].duration(),
            None => rec.total_s("core.advance") / outcome.run_s,
        };
        let span_peak = rec
            .spans()
            .iter()
            .filter(|span| span.name.contains('.') && !span.name.starts_with("check."))
            .filter_map(|span| span.peak_mb)
            .fold(0.0, f64::max);
        let mut values = outcome.layer.clone();
        values.extend(diagnostics);
        values.extend([
            ("rss.unaccounted_mb", peak_rss_mb - outcome.accounted_mb),
            ("trace.run_s", outcome.run_s),
            (
                "trace.overhead_pct",
                100.0 * rec.bookkeeping_s() / traced_wall_s,
            ),
            ("trace.attributed_time_pct", 100.0 * attributed),
            ("trace.attributed_rss_pct", 100.0 * span_peak / peak_rss_mb),
        ]);
        metrics(&values, PER_LAYER)
    } else {
        let values = [
            ("setup_s", outcome.setup_s),
            ("run_s", outcome.run_s),
            ("peak_rss_mb", peak_rss_mb),
        ];
        metrics(&values, &END_TO_END)
    };
    // Written by hand so the counts print as integers.
    let mut rendered = String::new();
    write_json(&reported, &mut rendered);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{rendered}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workloads_pass_their_checks_untraced_and_traced() {
        for name in WORKLOADS {
            for traced in [false, true] {
                let mut rec = Recorder::new(traced);
                let reps = if traced {
                    traced_reps(name)
                } else {
                    Reps::Exactly(2)
                };
                let outcome =
                    run_workload(name, 3, Size::Tiny, reps, &mut rec).expect("known workload");
                assert!(outcome.correct(), "{name}: {:?}", outcome.failures);
                assert!(outcome.attempted > 0 && outcome.failed == 0, "{name}");
                if !traced {
                    assert_eq!(outcome.reps, 2, "{name}");
                }
                assert!(outcome.setup_s > 0.0 && outcome.run_s > 0.0, "{name}");
                for (metric, _) in &outcome.layer {
                    assert!(
                        PER_LAYER.iter().any(|(known, _)| known == metric),
                        "{name}: {metric}"
                    );
                }
                assert_eq!(traced, !outcome.layer.is_empty(), "{name}");
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload curve_d2f2l4 --seed 4 --seconds 30 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 4 --seconds 30 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload curve_d2f2l4 --seed x --seconds 30 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload curve_d2f2l4 --seed 4 --seconds 30 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload curve_d2f2l4 --seed 4 --seconds 30")).is_err());
    }
}

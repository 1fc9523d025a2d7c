//! `grid_conformance`: a slice of the conformance grid of `examples/grid.rs`
//! (d1f1 + d2f1, bernoulli + pow-lottery, γ = 0.5, p = 0.20) through
//! `sm_grid::run_grid` with one worker and one-point shards, then a resume
//! after the d2f1 half of the artifacts is deleted, and the merge —
//! repeated, each time into a fresh directory.
//!
//! d ≤ 2 models solve in under a millisecond, so Monte-Carlo simulation,
//! artifact writes and the scan/parse/verify/resume path dominate: the
//! bypass workload for arena and solver changes.

use super::{fastest_over_layouts, fnv, repeat, FastestOps, Outcome, Reps, Size};
use crate::trace::Recorder;
use selfish_mining::experiments::coarse_p_grid;
use selfish_mining::AttackScenario;
use sm_conformance::ConformanceReport;
use sm_grid::{artifact_file_name, merge_grid, run_grid, scan_grid, GridOptions, GridSpec};
use sm_sweep::{ConformanceSettings, SweepConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 51;

/// FNV fingerprint of the merged report at full size, recorded from the
/// unmodified library.
const REFERENCE: u64 = 0x639b_20dd_f319_4ba2;

/// The p of the grid, as an index into its coarse grid 0, 0.05, …, 0.30:
/// p = 0.20.
const P_INDEX: usize = 4;

/// The grid spec: the conformance grid of `examples/grid.rs`, restricted to
/// γ = 0.5 and one of its seven p (2 of its 42 points) so that one
/// repetition takes about 1.5 s, with its default Monte-Carlo master seed.
/// (With γ ∈ {0, 1}, 4 points, the fresh run alone took 1.7 s, too long to
/// find quiet moments of the host in every run: `run_s` spread by 9.5%.)
/// The seed does not pick the master seed: the replica counts, and with them
/// the work, depend on it.
fn spec(size: Size) -> GridSpec {
    let settings = ConformanceSettings::default();
    let (attack_grid, gammas, ps) = size.pick(
        (
            vec![(1, 1), (2, 1)],
            vec![0.5],
            vec![coarse_p_grid()[P_INDEX]],
        ),
        (vec![(1, 1)], vec![0.5], vec![0.1, 0.2, 0.3]),
    );
    GridSpec {
        sweep: SweepConfig {
            attack_grid,
            scenarios: vec![AttackScenario::Optimal],
            epsilon: 1e-3,
            workers: 1,
            ..SweepConfig::default()
        },
        gammas,
        ps,
        settings: ConformanceSettings {
            workers: 1,
            steps: size.pick(settings.steps, 5_000),
            ..settings
        },
    }
}

/// Every number of a report as exact bits, in canonical point order.
pub fn report_bits(report: &ConformanceReport) -> Vec<u64> {
    let mut words = Vec::new();
    for point in &report.points {
        words.push(fnv(point.scenario.bytes().map(u64::from)));
        words.extend(
            [
                point.depth,
                point.forks,
                point.max_fork_length,
                point.table_entries,
            ]
            .map(|n| n as u64),
        );
        words.extend(
            [
                point.p,
                point.gamma,
                point.certified_lower,
                point.certified_upper,
                point.slack,
                point.strategy_revenue,
            ]
            .map(f64::to_bits),
        );
        for estimate in &point.estimates {
            words.push(fnv(estimate.backend.label().bytes().map(u64::from)));
            words.extend([estimate.mean, estimate.variance, estimate.half_width].map(f64::to_bits));
            words.extend([
                estimate.replicas as u64,
                estimate.steps_per_replica as u64,
                u64::from(estimate.converged),
                estimate.unknown_views,
            ]);
        }
    }
    words
}

/// The artifact files the resume must recompute: those of the last
/// topology. The same half on every seed: a seeded half of four points
/// changed `run_s` by a quarter from seed to seed, because the points differ
/// in cost.
fn deleted_half(spec: &GridSpec, dir: &Path) -> Vec<PathBuf> {
    let digest = spec.digest();
    let last_family = spec.num_families().saturating_sub(1);
    (0..spec.num_points())
        .filter_map(|index| spec.coordinates(index))
        .filter(|point| point.family_index == last_family)
        .map(|point| dir.join(artifact_file_name(digest, point.curve, point.p_index)))
        .collect()
}

/// Artifact files of `dir`, sorted by name.
fn artifacts(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|entry| entry.path()))
        .collect::<Result<_, _>>()?;
    files.retain(|path| path.is_file());
    files.sort();
    Ok(files)
}

/// Runs the workload in a fresh directory under `scratch`, removed at the
/// end; each repetition works in a fresh subdirectory of it.
pub fn run(size: Size, reps: Reps, scratch: &Path, rec: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let spec = spec(size);
    let dir = scratch.join(format!("grid-{}", std::process::id()));
    match setup(&spec, &dir, rec) {
        Ok(setup_s) => outcome.setup_s = setup_s,
        Err(err) => {
            outcome.op(vec![format!("grid set-up: {err}")]);
            return outcome;
        }
    }
    let mut fastest = FastestOps::default();
    let mut first_bits = None;
    outcome.reps = repeat(reps, |rep| {
        let rep_dir = dir.join(format!("rep{rep}"));
        let result = timed_phase(&spec, &rep_dir, rec, &mut fastest, &mut outcome);
        let removed = std::fs::remove_dir_all(&rep_dir);
        match result {
            Ok(bits) => match &first_bits {
                None => first_bits = Some(bits),
                Some(first) if *first != bits => outcome.fail(format!(
                    "grid: repetition {rep}'s report differs from the first one's"
                )),
                Some(_) => {}
            },
            Err(err) => outcome.fail(format!("grid: {err}")),
        }
        if let Err(err) = removed {
            outcome.fail(format!("grid: removing {}: {err}", rep_dir.display()));
        }
        outcome.failures.is_empty()
    });
    outcome.run_s = fastest.total();
    eprintln!(
        "grid_conformance: {} repetitions, fastest phases {fastest:?} s",
        outcome.reps
    );
    if let (Size::Full, Some(bits)) = (size, first_bits) {
        let seen = fnv(bits);
        if seen != REFERENCE {
            outcome.fail(format!(
                "grid: report fingerprint {seen:016x} differs from the reference {REFERENCE:016x}"
            ));
        }
    }
    outcome.setup_again(setup(&spec, &dir, rec));
    if let Err(err) = std::fs::remove_dir_all(&dir) {
        outcome.fail(format!("grid: removing {}: {err}", dir.display()));
    }
    outcome
}

/// The steps `run_grid` takes before its first round, taken through the
/// same public calls, at least [`SETUP_REPEATS`] times: validate the spec,
/// create the run's artifact directory, digest the spec and build the
/// scenario families. Between repeats the directory is removed again,
/// untimed. Returns the fastest set-up time in seconds over memory layouts
/// (see [`fastest_over_layouts`]). (Directory creation alone, about 10 µs,
/// spread by 37–41% over ten runs; the family builds make the set-up mostly
/// the program's own work.)
fn setup(spec: &GridSpec, dir: &Path, rec: &mut Recorder) -> Result<f64, String> {
    fastest_over_layouts(SETUP_REPEATS, || {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        let start = Instant::now();
        rec.span("grid.setup", |_| {
            spec.validate().map_err(|e| e.to_string())?;
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            std::hint::black_box(spec.digest());
            spec.sweep
                .build_scenario_families()
                .map(|families| drop(std::hint::black_box(families)))
                .map_err(|e| e.to_string())
        })?;
        Ok(start.elapsed().as_secs_f64())
    })
}

/// One repetition in `dir`: the fresh run, deletion, resume and merge, each
/// timed into `fastest`, then its checks. Returns the fresh report's bits.
fn timed_phase(
    spec: &GridSpec,
    dir: &Path,
    rec: &mut Recorder,
    fastest: &mut FastestOps,
    outcome: &mut Outcome,
) -> Result<Vec<u64>, String> {
    let mut options = GridOptions::new(dir);
    options.workers = 1;
    options.shard_points = 1;

    // The fresh run, the deletion of half of the artifacts (well under a
    // millisecond), the resume and the final merge.
    let phase = rec.span("run", |rec| {
        let start = Instant::now();
        let fresh = rec
            .span("grid.fresh", |_| run_grid(spec, &options))
            .map_err(|e| e.to_string())?;
        fastest.record(0, start.elapsed().as_secs_f64());
        let start = Instant::now();
        let files = artifacts(dir).map_err(|e| e.to_string())?;
        let deleted = deleted_half(spec, dir);
        for path in &deleted {
            std::fs::remove_file(path).map_err(|e| format!("deleting {}: {e}", path.display()))?;
        }
        fastest.record(1, start.elapsed().as_secs_f64());
        let start = Instant::now();
        let resumed = rec
            .span("grid.resume", |_| run_grid(spec, &options))
            .map_err(|e| e.to_string())?;
        fastest.record(2, start.elapsed().as_secs_f64());
        let start = Instant::now();
        let merged = rec
            .span("grid.merge", |_| merge_grid(spec, dir))
            .map_err(|e| e.to_string())?;
        fastest.record(3, start.elapsed().as_secs_f64());
        Ok::<_, String>((
            fresh,
            resumed,
            merged,
            files.len() - deleted.len(),
            deleted.len(),
        ))
    });
    let (fresh, resumed, merged, survivors, deleted) = phase?;

    let fresh_bits = report_bits(&fresh.report);
    for point in &fresh.report.points {
        let mut failures = Vec::new();
        if !point.conforms() {
            failures.push(format!(
                "grid d{}f{} p={} gamma={}: simulated CI outside the certificate",
                point.depth, point.forks, point.p, point.gamma
            ));
        }
        if !point.sources_agree() {
            failures.push(format!(
                "grid d{}f{} p={} gamma={}: backends disagree",
                point.depth, point.forks, point.p, point.gamma
            ));
        }
        outcome.op(failures);
    }
    if fresh.report.len() != spec.num_points() || fresh.produced != spec.num_points() {
        outcome.fail(format!(
            "grid: fresh run produced {} of {} points",
            fresh.produced,
            spec.num_points()
        ));
    }
    if report_bits(&resumed.report) != fresh_bits || report_bits(&merged) != fresh_bits {
        outcome.fail("grid: resumed or merged report differs from the fresh one".to_string());
    }
    if resumed.reused != survivors || resumed.produced != deleted {
        outcome.fail(format!(
            "grid: resume reused {} and produced {}, expected {survivors} and {deleted}",
            resumed.reused, resumed.produced
        ));
    }

    if rec.enabled() {
        let scanned = rec.span("grid.scan", |_| scan_grid(spec, dir));
        let artifact_bytes: u64 = artifacts(dir)
            .map_err(|e| e.to_string())?
            .iter()
            .filter_map(|path| std::fs::metadata(path).ok())
            .map(|meta| meta.len())
            .sum();
        if !scanned.map(|scan| scan.is_complete()).unwrap_or(false) {
            outcome.fail("grid: final scan is not complete".to_string());
        }
        let estimates = fresh
            .report
            .points
            .iter()
            .flat_map(|point| &point.estimates);
        let replicas: usize = estimates.clone().map(|e| e.replicas).sum();
        let sim_steps: usize = estimates
            .clone()
            .map(|e| e.replicas * e.steps_per_replica)
            .sum();
        let unconverged = estimates.filter(|e| !e.converged).count();
        outcome.set("conformance.replicas", replicas as f64);
        outcome.set("conformance.sim_steps", sim_steps as f64);
        outcome.set("conformance.unconverged", unconverged as f64);
        outcome.set(
            "conformance.ns_per_sim_step",
            1e9 * rec.total_s("grid.fresh") / sim_steps.max(1) as f64,
        );
        outcome.set("grid.fresh_s", rec.total_s("grid.fresh"));
        outcome.set("grid.resume_s", rec.total_s("grid.resume"));
        outcome.set("grid.scan_ms", 1e3 * rec.total_s("grid.scan"));
        outcome.set("grid.merge_ms", 1e3 * rec.total_s("grid.merge"));
        outcome.set("grid.artifact_kb", artifact_bytes as f64 / 1024.0);
        outcome.set("grid.produced", (fresh.produced + resumed.produced) as f64);
        outcome.set("grid.reused", resumed.reused as f64);
        outcome.set("grid.retries", (fresh.retries + resumed.retries) as f64);
        outcome.set("grid.rounds", (fresh.rounds + resumed.rounds) as f64);
    }
    Ok(fresh_bits)
}

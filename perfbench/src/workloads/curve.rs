//! `curve_d2f2l4`: one warm-started certified curve on the d2f2 (l = 4)
//! arena — 21 `CurveTracker::advance` calls at p = 0.00, 0.02, …, 0.40 —
//! walked many times over the same arena, each walk by a fresh tracker.
//!
//! Many small warm solves over an arena refilled in place, so
//! `instantiate_into`, the bias carry and the β extrapolation do the work.
//! A change that helps cold large solves but costs warm starts shows here.

use super::{
    bracket_failures, check_certified, fastest_setup, fnv, mib, repeat, FastestOps, Outcome, Reps,
    Size,
};
use crate::stats;
use crate::trace::Recorder;
use selfish_mining::experiments::{CertifiedSolve, CurveTracker};
use selfish_mining::{AnalysisConfig, ParametricModel, SolverParallelism};
use std::time::Instant;

/// Certificate width of every point.
const EPSILON: f64 = 1e-3;
/// The curve's switching probability, the same for every seed: moving it
/// by 0.02 changed the curve's time by about a sixth.
const GAMMA: f64 = 0.5;
/// Topology builds per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 5;

/// FNV fingerprint of every point's `(β_low, β_up, strategy_revenue)` bits
/// at full size, recorded from the unmodified library.
const REFERENCE: u64 = 0x5aa7_799e_4b2f_88c4;

fn analysis() -> AnalysisConfig {
    AnalysisConfig::with_epsilon(EPSILON).with_parallelism(SolverParallelism::serial())
}

/// Runs the workload.
pub fn run(size: Size, reps: Reps, rec: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let (depth, forks, length) = size.pick((2, 2, 4), (2, 1, 4));
    let points = size.pick(21, 5);
    let ps: Vec<f64> = (0..points).map(|i| f64::from(i) * 0.02).collect();
    let gamma = GAMMA;
    eprintln!("curve_d2f2l4: d{depth} f{forks} l{length}, gamma = {gamma}, {points} points");

    let built = fastest_setup(SETUP_REPEATS, rec, "core.build", || {
        ParametricModel::build(depth, forks, length)
    });
    let (family, setup_s) = match built {
        Ok(built) => built,
        Err(err) => {
            outcome.op(vec![format!("build d{depth}f{forks}l{length}: {err}")]);
            return outcome;
        }
    };
    outcome.setup_s = setup_s;
    outcome.accounted_mb = mib(family.layout_bytes() + family.term_table_bytes());

    // Each repetition walks the whole curve with a fresh tracker, so the
    // k-th advance does the same work in every walk; only the advances are
    // timed, and `run_s` sums each advance's fastest time. The first walk
    // checks every point; later walks must reproduce its bits exactly.
    let mut fastest = FastestOps::default();
    let mut walk_s = Vec::new();
    let mut first_advance_s = Vec::new();
    let mut first_bits: Option<Vec<u64>> = None;
    let mut last = None;
    outcome.reps = repeat(reps, |rep| {
        let mut tracker = CurveTracker::new(&family, gamma, true, analysis());
        let mut advance_s = Vec::with_capacity(ps.len());
        let mut bits = Vec::with_capacity(3 * ps.len());
        let mut previous_low = f64::NEG_INFINITY;
        for &p in &ps {
            let start = Instant::now();
            let advanced = rec.span("core.advance", |_| tracker.advance(p));
            let seconds = start.elapsed().as_secs_f64();
            fastest.record(advance_s.len(), seconds);
            advance_s.push(seconds);
            let solve = match advanced {
                Ok(solve) => solve,
                Err(err) => {
                    outcome.op(vec![format!("advance p={p}: {err}")]);
                    return false;
                }
            };
            let label = format!("curve p={p}");
            let mut failures = bracket_failures(&label, &solve);
            if rep == 0 {
                // The check builds a second instance and audits against it,
                // which takes more memory than the tracker does: it runs off
                // the peak, and a traced run shows its own peak in the
                // `check.point` span.
                failures = outcome.off_peak(|| {
                    rec.span("check.point", |_| match family.instantiate(p, gamma) {
                        Ok(model) => {
                            check_certified(
                                &label,
                                &solve,
                                &model,
                                false,
                                &mut Recorder::new(false),
                            )
                            .0
                        }
                        Err(err) => {
                            let mut failures = bracket_failures(&label, &solve);
                            failures.push(format!("{label}: instantiate for the audit: {err}"));
                            failures
                        }
                    })
                });
            }
            if solve.beta_low < previous_low {
                failures.push(format!(
                    "{label}: beta_low {} fell below the previous point's {previous_low}",
                    solve.beta_low
                ));
            }
            previous_low = solve.beta_low;
            bits.extend([
                solve.beta_low.to_bits(),
                solve.beta_up.to_bits(),
                solve.strategy_revenue.to_bits(),
            ]);
            if let Some(first) = &first_bits {
                if first[bits.len() - 3..bits.len()] != bits[bits.len() - 3..] {
                    failures.push(format!("{label}: walk {rep} differs from the first walk"));
                }
            }
            outcome.op(failures);
            last = Some(solve);
        }
        walk_s.push(advance_s.iter().sum::<f64>());
        if first_bits.is_none() {
            first_bits = Some(bits);
            first_advance_s = advance_s;
        }
        true
    });
    outcome.run_s = fastest.total();
    eprintln!(
        "curve_d2f2l4: {} walks, {:?} s to {:?} s each, fastest advances sum to {} s",
        outcome.reps,
        stats::min(&walk_s),
        walk_s.iter().copied().reduce(f64::max),
        outcome.run_s
    );

    if let (Size::Full, Some(bits)) = (size, &first_bits) {
        let seen = fnv(bits.iter().copied());
        if seen != REFERENCE {
            outcome.fail(format!(
                "curve: fingerprint {seen:016x} differs from the reference {REFERENCE:016x}"
            ));
        }
    }

    if let (true, Some(last)) = (rec.enabled(), last) {
        traced_calls(&mut outcome, rec, &family, &last, ps[ps.len() / 2]);
        outcome.set(
            "core.build_s",
            rec.named("core.build").last().map_or(0.0, |s| s.duration()),
        );
        outcome.set("core.build_peak_mb", rec.peak_mb("core.build"));
        outcome.set("core.states", family.num_states() as f64);
        outcome.set("core.transitions", family.num_transitions() as f64);
        outcome.set("core.arena_mb", outcome.accounted_mb);
        outcome.set(
            "core.advance_warm_p50_ms",
            1e3 * stats::median(first_advance_s.get(1..).unwrap_or(&[])).unwrap_or(0.0),
        );
    }

    // The second set-up window, with the run's arena dropped.
    drop(family);
    let again = fastest_setup(SETUP_REPEATS, rec, "core.build", || {
        ParametricModel::build(depth, forks, length)
    });
    outcome.setup_again(again.map(|(_, seconds)| seconds));
    outcome
}

/// Calls made only in traced runs: one instantiate, `beta_rewards` and
/// revenue evaluation at the curve's last point, and one cold advance of a
/// fresh tracker at `cold_p`.
fn traced_calls(
    outcome: &mut Outcome,
    rec: &mut Recorder,
    family: &ParametricModel,
    last: &CertifiedSolve,
    cold_p: f64,
) {
    let Ok(model) = rec.span("core.instantiate", |_| {
        family.instantiate(last.p, last.gamma)
    }) else {
        outcome.fail("curve: traced instantiate failed".to_string());
        return;
    };
    let rewards = rec.span("core.beta_rewards", |_| {
        model.beta_rewards(last.beta_low).is_ok()
    });
    let revenue = rec.span("markov.revenue_eval", |_| {
        model.expected_relative_revenue(&last.strategy)
    });
    let mut fresh = CurveTracker::new(family, last.gamma, true, analysis());
    let cold = rec.span("core.advance_cold", |_| fresh.advance(cold_p));
    if !rewards || revenue.is_err() || cold.is_err() {
        outcome.fail("curve: a traced-only call failed".to_string());
    }
    outcome.set("core.instantiate_ms", 1e3 * rec.total_s("core.instantiate"));
    outcome.set("core.instantiate_peak_mb", rec.peak_mb("core.instantiate"));
    outcome.set(
        "core.beta_rewards_ms",
        1e3 * rec.total_s("core.beta_rewards"),
    );
    outcome.set(
        "core.beta_rewards_peak_mb",
        rec.peak_mb("core.beta_rewards"),
    );
    outcome.set(
        "core.advance_cold_ms",
        1e3 * rec.total_s("core.advance_cold"),
    );
    outcome.set(
        "markov.revenue_eval_ms",
        1e3 * rec.total_s("markov.revenue_eval"),
    );
}

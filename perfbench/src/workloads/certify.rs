//! `certify_d4f1l4`: cold ε = 1e-3 certification of one point on the d4f1
//! (l = 4) arena — instantiate, Dinkelbach, certificate packaging with a JSON
//! round trip, and the independent audit — repeated on the same arena.
//!
//! The cold, single-point path on the deepest topology whose arrays (84 k
//! transitions, about 2 MB) are no larger than a core's L2 cache: larger
//! models spill into the L3 cache other tenants of the host share, and their
//! times then move with the neighbours' load (see `perfbench/README.md`).

use super::{check_certified, fastest_setup, mib, repeat, FastestOps, Outcome, Reps, Size};
use crate::trace::Recorder;
use selfish_mining::experiments::CertifiedSolve;
use selfish_mining::{AnalysisConfig, AnalysisProcedure, ParametricModel, SolverParallelism};
use std::time::Instant;

/// Certificate width.
const EPSILON: f64 = 1e-3;
/// The certified point, the same for every seed: moving p by 0.002 or γ by
/// 0.01 changed the work by up to a fifth (3 or 4 Dinkelbach steps, 291 to
/// 409 sweeps), which would make runs on different seeds incomparable.
const P: f64 = 0.35;
const GAMMA: f64 = 0.5;
/// Topology builds per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 5;

/// Reference outputs at full size, recorded from the unmodified library:
/// `(β_low bits, β_up bits, Dinkelbach steps, RVI sweeps)`.
const REFERENCE: (u64, u64, usize, usize) = (4603529700801165379, 4603538708000420120, 3, 318);

/// Runs the workload.
pub fn run(size: Size, reps: Reps, rec: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let (depth, forks, length) = size.pick((4, 1, 4), (2, 1, 3));
    let (p, gamma) = (P, GAMMA);
    eprintln!("certify_d4f1l4: d{depth} f{forks} l{length}, p = {p}, gamma = {gamma}");

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

    let procedure = AnalysisProcedure::new(
        AnalysisConfig::with_epsilon(EPSILON).with_parallelism(SolverParallelism::serial()),
    );
    // One repetition: instantiate through audit, all timed, as three
    // operations (instantiate, solve, package and audit) whose fastest times
    // make `run_s`. Only the last repetition's model and result are kept,
    // and they are dropped before the next repetition starts, so
    // repetitions do not stack up memory.
    let mut fastest = FastestOps::default();
    let mut first = None;
    let mut last = None;
    outcome.reps = repeat(reps, |rep| {
        drop(last.take());
        let mut timed_op =
            |i: usize, start: Instant| fastest.record(i, start.elapsed().as_secs_f64());
        let timed = rec.span("run", |rec| {
            let start = Instant::now();
            let model = rec
                .span("core.instantiate", |_| family.instantiate(p, gamma))
                .map_err(|err| format!("instantiate: {err}"))?;
            timed_op(0, start);
            let start = Instant::now();
            let result = rec
                .span("mdp.solve", |_| procedure.solve_dinkelbach(&model))
                .map_err(|err| format!("solve: {err}"))?;
            timed_op(1, start);
            let start = Instant::now();
            let solve = CertifiedSolve {
                scenario: family.scenario(),
                p,
                gamma,
                beta_low: result.beta_low,
                beta_up: result.beta_up,
                strategy_revenue: result.strategy_revenue,
                strategy: result.strategy.clone(),
                epsilon: EPSILON,
                bias: result.bias.clone(),
            };
            let (failures, artifact_bytes) = check_certified("certify", &solve, &model, true, rec);
            timed_op(2, start);
            Ok::<_, String>((model, result, failures, artifact_bytes))
        });
        let (model, result, mut failures, artifact_bytes) = match timed {
            Ok(done) => done,
            Err(err) => {
                outcome.op(vec![err]);
                return false;
            }
        };
        let sweeps: usize = result.steps.iter().map(|step| step.iterations).sum();
        let seen = (
            result.beta_low.to_bits(),
            result.beta_up.to_bits(),
            result.steps.len(),
            sweeps,
        );
        // Every repetition does the same deterministic work.
        match first {
            None => first = Some(seen),
            Some(first) if first != seen => failures.push(format!(
                "certify: repetition {rep} gave {seen:?}, the first gave {first:?}"
            )),
            Some(_) => {}
        }
        outcome.op(failures);
        last = Some((model, result, sweeps, artifact_bytes));
        true
    });
    outcome.run_s = fastest.total();
    eprintln!(
        "certify_d4f1l4: {} repetitions, fastest operations {fastest:?} s",
        outcome.reps
    );
    let Some((model, result, sweeps, artifact_bytes)) = last else {
        return outcome;
    };

    if let (Size::Full, Some(seen)) = (size, first) {
        if seen != REFERENCE {
            outcome.fail(format!(
                "certify: outputs {seen:?} differ from the reference {REFERENCE:?}"
            ));
        }
    }

    if rec.enabled() {
        layer_metrics(
            &mut outcome,
            rec,
            &family,
            &model,
            &result,
            sweeps,
            artifact_bytes,
        );
    }

    // The second set-up window, with everything the run built dropped.
    drop((model, result, family));
    let again = fastest_setup(SETUP_REPEATS, rec, "core.build", || {
        ParametricModel::build(depth, forks, length)
    });
    outcome.setup_again(again.map(|(_, seconds)| seconds));
    outcome
}

/// The per-layer metrics of a traced run, including the two calls made only
/// for them: one `beta_rewards` at the final β and one revenue evaluation of
/// the final strategy.
fn layer_metrics(
    outcome: &mut Outcome,
    rec: &mut Recorder,
    family: &ParametricModel,
    model: &selfish_mining::SelfishMiningModel,
    result: &selfish_mining::AnalysisResult,
    sweeps: usize,
    artifact_bytes: usize,
) {
    // The r_β buffer is dropped inside its span, so the span's peak holds
    // it and the revenue evaluation's does not.
    let reward_values = rec.span("core.beta_rewards", |_| {
        model
            .beta_rewards(result.beta_low)
            .map(|r| r.values().len())
    });
    let revenue = rec.span("markov.revenue_eval", |_| {
        model.expected_relative_revenue(&result.strategy)
    });
    let Ok(reward_values) = reward_values else {
        outcome.fail("certify: traced beta_rewards failed".to_string());
        return;
    };
    if revenue.is_err() {
        outcome.fail("certify: traced revenue evaluation failed".to_string());
    }

    let states = family.num_states();
    let transitions = family.num_transitions();
    let csr = model.mdp().csr();
    // One full Bellman sweep streams the index arrays, the probabilities and
    // the per-transition r_β once, and reads and writes one bias vector.
    let sweep_bytes = csr.layout().resident_bytes()
        + 8 * csr.probabilities().len()
        + 8 * reward_values
        + 16 * states;
    let solve_s = rec.total_s("mdp.solve");
    outcome.set(
        "core.build_s",
        rec.named("core.build").last().map_or(0.0, |s| s.duration()),
    );
    outcome.set("core.build_peak_mb", rec.peak_mb("core.build"));
    outcome.set("core.states", states as f64);
    outcome.set("core.transitions", transitions as f64);
    outcome.set("core.arena_mb", outcome.accounted_mb);
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
    outcome.set("mdp.dinkelbach_steps", result.steps.len() as f64);
    outcome.set("mdp.rvi_sweeps", sweeps as f64);
    outcome.set("mdp.solve_s", solve_s);
    outcome.set("mdp.solve_peak_mb", rec.peak_mb("mdp.solve"));
    outcome.set(
        "mdp.ns_per_transition_sweep",
        1e9 * solve_s / (sweeps.max(1) as f64 * transitions.max(1) as f64),
    );
    outcome.set("mdp.sweep_bytes_computed", sweep_bytes as f64);
    outcome.set(
        "markov.revenue_eval_ms",
        1e3 * rec.total_s("markov.revenue_eval"),
    );
    outcome.set("audit.artifact_ms", 1e3 * rec.total_s("audit.artifact"));
    outcome.set("audit.check_s", rec.total_s("audit.check"));
    outcome.set("audit.check_peak_mb", rec.peak_mb("audit.check"));
    outcome.set("audit.artifact_kb", artifact_bytes as f64 / 1024.0);
}

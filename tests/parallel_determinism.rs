//! Determinism of the intra-solve parallel sweeps: every solver must return
//! **bit-identical** results — gains, certified bounds, strategies, bias
//! vectors and iteration counts — for any thread count. The row-block
//! parallelism only partitions Jacobi sweeps over disjoint state blocks and
//! folds the per-block statistics in block order, so nothing about the
//! arithmetic may depend on the pool shape; these tests enforce that with
//! exact `f64::to_bits` comparisons across 1/2/8 intra-solve threads over a
//! seeded `(p, γ)` grid, plus a pinned large-instance (`d = 3, f = 2`)
//! smoke test. Jacobi sweeps are the only sweep schedule, so the certified
//! curve — β bounds, strategies, revenues and the bias witness — must be
//! bit-identical for every thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::experiments::attack_curve_certified_with;
use selfish_mining::{ParametricModel, SolverParallelism};
use sm_mdp::RelativeValueIteration;

/// The seeded `(p, γ)` grid shared by the per-solver properties.
fn seeded_grid(points: usize) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(0x5ee9_b10c);
    (0..points)
        .map(|_| (rng.gen_range(0.05..0.45), rng.gen_range(0.0..1.0)))
        .collect()
}

fn assert_bits_eq(label: &str, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length mismatch");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: entry {i} differs ({a} vs {b})"
        );
    }
}

#[test]
fn relative_value_iteration_is_bit_identical_across_thread_counts() {
    // d = 2, f = 2 (2895 states, ~22k transitions) comfortably clears the
    // minimum block mass, so 2 and 8 threads genuinely exercise the pool.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    for &(p, gamma) in &seeded_grid(3) {
        let model = family.instantiate(p, gamma).unwrap();
        let rewards = model.beta_rewards(0.35).unwrap();
        let reference = RelativeValueIteration::with_epsilon(1e-6)
            .solve(model.mdp(), &rewards)
            .unwrap();
        for threads in [2usize, 8] {
            let parallel = RelativeValueIteration::with_epsilon(1e-6)
                .with_parallelism(SolverParallelism::threads(threads))
                .solve(model.mdp(), &rewards)
                .unwrap();
            let label = format!("rvi p={p} gamma={gamma} threads={threads}");
            assert_eq!(reference.gain.to_bits(), parallel.gain.to_bits(), "{label}");
            assert_eq!(
                reference.gain_lower.to_bits(),
                parallel.gain_lower.to_bits(),
                "{label}"
            );
            assert_eq!(
                reference.gain_upper.to_bits(),
                parallel.gain_upper.to_bits(),
                "{label}"
            );
            assert_eq!(reference.strategy, parallel.strategy, "{label}");
            assert_eq!(reference.iterations, parallel.iterations, "{label}");
            assert_bits_eq(&label, &reference.bias, &parallel.bias);
        }
    }
}

#[test]
fn warm_started_rvi_is_bit_identical_across_thread_counts() {
    let family = ParametricModel::build(2, 2, 4).unwrap();
    let model = family.instantiate(0.3, 0.5).unwrap();
    let rewards = model.beta_rewards(0.3).unwrap();
    let cold = RelativeValueIteration::with_epsilon(1e-5)
        .solve(model.mdp(), &rewards)
        .unwrap();
    // Warm-start from the cold bias under a shifted reward, serial vs pool.
    let shifted = model.beta_rewards(0.32).unwrap();
    let reference = RelativeValueIteration::with_epsilon(1e-6)
        .solve_from(model.mdp(), &shifted, &cold.bias)
        .unwrap();
    for threads in [2usize, 8] {
        let parallel = RelativeValueIteration::with_epsilon(1e-6)
            .with_parallelism(SolverParallelism::threads(threads))
            .solve_from(model.mdp(), &shifted, &cold.bias)
            .unwrap();
        assert_eq!(reference.gain.to_bits(), parallel.gain.to_bits());
        assert_eq!(reference.strategy, parallel.strategy);
        assert_eq!(reference.iterations, parallel.iterations);
        assert_bits_eq("warm rvi bias", &reference.bias, &parallel.bias);
    }
}

#[test]
fn fused_chain_gains_are_bit_identical_across_thread_counts() {
    // Evaluate a fixed strategy's revenue — the `iterative_gains` hot path —
    // on the chain induced by an actual ε-optimal strategy.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    for &(p, gamma) in &seeded_grid(2) {
        let model = family.instantiate(p, gamma).unwrap();
        let rewards = model.beta_rewards(0.35).unwrap();
        let strategy = RelativeValueIteration::with_epsilon(1e-5)
            .solve(model.mdp(), &rewards)
            .unwrap()
            .strategy;
        let (reference_revenue, reference_bias) = model
            .expected_relative_revenue_seeded_with(&strategy, None, SolverParallelism::serial())
            .unwrap();
        for threads in [2usize, 8] {
            let (revenue, bias) = model
                .expected_relative_revenue_seeded_with(
                    &strategy,
                    None,
                    SolverParallelism::threads(threads),
                )
                .unwrap();
            let label = format!("gains p={p} gamma={gamma} threads={threads}");
            assert_eq!(
                reference_revenue.to_bits(),
                revenue.to_bits(),
                "{label}: revenue {reference_revenue} vs {revenue}"
            );
            assert_eq!(reference_bias.len(), bias.len(), "{label}");
            for (r, (a, b)) in reference_bias.iter().zip(&bias).enumerate() {
                assert_bits_eq(&format!("{label} reward {r}"), a, b);
            }
        }
    }
}

#[test]
fn certified_attack_curves_are_bit_identical_across_thread_counts() {
    // End to end through the Dinkelbach analysis with warm starts along the
    // curve: certificates, strategies, revenues and the bias witness must not
    // see the pool.
    let family = ParametricModel::build(2, 2, 4).unwrap();
    let ps = [0.15, 0.25, 0.35];
    let reference =
        attack_curve_certified_with(&family, 0.5, &ps, 1e-3, true, SolverParallelism::serial())
            .unwrap();
    for threads in [1usize, 2, 8] {
        let candidate = attack_curve_certified_with(
            &family,
            0.5,
            &ps,
            1e-3,
            true,
            SolverParallelism::threads(threads),
        )
        .unwrap();
        assert_eq!(reference.len(), candidate.len());
        for (expected, got) in reference.iter().zip(&candidate) {
            let context = format!("threads = {threads}, p = {}", expected.p);
            assert_eq!(expected.scenario, got.scenario, "{context}");
            assert_eq!(expected.strategy, got.strategy, "{context}");
            assert_bits_eq(
                &context,
                &[
                    expected.p,
                    expected.gamma,
                    expected.beta_low,
                    expected.beta_up,
                    expected.strategy_revenue,
                    expected.epsilon,
                ],
                &[
                    got.p,
                    got.gamma,
                    got.beta_low,
                    got.beta_up,
                    got.strategy_revenue,
                    got.epsilon,
                ],
            );
            assert_bits_eq(&format!("{context} bias"), &expected.bias, &got.bias);
        }
    }
}

#[test]
fn large_instance_smoke_d3_f2_is_pinned_and_deterministic() {
    // The `d = 3, f = 2` arena is the instance class this layer exists for:
    // two orders of magnitude beyond the default grid. Pin its size so a
    // construction change cannot silently alter the workload, then check a
    // full relative-value-iteration solve bit for bit across pool shapes.
    let family = ParametricModel::build(3, 2, 4).unwrap();
    assert_eq!(family.num_states(), 133_299, "d=3,f=2,l=4 state count");
    let model = family.instantiate(0.3, 0.5).unwrap();
    assert_eq!(model.num_states(), 133_299);
    let rewards = model.beta_rewards(0.45).unwrap();
    // A coarse precision keeps the smoke affordable in debug builds; the
    // 1.25M-transition sweeps still hammer the pool for 100 rounds.
    let solver = RelativeValueIteration::with_epsilon(1e-2);
    let reference = solver
        .clone()
        .with_parallelism(SolverParallelism::serial())
        .solve(model.mdp(), &rewards)
        .unwrap();
    let parallel = solver
        .with_parallelism(SolverParallelism::threads(4))
        .solve(model.mdp(), &rewards)
        .unwrap();
    assert_eq!(reference.iterations, parallel.iterations);
    assert_eq!(reference.strategy, parallel.strategy);
    assert_eq!(reference.gain.to_bits(), parallel.gain.to_bits());
    assert_eq!(
        reference.gain_lower.to_bits(),
        parallel.gain_lower.to_bits()
    );
    assert_eq!(
        reference.gain_upper.to_bits(),
        parallel.gain_upper.to_bits()
    );
    assert_bits_eq("d3f2 bias", &reference.bias, &parallel.bias);
}

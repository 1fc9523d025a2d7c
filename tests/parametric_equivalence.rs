//! Equivalence of the parameterized transition arena and the direct model
//! builder: `ParametricModel::instantiate(p, γ)` must reproduce
//! `SelfishMiningModel::build` **bit for bit** (states, CSR arrays,
//! probabilities, rewards) for interior parameters — deterministic solvers
//! fed identical arrays then return identical results, so no solve is
//! repeated to show it — and must agree on every solver-level result for the masked
//! edge cases `γ ∈ {0, 1}` and `p ∈ {0, 1}`, where the direct builder prunes
//! zero-probability branches while the parametric arena keeps them
//! structurally.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::{AnalysisProcedure, AttackParams, ParametricModel, SelfishMiningModel};
use sm_mdp::RelativeValueIteration;

/// The `(d, f, l)` topologies swept by the equivalence properties.
const TOPOLOGIES: [(usize, usize, usize); 4] = [(1, 1, 2), (2, 1, 3), (2, 2, 3), (1, 2, 4)];

fn fresh(p: f64, gamma: f64, d: usize, f: usize, l: usize) -> SelfishMiningModel {
    let params = AttackParams::new(p, gamma, d, f, l).unwrap();
    SelfishMiningModel::build(&params).unwrap()
}

/// Full structural comparison: states, action lists, the entire CSR arena
/// (index arrays, probabilities, interned names) and both reward buffers.
fn assert_bit_identical(instantiated: &SelfishMiningModel, built: &SelfishMiningModel) {
    assert_eq!(instantiated.num_states(), built.num_states());
    for s in 0..built.num_states() {
        assert_eq!(instantiated.state(s), built.state(s));
        assert_eq!(instantiated.actions_of(s), built.actions_of(s));
    }
    assert_eq!(instantiated.mdp(), built.mdp());
    assert_eq!(
        instantiated.adversary_rewards().values(),
        built.adversary_rewards().values()
    );
    assert_eq!(
        instantiated.honest_rewards().values(),
        built.honest_rewards().values()
    );
    assert_eq!(instantiated.params(), built.params());
}

#[test]
fn interior_instantiation_is_bit_for_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x9A7A_11E1);
    for &(d, f, l) in &TOPOLOGIES {
        let family = ParametricModel::build(d, f, l).unwrap();
        for _ in 0..4 {
            // Strictly interior (p, γ): the direct builder prunes nothing.
            let p = 0.05 + rng.gen_range(0.0..0.85);
            let gamma = 0.05 + rng.gen_range(0.0..0.9);
            let instantiated = family.instantiate(p, gamma).unwrap();
            let built = fresh(p, gamma, d, f, l);
            assert_bit_identical(&instantiated, &built);
        }
    }
}

#[test]
fn masked_edges_agree_with_the_pruned_builder_on_gains() {
    // At the parameter-square edges the direct builder prunes masked
    // branches (smaller state space), so structural equality is impossible;
    // the certified solver results must still coincide.
    let edge_cases = [
        (0.0, 0.5),
        (0.0, 0.0),
        (0.0, 1.0),
        (0.3, 0.0),
        (0.3, 1.0),
        (1.0, 0.5),
    ];
    let vi_epsilon = 1e-8;
    for &(d, f, l) in &[(1, 1, 2), (2, 1, 3)] {
        let family = ParametricModel::build(d, f, l).unwrap();
        for &(p, gamma) in &edge_cases {
            let instantiated = family.instantiate(p, gamma).unwrap();
            instantiated.mdp().validate().unwrap();
            let built = fresh(p, gamma, d, f, l);
            assert!(instantiated.num_states() >= built.num_states());
            for beta in [0.0, 0.35] {
                let vi = RelativeValueIteration::with_epsilon(vi_epsilon);
                let ga = vi
                    .solve(
                        instantiated.mdp(),
                        &instantiated.beta_rewards(beta).unwrap(),
                    )
                    .unwrap()
                    .gain;
                let gb = vi
                    .solve(built.mdp(), &built.beta_rewards(beta).unwrap())
                    .unwrap()
                    .gain;
                assert!(
                    (ga - gb).abs() <= 2.0 * vi_epsilon,
                    "(d={d},f={f},l={l}) (p={p},γ={gamma}) β={beta}: \
                     masked gain {ga} vs pruned gain {gb}"
                );
            }
        }
    }
}

#[test]
fn masked_edges_agree_on_the_full_analysis() {
    // End-to-end check through Algorithm 1's Dinkelbach variant, exercising
    // the induced chains (with structurally-kept zero-probability entries)
    // and the revenue evaluation on both representations.
    let epsilon = 2e-3;
    let family = ParametricModel::build(2, 1, 3).unwrap();
    for &(p, gamma) in &[(0.0, 0.5), (0.3, 0.0), (0.3, 1.0)] {
        let instantiated = family.instantiate(p, gamma).unwrap();
        let built = fresh(p, gamma, 2, 1, 3);
        let procedure = AnalysisProcedure::with_epsilon(epsilon);
        let a = procedure.solve_dinkelbach(&instantiated).unwrap();
        let b = procedure.solve_dinkelbach(&built).unwrap();
        assert!(
            (a.strategy_revenue - b.strategy_revenue).abs() < 2.0 * epsilon,
            "(p={p},γ={gamma}): masked revenue {} vs pruned revenue {}",
            a.strategy_revenue,
            b.strategy_revenue
        );
    }
}

#[test]
fn in_place_reinstantiation_follows_a_seeded_parameter_walk() {
    // One reused model walked across a seeded (p, γ) sequence — including
    // repeated visits to masked edges — must stay bit-identical to a fresh
    // instantiation at every step (guards against stale-buffer bugs).
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE11);
    for &(d, f, l) in &TOPOLOGIES {
        let family = ParametricModel::build(d, f, l).unwrap();
        let mut reused = family.instantiate(0.5, 0.5).unwrap();
        for step in 0..8 {
            let (p, gamma) = match step {
                0 => (0.0, 0.5),
                1 => (rng.gen_range(0.0..1.0), 0.0),
                2 => (rng.gen_range(0.0..1.0), 1.0),
                _ => (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            };
            family.instantiate_into(&mut reused, p, gamma).unwrap();
            let direct = family.instantiate(p, gamma).unwrap();
            assert_eq!(reused.mdp(), direct.mdp(), "step {step} (p={p},γ={gamma})");
            assert_eq!(
                reused.adversary_rewards().values(),
                direct.adversary_rewards().values()
            );
            assert_eq!(
                reused.honest_rewards().values(),
                direct.honest_rewards().values()
            );
        }
    }
}

#[test]
fn warm_started_vi_agrees_with_cold_and_reconverges_fast() {
    let family = ParametricModel::build(2, 1, 4).unwrap();
    let gamma = 0.5;
    let beta = 0.35;
    let vi = RelativeValueIteration::with_epsilon(1e-7);

    let near = family.instantiate(0.25, gamma).unwrap();
    let near_rewards = near.beta_rewards(beta).unwrap();
    let seed = vi.solve(near.mdp(), &near_rewards).unwrap();

    let target = family.instantiate(0.30, gamma).unwrap();
    let target_rewards = target.beta_rewards(beta).unwrap();
    let cold = vi.solve(target.mdp(), &target_rewards).unwrap();
    let warm = vi
        .solve_from(target.mdp(), &target_rewards, &seed.bias)
        .unwrap();
    assert!(
        (warm.gain - cold.gain).abs() <= 2e-7,
        "warm gain {} vs cold gain {}",
        warm.gain,
        cold.gain
    );
    assert_eq!(warm.strategy, cold.strategy);
    // A foreign bias is a valid seed but not guaranteed to save sweeps on a
    // *single* solve (the measured win comes from chaining bias across the
    // Dinkelbach β iterations, where consecutive problems are nearly
    // identical); it must at least stay in the same ballpark.
    assert!(
        warm.iterations <= 2 * cold.iterations,
        "warm start degraded convergence ({} vs {})",
        warm.iterations,
        cold.iterations
    );

    // Re-solving the *same* problem from its own converged bias is nearly
    // instantaneous — the degenerate best case of the warm start.
    let resolved = vi
        .solve_from(target.mdp(), &target_rewards, &cold.bias)
        .unwrap();
    assert!(
        resolved.iterations <= 3,
        "re-solve from converged bias took {} sweeps",
        resolved.iterations
    );
}

//! Property-based tests over the workspace's core invariants, sweeping
//! randomly generated parameters and models.
//!
//! The random inputs come from the workspace's deterministic seeded PRNG
//! (the in-tree `rand` shim) instead of an external property-testing
//! framework, so the suite runs in offline environments; every case is
//! reproducible from the fixed seeds. Case counts match the former proptest
//! configuration (24 per property).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_mining::{available_actions, successors, AttackParams, SelfishMiningModel};
use sm_mdp::{MdpBuilder, PolicyIteration, RelativeValueIteration, TransitionRewards};

/// A varied grid of small attack parameter sets (the shim for the former
/// proptest generator; 24 cases like the original configuration).
fn attack_params_grid() -> Vec<AttackParams> {
    let mut rng = StdRng::seed_from_u64(20240729);
    let mut cases = Vec::new();
    for depth in 1..=2usize {
        for forks in 1..=2usize {
            for max_len in 1..=3usize {
                for _ in 0..2 {
                    let p = rng.gen_range(0.0..0.9);
                    let gamma = rng.gen_range(0.0..1.0);
                    cases.push(
                        AttackParams::new(p, gamma, depth, forks, max_len)
                            .expect("ranges are valid"),
                    );
                }
            }
        }
    }
    cases
}

/// Every action of every reachable state has a transition distribution
/// summing to 1 with consistent successor states.
#[test]
fn transition_distributions_are_stochastic() {
    for params in attack_params_grid() {
        let model = SelfishMiningModel::build(&params).unwrap();
        for index in 0..model.num_states() {
            let state = model.state(index);
            for action in available_actions(&params, state) {
                let outcomes = successors(&params, state, &action).unwrap();
                let total: f64 = outcomes.iter().map(|o| o.probability).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "action {action} sums to {total}"
                );
                for outcome in &outcomes {
                    assert!(outcome.state.is_consistent(&params));
                    assert!(outcome.probability > 0.0);
                }
            }
        }
    }
}

/// The optimal mean payoff MP*_beta is monotonically non-increasing in
/// beta (the monotonicity that makes Algorithm 1's binary search sound).
#[test]
fn optimal_mean_payoff_is_monotone_in_beta() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..24 {
        let p = rng.gen_range(0.05..0.45);
        let gamma = rng.gen_range(0.0..1.0);
        let params = AttackParams::new(p, gamma, 2, 1, 3).unwrap();
        let model = SelfishMiningModel::build(&params).unwrap();
        let solver = RelativeValueIteration::with_epsilon(1e-7);
        let mut previous = f64::INFINITY;
        for beta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let rewards = model.beta_rewards(beta).unwrap();
            let gain = solver.solve(model.mdp(), &rewards).unwrap().gain;
            assert!(
                gain <= previous + 1e-5,
                "MP*_beta increased: p={p}, gamma={gamma}, beta={beta}, {gain} > {previous}"
            );
            previous = gain;
        }
    }
}

/// The ERRev of any fixed strategy lies in [0, 1], and the optimal one is
/// at least as large as the always-mine strategy's.
#[test]
fn expected_relative_revenue_is_well_formed() {
    for params in attack_params_grid() {
        let model = SelfishMiningModel::build(&params).unwrap();
        let always_mine = sm_mdp::PositionalStrategy::uniform_first_action(model.num_states());
        let revenue = model.expected_relative_revenue(&always_mine).unwrap();
        assert!(
            (0.0..=1.0).contains(&revenue),
            "revenue {revenue} out of range for {params:?}"
        );
    }
}

/// Across the whole random parameter grid, instantiating the parametric
/// arena reproduces the direct builder: identical arena (bit for bit) for
/// interior parameters, and a validating superset topology at the masked
/// edges.
#[test]
fn parametric_instantiation_matches_fresh_build_on_the_grid() {
    for params in attack_params_grid() {
        let fresh = SelfishMiningModel::build(&params).unwrap();
        let family = selfish_mining::ParametricModel::build(
            params.depth,
            params.forks_per_block,
            params.max_fork_length,
        )
        .unwrap();
        let instantiated = family.instantiate(params.p, params.gamma).unwrap();
        instantiated.mdp().validate().unwrap();
        let interior = params.p > 0.0 && params.p < 1.0 && params.gamma > 0.0 && params.gamma < 1.0;
        if interior {
            assert_eq!(instantiated.mdp(), fresh.mdp(), "params {params:?}");
            assert_eq!(
                instantiated.adversary_rewards().values(),
                fresh.adversary_rewards().values()
            );
            assert_eq!(
                instantiated.honest_rewards().values(),
                fresh.honest_rewards().values()
            );
        } else {
            assert!(instantiated.num_states() >= fresh.num_states());
        }
    }
}

/// On random small MDPs relative value iteration agrees with the exact
/// optimum of Howard policy iteration.
#[test]
fn mean_payoff_solvers_agree_on_random_mdps() {
    let mut rng = StdRng::seed_from_u64(123456789);
    for case in 0..24 {
        // A 3-state MDP with 2 actions per state and deterministic-or-split
        // transitions derived from the generated parameters.
        let split = rng.gen_range(0.1..0.9);
        let seed_rewards: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut builder = MdpBuilder::new(3);
        for state in 0..3usize {
            builder
                .add_action(state, "next", vec![((state + 1) % 3, 1.0)])
                .unwrap();
            builder
                .add_action(
                    state,
                    "split",
                    vec![(state, split), ((state + 2) % 3, 1.0 - split)],
                )
                .unwrap();
        }
        let mdp = builder.build(0).unwrap();
        let rewards = TransitionRewards::from_fn(&mdp, |s, a, _| seed_rewards[s * 2 + a]);
        let vi = RelativeValueIteration::with_epsilon(1e-9)
            .solve(&mdp, &rewards)
            .unwrap()
            .gain;
        let (pi, _) = PolicyIteration::default().solve(&mdp, &rewards).unwrap();
        assert!((vi - pi).abs() < 1e-5, "case {case}: vi {vi} vs pi {pi}");
    }
}

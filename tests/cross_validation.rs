//! Cross-validation between the formal MDP analysis (`selfish-mining`) and the
//! Monte-Carlo blockchain simulator (`sm-chain`): the two implementations are
//! fully independent (exact solver vs. explicit block tree with an RNG), so
//! agreement on the measured relative revenue is strong evidence that both
//! encode the same system model.

use selfish_mining::baselines::honest_relative_revenue;
use selfish_mining::{
    available_actions, AnalysisProcedure, AttackParams, SelfishMiningModel, StrategyExport,
};
use sm_chain::{HonestStrategy, SimulationConfig, Simulator, UnknownViewPolicy};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The honest strategy's empirical relative revenue matches its analytic value
/// `p` in the simulator.
#[test]
fn simulator_reproduces_honest_share() {
    for p in [0.2, 0.35] {
        let config = SimulationConfig {
            p,
            steps: 150_000,
            seed: 7,
            ..SimulationConfig::default()
        };
        let report = Simulator::new(config).run(&mut HonestStrategy);
        let analytic = honest_relative_revenue(p).unwrap();
        assert!(
            (report.relative_revenue() - analytic).abs() < 0.02,
            "p={p}: simulated {} vs analytic {analytic}",
            report.relative_revenue()
        );
    }
}

/// Replaying the MDP-optimal strategy in the simulator yields an empirical
/// relative revenue close to the exact value computed by the analysis.
#[test]
fn simulator_matches_mdp_value_for_optimal_strategy() {
    let p = 0.3;
    let gamma = 0.5;
    let params = AttackParams::new(p, gamma, 2, 1, 4).unwrap();
    let model = SelfishMiningModel::build(&params).unwrap();
    let result = AnalysisProcedure::with_epsilon(1e-3)
        .solve_dinkelbach(&model)
        .unwrap();

    // The export is the production API the conformance subsystem uses; the
    // strict policy certifies that the MDP covers every view the simulator
    // reaches in these runs.
    let mut strategy = StrategyExport::new(&model)
        .table(&result.strategy, UnknownViewPolicy::Panic)
        .expect("strategy export succeeds");
    assert!(
        !strategy.is_empty(),
        "the optimal strategy must act somewhere"
    );

    // Average a few independent runs to keep the Monte-Carlo error well below
    // the comparison tolerance.
    let mut revenues = Vec::new();
    for seed in [99, 7_315, 20_240_615] {
        let config = SimulationConfig {
            p,
            gamma,
            steps: 400_000,
            seed,
            ..SimulationConfig::default()
        };
        let report = Simulator::new(config).run(&mut strategy);
        revenues.push(report.relative_revenue());
    }
    let mean = revenues.iter().sum::<f64>() / revenues.len() as f64;
    assert!(
        (mean - result.strategy_revenue).abs() < 0.03,
        "simulated {revenues:?} (mean {mean}) vs exact {}",
        result.strategy_revenue
    );
    // And the replayed optimal strategy clearly beats the honest share in the
    // simulator as well.
    assert!(mean > p + 0.01);
}

/// The structured transition function and the model builder agree on which
/// actions exist: every action of every MDP state corresponds to one entry of
/// `available_actions`.
#[test]
fn model_action_lists_match_transition_function() {
    let params = AttackParams::new(0.25, 0.75, 2, 2, 3).unwrap();
    let model = SelfishMiningModel::build(&params).unwrap();
    for state_index in 0..model.num_states() {
        let expected = available_actions(&params, model.state(state_index));
        assert_eq!(model.actions_of(state_index), expected.as_slice());
        assert_eq!(model.mdp().num_actions(state_index), expected.len());
    }
}

// ---------------------------------------------------------------------------
// Representation equivalence: legacy nested builder path vs. the CSR arena.
// ---------------------------------------------------------------------------

/// Raw per-state action lists describing a small MDP: `(name, transitions)`.
type ModelDescription = Vec<Vec<(String, Vec<(usize, f64)>)>>;

/// One random small MDP described as raw per-state action lists.
/// Every action carries a guaranteed transition back to state 0, which makes
/// every induced chain unichain — the precondition of relative value iteration.
fn random_model_description(rng: &mut StdRng) -> ModelDescription {
    let num_states = rng.gen_range(2usize..6); // 2..=5
    let mut states = Vec::with_capacity(num_states);
    for _ in 0..num_states {
        let num_actions = rng.gen_range(1usize..4); // 1..=3
        let mut actions = Vec::with_capacity(num_actions);
        for a in 0..num_actions {
            // 1..=3 targets; random weights, normalised so that a fixed 0.3
            // share always flows back to state 0.
            let num_targets = rng.gen_range(1usize..1 + 3.min(num_states));
            let mut weights: Vec<(usize, f64)> = (0..num_targets)
                .map(|_| (rng.gen_range(0..num_states), 0.1 + rng.gen_range(0.0..1.0)))
                .collect();
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            for entry in &mut weights {
                entry.1 = entry.1 / total * 0.7;
            }
            weights.push((0, 0.3));
            actions.push((format!("a{a}"), weights));
        }
        states.push(actions);
    }
    states
}

/// Builds the description through the legacy random-access `MdpBuilder`.
fn build_nested(description: &ModelDescription) -> sm_mdp::Mdp {
    let mut builder = sm_mdp::MdpBuilder::new(description.len());
    for (state, actions) in description.iter().enumerate() {
        for (name, transitions) in actions {
            builder
                .add_action(state, name.clone(), transitions.clone())
                .unwrap();
        }
    }
    builder.build(0).unwrap()
}

/// Builds the same description by streaming it into the CSR arena builder.
fn build_arena(description: &ModelDescription) -> sm_mdp::Mdp {
    let mut builder = sm_mdp::CsrMdpBuilder::new();
    for actions in description {
        builder.begin_state();
        for (name, transitions) in actions {
            builder.add_action(name, transitions).unwrap();
        }
    }
    builder.finish(0).unwrap()
}

/// Property: on random small MDPs, the legacy nested builder path and the
/// streaming CSR arena path produce *identical* models (same arena layout,
/// probabilities and interned names), and relative value iteration and
/// policy iteration each report the same optimal gain and the same strategy
/// on both.
#[test]
fn nested_and_csr_arena_builders_are_equivalent() {
    use sm_mdp::{PolicyIteration, RelativeValueIteration, TransitionRewards};

    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..25 {
        let description = random_model_description(&mut rng);
        let nested = build_nested(&description);
        let arena = build_arena(&description);
        assert_eq!(
            nested, arena,
            "case {case}: builders disagree on the arena for {description:?}"
        );

        // A deterministic reward function of the indices is identical across
        // both models by construction.
        let reward_seed = rng.next_u64() % 97;
        let reward_fn = |s: usize, a: usize, t: usize| {
            ((s * 31 + a * 17 + t * 7 + reward_seed as usize) % 13) as f64 / 13.0 - 0.4
        };
        let r_nested = TransitionRewards::from_fn(&nested, reward_fn);
        let r_arena = TransitionRewards::from_fn(&arena, reward_fn);
        assert_eq!(r_nested.values(), r_arena.values(), "case {case}");
        // Buffers built against either representation align with both.
        assert!(r_nested.matches(&arena) && r_arena.matches(&nested));

        let rvi = RelativeValueIteration::with_epsilon(1e-9);
        let a = rvi.solve(&nested, &r_nested).unwrap();
        let b = rvi.solve(&arena, &r_arena).unwrap();
        assert_eq!(
            a.strategy, b.strategy,
            "case {case}: RVI strategies diverge"
        );
        assert!(
            (a.gain - b.gain).abs() < 1e-12,
            "case {case}: RVI gains diverge: {} vs {}",
            a.gain,
            b.gain
        );
        let (a_gain, a_strategy) = PolicyIteration::default()
            .solve(&nested, &r_nested)
            .unwrap();
        let (b_gain, b_strategy) = PolicyIteration::default().solve(&arena, &r_arena).unwrap();
        assert_eq!(a_strategy, b_strategy, "case {case}: PI strategies diverge");
        assert!(
            (a_gain - b_gain).abs() < 1e-12,
            "case {case}: PI gains diverge: {a_gain} vs {b_gain}"
        );
    }
}

/// The model builder's streaming path and the identical-layout guarantee
/// carry over to the real selfish-mining model: rebuilding the discovered
/// MDP through the legacy builder reproduces the streamed arena exactly.
#[test]
fn selfish_mining_model_streams_into_identical_arena() {
    let params = AttackParams::new(0.3, 0.5, 2, 1, 3).unwrap();
    let model = SelfishMiningModel::build(&params).unwrap();
    let mdp = model.mdp();

    let mut rebuilt = sm_mdp::MdpBuilder::new(mdp.num_states());
    for state in 0..mdp.num_states() {
        for action in 0..mdp.num_actions(state) {
            let transitions: Vec<(usize, f64)> = mdp.transitions(state, action).collect();
            rebuilt
                .add_action(state, mdp.action_name(state, action), transitions)
                .unwrap();
        }
    }
    let rebuilt = rebuilt.build(mdp.initial_state()).unwrap();
    assert_eq!(mdp, &rebuilt);
    assert_eq!(
        mdp.csr().layout().row_ptr(),
        rebuilt.csr().layout().row_ptr()
    );
    assert_eq!(mdp.csr().layout().col(), rebuilt.csr().layout().col());
}

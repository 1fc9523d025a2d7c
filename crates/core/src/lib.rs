//! Selfish mining in efficient proof systems blockchains: the MDP model and
//! the fully automated analysis of
//! *"Fully Automated Selfish Mining Analysis in Efficient Proof Systems
//! Blockchains"* (Chatterjee, Ebrahimzadeh, Karrabi, Pietrzak, Yeo, Žikelić —
//! PODC 2024).
//!
//! # What this crate provides
//!
//! * [`AttackParams`] — the system-model and attack parameters
//!   `(p, γ, d, f, l)` of Section 3.2.
//! * [`SmState`], [`SmAction`], [`available_actions`], [`successors`] — the
//!   structured state space, action space and probabilistic transition
//!   function of the selfish-mining MDP.
//! * [`SelfishMiningModel`] — reachable-state exploration and construction of
//!   the finite MDP together with the reward structures `r_A` and `r_H` of
//!   Section 3.3.
//! * [`AnalysisProcedure`] — Algorithm 1: an `ε`-tight lower bound on the
//!   optimal expected relative revenue plus an `ε`-optimal strategy, computed
//!   by binary search over the mean-payoff reward family `r_β` (and a
//!   Dinkelbach-accelerated variant).
//! * [`AttackScenario`] — pluggable restricted-action attack scenarios
//!   (the stubborn-mining family plus an honest sanity scenario) carried
//!   end-to-end through the solve → export → simulate → certify pipeline.
//! * [`baselines`] — the two baselines of the experimental evaluation
//!   (honest mining and the single-tree selfish-mining attack) and the
//!   Eyal–Sirer proof-of-work closed form used as a sanity anchor.
//! * [`experiments`] — drivers that regenerate the data behind Table 1 and
//!   Figure 2 of the paper.
//!
//! # Quickstart
//!
//! ```
//! use selfish_mining::{AnalysisProcedure, AttackParams, SelfishMiningModel};
//!
//! # fn main() -> Result<(), selfish_mining::SelfishMiningError> {
//! // d = 2, f = 1, l = 4 — the smallest configuration in which the attack
//! // beats both baselines in the paper.
//! let params = AttackParams::new(0.3, 0.5, 2, 1, 4)?;
//! let model = SelfishMiningModel::build(&params)?;
//! let result = AnalysisProcedure::with_epsilon(1e-2).solve(&model)?;
//! assert!(result.strategy_revenue >= 0.3); // at least the honest share
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod analysis;
pub mod baselines;
mod error;
pub mod experiments;
mod export;
mod model;
mod parametric;
mod params;
mod scenario;
mod state;
mod transition;

pub use action::SmAction;
pub use analysis::{
    AnalysisConfig, AnalysisProcedure, AnalysisResult, DinkelbachWarmStart, SolveStep,
};
pub use error::SelfishMiningError;
pub use export::StrategyExport;
pub use model::{SelfishMiningModel, DEFAULT_STATE_LIMIT};
pub use parametric::{ParametricModel, RewardAtom};
pub use params::{validate_epsilon, validate_share, AttackParams};
pub use scenario::{AttackScenario, CertificateScope};
pub use state::{Owner, Phase, SmState};

// The consensus-backend axis, re-exported from the chain layer so crates
// above the model (sweep, service) reach it without a direct `sm-chain`
// dependency — the same role the `AttackScenario` re-export plays for the
// scenario axis.
pub use sm_chain::{ChallengeVisibility, ConsensusBackend};

// Intra-solve parallelism knob, shared across the solver stack (`sm-markov`
// chain sweeps, `sm-mdp` value iteration, the analysis procedure here).
pub use sm_mdp::SolverParallelism;
pub use transition::{
    available_actions, available_actions_in, successors, successors_in, symbolic_successors,
    symbolic_successors_in, BlockRewards, Outcome, ProbTerm, SymbolicOutcome,
};

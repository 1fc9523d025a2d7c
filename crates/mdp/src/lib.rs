//! Finite-state Markov decision processes and mean-payoff solvers.
//!
//! The PODC 2024 selfish-mining analysis reduces the expected-relative-revenue
//! objective to a family of *mean-payoff* MDP problems and solves each of them
//! with an off-the-shelf probabilistic model checker (Storm). This crate is
//! the reproduction's replacement for that model checker. It provides:
//!
//! * [`Mdp`] / [`MdpBuilder`] — the finite MDP `(S, A, P, s₀)` of Section 2.3,
//!   with validated probabilistic transition functions. Internally the model
//!   is one flat compressed-sparse-row transition arena ([`CsrMdp`], built
//!   incrementally via [`CsrMdpBuilder`]); rewards and induced Markov chains
//!   share its index arrays, which is what makes the solver sweeps
//!   cache-friendly slice walks instead of nested-`Vec` pointer chases.
//! * [`TransitionRewards`] — reward functions `r : S × A × S → ℝ`, and the
//!   linear combinations needed for the paper's `r_β = r_A − β(r_A + r_H)`.
//! * [`PositionalStrategy`] — memoryless deterministic strategies, which are
//!   sufficient for mean-payoff optimality (Puterman, Thm. 9.1.8).
//! * Solvers for the *maximal mean payoff*:
//!   [`RelativeValueIteration`] — the production solver: sparse Jacobi
//!   sweeps over the arena that return certified lower/upper bounds on the
//!   optimal gain together with an optimal (up to the requested precision)
//!   strategy and the final bias vector, and scale to the large
//!   selfish-mining models — and [`PolicyIteration`] (Howard's algorithm,
//!   exact via dense linear solves), the oracle the tests check it against.
//!
//! # Example
//!
//! ```
//! use sm_mdp::{MdpBuilder, RelativeValueIteration, TransitionRewards};
//!
//! # fn main() -> Result<(), sm_mdp::MdpError> {
//! // A two-state MDP: in state 0 the action `stay` earns 1 and loops,
//! // the action `leave` earns 0 and moves to state 1, from which the only
//! // action returns to 0 earning 0.5. Optimal mean payoff is 1 (keep staying).
//! let mut builder = MdpBuilder::new(2);
//! builder.add_action(0, "stay", vec![(0, 1.0)])?;
//! builder.add_action(0, "leave", vec![(1, 1.0)])?;
//! builder.add_action(1, "back", vec![(0, 1.0)])?;
//! let mdp = builder.build(0)?;
//! let rewards = TransitionRewards::from_fn(&mdp, |state, action, _target| {
//!     match (state, mdp.action_name(state, action)) {
//!         (0, "stay") => 1.0,
//!         (1, _) => 0.5,
//!         _ => 0.0,
//!     }
//! });
//! let result = RelativeValueIteration::with_epsilon(1e-7).solve(&mdp, &rewards)?;
//! assert!(result.gain_lower <= 1.0 && 1.0 <= result.gain_upper);
//! assert_eq!(result.strategy.action(0), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
mod error;
mod model;
mod policy_iteration;
mod rewards;
mod strategy;
mod value_iteration;

pub use csr::{CsrLayout, CsrMdp, CsrMdpBuilder, COMPACT_ARENA_LIMIT};
pub use error::MdpError;
pub use model::{ActionRef, Mdp, MdpBuilder};
pub use policy_iteration::{PolicyEvaluation, PolicyIteration};
pub use rewards::TransitionRewards;
pub use strategy::PositionalStrategy;
pub use value_iteration::{RelativeValueIteration, ValueIterationOutcome};

// Intra-solve parallelism, shared with the chain-evaluation sweeps:
// re-exported so solver users configure everything from one crate.
pub use sm_markov::SolverParallelism;

/// Tolerance used when validating transition probability distributions.
pub const PROBABILITY_TOLERANCE: f64 = 1e-9;

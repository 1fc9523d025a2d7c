//! Dense and sparse linear algebra for the selfish-mining solver stack.
//!
//! This crate is the lowest-level substrate of the reproduction of
//! *"Fully Automated Selfish Mining Analysis in Efficient Proof Systems
//! Blockchains"* (PODC 2024). The paper solves mean-payoff Markov decision
//! processes with the off-the-shelf probabilistic model checker Storm; this
//! workspace instead builds its own solver stack, and everything numerical in
//! that stack bottoms out here:
//!
//! * [`DenseMatrix`] — a row-major dense matrix with the usual arithmetic.
//! * [`CsrMatrix`] — a compressed sparse row matrix used for transition
//!   matrices of Markov chains induced by strategies.
//! * [`LuDecomposition`] / [`solve_linear_system`] — LU factorisation with
//!   partial pivoting, used for policy evaluation (gain/bias equations).
//!
//! # Example
//!
//! ```
//! use sm_linalg::{DenseMatrix, solve_linear_system};
//!
//! # fn main() -> Result<(), sm_linalg::LinalgError> {
//! let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
//! let x = solve_linear_system(&a, &[3.0, 4.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
mod lu;
mod sparse;
mod vector;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use lu::{solve_linear_system, LuDecomposition};
pub use sparse::{CsrMatrix, Triplet, COMPACT_INDEX_LIMIT};
pub use vector::{axpy, dot, infinity_norm, l1_norm, l2_norm, max_abs_diff, scale, span_seminorm};

/// Default numerical tolerance used across the crate when comparing floats.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

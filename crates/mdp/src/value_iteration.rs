//! Relative value iteration for the maximal mean-payoff objective.
//!
//! This is the workhorse solver of the reproduction: it touches each
//! transition a constant number of times per sweep, so it scales to the large
//! state spaces produced by the selfish-mining model at higher attack depths.

use crate::{Mdp, MdpError, PositionalStrategy, TransitionRewards};
use sm_markov::{mass_balanced_blocks, mass_capped_threads, sweep_scope, SolverParallelism};
use std::sync::{Mutex, PoisonError, RwLock};

/// Relative value iteration (RVI) with the standard aperiodicity ("lazy")
/// transformation, for unichain MDPs under the *maximal* mean-payoff
/// objective.
///
/// The solver maintains a bias estimate `h` and repeatedly applies the Bellman
/// operator of the transformed MDP `P' = (1−τ)·I + τ·P` (which has the same
/// gain and the same optimal strategies as the original for every τ ∈ (0,1]).
/// The per-sweep increments `Δ(s) = (T h)(s) − h(s)` sandwich the optimal
/// gain: `min_s Δ(s) ≤ g* ≤ max_s Δ(s)`, which is what provides the certified
/// lower/upper bounds reported in the result.
///
/// The returned *strategy* is not the raw argmax of the last sweep, whose
/// choice in exactly-tied states flips with the last bits of the iterate's
/// numerical history, but a canonical extraction from the final bias: the
/// lowest-indexed action within
/// [`STRATEGY_TIE_TOLERANCE`](Self::STRATEGY_TIE_TOLERANCE)`·epsilon` of each
/// state's best Bellman value. Near the fixed point every optimal action sits
/// within the convergence span of the maximum while strictly suboptimal
/// actions stay separated by their macroscopic value gap, so the rule lands
/// on the same choice from any bias vector the solver can terminate with —
/// cold or warm-started from any earlier solve, on any thread count.
///
/// # Example
///
/// ```
/// use sm_mdp::{MdpBuilder, RelativeValueIteration, TransitionRewards};
///
/// # fn main() -> Result<(), sm_mdp::MdpError> {
/// let mut b = MdpBuilder::new(1);
/// b.add_action(0, "loop", vec![(0, 1.0)])?;
/// let mdp = b.build(0)?;
/// let rewards = TransitionRewards::from_fn(&mdp, |_, _, _| 2.5);
/// let result = RelativeValueIteration::default().solve(&mdp, &rewards)?;
/// assert!((result.gain - 2.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RelativeValueIteration {
    /// Convergence threshold on the span of the increment vector. The
    /// certified gain interval has width at most this value on termination.
    pub epsilon: f64,
    /// Maximum number of sweeps before giving up (full Bellman sweeps and
    /// evaluation sweeps both count).
    pub max_iterations: usize,
    /// Laziness parameter τ of the aperiodicity transformation, in `(0, 1]`.
    pub laziness: f64,
    /// Number of *policy-restricted evaluation sweeps* interleaved after each
    /// full Bellman sweep (modified policy iteration, Puterman §10.3): the
    /// greedy action of the last full sweep is held fixed and only its
    /// transitions are swept, which costs a fraction of a full sweep (one
    /// action per state instead of all of them) while contracting the bias
    /// just as fast. Certified gain bounds are only ever taken from full
    /// Bellman sweeps — valid from any bias vector — so the interleaving
    /// never weakens the returned interval. `0` recovers plain relative
    /// value iteration.
    pub evaluation_sweeps: usize,
    /// Intra-solve parallelism: how many threads each sweep may fan its
    /// row blocks over. Results (gain bounds, strategy, bias, sweep counts)
    /// are **bit-identical for any setting** — every state runs exactly the
    /// serial arithmetic against the same previous iterate and the span
    /// statistics are folded in block order — so this knob only trades
    /// wall-clock time for cores. Models below the
    /// [`sm_markov::MIN_BLOCK_MASS`] transition threshold run serially
    /// regardless.
    pub parallelism: SolverParallelism,
}

impl Default for RelativeValueIteration {
    fn default() -> Self {
        RelativeValueIteration {
            epsilon: 1e-8,
            max_iterations: 2_000_000,
            laziness: 0.95,
            evaluation_sweeps: 8,
            parallelism: SolverParallelism::serial(),
        }
    }
}

/// Result of a relative value iteration run.
#[derive(Debug, Clone)]
pub struct ValueIterationOutcome {
    /// Gain estimate (midpoint of the certified interval).
    pub gain: f64,
    /// Certified lower bound on the optimal gain.
    pub gain_lower: f64,
    /// Certified upper bound on the optimal gain.
    pub gain_upper: f64,
    /// Greedy strategy extracted from the final bias vector by the canonical
    /// tolerance rule (lowest-indexed action within
    /// [`RelativeValueIteration::STRATEGY_TIE_TOLERANCE`]`·epsilon` of the
    /// per-state maximum), so a warm-started solve exports the same strategy
    /// as a cold one — see [`RelativeValueIteration`].
    pub strategy: PositionalStrategy,
    /// Final (relative) bias vector.
    pub bias: Vec<f64>,
    /// Number of sweeps performed.
    pub iterations: usize,
}

/// Book-keeping of the borderline-tie refinement phase shared by the serial
/// and parallel sweep loops: once a solve has converged but its canonical
/// extraction is borderline (see
/// [`RelativeValueIteration::STRATEGY_TIE_GUARD`]), the loop keeps sweeping
/// with a halved span target per round until the guard band clears or the
/// refinement budget — twice the sweeps the solve needed to converge — runs
/// out. Refinement exists so that the exported strategy does not depend on
/// where the iterate started: a warm-started solve and a cold one decide
/// every near-tie by the same side of the cutoff. The first converged
/// outcome is kept as a fallback so a solve that hits `max_iterations`
/// mid-refinement still returns its certified result instead of a
/// convergence failure.
struct TieRefinement {
    /// Residual-span target of the next refinement round (`∞` until the
    /// first borderline extraction).
    target: f64,
    /// Sweep count at which refinement gives up (`usize::MAX` until the
    /// first borderline extraction).
    deadline: usize,
    /// Most recent converged outcome, returned if the sweep budget runs out.
    fallback: Option<ValueIterationOutcome>,
}

impl TieRefinement {
    fn new() -> Self {
        TieRefinement {
            target: f64::INFINITY,
            deadline: usize::MAX,
            fallback: None,
        }
    }

    /// Whether the refinement budget is spent and the current extraction
    /// must be exported as-is.
    fn exhausted(&self, sweeps: usize, max_iterations: usize) -> bool {
        sweeps >= self.deadline || sweeps >= max_iterations
    }

    /// Records a borderline converged outcome and tightens the span target
    /// for the next round.
    fn continue_past(&mut self, outcome: ValueIterationOutcome, span: f64, sweeps: usize) {
        if self.deadline == usize::MAX {
            self.deadline = sweeps.saturating_mul(2);
        }
        self.target = 0.5 * span;
        self.fallback = Some(outcome);
    }
}

impl RelativeValueIteration {
    /// Near-tie tolerance of the canonical strategy extraction, as a multiple
    /// of [`Self::epsilon`]. Converged bias vectors differ across warm-start
    /// histories — a cold solve versus one seeded with the bias of the
    /// previous Dinkelbach step or curve point — by up to roughly one
    /// `epsilon` in the action values they induce, so a cutoff at exactly
    /// `epsilon` is maximally fragile: a state whose runner-up action sits at
    /// a gap of about `epsilon` flips in and out of the tie set depending on
    /// where the iterate started. Placing the cutoff a comfortable multiple
    /// above that jitter makes the discrete tie set — and with it the
    /// exported strategy — independent of the warm-start history, while the
    /// admitted actions stay within `32·epsilon` of optimal in bias units
    /// (negligible against the analysis-level certification width, which is
    /// two orders of magnitude above the solver `epsilon`).
    pub const STRATEGY_TIE_TOLERANCE: f64 = 32.0;

    /// Guard-band factor of the borderline check, as a multiple of the
    /// residual span at extraction time. No fixed cutoff alone can make the
    /// tie set independent of the warm-start history: the gap spectrum of a
    /// large MDP is dense enough that some state's true gap eventually lands
    /// within iterate jitter of *any* cutoff. So after convergence the
    /// extraction also reports whether any action's gap falls within
    /// `guard · span` of the cutoff; if one does, the solve keeps sweeping —
    /// halving the residual span, and with it the guard band, each round —
    /// until the band clears or the refinement budget runs out. Decisions are
    /// then made by the *true* gap's side of the cutoff (a quantity of the
    /// problem, not of the starting bias) rather than by the jitter of one
    /// particular trajectory. The factor comfortably dominates the observed
    /// gap-estimation error (about twice the residual span) and stays below
    /// [`Self::STRATEGY_TIE_TOLERANCE`], so exact ties — whose estimated gaps
    /// sit near zero, far from the cutoff — never trigger refinement.
    ///
    /// The refinement runs on pinned outputs: the cold ε = 1e-3 certify of
    /// `(d, f, l) = (4, 1, 4)` at p = 0.35, γ = 0.5 takes 318 sweeps with the
    /// guard and 291 without it, with the same β bits.
    pub const STRATEGY_TIE_GUARD: f64 = 8.0;

    /// Creates a solver with the given precision and default iteration budget.
    pub fn with_epsilon(epsilon: f64) -> Self {
        RelativeValueIteration {
            epsilon,
            ..RelativeValueIteration::default()
        }
    }

    /// Returns the solver with the given intra-solve parallelism (see the
    /// [`RelativeValueIteration::parallelism`] field).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: SolverParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Runs the iteration on `mdp` with rewards `rewards`, starting from the
    /// all-zero bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::RewardShapeMismatch`] if the reward structure does
    /// not match the model, [`MdpError::InvalidParameter`] for a bad `epsilon`
    /// or `laziness`, [`MdpError::NoActions`] if some state has an empty
    /// action range, and [`MdpError::ConvergenceFailure`] if the iteration
    /// budget is exhausted before the requested precision is reached.
    pub fn solve(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
    ) -> Result<ValueIterationOutcome, MdpError> {
        self.solve_inner(mdp, rewards, None)
    }

    /// Runs the iteration warm-started from a previous bias vector.
    ///
    /// Any finite vector is a valid starting point (the certified gain bounds
    /// come from the per-sweep increments, which sandwich the optimal gain
    /// regardless of the initial bias), but a bias from a *nearby* problem —
    /// the same MDP under a slightly different reward combination, or the
    /// arena instantiated at a neighbouring parameter point — cuts the sweep
    /// count substantially. This is the entry point the parameterized sweep
    /// engine uses to chain solves across a `(p, γ)` grid.
    ///
    /// # Errors
    ///
    /// Like [`RelativeValueIteration::solve`], plus
    /// [`MdpError::RewardShapeMismatch`] if `initial_bias` does not cover
    /// every state and [`MdpError::InvalidParameter`] if it contains
    /// non-finite entries.
    pub fn solve_from(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
        initial_bias: &[f64],
    ) -> Result<ValueIterationOutcome, MdpError> {
        if initial_bias.len() != mdp.num_states() {
            return Err(MdpError::RewardShapeMismatch {
                detail: format!(
                    "warm-start bias covers {} states, MDP has {}",
                    initial_bias.len(),
                    mdp.num_states()
                ),
            });
        }
        if initial_bias.iter().any(|v| !v.is_finite()) {
            return Err(MdpError::InvalidParameter {
                name: "initial_bias",
                constraint: "must contain only finite values",
            });
        }
        self.solve_inner(mdp, rewards, Some(initial_bias))
    }

    fn solve_inner(
        &self,
        mdp: &Mdp,
        rewards: &TransitionRewards,
        initial_bias: Option<&[f64]>,
    ) -> Result<ValueIterationOutcome, MdpError> {
        if self.epsilon.is_nan() || self.epsilon <= 0.0 {
            return Err(MdpError::InvalidParameter {
                name: "epsilon",
                constraint: "must be positive",
            });
        }
        if !(self.laziness > 0.0 && self.laziness <= 1.0) {
            return Err(MdpError::InvalidParameter {
                name: "laziness",
                constraint: "must lie in (0, 1]",
            });
        }
        if !rewards.matches(mdp) {
            return Err(MdpError::RewardShapeMismatch {
                detail: "rewards do not match MDP shape".to_string(),
            });
        }
        let n = mdp.num_states();

        // A state with an empty action range would silently leave its Bellman
        // value at -inf and poison the whole bias vector; fail loudly instead.
        let row_ptr = mdp.csr().layout().row_ptr();
        if let Some(state) = (0..n).find(|&s| row_ptr[s + 1] == row_ptr[s]) {
            return Err(MdpError::NoActions { state });
        }

        let expected = rewards.expected_per_pair(mdp);
        let h = match initial_bias {
            Some(bias) => bias.to_vec(),
            None => vec![0.0; n],
        };
        let transitions = mdp.csr().layout().col().len();
        let threads = mass_capped_threads(self.parallelism.thread_count(), transitions);
        if threads > 1 {
            self.sweep_parallel(mdp, &expected, h, threads)
        } else {
            self.sweep_serial(mdp, &expected, h)
        }
    }

    /// Canonical greedy extraction from a converged bias vector: for every
    /// state, the *lowest-indexed* action whose Bellman value lies within
    /// [`Self::STRATEGY_TIE_TOLERANCE`]`·`[`Self::epsilon`] of the state's
    /// maximum. The aperiodicity term `(1−τ)·h(s)` is identical for all
    /// actions of a state, so it is dropped from the comparison. See
    /// [`RelativeValueIteration`] for why this — and not the raw argmax of
    /// the final sweep — is what the solver exports.
    ///
    /// Also reports whether the extraction is *borderline*: some action's
    /// gap to its state's maximum lies within `margin` of the tie cutoff, so
    /// the discrete tie set could differ under a bias reached from a
    /// different starting point. Callers refine (keep sweeping) while this
    /// holds — see [`Self::STRATEGY_TIE_GUARD`].
    fn canonical_strategy(
        &self,
        mdp: &Mdp,
        expected: &[f64],
        h: &[f64],
        margin: f64,
    ) -> (PositionalStrategy, bool) {
        let csr = mdp.csr();
        let layout = csr.layout();
        let row_ptr = layout.row_ptr();
        let action_ptr = layout.action_ptr();
        let col = layout.col();
        let prob = csr.probabilities();
        let tau = self.laziness;
        let cutoff_gap = Self::STRATEGY_TIE_TOLERANCE * self.epsilon;
        let n = mdp.num_states();
        let mut choices = vec![0usize; n];
        let mut borderline = false;
        // Per-state action values, buffered so the arena is swept once.
        let mut values: Vec<f64> = Vec::new();
        for (s, choice) in choices.iter_mut().enumerate() {
            let pair_start = row_ptr[s] as usize;
            let pair_end = row_ptr[s + 1] as usize;
            values.clear();
            let mut best = f64::NEG_INFINITY;
            for pair in pair_start..pair_end {
                let mut acc = 0.0;
                for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                    acc += prob[k] * h[col[k] as usize];
                }
                let value = expected[pair] + tau * acc;
                values.push(value);
                best = best.max(value);
            }
            let cutoff = best - cutoff_gap;
            let mut chosen = false;
            for (a, &value) in values.iter().enumerate() {
                if (best - value - cutoff_gap).abs() <= margin {
                    borderline = true;
                }
                if !chosen && value >= cutoff {
                    *choice = a;
                    chosen = true;
                }
            }
        }
        (PositionalStrategy::new(choices), borderline)
    }

    /// The historical single-threaded sweep loop.
    fn sweep_serial(
        &self,
        mdp: &Mdp,
        expected: &[f64],
        mut h: Vec<f64>,
    ) -> Result<ValueIterationOutcome, MdpError> {
        let n = mdp.num_states();
        let tau = self.laziness;

        // The whole sweep runs over the flat CSR arena: four shared slices
        // (row_ptr, action_ptr, col, prob) plus the precomputed per-pair
        // expected rewards, so the inner loop only touches probabilities and
        // the bias vector.
        let csr = mdp.csr();
        let layout = csr.layout();
        let row_ptr = layout.row_ptr();
        let action_ptr = layout.action_ptr();
        let col = layout.col();
        let prob = csr.probabilities();

        let mut next = vec![0.0; n];
        let mut best_action = vec![0usize; n];
        let reference = mdp.initial_state();
        let mut sweeps = 0usize;
        let mut refine = TieRefinement::new();

        while sweeps < self.max_iterations {
            // Full Bellman sweep: refreshes the greedy strategy and yields
            // the certified `min Δ ≤ g* ≤ max Δ` sandwich (valid for the
            // current h no matter how it was produced).
            sweeps += 1;
            let mut min_delta = f64::INFINITY;
            let mut max_delta = f64::NEG_INFINITY;
            for s in 0..n {
                let mut best = f64::NEG_INFINITY;
                let mut best_a = 0;
                let pair_start = row_ptr[s] as usize;
                let lazy = (1.0 - tau) * h[s];
                for pair in pair_start..row_ptr[s + 1] as usize {
                    let mut acc = 0.0;
                    for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                        acc += prob[k] * h[col[k] as usize];
                    }
                    let value = expected[pair] + tau * acc + lazy;
                    if value > best {
                        best = value;
                        best_a = pair - pair_start;
                    }
                }
                next[s] = best;
                best_action[s] = best_a;
                let delta = best - h[s];
                min_delta = min_delta.min(delta);
                max_delta = max_delta.max(delta);
            }
            // Relative step: renormalise so the reference state stays at 0.
            let offset = next[reference];
            for s in 0..n {
                h[s] = next[s] - offset;
            }
            if max_delta - min_delta < self.epsilon.min(refine.target) {
                let span = max_delta - min_delta;
                let (strategy, borderline) =
                    self.canonical_strategy(mdp, expected, &h, Self::STRATEGY_TIE_GUARD * span);
                if !borderline || refine.exhausted(sweeps, self.max_iterations) {
                    return Ok(ValueIterationOutcome {
                        gain: 0.5 * (min_delta + max_delta),
                        gain_lower: min_delta,
                        gain_upper: max_delta,
                        strategy,
                        bias: h,
                        iterations: sweeps,
                    });
                }
                // The clone only happens on the rare borderline path.
                let outcome = ValueIterationOutcome {
                    gain: 0.5 * (min_delta + max_delta),
                    gain_lower: min_delta,
                    gain_upper: max_delta,
                    strategy,
                    bias: h.clone(),
                    iterations: sweeps,
                };
                refine.continue_past(outcome, span, sweeps);
            }

            // Policy-restricted evaluation sweeps: hold the greedy strategy
            // fixed and sweep only its transitions — a fraction of the full
            // sweep's cost with the same per-sweep contraction of the bias.
            for _ in 0..self.evaluation_sweeps {
                if sweeps >= self.max_iterations {
                    break;
                }
                sweeps += 1;
                for s in 0..n {
                    let pair = row_ptr[s] as usize + best_action[s];
                    let mut acc = 0.0;
                    for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                        acc += prob[k] * h[col[k] as usize];
                    }
                    next[s] = expected[pair] + tau * acc + (1.0 - tau) * h[s];
                }
                let offset = next[reference];
                for s in 0..n {
                    h[s] = next[s] - offset;
                }
            }
        }
        if let Some(outcome) = refine.fallback {
            return Ok(outcome);
        }
        Err(MdpError::ConvergenceFailure {
            method: "relative value iteration",
            iterations: self.max_iterations,
        })
    }

    /// Row-block parallel sweep loop: the state range is partitioned into
    /// contiguous blocks balanced by transition mass, every sweep fans the
    /// blocks over a scoped pool (kept alive across all sweeps of the
    /// solve), each block writes a disjoint slice of the next iterate, and
    /// the span statistics are reduced per block and folded in block order.
    /// Each state runs exactly the serial arithmetic against the same
    /// previous iterate, so the outcome — gain bounds, strategy, bias and
    /// sweep count — is bit-identical to [`RelativeValueIteration::sweep_serial`]
    /// for any thread count.
    fn sweep_parallel(
        &self,
        mdp: &Mdp,
        expected: &[f64],
        h: Vec<f64>,
        threads: usize,
    ) -> Result<ValueIterationOutcome, MdpError> {
        let n = mdp.num_states();
        let tau = self.laziness;
        let csr = mdp.csr();
        let layout = csr.layout();
        let row_ptr = layout.row_ptr();
        let action_ptr = layout.action_ptr();
        let col = layout.col();
        let prob = csr.probabilities();
        let reference = mdp.initial_state();

        // Per-state sweep cost is its transition count: cumulative mass at
        // state s is the arena offset of its first transition.
        let cumulative: Vec<usize> = (0..=n)
            .map(|s| action_ptr[row_ptr[s] as usize] as usize)
            .collect();
        let blocks = mass_balanced_blocks(&cumulative, threads);
        if blocks.len() <= 1 {
            return self.sweep_serial(mdp, expected, h);
        }

        struct Chunk {
            next: Vec<f64>,
            best: Vec<usize>,
        }
        struct BlockStats {
            min_delta: f64,
            max_delta: f64,
            /// The new value of the reference state, reported by the one
            /// block that contains it.
            reference: Option<f64>,
        }
        #[derive(Clone, Copy)]
        enum SweepKind {
            /// Full Bellman sweep: maximise over all actions, refresh the
            /// greedy strategy, report span statistics.
            Bellman,
            /// Policy-restricted evaluation sweep over the block's own last
            /// greedy actions.
            Evaluation,
        }

        let h = RwLock::new(h);
        let chunks: Vec<Mutex<Chunk>> = blocks
            .iter()
            .map(|range| {
                Mutex::new(Chunk {
                    next: vec![0.0; range.len()],
                    best: vec![0usize; range.len()],
                })
            })
            .collect();

        let run_block = |block: usize, kind: &SweepKind| -> BlockStats {
            let range = blocks[block].clone();
            // Lock poisoning only means another block's worker panicked; the
            // buffers hold plain numeric data written in disjoint slices, so
            // recovery is sound — the originating panic still propagates
            // through the sweep scope's join.
            let h_read = h.read().unwrap_or_else(PoisonError::into_inner);
            let h_read = &h_read[..];
            let mut chunk = chunks[block].lock().unwrap_or_else(PoisonError::into_inner);
            let chunk = &mut *chunk;
            let mut stats = BlockStats {
                min_delta: f64::INFINITY,
                max_delta: f64::NEG_INFINITY,
                reference: None,
            };
            match kind {
                SweepKind::Bellman => {
                    for s in range.clone() {
                        let mut best = f64::NEG_INFINITY;
                        let mut best_a = 0;
                        let pair_start = row_ptr[s] as usize;
                        let lazy = (1.0 - tau) * h_read[s];
                        for pair in pair_start..row_ptr[s + 1] as usize {
                            let mut acc = 0.0;
                            for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                                acc += prob[k] * h_read[col[k] as usize];
                            }
                            let value = expected[pair] + tau * acc + lazy;
                            if value > best {
                                best = value;
                                best_a = pair - pair_start;
                            }
                        }
                        chunk.next[s - range.start] = best;
                        chunk.best[s - range.start] = best_a;
                        let delta = best - h_read[s];
                        stats.min_delta = stats.min_delta.min(delta);
                        stats.max_delta = stats.max_delta.max(delta);
                        if s == reference {
                            stats.reference = Some(best);
                        }
                    }
                }
                SweepKind::Evaluation => {
                    for s in range.clone() {
                        let pair = row_ptr[s] as usize + chunk.best[s - range.start];
                        let mut acc = 0.0;
                        for k in action_ptr[pair] as usize..action_ptr[pair + 1] as usize {
                            acc += prob[k] * h_read[col[k] as usize];
                        }
                        let value = expected[pair] + tau * acc + (1.0 - tau) * h_read[s];
                        chunk.next[s - range.start] = value;
                        if s == reference {
                            stats.reference = Some(value);
                        }
                    }
                }
            }
            stats
        };

        // Renormalise exactly like the serial relative step: every state of
        // the new iterate shifted so the reference state stays at 0.
        let apply_renormalised = |offset: f64| {
            let mut h_write = h.write().unwrap_or_else(PoisonError::into_inner);
            for (range, chunk) in blocks.iter().zip(&chunks) {
                let chunk = chunk.lock().unwrap_or_else(PoisonError::into_inner);
                for (i, &value) in chunk.next.iter().enumerate() {
                    h_write[range.start + i] = value - offset;
                }
            }
        };
        // The blocks partition `0..n` and `reference < n`, so exactly one
        // block reports the reference value; a missing report is a broken
        // partition and surfaces as a typed error instead of a panic.
        let reference_offset = |round: &[BlockStats]| -> Result<f64, MdpError> {
            round
                .iter()
                .find_map(|stats| stats.reference)
                .ok_or(MdpError::InvariantViolation {
                    detail: "no sweep block contains the reference state",
                })
        };

        sweep_scope(blocks.len() - 1, run_block, |pool| {
            let mut sweeps = 0usize;
            let mut refine = TieRefinement::new();
            while sweeps < self.max_iterations {
                sweeps += 1;
                let round = pool.round(SweepKind::Bellman);
                let mut min_delta = f64::INFINITY;
                let mut max_delta = f64::NEG_INFINITY;
                for stats in &round {
                    min_delta = min_delta.min(stats.min_delta);
                    max_delta = max_delta.max(stats.max_delta);
                }
                apply_renormalised(reference_offset(&round)?);
                if max_delta - min_delta < self.epsilon.min(refine.target) {
                    let span = max_delta - min_delta;
                    let bias = h.read().unwrap_or_else(PoisonError::into_inner).clone();
                    // The canonical extraction runs serially over the final
                    // bias — a per-state pure function of `bias`, so it (and
                    // the borderline check plus any refinement rounds it
                    // triggers) is trivially identical to the serial path's.
                    let (strategy, borderline) = self.canonical_strategy(
                        mdp,
                        expected,
                        &bias,
                        Self::STRATEGY_TIE_GUARD * span,
                    );
                    let outcome = ValueIterationOutcome {
                        gain: 0.5 * (min_delta + max_delta),
                        gain_lower: min_delta,
                        gain_upper: max_delta,
                        strategy,
                        bias,
                        iterations: sweeps,
                    };
                    if !borderline || refine.exhausted(sweeps, self.max_iterations) {
                        return Ok(outcome);
                    }
                    refine.continue_past(outcome, span, sweeps);
                }
                for _ in 0..self.evaluation_sweeps {
                    if sweeps >= self.max_iterations {
                        break;
                    }
                    sweeps += 1;
                    let round = pool.round(SweepKind::Evaluation);
                    apply_renormalised(reference_offset(&round)?);
                }
            }
            if let Some(outcome) = refine.fallback {
                return Ok(outcome);
            }
            Err(MdpError::ConvergenceFailure {
                method: "relative value iteration",
                iterations: self.max_iterations,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MdpBuilder;

    fn solve(mdp: &Mdp, rewards: &TransitionRewards) -> ValueIterationOutcome {
        RelativeValueIteration::with_epsilon(1e-9)
            .solve(mdp, rewards)
            .unwrap()
    }

    #[test]
    fn single_state_gain_is_reward() {
        let mut b = MdpBuilder::new(1);
        b.add_action(0, "loop", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |_, _, _| -1.25);
        let out = solve(&mdp, &r);
        assert!((out.gain + 1.25).abs() < 1e-8);
        assert!(out.gain_lower <= out.gain && out.gain <= out.gain_upper);
    }

    #[test]
    fn chooses_the_better_loop() {
        // State 0 can stay (reward 1) or go to state 1 (reward 0) where the
        // chain loops with reward 3. Optimal gain is 3.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, "stay", vec![(0, 1.0)]).unwrap();
        b.add_action(0, "go", vec![(1, 1.0)]).unwrap();
        b.add_action(1, "loop", vec![(1, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, a, _| match (s, a) {
            (0, 0) => 1.0,
            (0, 1) => 0.0,
            (1, 0) => 3.0,
            _ => unreachable!(),
        });
        let out = solve(&mdp, &r);
        assert!((out.gain - 3.0).abs() < 1e-7);
        assert_eq!(
            out.strategy.action(0),
            1,
            "should leave for the better loop"
        );
    }

    #[test]
    fn periodic_chain_converges_thanks_to_laziness() {
        // A deterministic 2-cycle alternating rewards 0 and 1: gain 0.5.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, "a", vec![(1, 1.0)]).unwrap();
        b.add_action(1, "b", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, _, _| s as f64);
        let out = solve(&mdp, &r);
        assert!((out.gain - 0.5).abs() < 1e-7);
    }

    #[test]
    fn stochastic_mdp_matches_hand_computation() {
        // Single action: stay in 0 w.p. 0.75 earning 2, move to 1 earning 0;
        // from 1 return to 0 w.p. 1 earning 0. Stationary distribution is
        // (0.8, 0.2); expected reward in state 0 is 0.75*2 = 1.5, so the gain
        // is 0.8 * 1.5 = 1.2.
        let mut b = MdpBuilder::new(2);
        b.add_action(0, "a", vec![(0, 0.75), (1, 0.25)]).unwrap();
        b.add_action(1, "b", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r =
            TransitionRewards::from_fn(&mdp, |s, _, t| if s == 0 && t == 0 { 2.0 } else { 0.0 });
        let out = solve(&mdp, &r);
        assert!((out.gain - 1.2).abs() < 1e-7, "gain {}", out.gain);
    }

    #[test]
    fn rejects_invalid_parameters_and_shapes() {
        let mut b = MdpBuilder::new(1);
        b.add_action(0, "loop", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::zeros(&mdp);

        let bad_eps = RelativeValueIteration {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            bad_eps.solve(&mdp, &r),
            Err(MdpError::InvalidParameter {
                name: "epsilon",
                ..
            })
        ));

        let bad_tau = RelativeValueIteration {
            laziness: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            bad_tau.solve(&mdp, &r),
            Err(MdpError::InvalidParameter {
                name: "laziness",
                ..
            })
        ));

        let mut other = MdpBuilder::new(2);
        other.add_action(0, "x", vec![(1, 1.0)]).unwrap();
        other.add_action(1, "y", vec![(0, 1.0)]).unwrap();
        let other = other.build(0).unwrap();
        let wrong = TransitionRewards::zeros(&other);
        assert!(matches!(
            RelativeValueIteration::default().solve(&mdp, &wrong),
            Err(MdpError::RewardShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_action_range_fails_loudly() {
        use crate::csr::{CsrLayout, CsrMdp};
        use std::sync::Arc;
        // State 1 has no actions — only constructible through the raw-parts
        // path (the builders reject it); the solver must not propagate -inf.
        let layout = CsrLayout::from_raw_parts(vec![0, 1, 1], vec![0, 1], vec![0]).unwrap();
        let csr = CsrMdp::from_raw_parts(
            Arc::new(layout),
            vec![1.0],
            vec!["loop".to_string()],
            vec![0],
            0,
        )
        .unwrap();
        let mdp = crate::Mdp::from(csr);
        let rewards = TransitionRewards::zeros(&mdp);
        assert!(matches!(
            RelativeValueIteration::default().solve(&mdp, &rewards),
            Err(MdpError::NoActions { state: 1 })
        ));
    }

    #[test]
    fn warm_start_validates_and_matches_cold_result() {
        let mut b = MdpBuilder::new(2);
        b.add_action(0, "a", vec![(0, 0.75), (1, 0.25)]).unwrap();
        b.add_action(1, "b", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r =
            TransitionRewards::from_fn(&mdp, |s, _, t| if s == 0 && t == 0 { 2.0 } else { 0.0 });
        let solver = RelativeValueIteration::with_epsilon(1e-9);
        let cold = solver.solve(&mdp, &r).unwrap();
        let warm = solver.solve_from(&mdp, &r, &cold.bias).unwrap();
        assert!((warm.gain - cold.gain).abs() < 2e-9);
        assert_eq!(warm.strategy, cold.strategy);
        assert!(warm.iterations <= cold.iterations);

        assert!(matches!(
            solver.solve_from(&mdp, &r, &[0.0]),
            Err(MdpError::RewardShapeMismatch { .. })
        ));
        assert!(matches!(
            solver.solve_from(&mdp, &r, &[0.0, f64::NAN]),
            Err(MdpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn interleaved_evaluation_sweeps_match_plain_value_iteration() {
        // Modified policy iteration (evaluation sweeps interleaved) and plain
        // RVI must certify the same gain and strategy.
        let mut b = MdpBuilder::new(3);
        b.add_action(0, "a0", vec![(1, 0.6), (2, 0.4)]).unwrap();
        b.add_action(0, "a1", vec![(0, 0.5), (2, 0.5)]).unwrap();
        b.add_action(1, "b0", vec![(0, 1.0)]).unwrap();
        b.add_action(1, "b1", vec![(2, 1.0)]).unwrap();
        b.add_action(2, "c0", vec![(0, 0.5), (1, 0.5)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, a, t| {
            0.3 * s as f64 + 0.7 * a as f64 - 0.1 * t as f64
        });
        let plain = RelativeValueIteration {
            epsilon: 1e-10,
            evaluation_sweeps: 0,
            ..Default::default()
        }
        .solve(&mdp, &r)
        .unwrap();
        let interleaved = RelativeValueIteration {
            epsilon: 1e-10,
            evaluation_sweeps: 8,
            ..Default::default()
        }
        .solve(&mdp, &r)
        .unwrap();
        assert!((plain.gain - interleaved.gain).abs() < 1e-9);
        assert_eq!(plain.strategy, interleaved.strategy);
        assert!(interleaved.gain_lower <= interleaved.gain_upper);
    }

    #[test]
    fn value_iteration_bounds_contain_exact_gain() {
        // The certified interval must contain the exact optimum that Howard
        // policy iteration computes with dense linear solves.
        let mut b = MdpBuilder::new(3);
        b.add_action(0, "a0", vec![(1, 0.6), (2, 0.4)]).unwrap();
        b.add_action(0, "a1", vec![(0, 0.5), (2, 0.5)]).unwrap();
        b.add_action(1, "b0", vec![(0, 1.0)]).unwrap();
        b.add_action(1, "b1", vec![(2, 1.0)]).unwrap();
        b.add_action(2, "c0", vec![(0, 0.5), (1, 0.5)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, a, t| {
            0.3 * s as f64 + 0.7 * a as f64 - 0.1 * t as f64
        });
        let (exact, _) = crate::PolicyIteration::default().solve(&mdp, &r).unwrap();
        let vi = RelativeValueIteration::with_epsilon(1e-4)
            .solve(&mdp, &r)
            .unwrap();
        assert!(vi.gain_lower <= exact + 1e-9);
        assert!(exact <= vi.gain_upper + 1e-9);
        assert!(vi.gain_upper - vi.gain_lower <= 1e-4 + 1e-12);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let mut b = MdpBuilder::new(2);
        b.add_action(0, "a", vec![(1, 1.0)]).unwrap();
        b.add_action(1, "b", vec![(0, 1.0)]).unwrap();
        let mdp = b.build(0).unwrap();
        let r = TransitionRewards::from_fn(&mdp, |s, _, _| s as f64);
        let solver = RelativeValueIteration {
            epsilon: 1e-14,
            max_iterations: 2,
            ..Default::default()
        };
        assert!(matches!(
            solver.solve(&mdp, &r),
            Err(MdpError::ConvergenceFailure { .. })
        ));
    }
}

//! Micro-benchmarks of the solver substrate: mean-payoff solvers on the
//! selfish-mining MDP and the building blocks they rest on (relative value
//! iteration vs exact policy iteration; bisection vs Dinkelbach search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfish_mining::experiments::{coarse_p_grid, PAPER_GAMMA_GRID};
use selfish_mining::{
    AnalysisConfig, AnalysisProcedure, AttackParams, ParametricModel, SelfishMiningModel,
    SolverParallelism,
};
use sm_mdp::{PolicyIteration, RelativeValueIteration};
use sm_sweep::SweepConfig;

fn model() -> SelfishMiningModel {
    let params = AttackParams::new(0.3, 0.5, 2, 1, 4).unwrap();
    SelfishMiningModel::build(&params).unwrap()
}

/// Model construction plus one relative-value-iteration solve of
/// `r_β = r_A − β(r_A + r_H)` through the streamed flat CSR arena.
fn bench_construction_plus_vi(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr/build_plus_vi");
    group.sample_size(10);
    let beta = 0.35;
    for (depth, forks) in [(2usize, 1usize), (2, 2)] {
        let params = AttackParams::new(0.3, 0.5, depth, forks, 4).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("csr_stream_d{depth}_f{forks}")),
            &params,
            |b, params| {
                b.iter(|| {
                    let model = SelfishMiningModel::build(params).unwrap();
                    let rewards = model.beta_rewards(beta).unwrap();
                    RelativeValueIteration::with_epsilon(1e-6)
                        .solve(model.mdp(), &rewards)
                        .unwrap()
                        .gain
                });
            },
        );
    }
    group.finish();
}

fn bench_mean_payoff_methods(c: &mut Criterion) {
    let model = model();
    let rewards = model.beta_rewards(0.35).unwrap();
    let mut group = c.benchmark_group("solver/mean_payoff_d2_f1");
    group.bench_function("value_iteration", |b| {
        let solver = RelativeValueIteration::with_epsilon(1e-6);
        b.iter(|| solver.solve(model.mdp(), &rewards).unwrap().gain);
    });
    group.bench_function("policy_iteration", |b| {
        b.iter(|| {
            PolicyIteration::default()
                .solve(model.mdp(), &rewards)
                .unwrap()
                .0
        });
    });
    group.finish();
}

fn bench_search_strategies(c: &mut Criterion) {
    let model = model();
    let mut group = c.benchmark_group("solver/search_d2_f1");
    group.sample_size(10);
    group.bench_function("bisection", |b| {
        b.iter(|| {
            AnalysisProcedure::with_epsilon(1e-3)
                .solve(&model)
                .unwrap()
                .expected_relative_revenue
        });
    });
    group.bench_function("dinkelbach", |b| {
        b.iter(|| {
            AnalysisProcedure::with_epsilon(1e-3)
                .solve_dinkelbach(&model)
                .unwrap()
                .strategy_revenue
        });
    });
    group.finish();
}

/// Thread-scaling of the intra-solve parallel Bellman/chain sweeps on a
/// *single* instance — the acceptance workload of the row-block parallelism
/// layer: one full warm-free Dinkelbach analysis (several relative-value-
/// iteration solves plus fused revenue evaluations) at `p = 0.3, γ = 0.5`,
/// solved with 1/2/4/8 intra-solve threads. Results are bit-identical across
/// the row; only the wall-clock time may differ. The `d = 3, f = 2` row
/// (tens of thousands of states) is gated behind `SM_BENCH_EXPENSIVE`; the
/// numbers feed the "Intra-solve scaling" table in `EXPERIMENTS.md`.
fn bench_intra_parallel_scaling(c: &mut Criterion) {
    let mut configs: Vec<(usize, usize)> = vec![(2, 2)];
    if sm_bench::expensive_enabled() {
        configs.push((3, 2));
    }
    for (depth, forks) in configs {
        let family = ParametricModel::build(depth, forks, 4).unwrap();
        let model = family.instantiate(0.3, 0.5).unwrap();
        let mut group = c.benchmark_group(format!("solver/intra_parallel_d{depth}_f{forks}"));
        group.sample_size(5);
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new("threads", threads),
                &threads,
                |b, &threads| {
                    let procedure = AnalysisProcedure::new(
                        AnalysisConfig::with_epsilon(1e-3)
                            .with_parallelism(SolverParallelism::threads(threads)),
                    );
                    b.iter(|| procedure.solve_dinkelbach(&model).unwrap().strategy_revenue);
                },
            );
        }
        group.finish();
    }
}

/// One cold relative-value-iteration solve at fixed `β = 0.35` per
/// topology: the Jacobi rows of the former sweep-kernel ablation, whose
/// `solver/kernel_*/jacobi` names the baselines keep. The `d = 3, f = 2` and
/// `d = 4, f = 3` rows are gated behind `SM_BENCH_EXPENSIVE` (the d4f3 arena
/// holds millions of states); their numbers feed the "Scaling to d = 4,
/// f = 3" section of EXPERIMENTS.md.
fn bench_jacobi_solve(c: &mut Criterion) {
    // `(depth, forks, levels)`: the d4f3 scale target runs at level budget
    // l = 2 — the only budget whose reachable set fits the solver's default
    // 12M-state limit (~3.0M states / 22.9M transitions at l = 2).
    let mut configs: Vec<(usize, usize, usize)> = vec![(2, 2, 4)];
    if sm_bench::expensive_enabled() {
        configs.push((3, 2, 4));
        configs.push((4, 3, 2));
    }
    for (depth, forks, levels) in configs {
        let family = ParametricModel::build(depth, forks, levels).unwrap();
        let model = family.instantiate(0.3, 0.5).unwrap();
        let rewards = model.beta_rewards(0.35).unwrap();
        // The d4f3 row solves cold (no warm start) — at the 1e-6 precision of
        // the smaller rows a single solve would dominate the nightly budget,
        // so it runs at 1e-4, matching the d4f3 thread-scaling group.
        let epsilon = if depth >= 4 { 1e-4 } else { 1e-6 };
        let mut group = c.benchmark_group(format!("solver/kernel_d{depth}_f{forks}"));
        group.sample_size(3);
        group.bench_function("jacobi", |b| {
            let solver = RelativeValueIteration::with_epsilon(epsilon);
            b.iter(|| solver.solve(model.mdp(), &rewards).unwrap().gain);
        });
        group.finish();
    }
}

/// Thread-scaling of the parallel Jacobi Bellman sweeps on the `d = 4,
/// f = 3` arena — the scale target of the compact-arena work: one
/// relative-value-iteration solve at fixed `β` per thread count. Gated
/// entirely behind `SM_BENCH_EXPENSIVE`; runs in the nightly CI job.
fn bench_d4f3_thread_scaling(c: &mut Criterion) {
    if !sm_bench::expensive_enabled() {
        return;
    }
    // Level budget l = 2: see `bench_jacobi_solve` for the sizing argument.
    let family = ParametricModel::build(4, 3, 2).unwrap();
    let model = family.instantiate(0.3, 0.5).unwrap();
    let rewards = model.beta_rewards(0.35).unwrap();
    let mut group = c.benchmark_group("solver/intra_parallel_d4_f3");
    group.sample_size(2);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let solver = RelativeValueIteration::with_epsilon(1e-4)
                    .with_parallelism(SolverParallelism::threads(threads));
                b.iter(|| solver.solve(model.mdp(), &rewards).unwrap().gain);
            },
        );
    }
    group.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/model_build");
    for (depth, forks) in [(2usize, 1usize), (2, 2)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{depth}_f{forks}")),
            &(depth, forks),
            |b, &(depth, forks)| {
                b.iter(|| {
                    let params = AttackParams::new(0.3, 0.5, depth, forks, 4).unwrap();
                    SelfishMiningModel::build(&params).unwrap().num_states()
                });
            },
        );
    }
    group.finish();
}

/// The full Figure-2 coarse sweep (`coarse_p_grid` × `PAPER_GAMMA_GRID` ×
/// the default attack grid, single-tree baseline included) through the
/// `sm-sweep` engine: one parametric arena per `(d, f)` shared across the
/// grid, in-place `(p, γ)` re-instantiation per point, and warm-started
/// solves along each `p` curve, fanned out over the worker pool.
fn bench_figure2_coarse_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep/figure2_coarse");
    group.sample_size(2);
    let attack_grid = [(1usize, 1usize), (2, 1), (2, 2)];
    let epsilon = 1e-3;
    let ps = coarse_p_grid();

    group.bench_function("parametric_warm_engine", |b| {
        let config = SweepConfig {
            attack_grid: attack_grid.to_vec(),
            epsilon,
            ..SweepConfig::default()
        };
        b.iter(|| {
            config
                .run(&PAPER_GAMMA_GRID, &ps)
                .unwrap()
                .iter()
                .map(|point| point.attack_revenue.iter().sum::<f64>() + point.single_tree_revenue)
                .sum::<f64>()
        });
    });
    group.finish();
}

/// Certificate-audit throughput: one full re-validation (fingerprint, shape
/// obligations, three Jacobi residual passes) of a certified solve on the
/// pinned topologies. The audit must stay a single O(transitions) pass per
/// sweep — a regression here means the checker grew solver-shaped work. The
/// `d = 3, f = 2` row is gated behind `SM_BENCH_EXPENSIVE` like the other
/// large-arena groups; its setup includes one certified solve.
fn bench_certificate_audit(c: &mut Criterion) {
    use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact};

    let mut configs: Vec<(usize, usize)> = vec![(2, 2)];
    if sm_bench::expensive_enabled() {
        configs.push((3, 2));
    }
    for (depth, forks) in configs {
        let family = ParametricModel::build(depth, forks, 4).unwrap();
        let solves =
            selfish_mining::experiments::attack_curve_certified(&family, 0.5, &[0.3], 1e-3, false)
                .unwrap();
        let model = family.instantiate(0.3, 0.5).unwrap();
        let artifact = CertificateArtifact::from_certified(&solves[0], &model).unwrap();
        let config = AuditConfig::default();
        let mut group = c.benchmark_group("audit");
        group.sample_size(10);
        group.bench_function(format!("certificate_d{depth}f{forks}"), |b| {
            b.iter(|| audit_certificate(&artifact, &model, &config).passed());
        });
        group.finish();
    }
}

/// Warm-vs-cold latency of the certified-analysis query service on its
/// acceptance workload (`d = 2, f = 2`, `ε = 10⁻³`, `p` off the anchor
/// lattice). The cold arm stands up a fresh service per iteration, so it
/// pays the arena build, the whole anchor chain up to `p`'s cell and the
/// final probe; the warm arm asks one long-lived service a *distinct,
/// never-repeated* off-lattice `p` inside an already-advanced cell each
/// iteration, so the timed work is exactly one warm-started probe — no memo
/// hits, no chain advances, no arena builds. Both arms return bit-identical
/// intervals for equal queries (the determinism suite in `tests/service.rs`
/// checks that); this group gates only the speedup, which must stay ≥ 5×.
fn bench_service_warm_vs_cold(c: &mut Criterion) {
    use sm_service::{Query, Service, ServiceConfig};
    use std::cell::Cell;

    let query = |p: f64| Query {
        depth: 2,
        forks_per_block: 2,
        p,
        ..Query::default()
    };
    let mut group = c.benchmark_group("service/query_warm_vs_cold");
    group.sample_size(10);
    group.bench_function("cold_first_query_d2_f2", |b| {
        b.iter(|| {
            let service = Service::new(ServiceConfig::default()).unwrap();
            service.answer(&query(0.325)).unwrap().interval.beta_low
        });
    });
    group.bench_function("warm_probe_d2_f2", |b| {
        let service = Service::new(ServiceConfig::default()).unwrap();
        service.answer(&query(0.325)).unwrap();
        let step = Cell::new(0u64);
        b.iter(|| {
            let offset = step.get();
            step.set(offset + 1);
            let p = 0.300_001 + offset as f64 * 1e-6;
            service.answer(&query(p)).unwrap().interval.beta_low
        });
    });
    group.finish();
}

/// Per-backend arrival-draw throughput: 10 000 `next_block` draws at
/// `p = 0.3, σ = 3` through each consensus backend's `ArrivalSource`. The
/// Bernoulli source is one RNG draw per step and anchors the group; the
/// proof-backed sources pay their real proof mechanisms (stake-table
/// lottery, plot race, space-time prove + VDF, VDF beacon), so this gates
/// the conformance estimator's per-step cost under `--backends all` — a
/// regression here multiplies straight into every multi-backend
/// certification run.
fn bench_backend_draw(c: &mut Criterion) {
    use rand::{rngs::StdRng, SeedableRng};
    use selfish_mining::ConsensusBackend;

    let mut group = c.benchmark_group("arrivals/backend_draw");
    group.sample_size(10);
    for backend in ConsensusBackend::default_family() {
        group.bench_function(format!("{backend}_10k_draws"), |b| {
            b.iter(|| {
                let mut source = backend.source(0.3, 0xA11CE).unwrap();
                let mut rng = StdRng::seed_from_u64(0xFACADE);
                let mut adversary_wins = 0usize;
                for _ in 0..10_000 {
                    if let sm_chain::ArrivalEvent::Adversary { .. } = source.next_block(&mut rng, 3)
                    {
                        adversary_wins += 1;
                    }
                }
                adversary_wins
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backend_draw,
    bench_mean_payoff_methods,
    bench_search_strategies,
    bench_model_construction,
    bench_construction_plus_vi,
    bench_intra_parallel_scaling,
    bench_jacobi_solve,
    bench_d4f3_thread_scaling,
    bench_figure2_coarse_sweep,
    bench_certificate_audit,
    bench_service_warm_vs_cold
);
criterion_main!(benches);

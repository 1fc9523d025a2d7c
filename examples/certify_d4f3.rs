//! End-to-end certification at the compact-arena scale target: build the
//! `d = 4, f = 3` topology (level budget `l = 2`, ~3.0M states / 22.9M
//! transitions — the only level budget whose reachable set fits the solver's
//! default 12M-state limit), instantiate one `(p, γ)` point and certify its
//! expected relative revenue with the Dinkelbach analysis.
//!
//! ```text
//! cargo run --release --example certify_d4f3
//! ```
//!
//! Runs in the nightly CI job as the scale proof of the compact CSR arena:
//! it must build, instantiate and certify without exhausting memory or the
//! nightly wall-clock budget. `SM_EPSILON` sets the certification precision
//! (default `1e-3`).

use selfish_mining::experiments::CertifiedSolve;
use selfish_mining::{AnalysisConfig, AnalysisProcedure, ParametricModel, SolverParallelism};
use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let epsilon: f64 = std::env::var("SM_EPSILON")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1e-3);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let start = Instant::now();
    let family = ParametricModel::build(4, 3, 2)?;
    println!(
        "build   d=4 f=3 l=2: {} states, {} pairs, {} transitions in {:.1?}",
        family.num_states(),
        family.num_pairs(),
        family.num_transitions(),
        start.elapsed()
    );
    println!(
        "arena   layout {} B + term tables {} B",
        family.layout_bytes(),
        family.term_table_bytes()
    );

    let (p, gamma) = (0.35, 0.5);
    let stage = Instant::now();
    let model = family.instantiate(p, gamma)?;
    println!("instantiate p={p} gamma={gamma}: {:.1?}", stage.elapsed());

    let stage = Instant::now();
    let procedure = AnalysisProcedure::new(
        AnalysisConfig::with_epsilon(epsilon).with_parallelism(SolverParallelism::threads(threads)),
    );
    let result = procedure.solve_dinkelbach(&model)?;
    println!(
        "certify ({threads} threads): beta in [{:.6}, {:.6}] after {} solves, {:.1?}",
        result.beta_low,
        result.beta_up,
        result.steps.len(),
        stage.elapsed()
    );
    assert!(result.beta_up - result.beta_low <= epsilon + 1e-12);

    // Package the solve as a certificate artifact, round-trip it through the
    // JSON form nightly CI archives, and re-validate it with the independent
    // auditor — three solver-free residual passes over the 22.9M-transition
    // arena, a few percent of one solve's wall-clock time.
    let stage = Instant::now();
    let solve = CertifiedSolve {
        scenario: family.scenario(),
        p,
        gamma,
        beta_low: result.beta_low,
        beta_up: result.beta_up,
        strategy_revenue: result.strategy_revenue,
        strategy: result.strategy,
        epsilon,
        bias: result.bias,
    };
    let artifact = CertificateArtifact::from_certified(&solve, &model)?;
    let artifact = CertificateArtifact::from_json(&artifact.to_json())?;
    let report = audit_certificate(&artifact, &model, &AuditConfig::default());
    println!(
        "audit   digest {:016x}: {} in {:.1?}",
        artifact.fingerprint,
        if report.passed() { "PASS" } else { "FAIL" },
        stage.elapsed()
    );
    if !report.passed() {
        eprintln!("{report}");
        return Err("certificate audit failed".into());
    }
    println!("total   {:.1?}", start.elapsed());
    Ok(())
}

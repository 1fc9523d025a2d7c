//! The four workloads. Each takes a [`Size`], the [`Reps`] of its unit of
//! work, the run's span [`Recorder`] and, if its inputs are seeded, the seed,
//! and returns an [`Outcome`].
//!
//! Every time a run reports is built from the fastest of several
//! repetitions of the same deterministic work. Other tenants of a shared
//! host slow an operation down in bursts that can last many seconds; they
//! never speed one up, so the fastest repetition of an operation is the one
//! least disturbed. A workload's timed unit is split into operations of at
//! most a few hundred milliseconds, short enough that every run finds quiet
//! moments for each of them, and `run_s` is the sum of their fastest times
//! (see [`FastestOps`] and `perfbench/README.md`, Steadiness).

pub mod certify;
pub mod curve;
pub mod grid;
pub mod service;

use crate::procfs;
use crate::stats;
use crate::trace::Recorder;
use selfish_mining::experiments::CertifiedSolve;
use selfish_mining::SelfishMiningModel;
use sm_audit::{audit_certificate, AuditConfig, CertificateArtifact};
use std::time::{Duration, Instant};

/// Problem size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale stand-ins with the same code paths, for tests.
    Tiny,
}

impl Size {
    /// `full` or `tiny` by size.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// How many times a run repeats its workload's unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reps {
    /// Repeat for about this long, counting the checks between repetitions:
    /// another repetition starts only while the time spent so far plus the
    /// longest repetition yet fits. There is always at least one.
    For(Duration),
    /// Exactly this many (traced runs and tests).
    Exactly(usize),
}

impl Reps {
    /// Whether to start another repetition after `done` of them, `elapsed`
    /// since the first started, the longest of which took `longest`.
    pub fn another(self, done: usize, elapsed: Duration, longest: Duration) -> bool {
        match self {
            Reps::For(budget) => done == 0 || elapsed + longest <= budget,
            Reps::Exactly(n) => done < n,
        }
    }
}

/// Runs `rep(i)` for `i = 0, 1, …` as long as `reps` allows, and returns
/// the number of repetitions made. `rep` returns `false` to stop early (a
/// failed repetition).
pub fn repeat(reps: Reps, mut rep: impl FnMut(usize) -> bool) -> usize {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut done = 0;
    while reps.another(done, start.elapsed(), longest) {
        let began = Instant::now();
        let go_on = rep(done);
        longest = longest.max(began.elapsed());
        done += 1;
        if !go_on {
            break;
        }
    }
    done
}

/// The fastest time of each operation of a timed unit of work over the
/// run's repetitions of that unit. Operation `i` must do the same work in
/// every repetition; the workloads check that by comparing outputs.
#[derive(Debug, Default, Clone)]
pub struct FastestOps(Vec<f64>);

impl FastestOps {
    /// Records that operation `i` of one repetition took `seconds`.
    pub fn record(&mut self, i: usize, seconds: f64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, f64::INFINITY);
        }
        self.0[i] = self.0[i].min(seconds);
    }

    /// Sum of the fastest times: the unit's time with every operation at its
    /// least disturbed. 0 before anything is recorded.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Fastest set-up wall time of the run, seconds.
    pub setup_s: f64,
    /// Wall time of the timed unit of work with each of its operations at
    /// its fastest over the repetitions ([`FastestOps::total`]), seconds.
    pub run_s: f64,
    /// Repetitions of the timed unit of work.
    pub reps: usize,
    /// Operations attempted (certified points or queries).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Every failed check, for the log.
    pub failures: Vec<String>,
    /// Resident bytes the library accounts for (arena layout plus term
    /// tables), in MiB.
    pub accounted_mb: f64,
    /// Per-layer metrics, filled in traced runs.
    pub layer: Vec<(&'static str, f64)>,
    /// Highest resident set, in MiB, reached before each of the benchmark's
    /// own checks that run between timed operations (see
    /// [`Outcome::off_peak`]).
    pub peak_before_checks_mb: f64,
}

impl Outcome {
    /// Records one operation and the checks it failed.
    pub fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Records a failed check that belongs to no single operation (a
    /// reference value or a whole-run invariant).
    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Runs one of the benchmark's own checks between timed operations so
    /// that it cannot set the reported peak RSS: the high-water mark reached
    /// so far is kept, the memory the check freed is handed back to the
    /// kernel, and the mark is reset once the check is done.
    pub fn off_peak<T>(&mut self, check: impl FnOnce() -> T) -> T {
        if let Some(mb) = procfs::peak_rss_mb() {
            self.peak_before_checks_mb = self.peak_before_checks_mb.max(mb);
        }
        let value = check();
        procfs::release_free_heap();
        procfs::reset_peak_rss();
        value
    }

    /// Lowers `setup_s` to the fastest set-up of the second window, taken
    /// after the timed phase (see [`SETUP_SPAN`]).
    pub fn setup_again<E: std::fmt::Display>(&mut self, again: Result<f64, E>) {
        match again {
            Ok(seconds) => self.setup_s = self.setup_s.min(seconds),
            Err(err) => self.fail(format!("set-up after the timed phase: {err}")),
        }
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// SplitMix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Set-ups are repeated for at least this long in each of two windows, one
/// before the timed phase and one after it, and `setup_s` is the fastest
/// over both. A burst of host noise can last longer than a few fast
/// set-ups take: 51 grid set-ups packed into 20 ms gave a fastest time of
/// 0.25 ms in one process and 0.49 ms in the next, and the fastest build of
/// a two-second window before the timed phase still read 50–58 ms instead
/// of 29–36 ms in two runs of ten.
pub const SETUP_SPAN: Duration = Duration::from_secs(1);

/// Runs `build` at least `repeats` times and for at least [`SETUP_SPAN`],
/// keeping only the last result alive (each earlier one is dropped before
/// the next starts, so repeats do not stack up memory), and returns it with
/// the fastest wall time in seconds.
pub fn fastest_setup<T, E>(
    repeats: usize,
    rec: &mut Recorder,
    span: &'static str,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let began = Instant::now();
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    while times.len() < repeats.max(1) || began.elapsed() < SETUP_SPAN {
        drop(kept.take());
        let start = Instant::now();
        let built = rec.span(span, |_| build())?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let fastest = stats::min(&times).unwrap_or(0.0);
    Ok((kept.expect("at least one set-up ran"), fastest))
}

/// Runs a sub-millisecond set-up at least `repeats` times and for at least
/// [`SETUP_SPAN`], each time at another memory layout, and returns the
/// fastest of the times `setup` reports, in seconds. `setup` times itself,
/// so it can leave untimed steps out.
///
/// Such a set-up took one of two times in a given process, depending on
/// where the kernel placed the stack: with address randomisation off, a
/// different environment size moved the grid's set-up between 0.31 and
/// 0.54 ms. Repeat `i` therefore runs with the stack `i % 41` small frames
/// deeper (about 4 KiB over the 41 depths) and after a heap block of
/// `(80 i) mod 4096` bytes, so every run samples the same spread of layouts
/// and its fastest time does not depend on where the kernel put the stack.
pub fn fastest_over_layouts<E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<f64, E>,
) -> Result<f64, E> {
    let began = Instant::now();
    let mut times = Vec::with_capacity(repeats);
    let mut i = 0;
    while i < repeats || began.elapsed() < SETUP_SPAN {
        let heap_pad = std::hint::black_box(vec![0u8; 1 + (80 * i) % 4096]);
        let mut result = None;
        deeper(i % 41, &mut || result = Some(setup()));
        drop(heap_pad);
        times.push(result.expect("deeper runs the set-up")?);
        i += 1;
    }
    Ok(stats::min(&times).unwrap_or(0.0))
}

/// Calls `work` with the stack `depth` frames deeper.
#[inline(never)]
fn deeper(depth: usize, work: &mut dyn FnMut()) {
    let pad = [0u8; 64];
    std::hint::black_box(&pad);
    if depth == 0 {
        work();
    } else {
        deeper(depth - 1, work);
    }
}

/// The correctness checks of one certified point: the bracket is at most
/// `ε` wide, the witnessed strategy's revenue lies inside it, and the
/// certificate survives packaging, with `round_trip` a JSON round trip, and
/// the independent audit against `model`. Returns the failed checks and the
/// JSON size (0 without the round trip).
pub fn check_certified(
    label: &str,
    solve: &CertifiedSolve,
    model: &SelfishMiningModel,
    round_trip: bool,
    rec: &mut Recorder,
) -> (Vec<String>, usize) {
    let mut failures = bracket_failures(label, solve);
    let packaged = rec.span("audit.artifact", |_| {
        let artifact = CertificateArtifact::from_certified(solve, model)
            .map_err(|err| format!("{label}: packaging failed: {err}"))?;
        if !round_trip {
            return Ok((artifact, 0));
        }
        let json = artifact.to_json();
        let parsed = CertificateArtifact::from_json(&json)
            .map_err(|err| format!("{label}: JSON round trip failed: {err}"))?;
        if parsed != artifact {
            return Err(format!("{label}: JSON round trip changed the certificate"));
        }
        Ok((parsed, json.len()))
    });
    let (artifact, bytes) = match packaged {
        Ok(packaged) => packaged,
        Err(failure) => {
            failures.push(failure);
            return (failures, 0);
        }
    };
    let report = rec.span("audit.check", |_| {
        audit_certificate(&artifact, model, &AuditConfig::default())
    });
    if !report.passed() {
        failures.push(format!("{label}: audit failed:\n{report}"));
    }
    (failures, bytes)
}

/// `β_up − β_low ≤ ε` and `β_low ≤ strategy_revenue ≤ β_up`.
pub fn bracket_failures(label: &str, solve: &CertifiedSolve) -> Vec<String> {
    let mut failures = Vec::new();
    // Written so that a NaN bound fails the check.
    let within = solve.beta_up - solve.beta_low <= solve.epsilon + 1e-12;
    if !within {
        failures.push(format!(
            "{label}: bracket [{}, {}] wider than epsilon {}",
            solve.beta_low, solve.beta_up, solve.epsilon
        ));
    }
    if !(solve.beta_low <= solve.strategy_revenue && solve.strategy_revenue <= solve.beta_up) {
        failures.push(format!(
            "{label}: strategy revenue {} outside [{}, {}]",
            solve.strategy_revenue, solve.beta_low, solve.beta_up
        ));
    }
    failures
}

/// FNV-1a over a sequence of 64-bit words: a compact fingerprint of
/// certified bits for the reference comparison.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_over_layouts_reports_the_minimum_and_stops_at_an_error() {
        let mut calls = 0;
        let fastest = fastest_over_layouts(5, || {
            calls += 1;
            Ok::<_, &str>(f64::from((calls * 3) % 5 + 1))
        });
        // At least five calls, and as many more as fit in the set-up span.
        assert_eq!(fastest, Ok(1.0));
        assert!(calls >= 5);
        let mut calls = 0;
        let failed = fastest_over_layouts(5, || {
            calls += 1;
            if calls == 2 {
                Err("refused")
            } else {
                Ok(1.0)
            }
        });
        assert_eq!((failed, calls), (Err("refused"), 2));
    }

    #[test]
    fn fastest_ops_sums_the_per_operation_minimum() {
        let mut ops = FastestOps::default();
        assert_eq!(ops.total(), 0.0);
        ops.record(0, 2.0);
        ops.record(1, 5.0);
        ops.record(0, 3.0);
        ops.record(1, 4.0);
        assert_eq!(ops.total(), 6.0);
    }

    #[test]
    fn repeat_honours_counts_budgets_and_early_stops() {
        assert_eq!(repeat(Reps::Exactly(3), |_| true), 3);
        assert_eq!(repeat(Reps::Exactly(3), |i| i < 1), 2);
        // A budget too small for any repetition still makes one.
        assert_eq!(repeat(Reps::For(Duration::ZERO), |_| true), 1);
        // 20 ms repetitions in a 100 ms budget: the next one starts only
        // while it still fits.
        let made = repeat(Reps::For(Duration::from_millis(100)), |_| {
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        assert!((2..=5).contains(&made), "{made}");
        assert!(!Reps::For(Duration::from_secs(1)).another(
            3,
            Duration::from_millis(900),
            Duration::from_millis(200)
        ));
    }
}

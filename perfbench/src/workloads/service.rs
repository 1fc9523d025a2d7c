//! `service_session`: one closed-loop client feeding a seeded stream of
//! JSONL request lines to `sm_service::jsonl::respond` on one `Service`
//! with one worker; each request is sent when the previous reply is back.
//! The session is repeated, each time on a fresh `Service`.
//!
//! The only workload that exercises the service's cache tiers and its
//! request grammar. The stream has fixed shares of first touches of new
//! curves, exact repeats, lattice points and off-lattice probes.

use super::{fastest_over_layouts, fnv, mib, repeat, FastestOps, Outcome, Reps, Rng, Size};
use crate::stats;
use crate::trace::Recorder;
use sm_audit::json::{parse_json, JsonValue};
use sm_service::jsonl::respond;
use sm_service::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed whose stream is checked against [`REFERENCE`].
const DEFAULT_SEED: u64 = 0;
/// `setup_s` is the fastest of at least [`SETUP_SAMPLES`] samples, each the
/// mean time of [`SETUP_BATCH`] `Service::new` calls (each service dropped
/// before the next is made): one call takes about 25 ns, less than a clock
/// read costs, so it is timed in batches.
const SETUP_SAMPLES: usize = 41;
const SETUP_BATCH: usize = 10_000;
/// Sessions of a traced run: four sessions' 1,296 requests leave 12
/// samples beyond the p99 rank.
pub const TRACED_SESSIONS: usize = 4;
/// Canonical anchor step of the service's p lattice (its default).
const ANCHOR_STEP: f64 = 0.05;
/// Every curve's first touch asks for this p, advancing its whole chain, so
/// later probes below it never advance anchors.
const FRONTIER_P: f64 = 0.45;
/// Switching probabilities of the curves.
const GAMMAS: [f64; 3] = [0.0, 0.5, 1.0];
/// Certificate widths of the curves.
const EPSILONS: [f64; 2] = [1e-3, 5e-3];

/// Reference outputs of the default seed at full size, recorded from the
/// unmodified library: the FNV fingerprint of every answer's bits, then the
/// `ServiceStats` counters `queries, cache_hits, solves, anchor_advances,
/// probes, arena_builds, arena_hits`.
const REFERENCE: (u64, [u64; 7]) = (7535675567031536988, [324, 132, 300, 120, 180, 2, 322]);

/// What a request line is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FirstTouch,
    Repeat,
    Lattice,
    Probe,
}

/// One curve: topology, γ and ε.
#[derive(Debug, Clone, Copy)]
struct Curve {
    depth: usize,
    forks: usize,
    gamma: f64,
    epsilon: f64,
}

/// Requests planned per curve besides its first touch. A planned repeat
/// resends a seeded earlier line of any curve. The counts are fixed so
/// every seed sends each topology the same work.
const PROBES_PER_CURVE: usize = 15;
const LATTICE_PER_CURVE: usize = 3;
const REPEATS_PER_CURVE: usize = 8;

/// Generates the request stream for `seed`. Each curve gets the same number
/// of lattice points and off-lattice probes, at seeded p values and in a
/// seeded order; its first request is preceded by its first touch at
/// [`FRONTIER_P`]. Exact repeats of seeded earlier lines are mixed in.
fn stream(seed: u64, size: Size) -> Vec<(Kind, String)> {
    let topologies: &[(usize, usize)] = size.pick(&[(1, 1), (2, 1)], &[(1, 1)]);
    let gammas: &[f64] = size.pick(&GAMMAS, &GAMMAS[..2]);
    let mut curves = Vec::new();
    for &(depth, forks) in topologies {
        for &gamma in gammas {
            for &epsilon in &EPSILONS {
                curves.push(Curve {
                    depth,
                    forks,
                    gamma,
                    epsilon,
                });
            }
        }
    }
    let mut plan: Vec<(Kind, usize)> = Vec::new();
    for curve in 0..curves.len() {
        plan.extend(std::iter::repeat_n((Kind::Probe, curve), PROBES_PER_CURVE));
        plan.extend(std::iter::repeat_n(
            (Kind::Lattice, curve),
            LATTICE_PER_CURVE,
        ));
        plan.extend(std::iter::repeat_n(
            (Kind::Repeat, curve),
            REPEATS_PER_CURVE,
        ));
    }
    let mut rng = Rng::new(seed, 3);
    rng.shuffle(&mut plan);
    // A repeat needs an earlier line.
    if let Some(first) = plan.iter().position(|&(kind, _)| kind != Kind::Repeat) {
        plan.swap(0, first);
    }

    // Each curve's probes are stratified over (0, FRONTIER_P), one at a
    // seeded point of each of PROBES_PER_CURVE equal strata and in a seeded
    // order, so their total cost hardly depends on the seed.
    let mut probe_ps: Vec<Vec<f64>> = (0..curves.len())
        .map(|_| {
            let stratum = FRONTIER_P * 1e4 / PROBES_PER_CURVE as f64;
            let mut ps: Vec<f64> = (0..PROBES_PER_CURVE)
                .map(|k| {
                    let offset = rng.below(stratum as usize - 1) + 1;
                    let mut units = (k as f64 * stratum) as usize + offset;
                    if units.is_multiple_of(500) {
                        units += 1;
                    }
                    units as f64 * 1e-4
                })
                .collect();
            rng.shuffle(&mut ps);
            ps
        })
        .collect();
    let anchors = (FRONTIER_P / ANCHOR_STEP).round() as usize;
    let mut touched = vec![false; curves.len()];
    let mut lines: Vec<(Kind, String)> = Vec::with_capacity(plan.len() + curves.len());
    for (kind, curve) in plan {
        if kind != Kind::Repeat && !touched[curve] {
            touched[curve] = true;
            let line = request(&curves[curve], FRONTIER_P, lines.len());
            lines.push((Kind::FirstTouch, line));
        }
        let line = match kind {
            Kind::Lattice => request(
                &curves[curve],
                ANCHOR_STEP * rng.below(anchors + 1) as f64,
                lines.len(),
            ),
            Kind::Probe => {
                let p = probe_ps[curve].pop().expect("one p per planned probe");
                request(&curves[curve], p, lines.len())
            }
            _ => lines[rng.below(lines.len())].1.clone(),
        };
        lines.push((kind, line));
    }
    lines
}

/// One query line. The spelling varies with `position` so the stream also
/// covers the grammar's optional fields.
fn request(curve: &Curve, p: f64, position: usize) -> String {
    let Curve {
        depth,
        forks,
        gamma,
        epsilon,
    } = *curve;
    match position % 3 {
        0 => format!("{{\"p\": {p}, \"d\": {depth}, \"f\": {forks}, \"gamma\": {gamma}, \"epsilon\": {epsilon}}}"),
        1 => format!("{{\"op\": \"query\", \"scenario\": \"optimal\", \"p\": {p}, \"d\": {depth}, \"f\": {forks}, \"l\": 4, \"gamma\": {gamma}, \"epsilon\": {epsilon}}}"),
        _ => format!("{{\"backend\": \"bernoulli\", \"epsilon\": {epsilon}, \"gamma\": {gamma}, \"f\": {forks}, \"d\": {depth}, \"p\": {p}}}"),
    }
}

/// The answer's certified numbers as bits.
fn answer_bits(response: &JsonValue) -> Option<[u64; 3]> {
    let bits = |key| {
        response
            .get(key)
            .and_then(JsonValue::as_f64)
            .map(f64::to_bits)
    };
    Some([
        bits("beta_low")?,
        bits("beta_up")?,
        bits("strategy_revenue")?,
    ])
}

/// Per-tier count and median-latency metrics. The tiers are classified
/// from outside: `memo` answered from cache, `cold` built an arena,
/// `advance` advanced anchors, `probe` is everything else.
const TIER_METRICS: [(&str, &str); 4] = [
    ("service.memo_count", "service.memo_p50_ms"),
    ("service.probe_count", "service.probe_p50_ms"),
    ("service.advance_count", "service.advance_p50_ms"),
    ("service.cold_count", "service.cold_p50_ms"),
];

/// Latencies of one or more sessions, by request and by tier.
#[derive(Default)]
struct Latencies {
    all_ms: Vec<f64>,
    tier_ms: [Vec<f64>; 4],
}

/// Sends every line to `service` in order, each after the previous reply,
/// times each into `fastest`, checks every answer, and returns the answers'
/// certified bits.
fn session<'a>(
    service: &Service,
    lines: &'a [(Kind, String)],
    first_answer: &mut BTreeMap<&'a str, [u64; 3]>,
    latencies: &mut Latencies,
    fastest: &mut FastestOps,
    outcome: &mut Outcome,
) -> Vec<u64> {
    let mut words = Vec::with_capacity(3 * lines.len());
    let mut arena_builds = service.stats().arena_builds;
    for (i, (kind, line)) in lines.iter().enumerate() {
        let start = Instant::now();
        let (response, _) = respond(service, line);
        let elapsed = start.elapsed().as_secs_f64();
        fastest.record(i, elapsed);
        let elapsed_ms = 1e3 * elapsed;

        let builds = service.stats().arena_builds;
        let tier = if response.get("cached") == Some(&JsonValue::Bool(true)) {
            0
        } else if builds > arena_builds {
            3
        } else if response.get("anchors_advanced").and_then(JsonValue::as_f64) > Some(0.0) {
            2
        } else {
            1
        };
        arena_builds = builds;
        latencies.all_ms.push(elapsed_ms);
        latencies.tier_ms[tier].push(elapsed_ms);

        let mut failures = Vec::new();
        let status = response.get("status").and_then(JsonValue::as_str);
        match (status, answer_bits(&response)) {
            (Some("ok"), Some(bits)) => {
                words.extend(bits);
                let first = *first_answer.entry(line.as_str()).or_insert(bits);
                if first != bits {
                    failures.push(format!("service: repeat of {line} changed its answer"));
                }
            }
            _ => failures.push(format!("service: {line} -> status {status:?}")),
        }
        if *kind == Kind::Repeat && tier != 0 {
            failures.push(format!("service: exact repeat {line} missed the memo"));
        }
        outcome.op(failures);
    }
    words
}

/// The fastest per-call time of `Service::new`, in seconds, over memory
/// layouts (see [`fastest_over_layouts`]).
fn setup(config: &ServiceConfig, rec: &mut Recorder) -> Result<f64, sm_service::ServiceError> {
    fastest_over_layouts(SETUP_SAMPLES, || {
        let start = Instant::now();
        rec.span("service.new", |_| {
            (0..SETUP_BATCH).try_for_each(|_| {
                Service::new(std::hint::black_box(config.clone())).map(|service| {
                    drop(std::hint::black_box(service));
                })
            })
        })?;
        Ok(start.elapsed().as_secs_f64() / SETUP_BATCH as f64)
    })
}

/// Runs the workload: the same stream in as many sessions as `reps` allows,
/// each on a fresh `Service`, so the i-th request does the same work in
/// every session. `run_s` sums each request's fastest latency. A line
/// repeated in a later session must get the bits of its first answer, so the
/// sessions also check that the service's answers do not depend on its
/// cache history.
pub fn run(seed: u64, size: Size, reps: Reps, rec: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let lines = stream(seed, size);
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    match setup(&config, rec) {
        Ok(setup_s) => outcome.setup_s = setup_s,
        Err(err) => {
            outcome.op(vec![format!("Service::new: {err}")]);
            return outcome;
        }
    }

    let mut first_answer = BTreeMap::new();
    let mut latencies = Latencies::default();
    let mut fastest = FastestOps::default();
    let mut session_s = Vec::new();
    let mut last = None;
    rec.span("run", |rec| {
        outcome.reps = repeat(reps, |_| {
            // The previous session's service is dropped first, so sessions
            // do not stack up memory.
            drop(last.take());
            let service = Service::new(config.clone()).expect("the set-up accepted this config");
            let start = Instant::now();
            let words = rec.span("service.session", |_| {
                session(
                    &service,
                    &lines,
                    &mut first_answer,
                    &mut latencies,
                    &mut fastest,
                    &mut outcome,
                )
            });
            session_s.push(start.elapsed().as_secs_f64());
            last = Some((words, service));
            true
        });
    });
    outcome.run_s = fastest.total();
    outcome.setup_again(setup(&config, rec));
    eprintln!(
        "service_session: {} sessions, {:?} s to {:?} s each, fastest requests sum to {} s",
        outcome.reps,
        stats::min(&session_s),
        session_s.iter().copied().reduce(f64::max),
        outcome.run_s
    );
    let Some((words, service)) = last else {
        return outcome;
    };
    let counters = service.stats();
    outcome.accounted_mb = mib(service.resident_arena_bytes());

    if seed == DEFAULT_SEED && size == Size::Full {
        let seen = (
            fnv(words),
            [
                counters.queries,
                counters.cache_hits,
                counters.solves,
                counters.anchor_advances,
                counters.probes,
                counters.arena_builds,
                counters.arena_hits,
            ],
        );
        if seen != REFERENCE {
            outcome.fail(format!(
                "service: default-seed answers/counters {seen:?} differ from the reference {REFERENCE:?}"
            ));
        }
    }

    if rec.enabled() {
        // Parse cost per request, timed apart from the sessions.
        let parse_us: Vec<f64> = lines
            .iter()
            .map(|(_, line)| {
                let start = Instant::now();
                std::hint::black_box(parse_json(std::hint::black_box(line)).is_ok());
                1e6 * start.elapsed().as_secs_f64()
            })
            .collect();
        for ((count, p50), samples) in TIER_METRICS.iter().zip(&latencies.tier_ms) {
            outcome.set(count, samples.len() as f64);
            outcome.set(p50, stats::median(samples).unwrap_or(0.0));
        }
        let all = &latencies.all_ms;
        outcome.set("service.queries", all.len() as f64);
        outcome.set(
            "service.query_p50_ms",
            stats::percentile(all, 0.5).unwrap_or(0.0),
        );
        outcome.set(
            "service.query_p99_ms",
            stats::percentile(all, 0.99).unwrap_or(0.0),
        );
        outcome.set("service.parse_us", stats::median(&parse_us).unwrap_or(0.0));
        outcome.set("service.cache_hits", counters.cache_hits as f64);
        outcome.set("service.probes", counters.probes as f64);
        outcome.set("service.anchor_advances", counters.anchor_advances as f64);
        outcome.set("service.arena_builds", counters.arena_builds as f64);
        outcome.set("service.resident_arena_mb", outcome.accounted_mb);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_fixed_shares_and_touches_before_use() {
        let key = |line: &str| {
            let doc = parse_json(line).expect("generated lines are JSON");
            ["d", "f", "gamma", "epsilon"]
                .map(|k| doc.get(k).and_then(JsonValue::as_f64).map(f64::to_bits))
        };
        for seed in [0, 7] {
            let lines = stream(seed, Size::Full);
            assert_eq!(lines.len(), 324);
            let count = |kind| lines.iter().filter(|(k, _)| *k == kind).count();
            assert_eq!(count(Kind::FirstTouch), 12);
            assert_eq!(count(Kind::Repeat), 96);
            assert_eq!(count(Kind::Lattice), 36);
            assert_eq!(lines[0].0, Kind::FirstTouch);
            let mut touched = Vec::new();
            for (kind, line) in &lines {
                if *kind == Kind::FirstTouch {
                    assert!(!touched.contains(&key(line)), "one first touch per curve");
                    touched.push(key(line));
                } else {
                    assert!(
                        touched.contains(&key(line)),
                        "{line} before its curve's first touch"
                    );
                }
            }
            assert_eq!(stream(seed, Size::Full), lines, "seeded, so repeatable");
        }
    }
}

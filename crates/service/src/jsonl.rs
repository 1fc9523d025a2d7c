//! Line-delimited JSON front end for the query service.
//!
//! One request per input line, one response per output line, in input
//! order — the transport a daemon wrapper (see `examples/service.rs`) pipes
//! stdin/stdout through, and simple enough to replay from a committed
//! script and diff against a golden transcript in CI.
//!
//! Request lines are JSON objects:
//!
//! ```text
//! {"p": 0.33, "gamma": 0.5}
//! {"op": "query", "scenario": "lead-stubborn", "backend": "postake",
//!  "d": 2, "f": 2, "l": 4, "p": 0.2, "gamma": 0.25, "epsilon": 1e-3}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! Query fields default to [`Query::default`] (optimal scenario, Bernoulli
//! backend, `d = 2`, `f = 1`, `l = 4`, `γ = 0.5`, `ε = 10⁻³`); only `p` is
//! required. The optional `backend` field takes a consensus-backend label
//! (`selfish_mining::ConsensusBackend::from_label`); answers echo it
//! together with the resulting `certificate_scope`. Every
//! response carries `"status": "ok"` or `"status": "error"`; malformed
//! lines produce an error response and the loop continues. `shutdown`
//! acknowledges and ends the loop (as does end of input).

use crate::{Answer, Query, Service, ServiceError, ServiceStats};
use selfish_mining::{AttackScenario, ConsensusBackend};
use sm_audit::json::{parse_json, write_json, JsonValue};
use std::io::{BufRead, Write};

/// Serves JSONL requests from `input` until `shutdown` or end of input,
/// writing one response line per request to `output`.
///
/// Requests are processed strictly in order on the calling thread; the
/// configured worker budget still accelerates each solve internally
/// (intra-solve parallelism), so transcripts are deterministic.
///
/// # Errors
///
/// Propagates I/O errors of `input`/`output`; request-level problems are
/// reported in-band as `"status": "error"` lines instead.
pub fn serve<R: BufRead, W: Write>(
    service: &Service,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = respond(service, &line);
        let mut rendered = String::new();
        write_json(&response, &mut rendered);
        writeln!(output, "{rendered}")?;
        if shutdown {
            break;
        }
    }
    output.flush()
}

/// Computes the response object for one request line and whether the line
/// asked the loop to stop.
pub fn respond(service: &Service, line: &str) -> (JsonValue, bool) {
    let request = match parse_json(line) {
        Ok(value) => value,
        Err(message) => return (error_response(&format!("malformed JSON: {message}")), false),
    };
    let op = request
        .get("op")
        .and_then(JsonValue::as_str)
        .unwrap_or("query");
    match op {
        "query" => match parse_query(&request) {
            Ok(query) => match service.answer(&query) {
                Ok(answer) => (answer_response(&query, &answer), false),
                Err(err) => (error_response(&err.to_string()), false),
            },
            Err(message) => (error_response(&message), false),
        },
        "stats" => (stats_response(&service.stats()), false),
        "shutdown" => (
            JsonValue::Object(vec![
                ("status".to_string(), JsonValue::String("ok".to_string())),
                ("op".to_string(), JsonValue::String("shutdown".to_string())),
            ]),
            true,
        ),
        other => (error_response(&format!("unknown op {other:?}")), false),
    }
}

fn parse_query(request: &JsonValue) -> Result<Query, String> {
    let defaults = Query::default();
    let number = |key: &str, default: f64| -> Result<f64, String> {
        match request.get(key) {
            Some(value) => value
                .as_f64()
                .filter(|n| !n.is_nan())
                .ok_or_else(|| format!("field {key:?} must be a number")),
            None => Ok(default),
        }
    };
    let count = |key: &str, default: usize| -> Result<usize, String> {
        match request.get(key) {
            Some(value) => value
                .as_usize()
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
            None => Ok(default),
        }
    };
    let p = request
        .get("p")
        .ok_or("field \"p\" is required")?
        .as_f64()
        .filter(|n| !n.is_nan())
        .ok_or("field \"p\" must be a number")?;
    let scenario = match request.get("scenario") {
        Some(value) => {
            let label = value
                .as_str()
                .ok_or("field \"scenario\" must be a string label")?;
            AttackScenario::from_label(label)
                .ok_or_else(|| format!("unknown scenario label {label:?}"))?
        }
        None => defaults.scenario,
    };
    let backend = match request.get("backend") {
        Some(value) => {
            let label = value
                .as_str()
                .ok_or("field \"backend\" must be a string label")?;
            ConsensusBackend::from_label(label)
                .ok_or_else(|| format!("unknown backend label {label:?}"))?
        }
        None => defaults.backend,
    };
    Ok(Query {
        scenario,
        backend,
        depth: count("d", defaults.depth)?,
        forks_per_block: count("f", defaults.forks_per_block)?,
        max_fork_length: count("l", defaults.max_fork_length)?,
        p,
        gamma: number("gamma", defaults.gamma)?,
        epsilon: number("epsilon", defaults.epsilon)?,
    })
}

fn answer_response(query: &Query, answer: &Answer) -> JsonValue {
    let interval = &answer.interval;
    JsonValue::Object(vec![
        ("status".to_string(), JsonValue::String("ok".to_string())),
        (
            "scenario".to_string(),
            JsonValue::String(interval.scenario.label()),
        ),
        (
            "backend".to_string(),
            JsonValue::String(interval.backend.label()),
        ),
        (
            "certificate_scope".to_string(),
            JsonValue::String(interval.certificate_scope().label().to_string()),
        ),
        ("d".to_string(), JsonValue::Number(query.depth as f64)),
        (
            "f".to_string(),
            JsonValue::Number(query.forks_per_block as f64),
        ),
        (
            "l".to_string(),
            JsonValue::Number(query.max_fork_length as f64),
        ),
        ("p".to_string(), JsonValue::Number(interval.p)),
        ("gamma".to_string(), JsonValue::Number(interval.gamma)),
        ("epsilon".to_string(), JsonValue::Number(interval.epsilon)),
        ("beta_low".to_string(), JsonValue::Number(interval.beta_low)),
        ("beta_up".to_string(), JsonValue::Number(interval.beta_up)),
        (
            "strategy_revenue".to_string(),
            JsonValue::Number(interval.strategy_revenue),
        ),
        ("cached".to_string(), JsonValue::Bool(answer.cached)),
        (
            "anchors_advanced".to_string(),
            JsonValue::Number(answer.anchors_advanced as f64),
        ),
    ])
}

fn stats_response(stats: &ServiceStats) -> JsonValue {
    let n = |value: u64| JsonValue::Number(value as f64);
    JsonValue::Object(vec![
        ("status".to_string(), JsonValue::String("ok".to_string())),
        ("op".to_string(), JsonValue::String("stats".to_string())),
        ("queries".to_string(), n(stats.queries)),
        ("cache_hits".to_string(), n(stats.cache_hits)),
        ("coalesced".to_string(), n(stats.coalesced)),
        ("solves".to_string(), n(stats.solves)),
        ("anchor_advances".to_string(), n(stats.anchor_advances)),
        ("probes".to_string(), n(stats.probes)),
        ("arena_builds".to_string(), n(stats.arena_builds)),
        ("arena_hits".to_string(), n(stats.arena_hits)),
        ("curve_evictions".to_string(), n(stats.curve_evictions)),
        ("arena_evictions".to_string(), n(stats.arena_evictions)),
        ("memo_evictions".to_string(), n(stats.memo_evictions)),
    ])
}

fn error_response(message: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("status".to_string(), JsonValue::String("error".to_string())),
        ("error".to_string(), JsonValue::String(message.to_string())),
    ])
}

/// Renders a [`ServiceError`] the way [`serve`] reports it — exposed so the
/// example driver can reuse the exact wording for pre-loop failures.
pub fn render_error(err: &ServiceError) -> String {
    let mut rendered = String::new();
    write_json(&error_response(&err.to_string()), &mut rendered);
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn service() -> Service {
        Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn serves_a_scripted_session_in_order() {
        let service = service();
        let script = concat!(
            "{\"p\": 0.1, \"d\": 1, \"f\": 1, \"epsilon\": 0.005}\n",
            "\n",
            "{\"p\": 0.1, \"d\": 1, \"f\": 1, \"epsilon\": 0.005}\n",
            "{\"p\": 0.1, \"d\": 1, \"f\": 1, \"epsilon\": 0.005, \"backend\": \"vdf\"}\n",
            "not json\n",
            "{\"op\":\"stats\"}\n",
            "{\"op\":\"shutdown\"}\n",
            "{\"p\": 0.2, \"d\": 1, \"f\": 1}\n",
        );
        let mut output = Vec::new();
        serve(&service, script.as_bytes(), &mut output).expect("io never fails on memory buffers");
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .expect("responses are utf-8")
            .lines()
            .collect();
        // Line after shutdown is never processed.
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[0].contains("\"cached\":false"));
        assert!(lines[0].contains("\"backend\":\"bernoulli\""));
        assert!(lines[0].contains("\"certificate_scope\":\"two-sided\""));
        assert!(lines[1].contains("\"cached\":true"));
        // Same rounded point under another backend: its own curve (cache
        // miss), predictable schedule narrows the certificate scope.
        assert!(lines[2].contains("\"cached\":false"));
        assert!(lines[2].contains("\"backend\":\"vdf\""));
        assert!(lines[2].contains("\"certificate_scope\":\"lower-bound-only\""));
        assert!(lines[3].contains("\"status\":\"error\""));
        assert!(lines[4].contains("\"op\":\"stats\""));
        assert!(lines[5].contains("\"op\":\"shutdown\""));
    }

    #[test]
    fn query_parsing_reports_field_level_problems() {
        let service = service();
        for (line, needle) in [
            ("{}", "is required"),
            ("{\"p\": \"high\"}", "must be a number"),
            ("{\"p\": 0.1, \"d\": 1.5}", "non-negative integer"),
            ("{\"p\": 0.1, \"scenario\": \"evil\"}", "unknown scenario"),
            ("{\"p\": 0.1, \"scenario\": 3}", "string label"),
            ("{\"p\": 0.1, \"backend\": \"quantum\"}", "unknown backend"),
            ("{\"p\": 0.1, \"backend\": 7}", "string label"),
            ("{\"p\": 0.1, \"backend\": \"post(0)\"}", "unknown backend"),
            ("{\"op\": \"dance\"}", "unknown op"),
            ("{\"p\": 2.0, \"d\": 1, \"f\": 1}", "[0, 1]"),
        ] {
            let (response, shutdown) = respond(&service, line);
            let mut rendered = String::new();
            write_json(&response, &mut rendered);
            assert!(!shutdown);
            assert!(
                rendered.contains("\"status\":\"error\"") && rendered.contains(needle),
                "{line} -> {rendered}"
            );
        }
    }

    #[test]
    fn deeply_nested_lines_get_an_error_response() {
        // One hostile line must not overflow the daemon's stack.
        let service = service();
        let (response, shutdown) = respond(&service, &"[".repeat(100_000));
        assert!(!shutdown);
        let mut rendered = String::new();
        write_json(&response, &mut rendered);
        assert!(
            rendered.contains("\"status\":\"error\"") && rendered.contains("nesting deeper"),
            "{rendered}"
        );
    }
}

//! Workspace lint gate: scans every member crate's sources against the
//! committed allowlist and exits non-zero on any new finding and on any
//! stale allowlist entry (one that matches no finding).
//!
//! ```text
//! cargo run -p sm-audit --bin lint_source [-- --root DIR] [--allowlist FILE] [--list]
//! ```
//!
//! `--list` prints every finding (ignoring the allowlist) as `rule path`
//! allowlist lines — the format of `crates/audit/lint_allowlist.txt`.

use sm_audit::lint::{allowlist_lines, lint_workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn default_root() -> PathBuf {
    // The crate lives at <root>/crates/audit.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut root = default_root();
    let mut allowlist_path: Option<PathBuf> = None;
    let mut list_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(value) => root = PathBuf::from(value),
                None => {
                    eprintln!("lint_source: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--allowlist" => match args.next() {
                Some(value) => allowlist_path = Some(PathBuf::from(value)),
                None => {
                    eprintln!("lint_source: --allowlist needs a file");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => list_mode = true,
            other => {
                eprintln!("lint_source: unknown argument {other:?}");
                eprintln!("usage: lint_source [--root DIR] [--allowlist FILE] [--list]");
                return ExitCode::FAILURE;
            }
        }
    }
    let allowlist_path =
        allowlist_path.unwrap_or_else(|| root.join("crates/audit/lint_allowlist.txt"));

    if list_mode {
        // Ignore the allowlist: dump every finding as an allowlist line.
        let outcome = match lint_workspace(&root, "") {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("lint_source: {err}");
                return ExitCode::FAILURE;
            }
        };
        for line in allowlist_lines(&outcome.findings) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    let allowlist_text = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!(
                "lint_source: cannot read allowlist {}: {err}",
                allowlist_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match lint_workspace(&root, &allowlist_text) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("lint_source: {err}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.passes() {
        println!(
            "lint_source: clean ({} allowlisted site(s))",
            outcome.allowlisted
        );
        return ExitCode::SUCCESS;
    }
    for entry in &outcome.stale {
        eprintln!("lint_source: stale allowlist entry (no matching finding): {entry}");
    }
    for finding in &outcome.findings {
        eprintln!(
            "{}:{}: [{}] {}",
            finding.path, finding.line, finding.rule, finding.snippet
        );
    }
    eprintln!(
        "lint_source: {} uncovered finding(s) and {} stale entr(ies) against {}",
        outcome.findings.len(),
        outcome.stale.len(),
        allowlist_path.display()
    );
    ExitCode::FAILURE
}

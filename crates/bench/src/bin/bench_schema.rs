//! CI gate over machine-readable benchmark artifacts.
//!
//! ```sh
//! cargo run --release -p dsv-bench --bin bench_schema -- BENCH_e16.json BENCH_e17.json
//! cargo run --release -p dsv-bench --bin bench_schema -- --all   # every committed BENCH_*.json
//! ```
//!
//! Parses each argument as JSON and checks it against the schema its
//! `experiment` tag names (`dsv_bench::validate_bench_doc`): non-empty
//! stream/scenario/phase tables, finite positive throughput numbers, and
//! the recorded acceptance gates re-enforced on the recorded numbers —
//! `e16_throughput`'s S = 8 parted speedup, `e17_pipeline`'s overlap
//! speedup on the slow-feed row, `e18_fleet`'s keys × throughput floor
//! on full runs. Exits non-zero on the first failure, so a bench that
//! crashed mid-run, emitted NaNs, silently produced an empty sweep, or
//! regressed below its own gate fails the pipeline instead of polluting
//! the trajectory.
//!
//! `--all` globs `BENCH_*.json` in the current directory (the committed
//! artifacts at the repo root) so a newly added experiment is validated
//! the moment its artifact lands, with no ci.sh edit to forget; it fails
//! if no artifact matches, so an accidental `--all` from the wrong
//! directory cannot pass vacuously.

#![forbid(unsafe_code)]

use dsv_bench::{validate_bench_doc, Json};
use std::process::ExitCode;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    if text.trim().is_empty() {
        return Err(format!("{path}: file is empty"));
    }
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = validate_bench_doc(&doc).map_err(|e| format!("{path}: schema violation: {e}"))?;
    let n = doc.get("n").and_then(Json::as_f64).unwrap_or(0.0);
    let tables = doc
        .get("streams")
        .or_else(|| doc.get("scenarios"))
        .or_else(|| doc.get("phases"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    println!(
        "{path}: ok — {} table(s), n = {n}, schema {schema}",
        tables.len()
    );
    Ok(())
}

/// Every `BENCH_*.json` in the current directory, sorted for stable CI
/// logs. No glob crate: the pattern is a fixed prefix + suffix test.
fn committed_artifacts() -> Result<Vec<String>, String> {
    let mut paths: Vec<String> = std::fs::read_dir(".")
        .map_err(|e| format!("--all: cannot read current directory: {e}"))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err("--all: no BENCH_*.json found in the current directory".into());
    }
    Ok(paths)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: bench_schema <BENCH_*.json> [more.json ...] | --all");
        return ExitCode::FAILURE;
    }
    let paths = if args.iter().any(|a| a == "--all") {
        if args.len() > 1 {
            eprintln!("bench_schema: --all takes no other arguments");
            return ExitCode::FAILURE;
        }
        match committed_artifacts() {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("bench_schema: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        args
    };
    for path in &paths {
        if let Err(e) = check(path) {
            eprintln!("bench_schema: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

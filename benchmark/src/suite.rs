//! Whole sets: every workload in a fresh child process, untraced then traced;
//! A/A runs of one build; and the comparison of two result files.

use crate::defs::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::{detail_path, host, Cli};
use std::path::{Path, PathBuf};
use std::process::Command;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One child run; its record is read back from the file it leaves.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let record = detail_path(&cli.out_dir, workload, trace);
    let _ = std::fs::remove_file(&record);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawning a run: {e}"))?;
    if !record.exists() {
        return Err(format!(
            "{workload}: the run ended ({status}) without a record"
        ));
    }
    Ok((read_json(&record)?, status.success()))
}

fn metric_value(record: &Json, name: &str) -> Option<f64> {
    record
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Run a whole set and write it to `out_dir/file`. Returns the file and
/// whether every check of every run passed.
pub fn suite(cli: &Cli, file: &str) -> Result<(PathBuf, bool), String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut runs: Vec<Json> = Vec::new();
        for _ in 0..cli.reps {
            let (record, ok) = child(cli, w.name, false)?;
            all_ok &= ok;
            runs.push(record);
        }
        let (traced, ok) = child(cli, w.name, true)?;
        all_ok &= ok;
        let first = &runs[0];
        let count = |r: &Json, k: &str| {
            r.get("result")
                .and_then(|x| x.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let end_to_end = END_TO_END.iter().map(|m| {
            let values = runs
                .iter()
                .map(|r| metric_value(r, m.name).map_or(Json::Null, Json::Num))
                .collect();
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                    ("exact", Json::Bool(m.exact)),
                    ("runs", Json::Arr(values)),
                ]),
            )
        });
        let per_layer = PER_LAYER.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    (
                        "value",
                        metric_value(&traced, m.name).map_or(Json::Null, Json::Num),
                    ),
                    ("should_move", Json::str(m.moves)),
                ]),
            )
        });
        let mut failures: Vec<Json> = Vec::new();
        for r in runs.iter().chain([&traced]) {
            failures.extend(
                r.get("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
        workloads.push((
            w.name,
            Json::obj([
                ("why", Json::str(w.why)),
                (
                    "input_fingerprint",
                    first
                        .get("input_fingerprint")
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
                (
                    "attempted",
                    Json::Num(
                        runs.iter().map(|r| count(r, "attempted")).sum::<f64>()
                            + count(&traced, "attempted"),
                    ),
                ),
                (
                    "failed",
                    Json::Num(
                        runs.iter().map(|r| count(r, "failed")).sum::<f64>()
                            + count(&traced, "failed"),
                    ),
                ),
                ("failures", Json::Arr(failures)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
                ("samples", first.get("info").cloned().unwrap_or(Json::Null)),
                (
                    "traced_samples",
                    traced.get("info").cloned().unwrap_or(Json::Null),
                ),
                (
                    "spans_by_name",
                    traced.get("spans_by_name").cloned().unwrap_or(Json::Null),
                ),
                ("trace_file", Json::str(format!("trace-{}.json", w.name))),
            ]),
        ));
    }
    let doc = Json::obj([
        ("claim", Json::Null),
        ("smoke", Json::Bool(cli.smoke)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("reps", Json::Num(cli.reps as f64)),
        ("host", host::host_block()),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = cli.out_dir.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    let tag = if cli.smoke { "SMOKE " } else { "" };
    println!(
        "{tag}wrote {} ({})",
        path.display(),
        if all_ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok((path, all_ok))
}

/// Two whole sets of the same build. Fails if any end-to-end metric differs
/// by more than its bound; counts must repeat digit for digit.
pub fn aa(cli: &Cli) -> Result<bool, String> {
    let (a, ok_a) = suite(cli, "results-a.json")?;
    let (b, ok_b) = suite(cli, "results-b.json")?;
    let within = compare(&read_json(&a)?, &read_json(&b)?, true)?;
    Ok(ok_a && ok_b && within)
}

pub fn compare_files(files: &[PathBuf]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: compare BASE.json OTHER.json".into());
    };
    compare(&read_json(a)?, &read_json(b)?, false)
}

fn runs_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// How `other` stands against `base` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sets of
    /// runs overlap: nothing can be said.
    Unresolved,
}

/// `worsening` is the move of the median in the metric's bad direction, as a
/// share of the base's median.
pub fn verdict(m: &EndToEnd, base: &[f64], other: &[f64]) -> (f64, Verdict) {
    let (a, b) = (median(base), median(other));
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = if a == 0.0 {
        0.0
    } else {
        sign * (b - a) / a.abs()
    };
    let bad = |x: f64, y: f64| sign * (y - x) > 0.0;
    let all_worse = base.iter().all(|&x| other.iter().all(|&y| bad(x, y)));
    let all_better = base.iter().all(|&x| other.iter().all(|&y| bad(y, x)));
    let noisy = spread(base).max(spread(other)) > m.bound;
    let v = if base == other || worsening == 0.0 {
        Verdict::Same
    } else if m.exact {
        if worsening > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if noisy && !(all_worse || all_better) {
        Verdict::Unresolved
    } else if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound || (all_better && base.len() > 1) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening, v)
}

/// One row per (workload, end-to-end metric). With `aa`, returns whether
/// every metric stayed within its bound (counts: identical).
fn compare(base: &Json, other: &Json, aa: bool) -> Result<bool, String> {
    let smoke = [base, other]
        .iter()
        .any(|d| d.get("smoke") == Some(&Json::Bool(true)));
    let tag = if smoke { "SMOKE " } else { "" };
    println!(
        "{tag}{:<16} {:<24} {:>14} {:>14} {:>14} {:>14} {:>9}  verdict",
        "workload",
        "metric",
        "base median",
        "base q1..q3",
        "other median",
        "other q1..q3",
        "other/base"
    );
    let mut within = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (
                runs_of(base, w.name, m.name),
                runs_of(other, w.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                return Err(format!("{} {}: missing from a file", w.name, m.name));
            }
            let (worsening, v) = verdict(m, &a, &b);
            let ok = if m.exact {
                a == b
            } else {
                worsening.abs() <= m.bound
            };
            within &= ok;
            let iqr = |xs: &[f64]| {
                let [q1, _, q3] = quartiles(xs);
                format!("{:.4e}..{:.4e}", q1, q3)
            };
            println!(
                "{tag}{:<16} {:<24} {:>14.6e} {:>14} {:>14.6e} {:>14} {:>9.4}  {}{}",
                w.name,
                m.name,
                median(&a),
                iqr(&a),
                median(&b),
                iqr(&b),
                median(&b) / median(&a),
                format!("{v:?}").to_lowercase(),
                if aa && !ok { "  OUTSIDE ITS BOUND" } else { "" },
            );
        }
    }
    if aa {
        println!(
            "{tag}A/A: {}",
            if within {
                "every end-to-end metric within its bound"
            } else {
                "A METRIC MOVED BY MORE THAN ITS BOUND"
            }
        );
    }
    Ok(within || !aa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, exact: bool) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            exact,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let ups = metric(Better::Higher, false);
        let tight = [100.0, 101.0, 99.0, 100.5];
        let scaled = |k: f64| tight.map(|x| x * k);
        assert_eq!(verdict(&ups, &tight, &tight).1, Verdict::Same);
        let (w, v) = verdict(&ups, &tight, &scaled(1.3));
        assert!(w < -0.25 && v == Verdict::Better);
        assert_eq!(verdict(&ups, &tight, &scaled(0.8)).1, Verdict::Worse);
        // Within the bound, and the two sets of runs overlap: the same.
        assert_eq!(verdict(&ups, &tight, &scaled(0.99)).1, Verdict::Same);

        // Spread wider than the bound and overlapping runs: unresolved.
        let noisy_a = [80.0, 100.0, 120.0, 140.0];
        let noisy_b = [70.0, 90.0, 130.0, 150.0];
        assert_eq!(verdict(&ups, &noisy_a, &noisy_b).1, Verdict::Unresolved);
        // ... unless every run of one side beats every run of the other.
        let clear = [200.0, 240.0, 280.0, 320.0];
        assert_eq!(verdict(&ups, &noisy_a, &clear).1, Verdict::Better);

        let latency = metric(Better::Lower, false);
        assert_eq!(verdict(&latency, &tight, &scaled(1.3)).1, Verdict::Worse);
        let count = metric(Better::Lower, true); // any move is a verdict
        assert_eq!(verdict(&count, &[2.0], &[2.0]).1, Verdict::Same);
        assert_eq!(verdict(&count, &[2.0], &[2.001]).1, Verdict::Worse);
        assert_eq!(verdict(&count, &[2.0], &[1.999]).1, Verdict::Better);
    }
}

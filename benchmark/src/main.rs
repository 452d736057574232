//! `dsv-benchmark`: the repository's one benchmark.
//!
//! ```text
//! dsv-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! dsv-benchmark suite   [--seed N] [--seconds S] [--reps N] [--smoke]
//! dsv-benchmark aa      [--seed N] [--seconds S] [--reps N] [--smoke]
//! dsv-benchmark compare BASE.json OTHER.json
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON line (`correct`, `attempted`, `failed`, `metrics`);
//! `benchmark/run.sh` builds the package and forwards to it. See
//! `benchmark/README.md`.

mod defs;
mod engine_wl;
mod fleet_wl;
mod harness;
mod host;
mod inputs;
mod json;
mod stats;
mod suite;
mod trace;

use defs::{DEFAULT_SEED, END_TO_END, PER_LAYER, SIZED_FOR_SECONDS, WORKLOADS};
use harness::{Opts, Outcome};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything the command line can say.
pub struct Cli {
    pub mode: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub reps: usize,
    pub out_dir: PathBuf,
    pub files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: SIZED_FOR_SECONDS,
        trace: false,
        smoke: false,
        reps: 1,
        out_dir: PathBuf::from("benchmark/out"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match arg.as_str() {
            "suite" | "aa" | "compare" => cli.mode = arg.clone(),
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?;
            }
            "--seconds" => {
                cli.seconds = number("--seconds", value("--seconds")?)?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--reps" => {
                cli.reps = number("--reps", value("--reps")?)? as usize;
                if cli.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value("--out")?),
            other if cli.mode == "compare" && !other.starts_with("--") => {
                cli.files.push(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.mode == "aa" {
        // Single runs are too noisy on shared hardware to hold against a bound.
        cli.reps = cli.reps.max(3);
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dsv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.mode.as_str() {
        "suite" => suite::suite(&cli, "results.json").map(|(_, ok)| ok),
        "aa" => suite::aa(&cli),
        "compare" => suite::compare_files(&cli.files),
        _ => run_one(&cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsv-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where one run of one workload leaves its full record for `suite`.
pub fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("run-{workload}-trace{}.json", trace as u8))
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.clone().ok_or("a run needs --workload")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            names.join(", ")
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let opts = Opts {
        workload: workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
        worker_bin: exe.with_file_name("dsv-benchmark-worker"),
    };
    let (mut out, tracer) = match engine_wl::run(&opts) {
        Some(ran) => ran?,
        None => fleet_wl::run(&opts)?,
    };
    out.set("peak_rss_mb", host::peak_rss_mib());
    out.set("verified_share", 1.0 - out.tally.failed_share());
    out.set("harness.failed_share", out.tally.failed_share());
    report(&opts, &out, &tracer)
}

/// Print every metric by name with its unit, write the run's record (and the
/// trace), and end with the one-line result.
fn report(opts: &Opts, out: &Outcome, tracer: &trace::Tracer) -> Result<bool, String> {
    let tag = if opts.smoke { "SMOKE " } else { "" };
    let table: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!(
        "{tag}{} seed={} seconds={} trace={} fingerprint={:#018x}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, out.input_fingerprint
    );
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        // A layer this workload does not drive reports 0.
        let value = out.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        println!("{tag}{:<34} {:>18.6} {unit}", name, value);
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    for (name, value) in &out.info {
        println!("{tag}  {name} = {}", value.compact());
    }
    for note in &out.tally.notes {
        println!("{tag}  FAILED: {note}");
    }
    let correct = out.tally.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let mut record = vec![
        ("workload", Json::str(opts.workload.as_str())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "input_fingerprint",
            Json::str(format!("{:#018x}", out.input_fingerprint)),
        ),
        ("result", line.clone()),
        ("info", Json::obj(out.info.iter().cloned())),
        (
            "failures",
            Json::Arr(out.tally.notes.iter().map(Json::str).collect()),
        ),
    ];
    if opts.trace {
        let by_name = tracer.by_name();
        let total: u64 = by_name.values().map(|s| s.2).sum();
        println!("{tag}  self time by span (share of all traced time):");
        let mut rows = Vec::new();
        for (name, (count, all, own)) in &by_name {
            println!(
                "{tag}    {:<32} n={:<7} total={:>10.3} ms  self={:>10.3} ms  {:>5.1}%",
                name,
                count,
                *all as f64 / 1e6,
                *own as f64 / 1e6,
                100.0 * *own as f64 / total.max(1) as f64
            );
            rows.push((
                *name,
                Json::obj([
                    ("count", Json::Num(*count as f64)),
                    ("total_ns", Json::Num(*all as f64)),
                    ("self_ns", Json::Num(*own as f64)),
                ]),
            ));
        }
        record.push(("spans_by_name", Json::obj(rows)));
        let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
        let doc = Json::obj([
            ("workload", Json::str(opts.workload.as_str())),
            ("seed", Json::Num(opts.seed as f64)),
            ("smoke", Json::Bool(opts.smoke)),
            ("spans", tracer.to_json()),
        ]);
        std::fs::write(&path, doc.compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = detail_path(&opts.out_dir, &opts.workload, opts.trace);
    std::fs::write(&path, Json::obj(record).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{tag}{}", line.compact());
    Ok(correct)
}

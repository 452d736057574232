//! What every workload shares: options, the failure tally, the outcome.

use crate::defs::SIZED_FOR_SECONDS;
use crate::json::Json;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Relative error every workload tracks and audits at.
pub const EPS: f64 = 0.1;

/// Worker threads (and remote worker processes). Recorded, not adapted: the
/// host this benchmark was sized on has two CPUs.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub worker_bin: PathBuf,
}

impl Opts {
    /// Timed passes for a workload sized at `at_ten` passes per ten seconds.
    /// A traced run times a quarter of them with tracing on and a quarter
    /// with it off; a smoke run a sixteenth.
    pub fn passes(&self, at_ten: usize) -> usize {
        let mut p = at_ten as f64 * self.seconds / SIZED_FOR_SECONDS;
        if self.trace {
            p /= 2.0;
        }
        if self.smoke {
            p /= 16.0;
        }
        // A traced run needs two passes of each kind.
        (p.round() as usize).max(if self.trace { 4 } else { 2 })
    }

    /// Set-ups measured per run (their median is `setup_s`).
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// A size divided by 16 in a smoke run.
    pub fn sized(&self, full: usize) -> usize {
        if self.smoke {
            (full / 16).max(1)
        } else {
            full
        }
    }

    /// The timed phase stops once it has run this long, whatever is left: on
    /// a host far slower than the one the sizes were chosen on, a run still
    /// ends in time (sample counts are printed, so it shows).
    pub fn time_cap(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 2.0)
    }
}

/// Checks made and checks failed. Every boundary the engine audits counts as
/// one attempt; so does every comparison against a reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// One comparison against a reference.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail(!ok as u64, what);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub input_fingerprint: u64,
    pub tally: Tally,
    /// Metric name → value; `main` picks the end-to-end or per-layer set.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts, the percentile picked for each tail, sizes.
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: Json) {
        self.info.push((name, value));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its result and wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Walls of the timed passes of a run, split by whether tracing was on.
#[derive(Debug, Default)]
pub struct PassWalls {
    /// Seconds per pass.
    pub pass_s: Vec<f64>,
    /// Milliseconds per round, one sample per segment.
    pub round_ms: Vec<f64>,
}

/// The samples every workload collects.
pub struct Timed<'a> {
    pub setup_s: &'a [f64],
    pub updates_per_pass: f64,
    /// The untraced passes.
    pub plain: &'a PassWalls,
    pub ckpt_ms: &'a [f64],
    pub recover_ms: &'a [f64],
    /// The statistic `recover_ms_p50` is read with: the median, except where
    /// the samples are too discrete for one.
    pub recover: fn(&[f64]) -> f64,
}

impl Outcome {
    /// The timed end-to-end metrics, the demoted tail, and the sample record.
    pub fn set_timed(&mut self, t: Timed) {
        let round_tail = tail(&t.plain.round_ms);
        self.set("setup_s", median(t.setup_s));
        self.set(
            "updates_per_s",
            t.updates_per_pass / median(&t.plain.pass_s),
        );
        self.set("round_ms_p50", median(&t.plain.round_ms));
        self.set("round_ms_tail", round_tail.value);
        self.set("harness.tail_permille", round_tail.per_mille as f64);
        self.set("ckpt_ms_p50", median(t.ckpt_ms));
        self.set("recover_ms_p50", (t.recover)(t.recover_ms));
        let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        self.note("setup_s_samples", nums(t.setup_s));
        self.note("updates_per_pass", Json::Num(t.updates_per_pass));
        self.note("passes", Json::Num(t.plain.pass_s.len() as f64));
        self.note("pass_s_quartiles", five_numbers(&t.plain.pass_s));
        self.note("round_samples", Json::Num(round_tail.samples as f64));
        self.note("round_ms_tail_is", Json::str(round_tail.label));
        self.note("round_ms_quartiles", five_numbers(&t.plain.round_ms));
        self.note("ckpt_samples", Json::Num(t.ckpt_ms.len() as f64));
        self.note("ckpt_ms_quartiles", five_numbers(t.ckpt_ms));
        self.note("recover_samples", Json::Num(t.recover_ms.len() as f64));
        self.note("recover_ms_quartiles", five_numbers(t.recover_ms));
    }

    /// What tracing costs, and how much of a traced pass lies outside every
    /// call span.
    pub fn set_trace_health(&mut self, tracer: &Tracer, plain: &PassWalls, traced: &PassWalls) {
        self.set(
            "trace.overhead",
            median(&traced.pass_s) / median(&plain.pass_s) - 1.0,
        );
        let (_, total, own) = tracer.by_name().get("pass").copied().unwrap_or_default();
        self.set("trace.unattributed_share", own as f64 / total.max(1) as f64);
    }
}

/// Minimum, quartiles and maximum of a set of samples, for the record.
fn five_numbers(xs: &[f64]) -> Json {
    let [q1, q2, q3] = crate::stats::quartiles(xs);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::Arr([min, q1, q2, q3, max].map(Json::Num).to_vec())
}

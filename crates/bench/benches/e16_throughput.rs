//! E16 — throughput of the batched, sharded engine (`dsv-engine`) vs the
//! sequential per-update `Driver` loop.
//!
//! Sweeps shards × batch sizes over a ≥10M-update stream (400k in
//! `--smoke` mode) for three stream classes, and writes the results as
//! machine-readable JSON (default `BENCH_e16.json`, schema enforced by
//! the `bench_schema` CI gate) so the perf trajectory is diffable across
//! commits.
//!
//! ```sh
//! cargo bench -p dsv-bench --bench e16_throughput            # full run
//! target/release/deps/e16_throughput-* --smoke --out X.json  # CI smoke
//! ```
//!
//! Acceptance target (ISSUE 3): at `S = 8` the `parted` engine sustains
//! ≥ 5× the sequential Driver's updates/sec on the 10M-update monotone
//! stream — enforced here on full runs before the JSON is written, and
//! re-enforced on the committed artifact by `bench_schema`.

use dsv_bench::table::f;
use dsv_bench::{banner, Json, Table};
use dsv_core::api::{Driver, TrackerKind, TrackerSpec};
use dsv_engine::{EngineConfig, ShardedEngine};
use dsv_gen::{DeltaGen, MonotoneGen, RoundRobin, WalkGen};
use dsv_net::Update;
use std::time::Instant;

const K: usize = 8;
const EPS: f64 = 0.1;
const SHARD_AXIS: [usize; 4] = [1, 2, 4, 8];
const BATCH_AXIS: [usize; 3] = [4_096, 32_768, 262_144];
/// Floor on the best `parted` speedup over the sequential Driver at
/// `S = 8` on the monotone stream (full runs; re-enforced by
/// `bench_schema` on the committed artifact).
const PARTED_GATE: f64 = 5.0;

fn spec() -> TrackerSpec {
    TrackerSpec::new(TrackerKind::Deterministic)
        .k(K)
        .eps(EPS)
        .deletions(true)
}

/// Sequential baseline: the audited per-update Driver loop.
fn baseline_updates_per_sec(updates: &[Update]) -> (f64, u64) {
    let mut tracker = spec().build().expect("valid spec");
    let driver = Driver::new(EPS).expect("valid eps");
    let started = Instant::now();
    let report = driver.run(&mut tracker, updates).expect("stream fits kind");
    let secs = started.elapsed().as_secs_f64();
    (updates.len() as f64 / secs, report.stats.total_messages())
}

struct Row {
    mode: &'static str,
    shards: usize,
    batch: usize,
    updates_per_sec: f64,
    speedup: f64,
    boundary_violations: u64,
    messages: u64,
}

/// Central-router ingestion: the engine receives the globally interleaved
/// stream and routes it to shards itself.
fn routed_row(updates: &[Update], shards: usize, batch: usize, baseline: f64) -> Row {
    let cfg = EngineConfig::new(shards, batch).eps(EPS);
    let mut engine = ShardedEngine::counters(spec(), cfg).expect("valid config");
    let report = engine.run(updates).expect("stream fits kind");
    let ups = report.updates_per_sec();
    Row {
        mode: "routed",
        shards,
        batch,
        updates_per_sec: ups,
        speedup: ups / baseline,
        boundary_violations: report.boundary_violations,
        messages: report.total_stats().total_messages(),
    }
}

/// Distributed ingestion: per-site feeds arrive pre-parted (every site
/// streams on its own queue — no central router exists), zero-copy into
/// the shard workers. Feed construction is outside the timed region, the
/// same way the baseline's `Vec<Update>` construction is.
fn parted_row(feeds: &[(usize, &[i64])], shards: usize, batch: usize, baseline: f64) -> Row {
    let cfg = EngineConfig::new(shards, batch).eps(EPS);
    let mut engine = ShardedEngine::counters(spec(), cfg).expect("valid config");
    let report = engine.run_parted(feeds).expect("stream fits kind");
    let ups = report.updates_per_sec();
    Row {
        mode: "parted",
        shards,
        batch,
        updates_per_sec: ups,
        speedup: ups / baseline,
        boundary_violations: report.boundary_violations,
        messages: report.total_stats().total_messages(),
    }
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_e16.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--bench" | "--test" => {} // harness-compat flags from `cargo bench`
            other => {
                eprintln!("e16_throughput: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let n: u64 = if smoke { 400_000 } else { 10_000_000 };

    banner(
        "E16 — batched sharded engine throughput",
        "ShardedEngine sustains >= 5x the sequential Driver's updates/sec at S = 8 \
         on a 10M-update stream, with boundary-audited estimates",
    );
    println!(
        "n = {n}, k = {K}, eps = {EPS}, kind = deterministic{}",
        if smoke { "  [SMOKE]" } else { "" }
    );

    let streams: Vec<(&str, Vec<i64>)> = vec![
        ("monotone", MonotoneGen::ones().deltas(n)),
        ("biased-walk-0.05", WalkGen::biased(9, 0.05).deltas(n)),
        ("fair-walk", WalkGen::fair(11).deltas(n)),
    ];

    let mut table = Table::new(&[
        "stream",
        "mode",
        "shards",
        "batch",
        "upd/s",
        "speedup",
        "boundary-viol",
        "messages",
    ]);
    let mut stream_docs = Vec::new();
    // Best monotone S=8 parted speedup, for the gate.
    let mut parted_speedup = 0.0f64;

    for (name, deltas) in &streams {
        let updates = dsv_gen::assign_updates(deltas, RoundRobin::new(K));
        // Per-site feeds for the distributed-ingest mode (untimed, like
        // the baseline's update vector construction).
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..K).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        let feed_slices: Vec<(usize, &[i64])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

        let (baseline, base_msgs) = baseline_updates_per_sec(&updates);
        table.row(vec![
            name.to_string(),
            "seq".into(),
            "-".into(),
            "-".into(),
            format!("{:.3e}", baseline),
            f(1.0),
            "0".into(),
            base_msgs.to_string(),
        ]);

        let mut rows_json = Vec::new();
        for shards in SHARD_AXIS {
            for batch in BATCH_AXIS {
                for row in [
                    routed_row(&updates, shards, batch, baseline),
                    parted_row(&feed_slices, shards, batch, baseline),
                ] {
                    if *name == "monotone" && shards == 8 && row.mode == "parted" {
                        parted_speedup = parted_speedup.max(row.speedup);
                    }
                    table.row(vec![
                        name.to_string(),
                        row.mode.to_string(),
                        row.shards.to_string(),
                        row.batch.to_string(),
                        format!("{:.3e}", row.updates_per_sec),
                        f(row.speedup),
                        row.boundary_violations.to_string(),
                        row.messages.to_string(),
                    ]);
                    rows_json.push(Json::obj(vec![
                        ("mode", Json::str(row.mode)),
                        ("shards", Json::num(row.shards as f64)),
                        ("batch", Json::num(row.batch as f64)),
                        ("updates_per_sec", Json::num(row.updates_per_sec)),
                        ("speedup", Json::num(row.speedup)),
                        (
                            "boundary_violations",
                            Json::num(row.boundary_violations as f64),
                        ),
                        ("messages", Json::num(row.messages as f64)),
                    ]));
                }
            }
        }
        stream_docs.push(Json::obj(vec![
            ("stream", Json::str(*name)),
            ("baseline_updates_per_sec", Json::num(baseline)),
            ("rows", Json::Arr(rows_json)),
        ]));
    }
    table.print();

    println!(
        "\ngate: best S=8 parted speedup on the monotone stream = {parted_speedup:.2}x \
         (target >= {PARTED_GATE}x on the full run)"
    );
    // The gate binds *before* the JSON is written: a full run that
    // regresses below the floor leaves no artifact to commit. Smoke runs
    // skip it (CI machines are noisy and 400k updates barely amortize
    // worker startup) but still record the ratio for bench_schema's
    // shape checks.
    if !smoke && parted_speedup < PARTED_GATE {
        eprintln!(
            "e16_throughput: GATE FAILED — best S=8 parted speedup \
             {parted_speedup:.2}x < {PARTED_GATE}x"
        );
        std::process::exit(1);
    }

    let doc = Json::obj(vec![
        ("experiment", Json::str("e16_throughput")),
        ("smoke", Json::Bool(smoke)),
        ("n", Json::num(n as f64)),
        ("kind", Json::str("deterministic")),
        ("k", Json::num(K as f64)),
        ("eps", Json::num(EPS)),
        ("parted_gate", Json::num(PARTED_GATE)),
        ("parted_speedup", Json::num(parted_speedup)),
        ("streams", Json::Arr(stream_docs)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH json");
    println!("\nwrote {out}");

    println!(
        "\nreading: 'routed' feeds the engine the globally interleaved stream:\n\
         the calling thread reads and scatters every update into per-shard\n\
         buffers, a window of up to 64 batches (2^20 inputs) at a time, and\n\
         the window then runs on the same workers as 'parted'. That serial\n\
         scatter pass is what keeps routed below parted. 'parted' ingests\n\
         per-site feeds the way a deployed system receives them (no router\n\
         exists), zero-copy into the absorb_quiet kernels, which is where\n\
         the >= 5x gate lives.\n\
         Boundary violations on the fair walk are expected: near f = 0 the\n\
         merged bound eps*sum|f_s| exceeds eps*|f| (DESIGN 5)."
    );
}

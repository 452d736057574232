//! E20 — the socket tax on remote ingestion: `RemoteEngine::run_parted`
//! throughput versus the in-process engine, over both socket families
//! (UDS where the platform has it, TCP loopback everywhere) and both
//! worker deployments (in-process threads, separate `dsv-shard-server`
//! processes).
//!
//! There is one remote path and nothing to tune on it: the coordinator
//! pumps each worker up to a computed number of rounds past the report
//! it reads next (DESIGN.md §8), so every combo is one row — what a
//! default deployment gets.
//!
//! Every timed run is audited first: estimates, ground truth, batch
//! counts, `CommStats` ledgers, per-shard replica estimates, and the
//! final checkpoint image must be **bit-identical** to an in-process
//! `ShardedEngine` over the same feeds — a throughput number from a
//! wrong answer aborts the run before any JSON exists.
//!
//! **The gate** (enforced here before `BENCH_e20.json` is written, and
//! re-enforced by `bench_schema` on the committed artifact) is
//! `tcp_uds_parity`: on each spawn mode, TCP throughput must reach ≥
//! [`PARITY_GATE`] × UDS throughput. The two families run the same
//! protocol over the same loopback, so the ratio sits near 1 (0.8–1.3
//! observed) whatever the machine's speed, and it binds on smoke runs
//! too. What it catches is a transport that waits on something the
//! socket does not charge for: a length prefix and a payload written
//! separately on a socket without `TCP_NODELAY` wait ~44 ms a frame on
//! Nagle + delayed ACK, UDS does not, and the ratio reads 0.001.
//! `vs_local` prices what is left of the socket tax and is recorded,
//! not gated (EXPERIMENTS.md E22 has the committed rows).
//!
//! ```sh
//! cargo bench -p dsv-bench --features remote --bench e20_remote
//! target/release/deps/e20_remote-* --smoke --out X.json   # CI smoke
//! ```
//!
//! The shard-server binary for process mode is located next to this
//! bench automatically; set `DSV_SHARD_SERVER_BIN` to override (CI
//! does, to pin the exact artifact under test). Without it, process
//! combos are skipped and the gate reads the threads combos alone.

use dsv_bench::{banner, Json, Table};
use dsv_core::api::{TrackerKind, TrackerSpec};
use dsv_engine::remote::{RemoteConfig, RemoteEngine, RemoteTransport, SpawnMode};
use dsv_engine::{CounterEngine, EngineConfig, EngineReport, ShardedEngine};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const EPS: f64 = 0.1;
const SITES: usize = 4;
const SHARDS: usize = 4;
const WORKERS: usize = 2;
/// The acceptance gate: TCP over UDS throughput, on every spawn mode. Two orders of magnitude from either side — 0.001
/// on a stalled socket, 0.9–1.3 on a healthy one.
const PARITY_GATE: f64 = 0.25;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A ±1 biased walk spread round-robin over the sites — the same stream
/// shape every remote run and the in-process reference consume.
fn feeds(n: u64, seed: u64) -> Vec<(usize, Vec<i64>)> {
    let mut feeds: Vec<(usize, Vec<i64>)> = (0..SITES).map(|s| (s, Vec::new())).collect();
    let mut s = seed;
    for i in 0..n {
        let delta = if lcg(&mut s).is_multiple_of(4) { -1 } else { 1 };
        feeds[(i % SITES as u64) as usize].1.push(delta);
    }
    feeds
}

/// Find the `dsv-shard-server` binary: explicit override first, then the
/// build layout (bench binaries live in `deps/`, one directory below).
fn locate_server_bin() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("DSV_SHARD_SERVER_BIN") {
        return Some(PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    let bin_name = format!("dsv-shard-server{}", std::env::consts::EXE_SUFFIX);
    let candidate = exe.parent()?.parent()?.join(bin_name);
    candidate.is_file().then_some(candidate)
}

struct Combo {
    transport: &'static str,
    spawn: &'static str,
    wall_s: f64,
    updates_per_sec: f64,
    frames_sent: u64,
    frames_received: u64,
    bytes_sent: u64,
    bytes_received: u64,
}

/// Run one remote configuration over `slices`, audit it bit-identical to
/// the in-process reference, and return its timing + wire ledger.
#[allow(clippy::too_many_arguments)]
fn run_remote(
    transport: &'static str,
    spawn: &'static str,
    spec: TrackerSpec,
    cfg: EngineConfig,
    rcfg: RemoteConfig,
    slices: &[(usize, &[i64])],
    n: u64,
    local: &mut CounterEngine,
    local_report: &EngineReport,
) -> Combo {
    let label = format!("{transport}/{spawn}");
    let mut remote = RemoteEngine::counters(spec, cfg, rcfg).expect("remote engine spawns");
    let start = Instant::now();
    let report = remote.run_parted(slices).expect("remote run completes");
    let wall = start.elapsed().as_secs_f64();

    // Audit before the timing is believed: a fast wrong answer is a bug,
    // not a result.
    assert_eq!(
        report.final_estimate, local_report.final_estimate,
        "{label}"
    );
    assert_eq!(report.final_f, local_report.final_f, "{label}");
    assert_eq!(report.n, local_report.n, "{label}");
    assert_eq!(report.batches, local_report.batches, "{label}");
    assert_eq!(
        report.boundary_violations, local_report.boundary_violations,
        "{label}"
    );
    assert_eq!(report.tracker_stats, local_report.tracker_stats, "{label}");
    assert_eq!(report.merge_stats, local_report.merge_stats, "{label}");
    assert_eq!(
        remote.shard_estimates().expect("replica estimates pull"),
        local.shard_estimates(),
        "{label}: replica estimates diverged"
    );
    assert_eq!(
        remote.checkpoint().expect("remote checkpoint"),
        local.checkpoint().expect("local checkpoint"),
        "{label}: checkpoint images diverged"
    );

    let wire = remote.wire_stats();
    Combo {
        transport,
        spawn,
        wall_s: wall,
        updates_per_sec: n as f64 / wall,
        frames_sent: wire.frames_sent,
        frames_received: wire.frames_received,
        bytes_sent: wire.bytes_sent,
        bytes_received: wire.bytes_received,
    }
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_e20.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--bench" | "--test" => {} // harness-compat flags from `cargo bench`
            other => {
                eprintln!("e20_remote: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    // 600 rounds per feed in smoke, 500 in the full run: a round is
    // tens of microseconds, and a row timed over a couple of milliseconds
    // is one scheduler hiccup away from halving (the parity gate divides
    // two of them; at 60 rounds it read 0.36–0.90 over ten runs).
    let n: u64 = if smoke { 600_000 } else { 2_000_000 };
    let batch: usize = if smoke { 250 } else { 1_000 };

    banner(
        "E20 — remote ingestion and the socket tax",
        "RemoteEngine::run_parted vs the in-process engine across \
         transport x spawn mode; TCP must reach >= 0.25x the same run \
         over UDS, bit-identically",
    );
    println!(
        "n = {n}, sites = {SITES}, shards = {SHARDS}, workers = {WORKERS}, \
         batch = {batch}, eps = {EPS}{}",
        if smoke { "  [SMOKE]" } else { "" }
    );

    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(SITES)
        .eps(EPS)
        .seed(2016)
        .deletions(true);
    let base_cfg = EngineConfig::new(SHARDS, batch).workers(WORKERS);
    let feeds = feeds(n, 0x5EED_0020);
    let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

    // The in-process reference: the bit-identity oracle for every remote
    // run, and the "no sockets at all" throughput context row.
    let mut local = ShardedEngine::counters(spec, base_cfg).expect("valid engine config");
    let start = Instant::now();
    let local_report = local.run_parted(&slices).expect("local run");
    let local_ups = n as f64 / start.elapsed().as_secs_f64();

    let server_bin = locate_server_bin();
    if server_bin.is_none() {
        println!(
            "note: dsv-shard-server binary not found — process combos skipped \
             (build with `cargo build --release --features remote`, or set \
             DSV_SHARD_SERVER_BIN)"
        );
    }
    let mut spawns: Vec<(&'static str, SpawnMode)> = vec![("threads", SpawnMode::Threads)];
    if let Some(bin) = &server_bin {
        spawns.push(("processes", SpawnMode::Processes { bin: bin.clone() }));
    }
    let mut transports: Vec<(&'static str, RemoteTransport)> = vec![("tcp", RemoteTransport::Tcp)];
    #[cfg(unix)]
    transports.insert(0, ("uds", RemoteTransport::Uds));

    let mut combos: Vec<Combo> = Vec::new();
    for (tname, transport) in &transports {
        for (sname, spawn) in &spawns {
            let rcfg = RemoteConfig {
                transport: *transport,
                spawn: spawn.clone(),
                io_timeout: Duration::from_secs(10),
                ..RemoteConfig::default()
            };
            combos.push(run_remote(
                tname,
                sname,
                spec,
                base_cfg,
                rcfg,
                &slices,
                n,
                &mut local,
                &local_report,
            ));
        }
    }

    let mut table = Table::new(&[
        "transport",
        "spawn",
        "Mups",
        "vs local",
        "frames out",
        "KB out",
    ]);
    let mut combo_docs = Vec::new();
    for combo in &combos {
        table.row(vec![
            combo.transport.to_string(),
            combo.spawn.to_string(),
            format!("{:.2}", combo.updates_per_sec / 1e6),
            format!("{:.2}x", combo.updates_per_sec / local_ups),
            combo.frames_sent.to_string(),
            format!("{:.0}", combo.bytes_sent as f64 / 1024.0),
        ]);
        combo_docs.push(Json::obj(vec![
            ("transport", Json::str(combo.transport)),
            ("spawn", Json::str(combo.spawn)),
            ("wall_s", Json::num(combo.wall_s)),
            ("updates_per_sec", Json::num(combo.updates_per_sec)),
            ("vs_local", Json::num(combo.updates_per_sec / local_ups)),
            ("frames_sent", Json::num(combo.frames_sent as f64)),
            ("frames_received", Json::num(combo.frames_received as f64)),
            ("bytes_sent", Json::num(combo.bytes_sent as f64)),
            ("bytes_received", Json::num(combo.bytes_received as f64)),
        ]));
    }
    table.print();
    println!("\nin-process reference: {:.2} Mups", local_ups / 1e6);

    // The gate: per spawn mode, TCP over UDS; the worst pair is the one
    // recorded. (Without a UDS family there is nothing to hold TCP
    // against, and no artifact.)
    let ups = |transport: &str, spawn: &str| {
        combos
            .iter()
            .find(|c| c.transport == transport && c.spawn == spawn)
            .map(|c| c.updates_per_sec)
    };
    let worst = spawns
        .iter()
        .filter_map(|(spawn, _)| Some((ups("tcp", spawn)? / ups("uds", spawn)?, *spawn)))
        .min_by(|a, b| a.0.total_cmp(&b.0));
    let Some((parity, gate_spawn)) = worst else {
        println!(
            "\nno UDS rows on this platform: tcp_uds_parity has nothing to compare, no artifact"
        );
        return;
    };
    let gate_combo = format!("tcp/{gate_spawn}");
    println!(
        "\ngate: tcp_uds_parity = {parity:.2} on {gate_combo}, the lowest over spawn \
         modes (target >= {PARITY_GATE}); every run audited bit-identical to the \
         in-process engine"
    );
    // A ratio of two runs of one protocol on one host, so it binds before
    // the artifact is written, on smoke and full runs alike. A regression
    // never produces a green BENCH file.
    if parity < PARITY_GATE {
        eprintln!(
            "e20_remote: GATE FAILED — {gate_combo} runs at \
             {parity:.3}x its UDS twin, below the required {PARITY_GATE}x: the TCP \
             path is waiting on something the socket does not charge for"
        );
        std::process::exit(1);
    }

    let doc = Json::obj(vec![
        ("experiment", Json::str("e20_remote")),
        ("smoke", Json::Bool(smoke)),
        ("n", Json::num(n as f64)),
        ("kind", Json::str("deterministic")),
        ("k", Json::num(SITES as f64)),
        ("eps", Json::num(EPS)),
        ("shards", Json::num(SHARDS as f64)),
        ("workers", Json::num(WORKERS as f64)),
        ("batch", Json::num(batch as f64)),
        ("parity_gate", Json::num(PARITY_GATE)),
        ("gate_combo", Json::str(&gate_combo)),
        ("tcp_uds_parity", Json::num(parity)),
        ("local_updates_per_sec", Json::num(local_ups)),
        ("combos", Json::Arr(combo_docs)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH json");
    println!("\nwrote {out}");

    println!(
        "\nreading: every engine round is one Round frame per worker and one\n\
         report back; the coordinator pumps each worker up to 16 rounds past\n\
         the report it reads next, so a worker is handed later rounds while\n\
         an earlier report is read. 'vs local' prices what remains of the\n\
         socket tax — the floor is serialization plus one memcpy per side,\n\
         not zero."
    );
}

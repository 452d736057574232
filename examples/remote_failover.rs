//! Distributed shards in separate OS processes, with a mid-stream kill.
//!
//! Spawns a `RemoteEngine` whose shard workers are `dsv-shard-server`
//! processes behind a Unix-domain socket (TCP loopback elsewhere),
//! SIGKILLs one worker in the middle of the stream, and shows the
//! coordinator respawning the slot, restoring its shards from the last
//! auto-checkpoint, and replaying the gap — ending bit-identical to an
//! in-process `ShardedEngine` that never saw a failure.
//!
//! Run with:
//!
//! ```text
//! cargo run --features remote --example remote_failover
//! ```
//!
//! The shard-server binary is located next to the example automatically;
//! set `DSV_SHARD_SERVER_BIN` to override (CI does, to pin the exact
//! artifact under test).

use dsv::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// Find the `dsv-shard-server` binary: explicit override first, then the
/// build layout (examples live one directory below the binaries).
fn locate_server_bin() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("DSV_SHARD_SERVER_BIN") {
        return Some(PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    let bin_name = format!("dsv-shard-server{}", std::env::consts::EXE_SUFFIX);
    let candidate = exe.parent()?.parent()?.join(bin_name);
    candidate.is_file().then_some(candidate)
}

fn main() {
    let k = 8;
    let n = 200_000;
    let updates = WalkGen::fair(2016).updates(n, RoundRobin::new(k));
    let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, Vec::new())).collect();
    for u in &updates {
        feeds[u.site].1.push(u.delta);
    }
    let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.05)
        .deletions(true);
    // 4 shards on 2 workers, a checkpoint every 8 boundaries.
    let cfg = EngineConfig::new(4, 1_000).workers(2).checkpoint_every(8);

    // The in-process reference: same feeds, no failures.
    let mut local = ShardedEngine::counters(spec, cfg).expect("valid spec");
    let local_report = local.run_parted(&slices).expect("local run");

    let (spawn, how) = match locate_server_bin() {
        Some(bin) => {
            let how = format!("separate processes ({})", bin.display());
            (SpawnMode::Processes { bin }, how)
        }
        None => (
            SpawnMode::Threads,
            "in-process threads (dsv-shard-server binary not found; \
             build with `cargo build --features remote` first)"
                .to_string(),
        ),
    };
    let transport = if cfg!(unix) {
        #[cfg(unix)]
        {
            RemoteTransport::Uds
        }
        #[cfg(not(unix))]
        unreachable!()
    } else {
        RemoteTransport::Tcp
    };
    let rcfg = RemoteConfig {
        transport,
        spawn,
        io_timeout: Duration::from_millis(500),
        ..RemoteConfig::default()
    };
    println!("workers: {how}");

    let mut remote = RemoteEngine::counters(spec, cfg, rcfg).expect("remote spawn");
    println!("endpoint: {}", remote.endpoint());

    // SIGKILL worker 1 right after round 20's chunks go out: the
    // coordinator's read times out, the slot is respawned (generation 1),
    // its shards restored from the boundary-16 checkpoint, rounds 16..20
    // replayed, and round 20 re-sent — all inside run_parted.
    remote.set_fault_plan(FaultPlan::new().inject(FaultPoint::MidRound(20), 1, FaultKind::Kill));
    let report = remote.run_parted(&slices).expect("remote run");

    for e in remote.events() {
        println!(
            "failover: worker {} died at round {}, respawned \
             (generation {}), {} rounds replayed from checkpoint",
            e.worker, e.round, e.generation, e.replayed_rounds
        );
    }
    println!(
        "estimates: remote {} vs in-process {} (f = {})",
        report.final_estimate, local_report.final_estimate, report.final_f
    );
    println!(
        "ledgers:   merge {} msgs / tracker {} msgs (both sides identical: {})",
        report.merge_stats.total_messages(),
        report.tracker_stats.total_messages(),
        report.merge_stats == local_report.merge_stats
            && report.tracker_stats == local_report.tracker_stats,
    );
    let wire = remote.wire_stats();
    println!(
        "wire:      {} frames / {} bytes sent, {} frames / {} bytes received",
        wire.frames_sent, wire.bytes_sent, wire.frames_received, wire.bytes_received
    );

    assert_eq!(report.final_estimate, local_report.final_estimate);
    assert_eq!(report.final_f, local_report.final_f);
    assert_eq!(report.tracker_stats, local_report.tracker_stats);
    assert_eq!(report.merge_stats, local_report.merge_stats);
    assert_eq!(remote.events().len(), 1);
    assert_eq!(report.boundary_violations, 0);
    println!("recovered run is bit-identical to the undisturbed in-process run");
}

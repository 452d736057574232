//! Fault-injected failover: kill, sever, and stall shard workers at
//! every interesting point of a run, and prove recovery is invisible.
//!
//! The contract (ISSUE 6): a worker death mid-batch, at a boundary, or
//! during a checkpoint write is recovered from the last committed
//! checkpoint with estimates and ledgers **bit-identical** to an
//! undisturbed in-process run; repeated runs are deterministic; and
//! corrupted or truncated wire frames, handshakes, and checkpoint images
//! yield typed errors, never panics.

use dsv::engine::remote::wire::{Chunk, Inputs, ToCoord, ToWorker};
use dsv::net::transport::{hello_bytes, parse_hello, Endpoint, Listener, Role};
use dsv::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn server_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dsv-shard-server"))
}

fn proc_rcfg(transport: RemoteTransport) -> RemoteConfig {
    RemoteConfig {
        transport,
        spawn: SpawnMode::Processes { bin: server_bin() },
        // Tight failure detector so killed/stalled workers are declared
        // dead quickly; generous enough for CI schedulers.
        io_timeout: Duration::from_millis(800),
        ..RemoteConfig::default()
    }
}

fn spec(k: usize) -> TrackerSpec {
    TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.1)
        .seed(31)
        .deletions(true)
}

fn feeds(n: u64, k: usize) -> Vec<(usize, Vec<i64>)> {
    let updates = WalkGen::biased(77, 0.25).updates(n, RoundRobin::new(k));
    let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, Vec::new())).collect();
    for u in &updates {
        feeds[u.site].1.push(u.delta);
    }
    feeds
}

fn slices(feeds: &[(usize, Vec<i64>)]) -> Vec<(usize, &[i64])> {
    feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect()
}

/// A reference fingerprint from an undisturbed in-process run.
struct Reference {
    report: EngineReport,
    shard_estimates: Vec<i64>,
    checkpoint: EngineCheckpoint,
}

fn reference(cfg: EngineConfig, parts: &[(usize, &[i64])]) -> Reference {
    let mut local = ShardedEngine::counters(spec(4), cfg).unwrap();
    let report = local.run_parted(parts).unwrap();
    let shard_estimates = local.shard_estimates();
    let checkpoint = local.checkpoint().unwrap();
    Reference {
        report,
        shard_estimates,
        checkpoint,
    }
}

fn assert_recovered(
    label: &str,
    remote: &mut RemoteEngine<i64>,
    got: &EngineReport,
    re: &Reference,
) {
    assert_eq!(
        got.final_estimate, re.report.final_estimate,
        "{label}: estimate diverged after failover"
    );
    assert_eq!(got.final_f, re.report.final_f, "{label}");
    assert_eq!(
        got.tracker_stats, re.report.tracker_stats,
        "{label}: in-protocol ledger diverged"
    );
    assert_eq!(
        got.merge_stats, re.report.merge_stats,
        "{label}: merge ledger perturbed by replay"
    );
    assert_eq!(
        got.boundary_violations, re.report.boundary_violations,
        "{label}"
    );
    assert_eq!(
        remote.shard_estimates().unwrap(),
        re.shard_estimates,
        "{label}: replica states diverged"
    );
    assert_eq!(
        remote.checkpoint().unwrap(),
        re.checkpoint,
        "{label}: recovered checkpoint image diverged"
    );
}

/// Kill or sever a worker mid-batch, at a boundary, and during the
/// checkpoint write — every combination respawns the slot and recovers
/// bit-identically from the last committed cut.
fn fault_matrix(transport: RemoteTransport) {
    // checkpoint_every(4) puts committed cuts at boundaries 4, 8, …;
    // round-8 faults therefore replay an interesting (non-empty) window.
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
    let fs = feeds(16_000, 4);
    let parts = slices(&fs);
    let re = reference(cfg, &parts);

    // DuringCheckpoint(b) targets the auto-commit at boundary b, which
    // exists only when (b + 1) is a multiple of the period.
    let points = [
        FaultPoint::MidRound(8),
        FaultPoint::AtBoundary(8),
        FaultPoint::DuringCheckpoint(7),
    ];
    for point in points {
        for kind in [FaultKind::Kill, FaultKind::Sever] {
            let label = format!("{point:?}/{kind:?}/{transport:?}");
            let mut remote = RemoteEngine::counters(spec(4), cfg, proc_rcfg(transport)).unwrap();
            remote.set_fault_plan(FaultPlan::new().inject(point, 1, kind));
            let report = remote.run_parted(&parts).unwrap();
            assert!(
                !remote.events().is_empty(),
                "{label}: fault did not trigger a failover"
            );
            let event = remote.events()[0];
            assert_eq!(event.worker, 1, "{label}");
            assert!(event.generation >= 1, "{label}");
            assert_recovered(&label, &mut remote, &report, &re);
        }
    }
}

#[test]
fn fault_matrix_over_tcp() {
    fault_matrix(RemoteTransport::Tcp);
}

#[cfg(unix)]
#[test]
fn fault_matrix_over_uds() {
    fault_matrix(RemoteTransport::Uds);
}

/// A stalled (not dead) worker trips the coordinator's failure detector;
/// the stale process is torn down and its late reply never corrupts the
/// replacement's stream.
#[test]
fn stalled_worker_is_failed_over_not_waited_for() {
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
    let fs = feeds(8_000, 4);
    let parts = slices(&fs);
    let re = reference(cfg, &parts);
    let rcfg = RemoteConfig {
        io_timeout: Duration::from_millis(150),
        ..proc_rcfg(RemoteTransport::Tcp)
    };
    let mut remote = RemoteEngine::counters(spec(4), cfg, rcfg).unwrap();
    remote.set_fault_plan(FaultPlan::new().inject(
        FaultPoint::MidRound(5),
        0,
        FaultKind::Delay { ms: 1_000 },
    ));
    let report = remote.run_parted(&parts).unwrap();
    assert_eq!(remote.events().len(), 1);
    assert_recovered("delay", &mut remote, &report, &re);
}

/// A fault "mid-round" is two different recoveries, told apart by whether
/// the round's report reached the coordinator before the worker was
/// gone — and against a reply that takes microseconds, a `Kill` at
/// `MidRound` lands on either side of it (DESIGN.md §8). Each side is
/// pinned here by a fault that cannot land on the other, under the
/// benchmark's `checkpoint_every(1)`, where they read 0 and 1 replayed
/// rounds:
///
/// * **reply lost → re-send.** A `Delay` holds the worker past
///   `io_timeout` with the report unwritten, so the failover happens
///   inside the round: nothing after the last commit to replay, and the
///   round itself is re-sent to the replacement and its report used.
/// * **reply landed → the failure surfaces in the commit.** A `Kill` at
///   `AtBoundary` fires once the report is absorbed; the boundary's
///   checkpoint pull is what finds the worker dead, and the replay
///   window is the round it had already answered.
#[test]
fn both_sides_of_the_mid_round_race_are_pinned() {
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(1);
    let fs = feeds(8_000, 4);
    let parts = slices(&fs);
    let re = reference(cfg, &parts);
    let stall = FaultKind::Delay { ms: 1_000 };
    for (label, point, kind, round, replayed) in [
        ("reply lost", FaultPoint::MidRound(5), stall, 5, 0),
        (
            "reply landed",
            FaultPoint::AtBoundary(5),
            FaultKind::Kill,
            6,
            1,
        ),
    ] {
        let rcfg = RemoteConfig {
            io_timeout: Duration::from_millis(150),
            ..proc_rcfg(RemoteTransport::Tcp)
        };
        let mut remote = RemoteEngine::counters(spec(4), cfg, rcfg).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(point, 1, kind));
        let report = remote.run_parted(&parts).unwrap();
        assert_eq!(remote.events().len(), 1, "{label}");
        let event = remote.events()[0];
        assert_eq!(event.round, round, "{label}: rounds absorbed at detection");
        assert_eq!(event.replayed_rounds, replayed, "{label}");
        assert_recovered(label, &mut remote, &report, &re);
    }
}

/// The acceptance gate: kill a shard process mid-stream, 50 consecutive
/// runs per transport, every one bit-identical to the undisturbed
/// in-process reference.
fn kill_mid_stream_repeated(transport: RemoteTransport) {
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
    let fs = feeds(8_000, 4);
    let parts = slices(&fs);
    let re = reference(cfg, &parts);
    for run in 0..50 {
        let label = format!("{transport:?} run {run}");
        let mut remote = RemoteEngine::counters(spec(4), cfg, proc_rcfg(transport)).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(FaultPoint::MidRound(6), 1, FaultKind::Kill));
        let report = remote.run_parted(&parts).unwrap();
        assert_eq!(remote.events().len(), 1, "{label}");
        assert_recovered(&label, &mut remote, &report, &re);
    }
}

#[test]
fn kill_mid_stream_is_bit_identical_50_of_50_over_tcp() {
    kill_mid_stream_repeated(RemoteTransport::Tcp);
}

#[cfg(unix)]
#[test]
fn kill_mid_stream_is_bit_identical_50_of_50_over_uds() {
    kill_mid_stream_repeated(RemoteTransport::Uds);
}

/// Two deaths in one run (the respawned worker dies again later) still
/// converge; exceeding the failover budget is a typed error, not a hang
/// or a panic.
#[test]
fn repeated_deaths_and_an_exhausted_budget() {
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
    let fs = feeds(16_000, 4);
    let parts = slices(&fs);
    let re = reference(cfg, &parts);

    let mut remote = RemoteEngine::counters(spec(4), cfg, proc_rcfg(RemoteTransport::Tcp)).unwrap();
    remote.set_fault_plan(
        FaultPlan::new()
            .inject(FaultPoint::MidRound(3), 1, FaultKind::Sever)
            .inject(FaultPoint::MidRound(11), 1, FaultKind::Kill),
    );
    let report = remote.run_parted(&parts).unwrap();
    assert_eq!(remote.events().len(), 2);
    assert_eq!(remote.events()[1].generation, 2);
    assert_recovered("two deaths", &mut remote, &report, &re);

    let rcfg = RemoteConfig {
        max_failovers: 0,
        ..proc_rcfg(RemoteTransport::Tcp)
    };
    let mut remote = RemoteEngine::counters(spec(4), cfg, rcfg).unwrap();
    remote.set_fault_plan(FaultPlan::new().inject(FaultPoint::MidRound(2), 0, FaultKind::Sever));
    match remote.run_parted(&parts) {
        Err(RemoteError::FailoverExhausted { worker: 0 }) => {}
        other => panic!("expected FailoverExhausted, got {other:?}"),
    }
}

/// A worker process lives as long as its connection: once the
/// coordinator drops it, the process sees EOF and exits cleanly. Nothing
/// else reaps a worker, so a leak here is a process that never exits.
#[test]
fn a_dropped_connection_ends_the_worker_process() {
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
    let mut child = std::process::Command::new(server_bin())
        .arg(listener.endpoint().to_string())
        .args(["--worker", "2", "--gen", "5"])
        .spawn()
        .unwrap();
    let mut conn = listener.accept(Some(Duration::from_secs(10))).unwrap();
    let hello = parse_hello(&conn.recv().unwrap()).unwrap();
    assert_eq!(
        (hello.role, hello.worker, hello.generation),
        (Role::Worker, 2, 5)
    );
    drop(conn);

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let status = loop {
        match child.try_wait().unwrap() {
            Some(status) => break Some(status),
            None if std::time::Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert_eq!(status.and_then(|s| s.code()), Some(0), "{status:?}");
}

/// Every-byte corruption of the new wire surfaces: handshake frames and
/// both protocol envelopes decode to typed errors on any single-byte
/// corruption or truncation — never a panic, never a bogus accept of a
/// wrong magic/version/tag.
#[test]
fn corrupted_wire_frames_and_handshakes_never_panic() {
    let hello = hello_bytes(Role::Worker, 3, 1);
    assert_eq!(parse_hello(&hello).unwrap().worker, 3);
    for cut in 0..hello.len() {
        let _ = parse_hello(&hello[..cut]).unwrap_err();
    }
    for pos in 0..hello.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bytes = hello.clone();
            bytes[pos] ^= flip;
            // A flipped byte may still parse (e.g. a worker-id bit), but
            // must never panic; role/magic corruption must be rejected.
            let _ = parse_hello(&bytes);
        }
    }

    let round = ToWorker::Round {
        round: 7,
        delay_ms: 0,
        chunks: vec![Chunk {
            sid: 1,
            site: 1,
            inputs: Inputs::Counts(vec![1, -2, 3]),
        }],
        commit: vec![1],
    }
    .to_bytes();
    let report = ToCoord::RoundReport {
        round: 7,
        entries: vec![(2, 2)],
        states: vec![TrackerState::new(
            TrackerKind::Deterministic,
            4,
            vec![5; 16],
        )],
    }
    .to_bytes();
    for frame in [&round, &report] {
        for cut in 0..frame.len() {
            ToWorker::from_bytes(&frame[..cut]).unwrap_err();
            ToCoord::from_bytes(&frame[..cut]).unwrap_err();
        }
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bytes = frame.clone();
                bytes[pos] ^= flip;
                let _ = ToWorker::from_bytes(&bytes);
                let _ = ToCoord::from_bytes(&bytes);
            }
        }
    }
    // Envelopes are direction-tagged: a coordinator frame never decodes
    // as a worker frame and vice versa.
    ToCoord::from_bytes(&round).unwrap_err();
    ToWorker::from_bytes(&report).unwrap_err();
}

/// Every-byte corruption of a remotely-assembled checkpoint image:
/// decode either fails with a typed error or yields an image that
/// resumes/fails typed — never a panic.
#[test]
fn corrupted_remote_checkpoint_is_a_typed_error_never_a_panic() {
    let cfg = EngineConfig::new(2, 200);
    let fs = feeds(1_200, 2);
    let parts = slices(&fs);
    let mut remote = RemoteEngine::counters(
        spec(2),
        cfg,
        RemoteConfig {
            io_timeout: Duration::from_secs(5),
            ..RemoteConfig::default()
        },
    )
    .unwrap();
    remote.run_parted(&parts).unwrap();
    let bytes = remote.checkpoint().unwrap().to_bytes();

    for cut in 0..bytes.len() {
        EngineCheckpoint::from_bytes(&bytes[..cut]).unwrap_err();
    }
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xff;
        if let Ok(ckpt) = EngineCheckpoint::from_bytes(&corrupt) {
            // Structurally valid after corruption: resuming must still be
            // typed — Ok or Err, never a panic.
            let _ = CounterEngine::resume(spec(2), cfg, &ckpt);
        }
    }
}

//! Remote-engine equivalence: shard workers in separate processes over
//! UDS/TCP loopback are **bit-identical** to the in-process engine.
//!
//! The contract (ISSUE 6): for every one of the ten `TrackerKind`s and
//! across worker counts, `RemoteEngine::run_parted` must produce the same
//! estimates, the same per-shard replica states, and the same
//! `CommStats` ledgers (tracker, merge, checkpoint) as
//! `ShardedEngine::run_parted` over the same pre-parted feeds — moving
//! shards behind sockets is an execution detail, not a semantics change.

use dsv::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// The shard-server binary Cargo built for this test run.
fn server_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dsv-shard-server"))
}

fn rcfg(transport: RemoteTransport) -> RemoteConfig {
    RemoteConfig {
        transport,
        spawn: SpawnMode::Processes { bin: server_bin() },
        io_timeout: Duration::from_secs(5),
        ..RemoteConfig::default()
    }
}

fn counter_feeds(kind: TrackerKind, n: u64, k: usize) -> Vec<(usize, Vec<i64>)> {
    let updates = if kind.supports_deletions() {
        WalkGen::biased(13, 0.2).updates(n, RoundRobin::new(k))
    } else {
        MonotoneGen::jumps(5, 3).updates(n, RoundRobin::new(k))
    };
    let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, Vec::new())).collect();
    for u in &updates {
        feeds[u.site].1.push(u.delta);
    }
    feeds
}

fn item_feeds(n: u64, k: usize) -> Vec<(usize, Vec<(u64, i64)>)> {
    let updates = ItemStreamGen::new(3, 128, 1.1, 0.25, 1).updates(n, RoundRobin::new(k));
    let mut feeds: Vec<(usize, Vec<(u64, i64)>)> = (0..k).map(|s| (s, Vec::new())).collect();
    for u in &updates {
        feeds[u.site].1.push((u.item, u.delta));
    }
    feeds
}

fn counter_spec(kind: TrackerKind, k: usize) -> TrackerSpec {
    TrackerSpec::new(kind)
        .k(k)
        .eps(0.1)
        .seed(99)
        .deletions(kind.supports_deletions())
}

fn item_spec(kind: TrackerKind, k: usize) -> TrackerSpec {
    TrackerSpec::new(kind).k(k).eps(0.15).seed(7).universe(128)
}

/// Assert every observable fingerprint matches between a remote run and
/// the in-process reference over the same feeds.
macro_rules! assert_fingerprints {
    ($label:expr, $remote:expr, $remote_report:expr, $local:expr, $local_report:expr) => {{
        assert_eq!(
            $remote_report.final_estimate, $local_report.final_estimate,
            "{}: estimate diverged",
            $label
        );
        assert_eq!($remote_report.final_f, $local_report.final_f, "{}", $label);
        assert_eq!($remote_report.n, $local_report.n, "{}", $label);
        assert_eq!($remote_report.batches, $local_report.batches, "{}", $label);
        assert_eq!(
            $remote_report.boundary_violations, $local_report.boundary_violations,
            "{}",
            $label
        );
        assert_eq!(
            $remote_report.tracker_stats, $local_report.tracker_stats,
            "{}: in-protocol traffic diverged",
            $label
        );
        assert_eq!(
            $remote_report.merge_stats, $local_report.merge_stats,
            "{}: merge ledger diverged",
            $label
        );
        assert_eq!(
            $remote.shard_estimates().unwrap(),
            $local.shard_estimates(),
            "{}: replica estimates diverged",
            $label
        );
        assert_eq!($remote.estimate(), $local.estimate(), "{}", $label);
        assert_eq!($remote.time(), $local.time(), "{}", $label);
        // The remote run's mandatory end-of-run commit charges exactly
        // what one explicit in-process checkpoint charges, and the
        // assembled images — per-shard replica states included — are
        // byte-equal.
        let local_ckpt = $local.checkpoint().unwrap();
        assert_eq!(
            $remote.checkpoint_stats(),
            $local.checkpoint_stats(),
            "{}: checkpoint ledger diverged",
            $label
        );
        assert_eq!(
            $remote.checkpoint().unwrap(),
            local_ckpt,
            "{}: checkpoint images diverged",
            $label
        );
    }};
}

fn counter_matrix(transport: RemoteTransport) {
    let k = 4;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            k
        };
        let spec = counter_spec(kind, k);
        let feeds = counter_feeds(kind, 8_000, k);
        let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        for workers in [1usize, 2, 3] {
            let label = format!("{} W={workers} {transport:?}", kind.label());
            let cfg = EngineConfig::new(k.min(4), 500).workers(workers);
            let mut local = ShardedEngine::counters(spec, cfg).unwrap();
            let local_report = local.run_parted(&slices).unwrap();
            let mut remote = RemoteEngine::counters(spec, cfg, rcfg(transport)).unwrap();
            let report = remote.run_parted(&slices).unwrap();
            assert_fingerprints!(label, remote, report, local, local_report);
            assert!(remote.events().is_empty(), "{label}: unexpected failover");
        }
    }
}

fn item_matrix(transport: RemoteTransport) {
    let k = 4;
    for kind in TrackerKind::FREQUENCIES {
        let spec = item_spec(kind, k);
        let feeds = item_feeds(8_000, k);
        let slices: Vec<(usize, &[(u64, i64)])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        for workers in [1usize, 3] {
            let label = format!("{} W={workers} {transport:?}", kind.label());
            let cfg = EngineConfig::new(k, 500).workers(workers);
            let mut local = ShardedEngine::items(spec, cfg).unwrap();
            let local_report = local.run_parted(&slices).unwrap();
            let mut remote = RemoteEngine::items(spec, cfg, rcfg(transport)).unwrap();
            let report = remote.run_parted(&slices).unwrap();
            assert_fingerprints!(label, remote, report, local, local_report);
        }
    }
}

#[cfg(unix)]
#[test]
fn every_counter_kind_is_bit_identical_over_uds_processes() {
    counter_matrix(RemoteTransport::Uds);
}

#[cfg(unix)]
#[test]
fn every_frequency_kind_is_bit_identical_over_uds_processes() {
    item_matrix(RemoteTransport::Uds);
}

#[test]
fn every_counter_kind_is_bit_identical_over_tcp_processes() {
    counter_matrix(RemoteTransport::Tcp);
}

#[test]
fn every_frequency_kind_is_bit_identical_over_tcp_processes() {
    item_matrix(RemoteTransport::Tcp);
}

#[test]
fn remote_checkpoint_restores_into_an_in_process_engine() {
    // A checkpoint assembled over the wire is interchangeable with a
    // local one: resume an in-process engine from it, continue both over
    // the same tail, and the fingerprints stay identical.
    let kind = TrackerKind::Deterministic;
    let spec = counter_spec(kind, 4);
    let cfg = EngineConfig::new(4, 400);
    let feeds = counter_feeds(kind, 12_000, 4);
    let head: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, &v[..v.len() / 2])).collect();
    let tail: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, &v[v.len() / 2..])).collect();

    let mut remote = RemoteEngine::counters(spec, cfg, rcfg(RemoteTransport::Tcp)).unwrap();
    remote.run_parted(&head).unwrap();
    let ckpt = remote.checkpoint().unwrap();

    let mut resumed = CounterEngine::resume(spec, cfg, &ckpt).unwrap();
    assert_eq!(resumed.estimate(), remote.estimate());
    let resumed_report = resumed.run_parted(&tail).unwrap();
    let remote_report = remote.run_parted(&tail).unwrap();
    assert_eq!(remote_report.final_estimate, resumed_report.final_estimate);
    assert_eq!(remote_report.final_f, resumed_report.final_f);
    assert_eq!(remote_report.merge_stats, resumed_report.merge_stats);
    assert_eq!(remote.shard_estimates().unwrap(), resumed.shard_estimates());
}

#[test]
fn thread_workers_match_process_workers_frame_for_frame() {
    // Threads and processes speak the same protocol: both deployments
    // produce identical estimates, ledgers, and even wire traffic.
    let kind = TrackerKind::Randomized;
    let spec = counter_spec(kind, 4);
    let cfg = EngineConfig::new(4, 300).workers(2).checkpoint_every(5);
    let feeds = counter_feeds(kind, 6_000, 4);
    let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

    let mut threads = RemoteEngine::counters(
        spec,
        cfg,
        RemoteConfig {
            io_timeout: Duration::from_secs(5),
            ..RemoteConfig::default()
        },
    )
    .unwrap();
    let thread_report = threads.run_parted(&slices).unwrap();
    let mut procs = RemoteEngine::counters(spec, cfg, rcfg(RemoteTransport::Tcp)).unwrap();
    let proc_report = procs.run_parted(&slices).unwrap();

    assert_eq!(thread_report.final_estimate, proc_report.final_estimate);
    assert_eq!(thread_report.tracker_stats, proc_report.tracker_stats);
    assert_eq!(thread_report.merge_stats, proc_report.merge_stats);
    assert_eq!(threads.checkpoint_stats(), procs.checkpoint_stats());
    let (tw, pw) = (threads.wire_stats(), procs.wire_stats());
    assert_eq!(tw.frames_sent, pw.frames_sent);
    assert_eq!(tw.bytes_sent, pw.bytes_sent);
    assert_eq!(tw.frames_received, pw.frames_received);
    assert_eq!(tw.bytes_received, pw.bytes_received);
    assert_eq!(threads.checkpoint().unwrap(), procs.checkpoint().unwrap());
}

#[test]
fn killing_a_worker_mid_frame_stays_bit_identical() {
    // A process kill with the send window open (`checkpoint_every(4)`:
    // rounds 4..8 go out together, the kills land at 5, 6 and 7): the
    // rounds the dead worker was sent but never reported are re-sent to
    // its replacement by the round loop, and the run stays bit-identical
    // to a fault-free remote — the window never leaks into the state.
    // The reference must be remote because `checkpoint_every` charges
    // periodic wire commits the in-process engine never pays; the
    // in-process engine still anchors the estimate itself.
    let kind = TrackerKind::Deterministic;
    let spec = counter_spec(kind, 4);
    let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
    let feeds = counter_feeds(kind, 12_000, 4);
    let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

    let mut anchor = ShardedEngine::counters(spec, cfg).unwrap();
    let anchor_report = anchor.run_parted(&slices).unwrap();
    let mut local = RemoteEngine::counters(spec, cfg, rcfg(RemoteTransport::Tcp)).unwrap();
    let local_report = local.run_parted(&slices).unwrap();
    assert_eq!(local_report.final_estimate, anchor_report.final_estimate);
    assert_eq!(local.estimate(), anchor.estimate());

    for round in [5u64, 6, 7] {
        let label = format!("kill at in-flight round {round}");
        let mut remote = RemoteEngine::counters(spec, cfg, rcfg(RemoteTransport::Tcp)).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(
            FaultPoint::MidRound(round),
            1,
            FaultKind::Kill,
        ));
        let report = remote.run_parted(&slices).unwrap();
        assert!(!remote.events().is_empty(), "{label}: no failover");
        assert_eq!(remote.events()[0].worker, 1, "{label}");
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
            remote.shard_estimates().unwrap(),
            local.shard_estimates().unwrap(),
            "{label}: replica estimates diverged"
        );
        assert_eq!(remote.estimate(), local.estimate(), "{label}");
        assert_eq!(remote.time(), local.time(), "{label}");
        assert_eq!(
            remote.checkpoint_stats(),
            local.checkpoint_stats(),
            "{label}: checkpoint ledger diverged"
        );
        assert_eq!(
            remote.checkpoint().unwrap(),
            local.checkpoint().unwrap(),
            "{label}: checkpoint images diverged"
        );
    }
}

//! The shard-worker side: connect to the coordinator, install replicas,
//! process rounds, serve checkpoint snapshots.
//!
//! One serve loop backs a thread inside the coordinator process and a
//! separate OS process entered through [`shard_server_main`] (the
//! `dsv-shard-server` binary). The worker is a pure protocol server: its
//! spec, shard set and restore states all arrive in one
//! [`ToWorker::Assign`], so a replacement, once assigned and replayed, is
//! indistinguishable from the process it replaces.

use super::wire::{Chunk, Inputs, ShardInit, ToCoord, ToWorker};
use crate::round::ingest_run;
use dsv_core::api::{ItemTracker, Problem, ResumeError, Tracker, TrackerSpec};
use dsv_net::transport::{hello_bytes, Conn, Endpoint, Role, TransportError};
use std::collections::BTreeMap;
use std::time::Duration;

/// A worker-side replica of either problem family.
enum AnyTracker {
    Counter(Box<dyn Tracker + Send>),
    Item(Box<dyn ItemTracker + Send>),
}

/// A worker that cannot serve, as a typed error (process exit path).
#[derive(Debug)]
pub enum WorkerError {
    /// The transport failed (connect, frame I/O, timeout).
    Transport(TransportError),
    /// The coordinator sent something the protocol forbids.
    Protocol(&'static str),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Transport(e) => write!(fm, "transport: {e}"),
            WorkerError::Protocol(what) => write!(fm, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<TransportError> for WorkerError {
    fn from(e: TransportError) -> Self {
        WorkerError::Transport(e)
    }
}

/// Build (or restore) the replica for `init` under `spec`'s problem.
fn make_tracker(spec: &TrackerSpec, init: &ShardInit) -> Result<AnyTracker, ResumeError> {
    let spec = spec.shard(init.sid);
    let counting = spec.kind().problem() == Problem::Counting;
    Ok(match &init.state {
        None if counting => AnyTracker::Counter(spec.build()?),
        Some(state) if counting => AnyTracker::Counter(spec.resume(state)?),
        None => AnyTracker::Item(spec.build_item()?),
        Some(state) => AnyTracker::Item(spec.resume_item(state)?),
    })
}

/// Serve one coordinator connection until `Finish`, EOF, or idle timeout.
///
/// `worker` and `generation` identify this spawn in the transport
/// handshake; `idle_timeout` bounds every read, so a worker orphaned by a
/// dead coordinator exits instead of leaking.
pub fn serve(
    ep: &Endpoint,
    worker: u64,
    generation: u64,
    idle_timeout: Duration,
    connect_retries: u32,
    connect_backoff: Duration,
) -> Result<(), WorkerError> {
    let mut conn = Conn::connect(ep, connect_retries, connect_backoff)?;
    conn.set_io_timeout(Some(idle_timeout))?;
    match serve_conn(&mut conn, worker, generation) {
        // The coordinator severed the link or went away (possibly while a
        // reply was in flight): exit quietly — a replacement worker will
        // be assigned from checkpoint.
        Err(WorkerError::Transport(TransportError::Closed { .. })) => Ok(()),
        other => other,
    }
}

/// Run one round's chunks in order, each through the in-process
/// executor's [`ingest_run`], and send its [`ToCoord::RoundReport`]: the
/// `(estimate, Σδ)` of every chunk, in that order. Folding a shard's
/// several chunks is the coordinator's cut's job.
fn process_round(
    conn: &mut Conn,
    trackers: &mut BTreeMap<usize, AnyTracker>,
    round: u64,
    delay_ms: u64,
    chunks: &[Chunk],
) -> Result<(), WorkerError> {
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms));
    }
    let mut entries = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let tracker = trackers
            .get_mut(&chunk.sid)
            .ok_or(WorkerError::Protocol("round chunk for unassigned shard"))?;
        let (estimate, sum, _) = match (tracker, &chunk.inputs) {
            (AnyTracker::Counter(t), Inputs::Counts(v)) => ingest_run(&mut **t, chunk.site, v),
            (AnyTracker::Item(t), Inputs::Items(v)) => ingest_run(&mut **t, chunk.site, v),
            _ => return Err(WorkerError::Protocol("input payload problem mismatch")),
        };
        entries.push((estimate, sum));
    }
    conn.send(&ToCoord::RoundReport { round, entries }.to_bytes())?;
    Ok(())
}

fn serve_conn(conn: &mut Conn, worker: u64, generation: u64) -> Result<(), WorkerError> {
    conn.send(&hello_bytes(Role::Worker, worker, generation))?;

    let mut trackers: BTreeMap<usize, AnyTracker> = BTreeMap::new();
    loop {
        let frame = conn.recv()?;
        let msg = ToWorker::from_bytes(&frame)
            .map_err(|_| WorkerError::Protocol("undecodable coordinator frame"))?;
        match msg {
            ToWorker::Assign { spec, shards } => {
                trackers.clear();
                let built = shards.iter().try_for_each(|init| {
                    let tracker = make_tracker(&spec, init).map_err(|e| e.to_string())?;
                    trackers.insert(init.sid, tracker);
                    Ok(())
                });
                let error = built.err().unwrap_or_default();
                conn.send(&ToCoord::AssignAck { error }.to_bytes())?;
            }
            ToWorker::Round {
                round,
                delay_ms,
                chunks,
            } => {
                process_round(conn, &mut trackers, round, delay_ms, &chunks)?;
            }
            ToWorker::Checkpoint { shards } => {
                let mut states = Vec::with_capacity(shards.len());
                for sid in shards {
                    let tracker = trackers
                        .get(&sid)
                        .ok_or(WorkerError::Protocol("checkpoint of unassigned shard"))?;
                    let state = match tracker {
                        AnyTracker::Counter(t) => t.snapshot(),
                        AnyTracker::Item(t) => t.snapshot(),
                    }
                    .map_err(|_| WorkerError::Protocol("shard state snapshot failed"))?;
                    states.push(state);
                }
                conn.send(&ToCoord::CheckpointReport { states }.to_bytes())?;
            }
            ToWorker::Finish => return Ok(()),
        }
    }
}

/// Entry point for the `dsv-shard-server` binary. Parses
/// `<endpoint> --worker N --gen N [--timeout-ms N] [--retries N]
/// [--backoff-ms N]`, serves, and returns the process exit code (0 on a
/// clean finish, 2 on usage errors, 1 on serve failures).
pub fn shard_server_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(usage) => {
            eprintln!("dsv-shard-server: {usage}");
            eprintln!(
                "usage: dsv-shard-server <tcp:addr:port|unix:/path> --worker N --gen N \
                 [--timeout-ms N] [--retries N] [--backoff-ms N]"
            );
            2
        }
        Ok((ep, worker, generation, timeout_ms, retries, backoff_ms)) => {
            match serve(
                &ep,
                worker,
                generation,
                Duration::from_millis(timeout_ms),
                retries,
                Duration::from_millis(backoff_ms),
            ) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("dsv-shard-server (worker {worker}): {e}");
                    1
                }
            }
        }
    }
}

type ParsedArgs = (Endpoint, u64, u64, u64, u32, u64);

fn parse_args(args: &[String]) -> Result<ParsedArgs, String> {
    let mut endpoint = None;
    let mut worker = None;
    let mut generation = None;
    let mut timeout_ms = 30_000u64;
    let mut retries = 10u32;
    let mut backoff_ms = 10u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(|s| s.as_str())
        };
        match arg.as_str() {
            "--worker" => worker = Some(parse_num(flag_value("--worker")?, "--worker")?),
            "--gen" => generation = Some(parse_num(flag_value("--gen")?, "--gen")?),
            "--timeout-ms" => timeout_ms = parse_num(flag_value("--timeout-ms")?, "--timeout-ms")?,
            "--retries" => retries = parse_num(flag_value("--retries")?, "--retries")?,
            "--backoff-ms" => backoff_ms = parse_num(flag_value("--backoff-ms")?, "--backoff-ms")?,
            other if endpoint.is_none() && !other.starts_with("--") => {
                endpoint =
                    Some(Endpoint::parse(other).map_err(|_| format!("bad endpoint `{other}`"))?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if timeout_ms == 0 {
        return Err("--timeout-ms must be positive".to_string());
    }
    Ok((
        endpoint.ok_or("missing endpoint")?,
        worker.ok_or("missing --worker")?,
        generation.ok_or("missing --gen")?,
        timeout_ms,
        retries,
        backoff_ms,
    ))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what}: bad number `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok = |args: &[&str]| {
            parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
        };
        let (ep, w, g, t, r, b) = ok(&[
            "tcp:127.0.0.1:9000",
            "--worker",
            "3",
            "--gen",
            "2",
            "--timeout-ms",
            "500",
            "--retries",
            "4",
            "--backoff-ms",
            "7",
        ]);
        assert_eq!(ep, Endpoint::parse("tcp:127.0.0.1:9000").unwrap());
        assert_eq!((w, g, t, r, b), (3, 2, 500, 4, 7));

        let err = |args: &[&str]| {
            parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(err(&[]).contains("missing endpoint"));
        assert!(err(&["tcp:127.0.0.1:1", "--worker", "0"]).contains("missing --gen"));
        assert!(err(&["nope:addr", "--worker", "0", "--gen", "0"]).contains("bad endpoint"));
        assert!(err(&["tcp:a:1", "--worker", "x", "--gen", "0"]).contains("bad number"));
        let too_many = [
            "tcp:a:1",
            "--worker",
            "0",
            "--gen",
            "0",
            "--retries",
            "4294967297",
        ];
        assert!(err(&too_many).contains("--retries: bad number"));
        let no_timeout = [
            "tcp:a:1",
            "--worker",
            "0",
            "--gen",
            "0",
            "--timeout-ms",
            "0",
        ];
        assert!(err(&no_timeout).contains("--timeout-ms must be positive"));
        assert!(err(&["tcp:a:1", "--worker", "0", "--gen", "0", "--bogus"])
            .contains("unexpected argument"));
    }
}

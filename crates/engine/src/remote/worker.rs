//! The shard-worker side: connect to the coordinator, install replicas,
//! process rounds and snapshot the shards a round's commit names.
//!
//! One serve loop backs a thread inside the coordinator process and a
//! separate OS process entered through [`shard_server_main`] (the
//! `dsv-shard-server` binary). The worker is a pure protocol server: its
//! spec, shard set and restore states all arrive in one
//! [`ToWorker::Assign`], so a replacement, once assigned and replayed, is
//! indistinguishable from the process it replaces. It lives as long as its
//! connection: it sets no timeout and exits when the coordinator closes
//! the link, drops the engine or dies.

use super::wire::{Chunk, Inputs, ShardInit, ToCoord, ToWorker};
use crate::round::ingest_run;
use dsv_core::api::{ItemTracker, Problem, ResumeError, Tracker, TrackerSpec};
use dsv_net::transport::{hello_bytes, Conn, Endpoint, Role, TransportError};
use std::collections::BTreeMap;
use std::time::Duration;

/// Connect retries a worker makes before giving up; the waits grow
/// linearly from [`CONNECT_BACKOFF`], ~2.1 s in all.
const CONNECT_RETRIES: u32 = 20;

/// The first wait between a worker's connect attempts.
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// A worker-side replica of either problem family.
enum AnyTracker {
    Counter(Box<dyn Tracker + Send>),
    Item(Box<dyn ItemTracker + Send>),
}

/// A worker that cannot serve, as a typed error (process exit path).
#[derive(Debug)]
pub(crate) enum WorkerError {
    /// The transport failed (connect or frame I/O).
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

/// Serve one coordinator connection until it closes.
///
/// `worker` and `generation` identify this spawn in the transport
/// handshake.
pub(crate) fn serve(ep: &Endpoint, worker: u64, generation: u64) -> Result<(), WorkerError> {
    let mut conn = Conn::connect(ep, CONNECT_RETRIES, CONNECT_BACKOFF)?;
    match serve_conn(&mut conn, worker, generation) {
        // The coordinator closed the link or went away (possibly while a
        // reply was in flight): exit quietly — a replacement worker will
        // be assigned from checkpoint.
        Err(WorkerError::Transport(TransportError::Closed { .. })) => Ok(()),
        other => other,
    }
}

/// Run one round's chunks in order, each through the in-process
/// executor's [`ingest_run`], snapshot the `commit` shards, and send its
/// [`ToCoord::RoundReport`]: the `(estimate, Σδ)` of every chunk, in that
/// order, then the states, in the order asked. Folding a shard's several
/// chunks is the coordinator's cut's job.
fn process_round(
    conn: &mut Conn,
    trackers: &mut BTreeMap<usize, AnyTracker>,
    round: u64,
    delay_ms: u64,
    chunks: &[Chunk],
    commit: &[usize],
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
    let mut states = Vec::with_capacity(commit.len());
    for sid in commit {
        let tracker = trackers
            .get(sid)
            .ok_or(WorkerError::Protocol("checkpoint of unassigned shard"))?;
        let state = match tracker {
            AnyTracker::Counter(t) => t.snapshot(),
            AnyTracker::Item(t) => t.snapshot(),
        }
        .map_err(|_| WorkerError::Protocol("shard state snapshot failed"))?;
        states.push(state);
    }
    let report = ToCoord::RoundReport {
        round,
        entries,
        states,
    };
    conn.send(&report.to_bytes())?;
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
                commit,
            } => {
                process_round(conn, &mut trackers, round, delay_ms, &chunks, &commit)?;
            }
        }
    }
}

/// Entry point for the `dsv-shard-server` binary. Parses
/// `<endpoint> --worker N --gen N`, serves, and returns the process exit
/// code (0 once the coordinator closes the link, 2 on usage errors, 1 on
/// serve failures).
pub fn shard_server_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(usage) => {
            eprintln!("dsv-shard-server: {usage}");
            eprintln!("usage: dsv-shard-server <tcp:addr:port|unix:/path> --worker N --gen N");
            2
        }
        Ok((ep, worker, generation)) => match serve(&ep, worker, generation) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("dsv-shard-server (worker {worker}): {e}");
                1
            }
        },
    }
}

fn parse_args(args: &[String]) -> Result<(Endpoint, u64, u64), String> {
    let mut endpoint = None;
    let mut worker = None;
    let mut generation = None;
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
            other if endpoint.is_none() && !other.starts_with("--") => {
                endpoint =
                    Some(Endpoint::parse(other).map_err(|_| format!("bad endpoint `{other}`"))?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok((
        endpoint.ok_or("missing endpoint")?,
        worker.ok_or("missing --worker")?,
        generation.ok_or("missing --gen")?,
    ))
}

fn parse_num(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{what}: bad number `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::transport::{parse_hello, Listener};

    #[test]
    fn args_parse_and_reject() {
        let args = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_args(&args(&[
            "tcp:127.0.0.1:9000",
            "--worker",
            "3",
            "--gen",
            "2",
        ]));
        let (ep, w, g) = ok.unwrap();
        assert_eq!(ep, Endpoint::parse("tcp:127.0.0.1:9000").unwrap());
        assert_eq!((w, g), (3, 2));

        let err = |a: &[&str]| parse_args(&args(a)).unwrap_err();
        assert!(err(&[]).contains("missing endpoint"));
        assert!(err(&["tcp:127.0.0.1:1", "--worker", "0"]).contains("missing --gen"));
        assert!(err(&["nope:addr", "--worker", "0", "--gen", "0"]).contains("bad endpoint"));
        assert!(err(&["tcp:a:1", "--worker", "x", "--gen", "0"]).contains("bad number"));
        assert!(err(&["tcp:a:1", "--worker", "0", "--gen"]).contains("--gen needs a value"));
        // The worker has no tunables: the flags that once set them are
        // usage errors like any other.
        for gone in ["--timeout-ms", "--retries", "--backoff-ms", "--bogus"] {
            let rejected = err(&["tcp:a:1", "--worker", "0", "--gen", "0", gone, "5"]);
            assert!(
                rejected.contains("unexpected argument"),
                "{gone}: {rejected}"
            );
        }
    }

    #[test]
    fn a_worker_serves_until_its_connection_is_dropped() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let ep = listener.endpoint().clone();
        let worker = std::thread::spawn(move || serve(&ep, 4, 1));
        let mut conn = listener.accept(Some(Duration::from_secs(5))).unwrap();
        let hello = parse_hello(&conn.recv().unwrap()).unwrap();
        assert_eq!(
            (hello.role, hello.worker, hello.generation),
            (Role::Worker, 4, 1)
        );
        drop(conn);
        assert!(worker.join().unwrap().is_ok());
    }
}

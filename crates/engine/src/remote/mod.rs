//! Distributed shard processes over sockets with fault-injected
//! checkpoint failover.
//!
//! [`RemoteEngine`] serves the `S` logical shards of a
//! [`crate::ShardedEngine`] from separate shard workers — OS processes
//! running the `dsv-shard-server` binary, or in-process threads — behind
//! the `dsv-net` length-prefixed transport (version-tagged handshake,
//! coordinator-side timeouts, bounded retry-with-backoff connects), in the
//! rounds `run_parted` runs, closed by the same cut. A worker lives as long
//! as its connection: the coordinator ends one only by closing it.
//!
//! **Equivalence.** A remote run is *bit-identical* to the in-process
//! [`crate::ShardedEngine::run_parted`] over the same feeds — estimates,
//! replica states, tracker and merge [`CommStats`] ledgers — because its
//! windows close on the same step. The transport's own costs live on
//! separate ledgers ([`RemoteEngine::wire_stats`], `checkpoint_stats`).
//!
//! **Windows.** A call walks windows of up to 64 rounds that never cross
//! a commit. The calling thread pumps every worker's connection — one
//! `Round` frame per worker per round, up to 16 rounds past the report it
//! reads next — and the reports fill the per-worker buffers the window's
//! close step cuts in round order (DESIGN.md §8).
//!
//! **Failover.** [`EngineConfig::checkpoint_every`] sets how often the
//! coordinator commits a cut of every *dirty* shard's [`TrackerState`];
//! every call also ends with one. A commit rides the window's last
//! frames: each worker snapshots its stale shards after that round's
//! chunks and returns their states in its report (a worker with no chunk
//! then is sent a round with none), and the coordinator captures them
//! all together once the window closes. A worker that dies (a timeout
//! or EOF on its connection) is respawned in its slot: shard `s` always
//! lives on worker `s mod W`. Its shards restart from the committed cut
//! and run again from the feeds, which the coordinator still holds: the
//! rounds closed since the cut with their reports discarded, then the
//! open window. [`FaultPlan`] injects delays, severs and kills at a
//! chosen round, boundary or checkpoint; `tests/failover_injection.rs`
//! sweeps the matrix.

pub mod wire;
pub mod worker;

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::partition::InputDelta;
use crate::report::EngineReport;
use crate::round::{chunk_bounds, rounds_of, validate_feeds, Books, Rounds, RunAudit, WINDOW};
use dsv_core::api::{Problem, ResumeError, RunError, TrackerKind, TrackerSpec};
use dsv_core::codec::{CodecError, Enc, TrackerState};
use dsv_net::transport::{parse_hello, Conn, Endpoint, Listener, Role, TransportError, WireStats};
use dsv_net::{CommStats, IngestStats, SiteId, Time};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::{ShardInit, ToCoord, ToWorker, WIRE_MAGIC, WIRE_VERSION};

/// How the coordinator rendezvouses with its shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteTransport {
    /// TCP on loopback (`127.0.0.1`, OS-assigned port).
    Tcp,
    /// A Unix-domain socket under the system temp directory.
    #[cfg(unix)]
    Uds,
}

static UDS_SEQ: AtomicU64 = AtomicU64::new(0);

impl RemoteTransport {
    fn endpoint(self) -> Endpoint {
        match self {
            RemoteTransport::Tcp => Endpoint::Tcp("127.0.0.1:0".to_string()),
            #[cfg(unix)]
            RemoteTransport::Uds => Endpoint::Unix(std::env::temp_dir().join(format!(
                "dsv-remote-{}-{}.sock",
                std::process::id(),
                UDS_SEQ.fetch_add(1, Ordering::Relaxed),
            ))),
        }
    }
}

/// How shard workers are spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnMode {
    /// In-process threads running the same serve loop over real sockets
    /// (fast, deterministic teardown; `Kill` faults degrade to severs).
    Threads,
    /// Separate OS processes running the given `dsv-shard-server` binary.
    Processes {
        /// Path to the shard-server binary.
        bin: PathBuf,
    },
}

/// Configuration of the remote deployment (transport, spawning, timeouts,
/// failover budget). [`EngineConfig`] keeps owning everything logical —
/// shards, batch, ε, the checkpoint period.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteConfig {
    /// Socket family for the coordinator ↔ worker links.
    pub transport: RemoteTransport,
    /// Worker deployment shape.
    pub spawn: SpawnMode,
    /// Coordinator-side read/write timeout per worker connection — the
    /// failure detector. A worker that does not answer within this window
    /// is declared dead and failed over.
    pub io_timeout: Duration,
    /// How long the coordinator waits for a spawned worker to connect
    /// and complete the handshake.
    pub spawn_timeout: Duration,
    /// Failovers tolerated over the engine's lifetime before the run is
    /// abandoned with [`RemoteError::FailoverExhausted`].
    pub max_failovers: u32,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            transport: RemoteTransport::Tcp,
            spawn: SpawnMode::Threads,
            io_timeout: Duration::from_secs(2),
            spawn_timeout: Duration::from_secs(10),
            max_failovers: 8,
        }
    }
}

/// Where in the run an injected fault fires (rounds are 0-based within
/// one `run_parted` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// As the coordinator sends round `r`'s frame, before it reads the
    /// report: a `Kill` lands just before the frame is written, so the
    /// worker never answers round `r` and the window finds the death; a
    /// `Sever` lands just after, racing the reply.
    MidRound(u64),
    /// Once the window holding round `r` has closed, before its commit
    /// (if any) is captured: the worker's staged states go with it, so
    /// the commit pulls them again in a round with no chunks, and that
    /// frame finds the death; without a commit, the next window's does.
    AtBoundary(u64),
    /// Once the frame that carries the periodic commit of boundary `r`
    /// ([`EngineConfig::checkpoint_every`]) is written, before its report
    /// is read: a death mid-commit is a death mid-round.
    DuringCheckpoint(u64),
}

/// What the injected fault does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// SIGKILL the worker process (thread workers are severed instead —
    /// a thread cannot be killed).
    Kill,
    /// Shut the coordinator-side connection down in both directions.
    Sever,
    /// Make the worker sleep `ms` before processing, so the
    /// coordinator's [`RemoteConfig::io_timeout`] fires against a
    /// live-but-stalled worker. Only meaningful at
    /// [`FaultPoint::MidRound`]; elsewhere it degrades to a sever.
    Delay {
        /// Milliseconds to stall.
        ms: u64,
    },
}

/// A test-facing plan of faults to inject into a run. Each entry names a
/// point, a worker, and a kind; each fires exactly once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(FaultPoint, usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault: do `kind` to `worker` at `point`.
    pub fn inject(mut self, point: FaultPoint, worker: usize, kind: FaultKind) -> Self {
        self.faults.push((point, worker, kind));
        self
    }

    /// Faults not yet fired.
    pub fn pending(&self) -> usize {
        self.faults.len()
    }

    fn take(&mut self, point: FaultPoint, worker: usize) -> Option<FaultKind> {
        let at = self
            .faults
            .iter()
            .position(|&(p, w, _)| (p, w) == (point, worker))?;
        Some(self.faults.remove(at).2)
    }
}

/// One recovered worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The worker slot that died, and was respawned.
    pub worker: usize,
    /// Rounds closed when the death was detected: a window's first round
    /// for a death found while the window is on the wire.
    pub round: u64,
    /// Spawn generation of the slot's replacement.
    pub generation: u64,
    /// Rounds closed since the last commit, replayed to the replacement.
    pub replayed_rounds: u64,
}

/// A remote engine that cannot be built or driven, as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// A logical (in-process) engine error: bad config, rejected stream,
    /// codec failure.
    Engine(EngineError),
    /// A [`RemoteConfig`] field is zero where no deployment can run:
    /// `io_timeout` or `spawn_timeout`.
    Config {
        /// The field's name.
        what: &'static str,
    },
    /// Binding the coordinator's listener failed.
    Bind(TransportError),
    /// A worker process could not be spawned.
    Spawn {
        /// The worker slot.
        worker: usize,
        /// The OS error category.
        kind: std::io::ErrorKind,
    },
    /// A worker connection failed (timeout, EOF, I/O). Recovered by
    /// failover where possible; surfaced when recovery is off the table.
    Transport {
        /// The worker slot.
        worker: usize,
        /// The transport failure.
        err: TransportError,
    },
    /// A worker frame failed to decode.
    Decode {
        /// The worker slot.
        worker: usize,
        /// The codec failure.
        err: CodecError,
    },
    /// A worker answered with something the protocol forbids here.
    Protocol {
        /// The worker slot.
        worker: usize,
        /// What was violated.
        what: &'static str,
    },
    /// A worker refused an assignment (build/restore failed on its side).
    WorkerRejected {
        /// The worker slot.
        worker: usize,
        /// The worker's error message.
        msg: String,
    },
    /// More workers died than [`RemoteConfig::max_failovers`] tolerates.
    FailoverExhausted {
        /// The last worker slot that died.
        worker: usize,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Engine(e) => write!(fm, "{e}"),
            RemoteError::Config { what } => {
                write!(fm, "remote config field {what} must be nonzero")
            }
            RemoteError::Bind(e) => write!(fm, "binding the coordinator listener failed: {e}"),
            RemoteError::Spawn { worker, kind } => {
                write!(fm, "spawning worker {worker} failed ({kind:?})")
            }
            RemoteError::Transport { worker, err } => {
                write!(fm, "worker {worker} connection failed: {err}")
            }
            RemoteError::Decode { worker, err } => {
                write!(fm, "worker {worker} sent an undecodable frame: {err}")
            }
            RemoteError::Protocol { worker, what } => {
                write!(fm, "worker {worker} broke protocol: {what}")
            }
            RemoteError::WorkerRejected { worker, msg } => {
                write!(fm, "worker {worker} rejected its assignment: {msg}")
            }
            RemoteError::FailoverExhausted { worker } => {
                write!(
                    fm,
                    "failover budget exhausted (last death: worker {worker})"
                )
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<EngineError> for RemoteError {
    fn from(e: EngineError) -> Self {
        RemoteError::Engine(e)
    }
}

impl From<RunError> for RemoteError {
    fn from(e: RunError) -> Self {
        RemoteError::Engine(EngineError::Run(e))
    }
}

/// Inputs a remote engine can ship over the wire: the two `run_parted`
/// input families.
pub trait RemoteInput: InputDelta + Send + Sync {
    /// Write a chunk as the per-problem wire payload ([`wire::Inputs`]'
    /// bytes), straight from the feed slice.
    fn encode(chunk: &[Self], enc: &mut Enc);
}

impl RemoteInput for i64 {
    fn encode(chunk: &[Self], enc: &mut Enc) {
        wire::encode_counts(enc, chunk);
    }
}

impl RemoteInput for (u64, i64) {
    fn encode(chunk: &[Self], enc: &mut Enc) {
        wire::encode_items(enc, chunk);
    }
}

/// Budget, per connection, for round reports sent but not yet read: a
/// worker blocked writing one into a full socket buffer stops reading
/// while the coordinator blocks writing it the next round. 4 KiB is one
/// page, the floor Linux lets a TCP buffer shrink to (`tcp_rmem[0]`).
const UNREAD_REPORT_BYTES: usize = 4096;

/// The pump's bound: how many rounds a connection running `feeds` (its
/// reports carry an entry per chunk, so at most one per feed) may be sent
/// past the report it reads next, that round included. At most 16: the
/// first few rounds of look-ahead buy the overlap (DESIGN.md §8).
fn lead(feeds: usize) -> u64 {
    // The transport's 4-byte length prefix rides with every report.
    let report = 4 + wire::round_report_len(feeds);
    16.min((UNREAD_REPORT_BYTES / report) as u64).max(1)
}

/// One worker's share of a window: the feeds it runs (ascending indices),
/// the shards its commit snapshots, its send and read cursors, and the
/// entries and states its reports carried.
struct Part {
    w: usize,
    feeds: Vec<usize>,
    asked: Vec<usize>,
    sent: u64,
    read: u64,
    out: Rounds,
    states: Vec<(usize, TrackerState)>,
}

impl Part {
    /// The round this part is pumped up to (exclusive): the window's end,
    /// or past the commit's round when it snapshots a shard.
    fn stop(&self, window: &Range<u64>, commit: &Commit) -> u64 {
        match self.asked.is_empty() {
            true => window.end,
            false => commit.at + 1,
        }
    }
}

/// A window's commit: per worker, the shards to snapshot on its frame of
/// round `at` (every list empty when the window ends without one).
struct Commit {
    asked: Vec<Vec<usize>>,
    /// The window's last round; 0 for a commit with no round (a never-run
    /// engine's, or a call with no inputs).
    at: u64,
    /// `checkpoint_every`'s commit, the one
    /// [`FaultPoint::DuringCheckpoint`] targets.
    periodic: bool,
}

/// One worker slot: its live connection (None once dead), the OS child
/// or thread backing it, and its spawn generation.
#[derive(Default)]
struct Slot {
    conn: Option<Conn>,
    child: Option<Child>,
    thread: Option<JoinHandle<()>>,
    generation: u64,
}

impl Slot {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        match &mut self.conn {
            Some(conn) => conn.send(bytes),
            None => Err(TransportError::Closed { op: "send" }),
        }
    }
}

/// The distributed coordinator: `run_parted` semantics over shard
/// workers living behind sockets.
///
/// Build with [`counters`](Self::counters) or [`items`](Self::items);
/// drive with [`run_parted`](Self::run_parted), repeatedly: the engine is
/// incremental. Every run ends with a commit, so between calls the
/// coordinator holds a consistent image of every shard: what
/// [`checkpoint`](Self::checkpoint) assembles, what a later failover
/// restores from, and what the tracker ledger is resumed from.
pub struct RemoteEngine<In: RemoteInput> {
    spec: TrackerSpec,
    kind: TrackerKind,
    k: usize,
    cfg: EngineConfig,
    rcfg: RemoteConfig,
    listener: Listener,
    /// Worker slots; shard `sid` lives on slot `sid % W`.
    workers: Vec<Slot>,
    /// The cut's books; a shard's captured state is its committed one.
    books: Books,
    wire: WireStats,
    faults: FaultPlan,
    events: Vec<FailoverEvent>,
    failovers: u32,
    /// Declared after `listener`, so the listener closes first when the
    /// engine drops: a thread that missed its spawn deadline is refused,
    /// not left waiting on a connection nobody will accept.
    graveyard: Graveyard,
    /// The one buffer every round frame is encoded into (windows and
    /// failover replay alike), kept across rounds and calls.
    frame: Enc,
    _in: PhantomData<fn(In) -> In>,
}

impl RemoteEngine<i64> {
    /// Build a counting engine: spawn `W` workers, handshake each, and
    /// assign the shard replicas (`spec.shard(sid)` on the worker side).
    pub fn counters(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
    ) -> Result<Self, RemoteError> {
        let probe = spec.shard(0).build().map_err(EngineError::Build)?;
        Self::new(spec, cfg, rcfg, probe.kind(), probe.k())
    }
}

impl RemoteEngine<(u64, i64)> {
    /// Build an item-frequency engine; see
    /// [`counters`](RemoteEngine::counters).
    pub fn items(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
    ) -> Result<Self, RemoteError> {
        use dsv_core::api::Tracker;
        let probe = spec.shard(0).build_item().map_err(EngineError::Build)?;
        Self::new(spec, cfg, rcfg, probe.kind(), probe.k())
    }
}

impl<In: RemoteInput> RemoteEngine<In> {
    fn new(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
        kind: TrackerKind,
        k: usize,
    ) -> Result<Self, RemoteError> {
        cfg.validate().map_err(RemoteError::Engine)?;
        // A zero here would only surface as worker 0's transport failure.
        let zero = [
            ("io_timeout", rcfg.io_timeout.is_zero()),
            ("spawn_timeout", rcfg.spawn_timeout.is_zero()),
        ];
        if let Some(&(what, _)) = zero.iter().find(|(_, zero)| *zero) {
            return Err(RemoteError::Config { what });
        }
        let listener = Listener::bind(&rcfg.transport.endpoint()).map_err(RemoteError::Bind)?;
        let mut engine = RemoteEngine {
            spec,
            kind,
            k,
            cfg,
            rcfg,
            listener,
            workers: (0..cfg.workers_count()).map(|_| Slot::default()).collect(),
            books: Books::new(cfg.shards_count()),
            wire: WireStats::new(),
            faults: FaultPlan::new(),
            events: Vec::new(),
            failovers: 0,
            graveyard: Graveyard::default(),
            frame: Enc::new(),
            _in: PhantomData,
        };
        for w in 0..engine.workers.len() {
            engine.spawn_worker(w, 0)?;
        }
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The replica kind.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Updates consumed so far (across all runs).
    pub fn time(&self) -> Time {
        self.books.time()
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.books.estimate()
    }

    /// Engine-level shard → coordinator reconciliation traffic —
    /// bit-identical to the in-process engine's over the same feeds.
    pub fn merge_stats(&self) -> &CommStats {
        self.books.merge_stats()
    }

    /// Snapshot traffic pulled over the wire by checkpoint commits, one
    /// [`dsv_net::StateFrame`] per dirty shard — the same ledger rule as
    /// [`crate::ShardedEngine::checkpoint`].
    pub fn checkpoint_stats(&self) -> &CommStats {
        self.books.checkpoint_stats()
    }

    /// Measured socket traffic (frames and bytes both ways), summed over
    /// live and dead connections.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = self.wire;
        for conn in self.workers.iter().filter_map(|slot| slot.conn.as_ref()) {
            total.merge(conn.stats());
        }
        total
    }

    /// The coordinator's rendezvous endpoint (diagnostics).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Recovered worker failures, in order.
    pub fn events(&self) -> &[FailoverEvent] {
        &self.events
    }

    /// Arm a fault plan for the next run (replaces any previous plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Per-shard local estimates, resumed locally from the last committed
    /// cut (exact between runs, because every run ends with a commit).
    pub fn shard_estimates(&self) -> Result<Vec<i64>, RemoteError> {
        Ok(self.resume_final()?.0)
    }

    /// In-protocol traffic summed across shard replicas, resumed locally
    /// from the last committed cut.
    pub fn tracker_stats(&self) -> Result<CommStats, RemoteError> {
        Ok(self.resume_final()?.1)
    }

    /// Assemble the engine's state as a restorable [`EngineCheckpoint`] —
    /// interchangeable with one taken by the in-process engine at the
    /// same boundary (that is the failover-equivalence contract).
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint, RemoteError> {
        // Every call ends with a commit, so only a never-run engine has
        // stale shards: a call with no inputs commits them.
        if (0..self.cfg.shards_count()).any(|sid| self.books.stale(sid)) {
            self.run_parted(&[])?;
        }
        Ok(self.books.checkpoint(self.kind, self.k))
    }

    /// Ingest pre-parted per-site feeds through the shard workers —
    /// the remote counterpart of [`crate::ShardedEngine::run_parted`],
    /// with the same validation, the same boundary cut, and bit-identical
    /// estimates and ledgers. Worker deaths are recovered transparently
    /// (respawn + replay from the last committed checkpoint);
    /// every recovery is recorded in [`events`](Self::events).
    pub fn run_parted(&mut self, feeds: &[(SiteId, &[In])]) -> Result<EngineReport, RemoteError> {
        let mut audit = RunAudit::new(&self.cfg);
        validate_feeds(feeds, self.k, self.kind, self.time(), self.cfg.batch_size())?;

        let total: usize = feeds.iter().map(|(_, inputs)| inputs.len()).sum();
        let (s_count, batch) = (self.cfg.shards_count(), self.cfg.batch_size());
        let rounds = rounds_of(feeds, batch) as u64;
        let period = self.cfg.checkpoint_period();
        // Rounds of this call the last commit covers, and rounds closed.
        let (mut committed, mut done) = (0, 0u64);
        loop {
            let commit_at = done
                .checked_div(period)
                .map_or(rounds, |q| (q + 1) * period);
            let end = commit_at.min(rounds).min(done + WINDOW as u64);
            // A commit every `checkpoint_every` rounds, and one ending the
            // call: later calls never need its feeds again, and the
            // report's tracker ledger comes from those states.
            let periodic = period > 0 && end == commit_at;
            let commits = periodic || end == rounds;
            let commit = self.commit(feeds, done..end, periodic, commits);
            let parts = self.parts(feeds, 0..self.workers.len(), done, &commit);
            let pumped = self.pump(feeds, done..end, committed, &commit, parts);
            let mut parts = pumped.inspect_err(|_| {
                // The replicas ran inputs no cut closed.
                for (sid, ran) in window_runs(feeds, s_count, batch, done..end) {
                    self.books.ran_uncut(sid, ran);
                }
            })?;
            let bufs = parts.iter().map(|p| &p.out);
            self.books
                .cut(&mut audit)
                .close_window(bufs, (end - done) as usize);
            let mut struck = BTreeSet::new();
            let w_count = self.workers.len();
            for (r, w) in (done..end).flat_map(|r| (0..w_count).map(move |w| (r, w))) {
                if let Some(kind) = self.faults.take(FaultPoint::AtBoundary(r), w) {
                    self.disrupt(w, kind);
                    struck.insert(w);
                }
            }
            if commits {
                // A struck worker's staged states went with it: pull them
                // again, in rounds with no chunks, before capturing all.
                parts.retain(|p| !struck.contains(&p.w));
                let again = self.parts(&[], struck, commit.at, &commit);
                parts.extend(self.pump(feeds, end..end, committed, &commit, again)?);
                for (sid, state) in parts.into_iter().flat_map(|p| p.states) {
                    self.books.capture(sid, state);
                }
                committed = end;
            }
            done = end;
            if done == rounds {
                break;
            }
        }

        let (_, tracker_stats) = self.resume_final()?;
        let (cfg, n) = (&self.cfg, total as u64);
        let workers = self.workers.len();
        Ok(audit.report(
            cfg,
            workers,
            n,
            &self.books,
            tracker_stats,
            IngestStats::new(),
        ))
    }

    /// The worker slot hosting site `site`'s shard (`site mod S`; a shard
    /// id is its own site).
    fn worker_of(&self, site: SiteId) -> usize {
        site % self.cfg.shards_count() % self.workers.len()
    }

    /// The commit closing `window` (if `due`): per worker, ascending,
    /// every shard stale now or running in the window.
    fn commit(
        &self,
        feeds: &[(SiteId, &[In])],
        window: Range<u64>,
        periodic: bool,
        due: bool,
    ) -> Commit {
        let (s_count, at) = (self.cfg.shards_count(), window.end.max(1) - 1);
        let mut stale: Vec<bool> = (0..s_count)
            .map(|sid| due && self.books.stale(sid))
            .collect();
        for (sid, _) in window_runs(feeds, s_count, self.cfg.batch_size(), window) {
            stale[sid] = due;
        }
        let mut asked = vec![Vec::new(); self.workers.len()];
        for sid in (0..s_count).filter(|&sid| stale[sid]) {
            asked[self.worker_of(sid)].push(sid);
        }
        Commit {
            asked,
            at,
            periodic,
        }
    }

    /// One part per worker of `workers` that runs a feed of `feeds` or
    /// snapshots a shard for `commit`, each to run from round `from`.
    fn parts(
        &self,
        feeds: &[(SiteId, &[In])],
        workers: impl IntoIterator<Item = usize>,
        from: u64,
        commit: &Commit,
    ) -> Vec<Part> {
        let part = |w| {
            let mine = (0..feeds.len()).filter(|&i| self.worker_of(feeds[i].0) == w);
            let feeds: Vec<usize> = mine.collect();
            let asked = &commit.asked[w];
            (!feeds.is_empty() || !asked.is_empty()).then(|| Part {
                w,
                feeds,
                asked: asked.clone(),
                sent: from,
                read: from,
                out: Rounds::default(),
                states: Vec::new(),
            })
        };
        workers.into_iter().filter_map(part).collect()
    }

    /// Pump `parts` from this thread, a step per live part per pass,
    /// until each holds every round of `window` (and its commit's
    /// states). A worker found dead is failed over once the live parts
    /// are done, and pumped again from `committed` on its replacement:
    /// the rounds before the window are replayed, their reports dropped,
    /// and its staged states with the dead part.
    fn pump(
        &mut self,
        feeds: &[(SiteId, &[In])],
        window: Range<u64>,
        committed: u64,
        commit: &Commit,
        mut parts: Vec<Part>,
    ) -> Result<Vec<Part>, RemoteError> {
        let mut fresh = 0;
        loop {
            let mut dead = BTreeSet::new();
            let mut busy = true;
            while busy {
                busy = false;
                for part in &mut parts[fresh..] {
                    if part.read == part.stop(&window, commit) || dead.contains(&part.w) {
                        continue;
                    }
                    busy = true;
                    match self.step(feeds, &window, commit, part) {
                        Err(RemoteError::Transport { worker, .. }) => {
                            dead.insert(worker);
                        }
                        other => other?,
                    }
                }
            }
            if dead.is_empty() {
                return Ok(parts);
            }
            self.fail_over(&dead, committed..window.start)?;
            parts.retain(|p| !dead.contains(&p.w));
            fresh = parts.len();
            let moved = self.parts(feeds, dead, committed, commit);
            parts.extend(moved);
        }
    }

    /// Take the report of the next round `part` has on the wire, if any (a
    /// round it was sent nothing in passes empty; one before the window is
    /// a replay), then send it every round its lead allows before its
    /// stop. Reading before sending keeps every worker busy.
    fn step(
        &mut self,
        feeds: &[(SiteId, &[In])],
        window: &Range<u64>,
        commit: &Commit,
        part: &mut Part,
    ) -> Result<(), RemoteError> {
        let (w, s_count, batch) = (part.w, self.cfg.shards_count(), self.cfg.batch_size());
        let stop = part.stop(window, commit);
        if part.read < part.sent {
            let round = part.read;
            part.read += 1;
            let sent = chunks_of(feeds, &part.feeds, s_count, batch, round);
            let asked: &[usize] = if round == commit.at { &part.asked } else { &[] };
            if sent.clone().next().is_some() || !asked.is_empty() {
                let reply = self.recv_coord(w)?;
                let spec = (self.kind, self.k);
                let states = take_report(w, round, sent, asked, spec, reply, &mut part.out)?;
                part.states.extend(states);
            }
            // A replayed round was closed already: its entries go.
            if round < window.start {
                part.out.clear();
            } else {
                part.out.end_round();
            }
        }
        while part.sent < stop.min(part.read + lead(part.feeds.len())) {
            let round = part.sent;
            part.sent += 1;
            let chunks = chunks_of(feeds, &part.feeds, s_count, batch, round);
            let asked: &[usize] = if round == commit.at { &part.asked } else { &[] };
            if chunks.clone().next().is_none() && asked.is_empty() {
                continue;
            }
            let fault = self.faults.take(FaultPoint::MidRound(round), w);
            if fault == Some(FaultKind::Kill) {
                self.disrupt(w, FaultKind::Kill);
            }
            let delay_ms = match fault {
                Some(FaultKind::Delay { ms }) => ms,
                _ => 0,
            };
            encode_round(&mut self.frame, round, delay_ms, chunks, asked);
            self.workers[w]
                .send(self.frame.as_bytes())
                .map_err(|err| RemoteError::Transport { worker: w, err })?;
            if fault == Some(FaultKind::Sever) {
                self.disrupt(w, FaultKind::Sever);
            }
            let during = FaultPoint::DuringCheckpoint(round);
            if commit.periodic && !asked.is_empty() {
                if let Some(kind) = self.faults.take(during, w) {
                    self.disrupt(w, kind);
                }
            }
        }
        Ok(())
    }

    /// Fail the `dead` over: respawn each in its slot at generation + 1
    /// (its shards restored from the committed cut) and record the event
    /// (the caller replays `replay`).
    fn fail_over(&mut self, dead: &BTreeSet<usize>, replay: Range<u64>) -> Result<(), RemoteError> {
        for &w in dead {
            self.failovers += 1;
            if self.failovers > self.rcfg.max_failovers {
                return Err(RemoteError::FailoverExhausted { worker: w });
            }
            self.bury(w);
            let generation = self.workers[w].generation + 1;
            self.spawn_worker(w, generation)?;
            self.events.push(FailoverEvent {
                worker: w,
                round: replay.end,
                generation,
                replayed_rounds: replay.end - replay.start,
            });
        }
        Ok(())
    }

    /// Tear slot `w` down: close its connection, which is what ends a
    /// worker (its traffic stays on the wire ledger), reap its process,
    /// and keep its thread for the final join.
    fn bury(&mut self, w: usize) {
        let slot = &mut self.workers[w];
        if let Some(conn) = slot.conn.take() {
            self.wire.merge(conn.stats());
            conn.shutdown();
        }
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(handle) = slot.thread.take() {
            self.graveyard.0.push(handle);
        }
    }

    /// Spawn a worker into slot `w` (thread or process per the config),
    /// accept its connection, verify the handshake identity, and assign it
    /// its shards with their committed states (none before a first commit).
    fn spawn_worker(&mut self, w: usize, generation: u64) -> Result<(), RemoteError> {
        match self.rcfg.spawn.clone() {
            SpawnMode::Threads => {
                let ep = self.listener.endpoint().clone();
                let handle = std::thread::spawn(move || {
                    let _ = worker::serve(&ep, w as u64, generation);
                });
                self.workers[w].thread = Some(handle);
            }
            SpawnMode::Processes { bin } => {
                let child = Command::new(&bin)
                    .arg(self.listener.endpoint().to_string())
                    .args(["--worker", &w.to_string()])
                    .args(["--gen", &generation.to_string()])
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| RemoteError::Spawn {
                        worker: w,
                        kind: e.kind(),
                    })?;
                self.workers[w].child = Some(child);
            }
        }
        let map_err = |err| RemoteError::Transport { worker: w, err };
        let mut conn = self
            .listener
            .accept(Some(self.rcfg.spawn_timeout))
            .map_err(map_err)?;
        conn.set_io_timeout(Some(self.rcfg.io_timeout))
            .map_err(map_err)?;
        let hello = parse_hello(&conn.recv().map_err(map_err)?).map_err(map_err)?;
        if hello.role != Role::Worker || hello.worker != w as u64 || hello.generation != generation
        {
            return Err(RemoteError::Protocol {
                worker: w,
                what: "handshake identity mismatch",
            });
        }
        self.workers[w].conn = Some(conn);
        self.workers[w].generation = generation;

        let shards = (0..self.cfg.shards_count()).filter(|&sid| self.worker_of(sid) == w);
        let shards = shards.map(|sid| ShardInit {
            sid,
            state: self.books.captured(sid).cloned(),
        });
        let assign = ToWorker::Assign {
            spec: self.spec,
            shards: shards.collect(),
        };
        self.workers[w].send(&assign.to_bytes()).map_err(map_err)?;
        let what = "unexpected reply to an assignment";
        match self.recv_coord(w)? {
            ToCoord::AssignAck { error } if error.is_empty() => Ok(()),
            ToCoord::AssignAck { error: msg } => {
                Err(RemoteError::WorkerRejected { worker: w, msg })
            }
            _ => Err(RemoteError::Protocol { worker: w, what }),
        }
    }

    fn recv_coord(&mut self, w: usize) -> Result<ToCoord, RemoteError> {
        let conn = self.workers[w].conn.as_mut();
        let frame = conn
            .ok_or(TransportError::Closed { op: "recv" })
            .and_then(Conn::recv);
        let frame = frame.map_err(|err| RemoteError::Transport { worker: w, err })?;
        ToCoord::from_bytes(&frame).map_err(|err| RemoteError::Decode { worker: w, err })
    }

    /// Apply an injected disruption to worker `w` (see [`FaultKind`]).
    fn disrupt(&mut self, w: usize, kind: FaultKind) {
        let slot = &mut self.workers[w];
        match (kind, &mut slot.child, &slot.conn) {
            (FaultKind::Kill, Some(child), _) => drop(child.kill()),
            (_, _, Some(conn)) => conn.shutdown(),
            _ => {}
        }
    }

    /// Resume every shard's last committed state locally, yielding the
    /// per-shard estimates and the summed in-protocol tracker ledger —
    /// the state the in-process engine reads off its replicas directly. A
    /// shard never captured that consumed nothing is a fresh replica.
    fn resume_final(&self) -> Result<(Vec<i64>, CommStats), RemoteError> {
        use dsv_core::api::Tracker;
        let s_count = self.cfg.shards_count();
        let mut estimates = Vec::with_capacity(s_count);
        let mut stats = CommStats::new();
        for sid in 0..s_count {
            let state = self.books.captured(sid);
            if state.is_none() && self.books.dirty(sid) > 0 {
                let (worker, what) = (self.worker_of(sid), "no committed state for a shard");
                return Err(RemoteError::Protocol { worker, what });
            }
            let spec = self.spec.shard(sid);
            let resumed = match self.kind.problem() {
                Problem::Counting => match state {
                    None => spec.build().map_err(ResumeError::Build),
                    Some(state) => spec.resume(state),
                }
                .map(|t| (t.estimate(), t.stats().clone())),
                Problem::Frequencies => match state {
                    None => spec.build_item().map_err(ResumeError::Build),
                    Some(state) => spec.resume_item(state),
                }
                .map(|t| (t.estimate(), t.stats().clone())),
            };
            let (estimate, shard_stats) = resumed.map_err(|e| match e {
                ResumeError::Build(e) => EngineError::Build(e),
                ResumeError::Codec(e) => EngineError::Codec(e),
            })?;
            estimates.push(estimate);
            stats.merge(&shard_stats);
        }
        Ok((estimates, stats))
    }
}

impl<In: RemoteInput> Drop for RemoteEngine<In> {
    fn drop(&mut self) {
        // Each worker's next read observes the close and it exits.
        for w in 0..self.workers.len() {
            self.bury(w);
        }
        // The fields drop next, in order: the listener, then the
        // graveyard, which joins the threads.
    }
}

/// The threads of buried worker slots, joined when dropped.
#[derive(Default)]
struct Graveyard(Vec<JoinHandle<()>>);

impl Drop for Graveyard {
    fn drop(&mut self) {
        for handle in self.0.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Round `round`'s chunks of the feeds `mine` (indices into `feeds`), in
/// feed order: `(shard, site, inputs)`, borrowed from the feeds.
fn chunks_of<'a, In>(
    feeds: &'a [(SiteId, &'a [In])],
    mine: &'a [usize],
    s_count: usize,
    batch: usize,
    round: u64,
) -> impl Iterator<Item = (usize, SiteId, &'a [In])> + Clone + 'a {
    mine.iter().filter_map(move |&feed| {
        let (site, inputs) = feeds[feed];
        let (lo, hi) = chunk_bounds(inputs.len(), batch, round as usize)?;
        Some((site % s_count, site, &inputs[lo..hi]))
    })
}

/// `(shard, inputs)` for every feed with a chunk in `window`: what each
/// feed runs there.
fn window_runs<'a, In>(
    feeds: &'a [(SiteId, &'a [In])],
    s_count: usize,
    batch: usize,
    window: Range<u64>,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    feeds.iter().filter_map(move |&(site, inputs)| {
        let at = |round: u64| (round as usize).saturating_mul(batch).min(inputs.len());
        let (lo, hi) = (at(window.start), at(window.end));
        (lo < hi).then_some((site % s_count, (hi - lo) as u64))
    })
}

/// Encode `chunks` as round `round`'s frame into `enc` (cleared first):
/// the bytes of `ToWorker::Round { round, delay_ms, chunks, commit }
/// .to_bytes()` without the owned copies.
fn encode_round<'a, In: RemoteInput + 'a>(
    enc: &mut Enc,
    round: u64,
    delay_ms: u64,
    chunks: impl Iterator<Item = (usize, SiteId, &'a [In])> + Clone,
    commit: &[usize],
) {
    enc.clear();
    enc.magic(WIRE_MAGIC, WIRE_VERSION);
    wire::round_header(enc, round, delay_ms, chunks.clone().count());
    for (sid, site, inputs) in chunks {
        wire::chunk_header(enc, sid, site);
        In::encode(inputs, enc);
    }
    wire::commit_list(enc, commit);
}

/// Take worker `w`'s reply to round `round` into `out`, given the chunks
/// it was `sent` and the shards it was `asked` to snapshot: one
/// `(estimate, Σδ)` per chunk, in order, so each entry's shard and length
/// are the chunk's own; then one state per shard asked, in that order,
/// each of the engine's `(kind, k)`. Returns the states by shard.
fn take_report<'a, In: 'a>(
    w: usize,
    round: u64,
    sent: impl Iterator<Item = (usize, SiteId, &'a [In])> + Clone,
    asked: &[usize],
    (kind, k): (TrackerKind, usize),
    reply: ToCoord,
    out: &mut Rounds,
) -> Result<Vec<(usize, TrackerState)>, RemoteError> {
    let refuse = |what| Err(RemoteError::Protocol { worker: w, what });
    let (entries, states) = match reply {
        ToCoord::RoundReport {
            round: r,
            entries,
            states,
        } if r == round => (entries, states),
        _ => return refuse("unexpected reply to a round"),
    };
    if entries.len() != sent.clone().count() {
        return refuse("round report entries are not one per chunk sent");
    }
    if states.len() != asked.len() {
        return refuse("round report states are not one per shard asked");
    }
    if states.iter().any(|s| s.kind() != kind || s.k() != k) {
        return refuse("round report state contradicts the engine spec");
    }
    for ((sid, _, inputs), (estimate, sum)) in sent.zip(entries) {
        out.push((sid, estimate, sum, inputs.len() as u64));
    }
    Ok(asked.iter().copied().zip(states).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterEngine, ShardedEngine};
    use dsv_gen::{DeltaGen, RoundRobin, WalkGen};

    fn det_spec(k: usize) -> TrackerSpec {
        TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true)
    }

    fn walk_feeds(k: usize, n: usize) -> Vec<(usize, Vec<i64>)> {
        let updates = WalkGen::fair(3).updates(n as u64, RoundRobin::new(k));
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        feeds
    }

    fn slices(feeds: &[(usize, Vec<i64>)]) -> Vec<(usize, &[i64])> {
        feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect()
    }

    fn fast_rcfg() -> RemoteConfig {
        RemoteConfig {
            io_timeout: Duration::from_millis(500),
            ..RemoteConfig::default()
        }
    }

    fn sever(round: u64, worker: usize) -> FaultPlan {
        FaultPlan::new().inject(FaultPoint::MidRound(round), worker, FaultKind::Sever)
    }

    /// The equivalence surface: a remote run's report, replica estimates
    /// and checkpoint image against the in-process engine's.
    fn assert_same_run(
        remote: &mut RemoteEngine<i64>,
        report: &EngineReport,
        local: &mut CounterEngine,
        local_report: &EngineReport,
    ) {
        assert_eq!(report.n, local_report.n);
        assert_eq!(report.batches, local_report.batches);
        assert_eq!(report.final_f, local_report.final_f);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.tracker_stats, local_report.tracker_stats);
        assert_eq!(report.merge_stats, local_report.merge_stats);
        assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn remote_threads_over_tcp_match_the_in_process_engine() {
        let feeds = walk_feeds(4, 16_000);
        let cfg = EngineConfig::new(4, 500);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_same_run(&mut remote, &report, &mut local, &local_report);
        assert_eq!(remote.merge_stats(), local.merge_stats());
        // The mandatory end-of-run commit charges exactly what the
        // explicit in-process checkpoint (just taken) charges.
        assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
        assert!(remote.events().is_empty());
        let wire = remote.wire_stats();
        assert!(wire.frames_sent > 0 && wire.bytes_received > 0);
    }

    #[test]
    fn respawn_holds_with_rounds_in_flight() {
        // No boundary inside the call, so worker 1 is sent rounds well
        // past the one being read when the sever lands: worker 0 finishes
        // the window, slot 1 is respawned from the empty cut, and the
        // replacement is re-sent its part of the window from round 0.
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        assert!(lead(2) >= 7, "the fault must find rounds in flight");
        remote.set_fault_plan(sever(6, 1));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        assert_eq!(remote.events()[0].worker, 1);
        assert_eq!(remote.events()[0].generation, 1);
        assert_same_run(&mut remote, &report, &mut local, &local_report);
    }

    #[test]
    fn shards_with_several_feeds_a_round_stay_bit_identical() {
        // 8 sites on 3 shards, site 4 fed twice: each round sends a
        // worker several chunks of one shard, and the sever makes the
        // replacement replay them.
        let mut feeds = walk_feeds(8, 8 * 1_200);
        let again = feeds[3].1.iter().rev().take(900).copied().collect();
        feeds.push((4, again));
        for every in [0, 3] {
            let cfg = EngineConfig::new(3, 100).workers(2).checkpoint_every(every);
            let mut local = ShardedEngine::counters(det_spec(8), cfg).unwrap();
            let local_report = local.run_parted(&slices(&feeds)).unwrap();

            let mut remote = RemoteEngine::counters(det_spec(8), cfg, fast_rcfg()).unwrap();
            remote.set_fault_plan(sever(5, 1));
            let report = remote.run_parted(&slices(&feeds)).unwrap();
            assert_eq!(remote.events().len(), 1, "every {every}");
            assert_same_run(&mut remote, &report, &mut local, &local_report);
        }
    }

    #[test]
    fn a_worker_late_for_its_spawn_does_not_stall_teardown() {
        // The thread misses the accept deadline; once the constructor
        // fails it must be refused, not left waiting on a connection
        // nobody will read. Its connect retries take ~2.1 s at most.
        let mut transports = vec![RemoteTransport::Tcp];
        #[cfg(unix)]
        transports.push(RemoteTransport::Uds);
        for transport in transports {
            let rcfg = RemoteConfig {
                transport,
                spawn_timeout: Duration::from_micros(1),
                ..RemoteConfig::default()
            };
            let started = std::time::Instant::now();
            let err = RemoteEngine::counters(det_spec(2), EngineConfig::new(2, 100), rcfg);
            let elapsed = started.elapsed();
            assert!(matches!(err, Err(RemoteError::Transport { worker: 0, .. })));
            assert!(
                elapsed < Duration::from_secs(5),
                "{transport:?}: {elapsed:?}"
            );
        }
    }

    #[test]
    fn zero_valued_config_fields_are_named_not_blamed_on_a_worker() {
        type Zeroing = fn(&mut RemoteConfig);
        let zeroed: [(&str, Zeroing); 2] = [
            ("io_timeout", |c| c.io_timeout = Duration::ZERO),
            ("spawn_timeout", |c| c.spawn_timeout = Duration::ZERO),
        ];
        let cfg = EngineConfig::new(2, 100);
        for (what, zero) in zeroed {
            let mut rcfg = RemoteConfig::default();
            zero(&mut rcfg);
            let items = TrackerSpec::new(TrackerKind::ExactFreq)
                .k(2)
                .eps(0.1)
                .universe(8);
            let err = RemoteEngine::items(items, cfg, rcfg.clone()).err();
            assert_eq!(err, Some(RemoteError::Config { what }));
            let err = RemoteEngine::counters(det_spec(2), cfg, rcfg).err();
            assert_eq!(err, Some(RemoteError::Config { what }));
        }
    }

    #[test]
    fn an_idle_gap_costs_no_failover() {
        // Two calls a gap of twice the failure detector apart: a worker
        // has no timer of its own, so the quiet link between calls is no
        // death.
        let feeds = walk_feeds(4, 8_000);
        let cfg = EngineConfig::new(4, 250).workers(2);
        let half = |second: bool| -> Vec<(usize, &[i64])> {
            let halves = feeds.iter().map(|(s, v)| (*s, v.split_at(v.len() / 2)));
            halves
                .map(|(s, (head, tail))| (s, if second { tail } else { head }))
                .collect()
        };
        let mut transports = vec![RemoteTransport::Tcp];
        #[cfg(unix)]
        transports.push(RemoteTransport::Uds);
        for transport in transports {
            let rcfg = RemoteConfig {
                transport,
                io_timeout: Duration::from_millis(200),
                ..RemoteConfig::default()
            };
            let gap = 2 * rcfg.io_timeout;
            let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
            let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
            local.run_parted(&half(false)).unwrap();
            remote.run_parted(&half(false)).unwrap();
            std::thread::sleep(gap);
            let local_report = local.run_parted(&half(true)).unwrap();
            let report = remote.run_parted(&half(true)).unwrap();
            assert!(remote.events().is_empty(), "{transport:?}");
            assert_same_run(&mut remote, &report, &mut local, &local_report);
        }
    }

    #[test]
    fn never_run_engine_reads_as_fresh_replicas() {
        let cfg = EngineConfig::new(4, 100);
        let local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
        assert_eq!(remote.tracker_stats().unwrap(), local.tracker_stats());
    }

    #[test]
    fn a_call_costs_one_frame_each_way_per_worker_and_round() {
        // 16 rounds on 2 workers, every worker with a chunk every round:
        // the commits (the end of the call, and every 3 rounds) ride the
        // round frames, so they cost none of their own.
        let feeds = walk_feeds(4, 4 * 16 * 100);
        let mut transports = vec![RemoteTransport::Tcp];
        #[cfg(unix)]
        transports.push(RemoteTransport::Uds);
        for transport in transports {
            for every in [0, 3] {
                let cfg = EngineConfig::new(4, 100).workers(2).checkpoint_every(every);
                let rcfg = RemoteConfig {
                    transport,
                    ..fast_rcfg()
                };
                let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
                let before = remote.wire_stats();
                let report = remote.run_parted(&slices(&feeds)).unwrap();
                let after = remote.wire_stats();
                let label = format!("{transport:?}, every {every}");
                assert_eq!(report.batches, 16, "{label}");
                assert_eq!(after.frames_sent - before.frames_sent, 2 * 16, "{label}");
                let received = after.frames_received - before.frames_received;
                assert_eq!(received, 2 * 16, "{label}");
            }
        }
    }

    #[test]
    fn commits_without_a_chunk_to_ride_stay_bit_identical() {
        // Five shards on two workers, fed by sites 0..3 only: worker 1's
        // one feed (site 1) ends in round 2, so from the first commit on
        // it has no chunk at a commit round, and shards 3 (worker 1) and
        // 4 (worker 0) have no feed and are never captured until a
        // commit asks for them. A second call leaves worker 1 idle.
        let mut feeds = walk_feeds(3, 3 * 3_000);
        feeds[1].1.truncate(700);
        let second: Vec<(usize, Vec<i64>)> = vec![(2, feeds[2].1[..900].to_vec())];
        // States captured after each call: the in-process engine's one
        // checkpoint a call, and with a period the commits at boundaries
        // 4 and 8 also capture shards 0 and 2 (four more).
        for (every, captured) in [(0, [5, 6]), (4, [9, 10])] {
            let cfg = EngineConfig::new(5, 250).workers(2).checkpoint_every(every);
            let mut local = ShardedEngine::counters(det_spec(5), cfg).unwrap();
            let mut remote = RemoteEngine::counters(det_spec(5), cfg, fast_rcfg()).unwrap();
            for (call, captured) in [&feeds, &second].into_iter().zip(captured) {
                let local_report = local.run_parted(&slices(call)).unwrap();
                let report = remote.run_parted(&slices(call)).unwrap();
                assert!(remote.events().is_empty(), "every {every}");
                assert_same_run(&mut remote, &report, &mut local, &local_report);
                let stats = remote.checkpoint_stats();
                assert_eq!(stats.total_messages(), captured, "every {every}");
                if every == 0 {
                    assert_eq!(stats, local.checkpoint_stats());
                }
            }
        }
    }

    #[test]
    fn a_never_run_engine_checkpoints_through_rounds_with_no_chunks() {
        let cfg = EngineConfig::new(4, 100).workers(2);
        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        let before = remote.wire_stats();
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
        assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
        // One chunkless round frame and its report per worker; a second
        // checkpoint finds every shard current and pulls nothing.
        let pulled = remote.wire_stats();
        assert_eq!(pulled.frames_sent - before.frames_sent, 2);
        assert_eq!(pulled.frames_received - before.frames_received, 2);
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
        assert_eq!(remote.wire_stats(), pulled);
    }

    #[test]
    fn consumed_but_uncommitted_shards_are_a_typed_error() {
        // The first commit loses worker 1 with no failover budget left:
        // four rounds are closed, and no shard's state was captured.
        let feeds = walk_feeds(4, 8_000);
        let cfg = EngineConfig::new(4, 250).workers(2).checkpoint_every(4);
        let rcfg = RemoteConfig {
            max_failovers: 0,
            ..fast_rcfg()
        };
        let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
        let at = FaultPoint::DuringCheckpoint(3);
        remote.set_fault_plan(FaultPlan::new().inject(at, 1, FaultKind::Sever));
        let err = remote.run_parted(&slices(&feeds)).unwrap_err();
        assert_eq!(err, RemoteError::FailoverExhausted { worker: 1 });
        let what = "no committed state for a shard";
        let uncommitted = RemoteError::Protocol { worker: 0, what };
        assert_eq!(remote.shard_estimates(), Err(uncommitted.clone()));
        assert_eq!(remote.tracker_stats(), Err(uncommitted));
    }

    /// The shape a constant lead wedges on: two feeds a site, 1,024 a
    /// worker, make a round report 16 KiB, sixteen of them unread fill
    /// the socket, and the coordinator blocks writing a 2 MiB round to
    /// a worker that is blocked writing a report. (A report carries an
    /// entry per chunk, so feeds, not shards, set its size: one feed a
    /// shard, 8 KiB reports, fit.) One failed timeout (no failover
    /// budget) fails the test; a slow debug build cannot.
    #[test]
    fn wide_reports_shrink_the_window_instead_of_wedging() {
        let k = 1024;
        let feed: Vec<i64> = (0..20 * 256).map(|i| 1 - 2 * (i % 3 / 2)).collect();
        let feeds: Vec<(usize, &[i64])> = (0..2 * k).map(|i| (i % k, &feed[..])).collect();
        let cfg = EngineConfig::new(k, 256).workers(2);
        let mut local = ShardedEngine::counters(det_spec(k), cfg).unwrap();
        let local_report = local.run_parted(&feeds).unwrap();

        let mut transports = vec![RemoteTransport::Tcp];
        #[cfg(unix)]
        transports.push(RemoteTransport::Uds);
        for transport in transports {
            let rcfg = RemoteConfig {
                transport,
                io_timeout: Duration::from_secs(10),
                max_failovers: 0,
                ..RemoteConfig::default()
            };
            let mut remote = RemoteEngine::counters(det_spec(k), cfg, rcfg).unwrap();
            assert_eq!(lead(k), 1, "16 KiB reports leave no look-ahead");
            let report = remote.run_parted(&feeds).unwrap();
            assert!(remote.events().is_empty(), "{transport:?}");
            assert_same_run(&mut remote, &report, &mut local, &local_report);
        }
    }

    #[test]
    fn feeds_that_end_mid_window_stay_bit_identical() {
        // Shards drop out of the run at different rounds (one never
        // joins), so frames inside one window carry different shard sets
        // and worker 1 goes quiet while worker 0 still has rounds owed.
        let mut feeds = walk_feeds(4, 12_000);
        feeds[1].1.truncate(700);
        feeds[2].1.truncate(1_900);
        feeds[3].1.clear();
        let cfg = EngineConfig::new(4, 250);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();
        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert!(remote.events().is_empty());
        assert_same_run(&mut remote, &report, &mut local, &local_report);
    }

    #[test]
    fn borrowed_round_encoder_writes_the_owned_messages_bytes() {
        use wire::{Chunk, Inputs};
        let chunk = |sid, inputs| Chunk {
            sid,
            site: sid + 4,
            inputs,
        };
        let counts: &[i64] = &[1, -1, 1];
        let items: &[(u64, i64)] = &[(5, 1), (9, -1)];
        let mut enc = Enc::new();

        // Both input families, each with an empty chunk; the first frame
        // ends in a commit.
        let chunks = [(0, 4, counts), (2, 6, &[])];
        encode_round(&mut enc, 7, 0, chunks.into_iter(), &[0, 2]);
        let owned = ToWorker::Round {
            round: 7,
            delay_ms: 0,
            chunks: vec![
                chunk(0, Inputs::Counts(counts.to_vec())),
                chunk(2, Inputs::Counts(Vec::new())),
            ],
            commit: vec![0, 2],
        };
        assert_eq!(enc.as_bytes(), owned.to_bytes());

        // The buffer is reused: nothing of the previous frame survives.
        let chunks = [(1, 5, &[][..]), (3, 7, items)];
        encode_round(&mut enc, 8, 25, chunks.into_iter(), &[]);
        let owned = ToWorker::Round {
            round: 8,
            delay_ms: 25,
            chunks: vec![
                chunk(1, Inputs::Items(Vec::new())),
                chunk(3, Inputs::Items(items.to_vec())),
            ],
            commit: vec![],
        };
        assert_eq!(enc.as_bytes(), owned.to_bytes());

        // A commit with no chunk to ride.
        encode_round::<i64>(&mut enc, 9, 0, std::iter::empty(), &[3]);
        let owned = ToWorker::Round {
            round: 9,
            delay_ms: 0,
            chunks: vec![],
            commit: vec![3],
        };
        assert_eq!(enc.as_bytes(), owned.to_bytes());
    }

    #[test]
    fn severed_worker_fails_over_and_stays_bit_identical() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250).checkpoint_every(4);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        remote.set_fault_plan(sever(6, 1));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        let event = remote.events()[0];
        assert_eq!((event.worker, event.generation), (1, 1));
        // Checkpoint at boundary 4 bounds the replay to what was
        // closed past it: nothing when the window 4..8 finds the
        // worker gone, rounds 4..8 when the boundary-8 commit is what
        // finds it (DESIGN.md §8; tests/failover_injection.rs pins
        // the two sides).
        assert!((4..=8).contains(&event.round), "{event:?}");
        assert_eq!(event.replayed_rounds, event.round - 4);
        assert_same_run(&mut remote, &report, &mut local, &local_report);
    }

    #[test]
    fn delayed_worker_trips_the_failure_detector() {
        let feeds = walk_feeds(2, 4_000);
        let cfg = EngineConfig::new(2, 500).checkpoint_every(2);
        let rcfg = RemoteConfig {
            io_timeout: Duration::from_millis(100),
            ..RemoteConfig::default()
        };

        let mut local = ShardedEngine::counters(det_spec(2), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(2), cfg, rcfg).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(
            FaultPoint::MidRound(3),
            0,
            FaultKind::Delay { ms: 600 },
        ));
        let report = remote.run_parted(&slices(&feeds)).unwrap();
        assert_eq!(remote.events().len(), 1);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.merge_stats, local_report.merge_stats);
    }

    #[test]
    fn engine_is_incremental_across_remote_runs() {
        let feeds = walk_feeds(3, 9_000);
        let cfg = EngineConfig::new(3, 300);
        let mut local = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let mut remote = RemoteEngine::counters(det_spec(3), cfg, fast_rcfg()).unwrap();
        for half in 0..2 {
            let part: Vec<(usize, &[i64])> = feeds
                .iter()
                .map(|(s, v)| {
                    let mid = v.len() / 2;
                    let range = if half == 0 { &v[..mid] } else { &v[mid..] };
                    (*s, range)
                })
                .collect();
            local.run_parted(&part).unwrap();
            local.checkpoint().unwrap();
            remote.run_parted(&part).unwrap();
        }
        assert_eq!(remote.estimate(), local.estimate());
        assert_eq!(remote.time(), local.time());
        assert_eq!(remote.merge_stats(), local.merge_stats());
        assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn bad_feeds_are_rejected_before_any_traffic() {
        let cfg = EngineConfig::new(2, 100);
        let mut remote = RemoteEngine::counters(det_spec(2), cfg, fast_rcfg()).unwrap();
        let ones = vec![1i64; 10];
        let err = remote.run_parted(&[(7, ones.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            RemoteError::Engine(EngineError::Run(RunError::SiteOutOfRange { site: 7, .. }))
        ));
        assert_eq!(remote.time(), 0);

        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(1).eps(0.1);
        let mut remote =
            RemoteEngine::counters(cmy, EngineConfig::new(1, 100), fast_rcfg()).unwrap();
        let bad = vec![1i64, -1];
        let err = remote.run_parted(&[(0, bad.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            RemoteError::Engine(EngineError::Run(RunError::DeletionUnsupported { .. }))
        ));
    }

    /// Faults on a window's first and last round and during a commit,
    /// with and without mid-call commits: windows of 64 rounds start at
    /// 0, 64, 128, 192 without them and at 0, 64, 100, 164 with a commit
    /// every 100 boundaries.
    #[test]
    fn faults_at_window_and_commit_edges_stay_bit_identical() {
        let feeds = walk_feeds(4, 4 * 200 * 25);
        for every in [0, 100] {
            let cfg = EngineConfig::new(4, 25).workers(2).checkpoint_every(every);
            let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
            let local_report = local.run_parted(&slices(&feeds)).unwrap();
            assert_eq!(local_report.batches, 200);
            // Severs are seen at once; a slow host must not add deaths.
            let rcfg = RemoteConfig {
                io_timeout: Duration::from_secs(10),
                ..RemoteConfig::default()
            };
            let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
            remote.set_fault_plan(
                FaultPlan::new()
                    .inject(FaultPoint::MidRound(63), 0, FaultKind::Sever)
                    .inject(FaultPoint::MidRound(64), 1, FaultKind::Sever)
                    .inject(FaultPoint::DuringCheckpoint(99), 1, FaultKind::Sever),
            );
            let report = remote.run_parted(&slices(&feeds)).unwrap();
            let label = format!("every {every}");
            // Both severs fire. A sever on a window's last round races
            // the reports already queued, so its death may surface in
            // the next window, beside the other. The respawned worker 1
            // still hosts dirty shards at boundary 99, so the third fires
            // wherever that commit exists.
            assert!(remote.events().len() >= 2, "{label}");
            assert_eq!(remote.faults.pending(), usize::from(every == 0), "{label}");
            assert_same_run(&mut remote, &report, &mut local, &local_report);
        }
    }

    #[test]
    fn hostile_reports_are_protocol_errors() {
        let run: &[i64] = &[1, -1, 1];
        // Worker 1 holds shards 1 and 3 of 4; shard 3 has two feeds, so
        // round 0 sends it three chunks.
        let feeds: Vec<(usize, &[i64])> = vec![(1, run), (3, run), (3, run)];
        let kind = TrackerKind::Deterministic;
        let state = |kind, k| TrackerState::new(kind, k, vec![1; 8]);
        let ok = state(kind, 2);
        let report = |round, chunks, states| ToCoord::RoundReport {
            round,
            entries: vec![(1, 1); chunks],
            states,
        };
        let take = |asked: &[usize], reply| {
            let mut out = Rounds::default();
            let sent = chunks_of(&feeds, &[0, 1, 2], 4, 8, 0);
            take_report(1, 0, sent, asked, (kind, 2), reply, &mut out)
        };
        assert_eq!(take(&[], report(0, 3, vec![])), Ok(vec![]));
        let taken = take(&[1, 3], report(0, 3, vec![ok.clone(), ok.clone()]));
        assert_eq!(taken, Ok(vec![(1, ok.clone()), (3, ok.clone())]));
        let no = ToCoord::AssignAck {
            error: String::new(),
        };
        // Entries: too few, too many; another round's, another message.
        for hostile in [
            report(0, 2, vec![]),
            report(0, 4, vec![]),
            report(1, 3, vec![]),
            no.clone(),
        ] {
            let err = take(&[], hostile.clone()).unwrap_err();
            assert!(
                matches!(err, RemoteError::Protocol { worker: 1, .. }),
                "{hostile:?}"
            );
        }
        // States, asked for shards 1 and 3: too few, too many, a wrong
        // kind, a wrong `k`, another message.
        let alien_kind = state(TrackerKind::Randomized, 2);
        for hostile in [
            report(0, 3, vec![ok.clone()]),
            report(0, 3, vec![ok.clone(); 3]),
            report(0, 3, vec![ok.clone(), alien_kind]),
            report(0, 3, vec![state(kind, 5), ok.clone()]),
            no,
        ] {
            let err = take(&[1, 3], hostile.clone()).unwrap_err();
            assert!(
                matches!(err, RemoteError::Protocol { worker: 1, .. }),
                "{hostile:?}"
            );
        }
        // States on a report that was asked for none.
        let err = take(&[], report(0, 3, vec![ok])).unwrap_err();
        assert!(matches!(err, RemoteError::Protocol { worker: 1, .. }));
    }
}

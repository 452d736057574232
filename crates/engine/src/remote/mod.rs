//! Distributed shard processes over sockets with fault-injected
//! checkpoint failover.
//!
//! [`RemoteEngine`] serves the `S` logical shards of a
//! [`crate::ShardedEngine`] from separate shard workers — OS processes
//! running the `dsv-shard-server` binary, or in-process threads — behind
//! the `dsv-net` length-prefixed transport (version-tagged handshake,
//! per-connection timeouts, bounded retry-with-backoff connects). The
//! coordinator drives workers exactly like `run_parted` drives feeds:
//! rounds of `batch` inputs per feed, ground truth folded and shard
//! estimates absorbed at every round boundary, the same ε-audit at the
//! same cut.
//!
//! **Equivalence.** A remote run is *bit-identical* to the in-process
//! [`crate::ShardedEngine::run_parted`] over the same feeds: same
//! estimates, same per-shard replica states, same tracker and merge
//! [`CommStats`] ledgers. The transport's own costs live on separate
//! ledgers ([`RemoteEngine::wire_stats`], `checkpoint_stats`), so moving
//! shards off-process never perturbs the guarantee the facade's
//! `tests/remote_equivalence.rs` holds the engine to.
//!
//! **The send window.** The round loop keeps a computed window of
//! rounds on the wire past the one it is absorbing — one `Round` frame
//! per worker per round, never across a commit — so a worker is handed
//! round `r + 1` while round `r`'s report is read and reconciled. Reports
//! are absorbed in round order, so nothing the equivalence contract
//! covers can tell. DESIGN.md §8 has the rule and its reasons.
//!
//! **Failover.** [`EngineConfig::checkpoint_every`] turns on the
//! durability sink: every `N` boundaries the coordinator pulls each
//! *dirty* shard's [`TrackerState`] over the wire and commits a
//! consistent cut. When a worker dies — detected as a read/write timeout
//! or EOF on its connection — the coordinator respawns the slot (or
//! reattaches its shards to a live worker, [`Recovery`]), restores the
//! lost shards from the last committed cut, and **replays** the rounds
//! since that cut from the feeds it still holds: round chunks are a pure
//! function of `(feeds, batch, round)`, so no replay buffer exists.
//! Replayed reports are discarded — those rounds were already absorbed —
//! which is what keeps the merge ledger, and therefore the whole run,
//! bit-identical to an undisturbed one.
//!
//! **Fault injection.** [`FaultPlan`] makes the failure paths a
//! first-class test API: delay, sever, or kill a specific worker at a
//! chosen round, boundary, or checkpoint write. Faults fire once;
//! `tests/failover_injection.rs` sweeps the matrix.

pub mod wire;
pub mod worker;

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::merge::MergeCoordinator;
use crate::partition::InputDelta;
use crate::report::EngineReport;
use crate::round::{chunk_bounds, rounds_of, validate_feeds, Cut, Entry, RunAudit};
use dsv_core::api::{Problem, RunError, TrackerKind, TrackerSpec};
use dsv_core::codec::{CodecError, Enc, TrackerState};
use dsv_net::transport::{
    parse_hello, Conn, Endpoint, Listener, Role, TransportError, WireStats, DEFAULT_MAX_FRAME,
};
use dsv_net::{CommStats, IngestStats, MsgKind, SiteId, StateFrame, Time, WireSize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::{ShardInit, StateEntry, StatePull, ToCoord, ToWorker, WIRE_MAGIC, WIRE_VERSION};

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

/// What to do with a dead worker's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Spawn a replacement into the same worker slot (generation + 1).
    Respawn,
    /// Migrate the shards onto the next live worker; falls back to
    /// respawning when no other worker is alive.
    Reattach,
}

/// Configuration of the remote deployment (transport, spawning, timeouts,
/// recovery policy). [`EngineConfig`] keeps owning everything logical —
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
    /// Worker-side read timeout. Generous by design: it only reaps
    /// workers orphaned by a dead coordinator, and must comfortably
    /// exceed any coordinator think-time between messages.
    pub worker_idle_timeout: Duration,
    /// How long the coordinator waits for a spawned worker to connect
    /// and complete the handshake.
    pub spawn_timeout: Duration,
    /// Connect retries a worker makes before giving up (linear backoff).
    pub connect_retries: u32,
    /// Base backoff between a worker's connect attempts.
    pub connect_backoff: Duration,
    /// Per-connection incoming-frame cap, in bytes.
    pub max_frame: usize,
    /// What to do with a dead worker's shards.
    pub recovery: Recovery,
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
            worker_idle_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
            connect_retries: 20,
            connect_backoff: Duration::from_millis(10),
            max_frame: DEFAULT_MAX_FRAME,
            recovery: Recovery::Respawn,
            max_failovers: 8,
        }
    }
}

/// Where in the run an injected fault fires (rounds are 0-based within
/// one `run_parted` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// After the coordinator sends round `r`'s chunks, before it reads
    /// the report.
    MidRound(u64),
    /// After round `r` is absorbed and audited (before any auto
    /// checkpoint at that boundary, so the sink can be what detects the
    /// death).
    AtBoundary(u64),
    /// After the checkpoint request at the auto-checkpoint of boundary
    /// `r` is sent, before its reply is read.
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
            .position(|&(p, w, _)| p == point && w == worker)?;
        Some(self.faults.remove(at).2)
    }
}

/// One recovered worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The worker slot that died.
    pub worker: usize,
    /// Rounds fully absorbed when the death was detected.
    pub round: u64,
    /// Spawn generation of the recovered owner after recovery.
    pub generation: u64,
    /// The worker slot owning the shards after recovery (== `worker`
    /// for a respawn).
    pub recovered_to: usize,
    /// Rounds replayed from the last committed checkpoint.
    pub replayed_rounds: u64,
}

/// A remote engine that cannot be built or driven, as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// A logical (in-process) engine error: bad config, rejected stream,
    /// codec failure.
    Engine(EngineError),
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

/// Most rounds on the wire at once, the one being absorbed included: the
/// first few rounds of look-ahead buy the overlap (DESIGN.md §8).
const MAX_WINDOW: u64 = 16;

/// Budget, per worker, for round reports sent but not yet read. They sit
/// in the worker → coordinator socket buffer; a worker blocked writing
/// one stops reading rounds while the coordinator blocks writing it the
/// next — a wedge only `io_timeout` breaks. 4 KiB is one page: the floor
/// Linux lets a TCP socket buffer shrink to (`tcp_rmem[0]`) and a
/// fiftieth of the default Unix-socket buffer, so it always fits.
const UNREAD_REPORT_BYTES: usize = 4096;

/// One `run_parted` call's progress and everything it has on the wire.
#[derive(Default)]
struct Flight {
    /// Rounds fully absorbed this call.
    done: u64,
    /// How many of those the last committed checkpoint covers —
    /// `committed..done` is the replay window on failover.
    committed: u64,
    /// Per shard: the next round to send it.
    sent: Vec<u64>,
    /// Per worker: the reports it owes, in send order — the round and the
    /// shard of every chunk in the frame.
    owed: Vec<VecDeque<(u64, Vec<usize>)>>,
    /// Report entries received for rounds not closed yet, per round.
    parked: BTreeMap<u64, BTreeMap<usize, Entry>>,
    /// `MidRound` kills and severs taken when their round was sent,
    /// waiting for it to become the round being read.
    armed: Vec<(u64, usize, FaultKind)>,
}

impl Flight {
    fn new(s_count: usize, w_count: usize) -> Self {
        Flight {
            sent: vec![0; s_count],
            owed: vec![VecDeque::new(); w_count],
            ..Flight::default()
        }
    }

    /// Worker `dead` is gone and `shards` restart from the committed cut:
    /// the reports it owed died with its socket, and what the shards had
    /// reported past round `done` is dropped, so the loop's next pass
    /// re-sends those rounds to the replacement and uses its reports.
    fn rewind(&mut self, dead: usize, shards: &BTreeSet<usize>) {
        self.owed[dead].clear();
        for &sid in shards {
            self.sent[sid] = self.done;
            for entries in self.parked.values_mut() {
                entries.remove(&sid);
            }
        }
    }
}

/// One worker slot: its live connection (None once dead), the OS child
/// or thread backing it, and its spawn generation.
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
/// drive with [`run_parted`](Self::run_parted) (repeatedly — the engine
/// is incremental, like its in-process counterpart). A mandatory
/// checkpoint is committed at the end of every run, so between calls the
/// coordinator holds a complete consistent image of every shard — which
/// is what [`checkpoint`](Self::checkpoint) assembles, what failover in a
/// later call restores from, and what the report's tracker ledger is
/// computed from (by resuming the states locally).
pub struct RemoteEngine<In: RemoteInput> {
    spec: TrackerSpec,
    kind: TrackerKind,
    k: usize,
    cfg: EngineConfig,
    rcfg: RemoteConfig,
    listener: Listener,
    workers: Vec<Slot>,
    /// sid → owning worker slot (starts `sid % W`; reattach rewrites it).
    owner: Vec<usize>,
    coord: MergeCoordinator,
    ckpt_stats: CommStats,
    wire: WireStats,
    time: Time,
    f: i64,
    /// Per-shard state at the last committed checkpoint cut.
    ckpt_states: Vec<Option<TrackerState>>,
    /// Per-shard delta base: the last snapshot each worker shipped (or
    /// was restored from), advanced on receipt — deliberately separate
    /// from the committed `ckpt_states`, because a worker advances its
    /// own base the moment it replies, whether or not the surrounding
    /// checkpoint round commits.
    wire_base: Vec<Option<TrackerState>>,
    /// Delta links received per shard since its last full pull — the
    /// rebase counter driving [`EngineConfig::delta_rebase`] over the
    /// wire (the coordinator requests a full state every K-th pull).
    links_since_base: Vec<u64>,
    /// Inputs absorbed per shard since that cut (the dirty-shard skip,
    /// and exactly what a failover replay re-applies).
    dirty: Vec<u64>,
    faults: FaultPlan,
    events: Vec<FailoverEvent>,
    failovers: u32,
    graveyard: Vec<JoinHandle<()>>,
    /// The one buffer every round frame is encoded into (round loop and
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
        let probe = spec
            .shard(0)
            .build()
            .map_err(|e| RemoteError::Engine(EngineError::Build(e)))?;
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
        let probe = spec
            .shard(0)
            .build_item()
            .map_err(|e| RemoteError::Engine(EngineError::Build(e)))?;
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
        let s_count = cfg.shards_count();
        let w_count = cfg.workers_count();
        let listener = Listener::bind(&rcfg.transport.endpoint()).map_err(RemoteError::Bind)?;
        let mut engine = RemoteEngine {
            spec,
            kind,
            k,
            cfg,
            rcfg,
            listener,
            workers: Vec::new(),
            owner: (0..s_count).map(|sid| sid % w_count).collect(),
            coord: MergeCoordinator::new(s_count),
            ckpt_stats: CommStats::new(),
            wire: WireStats::new(),
            time: 0,
            f: 0,
            ckpt_states: vec![None; s_count],
            wire_base: vec![None; s_count],
            links_since_base: vec![0; s_count],
            dirty: vec![0; s_count],
            faults: FaultPlan::new(),
            events: Vec::new(),
            failovers: 0,
            graveyard: Vec::new(),
            frame: Enc::new(),
            _in: PhantomData,
        };
        for w in 0..w_count {
            engine.workers.push(Slot {
                conn: None,
                child: None,
                thread: None,
                generation: 0,
            });
            engine.spawn_worker(w, 0)?;
            let shards = (0..s_count)
                .filter(|&sid| engine.owner[sid] == w)
                .map(|sid| ShardInit { sid, state: None })
                .collect();
            engine.install(
                w,
                ToWorker::Assign {
                    spec: engine.spec,
                    s_count,
                    shards,
                },
            )?;
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
        self.time
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.coord.estimate()
    }

    /// Engine-level shard → coordinator reconciliation traffic —
    /// bit-identical to the in-process engine's over the same feeds.
    pub fn merge_stats(&self) -> &CommStats {
        self.coord.stats()
    }

    /// Snapshot traffic pulled over the wire by checkpoint commits, one
    /// [`StateFrame`] per dirty shard — the same ledger rule as
    /// [`crate::ShardedEngine::checkpoint`].
    pub fn checkpoint_stats(&self) -> &CommStats {
        &self.ckpt_stats
    }

    /// Measured socket traffic (frames and bytes both ways), summed over
    /// live and dead connections.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = self.wire;
        for slot in &self.workers {
            if let Some(conn) = &slot.conn {
                total.merge(conn.stats());
            }
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
        // Between runs nothing is dirty (every run ends with a commit),
        // so this only reaches for the wire on a never-run engine.
        if !self.stale_shards().is_empty() {
            let mut flight = Flight::new(self.cfg.shards_count(), self.workers.len());
            self.sync_checkpoint(&[], None, &mut flight)?;
        }
        let states = self
            .ckpt_states
            .iter()
            .map(|s| s.clone().expect("checkpoint commit fills every shard"))
            .collect();
        let mut merge = Enc::new();
        self.coord.save_state(&mut merge);
        Ok(EngineCheckpoint::new(
            self.kind,
            self.k,
            self.time,
            self.f,
            merge.into_bytes(),
            states,
        ))
    }

    /// Ingest pre-parted per-site feeds through the shard workers —
    /// the remote counterpart of [`crate::ShardedEngine::run_parted`],
    /// with the same validation, the same boundary cut, and bit-identical
    /// estimates and ledgers. Worker deaths are recovered transparently
    /// (respawn/reattach + replay from the last committed checkpoint);
    /// every recovery is recorded in [`events`](Self::events).
    pub fn run_parted(&mut self, feeds: &[(SiteId, &[In])]) -> Result<EngineReport, RemoteError> {
        let mut audit = RunAudit::new(&self.cfg);
        validate_feeds(feeds.iter().copied(), self.k, self.kind, self.time)?;

        let total: usize = feeds.iter().map(|(_, inputs)| inputs.len()).sum();
        let s_count = self.cfg.shards_count();
        let batch = self.cfg.batch_size();
        let rounds = rounds_of(feeds, batch) as u64;
        let period = self.cfg.checkpoint_period();
        let mut flight = Flight::new(s_count, self.workers.len());

        while flight.done < rounds {
            // Send every shard the rounds it has not been sent yet, up to
            // the window's end: one frame per worker per round.
            let commit_at = match flight.done.checked_div(period) {
                Some(q) => ((q + 1) * period).min(rounds),
                None => rounds,
            };
            let send_to = flight.done + self.window(commit_at - flight.done);
            let first = flight.sent.iter().copied().min().unwrap_or(send_to);
            let mut failed: BTreeSet<usize> = BTreeSet::new();
            for round in first..send_to {
                for w in 0..self.workers.len() {
                    if failed.contains(&w) {
                        continue;
                    }
                    let chunks = chunks_of(feeds, s_count, batch, round, |sid| {
                        self.owner[sid] == w && flight.sent[sid] <= round
                    });
                    let shards: Vec<usize> = chunks.clone().map(|(sid, ..)| sid).collect();
                    if shards.is_empty() {
                        continue;
                    }
                    let fault = self.faults.take(FaultPoint::MidRound(round), w);
                    let delay_ms = match fault {
                        Some(FaultKind::Delay { ms }) => ms,
                        _ => 0,
                    };
                    encode_round(&mut self.frame, round, delay_ms, chunks);
                    if self.workers[w].send(self.frame.as_bytes()).is_err() {
                        failed.insert(w);
                        continue;
                    }
                    flight.owed[w].push_back((round, shards));
                    // A `MidRound(r)` kill lands while round `r` is the one
                    // being read: now, or once it is — not when it was sent.
                    if let Some(kind @ (FaultKind::Kill | FaultKind::Sever)) = fault {
                        if round == flight.done {
                            self.disrupt(w, kind);
                        } else {
                            flight.armed.push((round, w, kind));
                        }
                    }
                }
            }
            // (A failed worker's shards are rewound by its failover; a
            // reattach can shrink the window under rounds already sent.)
            for next in &mut flight.sent {
                *next = send_to.max(*next);
            }
            let done = flight.done;
            for &(_, w, kind) in flight.armed.iter().filter(|a| a.0 == done) {
                self.disrupt(w, kind);
            }
            flight.armed.retain(|a| a.0 != done);
            // Read round `done`'s reports; on a dead worker, drain what the
            // live ones still owe (it parks) so recovery finds them quiet.
            for through in [flight.done, u64::MAX] {
                for w in 0..self.workers.len() {
                    if !failed.contains(&w) && !self.read_reports(w, through, &mut flight)? {
                        failed.insert(w);
                    }
                }
                if failed.is_empty() {
                    break;
                }
            }
            if !failed.is_empty() {
                for w in failed {
                    self.failover(w, feeds, &mut flight)?;
                }
                continue;
            }

            let entries = flight.parked.remove(&flight.done).unwrap_or_default();
            let (time, f, dirty) = (&mut self.time, &mut self.f, &mut self.dirty);
            Cut::new(time, f, dirty, &mut self.coord, &mut audit).close(entries.into_values());
            flight.done += 1;
            for w in 0..self.workers.len() {
                if let Some(kind) = self.faults.take(FaultPoint::AtBoundary(flight.done - 1), w) {
                    self.disrupt(w, kind);
                }
            }
            if period > 0 && flight.done.is_multiple_of(period) {
                self.sync_checkpoint(feeds, Some(flight.done - 1), &mut flight)?;
            }
        }
        // Mandatory end-of-run commit: later calls (and their failovers)
        // never need this call's feeds again, and the report's tracker
        // ledger comes from these states.
        self.sync_checkpoint(feeds, None, &mut flight)?;

        let (_, tracker_stats) = self.resume_final()?;
        Ok(audit.report(
            &self.cfg,
            total as u64,
            self.f,
            &self.coord,
            tracker_stats,
            IngestStats::new(),
        ))
    }

    /// How many rounds may be on the wire, the one being absorbed
    /// included, with `left` to go before the next commit or the end of
    /// the call (either must find the wire empty).
    fn window(&self, left: u64) -> u64 {
        let mut shards = vec![0usize; self.workers.len()];
        for &w in &self.owner {
            shards[w] += 1;
        }
        let busiest = shards.into_iter().max().unwrap_or(0);
        // The transport's 4-byte length prefix rides with every report.
        let report = 4 + wire::round_report_len(busiest);
        MAX_WINDOW
            .min(left)
            .min((UNREAD_REPORT_BYTES / report) as u64)
            .max(1)
    }

    /// Read the reports worker `w` owes for rounds `..= through`, in the
    /// order they were sent, parking their entries per round. `false`
    /// when its connection failed instead.
    fn read_reports(
        &mut self,
        w: usize,
        through: u64,
        flight: &mut Flight,
    ) -> Result<bool, RemoteError> {
        while let Some((round, shards)) = flight.owed[w].front() {
            if *round > through {
                break;
            }
            match self.recv_coord(w) {
                Ok(ToCoord::RoundReport { round: r, reports }) if r == *round => {
                    let entries = flight.parked.entry(r).or_default();
                    for e in reports {
                        entries.insert(e.sid, (e.sid, e.estimate, e.sum, e.len));
                    }
                    // A live worker must report every shard it was sent —
                    // resending to it would double-apply.
                    if shards.iter().any(|sid| !entries.contains_key(sid)) {
                        return Err(RemoteError::Protocol {
                            worker: w,
                            what: "round report missing a dispatched shard",
                        });
                    }
                }
                Ok(_) => {
                    return Err(RemoteError::Protocol {
                        worker: w,
                        what: "unexpected reply to a round",
                    })
                }
                Err(RemoteError::Transport { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
            flight.owed[w].pop_front();
        }
        Ok(true)
    }

    /// Shards whose committed state is behind their replica: dirty since
    /// the last commit, or never captured.
    fn stale_shards(&self) -> Vec<usize> {
        (0..self.cfg.shards_count())
            .filter(|&sid| self.dirty[sid] > 0 || self.ckpt_states[sid].is_none())
            .collect()
    }

    /// Commit a checkpoint cut at the current boundary: pull the state of
    /// every dirty (or never-captured) shard, and only when **all** of
    /// them arrived commit states + ledger charge atomically. Worker
    /// deaths restart the request loop after failover — snapshots are
    /// read-only, so re-requesting is always safe.
    fn sync_checkpoint(
        &mut self,
        feeds: &[(SiteId, &[In])],
        fault_boundary: Option<u64>,
        flight: &mut Flight,
    ) -> Result<(), RemoteError> {
        let need = self.stale_shards();
        if need.is_empty() {
            flight.committed = flight.done;
            return Ok(());
        }
        loop {
            let mut per_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &sid in &need {
                per_worker.entry(self.owner[sid]).or_default().push(sid);
            }
            let mut staged: BTreeMap<usize, (TrackerState, usize)> = BTreeMap::new();
            let mut failed: BTreeSet<usize> = BTreeSet::new();
            let mut sent: Vec<usize> = Vec::new();
            let rebase = self.cfg.delta_rebase_period();
            for (w, sids) in per_worker {
                // Delta pulls are strictly opt-in (`delta_rebase(K)` with
                // K > 0) and only when both sides hold the same base;
                // every K-th pull goes back to a full state.
                let pulls: Vec<StatePull> = sids
                    .iter()
                    .map(|&sid| StatePull {
                        sid,
                        want_delta: rebase > 0
                            && self.wire_base[sid].is_some()
                            && self.links_since_base[sid] < rebase,
                    })
                    .collect();
                match self.workers[w].send(&ToWorker::Checkpoint { shards: pulls }.to_bytes()) {
                    Ok(()) => sent.push(w),
                    Err(_) => {
                        failed.insert(w);
                    }
                }
                if let Some(boundary) = fault_boundary {
                    if let Some(kind) = self.faults.take(FaultPoint::DuringCheckpoint(boundary), w)
                    {
                        self.disrupt(w, kind);
                    }
                }
            }
            for w in sent {
                match self.recv_coord(w) {
                    Ok(ToCoord::CheckpointReport { states }) => {
                        for (sid, entry) in states {
                            if sid >= self.wire_base.len() {
                                return Err(RemoteError::Protocol {
                                    worker: w,
                                    what: "checkpoint entry for an unknown shard",
                                });
                            }
                            // Resolve to a full state and advance the
                            // delta base *on receipt*: the worker already
                            // advanced its own base when it replied, so
                            // the two must move together even if this
                            // round's commit is aborted by another
                            // worker's death.
                            let (state, wire_len) = match entry {
                                StateEntry::Full(state) => {
                                    if state.kind() != self.kind || state.k() != self.k {
                                        return Err(RemoteError::Protocol {
                                            worker: w,
                                            what: "checkpoint state contradicts the engine spec",
                                        });
                                    }
                                    self.links_since_base[sid] = 0;
                                    let len = state.payload().len();
                                    (state, len)
                                }
                                StateEntry::Delta(delta) => {
                                    let Some(base) = self.wire_base[sid].as_ref() else {
                                        return Err(RemoteError::Protocol {
                                            worker: w,
                                            what: "delta checkpoint entry without a shared base",
                                        });
                                    };
                                    let len = delta.encoded_len();
                                    let payload = delta
                                        .apply(base.payload())
                                        .map_err(|err| RemoteError::Decode { worker: w, err })?;
                                    self.links_since_base[sid] += 1;
                                    (TrackerState::new(self.kind, base.k(), payload), len)
                                }
                            };
                            self.wire_base[sid] = Some(state.clone());
                            staged.insert(sid, (state, wire_len));
                        }
                    }
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: w,
                            what: "unexpected reply to a checkpoint request",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => {
                        failed.insert(w);
                    }
                    Err(e) => return Err(e),
                }
            }
            if failed.is_empty() {
                for &sid in &need {
                    let Some((state, wire_len)) = staged.remove(&sid) else {
                        return Err(RemoteError::Protocol {
                            worker: self.owner[sid],
                            what: "checkpoint reply missing a requested shard",
                        });
                    };
                    // Charge what was actually shipped: the full payload
                    // for a full pull, the encoded delta for a delta pull
                    // — one ledger message per shard either way, so the
                    // message counts stay comparable across modes (and
                    // agree with the wire's frame counts; see
                    // tests/delta_checkpoint.rs).
                    let frame = StateFrame::for_payload(sid, wire_len);
                    self.ckpt_stats.charge(MsgKind::Up, frame.words());
                    self.ckpt_states[sid] = Some(state);
                    self.dirty[sid] = 0;
                }
                flight.committed = flight.done;
                return Ok(());
            }
            for w in failed {
                self.failover(w, feeds, flight)?;
            }
        }
    }

    /// Recover from the death of worker `dead`: tear the slot down,
    /// restore its shards from the last committed checkpoint cut
    /// (respawn into the slot, or reattach onto a live worker), and
    /// replay rounds `committed..done` from the feeds — discarding the
    /// reports, since those rounds are already absorbed. Rounds past
    /// `done` are not replayed here: the recovered shards' send cursors
    /// are rewound, so the round loop re-sends them and uses the reports.
    /// Live workers must owe nothing — a reattach reads its ack off one.
    fn failover(
        &mut self,
        dead: usize,
        feeds: &[(SiteId, &[In])],
        flight: &mut Flight,
    ) -> Result<(), RemoteError> {
        let s_count = self.cfg.shards_count();
        let batch = self.cfg.batch_size();
        let mut dead = dead;
        'recover: loop {
            self.failovers += 1;
            if self.failovers > self.rcfg.max_failovers {
                return Err(RemoteError::FailoverExhausted { worker: dead });
            }
            if let Some(conn) = self.workers[dead].conn.take() {
                self.wire.merge(conn.stats());
                conn.shutdown();
            }
            if let Some(mut child) = self.workers[dead].child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(handle) = self.workers[dead].thread.take() {
                self.graveyard.push(handle);
            }
            let owned: BTreeSet<usize> = (0..s_count)
                .filter(|&sid| self.owner[sid] == dead)
                .collect();
            flight.rewind(dead, &owned);
            let inits: Vec<ShardInit> = owned
                .iter()
                .map(|&sid| ShardInit {
                    sid,
                    state: self.ckpt_states[sid].clone(),
                })
                .collect();
            // The replacement restores from the committed cut, which
            // resets its delta bases to those states — mirror that here,
            // symmetrically, before any further checkpoint pull.
            for &sid in &owned {
                self.wire_base[sid] = self.ckpt_states[sid].clone();
                self.links_since_base[sid] = 0;
            }
            let reattach_to = match self.rcfg.recovery {
                Recovery::Respawn => None,
                Recovery::Reattach => {
                    (0..self.workers.len()).find(|&w| w != dead && self.workers[w].conn.is_some())
                }
            };
            let dest = match reattach_to {
                Some(dest) => match self.install(dest, ToWorker::Attach { shards: inits }) {
                    Ok(()) => {
                        for &sid in &owned {
                            self.owner[sid] = dest;
                        }
                        dest
                    }
                    Err(RemoteError::Transport { .. }) => {
                        // The reattach target died too; recover it (the
                        // original shards stay mapped to the dead slot and
                        // surface again at the caller's next send).
                        dead = dest;
                        continue 'recover;
                    }
                    Err(e) => return Err(e),
                },
                None => {
                    let generation = self.workers[dead].generation + 1;
                    self.spawn_worker(dead, generation)?;
                    self.install(
                        dead,
                        ToWorker::Assign {
                            spec: self.spec,
                            s_count,
                            shards: inits,
                        },
                    )?;
                    dead
                }
            };
            // Replay the window since the committed cut, restricted to
            // the recovered shards (a reattach target's own shards are
            // live and must not see the rounds twice).
            let mut replayed = 0u64;
            for replay_round in flight.committed..flight.done {
                let chunks = chunks_of(feeds, s_count, batch, replay_round, |sid| {
                    owned.contains(&sid)
                });
                if chunks.clone().next().is_none() {
                    continue;
                }
                encode_round(&mut self.frame, replay_round, 0, chunks);
                let sent = self.workers[dest].send(self.frame.as_bytes());
                match sent
                    .map_err(|err| RemoteError::Transport { worker: dest, err })
                    .and_then(|()| self.recv_coord(dest))
                {
                    // Already absorbed at the original boundary: discard,
                    // so the merge ledger never sees the replay.
                    Ok(ToCoord::RoundReport { .. }) => replayed += 1,
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: dest,
                            what: "unexpected reply to a replayed round",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => {
                        dead = dest;
                        continue 'recover;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.events.push(FailoverEvent {
                worker: dead,
                round: flight.done,
                generation: self.workers[dest].generation,
                recovered_to: dest,
                replayed_rounds: replayed,
            });
            return Ok(());
        }
    }

    /// Spawn a worker into slot `w` (thread or process per the config),
    /// accept its connection, and verify the handshake identity.
    fn spawn_worker(&mut self, w: usize, generation: u64) -> Result<(), RemoteError> {
        let idle = self.rcfg.worker_idle_timeout;
        let retries = self.rcfg.connect_retries;
        let backoff = self.rcfg.connect_backoff;
        match self.rcfg.spawn.clone() {
            SpawnMode::Threads => {
                let ep = self.listener.endpoint().clone();
                let handle = std::thread::spawn(move || {
                    let _ = worker::serve(&ep, w as u64, generation, idle, retries, backoff);
                });
                self.workers[w].thread = Some(handle);
            }
            SpawnMode::Processes { bin } => {
                let child = Command::new(&bin)
                    .arg(self.listener.endpoint().to_string())
                    .args(["--worker", &w.to_string()])
                    .args(["--gen", &generation.to_string()])
                    .args(["--timeout-ms", &idle.as_millis().to_string()])
                    .args(["--retries", &retries.to_string()])
                    .args(["--backoff-ms", &backoff.as_millis().to_string()])
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
        conn.set_max_frame(self.rcfg.max_frame);
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
        Ok(())
    }

    /// Send an assignment and require a clean ack.
    fn install(&mut self, w: usize, msg: ToWorker) -> Result<(), RemoteError> {
        self.workers[w]
            .send(&msg.to_bytes())
            .map_err(|err| RemoteError::Transport { worker: w, err })?;
        match self.recv_coord(w)? {
            ToCoord::AssignAck { error } if error.is_empty() => Ok(()),
            ToCoord::AssignAck { error } => Err(RemoteError::WorkerRejected {
                worker: w,
                msg: error,
            }),
            _ => Err(RemoteError::Protocol {
                worker: w,
                what: "unexpected reply to an assignment",
            }),
        }
    }

    fn recv_coord(&mut self, w: usize) -> Result<ToCoord, RemoteError> {
        let conn = self.workers[w]
            .conn
            .as_mut()
            .ok_or(RemoteError::Transport {
                worker: w,
                err: TransportError::Closed { op: "recv" },
            })?;
        let frame = conn
            .recv()
            .map_err(|err| RemoteError::Transport { worker: w, err })?;
        ToCoord::from_bytes(&frame).map_err(|err| RemoteError::Decode { worker: w, err })
    }

    /// Apply an injected disruption to worker `w` (see [`FaultKind`]).
    fn disrupt(&mut self, w: usize, kind: FaultKind) {
        match kind {
            FaultKind::Kill => {
                if let Some(child) = &mut self.workers[w].child {
                    let _ = child.kill();
                } else if let Some(conn) = &self.workers[w].conn {
                    conn.shutdown();
                }
            }
            FaultKind::Sever | FaultKind::Delay { .. } => {
                if let Some(conn) = &self.workers[w].conn {
                    conn.shutdown();
                }
            }
        }
    }

    /// Resume every shard's last committed state locally, yielding the
    /// per-shard estimates and the summed in-protocol tracker ledger —
    /// the state the in-process engine reads off its replicas directly.
    fn resume_final(&self) -> Result<(Vec<i64>, CommStats), RemoteError> {
        use dsv_core::api::Tracker;
        let mut estimates = Vec::with_capacity(self.ckpt_states.len());
        let mut stats = CommStats::new();
        for (sid, state) in self.ckpt_states.iter().enumerate() {
            let state = state.as_ref().ok_or(RemoteError::Protocol {
                worker: self.owner[sid],
                what: "no committed state for a shard",
            })?;
            let map_build = |e| RemoteError::Engine(EngineError::Build(e));
            let map_codec = |e| RemoteError::Engine(EngineError::Codec(e));
            match self.kind.problem() {
                Problem::Counting => {
                    let mut t = self.spec.shard(sid).build().map_err(map_build)?;
                    t.restore(state).map_err(map_codec)?;
                    estimates.push(t.estimate());
                    stats.merge(t.stats());
                }
                Problem::Frequencies => {
                    let mut t = self.spec.shard(sid).build_item().map_err(map_build)?;
                    t.restore(state).map_err(map_codec)?;
                    estimates.push(t.estimate());
                    stats.merge(t.stats());
                }
            }
        }
        Ok((estimates, stats))
    }
}

impl<In: RemoteInput> Drop for RemoteEngine<In> {
    fn drop(&mut self) {
        let finish = ToWorker::Finish.to_bytes();
        for slot in &mut self.workers {
            if let Some(conn) = &mut slot.conn {
                let _ = conn.send(&finish);
            }
            // Closing the socket reaps even a worker that never decodes
            // the Finish (its next read observes the close).
            if let Some(conn) = slot.conn.take() {
                conn.shutdown();
            }
            if let Some(mut child) = slot.child.take() {
                let _ = child.wait();
            }
            if let Some(handle) = slot.thread.take() {
                let _ = handle.join();
            }
        }
        for handle in self.graveyard.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Round `round`'s chunks for the shards `wanted` selects, in feed order
/// — `(shard, site, inputs)`, borrowed from the feeds: the one slicing
/// the round loop and failover replay both ship.
fn chunks_of<'a, In>(
    feeds: &'a [(SiteId, &'a [In])],
    s_count: usize,
    batch: usize,
    round: u64,
    wanted: impl Fn(usize) -> bool + Clone + 'a,
) -> impl Iterator<Item = (usize, SiteId, &'a [In])> + Clone + 'a {
    feeds.iter().filter_map(move |&(site, inputs)| {
        let sid = site % s_count;
        let (lo, hi) = chunk_bounds(inputs.len(), batch, round as usize).filter(|_| wanted(sid))?;
        Some((sid, site, &inputs[lo..hi]))
    })
}

/// Encode `chunks` as round `round`'s frame into `enc` (cleared first):
/// the bytes of `ToWorker::Round { round, delay_ms, chunks }.to_bytes()`
/// without the owned copies.
fn encode_round<'a, In: RemoteInput + 'a>(
    enc: &mut Enc,
    round: u64,
    delay_ms: u64,
    chunks: impl Iterator<Item = (usize, SiteId, &'a [In])> + Clone,
) {
    enc.clear();
    enc.magic(WIRE_MAGIC, WIRE_VERSION);
    wire::round_header(enc, round, delay_ms, chunks.clone().count());
    for (sid, site, inputs) in chunks {
        wire::chunk_header(enc, sid, site);
        In::encode(inputs, enc);
    }
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
    fn reattach_holds_with_rounds_in_flight() {
        // No boundary inside the call, so the window is at its widest
        // when the sever lands: whatever worker 0 already reported past
        // the round being read parks, worker 1's shards are rewound, and
        // worker 0 adopts them — per the policy — and is re-sent their
        // rounds by the loop's next pass.
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let rcfg = RemoteConfig {
            recovery: Recovery::Reattach,
            ..fast_rcfg()
        };
        let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
        assert!(
            remote.window(12) >= 3,
            "the fault must find rounds in flight"
        );
        remote.set_fault_plan(sever(6, 1));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        assert_eq!(remote.events()[0].worker, 1);
        assert_eq!(remote.events()[0].recovered_to, 0);
        assert_same_run(&mut remote, &report, &mut local, &local_report);
    }

    /// The shape a constant window wedges on: 512 shards a worker make a
    /// round report 16 KiB, sixteen of them unread fill a Unix socket,
    /// and the coordinator blocks writing a 1 MiB round to a worker that
    /// is blocked writing a report. One failed timeout (no failover
    /// budget) fails the test; a slow debug build cannot.
    #[test]
    fn wide_reports_shrink_the_window_instead_of_wedging() {
        let k = 1024;
        let feed: Vec<i64> = (0..40 * 256).map(|i| 1 - 2 * (i % 3 / 2)).collect();
        let feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, feed.clone())).collect();
        let cfg = EngineConfig::new(k, 256).workers(2);
        let mut local = ShardedEngine::counters(det_spec(k), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

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
            assert_eq!(remote.window(40), 1, "16 KiB reports leave no look-ahead");
            let report = remote.run_parted(&slices(&feeds)).unwrap();
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

        // Both input families, each with an empty chunk.
        encode_round(&mut enc, 7, 0, [(0, 4, counts), (2, 6, &[])].into_iter());
        let owned = ToWorker::Round {
            round: 7,
            delay_ms: 0,
            chunks: vec![
                chunk(0, Inputs::Counts(counts.to_vec())),
                chunk(2, Inputs::Counts(Vec::new())),
            ],
        };
        assert_eq!(enc.as_bytes(), owned.to_bytes());

        // The buffer is reused: nothing of the previous frame survives.
        encode_round(
            &mut enc,
            8,
            25,
            [(1, 5, &[][..]), (3, 7, items)].into_iter(),
        );
        let owned = ToWorker::Round {
            round: 8,
            delay_ms: 25,
            chunks: vec![
                chunk(1, Inputs::Items(Vec::new())),
                chunk(3, Inputs::Items(items.to_vec())),
            ],
        };
        assert_eq!(enc.as_bytes(), owned.to_bytes());
    }

    #[test]
    fn delta_checkpoint_pulls_stay_bit_identical_and_cheaper() {
        let feeds = walk_feeds(4, 16_000);
        let full_cfg = EngineConfig::new(4, 250).checkpoint_every(4);
        let delta_cfg = full_cfg.delta_rebase(3);

        let mut local = ShardedEngine::counters(det_spec(4), full_cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut full = RemoteEngine::counters(det_spec(4), full_cfg, fast_rcfg()).unwrap();
        full.run_parted(&slices(&feeds)).unwrap();

        let mut delta = RemoteEngine::counters(det_spec(4), delta_cfg, fast_rcfg()).unwrap();
        let report = delta.run_parted(&slices(&feeds)).unwrap();

        // Delta pulls are an encoding change only: every observable result
        // matches the full-snapshot engine and the in-process engine.
        assert_same_run(&mut delta, &report, &mut local, &local_report);
        assert_eq!(delta.checkpoint().unwrap(), full.checkpoint().unwrap());

        // Both modes ship one state frame per shard per sync, so the ledgers
        // agree on message counts; the delta ledger carries fewer words.
        let (d, f) = (delta.checkpoint_stats(), full.checkpoint_stats());
        assert_eq!(d.total_messages(), f.total_messages());
        assert!(
            d.total_words() < f.total_words(),
            "delta words {} vs full words {}",
            d.total_words(),
            f.total_words()
        );
    }

    #[test]
    fn delta_mode_failover_resyncs_wire_bases() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250)
            .checkpoint_every(4)
            .delta_rebase(3);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        remote.set_fault_plan(sever(6, 1));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        assert_same_run(&mut remote, &report, &mut local, &local_report);
    }

    #[test]
    fn severed_worker_fails_over_and_stays_bit_identical() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250).checkpoint_every(4);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        for recovery in [Recovery::Respawn, Recovery::Reattach] {
            let rcfg = RemoteConfig {
                recovery,
                ..fast_rcfg()
            };
            let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
            remote.set_fault_plan(sever(6, 1));
            let report = remote.run_parted(&slices(&feeds)).unwrap();

            assert_eq!(remote.events().len(), 1, "{recovery:?}");
            let event = remote.events()[0];
            assert_eq!(event.worker, 1);
            assert_eq!(
                event.recovered_to,
                if recovery == Recovery::Respawn { 1 } else { 0 }
            );
            // Checkpoint at boundary 4 bounds the replay to what was
            // absorbed past it: rounds 4..6 when the sever beats round
            // 6's report, 4..7 when that report was already queued, and
            // 4..8 when round 7's (same window) was too and the
            // boundary-8 commit is what finds the worker gone (DESIGN.md
            // §8; tests/failover_injection.rs pins the two sides).
            assert!((6..=8).contains(&event.round), "{event:?}");
            assert_eq!(event.replayed_rounds, event.round - 4);
            assert_same_run(&mut remote, &report, &mut local, &local_report);
        }
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
}

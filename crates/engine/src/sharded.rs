//! The batched, sharded runner.

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::delta::CheckpointStore;
use crate::ingest::{Ring, RingConsumer, ShardFeed};
use crate::merge::MergeCoordinator;
use crate::partition::{hash_item, InputDelta, Partition, ShardRecord};
use crate::report::EngineReport;
use crate::round::{
    chunk_bounds, rounds_of, validate_feeds, validate_sites, worker_groups, Cut, Entry, RunAudit,
};
use dsv_core::api::{ItemTracker, RunError, Tracker, TrackerKind, TrackerSpec};
use dsv_core::codec::{Dec, Enc, TrackerState};
use dsv_net::{CommStats, IngestStats, MsgKind, SiteId, StateFrame, Time, WireSize};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;

/// The counting-problem engine: shard replicas built by
/// [`ShardedEngine::counters`] from any of the six counter kinds.
pub type CounterEngine = ShardedEngine<Box<dyn Tracker + Send>>;

/// The item-frequency engine: shard replicas built by
/// [`ShardedEngine::items`] from any of the four frequency kinds.
pub type ItemEngine = ShardedEngine<Box<dyn ItemTracker + Send>, (u64, i64)>;

/// A unit of work shipped to a shard worker, carrying its buffer so
/// allocations are recycled batch to batch.
enum WorkBuf<In> {
    /// Mixed-site sub-batch, in arrival order (general layout).
    Batch(Vec<(SiteId, In)>),
    /// All updates at one site (site-affine layout with at most one site
    /// per shard) — drives the zero-copy `update_run` path.
    Run(SiteId, Vec<In>),
}

/// Per-record validation shared by both routing layouts: rejects what
/// the sequential `Driver` rejects.
#[inline]
fn check_record<R, In>(
    rec: &R,
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
) -> Result<(), EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    if rec.site() >= k {
        return Err(RunError::SiteOutOfRange {
            site: rec.site(),
            k,
            time: rec.time(),
        }
        .into());
    }
    if rec.delta() < 0 && !deletions_ok {
        return Err(RunError::DeletionUnsupported {
            kind,
            time: rec.time(),
        }
        .into());
    }
    Ok(())
}

/// Feed a same-site run to a shard replica through
/// [`Tracker::update_run`] — the one run seam, which drives the sites'
/// `absorb_quiet` kernels. Returns the run's [`Entry`] fields:
/// `(estimate after the run, Σδ, inputs consumed)`.
fn ingest_run<T, In>(tracker: &mut T, site: SiteId, run: &[In]) -> (i64, i64, u64)
where
    T: Tracker<In> + ?Sized,
    In: InputDelta,
{
    // Summed first on purpose: the streaming pass pulls the run into
    // cache for the tracker's branchier kernel.
    let sum = run.iter().map(|x| x.delta_of()).sum();
    (tracker.update_run(site, run), sum, run.len() as u64)
}

/// Route one batch into per-site run buffers (`shard == site`; valid
/// whenever every shard owns at most one site).
fn fill_runs<R, In>(
    batch: &[R],
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
    bufs: &mut [Vec<In>],
) -> Result<(), EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    for rec in batch {
        check_record(rec, k, kind, deletions_ok)?;
        bufs[rec.site()].push(rec.input());
    }
    Ok(())
}

/// Route one batch into per-shard mixed-site buffers (general layout).
/// `lut` maps sites to shards for [`Partition::SiteAffine`] (computed
/// once, so the hot loop carries no division); `rr` is the rotating
/// cursor for [`Partition::RoundRobin`].
#[allow(clippy::too_many_arguments)]
fn fill_tuples<R, In>(
    batch: &[R],
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
    s_count: usize,
    partition: Partition,
    lut: &[u32],
    rr: &mut usize,
    bufs: &mut [Vec<(SiteId, In)>],
) -> Result<(), EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    for rec in batch {
        check_record(rec, k, kind, deletions_ok)?;
        let site = rec.site();
        let shard = match partition {
            Partition::SiteAffine => lut[site] as usize,
            Partition::RoundRobin => {
                let s = *rr;
                *rr += 1;
                if *rr == s_count {
                    *rr = 0;
                }
                s
            }
            Partition::ByItem => match rec.item_key() {
                Some(item) => (hash_item(item) % s_count as u64) as usize,
                None => return Err(EngineError::MissingItemKey { time: rec.time() }),
            },
        };
        bufs[shard].push((site, rec.input()));
    }
    Ok(())
}

/// What a [`ShardExec`] runs per work item against the item's shard
/// replica: `(estimate after the item, Σδ of the item, inputs consumed)`.
type ShardBody<'a, T, W> = &'a (dyn Fn(&mut T, &W) -> (i64, i64, u64) + Sync);

/// Routed [`ShardedEngine::run`]'s call-scoped shard executor: runs the
/// body once per dispatched work item and hands back `(entry, item)`
/// pairs. With one worker the body runs on the calling thread at
/// dispatch; with more, worker `w` owns the replicas of
/// [`worker_groups`]' group `w` and serves them from a bounded channel —
/// so a shard's items complete in dispatch order either way, and worker
/// count never shows in what comes back. Routing happens on the calling
/// thread batch by batch, so every round is a fork-join here;
/// [`ShardedEngine::run_parted`] has its inputs up front and runs
/// [`PartedWorker`]s instead.
enum ShardExec<'a, T, W> {
    Inline {
        shards: &'a mut [T],
        body: ShardBody<'a, T, W>,
        done: VecDeque<(Entry, W)>,
    },
    Threads {
        work_txs: Vec<mpsc::SyncSender<(usize, W)>>,
        res_rx: mpsc::Receiver<(Entry, W)>,
        outstanding: usize,
    },
}

impl<T, W> ShardExec<'_, T, W> {
    /// Hand `work` to the worker owning shard `sid`.
    fn dispatch(&mut self, sid: usize, work: W) {
        match self {
            ShardExec::Inline { shards, body, done } => {
                let (est, sum, len) = body(&mut shards[sid], &work);
                done.push_back(((sid, est, sum, len), work));
            }
            ShardExec::Threads {
                work_txs,
                outstanding,
                ..
            } => {
                let workers = work_txs.len();
                work_txs[sid % workers]
                    .send((sid / workers, work))
                    .expect("shard worker died");
                *outstanding += 1;
            }
        }
    }

    /// The next finished item, blocking on the workers; `None` once
    /// everything dispatched has been handed back.
    fn next_done(&mut self) -> Option<(Entry, W)> {
        match self {
            ShardExec::Inline { done, .. } => done.pop_front(),
            ShardExec::Threads {
                res_rx,
                outstanding,
                ..
            } => {
                *outstanding = outstanding.checked_sub(1)?;
                Some(res_rx.recv().expect("shard worker died"))
            }
        }
    }
}

/// Run `drive` with a [`ShardExec`] over `shards`. `bound` is the most
/// items one worker can be handed per round, so dispatch never blocks.
fn with_shard_exec<T: Send, W: Send, R>(
    shards: &mut [T],
    cfg: &EngineConfig,
    bound: usize,
    body: ShardBody<'_, T, W>,
    drive: impl FnOnce(&mut ShardExec<'_, T, W>) -> R,
) -> R {
    let workers = cfg.workers_count();
    if workers == 1 {
        return drive(&mut ShardExec::Inline {
            shards,
            body,
            done: VecDeque::new(),
        });
    }
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::channel();
        let mut work_txs = Vec::with_capacity(workers);
        for (w, mut group) in worker_groups(shards.iter_mut(), workers)
            .into_iter()
            .enumerate()
        {
            let (tx, rx) = mpsc::sync_channel::<(usize, W)>(bound.max(1));
            let res_tx = res_tx.clone();
            work_txs.push(tx);
            scope.spawn(move || {
                while let Ok((slot, work)) = rx.recv() {
                    let (est, sum, len) = body(&mut *group[slot], &work);
                    let sid = slot * workers + w;
                    if res_tx.send(((sid, est, sum, len), work)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        drive(&mut ShardExec::Threads {
            work_txs,
            res_rx,
            outstanding: 0,
        })
    })
}

/// Rounds a [`PartedWorker`] runs back to back before the cut closes
/// them. Bounds what a call holds in flight to `WINDOW` entries per feed,
/// however many rounds the call spans; at 64, a batch-1 call still runs
/// ~15× faster than with a barrier every round (`DESIGN.md` §5).
const WINDOW: usize = 64;

/// One worker of [`ShardedEngine::run_parted`]: its replicas that have
/// feeds, in ascending shard order, each with its feed indices in feed
/// order, and the entries of the window it last ran.
struct PartedWorker<'t, T> {
    shards: Vec<(usize, &'t mut T, Vec<usize>)>,
    /// One entry per chunk ingested, round after round.
    entries: Vec<Entry>,
    /// Round `r` of the window is `entries[ends[r]..ends[r + 1]]`.
    ends: Vec<usize>,
}

impl<T> PartedWorker<'_, T> {
    /// Run `rounds` of `feeds`, each round over every owned shard in
    /// ascending order and each shard's feeds in feed order — the order a
    /// replica consumes its chunks in, whatever the worker count.
    fn run_window<In>(&mut self, feeds: &[(SiteId, &[In])], batch: usize, rounds: Range<usize>)
    where
        T: Tracker<In>,
        In: InputDelta,
    {
        self.entries.clear();
        self.ends.clear();
        self.ends.push(0);
        for round in rounds {
            for (sid, tracker, owned) in &mut self.shards {
                for &feed in owned.iter() {
                    let (site, inputs) = feeds[feed];
                    if let Some((lo, hi)) = chunk_bounds(inputs.len(), batch, round) {
                        let (est, sum, len) = ingest_run(&mut **tracker, site, &inputs[lo..hi]);
                        self.entries.push((*sid, est, sum, len));
                    }
                }
            }
            self.ends.push(self.entries.len());
        }
    }

    /// Round `r`'s entries from the last window.
    fn round(&self, r: usize) -> &[Entry] {
        &self.entries[self.ends[r]..self.ends[r + 1]]
    }
}

/// One feed drained by a pipelined worker: its queue's consumer end, a
/// recycled round buffer, and whether the feed has delivered its final
/// (short or empty) round.
struct FeedState<In: Copy> {
    consumer: RingConsumer<In>,
    buf: Vec<In>,
    done: bool,
}

/// One logical shard owned by a pipelined worker: its slot within the
/// worker's replica group, its shard id, and its feeds in feed order.
struct OwnedShard<In: Copy> {
    slot: usize,
    sid: usize,
    feeds: Vec<FeedState<In>>,
}

/// A batched, sharded runner over `S` tracker replicas.
///
/// `T` is the replica type — usually `Box<dyn Tracker + Send>` (see
/// [`CounterEngine`]) or `Box<dyn ItemTracker + Send>` ([`ItemEngine`]),
/// but any `Send` tracker works. The engine is incremental:
/// [`run`](Self::run) may be called repeatedly with successive stream
/// segments, and shard state, the merged estimate, and both communication
/// ledgers persist across calls.
///
/// The `S` logical shards are driven by `W ≤ S` worker threads (worker
/// `w` owns shards `s ≡ w (mod W)`; [`EngineConfig::workers`]). Because
/// replica state is a pure function of the stream → *shard* routing,
/// never of the shard → worker assignment, the worker count can change
/// freely between ingestion calls — [`rescale`](Self::rescale) — and
/// whole engines can be externalized and resumed at batch boundaries —
/// [`checkpoint`](Self::checkpoint) / resume constructors — with
/// bit-identical estimates and ledgers.
///
/// See the crate docs for the execution model and the guarantee argument.
#[derive(Debug)]
pub struct ShardedEngine<T, In: Copy = i64> {
    shards: Vec<T>,
    cfg: EngineConfig,
    coord: MergeCoordinator,
    /// Snapshot traffic ([`StateFrame`]s), charged per checkpoint.
    /// Separate from the tracker and merge ledgers so checkpointing never
    /// perturbs the ledgers the resume-equivalence guarantee covers.
    ckpt_stats: CommStats,
    /// Pipelined-ingestion ledger ([`dsv_net::FeedFrame`] traffic, stalls,
    /// occupancy), accumulated by [`run_pipelined`](Self::run_pipelined).
    /// Separate from the other ledgers for the same reason as
    /// `ckpt_stats`: the transport must not perturb the ledgers the
    /// pipelined-equivalence guarantee is stated over.
    ingest_stats: IngestStats,
    /// Inputs dispatched to each shard since its state was last captured
    /// by [`checkpoint`](Self::checkpoint). Tracker state is a pure
    /// function of the inputs a replica has consumed, so a zero counter
    /// proves the shard's snapshot is unchanged — the dirty-shard skip
    /// that keeps a periodic checkpoint sink from reserializing (and
    /// re-charging) quiet shards every period. Counting *inputs* rather
    /// than watching the quiet ledger is deliberate: trackers mutate
    /// internal state (round counters, samplers) without sending
    /// messages, so "ledger unchanged" would under-approximate dirtiness.
    shard_inputs: Vec<u64>,
    /// Each shard's serialized state as of its last checkpoint capture
    /// (`None` until first captured). Reused verbatim for clean shards.
    ckpt_cache: Vec<Option<TrackerState>>,
    time: Time,
    f: i64,
    _in: PhantomData<fn(In) -> In>,
}

impl<T, In> ShardedEngine<T, In>
where
    T: Tracker<In> + Send,
    In: Copy + Send,
{
    /// Build an engine whose shard replica `s` is produced by `make(s)`.
    ///
    /// All replicas must agree on kind and site count (they track shards
    /// of one logical stream); [`TrackerSpec::shard`] is the intended way
    /// to derive per-shard specs.
    pub fn with_factory<E>(
        cfg: EngineConfig,
        mut make: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Self, EngineError>
    where
        EngineError: From<E>,
    {
        cfg.validate()?;
        let mut shards = Vec::with_capacity(cfg.shards_count());
        for s in 0..cfg.shards_count() {
            shards.push(make(s).map_err(EngineError::from)?);
        }
        let kind = shards[0].kind();
        let k = shards[0].k();
        assert!(
            shards.iter().all(|t| t.kind() == kind && t.k() == k),
            "shard replicas must agree on kind and site count"
        );
        Ok(ShardedEngine {
            coord: MergeCoordinator::new(cfg.shards_count()),
            shards,
            ckpt_stats: CommStats::new(),
            ingest_stats: IngestStats::new(),
            shard_inputs: vec![0; cfg.shards_count()],
            ckpt_cache: vec![None; cfg.shards_count()],
            cfg,
            time: 0,
            f: 0,
            _in: PhantomData,
        })
    }

    /// Rebuild an engine from an [`EngineCheckpoint`]: construct fresh
    /// replicas with `make` (which must reproduce the original build
    /// parameters — [`TrackerSpec::shard`] seeding included), then restore
    /// every shard's state, the merge coordinator, and the engine scalars.
    ///
    /// `cfg` must agree with the checkpoint on the **logical** shard
    /// count; the **worker** count is free — resuming onto a different
    /// `cfg.workers` is the rescaling seam, and is exact (see
    /// [`rescale`](Self::rescale)).
    pub fn with_factory_resume<E>(
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
        make: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Self, EngineError>
    where
        EngineError: From<E>,
    {
        if cfg.shards_count() != ckpt.shards() {
            return Err(EngineError::CheckpointMismatch {
                what: "logical shard count",
                expected: cfg.shards_count() as u64,
                found: ckpt.shards() as u64,
            });
        }
        let mut engine = Self::with_factory(cfg, make)?;
        if engine.kind() != ckpt.kind() {
            return Err(EngineError::CheckpointMismatch {
                what: "tracker kind tag",
                expected: dsv_core::codec::kind_tag(engine.kind()) as u64,
                found: dsv_core::codec::kind_tag(ckpt.kind()) as u64,
            });
        }
        for (tracker, state) in engine.shards.iter_mut().zip(ckpt.states()) {
            tracker.restore(state)?;
        }
        let mut dec = Dec::new(ckpt.merge());
        engine.coord.load_state(&mut dec)?;
        dec.finish()?;
        engine.time = ckpt.time();
        engine.f = ckpt.f();
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The replica kind.
    pub fn kind(&self) -> TrackerKind {
        self.shards[0].kind()
    }

    /// Updates consumed so far (across all `run` calls).
    pub fn time(&self) -> Time {
        self.time
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.coord.estimate()
    }

    /// Current per-shard local estimates (diagnostics).
    pub fn shard_estimates(&self) -> Vec<i64> {
        self.shards.iter().map(|t| t.estimate()).collect()
    }

    /// In-protocol traffic summed across all shard replicas.
    pub fn tracker_stats(&self) -> CommStats {
        let mut total = CommStats::new();
        for t in &self.shards {
            total.merge(t.stats());
        }
        total
    }

    /// Engine-level shard → coordinator reconciliation traffic.
    pub fn merge_stats(&self) -> &CommStats {
        self.coord.stats()
    }

    /// Snapshot traffic charged by [`checkpoint`](Self::checkpoint) calls
    /// on this engine (one [`StateFrame`] per shard per checkpoint).
    pub fn checkpoint_stats(&self) -> &CommStats {
        &self.ckpt_stats
    }

    /// Pipelined-ingestion traffic, stalls, and queue occupancy charged
    /// by [`run_pipelined`](Self::run_pipelined) calls on this engine.
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.ingest_stats
    }

    /// Capture the engine's complete state — every shard replica's
    /// [`dsv_core::codec::TrackerState`], the merge coordinator, consumed
    /// time, and ground-truth `f` — as a restorable [`EngineCheckpoint`].
    ///
    /// Call between ingestion calls: every point between [`run`](Self::run)
    /// / [`run_parted`](Self::run_parted) calls is a batch boundary, the
    /// engine's exact sync point (shards quiesced, estimate reconciled,
    /// audit run), which is what makes the cut safe — see `DESIGN.md` §6.
    /// Shipping the state off the workers is charged to the dedicated
    /// [`checkpoint_stats`](Self::checkpoint_stats) ledger as one
    /// [`StateFrame`] per **dirty** shard: a shard that has consumed no
    /// inputs since its last capture is provably unchanged, so its cached
    /// serialized state is reused verbatim and nothing is charged — which
    /// is what keeps a periodic auto-checkpoint sink
    /// ([`EngineConfig::checkpoint_every`]) from paying full
    /// serialization cost per boundary on skewed streams.
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint, EngineError> {
        let mut states = Vec::with_capacity(self.shards.len());
        for (sid, tracker) in self.shards.iter().enumerate() {
            if self.shard_inputs[sid] == 0 {
                if let Some(cached) = &self.ckpt_cache[sid] {
                    states.push(cached.clone());
                    continue;
                }
            }
            let state = tracker.snapshot()?;
            let frame = StateFrame::for_payload(sid, state.payload().len());
            self.ckpt_stats.charge(MsgKind::Up, frame.words());
            self.ckpt_cache[sid] = Some(state.clone());
            self.shard_inputs[sid] = 0;
            states.push(state);
        }
        let mut merge = Enc::new();
        self.coord.save_state(&mut merge);
        Ok(EngineCheckpoint::new(
            self.kind(),
            self.shards[0].k(),
            self.time,
            self.f,
            merge.into_bytes(),
            states,
        ))
    }

    /// Capture a checkpoint (see [`checkpoint`](Self::checkpoint)) and
    /// record it as the next boundary of an incremental
    /// [`CheckpointStore`], returning the recorded boundary time. The
    /// clean-shard skip composes with delta encoding: a shard that
    /// consumed no inputs reuses its cached snapshot verbatim, so the
    /// store diffs two identical payloads and records a few-byte
    /// [identity link](dsv_net::StateDelta::is_identity). Pair with a
    /// store built as
    /// `CheckpointStore::new(cfg.delta_rebase_period())` to honor the
    /// engine's [`EngineConfig::delta_rebase`] setting.
    pub fn checkpoint_into(&mut self, store: &mut CheckpointStore) -> Result<Time, EngineError> {
        let ckpt = self.checkpoint()?;
        let time = ckpt.time();
        store.record(&ckpt)?;
        Ok(time)
    }

    /// Live-rescale the engine: reassign the `S` logical shard replicas
    /// across `workers` worker threads, effective from the next ingestion
    /// call. No shard state moves logically and no stream is replayed —
    /// the shard → worker map is execution detail — so estimates and
    /// ledgers continue bit-identically at any worker count (values above
    /// `S` are clamped to one worker per shard).
    pub fn rescale(&mut self, workers: usize) -> Result<(), EngineError> {
        if workers == 0 {
            return Err(EngineError::ZeroWorkers);
        }
        self.cfg = self.cfg.workers(workers);
        Ok(())
    }

    /// Ingest `stream` in batches, reconciling and auditing at every
    /// batch boundary. With more than one worker, each batch's per-shard
    /// sub-batches execute on worker threads that live for this call:
    /// they are spawned when it starts and joined before it returns
    /// (`with_shard_exec`), not kept between calls.
    ///
    /// Streams the sequential `Driver` rejects (out-of-range sites,
    /// deletions into insert-only kinds) return the same typed errors
    /// here, detected before the offending batch is dispatched.
    pub fn run<R>(&mut self, stream: &[R]) -> Result<EngineReport, EngineError>
    where
        R: ShardRecord<In = In>,
        In: InputDelta,
    {
        let cfg = self.cfg;
        let mut audit = RunAudit::new(&cfg);
        let s_count = cfg.shards_count();
        let kind = self.shards[0].kind();
        let k = self.shards[0].k();
        let deletions_ok = kind.supports_deletions();
        let partition = cfg.partition_policy();

        // Layout choice: when site-affine routing gives every shard at
        // most one site (`shard == site`), per-site run buffers feed the
        // zero-copy `update_run` path; otherwise mixed-site tuple buffers
        // feed `update_batch`.
        let use_runs = partition == Partition::SiteAffine && k <= s_count;
        let mut run_bufs: Vec<Vec<In>> = if use_runs {
            (0..k).map(|_| Vec::new()).collect()
        } else {
            Vec::new()
        };
        let mut tup_bufs: Vec<Vec<(SiteId, In)>> = if use_runs {
            Vec::new()
        } else {
            (0..s_count).map(|_| Vec::new()).collect()
        };
        // Site → shard map for the affine tuple path (no division in the
        // hot loop) and the rotating round-robin cursor, phase-continuous
        // across `run` calls.
        let lut: Vec<u32> = if !use_runs && partition == Partition::SiteAffine {
            (0..k).map(|site| (site % s_count) as u32).collect()
        } else {
            Vec::new()
        };
        let mut rr = (self.time % s_count as u64) as usize;

        let (shards, mut cut) = self.split(&mut audit);
        let body = |tracker: &mut T, work: &WorkBuf<In>| match work {
            WorkBuf::Batch(buf) => (
                tracker.update_batch(buf),
                buf.iter().map(|(_, x)| x.delta_of()).sum::<i64>(),
                buf.len() as u64,
            ),
            WorkBuf::Run(site, buf) => ingest_run(tracker, *site, buf),
        };
        // At most one work item per shard per batch.
        let bound = s_count.div_ceil(cfg.workers_count());
        with_shard_exec(shards, &cfg, bound, &body, |exec| {
            for batch in stream.chunks(cfg.batch_size()) {
                // The source: route the batch, one work item per shard
                // that received updates, carrying its (recycled) buffer.
                if use_runs {
                    fill_runs(batch, k, kind, deletions_ok, &mut run_bufs)?;
                    for (site, buf) in run_bufs.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            exec.dispatch(site, WorkBuf::Run(site, std::mem::take(buf)));
                        }
                    }
                } else {
                    fill_tuples(
                        batch,
                        k,
                        kind,
                        deletions_ok,
                        s_count,
                        partition,
                        &lut,
                        &mut rr,
                        &mut tup_bufs,
                    )?;
                    for (sid, buf) in tup_bufs.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            exec.dispatch(sid, WorkBuf::Batch(std::mem::take(buf)));
                        }
                    }
                }
                cut.close(
                    std::iter::from_fn(|| exec.next_done()).map(|(entry, work)| {
                        match work {
                            WorkBuf::Run(_, mut buf) => {
                                buf.clear();
                                run_bufs[entry.0] = buf;
                            }
                            WorkBuf::Batch(mut buf) => {
                                buf.clear();
                                tup_bufs[entry.0] = buf;
                            }
                        }
                        entry
                    }),
                );
            }
            Ok::<(), EngineError>(())
        })?;

        Ok(self.finish_report(stream.len() as u64, audit))
    }

    /// Ingest pre-parted per-site feeds — the shape a deployed system
    /// has, where every site's stream arrives on its own queue and no
    /// central router exists. Each element of `feeds` is `(site, inputs)`:
    /// one site's contiguous input run in that site's arrival order
    /// (several feeds may name the same site). Rounds of
    /// [`EngineConfig::batch_size`] updates per feed execute across the
    /// shard workers (`shard = site mod S`) through the zero-copy
    /// [`Tracker::update_run`] path, and the engine reconciles and audits
    /// at every round boundary exactly as [`run`](Self::run) does.
    ///
    /// The workers do not meet at round boundaries. Nothing flows from
    /// the coordinator back to a replica within a call, so each worker
    /// runs up to 64 rounds back to back, and the cut then closes them in
    /// round order over the entries every worker recorded. Estimates,
    /// ledgers and checkpoints are those of a round-by-round run at any
    /// worker count. A panic on a worker thread is re-raised here once
    /// the window's other workers finish, before any of its rounds close.
    ///
    /// Cross-site interleaving is not defined by a global clock here — it
    /// never is on a distributed ingest path — so estimates can differ
    /// from a particular sequential interleaving, while every per-shard
    /// guarantee and the boundary audit are unchanged.
    pub fn run_parted(&mut self, feeds: &[(SiteId, &[In])]) -> Result<EngineReport, EngineError>
    where
        In: InputDelta + Sync,
    {
        let cfg = self.cfg;
        let mut audit = RunAudit::new(&cfg);
        let s_count = cfg.shards_count();
        let batch = cfg.batch_size();
        let kind = self.shards[0].kind();
        validate_feeds(feeds.iter().copied(), self.shards[0].k(), kind, self.time)?;

        let total: usize = feeds.iter().map(|(_, inputs)| inputs.len()).sum();
        let rounds = rounds_of(feeds, batch);
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); s_count];
        for (feed, &(site, _)) in feeds.iter().enumerate() {
            by_shard[site % s_count].push(feed);
        }
        let (shards, mut cut) = self.split(&mut audit);
        // Only shards with feeds have work, and a worker owning none of
        // them is not spawned.
        let mut workers: Vec<PartedWorker<'_, T>> = worker_groups(
            shards.iter_mut().zip(by_shard).enumerate(),
            cfg.workers_count(),
        )
        .into_iter()
        .map(|group| {
            let shards: Vec<_> = group
                .into_iter()
                .filter(|(_, (_, owned))| !owned.is_empty())
                .map(|(sid, (tracker, owned))| (sid, tracker, owned))
                .collect();
            let feeds_owned: usize = shards.iter().map(|(_, _, owned)| owned.len()).sum();
            let held = WINDOW.min(rounds);
            PartedWorker {
                shards,
                entries: Vec::with_capacity(feeds_owned * held),
                ends: Vec::with_capacity(held + 1),
            }
        })
        .filter(|w| !w.shards.is_empty())
        .collect();

        for start in (0..rounds).step_by(WINDOW) {
            let window = start..rounds.min(start + WINDOW);
            if let Some((first, rest)) = workers.split_first_mut() {
                std::thread::scope(|scope| {
                    let spawned: Vec<_> = rest
                        .iter_mut()
                        .map(|w| {
                            let window = window.clone();
                            scope.spawn(move || w.run_window(feeds, batch, window))
                        })
                        .collect();
                    first.run_window(feeds, batch, window.clone());
                    for handle in spawned {
                        if let Err(panic) = handle.join() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                });
            }
            for r in 0..window.len() {
                cut.close(workers.iter().flat_map(|w| w.round(r).iter().copied()));
            }
        }

        Ok(self.finish_report(total as u64, audit))
    }

    /// Ingest through the pipelined path: per-feed bounded queues,
    /// produced by the `feeder` closure and drained by the shard workers,
    /// with the coordinator reconciling each completed boundary while the
    /// workers already absorb the next one.
    ///
    /// `sites[i]` names the site feed `i` carries (several feeds may name
    /// the same site, exactly like [`run_parted`](Self::run_parted)); the
    /// feeder closure receives one [`ShardFeed`] handle per feed, in the
    /// same order, and runs on the calling thread concurrently with the
    /// workers. Push inputs from it directly, or move the handles into
    /// producer threads/tasks of your own — the run finishes when every
    /// handle is closed (dropping closes) and every queue is drained.
    /// Handles stashed beyond the closure are force-closed when it
    /// returns, so the run always terminates.
    ///
    /// **Equivalence contract:** for the same per-site input sequences
    /// and configuration, estimates, per-shard replica states, and the
    /// tracker + merge [`CommStats`] ledgers are **bit-identical** to
    /// [`run_parted`](Self::run_parted) over the same feeds — the
    /// boundary cut is the same (rounds of [`EngineConfig::batch_size`]
    /// inputs per feed), only the execution overlaps. What pipelining
    /// adds is charged to the separate [`ingest_stats`](Self::ingest_stats)
    /// ledger. The divergence is error *timing*: `run_parted` validates
    /// whole feeds before running anything, while a pipelined feed is
    /// validated at the push boundary ([`crate::FeedError`]) — inputs
    /// pushed before the offending one are already in flight and will be
    /// consumed.
    ///
    /// Each queue holds `2 × batch` inputs; a feed that outruns its shard
    /// parks at the push boundary ([`ShardFeed::try_push`] fails fast
    /// instead), and a feed that lags only stalls the shard it feeds —
    /// every other worker keeps absorbing, which is the overlap the
    /// `e17_pipeline` bench gates.
    pub fn run_pipelined<F>(
        &mut self,
        sites: &[SiteId],
        feeder: F,
    ) -> Result<EngineReport, EngineError>
    where
        In: InputDelta + Send + Sync,
        F: FnOnce(Vec<ShardFeed<In>>),
    {
        let cfg = self.cfg;
        let mut audit = RunAudit::new(&cfg);
        let s_count = cfg.shards_count();
        let w_count = cfg.workers_count();
        let kind = self.shards[0].kind();
        let deletions_ok = kind.supports_deletions();
        let batch = cfg.batch_size();
        validate_sites(sites, self.shards[0].k(), kind, self.time)?;

        // One bounded SPSC ring per feed; producer ends become the
        // ShardFeed handles, consumer ends go to the owning workers.
        let rings: Vec<Arc<Ring<In>>> = sites
            .iter()
            .map(|_| Arc::new(Ring::new(2 * batch)))
            .collect();
        let mut handles = Vec::with_capacity(sites.len());
        // Worker w owns shards s ≡ w (mod W); within a shard, feeds keep
        // their index order (the order run_parted processes them in).
        let mut consumers: Vec<BTreeMap<usize, Vec<RingConsumer<In>>>> =
            (0..w_count).map(|_| BTreeMap::new()).collect();
        for (feed, (&site, ring)) in sites.iter().zip(&rings).enumerate() {
            let shard = site % s_count;
            handles.push(ShardFeed::new(
                Arc::clone(ring),
                feed,
                site,
                shard,
                deletions_ok,
            ));
            consumers[shard % w_count]
                .entry(shard)
                .or_default()
                .push(RingConsumer {
                    ring: Arc::clone(ring),
                    site,
                });
        }

        let time_before = self.time;
        let (shards, mut cut) = self.split(&mut audit);

        /// A worker's end-of-round message: one entry per chunk it
        /// ingested this round.
        enum CoordMsg {
            Round {
                worker: usize,
                round: u64,
                reports: Vec<Entry>,
            },
            Done {
                worker: usize,
            },
        }

        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<CoordMsg>();
            let groups = worker_groups(shards.iter_mut(), w_count);
            for ((w, mut group), shard_feeds) in groups.into_iter().enumerate().zip(consumers) {
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    // The worker's shards with feeds, ascending sid.
                    let mut owned: Vec<OwnedShard<In>> = shard_feeds
                        .into_iter()
                        .map(|(sid, feeds)| OwnedShard {
                            slot: sid / w_count,
                            sid,
                            feeds: feeds
                                .into_iter()
                                .map(|consumer| FeedState {
                                    consumer,
                                    buf: Vec::with_capacity(batch),
                                    done: false,
                                })
                                .collect(),
                        })
                        .collect();
                    let mut round = 0u64;
                    loop {
                        let mut reports = Vec::new();
                        for shard in owned.iter_mut() {
                            for fs in shard.feeds.iter_mut() {
                                if fs.done {
                                    continue;
                                }
                                fs.buf.clear();
                                // Blocks until the feed delivers this
                                // round's inputs or closes — a lagging
                                // feed stalls only this worker.
                                fs.consumer.pop_round(&mut fs.buf, batch);
                                if fs.buf.len() < batch {
                                    fs.done = true;
                                }
                                if fs.buf.is_empty() {
                                    continue;
                                }
                                // One entry per chunk, in feed order: the
                                // cut keeps the shard's last estimate.
                                let (est, sum, len) =
                                    ingest_run(&mut *group[shard.slot], fs.consumer.site, &fs.buf);
                                reports.push((shard.sid, est, sum, len));
                            }
                        }
                        // Feed rounds are contiguous from 0, so the first
                        // all-empty round means every owned feed is done.
                        if reports.is_empty() {
                            let _ = res_tx.send(CoordMsg::Done { worker: w });
                            break;
                        }
                        if res_tx
                            .send(CoordMsg::Round {
                                worker: w,
                                round,
                                reports,
                            })
                            .is_err()
                        {
                            break;
                        }
                        round += 1;
                    }
                });
            }
            drop(res_tx);

            // The coordinator: runs on its own scoped thread so merging
            // boundary r overlaps the workers' ingestion of r+1.
            let coordinator = scope.spawn(move || {
                // next_watermark[w]: lowest round worker w might still
                // report (MAX once done). Worker messages arrive in round
                // order per worker, so a round below every watermark is
                // complete and can be closed.
                let mut next_watermark = vec![0u64; w_count];
                let mut pending: BTreeMap<u64, Vec<Entry>> = BTreeMap::new();
                let mut next_round = 0u64;
                for msg in res_rx {
                    match msg {
                        CoordMsg::Round {
                            worker,
                            round,
                            reports,
                        } => {
                            pending.entry(round).or_default().extend(reports);
                            next_watermark[worker] = round + 1;
                        }
                        CoordMsg::Done { worker } => {
                            next_watermark[worker] = u64::MAX;
                        }
                    }
                    let ready = next_watermark.iter().copied().min().unwrap_or(u64::MAX);
                    while next_round < ready {
                        let Some(reports) = pending.remove(&next_round) else {
                            // Rounds are dense: no entry means every
                            // produced round is already closed.
                            break;
                        };
                        cut.close(reports);
                        next_round += 1;
                    }
                }
            });

            feeder(handles);
            // The feeder has returned: force-close every ring so stashed
            // or leaked handles cannot wedge the workers.
            for ring in &rings {
                ring.close();
            }
            coordinator.join().expect("engine coordinator panicked")
        });

        for ring in &rings {
            ring.drain_stats(&mut self.ingest_stats);
        }

        Ok(self.finish_report(self.time - time_before, audit))
    }

    /// Split the engine for an ingestion call: the replicas for the shard
    /// workers, and the boundary cut over everything a round moves.
    fn split<'a>(&'a mut self, audit: &'a mut RunAudit) -> (&'a mut [T], Cut<'a>) {
        let cut = Cut::new(
            &mut self.time,
            &mut self.f,
            &mut self.shard_inputs,
            &mut self.coord,
            audit,
        );
        (&mut self.shards, cut)
    }

    /// Assemble the report shared by the ingestion paths (all execution
    /// borrows have ended by the time this runs).
    fn finish_report(&self, n: u64, audit: RunAudit) -> EngineReport {
        audit.report(
            &self.cfg,
            n,
            self.f,
            &self.coord,
            self.tracker_stats(),
            self.ingest_stats.clone(),
        )
    }
}

impl CounterEngine {
    /// Build a counting engine: one replica of `spec` per shard, shard `s`
    /// re-seeded via [`TrackerSpec::shard`] (shard 0 keeps the spec's seed,
    /// so a single-shard engine is bit-identical to the sequential path).
    pub fn counters(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, |s| spec.shard(s).build())
    }

    /// Resume a counting engine from a checkpoint taken by
    /// [`ShardedEngine::checkpoint`]. `spec` must carry the parameters
    /// the checkpointed engine was built with; `cfg` must agree on the
    /// logical shard count but may change the worker count (rescaling).
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, |s| spec.shard(s).build())
    }
}

impl ItemEngine {
    /// Build an item-frequency engine; see [`ShardedEngine::counters`] for
    /// the replica/seed convention. Pair with [`Partition::ByItem`] so
    /// every item is owned by exactly one shard.
    pub fn items(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, |s| spec.shard(s).build_item())
    }

    /// Resume an item-frequency engine from a checkpoint; see
    /// [`CounterEngine::resume`].
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, |s| spec.shard(s).build_item())
    }
}

impl<T> ShardedEngine<T, (u64, i64)>
where
    T: ItemTracker + Send,
{
    /// Merged per-item estimate `Σ_s f̂_ℓ^{(s)}`. Under
    /// [`Partition::ByItem`] only the owning shard contributes; under the
    /// other policies this is still within `ε·F1` because the per-shard
    /// `F1` budgets sum to the global one.
    pub fn estimate_item(&self, item: u64) -> i64 {
        self.shards.iter().map(|t| t.estimate_item(item)).sum()
    }

    /// Total coordinator-side space across shard replicas, in words.
    pub fn coord_space_words(&self) -> usize {
        self.shards.iter().map(|t| t.coord_space_words()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::api::{Driver, TrackerSpec};
    use dsv_gen::{DeltaGen, ItemStreamGen, MonotoneGen, RoundRobin, WalkGen};
    use dsv_net::{relative_error, ItemUpdate, Update};

    fn det_spec(k: usize) -> TrackerSpec {
        TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true)
    }

    #[test]
    fn single_shard_is_bit_identical_to_sequential_driver() {
        let updates = WalkGen::fair(3).updates(20_000, RoundRobin::new(4));
        let mut sequential = det_spec(4).build().unwrap();
        let report = Driver::new(0.1)
            .unwrap()
            .run(&mut sequential, &updates)
            .unwrap();

        for batch in [1usize, 7, 1024, 50_000] {
            let mut engine =
                ShardedEngine::counters(det_spec(4), EngineConfig::new(1, batch)).unwrap();
            let er = engine.run(&updates).unwrap();
            assert_eq!(er.final_estimate, report.final_estimate, "batch {batch}");
            assert_eq!(er.final_f, report.final_f);
            assert_eq!(engine.tracker_stats(), report.stats, "batch {batch}");
            assert_eq!(er.boundary_violations, 0);
        }
    }

    #[test]
    fn sharded_monotone_stream_stays_within_eps_at_boundaries() {
        let updates = MonotoneGen::ones().updates(50_000, RoundRobin::new(8));
        for shards in [2usize, 4, 8] {
            let mut engine =
                ShardedEngine::counters(det_spec(8), EngineConfig::new(shards, 1_000)).unwrap();
            let report = engine.run(&updates).unwrap();
            assert_eq!(report.boundary_violations, 0, "S={shards}");
            assert_eq!(report.final_f, 50_000);
            assert_eq!(report.batches, 50);
            let err = relative_error(report.final_f, report.final_estimate);
            assert!(err <= 0.1, "S={shards}: err {err}");
            // Merge traffic: at most one report per shard per boundary,
            // and far fewer in practice on a monotone stream.
            assert!(report.merge_stats.total_messages() <= (shards as u64) * report.batches);
            assert!(report.probes.len() == report.batches as usize);
        }
    }

    #[test]
    fn engine_is_incremental_across_runs() {
        let updates = MonotoneGen::ones().updates(10_000, RoundRobin::new(4));
        let mut engine = ShardedEngine::counters(det_spec(4), EngineConfig::new(2, 500)).unwrap();
        let first = engine.run(&updates[..4_000]).unwrap();
        let second = engine.run(&updates[4_000..]).unwrap();
        assert_eq!(first.n, 4_000);
        assert_eq!(second.n, 6_000);
        assert_eq!(second.final_f, 10_000);
        assert_eq!(engine.time(), 10_000);
        let err = relative_error(second.final_f, engine.estimate());
        assert!(err <= 0.1);
    }

    #[test]
    fn round_robin_partition_spreads_a_single_site_stream() {
        // k = 1 single-site kind, sharded by arrival index: each shard
        // tracks a subsequence exactly within ε, and the monotone partial
        // sums merge within ε.
        let spec = TrackerSpec::new(TrackerKind::SingleSite).k(1).eps(0.05);
        let updates = MonotoneGen::ones().updates(30_000, dsv_gen::SingleSite::solo());
        let mut engine = ShardedEngine::counters(
            spec,
            EngineConfig::new(4, 1_000)
                .partition(Partition::RoundRobin)
                .eps(0.05),
        )
        .unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(report.boundary_violations, 0);
        let spread = engine.shard_estimates();
        assert!(spread.iter().all(|&e| e > 0), "all shards fed: {spread:?}");
    }

    #[test]
    fn item_engine_tracks_f1_and_items_under_by_item_partition() {
        let updates = ItemStreamGen::new(7, 256, 1.1, 0.2, 1).updates(40_000, RoundRobin::new(4));
        let spec = TrackerSpec::new(TrackerKind::ExactFreq)
            .k(4)
            .eps(0.1)
            .universe(256);
        let mut engine = ShardedEngine::items(
            spec,
            EngineConfig::new(4, 2_000).partition(Partition::ByItem),
        )
        .unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(report.boundary_violations, 0);
        // Per-item audit against exact ground truth at the end.
        let mut truth = dsv_sketch::ExactCounts::new();
        let mut f1 = 0i64;
        for u in &updates {
            truth.update(u.item, u.delta);
            f1 += u.delta;
        }
        assert_eq!(report.final_f, f1);
        use dsv_sketch::FreqSketch;
        let budget = 0.1 * f1 as f64;
        for item in 0..256u64 {
            let err = (engine.estimate_item(item) - truth.estimate(item)).unsigned_abs() as f64;
            assert!(err <= budget * (1.0 + 1e-12), "item {item}: err {err}");
        }
        assert!(engine.coord_space_words() > 0);
    }

    #[test]
    fn invalid_streams_are_typed_errors_not_panics() {
        // Out-of-range site.
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        let err = engine.run(&[Update::new(1, 9, 1)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 9, k: 2, .. })
        ));

        // Deletion into an insert-only kind.
        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
        let mut engine = ShardedEngine::counters(cmy, EngineConfig::new(2, 16)).unwrap();
        let err = engine
            .run(&[Update::new(1, 0, 1), Update::new(2, 1, -1)])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::DeletionUnsupported { .. })
        ));

        // ByItem partitioning of a counter stream.
        let mut engine = ShardedEngine::counters(
            det_spec(2),
            EngineConfig::new(2, 16).partition(Partition::ByItem),
        )
        .unwrap();
        let err = engine.run(&[Update::new(1, 0, 1)]).unwrap_err();
        assert_eq!(err, EngineError::MissingItemKey { time: 1 });

        // Item streams route fine by item.
        let spec = TrackerSpec::new(TrackerKind::CountMinFreq).k(2).eps(0.2);
        let mut engine = ShardedEngine::items(
            spec,
            EngineConfig::new(2, 16)
                .partition(Partition::ByItem)
                .eps(0.2),
        )
        .unwrap();
        assert!(engine.run(&[ItemUpdate::new(1, 0, 5, 1)]).is_ok());
    }

    #[test]
    fn parted_ingest_matches_routed_ingest_per_shard() {
        // With S >= k each shard owns one site, so parted and routed
        // ingestion feed every replica the same per-site sequence —
        // identical shard estimates and protocol traffic.
        let updates = WalkGen::fair(5).updates(32_000, RoundRobin::new(4));
        let mut routed = ShardedEngine::counters(det_spec(4), EngineConfig::new(4, 8_000)).unwrap();
        let routed_report = routed.run(&updates).unwrap();

        let mut feeds: Vec<(usize, Vec<i64>)> = (0..4).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        let feed_slices: Vec<(usize, &[i64])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        let mut parted = ShardedEngine::counters(det_spec(4), EngineConfig::new(4, 2_000)).unwrap();
        let parted_report = parted.run_parted(&feed_slices).unwrap();

        assert_eq!(parted_report.n, routed_report.n);
        assert_eq!(parted_report.final_f, routed_report.final_f);
        assert_eq!(parted.shard_estimates(), routed.shard_estimates());
        assert_eq!(parted.tracker_stats(), routed.tracker_stats());
        assert_eq!(parted_report.final_estimate, routed_report.final_estimate);
    }

    #[test]
    fn parted_ingest_audits_and_rejects_bad_feeds() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 100)).unwrap();
        let ones = vec![1i64; 5_000];
        let report = engine
            .run_parted(&[(0, ones.as_slice()), (1, ones.as_slice())])
            .unwrap();
        assert_eq!(report.n, 10_000);
        assert_eq!(report.final_f, 10_000);
        assert_eq!(report.boundary_violations, 0);
        assert_eq!(report.batches, 50);

        let err = engine.run_parted(&[(7, ones.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 7, .. })
        ));

        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(1).eps(0.1);
        let mut engine = ShardedEngine::counters(cmy, EngineConfig::new(1, 100)).unwrap();
        let bad = vec![1i64, 1, -1];
        let err = engine.run_parted(&[(0, bad.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::DeletionUnsupported { .. })
        ));
        // Nothing ran: validation precedes execution.
        assert_eq!(engine.time(), 0);
    }

    #[test]
    fn pipelined_ingest_is_bit_identical_to_parted_ingest() {
        let updates = WalkGen::fair(5).updates(32_000, RoundRobin::new(4));
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..4).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        let feed_slices: Vec<(usize, &[i64])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        let sites: Vec<usize> = feeds.iter().map(|(s, _)| *s).collect();

        let cfg = EngineConfig::new(4, 1_000);
        let mut parted = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let parted_report = parted.run_parted(&feed_slices).unwrap();

        for workers in [4usize, 2, 1] {
            let mut piped = ShardedEngine::counters(det_spec(4), cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    // One producer thread per feed: the deployment shape.
                    std::thread::scope(|s| {
                        for (mut handle, (_, data)) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(333) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(report.n, parted_report.n, "W={workers}");
            assert_eq!(report.batches, parted_report.batches);
            assert_eq!(report.final_f, parted_report.final_f);
            assert_eq!(report.final_estimate, parted_report.final_estimate);
            assert_eq!(piped.shard_estimates(), parted.shard_estimates());
            assert_eq!(piped.tracker_stats(), parted.tracker_stats());
            assert_eq!(piped.merge_stats(), parted.merge_stats());
            // The transport is charged on its own ledger, in full.
            assert_eq!(report.ingest_stats.items, updates.len() as u64);
            assert_eq!(report.ingest_stats.words, updates.len() as u64);
            assert!(report.ingest_stats.frames > 0);
        }
    }

    #[test]
    fn pipelined_single_feeder_thread_with_blocking_backpressure() {
        // One thread round-robining chunks across all handles, chunks no
        // larger than the queue capacity: the documented safe schedule
        // for a single parking producer.
        let n_per_site = 5_000usize;
        let feeds: Vec<Vec<i64>> = (0..3).map(|_| vec![1i64; n_per_site]).collect();
        let cfg = EngineConfig::new(3, 256);
        let mut parted = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        parted.run_parted(&slices).unwrap();

        let mut piped = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let report = piped
            .run_pipelined(&[0, 1, 2], |mut handles| {
                // Every queue double-buffers a round.
                assert!(handles.iter().all(|h| h.capacity() == 2 * 256));
                let mut at = [0usize; 3];
                loop {
                    let mut progressed = false;
                    for (i, handle) in handles.iter_mut().enumerate() {
                        if at[i] < n_per_site {
                            let hi = (at[i] + 100).min(n_per_site);
                            handle.push_batch(&feeds[i][at[i]..hi]).unwrap();
                            at[i] = hi;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            })
            .unwrap();
        assert_eq!(report.final_f, 3 * n_per_site as i64);
        assert_eq!(piped.shard_estimates(), parted.shard_estimates());
        assert_eq!(piped.merge_stats(), parted.merge_stats());
        // Every input went through the bounded transport (whether any
        // push stalled is consumer-pace-dependent; the guaranteed-stall
        // case lives in tests/pipeline_equivalence.rs with a 2-slot
        // queue, where no chunk can ever land in one shot).
        assert_eq!(report.ingest_stats.items, 3 * n_per_site as u64);
        assert_eq!(report.ingest_stats.dropped, 0);
    }

    #[test]
    fn pipelined_rejects_bad_sites_and_zero_capacity() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        let err = engine.run_pipelined(&[0, 9], |_| {}).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 9, k: 2, .. })
        ));
        assert_eq!(engine.time(), 0);

        // A queue holds 2 × batch inputs, so only a zero batch could give
        // a zero-capacity queue, and validation refuses it.
        let err = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 0)).unwrap_err();
        assert_eq!(err, EngineError::ZeroBatch);
    }

    #[test]
    fn pipelined_empty_run_and_leaked_handle_terminate() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        // No feeds at all.
        let report = engine
            .run_pipelined(&[], |handles| assert!(handles.is_empty()))
            .unwrap();
        assert_eq!((report.n, report.batches), (0, 0));

        // A handle stashed past the feeder closure is force-closed by the
        // engine, so the run still terminates and the data still lands.
        let mut stash = None;
        let report = engine
            .run_pipelined(&[0], |mut handles| {
                let mut h = handles.pop().unwrap();
                h.push_batch(&[1, 1, 1]).unwrap();
                stash = Some(h);
            })
            .unwrap();
        assert_eq!(report.n, 3);
        let mut leaked = stash.unwrap();
        assert_eq!(leaked.push(1), Err(crate::FeedError::Closed { pushed: 0 }));
    }

    #[test]
    fn every_boundary_records_its_probe() {
        let updates = MonotoneGen::ones().updates(5_000, RoundRobin::new(2));
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 500)).unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(report.batches, 10);
        let times: Vec<u64> = report.probes.iter().map(|p| p.time).collect();
        assert_eq!(times, (1..=10).map(|b| b * 500).collect::<Vec<u64>>());
        assert!(report.probes.iter().all(|p| p.f == p.time as i64));
        assert!(report.updates_per_sec() > 0.0);
    }
}

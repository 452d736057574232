//! The batched, sharded runner.

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::delta::CheckpointStore;
use crate::ingest::{CloseRings, FeedState, Ring, ShardFeed};
use crate::partition::{hash_item, InputDelta, ShardRecord};
use crate::report::EngineReport;
use crate::round::{
    chunk_bounds, fork_join, ingest_run, rounds_of, threads, validate_feeds, validate_sites,
    worker_groups, Books, Cut, Rounds, RunAudit, WINDOW,
};
use dsv_core::api::{ItemTracker, Problem, RunError, Tracker, TrackerKind, TrackerSpec};
use dsv_net::{CommStats, IngestStats, SiteId, Time};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// The counting-problem engine: shard replicas built by
/// [`ShardedEngine::counters`] from any of the six counter kinds.
pub type CounterEngine = ShardedEngine<Box<dyn Tracker + Send>>;

/// The item-frequency engine: shard replicas built by
/// [`ShardedEngine::items`] from any of the four frequency kinds.
pub type ItemEngine = ShardedEngine<Box<dyn ItemTracker + Send>, (u64, i64)>;

/// Inputs routed [`ShardedEngine::run`] copies into one window at most: a
/// window closes after [`WINDOW`] rounds or once it holds this many
/// inputs, and always holds at least one round (exactly one when a lone
/// worker has the work: nothing is spawned to amortize). Capped so a
/// window of large batches is not copied whole before it runs (8 MiB of
/// counter inputs at 2²⁰, plus runs), and large enough that W − 1
/// threads are spawned once per ~10⁶ inputs, not once per large round
/// (`DESIGN.md` §5).
const ROUTED_INPUTS: usize = 1 << 20;

/// One worker of a window: its group's shards that have work (replicas,
/// or for the pipelined source replicas zipped with their feeds), in
/// ascending shard order, and the entries of the window it last ran.
struct Worker<'t, T> {
    shards: Vec<(usize, &'t mut T)>,
    out: Rounds,
}

impl<'t, T> Worker<'t, T> {
    /// The workers of [`worker_groups`]' map over `shards`, each keeping
    /// only the shards `has_work` picks. A worker left with none is
    /// dropped, so it is never spawned.
    fn for_groups(
        shards: &'t mut [T],
        workers: usize,
        has_work: impl Fn(usize) -> bool,
    ) -> Vec<Self> {
        worker_groups(shards.iter_mut().enumerate(), workers)
            .into_iter()
            .map(|group| Worker {
                shards: group
                    .into_iter()
                    .filter(|(sid, _)| has_work(*sid))
                    .collect(),
                out: Rounds::default(),
            })
            .filter(|w| !w.shards.is_empty())
            .collect()
    }

    /// Run `rounds`, each over every owned shard in ascending order — the
    /// order a replica sees its work in, whatever the worker count.
    fn run<F>(&mut self, rounds: Range<usize>, work: &F)
    where
        F: Fn(usize, &mut T, usize, &mut Rounds),
    {
        self.out.clear();
        for round in rounds {
            for (sid, tracker) in &mut self.shards {
                work(*sid, &mut **tracker, round, &mut self.out);
            }
            self.out.end_round();
        }
    }
}

/// The one in-memory executor: run the window `rounds` on `workers` through
/// [`fork_join`], a thread each, then let the cut close them
/// ([`Cut::close_window`]).
/// Returns the rounds closed. `work(sid, replica, round, out)` records the
/// shard's entries for `round`. A worker's panic is re-raised here after
/// the join, before any of the window's rounds close; an empty window
/// spawns nothing.
fn run_window<T, F>(
    workers: &mut [Worker<'_, T>],
    rounds: Range<usize>,
    work: &F,
    cut: &mut Cut<'_>,
) -> usize
where
    T: Send,
    F: Fn(usize, &mut T, usize, &mut Rounds) + Sync,
{
    let n = rounds.len();
    if n == 0 {
        return 0;
    }
    let threads = workers.len();
    fork_join(workers.iter_mut(), threads, |w| w.run(rounds.clone(), work));
    cut.close_window(workers.iter().map(|w| &w.out), n)
}

/// One shard's share of a routed window: its inputs, their same-site runs
/// as `(site, end)` offsets into them, and where each round's runs end
/// (round `r` is `runs[rounds[r]..rounds[r + 1]]`).
struct Routed<In> {
    inputs: Vec<In>,
    runs: Vec<(SiteId, usize)>,
    rounds: Vec<usize>,
}

impl<In: InputDelta> Routed<In> {
    /// Append `input` at `site` to the open round, extending the round's
    /// last run when the site repeats.
    fn push(&mut self, site: SiteId, input: In) {
        self.inputs.push(input);
        let open = self.runs.len() > self.rounds[self.rounds.len() - 1];
        match self.runs.last_mut() {
            Some(run) if open && run.0 == site => run.1 += 1,
            _ => self.runs.push((site, self.inputs.len())),
        }
    }

    /// Feed round `round`'s runs through [`ingest_run`], folded into one
    /// entry's `(estimate, Σδ, inputs)`; `None` if the shard got nothing.
    fn ingest<T>(&self, tracker: &mut T, round: usize) -> Option<(i64, i64, u64)>
    where
        T: Tracker<In> + ?Sized,
    {
        let (lo, hi) = (self.rounds[round], self.rounds[round + 1]);
        let mut start = lo.checked_sub(1).map_or(0, |prev| self.runs[prev].1);
        self.runs[lo..hi].iter().fold(None, |entry, &(site, end)| {
            let (est, sum, len) = ingest_run(tracker, site, &self.inputs[start..end]);
            start = end;
            let (_, sums, lens) = entry.unwrap_or_default();
            Some((est, sums + sum, lens + len))
        })
    }
}

/// Routed [`ShardedEngine::run`]'s source: on the calling thread, batch
/// by batch, `place` validates each record and names its shard, which
/// gets the record's input at its site. Every window then goes to
/// [`run_window`], where each shard's runs of a round go through
/// [`ingest_run`]. Only shards `can_receive` picks get a worker. On a bad
/// record the batches before it still run and close.
fn run_routed<T, R, In>(
    shards: &mut [T],
    cfg: &EngineConfig,
    cut: &mut Cut<'_>,
    stream: &[R],
    can_receive: impl Fn(usize) -> bool,
    place: impl Fn(&R) -> Result<usize, EngineError>,
) -> Result<(), EngineError>
where
    T: Tracker<In> + Send,
    R: ShardRecord<In = In>,
    In: InputDelta + Sync,
{
    let mut workers = Worker::for_groups(shards, threads(cfg), can_receive);
    // A window amortizes spawning; a lone worker spawns nothing, and runs
    // each batch while it is still in cache.
    let max_rounds = if workers.len() > 1 { WINDOW } else { 1 };
    let mut bufs: Vec<Routed<In>> = (0..cfg.shards_count())
        .map(|_| Routed {
            inputs: Vec::new(),
            runs: Vec::new(),
            rounds: vec![0],
        })
        .collect();
    let mut batches = stream.chunks(cfg.batch_size());
    loop {
        let (mut rounds, mut held, mut failed) = (0, 0, None);
        while rounds < max_rounds && held < ROUTED_INPUTS {
            let Some(batch) = batches.next() else { break };
            let routed = batch.iter().try_for_each(|rec| {
                bufs[place(rec)?].push(rec.site(), rec.input());
                Ok(())
            });
            if let Err(err) = routed {
                // What the bad batch routed before the bad record lies past
                // every round's runs, so it never runs.
                failed = Some(err);
                break;
            }
            for buf in &mut bufs {
                buf.rounds.push(buf.runs.len());
            }
            rounds += 1;
            held += batch.len();
        }
        run_window(
            &mut workers,
            0..rounds,
            &|sid, tracker: &mut T, round, out: &mut Rounds| {
                if let Some((est, sum, len)) = bufs[sid].ingest(tracker, round) {
                    out.push((sid, est, sum, len));
                }
            },
            cut,
        );
        if let Some(err) = failed {
            return Err(err);
        }
        if rounds == 0 {
            return Ok(());
        }
        for buf in &mut bufs {
            buf.inputs.clear();
            buf.runs.clear();
            buf.rounds.truncate(1);
        }
    }
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
/// Placement is derived, not configured. A counter record goes to shard
/// `site mod S` and an item record to shard `hash(item) mod S` (so every
/// item has one owner); pre-parted and pipelined feeds go by site. The
/// `S` logical shards are driven by `W ≤ S` worker threads (worker `w`
/// owns shards `s ≡ w (mod W)`; [`EngineConfig::workers`]), except under
/// [`run_pipelined`](Self::run_pipelined), where every shard with a feed
/// gets its own. Because replica state is a pure function of the stream
/// → *shard* routing, never of the shard → worker assignment, whole
/// engines can be externalized at batch boundaries
/// ([`checkpoint`](Self::checkpoint)) and resumed onto any worker count
/// (the resume constructors) with bit-identical estimates and ledgers.
///
/// See the crate docs for the execution model and the guarantee argument.
#[derive(Debug)]
pub struct ShardedEngine<T, In: Copy = i64> {
    shards: Vec<T>,
    cfg: EngineConfig,
    books: Books,
    /// Pipelined-ingestion ledger ([`dsv_net::FeedFrame`] traffic, stalls,
    /// occupancy), accumulated by [`run_pipelined`](Self::run_pipelined).
    /// Separate from the other ledgers so the transport never perturbs
    /// the ledgers the pipelined-equivalence guarantee is stated over.
    ingest_stats: IngestStats,
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
            books: Books::new(cfg.shards_count()),
            shards,
            ingest_stats: IngestStats::new(),
            cfg,
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
    /// `cfg.workers` is the rescaling seam, and is exact: the shard →
    /// worker map never reaches a replica's state or a ledger.
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
        engine.books = Books::resume(ckpt)?;
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
        self.books.time()
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.books.estimate()
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
        self.books.merge_stats()
    }

    /// Snapshot traffic charged by [`checkpoint`](Self::checkpoint) calls
    /// on this engine (one [`dsv_net::StateFrame`] per dirty shard per
    /// checkpoint).
    pub fn checkpoint_stats(&self) -> &CommStats {
        self.books.checkpoint_stats()
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
    /// [`dsv_net::StateFrame`] per **dirty** shard: a shard that has consumed no
    /// inputs since its last capture is provably unchanged, so its cached
    /// serialized state is reused verbatim and nothing is charged — which
    /// is what keeps a periodic auto-checkpoint sink
    /// ([`EngineConfig::checkpoint_every`]) from paying full
    /// serialization cost per boundary on skewed streams.
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint, EngineError> {
        for (sid, tracker) in self.shards.iter().enumerate() {
            if self.books.stale(sid) {
                self.books.capture(sid, tracker.snapshot()?);
            }
        }
        Ok(self.books.checkpoint(self.kind(), self.shards[0].k()))
    }

    /// Capture a checkpoint (see [`checkpoint`](Self::checkpoint)) and
    /// record it as the next boundary of an incremental
    /// [`CheckpointStore`], returning the recorded boundary time. The
    /// clean-shard skip composes with delta encoding: a shard that
    /// consumed no inputs reuses its cached snapshot verbatim, so the
    /// store diffs two identical payloads and records an identity link:
    /// its result pin and one tag byte per section (counted in
    /// [`DeltaStats::identity_links`](crate::DeltaStats::identity_links)).
    /// The store chains every boundary as deltas; its rebase period is
    /// the one it was built with —
    /// `CheckpointStore::new(cfg.delta_rebase_period())` takes
    /// [`EngineConfig::delta_rebase`]'s, where the default 0 chains
    /// deltas without ever taking a fresh base.
    pub fn checkpoint_into(&mut self, store: &mut CheckpointStore) -> Result<Time, EngineError> {
        let ckpt = self.checkpoint()?;
        let time = ckpt.time();
        store.record(&ckpt)?;
        Ok(time)
    }

    /// Ingest `stream` in batches, reconciling and auditing at every
    /// batch boundary. The calling thread validates and routes the stream
    /// batch by batch — by site for a counter engine, by item hash for an
    /// item engine (a record with no item key there is
    /// [`EngineError::MissingItemKey`]) — into per-shard buffers of
    /// same-site runs, which the replicas ingest through
    /// [`Tracker::update_run`]. Every window of up
    /// to 64 batches (fewer once it holds 2²⁰ inputs, one when a single
    /// worker has the work) then runs on the same executor as
    /// [`run_parted`](Self::run_parted), whose workers live for the
    /// window and do not meet between its rounds. Estimates, ledgers and
    /// checkpoints are those of a batch-by-batch run at any worker count,
    /// and a panic on a worker thread is re-raised here before any of its
    /// window's batches close.
    ///
    /// Streams the sequential `Driver` rejects (out-of-range sites,
    /// deletions into insert-only kinds) return the same typed errors
    /// here. Every batch before the offending one has run and closed by
    /// then; nothing of that batch or after it has.
    pub fn run<R>(&mut self, stream: &[R]) -> Result<EngineReport, EngineError>
    where
        R: ShardRecord<In = In>,
        In: InputDelta + Sync,
    {
        let cfg = self.cfg;
        let mut audit = RunAudit::new(&cfg);
        let s_count = cfg.shards_count();
        let kind = self.shards[0].kind();
        let k = self.shards[0].k();
        let deletions_ok = kind.supports_deletions();
        let by_item = kind.problem() == Problem::Frequencies;
        let (shards, mut cut) = self.split(&mut audit);

        // By site only shards `< k` own a site; by item any shard can
        // receive.
        run_routed(
            shards,
            &cfg,
            &mut cut,
            stream,
            |sid| by_item || sid < k,
            |rec: &R| {
                // Reject what the sequential `Driver` rejects.
                let (site, time) = (rec.site(), rec.time());
                if site >= k {
                    return Err(RunError::SiteOutOfRange { site, k, time }.into());
                }
                if rec.delta() < 0 && !deletions_ok {
                    return Err(RunError::DeletionUnsupported { kind, time }.into());
                }
                if !by_item {
                    return Ok(site % s_count);
                }
                match rec.item_key() {
                    Some(item) => Ok((hash_item(item) % s_count as u64) as usize),
                    None => Err(EngineError::MissingItemKey { time }),
                }
            },
        )?;
        Ok(self.finish_report(stream.len() as u64, threads(&self.cfg), audit))
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
        validate_feeds(feeds, self.shards[0].k(), kind, self.time(), batch)?;

        let total: usize = feeds.iter().map(|(_, inputs)| inputs.len()).sum();
        let rounds = rounds_of(feeds, batch);
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); s_count];
        for (feed, &(site, _)) in feeds.iter().enumerate() {
            by_shard[site % s_count].push(feed);
        }
        let (shards, mut cut) = self.split(&mut audit);
        // Only shards with feeds have work.
        let mut workers =
            Worker::for_groups(shards, threads(&cfg), |sid| !by_shard[sid].is_empty());
        // A shard's round: one `update_run` per chunk, its feeds in feed
        // order.
        let work = |sid: usize, tracker: &mut T, round: usize, out: &mut Rounds| {
            for &feed in &by_shard[sid] {
                let (site, inputs) = feeds[feed];
                if let Some((lo, hi)) = chunk_bounds(inputs.len(), batch, round) {
                    let (est, sum, len) = ingest_run(tracker, site, &inputs[lo..hi]);
                    out.push((sid, est, sum, len));
                }
            }
        };
        for start in (0..rounds).step_by(WINDOW) {
            run_window(
                &mut workers,
                start..rounds.min(start + WINDOW),
                &work,
                &mut cut,
            );
        }

        Ok(self.finish_report(total as u64, threads(&cfg), audit))
    }

    /// Ingest through the pipelined path: per-feed bounded queues, filled
    /// by the `feeder` closure on the calling thread while the shard
    /// workers drain them on the executor [`run_parted`](Self::run_parted)
    /// runs on.
    ///
    /// `sites[i]` names the site feed `i` carries (several feeds may name
    /// the same site, exactly like [`run_parted`](Self::run_parted)); the
    /// feeder closure receives one [`ShardFeed`] handle per feed, in the
    /// same order. Push inputs from it directly, or move the handles into
    /// producer threads/tasks of your own — the run finishes when every
    /// handle is closed (dropping closes) and every queue is drained.
    /// Handles stashed beyond the closure are force-closed when it
    /// returns, so the run always terminates.
    ///
    /// One driver thread runs windows of up to 64 rounds: every shard with
    /// a feed gets a worker thread of its own, whatever
    /// [`EngineConfig::workers`] says (a worker waits on its feeds, not on
    /// a CPU), which drains its feeds round after round; once every worker
    /// has finished the window, the cut reconciles and audits its rounds,
    /// once per window. A lagging feed stalls only its own shard; the
    /// others run on to the end of the window, so a fast feed leads a
    /// slow one by at most 64 rounds (plus its queue). The call ends at the
    /// first round in which no feed delivers an input.
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
    /// instead). A panic on a worker closes every feed, so pushes fail
    /// with [`crate::FeedError::Closed`], and is re-raised here with its
    /// own payload once the feeder returns, before any of its window's
    /// rounds close.
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
        let batch = cfg.batch_size();
        let kind = self.shards[0].kind();
        validate_sites(sites.iter().copied(), self.shards[0].k(), self.time())?;

        // One bounded SPSC ring per feed: the producer end is the feed's
        // handle, the consumer end joins its shard's feeds in feed order
        // (the order run_parted runs them in).
        let rings: Vec<Arc<Ring<In>>> = sites.iter().map(|_| Arc::new(Ring::new(batch))).collect();
        let deletions_ok = kind.supports_deletions();
        let mut handles = Vec::with_capacity(sites.len());
        let mut feeds: Vec<Vec<FeedState<In>>> = (0..s_count).map(|_| Vec::new()).collect();
        for (feed, (&site, ring)) in sites.iter().zip(&rings).enumerate() {
            let shard = site % s_count;
            feeds[shard].push(FeedState::new(Arc::clone(ring), site));
            let ring = Arc::clone(ring);
            handles.push(ShardFeed::new(ring, feed, site, shard, deletions_ok));
        }
        let has_feeds: Vec<bool> = feeds.iter().map(|f| !f.is_empty()).collect();

        let time_before = self.time();
        let (shards, mut cut) = self.split(&mut audit);
        let mut piped: Vec<_> = shards.iter_mut().zip(feeds).collect();
        // A worker parks on its feeds, not on a CPU: one per shard, so a
        // lagging feed stalls only its own shard.
        let mut workers = Worker::for_groups(&mut piped, s_count, |sid| has_feeds[sid]);
        // A shard's round: one `update_run` per feed that delivers, in feed
        // order. A worker that unwinds closes every ring on its way out, so
        // neither the feeder nor another worker waits on it forever.
        let work =
            |sid, (tracker, feeds): &mut (&mut T, Vec<FeedState<In>>), _, out: &mut Rounds| {
                let unwinding = CloseRings(&rings);
                for feed in feeds {
                    if let Some((site, inputs)) = feed.next_round() {
                        let (est, sum, len) = ingest_run(&mut **tracker, site, inputs);
                        out.push((sid, est, sum, len));
                    }
                }
                std::mem::forget(unwinding);
            };
        std::thread::scope(|scope| {
            let driver = scope.spawn(|| {
                let _close = CloseRings(&rings);
                while run_window(&mut workers, 0..WINDOW, &work, &mut cut) == WINDOW {}
            });
            // Every ring closes once the feeder returns or unwinds, so a
            // stashed or leaked handle cannot keep the driver waiting.
            let close = CloseRings(&rings);
            feeder(handles);
            drop(close);
            if let Err(panic) = driver.join() {
                std::panic::resume_unwind(panic);
            }
        });

        for ring in &rings {
            ring.drain_stats(&mut self.ingest_stats);
        }
        Ok(self.finish_report(self.time() - time_before, s_count, audit))
    }

    /// Split the engine for an ingestion call: the replicas for the shard
    /// workers, and the boundary cut over everything a round moves.
    fn split<'a>(&'a mut self, audit: &'a mut RunAudit) -> (&'a mut [T], Cut<'a>) {
        (&mut self.shards, self.books.cut(audit))
    }

    /// Assemble the report shared by the ingestion paths (all execution
    /// borrows have ended by the time this runs).
    fn finish_report(&self, n: u64, workers: usize, audit: RunAudit) -> EngineReport {
        audit.report(
            &self.cfg,
            workers,
            n,
            &self.books,
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
    /// the replica/seed convention. Routed [`run`](ShardedEngine::run)
    /// sends every item to exactly one shard.
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
    /// Merged per-item estimate `Σ_s f̂_ℓ^{(s)}`. After routed
    /// [`run`](ShardedEngine::run) only the item's owning shard
    /// contributes; after site-parted ingestion this is still within
    /// `ε·F1` because the per-shard `F1` budgets sum to the global one.
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
    fn item_engine_tracks_f1_and_items_under_by_item_partition() {
        let updates = ItemStreamGen::new(7, 256, 1.1, 0.2, 1).updates(40_000, RoundRobin::new(4));
        let spec = TrackerSpec::new(TrackerKind::ExactFreq)
            .k(4)
            .eps(0.1)
            .universe(256);
        let mut engine = ShardedEngine::items(spec, EngineConfig::new(4, 2_000)).unwrap();
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

        // Item streams route fine by item.
        let spec = TrackerSpec::new(TrackerKind::CountMinFreq).k(2).eps(0.2);
        let mut engine = ShardedEngine::items(spec, EngineConfig::new(2, 16).eps(0.2)).unwrap();
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

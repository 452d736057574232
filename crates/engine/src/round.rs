//! The boundary cut, written once.
//!
//! Every ingestion mode — routed, pre-parted, pipelined, socket-backed —
//! schedules shard work its own way, but all of them must agree on what a
//! *round* is and on what happens when one ends. This module owns that
//! agreement: feed validation, the chunking rule, the shard → worker map,
//! the fork-join every in-memory executor and the fleet's boundary run on,
//! the [`Books`] each engine keeps of what a cut and a checkpoint touch,
//! the [`Cut`] that closes a window's rounds from every worker's
//! [`Rounds`] (fold Σδ and lengths → absorb each shard's end-of-round
//! estimate in ascending shard order → ε-audit), and the one
//! [`EngineReport`] constructor. Bit-identity between modes holds
//! because they all end a round here, not because copies of this sequence
//! are proven to agree (`DESIGN.md` §5).

use crate::checkpoint::EngineCheckpoint;
use crate::config::EngineConfig;
use crate::merge::MergeCoordinator;
use crate::partition::InputDelta;
use crate::report::EngineReport;
use dsv_core::api::{RunError, Tracker, TrackerKind};
use dsv_core::codec::{CodecError, Dec, Enc, TrackerState};
use dsv_net::{
    relative_error, CommStats, ErrorProbe, IngestStats, MsgKind, SiteId, StateFrame, Time, WireSize,
};
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One shard's contribution to a round: `(shard, estimate after the
/// work, Σδ of the work, inputs consumed)`.
pub(crate) type Entry = (usize, i64, i64, u64);

/// Feed a same-site run to a shard replica through
/// [`Tracker::update_run`] — the one run seam, which drives the sites'
/// `absorb_quiet` kernels. Returns the run's [`Entry`] fields:
/// `(estimate after the run, Σδ, inputs consumed)`. Every executor, a
/// remote worker's included, runs its chunks through here.
pub(crate) fn ingest_run<T, In>(tracker: &mut T, site: SiteId, run: &[In]) -> (i64, i64, u64)
where
    T: Tracker<In> + ?Sized,
    In: InputDelta,
{
    // Summed first on purpose: the streaming pass pulls the run into
    // cache for the tracker's branchier kernel.
    let sum = run.iter().map(|x| x.delta_of()).sum();
    (tracker.update_run(site, run), sum, run.len() as u64)
}

/// Whole-feed validation, before anything runs: every feed's site in
/// range, then no deletion into an insert-only kind. A rejected deletion
/// reports the timestep the engine would consume it at: round-major, at
/// `batch` inputs per feed per round, feeds in call order within a round
/// (the earliest such timestep over all feeds).
pub(crate) fn validate_feeds<In: InputDelta>(
    feeds: &[(SiteId, &[In])],
    k: usize,
    kind: TrackerKind,
    time: Time,
    batch: usize,
) -> Result<(), RunError> {
    validate_sites(feeds.iter().map(|&(site, _)| site), k, time)?;
    if kind.supports_deletions() {
        return Ok(());
    }
    let first = feeds.iter().enumerate().filter_map(|(feed, (_, inputs))| {
        let pos = inputs.iter().position(|&x| x.delta_of() < 0)?;
        // Before it: every feed's rounds before its round, then the
        // earlier feeds' chunks of its round.
        let round_start = pos - pos % batch;
        let before = feeds.iter().enumerate().map(|(other, (_, inputs))| {
            let chunk = if other < feed { batch } else { 0 };
            inputs.len().min(round_start.saturating_add(chunk))
        });
        Some(before.sum::<usize>() + pos % batch)
    });
    first.min().map_or(Ok(()), |before| {
        Err(RunError::DeletionUnsupported {
            kind,
            time: time + before as Time + 1,
        })
    })
}

/// The site half of [`validate_feeds`], for a mode that only knows its
/// sites up front (the pipelined path validates inputs at the push
/// boundary).
pub(crate) fn validate_sites(
    sites: impl IntoIterator<Item = SiteId>,
    k: usize,
    time: Time,
) -> Result<(), RunError> {
    match sites.into_iter().find(|&site| site >= k) {
        Some(site) => Err(RunError::SiteOutOfRange { site, k, time }),
        None => Ok(()),
    }
}

/// The chunking rule: round `round`'s slice of a feed of `len` inputs, or
/// `None` once the feed is exhausted.
pub(crate) fn chunk_bounds(len: usize, batch: usize, round: usize) -> Option<(usize, usize)> {
    let lo = round.saturating_mul(batch).min(len);
    let hi = lo.saturating_add(batch).min(len);
    (lo < hi).then_some((lo, hi))
}

/// Rounds needed to drain every feed at `batch` inputs per feed per round.
pub(crate) fn rounds_of<In>(feeds: &[(SiteId, &[In])], batch: usize) -> usize {
    feeds
        .iter()
        .map(|(_, inputs)| inputs.len().div_ceil(batch))
        .max()
        .unwrap_or(0)
}

/// The threads an in-process fork-join runs `cfg`'s shards on: an explicit
/// [`EngineConfig::workers`] as given (at most one per shard), and by
/// default one per shard up to the host's parallelism, which is read once
/// per process. More threads than CPUs only queue behind each other, and
/// results never depend on the count. Pipelined workers wait on their
/// feeds, not on a CPU, so `run_pipelined` gives every shard its own
/// thread; the remote engine's processes take
/// [`EngineConfig::workers_count`].
pub(crate) fn threads(cfg: &EngineConfig) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let count = cfg.workers_count();
    if cfg.workers_given() {
        return count;
    }
    let host =
        *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    count.min(host)
}

/// The shard → worker map: worker `w` owns shards `s ≡ w (mod W)` as a
/// dense group, a shard's slot within its group being `s / W`.
pub(crate) fn worker_groups<X>(shards: impl IntoIterator<Item = X>, workers: usize) -> Vec<Vec<X>> {
    let mut groups: Vec<Vec<X>> = (0..workers).map(|_| Vec::new()).collect();
    for (sid, shard) in shards.into_iter().enumerate() {
        groups[sid % workers].push(shard);
    }
    groups
}

/// The one fork-join: `threads` threads — the caller and up to
/// `threads − 1` scoped ones, never more than there are tasks — each take
/// the next task from one queue until it is empty, so a slow task holds
/// back no other. Results come back in task order; a panic in any task is
/// re-raised with its own payload once every thread has been joined.
pub(crate) fn fork_join<X, R>(
    tasks: impl IntoIterator<Item = X>,
    threads: usize,
    work: impl Fn(X) -> R + Sync,
) -> Vec<R>
where
    X: Send,
    R: Send,
{
    let tasks: Vec<X> = tasks.into_iter().collect();
    let helpers = threads.min(tasks.len()).saturating_sub(1);
    if helpers == 0 {
        return tasks.into_iter().map(work).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let claim = || {
        let mut done = Vec::new();
        loop {
            // The guard is dropped at the end of this statement, before the
            // task runs; a `while let` would hold it for the whole body.
            let next = queue.lock().expect("no task holds the lock").next();
            let Some((i, task)) = next else {
                return done;
            };
            done.push((i, work(task)));
        }
    };
    // A panic raised in the scope is re-raised by it once every thread has
    // been joined.
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for handle in spawned {
            let more = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            done.extend(more);
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Rounds one window holds at most before the cut closes them, in every
/// mode. Bounds what a call holds in flight to `WINDOW` entries per feed
/// or shard, however many rounds the call spans, and how many rounds a
/// pipelined feed can lead another by; at 64, a batch-1 call still runs
/// ~15× faster than with a barrier every round (`DESIGN.md` §5).
pub(crate) const WINDOW: usize = 64;

/// The entries one worker recorded over a window, round after round:
/// round `r` is `entries[ends[r]..ends[r + 1]]`. An in-memory worker
/// fills it by running its shards; a remote one from its reports.
pub(crate) struct Rounds {
    entries: Vec<Entry>,
    ends: Vec<usize>,
}

impl Default for Rounds {
    fn default() -> Self {
        Rounds {
            entries: Vec::new(),
            ends: vec![0],
        }
    }
}

impl Rounds {
    /// Start a new window.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
        self.ends.push(0);
    }

    /// Record one piece of the current round's work.
    pub(crate) fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// End the current round.
    pub(crate) fn end_round(&mut self) {
        self.ends.push(self.entries.len());
    }

    fn round(&self, r: usize) -> &[Entry] {
        &self.entries[self.ends[r]..self.ends[r + 1]]
    }
}

/// Run-local audit accumulator and wall clock (one per ingestion call).
pub(crate) struct RunAudit {
    eps: f64,
    started: Instant,
    batches: u64,
    violations: u64,
    max_err: f64,
    probes: Vec<ErrorProbe>,
}

impl RunAudit {
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        RunAudit {
            eps: cfg.eps_value(),
            started: Instant::now(),
            batches: 0,
            violations: 0,
            max_err: 0.0,
            probes: Vec::new(),
        }
    }

    /// Audit one batch boundary: global truth `f` vs merged estimate.
    fn boundary(&mut self, time: Time, f: i64, fhat: i64) {
        self.batches += 1;
        let err = relative_error(f, fhat);
        if err > self.max_err {
            self.max_err = err;
        }
        // Same float-slack convention as the sequential Driver.
        if err > self.eps * (1.0 + 1e-12) {
            self.violations += 1;
        }
        self.probes.push(ErrorProbe {
            time,
            f,
            fhat,
            rel_err: err,
        });
    }

    /// Assemble the run's report from the audit and the engine's books
    /// after the last cut.
    pub(crate) fn report(
        self,
        cfg: &EngineConfig,
        workers: usize,
        n: u64,
        books: &Books,
        tracker_stats: CommStats,
        ingest_stats: IngestStats,
    ) -> EngineReport {
        EngineReport {
            n,
            batches: self.batches,
            shards: cfg.shards_count(),
            workers,
            batch_size: cfg.batch_size(),
            final_f: books.f,
            final_estimate: books.coord.estimate(),
            boundary_violations: self.violations,
            max_boundary_rel_err: self.max_err,
            tracker_stats,
            merge_stats: books.coord.stats().clone(),
            ingest_stats,
            probes: self.probes,
            elapsed: self.started.elapsed(),
        }
    }
}

/// What a round boundary and a checkpoint touch, owned once by each
/// engine: consumed time, ground truth, the merge coordinator, and per
/// shard the inputs it consumed since its last capture and that capture.
#[derive(Debug)]
pub(crate) struct Books {
    time: Time,
    f: i64,
    coord: MergeCoordinator,
    /// Inputs consumed per shard since its state was last captured.
    /// Tracker state is a pure function of the inputs a replica has
    /// consumed, so a zero counter proves the captured state current —
    /// the dirty-shard skip that keeps a periodic checkpoint from
    /// reserializing (and re-charging) quiet shards. Counting inputs
    /// rather than watching the ledger is deliberate: trackers mutate
    /// state (round counters, samplers) without sending messages.
    dirty: Vec<u64>,
    /// Each shard's state at its last capture (`None` until captured).
    captured: Vec<Option<TrackerState>>,
    /// Snapshot traffic: one [`StateFrame`] per capture. Separate from
    /// the tracker and merge ledgers so checkpointing never perturbs the
    /// ledgers the equivalence guarantees are stated over.
    ckpt_stats: CommStats,
}

impl Books {
    pub(crate) fn new(shards: usize) -> Self {
        Books {
            time: 0,
            f: 0,
            coord: MergeCoordinator::new(shards),
            dirty: vec![0; shards],
            captured: vec![None; shards],
            ckpt_stats: CommStats::new(),
        }
    }

    /// The books a checkpoint holds; no shard counts as captured yet.
    pub(crate) fn resume(ckpt: &EngineCheckpoint) -> Result<Self, CodecError> {
        let mut books = Books::new(ckpt.shards());
        let mut dec = Dec::new(ckpt.merge());
        books.coord.load_state(&mut dec)?;
        dec.finish()?;
        books.time = ckpt.time();
        books.f = ckpt.f();
        Ok(books)
    }

    pub(crate) fn time(&self) -> Time {
        self.time
    }

    pub(crate) fn estimate(&self) -> i64 {
        self.coord.estimate()
    }

    pub(crate) fn merge_stats(&self) -> &CommStats {
        self.coord.stats()
    }

    pub(crate) fn checkpoint_stats(&self) -> &CommStats {
        &self.ckpt_stats
    }

    /// The cut over these books for one ingestion call.
    pub(crate) fn cut<'a>(&'a mut self, audit: &'a mut RunAudit) -> Cut<'a> {
        let finals = vec![None; self.dirty.len()];
        Cut {
            books: self,
            audit,
            finals,
        }
    }

    /// Whether shard `sid`'s captured state is behind its replica: it
    /// consumed inputs since, or was never captured.
    pub(crate) fn stale(&self, sid: usize) -> bool {
        self.dirty[sid] > 0 || self.captured[sid].is_none()
    }

    /// Inputs shard `sid` consumed since its last capture.
    #[cfg(feature = "remote")]
    pub(crate) fn dirty(&self, sid: usize) -> u64 {
        self.dirty[sid]
    }

    /// Shard `sid`'s last captured state.
    #[cfg(feature = "remote")]
    pub(crate) fn captured(&self, sid: usize) -> Option<&TrackerState> {
        self.captured[sid].as_ref()
    }

    /// Count `n` inputs shard `sid` ran that no cut closed: a remote
    /// window that failed after they were sent leaves the replica past
    /// its capture, so the shard reads as stale (and, never captured, as
    /// uncommitted).
    #[cfg(feature = "remote")]
    pub(crate) fn ran_uncut(&mut self, sid: usize, n: u64) {
        self.dirty[sid] += n;
    }

    /// Record `state` as shard `sid`'s current state, charging the one
    /// [`StateFrame`] that ships it to the checkpoint ledger.
    pub(crate) fn capture(&mut self, sid: usize, state: TrackerState) {
        let frame = StateFrame::for_payload(sid, state.payload().len());
        self.ckpt_stats.charge(MsgKind::Up, frame.words());
        self.captured[sid] = Some(state);
        self.dirty[sid] = 0;
    }

    /// The engine as a restorable checkpoint. Every shard must be
    /// captured and current.
    pub(crate) fn checkpoint(&self, kind: TrackerKind, k: usize) -> EngineCheckpoint {
        let states = self
            .captured
            .iter()
            .map(|s| s.clone().expect("every shard captured before assembly"))
            .collect();
        let mut merge = Enc::new();
        self.coord.save_state(&mut merge);
        EngineCheckpoint::new(kind, k, self.time, self.f, merge.into_bytes(), states)
    }
}

/// The books a round boundary moves, borrowed for one ingestion call.
pub(crate) struct Cut<'a> {
    books: &'a mut Books,
    audit: &'a mut RunAudit,
    /// Scratch: each shard's last estimate within the round being closed.
    finals: Vec<Option<i64>>,
}

impl Cut<'_> {
    /// Close a window's `n` rounds in order, each over every buffer's
    /// entries for it, stopping at the first round none has entries for
    /// (a pipelined window runs out once every feed is done). Returns the
    /// rounds closed. Every mode ends its rounds here.
    pub(crate) fn close_window<'r>(
        &mut self,
        bufs: impl Iterator<Item = &'r Rounds> + Clone,
        n: usize,
    ) -> usize {
        for r in 0..n {
            let mut entries = bufs
                .clone()
                .flat_map(|b| b.round(r).iter().copied())
                .peekable();
            if entries.peek().is_none() {
                return r;
            }
            self.close(entries);
        }
        n
    }

    /// Close one round. `entries` may interleave shards in any order; a
    /// shard's own entries must arrive in the order its work ran, so the
    /// last one carries its end-of-round estimate. Absorbing only that
    /// one, in ascending shard order, is what keeps the merge ledger
    /// independent of worker count and arrival order; shards without
    /// entries are covered by the coordinator's cached last report.
    fn close(&mut self, entries: impl IntoIterator<Item = Entry>) {
        let books = &mut *self.books;
        for (sid, est, sum, len) in entries {
            books.f += sum;
            books.time += len;
            books.dirty[sid] += len;
            self.finals[sid] = Some(est);
        }
        for (sid, est) in self.finals.iter_mut().enumerate() {
            if let Some(est) = est.take() {
                books.coord.absorb(sid, est);
            }
        }
        self.audit
            .boundary(books.time, books.f, books.coord.estimate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Everything a cut can move, after closing `rounds` on fresh state.
    fn outcome(rounds: &[Vec<Entry>]) -> (Time, i64, Vec<u64>, i64, CommStats, Vec<ErrorProbe>) {
        let mut books = Books::new(4);
        let mut audit = RunAudit::new(&EngineConfig::new(4, 8));
        let mut cut = books.cut(&mut audit);
        for entries in rounds {
            cut.close(entries.iter().copied());
        }
        assert_eq!(audit.batches, rounds.len() as u64);
        (
            books.time,
            books.f,
            books.dirty,
            books.coord.estimate(),
            books.coord.stats().clone(),
            audit.probes,
        )
    }

    #[test]
    fn close_is_order_free_across_shards() {
        // One entry per shard (shard 1 silent), then a round where only
        // shard 2 moved: 3! arrival orders × the second round.
        let first = [(0, 10, 9, 5), (2, -4, -3, 8), (3, 7, 7, 1)];
        let second = vec![(2, -2, 2, 2), (0, 10, 1, 1)];
        let reference = outcome(&[first.to_vec(), second.clone()]);
        assert_eq!(reference.0, 17);
        assert_eq!(reference.1, 16);
        assert_eq!(reference.2, vec![6, 0, 10, 1]);
        assert_eq!(reference.3, 15);
        // Shard 0 re-reporting 10 is silent: 3 + 1 messages.
        assert_eq!(reference.4.total_messages(), 4);
        for perm in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let shuffled: Vec<Entry> = perm.iter().map(|&i| first[i]).collect();
            let mut second = second.clone();
            second.reverse();
            assert_eq!(outcome(&[shuffled, second]), reference, "{perm:?}");
        }
    }

    #[test]
    fn last_entry_per_shard_wins_and_is_absorbed_once() {
        // Shard 1 ran three chunks this round, interleaved with shard 0.
        let interleaved = vec![(1, 3, 3, 3), (0, 5, 5, 5), (1, 1, -2, 2), (1, 4, 3, 3)];
        let grouped = vec![(0, 5, 5, 5), (1, 3, 3, 3), (1, 1, -2, 2), (1, 4, 3, 3)];
        let folded = vec![(1, 4, 4, 8), (0, 5, 5, 5)];
        let reference = outcome(std::slice::from_ref(&folded));
        assert_eq!(reference.3, 9);
        assert_eq!(reference.4.total_messages(), 2);
        assert_eq!(outcome(&[interleaved]), reference);
        assert_eq!(outcome(&[grouped]), reference);
    }

    #[test]
    fn chunk_bounds_edges() {
        let batch = 8;
        assert_eq!(chunk_bounds(0, batch, 0), None);
        assert_eq!(chunk_bounds(batch, batch, 0), Some((0, 8)));
        assert_eq!(chunk_bounds(batch, batch, 1), None);
        assert_eq!(chunk_bounds(batch + 1, batch, 0), Some((0, 8)));
        assert_eq!(chunk_bounds(batch + 1, batch, 1), Some((8, 9)));
        assert_eq!(chunk_bounds(batch + 1, batch, 2), None);
        assert_eq!(chunk_bounds(batch + 1, batch, usize::MAX), None);

        let (a, b, c) = ([0i64; 17], [0i64; 8], [0i64; 0]);
        let feeds: [(SiteId, &[i64]); 3] = [(0, &a), (1, &b), (0, &c)];
        assert_eq!(rounds_of(&feeds, batch), 3);
        assert_eq!(rounds_of::<i64>(&[], batch), 0);
    }

    #[test]
    fn feeds_are_validated_whole_and_sites_alone() {
        let kind = TrackerKind::CmyMonotone;
        let ok: &[i64] = &[1, 1];
        let bad: &[i64] = &[1, 1, -1];
        assert_eq!(validate_feeds(&[(0, ok), (1, ok)], 2, kind, 40, 3), Ok(()));
        assert_eq!(
            validate_feeds(&[(0, ok), (2, ok)], 2, kind, 40, 3),
            Err(RunError::SiteOutOfRange {
                site: 2,
                k: 2,
                time: 40
            })
        );
        // The −1 is the 5th input consumed, at batch 3 (one round) and at
        // batch 2 (round 1, after both feeds' round 0) alike.
        for batch in [2, 3, 64] {
            assert_eq!(
                validate_feeds(&[(0, ok), (1, bad)], 2, kind, 40, batch),
                Err(RunError::DeletionUnsupported { kind, time: 45 }),
                "batch {batch}"
            );
        }
        // Past round 0, in a later feed: at batch 2, round 0 consumes
        // 2 + 2 + 2 inputs, then round 1 feed 0's 2 before feed 2's −1,
        // the 9th input (feed 1 is done).
        let long: &[i64] = &[1, 1, 1, 1];
        assert_eq!(
            validate_feeds(&[(0, long), (1, ok), (1, bad)], 2, kind, 40, 2),
            Err(RunError::DeletionUnsupported { kind, time: 49 })
        );
        // The earliest in consumption order wins, not the first feed's:
        // feed 0's −1 is the 8th input (round 2), feed 1's the 7th
        // (round 1).
        let late: &[i64] = &[1, 1, 1, 1, -1];
        assert_eq!(
            validate_feeds(&[(0, late), (1, bad)], 2, kind, 0, 2),
            Err(RunError::DeletionUnsupported { kind, time: 7 })
        );
        let kind = TrackerKind::Deterministic;
        assert_eq!(validate_feeds(&[(1, bad)], 2, kind, 0, 3), Ok(()));
        // Sites only: the shape the pipelined path validates up front.
        assert_eq!(validate_sites([0, 1], 2, 0), Ok(()));
        assert!(validate_sites([0, 5], 2, 0).is_err());
    }

    #[test]
    fn fork_join_keeps_group_order_and_the_panic_payload() {
        // Results come back in task order, however many threads claim.
        for threads in 1..=5 {
            for tasks in [0usize, 3, 4] {
                let want: Vec<usize> = (0..tasks).map(|t| t * 10).collect();
                assert_eq!(
                    fork_join(0..tasks, threads, |t| t * 10),
                    want,
                    "{threads} threads, {tasks} tasks"
                );
            }
        }
        // With one thread the caller runs the panicking task;
        // `a_spawned_threads_panic_reaches_the_caller` pins the case where
        // a spawned thread does.
        for (threads, bad) in [(1, 2), (3, 0), (3, 2), (2, 1)] {
            let caught = std::panic::catch_unwind(|| {
                fork_join(0..3, threads, |t| {
                    if t == bad {
                        panic!("task gave out");
                    }
                    t
                })
            });
            let payload = caught.expect_err("the task's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task gave out"),
                "{threads} threads, task {bad}"
            );
        }
    }

    #[test]
    fn fork_join_runs_every_task_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in 1..=5 {
            let runs: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            fork_join(0..runs.len(), threads, |t| {
                runs[t].fetch_add(1, Ordering::Relaxed)
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "{threads} threads: {runs:?}"
            );
        }
    }

    #[test]
    fn a_spawned_threads_panic_reaches_the_caller() {
        // Task 0 waits for task 1, so the two run on different threads,
        // and only the one that is not the caller panics.
        use std::sync::mpsc;
        let caller = std::thread::current().id();
        let (tx, rx) = mpsc::channel();
        let tasks = vec![Err(rx), Ok(tx)];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fork_join(tasks, 2, |task| {
                match task {
                    Err(rx) => assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok()),
                    Ok(tx) => tx.send(()).unwrap(),
                }
                if std::thread::current().id() != caller {
                    panic!("spawned task gave out");
                }
            })
        }));
        let payload = caught.expect_err("the spawned thread's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"spawned task gave out")
        );
    }

    #[test]
    fn a_task_runs_without_the_queue_lock() {
        // Task 0 waits on task 1's signal: it arrives only if the thread
        // that claimed task 0 released the queue before running it.
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let tasks = vec![Err(rx), Ok(tx)];
        let out = fork_join(tasks, 2, |task| match task {
            Err(rx) => rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            Ok(tx) => tx.send(()).is_ok(),
        });
        assert_eq!(out, vec![true, true], "task 0 timed out on task 1's signal");
    }

    #[test]
    fn worker_groups_are_dense_residue_classes() {
        assert_eq!(
            worker_groups(0..5, 2),
            vec![vec![0, 2, 4], vec![1, 3]],
            "slot s / W within group s mod W"
        );
        assert_eq!(worker_groups(0..2, 1), vec![vec![0, 1]]);
    }
}

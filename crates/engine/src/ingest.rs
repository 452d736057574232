//! Pipelined ingestion: bounded per-shard queues and feeder handles.
//!
//! [`crate::ShardedEngine::run_parted`] synchronizes every round from one
//! feeder thread: a slow feed stalls every shard. This module is the
//! decoupling layer that fixes that. Each feed gets a **bounded
//! single-producer / single-consumer queue**; the producer side is a
//! [`ShardFeed`] handle the feeder code pushes into, the consumer side is
//! drained by the owning shard worker inside
//! [`crate::ShardedEngine::run_pipelined`], on the window executor
//! `run_parted` runs on: each worker drains up to 64 rounds of its feeds
//! back to back, and the engine then reconciles those rounds, once per
//! window. A feed that lags only stalls the worker draining it; every
//! other worker keeps absorbing to the end of the window, so a fast feed
//! leads a slow one by at most 64 rounds (plus its queue). A worker that
//! panics closes every queue of the call, so no producer parks on it for
//! good.
//!
//! ## The queue
//!
//! The queue is a plain monitor on `std` primitives: a `VecDeque`, the
//! closed flag, the ledger and the parked async producer's waker live
//! under **one** mutex, every condition is checked and changed under it,
//! and the two waits (producer on a full queue, consumer on an empty one)
//! are untimed `Condvar` waits — an idle feed costs nothing. Transfers
//! are chunk-grained (a push or a pop moves its whole chunk as two slice
//! copies per lock acquisition), so with the engine's batch-sized chunks
//! the lock is noise on the throughput path; DESIGN.md §7 has the
//! measurements. Because close and push serialize on the lock, an input
//! is never acknowledged behind a close.
//!
//! ## Full queues
//!
//! On a full queue, [`ShardFeed::push`] and [`ShardFeed::push_batch`]
//! park until the worker drains space, so a feed that outruns its shard
//! is slowed to the shard's pace; [`ShardFeed::try_push`] fails fast with
//! [`FeedError::Full`] so the caller can shed or reroute load; the async
//! pushes await space. Stalls, waits, and queue occupancy are charged to
//! the engine's [`IngestStats`] ledger; the traffic itself is accounted
//! as [`FeedFrame`]s in the model's word currency.
//!
//! ## Ordering discipline
//!
//! Every queue holds `2 × batch` inputs: a feed can stage the next round
//! while the worker drains the current one. A single thread feeding
//! several handles must interleave its pushes (round-robin chunks no
//! larger than the capacity) or it can deadlock against the round-ordered
//! consumer: the worker drains a shard's feeds in feed order, so filling
//! feed `j`'s queue to the brim before feed `i < j` of the same shard has
//! its round available parks the producer while the worker waits on `i`.
//! For the same reason a single thread must not push one feed more than a
//! window (64 rounds) and a queue ahead of another that a worker still
//! waits on: the ahead feed's worker has stopped draining at the window's
//! end. One producer thread per feed (the deployment shape) cannot
//! deadlock.
//!
//! ## Draining a round
//!
//! Feeds carry raw per-site inputs. The consuming worker hands each
//! drained round, unchanged, to the shard tracker's `update_run` — the
//! same run seam `run_parted` drives — so the queue adds transport and
//! nothing else to the work a round costs.
//!
//! ## Async pushes
//!
//! [`ShardFeed::push_async`] / [`ShardFeed::push_batch_async`] are futures
//! that resolve when the input is enqueued, awaiting capacity instead of
//! blocking the thread. They are runtime-agnostic (plain `std::future`
//! wakers — they run on `tokio` or any other executor) and always
//! compiled: the waker is one more field under the queue's lock.

use crate::partition::InputDelta;
use dsv_net::{FeedFrame, IngestStats, SiteId};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

/// A typed feeder-side failure. `pushed` is always the number of inputs
/// of the failing call that *were* enqueued before the error (0 for
/// single pushes): those inputs are in flight and will be consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// [`ShardFeed::try_push`] found the queue full; the input was not
    /// enqueued.
    Full,
    /// The feed was closed (by [`ShardFeed::close`] or by the engine
    /// tearing down the run); the input was not enqueued.
    Closed {
        /// Inputs of this call enqueued before the close was observed.
        pushed: usize,
    },
    /// The input is a deletion but the engine's tracker kind is
    /// insert-only — the same stream the sequential `Driver` rejects,
    /// detected at the feed boundary before it can corrupt a replica.
    /// The whole call is validated before transport, so **nothing** of
    /// the failing call was enqueued.
    DeletionUnsupported {
        /// Index of the offending input within the call (0 for `push`).
        at: usize,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Full => write!(fm, "queue full"),
            FeedError::Closed { pushed } => {
                write!(fm, "feed closed after {pushed} inputs")
            }
            FeedError::DeletionUnsupported { at } => write!(
                fm,
                "deletion pushed into an insert-only tracker kind (input {at} of the call; nothing enqueued)"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

/// Everything the two ends of a [`Ring`] share, under its one lock.
struct Shared<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// The producer's waker while an async push is pending on a full
    /// queue; taken (and woken) by the next pop or by the close.
    waker: Option<Waker>,
    /// The ring's ledger, `dropped` excepted ([`Ring::drain_stats`]
    /// reads it off the queue at teardown).
    stats: IngestStats,
}

impl<T> Shared<T> {
    /// Count the frame of a push call that is over (completed, or cut
    /// short by a close) after landing `pushed` inputs,
    /// and sample occupancy: resident items once the frame has landed —
    /// the queue depth a new arrival would see behind it. A call that
    /// landed nothing is no frame.
    fn end_frame(&mut self, pushed: usize) {
        if pushed > 0 {
            let occupancy = self.queue.len() as u64;
            self.stats.frames += 1;
            self.stats.occupancy_sum += occupancy;
            self.stats.occupancy_samples += 1;
            self.stats.high_water = self.stats.high_water.max(occupancy);
        }
    }

    /// Count `call` as a push stall, once however long it stalls.
    fn stall(&mut self, call: &mut Progress) {
        if !call.stalled {
            call.stalled = true;
            self.stats.push_stalls += 1;
        }
    }
}

/// The bounded SPSC queue. One producer (a [`ShardFeed`]) and one
/// consumer (the owning worker's [`FeedState`]) — the
/// discipline is enforced by handle ownership, not checked at runtime.
///
/// A monitor: all state is in [`Shared`] behind `shared`, a producer out
/// of space waits on `not_full`, a consumer out of data on `not_empty`,
/// and whoever changes the condition notifies while still holding the
/// lock — so a wakeup cannot be lost and no wait needs a timeout.
pub(crate) struct Ring<T: Copy> {
    cap: usize,
    shared: Mutex<Shared<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive (validated)");
        Ring {
            cap,
            shared: Mutex::new(Shared {
                queue: VecDeque::with_capacity(cap),
                closed: false,
                waker: None,
                stats: IngestStats::new(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Every update leaves [`Shared`] valid at every step (at worst the
    /// ledger misses a frame), so a guard poisoned by a panicking peer is
    /// still good — and [`close`](Self::close) runs in `Drop`, which must
    /// not panic.
    fn lock(&self) -> MutexGuard<'_, Shared<T>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait on `cv`, releasing `st`; poison-tolerant like [`lock`](Self::lock).
    fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, Shared<T>>) -> MutexGuard<'a, Shared<T>> {
        cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    fn occupancy(&self) -> u64 {
        self.lock().queue.len() as u64
    }

    /// Close the queue (idempotent; producer side or engine teardown).
    /// Once this returns no push lands: the flag is set under the lock
    /// every push checks it under.
    pub(crate) fn close(&self) {
        let waker = {
            let mut st = self.lock();
            st.closed = true;
            self.not_empty.notify_all();
            self.not_full.notify_all();
            st.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Consumer-only: pop exactly `want` items into `out`, waiting for
    /// the producer as needed; fewer only when the queue is closed and
    /// drained (the feed's final partial round).
    pub(crate) fn pop_round(&self, out: &mut Vec<T>, want: usize) {
        let mut st = self.lock();
        let mut waited = false;
        while out.len() < want {
            if st.queue.is_empty() {
                if st.closed {
                    break;
                }
                if !waited {
                    waited = true;
                    st.stats.pop_waits += 1;
                }
                st = Self::wait(&self.not_empty, st);
                continue;
            }
            let take = st.queue.len().min(want - out.len());
            let (front, back) = st.queue.as_slices();
            let first = take.min(front.len());
            out.extend_from_slice(&front[..first]);
            out.extend_from_slice(&back[..take - first]);
            st.queue.drain(..take);
            self.not_full.notify_one();
            if let Some(waker) = st.waker.take() {
                // Woken outside the lock: a waker may poll inline.
                drop(st);
                waker.wake();
                st = self.lock();
            }
        }
    }

    /// Fold this ring's counters into an engine-level ledger (called
    /// after the run, once the workers have exited). Inputs still
    /// resident — the consumer stopped before draining them — are
    /// surfaced as `dropped` rather than silently vanishing.
    pub(crate) fn drain_stats(&self, into: &mut IngestStats) {
        let st = self.lock();
        into.merge(&IngestStats {
            dropped: st.queue.len() as u64,
            ..st.stats.clone()
        });
    }
}

impl<T: Copy> std::fmt::Debug for Ring<T> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        fm.debug_struct("Ring")
            .field("cap", &self.cap)
            .field("occupancy", &st.queue.len())
            .field("closed", &st.closed)
            .finish()
    }
}

/// One feed of a pipelined call as its shard's worker drains it: the
/// consumer end of the feed's ring, the site its inputs belong to, a
/// recycled round buffer, and whether the feed has delivered its final
/// (short or empty) round.
pub(crate) struct FeedState<T: Copy> {
    ring: Arc<Ring<T>>,
    site: SiteId,
    buf: Vec<T>,
    done: bool,
}

impl<T: Copy> FeedState<T> {
    pub(crate) fn new(ring: Arc<Ring<T>>, site: SiteId) -> Self {
        FeedState {
            ring,
            site,
            buf: Vec::new(),
            done: false,
        }
    }

    /// The feed's next round: its site and `batch` inputs, fewer only in
    /// its final round, and `None` once that has been delivered. Waits
    /// until the producer delivers the round or closes the feed, so a
    /// lagging feed stalls only the worker draining it. The buffer is
    /// reserved here, on that worker's thread.
    pub(crate) fn next_round(&mut self, batch: usize) -> Option<(SiteId, &[T])> {
        if self.done {
            return None;
        }
        self.buf.clear();
        self.buf.reserve(batch);
        self.ring.pop_round(&mut self.buf, batch);
        self.done = self.buf.len() < batch;
        (!self.buf.is_empty()).then_some((self.site, &self.buf))
    }
}

/// Closes every ring of a pipelined call when dropped, so that no party
/// to the call — feeder, driver or worker — can be left parked on a peer
/// that has gone away, by returning or by unwinding.
pub(crate) struct CloseRings<'a, T: Copy>(pub(crate) &'a [Arc<Ring<T>>]);

impl<T: Copy> Drop for CloseRings<'_, T> {
    fn drop(&mut self) {
        for ring in self.0 {
            ring.close();
        }
    }
}

/// How far one push call has got: it may span several lock acquisitions
/// (a full queue mid-chunk) or, on the async path, several polls.
#[derive(Debug, Default)]
struct Progress {
    /// Inputs of the call landed so far.
    pushed: usize,
    /// Whether the call has already been counted as a push stall.
    stalled: bool,
}

/// The producer handle for one feed of a pipelined run: push inputs for
/// one site into its shard's bounded queue.
///
/// Handed to the feeder closure by
/// [`crate::ShardedEngine::run_pipelined`]; one handle per feed, single
/// producer by ownership (`push` takes `&mut self`, the type is not
/// `Clone`). Dropping the handle closes the feed; [`close`](Self::close)
/// does so explicitly and pushing afterwards is a typed
/// [`FeedError::Closed`].
#[derive(Debug)]
pub struct ShardFeed<In: Copy> {
    ring: Arc<Ring<In>>,
    feed: usize,
    site: SiteId,
    shard: usize,
    deletions_ok: bool,
}

impl<In: InputDelta> ShardFeed<In> {
    pub(crate) fn new(
        ring: Arc<Ring<In>>,
        feed: usize,
        site: SiteId,
        shard: usize,
        deletions_ok: bool,
    ) -> Self {
        ShardFeed {
            ring,
            feed,
            site,
            shard,
            deletions_ok,
        }
    }

    /// The site this feed's inputs belong to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The logical shard (`site mod S`) this feed's queue belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The queue's capacity in inputs: `2 × batch`.
    pub fn capacity(&self) -> usize {
        self.ring.cap
    }

    /// Inputs currently resident in the queue (racy snapshot).
    pub fn occupancy(&self) -> u64 {
        self.ring.occupancy()
    }

    /// Push one input, parking while the queue is full.
    pub fn push(&mut self, x: In) -> Result<(), FeedError> {
        self.push_batch(&[x])
    }

    /// Push one input without ever waiting: [`FeedError::Full`] if the
    /// queue has no space right now.
    pub fn try_push(&mut self, x: In) -> Result<(), FeedError> {
        let xs = [x];
        let mut st = self.begin(&xs)?;
        self.offer(&mut st, &xs, &mut Progress::default())
            .unwrap_or(Err(FeedError::Full))
    }

    /// Push a chunk of inputs in order, parking whenever the queue fills
    /// mid-chunk. On an error, `pushed` inputs of this call were enqueued
    /// (and will be consumed); the rest were not.
    pub fn push_batch(&mut self, xs: &[In]) -> Result<(), FeedError> {
        let mut st = self.begin(xs)?;
        let mut call = Progress::default();
        loop {
            if let Some(done) = self.offer(&mut st, xs, &mut call) {
                return done;
            }
            st.stall(&mut call);
            st = Ring::wait(&self.ring.not_full, st);
        }
    }

    /// Async push: resolves once the input is enqueued, awaiting
    /// capacity instead of blocking the thread.
    pub fn push_async(&mut self, x: In) -> AsyncPush<'_, In> {
        AsyncPush {
            feed: self,
            x,
            call: Progress::default(),
        }
    }

    /// Async chunk push; see [`push_async`](Self::push_async). The
    /// chunk is enqueued in order, possibly across several polls.
    pub fn push_batch_async<'a>(&'a mut self, xs: &'a [In]) -> AsyncPushBatch<'a, In> {
        AsyncPushBatch {
            feed: self,
            xs,
            call: Progress::default(),
        }
    }

    /// Close the feed: the worker drains what was pushed, finishes the
    /// feed's final (possibly partial) round, and stops expecting data.
    /// Idempotent; also performed on drop. Pushing after a close is a
    /// typed [`FeedError::Closed`].
    pub fn close(&mut self) {
        self.ring.close();
    }

    /// Open a push call: validate the whole chunk (before taking the
    /// lock), then check the feed is open. A closed feed outranks a
    /// rejected deletion.
    fn begin(&self, xs: &[In]) -> Result<MutexGuard<'_, Shared<In>>, FeedError> {
        let deletion = if self.deletions_ok {
            None
        } else {
            xs.iter().position(|x| x.delta_of() < 0)
        };
        let st = self.ring.lock();
        if st.closed {
            Err(FeedError::Closed { pushed: 0 })
        } else if let Some(at) = deletion {
            Err(FeedError::DeletionUnsupported { at })
        } else {
            Ok(st)
        }
    }

    /// One step of a push call, under the lock: land as much of the rest
    /// of `xs` as fits right now (two slice copies) and charge it. `Some`
    /// once the call is over — everything landed, or the feed was closed
    /// under it (engine teardown; the landed prefix is consumed like any
    /// other inputs, so it is charged like any other inputs); `None`
    /// while inputs are left and the queue is full.
    fn offer(
        &self,
        st: &mut Shared<In>,
        xs: &[In],
        call: &mut Progress,
    ) -> Option<Result<(), FeedError>> {
        if st.closed {
            st.end_frame(call.pushed);
            return Some(Err(FeedError::Closed {
                pushed: call.pushed,
            }));
        }
        let rest = &xs[call.pushed..];
        let n = rest.len().min(self.ring.cap - st.queue.len());
        if n > 0 {
            st.queue.extend(&rest[..n]);
            let frame = FeedFrame::for_chunk(self.feed, n, In::WORDS);
            st.stats.items += frame.items as u64;
            st.stats.words += frame.words as u64;
            call.pushed += n;
            self.ring.not_empty.notify_one();
        }
        if call.pushed < xs.len() {
            return None;
        }
        st.end_frame(call.pushed);
        Some(Ok(()))
    }

    /// One poll of an async push. Ledger semantics match the sync calls:
    /// inputs are charged as they land (across polls), the frame when the
    /// call is over, and a call that ever suspends is one push stall.
    /// The waker is registered under the same lock the consumer pops
    /// under, so a pop cannot slip between the failed offer and the
    /// registration.
    fn poll_push(
        &mut self,
        cx: &mut Context<'_>,
        xs: &[In],
        call: &mut Progress,
    ) -> Poll<Result<(), FeedError>> {
        let mut st = if call.pushed == 0 {
            match self.begin(xs) {
                Ok(st) => st,
                Err(e) => return Poll::Ready(Err(e)),
            }
        } else {
            self.ring.lock()
        };
        match self.offer(&mut st, xs, call) {
            Some(done) => Poll::Ready(done),
            None => {
                st.stall(call);
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl<In: Copy> Drop for ShardFeed<In> {
    fn drop(&mut self) {
        self.ring.close();
    }
}

/// Future of [`ShardFeed::push_async`].
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct AsyncPush<'a, In: Copy> {
    feed: &'a mut ShardFeed<In>,
    x: In,
    call: Progress,
}

/// Future of [`ShardFeed::push_batch_async`].
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct AsyncPushBatch<'a, In: Copy> {
    feed: &'a mut ShardFeed<In>,
    xs: &'a [In],
    call: Progress,
}

// The futures hold no self-references (the input is plain `Copy` data and
// the feed a normal `&mut`), so they are always Unpin even when `In`
// itself is not.
impl<In: Copy> Unpin for AsyncPush<'_, In> {}
impl<In: Copy> Unpin for AsyncPushBatch<'_, In> {}

impl<In: InputDelta> Future for AsyncPush<'_, In> {
    type Output = Result<(), FeedError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.feed.poll_push(cx, &[this.x], &mut this.call)
    }
}

impl<In: InputDelta> Future for AsyncPushBatch<'_, In> {
    type Output = Result<(), FeedError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.feed.poll_push(cx, this.xs, &mut this.call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::task::Wake;
    use std::time::Duration;

    fn feed_pair(cap: usize) -> (ShardFeed<i64>, Arc<Ring<i64>>) {
        let ring = Arc::new(Ring::new(cap));
        let feed = ShardFeed::new(Arc::clone(&ring), 0, 0, 0, true);
        (feed, ring)
    }

    /// The caller-side spin a producer that must not park writes:
    /// `try_push`, yielding while the queue is full.
    fn push_yielding(feed: &mut ShardFeed<i64>, x: i64) -> Result<(), FeedError> {
        loop {
            match feed.try_push(x) {
                Err(FeedError::Full) => std::thread::yield_now(),
                done => return done,
            }
        }
    }

    #[test]
    fn ring_roundtrips_in_order_across_wraparound() {
        let (mut feed, ring) = feed_pair(7);
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for chunk in 0..40 {
            let xs: Vec<i64> = (0..5).map(|i| chunk * 100 + i).collect();
            feed.push_batch(&xs).unwrap();
            expect.extend_from_slice(&xs);
            let want = out.len() + 5;
            ring.pop_round(&mut out, want);
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn a_feed_state_delivers_whole_rounds_then_its_final_one_once() {
        for (len, rounds) in [(5usize, vec![2, 2, 1]), (4, vec![2, 2]), (0, vec![])] {
            let (mut feed, ring) = feed_pair(8);
            let xs: Vec<i64> = (0..len as i64).collect();
            feed.push_batch(&xs).unwrap();
            feed.close();
            let mut state = FeedState::new(ring, 3);
            let mut got = Vec::new();
            while let Some((site, round)) = state.next_round(2) {
                assert_eq!(site, 3);
                got.push(round.len());
            }
            assert_eq!(got, rounds, "{len} inputs");
            assert_eq!(state.next_round(2), None, "done stays done");
        }
    }

    #[test]
    fn error_policy_reports_full_with_partial_progress() {
        // Fail-fast is the caller's policy: push what the queue admits,
        // and `try_push` reports Full, with nothing enqueued, past that.
        let (mut feed, ring) = feed_pair(4);
        let xs = [1i64, 2, 3, 4, 5, 6];
        let room = feed.capacity() - feed.occupancy() as usize;
        assert_eq!(feed.push_batch(&xs[..room]), Ok(()));
        assert_eq!(feed.try_push(xs[room]), Err(FeedError::Full));
        assert_eq!(feed.try_push(9), Err(FeedError::Full));
        assert_eq!(feed.occupancy(), 4);
        let mut out = Vec::new();
        ring.pop_round(&mut out, 2);
        assert_eq!(out, vec![1, 2]);
        // Space again: the remainder can be re-offered by the caller.
        assert_eq!(feed.try_push(5), Ok(()));
        assert_eq!(feed.push_batch(&[6]), Ok(()));
        ring.pop_round(&mut out, 6);
        assert_eq!(out, xs);
        // A refused input is neither a frame nor a stall.
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!((stats.frames, stats.items, stats.push_stalls), (3, 6, 0));
    }

    #[test]
    fn push_after_close_is_a_typed_error() {
        let (mut feed, ring) = feed_pair(4);
        feed.push(42).unwrap();
        feed.close();
        feed.close(); // idempotent
        assert_eq!(feed.push(1), Err(FeedError::Closed { pushed: 0 }));
        assert_eq!(
            feed.push_batch(&[1, 2]),
            Err(FeedError::Closed { pushed: 0 })
        );
        let mut out = Vec::new();
        ring.pop_round(&mut out, 10);
        assert_eq!(out, vec![42], "data pushed before the close is drained");
    }

    #[test]
    fn deletions_are_rejected_for_insert_only_feeds() {
        let ring = Arc::new(Ring::new(8));
        let mut feed: ShardFeed<i64> = ShardFeed::new(Arc::clone(&ring), 0, 0, 0, false);
        assert_eq!(
            feed.push_batch(&[1, 1, -1, 1]),
            Err(FeedError::DeletionUnsupported { at: 2 })
        );
        // Nothing was enqueued: the chunk is validated before transport.
        assert_eq!(ring.occupancy(), 0);
        assert_eq!(feed.push(-3), Err(FeedError::DeletionUnsupported { at: 0 }));
    }

    #[test]
    fn closing_mid_chunk_charges_the_enqueued_prefix() {
        // A producer parked mid-chunk when the ring is force-closed
        // (engine teardown) reports Closed with the landed prefix — and
        // that prefix is charged to the ledger, since consumed inputs and
        // charged inputs must agree. Nothing drained them here, so
        // teardown surfaces them as dropped.
        let (mut feed, ring) = feed_pair(4);
        std::thread::scope(|scope| {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ring.close();
            });
            let err = feed.push_batch(&[1i64; 10]).unwrap_err();
            assert_eq!(err, FeedError::Closed { pushed: 4 });
        });
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.push_stalls, 1);
        assert_eq!(stats.dropped, 4);
    }

    #[test]
    fn block_policy_hands_off_across_threads() {
        let (mut feed, ring) = feed_pair(8);
        let n = 10_000i64;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..n {
                    feed.push(i).unwrap();
                }
                // Drop closes.
            });
            let mut out = Vec::new();
            ring.pop_round(&mut out, n as usize + 5);
            assert_eq!(out.len(), n as usize);
            assert!(out.iter().copied().eq(0..n));
            assert!(ring.is_closed());
        });
    }

    /// A producer that yields instead of parking hands off just the same.
    #[test]
    fn yield_policy_hands_off_across_threads() {
        let (mut feed, ring) = feed_pair(3);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for x in 0..500 {
                    push_yielding(&mut feed, x).unwrap();
                }
            });
            let mut out = Vec::new();
            ring.pop_round(&mut out, 500);
            assert!(out.iter().copied().eq(0..500));
        });
    }

    #[test]
    fn ledger_counters_reach_the_engine_ledger() {
        let (mut feed, ring) = feed_pair(16);
        feed.push_batch(&[1, 2, 3]).unwrap();
        feed.push(4).unwrap();
        let mut out = Vec::new();
        ring.pop_round(&mut out, 4);
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.words, 4); // i64 inputs: one word each
        assert_eq!(stats.occupancy_samples, 2);
        assert_eq!(stats.high_water, 4); // after the 4th input landed
        assert_eq!(stats.push_stalls, 0);
    }

    /// A parked consumer sleeps until it is notified: no timed wait, no
    /// polling. (A 100 µs timed wait would wake ~3,000 times here.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_parked_consumer_does_not_poll() {
        fn voluntary_switches() -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("no voluntary_ctxt_switches line");
            line.trim().parse().unwrap()
        }
        let (mut feed, ring) = feed_pair(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let before = voluntary_switches();
                let mut out = Vec::new();
                ring.pop_round(&mut out, 1);
                (out, voluntary_switches() - before)
            });
            std::thread::sleep(Duration::from_millis(300));
            feed.push(7).unwrap();
            let (out, switches) = consumer.join().unwrap();
            assert_eq!(out, vec![7]);
            assert!(
                switches < 50,
                "a consumer parked for 300 ms switched {switches} times"
            );
        });
    }

    /// Close and push serialize on the lock: whatever `push_batch` or
    /// `try_push` acknowledges (`Ok`, or `pushed` in an error) is popped
    /// or counted as dropped, and a call that starts after `close()` has
    /// returned acknowledges nothing.
    #[test]
    fn a_close_racing_pushes_never_loses_or_invents_an_input() {
        for i in 0..10_000usize {
            let (mut feed, ring) = feed_pair(8);
            let close_returned = AtomicBool::new(false);
            let mut out = Vec::new();
            let acked = std::thread::scope(|scope| {
                let producer = scope.spawn(|| {
                    let mut acked = 0usize;
                    loop {
                        let late = close_returned.load(Ordering::SeqCst);
                        let xs: Vec<i64> = (acked as i64..acked as i64 + 5).collect();
                        // Odd iterations fail fast instead of parking.
                        let pushed = if i % 2 == 0 {
                            feed.push_batch(&xs)
                        } else {
                            feed.try_push(xs[0])
                        };
                        let (landed, over) = match pushed {
                            Ok(()) if i % 2 == 0 => (xs.len(), false),
                            Ok(()) => (1, false),
                            Err(FeedError::Full) => (0, false),
                            Err(FeedError::Closed { pushed }) => (pushed, true),
                            Err(e) => panic!("unexpected feed error: {e}"),
                        };
                        assert!(
                            !late || landed == 0,
                            "{landed} inputs acknowledged after close() returned"
                        );
                        acked += landed;
                        if over {
                            return acked;
                        }
                    }
                });
                ring.pop_round(&mut out, i % 7);
                ring.close();
                close_returned.store(true, Ordering::SeqCst);
                producer.join().unwrap()
            });
            let mut stats = IngestStats::new();
            ring.drain_stats(&mut stats);
            assert_eq!(stats.items, acked as u64);
            assert_eq!(out.len() as u64 + stats.dropped, acked as u64);
            ring.pop_round(&mut out, usize::MAX);
            assert!(out.iter().copied().eq(0..acked as i64), "iteration {i}");
        }
    }

    /// The tightest queue there is: every input is its own handoff, for a
    /// producer that parks and for one that yields.
    #[test]
    fn capacity_one_preserves_order_under_block_and_yield() {
        for yielding in [false, true] {
            let n = 100_000i64;
            let (mut feed, ring) = feed_pair(1);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let xs: Vec<i64> = (0..n).collect();
                    let (singles, chunks) = xs.split_at(1_000);
                    for &x in singles {
                        feed.push(x).unwrap();
                    }
                    for chunk in chunks.chunks(4_999) {
                        if yielding {
                            for &x in chunk {
                                push_yielding(&mut feed, x).unwrap();
                            }
                        } else {
                            feed.push_batch(chunk).unwrap();
                        }
                    }
                });
                let mut out = Vec::new();
                ring.pop_round(&mut out, n as usize + 1);
                assert!(out.iter().copied().eq(0..n), "yielding = {yielding}");
            });
            let mut stats = IngestStats::new();
            ring.drain_stats(&mut stats);
            assert_eq!(stats.items, n as u64, "yielding = {yielding}");
            assert_eq!(stats.high_water, 1);
            assert_eq!(stats.dropped, 0);
        }
    }

    /// A pending async push is woken by the consumer's pop and by the
    /// close, with no executor in the picture: the waker only counts.
    #[test]
    fn a_pending_async_push_is_woken_by_a_pop_and_by_close() {
        struct CountWakes(AtomicUsize);
        impl Wake for CountWakes {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let wakes = Arc::new(CountWakes(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        let woken = || wakes.0.load(Ordering::SeqCst);

        let (mut feed, ring) = feed_pair(2);
        let xs = [1i64, 2, 3, 4, 5];
        let mut fut = feed.push_batch_async(&xs);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(woken(), 0);
        let mut out = Vec::new();
        ring.pop_round(&mut out, 1);
        assert_eq!(woken(), 1, "a pop wakes the pending producer");
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(woken(), 1);
        ring.close();
        assert_eq!(woken(), 2, "a close wakes the pending producer");
        assert_eq!(
            Pin::new(&mut fut).poll(&mut cx),
            Poll::Ready(Err(FeedError::Closed { pushed: 3 }))
        );
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!((stats.items, stats.frames, stats.push_stalls), (3, 1, 1));
        assert_eq!(stats.dropped, 2);
    }
}

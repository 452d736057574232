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
//! The queue is a plain monitor on `std` primitives: a `VecDeque` of
//! rounds, the closed flag, the ledger and the parked async producer's
//! waker live under **one** mutex, every condition is checked and changed
//! under it, and the two waits (producer on a full queue, consumer on a
//! round that has not landed) are untimed `Condvar` waits — an idle feed
//! costs nothing. Each entry of the deque is one round's buffer: a push
//! is cut at the feed's round boundaries (every `batch` inputs landed)
//! and each piece is appended to the round it belongs to, so an input is
//! copied once, from the producer's slice into its round's buffer. The
//! worker takes a whole round (or, once the feed has closed, its final
//! short one) by moving the buffer out under the lock and runs it in
//! place; the buffer it ran before goes back as the spare the producer
//! opens its next round in. DESIGN.md §7 has the measurements. Because
//! close and push serialize on the lock, an input is never acknowledged
//! behind a close.
//!
//! ## Full queues
//!
//! On a full queue, [`ShardFeed::push`] and [`ShardFeed::push_batch`]
//! park until the worker takes a round, so a feed that outruns its shard
//! is slowed to the shard's pace; [`ShardFeed::try_push`] fails fast with
//! [`FeedError::Full`] so the caller can shed or reroute load; the async
//! pushes await space. Stalls, waits, and queue occupancy are charged to
//! the engine's [`IngestStats`] ledger; the traffic itself is accounted
//! as [`FeedFrame`]s in the model's word currency.
//!
//! ## Ordering discipline
//!
//! Every queue holds `2 × batch` inputs: a feed can stage two rounds
//! while the worker runs the one it took. A single thread feeding
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
//! round's buffer, unchanged, to the shard tracker's `update_run` — the
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
    /// Landed rounds, oldest first: every entry holds exactly `batch`
    /// inputs but the back one, which is the round still landing.
    rounds: VecDeque<Vec<T>>,
    /// An empty buffer the consumer handed back, where the producer opens
    /// its next round.
    spare: Option<Vec<T>>,
    closed: bool,
    /// The producer's waker while an async push is pending on a full
    /// queue; taken (and woken) by the next take or by the close.
    waker: Option<Waker>,
    /// The ring's ledger, `dropped` excepted ([`Ring::drain_stats`]
    /// reads it off the queue at teardown).
    stats: IngestStats,
}

impl<T: Copy> Shared<T> {
    /// Inputs resident: landed and not yet taken.
    fn len(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Append `xs` at the back, cut at round boundaries: a piece extends
    /// the back round while it is short of `batch`, and otherwise opens a
    /// new round in the spare (or a fresh buffer). True if a round became
    /// whole, which is all a waiting consumer can use.
    fn land(&mut self, mut xs: &[T], batch: usize) -> bool {
        let mut whole = false;
        while !xs.is_empty() {
            let back = match self.rounds.back_mut() {
                Some(back) if back.len() < batch => back,
                _ => {
                    let buf = self.spare.take().unwrap_or_default();
                    self.rounds.push_back(buf);
                    self.rounds.back_mut().expect("just pushed")
                }
            };
            let (piece, rest) = xs.split_at(xs.len().min(batch - back.len()));
            back.reserve_exact(batch - back.len());
            back.extend_from_slice(piece);
            whole |= back.len() == batch;
            xs = rest;
        }
        whole
    }

    /// Count the frame of a push call that is over (completed, or cut
    /// short by a close) after landing `pushed` inputs,
    /// and sample occupancy: resident items once the frame has landed —
    /// the queue depth a new arrival would see behind it. A call that
    /// landed nothing is no frame.
    fn end_frame(&mut self, pushed: usize) {
        if pushed > 0 {
            let occupancy = self.len() as u64;
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

/// The bounded SPSC queue of one feed's rounds. One producer (a
/// [`ShardFeed`]) and one consumer (the owning worker's [`FeedState`]) —
/// the discipline is enforced by handle ownership, not checked at runtime.
///
/// A monitor: all state is in [`Shared`] behind `shared`, a producer out
/// of space waits on `not_full`, a consumer short of a whole round on
/// `not_empty`, and whoever changes the condition notifies while still
/// holding the lock — so a wakeup cannot be lost and no wait needs a
/// timeout.
pub(crate) struct Ring<T: Copy> {
    batch: usize,
    shared: Mutex<Shared<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T: Copy> Ring<T> {
    /// A ring of `batch`-input rounds holding up to two of them.
    pub(crate) fn new(batch: usize) -> Self {
        assert!(batch > 0, "ring batch must be positive (validated)");
        Ring {
            batch,
            shared: Mutex::new(Shared {
                rounds: VecDeque::with_capacity(3),
                spare: None,
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

    /// The queue's capacity in inputs: two rounds.
    fn cap(&self) -> usize {
        2 * self.batch
    }

    fn occupancy(&self) -> u64 {
        self.lock().len() as u64
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

    /// Consumer-only: swap the next round into `round`, waiting until it
    /// is whole or the feed has closed (then it may be short, or empty
    /// once everything is taken). The buffer `round` held goes back as
    /// the producer's spare.
    fn take_round(&self, round: &mut Vec<T>) {
        let mut st = self.lock();
        let mut waited = false;
        while !st.closed && st.rounds.front().is_none_or(|r| r.len() < self.batch) {
            if !waited {
                waited = true;
                st.stats.pop_waits += 1;
            }
            st = Self::wait(&self.not_empty, st);
        }
        let mut ran = std::mem::replace(round, st.rounds.pop_front().unwrap_or_default());
        if round.is_empty() {
            return;
        }
        if st.spare.is_none() {
            if ran.capacity() == 0 {
                // The first take: map the spare in here, on the worker's
                // thread, so the producer (the critical path) does not
                // fault in a third buffer of its own.
                ran.resize(self.batch, round[0]);
            }
            ran.clear();
            st.spare = Some(ran);
        }
        self.not_full.notify_one();
        let waker = st.waker.take();
        // Woken outside the lock: a waker may poll inline.
        drop(st);
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Fold this ring's counters into an engine-level ledger (called
    /// after the run, once the workers have exited). Inputs still
    /// resident — the consumer stopped before taking them — are
    /// surfaced as `dropped` rather than silently vanishing.
    pub(crate) fn drain_stats(&self, into: &mut IngestStats) {
        let st = self.lock();
        into.merge(&IngestStats {
            dropped: st.len() as u64,
            ..st.stats.clone()
        });
    }
}

impl<T: Copy> std::fmt::Debug for Ring<T> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        fm.debug_struct("Ring")
            .field("cap", &self.cap())
            .field("occupancy", &st.len())
            .field("closed", &st.closed)
            .finish()
    }
}

/// One feed of a pipelined call as its shard's worker drains it: the
/// consumer end of the feed's ring, the site its inputs belong to, the
/// round it last took, and whether the feed has delivered its final
/// (short or empty) round.
pub(crate) struct FeedState<T: Copy> {
    ring: Arc<Ring<T>>,
    site: SiteId,
    round: Vec<T>,
    done: bool,
}

impl<T: Copy> FeedState<T> {
    pub(crate) fn new(ring: Arc<Ring<T>>, site: SiteId) -> Self {
        FeedState {
            ring,
            site,
            round: Vec::new(),
            done: false,
        }
    }

    /// The feed's next round: its site and `batch` inputs, fewer only in
    /// its final round, and `None` once that has been delivered. Waits
    /// until the producer lands the whole round or closes the feed, so a
    /// lagging feed stalls only the worker draining it. The slice is the
    /// buffer the producer landed the round in.
    pub(crate) fn next_round(&mut self) -> Option<(SiteId, &[T])> {
        if self.done {
            return None;
        }
        self.ring.take_round(&mut self.round);
        self.done = self.round.len() < self.ring.batch;
        (!self.round.is_empty()).then_some((self.site, &self.round))
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
        self.ring.cap()
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
    /// of `xs` as fits right now, round by round, and charge it. `Some`
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
        let n = rest.len().min(self.ring.cap() - st.len());
        if n > 0 {
            if st.land(&rest[..n], self.ring.batch) {
                self.ring.not_empty.notify_one();
            }
            let frame = FeedFrame::for_chunk(self.feed, n, In::WORDS);
            st.stats.items += frame.items as u64;
            st.stats.words += frame.words as u64;
            call.pushed += n;
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
    /// The waker is registered under the same lock the consumer takes
    /// rounds under, so a take cannot slip between the failed offer and
    /// the registration.
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

    /// A feed over a ring of `batch`-input rounds (capacity `2 × batch`),
    /// and the ring.
    fn feed_pair(batch: usize) -> (ShardFeed<i64>, Arc<Ring<i64>>) {
        let ring = Arc::new(Ring::new(batch));
        let feed = ShardFeed::new(Arc::clone(&ring), 0, 0, 0, true);
        (feed, ring)
    }

    /// The consumer end of `ring`, as its shard's worker holds it.
    fn consumer(ring: &Arc<Ring<i64>>) -> FeedState<i64> {
        FeedState::new(Arc::clone(ring), 0)
    }

    /// Take up to `rounds` rounds (fewer once the feed has delivered its
    /// final one), appending their inputs to `out`.
    fn take(state: &mut FeedState<i64>, rounds: usize, out: &mut Vec<i64>) {
        for _ in 0..rounds {
            let Some((_, round)) = state.next_round() else {
                return;
            };
            out.extend_from_slice(round);
        }
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
        // Chunks of 4 into rounds of 3: chunks straddle rounds, and the
        // round deque wraps many times over.
        let (mut feed, ring) = feed_pair(3);
        let mut state = consumer(&ring);
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for chunk in 0..40 {
            let xs: Vec<i64> = (0..4).map(|i| chunk * 100 + i).collect();
            feed.push_batch(&xs).unwrap();
            expect.extend_from_slice(&xs);
            let whole = feed.occupancy() as usize / 3;
            take(&mut state, whole, &mut out);
        }
        feed.close();
        take(&mut state, usize::MAX, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn a_feed_state_delivers_whole_rounds_then_its_final_one_once() {
        for (len, rounds) in [(5usize, vec![3, 2]), (6, vec![3, 3]), (0, vec![])] {
            let (mut feed, ring) = feed_pair(3);
            let xs: Vec<i64> = (0..len as i64).collect();
            feed.push_batch(&xs).unwrap();
            feed.close();
            let mut state = FeedState::new(ring, 3);
            let mut got = Vec::new();
            while let Some((site, round)) = state.next_round() {
                assert_eq!(site, 3);
                got.push(round.len());
            }
            assert_eq!(got, rounds, "{len} inputs");
            assert_eq!(state.next_round(), None, "done stays done");
        }
    }

    #[test]
    fn a_push_straddling_a_round_boundary_is_delivered_as_two_whole_rounds() {
        let (mut feed, ring) = feed_pair(4);
        let mut state = consumer(&ring);
        feed.push_batch(&[1, 2]).unwrap();
        feed.push_batch(&[3, 4, 5, 6]).unwrap();
        feed.push_batch(&[7, 8]).unwrap();
        assert_eq!(ring.lock().rounds.len(), 2, "the middle push was cut");
        assert_eq!(state.next_round(), Some((0, &[1i64, 2, 3, 4][..])));
        assert_eq!(state.next_round(), Some((0, &[5i64, 6, 7, 8][..])));
        feed.close();
        assert_eq!(state.next_round(), None);
    }

    #[test]
    fn single_pushes_coalesce_into_one_buffer_per_round() {
        let (mut feed, ring) = feed_pair(4);
        let mut state = consumer(&ring);
        for x in 0..7 {
            feed.push(x).unwrap();
        }
        let lens: Vec<usize> = ring.lock().rounds.iter().map(Vec::len).collect();
        assert_eq!(lens, [4, 3]);
        assert_eq!(state.next_round(), Some((0, &[0i64, 1, 2, 3][..])));
        feed.push(7).unwrap();
        let ran = state.next_round().unwrap().1.as_ptr();
        // The next round lands in the spare the first take mapped; the one
        // after it in the buffer the worker has run since.
        feed.push_batch(&[8, 9, 10, 11]).unwrap();
        assert_eq!(state.next_round(), Some((0, &[8i64, 9, 10, 11][..])));
        feed.push(12).unwrap();
        assert_eq!(ring.lock().rounds[0].as_ptr(), ran);
    }

    #[test]
    fn inputs_landed_but_never_taken_show_as_dropped() {
        // A whole round and a short one land; the worker takes the first
        // and the run tears down: the untaken rest is dropped, not lost.
        let (mut feed, ring) = feed_pair(4);
        let mut state = consumer(&ring);
        feed.push_batch(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(state.next_round().unwrap().1.len(), 4);
        drop(feed);
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!((stats.items, stats.dropped), (7, 3));
        // Two whole rounds nobody took.
        let (mut feed, ring) = feed_pair(4);
        feed.push_batch(&[1; 8]).unwrap();
        ring.close();
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!((stats.items, stats.dropped), (8, 8));
    }

    #[test]
    fn error_policy_reports_full_with_partial_progress() {
        // Fail-fast is the caller's policy: push what the queue admits,
        // and `try_push` reports Full, with nothing enqueued, past that.
        let (mut feed, ring) = feed_pair(2);
        let mut state = consumer(&ring);
        let xs = [1i64, 2, 3, 4, 5, 6];
        let room = feed.capacity() - feed.occupancy() as usize;
        assert_eq!(feed.push_batch(&xs[..room]), Ok(()));
        assert_eq!(feed.try_push(xs[room]), Err(FeedError::Full));
        assert_eq!(feed.try_push(9), Err(FeedError::Full));
        assert_eq!(feed.occupancy(), 4);
        let mut out = Vec::new();
        take(&mut state, 1, &mut out);
        assert_eq!(out, vec![1, 2]);
        // Space again: the remainder can be re-offered by the caller.
        assert_eq!(feed.try_push(5), Ok(()));
        assert_eq!(feed.push_batch(&[6]), Ok(()));
        take(&mut state, 2, &mut out);
        assert_eq!(out, xs);
        // A refused input is neither a frame nor a stall.
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!((stats.frames, stats.items, stats.push_stalls), (3, 6, 0));
    }

    #[test]
    fn push_after_close_is_a_typed_error() {
        let (mut feed, ring) = feed_pair(2);
        feed.push(42).unwrap();
        feed.close();
        feed.close(); // idempotent
        assert_eq!(feed.push(1), Err(FeedError::Closed { pushed: 0 }));
        assert_eq!(
            feed.push_batch(&[1, 2]),
            Err(FeedError::Closed { pushed: 0 })
        );
        let mut out = Vec::new();
        take(&mut consumer(&ring), usize::MAX, &mut out);
        assert_eq!(out, vec![42], "data pushed before the close is drained");
    }

    #[test]
    fn deletions_are_rejected_for_insert_only_feeds() {
        let ring = Arc::new(Ring::new(4));
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
        let (mut feed, ring) = feed_pair(2);
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
        let (mut feed, ring) = feed_pair(4);
        let n = 10_000i64;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..n {
                    feed.push(i).unwrap();
                }
                // Drop closes.
            });
            let mut out = Vec::new();
            take(&mut consumer(&ring), usize::MAX, &mut out);
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
            take(&mut consumer(&ring), usize::MAX, &mut out);
            assert!(out.iter().copied().eq(0..500));
        });
    }

    #[test]
    fn ledger_counters_reach_the_engine_ledger() {
        let (mut feed, ring) = feed_pair(8);
        feed.push_batch(&[1, 2, 3]).unwrap();
        feed.push(4).unwrap();
        feed.close();
        let mut out = Vec::new();
        take(&mut consumer(&ring), usize::MAX, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.words, 4); // i64 inputs: one word each
        assert_eq!(stats.occupancy_samples, 2);
        assert_eq!(stats.high_water, 4); // after the 4th input landed
        assert_eq!(stats.push_stalls, 0);
        assert_eq!(stats.dropped, 0);
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
        let (mut feed, ring) = feed_pair(1);
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || {
                let before = voluntary_switches();
                let mut out = Vec::new();
                take(&mut consumer(&ring), 1, &mut out);
                (out, voluntary_switches() - before)
            });
            std::thread::sleep(Duration::from_millis(300));
            feed.push(7).unwrap();
            let (out, switches) = parked.join().unwrap();
            assert_eq!(out, vec![7]);
            assert!(
                switches < 50,
                "a consumer parked for 300 ms switched {switches} times"
            );
        });
    }

    /// Close and push serialize on the lock: whatever `push_batch` or
    /// `try_push` acknowledges (`Ok`, or `pushed` in an error) is taken
    /// or counted as dropped, and a call that starts after `close()` has
    /// returned acknowledges nothing.
    #[test]
    fn a_close_racing_pushes_never_loses_or_invents_an_input() {
        for i in 0..10_000usize {
            let (mut feed, ring) = feed_pair(4);
            let mut state = consumer(&ring);
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
                take(&mut state, i % 4, &mut out);
                ring.close();
                close_returned.store(true, Ordering::SeqCst);
                producer.join().unwrap()
            });
            let mut stats = IngestStats::new();
            ring.drain_stats(&mut stats);
            assert_eq!(stats.items, acked as u64);
            assert_eq!(out.len() as u64 + stats.dropped, acked as u64);
            take(&mut state, usize::MAX, &mut out);
            assert!(out.iter().copied().eq(0..acked as i64), "iteration {i}");
        }
    }

    /// The tightest queue there is, rounds of one input: every input is
    /// its own handoff, for a producer that parks and for one that yields.
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
                take(&mut consumer(&ring), usize::MAX, &mut out);
                assert!(out.iter().copied().eq(0..n), "yielding = {yielding}");
            });
            let mut stats = IngestStats::new();
            ring.drain_stats(&mut stats);
            assert_eq!(stats.items, n as u64, "yielding = {yielding}");
            assert!(stats.high_water <= 2, "two rounds of one at most");
            assert_eq!(stats.dropped, 0);
        }
    }

    /// A pending async push is woken by the consumer's take and by the
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

        let (mut feed, ring) = feed_pair(1);
        let mut state = consumer(&ring);
        let xs = [1i64, 2, 3, 4, 5];
        let mut fut = feed.push_batch_async(&xs);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(woken(), 0);
        assert_eq!(state.next_round(), Some((0, &[1i64][..])));
        assert_eq!(woken(), 1, "a take wakes the pending producer");
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

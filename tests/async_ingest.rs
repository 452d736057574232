//! Async pushes: `ShardFeed::push_async` / `push_batch_async` futures
//! await queue capacity instead of blocking, resolve on any executor
//! (driven here by a hand-rolled parker `block_on` — no runtime
//! dependency), and land bit-identically on the synchronous pipelined
//! path.

use dsv::prelude::*;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Minimal single-future executor: park the thread until woken.
struct Parker(Thread);

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(Parker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

fn spec(k: usize) -> TrackerSpec {
    TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.1)
        .deletions(true)
}

#[test]
fn async_pushes_match_the_sync_pipelined_path_bit_for_bit() {
    let k = 3;
    let feeds: Vec<Vec<i64>> = (0..k)
        .map(|s| {
            (0..4_000)
                .map(|i| if (i + s) % 5 == 0 { -1 } else { 1 })
                .collect()
        })
        .collect();
    let sites: Vec<usize> = (0..k).collect();
    // Batch 32: 64-slot queues that the 37-input chunks overrun.
    let cfg = EngineConfig::new(k, 32);

    let mut sync_engine = ShardedEngine::counters(spec(k), cfg).unwrap();
    sync_engine
        .run_pipelined(&sites, |handles| {
            std::thread::scope(|s| {
                for (mut handle, data) in handles.into_iter().zip(&feeds) {
                    s.spawn(move || handle.push_batch(data).unwrap());
                }
            });
        })
        .unwrap();

    let mut async_engine = ShardedEngine::counters(spec(k), cfg).unwrap();
    let report = async_engine
        .run_pipelined(&sites, |handles| {
            std::thread::scope(|s| {
                for (mut handle, data) in handles.into_iter().zip(&feeds) {
                    // Each producer drives its future to completion on its
                    // own thread; the future suspends (Pending) whenever
                    // the 64-slot queue is full and resumes when the
                    // worker drains — backpressure by await.
                    s.spawn(move || {
                        block_on(async {
                            for &x in &data[..10] {
                                handle.push_async(x).await.unwrap();
                            }
                            for chunk in data[10..].chunks(37) {
                                handle.push_batch_async(chunk).await.unwrap();
                            }
                        })
                    });
                }
            });
        })
        .unwrap();

    assert_eq!(async_engine.estimate(), sync_engine.estimate());
    assert_eq!(
        async_engine.shard_estimates(),
        sync_engine.shard_estimates()
    );
    assert_eq!(async_engine.tracker_stats(), sync_engine.tracker_stats());
    assert_eq!(async_engine.merge_stats(), sync_engine.merge_stats());
    assert_eq!(report.ingest_stats.items, (k * 4_000) as u64);
    assert!(report.ingest_stats.high_water <= 64);
}

#[test]
fn async_push_singles_and_typed_errors() {
    let mut engine = ShardedEngine::counters(spec(1), EngineConfig::new(1, 8)).unwrap();
    let report = engine
        .run_pipelined(&[0], |mut handles| {
            let mut h = handles.pop().unwrap();
            block_on(async {
                for _ in 0..50 {
                    h.push_async(1).await.unwrap();
                }
                h.close();
                assert_eq!(h.push_async(1).await, Err(FeedError::Closed { pushed: 0 }));
                assert_eq!(
                    h.push_batch_async(&[1, 2]).await,
                    Err(FeedError::Closed { pushed: 0 })
                );
            });
        })
        .unwrap();
    assert_eq!(report.final_f, 50);
    assert_eq!(report.n, 50);

    // Insert-only kinds reject deletions at the async boundary too.
    let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(1).eps(0.1);
    let mut engine = ShardedEngine::counters(cmy, EngineConfig::new(1, 8)).unwrap();
    engine
        .run_pipelined(&[0], |mut handles| {
            let mut h = handles.pop().unwrap();
            block_on(async {
                assert_eq!(
                    h.push_batch_async(&[1, -1]).await,
                    Err(FeedError::DeletionUnsupported { at: 1 })
                );
                h.push_async(1).await.unwrap();
            });
        })
        .unwrap();
    assert_eq!(engine.estimate(), 1);
}

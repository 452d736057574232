//! The pipelined-ingestion contract (ISSUE 5): for every `TrackerKind`,
//! `ShardedEngine::run_pipelined` — bounded per-feed queues, concurrent
//! feeder/worker/coordinator — produces **bit-identical** estimates,
//! per-shard replica states, and `CommStats` ledgers (tracker and merge
//! alike) to `run_parted` over the same per-site feeds: the boundary cut
//! is the same, only the execution overlaps. Plus the backpressure edge
//! cases: feeds closed mid-batch, typed push-after-close errors, the
//! tightest queue, and fail-fast load shedding through `try_push`.

use dsv::net::{ItemUpdate, Update};
use dsv::prelude::*;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn counter_stream(seed: u64, n: u64, k: usize, deletions: bool) -> Vec<Update> {
    let mut s = seed;
    (1..=n)
        .map(|t| {
            let site = lcg(&mut s) as usize % k;
            let delta = if deletions && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            Update::new(t, site, delta)
        })
        .collect()
}

fn item_stream(seed: u64, n: u64, k: usize, universe: u64) -> Vec<ItemUpdate> {
    let mut s = seed;
    let mut counts = vec![0i64; universe as usize];
    (1..=n)
        .map(|t| {
            let site = lcg(&mut s) as usize % k;
            let item = lcg(&mut s) % universe;
            let delta = if counts[item as usize] > 0 && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            counts[item as usize] += delta;
            ItemUpdate::new(t, site, item, delta)
        })
        .collect()
}

/// Everything the bit-identity claim covers, bundled for comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    time: u64,
    estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: CommStats,
    merge_stats: CommStats,
}

fn fingerprint<T: Tracker<In> + Send, In: Copy + Send>(e: &ShardedEngine<T, In>) -> Fingerprint {
    Fingerprint {
        time: e.time(),
        estimate: e.estimate(),
        shard_estimates: e.shard_estimates(),
        tracker_stats: e.tracker_stats(),
        merge_stats: e.merge_stats().clone(),
    }
}

/// Per-site feeds in site order from a timed counter stream.
fn part_counters(updates: &[Update], k: usize) -> Vec<Vec<i64>> {
    let mut feeds: Vec<Vec<i64>> = (0..k).map(|_| Vec::new()).collect();
    for u in updates {
        feeds[u.site].push(u.delta);
    }
    feeds
}

#[test]
fn every_counter_kind_is_bit_identical_pipelined_vs_parted() {
    let shards = 4;
    let batch = 512;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            4
        };
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.2)
            .seed(23)
            .deletions(kind.supports_deletions());
        let stream = counter_stream(7_000 + kind as u64, 9_000, k, kind.supports_deletions());
        let feeds = part_counters(&stream, k);
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();

        let cfg = EngineConfig::new(shards, batch).eps(0.2);
        let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
        let parted_report = parted.run_parted(&slices).unwrap();
        let want = fingerprint(&parted);

        for workers in [shards, 2, 1] {
            let mut piped = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (mut handle, data) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(97) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "{} W={workers} diverged from run_parted",
                kind.label()
            );
            assert_eq!(report.n, parted_report.n, "{}", kind.label());
            assert_eq!(report.batches, parted_report.batches, "{}", kind.label());
            assert_eq!(report.final_f, parted_report.final_f, "{}", kind.label());
            assert_eq!(
                report.boundary_violations,
                parted_report.boundary_violations,
                "{}",
                kind.label()
            );
        }
    }
}

#[test]
fn every_frequency_kind_is_bit_identical_pipelined_vs_parted() {
    let k = 3;
    let universe = 128u64;
    for kind in TrackerKind::FREQUENCIES {
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.15)
            .seed(92)
            .universe(universe as usize);
        let stream = item_stream(40 + kind as u64, 8_000, k, universe);
        let mut feeds: Vec<Vec<(u64, i64)>> = (0..k).map(|_| Vec::new()).collect();
        for u in &stream {
            feeds[u.site].push((u.item, u.delta));
        }
        let slices: Vec<(usize, &[(u64, i64)])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();

        let cfg = EngineConfig::new(k, 256).eps(0.15);
        let mut parted = ShardedEngine::items(spec, cfg).unwrap();
        parted.run_parted(&slices).unwrap();
        let want = fingerprint(&parted);

        for workers in [k, 1] {
            let mut piped = ShardedEngine::items(spec, cfg.workers(workers)).unwrap();
            piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (mut handle, data) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(61) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "{} W={workers} diverged",
                kind.label()
            );
            for item in 0..universe {
                assert_eq!(
                    piped.estimate_item(item),
                    parted.estimate_item(item),
                    "{} item {item}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn feeds_closed_mid_batch_match_parted_partial_rounds() {
    // Feed lengths deliberately not multiples of the batch size, several
    // feeds per site, one feed empty: every partial-final-round shape at
    // once. A feed closed mid-batch ends its stream exactly there — the
    // worker runs the final partial round and the cut stays identical to
    // run_parted over the same (truncated) feeds.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(3)
        .eps(0.1)
        .deletions(true);
    let cfg = EngineConfig::new(3, 100).eps(0.1);
    let feed_sites = [0usize, 1, 2, 1, 0];
    let feed_data: Vec<Vec<i64>> = vec![
        vec![1; 250],  // site 0: 2.5 batches
        vec![1; 399],  // site 1: just under 4
        vec![-1; 101], // site 2: just over 1
        vec![1; 37],   // site 1 again: a second feed on the same shard
        vec![],        // site 0: closed without a single push
    ];
    let slices: Vec<(usize, &[i64])> = feed_sites
        .iter()
        .zip(&feed_data)
        .map(|(&s, v)| (s, v.as_slice()))
        .collect();

    let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
    let parted_report = parted.run_parted(&slices).unwrap();

    let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
    let report = piped
        .run_pipelined(&feed_sites, |handles| {
            std::thread::scope(|s| {
                for (mut handle, data) in handles.into_iter().zip(&feed_data) {
                    s.spawn(move || {
                        // Push in ragged chunks, closing mid-batch.
                        for chunk in data.chunks(83) {
                            handle.push_batch(chunk).unwrap();
                        }
                        handle.close();
                    });
                }
            });
        })
        .unwrap();
    assert_eq!(fingerprint(&piped), fingerprint(&parted));
    assert_eq!(report.n, parted_report.n);
    assert_eq!(report.batches, parted_report.batches);
}

#[test]
fn chunks_around_the_round_length_are_bit_identical_to_parted() {
    // Pushes of 1, batch − 1, batch, batch + 1 and 2·batch + 1 inputs in
    // a per-feed random order: shorter than a round, exactly one, across
    // one boundary and across two (past the queue's capacity, so the
    // push parks mid-chunk). A ring cuts each push at its feed's round
    // boundaries, so the rounds are run_parted's whatever the chunking.
    let k = 4;
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.2)
        .deletions(true);
    let stream = counter_stream(31, 6_000, k, true);
    let feeds = part_counters(&stream, k);
    let slices: Vec<(usize, &[i64])> = feeds
        .iter()
        .enumerate()
        .map(|(s, v)| (s, v.as_slice()))
        .collect();
    let sites: Vec<usize> = (0..k).collect();
    for batch in [1usize, 2, 7, 64] {
        let lens: Vec<usize> = [1, batch - 1, batch, batch + 1, 2 * batch + 1]
            .into_iter()
            .filter(|&len| len > 0)
            .collect();
        // Three shards: sites 0 and 3 are two feeds on shard 0.
        let cfg = EngineConfig::new(3, batch).eps(0.2);
        let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
        let parted_report = parted.run_parted(&slices).unwrap();
        let want = fingerprint(&parted);
        for workers in [3, 1] {
            let mut piped = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (site, (mut handle, data)) in
                            handles.into_iter().zip(&feeds).enumerate()
                        {
                            let lens = &lens;
                            s.spawn(move || {
                                let mut draw = 977 + site as u64;
                                let mut at = 0;
                                while at < data.len() {
                                    let len = lens[lcg(&mut draw) as usize % lens.len()];
                                    let chunk = &data[at..(at + len).min(data.len())];
                                    if let [x] = chunk {
                                        handle.push(*x).unwrap();
                                    } else {
                                        handle.push_batch(chunk).unwrap();
                                    }
                                    at += chunk.len();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "batch {batch} W={workers} diverged from run_parted"
            );
            assert_eq!(report.n, parted_report.n, "batch {batch}");
            assert_eq!(report.batches, parted_report.batches, "batch {batch}");
            assert_eq!(report.ingest_stats.items, report.n, "batch {batch}");
            assert_eq!(report.ingest_stats.dropped, 0, "batch {batch}");
        }
    }
}

#[test]
fn error_policy_sheds_load_with_typed_errors_and_retries_converge() {
    // A producer that must never park sheds with `try_push`: a full queue
    // surfaces FeedError::Full with nothing enqueued, the producer hops to
    // the other feed, and re-offering converges to the same bit-identical
    // result. One shard owns both feeds and drains feed 0 first, so feed
    // 1, offered first, fills to capacity and must report Full.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(2)
        .eps(0.1)
        .deletions(true);
    let cfg = EngineConfig::new(1, 64);
    let feeds: Vec<Vec<i64>> = vec![vec![1; 2_000], vec![-1; 1_500]];
    let slices: Vec<(usize, &[i64])> = feeds
        .iter()
        .enumerate()
        .map(|(s, v)| (s, v.as_slice()))
        .collect();
    let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
    parted.run_parted(&slices).unwrap();

    let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
    let mut full_errors = 0u64;
    let report = piped
        .run_pipelined(&[0, 1], |mut handles| {
            assert!(handles.iter().all(|h| h.capacity() == 128));
            let mut at = [0usize; 2];
            let mut i = 1;
            while at.iter().zip(&feeds).any(|(&a, data)| a < data.len()) {
                while at[i] < feeds[i].len() {
                    match handles[i].try_push(feeds[i][at[i]]) {
                        Ok(()) => at[i] += 1,
                        Err(FeedError::Full) => {
                            full_errors += 1;
                            break;
                        }
                        Err(e) => panic!("unexpected feed error: {e}"),
                    }
                }
                if at[i] == feeds[i].len() {
                    handles[i].close();
                }
                i = 1 - i;
                std::thread::yield_now();
            }
        })
        .unwrap();
    assert_eq!(fingerprint(&piped), fingerprint(&parted));
    assert!(full_errors > 0, "try_push never reported Full");
    assert!(report.ingest_stats.high_water <= 128);
    assert_eq!(report.ingest_stats.items, 3_500);
    assert_eq!(report.ingest_stats.frames, 3_500);
}

#[test]
fn push_after_close_and_deletion_pushes_are_typed_errors() {
    let spec = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 16).eps(0.1)).unwrap();
    let report = engine
        .run_pipelined(&[0, 1], |mut handles| {
            let mut a = handles.remove(0);
            let mut b = handles.remove(0);
            a.push_batch(&[1, 1, 1]).unwrap();
            a.close();
            assert_eq!(a.push(1), Err(FeedError::Closed { pushed: 0 }));
            assert_eq!(a.push_batch(&[1, 2]), Err(FeedError::Closed { pushed: 0 }));
            // CmyMonotone is insert-only: deletions bounce at the feed
            // boundary — the whole chunk validated before transport, so
            // nothing of the failing call reaches a replica.
            assert_eq!(
                b.push_batch(&[1, 1, -1, 1]),
                Err(FeedError::DeletionUnsupported { at: 2 })
            );
            assert_eq!(
                b.try_push(-1),
                Err(FeedError::DeletionUnsupported { at: 0 })
            );
            b.push(2).unwrap();
        })
        .unwrap();
    // Only the validated pushes landed: 3 at site 0, one `2` at site 1.
    assert_eq!(report.n, 3 + 1);
    assert_eq!(report.final_f, 3 + 2);
    assert_eq!(report.boundary_violations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of `push` and `push_batch` across feeds —
    /// a single feeder thread hopping between handles in a random order
    /// with random chunk sizes — land bit-identically on `run_parted`
    /// over the same per-site sequences: the queues are a transport, and
    /// the boundary cut depends only on each feed's sequence and the
    /// batch size, never on the push schedule.
    #[test]
    fn interleaved_push_schedules_are_bit_identical_to_parted(
        n in 50usize..900,
        k in 1usize..4,
        shards in 1usize..5,
        batch in 1usize..80,
        seed in 0u64..100_000,
    ) {
        let mut s = seed ^ 0xd5ad;
        let deltas: Vec<i64> = (0..n)
            .map(|_| if lcg(&mut s).is_multiple_of(3) { -1 } else { 1 })
            .collect();
        let mut feeds: Vec<Vec<i64>> = (0..k).map(|_| Vec::new()).collect();
        for &d in &deltas {
            feeds[lcg(&mut s) as usize % k].push(d);
        }
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(site, v)| (site, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();
        let spec = TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.3)
            .deletions(true);
        let cfg = EngineConfig::new(shards, batch).eps(0.3);

        let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
        let parted_report = parted.run_parted(&slices).unwrap();

        let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
        let mut sched = seed ^ 0xface;
        let report = piped
            .run_pipelined(&sites, |mut handles| {
                // A single thread must never park on a queue the
                // round-ordered worker is not draining: push only what a
                // queue admits (occupancy only falls under us), hop to
                // another feed otherwise, and close a feed once it is
                // exhausted so the worker can move past it. Some feed the
                // worker waits on always holds under a round, so has room.
                let mut at = vec![0usize; k];
                for (i, h) in handles.iter_mut().enumerate() {
                    if feeds[i].is_empty() {
                        h.close();
                    }
                }
                loop {
                    let open: Vec<usize> =
                        (0..k).filter(|&i| at[i] < feeds[i].len()).collect();
                    let Some(&i) = open.get(lcg(&mut sched) as usize % open.len().max(1))
                    else {
                        break;
                    };
                    let room = handles[i].capacity() - handles[i].occupancy() as usize;
                    if room == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let take = (lcg(&mut sched) as usize % 7 + 1)
                        .min(feeds[i].len() - at[i])
                        .min(room);
                    if take == 1 && lcg(&mut sched).is_multiple_of(2) {
                        handles[i].push(feeds[i][at[i]]).unwrap();
                    } else {
                        handles[i].push_batch(&feeds[i][at[i]..at[i] + take]).unwrap();
                    }
                    at[i] += take;
                    if at[i] == feeds[i].len() {
                        handles[i].close();
                    }
                }
            })
            .unwrap();
        prop_assert_eq!(piped.estimate(), parted.estimate());
        prop_assert_eq!(piped.shard_estimates(), parted.shard_estimates());
        prop_assert_eq!(piped.tracker_stats(), parted.tracker_stats());
        prop_assert_eq!(piped.merge_stats(), parted.merge_stats());
        prop_assert_eq!(report.n, parted_report.n);
        prop_assert_eq!(report.batches, parted_report.batches);
        prop_assert_eq!(report.final_f, parted_report.final_f);
        prop_assert_eq!(report.ingest_stats.items, n as u64);
    }
}

#[test]
fn the_tightest_queue_stalls_every_chunk_push() {
    // Batch 1 gives the smallest queue there is: 2 inputs.
    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
    let mut tight = ShardedEngine::counters(spec, EngineConfig::new(2, 1).eps(0.1)).unwrap();
    let report = tight
        .run_pipelined(&[0, 1], |handles| {
            std::thread::scope(|s| {
                for mut handle in handles {
                    assert_eq!(handle.capacity(), 2);
                    s.spawn(move || handle.push_batch(&[1i64; 100]).unwrap());
                }
            });
        })
        .unwrap();
    assert_eq!(report.final_f, 200);
    assert_eq!(report.batches, 100);
    assert!(report.ingest_stats.high_water <= 2);
    // A 100-input chunk can never land in one shot through a 2-slot
    // queue, so each of the two pushes is *guaranteed* to have stalled.
    assert_eq!(
        report.ingest_stats.push_stalls, 2,
        "2-slot queues must stall every chunk push: {:?}",
        report.ingest_stats
    );
}

#[test]
fn a_laggy_feed_holds_back_no_other_shard_at_fewer_workers_than_shards() {
    // Site 0's producer pushes nothing until the other three have pushed
    // and closed their feeds, each more rounds than its queue holds (but
    // fewer than a window). That only happens if no other shard waits on
    // shard 0's feed, whatever `workers` says; a timeout means one did.
    let (k, batch) = (4usize, 16usize);
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.1)
        .deletions(true);
    let updates = counter_stream(29, (40 * batch * k) as u64, k, true);
    let feeds = part_counters(&updates, k);
    assert!(feeds
        .iter()
        .all(|f| f.len() > 2 * batch && f.len() < 60 * batch));
    let slices: Vec<(usize, &[i64])> = feeds
        .iter()
        .enumerate()
        .map(|(s, v)| (s, v.as_slice()))
        .collect();
    let sites: Vec<usize> = (0..k).collect();
    let cfg = EngineConfig::new(k, batch);
    let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
    parted.run_parted(&slices).unwrap();
    let want = fingerprint(&parted);

    for workers in [1usize, 2, 3] {
        let mut piped = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
        let mut released = false;
        piped
            .run_pipelined(&sites, |handles| {
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::scope(|s| {
                    let mut handles = handles.into_iter().zip(&feeds);
                    let (mut laggy, laggy_data) = handles.next().unwrap();
                    for (mut handle, data) in handles {
                        let done = done_tx.clone();
                        s.spawn(move || {
                            for chunk in data.chunks(batch) {
                                handle.push_batch(chunk).unwrap();
                            }
                            handle.close();
                            // The laggy producer stops listening once it
                            // times out.
                            let _ = done.send(());
                        });
                    }
                    drop(done_tx);
                    let released = &mut released;
                    s.spawn(move || {
                        let wait = std::time::Duration::from_secs(5);
                        *released = (1..k).all(|_| done_rx.recv_timeout(wait).is_ok());
                        for chunk in laggy_data.chunks(batch) {
                            laggy.push_batch(chunk).unwrap();
                        }
                    });
                });
            })
            .unwrap();
        assert!(
            released,
            "W={workers}: the laggy feed's producer was released by its timeout"
        );
        assert_eq!(fingerprint(&piped), want, "W={workers}");
    }
}

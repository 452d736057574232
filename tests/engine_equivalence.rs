//! Equivalence of the batched sharded engine with the sequential Driver.
//!
//! The contract (ISSUE 3): at `S = 1` the engine is **bit-identical** to
//! the sequential path for every kind — estimates and `CommStats` alike,
//! randomized kinds included (same replica, same seed, same order) — and
//! at `S > 1` merged estimates stay within the configured ε at every
//! batch boundary on streams whose shard partial sums agree in sign.

use dsv::prelude::*;
use dsv::sketch::{ExactCounts, FreqSketch};

fn counter_stream(kind: TrackerKind, n: u64, k: usize) -> Vec<Update> {
    if kind.supports_deletions() {
        WalkGen::biased(13, 0.2).updates(n, RoundRobin::new(k))
    } else {
        MonotoneGen::jumps(5, 3).updates(n, RoundRobin::new(k))
    }
}

#[test]
fn single_shard_engine_is_bit_identical_for_every_counter_kind() {
    let eps = 0.1;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            4
        };
        let updates = counter_stream(kind, 20_000, k);
        let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(99);
        let mut sequential = spec.build().unwrap();
        let seq = Driver::new(eps)
            .unwrap()
            .run(&mut sequential, &updates)
            .unwrap();

        for batch in [1usize, 37, 4_096] {
            let mut engine =
                ShardedEngine::counters(spec, EngineConfig::new(1, batch).eps(eps)).unwrap();
            let report = engine.run(&updates).unwrap();
            assert_eq!(
                report.final_estimate,
                seq.final_estimate,
                "{} batch {batch}: estimate diverged",
                kind.label()
            );
            assert_eq!(report.final_f, seq.final_f);
            assert_eq!(
                engine.tracker_stats(),
                seq.stats,
                "{} batch {batch}: protocol traffic diverged",
                kind.label()
            );
        }
    }
}

#[test]
fn sharded_deterministic_kinds_stay_within_eps_at_boundaries() {
    let eps = 0.1;
    let k = 8;
    let n = 60_000;
    for kind in [
        TrackerKind::Deterministic,
        TrackerKind::CmyMonotone,
        TrackerKind::Naive,
    ] {
        let updates = if kind.supports_deletions() {
            WalkGen::biased(21, 0.3).updates(n, RoundRobin::new(k))
        } else {
            MonotoneGen::ones().updates(n, RoundRobin::new(k))
        };
        let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(5);
        let mut sequential = spec.build().unwrap();
        let seq = Driver::new(eps)
            .unwrap()
            .run(&mut sequential, &updates)
            .unwrap();
        for shards in [2usize, 4, 8] {
            let mut engine =
                ShardedEngine::counters(spec, EngineConfig::new(shards, 1_500).eps(eps)).unwrap();
            let report = engine.run(&updates).unwrap();
            assert_eq!(
                report.boundary_violations,
                0,
                "{} S={shards}: {} boundary violations (max err {})",
                kind.label(),
                report.boundary_violations,
                report.max_boundary_rel_err
            );
            // Within ε of truth at the end, hence within 2ε of the
            // sequential estimate.
            let err = relative_error(report.final_f, report.final_estimate);
            assert!(err <= eps, "{} S={shards}: err {err}", kind.label());
            let drift = relative_error(seq.final_estimate, report.final_estimate);
            assert!(
                drift <= 2.0 * eps,
                "{} S={shards}: drift {drift}",
                kind.label()
            );
        }
    }
}

#[test]
fn sharded_randomized_kinds_remain_close_on_monotone_streams() {
    // Randomized kinds only promise each boundary within ε w.p. ≥ 2/3;
    // with fixed seeds the outcome is deterministic, so assert a generous
    // envelope rather than the per-boundary bound.
    let eps = 0.1;
    let k = 8;
    let updates = MonotoneGen::ones().updates(50_000, RoundRobin::new(k));
    for kind in [TrackerKind::Randomized, TrackerKind::HyzMonotone] {
        let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(404);
        let mut engine =
            ShardedEngine::counters(spec, EngineConfig::new(4, 2_000).eps(eps)).unwrap();
        let report = engine.run(&updates).unwrap();
        let err = relative_error(report.final_f, report.final_estimate);
        assert!(err <= 3.0 * eps, "{}: err {err}", kind.label());
        assert!(
            report.violation_rate() < 0.34,
            "{}: boundary violation rate {}",
            kind.label(),
            report.violation_rate()
        );
    }
}

#[test]
fn single_shard_item_engine_is_bit_identical_to_item_driver() {
    let eps = 0.15;
    let updates = ItemStreamGen::new(3, 128, 1.1, 0.25, 1).updates(20_000, RoundRobin::new(3));
    for kind in TrackerKind::FREQUENCIES {
        let spec = TrackerSpec::new(kind).k(3).eps(eps).seed(7).universe(128);
        let mut sequential = spec.build_item().unwrap();
        let seq = ItemDriver::new(eps)
            .unwrap()
            .run_items(&mut sequential, &updates)
            .unwrap();
        let mut engine = ShardedEngine::items(spec, EngineConfig::new(1, 512).eps(eps)).unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(
            report.final_estimate,
            seq.run.final_estimate,
            "{}",
            kind.label()
        );
        assert_eq!(engine.tracker_stats(), seq.run.stats, "{}", kind.label());
        for item in 0..128u64 {
            assert_eq!(
                engine.estimate_item(item),
                sequential.estimate_item(item),
                "{} item {item}",
                kind.label()
            );
        }
    }
}

#[test]
fn item_engine_by_item_partition_keeps_per_item_guarantee() {
    let eps = 0.1;
    let updates = ItemStreamGen::new(8, 512, 1.2, 0.2, 2).updates(60_000, RoundRobin::new(4));
    let spec = TrackerSpec::new(TrackerKind::ExactFreq)
        .k(4)
        .eps(eps)
        .universe(512);
    let mut engine = ShardedEngine::items(spec, EngineConfig::new(4, 3_000).eps(eps)).unwrap();
    let report = engine.run(&updates).unwrap();
    assert_eq!(report.boundary_violations, 0);

    let mut truth = ExactCounts::new();
    let mut f1 = 0i64;
    for u in &updates {
        truth.update(u.item, u.delta);
        f1 += u.delta;
    }
    assert_eq!(report.final_f, f1);
    let budget = eps * f1 as f64;
    for item in 0..512u64 {
        let err = (engine.estimate_item(item) - truth.estimate(item)).unsigned_abs() as f64;
        assert!(err <= budget * (1.0 + 1e-12), "item {item}: err {err}");
    }
}

/// More rounds than `run_parted` runs between two cuts (64), so one call
/// spans a full window and part of a second.
const PAST_WINDOW: usize = 71;

/// Parted feeds at `batch`, with S = 4 shards in mind: uneven lengths
/// (the longest runs `PAST_WINDOW` rounds), two feeds on site 1, an empty
/// feed, and sites 0 and 4 sharing shard 0.
fn parted_feeds(kind: TrackerKind, batch: usize) -> Vec<(usize, Vec<i64>)> {
    let shape = [
        (0, PAST_WINDOW * batch),
        (1, 13 * batch + 5),
        (2, 0),
        (3, 40 * batch - 1),
        (1, (PAST_WINDOW - 5) * batch + 1),
        (4, 2 * batch + 1),
    ];
    shape
        .iter()
        .zip(0u64..)
        .map(|(&(site, len), seed)| {
            let updates = if kind.supports_deletions() {
                WalkGen::biased(40 + seed, 0.2).updates(len as u64, SingleSite::solo())
            } else {
                MonotoneGen::jumps(40 + seed, 3).updates(len as u64, SingleSite::solo())
            };
            (site, updates.iter().map(|u| u.delta).collect())
        })
        .collect()
}

/// Everything a caller can observe of an engine after its calls, with the
/// reports of several calls folded into one.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    n: u64,
    batches: u64,
    probes: Vec<ErrorProbe>,
    violations: u64,
    max_err: f64,
    final_f: i64,
    final_estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: CommStats,
    merge_stats: CommStats,
    checkpoint: Vec<u8>,
}

impl Observed {
    /// Fold in one call's report.
    fn add(&mut self, report: EngineReport) {
        self.n += report.n;
        self.batches += report.batches;
        self.probes.extend(report.probes);
        self.violations += report.boundary_violations;
        self.max_err = self.max_err.max(report.max_boundary_rel_err);
        self.final_f = report.final_f;
        self.final_estimate = report.final_estimate;
    }

    /// Read the engine's state after the last call.
    fn finish<T, In>(mut self, engine: &mut ShardedEngine<T, In>) -> Self
    where
        T: Tracker<In> + Send,
        In: Copy + Send,
    {
        self.shard_estimates = engine.shard_estimates();
        self.tracker_stats = engine.tracker_stats();
        self.merge_stats = engine.merge_stats().clone();
        self.checkpoint = engine.checkpoint().unwrap().to_bytes();
        self
    }
}

/// Drive `feeds` through `run_parted` in one call, or as one call per
/// round when `per_round`.
fn observe_parted(
    spec: TrackerSpec,
    cfg: EngineConfig,
    feeds: &[(usize, Vec<i64>)],
    per_round: bool,
) -> Observed {
    let batch = cfg.batch_size();
    let mut engine = ShardedEngine::counters(spec, cfg).unwrap();
    let calls: Vec<Vec<(usize, &[i64])>> = if per_round {
        let rounds = feeds.iter().map(|(_, v)| v.len().div_ceil(batch)).max();
        (0..rounds.unwrap_or(0))
            .map(|r| {
                feeds
                    .iter()
                    .map(|(site, v)| {
                        let lo = (r * batch).min(v.len());
                        (*site, &v[lo..(lo + batch).min(v.len())])
                    })
                    .collect()
            })
            .collect()
    } else {
        vec![feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect()]
    };
    let mut seen = Observed::default();
    for call in &calls {
        seen.add(engine.run_parted(call).unwrap());
    }
    seen.finish(&mut engine)
}

#[test]
fn parted_ingest_is_bit_identical_at_every_worker_count() {
    let eps = 0.1;
    for kind in [TrackerKind::Deterministic, TrackerKind::HyzMonotone] {
        let spec = TrackerSpec::new(kind).k(5).eps(eps).seed(31);
        for batch in [1usize, 7, 4_096] {
            let feeds = parted_feeds(kind, batch);
            let cfg = EngineConfig::new(4, batch).eps(eps);
            let reference = observe_parted(spec, cfg.workers(1), &feeds, false);
            assert_eq!(reference.batches, PAST_WINDOW as u64);
            assert_eq!(reference.probes.len(), PAST_WINDOW);
            for workers in [1usize, 2, 3, 4, 8] {
                for per_round in [false, true] {
                    let seen = observe_parted(spec, cfg.workers(workers), &feeds, per_round);
                    assert!(
                        seen == reference,
                        "{} batch {batch} W={workers} per_round={per_round}",
                        kind.label()
                    );
                }
            }
        }
    }
}

/// Drive `feeds` through `run_pipelined` in one call, one producer
/// thread per feed pushing ragged chunks.
fn observe_pipelined(
    spec: TrackerSpec,
    cfg: EngineConfig,
    feeds: &[(usize, Vec<i64>)],
) -> Observed {
    let mut engine = ShardedEngine::counters(spec, cfg).unwrap();
    let sites: Vec<usize> = feeds.iter().map(|(site, _)| *site).collect();
    let report = engine
        .run_pipelined(&sites, |handles| {
            std::thread::scope(|scope| {
                for (mut handle, (_, inputs)) in handles.into_iter().zip(feeds) {
                    scope.spawn(move || {
                        for chunk in inputs.chunks(5) {
                            handle.push_batch(chunk).unwrap();
                        }
                    });
                }
            });
        })
        .unwrap();
    let mut seen = Observed::default();
    seen.add(report);
    seen.finish(&mut engine)
}

#[test]
fn pipelined_ingest_matches_parted_on_both_sides_of_every_window_edge() {
    // The longest feed ends one round before, on, or one round after the
    // first and second window edges (64 and 128 rounds); the other feeds
    // end at the shorter of those rounds, some mid-batch, beside a short
    // feed and an empty one. Sites 0 and 4 share shard 0 and site 1 has
    // two feeds. A closed empty round or a window off-by-one shows in
    // `batches`, the probes, the ledgers or the checkpoint bytes.
    let ends = [63usize, 64, 65, 128, 129];
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(6)
        .eps(0.1)
        .seed(17)
        .deletions(true);
    for longest in ends {
        for batch in [1usize, 3] {
            let mut shape: Vec<(usize, usize)> = ends
                .iter()
                .filter(|&&rounds| rounds <= longest)
                .zip([0, 4, 1, 2, 3])
                .map(|(&rounds, site)| (site, rounds * batch - rounds % batch))
                .collect();
            shape.extend([(1, 2 * batch - 1), (5, 0)]);
            let feeds: Vec<(usize, Vec<i64>)> = shape
                .iter()
                .zip(0u64..)
                .map(|(&(site, len), seed)| {
                    let updates =
                        WalkGen::biased(70 + seed, 0.2).updates(len as u64, SingleSite::solo());
                    (site, updates.iter().map(|u| u.delta).collect())
                })
                .collect();
            let cfg = EngineConfig::new(4, batch).eps(0.1);
            let reference = observe_parted(spec, cfg, &feeds, false);
            assert_eq!(reference.batches, longest as u64);
            for workers in [1usize, 2, 3, 4, 8] {
                let seen = observe_pipelined(spec, cfg.workers(workers), &feeds);
                assert!(
                    seen == reference,
                    "longest {longest} batch {batch} W={workers}"
                );
            }
        }
    }
}

/// A replica that panics on its `panic_at`-th `update_run`.
#[derive(Debug)]
struct Flaky {
    inner: Box<dyn Tracker + Send>,
    runs: usize,
    panic_at: Option<usize>,
}

impl Tracker for Flaky {
    fn step(&mut self, site: usize, input: i64) -> i64 {
        self.inner.step(site, input)
    }

    fn update_run(&mut self, site: usize, inputs: &[i64]) -> i64 {
        self.runs += 1;
        if Some(self.runs) == self.panic_at {
            panic!("flaky replica gave out");
        }
        self.inner.update_run(site, inputs)
    }

    fn estimate(&self) -> i64 {
        self.inner.estimate()
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }

    fn kind(&self) -> TrackerKind {
        self.inner.kind()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn snapshot(&self) -> Result<TrackerState, CodecError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &TrackerState) -> Result<(), CodecError> {
        self.inner.restore(state)
    }
}

#[test]
fn default_workers_are_bit_identical_to_one_worker_per_shard_at_s16() {
    // Left at its default, `workers` runs S = 16 shards on at most one
    // thread per CPU (one per shard when pipelined); `.workers(16)` runs
    // one thread per shard. The answers are the same bit for bit, and
    // each report names the threads that ran.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(16)
        .eps(0.1)
        .seed(7);
    let feeds: Vec<(usize, Vec<i64>)> = (0..16)
        .map(|site| {
            let updates = WalkGen::biased(90 + site as u64, 0.2).updates(700, SingleSite::solo());
            (site, updates.iter().map(|u| u.delta).collect())
        })
        .collect();
    let cfg = EngineConfig::new(16, 64).eps(0.1);
    let twin = observe_parted(spec, cfg.workers(16), &feeds, false);
    assert!(observe_parted(spec, cfg, &feeds, false) == twin);
    assert!(observe_pipelined(spec, cfg, &feeds) == twin);
    let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
    for (cfg, threads) in [(cfg, host.min(16)), (cfg.workers(16), 16)] {
        let mut engine = ShardedEngine::counters(spec, cfg).unwrap();
        assert_eq!(engine.run_parted(&slices).unwrap().workers, threads);
    }
    // A pipelined worker parks on its feeds, so the default keeps one
    // per shard there: a lagging feed stalls only its own shard.
    let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
    let report = piped.run_pipelined(&[0], |_| {}).unwrap();
    assert_eq!(report.workers, 16);

    // The fleet: boundaries, a full checkpoint and a dirty-only delta.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(1)
        .eps(0.1)
        .deletions(true);
    let stream: Vec<(u64, i64)> = (0..6_000u64)
        .map(|i| (i * 7 % 500, if i % 5 == 4 { -1 } else { 1 }))
        .collect();
    let fleet_run = |cfg: EngineConfig| {
        let mut fleet = CounterFleet::counters(spec, cfg).unwrap();
        let report = fleet.run(&stream[..4_000]).unwrap();
        let base = fleet.checkpoint().unwrap();
        fleet.run(&stream[4_000..]).unwrap();
        let delta = fleet.checkpoint_delta(&base).unwrap().to_bytes();
        let audits: Vec<_> = (0..500).map(|key| fleet.key_audit(key)).collect();
        let state = (
            base.to_bytes(),
            delta,
            audits,
            fleet.comm_stats().clone(),
            fleet.checkpoint().unwrap().to_bytes(),
        );
        (state, report.workers)
    };
    let cfg = EngineConfig::new(16, 256).eps(0.1).fleet_cache(8);
    let (twin, sixteen) = fleet_run(cfg.workers(16));
    let (state, threads) = fleet_run(cfg);
    assert!(state == twin, "default-worker fleet diverged from its twin");
    assert_eq!((threads, sixteen), (host.min(16), 16));
}

#[test]
fn a_panic_on_a_parted_worker_reaches_the_caller_between_rounds() {
    // S = W = 2: shard 1 runs on the spawned worker. One chunk per
    // round, so its 70th `update_run` is round 69, inside the second
    // window; the first window's 64 rounds are closed by then.
    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
    let mut engine = ShardedEngine::with_factory(EngineConfig::new(2, 1).workers(2), |s| {
        spec.shard(s).build().map(|inner| Flaky {
            inner,
            runs: 0,
            panic_at: (s == 1).then_some(70),
        })
    })
    .unwrap();
    let ones = vec![1i64; 200];
    let feeds = [(0, ones.as_slice()), (1, ones.as_slice())];
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run_parted(&feeds)));
    let payload = caught.expect_err("the replica's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"flaky replica gave out")
    );
    // Whole rounds only: the first window, both feeds.
    assert_eq!(engine.time(), 2 * 64);
}

#[test]
fn a_panic_on_a_routed_worker_reaches_the_caller() {
    // S = W = 2, batch 1, sites alternating: shard 1 runs every other
    // round on the spawned worker, so its 40th `update_run` lands inside
    // the second 64-round window. The call runs on its own thread so a
    // hang fails the test instead of wedging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
        let mut engine = ShardedEngine::with_factory(EngineConfig::new(2, 1).workers(2), |s| {
            spec.shard(s).build().map(|inner| Flaky {
                inner,
                runs: 0,
                panic_at: (s == 1).then_some(40),
            })
        })
        .unwrap();
        let updates = MonotoneGen::ones().updates(400, RoundRobin::new(2));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&updates)));
        let payload = caught
            .err()
            .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        tx.send((payload, engine.time())).unwrap();
    });
    let (payload, time) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("routed run never returned after a worker panicked");
    assert_eq!(payload.as_deref(), Some("flaky replica gave out"));
    // Whole windows only: the first one closed, the second did not.
    assert_eq!(time, 64);
}

#[test]
fn a_panic_on_a_pipelined_worker_reaches_the_caller() {
    // S = W = 2, batch 1, one feeder pushing round-robin rounds: shard 1
    // drains its feed on the spawned worker, one `update_run` a round, so
    // its 70th lands inside the second 64-round window. The feeder stops
    // at its first refused push. The call runs on its own thread so a
    // hang fails the test instead of wedging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
        let mut engine = ShardedEngine::with_factory(EngineConfig::new(2, 1).workers(2), |s| {
            spec.shard(s).build().map(|inner| Flaky {
                inner,
                runs: 0,
                panic_at: (s == 1).then_some(70),
            })
        })
        .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_pipelined(&[0, 1], |mut handles| {
                for _ in 0..200 {
                    for handle in &mut handles {
                        if handle.push(1).is_err() {
                            return;
                        }
                    }
                }
            })
        }));
        let payload = caught
            .err()
            .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        tx.send((payload, engine.time())).unwrap();
    });
    let (payload, time) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("pipelined run never returned after a worker panicked");
    assert_eq!(payload.as_deref(), Some("flaky replica gave out"));
    // Whole windows only: the first one closed, the second did not.
    assert_eq!(time, 2 * 64);
}

#[test]
fn a_panic_in_a_fleet_flush_reaches_the_caller_with_its_payload() {
    // S = W = 2, and every key's replica gives out on its second
    // `update_run`. The first boundary applies one key on each shard; the
    // second applies shard 1's key again beside a fresh key on shard 0,
    // so the panic is raised on the spawned worker.
    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(1).eps(0.1);
    let mut fleet = TrackerFleet::with_factory(EngineConfig::new(2, 1_000).workers(2), move || {
        spec.build().map(|inner| Flaky {
            inner,
            runs: 0,
            panic_at: Some(2),
        })
    })
    .unwrap();
    let shard_of = |key: u64| fleet.shard_of(key);
    let mut shard0 = (0u64..).filter(|&key| shard_of(key) == 0);
    let (a, c) = (shard0.next().unwrap(), shard0.next().unwrap());
    let b = (0u64..).find(|&key| shard_of(key) == 1).unwrap();
    fleet.update(a, 1).unwrap();
    fleet.update(b, 1).unwrap();
    fleet.flush().unwrap();
    fleet.update(b, 1).unwrap();
    fleet.update(c, 1).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.flush()));
    let payload = caught.expect_err("the replica's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"flaky replica gave out")
    );
}

/// Drive `updates` through routed `run` in one call, or when
/// `short_calls` in calls of 1, 3, 70 and 2 batches in turn.
fn observe_routed<T, In, R>(
    mut engine: ShardedEngine<T, In>,
    updates: &[R],
    short_calls: bool,
) -> Observed
where
    T: Tracker<In> + Send,
    In: InputDelta + Send + Sync,
    R: ShardRecord<In = In>,
{
    let batch = engine.config().batch_size();
    let mut seen = Observed::default();
    if short_calls {
        let mut at = 0;
        for batches in [1, 3, 70, 2].into_iter().cycle() {
            if at == updates.len() {
                break;
            }
            let hi = (at + batches * batch).min(updates.len());
            seen.add(engine.run(&updates[at..hi]).unwrap());
            at = hi;
        }
    } else {
        seen.add(engine.run(updates).unwrap());
    }
    seen.finish(&mut engine)
}

#[test]
fn routed_ingest_is_bit_identical_at_every_worker_count() {
    let eps = 0.1;
    let kind = TrackerKind::Deterministic;
    // S = 8: by site with k ≤ S routes into per-site runs, with k > S
    // into shards that own several sites.
    for k in [5, 11] {
        let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(31);
        // Past 2²⁰ inputs, the most a routed window holds: batch 4096
        // closes windows at 64 rounds, batch 2¹⁷ + 1 at 8.
        let long = counter_stream(kind, (1 << 20) + 3 * 4_096 + 5, k);
        for batch in [1usize, 7, 4_096, (1 << 17) + 1] {
            let short;
            let updates = if batch < 4_096 {
                short = counter_stream(kind, (PAST_WINDOW * batch + 3) as u64, k);
                &short
            } else {
                &long
            };
            let cfg = EngineConfig::new(8, batch).eps(eps);
            let observe = |workers: usize, short_calls: bool| {
                let engine = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
                observe_routed(engine, updates, short_calls)
            };
            let reference = observe(1, false);
            assert_eq!(reference.batches, updates.len().div_ceil(batch) as u64);
            for workers in [1usize, 2, 3, 4, 8] {
                for short_calls in [false, true] {
                    assert!(
                        observe(workers, short_calls) == reference,
                        "k {k} batch {batch} W={workers} short_calls={short_calls}"
                    );
                }
            }
        }
    }
}

#[test]
fn routed_item_ingest_by_item_is_bit_identical_at_every_worker_count() {
    let eps = 0.1;
    let spec = TrackerSpec::new(TrackerKind::ExactFreq)
        .k(4)
        .eps(eps)
        .universe(256);
    let batch = 7;
    let updates = ItemStreamGen::new(5, 256, 1.1, 0.2, 1)
        .updates((PAST_WINDOW * batch + 3) as u64, RoundRobin::new(4));
    let cfg = EngineConfig::new(4, batch).eps(eps);
    let observe = |workers: usize, short_calls: bool| {
        let engine = ShardedEngine::items(spec, cfg.workers(workers)).unwrap();
        observe_routed(engine, &updates, short_calls)
    };
    let reference = observe(1, false);
    assert_eq!(reference.batches, PAST_WINDOW as u64 + 1);
    for workers in [1usize, 3] {
        for short_calls in [false, true] {
            assert!(
                observe(workers, short_calls) == reference,
                "W={workers} short_calls={short_calls}"
            );
        }
    }
}

/// A walk placed in bursts of 1 to 8 updates, each at one pseudo-random
/// site, so a shard that owns several sites sees same-site runs and site
/// switches alike.
fn bursty_stream(kind: TrackerKind, n: u64, k: usize) -> Vec<Update> {
    let deltas = if kind.supports_deletions() {
        WalkGen::biased(17, 0.2).deltas(n)
    } else {
        MonotoneGen::jumps(17, 3).deltas(n)
    };
    let (mut state, mut site, mut left) = (0x5EED_u64, 0, 0);
    let mut draw = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % m) as usize
    };
    (1..)
        .zip(deltas)
        .map(|(t, delta)| {
            if left == 0 {
                site = draw(k as u64);
                left = 1 + draw(8);
            }
            left -= 1;
            Update::new(t, site, delta)
        })
        .collect()
}

#[test]
fn routed_shards_equal_twins_fed_by_step() {
    // Shards that own several sites (k > S), over a call that crosses a
    // window edge: every shard's estimate, ledger and snapshot bytes equal
    // a `spec.shard(s)` twin that `step`s that shard's records in stream
    // order. Batch 64 drifts the walk far enough from 0 that sites hold
    // state, so a run credited to the wrong site shows.
    let (shards, batch, k) = (4usize, 64usize, 11);
    for kind in [TrackerKind::Deterministic, TrackerKind::Randomized] {
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.1)
            .seed(23)
            .deletions(kind.supports_deletions());
        let updates = bursty_stream(kind, (PAST_WINDOW * batch + 3) as u64, k);
        let mut twins: Vec<_> = (0..shards)
            .map(|s| spec.shard(s).build().unwrap())
            .collect();
        for u in &updates {
            twins[u.site % shards].step(u.site, u.delta);
        }
        for workers in [1usize, 2, 3] {
            let label = format!("{} k {k} W={workers}", kind.label());
            let cfg = EngineConfig::new(shards, batch).eps(0.1).workers(workers);
            let mut engine = ShardedEngine::counters(spec, cfg).unwrap();
            let report = engine.run(&updates).unwrap();
            assert_eq!(report.batches, PAST_WINDOW as u64 + 1, "{label}");
            let twin_estimates: Vec<i64> = twins.iter().map(|t| t.estimate()).collect();
            assert_eq!(engine.shard_estimates(), twin_estimates, "{label}");
            let ckpt = engine.checkpoint().unwrap();
            for (s, (state, twin)) in ckpt.states().iter().zip(&twins).enumerate() {
                let mut replica = spec.shard(s).build().unwrap();
                replica.restore(state).unwrap();
                assert_eq!(replica.stats(), twin.stats(), "{label} shard {s}");
                assert_eq!(
                    state.payload(),
                    twin.snapshot().unwrap().payload(),
                    "{label} shard {s}"
                );
            }
        }
    }
}

/// An item record whose key can be missing, for a `MissingItemKey`
/// mid-stream.
#[derive(Clone, Copy)]
struct MaybeKeyed(ItemUpdate, bool);

impl StreamRecord for MaybeKeyed {
    type In = (u64, i64);

    fn time(&self) -> u64 {
        self.0.time()
    }

    fn site(&self) -> usize {
        self.0.site()
    }

    fn input(&self) -> (u64, i64) {
        self.0.input()
    }

    fn delta(&self) -> i64 {
        self.0.delta()
    }
}

impl ShardRecord for MaybeKeyed {
    fn item_key(&self) -> Option<u64> {
        self.1.then_some(self.0.item)
    }
}

/// What an engine holds between calls: time, estimate, and everything
/// [`Observed::finish`] reads.
fn engine_state<T, In>(mut engine: ShardedEngine<T, In>) -> (u64, i64, Observed)
where
    T: Tracker<In> + Send,
    In: Copy + Send,
{
    let (time, estimate) = (engine.time(), engine.estimate());
    (time, estimate, Observed::default().finish(&mut engine))
}

/// Run `stream`, whose batch `j` holds a bad record, and check the error
/// and that the engine equals one that ran only the batches before `j`.
fn assert_error_prefix<T, In, R>(
    make: impl Fn() -> ShardedEngine<T, In>,
    stream: &[R],
    j: usize,
    expect: impl Fn(&EngineError) -> bool,
) where
    T: Tracker<In> + Send,
    In: InputDelta + Send + Sync,
    R: ShardRecord<In = In>,
{
    let mut failed = make();
    let batch = failed.config().batch_size();
    let err = failed.run(stream).unwrap_err();
    assert!(expect(&err), "batch {j}: unexpected {err:?}");
    let mut prefix = make();
    prefix.run(&stream[..j * batch]).unwrap();
    assert!(
        engine_state(failed) == engine_state(prefix),
        "batch {j}: {err:?} left more than the batches before it"
    );
}

#[test]
fn a_bad_record_leaves_exactly_the_batches_before_it() {
    let batch = 3;
    // Batch 5 is inside the first 64-round window, batch 100 past it; the
    // bad record sits second in its batch, after one that routes fine.
    for j in [5usize, 100] {
        let at = j * batch + 1;
        for workers in [1usize, 3] {
            // k = 4 routes into per-site runs, k = 6 into tuples.
            for k in [4usize, 6] {
                let cfg = EngineConfig::new(4, batch).workers(workers);
                let spec = TrackerSpec::new(TrackerKind::Deterministic).k(k).eps(0.1);
                let mut stream = counter_stream(TrackerKind::Deterministic, 400, k);
                stream[at].site = k + 3;
                assert_error_prefix(
                    || ShardedEngine::counters(spec, cfg).unwrap(),
                    &stream,
                    j,
                    |e| matches!(e, EngineError::Run(RunError::SiteOutOfRange { .. })),
                );

                let spec = TrackerSpec::new(TrackerKind::CmyMonotone).k(k).eps(0.1);
                let mut stream = counter_stream(TrackerKind::CmyMonotone, 400, k);
                stream[at].delta = -1;
                assert_error_prefix(
                    || ShardedEngine::counters(spec, cfg).unwrap(),
                    &stream,
                    j,
                    |e| matches!(e, EngineError::Run(RunError::DeletionUnsupported { .. })),
                );
            }

            let spec = TrackerSpec::new(TrackerKind::ExactFreq)
                .k(4)
                .eps(0.1)
                .universe(64);
            let cfg = EngineConfig::new(4, batch).workers(workers);
            let mut stream: Vec<MaybeKeyed> = ItemStreamGen::new(9, 64, 1.1, 0.2, 1)
                .updates(400, RoundRobin::new(4))
                .into_iter()
                .map(|u| MaybeKeyed(u, true))
                .collect();
            stream[at].1 = false;
            assert_error_prefix(
                || ShardedEngine::items(spec, cfg).unwrap(),
                &stream,
                j,
                |e| {
                    *e == EngineError::MissingItemKey {
                        time: at as u64 + 1,
                    }
                },
            );
        }
    }
}

#[test]
fn engine_rejects_what_the_driver_rejects() {
    let spec = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
    let bad = vec![Update::new(1, 0, 1), Update::new(2, 1, -1)];

    let mut tracker = spec.build().unwrap();
    let driver_err = Driver::new(0.1)
        .unwrap()
        .run(&mut tracker, &bad)
        .unwrap_err();
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 8).eps(0.1)).unwrap();
    let engine_err = engine.run(&bad).unwrap_err();
    assert_eq!(engine_err, EngineError::Run(driver_err));

    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
    let bad = vec![Update::new(1, 9, 1)];
    let mut tracker = spec.build().unwrap();
    let driver_err = Driver::new(0.1)
        .unwrap()
        .run(&mut tracker, &bad)
        .unwrap_err();
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 8).eps(0.1)).unwrap();
    assert_eq!(engine.run(&bad).unwrap_err(), EngineError::Run(driver_err));
}

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
fn sharded_single_site_round_robin_tracks_exactly_within_eps() {
    let eps = 0.05;
    let updates = MonotoneGen::jumps(3, 10).updates(40_000, SingleSite::solo());
    let spec = TrackerSpec::new(TrackerKind::SingleSite).k(1).eps(eps);
    let mut engine = ShardedEngine::counters(
        spec,
        EngineConfig::new(4, 1_000)
            .partition(Partition::RoundRobin)
            .eps(eps),
    )
    .unwrap();
    let report = engine.run(&updates).unwrap();
    assert_eq!(report.boundary_violations, 0);
    assert!(relative_error(report.final_f, report.final_estimate) <= eps);
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
    let mut engine = ShardedEngine::items(
        spec,
        EngineConfig::new(4, 3_000)
            .partition(Partition::ByItem)
            .eps(eps),
    )
    .unwrap();
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

/// Everything a caller can observe of a parted engine after its calls,
/// with the reports of several calls folded into one.
#[derive(Debug, PartialEq)]
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
    let mut seen = Observed {
        n: 0,
        batches: 0,
        probes: Vec::new(),
        violations: 0,
        max_err: 0.0,
        final_f: 0,
        final_estimate: 0,
        shard_estimates: Vec::new(),
        tracker_stats: CommStats::new(),
        merge_stats: CommStats::new(),
        checkpoint: Vec::new(),
    };
    for call in &calls {
        let report = engine.run_parted(call).unwrap();
        seen.n += report.n;
        seen.batches += report.batches;
        seen.probes.extend(report.probes);
        seen.violations += report.boundary_violations;
        seen.max_err = seen.max_err.max(report.max_boundary_rel_err);
        seen.final_f = report.final_f;
        seen.final_estimate = report.final_estimate;
    }
    seen.shard_estimates = engine.shard_estimates();
    seen.tracker_stats = engine.tracker_stats();
    seen.merge_stats = engine.merge_stats().clone();
    seen.checkpoint = engine.checkpoint().unwrap().to_bytes();
    seen
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

//! Fleet ≡ standalone-per-key equivalence (ISSUE 7).
//!
//! The `TrackerFleet` contract: key `x` behaves **bit-identically** to
//! one standalone tracker built from the same spec and fed `x`'s
//! substream — estimates, per-item frequencies, and `CommStats` ledgers
//! alike — for every registry kind, regardless of worker count, batch
//! segmentation, or checkpoint → resume → rescale cycles. (These run at
//! the fleet's fixed live-tracker cache, which their few keys never fill;
//! `dsv-engine`'s fleet unit tests shrink it to repeat the resume and
//! routing checks through eviction.)
//! Key → shard routing is a pure function of the key and the shard
//! count, held under proptest across worker counts and mid-stream
//! rescaling (a resume onto another worker count).

use dsv::prelude::*;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A warm spec for `kind`: multi-site where supported, universe where
/// required, fixed seed so randomized kinds are reproducible.
fn fleet_spec(kind: TrackerKind) -> (TrackerSpec, usize) {
    let k = if kind == TrackerKind::SingleSite {
        1
    } else {
        3
    };
    let mut spec = TrackerSpec::new(kind).k(k).eps(0.2).seed(17);
    if kind.info().needs_universe {
        spec = spec.universe(64);
    }
    if kind.supports_deletions() {
        spec = spec.deletions(true);
    }
    (spec, k)
}

fn fleet_cfg() -> EngineConfig {
    EngineConfig::new(4, 64).eps(0.2)
}

#[test]
fn fleet_counter_estimates_match_standalone_per_key_for_every_kind() {
    for kind in TrackerKind::COUNTERS {
        let (spec, k) = fleet_spec(kind);
        let keys = 11u64;
        let mut fleet = CounterFleet::counters(spec, fleet_cfg()).unwrap();
        let mut twins: Vec<Box<dyn Tracker + Send>> =
            (0..keys).map(|_| spec.build().unwrap()).collect();
        let mut s = 5u64;
        for _ in 0..4_000 {
            let key = lcg(&mut s) % keys;
            let site = (lcg(&mut s) % k as u64) as usize;
            let delta = if kind.supports_deletions() && lcg(&mut s).is_multiple_of(4) {
                -1
            } else {
                1 + (lcg(&mut s) % 2) as i64
            };
            fleet.update_at(key, site, delta).unwrap();
            twins[key as usize].step(site, delta);
        }
        fleet.flush().unwrap();
        let mut agg = CommStats::new();
        for key in 0..keys {
            let twin = &twins[key as usize];
            assert_eq!(
                fleet.estimate(key),
                Some(twin.estimate()),
                "{} key {key}: estimate diverged from standalone twin",
                kind.label()
            );
            agg.merge(twin.stats());
        }
        assert_eq!(
            fleet.comm_stats(),
            &agg,
            "{}: fleet ledger is not the sum of the twins'",
            kind.label()
        );
    }
}

#[test]
fn fleet_item_estimates_match_standalone_per_key_for_every_kind() {
    for kind in TrackerKind::FREQUENCIES {
        let (spec, k) = fleet_spec(kind);
        let keys = 7u64;
        let mut fleet = ItemFleet::items(spec, fleet_cfg()).unwrap();
        let mut twins: Vec<Box<dyn ItemTracker + Send>> =
            (0..keys).map(|_| spec.build_item().unwrap()).collect();
        let mut s = 77u64;
        for _ in 0..3_000 {
            let key = lcg(&mut s) % keys;
            let site = (lcg(&mut s) % k as u64) as usize;
            let item = lcg(&mut s) % 64;
            fleet.update_at(key, site, (item, 1)).unwrap();
            twins[key as usize].step(site, (item, 1));
        }
        fleet.flush().unwrap();
        let mut agg = CommStats::new();
        for key in 0..keys {
            assert_eq!(
                fleet.estimate(key),
                Some(twins[key as usize].estimate()),
                "{} key {key}: F1 estimate diverged",
                kind.label()
            );
            for item in [0u64, 7, 31, 63] {
                assert_eq!(
                    fleet.estimate_item(key, item).unwrap(),
                    twins[key as usize].estimate_item(item),
                    "{} key {key} item {item}: frequency diverged",
                    kind.label()
                );
            }
            agg.merge(twins[key as usize].stats());
        }
        assert_eq!(
            fleet.comm_stats(),
            &agg,
            "{}: fleet ledger is not the sum of the twins'",
            kind.label()
        );
    }
}

/// A bursty keyed stream of `(key, site, draw)`: bursts of 1–40 updates
/// to one key, some switching site mid-burst, with single updates to
/// random keys interleaved between them. `draw` feeds each kind's input.
fn bursty_stream(seed: u64, keys: u64, k: usize, n: usize) -> Vec<(u64, usize, u64)> {
    let mut s = seed;
    let mut out = Vec::with_capacity(n + 40);
    while out.len() < n {
        if lcg(&mut s).is_multiple_of(4) {
            out.push((
                lcg(&mut s) % keys,
                (lcg(&mut s) % k as u64) as usize,
                lcg(&mut s),
            ));
            continue;
        }
        let key = lcg(&mut s) % keys;
        let mut site = (lcg(&mut s) % k as u64) as usize;
        for _ in 0..1 + lcg(&mut s) % 40 {
            if lcg(&mut s).is_multiple_of(8) {
                site = (lcg(&mut s) % k as u64) as usize;
            }
            out.push((key, site, lcg(&mut s)));
        }
    }
    out
}

/// Bursts stage as runs: whether a batch cuts a burst, a burst switches
/// site, or single updates interleave, every key matches its standalone
/// twin in estimate, update count and ledger. Batch sizes 7 and 61 cut
/// most bursts; 4096 holds the whole stream in one batch.
#[test]
fn bursty_streams_match_standalone_per_key_at_any_batch_size() {
    let keys = 13u64;
    for batch in [7, 61, 4096] {
        let cfg = EngineConfig::new(4, batch).eps(0.2);
        for kind in TrackerKind::COUNTERS {
            let (spec, k) = fleet_spec(kind);
            let mut fleet = CounterFleet::counters(spec, cfg).unwrap();
            let mut twins: Vec<Box<dyn Tracker + Send>> =
                (0..keys).map(|_| spec.build().unwrap()).collect();
            let mut counts = vec![0u64; keys as usize];
            for (key, site, draw) in bursty_stream(batch as u64, keys, k, 3_000) {
                let delta = if kind.supports_deletions() && draw.is_multiple_of(5) {
                    -1
                } else {
                    1 + (draw % 3) as i64
                };
                fleet.update_at(key, site, delta).unwrap();
                twins[key as usize].step(site, delta);
                counts[key as usize] += 1;
            }
            fleet.flush().unwrap();
            let mut agg = CommStats::new();
            for key in 0..keys {
                let twin = &twins[key as usize];
                let audit = fleet.key_audit(key).unwrap();
                let what = format!("{} batch {batch} key {key}", kind.label());
                assert_eq!(audit.estimate, twin.estimate(), "{what}: estimate");
                assert_eq!(audit.updates, counts[key as usize], "{what}: updates");
                agg.merge(twin.stats());
            }
            assert_eq!(fleet.comm_stats(), &agg, "{} batch {batch}", kind.label());
        }
        let kind = TrackerKind::FREQUENCIES[0];
        let (spec, k) = fleet_spec(kind);
        let mut fleet = ItemFleet::items(spec, cfg).unwrap();
        let mut twins: Vec<Box<dyn ItemTracker + Send>> =
            (0..keys).map(|_| spec.build_item().unwrap()).collect();
        let mut counts = vec![0u64; keys as usize];
        for (key, site, draw) in bursty_stream(batch as u64 + 1, keys, k, 3_000) {
            fleet.update_at(key, site, (draw % 64, 1)).unwrap();
            twins[key as usize].step(site, (draw % 64, 1));
            counts[key as usize] += 1;
        }
        fleet.flush().unwrap();
        let mut agg = CommStats::new();
        for key in 0..keys {
            let twin = &twins[key as usize];
            let what = format!("{} batch {batch} key {key}", kind.label());
            assert_eq!(fleet.estimate(key), Some(twin.estimate()), "{what}");
            assert_eq!(fleet.key_audit(key).unwrap().updates, counts[key as usize]);
            for item in [0u64, 9, 63] {
                assert_eq!(
                    fleet.estimate_item(key, item).unwrap(),
                    twin.estimate_item(item),
                    "{what} item {item}"
                );
            }
            agg.merge(twin.stats());
        }
        assert_eq!(fleet.comm_stats(), &agg, "{} batch {batch}", kind.label());
    }
}

/// Checkpoint → wire round-trip → resume onto different workers →
/// continue: bit-identical estimates, ledgers, and next-checkpoint bytes,
/// for all ten kinds.
#[test]
fn fleet_checkpoint_resume_rescale_is_bit_identical_for_all_kinds() {
    for kind in TrackerKind::COUNTERS {
        let (spec, k) = fleet_spec(kind);
        let keys = 9u64;
        let mut straight = CounterFleet::counters(spec, fleet_cfg()).unwrap();
        let mut s = 31u64;
        let feed = |fleet: &mut CounterFleet, state: &mut u64, n: u64| {
            for _ in 0..n {
                let key = lcg(state) % keys;
                let site = (lcg(state) % k as u64) as usize;
                let delta = if kind.supports_deletions() && lcg(state).is_multiple_of(5) {
                    -1
                } else {
                    1
                };
                fleet.update_at(key, site, delta).unwrap();
            }
        };
        feed(&mut straight, &mut s, 2_000);
        let wire = straight.checkpoint().unwrap().to_bytes();
        let ckpt = FleetCheckpoint::from_bytes(&wire).unwrap();
        let mut resumed = CounterFleet::resume(spec, fleet_cfg().workers(3), &ckpt).unwrap();
        let mut s2 = s;
        feed(&mut straight, &mut s, 1_500);
        feed(&mut resumed, &mut s2, 1_500);
        straight.flush().unwrap();
        resumed.flush().unwrap();
        for key in 0..keys {
            assert_eq!(
                resumed.key_audit(key),
                straight.key_audit(key),
                "{} key {key}: audit diverged after resume + rescale",
                kind.label()
            );
        }
        assert_eq!(
            resumed.comm_stats(),
            straight.comm_stats(),
            "{}",
            kind.label()
        );
        assert_eq!(
            resumed.checkpoint().unwrap().to_bytes(),
            straight.checkpoint().unwrap().to_bytes(),
            "{}: checkpoint bytes diverged after resume + rescale",
            kind.label()
        );
    }
    for kind in TrackerKind::FREQUENCIES {
        let (spec, k) = fleet_spec(kind);
        let keys = 6u64;
        let mut straight = ItemFleet::items(spec, fleet_cfg()).unwrap();
        let mut s = 53u64;
        let feed = |fleet: &mut ItemFleet, state: &mut u64, n: u64| {
            for _ in 0..n {
                let key = lcg(state) % keys;
                let site = (lcg(state) % k as u64) as usize;
                let item = lcg(state) % 64;
                fleet.update_at(key, site, (item, 1)).unwrap();
            }
        };
        feed(&mut straight, &mut s, 2_000);
        let wire = straight.checkpoint().unwrap().to_bytes();
        let ckpt = FleetCheckpoint::from_bytes(&wire).unwrap();
        let mut resumed = ItemFleet::resume(spec, fleet_cfg().workers(2), &ckpt).unwrap();
        let mut s2 = s;
        feed(&mut straight, &mut s, 1_000);
        feed(&mut resumed, &mut s2, 1_000);
        straight.flush().unwrap();
        resumed.flush().unwrap();
        for key in 0..keys {
            assert_eq!(
                resumed.key_audit(key),
                straight.key_audit(key),
                "{}",
                kind.label()
            );
            for item in [3u64, 40] {
                assert_eq!(
                    resumed.estimate_item(key, item).unwrap(),
                    straight.estimate_item(key, item).unwrap(),
                    "{} key {key} item {item}",
                    kind.label()
                );
            }
        }
        assert_eq!(
            resumed.comm_stats(),
            straight.comm_stats(),
            "{}",
            kind.label()
        );
        assert_eq!(
            resumed.checkpoint().unwrap().to_bytes(),
            straight.checkpoint().unwrap().to_bytes(),
            "{}: checkpoint bytes diverged after resume + rescale",
            kind.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Key → shard routing is a pure function of the key and the shard
    /// count: worker counts and mid-stream rescaling never move a key or
    /// perturb a single checkpoint byte.
    #[test]
    fn key_routing_is_stable_across_workers_and_rescale(
        seed in any::<u64>(),
        workers in 1usize..6,
    ) {
        let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.15);
        let cfg = EngineConfig::new(8, 32).eps(0.15);
        let mut baseline = CounterFleet::counters(spec, cfg).unwrap();
        let mut varied = CounterFleet::counters(spec, cfg.workers(workers)).unwrap();
        let mut s = seed | 1;
        let mut keys_seen = Vec::new();
        for t in 0..600u64 {
            let key = lcg(&mut s) % 97;
            let site = (lcg(&mut s) % 2) as usize;
            keys_seen.push(key);
            baseline.update_at(key, site, 1).unwrap();
            varied.update_at(key, site, 1).unwrap();
            if t == 300 {
                // Rescale: resume onto another worker count, cutting the
                // same early boundary in the baseline.
                baseline.flush().unwrap();
                let ckpt = varied.checkpoint().unwrap();
                let cfg = cfg.workers(workers % 4 + 1);
                varied = CounterFleet::resume(spec, cfg, &ckpt).unwrap();
            }
        }
        baseline.flush().unwrap();
        varied.flush().unwrap();
        for &key in &keys_seen {
            prop_assert_eq!(baseline.shard_of(key), varied.shard_of(key));
            prop_assert_eq!(baseline.estimate(key), varied.estimate(key));
        }
        let wire = baseline.checkpoint().unwrap().to_bytes();
        prop_assert_eq!(&wire, &varied.checkpoint().unwrap().to_bytes());
        // Resume relocates nothing: every key still routes to the shard
        // that checkpointed it, under yet another worker count.
        let ckpt = FleetCheckpoint::from_bytes(&wire).unwrap();
        let resumed = CounterFleet::resume(spec, cfg.workers(5), &ckpt).unwrap();
        for &key in &keys_seen {
            prop_assert_eq!(resumed.shard_of(key), baseline.shard_of(key));
            prop_assert_eq!(resumed.estimate(key), baseline.estimate(key));
        }
    }
}

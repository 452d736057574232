//! Fleet delta checkpoints: the dirty path ≡ the full compare.
//!
//! `TrackerFleet::checkpoint_delta` diffs straight from the slab when its
//! parent is a state the fleet passed through (it walks only the keys
//! whose update count moved), and falls back to `FleetDelta::between`
//! against a fresh checkpoint for any other parent. Either way the delta
//! must be byte for byte the full compare's, and `apply` must rebuild the
//! live checkpoint. The first test holds that for every registry kind,
//! worker count and cache capacity over every kind of ancestor; the
//! others feed parents that are *not* ancestors but would fool a dirty
//! walk (equal update counts, different states), so a guard that let
//! them through shows as a wrong rebuild.

use dsv::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A warm spec for `kind`, as in `fleet_equivalence.rs`: multi-site
/// where supported, universe where required, a fixed seed.
fn fleet_spec(kind: TrackerKind, eps: f64) -> (TrackerSpec, usize) {
    let k = if kind == TrackerKind::SingleSite {
        1
    } else {
        3
    };
    let mut spec = TrackerSpec::new(kind).k(k).eps(eps).seed(17);
    if kind.info().needs_universe {
        spec = spec.universe(64);
    }
    if kind.supports_deletions() {
        spec = spec.deletions(true);
    }
    (spec, k)
}

/// `checkpoint_delta(parent)` must be exactly the full compare against
/// the live checkpoint, and rebuild it.
fn assert_matches_full<T, In>(fleet: &mut TrackerFleet<T, In>, parent: &FleetCheckpoint, what: &str)
where
    T: Tracker<In> + Send,
    In: InputDelta + Send,
{
    let delta = fleet.checkpoint_delta(parent).unwrap();
    let live = fleet.checkpoint().unwrap();
    let full = FleetDelta::between(parent, &live).unwrap();
    assert_eq!(delta.to_bytes(), full.to_bytes(), "{what}: delta bytes");
    assert_eq!(delta.apply(parent).unwrap(), live, "{what}: rebuilt child");
}

/// For a parent the fleet may not trust: the same `CheckpointMismatch`
/// as the full compare, or a delta that rebuilds the live checkpoint.
fn assert_guarded<T, In>(fleet: &mut TrackerFleet<T, In>, parent: &FleetCheckpoint, what: &str)
where
    T: Tracker<In> + Send,
    In: InputDelta + Send,
{
    let got = fleet.checkpoint_delta(parent);
    let live = fleet.checkpoint().unwrap();
    match FleetDelta::between(parent, &live) {
        Ok(full) => {
            let delta = got.unwrap();
            assert_eq!(delta.to_bytes(), full.to_bytes(), "{what}: delta bytes");
            assert_eq!(delta.apply(parent).unwrap(), live, "{what}: rebuilt child");
        }
        Err(err) => assert_eq!(got.unwrap_err(), err, "{what}: refusal"),
    }
}

/// The shape of a keyed tape: sites, a window of `keys` keys, and
/// `len` updates per segment, each drawn by `input`.
struct Shape<'a, In> {
    k: usize,
    keys: u64,
    len: usize,
    input: &'a dyn Fn(&mut u64) -> In,
}

/// Segment `seg` of a keyed tape: keys from a window that slides a third
/// of its width per segment (old keys go quiet, new keys appear), random
/// sites, and an input per update.
fn tape<In>(seg: u64, shape: &Shape<'_, In>) -> Vec<(u64, usize, In)> {
    let mut s = 1 + seg;
    (0..shape.len)
        .map(|_| {
            let key = shape.keys / 3 * seg + lcg(&mut s) % shape.keys;
            let site = (lcg(&mut s) % shape.k as u64) as usize;
            (key, site, (shape.input)(&mut s))
        })
        .collect()
}

fn play<T, In>(fleet: &mut TrackerFleet<T, In>, tape: &[(u64, usize, In)])
where
    T: Tracker<In> + Send,
    In: InputDelta + Send,
{
    for &(key, site, input) in tape {
        fleet.update_at(key, site, input).unwrap();
    }
}

/// Every kind of ancestor, on one fleet and on one resumed from it.
fn every_ancestor<T, In>(
    label: &str,
    cfg: EngineConfig,
    build: &dyn Fn(EngineConfig) -> TrackerFleet<T, In>,
    resume: &dyn Fn(EngineConfig, &FleetCheckpoint) -> TrackerFleet<T, In>,
    shape: &Shape<'_, In>,
) where
    T: Tracker<In> + Send,
    In: InputDelta + Send,
{
    let mut fleet = build(cfg);
    play(&mut fleet, &tape(0, shape));
    let older = fleet.checkpoint().unwrap();
    play(&mut fleet, &tape(1, shape));
    let last = fleet.checkpoint().unwrap();
    assert_matches_full(&mut fleet, &last, &format!("{label}: the live state"));
    play(&mut fleet, &tape(2, shape));
    assert_matches_full(&mut fleet, &last, &format!("{label}: the last checkpoint"));
    assert_matches_full(&mut fleet, &older, &format!("{label}: an older ancestor"));
    assert_matches_full(&mut fleet, &last.clone(), &format!("{label}: a clone"));

    let link = fleet.checkpoint_delta(&last).unwrap().apply(&last).unwrap();
    play(&mut fleet, &tape(3, shape));
    assert_matches_full(
        &mut fleet,
        &link,
        &format!("{label}: an applied chain link"),
    );

    let origin = fleet.checkpoint().unwrap();
    let mut resumed = resume(cfg, &origin);
    play(&mut resumed, &tape(4, shape));
    assert_matches_full(&mut resumed, &origin, &format!("{label}: the resume point"));
    assert_matches_full(
        &mut resumed,
        &older,
        &format!("{label}: the origin's ancestor"),
    );
}

#[test]
fn the_dirty_path_equals_the_full_compare_for_every_kind_worker_count_and_cache() {
    for workers in [1, 2, 3] {
        for cache in [Some(1), None] {
            let mut cfg = EngineConfig::new(4, 16).workers(workers);
            if let Some(cap) = cache {
                cfg = cfg.fleet_cache(cap);
            }
            for kind in TrackerKind::COUNTERS {
                let (spec, k) = fleet_spec(kind, 0.2);
                let cfg = cfg.eps(0.2);
                let deletions = kind.supports_deletions();
                every_ancestor(
                    &format!("{} W={workers} cache={cache:?}", kind.label()),
                    cfg,
                    &|cfg| CounterFleet::counters(spec, cfg).unwrap(),
                    &|cfg, ckpt| CounterFleet::resume(spec, cfg, ckpt).unwrap(),
                    &Shape {
                        k,
                        keys: 24,
                        len: 240,
                        input: &|s| match lcg(s) % 4 {
                            0 if deletions => -1,
                            r => 1 + r as i64 % 2,
                        },
                    },
                );
            }
            for kind in TrackerKind::FREQUENCIES {
                // Sketch states are tens of kilobytes a key even at this
                // ε: fewer keys and updates than the counters get.
                let (spec, k) = fleet_spec(kind, 0.5);
                let cfg = cfg.eps(0.5);
                let deletions = kind.supports_deletions();
                every_ancestor(
                    &format!("{} W={workers} cache={cache:?}", kind.label()),
                    cfg,
                    &|cfg| ItemFleet::items(spec, cfg).unwrap(),
                    &|cfg, ckpt| ItemFleet::resume(spec, cfg, ckpt).unwrap(),
                    &Shape {
                        k,
                        keys: 9,
                        len: 60,
                        input: &|s| {
                            let item = lcg(s) % 64;
                            (
                                item,
                                if deletions && lcg(s).is_multiple_of(5) {
                                    -1
                                } else {
                                    1
                                },
                            )
                        },
                    },
                );
            }
        }
    }
}

/// Keys in first-touch order `keys`, each updated `per_key` times at
/// site 0 with `delta`: fleets fed the same keys share their slot order
/// and every key's update count, whatever their deltas.
fn feed(fleet: &mut CounterFleet, keys: &[u64], per_key: usize, delta: i64) {
    for _ in 0..per_key {
        for &key in keys {
            fleet.update(key, delta).unwrap();
        }
    }
    fleet.flush().unwrap();
}

#[test]
fn the_ancestry_guard_refuses_parents_that_are_not_ancestors() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic).eps(0.1);
    let keys: Vec<u64> = (0..40).collect();
    let reversed: Vec<u64> = keys.iter().rev().copied().collect();
    for workers in [1, 2] {
        let cfg = EngineConfig::new(4, 32).workers(workers).eps(0.1);
        let mut fleet = CounterFleet::counters(spec, cfg).unwrap();
        feed(&mut fleet, &keys, 6, 1);
        let mine = fleet.checkpoint().unwrap();

        // A decoded parent carries no stamp, whichever fleet it came from;
        // `==` is still byte equality.
        let decoded = FleetCheckpoint::from_bytes(&mine.to_bytes()).unwrap();
        assert_eq!(decoded, mine);
        feed(&mut fleet, &keys[..10], 3, 1);
        assert_guarded(&mut fleet, &decoded, "a decoded parent");

        // A twin fed the same keys as often, with other deltas: every
        // update count agrees with the fleet's, no state does.
        let mut twin = CounterFleet::counters(spec, cfg).unwrap();
        feed(&mut twin, &keys, 6, 3);
        feed(&mut twin, &keys[..10], 3, 3);
        let theirs = twin.checkpoint().unwrap();
        assert_eq!(theirs.time(), fleet.time());
        assert_guarded(&mut fleet, &theirs, "a twin's checkpoint");

        // A twin that met the keys in another order: no shared prefix,
        // so the full compare refuses it, and so must the fleet.
        let mut stranger = CounterFleet::counters(spec, cfg).unwrap();
        feed(&mut stranger, &reversed, 1, 1);
        let strange = stranger.checkpoint().unwrap();
        assert!(FleetDelta::between(&strange, &fleet.checkpoint().unwrap()).is_err());
        assert_guarded(&mut fleet, &strange, "a checkpoint of another key order");

        // The origin went on after the resume point, the resumed fleet
        // elsewhere: the origin's later checkpoint shares the lineage the
        // resumed fleet trusts, but not its history.
        let resume_point = fleet.checkpoint().unwrap();
        let mut resumed = CounterFleet::resume(spec, cfg, &resume_point).unwrap();
        feed(&mut fleet, &keys, 2, 1);
        feed(&mut resumed, &keys, 2, -1);
        let later = fleet.checkpoint().unwrap();
        assert!(later.time() > resume_point.time());
        assert_eq!(later.time(), resumed.time());
        assert_guarded(&mut resumed, &later, "the origin after the resume point");
        // The resume point itself is trusted, and still right.
        assert_matches_full(&mut resumed, &resume_point, "the resume point");
    }
}

//! Tracker state is O(k), not O(messages sent).
//!
//! The paper's §3.1 partitioner keeps two words per site and O(k) at the
//! coordinator; a monitor that runs for a month must not grow with the
//! blocks it has closed. These tests drive the worst case for the
//! partitioner — `f` oscillating around zero, so the radius stays small
//! and a block closes every ~k updates — and hold the snapshot payload to
//! a constant length, for every registry kind and through the fleet's
//! frozen slots.
//!
//! Release builds run the stated sizes (10^5 / 10^6 / 10^7 updates; ci.sh
//! runs this file under `--release` as well); debug builds a tenth, which
//! still closes tens of thousands of blocks.

use dsv::prelude::*;

/// Length of one same-sign run of the oscillation.
const RUN: usize = 37;

/// Runs of the oscillation in `updates` updates at this build's scale.
fn runs_in(updates: usize) -> usize {
    updates / RUN / if cfg!(debug_assertions) { 10 } else { 1 }
}

/// The `j`-th run's sign: +1 only where the kind cannot delete, else
/// alternating, so `f` swings inside `[0, 37]`.
fn sign(kind: TrackerKind, j: usize) -> i64 {
    if kind.supports_deletions() && j % 2 == 1 {
        -1
    } else {
        1
    }
}

/// Feed the oscillation through `update_run`, one run per site in turn,
/// and return the snapshot payload's length at each of the `marks`
/// (cumulative update counts). `input` shapes (position in run, delta)
/// into the tracker's input.
fn lengths_at<In: Copy, const N: usize>(
    tracker: &mut (impl Tracker<In> + ?Sized),
    marks: [usize; N],
    input: impl Fn(usize, i64) -> In,
) -> [usize; N] {
    let (kind, k) = (tracker.kind(), tracker.k());
    let run_of = |d: i64| -> Vec<In> { (0..RUN).map(|i| input(i, d)).collect() };
    let (up, down) = (run_of(1), run_of(-1));
    let mut from = 0;
    marks.map(|updates| {
        for j in from..runs_in(updates) {
            tracker.update_run(j % k, if sign(kind, j) > 0 { &up } else { &down });
        }
        from = runs_in(updates);
        tracker.snapshot().unwrap().payload().len()
    })
}

fn spec_for(kind: TrackerKind) -> TrackerSpec {
    let k = if kind == TrackerKind::SingleSite {
        1
    } else {
        4
    };
    // Every block end scans the whole counter vector, so the sketches
    // get a wide ε (short vectors); the partitioner does not read ε.
    let sketched = matches!(kind, TrackerKind::CountMinFreq | TrackerKind::CrPrecisFreq);
    let mut spec = TrackerSpec::new(kind)
        .k(k)
        .eps(if sketched { 0.9 } else { 0.1 })
        .seed(7)
        .deletions(kind.supports_deletions());
    if kind.info().needs_universe {
        spec = spec.universe(RUN);
    }
    spec
}

#[test]
fn snapshot_length_is_flat_for_every_kind() {
    // 10^5 updates, then 10^6: the payload may change, its length may not.
    let marks = [100_000, 1_000_000];
    for kind in TrackerKind::ALL {
        let spec = spec_for(kind);
        let [at_early, at_late] = if kind.problem() == Problem::Counting {
            lengths_at(&mut *spec.build().unwrap(), marks, |_, d| d)
        } else {
            // A run inserts items 0..37, the next deletes the same ones.
            lengths_at(&mut *spec.build_item().unwrap(), marks, |i, d| {
                (i as u64, d)
            })
        };
        assert_eq!(
            at_early,
            at_late,
            "{}: state grew from {at_early} B at 1e5 updates to {at_late} B at 1e6",
            kind.label()
        );
    }
}

#[test]
fn deterministic_state_is_flat_over_ten_million_loud_updates() {
    let mut tracker = spec_for(TrackerKind::Deterministic).build().unwrap();
    let marks = [100_000, 1_000_000, 10_000_000];
    let sizes = lengths_at(&mut *tracker, marks, |_, d| d);
    // Loud: more than four messages per update, all the way.
    let fed = (runs_in(marks[2]) * RUN) as u64;
    assert!(tracker.stats().total_messages() > 4 * fed);
    assert!(sizes[0] < 1_024, "O(k) words at k = 4, got {} B", sizes[0]);
    assert_eq!(sizes, [sizes[0]; 3]);
}

#[test]
fn frozen_fleet_slots_do_not_grow() {
    // 1,088 loud keys on one shard, whose cache holds 1,024 live
    // trackers: walking more keys than it holds in the same order every
    // boundary misses on every touch, so every boundary thaws, steps and
    // re-freezes every key, and a growing state would show as growing
    // live arena bytes per key.
    const KEYS: u64 = 1_088;
    let spec = spec_for(TrackerKind::Deterministic);
    let cfg = EngineConfig::new(1, KEYS as usize * RUN).eps(0.1);
    let mut fleet = CounterFleet::counters(spec, cfg).unwrap();
    let live_bytes_per_key = |fleet: &CounterFleet| {
        let mem = fleet.memory();
        assert_eq!(mem.keys, KEYS);
        assert!(mem.cached_trackers < KEYS, "the cache did not evict");
        (mem.arena_bytes - mem.arena_garbage) / mem.keys
    };
    let boundary = |fleet: &mut CounterFleet, j: usize| {
        for key in 0..KEYS {
            for _ in 0..RUN {
                fleet
                    .update_at(key, j % 4, sign(TrackerKind::Deterministic, j))
                    .unwrap();
            }
        }
        fleet.flush().unwrap();
    };
    for j in 0..8 {
        boundary(&mut fleet, j);
    }
    let warm = live_bytes_per_key(&fleet);
    for j in 8..72 {
        boundary(&mut fleet, j);
    }
    assert_eq!(fleet.boundaries(), 72);
    assert!(fleet.comm_stats().total_messages() > 4 * KEYS * 72 * RUN as u64);
    let after = live_bytes_per_key(&fleet);
    assert!(
        after <= warm,
        "frozen state grew from {warm} to {after} B per key over 64 boundaries"
    );
}

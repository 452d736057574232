//! The incremental checkpoint contract, end to end: a `CheckpointStore`
//! fed from a live engine retains a chain of boundaries, survives a
//! "kill" (serialize, drop everything, decode), and every retained
//! boundary — base or mid-chain delta — materializes into a checkpoint
//! that resumes **bit-identically**: same estimates, same `CommStats`
//! ledgers, same re-snapshot bytes as the uninterrupted run. Held for
//! every `TrackerKind`, for fleet delta chains, and (with the `remote`
//! feature) for the delta-pull wire protocol and its byte accounting.

use dsv::net::{ItemUpdate, Update};
use dsv::prelude::*;

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

/// Everything the resume-equivalence claim covers, bundled.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    time: u64,
    estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: dsv::net::CommStats,
    merge_stats: dsv::net::CommStats,
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

#[test]
fn every_counter_kind_resumes_from_mid_chain_boundaries_bit_identically() {
    let shards = 4;
    let batch = 512;
    let segments = 6u64;
    let seg = 2 * batch as u64; // each boundary lands on a batch boundary
    let n = segments * seg;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            4
        };
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.2)
            .seed(17)
            .deletions(kind.supports_deletions());
        let cfg = EngineConfig::new(shards, batch).eps(0.2).delta_rebase(3);
        let stream = counter_stream(2_000 + kind as u64, n, k, kind.supports_deletions());

        // Record every segment boundary into the store, keeping each
        // full image for the bit-identity audit.
        let mut store = CheckpointStore::new(cfg.delta_rebase_period());
        let mut recorder = ShardedEngine::counters(spec, cfg).unwrap();
        let mut images = Vec::new();
        for i in 0..segments {
            recorder
                .run(&stream[(i * seg) as usize..((i + 1) * seg) as usize])
                .unwrap();
            let time = recorder.checkpoint_into(&mut store).unwrap();
            images.push((time, recorder.checkpoint().unwrap().to_bytes()));
        }
        let want = fingerprint(&recorder);
        let want_image = images.last().unwrap().1.clone();
        // rebase = 3 over 6 boundaries: base, Δ, Δ, Δ, base, Δ.
        assert_eq!(store.stats().bases, 2, "{}", kind.label());

        // "Kill": only the store's bytes survive.
        let bytes = store.to_bytes();
        drop((recorder, store));
        let store = CheckpointStore::from_bytes(&bytes).unwrap();

        // Every retained boundary — bases and mid-chain deltas alike —
        // materializes bit-identically to the image recorded there...
        for (time, image) in &images {
            assert_eq!(
                store.materialize(*time).unwrap().to_bytes(),
                *image,
                "{} boundary t = {time}",
                kind.label()
            );
        }
        // ...and resuming from a mid-chain boundary (including onto a
        // different worker count — resume-then-rescale) finishes the
        // stream with the uninterrupted run's exact fingerprint and
        // re-snapshot bytes.
        for time in [images[3].0, images[4].0] {
            for workers in [shards, 2] {
                let ckpt = store.materialize(time).unwrap();
                let mut resumed = CounterEngine::resume(spec, cfg.workers(workers), &ckpt).unwrap();
                resumed.run(&stream[time as usize..]).unwrap();
                assert_eq!(
                    fingerprint(&resumed),
                    want,
                    "{} resumed from t = {time} onto {workers} workers diverged",
                    kind.label()
                );
                assert_eq!(
                    resumed.checkpoint().unwrap().to_bytes(),
                    want_image,
                    "{} re-snapshot from t = {time} diverged",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn every_frequency_kind_resumes_from_mid_chain_boundaries_bit_identically() {
    let shards = 3;
    let batch = 256;
    let segments = 5u64;
    let seg = 2 * batch as u64;
    let universe = 64u64;
    for kind in TrackerKind::FREQUENCIES {
        let spec = TrackerSpec::new(kind)
            .k(3)
            .eps(0.25)
            .seed(23)
            .universe(universe as usize);
        let cfg = EngineConfig::new(shards, batch).eps(0.25).delta_rebase(2);
        let stream = item_stream(3_000 + kind as u64, segments * seg, 3, universe);

        let mut store = CheckpointStore::new(cfg.delta_rebase_period());
        let mut recorder = ShardedEngine::items(spec, cfg).unwrap();
        let mut images = Vec::new();
        for i in 0..segments {
            recorder
                .run(&stream[(i * seg) as usize..((i + 1) * seg) as usize])
                .unwrap();
            let time = recorder.checkpoint_into(&mut store).unwrap();
            images.push((time, recorder.checkpoint().unwrap().to_bytes()));
        }
        let want = fingerprint(&recorder);

        let bytes = store.to_bytes();
        drop(store);
        let store = CheckpointStore::from_bytes(&bytes).unwrap();
        for (time, image) in &images {
            assert_eq!(
                store.materialize(*time).unwrap().to_bytes(),
                *image,
                "{} boundary t = {time}",
                kind.label()
            );
        }
        for time in [images[1].0, images[2].0] {
            for workers in [1, shards] {
                let ckpt = store.materialize(time).unwrap();
                let mut resumed = ItemEngine::resume(spec, cfg.workers(workers), &ckpt).unwrap();
                resumed.run(&stream[time as usize..]).unwrap();
                assert_eq!(
                    fingerprint(&resumed),
                    want,
                    "{} resumed from t = {time} onto {workers} workers diverged",
                    kind.label()
                );
                for item in (0..universe).step_by(7) {
                    assert_eq!(
                        resumed.estimate_item(item),
                        recorder.estimate_item(item),
                        "{} item {item}",
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn fleet_delta_chains_resume_from_mid_chain_parents_bit_identically() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(2)
        .eps(0.15)
        .deletions(true);
    let cfg = EngineConfig::new(4, 64).eps(0.15);
    let keys = 23u64;
    let segments = 4usize;
    let per_segment = 900usize;

    // One deterministic update tape, replayable from any segment cut.
    let mut s = 55u64;
    let tape: Vec<(u64, usize, i64)> = (0..segments * per_segment)
        .map(|_| {
            let key = lcg(&mut s) % keys;
            let site = (lcg(&mut s) % 2) as usize;
            let delta = if lcg(&mut s).is_multiple_of(6) { -1 } else { 1 };
            (key, site, delta)
        })
        .collect();
    let play = |fleet: &mut CounterFleet, range: std::ops::Range<usize>| {
        for &(key, site, delta) in &tape[range] {
            fleet.update_at(key, site, delta).unwrap();
        }
    };

    // Record a chain: one full parent, then one FleetDelta per segment.
    let mut recorder = CounterFleet::counters(spec, cfg).unwrap();
    play(&mut recorder, 0..per_segment);
    let base = recorder.checkpoint().unwrap();
    let mut chain_bytes = vec![base.to_bytes()];
    let mut prev = base;
    for i in 1..segments {
        play(&mut recorder, i * per_segment..(i + 1) * per_segment);
        let delta = recorder.checkpoint_delta(&prev).unwrap();
        chain_bytes.push(delta.to_bytes());
        prev = delta.apply(&prev).unwrap();
    }
    let want_final = recorder.checkpoint().unwrap();
    assert_eq!(prev, want_final, "replayed chain tip != live checkpoint");

    // "Kill": decode the chain from bytes and resume from every link.
    for upto in 1..=segments {
        let mut ckpt = FleetCheckpoint::from_bytes(&chain_bytes[0]).unwrap();
        for link in &chain_bytes[1..upto] {
            ckpt = FleetDelta::from_bytes(link).unwrap().apply(&ckpt).unwrap();
        }
        let mut resumed = CounterFleet::resume(spec, cfg, &ckpt).unwrap();
        // Replay with the recorder's boundary schedule: one reconcile
        // (checkpoint) at the end of each remaining segment.
        let mut tip = ckpt;
        for i in upto..segments {
            play(&mut resumed, i * per_segment..(i + 1) * per_segment);
            tip = resumed.checkpoint().unwrap();
        }
        assert_eq!(
            tip.to_bytes(),
            want_final.to_bytes(),
            "fleet resumed from chain link {upto} diverged"
        );
        for key in (0..keys).step_by(3) {
            assert_eq!(resumed.estimate(key), recorder.estimate(key), "key {key}");
        }
    }
}

#[cfg(feature = "remote")]
mod remote {
    use super::*;

    fn feeds(seed: u64, k: usize, n: usize) -> Vec<(usize, Vec<i64>)> {
        let mut s = seed;
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|site| (site, Vec::new())).collect();
        for i in 0..n {
            let delta = if lcg(&mut s).is_multiple_of(3) { -1 } else { 1 };
            feeds[i % k].1.push(delta);
        }
        feeds
    }

    fn part(feeds: &[(usize, Vec<i64>)], range: std::ops::Range<usize>) -> Vec<(usize, &[i64])> {
        feeds
            .iter()
            .map(|(s, v)| {
                let lo = range.start.min(v.len());
                let hi = range.end.min(v.len());
                (*s, &v[lo..hi])
            })
            .collect()
    }

    fn rcfg() -> RemoteConfig {
        RemoteConfig {
            io_timeout: std::time::Duration::from_millis(500),
            ..RemoteConfig::default()
        }
    }

    #[test]
    fn remote_boundaries_feed_the_store_and_resume_bit_identically() {
        // A remote engine is a full-fidelity checkpoint source for a
        // delta store: record each segment's checkpoint into a store, kill everything but the store bytes, and a local engine
        // resumed from a mid-chain boundary converges to the remote
        // engine's exact final image.
        let k = 4;
        let per_site = 3_000usize;
        let segments = 3usize;
        let data = feeds(71, k, k * per_site * segments);
        let cfg = EngineConfig::new(4, 250).delta_rebase(2);
        let spec = TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true);

        let mut remote = RemoteEngine::counters(spec, cfg, rcfg()).unwrap();
        let mut store = CheckpointStore::new(cfg.delta_rebase_period());
        let mut times = Vec::new();
        for i in 0..segments {
            remote
                .run_parted(&part(&data, i * per_site..(i + 1) * per_site))
                .unwrap();
            let ckpt = remote.checkpoint().unwrap();
            store.record(&ckpt).unwrap();
            times.push(ckpt.time());
        }
        let want_image = remote.checkpoint().unwrap().to_bytes();

        let bytes = store.to_bytes();
        drop(store);
        let store = CheckpointStore::from_bytes(&bytes).unwrap();
        assert_eq!(store.boundaries(), times);

        // Resume locally from the mid-chain boundary and finish.
        let mid = times[1];
        let ckpt = store.materialize(mid).unwrap();
        let mut resumed = CounterEngine::resume(spec, cfg, &ckpt).unwrap();
        resumed
            .run_parted(&part(&data, 2 * per_site..segments * per_site))
            .unwrap();
        assert_eq!(resumed.checkpoint().unwrap().to_bytes(), want_image);
        assert_eq!(resumed.estimate(), remote.estimate());
        assert_eq!(resumed.time(), remote.time());
    }

    #[test]
    fn delta_pull_accounting_agrees_between_wire_and_ledger() {
        // The regression this pins: checkpoint traffic must be charged
        // once on the dedicated checkpoint ledger and once on WireStats,
        // in agreement. A commit rides the round reports, so a syncing
        // run receives exactly the frames a non-syncing baseline does;
        // its extra bytes must be exactly the encoded states its extra
        // commits (boundaries 4, 8 and 12 of 16) captured, and those
        // states the extra messages its checkpoint ledger records.
        use dsv::engine::remote::wire::ToCoord;
        let k = 2;
        let data = feeds(93, k, 16_000);
        let spec = TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true);
        let quiet_cfg = EngineConfig::new(k, 500);
        let sync_cfg = quiet_cfg.checkpoint_every(4);

        let mut baseline = RemoteEngine::counters(spec, quiet_cfg, rcfg()).unwrap();
        baseline.run_parted(&part(&data, 0..8_000)).unwrap();
        let base = baseline.wire_stats();
        let base_msgs = baseline.checkpoint_stats().total_messages();

        let mut synced = RemoteEngine::counters(spec, sync_cfg, rcfg()).unwrap();
        synced.run_parted(&part(&data, 0..8_000)).unwrap();
        let wire = synced.wire_stats();
        let msgs = synced.checkpoint_stats().total_messages();

        // The shards' states at the extra commits, from the in-process
        // engine run to each boundary.
        let mut local = ShardedEngine::counters(spec, quiet_cfg).unwrap();
        let mut extra = Vec::new();
        for seg in 0..3 {
            local
                .run_parted(&part(&data, seg * 2_000..(seg + 1) * 2_000))
                .unwrap();
            extra.extend_from_slice(local.checkpoint().unwrap().states());
        }
        let report = |states| {
            let entries = Vec::new();
            ToCoord::RoundReport {
                round: 0,
                entries,
                states,
            }
            .to_bytes()
            .len()
        };
        let extra_bytes: usize = extra
            .iter()
            .map(|s| report(vec![s.clone()]) - report(vec![]))
            .sum();

        assert!(msgs > base_msgs, "no mid-run syncs ran");
        assert_eq!(
            wire.frames_received, base.frames_received,
            "a commit cost a frame of its own"
        );
        assert_eq!(
            wire.bytes_received - base.bytes_received,
            extra_bytes as u64,
            "checkpoint bytes on the wire and the states captured disagree"
        );
        assert_eq!(
            msgs - base_msgs,
            extra.len() as u64,
            "checkpoint states and ledger messages disagree"
        );
    }
}

//! Codec robustness: truncated, corrupted, and wrong-version state
//! payloads must surface as typed `CodecError`s — never panics, never
//! silent acceptance of trailing garbage, never unbounded allocation from
//! corrupted length prefixes.

use dsv::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A warm snapshot of `kind` (counter kinds), taken mid-stream so every
/// state vector is populated.
fn warm_state(kind: TrackerKind) -> (TrackerSpec, TrackerState) {
    let k = if kind == TrackerKind::SingleSite {
        1
    } else {
        3
    };
    let spec = TrackerSpec::new(kind)
        .k(k)
        .eps(0.2)
        .seed(9)
        .deletions(kind.supports_deletions());
    let mut tracker = spec.build().unwrap();
    let mut s = 41u64;
    for _ in 0..1_500 {
        let site = lcg(&mut s) as usize % k;
        let delta = if kind.supports_deletions() && lcg(&mut s).is_multiple_of(3) {
            -1
        } else {
            1
        };
        tracker.step(site, delta);
    }
    (spec, tracker.snapshot().unwrap())
}

#[test]
fn truncation_at_every_byte_is_an_error_for_every_counter_kind() {
    for kind in TrackerKind::COUNTERS {
        let (spec, state) = warm_state(kind);
        let bytes = state.to_bytes();
        for cut in 0..bytes.len() {
            match TrackerState::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                // The envelope may decode from a truncated byte stream
                // only if the cut hides nothing (impossible: cut < len).
                Ok(_) => panic!("{}: cut at {cut} decoded", kind.label()),
            }
        }
        // The payload itself can also be cut *after* envelope decode:
        // truncate the inner payload and restore must fail, not panic.
        let payload = state.payload();
        for cut in [0, 1, payload.len() / 2, payload.len().saturating_sub(1)] {
            let clipped = TrackerState::new(state.kind(), state.k(), payload[..cut].to_vec());
            assert!(
                spec.resume(&clipped).is_err(),
                "{}: clipped payload at {cut} restored",
                kind.label()
            );
        }
    }
}

#[test]
fn corrupted_bytes_never_panic_and_usually_fail_typed() {
    // Flip every byte of a warm snapshot (one at a time) and decode +
    // restore. Corruption may happen to produce a *valid* alternative
    // state (e.g. a flipped counter value) — that is fine; what must
    // never happen is a panic or an allocation blow-up.
    let (spec, state) = warm_state(TrackerKind::Randomized);
    let bytes = state.to_bytes();
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        if let Ok(s) = TrackerState::from_bytes(&evil) {
            let _ = spec.resume(&s); // a flipped scalar may be "valid" — fine
        }
    }
    // What is NOT allowed to survive: any flip in the envelope head
    // (magic, version, kind tag) — those must be specific typed errors.
    for i in 0..7 {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        let err = TrackerState::from_bytes(&evil).err().or_else(|| {
            spec.resume(&TrackerState::from_bytes(&evil).unwrap())
                .err()
                .map(|e| match e {
                    ResumeError::Codec(c) => c,
                    ResumeError::Build(_) => CodecError::UnsupportedNode,
                })
        });
        assert!(err.is_some(), "envelope flip at byte {i} was accepted");
    }
}

/// The six kinds built on the §3.1 block partitioner.
const BLOCK_KINDS: [TrackerKind; 6] = [
    TrackerKind::Deterministic,
    TrackerKind::Randomized,
    TrackerKind::ExactFreq,
    TrackerKind::CountMinFreq,
    TrackerKind::CrPrecisFreq,
    TrackerKind::RandFreq,
];

/// Substitute 0x00 / 0x80 / 0xFF for every `stride`-th byte of `state`'s
/// payload in turn, restore, and — where the restore is accepted — keep
/// running: `inputs` one `step` at a time round-robin, the last 512 as
/// one `update_run`. Returns one replayable line (kind, byte offset,
/// value) per case that panicked instead of failing typed or running on.
fn restore_then_continue<In: Copy, T: Tracker<In> + ?Sized>(
    state: &TrackerState,
    inputs: &[In],
    stride: usize,
    resume: impl Fn(&TrackerState) -> Result<Box<T>, ResumeError>,
) -> Vec<String> {
    let (steps, run) = inputs.split_at(inputs.len() - 512);
    let mut panicked = Vec::new();
    for offset in (0..state.payload().len()).step_by(stride) {
        for value in [0x00u8, 0x80, 0xFF] {
            let mut evil = state.payload().to_vec();
            if evil[offset] == value {
                continue;
            }
            evil[offset] = value;
            let evil = TrackerState::new(state.kind(), state.k(), evil);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Ok(mut tracker) = resume(&evil) {
                    for (i, &input) in steps.iter().enumerate() {
                        tracker.step(i % state.k(), input);
                    }
                    tracker.update_run(0, run);
                }
            }));
            if outcome.is_err() {
                panicked.push(format!(
                    "{}: payload[{offset}] = {value:#04x}",
                    state.kind().label()
                ));
            }
        }
    }
    panicked
}

#[test]
fn corrupted_states_restore_typed_or_keep_running() {
    // `corrupted_bytes_never_panic_and_usually_fail_typed` stops at the
    // restore; a corrupted-but-decodable state does its damage on the
    // *next update* (a collection that closes on the first reply, a
    // shift by a radius ≥ 64, a sampling probability outside [0, 1]).
    // `load_state` must refuse what the protocol cannot run from.
    let mut s = 67u64;
    let deltas: Vec<i64> = (0..2_512)
        .map(|_| if lcg(&mut s).is_multiple_of(3) { -1 } else { 1 })
        .collect();
    let mut panicked = Vec::new();
    for kind in BLOCK_KINDS {
        if kind.problem() == Problem::Counting {
            let (spec, state) = warm_state(kind);
            panicked.extend(restore_then_continue(&state, &deltas, 1, |s| {
                spec.resume(s)
            }));
            continue;
        }
        // Item kinds: a small universe and, for the sketches, a wide ε
        // keep the counter vectors short. The sketch kinds run the very
        // `FreqSite`/`FreqCoord` that `ExactFreq` probes byte by byte —
        // only their vectors are longer — so they take every 7th offset
        // (coprime to the 8-byte word: every byte lane is still hit).
        let sketched = matches!(kind, TrackerKind::CountMinFreq | TrackerKind::CrPrecisFreq);
        let spec = TrackerSpec::new(kind)
            .k(3)
            .eps(if sketched { 0.9 } else { 0.2 })
            .seed(9)
            .universe(8)
            .deletions(true);
        let mut tracker = spec.build_item().unwrap();
        let mut items = |n: usize| -> Vec<(u64, i64)> {
            (0..n)
                .map(|_| {
                    let item = lcg(&mut s) % 8;
                    (item, if lcg(&mut s).is_multiple_of(3) { -1 } else { 1 })
                })
                .collect()
        };
        for (i, input) in items(1_500).into_iter().enumerate() {
            tracker.step(i % 3, input);
        }
        let state = tracker.snapshot().unwrap();
        let stride = if sketched { 7 } else { 1 };
        panicked.extend(restore_then_continue(&state, &items(2_512), stride, |s| {
            spec.resume_item(s)
        }));
    }
    assert!(
        panicked.is_empty(),
        "{} corrupted states were accepted and then panicked:\n{}",
        panicked.len(),
        panicked.join("\n")
    );
}

#[test]
fn wrong_version_and_wrong_magic_are_specific_errors() {
    let (_, state) = warm_state(TrackerKind::Deterministic);
    let bytes = state.to_bytes();

    let mut future = bytes.clone();
    future[4] = 0xEE; // version word
    future[5] = 0x03;
    assert!(matches!(
        TrackerState::from_bytes(&future),
        Err(CodecError::UnsupportedVersion { .. })
    ));

    let mut zero = bytes.clone();
    zero[4] = 0;
    zero[5] = 0;
    assert!(matches!(
        TrackerState::from_bytes(&zero),
        Err(CodecError::UnsupportedVersion { found: 0, .. })
    ));

    // The retired `DSVT` v1 (its coordinator state ended in the block
    // log): one generation per format, so it is refused by version, not
    // mis-read positionally.
    let mut v1 = bytes.clone();
    v1[4] = 1;
    v1[5] = 0;
    assert_eq!(
        TrackerState::from_bytes(&v1),
        Err(CodecError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    );

    let mut alien = bytes.clone();
    alien[..4].copy_from_slice(b"JUNK");
    assert!(matches!(
        TrackerState::from_bytes(&alien),
        Err(CodecError::BadMagic { .. })
    ));

    let mut trailing = bytes;
    trailing.extend_from_slice(&[1, 2, 3]);
    assert_eq!(
        TrackerState::from_bytes(&trailing),
        Err(CodecError::Trailing { left: 3 })
    );
}

#[test]
fn engine_checkpoints_survive_the_same_gauntlet() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(4)
        .eps(0.1)
        .deletions(true);
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(4, 256)).unwrap();
    let updates: Vec<dsv::net::Update> = (1..=4_096)
        .map(|t| dsv::net::Update::new(t, (t % 4) as usize, if t % 5 == 0 { -1 } else { 1 }))
        .collect();
    engine.run(&updates).unwrap();
    let bytes = engine.checkpoint().unwrap().to_bytes();

    for cut in 0..bytes.len() {
        assert!(
            EngineCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    for i in 0..bytes.len().min(64) {
        let mut evil = bytes.clone();
        evil[i] ^= 0xFF;
        let _ = EngineCheckpoint::from_bytes(&evil); // must not panic
    }
    let restored = EngineCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(restored.shards(), 4);
    assert_eq!(restored.kind(), TrackerKind::Deterministic);

    // Resuming with a disagreeing config is a typed engine error.
    let err = CounterEngine::resume(spec, EngineConfig::new(3, 256), &restored).unwrap_err();
    assert!(matches!(
        err,
        EngineError::CheckpointMismatch {
            what: "logical shard count",
            ..
        }
    ));
    let wrong_kind = TrackerSpec::new(TrackerKind::Naive).k(4);
    let err = CounterEngine::resume(wrong_kind, EngineConfig::new(4, 256), &restored).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Codec(_) | EngineError::CheckpointMismatch { .. }
    ));
    assert!(!err.to_string().is_empty());
}

#[test]
fn fleet_checkpoints_survive_the_same_gauntlet() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(2)
        .eps(0.15)
        .deletions(true);
    let mut fleet = CounterFleet::counters(spec, EngineConfig::new(4, 64).eps(0.15)).unwrap();
    let mut s = 19u64;
    for _ in 0..1_024 {
        let key = lcg(&mut s) % 31;
        let site = (lcg(&mut s) % 2) as usize;
        let delta = if lcg(&mut s).is_multiple_of(6) { -1 } else { 1 };
        fleet.update_at(key, site, delta).unwrap();
    }
    let bytes = fleet.checkpoint().unwrap().to_bytes();

    // Every-byte truncation is a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(
            FleetCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
    // Every-byte corruption must not panic or blow up allocation; a flip
    // may land in a scalar and decode, which is fine.
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        let _ = FleetCheckpoint::from_bytes(&evil);
    }
    // Envelope flips (magic, version, kind tag) are always rejected.
    for i in 0..7 {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        assert!(
            FleetCheckpoint::from_bytes(&evil).is_err(),
            "fleet envelope flip at byte {i} was accepted"
        );
    }
    // Version skew and trailing garbage are the specific typed errors.
    let mut future = bytes.clone();
    future[4] = 0x7F;
    future[5] = 0x01;
    assert!(matches!(
        FleetCheckpoint::from_bytes(&future),
        Err(CodecError::UnsupportedVersion { .. })
    ));
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[9, 9]);
    assert!(matches!(
        FleetCheckpoint::from_bytes(&trailing),
        Err(CodecError::Trailing { left: 2 })
    ));

    // The round-trip itself is exact, and shape disagreements at resume
    // are typed engine errors.
    let restored = FleetCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(restored.kind(), TrackerKind::Deterministic);
    assert_eq!(restored.shards(), 4);
    let err = match CounterFleet::resume(spec, EngineConfig::new(5, 64).eps(0.15), &restored) {
        Err(e) => e,
        Ok(_) => panic!("resume onto a disagreeing shard count was accepted"),
    };
    assert!(matches!(
        err,
        EngineError::CheckpointMismatch {
            what: "logical shard count",
            ..
        }
    ));
    assert!(!err.to_string().is_empty());
}

/// Decode a whole payload as one bare [`StateDelta`], requiring exact
/// consumption.
fn decode_delta(bytes: &[u8]) -> Result<StateDelta, CodecError> {
    let mut dec = dsv::net::Dec::new(bytes);
    let delta = StateDelta::decode(&mut dec)?;
    dec.finish()?;
    Ok(delta)
}

#[test]
fn state_deltas_survive_the_gauntlet() {
    // A bare section diff between two warm snapshots of the same
    // tracker: the base mid-stream, the target after more traffic.
    let kind = TrackerKind::Deterministic;
    let spec = TrackerSpec::new(kind).k(3).eps(0.2).deletions(true);
    let mut tracker = spec.build().unwrap();
    let mut s = 77u64;
    let drive = |tracker: &mut Box<dyn Tracker + Send>, n: usize, s: &mut u64| {
        for _ in 0..n {
            let site = lcg(s) as usize % 3;
            let delta = if lcg(s).is_multiple_of(3) { -1 } else { 1 };
            tracker.step(site, delta);
        }
    };
    drive(&mut tracker, 1_200, &mut s);
    let base = tracker.snapshot().unwrap().payload().to_vec();
    drive(&mut tracker, 800, &mut s);
    let target = tracker.snapshot().unwrap().payload().to_vec();

    let delta = StateDelta::diff(&base, &target);
    assert_eq!(delta.apply(&base).unwrap(), target);
    let mut enc = dsv::net::Enc::new();
    delta.encode(&mut enc);
    let bytes = enc.into_bytes();
    assert_eq!(decode_delta(&bytes).unwrap(), delta);

    // Every-byte truncation is a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(decode_delta(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Every-byte corruption must not panic; if a flip happens to decode,
    // applying it must either fail typed or still land exactly on a
    // payload matching its recorded result fingerprint — the apply path
    // never hands back unvalidated bytes.
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        if let Ok(d) = decode_delta(&evil) {
            if let Ok(out) = d.apply(&base) {
                assert_eq!(
                    dsv::net::fingerprint(&out),
                    d.new_hash(),
                    "flip at {i}: apply returned bytes that contradict the delta's own hash"
                );
            }
        }
    }
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[0, 1]);
    assert!(matches!(
        decode_delta(&trailing),
        Err(CodecError::Trailing { left: 2 })
    ));

    // Applying against the wrong base is a typed mismatch, both when the
    // impostor differs in length and when it merely differs in content:
    // the rebuilt bytes miss the result's pin.
    let err = delta.apply(&target).unwrap_err();
    assert!(matches!(err, CodecError::Mismatch { .. }), "{err}");
    let mut impostor = base.clone();
    impostor[base.len() / 2] ^= 0x5A;
    assert!(matches!(
        delta.apply(&impostor),
        Err(CodecError::Mismatch {
            what: "delta result fingerprint",
            ..
        })
    ));
}

#[test]
fn checkpoint_store_bytes_survive_the_gauntlet() {
    // Two boundaries, never rebased: boundary 1 is all base links,
    // boundary 2 all delta links — the shortest store exercising both
    // link tags and the chain-coherence checks.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(3)
        .eps(0.1)
        .deletions(true);
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(3, 256)).unwrap();
    let mut store = CheckpointStore::new(0);
    let stream = |from: u64, to: u64| -> Vec<dsv::net::Update> {
        (from..=to)
            .map(|t| dsv::net::Update::new(t, (t % 3) as usize, if t % 5 == 0 { -1 } else { 1 }))
            .collect()
    };
    engine.run(&stream(1, 1_009)).unwrap();
    let t1 = engine.checkpoint_into(&mut store).unwrap();
    engine.run(&stream(1_010, 2_022)).unwrap();
    let t2 = engine.checkpoint_into(&mut store).unwrap();
    assert_eq!((t1, t2), (1_009, 2_022));
    let bytes = store.to_bytes();

    // Every-byte truncation is a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(CheckpointStore::from_bytes(&bytes[..cut]).is_err(), "{cut}");
    }
    // Every-byte corruption must not panic. The decoder replays every
    // chain against its result pins, so a flip that still decodes (a
    // scalar, or base bytes no later link reads) leaves a store whose
    // every boundary materializes.
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        if let Ok(store) = CheckpointStore::from_bytes(&evil) {
            for time in store.boundaries() {
                if let Err(e) = store.materialize(time) {
                    panic!("flip at {i}: decoded store cannot materialize t = {time}: {e}");
                }
            }
        }
    }
    // Envelope head flips (magic, version, kind tag) are always rejected.
    for i in 0..7 {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        assert!(
            CheckpointStore::from_bytes(&evil).is_err(),
            "store envelope flip at byte {i} was accepted"
        );
    }
    // Version skew and trailing garbage are the specific typed errors.
    let mut future = bytes.clone();
    future[4] = 0x7F;
    future[5] = 0x01;
    assert!(matches!(
        CheckpointStore::from_bytes(&future),
        Err(CodecError::UnsupportedVersion { .. })
    ));
    // `DSVS` v1 base links held bare `DSVT` v1 payloads, and v2 delta
    // links opened with their own `DSVD` envelope and base pin: both
    // refused whole.
    for version in [1u16, 2] {
        let mut old = bytes.clone();
        old[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            CheckpointStore::from_bytes(&old).err(),
            Some(CodecError::UnsupportedVersion {
                found: version,
                supported: 3
            })
        );
    }
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[3]);
    assert!(matches!(
        CheckpointStore::from_bytes(&trailing),
        Err(CodecError::Trailing { left: 1 })
    ));

    // Chain surgery. The fixed-layout header is magic(4) + version(2) +
    // kind(1) + k(8) + shards(8) + rebase(8) + boundary count(8), so the
    // records start at byte 39 and record 1 opens with t1's LE word;
    // record 2 opens with t2's. Locate record 2 by that word.
    const RECORDS_AT: usize = 39;
    let needle = t2.to_le_bytes();
    let hits: Vec<usize> = (RECORDS_AT..bytes.len() - 7)
        .filter(|&i| bytes[i..i + 8] == needle)
        .collect();
    assert_eq!(hits.len(), 1, "boundary-2 time word must be unique");
    let rec2 = hits[0];

    // Reordered chain links: swapping the two boundary records puts the
    // delta-linked boundary first — a typed error (the chain would start
    // with deltas and the times run backwards), never a wrong decode.
    let mut swapped = bytes[..RECORDS_AT].to_vec();
    swapped.extend_from_slice(&bytes[rec2..]);
    swapped.extend_from_slice(&bytes[RECORDS_AT..rec2]);
    assert!(matches!(
        CheckpointStore::from_bytes(&swapped),
        Err(CodecError::BadValue { .. } | CodecError::Mismatch { .. })
    ));

    // A broken chain: drop the base boundary entirely (count patched to
    // 1) so the surviving record's deltas have no base to stand on.
    let mut orphaned = bytes[..RECORDS_AT].to_vec();
    orphaned[RECORDS_AT - 8..RECORDS_AT].copy_from_slice(&1u64.to_le_bytes());
    orphaned.extend_from_slice(&bytes[rec2..]);
    assert!(matches!(
        CheckpointStore::from_bytes(&orphaned),
        Err(CodecError::BadValue {
            what: "store chain start (delta before any base)"
        })
    ));

    // Cross-wired links: shards 0 and 1 of record 2 trade their delta
    // links. Both still decode, and each names only its result, so it is
    // the replay that refuses them: shard 1's diff rebuilt on shard 0's
    // base misses its pin. Record 2 is time, f, the merge blob, then per
    // shard tag 2 + result length + pin + one op per 64-byte section.
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let link_end = |at: usize| {
        assert_eq!(bytes[at], 2, "record 2 holds delta links");
        let mut q = at + 17;
        for _ in 0..word(at + 1).div_ceil(64) {
            q += if bytes[q] == 0 {
                1
            } else {
                2 + bytes[q + 1] as usize
            };
        }
        q
    };
    let link0 = rec2 + 16 + 8 + word(rec2 + 16);
    let (link1, link2) = (link_end(link0), link_end(link_end(link0)));
    let mut crossed = bytes[..link0].to_vec();
    crossed.extend_from_slice(&bytes[link1..link2]);
    crossed.extend_from_slice(&bytes[link0..link1]);
    crossed.extend_from_slice(&bytes[link2..]);
    assert_eq!(crossed.len(), bytes.len());
    assert!(matches!(
        CheckpointStore::from_bytes(&crossed),
        Err(CodecError::Mismatch {
            what: "delta result fingerprint",
            ..
        })
    ));

    // The untampered bytes still round-trip to a working store.
    let back = CheckpointStore::from_bytes(&bytes).unwrap();
    assert_eq!(back.boundaries(), vec![t1, t2]);
    assert_eq!(
        back.materialize(t2).unwrap().to_bytes(),
        engine.checkpoint().unwrap().to_bytes()
    );
}

#[test]
fn fleet_delta_tables_survive_the_gauntlet() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(2)
        .eps(0.15)
        .deletions(true);
    let mut fleet = CounterFleet::counters(spec, EngineConfig::new(4, 64).eps(0.15)).unwrap();
    let mut s = 23u64;
    let churn = |fleet: &mut CounterFleet, n: usize, s: &mut u64| {
        for _ in 0..n {
            let key = lcg(s) % 17;
            let site = (lcg(s) % 2) as usize;
            let delta = if lcg(s).is_multiple_of(6) { -1 } else { 1 };
            fleet.update_at(key, site, delta).unwrap();
        }
    };
    churn(&mut fleet, 700, &mut s);
    let parent = fleet.checkpoint().unwrap();
    churn(&mut fleet, 500, &mut s);
    let delta = fleet.checkpoint_delta(&parent).unwrap();
    let child = fleet.checkpoint().unwrap();
    assert_eq!(delta.apply(&parent).unwrap(), child);
    let bytes = delta.to_bytes();

    // Every-byte truncation is a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(FleetDelta::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Every-byte corruption must not panic; a decoded impostor must not
    // apply cleanly onto the true parent unless it still names the
    // parent's exact fingerprint, every changed state lands on its pin,
    // and the table is self-consistent: it round-trips as a checkpoint.
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        if let Ok(d) = FleetDelta::from_bytes(&evil) {
            if let Ok(rebuilt) = d.apply(&parent) {
                assert_eq!(
                    FleetCheckpoint::from_bytes(&rebuilt.to_bytes()).as_ref(),
                    Ok(&rebuilt),
                    "flip at {i}"
                );
            }
        }
    }
    // Envelope head flips (magic, version, table variant) are rejected.
    for i in 0..7 {
        let mut evil = bytes.clone();
        evil[i] ^= 0xA5;
        assert!(
            FleetDelta::from_bytes(&evil).is_err(),
            "fleet delta envelope flip at byte {i} was accepted"
        );
    }
    // Version skew, v1 downgrade, and trailing garbage are specific.
    let mut future = bytes.clone();
    future[4] = 0x7F;
    future[5] = 0x01;
    assert!(matches!(
        FleetDelta::from_bytes(&future),
        Err(CodecError::UnsupportedVersion { .. })
    ));
    let mut v1 = bytes.clone();
    v1[4] = 1;
    v1[5] = 0;
    assert!(matches!(
        FleetDelta::from_bytes(&v1),
        Err(CodecError::UnsupportedVersion { found: 1, .. })
    ));
    // `DSVF` v4 nested each changed slot's diff in a `DSVD` envelope.
    let mut v4 = bytes.clone();
    v4[4] = 4;
    v4[5] = 0;
    assert_eq!(
        FleetDelta::from_bytes(&v4).err(),
        Some(CodecError::UnsupportedVersion {
            found: 4,
            supported: dsv::engine::FLEET_VERSION
        })
    );
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[8, 8, 8]);
    assert!(matches!(
        FleetDelta::from_bytes(&trailing),
        Err(CodecError::Trailing { left: 3 })
    ));

    // Applying against the wrong parent is a typed mismatch.
    assert!(matches!(
        delta.apply(&child),
        Err(CodecError::Mismatch {
            what: "fleet delta parent fingerprint",
            ..
        })
    ));

    // The two DSVF table variants refuse to decode as each other.
    assert!(FleetCheckpoint::from_bytes(&bytes).is_err());
    assert!(FleetDelta::from_bytes(&child.to_bytes()).is_err());
}

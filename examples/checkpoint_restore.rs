//! Kill and resume a sharded engine mid-stream — the snapshot seam.
//!
//! ```sh
//! cargo run --release --example checkpoint_restore
//! ```
//!
//! A long-lived monitor's correctness lives entirely in per-site counters
//! and thresholds; without a state seam, a crash or a worker migration
//! means replaying the whole stream. This example runs the same
//! deterministic tracker through `dsv-engine` twice:
//!
//! * **straight through** — the uninterrupted reference;
//! * **killed at the halfway batch boundary** — `checkpoint()` serializes
//!   every shard replica (sites, coordinator, `CommStats`) plus the merge
//!   coordinator to bytes, the engine is dropped ("the process dies"),
//!   and `CounterEngine::resume` rebuilds it from those bytes onto
//!   *fewer workers* (resuming is how an engine is rescaled) to finish
//!   the stream.
//!
//! The two runs must agree **bit for bit** — final estimate, per-shard
//! estimates, tracker ledger, merge ledger — which this example asserts,
//! making it the CI checkpoint/resume gate. A tracker-level
//! `snapshot → TrackerSpec::resume` round trip is demonstrated alongside.

use dsv::prelude::*;

fn main() {
    let k = 8; // sites
    let shards = 4;
    let batch = 4_096;
    let eps = 0.1;
    let n = 40 * batch as u64; // 163_840 updates
    let cut = 20 * batch; // the halfway batch boundary

    // A drifting walk with deletions, spread round-robin over the sites.
    let deltas = WalkGen::biased(4242, 0.35).deltas(n);
    let updates = assign_updates(&deltas, RoundRobin::new(k));
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(eps)
        .deletions(true);
    let cfg = EngineConfig::new(shards, batch).eps(eps);

    println!("== checkpoint_restore: {n} updates, S={shards} shards, batch {batch} ==\n");

    // ---- The uninterrupted reference. ------------------------------------
    let mut straight = ShardedEngine::counters(spec, cfg).expect("valid engine");
    let straight_report = straight.run(&updates).expect("valid stream");

    // ---- Run half, checkpoint at the boundary, "crash". ------------------
    let mut doomed = ShardedEngine::counters(spec, cfg).expect("valid engine");
    doomed.run(&updates[..cut]).expect("valid stream");
    let checkpoint = doomed.checkpoint().expect("all kinds snapshot");
    let bytes = checkpoint.to_bytes();
    println!(
        "checkpointed at t = {:>7}: {} shard states, {} bytes on the wire,",
        doomed.time(),
        checkpoint.shards(),
        bytes.len(),
    );
    println!(
        "snapshot traffic charged: {} frames, {} words (own ledger)\n",
        doomed.checkpoint_stats().total_messages(),
        doomed.checkpoint_stats().total_words(),
    );
    drop(doomed); // the process dies here

    // ---- Resume from bytes onto half the workers, finish the stream. ----
    let recovered = EngineCheckpoint::from_bytes(&bytes).expect("intact checkpoint");
    let mut resumed =
        CounterEngine::resume(spec, cfg.workers(2), &recovered).expect("same spec, same shards");
    let resumed_report = resumed.run(&updates[cut..]).expect("valid stream");
    println!(
        "resumed onto {} workers (was {}), drove {} remaining updates",
        resumed_report.workers, straight_report.workers, resumed_report.n,
    );

    // ---- The equivalence gate: bit-identical, ledgers included. ----------
    println!(
        "straight : fhat = {:>7}, f = {:>7}, {:>7} tracker msgs, {:>4} merge msgs",
        straight.estimate(),
        straight_report.final_f,
        straight.tracker_stats().total_messages(),
        straight.merge_stats().total_messages(),
    );
    println!(
        "resumed  : fhat = {:>7}, f = {:>7}, {:>7} tracker msgs, {:>4} merge msgs",
        resumed.estimate(),
        resumed_report.final_f,
        resumed.tracker_stats().total_messages(),
        resumed.merge_stats().total_messages(),
    );
    assert_eq!(resumed.estimate(), straight.estimate(), "estimate differs");
    assert_eq!(resumed_report.final_f, straight_report.final_f);
    assert_eq!(resumed.time(), straight.time());
    assert_eq!(
        resumed.shard_estimates(),
        straight.shard_estimates(),
        "per-shard estimates differ"
    );
    assert_eq!(
        resumed.tracker_stats(),
        straight.tracker_stats(),
        "tracker ledger differs"
    );
    assert_eq!(
        resumed.merge_stats(),
        straight.merge_stats(),
        "merge ledger differs"
    );
    println!("\nkill + resume + rescale reproduced the uninterrupted run bit-for-bit.");

    // ---- The same seam, one tracker at a time. ---------------------------
    let mut solo = spec.build().expect("valid spec");
    for u in &updates[..1_000] {
        solo.step(u.site, u.delta);
    }
    let state = solo.snapshot().expect("registered kind");
    let mut revived = spec.resume(&state).expect("same spec");
    for u in &updates[1_000..2_000] {
        solo.step(u.site, u.delta);
        revived.step(u.site, u.delta);
    }
    assert_eq!(revived.estimate(), solo.estimate());
    assert_eq!(revived.stats(), solo.stats());
    println!(
        "tracker-level seam: TrackerState of {} bytes resumed {} bit-for-bit too.",
        state.to_bytes().len(),
        state.kind().label(),
    );
}

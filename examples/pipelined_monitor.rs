//! Pipelined monitoring: a laggy feed no longer stalls fast shards.
//!
//! ```sh
//! cargo run --release --example pipelined_monitor
//! ```
//!
//! The `sharded_monitor` example drives the engine from one thread with
//! the whole stream in hand. Deployed monitors don't have that luxury:
//! each edge router streams its own flow events at its own pace, and one
//! laggy router must not hold up the rest. This example runs the same
//! deterministic tracker through `ShardedEngine::run_pipelined`: every
//! router gets a bounded feed queue (`ShardFeed`), one deliberately lags
//! (it sleeps between chunk pushes), and the engine's workers drain
//! their own queues, up to 64 rounds ahead of the laggy one, while the
//! engine reconciles each completed window of batch boundaries.
//!
//! Two things are demonstrated and asserted:
//!
//! * **Fast shards finish early.** The fast routers' feeds are fully
//!   absorbed long before the laggy router is done producing — their
//!   workers do not wait on the straggler (measured directly: the fast
//!   producers' wall-clock vs the whole run's).
//! * **The answer is unchanged.** Estimates and the tracker + merge
//!   `CommStats` ledgers are bit-identical to `run_parted` over the same
//!   per-router sequences — the overlap is pure execution, not a
//!   different computation.

use dsv::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let k = 4; // edge routers
    let eps = 0.1;
    let batch = 4_096;
    let rounds = 24;
    let laggy: usize = 2;
    let lag = Duration::from_millis(3);
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(eps)
        .deletions(true);
    let cfg = EngineConfig::new(k, batch).eps(eps);

    // Per-router flow-event streams (mostly opens, some closes).
    let feeds: Vec<Vec<i64>> = (0..k)
        .map(|r| {
            let mut gen = WalkGen::biased(40 + r as u64, 0.25);
            gen.deltas((rounds * batch) as u64)
        })
        .collect();
    let sites: Vec<usize> = (0..k).collect();

    // Reference: the synchronized parted path over the same feeds.
    let mut reference = ShardedEngine::counters(spec, cfg).expect("valid spec");
    let slices: Vec<(usize, &[i64])> = feeds
        .iter()
        .enumerate()
        .map(|(s, v)| (s, v.as_slice()))
        .collect();
    let ref_report = reference.run_parted(&slices).expect("valid stream");

    // Pipelined: one producer thread per router; router `laggy` sleeps
    // between chunks, the rest push flat out (paced by backpressure).
    let mut engine = ShardedEngine::counters(spec, cfg).expect("valid spec");
    let started = Instant::now();
    let mut fast_done = Duration::ZERO;
    let report = engine
        .run_pipelined(&sites, |handles| {
            std::thread::scope(|s| {
                let producers: Vec<_> = handles
                    .into_iter()
                    .zip(&feeds)
                    .map(|(mut handle, data)| {
                        s.spawn(move || {
                            let site = handle.site();
                            for chunk in data.chunks(batch) {
                                if site == laggy {
                                    std::thread::sleep(lag);
                                }
                                handle.push_batch(chunk).expect("validated stream");
                            }
                            (site, started.elapsed())
                        })
                    })
                    .collect();
                fast_done = producers
                    .into_iter()
                    .map(|p| p.join().expect("producer panicked"))
                    .filter(|&(site, _)| site != laggy)
                    .map(|(_, at)| at)
                    .max()
                    .expect("fast producers exist");
            });
        })
        .expect("valid stream");
    let total = started.elapsed();

    println!(
        "== pipelined_monitor: {} flow events, k = {k} routers, router {laggy} lags {}ms/chunk ==\n",
        report.n,
        lag.as_millis()
    );
    println!(
        "parted (sync)  : f = {:>7}, fhat = {:>7}, violations {:>2}, {:>6} msgs",
        ref_report.final_f,
        ref_report.final_estimate,
        ref_report.boundary_violations,
        ref_report.total_stats().total_messages(),
    );
    println!(
        "pipelined      : f = {:>7}, fhat = {:>7}, violations {:>2}, {:>6} msgs",
        report.final_f,
        report.final_estimate,
        report.boundary_violations,
        report.total_stats().total_messages(),
    );
    println!(
        "ingest ledger  : {} frames / {} words shipped, {} push stalls, {} drain waits, mean occupancy {:.0}",
        report.ingest_stats.frames,
        report.ingest_stats.words,
        report.ingest_stats.push_stalls,
        report.ingest_stats.pop_waits,
        report.ingest_stats.mean_occupancy(),
    );

    // The demonstration: fast routers were fully ingested while the
    // laggy one was still trickling in.
    println!(
        "\nfast routers finished pushing at {:>5.1} ms; laggy router held the run open to {:>5.1} ms",
        fast_done.as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e3,
    );
    assert!(
        fast_done < total / 2,
        "fast feeds should finish in the laggy feed's shadow ({fast_done:?} vs {total:?})"
    );

    // The guarantee: bit-identical to the synchronized path.
    assert_eq!(report.final_f, ref_report.final_f, "same ground truth");
    assert_eq!(
        report.final_estimate, ref_report.final_estimate,
        "same merged estimate"
    );
    assert_eq!(
        engine.shard_estimates(),
        reference.shard_estimates(),
        "same replica states"
    );
    assert_eq!(
        engine.tracker_stats(),
        reference.tracker_stats(),
        "same protocol traffic"
    );
    assert_eq!(
        engine.merge_stats(),
        reference.merge_stats(),
        "same merge traffic"
    );
    assert_eq!(report.n, ref_report.n);

    println!(
        "\nreading: each router's queue feeds its own shard worker, so the\n\
         laggy router only delays its own shard's rounds; the other workers\n\
         absorbed their whole feeds early ({rounds} rounds, inside one 64-round\n\
         window) and the engine reconciled the window once the laggy\n\
         router's rounds were in. The estimates and both\n\
         CommStats ledgers are asserted bit-identical to run_parted —\n\
         pipelining changes when work happens, never what is computed."
    );
}

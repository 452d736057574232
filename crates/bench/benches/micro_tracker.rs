//! Criterion micro-benchmarks for the tracker hot paths (cost per stream
//! update, including all protocol work the update triggers).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dsv_core::api::Tracker;
use dsv_core::deterministic::DeterministicTracker;
use dsv_core::randomized::RandomizedTracker;
use dsv_core::variability::VariabilityMeter;
use dsv_gen::{DeltaGen, WalkGen};
use std::hint::black_box;

fn bench_variability_meter(c: &mut Criterion) {
    let mut g = c.benchmark_group("variability");
    g.throughput(Throughput::Elements(1));
    g.bench_function("meter_observe", |b| {
        let mut m = VariabilityMeter::new();
        let mut sign = 1i64;
        b.iter(|| {
            sign = -sign;
            black_box(m.observe(black_box(sign)))
        })
    });
    g.finish();
}

fn bench_trackers(c: &mut Criterion) {
    let n = 50_000usize;
    let k = 8;
    let eps = 0.1;
    let deltas = WalkGen::biased(3, 0.2).deltas(n as u64);

    let mut g = c.benchmark_group("tracker_per_update");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("deterministic_k8", |b| {
        b.iter_batched(
            || DeterministicTracker::sim(k, eps),
            |mut sim| {
                for (i, &d) in deltas.iter().enumerate() {
                    black_box(sim.step(i % k, d));
                }
                sim
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("randomized_k8", |b| {
        b.iter_batched(
            || RandomizedTracker::sim(k, eps, 42),
            |mut sim| {
                for (i, &d) in deltas.iter().enumerate() {
                    black_box(sim.step(i % k, d));
                }
                sim
            },
            BatchSize::LargeInput,
        )
    });
    // The per-message path: every site walks a fair ±1 walk reflected
    // into [56, 72], fed through `update_run` in site-affine chunks the
    // way `run_parted` feeds a shard. That is ~515 messages per 1,000
    // updates, the benchmark's `loud-parted` rate (533).
    let feeds: Vec<Vec<i64>> = (0..k as u64)
        .map(|site| {
            let mut coin = WalkGen::fair(100 + site);
            let mut x = 0i64;
            (0..(n / k) as i64)
                .map(|t| {
                    let d = match coin.next_delta() {
                        _ if t < 64 => 1,
                        d if (56..=72).contains(&(x + d)) => d,
                        d => -d,
                    };
                    x += d;
                    d
                })
                .collect()
        })
        .collect();
    g.bench_function("deterministic_k8_loud_run", |b| {
        b.iter_batched(
            || DeterministicTracker::sim(k, eps),
            |mut sim| {
                for at in (0..n / k).step_by(512) {
                    for (site, feed) in feeds.iter().enumerate() {
                        let chunk = &feed[at..(at + 512).min(feed.len())];
                        black_box(Tracker::update_run(&mut sim, site, chunk));
                    }
                }
                sim
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_variability_meter, bench_trackers);
criterion_main!(benches);

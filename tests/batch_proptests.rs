//! Property tests: the run seam (`Tracker::update_run`, fed same-site
//! runs) is bit-identical to the per-update `step` loop for **every**
//! `TrackerKind`, on arbitrary streams, placements, and batch splits —
//! including through the specialized `absorb_quiet`
//! kernels of the hot kinds, on pathological run shapes (long all-quiet
//! stretches, sign crossings, duplicate-heavy item runs) included.

use dsv::prelude::*;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Random split of `n` into chunks of 1..=max (the batch boundaries).
fn chunks(mut seed: u64, n: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut left = n;
    while left > 0 {
        let c = (lcg(&mut seed) as usize % max + 1).min(left);
        out.push(c);
        left -= c;
    }
    out
}

fn random_sites(mut seed: u64, n: usize, k: usize) -> Vec<usize> {
    (0..n).map(|_| lcg(&mut seed) as usize % k).collect()
}

/// Bursty placement: consecutive runs of 1..=max inputs, each at one
/// random site.
fn bursty_runs<T: Copy>(stream: &[T], k: usize, mut seed: u64, max: usize) -> Vec<(usize, Vec<T>)> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let site = lcg(&mut seed) as usize % k;
        let len = (lcg(&mut seed) as usize % max + 1).min(stream.len() - at);
        runs.push((site, stream[at..at + len].to_vec()));
        at += len;
    }
    runs
}

/// Feed `batch` in random chunks of 1..=`max` inputs (batch boundaries
/// cut runs anywhere), each chunk one same-site run at a time through
/// `update_run`. Returns the estimate after the last run.
fn feed_chunked_runs<In: Copy>(
    tracker: &mut (impl Tracker<In> + ?Sized),
    batch: &[(usize, In)],
    seed: u64,
    max: usize,
) -> i64 {
    let mut last = tracker.estimate();
    let mut at = 0;
    for c in chunks(seed, batch.len(), max) {
        for run in batch[at..at + c].chunk_by(|a, b| a.0 == b.0) {
            let inputs: Vec<In> = run.iter().map(|&(_, input)| input).collect();
            last = tracker.update_run(run[0].0, &inputs);
        }
        at += c;
    }
    last
}

/// `(item, delete?)` draws as a ±1 item stream: deletions only of items
/// currently present, so counts stay ≥ 0.
fn item_stream(ops: &[(u64, bool)], universe: usize) -> Vec<(u64, i64)> {
    let mut counts = vec![0i64; universe];
    ops.iter()
        .map(|&(item, del)| {
            let delta = if del && counts[item as usize] > 0 {
                -1
            } else {
                1
            };
            counts[item as usize] += delta;
            (item, delta)
        })
        .collect()
}

/// `update_run` over `runs` equals the `step` loop for a counter kind:
/// the estimate each run returns, the final estimate, the ledger, and the
/// snapshot bytes.
fn counter_runs_match(spec: TrackerSpec, runs: &[(usize, Vec<i64>)]) -> Result<(), TestCaseError> {
    let label = spec.kind().label();
    let mut a = spec.build().unwrap();
    let mut b = spec.build().unwrap();
    for (site, inputs) in runs {
        let mut last_a = a.estimate();
        for &d in inputs {
            last_a = a.step(*site, d);
        }
        prop_assert_eq!(
            b.update_run(*site, inputs),
            last_a,
            "{} returned estimate",
            label
        );
    }
    prop_assert_eq!(b.estimate(), a.estimate(), "{} estimate", label);
    prop_assert_eq!(b.stats(), a.stats(), "{} stats", label);
    prop_assert_eq!(
        b.snapshot().unwrap().to_bytes(),
        a.snapshot().unwrap().to_bytes(),
        "{} serialized state",
        label
    );
    Ok(())
}

/// `update_run` over `runs` equals the `step` loop for a frequency kind:
/// F1, the ledger, every per-item estimate in `0..universe`, and the
/// snapshot bytes — the sharpest oracle, since every field (RNG
/// positions, pending thresholds) must agree.
fn item_runs_match(
    spec: TrackerSpec,
    universe: u64,
    runs: &[(usize, Vec<(u64, i64)>)],
) -> Result<(), TestCaseError> {
    let label = spec.kind().label();
    let mut a = spec.build_item().unwrap();
    let mut b = spec.build_item().unwrap();
    for (site, inputs) in runs {
        for &input in inputs {
            a.step(*site, input);
        }
        b.update_run(*site, inputs);
    }
    prop_assert_eq!(b.estimate(), a.estimate(), "{} F1", label);
    prop_assert_eq!(b.stats(), a.stats(), "{} stats", label);
    for item in 0..universe {
        prop_assert_eq!(
            b.estimate_item(item),
            a.estimate_item(item),
            "{} item {}",
            label,
            item
        );
    }
    prop_assert_eq!(
        b.snapshot().unwrap().to_bytes(),
        a.snapshot().unwrap().to_bytes(),
        "{} serialized state",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same-site runs of arbitrary chunkings of a mixed-site stream equal
    /// the `step` loop for all six counter kinds: same estimate, same
    /// message ledger.
    #[test]
    fn chunked_site_runs_match_step_loop_for_all_counter_kinds(
        deltas in prop::collection::vec(prop_oneof![Just(1i64), Just(-1i64), Just(2), Just(-3)], 1..600),
        k in 1usize..5,
        eps in 0.05f64..0.5,
        seed in 0u64..10_000,
    ) {
        for kind in TrackerKind::COUNTERS {
            let k_eff = if kind == TrackerKind::SingleSite { 1 } else { k };
            let stream: Vec<i64> = if kind.supports_deletions() {
                deltas.clone()
            } else {
                deltas.iter().map(|d| d.abs()).collect()
            };
            let sites = random_sites(seed ^ 0x5151, stream.len(), k_eff);
            let batch: Vec<(usize, i64)> =
                sites.into_iter().zip(stream.iter().copied()).collect();

            let spec = TrackerSpec::new(kind).k(k_eff).eps(eps).seed(seed);
            let mut a = spec.build().unwrap();
            let mut last_a = a.estimate();
            for &(s, d) in &batch {
                last_a = a.step(s, d);
            }

            let mut b = spec.build().unwrap();
            let last_b = feed_chunked_runs(&mut b, &batch, seed ^ 0xbeef, 64);

            prop_assert_eq!(last_b, last_a, "{} returned estimate", kind.label());
            prop_assert_eq!(b.estimate(), a.estimate(), "{} estimate", kind.label());
            prop_assert_eq!(b.stats(), a.stats(), "{} stats", kind.label());
        }
    }

    /// `update_run` over per-site runs equals the `step` loop — the
    /// zero-copy path the site-affine engine drives, which exercises the
    /// `absorb_quiet` kernels with long runs. Two shapes: bursty ±1 runs
    /// of 1..=40, and segment-structured runs (each a few constant
    /// segments of magnitude 1, −1, 2 or −3 and up to 89 long), so one
    /// call sees long all-quiet stretches and sign crossings alike.
    #[test]
    fn update_run_matches_step_loop_on_site_runs(
        deltas in prop::collection::vec(prop_oneof![Just(1i64), Just(-1i64)], 1..600),
        k in 1usize..5,
        eps in 0.05f64..0.4,
        seed in 0u64..10_000,
        segs in prop::collection::vec(
            (prop_oneof![Just(1i64), Just(-1i64), Just(2), Just(-3)], 1usize..90),
            1..30,
        ),
    ) {
        for kind in TrackerKind::COUNTERS {
            let k_eff = if kind == TrackerKind::SingleSite { 1 } else { k };
            let magnitude = |d: i64| if kind.supports_deletions() { d } else { d.abs() };
            let spec = TrackerSpec::new(kind).k(k_eff).eps(eps).seed(seed);

            let stream: Vec<i64> = deltas.iter().map(|&d| magnitude(d)).collect();
            counter_runs_match(spec, &bursty_runs(&stream, k_eff, seed ^ 0x77, 40))?;

            let mut s = seed ^ 0xD1CE;
            let runs: Vec<(usize, Vec<i64>)> = segs
                .chunks(3)
                .map(|group| {
                    let site = lcg(&mut s) as usize % k_eff;
                    let run = group
                        .iter()
                        .flat_map(|&(v, n)| std::iter::repeat_n(magnitude(v), n))
                        .collect();
                    (site, run)
                })
                .collect();
            counter_runs_match(spec, &runs)?;
        }
    }

    /// `update_run` over long per-site runs equals the `step` loop for
    /// all four frequency kinds — the path that drives the `FreqSite` /
    /// `RFreqSite` `absorb_quiet` kernels (hoisted per-item thresholds;
    /// carried sampling draws for the randomized kind). Two shapes:
    /// universe-16 runs of 1..=60, and duplicate-heavy universe-8 runs of
    /// 1..=80, where every run repeats and cancels items many times.
    #[test]
    fn update_run_matches_step_loop_for_frequency_kinds_on_site_runs(
        ops in prop::collection::vec((0u64..16, any::<bool>()), 1..500),
        k in 1usize..4,
        eps in 0.1f64..0.5,
        seed in 0u64..10_000,
        dup_ops in prop::collection::vec((0u64..8, any::<bool>()), 1..500),
    ) {
        let runs = bursty_runs(&item_stream(&ops, 16), k, seed ^ 0xACE, 60);
        let dup_runs = bursty_runs(&item_stream(&dup_ops, 8), k, seed ^ 0xFACE, 80);
        for kind in TrackerKind::FREQUENCIES {
            let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(seed);
            item_runs_match(spec.universe(16), 16, &runs)?;
            item_runs_match(spec.universe(8), 8, &dup_runs)?;
        }
    }

    /// Same-site runs of arbitrary chunkings are bit-identical for all
    /// four frequency kinds, including per-item estimates.
    #[test]
    fn chunked_site_runs_match_step_loop_for_all_frequency_kinds(
        ops in prop::collection::vec((0u64..24, any::<bool>()), 1..400),
        k in 1usize..4,
        eps in 0.1f64..0.5,
        seed in 0u64..10_000,
    ) {
        let stream = item_stream(&ops, 24);
        let sites = random_sites(seed ^ 0x1234, stream.len(), k);
        let batch: Vec<(usize, (u64, i64))> =
            sites.into_iter().zip(stream.iter().copied()).collect();

        for kind in TrackerKind::FREQUENCIES {
            let spec = TrackerSpec::new(kind).k(k).eps(eps).seed(seed).universe(24);
            let mut a = spec.build_item().unwrap();
            for &(s, input) in &batch {
                a.step(s, input);
            }
            let mut b = spec.build_item().unwrap();
            feed_chunked_runs(&mut b, &batch, seed ^ 0xfeed, 48);
            prop_assert_eq!(b.estimate(), a.estimate(), "{} F1", kind.label());
            prop_assert_eq!(b.stats(), a.stats(), "{} stats", kind.label());
            for item in 0..24u64 {
                prop_assert_eq!(
                    b.estimate_item(item),
                    a.estimate_item(item),
                    "{} item {}",
                    kind.label(),
                    item
                );
            }
        }
    }
}

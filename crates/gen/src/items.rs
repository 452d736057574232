//! Item streams for the frequency-tracking problem (§5.1 / Appendix H).
//!
//! A dataset `D(t)` over a universe `U = {0, ..., |U|−1}` evolves by
//! single-item insertions and deletions; the trackers must maintain every
//! item frequency `f_ℓ(t)` to within `±ε·F1(t)` where `F1(t) = |D(t)|`.
//!
//! [`ItemStreamGen`] draws inserted items from a Zipf distribution (the
//! standard skewed workload for frequency estimation) and deletes uniformly
//! from the current multiset with a configurable probability, while keeping
//! the dataset size positive.

use dsv_net::{ItemUpdate, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::SiteAssign;

/// Zipf(s) sampler over `{0, ..., u-1}` via inverse-CDF binary search.
///
/// Item `i` has probability proportional to `1 / (i+1)^s`. `s = 0` is
/// uniform. Construction is `O(u)`, sampling is `O(log u)`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over a universe of `u ≥ 1` items with exponent `s ≥ 0`.
    pub fn new(u: usize, s: f64) -> Self {
        assert!(u >= 1);
        assert!(s >= 0.0);
        let mut cdf = Vec::with_capacity(u);
        let mut acc = 0.0f64;
        for i in 0..u {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one item.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let x: f64 = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < x) as u64
    }

    /// Probability mass of item `i`.
    #[cfg(test)]
    fn pmf(&self, i: usize) -> f64 {
        assert!(i < self.cdf.len());
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Insert/delete item-stream generator.
#[derive(Debug, Clone)]
pub struct ItemStreamGen {
    rng: SmallRng,
    zipf: ZipfSampler,
    delete_prob: f64,
    /// Multiset of live items (positions are arbitrary; deletion swaps).
    live: Vec<u64>,
    /// Minimum dataset size below which deletions are suppressed.
    floor: usize,
}

impl ItemStreamGen {
    /// Create a generator over a `universe`-sized item space with Zipf
    /// exponent `s`, per-step deletion probability `delete_prob`, and a
    /// dataset-size floor (deletions are suppressed when `F1` would drop
    /// below `floor`, keeping F1-variability finite).
    pub fn new(seed: u64, universe: usize, s: f64, delete_prob: f64, floor: usize) -> Self {
        assert!((0.0..1.0).contains(&delete_prob));
        ItemStreamGen {
            rng: SmallRng::seed_from_u64(seed),
            zipf: ZipfSampler::new(universe, s),
            delete_prob,
            live: Vec::new(),
            floor: floor.max(1),
        }
    }

    /// Current dataset size `F1(t)`.
    pub fn f1(&self) -> usize {
        self.live.len()
    }

    /// Produce the next update (without site assignment).
    pub fn next_item_delta(&mut self) -> (u64, i64) {
        let can_delete = self.live.len() > self.floor;
        if can_delete && self.rng.gen_bool(self.delete_prob) {
            let pos = self.rng.gen_range(0..self.live.len());
            let item = self.live.swap_remove(pos);
            (item, -1)
        } else {
            let item = self.zipf.sample(&mut self.rng);
            self.live.push(item);
            (item, 1)
        }
    }

    /// Materialize `n` updates with 1-based timesteps and a site policy.
    pub fn updates<A: SiteAssign>(&mut self, n: u64, mut assign: A) -> Vec<ItemUpdate> {
        (1..=n)
            .map(|t: Time| {
                let (item, delta) = self.next_item_delta();
                ItemUpdate::new(t, assign.site_for(t), item, delta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundRobin;
    use std::collections::HashMap;

    #[test]
    fn zipf_masses_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(100, 1.1);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..100 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf_roughly() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = SmallRng::seed_from_u64(77);
        let n = 200_000usize;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Head item frequency within 10% of expectation.
        let expected0 = z.pmf(0) * n as f64;
        assert!(
            (counts[0] as f64 - expected0).abs() < 0.1 * expected0,
            "head count {} vs expected {expected0}",
            counts[0]
        );
    }

    #[test]
    fn item_stream_never_deletes_missing_items() {
        let mut g = ItemStreamGen::new(5, 100, 1.1, 0.45, 1);
        let mut counts: HashMap<u64, i64> = HashMap::new();
        let mut f1 = 0i64;
        for _ in 0..50_000 {
            let (item, delta) = g.next_item_delta();
            let c = counts.entry(item).or_insert(0);
            *c += delta;
            f1 += delta;
            assert!(*c >= 0, "negative frequency for item {item}");
            assert!(f1 >= 1, "dataset emptied");
        }
        assert_eq!(f1 as usize, g.f1());
    }

    #[test]
    fn floor_suppresses_deletions() {
        let mut g = ItemStreamGen::new(5, 10, 0.0, 0.9, 50);
        for _ in 0..1000 {
            g.next_item_delta();
        }
        assert!(g.f1() >= 50);
    }

    #[test]
    fn updates_have_site_and_time() {
        let mut g = ItemStreamGen::new(1, 20, 1.0, 0.3, 1);
        let ups = g.updates(100, RoundRobin::new(4));
        assert_eq!(ups.len(), 100);
        assert!(ups.iter().all(|u| u.site < 4));
        assert_eq!(ups[0].time, 1);
        assert!(ups.iter().all(|u| u.delta == 1 || u.delta == -1));
    }

    #[test]
    fn seed_determinism() {
        let mut a = ItemStreamGen::new(9, 30, 1.2, 0.4, 1);
        let mut b = ItemStreamGen::new(9, 30, 1.2, 0.4, 1);
        for _ in 0..1000 {
            assert_eq!(a.next_item_delta(), b.next_item_delta());
        }
    }
}

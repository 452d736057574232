//! # dsv-gen — workload generators
//!
//! Stream generators for every input class the paper analyzes or uses:
//!
//! * [`WalkGen`] — ±1 random walks: fair coins (Thm 2.2), biased coins with
//!   drift μ (Thm 2.4), and lazy walks.
//! * [`MonotoneGen`] — insert-only streams (the classic CMY/HYZ setting),
//!   optionally with jumps `> 1` for the Appendix C expansion experiments.
//! * [`NearlyMonotoneGen`] — streams whose total deletions stay within
//!   `β·f(n)`, the hypothesis of Theorem 2.1.
//! * [`AdversarialGen`] — high-variability adversaries: hovering near a
//!   level, sawtooth waves, and zero-crossing oscillations (the inputs that
//!   force the Ω(n) lower bounds of the unrestricted model).
//! * [`FlipFamilyGen`] — streams that alternate between `m` and `m+3` at
//!   chosen flip times, the value-trajectory used by §4's hard families.
//! * [`ItemStreamGen`] — Zipf-distributed insert/delete item streams for the
//!   frequency-tracking problem (§5.1 / Appendix H).
//!
//! All generators are deterministic given their seed, implement the common
//! [`DeltaGen`] trait, and pair with a [`SiteAssign`] policy to produce the
//! `(time, site, delta)` triples the distributed model consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod assign;
mod flip;
mod items;
mod monotone;
mod nearly;
mod walk;

pub use adversarial::AdversarialGen;
pub use assign::{HashAssign, RandomAssign, RoundRobin, SingleSite, SiteAssign};
pub use flip::FlipFamilyGen;
pub use items::{ItemStreamGen, ZipfSampler};
pub use monotone::MonotoneGen;
pub use nearly::NearlyMonotoneGen;
pub use walk::WalkGen;

use dsv_net::{Time, Update};

/// A stateful generator of stream increments `f'(t)`.
///
/// Generators are infinite: `next_delta` may be called any number of times.
/// The convenience methods materialize prefixes as vectors for the
/// experiment harness.
pub trait DeltaGen {
    /// Produce the next increment `f'(t)`.
    fn next_delta(&mut self) -> i64;

    /// Materialize the next `n` increments.
    fn deltas(&mut self, n: u64) -> Vec<i64>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_delta()).collect()
    }

    /// Materialize the next `n` increments as distributed updates, assigning
    /// each timestep to a site via `assign`. Timesteps are 1-based.
    fn updates<A: SiteAssign>(&mut self, n: u64, mut assign: A) -> Vec<Update>
    where
        Self: Sized,
    {
        (1..=n)
            .map(|t| Update::new(t, assign.site_for(t), self.next_delta()))
            .collect()
    }
}

/// Prefix sums of a delta stream: the tracked function `f(1..=n)`.
pub fn prefix_values(deltas: &[i64]) -> Vec<i64> {
    let mut f = 0i64;
    deltas
        .iter()
        .map(|d| {
            f += d;
            f
        })
        .collect()
}

/// Turn a value trajectory `f(1), f(2), ...` (with `f(0) = 0`) back into the
/// delta stream that produces it.
pub fn values_to_deltas(values: &[i64]) -> Vec<i64> {
    let mut prev = 0i64;
    values
        .iter()
        .map(|&v| {
            let d = v - prev;
            prev = v;
            d
        })
        .collect()
}

/// Assign every update in `deltas` a site and a 1-based timestep.
pub fn assign_updates<A: SiteAssign>(deltas: &[i64], mut assign: A) -> Vec<Update> {
    deltas
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let t = (i + 1) as Time;
            Update::new(t, assign.site_for(t), d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_deltas_roundtrip() {
        let deltas = vec![1, 1, -1, 3, -2, 0, 1];
        let values = prefix_values(&deltas);
        assert_eq!(values, vec![1, 2, 1, 4, 2, 2, 3]);
        assert_eq!(values_to_deltas(&values), deltas);
    }

    #[test]
    fn assign_updates_is_one_based_and_in_range() {
        let deltas = vec![1i64; 10];
        let ups = assign_updates(&deltas, RoundRobin::new(3));
        assert_eq!(ups.len(), 10);
        assert_eq!(ups[0].time, 1);
        assert_eq!(ups[9].time, 10);
        assert!(ups.iter().all(|u| u.site < 3));
    }
}

//! # dsv-sketch — sketching substrate
//!
//! The small-space frequency summaries that Appendix H of *"Variability in
//! Data Streams"* plugs into its distributed frequency tracker:
//!
//! * [`PairwiseHash`] — Carter–Wegman pairwise-independent hashing over the
//!   Mersenne prime `2^61 − 1`, the randomness source for Count-Min.
//! * [`CountMin`] — the Count-Min sketch of Cormode & Muthukrishnan
//!   (reference \[3\] of the paper): point queries within `ε'·F1` with
//!   probability `1 − δ`, never under-estimating on strict-turnstile
//!   streams.
//! * [`CrPrecis`] — the deterministic CR-precis structure of Ganguly &
//!   Majumder (references \[6\]\[7\]): rows of counters indexed by residues
//!   modulo distinct primes; the paper uses the *average-over-rows*
//!   estimator, which makes it a linear sketch.
//! * [`ExactCounts`] — exact frequency map, used as ground truth and as the
//!   "per-item counters" variant of Appendix H.
//!
//! All sketches are **linear**: they support `merge` (add) and so can be
//! maintained per-site and combined at the coordinator, which is exactly
//! how Appendix H uses them ("the coordinator can then linearly combine its
//! estimates").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod countmin;
mod crprecis;
mod exact;
mod hash;
mod primes;
mod reduce;

pub use countmin::CountMin;
pub use crprecis::CrPrecis;
pub use exact::ExactCounts;
pub use hash::{HashFamily, PairwiseHash};
pub use primes::{is_prime, primes_from};
pub use reduce::{CountMinMap, CounterMap, CrPrecisMap, IdentityMap};

/// A sketch shape or guarantee parameter that cannot be built.
///
/// Returned by the `try_*` constructors ([`CountMin::try_new`],
/// [`CrPrecis::try_new`], …) instead of panicking, so configuration
/// assembled from user input surfaces as a typed, displayable error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchError {
    /// A sketch needs at least one row.
    ZeroRows,
    /// Row width (or the minimum prime modulus) is too small to index.
    ZeroWidth,
    /// An error fraction outside `(0, 1)`.
    EpsOutOfRange {
        /// The rejected value.
        eps: f64,
    },
    /// A failure probability outside `(0, 1)`.
    DeltaOutOfRange {
        /// The rejected value.
        delta: f64,
    },
    /// The item universe must contain at least one item.
    EmptyUniverse,
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::ZeroRows => write!(fm, "sketch needs at least one row"),
            SketchError::ZeroWidth => write!(fm, "sketch row width is too small"),
            SketchError::EpsOutOfRange { eps } => {
                write!(fm, "error fraction must be in (0, 1), got {eps}")
            }
            SketchError::DeltaOutOfRange { delta } => {
                write!(fm, "failure probability must be in (0, 1), got {delta}")
            }
            SketchError::EmptyUniverse => write!(fm, "item universe must be non-empty"),
        }
    }
}

impl std::error::Error for SketchError {}

/// Common interface of the frequency summaries used by Appendix H.
pub trait FreqSketch {
    /// Apply `delta` copies of `item` (negative = deletions).
    fn update(&mut self, item: u64, delta: i64);

    /// Point-query estimate of `f_item`.
    fn estimate(&self, item: u64) -> i64;

    /// Add another sketch of identical shape into this one.
    fn merge(&mut self, other: &Self);

    /// Number of 64-bit words of state (the "space" axis of Appendix H).
    fn space_words(&self) -> usize;

    /// Reset all counters to zero, keeping the hash functions / shape.
    fn clear(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three sketches agree exactly on a collision-free workload.
    #[test]
    fn sketches_agree_on_tiny_universe() {
        let mut cm = CountMin::new(4, 64, 42);
        let mut cr = CrPrecis::new(4, 64);
        let mut ex = ExactCounts::new();
        for item in 0..8u64 {
            for _ in 0..(item + 1) {
                cm.update(item, 1);
                cr.update(item, 1);
                ex.update(item, 1);
            }
        }
        for item in 0..8u64 {
            let truth = (item + 1) as i64;
            assert_eq!(ex.estimate(item), truth);
            // CM/CR may over-estimate, never under-estimate here (inserts only).
            assert!(cm.estimate(item) >= truth);
            assert!(cr.estimate_min(item) >= truth);
        }
    }
}

//! Nearly-monotone streams — the hypothesis class of Theorem 2.1.
//!
//! Theorem 2.1 assumes a nondecreasing function `β(t) ≥ 1` and a constant
//! `t₀` such that for all `n ≥ t₀` the total deletions satisfy
//! `f⁻(n) ≤ β(n)·f(n)`; it concludes `v(n) = O(β(n)·log(β(n)·f(n)))`.
//!
//! [`NearlyMonotoneGen`] generates ±1 streams that satisfy this constraint
//! *by construction* for a constant β: it emits a deletion only when doing
//! so keeps `f⁻(n) ≤ β·f(n)`, otherwise an insertion. A target deletion
//! probability controls how aggressively it tries to delete.

use crate::DeltaGen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// ±1 stream with total deletions bounded by `β · f(n)` at all times.
#[derive(Debug, Clone)]
pub struct NearlyMonotoneGen {
    rng: SmallRng,
    beta: f64,
    delete_prob: f64,
    /// Current value f(t).
    f: i64,
    /// Total deletions f⁻(t).
    f_minus: i64,
}

impl NearlyMonotoneGen {
    /// Create a generator with deletion budget `beta ≥ 1` and per-step
    /// deletion attempt probability `delete_prob`.
    pub fn new(seed: u64, beta: f64, delete_prob: f64) -> Self {
        assert!(beta >= 1.0, "theorem 2.1 requires β ≥ 1");
        assert!((0.0..1.0).contains(&delete_prob));
        NearlyMonotoneGen {
            rng: SmallRng::seed_from_u64(seed),
            beta,
            delete_prob,
            f: 0,
            f_minus: 0,
        }
    }

    /// The deletion budget β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Current `f(t)` (for tests/diagnostics).
    pub fn current(&self) -> i64 {
        self.f
    }

    /// Whether emitting a deletion now would keep the constraint
    /// `f⁻ ≤ β·f` satisfied after the step.
    fn deletion_allowed(&self) -> bool {
        // After deleting: f⁻ + 1 ≤ β · (f − 1). Also keep f ≥ 1.
        self.f >= 2 && (self.f_minus + 1) as f64 <= self.beta * (self.f - 1) as f64
    }
}

impl DeltaGen for NearlyMonotoneGen {
    fn next_delta(&mut self) -> i64 {
        let want_delete = self.rng.gen_bool(self.delete_prob);
        if want_delete && self.deletion_allowed() {
            self.f -= 1;
            self.f_minus += 1;
            -1
        } else {
            self.f += 1;
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix_values;

    #[test]
    fn constraint_holds_at_every_step() {
        for beta in [1.0, 2.0, 4.0] {
            let mut g = NearlyMonotoneGen::new(42, beta, 0.45);
            let deltas = g.deltas(50_000);
            let mut f = 0i64;
            let mut f_minus = 0i64;
            for &d in &deltas {
                f += d;
                if d < 0 {
                    f_minus += -d;
                }
                assert!(
                    f_minus as f64 <= beta * f as f64,
                    "constraint violated: f⁻ = {f_minus}, β·f = {}",
                    beta * f as f64
                );
            }
        }
    }

    #[test]
    fn values_stay_positive() {
        let mut g = NearlyMonotoneGen::new(3, 1.5, 0.49);
        let values = prefix_values(&g.deltas(20_000));
        assert!(values.iter().all(|&v| v >= 1));
    }

    #[test]
    fn deletions_actually_happen_with_large_beta() {
        let mut g = NearlyMonotoneGen::new(9, 8.0, 0.45);
        let deltas = g.deltas(20_000);
        let dels = deltas.iter().filter(|&&d| d < 0).count();
        assert!(dels > 4_000, "only {dels} deletions");
    }

    #[test]
    fn zero_delete_prob_reduces_to_monotone() {
        let mut g = NearlyMonotoneGen::new(1, 2.0, 0.0);
        assert!(g.deltas(1000).iter().all(|&d| d == 1));
    }

    #[test]
    fn seed_determinism() {
        let mut a = NearlyMonotoneGen::new(5, 2.0, 0.4);
        let mut b = NearlyMonotoneGen::new(5, 2.0, 0.4);
        assert_eq!(a.deltas(5000), b.deltas(5000));
    }
}

//! The CR-precis deterministic frequency summary (Ganguly & Majumder,
//! references [6][7] of the paper).
//!
//! Rows of counters indexed by residues modulo *distinct primes*
//! `p_1 < p_2 < ... < p_t`: row `r` has `p_r` counters and item `ℓ` maps to
//! counter `ℓ mod p_r`. Two distinct items `ℓ ≠ ℓ'` (both `< U`) collide in
//! row `r` only if `p_r | ℓ − ℓ'`, and since `|ℓ − ℓ'| < U` at most
//! `log_{p_1} U` of the (distinct, ≥ p_1) primes can divide it. Hence with
//! `t` rows the *average-over-rows* estimator errs by at most
//!
//! ```text
//! |f̂_ℓ − f_ℓ| ≤ F1 · log_{p_1}(U) / t        (deterministically)
//! ```
//!
//! The paper's Appendix H notes that taking the **average** instead of
//! Ganguly–Majumder's minimum "works too and yields a linear sketch", which
//! is what the distributed tracker needs; we implement both estimators.

use crate::primes::primes_from;
use crate::{FreqSketch, SketchError};

/// CR-precis sketch with `i64` counters (linear; supports deletions).
#[derive(Debug, Clone)]
pub struct CrPrecis {
    /// Row moduli (distinct primes).
    moduli: Vec<u64>,
    /// Start offset of each row in `table`.
    offsets: Vec<usize>,
    table: Vec<i64>,
}

impl CrPrecis {
    /// `rows` rows with prime moduli starting at the first prime ≥
    /// `min_width`.
    ///
    /// Panics on a degenerate shape; use [`CrPrecis::try_new`] for a typed
    /// error instead.
    pub fn new(rows: usize, min_width: u64) -> Self {
        Self::try_new(rows, min_width).expect("need rows >= 1 and min_width >= 2")
    }

    /// Checked constructor: requires `rows ≥ 1` and `min_width ≥ 2` (there
    /// is no prime below 2 to index a row with).
    pub fn try_new(rows: usize, min_width: u64) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::ZeroRows);
        }
        if min_width < 2 {
            return Err(SketchError::ZeroWidth);
        }
        let moduli = primes_from(min_width, rows);
        let mut offsets = Vec::with_capacity(rows);
        let mut total = 0usize;
        for &p in &moduli {
            offsets.push(total);
            total += p as usize;
        }
        Ok(CrPrecis {
            moduli,
            offsets,
            table: vec![0i64; total],
        })
    }

    /// Shape guaranteeing `|f̂_ℓ − f_ℓ| ≤ eps_frac · F1` deterministically
    /// for a universe of size `universe`, via the average estimator:
    /// chooses `p_1` ≈ the first prime ≥ 1/eps_frac (so rows aren't too
    /// narrow) and `t = ⌈log_{p_1}(U) / eps_frac⌉` rows.
    pub fn for_guarantee(eps_frac: f64, universe: u64) -> Self {
        assert!(eps_frac > 0.0 && eps_frac < 1.0);
        assert!(universe >= 2);
        let min_width = (1.0 / eps_frac).ceil().max(2.0) as u64;
        let collide = ((universe as f64).ln() / (min_width as f64).ln()).max(1.0);
        let rows = (collide / eps_frac).ceil() as usize;
        Self::new(rows, min_width)
    }

    /// Number of rows `t`.
    pub fn rows(&self) -> usize {
        self.moduli.len()
    }

    /// The prime moduli of the rows.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Deterministic worst-case error of [`estimate`](FreqSketch::estimate)
    /// on a stream with first moment `f1`, for items below `universe`:
    /// `f1 · log_{p_1}(U) / t`.
    pub fn error_bound(&self, f1: i64, universe: u64) -> f64 {
        let p1 = self.moduli[0] as f64;
        let collide = ((universe as f64).ln() / p1.ln()).max(0.0);
        f1.max(0) as f64 * collide / self.rows() as f64
    }

    #[inline]
    fn cell(&self, row: usize, item: u64) -> usize {
        self.offsets[row] + (item % self.moduli[row]) as usize
    }

    /// Min-over-rows estimator (the original Ganguly–Majumder choice).
    /// Never under-estimates on strict-turnstile streams, but is not
    /// linear in the sketch contents. Kept as the tests' reference.
    #[cfg(test)]
    pub(crate) fn estimate_min(&self, item: u64) -> i64 {
        (0..self.rows())
            .map(|r| self.table[self.cell(r, item)])
            .min()
            .expect("rows >= 1")
    }

    /// Two sketches are mergeable iff they use the same moduli.
    pub fn same_shape(&self, other: &Self) -> bool {
        self.moduli == other.moduli
    }
}

impl FreqSketch for CrPrecis {
    fn update(&mut self, item: u64, delta: i64) {
        for r in 0..self.rows() {
            let c = self.cell(r, item);
            self.table[c] += delta;
        }
    }

    /// Average-over-rows estimator (the paper's linear variant), rounded to
    /// the nearest integer.
    fn estimate(&self, item: u64) -> i64 {
        let sum: i64 = (0..self.rows())
            .map(|r| self.table[self.cell(r, item)])
            .sum();
        let t = self.rows() as i64;
        // Round-half-up division, handling negatives (merged deltas).
        if sum >= 0 {
            (sum + t / 2) / t
        } else {
            -((-sum + t / 2) / t)
        }
    }

    fn merge(&mut self, other: &Self) {
        assert!(self.same_shape(other), "incompatible CR-precis shapes");
        for (a, b) in self.table.iter_mut().zip(other.table.iter()) {
            *a += b;
        }
    }

    fn space_words(&self) -> usize {
        // Counters plus one word per row modulus.
        self.table.len() + self.moduli.len()
    }

    fn clear(&mut self) {
        self.table.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn rows_use_distinct_primes() {
        let cr = CrPrecis::new(5, 10);
        assert_eq!(cr.moduli(), &[11, 13, 17, 19, 23]);
        assert_eq!(cr.space_words(), (11 + 13 + 17 + 19 + 23) + 5);
    }

    #[test]
    fn exact_on_sparse_input() {
        let mut cr = CrPrecis::new(4, 50);
        cr.update(3, 7);
        cr.update(1000, -2);
        assert_eq!(cr.estimate(3), 7);
        assert_eq!(cr.estimate(1000), -2);
        assert_eq!(cr.estimate(42), 0);
    }

    #[test]
    fn deterministic_error_bound_holds() {
        let universe = 10_000u64;
        let eps = 0.2;
        let mut cr = CrPrecis::for_guarantee(eps, universe);
        let mut truth: HashMap<u64, i64> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut f1 = 0i64;
        for _ in 0..30_000 {
            let item = rng.gen_range(0..universe);
            cr.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
            f1 += 1;
        }
        let bound = cr.error_bound(f1, universe);
        assert!(bound <= eps * f1 as f64 + 1.0, "shape bound miscomputed");
        for item in 0..universe {
            let t = truth.get(&item).copied().unwrap_or(0);
            let err = (cr.estimate(item) - t).abs() as f64;
            assert!(
                err <= bound + 0.5, // rounding slack
                "item {item}: err {err} > bound {bound}"
            );
        }
    }

    #[test]
    fn min_estimator_never_underestimates_inserts() {
        let mut cr = CrPrecis::new(3, 20);
        let mut truth: HashMap<u64, i64> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..5_000 {
            let item = rng.gen_range(0..500u64);
            cr.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &t) in &truth {
            assert!(cr.estimate_min(item) >= t);
        }
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CrPrecis::new(4, 30);
        let mut b = CrPrecis::new(4, 30);
        let mut whole = CrPrecis::new(4, 30);
        let mut rng = SmallRng::seed_from_u64(21);
        for i in 0..4_000 {
            let item = rng.gen_range(0..800u64);
            let delta = if rng.gen_bool(0.3) { -1 } else { 1 };
            if i % 2 == 0 {
                a.update(item, delta);
            } else {
                b.update(item, delta);
            }
            whole.update(item, delta);
        }
        a.merge(&b);
        for item in 0..800u64 {
            assert_eq!(a.estimate(item), whole.estimate(item));
            assert_eq!(a.estimate_min(item), whole.estimate_min(item));
        }
    }

    #[test]
    fn linearity_deletions_cancel() {
        let mut cr = CrPrecis::new(3, 11);
        for item in 0..200u64 {
            cr.update(item, 3);
            cr.update(item, -3);
        }
        assert!(cr.table.iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_shape_mismatch() {
        let mut a = CrPrecis::new(3, 11);
        let b = CrPrecis::new(3, 13);
        a.merge(&b);
    }
}

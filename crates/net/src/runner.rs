//! The audit vocabulary: what a run over a stream reports and how its
//! error is measured.
//!
//! `dsv-core`'s `api::Driver` is the one audit loop. It feeds a stream to
//! a tracker, maintains the ground-truth `f(n)`, and checks the paper's
//! correctness requirement after **every** timestep:
//!
//! * deterministic algorithms: `|f(n) − f̂(n)| ≤ ε·|f(n)|` must always hold
//!   (with the convention that `f(n) = 0` requires `f̂(n) = 0`);
//! * randomized algorithms: the same event must hold with probability ≥ 2/3
//!   at each fixed `n`, so the driver reports the *fraction* of violated
//!   timesteps instead of failing.
//!
//! This module holds what that loop speaks: [`ConfigError`],
//! [`relative_error`] (the exact-zero convention, the default audit),
//! [`relative_error_floored`] (the paper's `max(|f|, q)` denominator),
//! [`ErrorProbe`] and [`RunReport`]. They live here, below `dsv-core`, so
//! the sharded engine's boundary audit uses the same ones.

use crate::stats::CommStats;
use crate::Time;

/// A driver configuration that cannot be used.
///
/// Returned by the checked constructors of `dsv-core`'s `api::Driver` (and
/// the star-network constructors here) instead of panicking, so callers
/// that assemble configurations from user input get a typed, displayable
/// error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The audited relative error must lie strictly inside `(0, 1)`.
    EpsOutOfRange {
        /// The rejected value.
        eps: f64,
    },
    /// The `q`-floor for small-value auditing must be finite and positive.
    FloorNotPositive {
        /// The rejected value.
        q: f64,
    },
    /// A star network needs at least one site.
    ZeroSites,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EpsOutOfRange { eps } => {
                write!(fm, "eps must be in (0, 1), got {eps}")
            }
            ConfigError::FloorNotPositive { q } => {
                write!(fm, "the q-floor must be finite and > 0, got {q}")
            }
            ConfigError::ZeroSites => write!(fm, "need at least one site"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Relative error of an estimate, with the `f = 0` convention: zero error
/// iff the estimate is also zero, otherwise infinite.
pub fn relative_error(f: i64, fhat: i64) -> f64 {
    if f == 0 {
        if fhat == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (f - fhat).unsigned_abs() as f64 / f.unsigned_abs() as f64
    }
}

/// Relative error with the paper's `q`-floor: `|f − f̂| / max(|f|, q)`.
///
/// The variability definition (§2) floors every denominator at a constant
/// `q ≥ 1` so that steps taken while `|f|` is tiny are not charged an
/// unbounded amount; the same floor makes sense when *auditing* a tracker
/// near zero, where [`relative_error`]'s exact-zero convention is stricter
/// than the paper requires. With `q > 0` the result is always finite.
pub fn relative_error_floored(f: i64, fhat: i64, q: f64) -> f64 {
    debug_assert!(q > 0.0, "use relative_error for the exact q = 0 convention");
    (f - fhat).unsigned_abs() as f64 / (f.unsigned_abs() as f64).max(q)
}

/// A sampled point of the tracked trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProbe {
    /// Timestep of the sample.
    pub time: Time,
    /// Ground truth `f(t)`.
    pub f: i64,
    /// Coordinator estimate `f̂(t)`.
    pub fhat: i64,
    /// Relative error at the sample.
    pub rel_err: f64,
}

/// Outcome of running a tracker over a whole stream.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Stream length consumed.
    pub n: u64,
    /// Ground-truth final value `f(n)`.
    pub final_f: i64,
    /// Final coordinator estimate.
    pub final_estimate: i64,
    /// Largest relative error observed at any timestep (∞ if `f(t) = 0`
    /// was ever mis-estimated).
    pub max_rel_err: f64,
    /// Number of timesteps where the ε-guarantee was violated.
    pub violations: u64,
    /// Number of timesteps where the estimate changed at the coordinator.
    pub estimate_changes: u64,
    /// Final communication ledger.
    pub stats: CommStats,
    /// Optional sampled trajectory (when `sample_every > 0`).
    pub probes: Vec<ErrorProbe>,
}

impl RunReport {
    /// Fraction of timesteps violating the ε-guarantee.
    pub fn violation_rate(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.violations as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_conventions() {
        assert_eq!(relative_error(0, 0), 0.0);
        assert!(relative_error(0, 1).is_infinite());
        assert!((relative_error(10, 9) - 0.1).abs() < 1e-12);
        assert!((relative_error(-10, -9) - 0.1).abs() < 1e-12);
        assert!((relative_error(-10, -11) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn floored_relative_error_is_finite_near_zero() {
        // Below the floor the denominator is q, not |f|.
        assert_eq!(relative_error_floored(0, 3, 10.0), 0.3);
        assert_eq!(relative_error_floored(2, 4, 10.0), 0.2);
        // Above the floor it coincides with the plain relative error.
        assert!((relative_error_floored(100, 90, 10.0) - relative_error(100, 90)).abs() < 1e-12);
        assert!((relative_error_floored(-100, -90, 10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn runner_config_errors_are_typed() {
        for err in [
            ConfigError::EpsOutOfRange { eps: 1.5 },
            ConfigError::FloorNotPositive { q: 0.0 },
            ConfigError::ZeroSites,
        ] {
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(
            ConfigError::EpsOutOfRange { eps: 1.5 }.to_string(),
            "eps must be in (0, 1), got 1.5"
        );
    }
}

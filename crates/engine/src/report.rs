//! Outcome of an engine run.

use dsv_net::{CommStats, ErrorProbe, IngestStats};
use std::time::Duration;

/// Outcome of [`crate::ShardedEngine::run`] over one stream (or stream
/// segment — the engine is incremental and can be run repeatedly).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Updates consumed by this run.
    pub n: u64,
    /// Batches executed (= boundary reconciliations and audits).
    pub batches: u64,
    /// Logical shard replicas.
    pub shards: usize,
    /// Worker threads that drove the replicas during this run.
    pub workers: usize,
    /// Configured batch size.
    pub batch_size: usize,
    /// Ground-truth `f` after this run (cumulative across runs).
    pub final_f: i64,
    /// Coordinator-side global estimate after this run.
    pub final_estimate: i64,
    /// Boundaries where `|f − f̂| > ε·|f|`.
    pub boundary_violations: u64,
    /// Largest boundary relative error observed.
    pub max_boundary_rel_err: f64,
    /// In-protocol traffic, summed across all shard replicas.
    pub tracker_stats: CommStats,
    /// Engine-level shard → coordinator reconciliation traffic.
    pub merge_stats: CommStats,
    /// Pipelined-ingestion traffic, stalls, and queue occupancy
    /// (cumulative over the engine's [`run_pipelined`] calls; empty for
    /// engines fed only through `run` / `run_parted`).
    ///
    /// [`run_pipelined`]: crate::ShardedEngine::run_pipelined
    pub ingest_stats: IngestStats,
    /// Boundary trajectory: one probe per batch boundary of this run.
    pub probes: Vec<ErrorProbe>,
    /// Wall-clock time spent inside `run`.
    pub elapsed: Duration,
}

impl EngineReport {
    /// Ingestion throughput of this run, in updates per second.
    pub fn updates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.n as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of boundary audits that violated the ε bound.
    pub fn violation_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.boundary_violations as f64 / self.batches as f64
        }
    }

    /// All communication: in-protocol traffic plus merge traffic.
    pub fn total_stats(&self) -> CommStats {
        let mut total = self.tracker_stats.clone();
        total.merge(&self.merge_stats);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = EngineReport {
            n: 1_000,
            batches: 10,
            shards: 4,
            workers: 4,
            batch_size: 100,
            final_f: 500,
            final_estimate: 498,
            boundary_violations: 2,
            max_boundary_rel_err: 0.3,
            tracker_stats: CommStats::new(),
            merge_stats: CommStats::new(),
            ingest_stats: IngestStats::new(),
            probes: Vec::new(),
            elapsed: Duration::from_millis(500),
        };
        assert!((r.updates_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((r.violation_rate() - 0.2).abs() < 1e-12);
        assert_eq!(r.total_stats().total_messages(), 0);
    }
}

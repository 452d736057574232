//! Engine configuration and errors.

use dsv_core::api::{BuildError, RunError};
use dsv_net::codec::CodecError;
use dsv_net::Time;

/// Configuration of a [`crate::ShardedEngine`].
///
/// | Parameter | Default | Meaning |
/// |-----------|---------|---------|
/// | `shards`  | —       | Number of shard replicas `S` (worker threads for `S > 1`) |
/// | `batch`   | —       | Updates per ingestion batch (reconciliation period) |
/// | [`eps`](Self::eps) | `0.1` | Relative error audited at batch boundaries |
/// | [`workers`](Self::workers) | `min(shards, CPUs)` | Worker threads executing the shard replicas (`= shards` for the remote engine's processes; not read by `run_pipelined`) |
/// | [`checkpoint_every`](Self::checkpoint_every) | `0` (off) | Remote commit period, in batch boundaries (remote engine only) |
/// | [`fleet_cache`](Self::fleet_cache) | `1024` | Live per-key trackers cached per fleet shard (fleet only) |
/// | [`delta_rebase`](Self::delta_rebase) | `0` (never) | A [`crate::CheckpointStore`]'s rebase period: fresh base every K chained deltas |
///
/// Fixed by rule rather than configured: routed
/// [`run`](crate::ShardedEngine::run) sends a counter record to shard
/// `site mod S` and an item record to shard `hash(item) mod S` (pre-parted,
/// pipelined and remote feeds go by site); `run_pipelined` gives every
/// shard with a feed its own thread; every boundary records an error
/// probe, a pipelined feed queue holds `2 × batch` inputs and a full one
/// blocks `push` (see [`crate::ingest`]), and a fleet shard compacts its
/// arena once garbage passes 64 KiB and the live bytes.
///
/// **Shards vs workers.** `shards` is the *logical* partitioning: how many
/// tracker replicas the stream is split across. It is part of the engine's
/// checkpointed identity — state lives per shard, and the stream → shard
/// routing is a pure function of the record and the shard count, so
/// changing it would change which replica owns which updates. `workers` is
/// the *physical* parallelism: how many threads drive those replicas
/// (worker `w` owns shards `s ≡ w (mod W)`). It is **not** state — any
/// worker count produces bit-identical estimates and ledgers — which is
/// exactly what makes resuming a checkpoint onto a different number of
/// workers exact: that is the one way to rescale an engine or a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    shards: usize,
    batch: usize,
    eps: f64,
    workers: usize,
    checkpoint_every: u64,
    fleet_cache: Option<usize>,
    delta_rebase: u64,
}

impl EngineConfig {
    /// A configuration with `shards` replicas ingesting in batches of
    /// `batch` updates, and the documented defaults otherwise.
    pub fn new(shards: usize, batch: usize) -> Self {
        EngineConfig {
            shards,
            batch,
            eps: 0.1,
            workers: 0,
            checkpoint_every: 0,
            fleet_cache: None,
            delta_rebase: 0,
        }
    }

    /// The rebase period a [`crate::CheckpointStore`] is built with
    /// (`CheckpointStore::new(cfg.delta_rebase_period())`; default 0): the
    /// store records every boundary as a chain of [`dsv_net::StateDelta`]
    /// links against the previous one and takes a fresh full base after
    /// every `every` links, so materializing a retained boundary replays
    /// at most `every` of them; 0 chains deltas without ever rebasing.
    /// No engine reads it: estimates, ledgers and checkpoints are the
    /// same for every value.
    pub fn delta_rebase(mut self, every: u64) -> Self {
        self.delta_rebase = every;
        self
    }

    /// Live per-key trackers a [`crate::TrackerFleet`] keeps materialized
    /// per shard (default 1024). Hot keys stay live across boundaries;
    /// cold keys are frozen back into the shard's state arena on
    /// eviction. Purely an execution knob: fleet estimates, ledgers, and
    /// checkpoints are bit-identical for **any** capacity ≥ 1 (the
    /// snapshot → restore → snapshot round-trip is byte-identical), so
    /// size it for your working set, not for correctness. Zero is
    /// rejected by validation. Ignored by [`crate::ShardedEngine`].
    pub fn fleet_cache(mut self, capacity: usize) -> Self {
        self.fleet_cache = Some(capacity);
        self
    }

    /// Commit a checkpoint of every dirty shard every `every` batch
    /// boundaries (default 0 = only at the end of each call). Read only by
    /// the remote engine, as its durability sink: the committed cut bounds
    /// how much stream a failover replays. Ignored by
    /// [`crate::ShardedEngine`]. Checkpoint traffic is charged to the
    /// separate `checkpoint_stats` ledger, so the period never perturbs
    /// tracker/merge equivalence.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Number of worker threads driving the shard replicas of routed
    /// [`run`](crate::ShardedEngine::run),
    /// [`run_parted`](crate::ShardedEngine::run_parted) and a fleet's
    /// boundaries (default: one per shard, up to the host's available
    /// parallelism), and the remote engine's worker processes (default:
    /// one per shard). [`run_pipelined`](crate::ShardedEngine::run_pipelined)
    /// does not read it: its workers park on their feeds, so every shard
    /// gets its own. Clamped to the shard count at execution time; `0`
    /// restores the default rather than meaning "no workers". See the
    /// struct docs for the shards-vs-workers distinction.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Relative error audited at batch boundaries (default 0.1).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Number of shard replicas `S`.
    pub fn shards_count(&self) -> usize {
        self.shards
    }

    /// Number of workers (`= shards` unless overridden, and never more
    /// than the shard count): the remote engine's processes. The
    /// in-process paths cap the default at the host's parallelism, and
    /// `run_pipelined` runs one thread per shard
    /// ([`EngineReport::workers`](crate::EngineReport::workers) reports
    /// the threads that ran).
    pub fn workers_count(&self) -> usize {
        if self.workers == 0 {
            self.shards
        } else {
            self.workers.min(self.shards)
        }
    }

    /// Whether [`workers`](Self::workers) was set to a count (not left at,
    /// or reset to, the default).
    pub(crate) fn workers_given(&self) -> bool {
        self.workers != 0
    }

    /// Updates per ingestion batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// The audited ε.
    pub fn eps_value(&self) -> f64 {
        self.eps
    }

    /// The auto-checkpoint period in batch boundaries (0 = never).
    pub fn checkpoint_period(&self) -> u64 {
        self.checkpoint_every
    }

    /// The fleet's live-tracker cache capacity per shard (1024 unless
    /// overridden).
    pub fn fleet_cache_capacity(&self) -> usize {
        self.fleet_cache.unwrap_or(1024)
    }

    /// The [`crate::CheckpointStore`] rebase period in chained deltas
    /// (0 = never rebase).
    pub fn delta_rebase_period(&self) -> u64 {
        self.delta_rebase
    }

    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if self.batch == 0 {
            return Err(EngineError::ZeroBatch);
        }
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(EngineError::InvalidEps { eps: self.eps });
        }
        if self.fleet_cache == Some(0) {
            return Err(EngineError::ZeroFleetCache);
        }
        Ok(())
    }
}

/// A sharded engine that cannot be built or run, as a typed error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineError {
    /// The engine needs at least one shard.
    ZeroShards,
    /// The ingestion batch must hold at least one update.
    ZeroBatch,
    /// The boundary-audit ε must lie strictly inside `(0, 1)`.
    InvalidEps {
        /// The rejected value.
        eps: f64,
    },
    /// A shard replica could not be built.
    Build(BuildError),
    /// The stream cannot be run on the configured replicas (same
    /// conditions the sequential `Driver` rejects).
    Run(RunError),
    /// An item engine's routed [`run`](crate::ShardedEngine::run) was
    /// given a record without an item key, so it has no owning shard.
    MissingItemKey {
        /// Timestep of the offending record.
        time: Time,
    },
    /// A checkpoint could not be produced or restored (truncated,
    /// corrupted, wrong version, or an unsupported protocol).
    Codec(CodecError),
    /// A checkpoint disagrees with the engine it is being resumed into
    /// (different shard count, kind, or site count).
    CheckpointMismatch {
        /// What disagreed.
        what: &'static str,
        /// The value the engine requires.
        expected: u64,
        /// The value found in the checkpoint.
        found: u64,
    },
    /// A tracker fleet needs room for at least one live tracker per
    /// shard ([`EngineConfig::fleet_cache`] was 0).
    ZeroFleetCache,
    /// A fleet operation addressed a key the fleet has never seen.
    UnknownKey {
        /// The unknown key.
        key: u64,
    },
    /// A [`crate::CheckpointStore`] was asked to materialize a boundary
    /// it does not retain.
    UnknownBoundary {
        /// The requested boundary time.
        time: Time,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => write!(fm, "need at least one shard"),
            EngineError::ZeroBatch => write!(fm, "batch size must be at least 1"),
            EngineError::InvalidEps { eps } => {
                write!(fm, "eps must be in (0, 1), got {eps}")
            }
            EngineError::Build(e) => write!(fm, "building a shard replica failed: {e}"),
            EngineError::Run(e) => write!(fm, "stream rejected: {e}"),
            EngineError::MissingItemKey { time } => write!(
                fm,
                "an item engine routes by item, but the record at t = {time} has no item key"
            ),
            EngineError::Codec(e) => write!(fm, "checkpoint codec failure: {e}"),
            EngineError::CheckpointMismatch {
                what,
                expected,
                found,
            } => write!(
                fm,
                "checkpoint mismatch: {what} is {found} in the checkpoint but {expected} in the engine"
            ),
            EngineError::ZeroFleetCache => {
                write!(fm, "a fleet needs room for at least one live tracker per shard")
            }
            EngineError::UnknownKey { key } => {
                write!(fm, "the fleet has never seen key {key}")
            }
            EngineError::UnknownBoundary { time } => {
                write!(fm, "the checkpoint store retains no boundary at t = {time}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert_eq!(
            EngineConfig::new(0, 10).validate(),
            Err(EngineError::ZeroShards)
        );
        assert_eq!(
            EngineConfig::new(2, 0).validate(),
            Err(EngineError::ZeroBatch)
        );
        for eps in [0.0, 1.0, -0.2, f64::NAN] {
            assert!(matches!(
                EngineConfig::new(2, 10).eps(eps).validate(),
                Err(EngineError::InvalidEps { .. })
            ));
        }
        assert!(EngineConfig::new(8, 65_536).eps(0.05).validate().is_ok());
        // The smallest valid batch gives the smallest feed queue, 2.
        assert!(EngineConfig::new(2, 1).validate().is_ok());
        assert_eq!(
            EngineConfig::new(2, 10).fleet_cache(0).validate(),
            Err(EngineError::ZeroFleetCache)
        );
        assert!(EngineConfig::new(2, 10).fleet_cache(1).validate().is_ok());
    }

    #[test]
    fn fleet_knobs_have_documented_defaults() {
        let cfg = EngineConfig::new(4, 1_000);
        assert_eq!(cfg.fleet_cache_capacity(), 1024);
        let cfg = cfg.fleet_cache(16);
        assert_eq!(cfg.fleet_cache_capacity(), 16);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: EngineError = BuildError::ZeroSites.into();
        assert!(matches!(e, EngineError::Build(_)));
        let e: EngineError = RunError::SiteOutOfRange {
            site: 9,
            k: 2,
            time: 3,
        }
        .into();
        assert!(e.to_string().contains("site 9"));
        assert!(!EngineError::MissingItemKey { time: 7 }
            .to_string()
            .is_empty());
    }
}

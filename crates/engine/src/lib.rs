//! # dsv-engine — batched, sharded execution engine
//!
//! The tracking algorithms in `dsv-core` are defined — and audited — one
//! update at a time: the `Driver` feeds a stream through a single tracker
//! and checks the `(1±ε)` guarantee after every step. That is the right
//! *semantics* but the wrong *execution model* for the ROADMAP's "fast as
//! the hardware allows" target: per-update dynamic dispatch, per-update
//! auditing, and a single thread.
//!
//! This crate executes the same trackers the way high-throughput stream
//! systems do (cf. differential dataflow): **ingest in batches, shard
//! across workers, reconcile at batch boundaries**.
//!
//! * [`ShardedEngine`] partitions an update stream across `S` shards
//!   (by site for counter streams, by item hash for item streams: the
//!   placement follows the tracker's problem and is not configured),
//!   drives the replicas on up to one worker thread per shard, and feeds
//!   each replica its same-site runs
//!   through [`Tracker::update_run`](dsv_core::api::Tracker::update_run)
//!   (which routes message-free stretches through the hot kinds'
//!   `absorb_quiet` kernels instead of the per-update simulator loop).
//! * At every batch boundary the shards reconcile with a coordinator-side
//!   **global estimate**: a shard whose local estimate changed sends one
//!   [`ShardReport`](dsv_net::ShardReport) (charged to a [`CommStats`](dsv_net::CommStats)
//!   ledger like any other message of the model), and the coordinator
//!   maintains `f̂ = Σ_s f̂_s` incrementally.
//! * The boundary estimate inherits the paper's guarantee: each replica
//!   maintains `|f̂_s − f_s| ≤ ε·|f_s|` over its partial stream, so
//!   `|f̂ − f| ≤ ε·Σ_s|f_s|`, which equals `ε·|f|` whenever the partial
//!   sums agree in sign (insert-only and drift-dominated streams) — see
//!   `DESIGN.md` §5 for the full argument. The engine audits this at
//!   every boundary and reports violations in its [`EngineReport`].
//!
//! With `S = 1` the engine is **bit-identical** to the sequential path —
//! same estimates, same [`CommStats`](dsv_net::CommStats) — for every kind, including the
//! randomized ones (same replica, same seed, same update order); the
//! facade's `tests/engine_equivalence.rs` holds it to that.
//!
//! Ingestion comes in three shapes, strongest guarantee first:
//! [`ShardedEngine::run`] (central router over a timed stream),
//! [`ShardedEngine::run_parted`] (pre-parted per-site feeds, one
//! synchronized round at a time), and [`ShardedEngine::run_pipelined`]
//! (per-feed bounded queues — see the [`ingest`] handle [`ShardFeed`] —
//! where feeding overlaps shard execution, every fed shard's own worker
//! drains up to 64 rounds before the engine reconciles them once per
//! window, and a fast
//! feed leads a slow one by at most those 64 rounds, while estimates and
//! ledgers stay bit-identical to `run_parted`). All three run on one
//! window executor. The feed handles also offer runtime-agnostic
//! [`ShardFeed::push_async`] futures.
//!
//! For multi-tenant workloads — millions of independent `(tenant,
//! metric)` functions rather than one big one — the [`fleet`] module's
//! [`TrackerFleet`] serves keyed trackers out of per-shard state slabs
//! with the same boundary discipline, per-key ε-audits, fleet-wide
//! queries ([`TrackerFleet::top_k`]), and a versioned
//! [`FleetCheckpoint`].
//!
//! ```
//! use dsv_core::api::{TrackerKind, TrackerSpec};
//! use dsv_engine::{EngineConfig, ShardedEngine};
//! use dsv_net::Update;
//!
//! let spec = TrackerSpec::new(TrackerKind::Deterministic).k(4).eps(0.1);
//! let mut engine =
//!     ShardedEngine::counters(spec, EngineConfig::new(2, 512).eps(0.1)).unwrap();
//! let updates: Vec<Update> = (1..=10_000)
//!     .map(|t| Update::new(t, (t % 4) as usize, 1))
//!     .collect();
//! let report = engine.run(&updates).unwrap();
//! assert_eq!(report.boundary_violations, 0);
//! assert!(report.final_estimate > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
mod consolidate;
pub mod delta;
pub mod fleet;
mod fleet_codec;
pub mod ingest;
mod merge;
mod partition;
#[cfg(feature = "remote")]
pub mod remote;
mod report;
mod round;
mod sharded;

pub use checkpoint::{EngineCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use config::{EngineConfig, EngineError};
pub use consolidate::Consolidator;
pub use delta::{CheckpointStore, DeltaStats, STORE_MAGIC, STORE_VERSION};
pub use fleet::{
    CounterFleet, FleetCheckpoint, FleetDelta, FleetMemory, FleetReport, ItemFleet, KeyAudit,
    TrackerFleet, FLEET_MAGIC, FLEET_VERSION,
};
pub use ingest::{AsyncPush, AsyncPushBatch, FeedError, ShardFeed};
pub use partition::{InputDelta, ShardRecord};
pub use report::EngineReport;
pub use sharded::{CounterEngine, ItemEngine, ShardedEngine};

//! # dsv — Variability in Data Streams
//!
//! Facade crate re-exporting the full reproduction of Felber & Ostrovsky,
//! *"Variability in Data Streams"* (PODS 2016 / arXiv:1502.07027).
//!
//! See the workspace `README.md` for an overview, `DESIGN.md` for the system
//! inventory, `EXPERIMENTS.md` for the per-theorem reproduction results, and
//! `MIGRATION.md` for the old-to-new API table and the format-version policy.
//!
//! ## Quickstart
//!
//! ```
//! use dsv::prelude::*;
//!
//! // A fair ±1 random walk over 10_000 steps, spread over k = 8 sites.
//! let k = 8;
//! let updates = WalkGen::fair(42).updates(10_000, RoundRobin::new(k));
//!
//! // Build a tracker with the deterministic guarantee (§3.3). Any of the
//! // ten TrackerKinds builds through the same spec; misconfiguration is a
//! // typed BuildError, not a panic.
//! let eps = 0.1;
//! let mut tracker = TrackerSpec::new(TrackerKind::Deterministic)
//!     .k(k)
//!     .eps(eps)
//!     .deletions(true) // walks go down as well as up
//!     .build()
//!     .expect("valid spec");
//!
//! // Drive the stream and audit |f − f̂| ≤ ε·|f| after every timestep.
//! let report = Driver::new(eps)
//!     .expect("valid eps")
//!     .run(&mut tracker, &updates)
//!     .expect("walk streams fit a deletion-capable tracker");
//!
//! // The deterministic guarantee holds at every timestep...
//! assert_eq!(report.violations, 0);
//! // ...and the message cost is governed by the stream's variability.
//! let v = Variability::of_stream(updates.iter().map(|u| u.delta));
//! assert!((report.stats.total_messages() as f64) <= 30.0 * k as f64 * (v + 1.0) / eps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dsv_core as core;
pub use dsv_engine as engine;
pub use dsv_gen as gen;
pub use dsv_net as net;
pub use dsv_sketch as sketch;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dsv_core::api::{
        BuildError, Driver, ItemDriver, ItemRunReport, ItemTracker, KindInfo, KnownKind, Problem,
        ResumeError, RunError, StreamRecord, Tracker, TrackerKind, TrackerSpec,
    };
    pub use dsv_core::baselines::{CmyCounter, HyzCounter, NaiveTracker, PeriodicSync};
    pub use dsv_core::blocks::{BlockConfig, BlockCoordinator, BlockSite, BlockTrace};
    pub use dsv_core::codec::{CodecError, TrackerState};
    pub use dsv_core::deterministic::DeterministicTracker;
    pub use dsv_core::expand::expand_update;
    pub use dsv_core::frequencies::{CountMinFreqTracker, CrPrecisFreqTracker, ExactFreqTracker};
    pub use dsv_core::frequencies_rand::RandFreqTracker;
    pub use dsv_core::randomized::RandomizedTracker;
    pub use dsv_core::single_site::SingleSiteTracker;
    pub use dsv_core::tracing::{HistorySummary, TracingRecorder};
    pub use dsv_core::variability::{Variability, VariabilityMeter};
    #[cfg(feature = "remote")]
    pub use dsv_engine::remote::{
        FailoverEvent, FaultKind, FaultPlan, FaultPoint, RemoteConfig, RemoteEngine, RemoteError,
        RemoteTransport, SpawnMode,
    };
    pub use dsv_engine::{
        CheckpointStore, CounterEngine, CounterFleet, DeltaStats, EngineCheckpoint, EngineConfig,
        EngineError, EngineReport, FeedError, FleetCheckpoint, FleetDelta, FleetMemory,
        FleetReport, InputDelta, ItemEngine, ItemFleet, KeyAudit, ShardFeed, ShardRecord,
        ShardedEngine, TrackerFleet,
    };
    pub use dsv_gen::{
        assign_updates, prefix_values, AdversarialGen, DeltaGen, FlipFamilyGen, HashAssign,
        ItemStreamGen, MonotoneGen, NearlyMonotoneGen, RandomAssign, RoundRobin, SingleSite,
        SiteAssign, WalkGen,
    };
    pub use dsv_net::{
        relative_error, relative_error_floored, CommStats, ConfigError, ErrorProbe, FeedFrame,
        IngestStats, ItemUpdate, RunReport, ShardReport, StarSim, StateDelta, Update,
    };
}

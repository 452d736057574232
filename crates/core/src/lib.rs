//! # dsv-core — "Variability in Data Streams", the core library
//!
//! A complete implementation of Felber & Ostrovsky, *"Variability in Data
//! Streams"* (PODS 2016 / arXiv:1502.07027): the variability parameter,
//! the distributed tracking algorithms whose communication is governed by
//! it, the tracing-problem lower-bound machinery, and the paper's
//! extensions.
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`api`] | — (engineering) | unified front door: `Tracker` trait, `TrackerSpec` builder, `Driver` runner |
//! | [`codec`] | — (engineering) | snapshot/restore seam: versioned `TrackerState`, binary codec |
//! | [`columnar`] | — (engineering) | chunked band-check kernels behind the `absorb_quiet` fast paths |
//! | [`variability`] | §2 | `v(n)` meter, Thm 2.1/2.2/2.4 bounds |
//! | [`blocks`] | §3.1 | constant-variability time partitioning |
//! | [`deterministic`] | §3.3 | `O((k/ε)·v)`-message deterministic tracker |
//! | [`randomized`] | §3.4 | `O((k+√k/ε)·v)`-message randomized tracker |
//! | [`baselines`] | §3 | CMY / HYZ monotone counters, naive, periodic |
//! | [`tracing`] | §4, App D | historical-query summaries (tracing problem) |
//! | [`lower_bound`] | §4.1–4.2, App E–G | hard families for the Ω bounds |
//! | [`frequencies`] | §5.1, App H | distributed item-frequency tracking |
//! | [`single_site`] | §5.2, App I | `k = 1` arbitrary-aggregate tracker |
//! | [`expand`] | App C | simulating `|f'| > 1` with ±1 arrivals |
//!
//! All algorithms run on the `dsv-net` star-network simulator with exact
//! message accounting, so every bound in the paper can be (and is)
//! checked empirically — see the workspace's `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baselines;
pub mod blocks;
pub mod codec;
pub mod columnar;
pub mod deterministic;
pub mod expand;
pub mod frequencies;
pub mod frequencies_rand;
pub mod lower_bound;
pub mod randomized;
pub mod single_site;
pub mod tracing;
pub mod variability;

pub use api::{
    BuildError, Driver, ItemDriver, ItemRunReport, ItemTracker, KindInfo, KnownKind, Problem,
    ResumeError, RunError, StreamRecord, Tracker, TrackerKind, TrackerSpec,
};
pub use blocks::{BlockConfig, BlockCoordinator, BlockInfo, BlockSite, BlockTrace};
pub use codec::{CodecError, TrackerState};
pub use deterministic::DeterministicTracker;
pub use frequencies::{CountMinFreqTracker, CrPrecisFreqTracker, ExactFreqTracker};
pub use frequencies_rand::RandFreqTracker;
pub use lower_bound::{DetFlipFamily, FlipSequence, RandSwitchFamily};
pub use randomized::RandomizedTracker;
pub use single_site::SingleSiteTracker;
pub use tracing::{HistorySummary, TracingRecorder};
pub use variability::{Variability, VariabilityMeter};

//! The unified tracker API: one object-safe front door over every
//! algorithm in this crate.
//!
//! Downstream users want "give me a tracker with guarantee X" plus one
//! `step`/`estimate`/`stats` interface — for the counting problem (§3, §5.2)
//! *and* the item-frequency problem (§5.1) — without naming concrete
//! site/coordinator types and without panicking on misconfiguration. This
//! module provides exactly that seam:
//!
//! * [`Tracker`] — an object-safe trait implemented (via a blanket impl)
//!   by every [`StarSim`] whose protocol pair is registered with
//!   [`KnownKind`], so `Box<dyn Tracker>` replaces per-algorithm enums and
//!   match dispatch;
//! * [`ItemTracker`] — the item-frequency extension (`estimate_item`,
//!   coordinator space) over `Tracker<(u64, i64)>`;
//! * [`TrackerKind`] — the registry of all ten algorithms (six counting,
//!   four frequency) with their capabilities ([`KindInfo`]);
//! * [`TrackerSpec`] — a fallible builder whose
//!   [`build`](TrackerSpec::build) /
//!   [`build_item`](TrackerSpec::build_item) return typed
//!   [`BuildError`]s instead of panicking on `SingleSite` with `k ≠ 1`,
//!   deletions into monotone kinds, missing universes, and the like;
//! * [`Driver`] — a single generic runner for counting (`In = i64`) and
//!   item (`In = (u64, i64)`) streams: same [`RunReport`], same probe
//!   sampling, same violation accounting, plus the paper's `q`-floor as
//!   an opt-in audit knob ([`Driver::with_floor`]).
//!
//! The workspace `MIGRATION.md` maps the pre-`api` names onto this layer.
//!
//! # Example
//!
//! ```
//! use dsv_core::api::{Driver, TrackerKind, TrackerSpec};
//! use dsv_net::Update;
//!
//! let mut tracker = TrackerSpec::new(TrackerKind::Deterministic)
//!     .k(4)
//!     .eps(0.1)
//!     .deletions(true)
//!     .build()
//!     .unwrap();
//! let updates: Vec<Update> = (1..=100)
//!     .map(|t| Update::new(t, (t % 4) as usize, if t % 3 == 0 { -1 } else { 1 }))
//!     .collect();
//! let report = Driver::new(0.1).unwrap().run(&mut tracker, &updates).unwrap();
//! assert_eq!(report.violations, 0);
//! ```

use crate::baselines::{CmyCoord, CmySite, HyzCoord, HyzSite, NaiveCoord, NaiveSite};
use crate::codec::{CodecError, Dec, Enc, TrackerState};
use crate::deterministic::{DetCoord, DetSite};
use crate::frequencies::{FreqCoord, FreqSite};
use crate::frequencies_rand::{RFreqCoord, RFreqSite};
use crate::randomized::{RandCoord, RandSite};
use crate::single_site::{SsCoord, SsSite};
use dsv_net::{
    relative_error, relative_error_floored, CommStats, ConfigError, CoordinatorNode, ErrorProbe,
    ItemUpdate, RunReport, SiteId, SiteNode, StarSim, Time, Update,
};
use dsv_sketch::{CountMinMap, CounterMap, CrPrecisMap, ExactCounts, FreqSketch, IdentityMap};
use std::marker::PhantomData;

// ---------------------------------------------------------------------------
// The kind registry.
// ---------------------------------------------------------------------------

/// Which tracking problem an algorithm solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Track one distributed count `f(n)` (§3, §5.2).
    Counting,
    /// Track every item frequency within `ε·F1(n)` (§5.1 / Appendix H).
    Frequencies,
}

impl Problem {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Problem::Counting => "counting",
            Problem::Frequencies => "item frequencies",
        }
    }
}

/// Static capability record for a [`TrackerKind`] — the registry entry the
/// builder validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindInfo {
    /// Human-readable label (stable; used in tables and sweeps).
    pub label: &'static str,
    /// The problem this kind solves.
    pub problem: Problem,
    /// Whether the algorithm accepts deletions (negative deltas).
    pub supports_deletions: bool,
    /// Whether the algorithm is randomized (consumes the spec's seed).
    pub randomized: bool,
    /// Whether [`TrackerSpec::universe`] is required to build this kind.
    pub needs_universe: bool,
    /// Whether [`TrackerSpec::sample_const`] is accepted by this kind.
    pub accepts_sample_const: bool,
}

/// Every tracking algorithm in this crate, as a buildable kind.
///
/// The first six solve the counting problem and build via
/// [`TrackerSpec::build`]; the last four solve the item-frequency problem
/// and build via [`TrackerSpec::build_item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackerKind {
    /// §3.3 deterministic tracker: unconditional ε-guarantee,
    /// `O((k/ε)·v)` messages.
    Deterministic,
    /// §3.4 randomized tracker: per-timestep 2/3 guarantee,
    /// `O((k+√k/ε)·v)` expected messages.
    Randomized,
    /// §5.2 single-site tracker (requires `k = 1`; arbitrary deltas).
    SingleSite,
    /// Forward-everything baseline: exact, `n` messages.
    Naive,
    /// CMY-style deterministic monotone counter (insert-only streams).
    CmyMonotone,
    /// HYZ-style randomized monotone counter (insert-only streams).
    HyzMonotone,
    /// Appendix H exact per-item frequency tracker (`O(|U|)` space).
    ExactFreq,
    /// Appendix H Count-Min frequency tracker (per-item w.p. ≥ 8/9).
    CountMinFreq,
    /// Appendix H CR-precis frequency tracker (deterministic small space).
    CrPrecisFreq,
    /// The open-problem randomized frequency candidate (per-counter A±
    /// sampling; see `frequencies_rand`).
    RandFreq,
}

impl TrackerKind {
    /// All ten kinds, counting first, for sweeps.
    pub const ALL: [TrackerKind; 10] = [
        TrackerKind::Deterministic,
        TrackerKind::Randomized,
        TrackerKind::SingleSite,
        TrackerKind::Naive,
        TrackerKind::CmyMonotone,
        TrackerKind::HyzMonotone,
        TrackerKind::ExactFreq,
        TrackerKind::CountMinFreq,
        TrackerKind::CrPrecisFreq,
        TrackerKind::RandFreq,
    ];

    /// The six counting kinds ([`TrackerSpec::build`]).
    pub const COUNTERS: [TrackerKind; 6] = [
        TrackerKind::Deterministic,
        TrackerKind::Randomized,
        TrackerKind::SingleSite,
        TrackerKind::Naive,
        TrackerKind::CmyMonotone,
        TrackerKind::HyzMonotone,
    ];

    /// The four item-frequency kinds ([`TrackerSpec::build_item`]).
    pub const FREQUENCIES: [TrackerKind; 4] = [
        TrackerKind::ExactFreq,
        TrackerKind::CountMinFreq,
        TrackerKind::CrPrecisFreq,
        TrackerKind::RandFreq,
    ];

    /// The registry entry for this kind.
    pub fn info(self) -> &'static KindInfo {
        match self {
            TrackerKind::Deterministic => &KindInfo {
                label: "deterministic",
                problem: Problem::Counting,
                supports_deletions: true,
                randomized: false,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::Randomized => &KindInfo {
                label: "randomized",
                problem: Problem::Counting,
                supports_deletions: true,
                randomized: true,
                needs_universe: false,
                accepts_sample_const: true,
            },
            TrackerKind::SingleSite => &KindInfo {
                label: "single-site",
                problem: Problem::Counting,
                supports_deletions: true,
                randomized: false,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::Naive => &KindInfo {
                label: "naive",
                problem: Problem::Counting,
                supports_deletions: true,
                randomized: false,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::CmyMonotone => &KindInfo {
                label: "cmy-monotone",
                problem: Problem::Counting,
                supports_deletions: false,
                randomized: false,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::HyzMonotone => &KindInfo {
                label: "hyz-monotone",
                problem: Problem::Counting,
                supports_deletions: false,
                randomized: true,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::ExactFreq => &KindInfo {
                label: "exact-freq",
                problem: Problem::Frequencies,
                supports_deletions: true,
                randomized: false,
                needs_universe: true,
                accepts_sample_const: false,
            },
            TrackerKind::CountMinFreq => &KindInfo {
                label: "countmin-freq",
                problem: Problem::Frequencies,
                supports_deletions: true,
                randomized: true,
                needs_universe: false,
                accepts_sample_const: false,
            },
            TrackerKind::CrPrecisFreq => &KindInfo {
                label: "crprecis-freq",
                problem: Problem::Frequencies,
                supports_deletions: true,
                randomized: false,
                needs_universe: true,
                accepts_sample_const: false,
            },
            TrackerKind::RandFreq => &KindInfo {
                label: "rand-freq",
                problem: Problem::Frequencies,
                supports_deletions: true,
                randomized: true,
                needs_universe: true,
                accepts_sample_const: true,
            },
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        self.info().label
    }

    /// The problem this kind solves.
    pub fn problem(self) -> Problem {
        self.info().problem
    }

    /// Whether the algorithm accepts deletions (negative deltas).
    pub fn supports_deletions(self) -> bool {
        self.info().supports_deletions
    }
}

// ---------------------------------------------------------------------------
// The object-safe trait and its blanket impl.
// ---------------------------------------------------------------------------

/// Compile-time kind tag for a concrete site/coordinator pair.
///
/// Registering a pair here is what makes its [`StarSim`] a [`Tracker`]:
/// the blanket impl below covers every `StarSim<S, C>` that carries a
/// `KnownKind`. Custom protocols opt in with one line.
pub trait KnownKind {
    /// The registry kind this protocol pair implements.
    const KIND: TrackerKind;
}

/// An object-safe running tracker with a uniform interface.
///
/// `In` is the per-update input: `i64` (the delta) for the counting
/// problem, `(u64, i64)` (item, ±1) for the frequency problem. The
/// methods are the whole contract shared by every algorithm in the paper:
/// feed updates (one at a time or in same-site runs), read `f̂(n)`, audit,
/// charge messages.
///
/// Every [`StarSim`] whose protocol pair implements [`KnownKind`] gets
/// this trait via a blanket impl, so `Box<dyn Tracker>` (from
/// [`TrackerSpec::build`]) and direct `StarSim` construction are the same
/// code path — bit-identical estimates and [`CommStats`].
pub trait Tracker<In: Copy = i64>: std::fmt::Debug {
    /// Feed one update arriving at `site`; returns the coordinator's
    /// estimate after the network quiesces.
    fn step(&mut self, site: SiteId, input: In) -> i64;

    /// Feed a run of updates that all arrive at `site`, in order, and
    /// return the coordinator's estimate after the run. In the paper's
    /// star model every update arrives at one site, so a mixed-site batch
    /// is a sequence of such runs.
    ///
    /// Must be bit-identical to calling [`step`](Self::step) once per
    /// input (protocol state, estimates, and [`CommStats`] alike); the
    /// default does exactly that. The [`StarSim`] blanket impl overrides
    /// it with [`StarSim::step_run`], which offers the run to the site's
    /// `absorb_quiet` kernel and reads the estimate once. Every batched
    /// path — the sharded engine's modes, its remote workers and the
    /// keyed fleet — ingests through this one seam.
    fn update_run(&mut self, site: SiteId, inputs: &[In]) -> i64 {
        let mut est = self.estimate();
        for &input in inputs {
            est = self.step(site, input);
        }
        est
    }

    /// Current coordinator estimate `f̂(n)` (the tracked count, or
    /// `F̂1(n)` for frequency kinds).
    fn estimate(&self) -> i64;

    /// Communication ledger.
    fn stats(&self) -> &CommStats;

    /// The registry kind of this tracker.
    fn kind(&self) -> TrackerKind;

    /// Number of sites `k`.
    fn k(&self) -> usize;

    /// Capture the tracker's full dynamic state — every site node, the
    /// coordinator, RNG streams, and the [`CommStats`] ledger — as a
    /// typed, versioned [`TrackerState`] (the snapshot/restore seam).
    ///
    /// The contract, held by `tests/state_roundtrip.rs` for all ten
    /// kinds: restoring the state into a tracker built with the same
    /// parameters and feeding both the same remaining stream yields
    /// bit-identical estimates and ledgers, and
    /// `snapshot → restore → snapshot` is byte-identical.
    ///
    /// The default (kept by custom protocols that have not opted into the
    /// seam) returns [`CodecError::UnsupportedNode`].
    fn snapshot(&self) -> Result<TrackerState, CodecError> {
        Err(CodecError::UnsupportedNode)
    }

    /// Append exactly `self.snapshot()?.payload()` to `out`, keeping what
    /// `out` already holds; on error `out` is left at its entry length.
    ///
    /// This is the seam a slab writes through: the keyed fleet
    /// (`dsv-engine::fleet`) freezes an evicted key by appending its state
    /// straight onto the shard arena, so eviction costs the encoding and
    /// no allocation. The [`StarSim`] blanket impl encodes in place and
    /// derives [`snapshot`](Self::snapshot) from this method; the default
    /// goes the other way, so a custom tracker that implements only
    /// `snapshot` works unchanged (and one that implements neither
    /// reports [`CodecError::UnsupportedNode`] here too).
    fn snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        out.extend_from_slice(self.snapshot()?.payload());
        Ok(())
    }

    /// Restore a [`snapshot`](Self::snapshot) into this tracker, which
    /// must have been built with the same parameters. Kind and shape
    /// mismatches are typed [`CodecError`]s; on error the tracker may be
    /// partially overwritten and should be discarded (the
    /// [`TrackerSpec::resume`] front door always restores into a freshly
    /// built tracker).
    fn restore(&mut self, state: &TrackerState) -> Result<(), CodecError> {
        let _ = state;
        Err(CodecError::UnsupportedNode)
    }
}

impl<S, C> Tracker<S::In> for StarSim<S, C>
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
    StarSim<S, C>: KnownKind + std::fmt::Debug,
{
    fn step(&mut self, site: SiteId, input: S::In) -> i64 {
        StarSim::step(self, site, input)
    }

    fn update_run(&mut self, site: SiteId, inputs: &[S::In]) -> i64 {
        StarSim::step_run(self, site, inputs)
    }

    fn estimate(&self) -> i64 {
        StarSim::estimate(self)
    }

    fn stats(&self) -> &CommStats {
        StarSim::stats(self)
    }

    fn kind(&self) -> TrackerKind {
        <Self as KnownKind>::KIND
    }

    fn k(&self) -> usize {
        StarSim::k(self)
    }

    fn snapshot(&self) -> Result<TrackerState, CodecError> {
        let mut payload = Vec::new();
        self.snapshot_into(&mut payload)?;
        Ok(TrackerState::new(
            <Self as KnownKind>::KIND,
            StarSim::k(self),
            payload,
        ))
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        Enc::append_to(out, |enc| StarSim::save_state(self, enc))
    }

    fn restore(&mut self, state: &TrackerState) -> Result<(), CodecError> {
        if state.kind() != <Self as KnownKind>::KIND {
            return Err(CodecError::Mismatch {
                what: "tracker kind",
                expected: crate::codec::kind_tag(<Self as KnownKind>::KIND) as u64,
                found: crate::codec::kind_tag(state.kind()) as u64,
            });
        }
        let mut dec = Dec::new(state.payload());
        StarSim::load_state(self, &mut dec)?;
        dec.finish()
    }
}

impl<In: Copy, T: Tracker<In> + ?Sized> Tracker<In> for Box<T> {
    fn step(&mut self, site: SiteId, input: In) -> i64 {
        (**self).step(site, input)
    }

    fn update_run(&mut self, site: SiteId, inputs: &[In]) -> i64 {
        (**self).update_run(site, inputs)
    }

    fn estimate(&self) -> i64 {
        (**self).estimate()
    }

    fn stats(&self) -> &CommStats {
        (**self).stats()
    }

    fn kind(&self) -> TrackerKind {
        (**self).kind()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn snapshot(&self) -> Result<TrackerState, CodecError> {
        (**self).snapshot()
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        (**self).snapshot_into(out)
    }

    fn restore(&mut self, state: &TrackerState) -> Result<(), CodecError> {
        (**self).restore(state)
    }
}

/// The item-frequency extension of [`Tracker`]: per-item estimates and
/// coordinator space, over `In = (u64, i64)` updates.
pub trait ItemTracker: Tracker<(u64, i64)> {
    /// Coordinator estimate of item `item`'s frequency.
    fn estimate_item(&self, item: u64) -> i64;

    /// Coordinator-side state in words (the "space" axis of Appendix H).
    fn coord_space_words(&self) -> usize;
}

impl<M: CounterMap + std::fmt::Debug> ItemTracker for StarSim<FreqSite<M>, FreqCoord<M>>
where
    StarSim<FreqSite<M>, FreqCoord<M>>: KnownKind,
{
    fn estimate_item(&self, item: u64) -> i64 {
        self.coordinator().estimate_item(item)
    }

    fn coord_space_words(&self) -> usize {
        self.coordinator().space_words()
    }
}

impl<M: CounterMap + std::fmt::Debug> ItemTracker for StarSim<RFreqSite<M>, RFreqCoord<M>>
where
    StarSim<RFreqSite<M>, RFreqCoord<M>>: KnownKind,
{
    fn estimate_item(&self, item: u64) -> i64 {
        self.coordinator().estimate_item(item)
    }

    fn coord_space_words(&self) -> usize {
        self.coordinator().space_words()
    }
}

impl<T: ItemTracker + ?Sized> ItemTracker for Box<T> {
    fn estimate_item(&self, item: u64) -> i64 {
        (**self).estimate_item(item)
    }

    fn coord_space_words(&self) -> usize {
        (**self).coord_space_words()
    }
}

impl KnownKind for StarSim<DetSite, DetCoord> {
    const KIND: TrackerKind = TrackerKind::Deterministic;
}
impl KnownKind for StarSim<RandSite, RandCoord> {
    const KIND: TrackerKind = TrackerKind::Randomized;
}
impl KnownKind for StarSim<SsSite, SsCoord> {
    const KIND: TrackerKind = TrackerKind::SingleSite;
}
impl KnownKind for StarSim<NaiveSite, NaiveCoord> {
    const KIND: TrackerKind = TrackerKind::Naive;
}
impl KnownKind for StarSim<CmySite, CmyCoord> {
    const KIND: TrackerKind = TrackerKind::CmyMonotone;
}
impl KnownKind for StarSim<HyzSite, HyzCoord> {
    const KIND: TrackerKind = TrackerKind::HyzMonotone;
}
impl KnownKind for StarSim<FreqSite<IdentityMap>, FreqCoord<IdentityMap>> {
    const KIND: TrackerKind = TrackerKind::ExactFreq;
}
impl KnownKind for StarSim<FreqSite<CountMinMap>, FreqCoord<CountMinMap>> {
    const KIND: TrackerKind = TrackerKind::CountMinFreq;
}
impl KnownKind for StarSim<FreqSite<CrPrecisMap>, FreqCoord<CrPrecisMap>> {
    const KIND: TrackerKind = TrackerKind::CrPrecisFreq;
}
impl KnownKind for StarSim<RFreqSite<IdentityMap>, RFreqCoord<IdentityMap>> {
    const KIND: TrackerKind = TrackerKind::RandFreq;
}
impl KnownKind for StarSim<RFreqSite<CountMinMap>, RFreqCoord<CountMinMap>> {
    const KIND: TrackerKind = TrackerKind::RandFreq;
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// A [`TrackerSpec`] that cannot be built, as a typed error.
///
/// Replaces the former panics on `SingleSite` with `k ≠ 1` and on
/// deletion streams fed into monotone kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildError {
    /// `eps` must lie strictly inside `(0, 1)`.
    InvalidEps {
        /// The rejected value.
        eps: f64,
    },
    /// A tracker needs at least one site.
    ZeroSites,
    /// The single-site tracker (§5.2) is defined only for `k = 1`.
    SingleSiteRequiresK1 {
        /// The rejected site count.
        k: usize,
    },
    /// The spec declared a deletion stream but the kind is insert-only.
    DeletionsUnsupported {
        /// The insert-only kind.
        kind: TrackerKind,
    },
    /// The kind solves a different problem than the build method called
    /// (counting kind via `build_item`, frequency kind via `build`).
    WrongProblem {
        /// The mismatched kind.
        kind: TrackerKind,
        /// The problem the called build method constructs for.
        expected: Problem,
    },
    /// The kind requires [`TrackerSpec::universe`] and none was given.
    MissingUniverse {
        /// The kind that needs a universe.
        kind: TrackerKind,
    },
    /// The universe must contain at least one item.
    EmptyUniverse,
    /// The sampling constant must be finite and positive.
    InvalidSampleConst {
        /// The rejected value.
        c: f64,
    },
    /// An option was set that this kind does not accept.
    UnsupportedOption {
        /// The kind that rejects the option.
        kind: TrackerKind,
        /// Name of the rejected option.
        option: &'static str,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidEps { eps } => write!(fm, "eps must be in (0, 1), got {eps}"),
            BuildError::ZeroSites => write!(fm, "need at least one site"),
            BuildError::SingleSiteRequiresK1 { k } => {
                write!(fm, "the single-site tracker requires k = 1, got k = {k}")
            }
            BuildError::DeletionsUnsupported { kind } => write!(
                fm,
                "{} is insert-only and cannot track a deletion stream",
                kind.label()
            ),
            BuildError::WrongProblem { kind, expected } => write!(
                fm,
                "{} solves the {} problem, not {}",
                kind.label(),
                kind.problem().label(),
                expected.label()
            ),
            BuildError::MissingUniverse { kind } => write!(
                fm,
                "{} requires an item universe (TrackerSpec::universe)",
                kind.label()
            ),
            BuildError::EmptyUniverse => write!(fm, "item universe must be non-empty"),
            BuildError::InvalidSampleConst { c } => {
                write!(fm, "sampling constant must be finite and > 0, got {c}")
            }
            BuildError::UnsupportedOption { kind, option } => {
                write!(fm, "{} does not accept the {option} option", kind.label())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A stream fed through [`Driver`] that the tracker cannot run, as a
/// typed error (the former step-time panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A deletion (negative delta) reached an insert-only kind.
    DeletionUnsupported {
        /// The insert-only kind.
        kind: TrackerKind,
        /// Timestep of the offending update.
        time: Time,
    },
    /// An update named a site outside `0..k`.
    SiteOutOfRange {
        /// The offending site id.
        site: SiteId,
        /// The tracker's site count.
        k: usize,
        /// Timestep of the offending update.
        time: Time,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::DeletionUnsupported { kind, time } => write!(
                fm,
                "deletion at t = {time} but {} is insert-only",
                kind.label()
            ),
            RunError::SiteOutOfRange { site, k, time } => {
                write!(fm, "site {site} out of range (k = {k}) at t = {time}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A [`TrackerSpec::resume`] that cannot complete, as a typed error: the
/// replacement tracker could not be built, or the snapshot could not be
/// restored into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResumeError {
    /// The spec itself is invalid (same conditions as [`TrackerSpec::build`]).
    Build(BuildError),
    /// The snapshot does not fit a tracker built from this spec (wrong
    /// kind, wrong shapes, corrupted or wrong-version payload).
    Codec(CodecError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Build(e) => write!(fm, "cannot build the replacement tracker: {e}"),
            ResumeError::Codec(e) => write!(fm, "cannot restore the snapshot: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<BuildError> for ResumeError {
    fn from(e: BuildError) -> Self {
        ResumeError::Build(e)
    }
}

impl From<CodecError> for ResumeError {
    fn from(e: CodecError) -> Self {
        ResumeError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// The builder.
// ---------------------------------------------------------------------------

/// Fallible builder for any [`TrackerKind`].
///
/// Every parameter has a documented default, every misconfiguration is a
/// typed [`BuildError`], and the constructed tracker is bit-identical to
/// direct `StarSim` construction with the same parameters (a design
/// invariant covered by `tests/api_equivalence.rs`).
///
/// | Parameter | Default | Used by |
/// |-----------|---------|---------|
/// | [`k`](Self::k) | `1` | all kinds |
/// | [`eps`](Self::eps) | `0.1` | all but `Naive` (which is exact) |
/// | [`seed`](Self::seed) | `0` | randomized kinds, Count-Min hashes |
/// | [`universe`](Self::universe) | unset | `ExactFreq`, `CrPrecisFreq`, `RandFreq` (required), `CountMinFreq` (ignored) |
/// | [`sample_const`](Self::sample_const) | algorithm default | `Randomized` (3), `RandFreq` (9) |
/// | [`deletions`](Self::deletions) | `false` | capability check against monotone kinds |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerSpec {
    kind: TrackerKind,
    k: usize,
    eps: f64,
    seed: u64,
    universe: Option<usize>,
    sample_const: Option<f64>,
    deletions: bool,
}

impl TrackerSpec {
    /// Start a spec for `kind` with the documented defaults.
    pub fn new(kind: TrackerKind) -> Self {
        TrackerSpec {
            kind,
            k: 1,
            eps: 0.1,
            seed: 0,
            universe: None,
            sample_const: None,
            deletions: false,
        }
    }

    /// The kind this spec builds.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Number of sites `k` (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Relative-error target `ε` (default 0.1).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// RNG seed for randomized kinds and sketch hashes (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Item-universe size for the frequency kinds that need one.
    pub fn universe(mut self, universe: usize) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Override the sampling constant `c` in `p = min{1, c/(ε·2^r·√k)}`
    /// (the E14 ablation knob; `Randomized` and `RandFreq` only).
    pub fn sample_const(mut self, c: f64) -> Self {
        self.sample_const = Some(c);
        self
    }

    /// Declare whether the stream contains deletions (negative deltas).
    /// Building an insert-only kind with `deletions(true)` returns
    /// [`BuildError::DeletionsUnsupported`] instead of panicking later at
    /// step time.
    pub fn deletions(mut self, enabled: bool) -> Self {
        self.deletions = enabled;
        self
    }

    /// Derive the spec for shard replica `shard` of a sharded engine:
    /// shard 0 is this spec unchanged (so a single-shard engine is
    /// bit-identical to the sequential path), and every other shard gets a
    /// deterministically decorrelated seed so randomized replicas don't
    /// sample in lockstep.
    pub fn shard(mut self, shard: usize) -> Self {
        if shard > 0 {
            self.seed ^= (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self
    }

    /// Append this spec to a wire payload. The remote sharded engine
    /// ships the coordinator's spec to shard-server processes so both
    /// sides build bit-identical trackers; round-trips exactly through
    /// [`TrackerSpec::decode`].
    pub fn encode(&self, enc: &mut Enc) {
        enc.u8(crate::codec::kind_tag(self.kind));
        enc.usize(self.k);
        enc.f64(self.eps);
        enc.u64(self.seed);
        enc.bool(self.universe.is_some());
        if let Some(u) = self.universe {
            enc.usize(u);
        }
        enc.bool(self.sample_const.is_some());
        if let Some(c) = self.sample_const {
            enc.f64(c);
        }
        enc.bool(self.deletions);
    }

    /// Decode a spec written by [`TrackerSpec::encode`]. Unknown kind
    /// tags and malformed optionals are typed [`CodecError`]s; parameter
    /// *validity* is still checked at build time, exactly as for a
    /// locally constructed spec.
    pub fn decode(dec: &mut Dec) -> Result<Self, CodecError> {
        let tag = dec.u8()?;
        let kind = crate::codec::kind_from_tag(tag).ok_or(CodecError::BadTag {
            what: "tracker kind",
            tag: tag as u64,
        })?;
        let k = dec.usize()?;
        let eps = dec.f64()?;
        let seed = dec.u64()?;
        let universe = if dec.bool()? {
            Some(dec.usize()?)
        } else {
            None
        };
        let sample_const = if dec.bool()? { Some(dec.f64()?) } else { None };
        let deletions = dec.bool()?;
        Ok(TrackerSpec {
            kind,
            k,
            eps,
            seed,
            universe,
            sample_const,
            deletions,
        })
    }

    /// Shared parameter validation for both build paths.
    fn validate(&self, expected: Problem) -> Result<(), BuildError> {
        if self.kind.problem() != expected {
            return Err(BuildError::WrongProblem {
                kind: self.kind,
                expected,
            });
        }
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(BuildError::InvalidEps { eps: self.eps });
        }
        if self.k == 0 {
            return Err(BuildError::ZeroSites);
        }
        if self.deletions && !self.kind.supports_deletions() {
            return Err(BuildError::DeletionsUnsupported { kind: self.kind });
        }
        if let Some(c) = self.sample_const {
            if !self.kind.info().accepts_sample_const {
                return Err(BuildError::UnsupportedOption {
                    kind: self.kind,
                    option: "sample_const",
                });
            }
            if !(c.is_finite() && c > 0.0) {
                return Err(BuildError::InvalidSampleConst { c });
            }
        }
        if self.universe.is_some() && self.kind.problem() == Problem::Counting {
            return Err(BuildError::UnsupportedOption {
                kind: self.kind,
                option: "universe",
            });
        }
        if self.kind.info().needs_universe {
            match self.universe {
                None => return Err(BuildError::MissingUniverse { kind: self.kind }),
                Some(0) => return Err(BuildError::EmptyUniverse),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Build a counting tracker (`In = i64`).
    ///
    /// Covers the six [`TrackerKind::COUNTERS`]; frequency kinds return
    /// [`BuildError::WrongProblem`] (use [`build_item`](Self::build_item)).
    /// The box is `Send` so built trackers can be driven from worker
    /// threads (the sharded engine's execution model).
    pub fn build(&self) -> Result<Box<dyn Tracker + Send>, BuildError> {
        self.validate(Problem::Counting)?;
        let (k, eps, seed) = (self.k, self.eps, self.seed);
        Ok(match self.kind {
            TrackerKind::Deterministic => {
                Box::new(crate::deterministic::DeterministicTracker::sim(k, eps))
            }
            TrackerKind::Randomized => match self.sample_const {
                None => Box::new(crate::randomized::RandomizedTracker::sim(k, eps, seed)),
                Some(c) => Box::new(crate::randomized::RandomizedTracker::sim_with_constant(
                    c, k, eps, seed,
                )),
            },
            TrackerKind::SingleSite => {
                if k != 1 {
                    return Err(BuildError::SingleSiteRequiresK1 { k });
                }
                Box::new(crate::single_site::SingleSiteTracker::sim(eps))
            }
            TrackerKind::Naive => Box::new(crate::baselines::NaiveTracker::sim(k)),
            TrackerKind::CmyMonotone => Box::new(crate::baselines::CmyCounter::sim(k, eps)),
            TrackerKind::HyzMonotone => Box::new(crate::baselines::HyzCounter::sim(k, eps, seed)),
            _ => unreachable!("validate() rejected non-counting kinds"),
        })
    }

    /// Build an item-frequency tracker (`In = (u64, i64)`).
    ///
    /// Covers the four [`TrackerKind::FREQUENCIES`]; counting kinds return
    /// [`BuildError::WrongProblem`] (use [`build`](Self::build)). The box
    /// is `Send` for the same reason as in [`build`](Self::build).
    pub fn build_item(&self) -> Result<Box<dyn ItemTracker + Send>, BuildError> {
        self.validate(Problem::Frequencies)?;
        let (k, eps, seed) = (self.k, self.eps, self.seed);
        Ok(match self.kind {
            TrackerKind::ExactFreq => {
                let universe = self.universe.expect("validated");
                Box::new(crate::frequencies::ExactFreqTracker::sim(k, eps, universe))
            }
            TrackerKind::CountMinFreq => {
                Box::new(crate::frequencies::CountMinFreqTracker::sim(k, eps, seed))
            }
            TrackerKind::CrPrecisFreq => {
                let universe = self.universe.expect("validated");
                Box::new(crate::frequencies::CrPrecisFreqTracker::sim(
                    k,
                    eps,
                    universe as u64,
                ))
            }
            TrackerKind::RandFreq => {
                let universe = self.universe.expect("validated");
                let c = self
                    .sample_const
                    .unwrap_or(crate::frequencies_rand::DEFAULT_SAMPLE_CONST);
                Box::new(crate::frequencies_rand::RandFreqTracker::sim_exact_with(
                    k, eps, universe, seed, c,
                ))
            }
            _ => unreachable!("validate() rejected non-frequency kinds"),
        })
    }

    /// Resume a counting tracker from a [`TrackerState`] snapshot: build a
    /// fresh tracker from this spec, then restore the snapshot into it.
    ///
    /// The spec must carry the **same parameters** the snapshotted tracker
    /// was built with (the snapshot holds dynamic state only); kind and
    /// shape disagreements are typed errors. The resumed tracker continues
    /// the stream bit-identically to the original — estimates, RNG
    /// streams, and [`CommStats`] alike.
    pub fn resume(&self, state: &TrackerState) -> Result<Box<dyn Tracker + Send>, ResumeError> {
        self.check_resume(state)?;
        let mut tracker = self.build()?;
        tracker.restore(state)?;
        Ok(tracker)
    }

    /// Resume an item-frequency tracker from a snapshot; see
    /// [`resume`](Self::resume).
    pub fn resume_item(
        &self,
        state: &TrackerState,
    ) -> Result<Box<dyn ItemTracker + Send>, ResumeError> {
        self.check_resume(state)?;
        let mut tracker = self.build_item()?;
        tracker.restore(state)?;
        Ok(tracker)
    }

    /// Shared pre-build validation for both resume paths: the snapshot
    /// must name this spec's kind and site count (restore re-checks both,
    /// but failing before building gives earlier, cheaper errors).
    fn check_resume(&self, state: &TrackerState) -> Result<(), CodecError> {
        if state.kind() != self.kind {
            return Err(CodecError::Mismatch {
                what: "tracker kind",
                expected: crate::codec::kind_tag(self.kind) as u64,
                found: crate::codec::kind_tag(state.kind()) as u64,
            });
        }
        if state.k() != self.k {
            return Err(CodecError::Mismatch {
                what: "site count k",
                expected: self.k as u64,
                found: state.k() as u64,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The unified driver.
// ---------------------------------------------------------------------------

/// Anything the [`Driver`] can feed to a tracker: a timed, sited record
/// carrying the tracker input and its scalar contribution to the tracked
/// count (`f` for counting streams, `F1` for item streams).
pub trait StreamRecord {
    /// The tracker input type this record feeds.
    type In;

    /// Timestep at which the update arrives (1-based).
    fn time(&self) -> Time;

    /// Site that observes the update.
    fn site(&self) -> SiteId;

    /// The tracker input.
    fn input(&self) -> Self::In;

    /// Ground-truth increment of the audited scalar.
    fn delta(&self) -> i64;
}

impl StreamRecord for Update {
    type In = i64;

    fn time(&self) -> Time {
        self.time
    }

    fn site(&self) -> SiteId {
        self.site
    }

    fn input(&self) -> i64 {
        self.delta
    }

    fn delta(&self) -> i64 {
        self.delta
    }
}

impl StreamRecord for ItemUpdate {
    type In = (u64, i64);

    fn time(&self) -> Time {
        self.time
    }

    fn site(&self) -> SiteId {
        self.site
    }

    fn input(&self) -> (u64, i64) {
        (self.item, self.delta)
    }

    fn delta(&self) -> i64 {
        self.delta
    }
}

/// Outcome of auditing an [`ItemTracker`] over an item stream: the shared
/// scalar accounting (on `F1`) plus the per-item audit.
#[derive(Debug, Clone)]
pub struct ItemRunReport {
    /// The unified scalar report: `n`, final/max `F1` error, `F1`
    /// violations, probes, and communication — identical accounting to a
    /// counting run.
    pub run: RunReport,
    /// Number of per-item audits performed.
    pub audits: u64,
    /// Audited (item, time) pairs whose error exceeded `ε·F1(t)`.
    pub item_violations: u64,
    /// Largest audited `|f̂_ℓ − f_ℓ| / F1` ratio.
    pub max_err_over_f1: f64,
    /// Coordinator space in words.
    pub coord_space_words: usize,
}

impl ItemRunReport {
    /// Fraction of audited item queries that violated the bound.
    pub fn item_violation_rate(&self) -> f64 {
        if self.audits == 0 {
            0.0
        } else {
            self.item_violations as f64 / self.audits as f64
        }
    }
}

/// The unified runner: drives any [`Tracker`] over any stream and audits
/// the paper's guarantee after **every** timestep.
///
/// `Driver<i64>` (the default) runs the counting problem and
/// [`ItemDriver`] (= `Driver<(u64, i64)>`) the item-frequency problem —
/// one audit loop, one [`RunReport`], one probe-sampling mechanism, one
/// violation accounting for both.
///
/// **Audit floor.** By default the audit divides by `|f(t)|` exactly, with
/// the `f = 0 ⇒ f̂ = 0` convention of [`relative_error`] — the strictest
/// reading of the guarantee, and what every experiment in this workspace
/// uses. [`with_floor`](Self::with_floor) switches to the paper's
/// `q`-floor (`|f − f̂| / max(|f|, q)`, cf. the variability definition in
/// §2), which forgives absolute error below `ε·q` while the tracked value
/// is tiny.
pub struct Driver<In = i64> {
    eps: f64,
    floor: f64,
    sample_every: u64,
    item_audit_every: u64,
    _input: PhantomData<fn(In) -> In>,
}

impl<In> Clone for Driver<In> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<In> Copy for Driver<In> {}

impl<In> std::fmt::Debug for Driver<In> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Driver")
            .field("eps", &self.eps)
            .field("floor", &self.floor)
            .field("sample_every", &self.sample_every)
            .field("item_audit_every", &self.item_audit_every)
            .finish()
    }
}

/// [`Driver`] over item streams — drives [`ItemTracker`]s via
/// [`run_items`](Driver::run_items).
pub type ItemDriver = Driver<(u64, i64)>;

impl<In: Copy> Driver<In> {
    /// A driver auditing against relative error `eps ∈ (0, 1)`.
    pub fn new(eps: f64) -> Result<Self, ConfigError> {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(ConfigError::EpsOutOfRange { eps });
        }
        Ok(Driver {
            eps,
            floor: 0.0,
            sample_every: 0,
            item_audit_every: 0,
            _input: PhantomData,
        })
    }

    /// Also record a trajectory probe every `every` timesteps (0 = never).
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Audit with the paper's `q`-floor: relative error becomes
    /// `|f − f̂| / max(|f|, q)`. Requires `q > 0` and finite; the default
    /// (no floor) keeps [`relative_error`]'s exact-zero convention.
    pub fn with_floor(mut self, q: f64) -> Result<Self, ConfigError> {
        if !(q.is_finite() && q > 0.0) {
            return Err(ConfigError::FloorNotPositive { q });
        }
        self.floor = q;
        Ok(self)
    }

    /// For [`run_items`](Self::run_items): audit every item seen so far
    /// every `every` timesteps (0 = never; the scalar `F1` audit always
    /// runs). No effect on counting runs.
    pub fn with_item_audit(mut self, every: u64) -> Self {
        self.item_audit_every = every;
        self
    }

    /// The audited ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The audit floor `q` (0 = disabled).
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Relative error under this driver's floor setting.
    fn audit_err(&self, f: i64, fhat: i64) -> f64 {
        if self.floor > 0.0 {
            relative_error_floored(f, fhat, self.floor)
        } else {
            relative_error(f, fhat)
        }
    }

    /// Run `tracker` over `updates`, checking the guarantee after every
    /// step; `hook` observes each record after its audit (used by the
    /// item path to layer the per-item audit on the same loop).
    fn run_with<T, R, F>(
        &self,
        tracker: &mut T,
        updates: &[R],
        mut hook: F,
    ) -> Result<RunReport, RunError>
    where
        T: Tracker<In> + ?Sized,
        R: StreamRecord<In = In>,
        F: FnMut(&R, i64, &mut T),
    {
        let kind = tracker.kind();
        let k = tracker.k();
        let deletions_ok = kind.supports_deletions();
        let mut f = 0i64;
        let mut max_rel_err = 0.0f64;
        let mut violations = 0u64;
        let mut estimate_changes = 0u64;
        let mut last_estimate = tracker.estimate();
        let mut probes = Vec::new();

        for u in updates {
            if u.site() >= k {
                return Err(RunError::SiteOutOfRange {
                    site: u.site(),
                    k,
                    time: u.time(),
                });
            }
            let delta = u.delta();
            if delta < 0 && !deletions_ok {
                return Err(RunError::DeletionUnsupported {
                    kind,
                    time: u.time(),
                });
            }
            f += delta;
            let fhat = tracker.step(u.site(), u.input());
            if fhat != last_estimate {
                estimate_changes += 1;
                last_estimate = fhat;
            }
            let err = self.audit_err(f, fhat);
            if err > max_rel_err {
                max_rel_err = err;
            }
            // Tiny slack so floating-point round-off of an exact bound is
            // not counted as a violation.
            if err > self.eps * (1.0 + 1e-12) {
                violations += 1;
            }
            if self.sample_every > 0 && u.time() % self.sample_every == 0 {
                probes.push(ErrorProbe {
                    time: u.time(),
                    f,
                    fhat,
                    rel_err: err,
                });
            }
            hook(u, f, tracker);
        }

        Ok(RunReport {
            n: updates.len() as u64,
            final_f: f,
            final_estimate: tracker.estimate(),
            max_rel_err,
            violations,
            estimate_changes,
            stats: tracker.stats().clone(),
            probes,
        })
    }

    /// Run `tracker` over `updates`, auditing `|f − f̂| ≤ ε·|f|` after
    /// every timestep. Misconfigured streams (deletions into insert-only
    /// kinds, out-of-range sites) return a typed [`RunError`] instead of
    /// panicking.
    pub fn run<T, R>(&self, tracker: &mut T, updates: &[R]) -> Result<RunReport, RunError>
    where
        T: Tracker<In> + ?Sized,
        R: StreamRecord<In = In>,
    {
        self.run_with(tracker, updates, |_, _, _| {})
    }
}

impl ItemDriver {
    /// Run an [`ItemTracker`] over an item stream: the scalar `F1` audit
    /// runs at every step (same accounting as a counting run); every
    /// [`with_item_audit`](Driver::with_item_audit) steps, every item seen
    /// so far (plus item 0 as an absent-item probe) is audited against
    /// exact ground truth within `ε·F1(t)`.
    pub fn run_items<T>(
        &self,
        tracker: &mut T,
        updates: &[ItemUpdate],
    ) -> Result<ItemRunReport, RunError>
    where
        T: ItemTracker + ?Sized,
    {
        let mut truth = ExactCounts::new();
        let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        seen.insert(0);
        let mut audits = 0u64;
        let mut item_violations = 0u64;
        let mut max_ratio = 0.0f64;

        let run = self.run_with(tracker, updates, |u, f1, t| {
            truth.update(u.item, u.delta);
            seen.insert(u.item);
            if self.item_audit_every > 0 && u.time % self.item_audit_every == 0 {
                let budget = self.eps * f1 as f64;
                for &item in &seen {
                    let est = t.estimate_item(item);
                    let err = (est - truth.estimate(item)).unsigned_abs() as f64;
                    audits += 1;
                    if err > budget * (1.0 + 1e-12) {
                        item_violations += 1;
                    }
                    if f1 > 0 {
                        max_ratio = max_ratio.max(err / f1 as f64);
                    }
                }
            }
        })?;

        let coord_space_words = tracker.coord_space_words();
        Ok(ItemRunReport {
            run,
            audits,
            item_violations,
            max_err_over_f1: max_ratio,
            coord_space_words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_gen::{DeltaGen, ItemStreamGen, MonotoneGen, RoundRobin, WalkGen};
    use dsv_net::{CoordOutbox, Outbox};
    use proptest::prelude::*;

    fn counter_spec(kind: TrackerKind, k: usize) -> TrackerSpec {
        TrackerSpec::new(kind).k(k).eps(0.2).seed(7)
    }

    #[test]
    fn spec_wire_codec_round_trips_every_kind_and_rejects_junk() {
        for kind in TrackerKind::ALL {
            let spec = TrackerSpec::new(kind)
                .k(5)
                .eps(0.173)
                .seed(0xDEAD_BEEF)
                .universe(96)
                .sample_const(4.5)
                .deletions(kind.supports_deletions());
            let mut enc = Enc::new();
            spec.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let back = TrackerSpec::decode(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(back, spec, "{}", kind.label());

            // Every truncation is a typed error, never a panic.
            for cut in 0..bytes.len() {
                assert!(
                    TrackerSpec::decode(&mut Dec::new(&bytes[..cut])).is_err(),
                    "{}: cut at {cut}",
                    kind.label()
                );
            }
        }
        // Defaults (all optionals unset) round-trip too.
        let spec = TrackerSpec::new(TrackerKind::Deterministic);
        let mut enc = Enc::new();
        spec.encode(&mut enc);
        let mut dec = Dec::new(enc.as_bytes());
        assert_eq!(TrackerSpec::decode(&mut dec).unwrap(), spec);
        // An unknown kind tag is a typed BadTag.
        let mut junk = Enc::new();
        junk.u8(0xEE);
        assert!(matches!(
            TrackerSpec::decode(&mut Dec::new(junk.as_bytes())),
            Err(CodecError::BadTag {
                what: "tracker kind",
                ..
            })
        ));
    }

    #[test]
    fn registry_covers_all_kinds_with_unique_labels() {
        assert_eq!(
            TrackerKind::COUNTERS.len() + TrackerKind::FREQUENCIES.len(),
            TrackerKind::ALL.len()
        );
        let mut labels: Vec<&str> = TrackerKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TrackerKind::ALL.len());
        for kind in TrackerKind::COUNTERS {
            assert_eq!(kind.problem(), Problem::Counting);
        }
        for kind in TrackerKind::FREQUENCIES {
            assert_eq!(kind.problem(), Problem::Frequencies);
        }
    }

    #[test]
    fn spec_builds_every_counter_kind_and_tracks() {
        let deltas = MonotoneGen::ones().deltas(3_000);
        for kind in TrackerKind::COUNTERS {
            let k = if kind == TrackerKind::SingleSite {
                1
            } else {
                4
            };
            let mut tracker = counter_spec(kind, k).build().unwrap();
            assert_eq!(tracker.kind(), kind);
            assert_eq!(tracker.k(), k);
            let mut f = 0i64;
            for (i, &d) in deltas.iter().enumerate() {
                f += d;
                tracker.step(i % k, d);
            }
            let err = relative_error(f, tracker.estimate());
            assert!(err <= 0.2, "{}: err {err}", kind.label());
            assert!(tracker.stats().total_messages() > 0);
        }
    }

    #[test]
    fn spec_builds_every_frequency_kind_and_tracks_f1() {
        let updates = ItemStreamGen::new(5, 64, 1.1, 0.2, 1).updates(4_000, RoundRobin::new(3));
        for kind in TrackerKind::FREQUENCIES {
            let mut tracker = TrackerSpec::new(kind)
                .k(3)
                .eps(0.2)
                .seed(11)
                .universe(64)
                .build_item()
                .unwrap();
            assert_eq!(tracker.kind(), kind);
            let report = ItemDriver::new(0.2)
                .unwrap()
                .with_item_audit(500)
                .run_items(&mut tracker, &updates)
                .unwrap();
            assert_eq!(report.run.violations, 0, "{}: F1 broke ε", kind.label());
            assert!(report.audits > 0);
            assert!(report.coord_space_words > 0);
        }
    }

    #[test]
    fn single_site_with_k_not_1_is_a_typed_error() {
        let err = counter_spec(TrackerKind::SingleSite, 4)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::SingleSiteRequiresK1 { k: 4 });
        assert!(err.to_string().contains("k = 1"));
        assert!(counter_spec(TrackerKind::SingleSite, 1).build().is_ok());
    }

    #[test]
    fn declared_deletions_into_monotone_kinds_fail_at_build_time() {
        for kind in [TrackerKind::CmyMonotone, TrackerKind::HyzMonotone] {
            let err = counter_spec(kind, 2).deletions(true).build().unwrap_err();
            assert_eq!(err, BuildError::DeletionsUnsupported { kind });
        }
        // Deletion-capable kinds accept the flag.
        assert!(counter_spec(TrackerKind::Deterministic, 2)
            .deletions(true)
            .build()
            .is_ok());
    }

    #[test]
    fn wrong_problem_and_missing_universe_are_typed_errors() {
        let err = TrackerSpec::new(TrackerKind::ExactFreq)
            .universe(10)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::WrongProblem { .. }));
        let err = TrackerSpec::new(TrackerKind::Deterministic)
            .build_item()
            .unwrap_err();
        assert!(matches!(err, BuildError::WrongProblem { .. }));
        for kind in [
            TrackerKind::ExactFreq,
            TrackerKind::CrPrecisFreq,
            TrackerKind::RandFreq,
        ] {
            let err = TrackerSpec::new(kind).build_item().unwrap_err();
            assert_eq!(err, BuildError::MissingUniverse { kind });
        }
        // Count-Min hashes the universe away; no universe needed.
        assert!(TrackerSpec::new(TrackerKind::CountMinFreq)
            .build_item()
            .is_ok());
        let err = TrackerSpec::new(TrackerKind::ExactFreq)
            .universe(0)
            .build_item()
            .unwrap_err();
        assert_eq!(err, BuildError::EmptyUniverse);
    }

    #[test]
    fn parameter_bounds_are_typed_errors() {
        for eps in [0.0, 1.0, -0.5, f64::NAN] {
            let err = TrackerSpec::new(TrackerKind::Deterministic)
                .eps(eps)
                .build()
                .unwrap_err();
            assert!(matches!(err, BuildError::InvalidEps { .. }), "eps {eps}");
        }
        let err = TrackerSpec::new(TrackerKind::Deterministic)
            .k(0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroSites);
        let err = TrackerSpec::new(TrackerKind::Randomized)
            .sample_const(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidSampleConst { c: -1.0 });
        let err = TrackerSpec::new(TrackerKind::Deterministic)
            .sample_const(3.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedOption { .. }));
        let err = TrackerSpec::new(TrackerKind::Naive)
            .universe(10)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedOption { .. }));
    }

    /// An exact forwarding protocol: every update is one message, and the
    /// coordinator's sum is the truth.
    #[derive(Debug)]
    struct FwdSite;
    #[derive(Debug)]
    struct SumCoord {
        sum: i64,
    }
    /// A coordinator that never updates: its estimate is stuck at 0.
    #[derive(Debug)]
    struct DeafCoord;
    impl SiteNode for FwdSite {
        type In = i64;
        type Up = i64;
        type Down = ();
        fn on_update(&mut self, _t: Time, d: i64, out: &mut Outbox<i64>) {
            out.send(d);
        }
        fn on_down(&mut self, _t: Time, _m: &(), _r: bool, _o: &mut Outbox<i64>) {}
    }
    impl CoordinatorNode for SumCoord {
        type Up = i64;
        type Down = ();
        fn on_up(&mut self, _t: Time, _s: SiteId, m: i64, _o: &mut CoordOutbox<()>) {
            self.sum += m;
        }
        fn estimate(&self) -> i64 {
            self.sum
        }
    }
    impl CoordinatorNode for DeafCoord {
        type Up = i64;
        type Down = ();
        fn on_up(&mut self, _t: Time, _s: SiteId, _m: i64, _o: &mut CoordOutbox<()>) {}
        fn estimate(&self) -> i64 {
            0
        }
    }
    // Custom protocols opt in with one line each; both register as Naive.
    impl KnownKind for StarSim<FwdSite, SumCoord> {
        const KIND: TrackerKind = TrackerKind::Naive;
    }
    impl KnownKind for StarSim<FwdSite, DeafCoord> {
        const KIND: TrackerKind = TrackerKind::Naive;
    }

    fn forwarding(k: usize) -> StarSim<FwdSite, SumCoord> {
        StarSim::with_k(k, |_| FwdSite, SumCoord { sum: 0 })
    }

    #[test]
    fn exact_tracker_never_violates() {
        let updates: Vec<Update> = (1..=500u64)
            .map(|t| Update::new(t, (t as usize * 7 + 3) % 4, if t % 2 == 0 { 1 } else { -1 }))
            .collect();
        let report = Driver::new(0.1)
            .unwrap()
            .with_sampling(100)
            .run(&mut forwarding(4), &updates)
            .unwrap();
        assert_eq!(report.n, 500);
        assert_eq!(report.violations, 0);
        assert_eq!(report.max_rel_err, 0.0);
        assert_eq!(report.final_f, report.final_estimate);
        assert_eq!(report.probes.len(), 5);
        assert_eq!(report.stats.total_messages(), 500);
        assert_eq!(report.violation_rate(), 0.0);
    }

    #[test]
    fn stuck_tracker_is_flagged() {
        // Monotone stream: f(t) = t, estimate stays 0 → violation at every t.
        let updates: Vec<Update> = (1..=100).map(|t| Update::new(t, 0, 1)).collect();
        let mut sim = StarSim::with_k(1, |_| FwdSite, DeafCoord);
        let report = Driver::new(0.5).unwrap().run(&mut sim, &updates).unwrap();
        assert_eq!(report.violations, 100);
        assert!(report.max_rel_err >= 1.0);
        assert_eq!(report.violation_rate(), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The driver's violation counting is consistent with the
        /// recorded max relative error.
        #[test]
        fn driver_report_consistency(
            deltas in prop::collection::vec(prop_oneof![Just(1i64), Just(-1i64)], 1..300),
            eps in 0.05f64..0.9,
        ) {
            let updates: Vec<Update> = deltas
                .iter()
                .enumerate()
                .map(|(i, &d)| Update::new((i + 1) as u64, 0, d))
                .collect();
            let report = Driver::new(eps).unwrap().run(&mut forwarding(1), &updates).unwrap();
            // Exact tracker: no violations, no error, estimate == truth.
            prop_assert_eq!(report.violations, 0);
            prop_assert_eq!(report.max_rel_err, 0.0);
            prop_assert_eq!(report.final_f, report.final_estimate);
            prop_assert_eq!(report.n, updates.len() as u64);
        }
    }

    #[test]
    fn driver_returns_run_errors_instead_of_panicking() {
        let mut cmy = counter_spec(TrackerKind::CmyMonotone, 2).build().unwrap();
        let updates = vec![Update::new(1, 0, 1), Update::new(2, 1, -1)];
        let err = Driver::new(0.2)
            .unwrap()
            .run(&mut cmy, &updates)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::DeletionUnsupported {
                kind: TrackerKind::CmyMonotone,
                time: 2
            }
        );

        let mut det = counter_spec(TrackerKind::Deterministic, 2).build().unwrap();
        let err = Driver::new(0.2)
            .unwrap()
            .run(&mut det, &[Update::new(1, 5, 1)])
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SiteOutOfRange {
                site: 5,
                k: 2,
                time: 1
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn floor_forgives_small_value_wobble() {
        // A deaf tracker stuck at 0 while f hovers in ±2: infinitely wrong
        // under the exact convention, within ε under a q = 100 floor.
        let updates: Vec<Update> = (1..=100)
            .map(|t| Update::new(t, 0, if t % 2 == 0 { 1 } else { -1 }))
            .collect();
        let strict = Driver::<i64>::new(0.1).unwrap();
        let floored = Driver::<i64>::new(0.1).unwrap().with_floor(100.0).unwrap();

        let mut a = counter_spec(TrackerKind::Naive, 1).build().unwrap();
        let r = strict.run(&mut a, &updates).unwrap();
        assert_eq!(r.violations, 0); // naive is exact either way

        // Hand-rolled stuck estimates via the floored audit function.
        assert!(strict.audit_err(0, 1).is_infinite());
        assert_eq!(floored.audit_err(0, 1), 0.01);
        assert_eq!(floored.audit_err(-1, 0), 0.01);
        assert!(floored.audit_err(1_000, 0) > 0.9); // floor is inactive at scale

        // Config validation.
        assert!(Driver::<i64>::new(0.1).unwrap().with_floor(0.0).is_err());
        assert!(Driver::<i64>::new(0.1)
            .unwrap()
            .with_floor(f64::NAN)
            .is_err());
        assert!(Driver::<i64>::new(1.5).is_err());
    }

    /// `snapshot_into` after a prefix must leave the prefix alone and
    /// append exactly the snapshot's payload.
    fn assert_appends_payload<In: Copy>(tracker: &(impl Tracker<In> + ?Sized), label: &str) {
        let prefix = [0xA5u8, 0, 0xFF, 7, 7];
        let mut out = prefix.to_vec();
        tracker.snapshot_into(&mut out).unwrap();
        let state = tracker.snapshot().unwrap();
        assert_eq!(out[..prefix.len()], prefix, "{label}: prefix disturbed");
        assert_eq!(&out[prefix.len()..], state.payload(), "{label}");
        // Appending again lays a second, identical record behind the first.
        tracker.snapshot_into(&mut out).unwrap();
        assert_eq!(
            &out[prefix.len() + state.payload().len()..],
            state.payload(),
            "{label}: second append"
        );
    }

    #[test]
    fn snapshot_into_appends_exactly_the_snapshot_payload_for_every_kind() {
        let deltas = WalkGen::fair(9).deltas(2_000);
        for kind in TrackerKind::COUNTERS {
            let k = if kind == TrackerKind::SingleSite {
                1
            } else {
                3
            };
            let spec = counter_spec(kind, k);
            let mut tracker = spec.build().unwrap();
            assert_appends_payload(&tracker, kind.label());
            for (i, &d) in deltas.iter().enumerate() {
                let d = if kind.supports_deletions() { d } else { 1 };
                tracker.step(i % k, d);
            }
            assert_appends_payload(&tracker, kind.label());
            // The appended bytes are a restorable state, not just equal ones.
            let mut payload = Vec::new();
            tracker.snapshot_into(&mut payload).unwrap();
            let resumed = spec.resume(&TrackerState::new(kind, k, payload)).unwrap();
            assert_eq!(resumed.snapshot().unwrap(), tracker.snapshot().unwrap());
        }
        let updates = ItemStreamGen::new(5, 64, 1.1, 0.2, 1).updates(2_000, RoundRobin::new(3));
        for kind in TrackerKind::FREQUENCIES {
            let spec = TrackerSpec::new(kind).k(3).eps(0.2).seed(11).universe(64);
            let mut tracker = spec.build_item().unwrap();
            assert_appends_payload(&tracker, kind.label());
            for u in &updates {
                tracker.step(u.site, (u.item, u.delta));
            }
            assert_appends_payload(&tracker, kind.label());
        }
    }

    #[test]
    fn snapshot_into_defaults_to_snapshot_for_trackers_that_only_have_that() {
        /// A custom tracker written against the trait as it was before
        /// `snapshot_into`: required methods plus `snapshot`.
        #[derive(Debug)]
        struct Legacy(Box<dyn Tracker + Send>);
        impl Tracker for Legacy {
            fn step(&mut self, site: SiteId, input: i64) -> i64 {
                self.0.step(site, input)
            }
            fn estimate(&self) -> i64 {
                self.0.estimate()
            }
            fn stats(&self) -> &CommStats {
                self.0.stats()
            }
            fn kind(&self) -> TrackerKind {
                self.0.kind()
            }
            fn k(&self) -> usize {
                self.0.k()
            }
            fn snapshot(&self) -> Result<TrackerState, CodecError> {
                self.0.snapshot()
            }
        }
        let mut legacy = Legacy(counter_spec(TrackerKind::Deterministic, 2).build().unwrap());
        for t in 0..500 {
            legacy.step(t % 2, 1);
        }
        assert_appends_payload(&legacy, "legacy");
        assert_appends_payload(&Box::new(legacy), "boxed legacy");
    }

    #[test]
    fn custom_protocols_can_register_a_kind() {
        // The module's forwarding protocol is registered as Naive: the
        // blanket impl turns its StarSim into a Tracker with no other code.
        let mut sim = StarSim::with_k(2, |_| FwdSite, SumCoord { sum: 0 });
        let updates: Vec<Update> = (1..=50).map(|t| Update::new(t, 0, 1)).collect();
        let report = Driver::new(0.5).unwrap().run(&mut sim, &updates).unwrap();
        assert_eq!(report.final_estimate, 50);
        assert_eq!(report.violations, 0);
    }
}

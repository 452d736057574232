//! # dsv-net — distributed monitoring substrate
//!
//! This crate implements the *distributed monitoring model* of Cormode,
//! Muthukrishnan, and Yi that the paper ["Variability in Data
//! Streams"](https://arxiv.org/abs/1502.07027) (Felber & Ostrovsky, PODS
//! 2016) builds on:
//!
//! * a single **coordinator** and `k` **sites** arranged in a star topology;
//! * time proceeds in discrete steps; at each step one stream update
//!   `f'(n) = ±δ` arrives at exactly one site `i(n)`;
//! * sites may send messages *up* to the coordinator; the coordinator may
//!   send unicast messages or *broadcasts* down to the sites (a broadcast is
//!   charged as `k` messages, matching the paper's accounting);
//! * all communication is charged to a [`stats::CommStats`] ledger, in both
//!   message and word counts, so algorithms can be compared against the
//!   paper's bounds.
//!
//! The substrate is deliberately **synchronous and deterministic**: messages
//! triggered by an update are delivered within the same timestep in rounds
//! until the network quiesces. This matches the model in the paper (instant
//! delivery, no failures) and makes every experiment reproducible bit-for-bit.
//!
//! The actual tracking algorithms live in `dsv-core`; they are expressed as
//! implementations of [`protocol::SiteNode`] and [`protocol::CoordinatorNode`]
//! and executed by [`sim::StarSim`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod delta;
pub mod ingest;
pub mod message;
pub mod protocol;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod transport;

pub use codec::{CodecError, Dec, Enc};
pub use delta::{fingerprint, Fingerprint, StateDelta, DELTA_SECTION};
pub use ingest::{FeedFrame, IngestStats};
pub use message::{MsgKind, MsgRecord, WireSize};
pub use protocol::{CoordOutbox, CoordinatorNode, DownMsg, Outbox, SiteNode};
pub use runner::{relative_error, relative_error_floored, ConfigError, ErrorProbe, RunReport};
pub use shard::{ShardReport, StateFrame};
pub use sim::StarSim;
pub use stats::CommStats;
pub use transport::{Conn, Endpoint, Listener, TransportError, WireStats};

/// Identifier of a site, in `0..k`.
pub type SiteId = usize;

/// Discrete timestep. The first update arrives at time 1; time 0 is the
/// initial state with `f(0) = 0` (unless an algorithm overrides it).
pub type Time = u64;

/// A single stream update: at `time`, the value `delta` arrives at `site`.
///
/// The paper's upper bounds assume `delta = ±1`; larger updates are handled
/// by the expansion of Appendix C (see `dsv-core::expand`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Timestep at which the update arrives (1-based).
    pub time: Time,
    /// Site that observes the update.
    pub site: SiteId,
    /// Signed change `f'(t) = f(t) - f(t-1)`.
    pub delta: i64,
}

impl Update {
    /// Convenience constructor.
    pub fn new(time: Time, site: SiteId, delta: i64) -> Self {
        Update { time, site, delta }
    }
}

/// An item-stream update for the frequency-tracking problem (§5.1): at
/// `time`, one copy of `item` is inserted (`delta = +1`) into or deleted
/// (`delta = -1`) from the dataset `D`, observed at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemUpdate {
    /// Timestep at which the update arrives (1-based).
    pub time: Time,
    /// Site that observes the update.
    pub site: SiteId,
    /// The item `ℓ ∈ U` concerned.
    pub item: u64,
    /// `+1` for insertion, `-1` for deletion.
    pub delta: i64,
}

impl ItemUpdate {
    /// Convenience constructor.
    pub fn new(time: Time, site: SiteId, item: u64, delta: i64) -> Self {
        ItemUpdate {
            time,
            site,
            item,
            delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_constructor_roundtrips() {
        let u = Update::new(7, 3, -1);
        assert_eq!(u.time, 7);
        assert_eq!(u.site, 3);
        assert_eq!(u.delta, -1);
    }
}

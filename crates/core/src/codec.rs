//! The state-serialization seam: versioned tracker snapshots.
//!
//! The paper's protocols are long-lived monitors whose entire correctness
//! lives in per-site counters, drifts, and thresholds. This module gives
//! that state a portable form so a monitor can survive a crash, migrate
//! across workers, or be rescaled without replaying the stream:
//!
//! * [`TrackerState`] — a typed, versioned snapshot of one running
//!   tracker: the registry kind, the site count, and a length-prefixed
//!   binary payload capturing every site node, the coordinator, RNG
//!   streams, and the `CommStats` ledger (written by
//!   [`dsv_net::StarSim::save_state`] through the hand-rolled codec in
//!   [`dsv_net::codec`], re-exported here — offline workspace, no serde);
//! * [`Tracker::snapshot`](crate::api::Tracker::snapshot) /
//!   [`Tracker::restore`](crate::api::Tracker::restore) — the object-safe
//!   seam every registered kind implements;
//! * [`TrackerSpec::resume`](crate::api::TrackerSpec::resume) /
//!   [`resume_item`](crate::api::TrackerSpec::resume_item) — the fallible
//!   front door: build a fresh tracker from the spec the snapshot was
//!   taken under, then restore into it.
//!
//! # Format and versioning
//!
//! A serialized [`TrackerState`] is `b"DSVT"`, a `u16` format version
//! (currently [`STATE_VERSION`]), a `u8` kind tag ([`kind_tag`]), the
//! site count, and the simulator payload as a blob. Decoders read exactly
//! [`STATE_VERSION`] and return [`CodecError::UnsupportedVersion`] for
//! any other, older or newer; any layout change to any node's state
//! **must** bump [`STATE_VERSION`] (see the workspace `MIGRATION.md` for
//! the compatibility policy). Truncated, corrupted, or
//! foreign payloads decode to typed [`CodecError`]s — never panics.
//!
//! The round-trip contract (held by `tests/state_roundtrip.rs`):
//! `snapshot → restore → snapshot` is byte-identical, and a restored
//! tracker continues the stream with bit-identical estimates and
//! [`dsv_net::CommStats`] to an uninterrupted run.

use crate::api::TrackerKind;
pub use dsv_net::codec::{restore_check, CodecError, Dec, Enc};

/// Magic bytes opening a serialized [`TrackerState`].
pub const STATE_MAGIC: [u8; 4] = *b"DSVT";

/// Current tracker-state format version. Bump on **any** change to the
/// envelope or to any node's `save_state` layout, and document the bump
/// in `MIGRATION.md`. Version 2 dropped the completed-block log from the
/// block coordinator's state.
pub const STATE_VERSION: u16 = 2;

/// Stable wire tag for a [`TrackerKind`] (independent of enum order).
pub fn kind_tag(kind: TrackerKind) -> u8 {
    match kind {
        TrackerKind::Deterministic => 1,
        TrackerKind::Randomized => 2,
        TrackerKind::SingleSite => 3,
        TrackerKind::Naive => 4,
        TrackerKind::CmyMonotone => 5,
        TrackerKind::HyzMonotone => 6,
        TrackerKind::ExactFreq => 7,
        TrackerKind::CountMinFreq => 8,
        TrackerKind::CrPrecisFreq => 9,
        TrackerKind::RandFreq => 10,
    }
}

/// Inverse of [`kind_tag`].
pub fn kind_from_tag(tag: u8) -> Option<TrackerKind> {
    TrackerKind::ALL.into_iter().find(|&k| kind_tag(k) == tag)
}

/// A typed, versioned snapshot of one running tracker.
///
/// Produced by [`Tracker::snapshot`](crate::api::Tracker::snapshot);
/// consumed by [`Tracker::restore`](crate::api::Tracker::restore) and
/// [`TrackerSpec::resume`](crate::api::TrackerSpec::resume). The payload
/// is the full dynamic state of the underlying
/// [`StarSim`](dsv_net::StarSim) — simulated time, the communication
/// ledger, and every node's protocol state, RNG streams included.
///
/// Construction parameters (ε, seeds at build time, sketch shapes) are
/// deliberately **not** part of the state: a snapshot restores into a
/// tracker built with the same spec, and shape mismatches (wrong `k`,
/// wrong universe) surface as [`CodecError::Mismatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerState {
    kind: TrackerKind,
    k: usize,
    payload: Vec<u8>,
}

impl TrackerState {
    /// Assemble a state from its parts (used by the `Tracker` blanket
    /// impl; external callers obtain states from `snapshot`).
    pub fn new(kind: TrackerKind, k: usize, payload: Vec<u8>) -> Self {
        TrackerState { kind, k, payload }
    }

    /// The registry kind this state was captured from.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// The site count `k` of the captured tracker.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The opaque simulator payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Replace the payload in place, reusing the existing allocation.
    ///
    /// This is the slab seam: the keyed tracker fleet
    /// (`dsv-engine::fleet`) stores millions of per-key records as bare
    /// payload bytes in per-shard arenas and rehydrates them through one
    /// scratch `TrackerState` per shard — swapping payloads must not
    /// allocate per key. The kind and site count are fixed at
    /// construction, exactly like a snapshot's.
    pub fn set_payload(&mut self, payload: &[u8]) {
        self.payload.clear();
        self.payload.extend_from_slice(payload);
    }

    /// Serialize to the versioned wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Append the versioned wire form to an existing encoder (used by the
    /// engine checkpoint, which nests one state per shard).
    pub fn encode(&self, enc: &mut Enc) {
        enc.magic(STATE_MAGIC, STATE_VERSION);
        enc.u8(kind_tag(self.kind));
        enc.usize(self.k);
        enc.blob(&self.payload);
    }

    /// Exact number of bytes [`encode`](Self::encode) appends, without
    /// encoding: magic, version, kind tag, `k`, then the length-prefixed
    /// payload. Hidden: it serves the engine's checkpoint byte
    /// accounting, not callers.
    #[doc(hidden)]
    pub fn encoded_len(&self) -> usize {
        4 + 2 + 1 + 8 + 8 + self.payload.len()
    }

    /// Decode the versioned wire form, requiring the input to be consumed
    /// exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let state = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(state)
    }

    /// Decode one state from an in-progress decoder (the engine
    /// checkpoint's nested form).
    pub fn decode(dec: &mut Dec) -> Result<Self, CodecError> {
        dec.magic(STATE_MAGIC, STATE_VERSION)?;
        let tag = dec.u8()?;
        let kind = kind_from_tag(tag).ok_or(CodecError::BadTag {
            what: "tracker kind",
            tag: tag as u64,
        })?;
        let k = dec.usize()?;
        let payload = dec.blob()?.to_vec();
        Ok(TrackerState { kind, k, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_a_bijection() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in TrackerKind::ALL {
            let tag = kind_tag(kind);
            assert!(seen.insert(tag), "duplicate tag {tag}");
            assert_eq!(kind_from_tag(tag), Some(kind));
        }
        assert_eq!(kind_from_tag(0), None);
        assert_eq!(kind_from_tag(200), None);
    }

    #[test]
    fn envelope_round_trips() {
        let state = TrackerState::new(TrackerKind::Randomized, 4, vec![1, 2, 3]);
        let bytes = state.to_bytes();
        let back = TrackerState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.kind(), TrackerKind::Randomized);
        assert_eq!(back.k(), 4);
        assert_eq!(back.payload(), &[1, 2, 3]);
    }

    #[test]
    fn encoded_len_is_the_wire_length() {
        for payload in [vec![], vec![1, 2, 3], vec![7; 300]] {
            let state = TrackerState::new(TrackerKind::Randomized, 4, payload);
            assert_eq!(state.encoded_len(), state.to_bytes().len());
        }
    }

    #[test]
    fn truncated_and_corrupted_envelopes_are_typed_errors() {
        let bytes = TrackerState::new(TrackerKind::Naive, 2, vec![9; 16]).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                TrackerState::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            TrackerState::from_bytes(&trailing),
            Err(CodecError::Trailing { left: 1 })
        );
        let mut bad_kind = bytes.clone();
        bad_kind[6] = 250; // the kind tag byte
        assert!(matches!(
            TrackerState::from_bytes(&bad_kind),
            Err(CodecError::BadTag { tag: 250, .. })
        ));
        // One generation per format: the retired v1 (block log in the
        // coordinator state) is refused like a future version is.
        for skew in [STATE_VERSION + 1, 1] {
            let mut skewed = bytes.clone();
            skewed[4..6].copy_from_slice(&skew.to_le_bytes()); // the version word
            assert_eq!(
                TrackerState::from_bytes(&skewed),
                Err(CodecError::UnsupportedVersion {
                    found: skew,
                    supported: STATE_VERSION
                })
            );
        }
    }
}

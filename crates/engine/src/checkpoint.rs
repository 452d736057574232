//! Whole-engine checkpoints: per-shard tracker states plus the merge
//! coordinator, taken at batch boundaries.
//!
//! Batch boundaries are the engine's exact sync points — every shard has
//! quiesced, the coordinator's global estimate is reconciled, and the
//! ε-audit has run — which makes them safe cut points: a checkpoint taken
//! there, restored (onto any worker count) and driven over the remaining
//! stream, reproduces the uninterrupted run's estimates and ledgers
//! bit-for-bit. See `DESIGN.md` §6 for the consistency argument.
//!
//! The wire form is `b"DSVE"`, a `u16` version ([`CHECKPOINT_VERSION`]),
//! the engine scalars (shard count, kind, `k`, consumed time, ground-truth
//! `f`), the merge-coordinator blob, and one nested
//! [`TrackerState`] per shard. Decoding is panic-free: truncations,
//! corruptions, and version skew surface as typed
//! [`CodecError`]s.

use dsv_core::api::TrackerKind;
use dsv_core::codec::{kind_from_tag, kind_tag, CodecError, Dec, Enc, TrackerState};
use dsv_net::Time;

/// Magic bytes opening a serialized [`EngineCheckpoint`].
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DSVE";

/// Current engine-checkpoint format version. Bumps when the envelope
/// changes; nested tracker states version independently (see
/// `dsv_core::codec::STATE_VERSION`).
pub const CHECKPOINT_VERSION: u16 = 1;

/// A complete, restorable image of a [`crate::ShardedEngine`] at a batch
/// boundary: every shard replica's [`TrackerState`] plus the merge
/// coordinator, the consumed stream length, and the ground-truth `f`.
///
/// Produced by [`crate::ShardedEngine::checkpoint`]; consumed by the
/// engine `resume` constructors. The worker count is deliberately **not**
/// recorded — it is execution detail, and a checkpoint may be resumed
/// onto any number of workers with bit-identical results (that is the
/// rescaling seam).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    kind: TrackerKind,
    k: usize,
    time: Time,
    f: i64,
    merge: Vec<u8>,
    states: Vec<TrackerState>,
}

impl EngineCheckpoint {
    /// Assemble a checkpoint from its parts (used by
    /// [`crate::ShardedEngine::checkpoint`]).
    pub(crate) fn new(
        kind: TrackerKind,
        k: usize,
        time: Time,
        f: i64,
        merge: Vec<u8>,
        states: Vec<TrackerState>,
    ) -> Self {
        EngineCheckpoint {
            kind,
            k,
            time,
            f,
            merge,
            states,
        }
    }

    /// The replica kind.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// The replicas' site count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The logical shard count `S` (must match the resuming engine's).
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// Updates consumed when the checkpoint was taken.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Ground-truth `f` when the checkpoint was taken.
    pub fn f(&self) -> i64 {
        self.f
    }

    /// The per-shard tracker states.
    pub fn states(&self) -> &[TrackerState] {
        &self.states
    }

    /// The serialized merge coordinator.
    pub(crate) fn merge(&self) -> &[u8] {
        &self.merge
    }

    /// Exact length of [`to_bytes`](Self::to_bytes), without encoding:
    /// the envelope head (magic, version, kind tag, `k`, time, `f`), the
    /// merge blob and the state count, then each nested state as
    /// [`TrackerState::encoded_len`] counts it.
    pub(crate) fn encoded_len(&self) -> usize {
        let states: usize = self.states.iter().map(TrackerState::encoded_len).sum();
        4 + 2 + 1 + 8 + 8 + 8 + (8 + self.merge.len()) + 8 + states
    }

    /// Serialize to the versioned wire form (what a deployment writes to
    /// stable storage).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        enc.u8(kind_tag(self.kind));
        enc.usize(self.k);
        enc.u64(self.time);
        enc.i64(self.f);
        enc.blob(&self.merge);
        enc.seq_len(self.states.len());
        for state in &self.states {
            state.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Decode the versioned wire form; typed [`CodecError`]s on
    /// truncation, corruption, version skew, or internal disagreement
    /// (a nested state whose kind or `k` contradicts the envelope).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        dec.magic(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let tag = dec.u8()?;
        let kind = kind_from_tag(tag).ok_or(CodecError::BadTag {
            what: "tracker kind",
            tag: tag as u64,
        })?;
        let k = dec.usize()?;
        let time = dec.u64()?;
        let f = dec.i64()?;
        let merge = dec.blob()?.to_vec();
        // Each nested state is ≥ the 7-byte envelope head; pre-validating
        // the count against that bound keeps corrupted prefixes cheap.
        let shards = dec.seq_len("shard states", 7)?;
        if shards == 0 {
            return Err(CodecError::BadValue {
                what: "shard count",
            });
        }
        let mut states = Vec::with_capacity(shards);
        for _ in 0..shards {
            let state = TrackerState::decode(&mut dec)?;
            if state.kind() != kind {
                return Err(CodecError::Mismatch {
                    what: "shard state kind",
                    expected: kind_tag(kind) as u64,
                    found: kind_tag(state.kind()) as u64,
                });
            }
            if state.k() != k {
                return Err(CodecError::Mismatch {
                    what: "shard state site count",
                    expected: k as u64,
                    found: state.k() as u64,
                });
            }
            states.push(state);
        }
        dec.finish()?;
        Ok(EngineCheckpoint {
            kind,
            k,
            time,
            f,
            merge,
            states,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineCheckpoint {
        EngineCheckpoint::new(
            TrackerKind::Deterministic,
            3,
            1_000,
            -42,
            vec![1, 2, 3, 4],
            vec![
                TrackerState::new(TrackerKind::Deterministic, 3, vec![7; 10]),
                TrackerState::new(TrackerKind::Deterministic, 3, vec![8; 12]),
            ],
        )
    }

    #[test]
    fn wire_form_round_trips() {
        let ckpt = sample();
        let back = EngineCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.shards(), 2);
        assert_eq!(back.time(), 1_000);
        assert_eq!(back.f(), -42);
    }

    #[test]
    fn encoded_len_is_the_wire_length() {
        let mut ckpt = sample();
        assert_eq!(ckpt.encoded_len(), ckpt.to_bytes().len());
        ckpt.merge.clear();
        ckpt.states[0] = TrackerState::new(TrackerKind::Deterministic, 3, vec![]);
        assert_eq!(ckpt.encoded_len(), ckpt.to_bytes().len());
    }

    #[test]
    fn truncations_and_corruptions_are_typed_errors() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                EngineCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut future = bytes.clone();
        future[4] = (CHECKPOINT_VERSION + 1) as u8;
        assert!(matches!(
            EngineCheckpoint::from_bytes(&future),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0xAB);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&trailing),
            Err(CodecError::Trailing { left: 1 })
        ));
    }

    #[test]
    fn internal_disagreement_is_rejected() {
        let mut ckpt = sample();
        ckpt.states[1] = TrackerState::new(TrackerKind::Naive, 3, vec![]);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(CodecError::Mismatch {
                what: "shard state kind",
                ..
            })
        ));
        let mut ckpt = sample();
        ckpt.states[0] = TrackerState::new(TrackerKind::Deterministic, 9, vec![]);
        assert!(matches!(
            EngineCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(CodecError::Mismatch {
                what: "shard state site count",
                ..
            })
        ));
    }
}

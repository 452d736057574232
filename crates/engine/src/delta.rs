//! Incremental checkpoint store: chained section diffs over shard states.
//!
//! [`crate::ShardedEngine::checkpoint`] serializes every dirty shard in
//! full at each boundary, even though the paper's protocols keep most
//! state quiet between boundaries (counters drift inside their bands;
//! only threshold crossings mutate coordinator-visible state). A
//! [`CheckpointStore`] records the same boundaries incrementally: per
//! logical shard it keeps a full **base** snapshot payload plus a bounded
//! chain of [`StateDelta`] links, each the section-aware diff of the new
//! snapshot bytes against the previous ones. A shard whose snapshot did
//! not move contributes an identity link — one tag byte per section
//! after the result pin — which is exactly what the engine's clean-shard
//! skip produces, so the two optimizations compose.
//!
//! **Chain and rebase invariants.** The first boundary is always a base.
//! With a rebase period ([`CheckpointStore::new`]) `K > 0` a fresh base
//! is forced after every `K` chained deltas, so
//! [`materialize`](CheckpointStore::materialize) replays at most `K`
//! links; `K = 0` chains forever. Every link pins the byte length and
//! fingerprint of its result, and every result byte is built from the
//! base byte at the same offset, so a broken, reordered, or wrong-base
//! link rebuilds bytes that miss the pin: a typed error, never silent
//! corruption. Decoding replays every chain once, so such a store is
//! refused at [`from_bytes`](CheckpointStore::from_bytes), and a
//! materialized boundary is **bit-identical** to the
//! [`EngineCheckpoint`] that was recorded (held by
//! `tests/delta_checkpoint.rs` for all ten kinds).
//!
//! Boundary metadata — time, ground-truth `f`, and the merge-coordinator
//! blob — is tiny next to shard states and is stored in full per
//! boundary. The store's own wire form (`b"DSVS"`, [`STORE_VERSION`])
//! owns the version of the diffs nested in it and gets the same
//! robustness treatment as every other envelope: truncation,
//! corruption, version skew, and incoherent chains all decode to typed
//! [`CodecError`]s (held by `tests/codec_robustness.rs`).

use dsv_core::api::TrackerKind;
use dsv_core::codec::{kind_from_tag, kind_tag, TrackerState};
use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{StateDelta, Time};

use crate::checkpoint::EngineCheckpoint;
use crate::config::EngineError;

/// Magic bytes opening a serialized [`CheckpointStore`].
pub const STORE_MAGIC: [u8; 4] = *b"DSVS";

/// Current checkpoint-store format version. Bump on **any** layout
/// change (and see `MIGRATION.md`), including one of the bare
/// [`StateDelta`] encoding its delta links hold. Base links hold
/// **bare** tracker payloads (no `DSVT` envelope), so this moves with
/// `dsv_core::codec::STATE_VERSION`: version 3 is state version 2 with
/// bare delta links.
pub const STORE_VERSION: u16 = 3;

/// One shard's contribution to one retained boundary.
#[derive(Debug, Clone, PartialEq)]
enum Link {
    /// A full snapshot payload — the chain (re)starts here.
    Base(Vec<u8>),
    /// A delta against the shard's previous boundary payload.
    Delta(StateDelta),
}

/// One retained boundary: metadata in full, shard states as chain links.
#[derive(Debug, Clone, PartialEq)]
struct Boundary {
    time: Time,
    f: i64,
    merge: Vec<u8>,
    links: Vec<Link>,
}

/// Byte accounting over a store's lifetime (in-memory counters; they
/// restart at zero when a store is decoded from bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Boundaries recorded.
    pub boundaries: u64,
    /// Boundaries recorded as full bases (chain restarts).
    pub bases: u64,
    /// Identity links recorded (shards whose snapshot bytes were
    /// unchanged — the quiet-stream case).
    pub identity_links: u64,
    /// What the same boundaries would have cost as full
    /// [`EngineCheckpoint::to_bytes`] images.
    pub full_bytes: u64,
    /// What the store's incremental boundary records actually cost.
    pub delta_bytes: u64,
}

impl DeltaStats {
    /// `full_bytes / delta_bytes` — how many times cheaper the
    /// incremental encoding was over the recorded window.
    pub fn shrink(&self) -> f64 {
        if self.delta_bytes == 0 {
            0.0
        } else {
            self.full_bytes as f64 / self.delta_bytes as f64
        }
    }
}

/// An incremental, chain-encoded archive of engine checkpoints — see the
/// [module docs](self) for the format and its invariants.
///
/// Feed it boundaries with [`record`](Self::record) (or
/// [`crate::ShardedEngine::checkpoint_into`]); get any retained boundary
/// back, bit-identical, with [`materialize`](Self::materialize).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    rebase: u64,
    kind: Option<TrackerKind>,
    k: usize,
    shards: usize,
    boundaries: Vec<Boundary>,
    /// The previous boundary's payload per shard — the diff base.
    prev: Vec<Vec<u8>>,
    /// Chained deltas since the last base.
    since_base: u64,
    stats: DeltaStats,
}

impl CheckpointStore {
    /// An empty store that forces a fresh base after every `rebase`
    /// chained deltas (`0` = never rebase; the first boundary is always a
    /// base). Engines configured with
    /// [`crate::EngineConfig::delta_rebase`] pass that period here.
    pub fn new(rebase: u64) -> Self {
        CheckpointStore {
            rebase,
            kind: None,
            k: 0,
            shards: 0,
            boundaries: Vec::new(),
            prev: Vec::new(),
            since_base: 0,
            stats: DeltaStats::default(),
        }
    }

    /// Retained boundaries, oldest first.
    pub fn boundaries(&self) -> Vec<Time> {
        self.boundaries.iter().map(|b| b.time).collect()
    }

    /// Number of retained boundaries.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// True before the first boundary is recorded.
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The most recently recorded boundary time.
    pub fn last_boundary(&self) -> Option<Time> {
        self.boundaries.last().map(|b| b.time)
    }

    /// Lifetime byte accounting (full-equivalent vs incremental).
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Record one checkpoint as the next boundary. The first record fixes
    /// the store's kind, site count, and shard count; later records must
    /// agree and must advance the boundary time (typed
    /// [`EngineError::CheckpointMismatch`] otherwise). Whether this
    /// boundary is a fresh base or a chain of deltas follows the rebase
    /// invariant; either way the recorded image is reconstructible
    /// bit-identically.
    pub fn record(&mut self, ckpt: &EngineCheckpoint) -> Result<(), EngineError> {
        if let Some(kind) = self.kind {
            if ckpt.kind() != kind {
                return Err(EngineError::CheckpointMismatch {
                    what: "tracker kind tag",
                    expected: kind_tag(kind) as u64,
                    found: kind_tag(ckpt.kind()) as u64,
                });
            }
            if ckpt.k() != self.k {
                return Err(EngineError::CheckpointMismatch {
                    what: "site count",
                    expected: self.k as u64,
                    found: ckpt.k() as u64,
                });
            }
            if ckpt.shards() != self.shards {
                return Err(EngineError::CheckpointMismatch {
                    what: "logical shard count",
                    expected: self.shards as u64,
                    found: ckpt.shards() as u64,
                });
            }
            let last = self.boundaries.last().map(|b| b.time).unwrap_or(0);
            if ckpt.time() <= last {
                return Err(EngineError::CheckpointMismatch {
                    what: "monotone boundary time",
                    expected: last + 1,
                    found: ckpt.time(),
                });
            }
        } else {
            self.kind = Some(ckpt.kind());
            self.k = ckpt.k();
            self.shards = ckpt.shards();
            self.prev = vec![Vec::new(); self.shards];
        }
        let fresh_base =
            self.boundaries.is_empty() || (self.rebase > 0 && self.since_base >= self.rebase);
        let mut links = Vec::with_capacity(self.shards);
        for (s, state) in ckpt.states().iter().enumerate() {
            let payload = state.payload();
            links.push(if fresh_base {
                Link::Base(payload.to_vec())
            } else {
                Link::Delta(StateDelta::diff(&self.prev[s], payload))
            });
            if self.prev[s] != payload {
                self.prev[s].clear();
                self.prev[s].extend_from_slice(payload);
            } else if !fresh_base {
                self.stats.identity_links += 1;
            }
        }
        let boundary = Boundary {
            time: ckpt.time(),
            f: ckpt.f(),
            merge: ckpt.merge().to_vec(),
            links,
        };
        if fresh_base {
            self.since_base = 0;
            self.stats.bases += 1;
        } else {
            self.since_base += 1;
        }
        self.stats.delta_bytes += boundary.encoded_len() as u64;
        self.stats.full_bytes += ckpt.encoded_len() as u64;
        self.stats.boundaries += 1;
        self.boundaries.push(boundary);
        Ok(())
    }

    /// Reconstruct the checkpoint recorded at boundary `time`,
    /// bit-identical to the [`EngineCheckpoint`] that was recorded there:
    /// per shard, replay the delta chain forward from the nearest base.
    /// An unretained time is a typed [`EngineError::UnknownBoundary`]; a
    /// chain whose links were tampered with fails with a typed
    /// [`CodecError::Mismatch`], never silently wrong bytes.
    pub fn materialize(&self, time: Time) -> Result<EngineCheckpoint, EngineError> {
        let idx = self
            .boundaries
            .binary_search_by_key(&time, |b| b.time)
            .map_err(|_| EngineError::UnknownBoundary { time })?;
        let kind = self.kind.expect("non-empty store has a kind");
        let boundary = &self.boundaries[idx];
        let mut states = Vec::with_capacity(self.shards);
        for s in 0..self.shards {
            // Walk back to the nearest base for this shard...
            let base_idx = (0..=idx)
                .rev()
                .find(|&i| matches!(self.boundaries[i].links[s], Link::Base(_)))
                .expect("every chain starts at a base");
            let mut payload = match &self.boundaries[base_idx].links[s] {
                Link::Base(bytes) => bytes.clone(),
                Link::Delta(_) => unreachable!("base_idx indexes a base"),
            };
            // ...then replay the chain forward.
            for i in base_idx + 1..=idx {
                match &self.boundaries[i].links[s] {
                    Link::Delta(delta) => payload = delta.apply(&payload)?,
                    Link::Base(_) => unreachable!("base_idx is the nearest base"),
                }
            }
            states.push(TrackerState::new(kind, self.k, payload));
        }
        Ok(EngineCheckpoint::new(
            kind,
            self.k,
            boundary.time,
            boundary.f,
            boundary.merge.clone(),
            states,
        ))
    }

    /// Reconstruct the most recent boundary
    /// (see [`materialize`](Self::materialize)).
    pub fn materialize_latest(&self) -> Result<EngineCheckpoint, EngineError> {
        let time = self
            .last_boundary()
            .ok_or(EngineError::UnknownBoundary { time: 0 })?;
        self.materialize(time)
    }

    /// Serialize the store to its versioned wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(STORE_MAGIC, STORE_VERSION);
        enc.u8(self.kind.map(kind_tag).unwrap_or(0));
        enc.usize(self.k);
        enc.usize(self.shards);
        enc.u64(self.rebase);
        enc.seq_len(self.boundaries.len());
        for boundary in &self.boundaries {
            encode_boundary(boundary, &mut enc);
        }
        enc.into_bytes()
    }

    /// Decode the versioned wire form, requiring exact consumption and a
    /// coherent chain: boundary times strictly increasing and every
    /// shard's first link a base. The chains are then replayed once to
    /// rebuild the diff bases, which checks every link's result against
    /// its pin — so a reordered or cross-wired chain is rejected *here*,
    /// not at [`materialize`](Self::materialize).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        dec.magic(STORE_MAGIC, STORE_VERSION)?;
        let tag = dec.u8()?;
        let k = dec.usize()?;
        let shards = dec.usize()?;
        let rebase = dec.u64()?;
        let n = dec.seq_len("store boundaries", 17)?;
        let kind = if n == 0 && tag == 0 {
            None
        } else {
            Some(kind_from_tag(tag).ok_or(CodecError::BadTag {
                what: "store tracker kind",
                tag: tag as u64,
            })?)
        };
        if n > 0 && (k == 0 || shards == 0) {
            return Err(CodecError::BadValue {
                what: "store shard or site count",
            });
        }
        if n == 0 && (k != 0 || shards != 0) {
            return Err(CodecError::BadValue {
                what: "store shard or site count",
            });
        }
        // Every recorded link costs at least its one tag byte, so a
        // shard count the remaining payload cannot possibly carry is
        // corruption — reject it before it sizes any allocation.
        if shards > dec.remaining() {
            return Err(CodecError::BadLength {
                what: "store shard count",
            });
        }
        let mut boundaries = Vec::with_capacity(n);
        // Which shards' chains have opened with a base.
        let mut based = vec![false; shards];
        let mut last_time = 0u64;
        for bi in 0..n {
            let time = dec.u64()?;
            if bi > 0 && time <= last_time {
                return Err(CodecError::Mismatch {
                    what: "monotone store boundary time",
                    expected: last_time + 1,
                    found: time,
                });
            }
            last_time = time;
            let f = dec.i64()?;
            let merge = dec.blob()?.to_vec();
            let mut links = Vec::with_capacity(shards);
            for based in based.iter_mut() {
                match dec.u8()? {
                    1 => {
                        *based = true;
                        links.push(Link::Base(dec.blob()?.to_vec()));
                    }
                    2 if !*based => {
                        return Err(CodecError::BadValue {
                            what: "store chain start (delta before any base)",
                        })
                    }
                    2 => links.push(Link::Delta(StateDelta::decode(&mut dec)?)),
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "store chain link",
                            tag: tag as u64,
                        })
                    }
                }
            }
            boundaries.push(Boundary {
                time,
                f,
                merge,
                links,
            });
        }
        dec.finish()?;
        // Rebuild the diff bases by replaying each shard's chain once
        // (this also checks every link's result against its pin), and
        // recover how deep the current chain is for the rebase invariant.
        let mut prev = vec![Vec::new(); shards];
        for boundary in &boundaries {
            for (s, link) in boundary.links.iter().enumerate() {
                match link {
                    Link::Base(payload) => prev[s] = payload.clone(),
                    Link::Delta(delta) => prev[s] = delta.apply(&prev[s])?,
                }
            }
        }
        let since_base = boundaries
            .iter()
            .rev()
            .take_while(|b| matches!(b.links.first(), Some(Link::Delta(_))))
            .count() as u64;
        Ok(CheckpointStore {
            rebase,
            kind,
            k,
            shards,
            boundaries,
            prev,
            since_base,
            stats: DeltaStats::default(),
        })
    }
}

/// Encode one boundary record for [`CheckpointStore::to_bytes`];
/// [`Boundary::encoded_len`] must match its output byte for byte.
fn encode_boundary(boundary: &Boundary, enc: &mut Enc) {
    enc.u64(boundary.time);
    enc.i64(boundary.f);
    enc.blob(&boundary.merge);
    for link in &boundary.links {
        match link {
            Link::Base(payload) => {
                enc.u8(1);
                enc.blob(payload);
            }
            Link::Delta(delta) => {
                enc.u8(2);
                delta.encode(enc);
            }
        }
    }
}

impl Boundary {
    /// Exact length of [`encode_boundary`]'s output, without encoding.
    fn encoded_len(&self) -> usize {
        let links: usize = self
            .links
            .iter()
            .map(|link| match link {
                Link::Base(payload) => 1 + 8 + payload.len(),
                Link::Delta(delta) => 1 + delta.encoded_len(),
            })
            .sum();
        8 + 8 + (8 + self.merge.len()) + links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterEngine, EngineConfig, ShardedEngine};
    use dsv_core::api::{TrackerKind, TrackerSpec};
    use dsv_net::Update;

    fn stream(n: u64, k: usize) -> Vec<Update> {
        (1..=n)
            .map(|t| Update::new(t, (t % k as u64) as usize, if t % 5 == 0 { -1 } else { 1 }))
            .collect()
    }

    fn engine() -> CounterEngine {
        let spec = TrackerSpec::new(TrackerKind::Deterministic)
            .k(4)
            .eps(0.1)
            .deletions(true);
        ShardedEngine::counters(spec, EngineConfig::new(3, 256).eps(0.1)).unwrap()
    }

    #[test]
    fn recorded_boundaries_materialize_bit_identically() {
        let mut engine = engine();
        let updates = stream(4 * 1024, 4);
        let mut store = CheckpointStore::new(2);
        let mut recorded = Vec::new();
        for chunk in updates.chunks(1024) {
            engine.run(chunk).unwrap();
            let ckpt = engine.checkpoint().unwrap();
            store.record(&ckpt).unwrap();
            recorded.push(ckpt);
        }
        assert_eq!(store.len(), 4);
        assert_eq!(
            store.boundaries(),
            recorded.iter().map(|c| c.time()).collect::<Vec<_>>()
        );
        for ckpt in &recorded {
            let back = store.materialize(ckpt.time()).unwrap();
            assert_eq!(&back, ckpt, "boundary t = {}", ckpt.time());
            assert_eq!(
                back.to_bytes(),
                ckpt.to_bytes(),
                "bytes t = {}",
                ckpt.time()
            );
        }
        assert_eq!(
            store.materialize_latest().unwrap(),
            *recorded.last().unwrap()
        );
        // Rebase every 2 deltas: boundaries 1, 4 are bases (1 + 2 deltas,
        // then a fresh base).
        assert_eq!(store.stats().bases, 2);
        assert_eq!(store.stats().boundaries, 4);
        assert!(store.stats().full_bytes > store.stats().delta_bytes);
    }

    #[test]
    fn computed_lengths_are_the_encoded_lengths() {
        // Rebase every 2: a base boundary, a delta boundary, then an
        // identity boundary (nothing ran, a later time).
        let mut engine = engine();
        let mut store = CheckpointStore::new(2);
        let mut ckpts = Vec::new();
        for chunk in stream(2 * 1024, 4).chunks(1024) {
            engine.run(chunk).unwrap();
            ckpts.push(engine.checkpoint().unwrap());
        }
        let last = ckpts.last().unwrap();
        ckpts.push(EngineCheckpoint::new(
            last.kind(),
            last.k(),
            last.time() + 1,
            last.f(),
            last.merge().to_vec(),
            last.states().to_vec(),
        ));
        for ckpt in &ckpts {
            store.record(ckpt).unwrap();
            assert_eq!(ckpt.encoded_len(), ckpt.to_bytes().len());
            let boundary = store.boundaries.last().unwrap();
            let mut enc = Enc::new();
            encode_boundary(boundary, &mut enc);
            assert_eq!(boundary.encoded_len(), enc.len());
        }
        let links = |i: usize| &store.boundaries[i].links;
        assert!(links(0).iter().all(|l| matches!(l, Link::Base(_))));
        assert!(links(1).iter().all(|l| matches!(l, Link::Delta(_))));
        assert_eq!(
            store.stats().identity_links,
            3,
            "the last boundary is quiet"
        );
    }

    #[test]
    fn quiet_boundaries_cost_identity_links() {
        let mut engine = engine();
        engine.run(&stream(1024, 4)).unwrap();
        let mut store = CheckpointStore::new(0);
        store.record(&engine.checkpoint().unwrap()).unwrap();
        // No updates ran: the next checkpoint is byte-identical, and the
        // fabricated later time makes it a distinct boundary.
        let ckpt = engine.checkpoint().unwrap();
        let quiet = EngineCheckpoint::new(
            ckpt.kind(),
            ckpt.k(),
            ckpt.time() + 1,
            ckpt.f(),
            ckpt.merge().to_vec(),
            ckpt.states().to_vec(),
        );
        store.record(&quiet).unwrap();
        assert_eq!(store.stats().identity_links, 3, "all shards quiet");
        assert_eq!(store.materialize(quiet.time()).unwrap(), quiet);
    }

    #[test]
    fn mismatched_records_and_unknown_boundaries_are_typed() {
        let mut engine = engine();
        engine.run(&stream(512, 4)).unwrap();
        let ckpt = engine.checkpoint().unwrap();
        let mut store = CheckpointStore::new(0);
        store.record(&ckpt).unwrap();
        // Same time again: not monotone.
        assert!(matches!(
            store.record(&ckpt).unwrap_err(),
            EngineError::CheckpointMismatch {
                what: "monotone boundary time",
                ..
            }
        ));
        // A different engine shape is rejected.
        let spec = TrackerSpec::new(TrackerKind::Deterministic).k(4).eps(0.1);
        let mut other = ShardedEngine::counters(spec, EngineConfig::new(5, 256).eps(0.1)).unwrap();
        other
            .run(&(1..=1024).map(|t| Update::new(t, 0, 1)).collect::<Vec<_>>())
            .unwrap();
        assert!(matches!(
            store.record(&other.checkpoint().unwrap()).unwrap_err(),
            EngineError::CheckpointMismatch {
                what: "logical shard count",
                ..
            }
        ));
        assert!(matches!(
            store.materialize(99_999).unwrap_err(),
            EngineError::UnknownBoundary { time: 99_999 }
        ));
        assert!(matches!(
            CheckpointStore::new(0).materialize_latest().unwrap_err(),
            EngineError::UnknownBoundary { time: 0 }
        ));
    }

    #[test]
    fn store_wire_form_round_trips() {
        let mut engine = engine();
        let updates = stream(3 * 1024, 4);
        let mut store = CheckpointStore::new(3);
        for chunk in updates.chunks(1024) {
            engine.run(chunk).unwrap();
            store.record(&engine.checkpoint().unwrap()).unwrap();
        }
        let bytes = store.to_bytes();
        let back = CheckpointStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.boundaries(), store.boundaries());
        assert_eq!(back.rebase, 3);
        for time in store.boundaries() {
            assert_eq!(
                back.materialize(time).unwrap(),
                store.materialize(time).unwrap()
            );
        }
        // A decoded store keeps recording coherently.
        let mut resumed = back;
        engine.run(&stream(1024, 4)).unwrap();
        resumed.record(&engine.checkpoint().unwrap()).unwrap();
        assert_eq!(resumed.len(), 4);
        resumed.materialize_latest().unwrap();

        // Empty stores round-trip too.
        let empty = CheckpointStore::new(0);
        let back = CheckpointStore::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}

//! The fleet's checkpoint codec: the `DSVF` wire form of a
//! [`FleetCheckpoint`] (every key in full) and of a [`FleetDelta`] (a
//! checkpoint diffed against a parent one), both written and read here.
//! [`crate::fleet::TrackerFleet`] takes and resumes from them.
//!
//! A checkpoint is held the way the fleet's slab holds it: per shard,
//! one table of slot scalars and one arena with every slot's state
//! packed in slot order. Taking, comparing, encoding and rebuilding one
//! therefore moves whole slices and allocates nothing per key.

use dsv_core::api::TrackerKind;
use dsv_core::codec::{kind_from_tag, kind_tag, CodecError, Dec, Enc};
use dsv_net::{CommStats, Fingerprint, StateDelta, Time};

use crate::config::EngineError;

/// Magic bytes opening a serialized [`FleetCheckpoint`].
pub const FLEET_MAGIC: [u8; 4] = *b"DSVF";

/// Current fleet-checkpoint format version. Bump on **any** layout
/// change (and see `MIGRATION.md`); nested tracker payloads carry their
/// own `DSVT` version independently. A shard-table variant tag follows
/// the version: `TABLE_FULL` for the full table, `TABLE_DELTA` for a
/// parent-anchored [`FleetDelta`] table. Decoders read exactly this
/// version (`MIGRATION.md`, format policy). Slot spans hold **bare**
/// tracker payloads, so this moves with
/// `dsv_core::codec::STATE_VERSION`: version 5 is state version 2, with
/// a delta's parent pinned by [`dsv_net::fingerprint`] and each changed
/// slot's [`StateDelta`] nested bare.
pub const FLEET_VERSION: u16 = 5;

/// `DSVF` shard-table variant: every slot record in full.
const TABLE_FULL: u8 = 1;

/// `DSVF` shard-table variant: delta-chain table — slot ops diffed
/// against a parent checkpoint, decoded by [`FleetDelta::from_bytes`].
const TABLE_DELTA: u8 = 2;

/// Open a `DSVF` payload that must hold table variant `want`: the magic,
/// exactly [`FLEET_VERSION`], then the variant tag. The other known
/// variant is refused as `wrong_variant`.
fn open_table<'a>(
    bytes: &'a [u8],
    want: u8,
    wrong_variant: &'static str,
) -> Result<Dec<'a>, CodecError> {
    let mut dec = Dec::new(bytes);
    dec.magic(FLEET_MAGIC, FLEET_VERSION)?;
    match dec.u8()? {
        tag if tag == want => Ok(dec),
        TABLE_FULL | TABLE_DELTA => Err(CodecError::BadValue {
            what: wrong_variant,
        }),
        tag => Err(CodecError::BadTag {
            what: "fleet table variant",
            tag: tag as u64,
        }),
    }
}

/// Wire bytes of a slot record before its state: five scalars and the
/// state blob's length prefix.
const ROW_BYTES: usize = 48;

/// One slot's checkpointed scalars: identity, audited scalars, and the
/// length of its state payload, which is the slot's span of its shard
/// table's arena (kind and site count live once in the header).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SlotRow {
    pub(crate) key: u64,
    pub(crate) f: i64,
    pub(crate) updates: u64,
    pub(crate) violations: u64,
    pub(crate) estimate: i64,
    pub(crate) len: usize,
}

impl SlotRow {
    /// The scalars in wire order.
    fn scalars(&self) -> [u64; 5] {
        [
            self.key,
            self.f as u64,
            self.updates,
            self.violations,
            self.estimate as u64,
        ]
    }

    /// The record's wire bytes up to its state: the scalars, then the
    /// state blob's length prefix.
    fn wire_head(&self) -> [u8; ROW_BYTES] {
        let mut out = [0; ROW_BYTES];
        let words = self.scalars().into_iter().chain([self.len as u64]);
        for (slot, word) in out.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Write the whole record: the scalars, then `state` as a blob.
    fn encode(&self, enc: &mut Enc, state: &[u8]) {
        for word in self.scalars() {
            enc.u64(word);
        }
        enc.blob(state);
    }

    /// Read one record: the row, and its state bytes in place.
    fn decode<'a>(dec: &mut Dec<'a>) -> Result<(Self, &'a [u8]), CodecError> {
        let key = dec.u64()?;
        let f = dec.i64()?;
        let updates = dec.u64()?;
        let violations = dec.u64()?;
        let estimate = dec.i64()?;
        let state = dec.blob()?;
        if state.is_empty() {
            return Err(CodecError::BadValue {
                what: "fleet slot state",
            });
        }
        let row = SlotRow {
            key,
            f,
            updates,
            violations,
            estimate,
            len: state.len(),
        };
        Ok((row, state))
    }
}

/// One shard's slots, flat: a row per slot in slot order, and their
/// states packed into one arena in the same order, without gaps. The
/// layout is canonical, so equal tables are equal wire bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ShardTable {
    pub(crate) rows: Vec<SlotRow>,
    pub(crate) arena: Vec<u8>,
}

impl ShardTable {
    /// Bytes of this table on the wire: its slot count and records.
    fn wire_len(&self) -> usize {
        8 + self.rows.len() * ROW_BYTES + self.arena.len()
    }

    /// Every slot with its state bytes, in slot order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (&SlotRow, &[u8])> {
        let mut off = 0;
        self.rows.iter().map(move |row| {
            off += row.len;
            (row, &self.arena[off - row.len..off])
        })
    }

    /// Hand the table's wire form to `piece`, in order: the slot count,
    /// then each record's head and its state bytes.
    fn pieces(&self, piece: &mut impl FnMut(&[u8])) {
        piece(&(self.rows.len() as u64).to_le_bytes());
        for (row, state) in self.slots() {
            piece(&row.wire_head());
            piece(state);
        }
    }

    /// [`slots`](Self::slots), folding the table's wire form into `pin`
    /// as they are visited, so a caller that reads every slot anyway
    /// pins the table in the same pass.
    fn pinned_slots<'a>(
        &'a self,
        pin: &'a mut Fingerprint,
    ) -> impl Iterator<Item = (&'a SlotRow, &'a [u8])> {
        pin.update(&(self.rows.len() as u64).to_le_bytes());
        self.slots().inspect(move |(row, state)| {
            pin.update(&row.wire_head());
            pin.update(state);
        })
    }
}

/// What every `DSVF` table says about the fleet before its shard table:
/// the build's identity, the fleet scalars, and the aggregate ledger.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FleetHeader {
    pub(crate) kind: TrackerKind,
    pub(crate) k: usize,
    pub(crate) time: Time,
    pub(crate) f: i64,
    pub(crate) boundaries: u64,
    pub(crate) key_violations: u64,
    pub(crate) agg_violations: u64,
    pub(crate) max_err: f64,
    pub(crate) tracker_stats: CommStats,
}

impl FleetHeader {
    /// Encode the header and the length of the shard table it precedes.
    fn encode(&self, enc: &mut Enc, n_shards: usize) {
        enc.u8(kind_tag(self.kind));
        enc.usize(self.k);
        enc.u64(self.time);
        enc.i64(self.f);
        enc.u64(self.boundaries);
        enc.u64(self.key_violations);
        enc.u64(self.agg_violations);
        enc.f64(self.max_err);
        self.tracker_stats.encode(enc);
        enc.seq_len(n_shards);
    }

    /// Decode and validate the header, and the (non-zero) length of the
    /// shard table that follows it.
    fn decode(dec: &mut Dec<'_>) -> Result<(Self, usize), CodecError> {
        let tag = dec.u8()?;
        let kind = kind_from_tag(tag).ok_or(CodecError::BadTag {
            what: "fleet tracker kind",
            tag: tag as u64,
        })?;
        let k = dec.usize()?;
        if k == 0 {
            return Err(CodecError::BadValue {
                what: "fleet site count",
            });
        }
        let time = dec.u64()?;
        let f = dec.i64()?;
        let boundaries = dec.u64()?;
        let key_violations = dec.u64()?;
        let agg_violations = dec.u64()?;
        let max_err = dec.f64()?;
        if max_err.is_nan() || max_err < 0.0 {
            return Err(CodecError::BadValue {
                what: "fleet max relative error",
            });
        }
        let tracker_stats = CommStats::decode(dec)?;
        let n_shards = dec.seq_len("fleet shards", 8)?;
        if n_shards == 0 {
            return Err(CodecError::BadValue {
                what: "fleet shard count",
            });
        }
        let head = FleetHeader {
            kind,
            k,
            time,
            f,
            boundaries,
            key_violations,
            agg_violations,
            max_err,
            tracker_stats,
        };
        Ok((head, n_shards))
    }
}

/// Every applied update belongs to exactly one key, so the per-key
/// counts must re-sum to the fleet clock.
fn check_update_total(head: &FleetHeader, tables: &[ShardTable]) -> Result<(), CodecError> {
    let total = tables
        .iter()
        .flat_map(|table| &table.rows)
        .fold(0u64, |sum, row| sum.saturating_add(row.updates));
    if total != head.time {
        return Err(CodecError::Mismatch {
            what: "fleet per-key update total vs time",
            expected: head.time,
            found: total,
        });
    }
    Ok(())
}

/// A versioned snapshot of a whole fleet (`b"DSVF"`, currently
/// [`FLEET_VERSION`]): fleet scalars, the aggregate ledger, and one
/// compact record per key, held per shard as a flat table of slot
/// scalars beside one arena of states. Taking one cuts a batch boundary
/// first (staged updates are applied, so a checkpoint is always a
/// boundary state).
///
/// The wire form is produced by [`to_bytes`](Self::to_bytes) and read by
/// [`from_bytes`](Self::from_bytes); truncated, corrupted, version-skewed
/// or internally inconsistent payloads decode to typed [`CodecError`]s,
/// never panics (held by `tests/codec_robustness.rs`). Checkpoint bytes
/// are bit-identical across worker counts *and* cache capacities, and
/// two checkpoints are `==` exactly when their bytes are.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    pub(crate) head: FleetHeader,
    pub(crate) shards: Vec<ShardTable>,
    /// The fleet that took this checkpoint, in memory only: what lets
    /// [`TrackerFleet::checkpoint_delta`](crate::fleet::TrackerFleet::checkpoint_delta)
    /// trust it as an ancestor. 0 (a decoded checkpoint) is never
    /// trusted, and it takes no part in `==`.
    pub(crate) lineage: u64,
}

impl PartialEq for FleetCheckpoint {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.shards == other.shards
    }
}

impl FleetCheckpoint {
    /// The checkpointed tracker kind.
    pub fn kind(&self) -> TrackerKind {
        self.head.kind
    }

    /// Sites per keyed tracker.
    pub fn k(&self) -> usize {
        self.head.k
    }

    /// Logical shard count (must match the resuming config).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Live keys captured.
    pub fn keys(&self) -> usize {
        self.shards.iter().map(|table| table.rows.len()).sum()
    }

    /// Updates applied when the checkpoint was cut.
    pub fn time(&self) -> Time {
        self.head.time
    }

    /// Fleet-wide ground truth at the checkpoint.
    pub fn f(&self) -> i64 {
        self.head.f
    }

    /// The wire form up to the shard tables: envelope and header.
    fn head_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(FLEET_MAGIC, FLEET_VERSION);
        enc.u8(TABLE_FULL);
        self.head.encode(&mut enc, self.shards.len());
        enc.into_bytes()
    }

    /// Serialize to the versioned wire form (full shard table).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.head_bytes();
        out.reserve_exact(self.shards.iter().map(ShardTable::wire_len).sum());
        for table in &self.shards {
            table.pieces(&mut |bytes| out.extend_from_slice(bytes));
        }
        out
    }

    /// The [`Fingerprint`] of [`to_bytes`](Self::to_bytes), fed straight
    /// from the tables: the image is never built.
    pub(crate) fn wire_fingerprint(&self) -> u64 {
        let mut fold = Fingerprint::new();
        fold.update(&self.head_bytes());
        for table in &self.shards {
            table.pieces(&mut |bytes| fold.update(bytes));
        }
        fold.finish()
    }

    /// Decode the versioned wire form, requiring exact consumption and
    /// internal consistency (shard and state shapes, update accounting).
    /// A delta table is a typed error directing the caller to
    /// [`FleetDelta::from_bytes`], since it cannot stand alone.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = open_table(
            bytes,
            TABLE_FULL,
            "fleet table variant (delta tables decode with FleetDelta)",
        )?;
        let (head, n_shards) = FleetHeader::decode(&mut dec)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let n_slots = dec.seq_len("fleet slots", ROW_BYTES)?;
            // Read the rows first, so the arena is sized once, exactly;
            // then copy each state out of the records just read.
            let start = bytes.len() - dec.remaining();
            let mut rows = Vec::with_capacity(n_slots);
            for _ in 0..n_slots {
                rows.push(SlotRow::decode(&mut dec)?.0);
            }
            let end = bytes.len() - dec.remaining();
            let mut arena = Vec::with_capacity(end - start - n_slots * ROW_BYTES);
            let mut at = start;
            for row in &rows {
                at += ROW_BYTES;
                arena.extend_from_slice(&bytes[at..at + row.len]);
                at += row.len;
            }
            shards.push(ShardTable { rows, arena });
        }
        dec.finish()?;
        check_update_total(&head, &shards)?;
        Ok(FleetCheckpoint {
            head,
            shards,
            lineage: 0,
        })
    }
}

/// An aligned slot that changed since the parent: its fresh scalars and
/// a [`StateDelta`] over its state bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlotDelta {
    /// Position in the shard's slot table.
    at: usize,
    f: i64,
    updates: u64,
    violations: u64,
    estimate: i64,
    state: StateDelta,
}

impl SlotDelta {
    /// Slot `at`, now `row` over `state`, diffed against its parent
    /// state `before`.
    pub(crate) fn new(at: usize, row: &SlotRow, before: &[u8], state: &[u8]) -> Self {
        SlotDelta {
            at,
            f: row.f,
            updates: row.updates,
            violations: row.violations,
            estimate: row.estimate,
            state: StateDelta::diff(before, state),
        }
    }
}

/// One shard of a [`FleetDelta`], positionally aligned against the
/// parent's table. Slots are append-only per shard, so a parent's rows
/// are always a key-prefix of its child's — the delta never needs to
/// carry reordering information.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeltaShard {
    /// The parent's slot count: the child's first `aligned` slots.
    pub(crate) aligned: usize,
    /// The aligned slots that changed, by ascending position; every
    /// other aligned slot is the parent's unchanged.
    pub(crate) changed: Vec<SlotDelta>,
    /// Keys appended since the parent, in full.
    pub(crate) appended: ShardTable,
}

impl DeltaShard {
    /// Bytes of this shard on the wire: its op count, a tag per slot,
    /// each changed slot's scalars and state delta, each appended record.
    fn wire_len(&self) -> usize {
        let changed: usize = self
            .changed
            .iter()
            .map(|op| 32 + op.state.encoded_len())
            .sum();
        self.aligned + changed + self.appended.rows.len() + self.appended.wire_len()
    }
}

/// A fleet checkpoint encoded as a diff against a **parent**
/// [`FleetCheckpoint`] — the `DSVF` delta-chain shard-table variant.
///
/// Build one with [`TrackerFleet::checkpoint_delta`](crate::fleet::TrackerFleet::checkpoint_delta) (or
/// [`FleetDelta::between`] two explicit checkpoints); reconstruct the
/// child, bit-identically, with [`apply`](Self::apply) against the same
/// parent. The parent is pinned by the [`dsv_net::fingerprint`] of its
/// full wire form, so applying against the wrong parent — or a tampered
/// one — is a typed [`CodecError::Mismatch`], never silent corruption.
/// Fleet slot slabs are append-only per shard, so the parent's records
/// are a positional prefix of the child's: unchanged slots cost one tag
/// byte, touched slots a section-aware [`StateDelta`], and only keys
/// that first applied an update since the parent ship in full.
#[derive(Debug, Clone)]
pub struct FleetDelta {
    pub(crate) parent_time: Time,
    pub(crate) parent_hash: u64,
    /// The child's header.
    pub(crate) head: FleetHeader,
    pub(crate) shards: Vec<DeltaShard>,
    /// The fleet whose checkpoint this delta rebuilds, stamped on what
    /// [`apply`](Self::apply) returns; in memory only, like
    /// [`FleetCheckpoint`]'s, and 0 unless a fleet built the delta.
    pub(crate) lineage: u64,
}

impl PartialEq for FleetDelta {
    fn eq(&self, other: &Self) -> bool {
        self.parent_time == other.parent_time
            && self.parent_hash == other.parent_hash
            && self.head == other.head
            && self.shards == other.shards
    }
}

impl FleetDelta {
    /// Diff `child` against `parent`. Both must come from the same fleet
    /// lineage: same kind, site count, and shard count, with the
    /// parent's slot table a positional key-prefix of the child's and
    /// the fleet clock advanced — anything else is a typed
    /// [`EngineError::CheckpointMismatch`].
    ///
    /// Every aligned slot's row and state are compared, so this is right
    /// for any pair of checkpoints. It is what
    /// [`TrackerFleet::checkpoint_delta`](crate::fleet::TrackerFleet::checkpoint_delta)
    /// runs for a parent the fleet cannot vouch for (a decoded one,
    /// another fleet's, or its origin's from after the resume point);
    /// against its own ancestors the fleet builds the same bytes from
    /// the keys it changed alone.
    pub fn between(parent: &FleetCheckpoint, child: &FleetCheckpoint) -> Result<Self, EngineError> {
        if child.head.kind != parent.head.kind {
            return Err(EngineError::CheckpointMismatch {
                what: "tracker kind tag",
                expected: kind_tag(parent.head.kind) as u64,
                found: kind_tag(child.head.kind) as u64,
            });
        }
        if child.head.k != parent.head.k {
            return Err(EngineError::CheckpointMismatch {
                what: "site count",
                expected: parent.head.k as u64,
                found: child.head.k as u64,
            });
        }
        if child.shards.len() != parent.shards.len() {
            return Err(EngineError::CheckpointMismatch {
                what: "logical shard count",
                expected: parent.shards.len() as u64,
                found: child.shards.len() as u64,
            });
        }
        if child.head.time < parent.head.time {
            return Err(EngineError::CheckpointMismatch {
                what: "monotone fleet clock",
                expected: parent.head.time,
                found: child.head.time,
            });
        }
        // The parent is pinned in the pass that compares it, so its
        // states are read from memory once.
        let mut pin = Fingerprint::new();
        pin.update(&parent.head_bytes());
        let mut shards = Vec::with_capacity(child.shards.len());
        for (pt, ct) in parent.shards.iter().zip(&child.shards) {
            let aligned = pt.rows.len();
            if ct.rows.len() < aligned {
                return Err(EngineError::CheckpointMismatch {
                    what: "fleet slot prefix length",
                    expected: aligned as u64,
                    found: ct.rows.len() as u64,
                });
            }
            let mut changed = Vec::new();
            let mut appended_at = 0;
            let pairs = pt.pinned_slots(&mut pin).zip(ct.slots());
            for (at, ((pr, ps), (cr, cs))) in pairs.enumerate() {
                if cr.key != pr.key {
                    return Err(EngineError::CheckpointMismatch {
                        what: "fleet slot key prefix",
                        expected: pr.key,
                        found: cr.key,
                    });
                }
                if cr != pr || cs != ps {
                    changed.push(SlotDelta::new(at, cr, ps, cs));
                }
                appended_at += cr.len;
            }
            shards.push(DeltaShard {
                aligned,
                changed,
                appended: ShardTable {
                    rows: ct.rows[aligned..].to_vec(),
                    arena: ct.arena[appended_at..].to_vec(),
                },
            });
        }
        Ok(FleetDelta {
            parent_time: parent.head.time,
            parent_hash: pin.finish(),
            head: child.head.clone(),
            shards,
            lineage: 0,
        })
    }

    /// Reconstruct the child checkpoint this delta was diffed from,
    /// bit-identical to the original. `parent` must be the exact
    /// checkpoint the delta was built against (pinned by fingerprint);
    /// a wrong or tampered parent, a cross-wired state delta, or a
    /// shape mismatch is a typed [`CodecError`]. The child of a delta a
    /// fleet built is that fleet's own state, so the fleet takes it back
    /// as an ancestor: a chain `prev = delta.apply(&prev)` stays on the
    /// dirty path.
    pub fn apply(&self, parent: &FleetCheckpoint) -> Result<FleetCheckpoint, CodecError> {
        let mut pin = Fingerprint::new();
        let child = self.rebuild(parent, &mut pin);
        // The parent is pinned in the pass that copies it. A wrong parent
        // is reported as one, whichever check it tripped first.
        let found = match child {
            Ok(_) => pin.finish(),
            Err(_) => parent.wire_fingerprint(),
        };
        if found != self.parent_hash {
            return Err(CodecError::Mismatch {
                what: "fleet delta parent fingerprint",
                expected: self.parent_hash,
                found,
            });
        }
        child
    }

    /// The child, rebuilt from `parent`'s tables, folding `parent`'s wire
    /// form into `pin` on the way: one arena per shard, sized exactly.
    fn rebuild(
        &self,
        parent: &FleetCheckpoint,
        pin: &mut Fingerprint,
    ) -> Result<FleetCheckpoint, CodecError> {
        if self.shards.len() != parent.shards.len() {
            return Err(CodecError::Mismatch {
                what: "fleet delta shard count",
                expected: parent.shards.len() as u64,
                found: self.shards.len() as u64,
            });
        }
        pin.update(&parent.head_bytes());
        let mut shards = Vec::with_capacity(self.shards.len());
        for (ds, pt) in self.shards.iter().zip(&parent.shards) {
            if ds.aligned != pt.rows.len() {
                return Err(CodecError::Mismatch {
                    what: "fleet delta aligned ops vs parent slots",
                    expected: pt.rows.len() as u64,
                    found: ds.aligned as u64,
                });
            }
            // The parent's arena, with every changed state resized to its
            // delta's result, then the appended states.
            let mut arena_len = pt.arena.len() + ds.appended.arena.len();
            for op in &ds.changed {
                arena_len = arena_len - pt.rows[op.at].len + op.state.new_len() as usize;
            }
            let mut rows = Vec::with_capacity(ds.aligned + ds.appended.rows.len());
            let mut arena = Vec::with_capacity(arena_len);
            let mut changed = ds.changed.iter().peekable();
            for (at, (row, state)) in pt.pinned_slots(pin).enumerate() {
                let Some(op) = changed.next_if(|op| op.at == at) else {
                    rows.push(*row);
                    arena.extend_from_slice(state);
                    continue;
                };
                let state = op.state.apply(state)?;
                rows.push(SlotRow {
                    key: row.key,
                    f: op.f,
                    updates: op.updates,
                    violations: op.violations,
                    estimate: op.estimate,
                    len: state.len(),
                });
                arena.extend_from_slice(&state);
            }
            rows.extend_from_slice(&ds.appended.rows);
            arena.extend_from_slice(&ds.appended.arena);
            shards.push(ShardTable { rows, arena });
        }
        check_update_total(&self.head, &shards)?;
        Ok(FleetCheckpoint {
            head: self.head.clone(),
            shards,
            lineage: self.lineage,
        })
    }

    /// Fleet clock of the parent this delta chains from.
    pub fn parent_time(&self) -> Time {
        self.parent_time
    }

    /// Fleet clock of the child this delta reconstructs.
    pub fn time(&self) -> Time {
        self.head.time
    }

    /// Serialize to the versioned wire form (`DSVF`, delta table): per
    /// shard, one op per child slot — tag 0 for an unchanged aligned
    /// slot, 1 and its scalars and state delta for a changed one, 2 and
    /// the full record for an appended key.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Size the output once: the shard tables exactly, the header (a
        // few hundred bytes) on top.
        let tables: usize = self.shards.iter().map(DeltaShard::wire_len).sum();
        let mut out = Vec::with_capacity(tables + 512);
        Enc::append_to(&mut out, |enc| {
            self.encode(enc);
            Ok(())
        })
        .expect("encoding a delta cannot fail");
        out
    }

    fn encode(&self, enc: &mut Enc) {
        enc.magic(FLEET_MAGIC, FLEET_VERSION);
        enc.u8(TABLE_DELTA);
        enc.u64(self.parent_time);
        enc.u64(self.parent_hash);
        self.head.encode(enc, self.shards.len());
        for ds in &self.shards {
            enc.seq_len(ds.aligned + ds.appended.rows.len());
            let mut at = 0;
            for op in &ds.changed {
                for _ in at..op.at {
                    enc.u8(0);
                }
                enc.u8(1);
                enc.i64(op.f);
                enc.u64(op.updates);
                enc.u64(op.violations);
                enc.i64(op.estimate);
                op.state.encode(enc);
                at = op.at + 1;
            }
            for _ in at..ds.aligned {
                enc.u8(0);
            }
            for (row, state) in ds.appended.slots() {
                enc.u8(2);
                row.encode(enc, state);
            }
        }
    }

    /// Decode the versioned wire form, requiring exact consumption, the
    /// delta table variant, and per-shard op order (full records only
    /// after the aligned prefix). Truncated, corrupted, or version-skewed
    /// payloads decode to typed [`CodecError`]s, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = open_table(
            bytes,
            TABLE_DELTA,
            "fleet table variant (full tables decode with FleetCheckpoint)",
        )?;
        let parent_time = dec.u64()?;
        let parent_hash = dec.u64()?;
        let (head, n_shards) = FleetHeader::decode(&mut dec)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let n_ops = dec.seq_len("fleet delta ops", 1)?;
            let mut ds = DeltaShard {
                aligned: 0,
                changed: Vec::new(),
                appended: ShardTable::default(),
            };
            for _ in 0..n_ops {
                let tag = dec.u8()?;
                match tag {
                    0 => {}
                    1 => ds.changed.push(SlotDelta {
                        at: ds.aligned,
                        f: dec.i64()?,
                        updates: dec.u64()?,
                        violations: dec.u64()?,
                        estimate: dec.i64()?,
                        state: StateDelta::decode(&mut dec)?,
                    }),
                    2 => {
                        let (row, state) = SlotRow::decode(&mut dec)?;
                        ds.appended.rows.push(row);
                        ds.appended.arena.extend_from_slice(state);
                    }
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "fleet delta slot op",
                            tag: tag as u64,
                        })
                    }
                }
                if tag != 2 {
                    if !ds.appended.rows.is_empty() {
                        return Err(CodecError::BadValue {
                            what: "fleet delta op order (aligned op after appended record)",
                        });
                    }
                    ds.aligned += 1;
                }
            }
            shards.push(ds);
        }
        dec.finish()?;
        Ok(FleetDelta {
            parent_time,
            parent_hash,
            head,
            shards,
            lineage: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::fleet::CounterFleet;
    use dsv_core::api::TrackerSpec;

    fn fleet() -> CounterFleet {
        let spec = TrackerSpec::new(TrackerKind::Deterministic).eps(0.1);
        CounterFleet::counters(spec, EngineConfig::new(4, 8).eps(0.1)).unwrap()
    }

    #[test]
    fn the_pin_is_the_same_at_every_split_point() {
        let mut fleet = fleet();
        for t in 0..120u64 {
            fleet.update(t % 7, 1 + (t as i64 % 3)).unwrap();
        }
        let checkpoint = fleet.checkpoint().unwrap();
        let img = checkpoint.to_bytes();
        // The pin fed from the tables is the fold of the built image.
        let whole = checkpoint.wire_fingerprint();
        assert_eq!(dsv_net::fingerprint(&img), whole);
        for cut in 0..=img.len() {
            let mut fold = Fingerprint::new();
            fold.update(&img[..cut]);
            fold.update(&img[cut..]);
            assert_eq!(fold.finish(), whole, "split at {cut}");
        }
    }

    #[test]
    fn the_empty_image_has_a_fixed_pin() {
        // Every recorded DSVF delta pins its parent with this fold, so
        // the fold cannot drift.
        assert_eq!(Fingerprint::new().finish(), 0x3463_0F3F_F819_1DA6);
    }

    #[test]
    fn every_flipped_parent_byte_is_a_fingerprint_mismatch() {
        let mut fleet = fleet();
        for t in 0..120u64 {
            fleet.update(t % 7, 1 + (t as i64 % 3)).unwrap();
        }
        let parent = fleet.checkpoint().unwrap();
        for t in 0..40u64 {
            fleet.update(t % 3, 2).unwrap();
            fleet.update(50 + t % 2, 1).unwrap();
        }
        let delta = fleet.checkpoint_delta(&parent).unwrap();
        let bytes = parent.to_bytes();
        let mut decoded = 0;
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xA5;
            let Ok(impostor) = FleetCheckpoint::from_bytes(&flipped) else {
                continue;
            };
            decoded += 1;
            assert!(
                matches!(
                    delta.apply(&impostor),
                    Err(CodecError::Mismatch {
                        what: "fleet delta parent fingerprint",
                        ..
                    })
                ),
                "a parent flipped at byte {i} was not refused by its pin"
            );
        }
        assert!(decoded * 2 > bytes.len(), "only {decoded} flips decoded");
    }

    /// A fleet two checkpointed generations on from its grandparent.
    fn two_generations_on() -> (CounterFleet, FleetCheckpoint) {
        let mut fleet = fleet();
        for t in 0..200u64 {
            fleet.update(t % 11, 1).unwrap();
        }
        let grandparent = fleet.checkpoint().unwrap();
        // Two boundaries with a checkpoint between them: keys touched
        // only before it, keys touched only after it, new keys in both.
        for t in 0..40u64 {
            fleet.update(t % 3, 2).unwrap();
            fleet.update(100 + t % 2, 1).unwrap();
        }
        let parent = fleet.checkpoint().unwrap();
        for t in 0..40u64 {
            fleet.update(5 + t % 3, -1).unwrap();
            fleet.update(200 + t % 2, 1).unwrap();
        }
        assert_ne!(parent, fleet.checkpoint().unwrap());
        (fleet, grandparent)
    }

    #[test]
    fn a_delta_against_an_older_ancestor_rebuilds_the_checkpoint() {
        let (mut fleet, grandparent) = two_generations_on();
        // The dirty walk, which must still see every key changed since.
        assert!(fleet.descends_from(&grandparent));
        let delta = fleet.checkpoint_delta(&grandparent).unwrap();
        let child = fleet.checkpoint().unwrap();
        assert_eq!(delta.parent_time(), grandparent.time());
        assert_eq!(
            delta.apply(&grandparent).unwrap().to_bytes(),
            child.to_bytes()
        );
    }

    #[test]
    fn a_delta_against_a_decoded_grandparent_takes_the_full_compare() {
        let (mut fleet, grandparent) = two_generations_on();
        let decoded = FleetCheckpoint::from_bytes(&grandparent.to_bytes()).unwrap();
        assert_eq!(decoded, grandparent);
        assert!(!fleet.descends_from(&decoded));
        let delta = fleet.checkpoint_delta(&decoded).unwrap();
        let child = fleet.checkpoint().unwrap();
        assert_eq!(
            delta.to_bytes(),
            fleet.checkpoint_delta(&grandparent).unwrap().to_bytes()
        );
        assert_eq!(delta.apply(&decoded).unwrap().to_bytes(), child.to_bytes());
    }
}

//! `TrackerFleet`: millions of independent keyed functions in one engine.
//!
//! The paper tracks a *single* distributed function `f(n)` to within
//! `ε`. Production monitoring traffic is a different shape: millions of
//! independent `(tenant, metric)` functions, each tiny, each wanting the
//! exact same per-function guarantee. A fleet serves that shape without
//! a million boxed trackers:
//!
//! * **Routing** — a key owns exactly one logical shard via the same
//!   Fibonacci item hash an item engine's routed
//!   [`run`](crate::ShardedEngine::run) uses (`hash(key) mod S`), so
//!   per-key state never moves and the per-key guarantee is a standalone
//!   tracker's guarantee verbatim. Routing depends only on the key and
//!   the shard count — never on workers — which is the rescaling
//!   invariant. At a boundary the touched shards are tasks that the
//!   workers claim from one queue, so a heavy shard holds back no other.
//! * **Slab storage** — per-key state lives as compact snapshot-payload
//!   records (the PR 4 state codec's `TrackerState` payload bytes) in a
//!   per-shard append-only arena, indexed by an open-addressed key
//!   table. A small per-shard cache of live trackers (clock-evicted,
//!   1024 a shard) absorbs updates; cold records rehydrate through one
//!   scratch [`TrackerState`] per shard, so the steady state allocates
//!   nothing per key. Freezing a tracker *snapshots* it, so any cache
//!   capacity ≥ 1 yields bit-identical estimates, ledgers, and
//!   checkpoint bytes.
//! * **Keyed batching** — updates stage as runs: a burst of updates to
//!   one key at one site is one run, a span of the shard's flat input
//!   buffer, and a key's runs chain in arrival order. A one-entry memo
//!   keeps the open run, so the rest of a burst is a push and a length
//!   bump. Runs apply at batch boundaries (every
//!   [`crate::EngineConfig::new`] `batch` updates), each run of a key's
//!   chain through one `update_run`, the seam the sharded engine feeds,
//!   straight from the buffer. Batch segmentation never changes
//!   results (`tests/batch_proptests.rs` holds that for every kind), so
//!   boundary-cut consistency survives keying.
//! * **Fleet queries** — [`estimate`](TrackerFleet::estimate),
//!   [`top_k`](TrackerFleet::top_k), per-key ε-audits
//!   ([`key_audit`](TrackerFleet::key_audit)), aggregate
//!   [`CommStats`]/memory accounting, and a versioned
//!   [`FleetCheckpoint`] (`b"DSVF"`) for checkpoint → resume → rescale
//!   that is bit-identical in estimates and ledgers.
//!
//! Every key is built from the **same** spec (same seeds included):
//! the fleet's contract is that key `x` behaves exactly like one
//! standalone tracker fed `x`'s substream, and `tests/fleet_equivalence.rs`
//! holds that bit-identically for all ten registry kinds.
//!
//! Estimates are *boundary* values, like the sharded engine's
//! coordinator estimate: queries between boundaries report the last cut,
//! and [`flush`](TrackerFleet::flush) forces one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsv_core::api::{BuildError, ItemTracker, RunError, Tracker, TrackerKind, TrackerSpec};
use dsv_core::codec::{kind_tag, TrackerState};
use dsv_net::{relative_error, CommStats, SiteId, Time};

use crate::config::{EngineConfig, EngineError};
use crate::fleet_codec::{DeltaShard, FleetHeader, ShardTable, SlotDelta, SlotRow};
pub use crate::fleet_codec::{FleetCheckpoint, FleetDelta, FLEET_MAGIC, FLEET_VERSION};
use crate::partition::{hash_item, InputDelta};
use crate::round::{fork_join, threads};

/// Live per-key trackers a shard keeps materialized; colder keys are
/// frozen back into its arena. Measured best on e18 and on the
/// benchmark's `fleet-churn` (a larger cache buys no rate and costs
/// memory; EXPERIMENTS.md E18).
const CACHE: usize = 1024;

/// Arena garbage a shard tolerates before it compacts, whatever its live
/// bytes, so a shard with few live keys does not recopy its arena every
/// few freezes.
const GC_FLOOR: usize = 64 * 1024;

/// Niche marker for "no slot / no cache entry / no staged successor".
const NONE_U32: u32 = u32::MAX;

/// Arena-length sentinel: this slot has no frozen bytes (brand new, or
/// its live tracker owns the state).
const FRESH: u32 = u32::MAX;

/// The next fleet's lineage: process-unique and never 0, which marks a
/// checkpoint no fleet in this process vouches for (a decoded one).
/// Taken with a `Relaxed` `fetch_add`: the value publishes no other data,
/// and the read-modify-write alone makes it unique.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// Open-addressed key → slot index (linear probing, power-of-two
/// capacity, load kept ≤ 1/2). `SipHash` through a std map is the wrong
/// tool at tens of millions of lookups per second; the probe hash is a
/// second Fibonacci-style multiply, deliberately decorrelated from the
/// key → shard routing hash so a shard's resident keys (which all agree
/// on `hash(key) mod S`) do not cluster into probe chains.
struct KeyIndex {
    keys: Vec<u64>,
    /// `slot + 1`; 0 marks an empty cell (keys may legitimately be 0).
    vals: Vec<u32>,
    len: usize,
}

impl KeyIndex {
    fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An index that takes `keys` inserts without growing: the table
    /// doubling would have reached, allocated once.
    fn with_capacity(keys: usize) -> Self {
        let cells = (keys * 2).next_power_of_two().max(16);
        KeyIndex {
            keys: vec![0; cells],
            vals: vec![0; cells],
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.vals.len() - 1
    }

    fn start(&self, key: u64) -> usize {
        (key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as usize & self.mask()
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.start(key);
        loop {
            let v = self.vals[i];
            if v == 0 {
                return None;
            }
            if self.keys[i] == key {
                return Some(v - 1);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 2 > self.vals.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.start(key);
        while self.vals[i] != 0 {
            debug_assert_ne!(self.keys[i], key, "duplicate fleet key insert");
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = slot + 1;
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = self.vals.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; cap]);
        for (key, v) in old_keys.into_iter().zip(old_vals) {
            if v == 0 {
                continue;
            }
            let mask = self.mask();
            let mut i = self.start(key);
            while self.vals[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.vals[i] = v;
        }
    }

    fn bytes(&self) -> usize {
        self.keys.len() * 8 + self.vals.len() * 4
    }
}

/// One keyed function's record: where its frozen state lives, whether a
/// live tracker currently owns it, its staged chain, and its audited
/// scalars. 64 bytes — the per-key footprint besides the state payload.
struct Slot {
    key: u64,
    /// Frozen state location in the shard arena (valid iff `len != FRESH`).
    off: usize,
    len: u32,
    /// Cache entry owning this slot's live tracker (`NONE_U32` if frozen).
    cached: u32,
    /// Staged-run chain (indices into the shard's `runs`).
    head: u32,
    tail: u32,
    /// Last boundary estimate `f̂(t)` for this key.
    estimate: i64,
    /// Ground truth `f(t)` for this key (the audit's reference).
    f: i64,
    updates: u64,
    violations: u64,
}

impl Slot {
    /// The slot's checkpoint row, its state `len` bytes long.
    fn row(&self, len: usize) -> SlotRow {
        SlotRow {
            key: self.key,
            f: self.f,
            updates: self.updates,
            violations: self.violations,
            estimate: self.estimate,
            len,
        }
    }
}

/// One staged burst: `len` consecutive updates of one key at one site,
/// `inputs[start..start + len]` in the shard's staging buffer, and a link
/// in its slot's arrival-order chain of runs.
#[derive(Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
    site: u32,
    next: u32,
}

impl Run {
    /// Where the run's inputs sit in the shard's staging buffer.
    fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A live tracker absorbing one slot's updates until evicted.
struct CacheEntry<T> {
    tracker: T,
    /// Owning slot (`NONE_U32` between freeze and reuse).
    slot: u32,
    /// Second-chance bit for the clock hand.
    hot: bool,
}

/// What one shard's boundary application reports back for reconciliation
/// (merged into fleet scalars in shard order, so worker placement never
/// shows in any ledger).
struct ApplyOut {
    f_delta: i64,
    est_delta: i64,
    updates: u64,
    violations: u64,
    max_err: f64,
    stats_delta: CommStats,
}

impl ApplyOut {
    fn new() -> Self {
        ApplyOut {
            f_delta: 0,
            est_delta: 0,
            updates: 0,
            violations: 0,
            max_err: 0.0,
            stats_delta: CommStats::new(),
        }
    }
}

/// One logical shard: the slab (index + slots + arena), the live-tracker
/// cache, and the staging area for the current batch.
struct ShardSlab<T, In> {
    index: KeyIndex,
    slots: Vec<Slot>,
    /// Frozen state payloads, append-only between compactions.
    arena: Vec<u8>,
    /// Bytes in `arena` no longer referenced by any slot.
    garbage: usize,
    cache: Vec<CacheEntry<T>>,
    /// Clock hand for second-chance eviction.
    clock: usize,
    /// Staged inputs in arrival order; each run owns a contiguous span.
    inputs: Vec<In>,
    runs: Vec<Run>,
    /// Slots with a non-empty staged chain, in first-touch order.
    touched: Vec<u32>,
    /// Scratch for rehydrating frozen payloads without allocating.
    scratch: TrackerState,
}

impl<T, In> ShardSlab<T, In>
where
    T: Tracker<In>,
    In: InputDelta,
{
    fn new(kind: TrackerKind, k: usize) -> Self {
        ShardSlab {
            index: KeyIndex::new(),
            slots: Vec::new(),
            arena: Vec::new(),
            garbage: 0,
            cache: Vec::new(),
            clock: 0,
            inputs: Vec::new(),
            runs: Vec::new(),
            touched: Vec::new(),
            scratch: TrackerState::new(kind, k, Vec::new()),
        }
    }

    /// The slot for `key`, creating an empty (fresh) one on first sight.
    fn slot_for(&mut self, key: u64) -> u32 {
        if let Some(sid) = self.index.get(key) {
            return sid;
        }
        let sid = self.slots.len() as u32;
        self.slots.push(Slot {
            key,
            off: 0,
            len: FRESH,
            cached: NONE_U32,
            head: NONE_U32,
            tail: NONE_U32,
            estimate: 0,
            f: 0,
            updates: 0,
            violations: 0,
        });
        self.index.insert(key, sid);
        sid
    }

    /// Stage `input` as a new run at the tail of slot `sid`'s chain;
    /// returns the run so the update's successors in the same burst can
    /// [`extend_run`](Self::extend_run) it.
    fn open_run(&mut self, sid: u32, site: u32, input: In) -> u32 {
        let run = self.runs.len() as u32;
        self.runs.push(Run {
            start: self.inputs.len() as u32,
            len: 1,
            site,
            next: NONE_U32,
        });
        self.inputs.push(input);
        let slot = &mut self.slots[sid as usize];
        if slot.head == NONE_U32 {
            slot.head = run;
            self.touched.push(sid);
        } else {
            self.runs[slot.tail as usize].next = run;
        }
        slot.tail = run;
        run
    }

    /// Stage `input` onto `run`, which must be the last run this shard
    /// opened and the last one any update went to: its span then ends
    /// where `inputs` does.
    #[inline]
    fn extend_run(&mut self, run: u32, input: In) {
        let run = &mut self.runs[run as usize];
        debug_assert_eq!(
            run.span().end,
            self.inputs.len(),
            "an extended run is the shard's open run"
        );
        run.len += 1;
        self.inputs.push(input);
    }

    /// Snapshot cache entry `ci`'s tracker onto the end of the arena
    /// (encoded in place: eviction allocates nothing), releasing the
    /// entry for reuse. The frozen bytes equal what a checkpoint would
    /// record, which is why eviction never shows in results.
    fn freeze(&mut self, ci: usize) -> Result<(), EngineError> {
        let owner = self.cache[ci].slot;
        if owner == NONE_U32 {
            return Ok(());
        }
        let off = self.arena.len();
        self.cache[ci]
            .tracker
            .snapshot_into(&mut self.arena)
            .map_err(EngineError::Codec)?;
        let slot = &mut self.slots[owner as usize];
        slot.off = off;
        slot.len = (self.arena.len() - off) as u32;
        slot.cached = NONE_U32;
        self.cache[ci].slot = NONE_U32;
        Ok(())
    }

    /// A live tracker for slot `sid`: the cached one if present, else a
    /// (possibly evicted) cache entry rehydrated from the slot's frozen
    /// bytes — or from the shared fresh prototype for a never-applied key.
    fn materialize(
        &mut self,
        sid: u32,
        factory: &dyn Fn() -> Result<T, BuildError>,
        proto: &TrackerState,
        cap: usize,
    ) -> Result<usize, EngineError> {
        if self.slots[sid as usize].cached != NONE_U32 {
            let ci = self.slots[sid as usize].cached as usize;
            self.cache[ci].hot = true;
            return Ok(ci);
        }
        let ci = if self.cache.len() < cap {
            let tracker = factory().map_err(EngineError::Build)?;
            self.cache.push(CacheEntry {
                tracker,
                slot: NONE_U32,
                hot: false,
            });
            self.cache.len() - 1
        } else {
            loop {
                if self.clock >= self.cache.len() {
                    self.clock = 0;
                }
                if self.cache[self.clock].hot {
                    self.cache[self.clock].hot = false;
                    self.clock += 1;
                } else {
                    break;
                }
            }
            let victim = self.clock;
            self.clock += 1;
            self.freeze(victim)?;
            victim
        };
        let slot = &mut self.slots[sid as usize];
        if slot.len == FRESH {
            self.cache[ci]
                .tracker
                .restore(proto)
                .map_err(EngineError::Codec)?;
        } else {
            self.scratch
                .set_payload(&self.arena[slot.off..slot.off + slot.len as usize]);
            self.cache[ci]
                .tracker
                .restore(&self.scratch)
                .map_err(EngineError::Codec)?;
            // The live tracker owns the state now; the frozen copy is
            // stale the moment an update lands.
            self.garbage += slot.len as usize;
            slot.len = FRESH;
        }
        slot.cached = ci as u32;
        self.cache[ci].slot = sid;
        self.cache[ci].hot = true;
        Ok(ci)
    }

    /// Apply every staged chain at a batch boundary: group-by-key is the
    /// chain itself, and each run goes through one `update_run`, the seam
    /// the sharded engine feeds, straight from the staged slice. How a
    /// key's updates split into runs never changes results (the
    /// `update_run` segmentation contract).
    fn apply(
        &mut self,
        eps: f64,
        factory: &dyn Fn() -> Result<T, BuildError>,
        proto: &TrackerState,
        proto_stats: &CommStats,
        cap: usize,
    ) -> Result<ApplyOut, EngineError> {
        let mut out = ApplyOut::new();
        let touched = std::mem::take(&mut self.touched);
        for &sid in &touched {
            // A key's first-ever application charges the build-time
            // traffic its standalone twin would have on the ledger.
            if self.slots[sid as usize].len == FRESH && self.slots[sid as usize].cached == NONE_U32
            {
                out.stats_delta.merge(proto_stats);
            }
            let ci = self.materialize(sid, factory, proto, cap)?;
            let entry = &mut self.cache[ci];
            let before = entry.tracker.stats().clone();
            let mut est = entry.tracker.estimate();
            let (mut delta, mut applied) = (0i64, 0u64);
            let mut cursor = self.slots[sid as usize].head;
            while cursor != NONE_U32 {
                let run = self.runs[cursor as usize];
                let inputs = &self.inputs[run.span()];
                delta += inputs.iter().map(|input| input.delta_of()).sum::<i64>();
                applied += inputs.len() as u64;
                est = entry.tracker.update_run(run.site as usize, inputs);
                cursor = run.next;
            }
            out.stats_delta.merge(&entry.tracker.stats().since(&before));
            let slot = &mut self.slots[sid as usize];
            slot.f += delta;
            slot.updates += applied;
            out.f_delta += delta;
            out.updates += applied;
            out.est_delta += est - slot.estimate;
            slot.estimate = est;
            slot.head = NONE_U32;
            slot.tail = NONE_U32;
            // Per-key ε-audit at the boundary, with the same float slack
            // as the engine's RunAudit.
            let err = relative_error(slot.f, est);
            if err > out.max_err {
                out.max_err = err;
            }
            if err > eps * (1.0 + 1e-12) {
                slot.violations += 1;
                out.violations += 1;
            }
        }
        self.inputs.clear();
        self.runs.clear();
        self.touched = touched;
        self.touched.clear();
        self.maybe_compact();
        Ok(out)
    }

    /// Reclaim arena garbage once it exceeds both the live bytes and
    /// [`GC_FLOOR`]: one ordered copy of every referenced payload,
    /// amortized O(1) per freeze.
    fn maybe_compact(&mut self) {
        let live = self.arena.len() - self.garbage;
        if self.garbage <= GC_FLOOR || self.garbage <= live {
            return;
        }
        let mut fresh = Vec::with_capacity(live);
        for slot in &mut self.slots {
            if slot.len == FRESH {
                continue;
            }
            let off = fresh.len();
            fresh.extend_from_slice(&self.arena[slot.off..slot.off + slot.len as usize]);
            slot.off = off;
        }
        self.arena = fresh;
        self.garbage = 0;
    }

    /// Append `slot`'s state to `out`: a cached tracker snapshots in
    /// place (without eviction), a frozen slot copies its arena span, a
    /// never-applied one the fresh prototype's. The bytes are therefore
    /// independent of cache capacity and worker count.
    fn state_into(
        &self,
        slot: &Slot,
        proto: &TrackerState,
        out: &mut Vec<u8>,
    ) -> Result<(), EngineError> {
        if slot.cached != NONE_U32 {
            self.cache[slot.cached as usize]
                .tracker
                .snapshot_into(out)
                .map_err(EngineError::Codec)
        } else if slot.len != FRESH {
            out.extend_from_slice(&self.arena[slot.off..slot.off + slot.len as usize]);
            Ok(())
        } else {
            out.extend_from_slice(proto.payload());
            Ok(())
        }
    }

    /// Snapshot the slots from position `from` on into a flat checkpoint
    /// table. The arena is reserved once: a cached state is sized as the
    /// fresh prototype's, whose shape a key's state keeps.
    fn table(&self, from: usize, proto: &TrackerState) -> Result<ShardTable, EngineError> {
        let slots = &self.slots[from..];
        let reserve = slots
            .iter()
            .map(|slot| match slot.len {
                FRESH => proto.payload().len(),
                len => len as usize,
            })
            .sum();
        let mut table = ShardTable {
            rows: Vec::with_capacity(slots.len()),
            arena: Vec::with_capacity(reserve),
        };
        for slot in slots {
            let off = table.arena.len();
            self.state_into(slot, proto, &mut table.arena)?;
            table.rows.push(slot.row(table.arena.len() - off));
        }
        table.arena.shrink_to_fit();
        Ok(table)
    }

    /// This shard as a [`DeltaShard`] against `parent`, the same shard in
    /// a checkpoint this fleet descends from. Slots only append, so the
    /// parent's rows are this shard's first slots; a slot changed since
    /// then iff it applied a run since then, and every run adds at least
    /// one update, so only slots whose update count moved are snapshotted
    /// and diffed. Slots past the parent's are copied whole.
    fn delta_against(
        &self,
        parent: &ShardTable,
        proto: &TrackerState,
    ) -> Result<DeltaShard, EngineError> {
        let mut changed = Vec::new();
        let mut state = Vec::new();
        for (at, ((row, before), slot)) in parent.slots().zip(&self.slots).enumerate() {
            debug_assert_eq!(row.key, slot.key, "an ancestor's slots are a key prefix");
            if slot.updates == row.updates {
                continue;
            }
            state.clear();
            self.state_into(slot, proto, &mut state)?;
            changed.push(SlotDelta::new(at, &slot.row(state.len()), before, &state));
        }
        Ok(DeltaShard {
            aligned: parent.rows.len(),
            changed,
            appended: self.table(parent.rows.len(), proto)?,
        })
    }

    fn memory_into(&self, mem: &mut FleetMemory) {
        mem.keys += self.slots.len() as u64;
        mem.arena_bytes += self.arena.len() as u64;
        mem.arena_garbage += self.garbage as u64;
        mem.slot_bytes += (self.slots.capacity() * std::mem::size_of::<Slot>()) as u64;
        mem.index_bytes += self.index.bytes() as u64;
        mem.cached_trackers += self.cache.len() as u64;
        mem.staged_inputs += self.inputs.len() as u64;
    }
}

/// A per-key audit line: the key's ground truth, boundary estimate, and
/// ε-violation history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyAudit {
    /// The audited key.
    pub key: u64,
    /// Ground truth `f(t)` of this key's substream.
    pub f: i64,
    /// The key's estimate as of the last batch boundary.
    pub estimate: i64,
    /// Updates this key has absorbed.
    pub updates: u64,
    /// Boundary audits where this key's relative error exceeded ε.
    pub violations: u64,
}

/// Fleet memory accounting, in bytes and object counts, summed over
/// shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMemory {
    /// Live keys (slots) across the fleet.
    pub keys: u64,
    /// Arena bytes holding frozen per-key state payloads.
    pub arena_bytes: u64,
    /// Arena bytes pending compaction.
    pub arena_garbage: u64,
    /// Bytes of per-key slot records (64 per key, capacity included).
    pub slot_bytes: u64,
    /// Bytes of the key → slot hash indexes.
    pub index_bytes: u64,
    /// Live (cached) trackers resident across all shards.
    pub cached_trackers: u64,
    /// Updates currently staged for the next boundary.
    pub staged_inputs: u64,
}

impl FleetMemory {
    /// Total accounted bytes (slabs only; cached trackers are opaque).
    pub fn total_bytes(&self) -> u64 {
        self.arena_bytes + self.slot_bytes + self.index_bytes
    }
}

/// What one fleet run did: scalars over the run's window, cumulative
/// ledgers, and throughput.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Updates applied by this run.
    pub n: u64,
    /// Batch boundaries cut by this run.
    pub boundaries: u64,
    /// Live keys in the fleet after the run.
    pub live_keys: u64,
    /// Logical shards.
    pub shards: usize,
    /// Worker threads used at boundaries.
    pub workers: usize,
    /// Batch size (updates per boundary).
    pub batch: usize,
    /// Fleet-wide ground truth Σ_key f_key after the run.
    pub final_f: i64,
    /// Fleet-wide Σ_key boundary estimates after the run.
    pub final_estimate: i64,
    /// Per-key boundary ε-violations during this run.
    pub key_violations: u64,
    /// Aggregate (Σf vs Σf̂) boundary ε-violations during this run.
    pub aggregate_violations: u64,
    /// Worst per-key boundary relative error over the fleet's lifetime.
    pub max_rel_err: f64,
    /// Cumulative in-protocol traffic, summed over every key's tracker.
    pub tracker_stats: CommStats,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
}

impl FleetReport {
    /// Updates per second of wall-clock time for this run.
    pub fn updates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.n as f64 / secs
        }
    }
}

/// The last staged update's routing and open run, so the rest of a burst
/// skips the shard hash, the index probe and the chain: a key's shard is
/// pure in `(key, S)` and slot ids are append-only, and the run stays
/// open until another update is staged anywhere or the batch flushes.
#[derive(Clone, Copy)]
struct Memo {
    key: u64,
    shard: u32,
    slot: u32,
    run: u32,
    site: u32,
}

/// Scalars snapshotted at run start so reports cover just the run.
struct Mark {
    time: Time,
    boundaries: u64,
    key_violations: u64,
    agg_violations: u64,
}

/// A multi-tenant fleet of keyed trackers: every key gets the exact
/// per-function behavior of a standalone tracker built from the same
/// spec, and the fleet serves updates, queries, audits, and checkpoints
/// over all of them at once. See the module docs for the slab/batching
/// design.
pub struct TrackerFleet<T, In: Copy> {
    cfg: EngineConfig,
    factory: Arc<dyn Fn() -> Result<T, BuildError> + Send + Sync>,
    /// Snapshot of a fresh tracker: the rehydration source for keys that
    /// have never applied an update.
    proto: Arc<TrackerState>,
    /// A fresh tracker's ledger, charged once per key on first apply.
    proto_stats: Arc<CommStats>,
    /// Everything a checkpoint says about the fleet as a whole, kept in
    /// the form the checkpoint writes: `time` counts updates applied (the
    /// fleet clock; staged updates not included), `f` is the fleet-wide
    /// ground truth Σ_key f_key.
    head: FleetHeader,
    /// This fleet's stamp on its checkpoints (from [`NEXT_LINEAGE`]).
    lineage: u64,
    /// The lineage and clock of the checkpoint this fleet resumed from
    /// (lineage 0 for a fleet built fresh).
    origin: (u64, Time),
    deletions_ok: bool,
    shards: Vec<ShardSlab<T, In>>,
    /// Fleet-wide Σ_key boundary estimates.
    agg_estimate: i64,
    staged_total: usize,
    /// The open run of the last staged update; cleared at every flush.
    memo: Option<Memo>,
    /// Live trackers a shard keeps: [`CACHE`], less where a unit test
    /// forces eviction.
    #[cfg(test)]
    cache: usize,
}

/// A fleet of counter trackers (`i64` deltas per key).
pub type CounterFleet = TrackerFleet<Box<dyn Tracker + Send>, i64>;

/// A fleet of item-frequency trackers (`(item, delta)` inputs per key).
pub type ItemFleet = TrackerFleet<Box<dyn ItemTracker + Send>, (u64, i64)>;

impl<T, In> TrackerFleet<T, In>
where
    T: Tracker<In> + Send,
    In: InputDelta + Send,
{
    /// Build a fleet whose keys each track with a tracker from `factory`.
    ///
    /// The factory is keyless on purpose: every key must behave exactly
    /// like the same standalone tracker (same spec, same seeds), which is
    /// the fleet's bit-identity contract. `cfg.shards` fixes the key →
    /// shard routing for the fleet's lifetime; `cfg.workers` is a pure
    /// execution knob.
    pub fn with_factory<F>(cfg: EngineConfig, factory: F) -> Result<Self, EngineError>
    where
        F: Fn() -> Result<T, BuildError> + Send + Sync + 'static,
    {
        cfg.validate()?;
        let factory: Arc<dyn Fn() -> Result<T, BuildError> + Send + Sync> = Arc::new(factory);
        let prototype = factory().map_err(EngineError::Build)?;
        let proto = Arc::new(prototype.snapshot().map_err(EngineError::Codec)?);
        let proto_stats = Arc::new(prototype.stats().clone());
        let kind = prototype.kind();
        let k = prototype.k();
        let shards = (0..cfg.shards_count())
            .map(|_| ShardSlab::new(kind, k))
            .collect();
        Ok(TrackerFleet {
            cfg,
            factory,
            proto,
            proto_stats,
            head: FleetHeader {
                kind,
                k,
                time: 0,
                f: 0,
                boundaries: 0,
                key_violations: 0,
                agg_violations: 0,
                max_err: 0.0,
                tracker_stats: CommStats::new(),
            },
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            origin: (0, 0),
            deletions_ok: kind.supports_deletions(),
            shards,
            agg_estimate: 0,
            staged_total: 0,
            memo: None,
            #[cfg(test)]
            cache: CACHE,
        })
    }

    /// Rebuild a fleet from a [`FleetCheckpoint`]: `factory` must
    /// reproduce the original build (same spec — kind, k, ε, seeds), and
    /// `cfg` must agree on the **logical** shard count. The worker count
    /// is free — resuming onto a different one is the rescaling seam, and
    /// is exact.
    pub fn with_factory_resume<F>(
        cfg: EngineConfig,
        ckpt: &FleetCheckpoint,
        factory: F,
    ) -> Result<Self, EngineError>
    where
        F: Fn() -> Result<T, BuildError> + Send + Sync + 'static,
    {
        if cfg.shards_count() != ckpt.shards() {
            return Err(EngineError::CheckpointMismatch {
                what: "logical shard count",
                expected: cfg.shards_count() as u64,
                found: ckpt.shards() as u64,
            });
        }
        let mut fleet = Self::with_factory(cfg, factory)?;
        if fleet.head.kind != ckpt.head.kind {
            return Err(EngineError::CheckpointMismatch {
                what: "tracker kind tag",
                expected: kind_tag(fleet.head.kind) as u64,
                found: kind_tag(ckpt.head.kind) as u64,
            });
        }
        if fleet.head.k != ckpt.head.k {
            return Err(EngineError::CheckpointMismatch {
                what: "site count",
                expected: fleet.head.k as u64,
                found: ckpt.head.k as u64,
            });
        }
        let n_shards = fleet.shards.len() as u64;
        for (s, table) in ckpt.shards.iter().enumerate() {
            // Size the slab once, from what the checkpoint holds, instead
            // of doubling slots and index while inserting; the arena is
            // the table's, copied whole.
            let shard = &mut fleet.shards[s];
            shard.slots.reserve(table.rows.len());
            shard.arena = table.arena.clone();
            shard.index = KeyIndex::with_capacity(table.rows.len());
            let mut off = 0;
            for row in &table.rows {
                let route = hash_item(row.key) % n_shards;
                if route != s as u64 {
                    return Err(EngineError::CheckpointMismatch {
                        what: "key → shard routing",
                        expected: s as u64,
                        found: route,
                    });
                }
                if shard.index.get(row.key).is_some() {
                    return Err(EngineError::CheckpointMismatch {
                        what: "unique fleet keys per shard",
                        expected: 1,
                        found: 2,
                    });
                }
                let sid = shard.slots.len() as u32;
                shard.slots.push(Slot {
                    key: row.key,
                    off,
                    len: row.len as u32,
                    cached: NONE_U32,
                    head: NONE_U32,
                    tail: NONE_U32,
                    estimate: row.estimate,
                    f: row.f,
                    updates: row.updates,
                    violations: row.violations,
                });
                off += row.len;
                shard.index.insert(row.key, sid);
                fleet.agg_estimate += row.estimate;
            }
        }
        fleet.head = ckpt.head.clone();
        fleet.origin = (ckpt.lineage, ckpt.head.time);
        Ok(fleet)
    }

    /// The fleet configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The tracker kind every key runs.
    pub fn kind(&self) -> TrackerKind {
        self.head.kind
    }

    /// Sites per keyed tracker.
    pub fn k(&self) -> usize {
        self.head.k
    }

    /// Updates applied (staged updates not yet included).
    pub fn time(&self) -> Time {
        self.head.time
    }

    /// Fleet-wide ground truth Σ_key f_key.
    pub fn f(&self) -> i64 {
        self.head.f
    }

    /// Fleet-wide Σ_key boundary estimates.
    pub fn aggregate_estimate(&self) -> i64 {
        self.agg_estimate
    }

    /// Live keys across the fleet.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// True before the first key is seen.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.slots.is_empty())
    }

    /// Batch boundaries cut so far.
    pub fn boundaries(&self) -> u64 {
        self.head.boundaries
    }

    /// Per-key boundary ε-violations so far.
    pub fn key_violations(&self) -> u64 {
        self.head.key_violations
    }

    /// Aggregate (Σf vs Σf̂) boundary ε-violations so far.
    pub fn aggregate_violations(&self) -> u64 {
        self.head.agg_violations
    }

    /// Worst per-key boundary relative error seen so far.
    pub fn max_rel_err(&self) -> f64 {
        self.head.max_err
    }

    /// Cumulative in-protocol traffic, summed over every key's tracker —
    /// exactly Σ_key of what each key's standalone twin would report.
    pub fn comm_stats(&self) -> &CommStats {
        &self.head.tracker_stats
    }

    /// The logical shard owning `key` — a pure function of the key and
    /// the shard count, stable across workers, rescaling, and resume.
    pub fn shard_of(&self, key: u64) -> usize {
        (hash_item(key) % self.shards.len() as u64) as usize
    }

    /// Memory accounting summed over shards.
    pub fn memory(&self) -> FleetMemory {
        let mut mem = FleetMemory::default();
        for shard in &self.shards {
            shard.memory_into(&mut mem);
        }
        mem
    }

    /// Stage one update for `key` at site 0 (single-site convenience).
    #[inline]
    pub fn update(&mut self, key: u64, input: In) -> Result<(), EngineError> {
        self.update_at(key, 0, input)
    }

    /// Stage one update for `key` arriving at `site`, cutting a batch
    /// boundary automatically once `cfg.batch` updates are staged.
    #[inline]
    pub fn update_at(&mut self, key: u64, site: SiteId, input: In) -> Result<(), EngineError> {
        if site >= self.head.k || (!self.deletions_ok && input.delta_of() < 0) {
            return Err(self.refusal(site));
        }
        match self.memo {
            Some(memo) if memo.key == key && memo.site == site as u32 => {
                self.shards[memo.shard as usize].extend_run(memo.run, input)
            }
            _ => self.stage_routed(key, site as u32, input),
        }
        self.staged_total += 1;
        if self.staged_total >= self.cfg.batch_size() {
            self.flush()?;
        }
        Ok(())
    }

    /// Why [`update_at`](Self::update_at) refuses an update at `site`: a
    /// site out of range, else a deletion the kind does not support.
    #[cold]
    #[inline(never)]
    fn refusal(&self, site: SiteId) -> EngineError {
        let time = self.head.time + self.staged_total as u64 + 1;
        if site >= self.head.k {
            RunError::SiteOutOfRange {
                site,
                k: self.head.k,
                time,
            }
        } else {
            RunError::DeletionUnsupported {
                kind: self.head.kind,
                time,
            }
        }
        .into()
    }

    /// Stage an update that opens a new run: route the key (the memo's
    /// routing when the key is the last one staged, at another site),
    /// create its slot on first sight, and remember the run.
    #[inline(never)]
    fn stage_routed(&mut self, key: u64, site: u32, input: In) {
        let (shard, slot) = match self.memo {
            Some(memo) if memo.key == key => (memo.shard, memo.slot),
            _ => {
                let s = self.shard_of(key);
                (s as u32, self.shards[s].slot_for(key))
            }
        };
        let run = self.shards[shard as usize].open_run(slot, site, input);
        self.memo = Some(Memo {
            key,
            shard,
            slot,
            run,
            site,
        });
    }

    /// Live trackers a shard keeps: [`CACHE`].
    fn cache(&self) -> usize {
        #[cfg(test)]
        return self.cache;
        #[cfg(not(test))]
        CACHE
    }

    /// This fleet with room for only `cache` live trackers a shard, so
    /// a unit test can force eviction with a few keys.
    #[cfg(test)]
    fn with_cache(mut self, cache: usize) -> Self {
        assert!(cache > 0, "a shard needs room for one live tracker");
        self.cache = cache;
        self
    }

    /// Cut a batch boundary now: apply every staged chain, audit every
    /// touched key (and the fleet aggregate) against ε, and advance the
    /// clock. A no-op when nothing is staged.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.staged_total == 0 {
            return Ok(());
        }
        // The open run's span ends with this batch.
        self.memo = None;
        let n = self.staged_total as u64;
        let eps = self.cfg.eps_value();
        let cap = self.cache();
        let factory = Arc::clone(&self.factory);
        let proto = Arc::clone(&self.proto);
        let proto_stats = Arc::clone(&self.proto_stats);
        // The touched shards are the tasks; their results come back in
        // shard order, so worker placement never shows in any scalar or
        // ledger.
        let touched = self
            .shards
            .iter_mut()
            .filter(|shard| !shard.touched.is_empty());
        let outs = fork_join(touched, threads(&self.cfg), |shard| {
            shard.apply(eps, &*factory, &proto, &proto_stats, cap)
        });
        for out in outs.into_iter().collect::<Result<Vec<_>, _>>()? {
            self.head.f += out.f_delta;
            self.agg_estimate += out.est_delta;
            self.head.key_violations += out.violations;
            if out.max_err > self.head.max_err {
                self.head.max_err = out.max_err;
            }
            self.head.tracker_stats.merge(&out.stats_delta);
        }
        self.head.time += n;
        self.staged_total = 0;
        self.head.boundaries += 1;
        // Aggregate ε-audit: the fleet-wide Σf̂ versus Σf. Each term is
        // ε-accurate, so the sum of one-signed truths is too; the audit
        // records when mixed-sign cancellation breaks that.
        if relative_error(self.head.f, self.agg_estimate) > eps * (1.0 + 1e-12) {
            self.head.agg_violations += 1;
        }
        Ok(())
    }

    /// The key's estimate as of the last batch boundary (`None` for a
    /// never-seen key; 0 for a key staged but not yet flushed).
    pub fn estimate(&self, key: u64) -> Option<i64> {
        let shard = &self.shards[self.shard_of(key)];
        shard
            .index
            .get(key)
            .map(|sid| shard.slots[sid as usize].estimate)
    }

    /// The key's full audit line (`None` for a never-seen key).
    pub fn key_audit(&self, key: u64) -> Option<KeyAudit> {
        let shard = &self.shards[self.shard_of(key)];
        shard.index.get(key).map(|sid| {
            let slot = &shard.slots[sid as usize];
            KeyAudit {
                key: slot.key,
                f: slot.f,
                estimate: slot.estimate,
                updates: slot.updates,
                violations: slot.violations,
            }
        })
    }

    /// The `k` keys with the largest boundary estimates, descending, ties
    /// broken toward the smaller key. One heap pass over the slots —
    /// `O(keys · log k)` at worst, no per-key tracker is touched; once
    /// the heap is full, a slot that does not beat its minimum costs one
    /// compare.
    pub fn top_k(&self, k: usize) -> Vec<(u64, i64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Reverse<(i64, Reverse<u64>)>> =
            BinaryHeap::with_capacity(k.min(self.len()));
        for shard in &self.shards {
            for slot in &shard.slots {
                let entry = (slot.estimate, Reverse(slot.key));
                if heap.len() < k {
                    heap.push(Reverse(entry));
                } else if let Some(mut least) = heap.peek_mut() {
                    // Keys are unique, so no entry ties the minimum.
                    if entry > least.0 {
                        *least = Reverse(entry);
                    }
                }
            }
        }
        let mut out: Vec<(u64, i64)> = heap
            .into_iter()
            .map(|Reverse((est, Reverse(key)))| (key, est))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Run a keyed stream synchronously: stage every `(key, input)` at
    /// site 0 in order, cut the final boundary, and report.
    pub fn run(&mut self, stream: &[(u64, In)]) -> Result<FleetReport, EngineError> {
        let started = Instant::now();
        let mark = self.mark();
        for &(key, input) in stream {
            self.update_at(key, 0, input)?;
        }
        self.flush()?;
        Ok(self.finish_report(mark, started))
    }

    /// Checkpoint the whole fleet. Cuts a boundary first (staged updates
    /// are applied — a checkpoint mid-batch is an early boundary), then
    /// serializes every key without disturbing the cache.
    pub fn checkpoint(&mut self) -> Result<FleetCheckpoint, EngineError> {
        self.flush()?;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            shards.push(shard.table(0, &self.proto)?);
        }
        Ok(FleetCheckpoint {
            head: self.head.clone(),
            shards,
            lineage: self.lineage,
        })
    }

    /// Checkpoint the whole fleet as a [`FleetDelta`] against `parent`
    /// (normally this fleet's previous checkpoint): cuts a boundary like
    /// [`checkpoint`](Self::checkpoint), then diffs the slot table so
    /// untouched keys cost one byte, touched keys a section-aware
    /// [`StateDelta`](dsv_net::StateDelta), and only newly applied keys ship in full.
    /// `delta.apply(&parent)` reconstructs the full checkpoint
    /// bit-identically.
    ///
    /// A `parent` this fleet descends from — one it took (or a clone of
    /// one, or one a delta it built rebuilt), or one taken by the fleet
    /// it resumed from no later than the checkpoint it resumed from — is
    /// diffed straight from the slab: only keys whose update count moved
    /// are snapshotted, and the parent is pinned beside the walk on a
    /// worker of its own. Any other parent (a decoded one included) is
    /// diffed in full by [`FleetDelta::between`] against a fresh
    /// [`checkpoint`](Self::checkpoint). The delta is the same either way.
    pub fn checkpoint_delta(
        &mut self,
        parent: &FleetCheckpoint,
    ) -> Result<FleetDelta, EngineError> {
        self.flush()?;
        if self.descends_from(parent) {
            return self.dirty_delta(parent);
        }
        let child = self.checkpoint()?;
        Ok(FleetDelta {
            lineage: self.lineage,
            ..FleetDelta::between(parent, &child)?
        })
    }

    /// True when `parent` is a state this fleet passed through: a fleet's
    /// clock only moves when a boundary applies updates, so a lineage and
    /// a clock name one state, and a resumed fleet passed through its
    /// origin's states up to the one it resumed from.
    pub(crate) fn descends_from(&self, parent: &FleetCheckpoint) -> bool {
        let (origin, resumed_at) = self.origin;
        parent.lineage != 0
            && (parent.lineage == self.lineage
                || (parent.lineage == origin && parent.head.time <= resumed_at))
    }

    /// [`checkpoint_delta`](Self::checkpoint_delta) against an ancestor,
    /// at a boundary: pinning the parent is the first task and walking
    /// each shard (`iter_mut`, as the trackers are `Send` but not `Sync`)
    /// one more, all claimed by the fleet's workers.
    fn dirty_delta(&mut self, parent: &FleetCheckpoint) -> Result<FleetDelta, EngineError> {
        enum Done {
            Pin(u64),
            Walked(DeltaShard),
        }
        let proto = &*self.proto;
        let tasks = std::iter::once(None).chain(self.shards.iter_mut().enumerate().map(Some));
        let done = fork_join(tasks, threads(&self.cfg), |task| match task {
            None => Ok(Done::Pin(parent.wire_fingerprint())),
            Some((s, shard)) => shard
                .delta_against(&parent.shards[s], proto)
                .map(Done::Walked),
        });
        let mut pin = 0;
        let mut shards = Vec::with_capacity(parent.shards.len());
        for task in done {
            match task? {
                Done::Pin(hash) => pin = hash,
                Done::Walked(shard) => shards.push(shard),
            }
        }
        Ok(FleetDelta {
            parent_time: parent.head.time,
            parent_hash: pin,
            head: self.head.clone(),
            shards,
            lineage: self.lineage,
        })
    }

    fn mark(&self) -> Mark {
        Mark {
            time: self.head.time,
            boundaries: self.head.boundaries,
            key_violations: self.head.key_violations,
            agg_violations: self.head.agg_violations,
        }
    }

    fn finish_report(&self, mark: Mark, started: Instant) -> FleetReport {
        FleetReport {
            n: self.head.time - mark.time,
            boundaries: self.head.boundaries - mark.boundaries,
            live_keys: self.len() as u64,
            shards: self.cfg.shards_count(),
            workers: threads(&self.cfg),
            batch: self.cfg.batch_size(),
            final_f: self.head.f,
            final_estimate: self.agg_estimate,
            key_violations: self.head.key_violations - mark.key_violations,
            aggregate_violations: self.head.agg_violations - mark.agg_violations,
            max_rel_err: self.head.max_err,
            tracker_stats: self.head.tracker_stats.clone(),
            elapsed: started.elapsed(),
        }
    }
}

impl CounterFleet {
    /// A fleet of counter trackers, every key built from `spec`.
    pub fn counters(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, move || spec.build())
    }

    /// Resume a counter fleet from a checkpoint taken under `spec`.
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &FleetCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, move || spec.build())
    }
}

impl ItemFleet {
    /// A fleet of item-frequency trackers, every key built from `spec`.
    pub fn items(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, move || spec.build_item())
    }

    /// Resume an item fleet from a checkpoint taken under `spec`.
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &FleetCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, move || spec.build_item())
    }
}

impl<T> TrackerFleet<T, (u64, i64)>
where
    T: ItemTracker + Send,
{
    /// The key's per-item frequency estimate as of the last boundary.
    /// Materializes the key's tracker (possibly evicting another), which
    /// is why this takes `&mut self`; results are unaffected.
    pub fn estimate_item(&mut self, key: u64, item: u64) -> Result<i64, EngineError> {
        let cap = self.cache();
        let s = self.shard_of(key);
        let factory = Arc::clone(&self.factory);
        let proto = Arc::clone(&self.proto);
        let shard = &mut self.shards[s];
        let Some(sid) = shard.index.get(key) else {
            return Err(EngineError::UnknownKey { key });
        };
        let ci = shard.materialize(sid, &*factory, proto.as_ref(), cap)?;
        Ok(shard.cache[ci].tracker.estimate_item(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::codec::CodecError;

    fn spec() -> TrackerSpec {
        TrackerSpec::new(TrackerKind::Deterministic).eps(0.1)
    }

    fn cfg() -> EngineConfig {
        EngineConfig::new(4, 8).eps(0.1)
    }

    #[test]
    fn a_fleet_trusts_exactly_the_states_it_passed_through() {
        let play = |fleet: &mut CounterFleet, delta: i64| {
            for t in 0..64u64 {
                fleet.update(t % 13, delta).unwrap();
            }
        };
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        play(&mut fleet, 1);
        let first = fleet.checkpoint().unwrap();
        play(&mut fleet, 1);
        let mine = fleet.checkpoint().unwrap();
        let link = fleet
            .checkpoint_delta(&first)
            .unwrap()
            .apply(&first)
            .unwrap();
        assert_eq!(link, mine);
        for trusted in [&first, &mine, &mine.clone(), &link] {
            assert!(fleet.descends_from(trusted));
        }
        let decoded = FleetCheckpoint::from_bytes(&mine.to_bytes()).unwrap();
        let unstamped = FleetDelta::between(&first, &mine)
            .unwrap()
            .apply(&first)
            .unwrap();
        let mut twin = CounterFleet::counters(spec(), cfg()).unwrap();
        play(&mut twin, 1);
        let theirs = twin.checkpoint().unwrap();
        for untrusted in [&decoded, &unstamped, &theirs] {
            assert!(!fleet.descends_from(untrusted));
        }
        // A delta the fleet built against a parent it does not trust
        // still rebuilds one of its own states.
        let rebuilt = fleet
            .checkpoint_delta(&decoded)
            .unwrap()
            .apply(&decoded)
            .unwrap();
        assert!(fleet.descends_from(&rebuilt));

        // Resumed: its origin's states up to the resume point, and its own.
        let mut resumed = CounterFleet::resume(spec(), cfg(), &mine).unwrap();
        play(&mut fleet, 1);
        play(&mut resumed, 2);
        let later = fleet.checkpoint().unwrap();
        let own = resumed.checkpoint().unwrap();
        for trusted in [&first, &mine, &link, &own] {
            assert!(resumed.descends_from(trusted));
        }
        for untrusted in [&later, &decoded, &theirs] {
            assert!(!resumed.descends_from(untrusted));
        }
        assert!(!fleet.descends_from(&own));
        // Resumed from bytes: nothing before the resume point is trusted,
        // decoded or not.
        let from_bytes = CounterFleet::resume(spec(), cfg(), &decoded).unwrap();
        let decoded_first = FleetCheckpoint::from_bytes(&first.to_bytes()).unwrap();
        for untrusted in [&first, &decoded_first, &decoded] {
            assert!(!from_bytes.descends_from(untrusted));
        }
    }

    #[test]
    fn key_index_handles_growth_and_key_zero() {
        let mut idx = KeyIndex::new();
        for i in 0..1000u64 {
            idx.insert(i * 7, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(idx.get(i * 7), Some(i as u32), "key {}", i * 7);
        }
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.get(0), Some(0));
    }

    #[test]
    fn fleet_tracks_many_keys_with_per_key_truth() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for round in 0..10 {
            for key in 0..50u64 {
                fleet.update(key, 1 + (key as i64 % 3)).unwrap();
            }
            let _ = round;
        }
        fleet.flush().unwrap();
        assert_eq!(fleet.len(), 50);
        assert_eq!(fleet.time(), 500);
        for key in 0..50u64 {
            let audit = fleet.key_audit(key).unwrap();
            assert_eq!(audit.f, 10 * (1 + (key as i64 % 3)));
            assert_eq!(audit.updates, 10);
            assert_eq!(audit.violations, 0, "key {key} violated ε");
        }
        assert_eq!(
            fleet.f(),
            (0..50u64).map(|k| 10 * (1 + (k as i64 % 3))).sum::<i64>()
        );
        assert_eq!(fleet.key_violations(), 0);
        assert!(fleet.max_rel_err() <= 0.1 * (1.0 + 1e-12));
        assert_eq!(fleet.estimate(999), None);
        assert!(fleet.key_audit(999).is_none());
    }

    #[test]
    fn tiny_cache_matches_large_cache_bit_for_bit() {
        let run = |cache: usize| {
            let mut fleet = CounterFleet::counters(spec(), cfg())
                .unwrap()
                .with_cache(cache);
            let mut state = 0x9E37u64;
            for t in 0..600 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (state >> 33) % 37;
                fleet.update(key, 1 + (t % 4)).unwrap();
            }
            fleet.flush().unwrap();
            (
                (0..37u64).map(|k| fleet.estimate(k)).collect::<Vec<_>>(),
                fleet.comm_stats().clone(),
                fleet.checkpoint().unwrap().to_bytes(),
            )
        };
        let tiny = run(1);
        let large = run(1024);
        assert_eq!(tiny.0, large.0, "estimates differ across cache sizes");
        assert_eq!(tiny.1, large.1, "ledgers differ across cache sizes");
        assert_eq!(
            tiny.2, large.2,
            "checkpoint bytes differ across cache sizes"
        );
    }

    #[test]
    fn frozen_slots_hold_exactly_their_standalone_twins_payloads() {
        // A one-entry cache evicts on every touch of another key, so
        // nearly every slot is frozen bytes written by `freeze`.
        let keys = 41u64;
        let mut stream = Vec::new();
        let mut state = 0xF1EE7u64;
        for t in 0..900i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            stream.push(((state >> 33) % keys, 1 + (t % 3)));
        }
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap().with_cache(1);
        let mut roomy = CounterFleet::counters(spec(), cfg()).unwrap();
        for &(key, delta) in &stream {
            fleet.update(key, delta).unwrap();
            roomy.update(key, delta).unwrap();
        }
        fleet.flush().unwrap();
        let mut frozen = 0;
        for shard in &fleet.shards {
            assert!(shard.cache.len() <= 1);
            for slot in &shard.slots {
                if slot.len == FRESH {
                    assert_ne!(slot.cached, NONE_U32, "key {} has no state", slot.key);
                    continue;
                }
                let mut twin = spec().build().unwrap();
                for &(key, delta) in &stream {
                    if key == slot.key {
                        twin.step(0, delta);
                    }
                }
                assert_eq!(
                    &shard.arena[slot.off..slot.off + slot.len as usize],
                    twin.snapshot().unwrap().payload(),
                    "key {}",
                    slot.key
                );
                frozen += 1;
            }
        }
        assert!(frozen as u64 >= keys - 4, "only {frozen} frozen slots");
        assert_eq!(
            fleet.checkpoint().unwrap().to_bytes(),
            roomy.checkpoint().unwrap().to_bytes()
        );
    }

    #[test]
    fn streamed_parent_fingerprint_equals_the_hash_of_the_image() {
        let check = |ckpt: &FleetCheckpoint| {
            assert_eq!(
                ckpt.wire_fingerprint(),
                dsv_net::fingerprint(&ckpt.to_bytes())
            );
        };
        // No key at all; then keys in one shard only (the rest empty).
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        check(&fleet.checkpoint().unwrap());
        let home = fleet.shard_of(1);
        for key in 1..200u64 {
            if fleet.shard_of(key) == home {
                fleet.update(key, 2).unwrap();
            }
        }
        let parent = fleet.checkpoint().unwrap();
        assert_eq!(
            parent.shards.iter().filter(|s| !s.rows.is_empty()).count(),
            1
        );
        check(&parent);
        // Every shard populated, and the image `apply` rebuilds.
        for t in 0..500u64 {
            fleet.update(t % 61, 1).unwrap();
        }
        let delta = fleet.checkpoint_delta(&parent).unwrap();
        assert_eq!(delta.parent_hash, dsv_net::fingerprint(&parent.to_bytes()));
        check(&delta.apply(&parent).unwrap());
    }

    #[test]
    fn worker_count_is_invisible_in_results() {
        let run = |workers: usize| {
            let mut fleet = CounterFleet::counters(spec(), cfg().workers(workers)).unwrap();
            for t in 0..400u64 {
                fleet.update(t % 23, 2).unwrap();
            }
            fleet.flush().unwrap();
            fleet.checkpoint().unwrap().to_bytes()
        };
        assert_eq!(run(1), run(3));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn rescale_mid_stream_is_exact() {
        // Rescaling is resuming onto another worker count; the straight
        // fleet cuts the same early boundary with a flush.
        for workers in [1, 3] {
            let mut straight = CounterFleet::counters(spec(), cfg()).unwrap();
            let mut rescaled = CounterFleet::counters(spec(), cfg()).unwrap();
            for t in 0..150u64 {
                straight.update(t % 11, 1).unwrap();
                rescaled.update(t % 11, 1).unwrap();
                if t == 70 {
                    straight.flush().unwrap();
                    let ckpt = rescaled.checkpoint().unwrap();
                    rescaled = CounterFleet::resume(spec(), cfg().workers(workers), &ckpt).unwrap();
                }
            }
            straight.flush().unwrap();
            rescaled.flush().unwrap();
            assert_eq!(
                straight.checkpoint().unwrap().to_bytes(),
                rescaled.checkpoint().unwrap().to_bytes(),
                "W' = {workers}"
            );
        }
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for t in 0..300u64 {
            fleet.update(t % 17, 1 + (t as i64 % 2)).unwrap();
        }
        let ckpt = fleet.checkpoint().unwrap();
        let bytes = ckpt.to_bytes();
        let back = FleetCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.keys(), 17);

        let mut resumed = CounterFleet::resume(spec(), cfg().workers(4), &back).unwrap();
        assert_eq!(resumed.time(), fleet.time());
        assert_eq!(resumed.f(), fleet.f());
        for t in 300..500u64 {
            fleet.update(t % 17, 1 + (t as i64 % 2)).unwrap();
            resumed.update(t % 17, 1 + (t as i64 % 2)).unwrap();
        }
        fleet.flush().unwrap();
        resumed.flush().unwrap();
        for key in 0..17u64 {
            assert_eq!(resumed.estimate(key), fleet.estimate(key), "key {key}");
            assert_eq!(resumed.key_audit(key), fleet.key_audit(key), "key {key}");
        }
        assert_eq!(resumed.comm_stats(), fleet.comm_stats());
        assert_eq!(
            resumed.checkpoint().unwrap().to_bytes(),
            fleet.checkpoint().unwrap().to_bytes()
        );
    }

    #[test]
    fn resume_rejects_mismatched_shape() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        fleet.update(1, 1).unwrap();
        let ckpt = fleet.checkpoint().unwrap();
        assert!(matches!(
            CounterFleet::resume(spec(), EngineConfig::new(8, 8).eps(0.1), &ckpt),
            Err(EngineError::CheckpointMismatch {
                what: "logical shard count",
                ..
            })
        ));
        assert!(matches!(
            CounterFleet::resume(TrackerSpec::new(TrackerKind::Naive).eps(0.1), cfg(), &ckpt),
            Err(EngineError::CheckpointMismatch {
                what: "tracker kind tag",
                ..
            })
        ));
        assert!(matches!(
            CounterFleet::resume(
                TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1),
                cfg(),
                &ckpt
            ),
            Err(EngineError::CheckpointMismatch {
                what: "site count",
                ..
            })
        ));
    }

    #[test]
    fn top_k_orders_by_estimate_then_smaller_key() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for (key, n) in [(5u64, 30i64), (9, 30), (2, 50), (7, 10)] {
            for _ in 0..n {
                fleet.update(key, 1).unwrap();
            }
        }
        fleet.flush().unwrap();
        let top = fleet.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 5, "tie must break toward the smaller key");
        assert_eq!(top[2].0, 9);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
        assert_eq!(fleet.top_k(0), Vec::new());
        assert_eq!(fleet.top_k(10).len(), 4);

        // Many equal estimates: the early reject must keep the smaller
        // keys, whatever order the shards hand the slots over in.
        let mut flat = CounterFleet::counters(spec(), cfg()).unwrap();
        for key in (0..200u64).rev() {
            flat.update(key, if key % 50 == 7 { 9 } else { 3 }).unwrap();
        }
        flat.flush().unwrap();
        let expect = |k: usize| {
            let mut all: Vec<(u64, i64)> = (0..200u64)
                .map(|key| (key, flat.estimate(key).unwrap()))
                .collect();
            all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(k);
            all
        };
        for k in [1, 3, 4, 5, 17, 199, 200, 201, 1000] {
            assert_eq!(flat.top_k(k), expect(k), "k = {k}");
        }
        assert_eq!(flat.top_k(5)[..4], [(7, 9), (57, 9), (107, 9), (157, 9)]);
        assert_eq!(flat.top_k(5)[4], (0, 3));
        assert_eq!(flat.top_k(usize::MAX).len(), 200);
    }

    #[test]
    fn a_burst_straddling_a_flush_opens_a_new_run() {
        // The memo's open run belongs to its batch: a burst cut by an
        // explicit flush stages its tail as a fresh run, touches the
        // slot again, and applies in the next boundary.
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        let mut twin = spec().build().unwrap();
        for round in 0..3 {
            for _ in 0..3 {
                fleet.update(42, 2).unwrap();
                twin.step(0, 2);
            }
            fleet.flush().unwrap();
            let shard = &fleet.shards[fleet.shard_of(42)];
            assert!(shard.runs.is_empty() && shard.inputs.is_empty());
            assert!(fleet.memo.is_none());
            let audit = fleet.key_audit(42).unwrap();
            assert_eq!(audit.updates, 3 * (round + 1));
            assert_eq!(audit.estimate, twin.estimate());
        }
        // Two staged updates, a flush, then the batch of eight fills on
        // the same burst: each boundary applies only its own span.
        fleet.update(42, 1).unwrap();
        fleet.update(42, 1).unwrap();
        fleet.flush().unwrap();
        for _ in 0..8 {
            fleet.update(42, 1).unwrap();
        }
        assert_eq!(fleet.time(), 19);
        assert_eq!(fleet.memory().staged_inputs, 0);
        for _ in 0..10 {
            twin.step(0, 1);
        }
        let audit = fleet.key_audit(42).unwrap();
        assert_eq!((audit.f, audit.updates), (28, 19));
        assert_eq!(audit.estimate, twin.estimate());
        assert_eq!(fleet.comm_stats(), twin.stats());
    }

    #[test]
    fn item_fleet_estimates_per_key_items() {
        let spec = TrackerSpec::new(TrackerKind::ExactFreq)
            .k(2)
            .eps(0.25)
            .universe(64);
        let mut fleet = ItemFleet::items(spec, cfg()).unwrap();
        for _ in 0..20 {
            fleet.update_at(10, 0, (3, 1)).unwrap();
            fleet.update_at(20, 1, (3, 1)).unwrap();
            fleet.update_at(20, 1, (3, 1)).unwrap();
        }
        fleet.flush().unwrap();
        let a = fleet.estimate_item(10, 3).unwrap();
        let b = fleet.estimate_item(20, 3).unwrap();
        assert_eq!(a, 20);
        assert_eq!(b, 40);
        assert!(matches!(
            fleet.estimate_item(99, 3),
            Err(EngineError::UnknownKey { key: 99 })
        ));
    }

    #[test]
    fn deletions_are_gated_by_kind() {
        let mut mono =
            CounterFleet::counters(TrackerSpec::new(TrackerKind::CmyMonotone).eps(0.1), cfg())
                .unwrap();
        assert!(matches!(
            mono.update(1, -1),
            Err(EngineError::Run(RunError::DeletionUnsupported { .. }))
        ));
        let mut fleet = CounterFleet::counters(
            TrackerSpec::new(TrackerKind::Naive)
                .eps(0.1)
                .deletions(true),
            cfg(),
        )
        .unwrap();
        fleet.update(1, 5).unwrap();
        fleet.update(1, -2).unwrap();
        fleet.flush().unwrap();
        assert_eq!(fleet.key_audit(1).unwrap().f, 3);
        assert!(matches!(
            fleet.update_at(1, 9, 1),
            Err(EngineError::Run(RunError::SiteOutOfRange { site: 9, .. }))
        ));
    }

    #[test]
    fn checkpoint_codec_rejects_corruption() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for t in 0..64u64 {
            fleet.update(t % 5, 1).unwrap();
        }
        let bytes = fleet.checkpoint().unwrap().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FleetCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            FleetCheckpoint::from_bytes(&trailing),
            Err(CodecError::Trailing { left: 1 })
        );
        let mut skew = bytes.clone();
        skew[4] = (FLEET_VERSION + 1) as u8;
        assert!(matches!(
            FleetCheckpoint::from_bytes(&skew),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut bad_kind = bytes;
        bad_kind[6] = 200;
        assert!(matches!(
            FleetCheckpoint::from_bytes(&bad_kind),
            Err(CodecError::BadTag { tag: 200, .. })
        ));
    }

    #[test]
    fn fleet_delta_applies_bit_identically_and_round_trips() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for t in 0..300u64 {
            fleet.update(t % 13, 1).unwrap();
        }
        let parent = fleet.checkpoint().unwrap();
        // Touch two existing keys and add three new ones.
        for _ in 0..40 {
            fleet.update(3, 2).unwrap();
            fleet.update(7, -1).unwrap();
            fleet.update(100, 1).unwrap();
            fleet.update(101, 1).unwrap();
            fleet.update(102, 1).unwrap();
        }
        let delta = fleet.checkpoint_delta(&parent).unwrap();
        let child = fleet.checkpoint().unwrap();
        assert_eq!(delta.parent_time(), parent.time());
        assert_eq!(delta.time(), child.time());
        let rebuilt = delta.apply(&parent).unwrap();
        assert_eq!(rebuilt, child);
        assert_eq!(rebuilt.to_bytes(), child.to_bytes());
        // Wire round trip, then apply again.
        let wire = FleetDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(wire, delta);
        assert_eq!(wire.apply(&parent).unwrap().to_bytes(), child.to_bytes());
        // A quiet fleet's delta is tiny next to the full table.
        let quiet = fleet.checkpoint_delta(&child).unwrap();
        assert!(
            quiet.to_bytes().len() * 10 <= child.to_bytes().len(),
            "quiet delta {} vs full {}",
            quiet.to_bytes().len(),
            child.to_bytes().len()
        );
        // Wrong parent is a typed fingerprint mismatch, not corruption.
        assert!(matches!(
            delta.apply(&child),
            Err(CodecError::Mismatch {
                what: "fleet delta parent fingerprint",
                ..
            })
        ));
        // The two table variants refuse each other's decoder, typed.
        assert!(matches!(
            FleetCheckpoint::from_bytes(&delta.to_bytes()),
            Err(CodecError::BadValue { .. })
        ));
        assert!(matches!(
            FleetDelta::from_bytes(&child.to_bytes()),
            Err(CodecError::BadValue { .. })
        ));
    }

    #[test]
    fn fleet_v1_bytes_are_refused() {
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap();
        for t in 0..128u64 {
            fleet.update(t % 9, 1).unwrap();
        }
        // The v1 wire form: no table-variant byte (index 6), version 1.
        let mut v1 = fleet.checkpoint().unwrap().to_bytes();
        v1.remove(6);
        v1[4] = 1;
        v1[5] = 0;
        assert!(matches!(
            FleetCheckpoint::from_bytes(&v1),
            Err(CodecError::UnsupportedVersion { found: 1, .. })
        ));
        // The v2 wire form: today's layout around slot payloads that
        // still carried the block log (`DSVT` v1); the v3 wire form:
        // today's layout with the delta's parent pinned by FNV-1a; the
        // v4 wire form: changed slots' state diffs in their own `DSVD`
        // envelope with a base pin. Only the version word tells — and it
        // is enough, for both table variants.
        let parent = fleet.checkpoint().unwrap();
        fleet.update(3, 1).unwrap();
        let delta = fleet.checkpoint_delta(&parent).unwrap();
        for version in [2u16, 3, 4] {
            let refused = Some(CodecError::UnsupportedVersion {
                found: version,
                supported: FLEET_VERSION,
            });
            let restamp = |mut bytes: Vec<u8>| {
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                bytes
            };
            let full = restamp(parent.to_bytes());
            assert_eq!(FleetCheckpoint::from_bytes(&full).err(), refused);
            let delta = restamp(delta.to_bytes());
            assert_eq!(FleetDelta::from_bytes(&delta).err(), refused);
        }
    }

    #[test]
    fn memory_accounts_slabs_and_gc_compacts() {
        // A one-entry cache strands a frozen record on nearly every touch.
        // Grow the stream until some shard's garbage has crossed the floor
        // and been reset: garbage only ever shrinks by compacting.
        let mut fleet = CounterFleet::counters(spec(), cfg()).unwrap().with_cache(1);
        let mut last = vec![0usize; fleet.shards.len()];
        // Whether a boundary ever left more garbage than live bytes: the
        // live-bytes rule alone would have compacted there.
        let mut floor_held = false;
        let mut compacted = false;
        let mut state = 7u64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            fleet.update((state >> 40) % 200, 1).unwrap();
            for (shard, last) in fleet.shards.iter().zip(&mut last) {
                let live = shard.arena.len() - shard.garbage;
                assert!(
                    shard.garbage <= GC_FLOOR || shard.garbage <= live,
                    "garbage {} left uncompacted over {live} live bytes",
                    shard.garbage
                );
                if shard.garbage < *last {
                    // Compaction keeps exactly the referenced payloads.
                    let referenced: usize = shard
                        .slots
                        .iter()
                        .filter(|slot| slot.len != FRESH)
                        .map(|slot| slot.len as usize)
                        .sum();
                    assert_eq!(shard.garbage, 0);
                    assert_eq!(shard.arena.len(), referenced);
                    compacted = true;
                }
                floor_held |= shard.garbage > live;
                *last = shard.garbage;
            }
            if compacted {
                break;
            }
        }
        assert!(compacted, "no shard compacted");
        assert!(floor_held, "the floor never held a compaction back");
        fleet.flush().unwrap();
        let mem = fleet.memory();
        assert_eq!(mem.keys, fleet.len() as u64);
        assert!(mem.arena_bytes > 0);
        assert!(mem.total_bytes() > 0);
        assert_eq!(mem.staged_inputs, 0);
    }

    // Eviction at a few keys: the facade's fleet suites run at `CACHE`,
    // which their key counts never fill, so the paths they cover through
    // a shrunken cache live here.

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A warm spec for `kind`, as the facade's fleet suites build it:
    /// multi-site where supported, universe where required, a fixed seed.
    fn warm_spec(kind: TrackerKind, eps: f64) -> (TrackerSpec, usize) {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            3
        };
        let mut spec = TrackerSpec::new(kind).k(k).eps(eps).seed(17);
        if kind.info().needs_universe {
            spec = spec.universe(64);
        }
        if kind.supports_deletions() {
            spec = spec.deletions(true);
        }
        (spec, k)
    }

    /// `checkpoint_delta(parent)` must be exactly the full compare against
    /// the live checkpoint, and rebuild it.
    fn assert_matches_full<T, In>(
        fleet: &mut TrackerFleet<T, In>,
        parent: &FleetCheckpoint,
        what: &str,
    ) where
        T: Tracker<In> + Send,
        In: InputDelta + Send,
    {
        let delta = fleet.checkpoint_delta(parent).unwrap();
        let live = fleet.checkpoint().unwrap();
        let full = FleetDelta::between(parent, &live).unwrap();
        assert_eq!(delta.to_bytes(), full.to_bytes(), "{what}: delta bytes");
        assert_eq!(delta.apply(parent).unwrap(), live, "{what}: rebuilt child");
    }

    /// Segment `seg` of a keyed tape over `k` sites: keys from a window
    /// of `keys` that slides a third of its width per segment, `len`
    /// updates, an input per update from `input`.
    fn tape<In>(
        seg: u64,
        (k, keys, len): (usize, u64, usize),
        input: &dyn Fn(&mut u64) -> In,
    ) -> Vec<(u64, usize, In)> {
        let mut s = 1 + seg;
        (0..len)
            .map(|_| {
                let key = keys / 3 * seg + lcg(&mut s) % keys;
                let site = (lcg(&mut s) % k as u64) as usize;
                (key, site, input(&mut s))
            })
            .collect()
    }

    /// Every kind of ancestor, on a fleet with one live tracker a shard
    /// and on one resumed from it, as `tests/fleet_delta.rs` walks them
    /// at the default cache.
    fn every_ancestor_through_one_live_tracker<T, In>(
        label: &str,
        build: &dyn Fn() -> TrackerFleet<T, In>,
        resume: &dyn Fn(&FleetCheckpoint) -> TrackerFleet<T, In>,
        shape: (usize, u64, usize),
        input: &dyn Fn(&mut u64) -> In,
    ) where
        T: Tracker<In> + Send,
        In: InputDelta + Send,
    {
        let play = |fleet: &mut TrackerFleet<T, In>, seg: u64| {
            for (key, site, x) in tape(seg, shape, input) {
                fleet.update_at(key, site, x).unwrap();
            }
        };
        let mut fleet = build().with_cache(1);
        play(&mut fleet, 0);
        let older = fleet.checkpoint().unwrap();
        play(&mut fleet, 1);
        let last = fleet.checkpoint().unwrap();
        assert!(
            fleet.memory().cached_trackers < fleet.len() as u64,
            "{label}: the cache did not evict"
        );
        assert_matches_full(&mut fleet, &last, &format!("{label}: the live state"));
        play(&mut fleet, 2);
        assert_matches_full(&mut fleet, &last, &format!("{label}: the last checkpoint"));
        assert_matches_full(&mut fleet, &older, &format!("{label}: an older ancestor"));
        assert_matches_full(&mut fleet, &last.clone(), &format!("{label}: a clone"));

        let link = fleet.checkpoint_delta(&last).unwrap().apply(&last).unwrap();
        play(&mut fleet, 3);
        assert_matches_full(
            &mut fleet,
            &link,
            &format!("{label}: an applied chain link"),
        );

        let origin = fleet.checkpoint().unwrap();
        let mut resumed = resume(&origin).with_cache(1);
        play(&mut resumed, 4);
        assert_matches_full(&mut resumed, &origin, &format!("{label}: the resume point"));
        assert_matches_full(
            &mut resumed,
            &older,
            &format!("{label}: the origin's ancestor"),
        );
    }

    #[test]
    fn the_dirty_path_equals_the_full_compare_through_a_cache_of_one() {
        for workers in [1, 2, 3] {
            let cfg = EngineConfig::new(4, 16).workers(workers);
            for kind in TrackerKind::COUNTERS {
                let (spec, k) = warm_spec(kind, 0.2);
                let cfg = cfg.eps(0.2);
                let deletions = kind.supports_deletions();
                every_ancestor_through_one_live_tracker(
                    &format!("{} W={workers}", kind.label()),
                    &|| CounterFleet::counters(spec, cfg).unwrap(),
                    &|ckpt| CounterFleet::resume(spec, cfg, ckpt).unwrap(),
                    (k, 24, 240),
                    &|s| match lcg(s) % 4 {
                        0 if deletions => -1,
                        r => 1 + r as i64 % 2,
                    },
                );
            }
            for kind in TrackerKind::FREQUENCIES {
                let (spec, k) = warm_spec(kind, 0.5);
                let cfg = cfg.eps(0.5);
                let deletions = kind.supports_deletions();
                every_ancestor_through_one_live_tracker(
                    &format!("{} W={workers}", kind.label()),
                    &|| ItemFleet::items(spec, cfg).unwrap(),
                    &|ckpt| ItemFleet::resume(spec, cfg, ckpt).unwrap(),
                    (k, 9, 60),
                    &|s| {
                        let item = lcg(s) % 64;
                        let delta = if deletions && lcg(s).is_multiple_of(5) {
                            -1
                        } else {
                            1
                        };
                        (item, delta)
                    },
                );
            }
        }
    }

    /// Checkpoint → wire round-trip → resume onto other workers and one
    /// live tracker a shard → continue: the same audits, ledgers and
    /// next-checkpoint bytes as the straight run, for all ten kinds. (A
    /// cache of two does not evict the item fleets' six keys over four
    /// shards.)
    #[test]
    fn resuming_onto_a_one_tracker_cache_is_bit_identical_for_all_kinds() {
        fn check<T, In, F>(
            label: &str,
            keys: u64,
            mut straight: TrackerFleet<T, In>,
            resume: &dyn Fn(&FleetCheckpoint) -> TrackerFleet<T, In>,
            feed: F,
            (before, after): (u64, u64),
            mut s: u64,
        ) -> (TrackerFleet<T, In>, TrackerFleet<T, In>)
        where
            T: Tracker<In> + Send,
            In: InputDelta + Send,
            F: Fn(&mut TrackerFleet<T, In>, &mut u64, u64),
        {
            feed(&mut straight, &mut s, before);
            let wire = straight.checkpoint().unwrap().to_bytes();
            let ckpt = FleetCheckpoint::from_bytes(&wire).unwrap();
            let mut resumed = resume(&ckpt).with_cache(1);
            let mut s2 = s;
            feed(&mut straight, &mut s, after);
            feed(&mut resumed, &mut s2, after);
            straight.flush().unwrap();
            resumed.flush().unwrap();
            assert!(
                resumed.memory().cached_trackers < keys,
                "{label}: the cache did not evict"
            );
            for key in 0..keys {
                assert_eq!(
                    resumed.key_audit(key),
                    straight.key_audit(key),
                    "{label} key {key}: audit diverged after resume + rescale",
                );
            }
            assert_eq!(resumed.comm_stats(), straight.comm_stats(), "{label}");
            assert_eq!(
                resumed.checkpoint().unwrap().to_bytes(),
                straight.checkpoint().unwrap().to_bytes(),
                "{label}: checkpoint bytes diverged after resume + rescale",
            );
            (straight, resumed)
        }
        let cfg = EngineConfig::new(4, 64).eps(0.2);
        for kind in TrackerKind::COUNTERS {
            let (spec, k) = warm_spec(kind, 0.2);
            let keys = 9;
            check(
                kind.label(),
                keys,
                CounterFleet::counters(spec, cfg).unwrap(),
                &|ckpt| CounterFleet::resume(spec, cfg.workers(3), ckpt).unwrap(),
                |fleet: &mut CounterFleet, state: &mut u64, n| {
                    for _ in 0..n {
                        let key = lcg(state) % keys;
                        let site = (lcg(state) % k as u64) as usize;
                        let delta = if kind.supports_deletions() && lcg(state).is_multiple_of(5) {
                            -1
                        } else {
                            1
                        };
                        fleet.update_at(key, site, delta).unwrap();
                    }
                },
                (2_000, 1_500),
                31,
            );
        }
        for kind in TrackerKind::FREQUENCIES {
            let (spec, k) = warm_spec(kind, 0.2);
            let keys = 6;
            let (mut straight, mut resumed) = check(
                kind.label(),
                keys,
                ItemFleet::items(spec, cfg).unwrap(),
                &|ckpt| ItemFleet::resume(spec, cfg.workers(2), ckpt).unwrap(),
                |fleet: &mut ItemFleet, state: &mut u64, n| {
                    for _ in 0..n {
                        let key = lcg(state) % keys;
                        let site = (lcg(state) % k as u64) as usize;
                        let item = lcg(state) % 64;
                        fleet.update_at(key, site, (item, 1)).unwrap();
                    }
                },
                (2_000, 1_000),
                53,
            );
            for key in 0..keys {
                for item in [3u64, 40] {
                    assert_eq!(
                        resumed.estimate_item(key, item).unwrap(),
                        straight.estimate_item(key, item).unwrap(),
                        "{} key {key} item {item}",
                        kind.label()
                    );
                }
            }
        }
    }

    /// Key → shard routing under cache pressure: worker counts, a
    /// mid-stream rescale and caches of one to four live trackers never
    /// move a key or perturb a single checkpoint byte.
    #[test]
    fn key_routing_is_stable_under_cache_pressure() {
        let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.15);
        let cfg = EngineConfig::new(8, 32).eps(0.15);
        let mut seeds = 0xCAC4Eu64;
        for case in 0..16 {
            let seed = lcg(&mut seeds);
            let workers = 1 + case % 5;
            let cache = 1 + case % 4;
            let mut baseline = CounterFleet::counters(spec, cfg).unwrap();
            let mut varied = CounterFleet::counters(spec, cfg.workers(workers))
                .unwrap()
                .with_cache(cache);
            let mut s = seed | 1;
            let mut keys_seen = Vec::new();
            for t in 0..600u64 {
                let key = lcg(&mut s) % 97;
                let site = (lcg(&mut s) % 2) as usize;
                keys_seen.push(key);
                baseline.update_at(key, site, 1).unwrap();
                varied.update_at(key, site, 1).unwrap();
                if t == 300 {
                    // Rescale: resume onto another worker count, cutting the
                    // same early boundary in the baseline.
                    baseline.flush().unwrap();
                    let ckpt = varied.checkpoint().unwrap();
                    let cfg = cfg.workers(workers % 4 + 1);
                    varied = CounterFleet::resume(spec, cfg, &ckpt)
                        .unwrap()
                        .with_cache(cache);
                }
            }
            baseline.flush().unwrap();
            varied.flush().unwrap();
            assert!(
                varied.memory().cached_trackers < varied.len() as u64,
                "case {case}: the cache did not evict"
            );
            for &key in &keys_seen {
                assert_eq!(baseline.shard_of(key), varied.shard_of(key));
                assert_eq!(baseline.estimate(key), varied.estimate(key));
            }
            let wire = baseline.checkpoint().unwrap().to_bytes();
            assert_eq!(&wire, &varied.checkpoint().unwrap().to_bytes());
        }
    }
}

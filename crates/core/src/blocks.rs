//! Partitioning time into constant-variability blocks — Section 3.1.
//!
//! The coordinator divides time into blocks `B_j = [n_j + 1, n_{j+1}]` such
//! that at each block end it knows `n` and `f(n)` **exactly**, and each
//! block increases the variability by at least 1/5. The machinery:
//!
//! * each site keeps `c_i` (updates since it last sent `c_i`) and `f_i`
//!   (change in `f` since the last broadcast); whenever `c_i = ⌈2^{r−1}⌉`
//!   the site sends `c_i`;
//! * the coordinator accumulates `t̂ += c_i`; when `t̂ ≥ t_j` it requests
//!   all `(c_i, f_i)`, recomputes `f(n_j)` exactly, picks the new radius
//!   `r` (`2^r·2k ≤ |f(n_j)| < 2^r·4k`, or `r = 0` if `|f(n_j)| < 4k`),
//!   sets `t_{j+1} = ⌈2^{r−1}⌉·k`, and broadcasts `r`.
//!
//! Consequences proved in the paper and asserted by our tests/experiments:
//!
//! * `⌈2^{r−1}⌉·k ≤ n_{j+1} − n_j ≤ 2^r·k`;
//! * `r = 0` blocks: `|f(n) − f(n_j)| ≤ k` and `|f(n)| ≤ 5k` inside;
//! * `r ≥ 1` blocks: `|f(n) − f(n_j)| ≤ 2^r·k` and
//!   `2^r·k ≤ |f(n)| ≤ 2^r·5k` inside;
//! * at most `5k` partition messages per block, and every block raises the
//!   variability by a constant. (The paper states `Δv ≥ 1/5` using a block
//!   length of `2^r·k`; its own length lower bound is `⌈2^{r−1}⌉·k`, which
//!   yields the safe constant `Δv ≥ 1/10` — each of the ≥ `2^{r−1}·k`
//!   steps contributes ≥ `1/(2^r·5k)`. We assert `1/10` and report the
//!   measured per-block gains, which land between the two, in E4.)

use dsv_net::codec::{restore_check, CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, Time, WireSize};

/// `⌈2^{r−1}⌉`: the per-site count threshold and the unit of the block
/// quota.
#[inline]
pub fn threshold_for(r: u32) -> u64 {
    if r == 0 {
        1
    } else {
        1u64 << (r - 1)
    }
}

/// The radius for a block starting at `|f| = f_abs` with `k` sites:
/// `r = 0` if `f_abs < 4k`, else the unique `r ≥ 1` with
/// `2^r·2k ≤ f_abs < 2^r·4k`.
#[inline]
pub fn radius_for(f_abs: u64, k: usize) -> u32 {
    let k = k as u64;
    if f_abs < 4 * k {
        0
    } else {
        (f_abs / (2 * k)).ilog2()
    }
}

/// Restore check shared by the drift-tracking coordinators: a maintained
/// sum must be the (wrapping) sum of the per-site values it summarizes.
pub(crate) fn check_sum(what: &'static str, sum: i64, parts: &[i64]) -> Result<(), CodecError> {
    let total = parts.iter().fold(0i64, |acc, &x| acc.wrapping_add(x));
    restore_check(total == sum, what)
}

/// Static configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Number of sites `k`.
    pub k: usize,
}

impl BlockConfig {
    /// Configuration for `k ≥ 1` sites.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        BlockConfig { k }
    }
}

/// Site-side partitioner state (embedded by every tracker's site node).
#[derive(Debug, Clone)]
pub struct BlockSite {
    c: u64,
    f_i: i64,
    threshold: u64,
}

impl Default for BlockSite {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockSite {
    /// Fresh site state for the initial `r = 0` block.
    pub fn new() -> Self {
        BlockSite {
            c: 0,
            f_i: 0,
            threshold: threshold_for(0),
        }
    }

    /// Count one update. Returns `Some(c)` when the count threshold fires
    /// (the site must send `c` to the coordinator; the counter resets).
    pub fn on_update(&mut self, delta: i64) -> Option<u64> {
        self.c += 1;
        self.f_i += delta;
        if self.c == self.threshold {
            let sent = self.c;
            self.c = 0;
            Some(sent)
        } else {
            None
        }
    }

    /// Number of further counted updates guaranteed **not** to fire the
    /// count threshold — the headroom the batched fast path may absorb
    /// before [`on_update`](Self::on_update) must run again.
    pub fn until_fire(&self) -> u64 {
        self.threshold - self.c - 1
    }

    /// Bulk fast path: count `n` updates summing to `sum`, none of which
    /// fires (caller must stay within [`until_fire`](Self::until_fire)).
    /// State change is bit-identical to `n` non-firing
    /// [`on_update`](Self::on_update) calls.
    pub fn absorb_run(&mut self, n: u64, sum: i64) {
        debug_assert!(self.c + n < self.threshold, "absorb_run past headroom");
        self.c += n;
        self.f_i += sum;
    }

    /// Answer a coordinator report request with `(c_i, f_i)`. Sending `c_i`
    /// resets it (it has now been "sent to the coordinator"); `f_i` resets
    /// only at the next block broadcast.
    pub fn report(&mut self) -> (u64, i64) {
        let c = std::mem::take(&mut self.c);
        (c, self.f_i)
    }

    /// Handle the new-block broadcast carrying radius `r`.
    pub fn start_block(&mut self, r: u32) {
        self.f_i = 0;
        self.threshold = threshold_for(r);
    }

    /// Serialize the partitioner's site-side state (snapshot seam).
    pub fn save_state(&self, enc: &mut Enc) {
        enc.u64(self.c);
        enc.i64(self.f_i);
        enc.u64(self.threshold);
    }

    /// Restore state written by [`save_state`](Self::save_state): the
    /// unsent count must sit below its threshold, as it does between any
    /// two timesteps.
    pub fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.c = dec.u64()?;
        self.f_i = dec.i64()?;
        self.threshold = dec.u64()?;
        restore_check(self.c < self.threshold, "site update count")
    }

    /// Restore validation for the embedding site, whose state repeats
    /// two things this one holds: its radius `r` must be a shiftable one
    /// (`r < 64`) with this count threshold, and its own in-block drift
    /// (for the kinds that keep one) must equal `f_i`.
    pub fn check_restored(&self, r: u32, drift: Option<i64>) -> Result<(), CodecError> {
        let radius_ok = r < 64 && self.threshold == threshold_for(r);
        restore_check(radius_ok, "site block radius")?;
        restore_check(drift.is_none_or(|d| d == self.f_i), "site in-block drift")
    }

    /// Current unsent update count.
    #[cfg(test)]
    fn pending(&self) -> u64 {
        self.c
    }

    /// Change in `f` at this site since the last broadcast.
    #[cfg(test)]
    fn drift_since_broadcast(&self) -> i64 {
        self.f_i
    }
}

/// Completed-block record, collected by a [`BlockTrace`] for the E4
/// experiments and invariant tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index `j` (0-based).
    pub index: u64,
    /// Radius `r` in force *during* the block.
    pub r: u32,
    /// `n_j`: the timestep at which the block started (exclusive).
    pub start: Time,
    /// `n_{j+1}`: the timestep at which the block ended (inclusive).
    pub end: Time,
    /// `f(n_j)`.
    pub f_start: i64,
    /// `f(n_{j+1})`.
    pub f_end: i64,
}

impl BlockInfo {
    /// `n_{j+1} − n_j`, the number of updates in the block.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the block is degenerate (cannot happen; for clippy's sake).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Coordinator-side partitioner state (embedded by every tracker's
/// coordinator node).
#[derive(Debug, Clone)]
pub struct BlockCoordinator {
    k: usize,
    r: u32,
    t_hat: u64,
    quota: u64,
    f_sync: i64,
    collecting: bool,
    replies: usize,
    reply_f_sum: i64,
    block_index: u64,
    block_start: Time,
}

impl BlockCoordinator {
    /// Fresh coordinator state: block 0 starts at time 0 with `f(0) = 0`,
    /// `r = 0`, quota `t_1 = k`.
    pub fn new(cfg: BlockConfig) -> Self {
        BlockCoordinator {
            k: cfg.k,
            r: 0,
            t_hat: 0,
            quota: threshold_for(0) * cfg.k as u64,
            f_sync: 0,
            collecting: false,
            replies: 0,
            reply_f_sum: 0,
            block_index: 0,
            block_start: 0,
        }
    }

    /// Radius `r` of the current block.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// `f(n_j)`: the exact value at the last block boundary.
    pub fn f_sync(&self) -> i64 {
        self.f_sync
    }

    /// Index of the current (incomplete) block.
    pub fn block_index(&self) -> u64 {
        self.block_index
    }

    /// `n_j`: the timestep at which the current block started.
    pub fn block_start(&self) -> Time {
        self.block_start
    }

    /// Whether a report collection is in flight.
    pub fn collecting(&self) -> bool {
        self.collecting
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serialize the partitioner's coordinator-side state (snapshot seam):
    /// ten scalars, whatever the stream — completed blocks are not state
    /// (see [`BlockTrace`]).
    pub fn save_state(&self, enc: &mut Enc) {
        enc.usize(self.k);
        enc.u32(self.r);
        enc.u64(self.t_hat);
        enc.u64(self.quota);
        enc.i64(self.f_sync);
        enc.bool(self.collecting);
        enc.usize(self.replies);
        enc.i64(self.reply_f_sum);
        enc.u64(self.block_index);
        enc.u64(self.block_start);
    }

    /// Restore state written by [`save_state`](Self::save_state); the
    /// serialized site count must match this coordinator's, and the
    /// scalars must be ones a run can reach between two timesteps
    /// (DESIGN.md §6 lists the invariants) — the protocol indexes, shifts
    /// and asserts on them without looking again.
    pub fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        let k = dec.usize()?;
        if k != self.k {
            return Err(CodecError::Mismatch {
                what: "partitioner site count",
                expected: self.k as u64,
                found: k as u64,
            });
        }
        self.r = dec.u32()?;
        self.t_hat = dec.u64()?;
        self.quota = dec.u64()?;
        self.f_sync = dec.i64()?;
        self.collecting = dec.bool()?;
        self.replies = dec.usize()?;
        self.reply_f_sum = dec.i64()?;
        self.block_index = dec.u64()?;
        self.block_start = dec.u64()?;
        let radius = radius_for(self.f_sync.unsigned_abs(), self.k);
        restore_check(self.r == radius, "block radius")?;
        let quota = threshold_for(radius).checked_mul(self.k as u64);
        restore_check(Some(self.quota) == quota, "block quota")?;
        restore_check(self.replies < self.k, "report reply count")?;
        let idle = self.replies == 0 && self.reply_f_sum == 0 && self.t_hat < self.quota;
        restore_check(self.collecting || idle, "collection state")
    }

    /// Process a count message `c_i`. Returns `true` when the block quota
    /// is reached and the caller must issue a report request to all sites.
    pub fn on_count(&mut self, c: u64) -> bool {
        self.t_hat += c;
        if !self.collecting && self.t_hat >= self.quota {
            self.collecting = true;
            true
        } else {
            false
        }
    }

    /// Process one report reply `(c_i, f_i)` at time `t`. When the `k`-th
    /// reply arrives the block is finalized: returns `Some(new_r)` and the
    /// caller must broadcast the new radius.
    pub fn on_report(&mut self, t: Time, c: u64, f_i: i64) -> Option<u32> {
        assert!(self.collecting, "report outside a collection");
        self.t_hat += c;
        self.reply_f_sum += f_i;
        self.replies += 1;
        if self.replies < self.k {
            return None;
        }
        // Block j ends at time t: f(n_{j+1}) = f(n_j) + Σ_i f_i, exactly.
        self.f_sync += self.reply_f_sum;
        let new_r = radius_for(self.f_sync.unsigned_abs(), self.k);
        self.block_index += 1;
        self.block_start = t;
        self.r = new_r;
        self.t_hat = 0;
        self.quota = threshold_for(new_r) * self.k as u64;
        self.collecting = false;
        self.replies = 0;
        self.reply_f_sum = 0;
        Some(new_r)
    }
}

/// Observer that records one [`BlockInfo`] per completed block —
/// **outside** the protocol state, the way [`StarSim`](dsv_net::StarSim)'s
/// message transcript is, so a tracker holds O(k) words however long it
/// runs and a snapshot carries no history. Attach it to a coordinator
/// (fresh or resumed) and call [`observe`](Self::observe) after **every**
/// single-update `step`: at most one block closes per timestep (the quota
/// resets to ≥ k and no new count can arrive before the next update).
#[derive(Debug, Clone)]
pub struct BlockTrace {
    /// The open block; `end`/`f_end` are filled in when it closes.
    open: BlockInfo,
    blocks: Vec<BlockInfo>,
}

impl BlockTrace {
    /// Start tracing at `coord`'s current (incomplete) block.
    pub fn attach(coord: &BlockCoordinator) -> Self {
        let (start, f_start) = (coord.block_start(), coord.f_sync());
        let open = BlockInfo {
            index: coord.block_index(),
            r: coord.r(),
            start,
            end: start,
            f_start,
            f_end: f_start,
        };
        BlockTrace {
            open,
            blocks: Vec::new(),
        }
    }

    /// Record the block that closed at timestep `t`, if one did.
    ///
    /// # Panics
    ///
    /// If the coordinator moved on other than by closing exactly one
    /// block at `t` — an observation was skipped (a multi-update batch),
    /// and the missing records could only be guessed.
    pub fn observe(&mut self, t: Time, coord: &BlockCoordinator) {
        if coord.block_index() == self.open.index {
            return;
        }
        let next = Self::attach(coord).open;
        assert!(
            next.index == self.open.index + 1 && next.start == t,
            "BlockTrace::observe must follow every step: block {} was open, \
             block {} (started at {}) is at t = {t}",
            self.open.index,
            next.index,
            next.start,
        );
        self.blocks.push(BlockInfo {
            end: t,
            f_end: next.f_start,
            ..self.open
        });
        self.open = next;
    }

    /// The blocks completed since [`attach`](Self::attach), in order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }
}

// ---------------------------------------------------------------------------
// A standalone "blocks only" protocol: runs just the partitioner, with the
// coordinator estimating f by its last sync point. Used by experiment E4 to
// validate the §3.1 facts in isolation.
// ---------------------------------------------------------------------------

/// Site → coordinator messages of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockUp {
    /// `c_i` reached the threshold.
    Count(u64),
    /// Reply to a report request: `(c_i, f_i)`.
    Report {
        /// `c_i`: unsent update count at the site.
        c: u64,
        /// `f_i`: the site's drift in `f` since the last broadcast.
        f: i64,
    },
}

impl WireSize for BlockUp {
    fn words(&self) -> usize {
        match self {
            BlockUp::Count(_) => 1,
            BlockUp::Report { .. } => 2,
        }
    }
}

/// Coordinator → site messages of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDown {
    /// Request `(c_i, f_i)` from every site.
    Request,
    /// New block with radius `r`.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for BlockDown {
    fn words(&self) -> usize {
        1
    }
}

/// Site node running only the partitioner.
#[derive(Debug, Clone, Default)]
pub struct BlockOnlySite {
    inner: BlockSite,
}

impl BlockOnlySite {
    /// Fresh site.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SiteNode for BlockOnlySite {
    type In = i64;
    type Up = BlockUp;
    type Down = BlockDown;

    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<BlockUp>) {
        if let Some(c) = self.inner.on_update(delta) {
            out.send(BlockUp::Count(c));
        }
    }

    fn on_down(&mut self, _t: Time, msg: &BlockDown, _is_request: bool, out: &mut Outbox<BlockUp>) {
        match msg {
            BlockDown::Request => {
                let (c, f) = self.inner.report();
                out.send(BlockUp::Report { c, f });
            }
            BlockDown::NewBlock { r } => self.inner.start_block(*r),
        }
    }
}

/// Coordinator node running only the partitioner; estimates `f` by the
/// last block-end sync (no in-block guarantee — trackers add that).
#[derive(Debug, Clone)]
pub struct BlockOnlyCoord {
    inner: BlockCoordinator,
}

impl BlockOnlyCoord {
    /// Fresh coordinator for `k` sites.
    pub fn new(k: usize) -> Self {
        BlockOnlyCoord {
            inner: BlockCoordinator::new(BlockConfig::new(k)),
        }
    }

    /// Access the partitioner state (radius, sync value, block index).
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.inner
    }
}

impl CoordinatorNode for BlockOnlyCoord {
    type Up = BlockUp;
    type Down = BlockDown;

    fn on_up(&mut self, t: Time, _site: usize, msg: BlockUp, out: &mut CoordOutbox<BlockDown>) {
        match msg {
            BlockUp::Count(c) => {
                if self.inner.on_count(c) {
                    out.request(BlockDown::Request);
                }
            }
            BlockUp::Report { c, f } => {
                if let Some(r) = self.inner.on_report(t, c, f) {
                    out.broadcast(BlockDown::NewBlock { r });
                }
            }
        }
    }

    fn estimate(&self) -> i64 {
        self.inner.f_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::StarSim;

    #[test]
    fn threshold_and_radius_formulas() {
        assert_eq!(threshold_for(0), 1);
        assert_eq!(threshold_for(1), 1);
        assert_eq!(threshold_for(2), 2);
        assert_eq!(threshold_for(5), 16);
        // r = 0 below 4k.
        assert_eq!(radius_for(0, 4), 0);
        assert_eq!(radius_for(15, 4), 0);
        // 2^r·2k ≤ f < 2^r·4k with k = 4.
        assert_eq!(radius_for(16, 4), 1); // 16 ∈ [16, 32)
        assert_eq!(radius_for(31, 4), 1);
        assert_eq!(radius_for(32, 4), 2); // 32 ∈ [32, 64)
        assert_eq!(radius_for(1 << 20, 4), 17); // 2^20 / 8 = 2^17
    }

    #[test]
    fn radius_invariant_holds_for_all_f() {
        for k in [1usize, 3, 8] {
            for f in 0u64..10_000 {
                let r = radius_for(f, k);
                if f < 4 * k as u64 {
                    assert_eq!(r, 0);
                } else {
                    assert!(r >= 1);
                    let lo = (1u64 << r) * 2 * k as u64;
                    let hi = (1u64 << r) * 4 * k as u64;
                    assert!(
                        (lo..hi).contains(&f),
                        "k={k}, f={f}: r={r} gives [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn site_threshold_fires_every_threshold_updates() {
        let mut s = BlockSite::new();
        s.start_block(3); // threshold 4
        let mut fired = 0;
        for i in 0..16 {
            if s.on_update(1).is_some() {
                fired += 1;
                assert_eq!((i + 1) % 4, 0);
            }
        }
        assert_eq!(fired, 4);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.drift_since_broadcast(), 16);
    }

    #[test]
    fn site_report_resets_count_not_drift() {
        let mut s = BlockSite::new();
        s.start_block(4); // threshold 8
        for _ in 0..5 {
            s.on_update(-1);
        }
        let (c, f) = s.report();
        assert_eq!((c, f), (5, -5));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.drift_since_broadcast(), -5);
        s.start_block(0);
        assert_eq!(s.drift_since_broadcast(), 0);
    }

    type BlockSim = StarSim<BlockOnlySite, BlockOnlyCoord>;

    /// One update, then the observation `BlockTrace` needs after each.
    fn step_traced(sim: &mut BlockSim, trace: &mut BlockTrace, site: usize, d: i64) {
        sim.step(site, d);
        trace.observe(sim.time(), sim.coordinator().blocks());
    }

    fn run_blocks(k: usize, deltas: &[i64]) -> (BlockSim, BlockTrace, Vec<i64>) {
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut trace = BlockTrace::attach(sim.coordinator().blocks());
        let mut values = Vec::with_capacity(deltas.len());
        let mut f = 0i64;
        for (i, &d) in deltas.iter().enumerate() {
            f += d;
            values.push(f);
            step_traced(&mut sim, &mut trace, i % k, d);
        }
        (sim, trace, values)
    }

    #[test]
    fn block_boundaries_are_exact_syncs() {
        let k = 4;
        let deltas: Vec<i64> = (0..5_000)
            .map(|i| if i % 7 == 3 { -1 } else { 1 })
            .collect();
        let (_, trace, values) = run_blocks(k, &deltas);
        let log = trace.blocks();
        assert!(!log.is_empty());
        for b in log {
            assert_eq!(
                b.f_end,
                values[(b.end - 1) as usize],
                "block {} must sync exactly at its end",
                b.index
            );
        }
    }

    #[test]
    fn block_length_bounds_hold() {
        let k = 4;
        let deltas: Vec<i64> = (0..20_000).map(|_| 1).collect(); // monotone
        let (_, trace, _) = run_blocks(k, &deltas);
        let log = trace.blocks();
        assert!(log.len() > 5);
        for b in log {
            let th = threshold_for(b.r);
            assert!(
                b.len() >= th * k as u64 && b.len() <= (1u64 << b.r) * k as u64,
                "block {}: len {} outside [{}k, 2^r k] for r={}",
                b.index,
                b.len(),
                th,
                b.r
            );
        }
    }

    #[test]
    fn f_range_inside_blocks() {
        let k = 2;
        // A walk that grows then shrinks, to exercise several radii.
        let mut deltas: Vec<i64> = vec![1; 3_000];
        deltas.extend(std::iter::repeat_n(-1, 2_500));
        let (_, trace, values) = run_blocks(k, &deltas);
        for b in trace.blocks() {
            let bound = (1u64 << b.r) * k as u64;
            // The paper's in-block facts: |f(n) − f(n_j)| ≤ 2^r·k, and |f|
            // confined to [2^r·k, 2^r·5k] for r ≥ 1 (≤ 5k for r = 0).
            for t in b.start..b.end {
                let f_n = values[t as usize];
                assert!(
                    (f_n - b.f_start).unsigned_abs() <= bound,
                    "block {}: drift exceeded at t={}",
                    b.index,
                    t + 1
                );
                let abs = f_n.unsigned_abs();
                if b.r >= 1 {
                    assert!(abs >= (1u64 << b.r) * k as u64);
                    assert!(abs <= (1u64 << b.r) * 5 * k as u64);
                } else {
                    assert!(abs <= 5 * k as u64);
                }
            }
        }
    }

    #[test]
    fn per_block_message_cost_at_most_5k() {
        let k = 8;
        let deltas: Vec<i64> = (0..30_000)
            .map(|i| if i % 5 == 4 { -1 } else { 1 })
            .collect();
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut trace = BlockTrace::attach(sim.coordinator().blocks());
        let mut prev = sim.stats().clone();
        let mut prev_blocks = 0usize;
        let mut per_block_msgs: Vec<u64> = Vec::new();
        for (i, &d) in deltas.iter().enumerate() {
            step_traced(&mut sim, &mut trace, i % k, d);
            let nblocks = trace.blocks().len();
            if nblocks > prev_blocks {
                let now = sim.stats().clone();
                per_block_msgs.push(now.since(&prev).total_messages());
                prev = now;
                prev_blocks = nblocks;
            }
        }
        assert!(per_block_msgs.len() > 10);
        for (j, &m) in per_block_msgs.iter().enumerate() {
            assert!(m <= 5 * k as u64, "block {j} used {m} messages > 5k");
        }
    }

    #[test]
    fn per_block_variability_gain_at_least_one_tenth() {
        use crate::variability::VariabilityMeter;
        let k = 4;
        let deltas: Vec<i64> = (0..20_000)
            .map(|i| if i % 3 == 2 { -1 } else { 1 })
            .collect();
        let mut meter = VariabilityMeter::new();
        let v_series: Vec<f64> = deltas
            .iter()
            .map(|&d| {
                meter.observe(d);
                meter.value()
            })
            .collect();
        let (_, trace, _) = run_blocks(k, &deltas);
        let log = trace.blocks();
        assert!(log.len() > 5);
        for b in log {
            let v_start = if b.start == 0 {
                0.0
            } else {
                v_series[(b.start - 1) as usize]
            };
            let v_end = v_series[(b.end - 1) as usize];
            assert!(
                v_end - v_start >= 0.1 - 1e-9,
                "block {}: Δv = {} < 1/10",
                b.index,
                v_end - v_start
            );
        }
    }

    #[test]
    fn trace_records_chain_from_block_zero() {
        let k = 3;
        let mut deltas: Vec<i64> = vec![1; 4_000];
        deltas.extend((0..4_000).map(|i| if i % 4 == 0 { 1 } else { -1 }));
        let (sim, trace, _) = run_blocks(k, &deltas);
        let log = trace.blocks();
        assert!(log.len() > 20);
        assert_eq!((log[0].index, log[0].start, log[0].f_start), (0, 0, 0));
        for (j, b) in log.iter().enumerate() {
            assert_eq!(b.index, j as u64);
            assert_eq!(b.r, radius_for(b.f_start.unsigned_abs(), k));
            if let Some(next) = log.get(j + 1) {
                assert_eq!((next.start, next.f_start), (b.end, b.f_end));
            }
        }
        // The open block picks up where the last record stops.
        let coord = sim.coordinator().blocks();
        let last = log.last().unwrap();
        assert_eq!(coord.block_index(), last.index + 1);
        assert_eq!(
            (coord.block_start(), coord.f_sync()),
            (last.end, last.f_end)
        );
    }

    #[test]
    fn trace_attached_after_resume_continues_the_twin() {
        use crate::deterministic::DeterministicTracker;
        let (k, eps, cut) = (4usize, 0.1, 3_001usize);
        let deltas: Vec<i64> = (0..9_000).map(|i| if i % 9 < 6 { 1 } else { -1 }).collect();
        let mut twin = DeterministicTracker::sim(k, eps);
        let mut twin_trace = BlockTrace::attach(twin.coordinator().blocks());
        let mut resumed = DeterministicTracker::sim(k, eps);
        let mut resumed_trace = None;
        for (i, &d) in deltas.iter().enumerate() {
            if i == cut {
                // The snapshot carries no history: the trace of the
                // resumed tracker starts at the block open at the cut.
                let mut enc = Enc::new();
                twin.save_state(&mut enc).unwrap();
                let mut dec = Dec::new(enc.as_bytes());
                resumed.load_state(&mut dec).unwrap();
                dec.finish().unwrap();
                resumed_trace = Some(BlockTrace::attach(resumed.coordinator().blocks()));
            }
            twin.step(i % k, d);
            twin_trace.observe(twin.time(), twin.coordinator().blocks());
            if let Some(trace) = resumed_trace.as_mut() {
                resumed.step(i % k, d);
                trace.observe(resumed.time(), resumed.coordinator().blocks());
            }
        }
        let tail = resumed_trace.unwrap();
        let (full, tail) = (twin_trace.blocks(), tail.blocks());
        assert!(tail.len() > 3 && full.len() > tail.len());
        assert!(tail[0].start < cut as u64 && tail[0].end > cut as u64);
        assert_eq!(&full[full.len() - tail.len()..], tail);
    }

    #[test]
    #[should_panic(expected = "BlockTrace::observe must follow every step")]
    fn trace_observe_after_skipped_blocks_panics() {
        let k = 2;
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut trace = BlockTrace::attach(sim.coordinator().blocks());
        // r = 0, k = 2: a block closes every two updates, so these two
        // runs close two before the trace gets to look.
        sim.step_run(0, &[1, 1]);
        sim.step_run(1, &[1, 1]);
        assert_eq!(sim.coordinator().blocks().block_index(), 2);
        trace.observe(sim.time(), sim.coordinator().blocks());
    }

    #[test]
    fn k_equals_one_works() {
        let (sim, trace, values) = run_blocks(1, &vec![1i64; 100]);
        let log = trace.blocks();
        assert!(!log.is_empty());
        // Coordinator's estimate equals f at the last sync.
        let last = log.last().unwrap();
        assert_eq!(sim.estimate(), values[(last.end - 1) as usize]);
    }
}

//! **Extension (open problem)** — randomized frequency tracking.
//!
//! Appendix H closes with: *"Whether it is also possible to
//! probabilistically track item frequencies over general update streams in
//! `O((√k/ε)·v(n))` messages remains open."* The obstacle it identifies:
//! HYZ's variance argument needs monotone drifts, and "deterministically
//! updating all of the large `f̂_iℓ` at the end of each block could incur
//! `O(1/ε)` messages" per block.
//!
//! This module implements the natural candidate the paper's own machinery
//! suggests — run the §3.4 `A⁺`/`A⁻` split *per counter* inside each block
//! (making both drifts monotone, so Fact 3.1 applies), keep the
//! deterministic block-end heavy reports for re-synchronization — and
//! instruments the message breakdown so experiment E14 can quantify the
//! open problem empirically: the sampled in-block traffic indeed scales
//! like `√k/ε`, while the block-end reporting term scales like `1/ε` per
//! block and dominates, exactly as the paper predicts.
//!
//! Guarantee (per item, per timestep, inside `r ≥ 1` blocks): block-start
//! bases are exact for reported counters and `< ε·2^r/3` per site
//! otherwise; the sampled drift estimate is unbiased with per-(site,
//! counter, sign) variance ≤ `1/p²`, so with
//! `p = min{1, c/(ε·2^r·√k)}` Chebyshev bounds the per-row drift error by
//! `ε·2^r·k/3` with probability `1 − 18/c²`. The default `c = 9` targets
//! failure ≤ 2/9 per row per timestep; `r = 0` blocks are exact.

use crate::blocks::{check_sum, BlockConfig, BlockCoordinator, BlockSite};
use crate::randomized::{load_probability, load_rng, sampling_probability_with, save_rng};
use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};
use dsv_sketch::{CountMinMap, CounterMap, IdentityMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Default sampling constant `c` in `p = min{1, c/(ε·2^r·√k)}`, chosen so
/// Chebyshev's per-row failure bound `18/c²` is 2/9.
pub const DEFAULT_SAMPLE_CONST: f64 = 9.0;

/// Site → coordinator messages of the randomized frequency tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RFreqUp {
    /// Partition: `c_i` reached the threshold.
    Count(u64),
    /// Partition: reply to a report request (`c_i`, F1-drift `f_i`).
    Report {
        /// `c_i`: unsent update count at the site.
        c: u64,
        /// `f_i`: the site's drift in `f` since the last broadcast.
        f: i64,
    },
    /// §3.3 drift message for F1 itself.
    F1Drift(i64),
    /// Block-start report of one heavy total counter (deterministic).
    Heavy {
        /// Counter index.
        idx: u32,
        /// Exact total `f_ic` at the reporting site.
        value: i64,
    },
    /// Sampled `A⁺` report for one counter: the new `d⁺_ic`.
    SamplePlus {
        /// Counter index.
        idx: u32,
        /// The new monotone drift `d⁺_ic`.
        d: u64,
    },
    /// Sampled `A⁻` report for one counter: the new `d⁻_ic`.
    SampleMinus {
        /// Counter index.
        idx: u32,
        /// The new monotone drift `d⁻_ic`.
        d: u64,
    },
}

impl WireSize for RFreqUp {
    fn words(&self) -> usize {
        match self {
            RFreqUp::Count(_) | RFreqUp::F1Drift(_) => 1,
            RFreqUp::Report { .. }
            | RFreqUp::Heavy { .. }
            | RFreqUp::SamplePlus { .. }
            | RFreqUp::SampleMinus { .. } => 2,
        }
    }
}

/// Coordinator → site messages (same shape as the deterministic variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RFreqDown {
    /// Partition: request `(c_i, f_i)`.
    Request,
    /// Partition: new block with radius `r`.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for RFreqDown {
    fn words(&self) -> usize {
        1
    }
}

/// Per-site state of the randomized frequency tracker.
#[derive(Debug, Clone)]
pub struct RFreqSite<M: CounterMap> {
    blocks: BlockSite,
    map: M,
    /// All-time totals per counter (for block-end heavy reports).
    totals: Vec<i64>,
    /// In-block monotone drifts per counter.
    d_plus: Vec<u64>,
    d_minus: Vec<u64>,
    f1_d: i64,
    f1_delta: i64,
    r: u32,
    p: f64,
    eps: f64,
    k: usize,
    sample_const: f64,
    rng: SmallRng,
    scratch: Vec<u32>,
    /// Sampling decisions pre-drawn by `absorb_quiet` for the first
    /// un-absorbed update, consumed (in row order) by the `on_update`
    /// replay of that same update so the RNG stream stays bit-identical
    /// to pure per-update execution. Empty except inside a `step_run`.
    carry: Vec<bool>,
    carry_at: usize,
}

impl<M: CounterMap> RFreqSite<M> {
    /// Fresh site with reduction `map`, error `eps`, sampling constant `c`.
    pub fn new(map: M, eps: f64, k: usize, c: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        let n = map.counters();
        RFreqSite {
            blocks: BlockSite::new(),
            map,
            totals: vec![0; n],
            d_plus: vec![0; n],
            d_minus: vec![0; n],
            f1_d: 0,
            f1_delta: 0,
            r: 0,
            p: sampling_probability_with(c, eps, 0, k),
            eps,
            k,
            sample_const: c,
            rng: SmallRng::seed_from_u64(seed),
            scratch: Vec::new(),
            carry: Vec::new(),
            carry_at: 0,
        }
    }

    /// The sampling decision for the next counter row: a pre-drawn carry
    /// value if `absorb_quiet` already consumed the randomness for this
    /// update, a fresh draw otherwise.
    fn draw_send(&mut self) -> bool {
        if self.carry_at < self.carry.len() {
            let v = self.carry[self.carry_at];
            self.carry_at += 1;
            if self.carry_at == self.carry.len() {
                self.carry.clear();
                self.carry_at = 0;
            }
            v
        } else {
            self.rng.gen_bool(self.p)
        }
    }
}

impl<M: CounterMap> SiteNode for RFreqSite<M> {
    type In = (u64, i64);
    type Up = RFreqUp;
    type Down = RFreqDown;

    fn on_update(&mut self, _t: Time, (item, delta): (u64, i64), out: &mut Outbox<RFreqUp>) {
        debug_assert!(delta == 1 || delta == -1);
        if let Some(c) = self.blocks.on_update(delta) {
            out.send(RFreqUp::Count(c));
        }
        // F1 drift (§3.3, deterministic — cheap and keeps F1 ε-tracked).
        self.f1_d += delta;
        self.f1_delta += delta;
        let f1_fire = if self.r == 0 {
            self.f1_delta != 0
        } else {
            self.f1_delta.unsigned_abs() as f64 >= self.eps * (1u64 << self.r) as f64
        };
        if f1_fire {
            out.send(RFreqUp::F1Drift(self.f1_d));
            self.f1_delta = 0;
        }
        // Per-counter A± sampling.
        self.scratch.clear();
        self.map.map(item, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let c = self.scratch[i] as usize;
            self.totals[c] += delta;
            let send = self.r == 0 || self.p >= 1.0 || self.draw_send();
            if delta > 0 {
                self.d_plus[c] += 1;
                if send {
                    out.send(RFreqUp::SamplePlus {
                        idx: c as u32,
                        d: self.d_plus[c],
                    });
                }
            } else {
                self.d_minus[c] += 1;
                if send {
                    out.send(RFreqUp::SampleMinus {
                        idx: c as u32,
                        d: self.d_minus[c],
                    });
                }
            }
        }
    }

    fn on_down(&mut self, _t: Time, msg: &RFreqDown, _is_request: bool, out: &mut Outbox<RFreqUp>) {
        match msg {
            RFreqDown::Request => {
                let (c, f) = self.blocks.report();
                out.send(RFreqUp::Report { c, f });
            }
            RFreqDown::NewBlock { r } => {
                self.blocks.start_block(*r);
                self.r = *r;
                self.p = sampling_probability_with(self.sample_const, self.eps, *r, self.k);
                self.f1_d = 0;
                self.f1_delta = 0;
                self.d_plus.fill(0);
                self.d_minus.fill(0);
                // Deterministic heavy reports under the new radius — the
                // term the open problem is about; E14 measures its share.
                let thresh = self.eps * (1u64 << *r) as f64 / 3.0;
                for (idx, &total) in self.totals.iter().enumerate() {
                    if total != 0 && total.unsigned_abs() as f64 >= thresh {
                        out.send(RFreqUp::Heavy {
                            idx: idx as u32,
                            value: total,
                        });
                    }
                }
            }
        }
    }

    fn absorb_quiet(&mut self, _t0: Time, inputs: &[(u64, i64)]) -> usize {
        // In `r ≥ 1` blocks with `p < 1` an update is quiet iff it fires
        // neither the partition counter, nor the F1 drift condition, nor
        // any of its rows' sampling draws. The thresholds are constant
        // between messages and hoisted; the sampling draws must come from
        // the same RNG stream the per-update path would consume, so the
        // draws for the first *loud* update are parked in `carry` for its
        // `on_update` replay. `r = 0` and `p ≥ 1` forward every update —
        // nothing to absorb.
        if self.r == 0 || self.p >= 1.0 {
            return 0;
        }
        debug_assert!(
            self.carry.is_empty(),
            "carry must be consumed before the next absorb"
        );
        let cap = (self.blocks.until_fire() as usize).min(inputs.len());
        let f1_band = self.eps * (1u64 << self.r) as f64;
        let mut f1_acc = self.f1_delta;
        let mut run_sum = 0i64;
        let mut n = 0;
        'outer: while n < cap {
            let (item, delta) = inputs[n];
            debug_assert!(delta == 1 || delta == -1);
            let f1_next = f1_acc + delta;
            if f1_next.unsigned_abs() as f64 >= f1_band {
                break;
            }
            self.scratch.clear();
            self.map.map(item, &mut self.scratch);
            for row in 0..self.scratch.len() {
                let send = self.rng.gen_bool(self.p);
                if send {
                    // Park every draw made for this update; its replay
                    // consumes them in the same row order.
                    self.carry.clear();
                    self.carry_at = 0;
                    self.carry.extend(std::iter::repeat_n(false, row));
                    self.carry.push(true);
                    break 'outer;
                }
            }
            for &c in &self.scratch {
                self.totals[c as usize] += delta;
                if delta > 0 {
                    self.d_plus[c as usize] += 1;
                } else {
                    self.d_minus[c as usize] += 1;
                }
            }
            self.f1_d += delta;
            f1_acc = f1_next;
            run_sum += delta;
            n += 1;
        }
        self.blocks.absorb_run(n as u64, run_sum);
        self.f1_delta = f1_acc;
        n
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.seq_i64(&self.totals);
        enc.seq_u64(&self.d_plus);
        enc.seq_u64(&self.d_minus);
        enc.i64(self.f1_d);
        enc.i64(self.f1_delta);
        enc.u32(self.r);
        enc.f64(self.p);
        save_rng(&self.rng, enc);
        // The carry is empty at every observable boundary (it only lives
        // inside a `step_run`), but serialize it anyway so the format
        // cannot silently drop state if that invariant ever changes.
        enc.seq_bool(&self.carry);
        enc.usize(self.carry_at);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        dec.fill_i64("counter totals", &mut self.totals)?;
        dec.fill_u64("A+ drifts", &mut self.d_plus)?;
        dec.fill_u64("A- drifts", &mut self.d_minus)?;
        self.f1_d = dec.i64()?;
        self.f1_delta = dec.i64()?;
        self.r = dec.u32()?;
        self.blocks.check_restored(self.r, Some(self.f1_d))?;
        self.p = load_probability(dec)?;
        self.rng = load_rng(dec)?;
        self.carry = dec.seq_bool("sampling carry")?;
        self.carry_at = dec.usize()?;
        if self.carry_at > self.carry.len() {
            return Err(CodecError::BadValue {
                what: "sampling carry cursor",
            });
        }
        Ok(())
    }
}

/// Message-breakdown counters kept by the coordinator, for E14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RFreqBreakdown {
    /// Sampled in-block A± messages received.
    pub sampled: u64,
    /// Block-end deterministic heavy reports received.
    pub heavy: u64,
    /// F1 drift messages received.
    pub f1_drift: u64,
    /// Partition messages received (counts + report replies).
    pub partition: u64,
}

/// Coordinator state of the randomized frequency tracker.
#[derive(Debug, Clone)]
pub struct RFreqCoord<M: CounterMap> {
    blocks: BlockCoordinator,
    map: M,
    /// Block-start bases per counter (from heavy reports).
    base: Vec<i64>,
    /// Per-site × per-counter drift estimates, A⁺ then A⁻, row-major by
    /// site: index = site·C + c.
    dhat_plus: Vec<f64>,
    dhat_minus: Vec<f64>,
    /// Σ_i (d̂⁺_ic − d̂⁻_ic), maintained incrementally.
    drift: Vec<f64>,
    /// `base[c] + round(drift[c])` — the combined estimate vector handed
    /// to the counter-map assembler.
    combined: Vec<i64>,
    f1_dhat: Vec<i64>,
    f1_dhat_sum: i64,
    p: f64,
    eps: f64,
    k: usize,
    sample_const: f64,
    breakdown: RFreqBreakdown,
}

impl<M: CounterMap> RFreqCoord<M> {
    /// Fresh coordinator (reduction must match the sites').
    pub fn new(k: usize, map: M, eps: f64, c: f64) -> Self {
        let n = map.counters();
        RFreqCoord {
            blocks: BlockCoordinator::new(BlockConfig::new(k)),
            map,
            base: vec![0; n],
            dhat_plus: vec![0.0; n * k],
            dhat_minus: vec![0.0; n * k],
            drift: vec![0.0; n],
            combined: vec![0; n],
            f1_dhat: vec![0; k],
            f1_dhat_sum: 0,
            p: sampling_probability_with(c, eps, 0, k),
            eps,
            k,
            sample_const: c,
            breakdown: RFreqBreakdown::default(),
        }
    }

    /// Access the partitioner.
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.blocks
    }

    /// Estimate of item `ℓ`'s frequency.
    pub fn estimate_item(&self, item: u64) -> i64 {
        self.map.assemble(item, &self.combined)
    }

    /// Estimated `F1(n)`.
    pub fn estimated_f1(&self) -> i64 {
        self.blocks.f_sync() + self.f1_dhat_sum
    }

    /// Message breakdown (received at the coordinator) for E14.
    pub fn breakdown(&self) -> RFreqBreakdown {
        self.breakdown
    }

    /// Coordinator-side space in words: block-start bases, per-site drift
    /// estimates (A⁺ and A⁻), combined estimates, reduction setup, and
    /// per-site F1 drifts.
    pub fn space_words(&self) -> usize {
        self.base.len()
            + self.dhat_plus.len()
            + self.dhat_minus.len()
            + self.drift.len()
            + self.combined.len()
            + self.map.setup_words()
            + self.f1_dhat.len()
    }

    fn apply_sample(&mut self, site: usize, idx: u32, d: u64, plus: bool) {
        let c = idx as usize;
        let est = if self.blocks.r() == 0 {
            d as f64
        } else {
            d as f64 - 1.0 + 1.0 / self.p
        };
        let slot = site * self.base.len() + c;
        let (store, sign) = if plus {
            (&mut self.dhat_plus[slot], 1.0)
        } else {
            (&mut self.dhat_minus[slot], -1.0)
        };
        self.drift[c] += sign * (est - *store);
        *store = est;
        self.combined[c] = self.base[c].saturating_add(self.drift[c].round() as i64);
    }
}

impl<M: CounterMap> CoordinatorNode for RFreqCoord<M> {
    type Up = RFreqUp;
    type Down = RFreqDown;

    fn on_up(&mut self, t: Time, site: usize, msg: RFreqUp, out: &mut CoordOutbox<RFreqDown>) {
        match msg {
            RFreqUp::Count(c) => {
                self.breakdown.partition += 1;
                if self.blocks.on_count(c) {
                    out.request(RFreqDown::Request);
                }
            }
            RFreqUp::Report { c, f } => {
                self.breakdown.partition += 1;
                if let Some(r) = self.blocks.on_report(t, c, f) {
                    self.base.fill(0);
                    self.dhat_plus.fill(0.0);
                    self.dhat_minus.fill(0.0);
                    self.drift.fill(0.0);
                    self.combined.fill(0);
                    self.f1_dhat.fill(0);
                    self.f1_dhat_sum = 0;
                    self.p = sampling_probability_with(self.sample_const, self.eps, r, self.k);
                    out.broadcast(RFreqDown::NewBlock { r });
                }
            }
            RFreqUp::F1Drift(d) => {
                self.breakdown.f1_drift += 1;
                self.f1_dhat_sum += d - self.f1_dhat[site];
                self.f1_dhat[site] = d;
            }
            RFreqUp::Heavy { idx, value } => {
                self.breakdown.heavy += 1;
                let c = idx as usize;
                self.base[c] += value;
                self.combined[c] = self.base[c].saturating_add(self.drift[c].round() as i64);
            }
            RFreqUp::SamplePlus { idx, d } => {
                self.breakdown.sampled += 1;
                self.apply_sample(site, idx, d, true);
            }
            RFreqUp::SampleMinus { idx, d } => {
                self.breakdown.sampled += 1;
                self.apply_sample(site, idx, d, false);
            }
        }
    }

    fn estimate(&self) -> i64 {
        self.estimated_f1()
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.seq_i64(&self.base);
        enc.seq_f64(&self.dhat_plus);
        enc.seq_f64(&self.dhat_minus);
        enc.seq_f64(&self.drift);
        enc.seq_i64(&self.combined);
        enc.seq_i64(&self.f1_dhat);
        enc.i64(self.f1_dhat_sum);
        enc.f64(self.p);
        enc.u64(self.breakdown.sampled);
        enc.u64(self.breakdown.heavy);
        enc.u64(self.breakdown.f1_drift);
        enc.u64(self.breakdown.partition);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        dec.fill_i64("block-start bases", &mut self.base)?;
        dec.fill_f64("A+ estimates", &mut self.dhat_plus)?;
        dec.fill_f64("A- estimates", &mut self.dhat_minus)?;
        dec.fill_f64("drift sums", &mut self.drift)?;
        dec.fill_i64("combined estimates", &mut self.combined)?;
        dec.fill_i64("F1 drifts", &mut self.f1_dhat)?;
        self.f1_dhat_sum = dec.i64()?;
        check_sum("F1 drift sum", self.f1_dhat_sum, &self.f1_dhat)?;
        self.p = load_probability(dec)?;
        self.breakdown = RFreqBreakdown {
            sampled: dec.u64()?,
            heavy: dec.u64()?,
            f1_drift: dec.u64()?,
            partition: dec.u64()?,
        };
        Ok(())
    }
}

/// Named constructors for the randomized frequency tracker.
#[derive(Debug, Clone, Copy)]
pub struct RandFreqTracker;

impl RandFreqTracker {
    /// Exact per-item counters, sampled drift (`c = 9` default).
    pub fn sim_exact(
        k: usize,
        eps: f64,
        universe: usize,
        seed: u64,
    ) -> StarSim<RFreqSite<IdentityMap>, RFreqCoord<IdentityMap>> {
        Self::sim_exact_with(k, eps, universe, seed, DEFAULT_SAMPLE_CONST)
    }

    /// Exact per-item counters with an explicit sampling constant.
    pub fn sim_exact_with(
        k: usize,
        eps: f64,
        universe: usize,
        seed: u64,
        c: f64,
    ) -> StarSim<RFreqSite<IdentityMap>, RFreqCoord<IdentityMap>> {
        StarSim::with_k(
            k,
            |i| {
                RFreqSite::new(
                    IdentityMap::new(universe),
                    eps,
                    k,
                    c,
                    seed.wrapping_add(i as u64),
                )
            },
            RFreqCoord::new(k, IdentityMap::new(universe), eps, c),
        )
    }

    /// Count-Min reduction, sampled drift.
    pub fn sim_countmin(
        k: usize,
        eps: f64,
        seed: u64,
    ) -> StarSim<RFreqSite<CountMinMap>, RFreqCoord<CountMinMap>> {
        let c = DEFAULT_SAMPLE_CONST;
        StarSim::with_k(
            k,
            |i| {
                RFreqSite::new(
                    CountMinMap::appendix_h(eps / 3.0, seed),
                    eps,
                    k,
                    c,
                    seed.wrapping_add(1 + i as u64),
                )
            },
            RFreqCoord::new(k, CountMinMap::appendix_h(eps / 3.0, seed), eps, c),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ItemDriver;
    use crate::blocks::BlockTrace;
    use crate::frequencies::ExactFreqTracker;
    use dsv_gen::{ItemStreamGen, RoundRobin};
    use dsv_net::ItemUpdate;
    use dsv_sketch::{ExactCounts, FreqSketch};

    fn stream(n: u64, k: usize, universe: usize, seed: u64) -> Vec<ItemUpdate> {
        ItemStreamGen::new(seed, universe, 1.1, 0.35, 1).updates(n, RoundRobin::new(k))
    }

    #[test]
    fn item_estimates_are_usually_within_budget() {
        let (k, eps, universe) = (4usize, 0.2f64, 300usize);
        let updates = stream(15_000, k, universe, 7);
        let mut truth = ExactCounts::new();
        let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 11);
        let mut audits = 0u64;
        let mut violations = 0u64;
        for u in &updates {
            truth.update(u.item, u.delta);
            sim.step(u.site, (u.item, u.delta));
            if u.time % 500 == 0 {
                let budget = eps * truth.f1() as f64;
                for item in 0..universe as u64 {
                    audits += 1;
                    let err = (sim.coordinator().estimate_item(item) - truth.estimate(item)).abs();
                    if err as f64 > budget {
                        violations += 1;
                    }
                }
            }
        }
        let rate = violations as f64 / audits as f64;
        assert!(rate < 2.0 / 9.0, "violation rate {rate}");
    }

    #[test]
    fn f1_is_tracked_deterministically() {
        let (k, eps, universe) = (4usize, 0.15f64, 200usize);
        let updates = stream(10_000, k, universe, 13);
        let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 3);
        let mut f1 = 0i64;
        for u in &updates {
            f1 += u.delta;
            let est = sim.step(u.site, (u.item, u.delta));
            assert!((f1 - est).abs() as f64 <= eps * f1 as f64 + 1e-9);
        }
    }

    #[test]
    fn block_ends_resync_exactly() {
        let (k, eps, universe) = (4usize, 0.2f64, 150usize);
        let updates = stream(12_000, k, universe, 17);
        let mut truth = ExactCounts::new();
        let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 19);
        let mut trace = BlockTrace::attach(sim.coordinator().blocks());
        let mut blocks_seen = 0usize;
        for u in &updates {
            truth.update(u.item, u.delta);
            sim.step(u.site, (u.item, u.delta));
            trace.observe(sim.time(), sim.coordinator().blocks());
            let nblocks = trace.blocks().len();
            if nblocks > blocks_seen {
                blocks_seen = nblocks;
                // Immediately after a block end, heavy counters were just
                // reported exactly; light ones are ≤ ε·2^r/3 per site.
                let r = sim.coordinator().blocks().r();
                let slack = k as f64 * eps * (1u64 << r) as f64 / 3.0;
                for item in 0..universe as u64 {
                    let err = (sim.coordinator().estimate_item(item) - truth.estimate(item)).abs();
                    assert!(
                        err as f64 <= slack + 1e-9,
                        "post-sync error {err} > {slack} for item {item}"
                    );
                }
            }
        }
        assert!(blocks_seen > 3);
    }

    #[test]
    fn sampled_messages_shrink_with_larger_k_per_site() {
        // The sampled (per-site) traffic rate should scale like 1/√k.
        let (eps, universe, n) = (0.1f64, 100usize, 40_000u64);
        let mut rates = Vec::new();
        for k in [4usize, 16, 64] {
            let updates = stream(n, k, universe, 23);
            let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 29);
            for u in &updates {
                sim.step(u.site, (u.item, u.delta));
            }
            let b = sim.coordinator().breakdown();
            rates.push(b.sampled as f64);
        }
        // Not strictly monotone in theory (partition boundaries shift),
        // but ×16 in k should not ×16 the sampled traffic.
        assert!(
            rates[2] < rates[0] * 8.0,
            "sampled traffic grew too fast with k: {rates:?}"
        );
    }

    #[test]
    fn breakdown_accounts_received_messages() {
        let (k, eps, universe) = (4usize, 0.2f64, 100usize);
        let updates = stream(8_000, k, universe, 31);
        let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 37);
        for u in &updates {
            sim.step(u.site, (u.item, u.delta));
        }
        let b = sim.coordinator().breakdown();
        let total = b.sampled + b.heavy + b.f1_drift + b.partition;
        // Upward messages only (the stats ledger also counts downward).
        assert_eq!(total, sim.stats().upward_messages());
        assert!(b.heavy > 0 && b.sampled > 0 && b.partition > 0);
    }

    #[test]
    fn comparable_accuracy_to_deterministic_variant_on_same_stream() {
        let (k, eps, universe) = (4usize, 0.2f64, 250usize);
        let updates = stream(12_000, k, universe, 41);
        let mut det = ExactFreqTracker::sim(k, eps, universe);
        let det_report = ItemDriver::new(eps)
            .unwrap()
            .with_item_audit(1_000)
            .run_items(&mut det, &updates)
            .unwrap();
        assert_eq!(det_report.item_violations, 0);
        // The randomized variant is allowed failures but must stay far
        // from always-wrong.
        let mut truth = ExactCounts::new();
        let mut sim = RandFreqTracker::sim_exact(k, eps, universe, 43);
        let mut worst = 0.0f64;
        for u in &updates {
            truth.update(u.item, u.delta);
            sim.step(u.site, (u.item, u.delta));
        }
        let f1 = truth.f1();
        for item in 0..universe as u64 {
            let err = (sim.coordinator().estimate_item(item) - truth.estimate(item)).abs();
            worst = worst.max(err as f64 / f1 as f64);
        }
        assert!(worst <= 2.0 * eps, "worst end-of-run error {worst}");
    }
}

//! Distributed item-frequency tracking — Section 5.1 / Appendix H.
//!
//! A dataset `D(t)` over a universe `U` evolves by single-item insertions
//! and deletions observed at `k` sites; the coordinator must maintain, for
//! **every** item `ℓ` and all times `n`, an estimate with
//! `|f_ℓ(n) − f̂_ℓ(n)| ≤ ε·F1(n)` (where `F1 = |D|`), deterministically
//! for the exact and CR-precis variants and w.p. ≥ 8/9 per item for the
//! Count-Min variant.
//!
//! Structure (following H.0.1/H.0.2):
//!
//! 1. **Partition time into blocks using `f = F1`** (§3.1, reused
//!    verbatim) — so `r = 0` or `F1(n) ∈ [2^r·k, 2^r·5k]` inside blocks,
//!    and `F1(n_j)` is known exactly at block ends.
//! 2. **Reduce items to counters** with a [`CounterMap`] (identity = exact
//!    per-item counters; Count-Min or CR-precis rows for small space), and
//!    track each counter `c`:
//!    * at each block end, after learning the new radius `r`, each site
//!      reports every total counter `f_ic ≥ ε·2^r/3` exactly; the
//!      coordinator rebuilds its estimates from these reports (unreported
//!      counters are treated as 0, an error < ε·2^r/3 per site);
//!    * within an `r ≥ 1` block, site `i` sends the accumulated per-counter
//!      change `δ_ic` whenever `|δ_ic| ≥ ε·2^r/3`; in `r = 0` blocks every
//!      update is forwarded (exact, as in §3.3).
//! 3. The coordinator additionally runs the §3.3 drift protocol on `F1`
//!    itself, so [`dsv_net::CoordinatorNode::estimate`] returns an
//!    `ε`-accurate `F1` at all times.
//!
//! Per-item error inside an `r ≥ 1` block: each site contributes an
//! unreported base `< ε·2^r/3` plus a pending `δ < ε·2^r/3` per counter,
//! summing to `< (2/3)·ε·2^r·k ≤ (2/3)·ε·F1(n)`; the counter reduction
//! adds at most `ε·F1/3` (CR-precis deterministically, Count-Min w.p. 8/9),
//! for a total of `ε·F1(n)`.

use crate::blocks::{check_sum, BlockConfig, BlockCoordinator, BlockSite};
use dsv_net::codec::{restore_check, CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};
use dsv_sketch::{CountMinMap, CounterMap, CrPrecisMap, IdentityMap};

/// Site → coordinator messages of the frequency tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqUp {
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
    /// Block-start report of one heavy total counter.
    Heavy {
        /// Counter index.
        idx: u32,
        /// Exact total `f_ic` at the reporting site.
        value: i64,
    },
    /// In-block per-counter change `δ_ic`.
    Delta {
        /// Counter index.
        idx: u32,
        /// Accumulated per-counter change `δ_ic` since the last message.
        delta: i64,
    },
}

impl WireSize for FreqUp {
    fn words(&self) -> usize {
        match self {
            FreqUp::Count(_) | FreqUp::F1Drift(_) => 1,
            FreqUp::Report { .. } | FreqUp::Heavy { .. } | FreqUp::Delta { .. } => 2,
        }
    }
}

/// Coordinator → site messages of the frequency tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqDown {
    /// Partition: request `(c_i, f_i)`.
    Request,
    /// Partition: new block with radius `r`; sites respond with their
    /// heavy-counter reports.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for FreqDown {
    fn words(&self) -> usize {
        1
    }
}

/// The in-block per-counter threshold `ε·2^r/3`.
#[inline]
fn counter_threshold(eps: f64, r: u32) -> f64 {
    eps * (1u64 << r) as f64 / 3.0
}

/// Whether a counter's pending change `p` must be sent: any change in an
/// (exact) `r = 0` block, one that reached the band `thresh` otherwise.
#[inline]
fn counter_fires(r: u32, thresh: f64, p: i64) -> bool {
    if r == 0 {
        p != 0
    } else {
        p.unsigned_abs() as f64 >= thresh
    }
}

/// Per-site state of the frequency tracker, generic over the item→counter
/// reduction `M`.
#[derive(Debug, Clone)]
pub struct FreqSite<M: CounterMap> {
    blocks: BlockSite,
    map: M,
    /// All-time total per counter (`f_ic`).
    totals: Vec<i64>,
    /// Pending per-counter change since last message (`δ_ic`).
    pending: Vec<i64>,
    /// §3.3 drift state for F1.
    f1_d: i64,
    f1_delta: i64,
    r: u32,
    eps: f64,
    scratch: Vec<u32>,
}

impl<M: CounterMap> FreqSite<M> {
    /// Fresh site with reduction `map` and error parameter `eps`.
    pub fn new(map: M, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        let c = map.counters();
        FreqSite {
            blocks: BlockSite::new(),
            map,
            totals: vec![0; c],
            pending: vec![0; c],
            f1_d: 0,
            f1_delta: 0,
            r: 0,
            eps,
            scratch: Vec::new(),
        }
    }
}

impl<M: CounterMap> SiteNode for FreqSite<M> {
    type In = (u64, i64);
    type Up = FreqUp;
    type Down = FreqDown;

    fn on_update(&mut self, _t: Time, (item, delta): (u64, i64), out: &mut Outbox<FreqUp>) {
        debug_assert!(delta == 1 || delta == -1, "item streams are ±1");
        // Partition machinery runs on the F1 increments.
        if let Some(c) = self.blocks.on_update(delta) {
            out.send(FreqUp::Count(c));
        }
        // §3.3 drift on F1 for the coordinator's F1 estimate.
        self.f1_d += delta;
        self.f1_delta += delta;
        let f1_fire = if self.r == 0 {
            self.f1_delta != 0
        } else {
            self.f1_delta.unsigned_abs() as f64 >= self.eps * (1u64 << self.r) as f64
        };
        if f1_fire {
            out.send(FreqUp::F1Drift(self.f1_d));
            self.f1_delta = 0;
        }
        // Per-counter tracking.
        let thresh = counter_threshold(self.eps, self.r);
        self.scratch.clear();
        self.map.map(item, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let c = self.scratch[i] as usize;
            self.totals[c] += delta;
            self.pending[c] += delta;
            if counter_fires(self.r, thresh, self.pending[c]) {
                out.send(FreqUp::Delta {
                    idx: c as u32,
                    delta: self.pending[c],
                });
                self.pending[c] = 0;
            }
        }
    }

    fn on_down(&mut self, _t: Time, msg: &FreqDown, _is_request: bool, out: &mut Outbox<FreqUp>) {
        match msg {
            FreqDown::Request => {
                let (c, f) = self.blocks.report();
                out.send(FreqUp::Report { c, f });
            }
            FreqDown::NewBlock { r } => {
                self.blocks.start_block(*r);
                self.r = *r;
                self.f1_d = 0;
                self.f1_delta = 0;
                // Report heavy totals under the *new* radius; everything
                // else restarts from a zero estimate at the coordinator.
                let thresh = counter_threshold(self.eps, *r);
                for (idx, &total) in self.totals.iter().enumerate() {
                    if total != 0 && total.unsigned_abs() as f64 >= thresh {
                        out.send(FreqUp::Heavy {
                            idx: idx as u32,
                            value: total,
                        });
                    }
                }
                self.pending.fill(0);
            }
        }
    }

    fn absorb_quiet(&mut self, _t0: Time, inputs: &[(u64, i64)]) -> usize {
        // All three per-item thresholds are constant between messages —
        // the partition counter's headroom, the §3.3 F1 band `ε·2^r`, and
        // the per-counter band `ε·2^r/3` — so hoist them out of the loop
        // (they change only via `on_down`, which ends the quiet run). An
        // update is quiet iff it fires none of: the block count, the F1
        // drift condition, or any of its counters' pending conditions;
        // the float compares below are the exact compares `on_update`
        // performs, so the absorbed state change is bit-identical.
        let cap = (self.blocks.until_fire() as usize).min(inputs.len());
        if cap == 0 {
            return 0;
        }
        let f1_band = self.eps * (1u64 << self.r) as f64;
        let thresh = counter_threshold(self.eps, self.r);
        let mut f1_acc = self.f1_delta;
        let mut run_sum = 0i64;
        let mut n = 0;
        'outer: while n < cap {
            let (item, delta) = inputs[n];
            debug_assert!(delta == 1 || delta == -1, "item streams are ±1");
            let f1_next = f1_acc + delta;
            let f1_fire = if self.r == 0 {
                f1_next != 0
            } else {
                f1_next.unsigned_abs() as f64 >= f1_band
            };
            if f1_fire {
                break;
            }
            self.scratch.clear();
            self.map.map(item, &mut self.scratch);
            // Counter rows touch pairwise-distinct counters (each map's
            // rows index disjoint ranges), so checking every row against
            // its un-advanced pending value equals the sequential check.
            for &c in &self.scratch {
                if counter_fires(self.r, thresh, self.pending[c as usize] + delta) {
                    break 'outer;
                }
            }
            for &c in &self.scratch {
                self.totals[c as usize] += delta;
                self.pending[c as usize] += delta;
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
        enc.seq_i64(&self.pending);
        enc.i64(self.f1_d);
        enc.i64(self.f1_delta);
        enc.u32(self.r);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        dec.fill_i64("counter totals", &mut self.totals)?;
        dec.fill_i64("pending deltas", &mut self.pending)?;
        self.f1_d = dec.i64()?;
        self.f1_delta = dec.i64()?;
        self.r = dec.u32()?;
        self.blocks.check_restored(self.r, Some(self.f1_d))?;
        let thresh = counter_threshold(self.eps, self.r);
        let quiet = |&p: &i64| !counter_fires(self.r, thresh, p);
        restore_check(self.pending.iter().all(quiet), "pending counter delta")
    }
}

/// Coordinator state of the frequency tracker.
#[derive(Debug, Clone)]
pub struct FreqCoord<M: CounterMap> {
    blocks: BlockCoordinator,
    map: M,
    /// Combined counter estimates `Σ_i f̂_ic`.
    fhat: Vec<i64>,
    /// §3.3 F1 drift estimates.
    f1_dhat: Vec<i64>,
    f1_dhat_sum: i64,
}

impl<M: CounterMap> FreqCoord<M> {
    /// Fresh coordinator for `k` sites with reduction `map` (must be built
    /// from the same seed/shape as the sites').
    pub fn new(k: usize, map: M) -> Self {
        let c = map.counters();
        FreqCoord {
            blocks: BlockCoordinator::new(BlockConfig::new(k)),
            map,
            fhat: vec![0; c],
            f1_dhat: vec![0; k],
            f1_dhat_sum: 0,
        }
    }

    /// Access the partitioner.
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.blocks
    }

    /// Estimate of item `ℓ`'s frequency, assembled from the estimated
    /// counters via the reduction's rule (identity / min / average).
    pub fn estimate_item(&self, item: u64) -> i64 {
        self.map.assemble(item, &self.fhat)
    }

    /// Estimated `F1(n)` (the ε-tracked dataset size).
    pub fn estimated_f1(&self) -> i64 {
        self.blocks.f_sync() + self.f1_dhat_sum
    }

    /// Coordinator-side space in words: counter estimates + reduction
    /// setup + per-site F1 drifts.
    pub fn space_words(&self) -> usize {
        self.fhat.len() + self.map.setup_words() + self.f1_dhat.len()
    }
}

impl<M: CounterMap> CoordinatorNode for FreqCoord<M> {
    type Up = FreqUp;
    type Down = FreqDown;

    fn on_up(&mut self, t: Time, site: usize, msg: FreqUp, out: &mut CoordOutbox<FreqDown>) {
        match msg {
            FreqUp::Count(c) => {
                if self.blocks.on_count(c) {
                    out.request(FreqDown::Request);
                }
            }
            FreqUp::Report { c, f } => {
                if let Some(r) = self.blocks.on_report(t, c, f) {
                    // Rebuild from scratch: zero estimates, ask for heavy
                    // reports under the new radius.
                    self.fhat.fill(0);
                    self.f1_dhat.fill(0);
                    self.f1_dhat_sum = 0;
                    out.broadcast(FreqDown::NewBlock { r });
                }
            }
            FreqUp::F1Drift(d) => {
                self.f1_dhat_sum += d - self.f1_dhat[site];
                self.f1_dhat[site] = d;
            }
            FreqUp::Heavy { idx, value } => {
                self.fhat[idx as usize] += value;
            }
            FreqUp::Delta { idx, delta } => {
                self.fhat[idx as usize] += delta;
            }
        }
    }

    fn estimate(&self) -> i64 {
        self.estimated_f1()
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.seq_i64(&self.fhat);
        enc.seq_i64(&self.f1_dhat);
        enc.i64(self.f1_dhat_sum);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        dec.fill_i64("counter estimates", &mut self.fhat)?;
        dec.fill_i64("F1 drifts", &mut self.f1_dhat)?;
        self.f1_dhat_sum = dec.i64()?;
        check_sum("F1 drift sum", self.f1_dhat_sum, &self.f1_dhat)
    }
}

// ---------------------------------------------------------------------------
// Named variants.
// ---------------------------------------------------------------------------

/// Exact per-item counters (H.0.1): space `O(|U|)`, deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ExactFreqTracker;

impl ExactFreqTracker {
    /// Simulator over a `universe`-sized item space.
    pub fn sim(
        k: usize,
        eps: f64,
        universe: usize,
    ) -> StarSim<FreqSite<IdentityMap>, FreqCoord<IdentityMap>> {
        StarSim::with_k(
            k,
            |_| FreqSite::new(IdentityMap::new(universe), eps),
            FreqCoord::new(k, IdentityMap::new(universe)),
        )
    }
}

/// Count-Min-backed tracker (H.0.2): `O(1/ε)` counters, per-item success
/// probability ≥ 8/9.
#[derive(Debug, Clone, Copy)]
pub struct CountMinFreqTracker;

impl CountMinFreqTracker {
    /// Simulator with the Appendix H Count-Min shape (3 × `27/ε`), all
    /// parties deriving the same hashes from `seed`.
    pub fn sim(
        k: usize,
        eps: f64,
        seed: u64,
    ) -> StarSim<FreqSite<CountMinMap>, FreqCoord<CountMinMap>> {
        StarSim::with_k(
            k,
            |_| FreqSite::new(CountMinMap::appendix_h(eps / 3.0, seed), eps),
            FreqCoord::new(k, CountMinMap::appendix_h(eps / 3.0, seed)),
        )
    }
}

/// CR-precis-backed tracker (H.0.2): deterministic small-space variant.
#[derive(Debug, Clone, Copy)]
pub struct CrPrecisFreqTracker;

impl CrPrecisFreqTracker {
    /// Simulator whose reduction guarantees collision error ≤ `ε·F1/3`
    /// deterministically over `universe`.
    pub fn sim(
        k: usize,
        eps: f64,
        universe: u64,
    ) -> StarSim<FreqSite<CrPrecisMap>, FreqCoord<CrPrecisMap>> {
        StarSim::with_k(
            k,
            |_| FreqSite::new(CrPrecisMap::for_guarantee(eps / 3.0, universe), eps),
            FreqCoord::new(k, CrPrecisMap::for_guarantee(eps / 3.0, universe)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ItemDriver, ItemRunReport, ItemTracker};
    use dsv_gen::{ItemStreamGen, RoundRobin};
    use dsv_net::ItemUpdate;

    fn audited(
        sim: &mut impl ItemTracker,
        eps: f64,
        every: u64,
        updates: &[ItemUpdate],
    ) -> ItemRunReport {
        ItemDriver::new(eps)
            .unwrap()
            .with_item_audit(every)
            .run_items(sim, updates)
            .unwrap()
    }

    fn zipf_stream(n: u64, k: usize, universe: usize, seed: u64) -> Vec<ItemUpdate> {
        ItemStreamGen::new(seed, universe, 1.1, 0.35, 1).updates(n, RoundRobin::new(k))
    }

    #[test]
    fn exact_variant_has_zero_item_violations() {
        let (k, eps, universe) = (4, 0.2, 500);
        let updates = zipf_stream(20_000, k, universe, 7);
        let mut sim = ExactFreqTracker::sim(k, eps, universe);
        let report = audited(&mut sim, eps, 500, &updates);
        assert!(report.audits > 0);
        assert_eq!(
            report.item_violations, 0,
            "max ratio {}",
            report.max_err_over_f1
        );
        assert_eq!(report.run.violations, 0);
    }

    #[test]
    fn crprecis_variant_is_deterministically_correct() {
        let (k, eps, universe) = (4, 0.25, 400u64);
        let updates = zipf_stream(15_000, k, universe as usize, 11);
        let mut sim = CrPrecisFreqTracker::sim(k, eps, universe);
        let report = audited(&mut sim, eps, 500, &updates);
        assert!(report.audits > 0);
        assert_eq!(
            report.item_violations, 0,
            "max ratio {}",
            report.max_err_over_f1
        );
    }

    #[test]
    fn countmin_variant_rarely_violates() {
        let (k, eps, universe) = (4, 0.2, 2_000);
        let updates = zipf_stream(20_000, k, universe, 13);
        let mut sim = CountMinFreqTracker::sim(k, eps, 99);
        let report = audited(&mut sim, eps, 500, &updates);
        assert!(report.audits > 0);
        // Per-item failure probability ≤ 1/9; audited rate should stay
        // well under that with margin.
        assert!(
            report.item_violation_rate() < 1.0 / 9.0,
            "violation rate {}",
            report.item_violation_rate()
        );
    }

    #[test]
    fn sketched_coordinators_use_less_space_than_exact() {
        let (k, eps, universe) = (2, 0.1, 50_000);
        let updates = zipf_stream(10_000, k, universe, 17);

        let mut exact = ExactFreqTracker::sim(k, eps, universe);
        let re = audited(&mut exact, eps, 10_000, &updates);

        let mut cm = CountMinFreqTracker::sim(k, eps, 3);
        let rcm = audited(&mut cm, eps, 10_000, &updates);

        assert!(
            rcm.coord_space_words * 10 < re.coord_space_words,
            "CM {} words vs exact {} words",
            rcm.coord_space_words,
            re.coord_space_words
        );
    }

    #[test]
    fn f1_estimate_tracks_dataset_size() {
        let (k, eps, universe) = (8, 0.1, 300);
        let updates = zipf_stream(30_000, k, universe, 23);
        let mut sim = ExactFreqTracker::sim(k, eps, universe);
        let report = audited(&mut sim, eps, 1_000, &updates);
        assert_eq!(report.run.violations, 0);
        assert!(report.run.final_f > 0);
    }

    #[test]
    fn message_cost_scales_with_f1_variability() {
        // Mostly-insert stream: F1 grows ⇒ v(F1) = O(log n) ⇒ few messages.
        let (k, eps, universe) = (4, 0.2, 1_000);
        let grow =
            ItemStreamGen::new(5, universe, 1.1, 0.05, 1).updates(40_000, RoundRobin::new(k));
        let mut sim = ExactFreqTracker::sim(k, eps, universe);
        let r_grow = audited(&mut sim, eps, 40_000, &grow);

        // Heavy-churn stream at small F1: v is much larger ⇒ more messages.
        let churn =
            ItemStreamGen::new(5, universe, 1.1, 0.495, 1).updates(40_000, RoundRobin::new(k));
        let mut sim2 = ExactFreqTracker::sim(k, eps, universe);
        let r_churn = audited(&mut sim2, eps, 40_000, &churn);

        assert!(
            r_churn.run.stats.total_messages() > 2 * r_grow.run.stats.total_messages(),
            "churn {} vs grow {}",
            r_churn.run.stats.total_messages(),
            r_grow.run.stats.total_messages()
        );
    }
}

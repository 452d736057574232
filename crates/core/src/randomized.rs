//! The randomized tracker — Section 3.4.
//!
//! Runs two independent copies `A⁺`/`A⁻` of the Huang–Yi–Zhang sampling
//! estimator over the positive and negative increments of each block: when
//! `f'(n) = +1` arrives at site `i`, a `+1` is fed to `A⁺`; when `−1`
//! arrives, a `+1` is fed to `A⁻`. Both drifts `d⁺_i, d⁻_i` are therefore
//! monotone within the block, which is what the HYZ estimator requires.
//!
//! * **condition** — true with probability `p = min{1, 3/(ε·2^r·√k)}`;
//! * **message** — the new value of `d±_i`;
//! * **update** — the coordinator sets `d̂±_i = d±_i − 1 + 1/p`.
//!
//! Fact 3.1 (HYZ Lemma 2.1) gives `E[d̂±_i] = d±_i` and `Var[d̂±_i] ≤
//! 1/p²`; summing over `2k` independent estimators and applying Chebyshev
//! yields `P(|f̂(n) − f(n)| > ε·2^r·k) ≤ 2/9 < 1/3`, and `ε·2^r·k ≤
//! ε·|f(n)|` inside `r ≥ 1` blocks. Expected in-block cost per block is
//! `p·|B_j| ≤ 30·√k·v_j/ε` messages.
//!
//! **`r = 0` blocks.** The paper's analysis needs `|f(n)| ≥ 2^r·k`, which
//! fails for `r = 0` (where `|f| ≤ 5k` and may be 0). As documented in
//! DESIGN.md we forward every update deterministically in `r = 0` blocks —
//! exactly the deterministic tracker's `r = 0` rule — which keeps the
//! guarantee unconditional there and costs at most one message per update
//! for at most `k` updates per `r = 0` block.

use crate::blocks::{BlockConfig, BlockCoordinator, BlockSite};
use dsv_net::codec::{restore_check, CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Serialize a [`SmallRng`]'s position in its stream (snapshot seam).
pub(crate) fn save_rng(rng: &SmallRng, enc: &mut Enc) {
    for w in rng.state() {
        enc.u64(w);
    }
}

/// Restore a [`SmallRng`] written by [`save_rng`].
pub(crate) fn load_rng(dec: &mut Dec) -> Result<SmallRng, CodecError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = dec.u64()?;
    }
    Ok(SmallRng::from_state(s))
}

/// Restore a sampling probability: it must be one (and never 0 —
/// `p = min{1, c/(ε·2^r·√k)}` is positive), or the next draw panics.
pub(crate) fn load_probability(dec: &mut Dec) -> Result<f64, CodecError> {
    let p = dec.f64()?;
    restore_check(p > 0.0 && p <= 1.0, "sampling probability")?;
    Ok(p)
}

/// Generalized sampling probability `p = min{1, c/(ε·2^r·√k)}`.
///
/// The paper picks `c = 3`, which makes Chebyshev's failure bound
/// `2k/(p²·(ε2^r k)²) = 2/c² = 2/9 < 1/3`. Smaller `c` trades failure
/// probability for messages (`c = 1` gives bound 2, i.e. no guarantee;
/// larger `c` overshoots). Experiment E14 measures this trade-off.
pub fn sampling_probability_with(c: f64, eps: f64, r: u32, k: usize) -> f64 {
    assert!(c > 0.0);
    (c / (eps * (1u64 << r) as f64 * (k as f64).sqrt())).min(1.0)
}

/// Site → coordinator messages of the randomized tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandUp {
    /// Partition: `c_i` reached the threshold.
    Count(u64),
    /// Partition: reply to a report request.
    Report {
        /// `c_i`: unsent update count at the site.
        c: u64,
        /// `f_i`: the site's drift in `f` since the last broadcast.
        f: i64,
    },
    /// In-block `A⁺` sample: the new value of `d⁺_i`.
    Plus(u64),
    /// In-block `A⁻` sample: the new value of `d⁻_i`.
    Minus(u64),
}

impl WireSize for RandUp {
    fn words(&self) -> usize {
        match self {
            RandUp::Count(_) | RandUp::Plus(_) | RandUp::Minus(_) => 1,
            RandUp::Report { .. } => 2,
        }
    }
}

/// Coordinator → site messages of the randomized tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandDown {
    /// Partition: request `(c_i, f_i)`.
    Request,
    /// Partition: new block with radius `r`.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for RandDown {
    fn words(&self) -> usize {
        1
    }
}

/// Per-site state of the randomized tracker.
#[derive(Debug, Clone)]
pub struct RandSite {
    blocks: BlockSite,
    d_plus: u64,
    d_minus: u64,
    r: u32,
    p: f64,
    eps: f64,
    k: usize,
    sample_const: f64,
    rng: SmallRng,
}

impl RandSite {
    /// Fresh site with error `eps`, fleet size `k`, and RNG seed.
    pub fn new(eps: f64, k: usize, seed: u64) -> Self {
        Self::with_sampling_constant(3.0, eps, k, seed)
    }

    /// Fresh site with a non-default sampling constant `c` (see
    /// [`sampling_probability_with`]). The coordinator must be built with
    /// the same constant.
    pub fn with_sampling_constant(c: f64, eps: f64, k: usize, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        RandSite {
            blocks: BlockSite::new(),
            d_plus: 0,
            d_minus: 0,
            r: 0,
            p: sampling_probability_with(c, eps, 0, k),
            eps,
            k,
            sample_const: c,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SiteNode for RandSite {
    type In = i64;
    type Up = RandUp;
    type Down = RandDown;

    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<RandUp>) {
        if let Some(c) = self.blocks.on_update(delta) {
            out.send(RandUp::Count(c));
        }
        if delta == 0 {
            return;
        }
        let send = if self.r == 0 {
            true // exact forwarding in r = 0 blocks (see module docs)
        } else {
            self.p >= 1.0 || self.rng.gen_bool(self.p)
        };
        if delta > 0 {
            self.d_plus += 1;
            if send {
                out.send(RandUp::Plus(self.d_plus));
            }
        } else {
            self.d_minus += 1;
            if send {
                out.send(RandUp::Minus(self.d_minus));
            }
        }
    }

    fn on_down(&mut self, _t: Time, msg: &RandDown, _is_request: bool, out: &mut Outbox<RandUp>) {
        match msg {
            RandDown::Request => {
                let (c, f) = self.blocks.report();
                out.send(RandUp::Report { c, f });
            }
            RandDown::NewBlock { r } => {
                self.blocks.start_block(*r);
                self.r = *r;
                self.p = sampling_probability_with(self.sample_const, self.eps, *r, self.k);
                self.d_plus = 0;
                self.d_minus = 0;
            }
        }
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.u64(self.d_plus);
        enc.u64(self.d_minus);
        enc.u32(self.r);
        enc.f64(self.p);
        save_rng(&self.rng, enc);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        self.d_plus = dec.u64()?;
        self.d_minus = dec.u64()?;
        self.r = dec.u32()?;
        self.blocks.check_restored(self.r, None)?;
        self.p = load_probability(dec)?;
        self.rng = load_rng(dec)?;
        Ok(())
    }
}

/// Coordinator state of the randomized tracker.
#[derive(Debug, Clone)]
pub struct RandCoord {
    blocks: BlockCoordinator,
    dhat_plus: Vec<f64>,
    dhat_minus: Vec<f64>,
    sum_plus: f64,
    sum_minus: f64,
    p: f64,
    eps: f64,
    k: usize,
    sample_const: f64,
}

impl RandCoord {
    /// Fresh coordinator for `k` sites with error `eps`.
    pub fn new(k: usize, eps: f64) -> Self {
        Self::with_sampling_constant(3.0, k, eps)
    }

    /// Fresh coordinator with a non-default sampling constant `c` (must
    /// match the sites').
    pub fn with_sampling_constant(c: f64, k: usize, eps: f64) -> Self {
        RandCoord {
            blocks: BlockCoordinator::new(BlockConfig::new(k)),
            dhat_plus: vec![0.0; k],
            dhat_minus: vec![0.0; k],
            sum_plus: 0.0,
            sum_minus: 0.0,
            p: sampling_probability_with(c, eps, 0, k),
            eps,
            k,
            sample_const: c,
        }
    }

    /// Access the partitioner (radius, sync value, block index).
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.blocks
    }

    /// The HYZ estimator update for one received sample value `d`.
    fn apply_sample(&mut self, site: usize, d: u64, plus: bool) {
        // In r = 0 blocks every update is forwarded, so the count is exact;
        // otherwise apply d̂±_i = d±_i − 1 + 1/p (Fact 3.1).
        let est = if self.blocks.r() == 0 {
            d as f64
        } else {
            d as f64 - 1.0 + 1.0 / self.p
        };
        if plus {
            self.sum_plus += est - self.dhat_plus[site];
            self.dhat_plus[site] = est;
        } else {
            self.sum_minus += est - self.dhat_minus[site];
            self.dhat_minus[site] = est;
        }
    }
}

impl CoordinatorNode for RandCoord {
    type Up = RandUp;
    type Down = RandDown;

    fn on_up(&mut self, t: Time, site: usize, msg: RandUp, out: &mut CoordOutbox<RandDown>) {
        match msg {
            RandUp::Count(c) => {
                if self.blocks.on_count(c) {
                    out.request(RandDown::Request);
                }
            }
            RandUp::Report { c, f } => {
                if let Some(r) = self.blocks.on_report(t, c, f) {
                    self.dhat_plus.fill(0.0);
                    self.dhat_minus.fill(0.0);
                    self.sum_plus = 0.0;
                    self.sum_minus = 0.0;
                    self.p = sampling_probability_with(self.sample_const, self.eps, r, self.k);
                    out.broadcast(RandDown::NewBlock { r });
                }
            }
            RandUp::Plus(d) => self.apply_sample(site, d, true),
            RandUp::Minus(d) => self.apply_sample(site, d, false),
        }
    }

    fn estimate(&self) -> i64 {
        // `as` saturates an absurd drift; so does the sum.
        let drift = self.sum_plus - self.sum_minus;
        self.blocks.f_sync().saturating_add(drift.round() as i64)
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.seq_f64(&self.dhat_plus);
        enc.seq_f64(&self.dhat_minus);
        enc.f64(self.sum_plus);
        enc.f64(self.sum_minus);
        enc.f64(self.p);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        dec.fill_f64("A+ estimates", &mut self.dhat_plus)?;
        dec.fill_f64("A- estimates", &mut self.dhat_minus)?;
        self.sum_plus = dec.f64()?;
        self.sum_minus = dec.f64()?;
        self.p = load_probability(dec)?;
        Ok(())
    }
}

/// Convenience constructors and the paper's expected message bounds.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedTracker;

impl RandomizedTracker {
    /// A ready-to-run simulator with `k` sites, error `eps`, and RNG seed.
    /// Site `i` uses seed `seed + i`.
    pub fn sim(k: usize, eps: f64, seed: u64) -> StarSim<RandSite, RandCoord> {
        Self::sim_with_constant(3.0, k, eps, seed)
    }

    /// A simulator with a non-default sampling constant `c` in
    /// `p = min{1, c/(ε·2^r·√k)}` — the E14 ablation knob. `c = 3` is the
    /// paper's choice.
    pub fn sim_with_constant(
        c: f64,
        k: usize,
        eps: f64,
        seed: u64,
    ) -> StarSim<RandSite, RandCoord> {
        StarSim::with_k(
            k,
            |i| RandSite::with_sampling_constant(c, eps, k, seed.wrapping_add(i as u64)),
            RandCoord::with_sampling_constant(c, k, eps),
        )
    }

    /// Expected in-block cost: `p·|B_j| ≤ 6√k/ε` per block; with ≥ 1/10
    /// variability per completed block that is ≤ `60·√k·v/ε`, plus one
    /// block of slack (we keep the paper's 30·√k·v_j/ε per-block form with
    /// the conservative 1/10 constant folded in).
    pub fn inblock_message_bound(k: usize, eps: f64, v: f64) -> f64 {
        let sk = (k as f64).sqrt();
        60.0 * sk * v / eps + 60.0 * sk / eps + 2.0 * k as f64
    }

    /// Total expected message bound: partition (`≤ 50kv + 5k`) + in-block.
    pub fn message_bound(k: usize, eps: f64, v: f64) -> f64 {
        crate::deterministic::DeterministicTracker::partition_message_bound(k, v)
            + Self::inblock_message_bound(k, eps, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Driver;
    use crate::blocks::BlockTrace;
    use crate::variability::Variability;
    use dsv_gen::{AdversarialGen, DeltaGen, MonotoneGen, RoundRobin, WalkGen};

    /// The paper's sampling probability `p = min{1, 3/(ε·2^r·√k)}` of
    /// block radius `r`.
    fn sampling_probability(eps: f64, r: u32, k: usize) -> f64 {
        sampling_probability_with(3.0, eps, r, k)
    }

    #[test]
    fn sampling_probability_formula() {
        assert_eq!(sampling_probability(0.5, 0, 1), 1.0); // 3/(0.5·1·1) = 6 → capped
        let p = sampling_probability(0.1, 5, 16);
        // 3 / (0.1 · 32 · 4) = 0.234375
        assert!((p - 0.234_375).abs() < 1e-12);
        assert!(sampling_probability(0.01, 10, 4) < sampling_probability(0.01, 5, 4));
    }

    #[test]
    fn pointwise_failure_rate_below_one_third() {
        // P(|f − f̂| > ε|f|) < 1/3 at every fixed timestep. We estimate the
        // *worst* per-timestep failure rate over trials; with 40 trials a
        // true rate < 2/9 stays below 1/2 comfortably, and the average rate
        // must be far below 1/3.
        let k = 9;
        let eps = 0.15;
        let n = 6_000u64;
        let trials = 40;
        let mut total_violation_steps = 0u64;
        for seed in 0..trials {
            let updates = WalkGen::fair(1_000 + seed).updates(n, RoundRobin::new(k));
            let mut sim = RandomizedTracker::sim(k, eps, 7_000 + seed);
            let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
            total_violation_steps += report.violations;
        }
        let avg_rate = total_violation_steps as f64 / (trials as f64 * n as f64);
        assert!(
            avg_rate < 1.0 / 3.0,
            "average violation rate {avg_rate} ≥ 1/3"
        );
    }

    #[test]
    fn exact_in_r0_blocks() {
        // While |f| stays below 4k the tracker forwards everything.
        let k = 8;
        let updates = AdversarialGen::hover(2).updates(3_000, RoundRobin::new(k));
        let mut sim = RandomizedTracker::sim(k, 0.2, 1);
        let report = Driver::new(0.2).unwrap().run(&mut sim, &updates).unwrap();
        assert_eq!(report.max_rel_err, 0.0);
    }

    #[test]
    fn block_ends_are_exact_syncs() {
        let k = 4;
        let updates = WalkGen::biased(3, 0.4).updates(20_000, RoundRobin::new(k));
        let mut sim = RandomizedTracker::sim(k, 0.1, 5);
        let mut trace = BlockTrace::attach(sim.coordinator().blocks());
        let mut f = 0i64;
        let mut truth = Vec::with_capacity(updates.len());
        for u in &updates {
            f += u.delta;
            truth.push(f);
            sim.step(u.site, u.delta);
            trace.observe(sim.time(), sim.coordinator().blocks());
        }
        let log = trace.blocks();
        assert!(log.len() > 3);
        for b in log {
            assert_eq!(b.f_end, truth[(b.end - 1) as usize]);
        }
    }

    #[test]
    fn message_cost_tracks_sqrt_k_bound() {
        let eps = 0.1;
        for k in [4usize, 16] {
            let updates = WalkGen::fair(77).updates(40_000, RoundRobin::new(k));
            let v = Variability::of_stream(updates.iter().map(|u| u.delta));
            let mut sim = RandomizedTracker::sim(k, eps, 13);
            let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
            let bound = RandomizedTracker::message_bound(k, eps, v);
            assert!(
                (report.stats.total_messages() as f64) <= bound,
                "k={k}: {} > {bound}",
                report.stats.total_messages()
            );
        }
    }

    #[test]
    fn cheaper_than_deterministic_for_large_k_small_eps() {
        // √k/ε vs k/ε in-block advantage. The stream must actually reach
        // the r ≥ 1 regime (|f| ≥ 4k) — a fair walk with large k never
        // leaves r = 0, where both trackers forward exactly — so use a
        // drifting walk. The shared partition cost and the r = 0 prefix
        // dilute the asymptotic gap; we assert a conservative 1.3× at this
        // scale (measured ≈ 1.5×).
        let k = 256;
        let eps = 0.02;
        let updates = WalkGen::biased(5, 0.6).updates(200_000, RoundRobin::new(k));
        let mut det = crate::deterministic::DeterministicTracker::sim(k, eps);
        let mut rnd = RandomizedTracker::sim(k, eps, 99);
        let det_report = Driver::new(eps).unwrap().run(&mut det, &updates).unwrap();
        let rnd_report = Driver::new(eps).unwrap().run(&mut rnd, &updates).unwrap();
        assert!(
            (rnd_report.stats.total_messages() as f64) * 1.3
                < det_report.stats.total_messages() as f64,
            "randomized {} vs deterministic {}",
            rnd_report.stats.total_messages(),
            det_report.stats.total_messages()
        );
        assert_eq!(det_report.violations, 0);
    }

    #[test]
    fn monotone_stream_is_cheap_randomized() {
        let k = 16;
        let eps = 0.05;
        let n = 100_000u64;
        let updates = MonotoneGen::ones().updates(n, RoundRobin::new(k));
        let mut sim = RandomizedTracker::sim(k, eps, 3);
        let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
        assert!(
            report.stats.total_messages() < n / 5,
            "{} messages",
            report.stats.total_messages()
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let k = 4;
        let updates = WalkGen::fair(2).updates(5_000, RoundRobin::new(k));
        let run = |seed| {
            let mut sim = RandomizedTracker::sim(k, 0.1, seed);
            let report = Driver::new(0.1).unwrap().run(&mut sim, &updates).unwrap();
            (report.stats.total_messages(), report.final_estimate)
        };
        assert_eq!(run(42), run(42));
    }
    #[test]
    fn small_sampling_constant_degrades_guarantee() {
        // E14's mechanism in miniature: c = 0.3 gives Chebyshev bound
        // 2/c^2 >> 1 (no guarantee) and must show real violations where
        // the paper's c = 3 shows none.
        let k = 16;
        let eps = 0.05;
        let n = 30_000u64;
        let updates = WalkGen::biased(31, 0.4).updates(n, RoundRobin::new(k));
        let mut viol_small = 0u64;
        let mut viol_paper = 0u64;
        for seed in 0..8u64 {
            let mut small = RandomizedTracker::sim_with_constant(0.3, k, eps, 100 + seed);
            viol_small += Driver::new(eps)
                .unwrap()
                .run(&mut small, &updates)
                .unwrap()
                .violations;
            let mut paper = RandomizedTracker::sim_with_constant(3.0, k, eps, 100 + seed);
            viol_paper += Driver::new(eps)
                .unwrap()
                .run(&mut paper, &updates)
                .unwrap()
                .violations;
        }
        assert!(
            viol_small > viol_paper,
            "small {viol_small} vs paper {viol_paper}"
        );
        assert!(viol_small > 0);
        // Paper constant stays within the 1/3 budget with a wide margin.
        assert!((viol_paper as f64) < 8.0 * n as f64 / 3.0);
    }
}

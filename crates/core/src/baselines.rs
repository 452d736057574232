//! Baseline trackers the paper compares against.
//!
//! * [`NaiveTracker`] — forward every update; exact, `n` messages. The only
//!   prior worst-case option for *non-monotonic* streams (matching the
//!   `Ω(n)` lower bounds the paper cites).
//! * [`CmyCounter`] — the deterministic monotone counter in the style of
//!   Cormode–Muthukrishnan–Yi \[4\]\[5\]: each site reports its local count
//!   when it grows by a `(1+ε)` factor; `O((k/ε)·log n)` messages,
//!   insert-only.
//! * [`HyzCounter`] — the randomized monotone counter of Huang–Yi–Zhang
//!   \[8\]: sites sample their count with probability `p = min{1, 3√k/(ε·n̂)}`
//!   refreshed in doubling rounds; `O((√k/ε)·log n)` expected messages,
//!   insert-only, correct w.p. ≥ 2/3 per timestep.
//! * [`PeriodicSync`] — a strawman that reports every `B`-th local update;
//!   no relative-error guarantee, used by the crossover experiment E13.
//!
//! The §3 trackers reduce to the CMY/HYZ cost shapes on monotone inputs
//! (where `v = O(log n)`), which experiment E7 verifies.

use crate::randomized::{load_rng, save_rng};
use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Naive: forward everything.
// ---------------------------------------------------------------------------

/// Site of the naive tracker.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveSite;

/// Coordinator of the naive tracker.
#[derive(Debug, Clone, Default)]
pub struct NaiveCoord {
    sum: i64,
}

impl SiteNode for NaiveSite {
    type In = i64;
    type Up = i64;
    type Down = ();
    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<i64>) {
        out.send(delta);
    }
    fn on_down(&mut self, _t: Time, _m: &(), _req: bool, _out: &mut Outbox<i64>) {}

    fn save_state(&self, _enc: &mut Enc) -> bool {
        true // stateless site
    }

    fn load_state(&mut self, _dec: &mut Dec) -> Result<(), CodecError> {
        Ok(())
    }
}

impl CoordinatorNode for NaiveCoord {
    type Up = i64;
    type Down = ();
    fn on_up(&mut self, _t: Time, _site: usize, msg: i64, _out: &mut CoordOutbox<()>) {
        self.sum += msg;
    }
    fn estimate(&self) -> i64 {
        self.sum
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.i64(self.sum);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.sum = dec.i64()?;
        Ok(())
    }
}

/// Constructor for the naive exact tracker.
#[derive(Debug, Clone, Copy)]
pub struct NaiveTracker;

impl NaiveTracker {
    /// A ready-to-run simulator with `k` sites.
    pub fn sim(k: usize) -> StarSim<NaiveSite, NaiveCoord> {
        StarSim::with_k(k, |_| NaiveSite, NaiveCoord::default())
    }
}

// ---------------------------------------------------------------------------
// CMY-style deterministic monotone counter.
// ---------------------------------------------------------------------------

/// Site of the CMY-style counter: reports `n_i` when it reaches
/// `(1+ε)·last_reported` (and reports the very first item).
#[derive(Debug, Clone)]
pub struct CmySite {
    n_i: u64,
    last: u64,
    eps: f64,
}

impl CmySite {
    /// Fresh site with error parameter `eps`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        CmySite {
            n_i: 0,
            last: 0,
            eps,
        }
    }

    /// Largest count that stays quiet under the `(1+ε)·last` report
    /// threshold (u64→f64 is exact below 2^53, so the integer compare
    /// equals `on_update`'s float compare bit for bit). `n_i ≤ last` is
    /// also quiet regardless of the band.
    fn quiet_qmax(&self) -> u64 {
        let threshold = (1.0 + self.eps) * self.last as f64;
        let trunc = threshold as u64;
        let below_band = if (trunc as f64) < threshold {
            trunc
        } else {
            trunc.saturating_sub(1)
        };
        below_band.max(self.last)
    }
}

/// Coordinator of the CMY-style counter.
#[derive(Debug, Clone)]
pub struct CmyCoord {
    nhat: Vec<u64>,
    sum: u64,
}

impl CmyCoord {
    /// Fresh coordinator for `k` sites.
    pub fn new(k: usize) -> Self {
        CmyCoord {
            nhat: vec![0; k],
            sum: 0,
        }
    }
}

impl SiteNode for CmySite {
    type In = i64;
    type Up = u64;
    type Down = ();
    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<u64>) {
        assert!(delta >= 0, "CMY counter is insert-only (monotone streams)");
        self.n_i += delta as u64;
        // Send when n_i ≥ (1+ε)·last; with last = 0 this fires on the first
        // item. Between sends, n_i − last < ε·last, so the coordinator's
        // total undercounts by < ε·f̂ ≤ ε·f.
        if self.n_i as f64 >= (1.0 + self.eps) * self.last as f64 && self.n_i > self.last {
            out.send(self.n_i);
            self.last = self.n_i;
        }
    }
    fn on_down(&mut self, _t: Time, _m: &(), _req: bool, _out: &mut Outbox<u64>) {}

    fn absorb_quiet(&mut self, _t0: Time, inputs: &[i64]) -> usize {
        // The `(1+ε)·last` report threshold is constant between messages;
        // convert it once into the largest count that stays quiet (see
        // `quiet_qmax`). The stream is insert-only, so partial sums are
        // monotone and a chunk is quiet iff its *last* sum is — the scan
        // runs in 64-wide chunks (one all-non-negative check plus one sum
        // per chunk, both branch-free over the lanes) and only the chunk
        // that crosses the threshold is rescanned scalar for the exact
        // stop index. Negative deltas and u64 overflow drop to the scalar
        // loop so the insert-only assert fires exactly where the
        // per-update path would have fired it.
        let qmax = self.quiet_qmax();
        let mut acc = self.n_i;
        let mut n = 0;
        for chunk in inputs.chunks(64) {
            let fast = chunk.iter().all(|&d| d >= 0);
            let sum = if fast {
                chunk
                    .iter()
                    .map(|&d| d as u64)
                    .try_fold(acc, u64::checked_add)
            } else {
                None
            };
            match sum {
                Some(next) if next <= qmax => {
                    acc = next;
                    n += chunk.len();
                }
                _ => {
                    // Crossing (or irregular) chunk: finish per-update.
                    for &delta in chunk {
                        assert!(delta >= 0, "CMY counter is insert-only (monotone streams)");
                        let next = acc + delta as u64;
                        if next > qmax {
                            self.n_i = acc;
                            return n;
                        }
                        acc = next;
                        n += 1;
                    }
                    break;
                }
            }
        }
        self.n_i = acc;
        n
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.u64(self.n_i);
        enc.u64(self.last);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.n_i = dec.u64()?;
        self.last = dec.u64()?;
        Ok(())
    }
}

impl CoordinatorNode for CmyCoord {
    type Up = u64;
    type Down = ();
    fn on_up(&mut self, _t: Time, site: usize, msg: u64, _out: &mut CoordOutbox<()>) {
        self.sum += msg - self.nhat[site];
        self.nhat[site] = msg;
    }
    fn estimate(&self) -> i64 {
        self.sum as i64
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.seq_u64(&self.nhat);
        enc.u64(self.sum);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        dec.fill_u64("per-site counts", &mut self.nhat)?;
        self.sum = dec.u64()?;
        Ok(())
    }
}

/// Constructor and bound for the CMY-style deterministic monotone counter.
#[derive(Debug, Clone, Copy)]
pub struct CmyCounter;

impl CmyCounter {
    /// A ready-to-run simulator with `k` sites and error `eps`.
    pub fn sim(k: usize, eps: f64) -> StarSim<CmySite, CmyCoord> {
        StarSim::with_k(k, |_| CmySite::new(eps), CmyCoord::new(k))
    }

    /// `O((k/ε)·log n)`: each site sends ≤ `log_{1+ε} n + 1` messages.
    pub fn message_bound(k: usize, eps: f64, n: u64) -> f64 {
        k as f64 * ((n.max(2) as f64).ln() / (1.0 + eps).ln() + 2.0)
    }
}

// ---------------------------------------------------------------------------
// HYZ-style randomized monotone counter.
// ---------------------------------------------------------------------------

/// Site of the HYZ-style counter.
#[derive(Debug, Clone)]
pub struct HyzSite {
    n_i: u64,
    p: f64,
    rng: SmallRng,
}

impl HyzSite {
    /// Fresh site with initial sampling probability 1 and RNG seed.
    pub fn new(seed: u64) -> Self {
        HyzSite {
            n_i: 0,
            p: 1.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// Down message: a new round begins with sampling probability `p`; sites
/// reply with their exact count so the round starts from a clean slate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyzRound {
    /// New sampling probability.
    pub p: f64,
}

impl WireSize for HyzRound {
    fn words(&self) -> usize {
        1
    }
}

/// Up message of the HYZ counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HyzUp {
    /// Sampled report of the site's current count.
    Sample(u64),
    /// Exact count, sent at round boundaries.
    Exact(u64),
}

impl WireSize for HyzUp {
    fn words(&self) -> usize {
        1
    }
}

impl SiteNode for HyzSite {
    type In = i64;
    type Up = HyzUp;
    type Down = HyzRound;
    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<HyzUp>) {
        assert!(delta >= 0, "HYZ counter is insert-only (monotone streams)");
        self.n_i += delta as u64;
        if delta > 0 && (self.p >= 1.0 || self.rng.gen_bool(self.p)) {
            out.send(HyzUp::Sample(self.n_i));
        }
    }
    fn on_down(&mut self, _t: Time, msg: &HyzRound, is_request: bool, out: &mut Outbox<HyzUp>) {
        self.p = msg.p;
        if is_request {
            out.send(HyzUp::Exact(self.n_i));
        }
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.u64(self.n_i);
        enc.f64(self.p);
        save_rng(&self.rng, enc);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.n_i = dec.u64()?;
        self.p = dec.f64()?;
        self.rng = load_rng(dec)?;
        Ok(())
    }
}

/// Coordinator of the HYZ-style counter: doubling rounds; within a round,
/// the per-site estimate for a sampled count is `n_i − 1 + 1/p`.
#[derive(Debug, Clone)]
pub struct HyzCoord {
    nhat: Vec<f64>,
    exact_base: Vec<u64>,
    sum: f64,
    p: f64,
    eps: f64,
    k: usize,
    round_threshold: f64,
    awaiting: usize,
}

impl HyzCoord {
    /// Fresh coordinator for `k` sites with error `eps`.
    pub fn new(k: usize, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        HyzCoord {
            nhat: vec![0.0; k],
            exact_base: vec![0; k],
            sum: 0.0,
            p: 1.0,
            eps,
            k,
            round_threshold: (2 * k) as f64, // first round end when n̂ ≈ 2k
            awaiting: 0,
        }
    }

    fn set_site_estimate(&mut self, site: usize, est: f64) {
        self.sum += est - self.nhat[site];
        self.nhat[site] = est;
    }
}

impl CoordinatorNode for HyzCoord {
    type Up = HyzUp;
    type Down = HyzRound;
    fn on_up(&mut self, _t: Time, site: usize, msg: HyzUp, out: &mut CoordOutbox<HyzRound>) {
        match msg {
            HyzUp::Sample(n) => {
                let est = if self.p >= 1.0 {
                    n as f64
                } else {
                    n as f64 - 1.0 + 1.0 / self.p
                };
                self.set_site_estimate(site, est.max(self.exact_base[site] as f64));
            }
            HyzUp::Exact(n) => {
                self.exact_base[site] = n;
                self.set_site_estimate(site, n as f64);
                self.awaiting = self.awaiting.saturating_sub(1);
            }
        }
        // Start a new doubling round once the estimate crosses the
        // threshold (and no round handshake is in flight).
        if self.awaiting == 0 && self.sum >= self.round_threshold {
            self.round_threshold = self.sum * 2.0;
            self.p = (3.0 * (self.k as f64).sqrt() / (self.eps * self.sum)).min(1.0);
            self.awaiting = self.k;
            out.request(HyzRound { p: self.p });
        }
    }
    fn estimate(&self) -> i64 {
        self.sum.round() as i64
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.seq_f64(&self.nhat);
        enc.seq_u64(&self.exact_base);
        enc.f64(self.sum);
        enc.f64(self.p);
        enc.f64(self.round_threshold);
        enc.usize(self.awaiting);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        dec.fill_f64("per-site estimates", &mut self.nhat)?;
        dec.fill_u64("per-site exact bases", &mut self.exact_base)?;
        self.sum = dec.f64()?;
        self.p = dec.f64()?;
        self.round_threshold = dec.f64()?;
        self.awaiting = dec.usize()?;
        Ok(())
    }
}

/// Constructor and bound for the HYZ-style randomized monotone counter.
#[derive(Debug, Clone, Copy)]
pub struct HyzCounter;

impl HyzCounter {
    /// A ready-to-run simulator with `k` sites, error `eps`, RNG seed.
    pub fn sim(k: usize, eps: f64, seed: u64) -> StarSim<HyzSite, HyzCoord> {
        StarSim::with_k(
            k,
            |i| HyzSite::new(seed.wrapping_add(i as u64)),
            HyzCoord::new(k, eps),
        )
    }

    /// `O((k + √k/ε)·log n)` expected messages.
    pub fn message_bound(k: usize, eps: f64, n: u64) -> f64 {
        let logn = (n.max(2) as f64).log2();
        (2.0 * k as f64 + 8.0 * (k as f64).sqrt() / eps) * (logn + 2.0) + 2.0 * k as f64
    }
}

// ---------------------------------------------------------------------------
// Periodic-sync strawman.
// ---------------------------------------------------------------------------

/// Site of the periodic strawman: forwards its running local sum every
/// `B`-th local update.
#[derive(Debug, Clone)]
pub struct PeriodicSite {
    local: i64,
    seen: u64,
    batch: u64,
}

/// Coordinator of the periodic strawman.
#[derive(Debug, Clone)]
pub struct PeriodicCoord {
    last: Vec<i64>,
    sum: i64,
}

impl SiteNode for PeriodicSite {
    type In = i64;
    type Up = i64;
    type Down = ();
    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<i64>) {
        self.local += delta;
        self.seen += 1;
        if self.seen.is_multiple_of(self.batch) {
            out.send(self.local);
        }
    }
    fn on_down(&mut self, _t: Time, _m: &(), _req: bool, _out: &mut Outbox<i64>) {}
}

impl CoordinatorNode for PeriodicCoord {
    type Up = i64;
    type Down = ();
    fn on_up(&mut self, _t: Time, site: usize, msg: i64, _out: &mut CoordOutbox<()>) {
        self.sum += msg - self.last[site];
        self.last[site] = msg;
    }
    fn estimate(&self) -> i64 {
        self.sum
    }
}

/// Constructor for the periodic-sync strawman.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicSync;

impl PeriodicSync {
    /// A ready-to-run simulator: each site reports every `batch` updates.
    /// No relative-error guarantee (absolute staleness ≤ `k·batch`).
    pub fn sim(k: usize, batch: u64) -> StarSim<PeriodicSite, PeriodicCoord> {
        assert!(batch >= 1);
        StarSim::with_k(
            k,
            |_| PeriodicSite {
                local: 0,
                seen: 0,
                batch,
            },
            PeriodicCoord {
                last: vec![0; k],
                sum: 0,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Driver;
    use dsv_gen::{DeltaGen, MonotoneGen, RoundRobin, WalkGen};

    #[test]
    fn naive_is_exact_with_n_messages() {
        let k = 4;
        let updates = WalkGen::fair(1).updates(10_000, RoundRobin::new(k));
        let mut sim = NaiveTracker::sim(k);
        let report = Driver::new(0.1).unwrap().run(&mut sim, &updates).unwrap();
        assert_eq!(report.max_rel_err, 0.0);
        assert_eq!(report.stats.total_messages(), 10_000);
    }

    #[test]
    fn cmy_guarantee_and_log_cost_on_monotone() {
        let k = 8;
        let eps = 0.1;
        let n = 200_000u64;
        let updates = MonotoneGen::ones().updates(n, RoundRobin::new(k));
        let mut sim = CmyCounter::sim(k, eps);
        let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
        assert_eq!(report.violations, 0, "max err {}", report.max_rel_err);
        let bound = CmyCounter::message_bound(k, eps, n);
        assert!(
            (report.stats.total_messages() as f64) <= bound,
            "{} > {bound}",
            report.stats.total_messages()
        );
        // Strictly logarithmic: far below n.
        assert!(report.stats.total_messages() < n / 50);
    }

    #[test]
    #[should_panic(expected = "insert-only")]
    fn cmy_rejects_deletions() {
        let mut sim = CmyCounter::sim(2, 0.1);
        sim.step(0, 1);
        sim.step(1, -1);
    }

    #[test]
    fn hyz_cost_and_accuracy_on_monotone() {
        let k = 16;
        let eps = 0.1;
        let n = 100_000u64;
        let trials = 10;
        let mut total_viol = 0u64;
        let mut total_msgs = 0u64;
        for seed in 0..trials {
            let updates = MonotoneGen::ones().updates(n, RoundRobin::new(k));
            let mut sim = HyzCounter::sim(k, eps, 100 + seed);
            let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
            total_viol += report.violations;
            total_msgs += report.stats.total_messages();
        }
        let rate = total_viol as f64 / (trials as f64 * n as f64);
        assert!(rate < 1.0 / 3.0, "violation rate {rate}");
        let bound = HyzCounter::message_bound(k, eps, n);
        assert!(
            (total_msgs as f64 / trials as f64) <= bound,
            "avg {} > {bound}",
            total_msgs / trials
        );
    }

    #[test]
    fn periodic_sync_has_bounded_staleness_but_no_relative_guarantee() {
        let k = 2;
        let batch = 100;
        let updates = WalkGen::fair(6).updates(10_000, RoundRobin::new(k));
        let mut sim = PeriodicSync::sim(k, batch);
        let mut f = 0i64;
        for u in &updates {
            f += u.delta;
            let est = sim.step(u.site, u.delta);
            assert!(
                (f - est).unsigned_abs() <= (k as u64) * batch,
                "staleness exceeded"
            );
        }
        // Each of the 2 sites sees 5000 updates and reports every 100th.
        assert_eq!(sim.stats().total_messages(), 100);
    }
}

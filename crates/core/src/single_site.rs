//! Single-site tracking of arbitrary aggregates — Section 5.2 / Appendix I.
//!
//! With `k = 1` the site always knows `f(n)` exactly; the only question is
//! when to refresh the coordinator's copy. The paper's algorithm is one
//! line: **whenever `|f − f̂| > ε·f`, send `f`**.
//!
//! Appendix I's potential argument (`Φ(n) = |f(n) − f̂(n)| / |f(n)|`, with
//! `Φ' ≤ (1 + Φ)·|f'/f|` between messages and `Φ = 0` after one) shows the
//! number of messages is at most the total increase of `Φ/ε`, i.e.
//! `O(v(n)/ε)` — the `f`-variability again, now for *any* integer-valued
//! aggregate, not just counts. Updates may be arbitrary integers here (no
//! ±1 restriction).

use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};

/// Site → coordinator message: the fresh value of `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsUp(pub i64);

impl WireSize for SsUp {
    fn words(&self) -> usize {
        1
    }
}

/// The single site: holds the exact `f` and mirrors the coordinator's `f̂`.
#[derive(Debug, Clone)]
pub struct SsSite {
    f: i64,
    fhat: i64,
    eps: f64,
}

impl SsSite {
    /// Fresh site with error parameter `eps`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        SsSite { f: 0, fhat: 0, eps }
    }

    /// Current exact value (diagnostics).
    pub fn f(&self) -> i64 {
        self.f
    }

    /// The refresh predicate from `on_update`, as a pure function of the
    /// candidate value: `x` is *quiet* iff updating `f` to `x` would not
    /// send a message.
    #[inline]
    fn quiet(&self, x: i64) -> bool {
        ((x - self.fhat).unsigned_abs() as f64) <= self.eps * x.unsigned_abs() as f64
    }

    /// The quiet set as an exact integer interval `[lo, hi]`, when it
    /// provably is one.
    ///
    /// Moving `x` away from `f̂` raises `|x − f̂|` by exactly 1 per step
    /// while `ε·|x|` changes by at most `ε < 1` (plus float rounding), so
    /// the loudness margin is strictly increasing away from `f̂` — loud
    /// stays loud and the quiet set is a contiguous interval containing
    /// `f̂` — *provided* the rounding jitter of the `ε·|x|` product stays
    /// below the `1 − ε` slack. The guards below enforce that regime
    /// (`|f̂| < 2^50`, candidate magnitudes < 2^51 so every `u64→f64`
    /// conversion is exact, jitter `< 1 − ε`); outside it we return `None`
    /// and the caller keeps the per-update scalar loop. The endpoints are
    /// then found by bisecting the *exact* `on_update` predicate, so the
    /// interval matches the scalar loop point for point.
    fn quiet_band(&self) -> Option<(i64, i64)> {
        let fa = self.fhat.unsigned_abs();
        if fa >= 1 << 50 {
            return None;
        }
        // Any quiet x satisfies |x|·(1−ε) ≤ |f̂| (triangle inequality), so
        // ±limit bounds the search and quiet(±(limit + 1)) is false.
        let limit_f = (fa as f64 / (1.0 - self.eps)).ceil() + 2.0;
        if !limit_f.is_finite() || limit_f >= (1u64 << 51) as f64 {
            return None;
        }
        // Monotonicity slack: per-step product rounding ≤ 2·ulp(ε·limit)
        // ≤ limit·2^-51 must stay below 1 − ε.
        if 1.0 - self.eps <= limit_f * (2.0f64).powi(-51) {
            return None;
        }
        let limit = limit_f as i64;
        debug_assert!(self.quiet(self.fhat) && !self.quiet(limit + 1) && !self.quiet(-limit - 1));
        // Bisect the exact predicate on each side of f̂.
        let mut q = self.fhat; // quiet
        let mut l = limit + 1; // loud
        while l - q > 1 {
            let mid = q + (l - q) / 2;
            if self.quiet(mid) {
                q = mid;
            } else {
                l = mid;
            }
        }
        let hi = q;
        let mut q = self.fhat;
        let mut l = -limit - 1;
        while q - l > 1 {
            let mid = l + (q - l) / 2;
            if self.quiet(mid) {
                q = mid;
            } else {
                l = mid;
            }
        }
        Some((q, hi))
    }

    /// The original per-update quiet-prefix loop — the exact fallback (and
    /// bit-identity oracle) for the columnar band path.
    fn absorb_quiet_scalar(&mut self, inputs: &[i64]) -> usize {
        let mut n = 0;
        for &delta in inputs {
            let next = self.f + delta;
            if !self.quiet(next) {
                break;
            }
            self.f = next;
            n += 1;
        }
        n
    }
}

impl SiteNode for SsSite {
    type In = i64;
    type Up = SsUp;
    type Down = ();

    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<SsUp>) {
        self.f += delta;
        // |f − f̂| > ε·|f|; for f = 0 this sends unless f̂ = 0 too, which
        // realizes the paper's "communicate whenever f = 0" convention.
        let err = (self.f - self.fhat).unsigned_abs() as f64;
        if err > self.eps * self.f.unsigned_abs() as f64 {
            out.send(SsUp(self.f));
            self.fhat = self.f;
        }
    }

    fn on_down(&mut self, _t: Time, _msg: &(), _is_request: bool, _out: &mut Outbox<SsUp>) {}

    fn absorb_quiet(&mut self, _t0: Time, inputs: &[i64]) -> usize {
        // The refresh rule depends only on site-local state, and between
        // messages f̂ is fixed — so the quiet set is a fixed integer
        // interval around f̂ (see `quiet_band`) and the whole prefix scan
        // is the shared columnar band kernel: chunked prefix sums with
        // running min/max, two float-free compares per chunk. When the
        // interval derivation is out of its proven regime we fall back to
        // the per-update float loop, which is always exact.
        match self.quiet_band() {
            Some((lo, hi)) => {
                let (n, acc) = crate::columnar::in_band_prefix(self.f, inputs, lo, hi);
                self.f = acc;
                n
            }
            None => self.absorb_quiet_scalar(inputs),
        }
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.i64(self.f);
        enc.i64(self.fhat);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.f = dec.i64()?;
        self.fhat = dec.i64()?;
        Ok(())
    }
}

/// The coordinator: stores the last received value.
#[derive(Debug, Clone, Default)]
pub struct SsCoord {
    fhat: i64,
}

impl SsCoord {
    /// Fresh coordinator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CoordinatorNode for SsCoord {
    type Up = SsUp;
    type Down = ();

    fn on_up(&mut self, _t: Time, _site: usize, msg: SsUp, _out: &mut CoordOutbox<()>) {
        self.fhat = msg.0;
    }

    fn estimate(&self) -> i64 {
        self.fhat
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        enc.i64(self.fhat);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.fhat = dec.i64()?;
        Ok(())
    }
}

/// Convenience constructors and the Appendix I message bound.
#[derive(Debug, Clone, Copy)]
pub struct SingleSiteTracker;

impl SingleSiteTracker {
    /// A ready-to-run `k = 1` simulator with error `eps`.
    pub fn sim(eps: f64) -> StarSim<SsSite, SsCoord> {
        StarSim::new(vec![SsSite::new(eps)], SsCoord::new())
    }

    /// Appendix I: messages ≤ `(1+ε)/ε · v(n)` plus one initial message.
    pub fn message_bound(eps: f64, v: f64) -> f64 {
        (1.0 + eps) / eps * v + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Driver;
    use crate::variability::Variability;
    use dsv_gen::{AdversarialGen, DeltaGen, MonotoneGen, SingleSite as SoloAssign, WalkGen};

    fn run(eps: f64, deltas: Vec<i64>) -> (dsv_net::RunReport, f64) {
        let v = Variability::of_stream(deltas.iter().copied());
        let updates = dsv_gen::assign_updates(&deltas, SoloAssign::solo());
        let mut sim = SingleSiteTracker::sim(eps);
        let report = Driver::new(eps).unwrap().run(&mut sim, &updates).unwrap();
        (report, v)
    }

    #[test]
    fn guarantee_always_holds() {
        for eps in [0.01, 0.1, 0.3] {
            for deltas in [
                WalkGen::fair(4).deltas(20_000),
                MonotoneGen::ones().deltas(20_000),
                AdversarialGen::zero_crossing(5).deltas(5_000),
                MonotoneGen::jumps(7, 50).deltas(5_000), // arbitrary integers!
            ] {
                let (report, _) = run(eps, deltas);
                assert_eq!(
                    report.violations, 0,
                    "eps={eps}: max {}",
                    report.max_rel_err
                );
            }
        }
    }

    #[test]
    fn message_bound_appendix_i() {
        for eps in [0.05, 0.1, 0.25] {
            for deltas in [
                WalkGen::fair(11).deltas(30_000),
                MonotoneGen::ones().deltas(30_000),
                AdversarialGen::hover(10).deltas(10_000),
            ] {
                let (report, v) = run(eps, deltas);
                let bound = SingleSiteTracker::message_bound(eps, v);
                assert!(
                    (report.stats.total_messages() as f64) <= bound,
                    "eps={eps}: {} messages > {bound} (v={v})",
                    report.stats.total_messages()
                );
            }
        }
    }

    #[test]
    fn monotone_needs_logarithmically_many_messages() {
        let (report, v) = run(0.1, MonotoneGen::ones().deltas(100_000));
        // v = H(100000) ≈ 12.1; (1+ε)/ε·v ≈ 133.
        assert!(v < 13.0);
        assert!(report.stats.total_messages() < 150);
    }

    #[test]
    fn zero_value_is_tracked_exactly() {
        // f returns to 0 repeatedly; the estimate must equal 0 there.
        let deltas = vec![1, -1, 1, -1, 2, -2];
        let (report, _) = run(0.4, deltas);
        assert_eq!(report.violations, 0);
        assert_eq!(report.final_f, 0);
        assert_eq!(report.final_estimate, 0);
    }

    #[test]
    fn columnar_band_matches_scalar_oracle() {
        // The columnar band path and the per-update float loop must agree
        // bit for bit: same absorbed count, same resulting f.
        let mut state = 0x243f6a8885a308d3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for eps in [0.01, 0.1, 0.5, 0.9, 0.999] {
            for fhat in [0i64, 1, -1, 7, 1000, -123_456, 1 << 40] {
                let mut cols = SsSite::new(eps);
                cols.f = fhat;
                cols.fhat = fhat;
                let mut scal = cols.clone();
                for _ in 0..50 {
                    let deltas: Vec<i64> = (0..97).map(|_| (rng() % 5) as i64 - 2).collect();
                    let n_c = cols.absorb_quiet(0, &deltas);
                    let n_s = scal.absorb_quiet_scalar(&deltas);
                    assert_eq!((n_c, cols.f), (n_s, scal.f), "eps={eps} fhat={fhat}");
                    if n_c < deltas.len() {
                        // The next update would send: mirror the refresh so
                        // the walk keeps exploring instead of pinning.
                        cols.fhat = cols.f;
                        scal.fhat = scal.f;
                    }
                }
            }
        }
    }

    #[test]
    fn messages_scale_inversely_with_eps() {
        let deltas = WalkGen::fair(8).deltas(50_000);
        let (coarse, _) = run(0.2, deltas.clone());
        let (fine, _) = run(0.02, deltas);
        assert!(fine.stats.total_messages() > 2 * coarse.stats.total_messages());
    }
}

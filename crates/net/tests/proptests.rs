//! Property-based tests for the network substrate.

use dsv_net::message::{bits_per_word, MsgKind};
use dsv_net::{CommStats, CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time};
use proptest::prelude::*;

/// Exact forwarding protocol used as the reference semantics.
struct FwdSite;
struct FwdCoord {
    sum: i64,
}
impl SiteNode for FwdSite {
    type In = i64;
    type Up = i64;
    type Down = ();
    fn on_update(&mut self, _t: Time, d: i64, out: &mut Outbox<i64>) {
        out.send(d);
    }
    fn on_down(&mut self, _t: Time, _m: &(), _r: bool, _o: &mut Outbox<i64>) {}
}
impl CoordinatorNode for FwdCoord {
    type Up = i64;
    type Down = ();
    fn on_up(&mut self, _t: Time, _s: usize, m: i64, _o: &mut CoordOutbox<()>) {
        self.sum += m;
    }
    fn estimate(&self) -> i64 {
        self.sum
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The simulator delivers every update exactly once, in order, and
    /// accounting matches the message count.
    #[test]
    fn forwarding_is_exact_and_fully_charged(
        deltas in prop::collection::vec(-100i64..100, 0..300),
        k in 1usize..8,
    ) {
        let mut sim = StarSim::with_k(k, |_| FwdSite, FwdCoord { sum: 0 });
        let mut f = 0i64;
        for (i, &d) in deltas.iter().enumerate() {
            f += d;
            let est = sim.step(i % k, d);
            prop_assert_eq!(est, f);
        }
        prop_assert_eq!(sim.stats().total_messages(), deltas.len() as u64);
        prop_assert_eq!(sim.stats().upward_messages(), deltas.len() as u64);
        prop_assert_eq!(sim.time(), deltas.len() as u64);
    }

    /// CommStats algebra: merge(a, since(b, a)) == b for prefix pairs, and
    /// totals are consistent sums of the per-kind counters.
    #[test]
    fn stats_algebra(
        ups in 0u64..50, replies in 0u64..50, unicasts in 0u64..50,
        bcasts in 0u64..10, reqs in 0u64..10, k in 1usize..8,
    ) {
        let mut s = CommStats::new();
        for _ in 0..ups { s.charge(MsgKind::Up, 1); }
        let snapshot = s.clone();
        for _ in 0..replies { s.charge(MsgKind::Reply, 2); }
        for _ in 0..unicasts { s.charge(MsgKind::Unicast, 1); }
        for _ in 0..bcasts { s.charge_fanout(MsgKind::Broadcast, k, 1); }
        for _ in 0..reqs { s.charge_fanout(MsgKind::Request, k, 1); }
        let delta = s.since(&snapshot);
        let mut rebuilt = snapshot.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(rebuilt, s.clone());
        prop_assert_eq!(
            s.total_messages(),
            ups + replies + unicasts + (bcasts + reqs) * k as u64
        );
        prop_assert_eq!(s.broadcast_ops(), bcasts);
        prop_assert_eq!(s.request_ops(), reqs);
        prop_assert_eq!(
            s.upward_messages() + s.downward_messages(),
            s.total_messages()
        );
    }

    /// bits_per_word is monotone and logarithmic.
    #[test]
    fn bits_per_word_monotone(a in 0u64..u64::MAX / 4) {
        prop_assert!(bits_per_word(a) <= bits_per_word(a + 1));
        prop_assert!(bits_per_word(a) <= 66);
        if a > 0 {
            prop_assert_eq!(bits_per_word(2 * a), bits_per_word(a) + 1);
        }
    }

    /// Transcripts record exactly the charged traffic.
    #[test]
    fn transcript_matches_ledger(
        deltas in prop::collection::vec(1i64..5, 1..100),
        k in 1usize..5,
    ) {
        let mut sim = StarSim::with_k(k, |_| FwdSite, FwdCoord { sum: 0 });
        sim.enable_transcript();
        for (i, &d) in deltas.iter().enumerate() {
            sim.step(i % k, d);
        }
        let transcript = sim.transcript().unwrap();
        prop_assert_eq!(transcript.len(), deltas.len());
        let words: usize = transcript.iter().map(|m| m.words).sum();
        prop_assert_eq!(words as u64, sim.stats().total_words());
    }
}

//! Synchronous star-network simulator.
//!
//! [`StarSim`] owns `k` site nodes and one coordinator node and executes the
//! distributed monitoring model: per timestep, one update arrives at one
//! site; all messages it triggers are delivered in rounds within the same
//! timestep until the network quiesces. Every delivery is charged to the
//! [`CommStats`] ledger and optionally recorded in a transcript.

use crate::codec::{CodecError, Dec, Enc};
use crate::message::{MsgKind, MsgRecord, WireSize, ALL_SITES};
use crate::protocol::{CoordOutbox, CoordinatorNode, DownMsg, Outbox, SiteNode};
use crate::stats::CommStats;
use crate::{SiteId, Time};

/// Cap on delivery rounds within one timestep. A correct protocol in
/// this codebase needs at most 3 rounds (update → report → request → reply →
/// broadcast); hitting the cap indicates a protocol bug, so the simulator
/// panics rather than looping forever.
pub const DEFAULT_MAX_ROUNDS: usize = 16;

/// The star-network simulator. `S` is the per-site protocol state, `C` the
/// coordinator state; their payload types must agree.
#[derive(Debug)]
pub struct StarSim<S, C>
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
{
    sites: Vec<S>,
    coord: C,
    stats: CommStats,
    transcript: Option<Vec<MsgRecord>>,
    time: Time,
    // Round buffers, reused across timesteps. With the outboxes' inline
    // slots (`protocol::INLINE`) the per-message path allocates nothing
    // once these have grown; only an outbox spill (a burst wider than the
    // inline slots) or an enabled transcript does.
    pending_up: Vec<(SiteId, S::Up, MsgKind)>,
    next_up: Vec<(SiteId, S::Up, MsgKind)>,
}

impl<S, C> StarSim<S, C>
where
    S: SiteNode,
    C: CoordinatorNode<Up = S::Up, Down = S::Down>,
{
    /// Build a simulator from pre-constructed site and coordinator states.
    ///
    /// Panics on an empty site vector; use [`StarSim::try_new`] for a
    /// typed error instead.
    pub fn new(sites: Vec<S>, coord: C) -> Self {
        Self::try_new(sites, coord).expect("need at least one site")
    }

    /// Checked constructor: requires at least one site.
    pub fn try_new(sites: Vec<S>, coord: C) -> Result<Self, crate::runner::ConfigError> {
        if sites.is_empty() {
            return Err(crate::runner::ConfigError::ZeroSites);
        }
        Ok(StarSim {
            sites,
            coord,
            stats: CommStats::new(),
            transcript: None,
            time: 0,
            pending_up: Vec::new(),
            next_up: Vec::new(),
        })
    }

    /// Build a simulator with `k` identical sites produced by `make_site`.
    pub fn with_k(k: usize, mut make_site: impl FnMut(SiteId) -> S, coord: C) -> Self {
        Self::new((0..k).map(&mut make_site).collect(), coord)
    }

    /// Number of sites `k`.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Current simulated time (number of updates consumed).
    pub fn time(&self) -> Time {
        self.time
    }

    /// Communication ledger.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Coordinator state (read-only).
    pub fn coordinator(&self) -> &C {
        &self.coord
    }

    /// Site states (read-only).
    pub fn sites(&self) -> &[S] {
        &self.sites
    }

    /// Begin recording a transcript of every charged message. Used by the
    /// tracing-problem experiments (§4 / Appendix D).
    pub fn enable_transcript(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Vec::new());
        }
    }

    /// The recorded transcript, if [`enable_transcript`](Self::enable_transcript)
    /// was called.
    pub fn transcript(&self) -> Option<&[MsgRecord]> {
        self.transcript.as_deref()
    }

    /// Current coordinator estimate `f̂`.
    pub fn estimate(&self) -> i64 {
        self.coord.estimate()
    }

    /// Serialize the simulator's full dynamic state — simulated time, the
    /// [`CommStats`] ledger, and every node's protocol state (each as a
    /// length-prefixed blob, written in place by [`Enc::nested`]) — into
    /// `enc`.
    ///
    /// Returns [`CodecError::UnsupportedNode`] if the protocol pair keeps
    /// the default [`SiteNode::save_state`] /
    /// [`CoordinatorNode::save_state`]; `enc` then still holds whatever
    /// was written before the node that opted out ([`Enc::append_to`]
    /// rolls a caller's buffer back). Transcripts are not captured; a
    /// restored simulator starts with transcript recording disabled.
    /// Snapshots are taken between timesteps, when the network is
    /// quiescent — which is the only state a caller can observe — so the
    /// in-flight message buffers are never part of the state.
    pub fn save_state(&self, enc: &mut Enc) -> Result<(), CodecError> {
        enc.usize(self.sites.len());
        enc.u64(self.time);
        self.stats.encode(enc);
        let seam = |saved: bool| saved.then_some(()).ok_or(CodecError::UnsupportedNode);
        enc.nested(|enc| seam(self.coord.save_state(enc)))?;
        for site in &self.sites {
            enc.nested(|enc| seam(site.save_state(enc)))?;
        }
        Ok(())
    }

    /// Restore state written by [`save_state`](Self::save_state) into this
    /// simulator, which must have been built with the same configuration
    /// (same `k`, same protocol parameters).
    ///
    /// On error the simulator may have been partially overwritten and
    /// should be discarded; the `TrackerSpec::resume` front door in
    /// `dsv-core` always restores into a freshly built tracker, which it
    /// drops on failure.
    pub fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        let k = dec.usize()?;
        if k != self.sites.len() {
            return Err(CodecError::Mismatch {
                what: "site count k",
                expected: self.sites.len() as u64,
                found: k as u64,
            });
        }
        let time = dec.u64()?;
        let stats = CommStats::decode(dec)?;
        let mut sub = Dec::new(dec.blob()?);
        self.coord.load_state(&mut sub)?;
        sub.finish()?;
        for site in &mut self.sites {
            let mut sub = Dec::new(dec.blob()?);
            site.load_state(&mut sub)?;
            sub.finish()?;
        }
        self.time = time;
        self.stats = stats;
        self.pending_up.clear();
        self.next_up.clear();
        Ok(())
    }

    fn record(&mut self, kind: MsgKind, site: SiteId, words: usize) {
        if let Some(tr) = self.transcript.as_mut() {
            tr.push(MsgRecord {
                time: self.time,
                kind,
                site,
                words,
            });
        }
    }

    /// Feed one stream update: `input` arrives at `site`. Runs the protocol
    /// to quiescence and returns the coordinator's estimate afterwards.
    pub fn step(&mut self, site: SiteId, input: S::In) -> i64 {
        assert!(site < self.sites.len(), "site {site} out of range");
        self.step_core(site, input);
        self.coord.estimate()
    }

    /// Feed a run of stream updates that all arrive at `site`, in order,
    /// and return the coordinator's estimate afterwards.
    ///
    /// Semantically identical to calling [`step`](Self::step) once per
    /// input (bit-identical protocol state, [`CommStats`] ledger,
    /// transcript, and simulated time), but amortizes the per-update
    /// simulator overhead: the coordinator's estimate is read once at the
    /// end, and the run is offered to the site's
    /// [`SiteNode::absorb_quiet`] fast path, which lets hot protocols skip
    /// the delivery machinery entirely for message-free stretches. A
    /// mixed-site batch is a sequence of such runs.
    pub fn step_run(&mut self, site: SiteId, inputs: &[S::In]) -> i64 {
        assert!(site < self.sites.len(), "site {site} out of range");
        let mut done = 0;
        while done < inputs.len() {
            let absorbed = self.sites[site].absorb_quiet(self.time, &inputs[done..]);
            debug_assert!(
                absorbed <= inputs.len() - done,
                "absorb_quiet overran its input"
            );
            self.time += absorbed as Time;
            done += absorbed;
            if done < inputs.len() {
                self.step_core(site, inputs[done]);
                done += 1;
            }
        }
        self.coord.estimate()
    }

    /// The per-update protocol body shared by [`step`](Self::step) and
    /// [`step_run`](Self::step_run): deliver the update and run the
    /// network to quiescence, without reading the estimate.
    fn step_core(&mut self, site: SiteId, input: S::In) {
        self.time += 1;
        let t = self.time;

        let mut site_out: Outbox<S::Up> = Outbox::new();
        self.sites[site].on_update(t, input, &mut site_out);
        debug_assert!(self.pending_up.is_empty());
        for msg in site_out.drain() {
            self.pending_up.push((site, msg, MsgKind::Up));
        }

        let mut rounds = 0usize;
        while !self.pending_up.is_empty() {
            rounds += 1;
            assert!(
                rounds <= DEFAULT_MAX_ROUNDS,
                "protocol did not quiesce within {DEFAULT_MAX_ROUNDS} rounds at t={t} — \
                 likely a message loop between sites and coordinator"
            );

            // Deliver site → coordinator messages.
            let mut coord_out: CoordOutbox<S::Down> = CoordOutbox::new();
            let mut ups = std::mem::take(&mut self.pending_up);
            for (sid, msg, kind) in ups.drain(..) {
                let words = msg.words();
                self.stats.charge(kind, words);
                self.record(kind, sid, words);
                self.coord.on_up(t, sid, msg, &mut coord_out);
            }
            self.pending_up = ups; // return the (now empty) buffer

            // Deliver coordinator → site messages; collect replies.
            debug_assert!(self.next_up.is_empty());
            for down in coord_out.drain() {
                match down {
                    DownMsg::Unicast(sid, m) => {
                        let words = m.words();
                        self.stats.charge(MsgKind::Unicast, words);
                        self.record(MsgKind::Unicast, sid, words);
                        let mut out: Outbox<S::Up> = Outbox::new();
                        self.sites[sid].on_down(t, &m, false, &mut out);
                        for up in out.drain() {
                            self.next_up.push((sid, up, MsgKind::Up));
                        }
                    }
                    DownMsg::Broadcast(m) => {
                        let words = m.words();
                        let k = self.sites.len();
                        self.stats.charge_fanout(MsgKind::Broadcast, k, words);
                        self.record(MsgKind::Broadcast, ALL_SITES, words);
                        for sid in 0..k {
                            let mut out: Outbox<S::Up> = Outbox::new();
                            self.sites[sid].on_down(t, &m, false, &mut out);
                            for up in out.drain() {
                                self.next_up.push((sid, up, MsgKind::Up));
                            }
                        }
                    }
                    DownMsg::Request(m) => {
                        let words = m.words();
                        let k = self.sites.len();
                        self.stats.charge_fanout(MsgKind::Request, k, words);
                        self.record(MsgKind::Request, ALL_SITES, words);
                        for sid in 0..k {
                            let mut out: Outbox<S::Up> = Outbox::new();
                            self.sites[sid].on_down(t, &m, true, &mut out);
                            for up in out.drain() {
                                self.next_up.push((sid, up, MsgKind::Reply));
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut self.pending_up, &mut self.next_up);
        }

        self.coord.on_step_end(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: every site forwards every update; the coordinator sums
    /// them (exact tracking with n messages) and acknowledges every 4th
    /// update with a broadcast, exercising all delivery paths.
    struct EchoSite {
        acks_seen: u64,
    }
    struct EchoCoord {
        sum: i64,
        ups: u64,
    }

    impl SiteNode for EchoSite {
        type In = i64;
        type Up = i64;
        type Down = i64;
        fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<i64>) {
            out.send(delta);
        }
        fn on_down(&mut self, _t: Time, msg: &i64, is_request: bool, out: &mut Outbox<i64>) {
            if is_request {
                out.send(self.acks_seen as i64);
            } else {
                self.acks_seen += 1;
                let _ = msg;
            }
        }
    }

    impl CoordinatorNode for EchoCoord {
        type Up = i64;
        type Down = i64;
        fn on_up(&mut self, _t: Time, _site: SiteId, msg: i64, out: &mut CoordOutbox<i64>) {
            // Replies to our periodic request carry acks_seen >= 0 and are
            // distinguishable because they arrive after the ack broadcast;
            // for this toy protocol we just count spontaneous updates.
            self.sum += msg;
            self.ups += 1;
            if self.ups.is_multiple_of(4) {
                out.broadcast(self.sum);
            }
        }
        fn estimate(&self) -> i64 {
            self.sum
        }
    }

    fn echo_sim(k: usize) -> StarSim<EchoSite, EchoCoord> {
        StarSim::with_k(
            k,
            |_| EchoSite { acks_seen: 0 },
            EchoCoord { sum: 0, ups: 0 },
        )
    }

    /// Feed `batch` through [`StarSim::step_run`], one call per same-site
    /// run, and return the last estimate.
    fn step_runs<S, C>(sim: &mut StarSim<S, C>, batch: &[(SiteId, S::In)]) -> i64
    where
        S: SiteNode,
        C: CoordinatorNode<Up = S::Up, Down = S::Down>,
    {
        let mut est = sim.estimate();
        for run in batch.chunk_by(|a, b| a.0 == b.0) {
            let inputs: Vec<S::In> = run.iter().map(|&(_, input)| input).collect();
            est = sim.step_run(run[0].0, &inputs);
        }
        est
    }

    #[test]
    fn echo_tracks_exactly() {
        let mut sim = echo_sim(4);
        let mut f = 0i64;
        for t in 0..100 {
            let delta = if t % 3 == 0 { -1 } else { 1 };
            f += delta;
            let est = sim.step(t % 4, delta);
            // The coordinator double-counts replies in `sum` only if a
            // request was issued; this toy protocol never requests, so the
            // estimate is exact.
            assert_eq!(est, f, "estimate must be exact at t={t}");
        }
        assert_eq!(sim.time(), 100);
    }

    #[test]
    fn echo_message_accounting() {
        let k = 4;
        let mut sim = echo_sim(k);
        for t in 0..100u64 {
            sim.step((t % k as u64) as usize, 1);
        }
        let s = sim.stats();
        assert_eq!(s.messages_of(MsgKind::Up), 100);
        // One broadcast op per 4 updates, each charged as k messages.
        assert_eq!(s.broadcast_ops(), 25);
        assert_eq!(s.messages_of(MsgKind::Broadcast), 25 * k as u64);
        assert_eq!(s.total_messages(), 100 + 25 * k as u64);
    }

    #[test]
    fn transcript_records_every_message() {
        let mut sim = echo_sim(2);
        sim.enable_transcript();
        for t in 0..8u64 {
            sim.step((t % 2) as usize, 1);
        }
        let tr = sim.transcript().unwrap();
        // 8 ups + 2 broadcast records (broadcast recorded once per op).
        assert_eq!(tr.len(), 8 + 2);
        assert!(tr.iter().filter(|r| r.kind == MsgKind::Up).count() == 8);
        assert!(tr
            .iter()
            .filter(|r| r.kind == MsgKind::Broadcast)
            .all(|r| r.site == ALL_SITES));
        // Times are non-decreasing.
        assert!(tr.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn step_rejects_bad_site() {
        let mut sim = echo_sim(2);
        sim.step(5, 1);
    }

    #[test]
    fn step_run_is_bit_identical_to_per_update_steps() {
        // Runs of 7 updates per site, rotating over 3 sites.
        let batch: Vec<(SiteId, i64)> = (0..200u64)
            .map(|t| ((t / 7 % 3) as usize, if t % 5 == 0 { -1 } else { 1 }))
            .collect();
        let mut a = echo_sim(3);
        let mut last = 0;
        for &(s, d) in &batch {
            last = a.step(s, d);
        }
        let mut b = echo_sim(3);
        b.enable_transcript();
        let mut c = echo_sim(3);
        c.enable_transcript();
        for &(s, d) in &batch {
            b.step(s, d);
        }
        let est = step_runs(&mut c, &batch);
        assert_eq!(est, last);
        assert_eq!(c.estimate(), a.estimate());
        assert_eq!(c.stats(), a.stats());
        assert_eq!(c.time(), a.time());
        assert_eq!(c.transcript(), b.transcript());
        // An empty run is a no-op returning the current estimate.
        assert_eq!(c.step_run(0, &[]), c.estimate());
        assert_eq!(c.time(), a.time());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn step_run_rejects_bad_site() {
        let mut sim = echo_sim(2);
        sim.step_run(7, &[1]);
    }

    /// A site with an `absorb_quiet` override: forwards its local sum on
    /// every 4th local update, absorbing the silent ones in bulk. Verifies
    /// that the fast path stays bit-identical to per-update execution.
    struct SparseSite {
        local: i64,
        seen: u64,
    }
    impl SiteNode for SparseSite {
        type In = i64;
        type Up = i64;
        type Down = ();
        fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<i64>) {
            self.local += delta;
            self.seen += 1;
            if self.seen.is_multiple_of(4) {
                out.send(self.local);
            }
        }
        fn on_down(&mut self, _t: Time, _m: &(), _r: bool, _o: &mut Outbox<i64>) {}
        fn absorb_quiet(&mut self, _t0: Time, inputs: &[i64]) -> usize {
            let quiet = (3 - self.seen % 4) as usize; // updates until the next send
            let n = quiet.min(inputs.len());
            for &d in &inputs[..n] {
                self.local += d;
                self.seen += 1;
            }
            n
        }
    }
    struct LastCoord {
        last: i64,
        ups: u64,
    }
    impl CoordinatorNode for LastCoord {
        type Up = i64;
        type Down = ();
        fn on_up(&mut self, _t: Time, _s: SiteId, m: i64, _o: &mut CoordOutbox<()>) {
            self.last = m;
            self.ups += 1;
        }
        fn estimate(&self) -> i64 {
            self.last
        }
    }

    #[test]
    fn absorb_quiet_fast_path_matches_per_update_path() {
        let make = || {
            StarSim::with_k(
                2,
                |_| SparseSite { local: 0, seen: 0 },
                LastCoord { last: 0, ups: 0 },
            )
        };
        // Long same-site runs so the absorber actually gets exercised.
        let batch: Vec<(SiteId, i64)> = (0..500u64)
            .map(|t| ((t / 50 % 2) as usize, if t % 3 == 0 { -1 } else { 2 }))
            .collect();
        let mut a = make();
        for &(s, d) in &batch {
            a.step(s, d);
        }
        let mut b = make();
        let est = step_runs(&mut b, &batch);
        assert_eq!(est, a.estimate());
        assert_eq!(b.stats(), a.stats());
        assert_eq!(b.time(), a.time());
        assert_eq!(b.coordinator().ups, a.coordinator().ups);
        // One message per 4 local updates: each site sees 250 → 62 sends.
        assert_eq!(b.stats().total_messages(), 2 * (250 / 4));
    }

    /// Burst protocol: every update makes its site send `BURST` messages
    /// and the coordinator answers the last of them with `BURST`
    /// operations, so both outboxes run past their inline slots. Payload
    /// lengths number the messages, so the transcript's word counts spell
    /// out the delivery order.
    const BURST: usize = 6;
    struct BurstSite {
        seen: Vec<usize>,
    }
    struct BurstCoord {
        log: Vec<(SiteId, usize)>,
    }
    impl SiteNode for BurstSite {
        type In = i64;
        type Up = Vec<u64>;
        type Down = Vec<u64>;
        fn on_update(&mut self, _t: Time, _d: i64, out: &mut Outbox<Vec<u64>>) {
            for j in 0..BURST {
                out.send(vec![0; j]);
            }
        }
        fn on_down(&mut self, _t: Time, m: &Vec<u64>, req: bool, out: &mut Outbox<Vec<u64>>) {
            self.seen.push(m.len());
            if req {
                out.send(vec![0; BURST + m.len()]);
            }
        }
    }
    impl CoordinatorNode for BurstCoord {
        type Up = Vec<u64>;
        type Down = Vec<u64>;
        fn on_up(&mut self, _t: Time, site: SiteId, m: Vec<u64>, out: &mut CoordOutbox<Vec<u64>>) {
            self.log.push((site, m.len()));
            if m.len() == BURST - 1 {
                for j in 0..BURST {
                    match j % 3 {
                        0 => out.unicast(site, vec![0; j]),
                        1 => out.broadcast(vec![0; j]),
                        _ => out.request(vec![0; j]),
                    }
                }
            }
        }
        fn estimate(&self) -> i64 {
            self.log.len() as i64
        }
    }

    #[test]
    fn bursts_past_the_inline_slots_keep_their_send_order() {
        let k = 3;
        let make = || {
            let mut sim = StarSim::with_k(
                k,
                |_| BurstSite { seen: Vec::new() },
                BurstCoord { log: Vec::new() },
            );
            sim.enable_transcript();
            sim
        };
        let batch: Vec<(SiteId, i64)> = [0, 0, 2, 1, 1, 1].map(|s| (s, 1)).to_vec();
        let mut looped = make();
        for &(s, d) in &batch {
            looped.step(s, d);
        }
        let mut batched = make();
        step_runs(&mut batched, &batch);

        // Per update: the site's burst, the coordinator's burst, then
        // every site's reply to each request, request by request.
        let mut want = Vec::new();
        let mut log = Vec::new();
        for (i, &(s, _)) in batch.iter().enumerate() {
            let time = i as Time + 1;
            let rec = |kind, site, words| MsgRecord {
                time,
                kind,
                site,
                words,
            };
            want.extend((0..BURST).map(|j| rec(MsgKind::Up, s, 1 + j)));
            log.extend((0..BURST).map(|j| (s, j)));
            want.extend((0..BURST).map(|j| match j % 3 {
                0 => rec(MsgKind::Unicast, s, 1 + j),
                1 => rec(MsgKind::Broadcast, ALL_SITES, 1 + j),
                _ => rec(MsgKind::Request, ALL_SITES, 1 + j),
            }));
            for j in (0..BURST).filter(|j| j % 3 == 2) {
                want.extend((0..k).map(|sid| rec(MsgKind::Reply, sid, 1 + BURST + j)));
                log.extend((0..k).map(|sid| (sid, BURST + j)));
            }
        }
        assert_eq!(looped.transcript(), Some(&want[..]));
        assert_eq!(looped.coordinator().log, log);
        assert_eq!(batched.transcript(), looped.transcript());
        assert_eq!(batched.coordinator().log, log);
        assert_eq!(batched.stats(), looped.stats());
        for (a, b) in batched.sites().iter().zip(looped.sites()) {
            assert_eq!(a.seen, b.seen);
        }
        // Site 0 gets its own updates' unicasts, then only the fan-outs.
        let (own, other) = (&[0, 1, 2, 3, 4, 5][..], &[1, 2, 4, 5][..]);
        let seen = [own, own, other, other, other, other].concat();
        assert_eq!(batched.sites()[0].seen, seen);
    }

    /// A protocol that ping-pongs forever must be caught by the round cap.
    struct LoopSite;
    struct LoopCoord;
    impl SiteNode for LoopSite {
        type In = i64;
        type Up = ();
        type Down = ();
        fn on_update(&mut self, _t: Time, _d: i64, out: &mut Outbox<()>) {
            out.send(());
        }
        fn on_down(&mut self, _t: Time, _m: &(), _req: bool, out: &mut Outbox<()>) {
            out.send(());
        }
    }
    impl CoordinatorNode for LoopCoord {
        type Up = ();
        type Down = ();
        fn on_up(&mut self, _t: Time, _s: SiteId, _m: (), out: &mut CoordOutbox<()>) {
            out.broadcast(());
        }
        fn estimate(&self) -> i64 {
            0
        }
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn infinite_ping_pong_is_detected() {
        let mut sim = StarSim::new(vec![LoopSite], LoopCoord);
        sim.step(0, 1);
    }
}

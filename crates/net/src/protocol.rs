//! Protocol traits: how algorithms plug into the star network.
//!
//! A distributed tracking algorithm is a pair of state machines:
//!
//! * a [`SiteNode`] replicated at each of the `k` sites, reacting to stream
//!   updates and to messages from the coordinator;
//! * a [`CoordinatorNode`] at the center, reacting to site messages and
//!   maintaining the estimate `f̂(n)`.
//!
//! Nodes communicate exclusively through outboxes; the simulator
//! ([`crate::sim::StarSim`]) delivers messages and charges them to the
//! communication ledger. Keeping I/O in outboxes (rather than letting nodes
//! call each other) is what makes the message accounting exact and the
//! execution deterministic.

use crate::codec::{CodecError, Dec, Enc};
use crate::message::WireSize;
use crate::{SiteId, Time};

/// Messages an outbox holds before it touches the heap. The simulator
/// builds a fresh outbox for every activation — the site's update, every
/// coordinator round, every site on every broadcast — and the most one
/// activation sends here is three (`FreqSite` / `RFreqSite::on_update`:
/// Count, F1Drift, Delta or Sample) when an item maps to one counter.
/// Four covers that with a slot to spare. Sketch-backed updates whose
/// rows fire together and block-start heavy-counter reports spill, which
/// is rare and correct.
const INLINE: usize = 4;

/// Insertion-ordered buffer behind both outboxes: the first [`INLINE`]
/// messages live in `head`, later ones in `spill`, which allocates only
/// when it is reached.
struct Queue<M> {
    head: [Option<M>; INLINE],
    /// Occupied prefix of `head`.
    len: usize,
    spill: Vec<M>,
}

impl<M> Default for Queue<M> {
    fn default() -> Self {
        Queue {
            // Not `[const { None }; INLINE]`: that builds the array in a
            // temporary and copies it into every fresh outbox, which gave
            // back about half of this type's gain on the loud path.
            head: Default::default(),
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<M> Queue<M> {
    fn push(&mut self, msg: M) {
        if self.len < INLINE {
            self.head[self.len] = Some(msg);
            self.len += 1;
        } else {
            self.spill.push(msg);
        }
    }

    fn len(&self) -> usize {
        self.len + self.spill.len()
    }

    /// Yield every message in insertion order — `head` first, then the
    /// spill — leaving the queue empty and reusable.
    fn drain(&mut self) -> impl Iterator<Item = M> + '_ {
        let len = std::mem::take(&mut self.len);
        let mut head = self.head[..len].iter_mut();
        let mut spill = self.spill.drain(..);
        std::iter::from_fn(move || match head.next() {
            Some(slot) => slot.take(),
            None => spill.next(),
        })
    }
}

impl<M: std::fmt::Debug> std::fmt::Debug for Queue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head = self.head[..self.len].iter().flatten();
        f.debug_list().entries(head.chain(&self.spill)).finish()
    }
}

/// Buffer of site→coordinator messages produced during one activation.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Queue<M>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            msgs: Queue::default(),
        }
    }
}

impl<M> Outbox<M> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a message for the coordinator.
    pub fn send(&mut self, msg: M) {
        self.msgs.push(msg);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.len() == 0
    }

    /// Drain all queued messages.
    pub fn drain(&mut self) -> impl Iterator<Item = M> + '_ {
        self.msgs.drain()
    }
}

/// A coordinator→sites message with its addressing mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownMsg<M> {
    /// Deliver to a single site. Charged as one message.
    Unicast(SiteId, M),
    /// Deliver to every site. Charged as `k` messages.
    Broadcast(M),
    /// Deliver to every site, flagged as a report request. Charged as `k`
    /// messages; kept distinct from `Broadcast` so experiments can report
    /// the §3.1 "k in requests + k replies" breakdown.
    Request(M),
}

/// Buffer of coordinator→site messages produced during one activation.
#[derive(Debug)]
pub struct CoordOutbox<M> {
    msgs: Queue<DownMsg<M>>,
}

impl<M> Default for CoordOutbox<M> {
    fn default() -> Self {
        CoordOutbox {
            msgs: Queue::default(),
        }
    }
}

impl<M> CoordOutbox<M> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a unicast to `site`.
    pub fn unicast(&mut self, site: SiteId, msg: M) {
        self.msgs.push(DownMsg::Unicast(site, msg));
    }

    /// Queue a broadcast to all sites.
    pub fn broadcast(&mut self, msg: M) {
        self.msgs.push(DownMsg::Broadcast(msg));
    }

    /// Queue a request to all sites (sites are expected to reply).
    pub fn request(&mut self, msg: M) {
        self.msgs.push(DownMsg::Request(msg));
    }

    /// Number of queued operations (a broadcast counts once here).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.len() == 0
    }

    /// Drain all queued operations.
    pub fn drain(&mut self) -> impl Iterator<Item = DownMsg<M>> + '_ {
        self.msgs.drain()
    }
}

/// Per-site half of a distributed tracking protocol.
pub trait SiteNode {
    /// Stream update payload: `i64` for counting problems (the increment
    /// `f'(t)`), `(u64, i64)` for item-frequency problems (item, ±1).
    /// `Copy` so batched ingestion can replay slices of inputs.
    type In: Copy;
    /// Site → coordinator payload.
    type Up: WireSize;
    /// Coordinator → site payload.
    type Down: WireSize;

    /// A stream update arrived at this site at time `t`.
    fn on_update(&mut self, t: Time, input: Self::In, out: &mut Outbox<Self::Up>);

    /// A message from the coordinator arrived. `is_request` is true when the
    /// message was sent with [`CoordOutbox::request`] addressing; replies
    /// emitted here are charged as [`crate::MsgKind::Reply`].
    fn on_down(&mut self, t: Time, msg: &Self::Down, is_request: bool, out: &mut Outbox<Self::Up>);

    /// Bulk-ingestion fast path used by [`crate::sim::StarSim::step_run`]:
    /// absorb the longest prefix of `inputs` — consecutive stream updates
    /// all arriving at **this** site at times `t0 + 1, t0 + 2, ...` — that
    /// provably emits **no** message, and return its length.
    ///
    /// Overrides must be bit-identical to the per-update path: apply
    /// exactly the state changes the equivalent [`on_update`](Self::on_update)
    /// calls would have applied, stop *before* the first potentially
    /// message-emitting update (the simulator replays it through the
    /// ordinary per-update machinery), and consume no randomness for
    /// un-absorbed inputs. Absorbed steps advance simulated time but skip
    /// [`CoordinatorNode::on_step_end`]; protocols that rely on that hook
    /// must not override this method. The default absorbs nothing, which
    /// keeps every protocol on the exact per-update path.
    fn absorb_quiet(&mut self, _t0: Time, _inputs: &[Self::In]) -> usize {
        0
    }

    /// Serialize this site's dynamic protocol state (drifts, counters,
    /// pending thresholds, RNG stream) into `enc` and return `true` — the
    /// snapshot/restore seam. Configuration that a fresh construction
    /// re-derives (ε, `k`, sketch shapes) is **not** serialized; restore
    /// targets a node built with the same parameters.
    ///
    /// The default returns `false` without writing, which makes
    /// [`crate::StarSim::save_state`] report the protocol as
    /// [`CodecError::UnsupportedNode`] — custom protocols opt in by
    /// overriding this and [`load_state`](Self::load_state) together.
    fn save_state(&self, enc: &mut Enc) -> bool {
        let _ = enc;
        false
    }

    /// Restore the state written by [`save_state`](Self::save_state) into
    /// this (same-configuration) node. Must consume the payload exactly
    /// and must validate every shape it depends on (vector lengths, ...)
    /// with typed [`CodecError`]s rather than panicking.
    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        let _ = dec;
        Err(CodecError::UnsupportedNode)
    }
}

/// Coordinator half of a distributed tracking protocol.
pub trait CoordinatorNode {
    /// Site → coordinator payload (must match the sites').
    type Up: WireSize;
    /// Coordinator → site payload (must match the sites').
    type Down: WireSize;

    /// A message from `site` arrived at time `t`.
    fn on_up(&mut self, t: Time, site: SiteId, msg: Self::Up, out: &mut CoordOutbox<Self::Down>);

    /// The timestep is about to end (all messages delivered, network
    /// quiescent). Most protocols do nothing here; it exists so protocols
    /// can assert end-of-step invariants.
    fn on_step_end(&mut self, _t: Time) {}

    /// Current estimate `f̂(n)` held at the coordinator.
    fn estimate(&self) -> i64;

    /// Serialize the coordinator's dynamic state; see
    /// [`SiteNode::save_state`] for the contract (the default opts out).
    fn save_state(&self, enc: &mut Enc) -> bool {
        let _ = enc;
        false
    }

    /// Restore the state written by [`save_state`](Self::save_state); see
    /// [`SiteNode::load_state`] for the contract.
    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        let _ = dec;
        Err(CodecError::UnsupportedNode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_drain() {
        let mut ob: Outbox<i64> = Outbox::new();
        assert!(ob.is_empty());
        ob.send(1);
        ob.send(2);
        assert_eq!(ob.len(), 2);
        let got: Vec<i64> = ob.drain().collect();
        assert_eq!(got, vec![1, 2]);
        assert!(ob.is_empty());
    }

    #[test]
    fn coord_outbox_addressing_modes() {
        let mut ob: CoordOutbox<u64> = CoordOutbox::new();
        ob.unicast(2, 10);
        ob.broadcast(20);
        ob.request(30);
        let got: Vec<DownMsg<u64>> = ob.drain().collect();
        assert_eq!(
            got,
            vec![
                DownMsg::Unicast(2, 10),
                DownMsg::Broadcast(20),
                DownMsg::Request(30)
            ]
        );
    }

    /// Message counts on both sides of the inline/spill boundary.
    const SIZES: [usize; 4] = [0, INLINE - 1, INLINE, INLINE + 3];

    #[test]
    fn outbox_keeps_order_across_the_spill_boundary() {
        let mut ob: Outbox<String> = Outbox::new();
        for round in 0..2 {
            for n in SIZES {
                let want: Vec<String> = (0..n).map(|i| format!("{round}.{i}")).collect();
                for (i, msg) in want.iter().enumerate() {
                    assert_eq!(ob.len(), i);
                    ob.send(msg.clone());
                }
                assert_eq!((ob.len(), ob.is_empty()), (n, n == 0));
                assert_eq!(format!("{ob:?}"), format!("Outbox {{ msgs: {want:?} }}"));
                // Drain, then reuse the same outbox for the next size.
                assert_eq!(ob.drain().collect::<Vec<_>>(), want);
                assert!(ob.is_empty());
            }
        }
        // A drain dropped half way still empties the outbox.
        for i in 0..INLINE + 3 {
            ob.send(i.to_string());
        }
        assert_eq!(ob.drain().next().as_deref(), Some("0"));
        assert_eq!(ob.len(), 0);
        ob.send("again".into());
        assert_eq!(ob.drain().collect::<Vec<_>>(), ["again"]);
    }

    #[test]
    fn coord_outbox_keeps_order_across_the_spill_boundary() {
        let mut ob: CoordOutbox<u64> = CoordOutbox::new();
        for round in 0..2u64 {
            for n in SIZES {
                let want: Vec<DownMsg<u64>> = (0..n as u64)
                    .map(|i| match i % 3 {
                        0 => DownMsg::Unicast(i as SiteId, round),
                        1 => DownMsg::Broadcast(i + round),
                        _ => DownMsg::Request(i * round),
                    })
                    .collect();
                for (i, op) in want.iter().enumerate() {
                    assert_eq!(ob.len(), i);
                    match op.clone() {
                        DownMsg::Unicast(site, m) => ob.unicast(site, m),
                        DownMsg::Broadcast(m) => ob.broadcast(m),
                        DownMsg::Request(m) => ob.request(m),
                    }
                }
                assert_eq!((ob.len(), ob.is_empty()), (n, n == 0));
                assert_eq!(ob.drain().collect::<Vec<_>>(), want);
                assert!(ob.is_empty());
            }
        }
    }
}

//! Communication accounting.
//!
//! Every message that crosses the star network is charged here. The paper's
//! bounds are stated in *messages* (each of `O(log n)` bits); we track both
//! message counts (per kind) and total words so experiments can report
//! either unit.

use crate::codec::{CodecError, Dec, Enc};
use crate::message::MsgKind;

/// Ledger of all communication charged during a simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages by kind: `[Up, Reply, Unicast, Broadcast, Request]`,
    /// indexed via [`kind_index`]. Broadcast/Request entries already count
    /// `k` messages per broadcast (one per recipient).
    msgs: [u64; 5],
    /// Total payload words across all charged messages (a broadcast of `w`
    /// words to `k` sites charges `k*w` words).
    words: u64,
    /// Number of broadcast *operations* (each charged as `k` messages).
    broadcast_ops: u64,
    /// Number of request *operations* (each charged as `k` messages).
    request_ops: u64,
}

fn kind_index(kind: MsgKind) -> usize {
    match kind {
        MsgKind::Up => 0,
        MsgKind::Reply => 1,
        MsgKind::Unicast => 2,
        MsgKind::Broadcast => 3,
        MsgKind::Request => 4,
    }
}

impl CommStats {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one point-to-point message of `words` payload words.
    pub fn charge(&mut self, kind: MsgKind, words: usize) {
        debug_assert!(
            !matches!(kind, MsgKind::Broadcast | MsgKind::Request),
            "use charge_fanout for broadcast/request"
        );
        self.msgs[kind_index(kind)] += 1;
        self.words += words as u64;
    }

    /// Charge a fan-out operation (broadcast or request) to `k` sites with
    /// `words` payload words per recipient. Charged as `k` messages, per the
    /// paper's accounting in §3.1 ("k broadcast at n_{j+1}").
    pub fn charge_fanout(&mut self, kind: MsgKind, k: usize, words: usize) {
        debug_assert!(
            matches!(kind, MsgKind::Broadcast | MsgKind::Request),
            "charge_fanout is only for broadcast/request"
        );
        self.msgs[kind_index(kind)] += k as u64;
        self.words += (k * words) as u64;
        match kind {
            MsgKind::Broadcast => self.broadcast_ops += 1,
            MsgKind::Request => self.request_ops += 1,
            _ => unreachable!(),
        }
    }

    /// Messages of a particular kind (fan-outs count `k` each).
    pub fn messages_of(&self, kind: MsgKind) -> u64 {
        self.msgs[kind_index(kind)]
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total payload words.
    pub fn total_words(&self) -> u64 {
        self.words
    }

    /// Number of broadcast operations performed (not messages).
    pub fn broadcast_ops(&self) -> u64 {
        self.broadcast_ops
    }

    /// Number of request operations performed (not messages).
    pub fn request_ops(&self) -> u64 {
        self.request_ops
    }

    /// Messages sent from sites to the coordinator (Up + Reply).
    pub fn upward_messages(&self) -> u64 {
        self.messages_of(MsgKind::Up) + self.messages_of(MsgKind::Reply)
    }

    /// Messages sent from the coordinator to sites
    /// (Unicast + Broadcast + Request).
    pub fn downward_messages(&self) -> u64 {
        self.messages_of(MsgKind::Unicast)
            + self.messages_of(MsgKind::Broadcast)
            + self.messages_of(MsgKind::Request)
    }

    /// Absorb another ledger (used when composing sub-protocols).
    pub fn merge(&mut self, other: &CommStats) {
        for i in 0..self.msgs.len() {
            self.msgs[i] += other.msgs[i];
        }
        self.words += other.words;
        self.broadcast_ops += other.broadcast_ops;
        self.request_ops += other.request_ops;
    }

    /// Serialize the ledger for the snapshot/restore seam.
    pub fn encode(&self, enc: &mut Enc) {
        for &m in &self.msgs {
            enc.u64(m);
        }
        enc.u64(self.words);
        enc.u64(self.broadcast_ops);
        enc.u64(self.request_ops);
    }

    /// Decode a ledger written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Dec) -> Result<Self, CodecError> {
        let mut out = CommStats::default();
        for m in &mut out.msgs {
            *m = dec.u64()?;
        }
        out.words = dec.u64()?;
        out.broadcast_ops = dec.u64()?;
        out.request_ops = dec.u64()?;
        Ok(out)
    }

    /// Difference `self - earlier`, for per-phase accounting. Panics in
    /// debug builds if `earlier` is not a prefix of `self`.
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        let mut out = CommStats::default();
        for i in 0..self.msgs.len() {
            debug_assert!(self.msgs[i] >= earlier.msgs[i]);
            out.msgs[i] = self.msgs[i] - earlier.msgs[i];
        }
        debug_assert!(self.words >= earlier.words);
        out.words = self.words - earlier.words;
        out.broadcast_ops = self.broadcast_ops - earlier.broadcast_ops;
        out.request_ops = self.request_ops - earlier.request_ops;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_charges_accumulate() {
        let mut s = CommStats::new();
        s.charge(MsgKind::Up, 1);
        s.charge(MsgKind::Up, 2);
        s.charge(MsgKind::Reply, 3);
        s.charge(MsgKind::Unicast, 1);
        assert_eq!(s.messages_of(MsgKind::Up), 2);
        assert_eq!(s.messages_of(MsgKind::Reply), 1);
        assert_eq!(s.messages_of(MsgKind::Unicast), 1);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_words(), 7);
        assert_eq!(s.upward_messages(), 3);
        assert_eq!(s.downward_messages(), 1);
    }

    #[test]
    fn fanout_charges_k_messages() {
        let mut s = CommStats::new();
        s.charge_fanout(MsgKind::Broadcast, 8, 1);
        s.charge_fanout(MsgKind::Request, 8, 0);
        assert_eq!(s.messages_of(MsgKind::Broadcast), 8);
        assert_eq!(s.messages_of(MsgKind::Request), 8);
        assert_eq!(s.total_messages(), 16);
        assert_eq!(s.total_words(), 8);
        assert_eq!(s.broadcast_ops(), 1);
        assert_eq!(s.request_ops(), 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn fanout_rejects_point_to_point_kinds() {
        let mut s = CommStats::new();
        s.charge_fanout(MsgKind::Up, 4, 1);
    }

    #[test]
    fn merge_and_since_are_inverse() {
        let mut a = CommStats::new();
        a.charge(MsgKind::Up, 2);
        a.charge_fanout(MsgKind::Broadcast, 4, 1);
        let snapshot = a.clone();
        a.charge(MsgKind::Reply, 1);
        a.charge_fanout(MsgKind::Request, 4, 0);
        let delta = a.since(&snapshot);
        assert_eq!(delta.messages_of(MsgKind::Reply), 1);
        assert_eq!(delta.messages_of(MsgKind::Request), 4);
        assert_eq!(delta.messages_of(MsgKind::Up), 0);
        let mut rebuilt = snapshot.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, a);
    }
}

//! The coordinator side of the engine: merging shard estimates.

use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{CommStats, MsgKind, ShardReport, WireSize};

/// Maintains the coordinator-side global estimate `f̂ = Σ_s f̂_s` under
/// delta reporting: a shard sends a [`ShardReport`] only when its local
/// estimate changed during the batch, and the coordinator keeps the last
/// reported value per shard (which is exact for silent shards). Every
/// accepted report is charged to the merge ledger as an ordinary up
/// message of the model.
#[derive(Debug, Clone)]
pub(crate) struct MergeCoordinator {
    last_reported: Vec<i64>,
    global: i64,
    stats: CommStats,
}

impl MergeCoordinator {
    pub(crate) fn new(shards: usize) -> Self {
        MergeCoordinator {
            last_reported: vec![0; shards],
            global: 0,
            stats: CommStats::new(),
        }
    }

    /// A shard's estimate at a batch boundary. Charges one message iff it
    /// differs from the shard's last report.
    pub(crate) fn absorb(&mut self, shard: usize, estimate: i64) {
        if estimate != self.last_reported[shard] {
            self.global += estimate - self.last_reported[shard];
            self.last_reported[shard] = estimate;
            let report = ShardReport { shard, estimate };
            self.stats.charge(MsgKind::Up, report.words());
        }
    }

    /// The current global estimate.
    pub(crate) fn estimate(&self) -> i64 {
        self.global
    }

    /// The merge-traffic ledger.
    pub(crate) fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Serialize the coordinator for an engine checkpoint.
    pub(crate) fn save_state(&self, enc: &mut Enc) {
        enc.seq_i64(&self.last_reported);
        enc.i64(self.global);
        self.stats.encode(enc);
    }

    /// Restore state written by [`save_state`](Self::save_state); the
    /// serialized shard count must match this coordinator's.
    pub(crate) fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        dec.fill_i64("merge shard reports", &mut self.last_reported)?;
        self.global = dec.i64()?;
        self.stats = CommStats::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_shards_cost_nothing_and_stay_merged() {
        let mut m = MergeCoordinator::new(3);
        m.absorb(0, 10);
        m.absorb(1, -4);
        m.absorb(2, 0); // unchanged from the initial 0: silent
        assert_eq!(m.estimate(), 6);
        assert_eq!(m.stats().total_messages(), 2);

        // Next boundary: only shard 1 moved.
        m.absorb(0, 10);
        m.absorb(1, -2);
        m.absorb(2, 0);
        assert_eq!(m.estimate(), 8);
        assert_eq!(m.stats().total_messages(), 3);
        assert_eq!(m.stats().total_words(), 3);
    }
}

//! Feeder-to-shard accounting for pipelined ingestion.
//!
//! The pipelined engine (`dsv-engine::ingest`) decouples stream
//! production from shard execution: feeder threads push inputs into
//! bounded per-shard queues, and workers drain their own queues while the
//! coordinator reconciles the previous batch boundary. Moving inputs onto
//! a shard's queue is communication in the model's currency — a chunk of
//! `n` inputs shipped feeder → worker costs `n · w` words for `w`-word
//! inputs — and the *shape* of that traffic (how often producers stalled
//! on a full queue, how full the queues ran) is exactly what the paper's
//! asynchronous-sites story is about. This module defines the wire frame
//! for that traffic ([`FeedFrame`]) and the ledger it is charged to
//! ([`IngestStats`]), kept **separate** from [`crate::CommStats`] so
//! pipelining never perturbs the in-protocol and merge ledgers the
//! engine's equivalence guarantee is stated over.

use crate::message::WireSize;

/// A chunk of stream inputs in flight from a feeder to a shard worker's
/// queue: one `push` / `push_batch` call's payload.
///
/// Sized like every other message of the model: `items · words_per_item`
/// words (a counter input `i64` is one word, an item input `(u64, i64)`
/// two). Addressing (`feed`) is not charged, matching `SiteId` in the
/// star network and `shard` in [`crate::ShardReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedFrame {
    /// Which feed (queue) the chunk was pushed into.
    pub feed: usize,
    /// Inputs carried by this frame.
    pub items: usize,
    /// Payload size in words.
    pub words: usize,
}

impl FeedFrame {
    /// The frame for a chunk of `items` inputs of `words_per_item` words
    /// each, pushed into `feed`.
    pub fn for_chunk(feed: usize, items: usize, words_per_item: usize) -> Self {
        FeedFrame {
            feed,
            items,
            words: items * words_per_item,
        }
    }
}

impl WireSize for FeedFrame {
    fn words(&self) -> usize {
        self.words
    }
}

/// The pipelined-ingestion ledger: feeder → queue traffic, backpressure
/// stalls, and queue occupancy.
///
/// One ledger aggregates every queue of an engine run (and accumulates
/// across runs, like the engine's other ledgers). Frames, items, and
/// words are deterministic for a given push schedule; stalls, waits, and
/// occupancy are *timing-dependent* diagnostics — they measure how the
/// pipeline actually ran, and are deliberately excluded from the
/// bit-identity contract the equivalence tests enforce. Fields are plain
/// counters so execution layers can fold raw (e.g. atomic) tallies in
/// directly; [`merge`](Self::merge) folds whole ledgers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames pushed (one per `push` / `push_batch` call).
    pub frames: u64,
    /// Inputs shipped across all frames.
    pub items: u64,
    /// Words shipped across all frames ([`FeedFrame::words`] summed).
    pub words: u64,
    /// Pushes that stalled on a full queue (once per stalled call).
    pub push_stalls: u64,
    /// Round takes that waited for their round to land.
    pub pop_waits: u64,
    /// Sum of sampled queue occupancies (resident inputs per frame push).
    pub occupancy_sum: u64,
    /// Occupancy samples taken (= frames pushed).
    pub occupancy_samples: u64,
    /// Highest queue occupancy observed at any sample.
    pub high_water: u64,
    /// Inputs still resident in a queue when its run tore down: the
    /// consumer stopped before draining them (a run that errored
    /// mid-stream). A push is never acknowledged behind a close, so runs
    /// that finish always drain to zero.
    pub dropped: u64,
}

impl IngestStats {
    /// An empty ledger.
    pub fn new() -> Self {
        IngestStats::default()
    }

    /// Mean queue occupancy over all samples (0 when nothing was sampled).
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Fold another ledger into this one (high-water is the max; the
    /// occupancy mean re-weights by sample count).
    pub fn merge(&mut self, other: &IngestStats) {
        self.frames += other.frames;
        self.items += other.items;
        self.words += other.words;
        self.push_stalls += other.push_stalls;
        self.pop_waits += other.pop_waits;
        self.occupancy_sum += other.occupancy_sum;
        self.occupancy_samples += other.occupancy_samples;
        if other.high_water > self.high_water {
            self.high_water = other.high_water;
        }
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_frame_words_scale_with_item_width() {
        assert_eq!(FeedFrame::for_chunk(0, 100, 1).words(), 100);
        assert_eq!(FeedFrame::for_chunk(3, 100, 2).words(), 200);
        assert_eq!(FeedFrame::for_chunk(3, 0, 2).words(), 0);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        // Two frames of 10 one-word and 5 two-word inputs, pushed at
        // occupancies 4 and 8, one of them stalled.
        let a = IngestStats {
            frames: 2,
            items: 15,
            words: 20,
            push_stalls: 1,
            occupancy_sum: 12,
            occupancy_samples: 2,
            high_water: 8,
            ..IngestStats::new()
        };
        assert!((a.mean_occupancy() - 6.0).abs() < 1e-12);

        let mut b = IngestStats {
            frames: 1,
            items: 1,
            words: 1,
            pop_waits: 1,
            occupancy_sum: 20,
            occupancy_samples: 1,
            high_water: 20,
            ..IngestStats::new()
        };
        b.merge(&a);
        assert_eq!(b.frames, 3);
        assert_eq!(b.items, 16);
        assert_eq!(b.pop_waits, 1);
        assert_eq!(b.high_water, 20);
        assert_eq!(b.occupancy_samples, 3);
        assert!((b.mean_occupancy() - 32.0 / 3.0).abs() < 1e-12);
        assert!(IngestStats::new().mean_occupancy() == 0.0);
    }
}

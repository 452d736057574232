//! Stream → shard routing.

use dsv_core::api::StreamRecord;
use dsv_net::{ItemUpdate, Update};

/// A stream record the engine can route: a [`StreamRecord`] plus an
/// optional item key. Routed [`run`](crate::ShardedEngine::run) places a
/// record by its site on a counter engine and by its item key on an item
/// engine, where every item is owned by exactly one shard, so merged
/// per-item estimates are sums of one meaningful term and the sharded
/// per-item guarantee is the replica guarantee verbatim.
pub trait ShardRecord: StreamRecord {
    /// The record's item key, if it belongs to an item stream.
    fn item_key(&self) -> Option<u64> {
        None
    }
}

impl ShardRecord for Update {}

impl ShardRecord for ItemUpdate {
    fn item_key(&self) -> Option<u64> {
        Some(self.item)
    }
}

/// Fibonacci hash of an item key (the same scatter `dsv-gen::HashAssign`
/// uses for timesteps).
pub(crate) fn hash_item(item: u64) -> u64 {
    item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// The ground-truth increment a raw tracker input contributes to the
/// audited scalar — `delta` itself for counter inputs, the signed count
/// for item inputs, and the carried input's for anything keyed (an item
/// input `(item, delta)` is a counter input with a one-word key in front).
/// The parted ingestion path
/// ([`crate::ShardedEngine::run_parted`]) receives bare inputs instead of
/// timed records, and audits through this.
pub trait InputDelta: Copy {
    /// Wire width of one input in words, for charging ingestion traffic
    /// ([`dsv_net::FeedFrame`]) in the model's currency.
    const WORDS: usize;

    /// The signed contribution to `f` (respectively `F1`).
    fn delta_of(self) -> i64;
}

impl InputDelta for i64 {
    const WORDS: usize = 1;

    fn delta_of(self) -> i64 {
        self
    }
}

impl<In: InputDelta> InputDelta for (u64, In) {
    const WORDS: usize = In::WORDS + 1;

    fn delta_of(self) -> i64 {
        self.1.delta_of()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_keys_are_present_exactly_for_item_streams() {
        assert_eq!(Update::new(1, 0, 1).item_key(), None);
        assert_eq!(ItemUpdate::new(1, 0, 42, 1).item_key(), Some(42));
    }

    #[test]
    fn item_hash_scatters() {
        let mut shards = [0u32; 4];
        for item in 0..4_000u64 {
            shards[(hash_item(item) % 4) as usize] += 1;
        }
        for &c in &shards {
            assert!((600..=1400).contains(&c), "imbalanced: {shards:?}");
        }
    }
}

//! Standalone shard-worker process for `dsv::engine::remote`.
//!
//! Spawned by a `RemoteEngine` coordinator (or by hand, for manual
//! failover drills):
//!
//! ```text
//! dsv-shard-server <tcp:addr:port|unix:/path> --worker N --gen N
//! ```
//!
//! The process connects back to the coordinator's endpoint with bounded
//! retry, handshakes its `(worker, generation)` identity, then serves
//! shard assignments, rounds, and checkpoint snapshots for as long as the
//! connection lives. It sets no timeout: it exits 0 once the coordinator
//! closes the link, drops its engine or dies (a replacement inherits the
//! shards from checkpoint), 1 if the protocol is violated, and 2 on any
//! other argument.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(dsv::engine::remote::worker::shard_server_main());
}

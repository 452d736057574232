//! Standalone shard-worker process for `dsv::engine::remote`.
//!
//! Spawned by a `RemoteEngine` coordinator (or by hand, for manual
//! failover drills):
//!
//! ```text
//! dsv-shard-server <tcp:addr:port|unix:/path> --worker N --gen N \
//!     [--timeout-ms N] [--retries N] [--backoff-ms N]
//! ```
//!
//! The process connects back to the coordinator's endpoint with bounded
//! retry, handshakes its `(worker, generation)` identity, then serves
//! shard assignments, rounds, and checkpoint snapshots until told to
//! finish (exit 0), the link closes (exit 0 — a replacement inherits the
//! shards from checkpoint), or the protocol is violated (exit 1).

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(dsv::engine::remote::worker::shard_server_main());
}

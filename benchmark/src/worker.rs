//! The shard-worker process `remote-tcp` spawns: the repository's own serve
//! loop, built inside the benchmark package so the benchmark needs nothing
//! from the root workspace's target directory.

fn main() {
    std::process::exit(dsv_engine::remote::worker::shard_server_main());
}

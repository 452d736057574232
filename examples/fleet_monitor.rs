//! Fleet monitoring: millions of per-tenant functions in one engine.
//!
//! ```sh
//! cargo run --release --example fleet_monitor
//! ```
//!
//! The other examples track **one** function. Production monitoring
//! tracks one function *per tenant*: active flows per customer, queue
//! depth per service, inventory per SKU. This example drives a
//! `TrackerFleet` — keyed trackers stored as compact codec records in
//! per-shard slabs, not a boxed tracker per key — over a Zipf-skewed
//! tenant population, prints the fleet-wide top-k, and asserts the
//! fleet's per-key answers are bit-identical to standalone trackers fed
//! the same substreams (the contract `tests/fleet_equivalence.rs` holds
//! over the full kind matrix).

use dsv::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A skewed tenant draw: rank r gets weight ~ 1/(r+1), so a handful of
/// tenants dominate the update volume while the long tail stays mostly
/// cold — the access pattern the fleet's hot-cache + frozen-slab layout
/// is built for.
fn zipf_key(state: &mut u64, keys: u64) -> u64 {
    let r = lcg(state) % (keys * (keys + 1) / 2);
    let mut acc = 0;
    for rank in 0..keys {
        acc += keys - rank;
        if r < acc {
            return rank;
        }
    }
    keys - 1
}

fn main() {
    let keys = 4_096u64; // tenants
    let k = 4; // sites per tenant
    let eps = 0.1;
    let updates = 600_000u64;
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(eps)
        .deletions(true);
    // 2 shards × 1024 hot trackers: half the tenants fit live, the rest
    // freeze to arena bytes — the realistic regime for the tail.
    let cfg = EngineConfig::new(2, 8_192).eps(eps);

    let mut fleet = CounterFleet::counters(spec, cfg).expect("valid fleet config");
    // Standalone twins for a probe set of tenants: the hottest, one
    // mid-tail, one cold. Bit-identity is asserted against these.
    let probes = [0u64, 63, 4_000];
    let mut twins: Vec<Box<dyn Tracker + Send>> =
        probes.iter().map(|_| spec.build().unwrap()).collect();

    let mut s = 2026u64;
    for _ in 0..updates {
        let key = zipf_key(&mut s, keys);
        let site = (lcg(&mut s) % k as u64) as usize;
        // Flow counts drift upward with churn; hot tenants churn hardest.
        let delta = if lcg(&mut s).is_multiple_of(5) { -1 } else { 1 };
        fleet.update_at(key, site, delta).expect("in-range update");
        if let Some(i) = probes.iter().position(|&p| p == key) {
            twins[i].step(site, delta);
        }
    }
    fleet.flush().expect("boundary reconcile");

    let mem = fleet.memory();
    println!(
        "== fleet_monitor: {updates} updates over {} live tenants (of {keys}) ==\n",
        fleet.len()
    );
    println!(
        "state: {:.1} KiB total — {:.1} KiB frozen arenas, {} cached hot trackers,\n\
         {} slot bytes, {} index bytes",
        mem.total_bytes() as f64 / 1024.0,
        mem.arena_bytes as f64 / 1024.0,
        mem.cached_trackers,
        mem.slot_bytes,
        mem.index_bytes,
    );
    println!(
        "ledger: {} messages across all tenants, {} boundaries, max rel err {:.4}",
        fleet.comm_stats().total_messages(),
        fleet.boundaries(),
        fleet.max_rel_err(),
    );

    println!("\ntop 5 tenants by tracked estimate:");
    for (rank, (key, est)) in fleet.top_k(5).into_iter().enumerate() {
        let audit = fleet.key_audit(key).expect("top-k keys are live");
        println!(
            "  #{:<2} tenant {key:>5}: fhat = {est:>6}, f = {:>6}, {:>6} updates, {} violations",
            rank + 1,
            audit.f,
            audit.updates,
            audit.violations,
        );
    }

    // Bit-identity: each probed tenant answers exactly as a standalone
    // tracker over its substream — estimate, ground truth, and per-key
    // ε-ledger alike.
    for (i, &key) in probes.iter().enumerate() {
        let audit = fleet.key_audit(key).expect("probe tenants saw traffic");
        assert_eq!(
            fleet.estimate(key),
            Some(twins[i].estimate()),
            "tenant {key}: fleet estimate diverged from standalone tracker"
        );
        assert!(
            audit.violations == 0,
            "tenant {key}: deterministic guarantee violated"
        );
        println!(
            "\nprobe tenant {key:>5}: fleet fhat {} == standalone fhat {} (f = {})",
            fleet.estimate(key).unwrap(),
            twins[i].estimate(),
            audit.f,
        );
    }
    assert_eq!(fleet.key_violations(), 0, "per-key guarantee fleet-wide");

    println!(
        "\nreading: one fleet serves every tenant out of shard-local slabs; the\n\
         hot cache holds the skew head live while the cold tail stays frozen\n\
         as codec bytes. Freezing IS snapshotting, so cache pressure, worker\n\
         count, and batch cuts can never change an answer — only latency."
    );
}

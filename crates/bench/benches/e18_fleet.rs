//! E18 — keyed-fleet scale (`TrackerFleet`): millions of live (tenant,
//! metric) functions in one engine, on one CPU.
//!
//! Two phases over a single `CounterFleet` of deterministic trackers:
//!
//! * **cold-insert** — touch every key once. This is the worst case for
//!   the slab design: every update creates a slot, builds a tracker from
//!   the prototype snapshot, and (once the hot cache fills) freezes an
//!   evictee back to arena bytes. The phase exists to populate ≥ 1M live
//!   keys and to price key creation honestly; it is reported but not
//!   rate-gated.
//! * **steady** — Zipf-flavored production traffic: bursts of updates to
//!   one key at a time, most bursts landing in a hot working set that
//!   fits the per-shard caches, the tail paying freeze/restore. **This
//!   is the gated phase**: with ≥ 1M keys live, the fleet must sustain
//!   [`RATE_GATE`] updates/sec on the full run.
//!
//! Correctness is not traded for the rate: the fleet's per-key ε-audit
//! runs at every batch boundary, and the run asserts zero violations and
//! (in both modes) spot-checks keys against standalone twin trackers.
//!
//! Results go to `BENCH_e18.json`; the `bench_schema` CI bin re-enforces
//! the keys × throughput gate on the committed artifact.
//!
//! ```sh
//! cargo bench -p dsv-bench --bench e18_fleet            # full gated run
//! target/release/deps/e18_fleet-* --smoke --out X.json  # CI smoke
//! ```

use dsv_bench::{banner, Json, Table};
use dsv_core::api::{Tracker, TrackerKind, TrackerSpec};
use dsv_engine::{CounterFleet, EngineConfig};
use std::time::Instant;

const EPS: f64 = 0.1;
const SHARDS: usize = 64;
const BATCH: usize = 65_536;
/// Live keys the full run must end with (the ISSUE's fleet-scale floor).
const KEYS_GATE: u64 = 1_000_000;
/// Steady-phase updates/sec the full run must sustain on one CPU.
const RATE_GATE: f64 = 1.0e7;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

struct PhaseOutcome {
    name: &'static str,
    updates: u64,
    wall_s: f64,
    rate: f64,
    boundaries: u64,
    violations: u64,
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_e18.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--bench" | "--test" => {} // harness-compat flags from `cargo bench`
            other => {
                eprintln!("e18_fleet: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    // Smoke keeps the same shape at 1/16 key scale so the startup path,
    // eviction path, and schema stay exercised in seconds.
    let keys: u64 = if smoke { 65_536 } else { 1 << 20 };
    // The head of the skew: a working set that accumulates real per-key
    // counts, where the deterministic protocol's message rate decays like
    // log(f)/(ε·f). 31 of 32 bursts land here; the rest sample the full
    // key range, so the cold tail's freeze/restore path stays priced in.
    let hot: u64 = 2_048;
    let steady_updates: u64 = if smoke { 2_000_000 } else { 40_000_000 };
    let burst: u64 = 32;

    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(1).eps(EPS);
    let cfg = EngineConfig::new(SHARDS, BATCH).eps(EPS);
    let mut fleet = CounterFleet::counters(spec, cfg).expect("valid fleet config");

    banner(
        "E18 — keyed-fleet scale",
        "one TrackerFleet serves >= 1M live (tenant, metric) deterministic \
         trackers out of per-shard state slabs and sustains >= 1e7 updates/sec \
         of bursty skewed traffic on a single CPU, with every per-key epsilon \
         audit green",
    );
    println!(
        "keys = {keys}, hot set = {hot}, shards = {SHARDS}, batch = {BATCH}, \
         burst = {burst}, eps = {EPS}{}",
        if smoke { "  [SMOKE]" } else { "" }
    );

    // Twin trackers for spot keys: the hottest, a mid hot-set key, and a
    // cold-tail key. Fed identically; compared after the steady phase.
    let spot = [0u64, hot - 1, keys - 1];
    let mut twins: Vec<(u64, Box<dyn Tracker + Send>, i64)> = spot
        .iter()
        .map(|&key| (key, spec.build().expect("valid spec"), 0i64))
        .collect();

    let mut phases = Vec::new();

    // Phase 1: cold inserts — every key exactly once, in a shuffled-ish
    // order (stride coprime to the key count) so shards fill evenly.
    let started = Instant::now();
    let stride = 1_000_003u64; // prime, coprime to the power-of-two key count
    for i in 0..keys {
        let key = (i.wrapping_mul(stride)) % keys;
        fleet.update(key, 1).expect("in-range update");
        if let Some(t) = twins.iter_mut().find(|(k, _, _)| *k == key) {
            t.1.step(0, 1);
            t.2 += 1;
        }
    }
    fleet.flush().expect("boundary reconcile");
    let wall = started.elapsed().as_secs_f64();
    phases.push(PhaseOutcome {
        name: "cold-insert",
        updates: keys,
        wall_s: wall,
        rate: keys as f64 / wall,
        boundaries: fleet.boundaries(),
        violations: fleet.key_violations(),
    });
    assert_eq!(fleet.len() as u64, keys, "every key is live after phase 1");

    // Phase 2: steady bursty traffic — 31 of 32 bursts hit the hot head.
    let boundaries_before = fleet.boundaries();
    let mut s = 0x00C0FFEEu64;
    let started = Instant::now();
    let bursts = steady_updates / burst;
    for _ in 0..bursts {
        let draw = lcg(&mut s);
        let key = if !draw.is_multiple_of(32) {
            (draw >> 5) % hot
        } else {
            (draw >> 5) % keys
        };
        for _ in 0..burst {
            fleet.update(key, 1).expect("in-range update");
        }
        if let Some(t) = twins.iter_mut().find(|(k, _, _)| *k == key) {
            for _ in 0..burst {
                t.1.step(0, 1);
            }
            t.2 += burst as i64;
        }
    }
    fleet.flush().expect("boundary reconcile");
    let wall = started.elapsed().as_secs_f64();
    let steady_rate = (bursts * burst) as f64 / wall;
    phases.push(PhaseOutcome {
        name: "steady",
        updates: bursts * burst,
        wall_s: wall,
        rate: steady_rate,
        boundaries: fleet.boundaries() - boundaries_before,
        violations: fleet.key_violations(),
    });

    // Correctness before any timing is believed: per-key audits are green
    // fleet-wide, and the spot keys answer exactly as standalone twins.
    assert_eq!(fleet.key_violations(), 0, "per-key epsilon audit");
    for (key, twin, f) in &twins {
        let audit = fleet.key_audit(*key).expect("spot keys are live");
        assert_eq!(audit.f, *f, "key {key}: ground truth drifted");
        assert_eq!(
            fleet.estimate(*key),
            Some(twin.estimate()),
            "key {key}: fleet estimate diverged from standalone twin"
        );
    }

    let mem = fleet.memory();
    let live_keys = fleet.len() as u64;
    let mut table = Table::new(&[
        "phase",
        "updates",
        "wall-s",
        "upd/s",
        "boundaries",
        "violations",
    ]);
    let mut phase_docs = Vec::new();
    for p in &phases {
        table.row(vec![
            p.name.to_string(),
            p.updates.to_string(),
            format!("{:.2}", p.wall_s),
            format!("{:.3e}", p.rate),
            p.boundaries.to_string(),
            p.violations.to_string(),
        ]);
        phase_docs.push(Json::obj(vec![
            ("phase", Json::str(p.name)),
            ("updates", Json::num(p.updates as f64)),
            ("wall_s", Json::num(p.wall_s)),
            ("updates_per_sec", Json::num(p.rate)),
            ("boundaries", Json::num(p.boundaries as f64)),
            ("key_violations", Json::num(p.violations as f64)),
        ]));
    }
    table.print();
    println!(
        "\nstate: {live_keys} live keys in {:.1} MiB — {:.1} MiB frozen arenas \
         ({:.1} MiB garbage), {} cached hot trackers, {:.1} MiB slots, {:.1} MiB index",
        mem.total_bytes() as f64 / (1 << 20) as f64,
        mem.arena_bytes as f64 / (1 << 20) as f64,
        mem.arena_garbage as f64 / (1 << 20) as f64,
        mem.cached_trackers,
        mem.slot_bytes as f64 / (1 << 20) as f64,
        mem.index_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "ledger: {} messages, fleet max rel err {:.4}",
        fleet.comm_stats().total_messages(),
        fleet.max_rel_err(),
    );

    let doc = Json::obj(vec![
        ("experiment", Json::str("e18_fleet")),
        ("smoke", Json::Bool(smoke)),
        (
            "n",
            Json::num(phases.iter().map(|p| p.updates as f64).sum()),
        ),
        ("kind", Json::str("deterministic")),
        ("k", Json::num(1.0)),
        ("eps", Json::num(EPS)),
        ("shards", Json::num(SHARDS as f64)),
        ("batch", Json::num(BATCH as f64)),
        ("keys_gate", Json::num(KEYS_GATE as f64)),
        ("rate_gate", Json::num(RATE_GATE)),
        ("live_keys", Json::num(live_keys as f64)),
        ("steady_updates_per_sec", Json::num(steady_rate)),
        ("total_bytes", Json::num(mem.total_bytes() as f64)),
        ("key_violations", Json::num(fleet.key_violations() as f64)),
        ("phases", Json::Arr(phase_docs)),
    ]);
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH json");
    println!("\nwrote {out}");

    println!(
        "\ngate: {live_keys} live keys (target >= {KEYS_GATE}), steady rate \
         {steady_rate:.3e} upd/s (target >= {RATE_GATE:.1e})"
    );
    // The scale gate needs the full key population and a multi-second
    // steady phase, so — like e16's throughput gate — it binds on full
    // runs only; smoke runs hold the shape, the audits, and the twins.
    if !smoke && (live_keys < KEYS_GATE || steady_rate < RATE_GATE) {
        eprintln!(
            "e18_fleet: GATE FAILED — {live_keys} keys at {steady_rate:.3e} upd/s \
             (need >= {KEYS_GATE} keys at >= {RATE_GATE:.1e} upd/s)"
        );
        std::process::exit(1);
    }

    println!(
        "\nreading: the cold-insert phase prices key creation — slot, index\n\
         entry, prototype restore, and (once the caches fill) an eviction\n\
         freeze per key. The steady phase is the production regime: bursts\n\
         within a batch collapse into one materialize + one update_run per\n\
         key per boundary, so the hot set runs at in-cache tracker speed\n\
         while the cold tail pays a codec round-trip per touch. The per-key\n\
         epsilon audit runs at every boundary; violations would fail the run\n\
         before any throughput number is printed."
    );
}

//! Names: the five workloads, the end-to-end metrics with their bounds, and
//! the per-layer metrics with the end-to-end metric each should move.
//!
//! `/BENCHMARK.json` lists the same names; a unit test holds the two
//! together. Later issues quote these names, so they are not to be renamed.

/// The seed used when none is given; `1502` is the documented alternate (a
/// claim must also hold on a seed not used while a change was written).
pub const DEFAULT_SEED: u64 = 2016;

/// `--seconds` the sizing table below is written for.
pub const SIZED_FOR_SECONDS: f64 = 10.0;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "quiet-parted",
        why: "nearly-monotone feeds through run_parted: almost no messages, so the dsv-core quiet-run kernels and the engine.sharded round loop do the work; where consolidation or a cheaper round loop must show",
    },
    WorkloadDef {
        name: "loud-parted",
        why: "reflected fair walks through run_parted: the per-message protocol path dominates; the bypass for every quiet-kernel, consolidation or round-loop change (predicted: no change)",
    },
    WorkloadDef {
        name: "quiet-pipelined",
        why: "the quiet-parted input pushed through run_pipelined by one producer: same engine and work, so the ratio to quiet-parted isolates the engine.ingest ring; checked bit-identical every pass",
    },
    WorkloadDef {
        name: "fleet-churn",
        why: "CounterFleet with a hot set, uniform traffic and 2% never-seen keys, reads beside writes: slab, cache freeze/restore and key admission; a write-side gain that taxes queries shows",
    },
    WorkloadDef {
        name: "remote-tcp",
        why: "the quiet input over TCP loopback to two worker processes at RemoteConfig defaults: the deployment shape, dominated by socket wait; audited bit-identical to in-process run_parted",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen.
    pub bound: f64,
    /// Counts that repeat exactly for a given seed: an A/A run of the same
    /// build must reproduce them digit for digit.
    pub exact: bool,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("updates_per_s", "upd/s", Higher, 0.25, false),
    e2e("round_ms_p50", "ms", Lower, 0.25, false),
    e2e("msgs_per_kupd", "msgs/kupd", Lower, 0.10, true),
    e2e("msgs_per_budget", "ratio", Lower, 0.10, true),
    e2e("eps_headroom", "ratio", Higher, 0.05, true),
    e2e("verified_share", "ratio", Higher, 0.01, true),
    e2e("ckpt_ms_p50", "ms", Lower, 0.25, false),
    e2e("ckpt_bytes_per_boundary", "bytes", Lower, 0.10, true),
    e2e("recover_ms_p50", "ms", Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const CORE: &str =
    "updates_per_s on quiet-parted and loud-parted (largest share on loud); ckpt_ms_p50 on all";
const SHARDED: &str =
    "updates_per_s, round_ms_* on quiet-parted (large share); about 0 on loud-parted";
const CONSOLIDATE: &str = "updates_per_s on quiet-parted only when segs_per_upd is far below 1; predicts a loss on loud-parted";
const INGEST: &str = "updates_per_s, round_ms_tail on quiet-pipelined; none elsewhere";
const FLEET: &str =
    "updates_per_s, setup_s, peak_rss_mb on fleet-churn; the reads guard write-side changes";
const CHECKPOINT: &str = "ckpt_ms_p50, recover_ms_p50 on all";
const DELTA: &str =
    "ckpt_ms_p50, ckpt_bytes_per_boundary, recover_ms_p50 on all (shrink: quiet far above loud)";
const NET_DELTA: &str = "ckpt_ms_p50 on loud-parted and fleet-churn";
const TRANSPORT: &str = "round_ms_*, updates_per_s on remote-tcp only";
const REMOTE: &str = "updates_per_s, round_ms_*, recover_ms_p50, setup_s on remote-tcp";
const HARNESS: &str = "none; guards the numbers above";

pub const PER_LAYER: [PerLayer; 58] = [
    layer("core.update_run_ns_per_upd", "ns", Lower, CORE),
    layer("core.msgs", "count", Lower, CORE),
    layer("core.snapshot_us", "us", Lower, CORE),
    layer("core.state_bytes", "bytes", Lower, CORE),
    layer(
        "err_over_eps",
        "ratio",
        Lower,
        "eps_headroom on all (its complement; demoted from the end-to-end list)",
    ),
    layer(
        "core.err_over_eps_max",
        "ratio",
        Lower,
        "eps_headroom on all; above 1 the run fails",
    ),
    layer("engine.sharded.segment_ms", "ms", Lower, SHARDED),
    layer("engine.sharded.overhead_share", "ratio", Lower, SHARDED),
    layer("engine.sharded.rounds", "count", Lower, SHARDED),
    layer("engine.sharded.merge_msgs", "count", Lower, SHARDED),
    layer("engine.consolidate.ns_per_upd", "ns", Lower, CONSOLIDATE),
    layer("engine.consolidate.segs_per_upd", "ratio", Lower, CONSOLIDATE),
    layer("engine.ingest.push_ms", "ms", Lower, INGEST),
    layer("engine.ingest.push_stalls", "count", Lower, INGEST),
    layer("engine.ingest.pop_waits", "count", Lower, INGEST),
    layer("engine.ingest.mean_occupancy", "inputs", Higher, INGEST),
    layer("engine.ingest.high_water", "inputs", Lower, INGEST),
    layer("engine.ingest.vs_parted", "ratio", Higher, INGEST),
    layer("engine.fleet.cold_ns_per_key", "ns", Lower, FLEET),
    layer("engine.fleet.steady_ns_per_upd", "ns", Lower, FLEET),
    layer("engine.fleet.flush_ms", "ms", Lower, FLEET),
    layer("engine.fleet.stage_ns_per_upd", "ns", Lower, FLEET),
    layer("engine.fleet.estimate_ns", "ns", Lower, FLEET),
    layer("engine.fleet.top_k_ms", "ms", Lower, FLEET),
    layer("engine.fleet.arena_bytes", "bytes", Lower, FLEET),
    layer("engine.fleet.slot_bytes", "bytes", Lower, FLEET),
    layer("engine.fleet.index_bytes", "bytes", Lower, FLEET),
    layer("engine.fleet.cached_trackers", "count", Higher, FLEET),
    layer("engine.fleet.bytes_per_key", "bytes", Lower, FLEET),
    layer("engine.checkpoint.take_ms", "ms", Lower, CHECKPOINT),
    layer("engine.checkpoint.to_bytes_ms", "ms", Lower, CHECKPOINT),
    layer("engine.checkpoint.from_bytes_ms", "ms", Lower, CHECKPOINT),
    layer("engine.checkpoint.image_bytes", "bytes", Lower, CHECKPOINT),
    layer("engine.delta.record_ms", "ms", Lower, DELTA),
    layer("engine.delta.materialize_ms", "ms", Lower, DELTA),
    layer("engine.delta.shrink", "ratio", Higher, DELTA),
    layer("engine.delta.identity_links", "count", Higher, DELTA),
    layer("engine.delta.bases", "count", Lower, DELTA),
    layer("net.delta.diff_ns_per_kb", "ns", Lower, NET_DELTA),
    layer("net.delta.apply_ns_per_kb", "ns", Lower, NET_DELTA),
    layer("net.transport.rtt_us_p50", "us", Lower, TRANSPORT),
    layer("net.transport.rtt_us_tail", "us", Lower, TRANSPORT),
    layer("engine.remote.frames_sent", "count", Lower, REMOTE),
    layer("engine.remote.frames_received", "count", Lower, REMOTE),
    layer("engine.remote.bytes_sent", "bytes", Lower, REMOTE),
    layer("engine.remote.bytes_received", "bytes", Lower, REMOTE),
    layer("engine.remote.bytes_per_upd", "bytes", Lower, REMOTE),
    layer("engine.remote.spawn_ms", "ms", Lower, REMOTE),
    layer("engine.remote.ckpt_pull_ms", "ms", Lower, REMOTE),
    layer("engine.remote.failovers", "count", Lower, REMOTE),
    layer("engine.remote.replayed_rounds", "count", Lower, REMOTE),
    layer("engine.remote.wait_share", "ratio", Lower, REMOTE),
    layer("engine.remote.vs_local", "ratio", Higher, REMOTE),
    layer("round_ms_tail", "ms", Lower, "itself: the tail of round_ms_p50's samples, demoted from the end-to-end list (spread above its bound)"),
    layer("trace.overhead", "ratio", Lower, HARNESS),
    layer("trace.unattributed_share", "ratio", Lower, HARNESS),
    layer("harness.failed_share", "ratio", Lower, HARNESS),
    layer("harness.tail_permille", "count", Higher, HARNESS),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `/BENCHMARK.json` and these tables name the same things.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(SIZED_FOR_SECONDS)
        );

        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e.len(), END_TO_END.len());
        for (j, m) in e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let l = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(l.len(), PER_LAYER.len());
        for (j, m) in l.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.as_obj().unwrap().len(), 3);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok_unit(u), "{u}");
        }
    }
}

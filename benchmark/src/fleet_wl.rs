//! `fleet-churn`: the keyed multi-tenant path.
//!
//! A `CounterFleet` is preloaded in set-up; each pass resumes a fresh fleet
//! from that image and drives one pass of bursts: most to a hot set, some
//! uniform over live keys, a few to never-seen keys. Every segment ends with
//! point reads and one `top_k`, so a write-side gain that taxes queries
//! shows.

use crate::harness::{ms, timed, Opts, Outcome, PassWalls, Tally, Timed, EPS, WORKERS};
use crate::inputs::{fleet_input, FleetInput, FleetShape, Fnv};
use crate::json::Json;
use crate::stats::median;
use crate::trace::Tracer;
use dsv_core::api::{Tracker, TrackerKind, TrackerSpec};
use dsv_engine::{CounterFleet, EngineConfig, FleetCheckpoint, FleetDelta};
use dsv_net::StateDelta;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
const BATCH: usize = 65_536;
/// Batches per timed segment.
const SEG_ROUNDS: usize = 8;
const TOP_K: usize = 16;
/// Passes that fill ten seconds at the speed of the commit that added this.
const PASSES: usize = 8;
/// Lifecycle boundaries per run, and how many of them a recovery follows.
const LIFE_SEGMENTS: usize = 12;
const RECOVERIES: usize = 10;

struct Ctx<'a> {
    spec: TrackerSpec,
    cfg: EngineConfig,
    input: FleetInput,
    opts: &'a Opts,
}

fn shape(opts: &Opts) -> FleetShape {
    let updates_per_pass = opts.sized(1 << 22);
    FleetShape {
        preloaded: opts.sized(1 << 16),
        preload_updates: 8,
        hot: opts.sized(2048),
        burst: 32,
        updates_per_pass,
        segments: updates_per_pass / (SEG_ROUNDS * opts.sized(BATCH)),
        reads_per_segment: 1024,
    }
}

/// Cheap whole-fleet summary: equal summaries on every pass, because every
/// pass starts from the same image and feeds the same input.
fn summary(fleet: &CounterFleet) -> u64 {
    let mut h = Fnv::default();
    h.word(fleet.len() as u64);
    h.word(fleet.time());
    h.word(fleet.f() as u64);
    h.word(fleet.aggregate_estimate() as u64);
    h.word(fleet.boundaries());
    h.word(fleet.key_violations() + fleet.aggregate_violations());
    h.word(fleet.max_rel_err().to_bits());
    h.word(fleet.comm_stats().total_messages());
    h.word(fleet.comm_stats().total_words());
    h.finish()
}

fn preload(ctx: &Ctx) -> Result<CounterFleet, String> {
    let mut fleet = CounterFleet::counters(ctx.spec, ctx.cfg).map_err(|e| e.to_string())?;
    for &key in &ctx.input.keys[..ctx.input.preloaded] {
        for _ in 0..ctx.input.preload_updates {
            fleet.update(key, 1).map_err(|e| e.to_string())?;
        }
    }
    fleet.flush().map_err(|e| e.to_string())?;
    Ok(fleet)
}

/// Stage the bursts `lo..hi`. The update that fills a batch cuts the
/// boundary inside `update()`; it is spanned on its own, so the staging loop
/// and the boundary are told apart from outside.
fn drive(
    ctx: &Ctx,
    fleet: &mut CounterFleet,
    lo: usize,
    hi: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let input = &ctx.input;
    let batch = ctx.cfg.batch_size();
    let mut staged = 0;
    let mut span = tracer.open("engine.fleet.update-loop");
    for b in &input.bursts[lo..hi] {
        let delta = b.delta as i64;
        let fills = staged + input.burst == batch;
        for j in 0..input.burst - fills as usize {
            fleet
                .update(input.keys[b.target(j)], delta)
                .map_err(|e| e.to_string())?;
        }
        if fills {
            let key = input.keys[b.target(input.burst - 1)];
            tracer.close(span);
            tracer
                .span("engine.fleet.flush", || fleet.update(key, delta))
                .map_err(|e| e.to_string())?;
            span = tracer.open("engine.fleet.update-loop");
            staged = 0;
        } else {
            staged += input.burst;
        }
    }
    tracer.close(span);
    tracer
        .span("engine.fleet.flush", || fleet.flush())
        .map_err(|e| e.to_string())
}

/// What the reads of one segment returned.
struct Reads {
    estimates: Vec<Option<i64>>,
    top: Vec<(u64, i64)>,
}

fn segment(
    ctx: &Ctx,
    fleet: &mut CounterFleet,
    seg: usize,
    tracer: &mut Tracer,
) -> Result<Reads, String> {
    let per = ctx.input.bursts_per_segment;
    drive(ctx, fleet, seg * per, (seg + 1) * per, tracer)?;
    let estimates = tracer.span("engine.fleet.estimate", || {
        ctx.input.reads[seg]
            .iter()
            .map(|r| fleet.estimate(ctx.input.keys[r.id as usize]))
            .collect()
    });
    let top = tracer.span("engine.fleet.top_k", || fleet.top_k(TOP_K));
    Ok(Reads { estimates, top })
}

fn within_eps(truth: i64, estimate: i64) -> bool {
    (estimate - truth).abs() as f64 <= EPS * (truth.abs() as f64) * (1.0 + 1e-12)
}

/// Spot keys and their standalone twins: the hottest key, a mid-hot key and
/// the first key the pass churns in.
struct Twins {
    ids: Vec<usize>,
    trackers: Vec<Box<dyn Tracker + Send>>,
    updates: Vec<u64>,
}

fn twins(ctx: &Ctx) -> Result<Twins, String> {
    let input = &ctx.input;
    let mut counts = vec![0u32; input.hot];
    for b in input.bursts.iter().filter(|b| !b.fresh) {
        if (b.id as usize) < input.hot {
            counts[b.id as usize] += 1;
        }
    }
    let hottest = (0..input.hot)
        .max_by_key(|&id| (counts[id], id))
        .unwrap_or(0);
    let mut ids = vec![hottest, input.hot / 2];
    if input.keys.len() > input.preloaded {
        ids.push(input.preloaded);
    }
    let mut trackers = Vec::new();
    let mut updates = Vec::new();
    for &id in &ids {
        let preload = if id < input.preloaded {
            input.preload_updates
        } else {
            0
        };
        let mut deltas = vec![1i64; preload];
        for b in &input.bursts {
            deltas.extend(
                (0..input.burst)
                    .filter(|&j| b.target(j) == id)
                    .map(|_| b.delta as i64),
            );
        }
        let mut twin = ctx.spec.build().map_err(|e| e.to_string())?;
        twin.update_run(0, &deltas);
        updates.push(deltas.len() as u64);
        trackers.push(twin);
    }
    Ok(Twins {
        ids,
        trackers,
        updates,
    })
}

/// Counts one pass yields: messages charged, and the mean error of its point
/// reads as a share of the truth.
struct PassCounts {
    msgs: u64,
    read_err: f64,
}

/// One pass on a fresh fleet resumed from `base`.
#[allow(clippy::too_many_arguments)]
fn pass(
    ctx: &Ctx,
    base: &FleetCheckpoint,
    index: usize,
    tracer: &mut Tracer,
    twins: &Twins,
    first: &mut Option<(u64, u64)>,
    tally: &mut Tally,
) -> Result<(CounterFleet, PassCounts, Duration, Vec<Duration>), String> {
    let input = &ctx.input;
    let mut fleet = CounterFleet::resume(ctx.spec, ctx.cfg, base).map_err(|e| e.to_string())?;
    let start = summary(&fleet);
    let msgs_before = fleet.comm_stats().total_messages();
    let boundaries_before = fleet.boundaries();
    let segments = input.reads.len();
    let mut walls = Vec::with_capacity(segments);
    let mut reads = Vec::with_capacity(segments);
    tracer.at(index, 0);
    let started = Instant::now();
    let span = tracer.open("pass");
    for seg in 0..segments {
        tracer.at(index, seg);
        let (read, wall) = timed(|| segment(ctx, &mut fleet, seg, tracer));
        walls.push(wall);
        reads.push(read?);
    }
    tracer.close(span);
    let wall = started.elapsed();

    tally.attempt(fleet.boundaries() - boundaries_before);
    let violations = fleet.key_violations() + fleet.aggregate_violations();
    tally.fail(violations, || {
        format!("pass {index}: {violations} ε violations")
    });
    for (seg, read) in reads.iter().enumerate() {
        let wanted = &input.reads[seg];
        let ok = read.estimates.len() == wanted.len()
            && read
                .estimates
                .iter()
                .zip(wanted)
                .all(|(e, r)| e.is_some_and(|e| within_eps(r.truth, e)));
        tally.check(ok, || {
            format!("pass {index}.{seg}: a point read is missing or outside ε of the truth")
        });
        let top = &read.top;
        let ordered =
            top.len() == TOP_K.min(fleet.len()) && top.windows(2).all(|w| w[0].1 >= w[1].1);
        tally.check(ordered, || {
            format!("pass {index}.{seg}: top_k is short or unordered")
        });
    }
    let last_top = &reads.last().expect("a pass has segments").top;
    tally.check(
        last_top.iter().all(|&(k, e)| fleet.estimate(k) == Some(e)),
        || format!("pass {index}: top_k disagrees with estimate()"),
    );
    let total: i64 = input.truth.iter().sum();
    tally.check(fleet.f() == total, || {
        format!(
            "pass {index}: fleet truth {} differs from the generator's {total}",
            fleet.f()
        )
    });
    for ((&id, twin), &updates) in twins.ids.iter().zip(&twins.trackers).zip(&twins.updates) {
        let audit = fleet.key_audit(input.keys[id]);
        let ok = audit.is_some_and(|a| {
            a.estimate == twin.estimate() && a.f == input.truth[id] && a.updates == updates
        });
        tally.check(ok, || {
            format!("pass {index}: key id {id} differs from its standalone twin or the truth")
        });
    }
    let this = (start, summary(&fleet));
    tally.check(*first.get_or_insert(this) == this, || {
        format!("pass {index}: start or end state differs from the first pass")
    });
    let errs = reads.iter().zip(&input.reads).flat_map(|(got, wanted)| {
        got.estimates
            .iter()
            .zip(wanted)
            .map(|(e, r)| (e.unwrap_or(0) - r.truth).abs() as f64 / r.truth.abs() as f64)
    });
    let counts = PassCounts {
        msgs: fleet.comm_stats().total_messages() - msgs_before,
        read_err: errs.sum::<f64>() / (segments * input.reads[0].len()) as f64,
    };
    Ok((fleet, counts, wall, walls))
}

#[derive(Default)]
struct Life {
    ckpt_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    delta_bytes: Vec<f64>,
    take_ms: Vec<f64>,
    to_bytes_ms: Vec<f64>,
    from_bytes_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    image_bytes: usize,
    diff_ns: f64,
    apply_ns: f64,
    delta_kb: f64,
}

/// Checkpoints one lifecycle segment apart as deltas against the previous
/// one; before most segments, a recovery from bytes (parent image plus last
/// delta) that replays the segment and must land where the live fleet does.
fn lifecycle(
    ctx: &Ctx,
    base: &FleetCheckpoint,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Life, String> {
    let mut life = Life::default();
    let per = ctx.input.bursts.len() / LIFE_SEGMENTS;
    let err = |e: dsv_engine::EngineError| e.to_string();
    let codec = |e: dsv_net::CodecError| e.to_string();
    let mut fleet = CounterFleet::resume(ctx.spec, ctx.cfg, base).map_err(err)?;
    let mut parent = base.clone();
    // The newest boundary as a deployment stores it: the delta's bytes (its
    // parent is `parent_of_delta`, serialised only when a recovery reads it).
    let mut stored: Option<(FleetCheckpoint, Vec<u8>)> = None;
    let mut prev_image: Option<Vec<u8>> = None;
    for seg in 0..LIFE_SEGMENTS {
        tracer.at(0, seg);
        let (lo, hi) = (seg * per, (seg + 1) * per);
        let mut recovered = None;
        if let Some((parent_of_delta, delta)) = stored.take().filter(|_| seg <= RECOVERIES) {
            let image = parent_of_delta.to_bytes();
            drop(parent_of_delta);
            let started = Instant::now();
            let span = tracer.open("recover");
            let decoded = tracer.span("from_bytes", || {
                FleetCheckpoint::from_bytes(&image)
                    .and_then(|p| FleetDelta::from_bytes(&delta).map(|d| (p, d)))
            });
            let (p, d) = decoded.map_err(codec)?;
            let latest = tracer.span("materialize", || d.apply(&p)).map_err(codec)?;
            let resumed = tracer.span("resume", || {
                CounterFleet::resume(ctx.spec, ctx.cfg, &latest)
            });
            let mut resumed = resumed.map_err(err)?;
            let id = tracer.open("replay");
            let replayed = drive(ctx, &mut resumed, lo, hi, tracer);
            tracer.close(id);
            tracer.close(span);
            life.recover_ms.push(ms(started.elapsed()));
            replayed?;
            recovered = Some(resumed);
        }
        let before = fleet.boundaries();
        drive(ctx, &mut fleet, lo, hi, tracer)?;
        tally.attempt(fleet.boundaries() - before);
        if let Some(resumed) = recovered {
            tally.check(summary(&resumed) == summary(&fleet), || {
                format!("lifecycle {seg}: recovered fleet differs from the uninterrupted one")
            });
        }

        let span = tracer.open("ckpt");
        let (bytes, took) = timed(|| {
            fleet
                .checkpoint_delta(&parent)
                .map(|delta| delta.to_bytes())
        });
        tracer.close(span);
        let bytes = bytes.map_err(err)?;
        life.ckpt_ms.push(ms(took));
        life.delta_bytes.push(bytes.len() as f64);

        // Off the clock: the next parent is this boundary's full checkpoint.
        let (full, took) = timed(|| fleet.checkpoint());
        let full = full.map_err(err)?;
        if ctx.opts.trace && seg < 3 {
            life.take_ms.push(ms(took));
            let (child, took) =
                timed(|| FleetDelta::from_bytes(&bytes).and_then(|d| d.apply(&parent)));
            life.materialize_ms.push(ms(took));
            tally.check(child.map_err(codec)? == full, || {
                format!("lifecycle {seg}: the delta does not reproduce the full checkpoint")
            });
            let (image, took) = timed(|| full.to_bytes());
            life.to_bytes_ms.push(ms(took));
            let (decoded, took) = timed(|| FleetCheckpoint::from_bytes(&image));
            decoded.map_err(codec)?;
            life.from_bytes_ms.push(ms(took));
            life.image_bytes = image.len();
            if let Some(prev) = &prev_image {
                let (delta, t) = timed(|| StateDelta::diff(prev, &image));
                life.diff_ns += t.as_nanos() as f64;
                let (applied, t) = timed(|| delta.apply(prev));
                life.apply_ns += t.as_nanos() as f64;
                tally.check(applied.map_err(codec)? == image, || {
                    "StateDelta::apply did not reproduce the fleet image".into()
                });
                life.delta_kb += image.len() as f64 / 1024.0;
            }
            prev_image = Some(image);
        }
        stored = Some((std::mem::replace(&mut parent, full), bytes));
    }
    let violations = fleet.key_violations() + fleet.aggregate_violations();
    tally.fail(violations, || {
        format!("lifecycle: {violations} ε violations")
    });
    Ok(life)
}

/// Phase-separated probes on a fleet of their own: never-seen keys only,
/// then updates to keys that exist.
fn probe_cold_and_steady(ctx: &Ctx) -> Result<(f64, f64), String> {
    let err = |e: dsv_engine::EngineError| e.to_string();
    let keys = &ctx.input.keys[..ctx.opts.sized(1 << 16).min(ctx.input.keys.len())];
    let mut fleet = CounterFleet::counters(ctx.spec, ctx.cfg).map_err(err)?;
    let ((), cold) = timed(|| {
        for &k in keys {
            fleet.update(k, 1).expect("insert-only update");
        }
        fleet.flush().expect("boundary");
    });
    let hot = &keys[..keys.len().min(1024)];
    let bursts = ctx.opts.sized(1 << 15);
    let ((), steady) = timed(|| {
        for b in 0..bursts {
            for _ in 0..ctx.input.burst {
                fleet
                    .update(hot[b % hot.len()], 1)
                    .expect("insert-only update");
            }
        }
        fleet.flush().expect("boundary");
    });
    Ok((
        cold.as_nanos() as f64 / keys.len() as f64,
        steady.as_nanos() as f64 / (bursts * ctx.input.burst) as f64,
    ))
}

pub fn run(opts: &Opts) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(1)
        .eps(EPS)
        .seed(opts.seed)
        .deletions(true);
    let cfg = EngineConfig::new(SHARDS, opts.sized(BATCH))
        .workers(WORKERS)
        .eps(EPS);
    let shape = shape(opts);
    assert!(
        cfg.batch_size().is_multiple_of(shape.burst) && shape.segments >= 1,
        "a batch is a whole number of bursts"
    );

    // Set-up, several times over: inputs, preload through update(), one
    // untimed warm-up pass on the preloaded fleet itself.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..opts.setups() {
        drop(built.take());
        let started = Instant::now();
        let ctx = Ctx {
            spec,
            cfg,
            input: fleet_input(opts.seed, shape),
            opts,
        };
        let mut fleet = preload(&ctx)?;
        let base = fleet.checkpoint().map_err(|e| e.to_string())?;
        for seg in 0..ctx.input.reads.len() {
            segment(&ctx, &mut fleet, seg, &mut tracer)?;
        }
        drop(fleet);
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((ctx, base));
    }
    let (ctx, base) = built.expect("at least one set-up");
    out.input_fingerprint = ctx.input.fingerprint;

    let twins = twins(&ctx)?;
    let passes = opts.passes(PASSES);
    let mut walls = [PassWalls::default(), PassWalls::default()];
    let mut first = None;
    let mut last = None;
    let phase = Instant::now();
    for index in 0..passes {
        if index >= 2 && phase.elapsed() > opts.time_cap() {
            break;
        }
        let traced = opts.trace && index % 2 == 1;
        tracer.set_on(traced);
        let (fleet, counts, wall, segs) = pass(
            &ctx,
            &base,
            index,
            &mut tracer,
            &twins,
            &mut first,
            &mut out.tally,
        )?;
        let set = &mut walls[traced as usize];
        set.pass_s.push(wall.as_secs_f64());
        set.round_ms
            .extend(segs.iter().map(|w| ms(*w) / SEG_ROUNDS as f64));
        last = Some((fleet, counts));
    }
    tracer.set_on(opts.trace);
    let (fleet, counts) = last.expect("at least two passes");
    let msgs = counts.msgs as f64;
    let life = lifecycle(&ctx, &base, &mut tracer, &mut out.tally)?;

    let [plain, traced] = walls;
    let n = shape.updates_per_pass as f64;
    out.set_timed(Timed {
        setup_s: &setup_s,
        updates_per_pass: n,
        plain: &plain,
        ckpt_ms: &life.ckpt_ms,
        recover_ms: &life.recover_ms,
        recover: median,
    });
    out.set("msgs_per_kupd", msgs / n * 1e3);
    out.set("msgs_per_budget", msgs / (1.0 / EPS * ctx.input.v_pass));
    out.set("err_over_eps", counts.read_err / EPS);
    out.set("eps_headroom", 1.0 - counts.read_err / EPS);
    out.set("core.err_over_eps_max", fleet.max_rel_err() / EPS);
    out.set(
        "ckpt_bytes_per_boundary",
        life.delta_bytes.iter().sum::<f64>() / life.delta_bytes.len() as f64,
    );
    out.note("keys", Json::Num(fleet.len() as f64));
    out.note("variability", Json::Num(ctx.input.v_pass));

    if opts.trace {
        // Spans of the timed passes only: the lifecycle drives the same calls.
        let spans = tracer.by_name_under("pass");
        let total = |name: &str| spans.get(name).map_or((0, 0), |s| (s.0, s.1));
        let traced_passes = traced.pass_s.len().max(1) as f64;
        out.set("core.msgs", msgs);
        out.set(
            "engine.sharded.rounds",
            (shape.segments * SEG_ROUNDS) as f64,
        );
        let (cold, steady) = probe_cold_and_steady(&ctx)?;
        out.set("engine.fleet.cold_ns_per_key", cold);
        out.set("engine.fleet.steady_ns_per_upd", steady);
        let (flushes, flush_ns) = total("engine.fleet.flush");
        // Half the flush spans are the no-op at a segment's aligned end.
        let boundaries = (flushes as f64 - traced_passes * shape.segments as f64).max(1.0);
        out.set("engine.fleet.flush_ms", flush_ns as f64 / 1e6 / boundaries);
        out.set(
            "engine.fleet.stage_ns_per_upd",
            total("engine.fleet.update-loop").1 as f64 / (traced_passes * n),
        );
        let reads = traced_passes * (shape.segments * shape.reads_per_segment) as f64;
        out.set(
            "engine.fleet.estimate_ns",
            total("engine.fleet.estimate").1 as f64 / reads,
        );
        let (tops, top_ns) = total("engine.fleet.top_k");
        out.set(
            "engine.fleet.top_k_ms",
            top_ns as f64 / 1e6 / tops.max(1) as f64,
        );
        let mem = fleet.memory();
        out.set("engine.fleet.arena_bytes", mem.arena_bytes as f64);
        out.set("engine.fleet.slot_bytes", mem.slot_bytes as f64);
        out.set("engine.fleet.index_bytes", mem.index_bytes as f64);
        out.set("engine.fleet.cached_trackers", mem.cached_trackers as f64);
        out.set(
            "engine.fleet.bytes_per_key",
            mem.total_bytes() as f64 / mem.keys.max(1) as f64,
        );
        out.set("engine.checkpoint.take_ms", median(&life.take_ms));
        out.set("engine.checkpoint.to_bytes_ms", median(&life.to_bytes_ms));
        out.set(
            "engine.checkpoint.from_bytes_ms",
            median(&life.from_bytes_ms),
        );
        out.set("engine.checkpoint.image_bytes", life.image_bytes as f64);
        out.set("engine.delta.record_ms", median(&life.ckpt_ms));
        out.set("engine.delta.materialize_ms", median(&life.materialize_ms));
        out.set(
            "engine.delta.shrink",
            life.image_bytes as f64 / median(&life.delta_bytes),
        );
        out.set("engine.delta.bases", 1.0);
        out.set("net.delta.diff_ns_per_kb", life.diff_ns / life.delta_kb);
        out.set("net.delta.apply_ns_per_kb", life.apply_ns / life.delta_kb);
        out.set_trace_health(&tracer, &plain, &traced);
    }
    Ok((out, tracer))
}

//! The four workloads that drive one tracked function through the sharded
//! engine: `quiet-parted`, `loud-parted`, `quiet-pipelined`, `remote-tcp`.
//!
//! They share one run shape. A *pass* is a fresh engine, built off the clock,
//! driven over the whole input in *segments*, each one call of the run
//! function covering `seg_rounds` rounds. After the timed passes a
//! *lifecycle* phase takes checkpoints one segment apart and recovers from
//! them. Every pass ends with checks against a reference before its timing
//! is believed.

use crate::harness::{ms, timed, Opts, Outcome, PassWalls, Tally, Timed, EPS, WORKERS};
use crate::inputs::{fingerprint_feeds, fnv_bytes, loud_feeds, quiet_feeds, Fnv, Variability};
use crate::json::Json;
use crate::stats::{median, midmean, tail};
use crate::trace::Tracer;
use dsv_core::api::{Tracker, TrackerKind, TrackerSpec};
use dsv_engine::remote::{
    FaultKind, FaultPlan, FaultPoint, RemoteConfig, RemoteEngine, RemoteTransport, SpawnMode,
};
use dsv_engine::{
    CheckpointStore, Consolidator, CounterEngine, EngineCheckpoint, EngineConfig, EngineReport,
    ShardedEngine,
};
use dsv_net::transport::{Conn, Endpoint, Listener};
use dsv_net::{CommStats, StateDelta};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    Quiet,
    Loud,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Parted,
    Pipelined,
    Remote,
}

/// Sizes of one workload. `passes` is the count that fills ten seconds of
/// timed work at the speed of the commit that added the benchmark.
#[derive(Debug, Clone, Copy)]
struct Shape {
    stream: Stream,
    mode: Mode,
    sites: usize,
    shards: usize,
    batch: usize,
    /// Rounds per pass (per feed).
    rounds: usize,
    /// Rounds per timed segment.
    seg_rounds: usize,
    /// Rounds per lifecycle segment (a checkpoint follows each).
    life_seg_rounds: usize,
    passes: usize,
    life_passes: usize,
}

fn shape_of(workload: &str) -> Option<Shape> {
    let quiet = Shape {
        stream: Stream::Quiet,
        mode: Mode::Parted,
        sites: 8,
        shards: 4,
        batch: 32_768,
        rounds: 128,
        seg_rounds: 8,
        life_seg_rounds: 8,
        passes: 150,
        life_passes: 12,
    };
    Some(match workload {
        "quiet-parted" => quiet,
        "loud-parted" => Shape {
            stream: Stream::Loud,
            rounds: 32,
            life_seg_rounds: 2,
            passes: 90,
            life_passes: 3,
            ..quiet
        },
        "quiet-pipelined" => Shape {
            mode: Mode::Pipelined,
            seg_rounds: 64,
            passes: 130,
            ..quiet
        },
        "remote-tcp" => Shape {
            mode: Mode::Remote,
            sites: 4,
            batch: 8192,
            rounds: 12,
            seg_rounds: 1,
            life_seg_rounds: 1,
            passes: 6,
            life_passes: 3,
            ..quiet
        },
        _ => return None,
    })
}

struct Ctx<'a> {
    shape: Shape,
    spec: TrackerSpec,
    cfg: EngineConfig,
    feeds: Vec<Vec<i64>>,
    opts: &'a Opts,
}

type Slices<'a> = Vec<(usize, &'a [i64])>;

impl Ctx<'_> {
    /// Per-site slices of rounds `lo .. lo + rounds`.
    fn slices(&self, lo: usize, rounds: usize) -> Slices<'_> {
        let b = self.shape.batch;
        self.feeds
            .iter()
            .enumerate()
            .map(|(site, f)| (site, &f[lo * b..(lo + rounds) * b]))
            .collect()
    }

    fn updates_per_pass(&self) -> u64 {
        (self.shape.sites * self.shape.rounds * self.shape.batch) as u64
    }

    fn remote_config(&self) -> RemoteConfig {
        RemoteConfig {
            transport: RemoteTransport::Tcp,
            spawn: SpawnMode::Processes {
                bin: self.opts.worker_bin.clone(),
            },
            ..RemoteConfig::default()
        }
    }

    fn build(&self, cfg: EngineConfig) -> Result<Sut, String> {
        Ok(match self.shape.mode {
            Mode::Remote => Sut::Remote(Box::new(
                RemoteEngine::counters(self.spec, cfg, self.remote_config())
                    .map_err(|e| format!("remote engine: {e}"))?,
            )),
            _ => Sut::Local(Box::new(self.local(cfg)?)),
        })
    }

    fn local(&self, cfg: EngineConfig) -> Result<CounterEngine, String> {
        ShardedEngine::counters(self.spec, cfg).map_err(|e| format!("engine: {e}"))
    }
}

/// The engine under test.
enum Sut {
    Local(Box<CounterEngine>),
    Remote(Box<RemoteEngine<i64>>),
}

/// What a pass must reproduce, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Image {
    estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: CommStats,
    merge_stats: CommStats,
    checkpoint: u64,
}

impl Sut {
    /// One segment through the workload's own entry point.
    fn run(
        &mut self,
        mode: Mode,
        batch: usize,
        slices: &[(usize, &[i64])],
        tracer: &mut Tracer,
    ) -> Result<EngineReport, String> {
        match self {
            Sut::Remote(e) => tracer
                .span("engine.remote.run_parted", || e.run_parted(slices))
                .map_err(|e| e.to_string()),
            Sut::Local(e) if mode == Mode::Parted => tracer
                .span("engine.sharded.run_parted", || e.run_parted(slices))
                .map_err(|e| e.to_string()),
            Sut::Local(e) => {
                let sites: Vec<usize> = slices.iter().map(|s| s.0).collect();
                let rounds = slices.iter().map(|s| s.1.len()).max().unwrap_or(0) / batch;
                let mut push_failed = false;
                let span = tracer.open("engine.sharded.run_pipelined");
                // One producer, batch-sized chunks, round-robin over feeds.
                let report = e.run_pipelined(&sites, |mut handles| {
                    for r in 0..rounds {
                        for (h, (_, xs)) in handles.iter_mut().zip(slices) {
                            let chunk = &xs[r * batch..(r + 1) * batch];
                            let pushed =
                                tracer.span("engine.ingest.push_batch", || h.push_batch(chunk));
                            push_failed |= pushed.is_err();
                        }
                    }
                });
                tracer.close(span);
                if push_failed {
                    return Err("a push_batch failed".into());
                }
                report.map_err(|e| e.to_string())
            }
        }
    }

    fn checkpoint(&mut self) -> Result<EngineCheckpoint, String> {
        match self {
            Sut::Local(e) => e.checkpoint().map_err(|e| e.to_string()),
            Sut::Remote(e) => e.checkpoint().map_err(|e| e.to_string()),
        }
    }

    fn image(&mut self) -> Result<Image, String> {
        let checkpoint = fnv_bytes(&self.checkpoint()?.to_bytes());
        Ok(match self {
            Sut::Local(e) => Image {
                estimate: e.estimate(),
                shard_estimates: e.shard_estimates(),
                tracker_stats: e.tracker_stats(),
                merge_stats: e.merge_stats().clone(),
                checkpoint,
            },
            Sut::Remote(e) => Image {
                estimate: e.estimate(),
                shard_estimates: e.shard_estimates().map_err(|e| e.to_string())?,
                tracker_stats: e.tracker_stats().map_err(|e| e.to_string())?,
                merge_stats: e.merge_stats().clone(),
                checkpoint,
            },
        })
    }

    /// Fingerprint of a freshly built engine, without touching the wire.
    fn start_state(&mut self) -> Result<u64, String> {
        match self {
            Sut::Local(_) => Ok(self.image()?.checkpoint),
            Sut::Remote(e) => {
                let mut h = Fnv::default();
                h.word(e.time());
                h.word(e.estimate() as u64);
                h.word(e.merge_stats().total_messages());
                Ok(h.finish())
            }
        }
    }
}

/// Drive `sut` over the whole input in the workload's segments, off the clock.
fn drive_pass(ctx: &Ctx, sut: &mut Sut, mode: Mode, tracer: &mut Tracer) -> Result<(), String> {
    let Shape {
        batch,
        rounds,
        seg_rounds,
        ..
    } = ctx.shape;
    for seg in 0..rounds / seg_rounds {
        let slices = ctx.slices(seg * seg_rounds, seg_rounds);
        sut.run(mode, batch, &slices, tracer)?;
    }
    Ok(())
}

/// The answers, computed twice over: by standalone trackers fed each shard's
/// exact inputs through `Tracker::update_run` (which is also the kernel
/// floor), and by an in-process `run_parted` engine driven one round per
/// call, whose estimate the benchmark audits against its own ground truth at
/// every boundary.
struct Reference {
    f: i64,
    image: Image,
    boundaries: u64,
    /// Largest boundary error `|f̂ − f| / |f|` of the engine, by the
    /// benchmark's own arithmetic.
    max_err: f64,
    /// Mean error of the shard functions, audited every `AUDIT_EVERY` updates
    /// on standalone trackers.
    mean_err: f64,
    /// Σ over shard functions of `v(n)`.
    v: f64,
    /// Standalone `update_run` time for one pass, all shards.
    kernel: Duration,
    trackers: Vec<Box<dyn Tracker + Send>>,
}

fn reference(ctx: &Ctx, tally: &mut Tally) -> Result<Reference, String> {
    let Shape {
        shards,
        batch,
        rounds,
        ..
    } = ctx.shape;
    let mut trackers = Vec::with_capacity(shards);
    for s in 0..shards {
        trackers.push(ctx.spec.shard(s).build().map_err(|e| e.to_string())?);
    }
    let mut kernel = Duration::ZERO;
    let all = ctx.slices(0, rounds);
    for r in 0..rounds {
        for &(site, xs) in &all {
            let chunk = &xs[r * batch..(r + 1) * batch];
            let tracker = &mut trackers[site % shards];
            let t = Instant::now();
            std::hint::black_box(tracker.update_run(site, chunk));
            kernel += t.elapsed();
        }
    }
    // A second set of standalone trackers, fed the same runs in short pieces
    // (any cut of a run is bit-identical) and audited after each: the paper's
    // guarantee, per tracked function, at thousands of points a pass.
    let mut vars = vec![Variability::default(); shards];
    let mut audited = Vec::with_capacity(shards);
    for s in 0..shards {
        audited.push(ctx.spec.shard(s).build().map_err(|e| e.to_string())?);
    }
    let (mut audits, mut audit_sum, mut audit_violations) = (0u64, 0f64, 0u64);
    for r in 0..rounds {
        for &(site, xs) in &all {
            let s = site % shards;
            for piece in xs[r * batch..(r + 1) * batch].chunks(AUDIT_EVERY) {
                let estimate = audited[s].update_run(site, piece);
                vars[s].observe_all(piece);
                let truth = vars[s].f;
                if truth != 0 {
                    let err = (estimate - truth).abs() as f64 / truth.abs() as f64;
                    audit_violations += (err > EPS * (1.0 + 1e-12)) as u64;
                    audit_sum += err;
                    audits += 1;
                }
            }
        }
    }
    tally.attempt(audits);
    tally.fail(audit_violations, || {
        format!("reference: {audit_violations} ε violations on standalone trackers")
    });

    let mut twin = ctx.local(ctx.cfg)?;
    let (mut f, mut violations, mut max_err, mut engine_max) = (0i64, 0u64, 0f64, 0f64);
    for r in 0..rounds {
        let slices = ctx.slices(r, 1);
        let report = twin.run_parted(&slices).map_err(|e| e.to_string())?;
        f += slices.iter().flat_map(|s| s.1).sum::<i64>();
        let err = (twin.estimate() - f).abs() as f64 / f.abs() as f64;
        violations += (err > EPS * (1.0 + 1e-12)) as u64 + report.boundary_violations;
        max_err = max_err.max(err);
        engine_max = engine_max.max(report.max_boundary_rel_err);
    }
    let mut twin = Sut::Local(Box::new(twin));
    let image = twin.image()?;
    let boundaries = rounds as u64;
    tally.attempt(boundaries);
    tally.fail(violations, || {
        format!("reference: {violations} ε violations")
    });
    tally.check(engine_max == max_err, || {
        format!("reference: the engine audited a largest error of {engine_max}, the benchmark {max_err}")
    });
    let mut summed = CommStats::new();
    for t in &trackers {
        summed.merge(t.stats());
    }
    let standalone: Vec<i64> = trackers.iter().map(|t| t.estimate()).collect();
    tally.check(standalone == image.shard_estimates, || {
        "reference: run_parted shard estimates differ from standalone trackers".into()
    });
    let same_cut = audited
        .iter()
        .zip(&trackers)
        .all(|(a, t)| a.estimate() == t.estimate() && a.stats() == t.stats());
    tally.check(same_cut, || {
        "reference: update_run in short pieces differs from update_run in batches".into()
    });
    tally.check(summed == image.tracker_stats, || {
        "reference: run_parted tracker ledger differs from standalone trackers".into()
    });
    tally.check(vars.iter().map(|v| v.f).sum::<i64>() == f, || {
        "reference: ground truth differs between generator and meter".into()
    });
    Ok(Reference {
        f,
        image,
        boundaries,
        max_err,
        mean_err: audit_sum / audits.max(1) as f64,
        v: vars.iter().map(|v| v.v).sum(),
        kernel,
        trackers,
    })
}

/// Updates between two audits of a standalone tracker.
const AUDIT_EVERY: usize = 1024;

/// Drive one pass. Returns the pass wall and one wall per segment.
fn pass(
    ctx: &Ctx,
    sut: &mut Sut,
    index: usize,
    tracer: &mut Tracer,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<(Duration, Vec<Duration>), String> {
    let Shape {
        mode,
        batch,
        rounds,
        seg_rounds,
        ..
    } = ctx.shape;
    let segments = rounds / seg_rounds;
    let mut walls = Vec::with_capacity(segments);
    let (mut boundaries, mut violations, mut max_err) = (0u64, 0u64, 0f64);
    let mut last: Option<EngineReport> = None;
    tracer.at(index, 0);
    let started = Instant::now();
    let span = tracer.open("pass");
    for seg in 0..segments {
        tracer.at(index, seg);
        let slices = ctx.slices(seg * seg_rounds, seg_rounds);
        let (report, wall) = timed(|| sut.run(mode, batch, &slices, tracer));
        walls.push(wall);
        let report = report?;
        boundaries += report.batches;
        violations += report.boundary_violations;
        max_err = max_err.max(report.max_boundary_rel_err);
        last = Some(report);
    }
    tracer.close(span);
    let wall = started.elapsed();

    tally.attempt(boundaries);
    tally.fail(violations, || {
        format!("pass {index}: {violations} ε violations")
    });
    let last = last.expect("a pass has segments");
    tally.check(last.final_f == reference.f, || {
        format!(
            "pass {index}: ground truth {} differs from the generator's {}",
            last.final_f, reference.f
        )
    });
    tally.check(
        boundaries == reference.boundaries && max_err == reference.max_err,
        || format!("pass {index}: boundary audit differs from the reference"),
    );
    let image = sut.image()?;
    tally.check(image == reference.image, || {
        format!("pass {index}: estimate, ledgers or checkpoint bytes differ from run_parted")
    });
    Ok((wall, walls))
}

/// Timed passes, with the lifecycle passes spread evenly between them: this
/// host changes speed for seconds at a time, and a lifecycle bunched at the
/// end would sit in one such spell. In a traced run odd passes record spans
/// and even ones do not, so both kinds see the same machine states.
fn timed_passes(
    ctx: &Ctx,
    tracer: &mut Tracer,
    reference: &Reference,
    tally: &mut Tally,
    spawn_ms: &mut Vec<f64>,
) -> Result<([PassWalls; 2], Life), String> {
    let passes = ctx.opts.passes(ctx.shape.passes);
    let life_passes = if ctx.opts.smoke {
        1
    } else {
        ctx.shape.life_passes
    };
    let mut out = [PassWalls::default(), PassWalls::default()];
    let mut life = Life::default();
    let mut life_done = 0;
    let mut start_state = None;
    let phase = Instant::now();
    for index in 0..passes {
        if index >= 2 && phase.elapsed() > ctx.opts.time_cap() {
            break;
        }
        let traced = ctx.opts.trace && index % 2 == 1;
        let (sut, built) = timed(|| ctx.build(ctx.cfg));
        let mut sut = sut?;
        spawn_ms.push(ms(built));
        let state = sut.start_state()?;
        tally.check(*start_state.get_or_insert(state) == state, || {
            format!("pass {index}: fresh engine differs from the first one")
        });
        tracer.set_on(traced);
        let (wall, segs) = pass(ctx, &mut sut, index, tracer, reference, tally)?;
        drop(sut);
        let set = &mut out[traced as usize];
        set.pass_s.push(wall.as_secs_f64());
        set.round_ms
            .extend(segs.iter().map(|w| ms(*w) / ctx.shape.seg_rounds as f64));
        if (index + 1) * life_passes / passes > life_done {
            tracer.set_on(ctx.opts.trace);
            match ctx.shape.mode {
                Mode::Remote => {
                    lifecycle_remote(ctx, life_done, &mut life, tracer, reference, tally)?
                }
                _ => lifecycle_local(ctx, life_done, &mut life, tracer, tally)?,
            }
            life_done += 1;
        }
    }
    tracer.set_on(ctx.opts.trace);
    Ok((out, life))
}

/// Samples and counts from the lifecycle phase.
#[derive(Default)]
struct Life {
    ckpt_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    take_ms: Vec<f64>,
    to_bytes_ms: Vec<f64>,
    from_bytes_ms: Vec<f64>,
    record_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    image_bytes: usize,
    boundaries: u64,
    bases: u64,
    identity_links: u64,
    full_bytes: u64,
    delta_bytes: u64,
    diff_ns: f64,
    apply_ns: f64,
    delta_kb: f64,
    failovers: u64,
    replayed_rounds: u64,
}

impl Life {
    fn absorb_store(&mut self, store: &CheckpointStore) {
        let s = store.stats();
        self.boundaries += s.boundaries;
        self.bases += s.bases;
        self.identity_links += s.identity_links;
        self.full_bytes += s.full_bytes;
        self.delta_bytes += s.delta_bytes;
    }
}

/// Take a checkpoint at a boundary and record it. The sample is `take` plus
/// `record`: what a deployment pays per boundary to retain it as bytes. The
/// full image (`to_bytes`) is timed beside it as a layer number.
fn checkpoint_at_boundary(
    sut: &mut Sut,
    store: &mut CheckpointStore,
    life: &mut Life,
    tracer: &mut Tracer,
) -> Result<(EngineCheckpoint, Vec<u8>), String> {
    let span = tracer.open("ckpt");
    let (ckpt, take) = timed(|| tracer.span("take", || sut.checkpoint()));
    let ckpt = ckpt?;
    let (image, to_bytes) = timed(|| tracer.span("to_bytes", || ckpt.to_bytes()));
    let (recorded, record) = timed(|| tracer.span("record", || store.record(&ckpt)));
    tracer.close(span);
    recorded.map_err(|e| e.to_string())?;
    life.ckpt_ms.push(ms(take + record));
    life.take_ms.push(ms(take));
    life.to_bytes_ms.push(ms(to_bytes));
    life.record_ms.push(ms(record));
    life.image_bytes = image.len();
    Ok((ckpt, image))
}

/// Layer probes on a real boundary: decode of the full image, materialising
/// the newest boundary, and diff/apply between consecutive shard images.
fn probe_boundary(
    life: &mut Life,
    store: &CheckpointStore,
    image: &[u8],
    prev: Option<&EngineCheckpoint>,
    ckpt: &EngineCheckpoint,
) -> Result<(), String> {
    let (decoded, t) = timed(|| EngineCheckpoint::from_bytes(image));
    decoded.map_err(|e| e.to_string())?;
    life.from_bytes_ms.push(ms(t));
    let (latest, t) = timed(|| store.materialize_latest());
    latest.map_err(|e| e.to_string())?;
    life.materialize_ms.push(ms(t));
    if let Some(prev) = prev {
        for (a, b) in prev.states().iter().zip(ckpt.states()) {
            let (delta, t) = timed(|| StateDelta::diff(a.payload(), b.payload()));
            life.diff_ns += t.as_nanos() as f64;
            let (applied, t) = timed(|| delta.apply(a.payload()));
            life.apply_ns += t.as_nanos() as f64;
            if applied.map_err(|e| e.to_string())? != b.payload() {
                return Err("StateDelta::apply did not reproduce the image".into());
            }
            life.delta_kb += b.payload().len() as f64 / 1024.0;
        }
    }
    Ok(())
}

/// In-process lifecycle: checkpoints one segment apart, and before each
/// further segment a recovery from the stored bytes that replays it and must
/// land on the uninterrupted engine's state.
fn lifecycle_local(
    ctx: &Ctx,
    index: usize,
    life: &mut Life,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let Shape {
        mode,
        batch,
        rounds,
        life_seg_rounds: seg_rounds,
        ..
    } = ctx.shape;
    let mut sut = ctx.build(ctx.cfg)?;
    let mut store = CheckpointStore::new(ctx.cfg.delta_rebase_period());
    let mut prev: Option<EngineCheckpoint> = None;
    for seg in 0..rounds / seg_rounds {
        tracer.at(index, seg);
        let slices = ctx.slices(seg * seg_rounds, seg_rounds);
        let mut recovered = None;
        if prev.is_some() {
            let bytes = store.to_bytes();
            let started = Instant::now();
            let span = tracer.open("recover");
            let restored = tracer.span("from_bytes", || CheckpointStore::from_bytes(&bytes));
            let restored = restored.map_err(|e| e.to_string())?;
            let latest = tracer.span("materialize", || restored.materialize_latest());
            let latest = latest.map_err(|e| e.to_string())?;
            let resumed = tracer.span("resume", || {
                CounterEngine::resume(ctx.spec, ctx.cfg, &latest)
            });
            let mut resumed = Sut::Local(Box::new(resumed.map_err(|e| e.to_string())?));
            let id = tracer.open("replay");
            let replayed = resumed.run(mode, batch, &slices, tracer);
            tracer.close(id);
            tracer.close(span);
            life.recover_ms.push(ms(started.elapsed()));
            replayed?;
            recovered = Some(resumed);
        }
        let report = sut.run(mode, batch, &slices, tracer)?;
        tally.attempt(report.batches);
        tally.fail(report.boundary_violations, || {
            format!("lifecycle {index}.{seg}: ε violations")
        });
        let (ckpt, image) = checkpoint_at_boundary(&mut sut, &mut store, life, tracer)?;
        if let Some(mut resumed) = recovered {
            let same = resumed.checkpoint()? == ckpt;
            tally.check(same, || {
                format!(
                    "lifecycle {index}.{seg}: recovered engine differs from the uninterrupted one"
                )
            });
        }
        if ctx.opts.trace {
            probe_boundary(life, &store, &image, prev.as_ref(), &ckpt)?;
        }
        prev = Some(ckpt);
    }
    let latest = store.materialize_latest().map_err(|e| e.to_string())?;
    tally.check(Some(&latest) == prev.as_ref(), || {
        format!("lifecycle {index}: the store does not return the last checkpoint")
    });
    life.absorb_store(&store);
    Ok(())
}

/// Kills tolerated per engine: `RemoteConfig::default().max_failovers` is 8.
const KILLS_PER_ENGINE: usize = 6;

/// Remote lifecycle, on its own engines with `checkpoint_every(1)` armed
/// (timed passes never set it): a checkpoint after every one-round segment,
/// and on every other segment worker 0 is killed mid-round, so the
/// segment's wall is one recovery.
fn lifecycle_remote(
    ctx: &Ctx,
    index: usize,
    life: &mut Life,
    tracer: &mut Tracer,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<(), String> {
    let Shape {
        mode,
        batch,
        rounds,
        life_seg_rounds: seg_rounds,
        ..
    } = ctx.shape;
    let mut sut = ctx.build(ctx.cfg.checkpoint_every(1))?;
    let mut store = CheckpointStore::new(ctx.cfg.delta_rebase_period());
    let mut prev: Option<EngineCheckpoint> = None;
    let mut kills = 0;
    for seg in 0..rounds / seg_rounds {
        tracer.at(index, seg);
        let slices = ctx.slices(seg * seg_rounds, seg_rounds);
        let kill = seg % 2 == 1 && kills < KILLS_PER_ENGINE;
        if let (true, Sut::Remote(e)) = (kill, &mut sut) {
            e.set_fault_plan(FaultPlan::new().inject(FaultPoint::MidRound(0), 0, FaultKind::Kill));
            kills += 1;
        }
        let span = tracer.open(if kill { "recover" } else { "segment" });
        let (report, wall) = timed(|| sut.run(mode, batch, &slices, tracer));
        tracer.close(span);
        let report = report?;
        if kill {
            life.recover_ms.push(ms(wall));
        }
        tally.attempt(report.batches);
        tally.fail(report.boundary_violations, || {
            format!("lifecycle {index}.{seg}: ε violations")
        });
        let (ckpt, image) = checkpoint_at_boundary(&mut sut, &mut store, life, tracer)?;
        if ctx.opts.trace {
            probe_boundary(life, &store, &image, prev.as_ref(), &ckpt)?;
        }
        prev = Some(ckpt);
    }
    if let Sut::Remote(e) = &sut {
        let events = e.events();
        tally.check(events.len() == kills, || {
            format!(
                "lifecycle {index}: {kills} kills but {} failovers",
                events.len()
            )
        });
        life.failovers += events.len() as u64;
        life.replayed_rounds += events.iter().map(|e| e.replayed_rounds).sum::<u64>();
    }
    let image = sut.image()?;
    tally.check(image == reference.image, || {
        format!("lifecycle {index}: state after failovers differs from run_parted")
    });
    life.absorb_store(&store);
    Ok(())
}

/// `Consolidator::compress_runs` over the chunks of one pass: what
/// consolidation would cost per input and how many segments it would leave.
fn probe_consolidate(ctx: &Ctx) -> (f64, f64) {
    let Shape { batch, rounds, .. } = ctx.shape;
    let mut c = Consolidator::new();
    let mut segs = 0usize;
    let started = Instant::now();
    for r in 0..rounds {
        for feed in &ctx.feeds {
            segs += std::hint::black_box(c.compress_runs(&feed[r * batch..(r + 1) * batch])).len();
        }
    }
    let n = ctx.updates_per_pass() as f64;
    (started.elapsed().as_nanos() as f64 / n, segs as f64 / n)
}

/// Round trips over `Conn` on TCP loopback against a thread: out goes a frame
/// the size of one worker's round, back comes one the size of its report. The
/// transport alone, in the shape the remote engine uses it.
fn probe_transport(ctx: &Ctx) -> Result<Vec<f64>, String> {
    const REPLY: usize = 96;
    let trips = ctx.opts.sized(200).max(12);
    let chunks_per_worker = ctx.shape.sites.div_ceil(WORKERS);
    let frame = vec![0x5Au8; chunks_per_worker * ctx.shape.batch * 8];
    let listener =
        Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).map_err(|e| e.to_string())?;
    let endpoint = listener.endpoint().clone();
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            let mut conn = listener
                .accept(Some(Duration::from_secs(10)))
                .map_err(|e| e.to_string())?;
            for _ in 0..trips {
                let got = conn.recv().map_err(|e| e.to_string())?;
                conn.send(&got[..REPLY]).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut conn =
            Conn::connect(&endpoint, 20, Duration::from_millis(10)).map_err(|e| e.to_string())?;
        let mut rtt_us = Vec::with_capacity(trips);
        for _ in 0..trips {
            let (got, t) = timed(|| conn.send(&frame).and_then(|()| conn.recv()));
            if got.map_err(|e| e.to_string())? != frame[..REPLY] {
                return Err("echo returned other bytes".into());
            }
            rtt_us.push(t.as_secs_f64() * 1e6);
        }
        echo.join().map_err(|_| "echo thread panicked")??;
        Ok(rtt_us)
    })
}

/// In-process `run_parted` over the same input: pass walls for `vs_parted`
/// and `vs_local`.
fn local_pass_walls(ctx: &Ctx, n: usize) -> Result<Vec<f64>, String> {
    let mut quiet = Tracer::new(false);
    let mut walls = Vec::with_capacity(n);
    for _ in 0..n {
        let mut twin = Sut::Local(Box::new(ctx.local(ctx.cfg)?));
        let (ran, wall) = timed(|| drive_pass(ctx, &mut twin, Mode::Parted, &mut quiet));
        ran?;
        walls.push(wall.as_secs_f64());
    }
    Ok(walls)
}

/// Cost of the end-of-call commit a remote `run_parted` pays: a pass driven
/// as `rounds` one-round calls against the same pass as one call.
fn probe_ckpt_pull(ctx: &Ctx, per_round_pass_s: f64) -> Result<f64, String> {
    let mut quiet = Tracer::new(false);
    let mut sut = ctx.build(ctx.cfg)?;
    let slices = ctx.slices(0, ctx.shape.rounds);
    let (ran, wall) = timed(|| sut.run(ctx.shape.mode, ctx.shape.batch, &slices, &mut quiet));
    ran?;
    let commits = (ctx.shape.rounds - 1).max(1) as f64;
    Ok((per_round_pass_s - wall.as_secs_f64()) * 1e3 / commits)
}

pub fn run(opts: &Opts) -> Option<Result<(Outcome, Tracer), String>> {
    let mut shape = shape_of(&opts.workload)?;
    shape.batch = opts.sized(shape.batch);
    if opts.smoke && shape.mode == Mode::Remote {
        // A remote round costs the same whatever it carries: a smoke run
        // must cut rounds too.
        shape.rounds /= 3;
    }
    Some(run_shape(shape, opts))
}

fn run_shape(shape: Shape, opts: &Opts) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(shape.sites)
        .eps(EPS)
        .seed(opts.seed)
        .deletions(true);
    let cfg = EngineConfig::new(shape.shards, shape.batch)
        .workers(WORKERS)
        .eps(EPS);
    let generate = || {
        let len = shape.rounds * shape.batch;
        match shape.stream {
            Stream::Quiet => quiet_feeds(opts.seed, shape.sites, len),
            Stream::Loud => loud_feeds(opts.seed, shape.sites, len),
        }
    };

    // Set-up, several times over: inputs, engine (and workers), one untimed
    // warm-up pass.
    let mut setup_s = Vec::new();
    let mut ctx = None;
    for _ in 0..opts.setups() {
        drop(ctx.take());
        let started = Instant::now();
        let fresh = Ctx {
            shape,
            spec,
            cfg,
            feeds: generate(),
            opts,
        };
        let mut sut = fresh.build(cfg)?;
        drive_pass(&fresh, &mut sut, shape.mode, &mut tracer)?;
        drop(sut);
        setup_s.push(started.elapsed().as_secs_f64());
        ctx = Some(fresh);
    }
    let ctx = ctx.expect("at least one set-up");
    out.input_fingerprint = fingerprint_feeds(&ctx.feeds);

    let reference = reference(&ctx, &mut out.tally)?;
    let mut spawn_ms = Vec::new();
    let ([plain, traced], life) =
        timed_passes(&ctx, &mut tracer, &reference, &mut out.tally, &mut spawn_ms)?;

    let n = ctx.updates_per_pass() as f64;
    let msgs = (reference.image.tracker_stats.total_messages()
        + reference.image.merge_stats.total_messages()) as f64;
    out.set_timed(Timed {
        setup_s: &setup_s,
        updates_per_pass: n,
        plain: &plain,
        ckpt_ms: &life.ckpt_ms,
        recover_ms: &life.recover_ms,
        // A remote recovery is a whole number of 44 ms socket stalls.
        recover: match shape.mode {
            Mode::Remote => midmean,
            _ => median,
        },
    });
    out.set("msgs_per_kupd", msgs / n * 1e3);
    out.set(
        "msgs_per_budget",
        msgs / (shape.sites as f64 / EPS * reference.v),
    );
    out.set("err_over_eps", reference.mean_err / EPS);
    out.set("eps_headroom", 1.0 - reference.mean_err / EPS);
    out.set("core.err_over_eps_max", reference.max_err / EPS);
    out.set(
        "ckpt_bytes_per_boundary",
        life.delta_bytes as f64 / life.boundaries as f64,
    );
    out.note("variability", Json::Num(reference.v));

    if opts.trace {
        layer_metrics(
            &ctx, &mut out, &reference, &plain, &traced, &life, &spawn_ms, &tracer,
        )?;
    }
    Ok((out, tracer))
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    reference: &Reference,
    plain: &PassWalls,
    traced: &PassWalls,
    life: &Life,
    spawn_ms: &[f64],
    tracer: &Tracer,
) -> Result<(), String> {
    let shape = ctx.shape;
    let n = ctx.updates_per_pass() as f64;
    let pass_s = median(&plain.pass_s);

    out.set(
        "core.update_run_ns_per_upd",
        reference.kernel.as_nanos() as f64 / n,
    );
    out.set(
        "core.msgs",
        reference.image.tracker_stats.total_messages() as f64,
    );
    let mut snapshot_us = Vec::new();
    let mut state_bytes = 0usize;
    for t in &reference.trackers {
        for _ in 0..32 {
            let (state, took) = timed(|| t.snapshot());
            state_bytes = state.map_err(|e| e.to_string())?.payload().len();
            snapshot_us.push(took.as_secs_f64() * 1e6);
        }
    }
    out.set("core.snapshot_us", median(&snapshot_us));
    out.set("core.state_bytes", state_bytes as f64);

    out.set("engine.sharded.rounds", reference.boundaries as f64);
    out.set(
        "engine.sharded.merge_msgs",
        reference.image.merge_stats.total_messages() as f64,
    );
    let (ns_per_upd, segs_per_upd) = probe_consolidate(ctx);
    out.set("engine.consolidate.ns_per_upd", ns_per_upd);
    out.set("engine.consolidate.segs_per_upd", segs_per_upd);

    if shape.mode != Mode::Remote {
        out.set(
            "engine.sharded.segment_ms",
            median(&traced.round_ms) * shape.seg_rounds as f64,
        );
        out.set(
            "engine.sharded.overhead_share",
            1.0 - reference.kernel.as_secs_f64() / WORKERS as f64 / pass_s,
        );
    }
    let traced_passes = traced.pass_s.len().max(1) as f64;
    if shape.mode == Mode::Pipelined {
        // Spans of the timed passes only: the lifecycle pushes too.
        let spans = tracer.by_name_under("pass");
        let push_ns = spans.get("engine.ingest.push_batch").map_or(0, |s| s.1);
        out.set(
            "engine.ingest.push_ms",
            push_ns as f64 / 1e6 / traced_passes,
        );
        // The ingest ledger of one pass, on its own engine.
        let mut sut = ctx.build(ctx.cfg)?;
        drive_pass(ctx, &mut sut, shape.mode, &mut Tracer::new(false))?;
        if let Sut::Local(e) = &sut {
            let s = e.ingest_stats();
            out.set("engine.ingest.push_stalls", s.push_stalls as f64);
            out.set("engine.ingest.pop_waits", s.pop_waits as f64);
            out.set("engine.ingest.mean_occupancy", s.mean_occupancy());
            out.set("engine.ingest.high_water", s.high_water as f64);
        }
        let parted = median(&local_pass_walls(ctx, plain.pass_s.len())?);
        out.set("engine.ingest.vs_parted", parted / pass_s);
    }

    out.set("engine.checkpoint.take_ms", median(&life.take_ms));
    out.set("engine.checkpoint.to_bytes_ms", median(&life.to_bytes_ms));
    out.set(
        "engine.checkpoint.from_bytes_ms",
        median(&life.from_bytes_ms),
    );
    out.set("engine.checkpoint.image_bytes", life.image_bytes as f64);
    out.set("engine.delta.record_ms", median(&life.record_ms));
    out.set("engine.delta.materialize_ms", median(&life.materialize_ms));
    out.set(
        "engine.delta.shrink",
        life.full_bytes as f64 / life.delta_bytes.max(1) as f64,
    );
    out.set("engine.delta.identity_links", life.identity_links as f64);
    out.set("engine.delta.bases", life.bases as f64);
    out.set("net.delta.diff_ns_per_kb", life.diff_ns / life.delta_kb);
    out.set("net.delta.apply_ns_per_kb", life.apply_ns / life.delta_kb);

    if shape.mode == Mode::Remote {
        let rtt = probe_transport(ctx)?;
        let rtt_tail = tail(&rtt);
        out.set("net.transport.rtt_us_p50", median(&rtt));
        out.set("net.transport.rtt_us_tail", rtt_tail.value);
        out.note("rtt_us_tail_is", Json::str(rtt_tail.label));
        // The wire ledger of one pass, on its own engine.
        let mut sut = ctx.build(ctx.cfg)?;
        drive_pass(ctx, &mut sut, shape.mode, &mut Tracer::new(false))?;
        if let Sut::Remote(e) = &sut {
            let w = e.wire_stats();
            out.set("engine.remote.frames_sent", w.frames_sent as f64);
            out.set("engine.remote.frames_received", w.frames_received as f64);
            out.set("engine.remote.bytes_sent", w.bytes_sent as f64);
            out.set("engine.remote.bytes_received", w.bytes_received as f64);
            out.set(
                "engine.remote.bytes_per_upd",
                (w.bytes_sent + w.bytes_received) as f64 / n,
            );
        }
        drop(sut);
        out.set("engine.remote.spawn_ms", median(spawn_ms));
        out.set("engine.remote.ckpt_pull_ms", probe_ckpt_pull(ctx, pass_s)?);
        out.set("engine.remote.failovers", life.failovers as f64);
        out.set("engine.remote.replayed_rounds", life.replayed_rounds as f64);
        let local = median(&local_pass_walls(ctx, 32)?);
        out.set("engine.remote.wait_share", 1.0 - local / pass_s);
        out.set("engine.remote.vs_local", local / pass_s);
    }

    out.set_trace_health(tracer, plain, traced);
    Ok(())
}

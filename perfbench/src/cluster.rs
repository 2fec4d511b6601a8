//! The `cluster-long` workload: a K = 4 `Cluster` persisting to a
//! `CheckpointStore` over a long stream, then dropped and reopened from
//! the store; and the traced run that assembles the same epoch from
//! `AggregatorNode`, `SimTransport` and `Coordinator` exactly as
//! `Cluster::ingest_epoch` does.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dam_cluster::{
    AggregatorNode, CheckpointError, CheckpointStore, Cluster, ClusterConfig, Coordinator,
    SimTransport,
};
use dam_core::Pyramid;
use dam_fault::NodeFaultPlan;
use dam_geo::{BoundingBox, Grid2D};
use dam_obs::{Stopwatch, WallClock};
use dam_stream::health::names;
use dam_stream::StreamingEstimator;

use crate::queries::{closed_loop, CoordinatorReads, QueryLog, QueryMix};
use crate::scenario::{EpochInput, Generator, TruthWindow};
use crate::stats::{
    check_snapshot, interquartile_mean, mean, median, quantile, snapshot_hash, Tally,
};
use crate::trace::Tracer;
use crate::{final_w2, heatmap_sides, pyramid_nodes, stream_config, Ctx, Fingerprint, Outcome};

/// Aggregator nodes.
const NODES: usize = 4;
/// Closed epochs between full checkpoints (a WAL entry every epoch).
const CHECKPOINT_EVERY: usize = 6;
/// Reopens from the store per run in the recovery measurement.
const RECOVER_REPS: usize = 21;

/// The workload's cluster topology and its (fault-free) node plan.
fn topology(seed: u64) -> (ClusterConfig, NodeFaultPlan) {
    (ClusterConfig::new(NODES), NodeFaultPlan::clean(seed))
}

/// An empty store directory for this process.
fn fresh_store(ctx: &Ctx, tag: &str) -> Result<(PathBuf, CheckpointStore), CheckpointError> {
    let dir = ctx.out_dir.join(format!("store-{}-{}-{tag}", ctx.w.name, std::process::id()));
    let store = CheckpointStore::new(&dir)?;
    store.wipe()?;
    Ok((dir, store))
}

/// Runs `cluster-long`; a store error fails the run.
pub fn run(ctx: &Ctx) -> Outcome {
    let outcome = if ctx.trace { traced_run(ctx) } else { untraced_run(ctx) };
    outcome.unwrap_or_else(|e| {
        let mut out = Outcome::new(Fingerprint::new());
        out.tally.record(Err(format!("checkpoint store: {e}")));
        out.incomplete = true;
        out
    })
}

/// What one untraced pass over the stream measured.
struct Pass {
    setup_ns: Vec<f64>,
    publish_ns: Vec<f64>,
    warm_reports: u64,
    hashes: Vec<u64>,
    tv: Vec<f64>,
    w2: f64,
    fingerprint: Fingerprint,
    /// Closed-loop reads of each published snapshot, between epochs.
    reads: QueryLog,
    cover_nodes: u64,
    tree_epochs: usize,
    tally: Tally,
    dir: PathBuf,
    /// The live cluster, for a crash at the end of the stream.
    cluster: Cluster,
}

/// Set-up, repeated as in the single-node workloads: `setup_reps`
/// constructions on a wiped store; the last one ingests epoch 0
/// (`input`) and is returned live.
fn set_up(
    ctx: &Ctx,
    setup_reps: usize,
    dir: &PathBuf,
    input: &EpochInput,
) -> Result<(Cluster, Vec<f64>), CheckpointError> {
    let grid = Grid2D::new(BoundingBox::unit(), ctx.w.d);
    let cfg = stream_config(ctx, ctx.nproc);
    let (ccfg, plan) = topology(ctx.seed);
    let mut setup_ns = Vec::new();
    let mut live = None;
    for _ in 0..setup_reps {
        drop(live.take());
        let store = CheckpointStore::new(dir)?;
        store.wipe()?;
        let sw = Stopwatch::start(ctx.clock);
        live = Some(Cluster::with_store(grid.clone(), cfg, ccfg, plan, store, CHECKPOINT_EVERY)?);
        setup_ns.push(sw.elapsed_ns() as f64);
    }
    let mut cluster = live.expect("at least one set-up");
    cluster.ingest_epoch(&input.points)?;
    Ok((cluster, setup_ns))
}

fn untraced_pass(ctx: &Ctx, setup_reps: usize) -> Result<Pass, CheckpointError> {
    let w = ctx.w;
    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let gen = Generator::new(ctx.seed, grid.clone(), w.reports_per_epoch, ctx.gen_threads());
    let mut input = EpochInput::default();
    let mut truth = TruthWindow::new(w.d, w.window);
    let mut tally = Tally::default();
    let (dir, _) = fresh_store(ctx, "live")?;
    gen.fill(0, &mut input);
    truth.push(&input.counts);
    let (mut cluster, setup_ns) = set_up(ctx, setup_reps, &dir, &input)?;

    let sides = heatmap_sides(&cluster.coordinator().snapshot().pyramid);
    let mut mix = QueryMix::new(ctx.seed, 2, w.d, sides);
    let mut reads = QueryLog::default();
    let mut cover_nodes = 0;
    let (mut hashes, mut tv) = (Vec::new(), Vec::new());
    let (mut publish_ns, mut warm_reports) = (Vec::new(), 0u64);
    for e in 0..w.epochs {
        if e > 0 {
            gen.fill(e, &mut input);
            truth.push(&input.counts);
            let sw = Stopwatch::start(ctx.clock);
            let result = cluster.ingest_epoch(&input.points);
            let ns = sw.elapsed_ns() as f64;
            match result {
                Ok(outcome) if outcome.snapshot.warm => {
                    publish_ns.push(ns);
                    warm_reports += input.points.len() as u64;
                }
                Ok(_) => {}
                Err(err) => tally.record(Err(format!("epoch {e}: {err}"))),
            }
        }
        let snap = cluster.coordinator().snapshot();
        tally.record(check_snapshot(&snap, e + 1));
        let dist = Arc::new(truth.distribution());
        hashes.push(snapshot_hash(&snap));
        tv.push(dist.tv(snap.estimate.values()));
        let serve = CoordinatorReads::new(cluster.coordinator());
        closed_loop(&serve, ctx.clock, w.reads_per_epoch, &mut mix, &dist, &mut reads);
        cover_nodes += serve.cover_nodes.load(Ordering::Relaxed);
    }
    tally.attempted += reads.sent;
    tally.failed += reads.failed;
    tally.notes.extend(reads.notes.iter().take(4).cloned());
    let last = cluster.coordinator().snapshot();
    let mut fingerprint = Fingerprint::new();
    fingerprint.read_stream(cluster.coordinator().estimator().obs());
    fingerprint.set("pyramid_nodes", pyramid_nodes(&last.pyramid));
    fingerprint.set("range_cover_nodes", cover_nodes);
    let w2 = final_w2(&grid, &last, &truth.distribution(), ctx.nproc, &mut tally);
    Ok(Pass {
        setup_ns,
        publish_ns,
        warm_reports,
        hashes,
        tv,
        w2,
        fingerprint,
        reads,
        cover_nodes,
        tree_epochs: cluster.coordinator().estimator().tree().len(),
        tally,
        dir,
        cluster,
    })
}

fn untraced_run(ctx: &Ctx) -> Result<Outcome, CheckpointError> {
    let w = ctx.w;
    let mut pass = untraced_pass(ctx, crate::SETUP_REPS)?;
    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let cfg = stream_config(ctx, ctx.nproc);
    let (ccfg, plan) = topology(ctx.seed);

    let peak_rss_mb = crate::peak_rss_mb();

    // Crash: drop the cluster, then reopen it from its store until the
    // recovered snapshot is served; it must be the pre-crash one.
    let want = snapshot_hash(&pass.cluster.coordinator().snapshot());
    drop(pass.cluster);
    let mut recover_ns = Vec::new();
    for _ in 0..RECOVER_REPS {
        let sw = Stopwatch::start(ctx.clock);
        let reopened = CheckpointStore::new(&pass.dir).and_then(|store| {
            Cluster::with_store(grid.clone(), cfg, ccfg, plan, store, CHECKPOINT_EVERY)
        });
        match reopened {
            Ok(cluster) => {
                let snap = cluster.coordinator().snapshot();
                recover_ns.push(sw.elapsed_ns() as f64);
                pass.tally.check(snapshot_hash(&snap) == want, || {
                    format!(
                        "recovered snapshot at epoch {} differs from the pre-crash one",
                        snap.epoch
                    )
                });
            }
            Err(err) => pass.tally.record(Err(format!("recovery: {err}"))),
        }
    }
    let _ = std::fs::remove_dir_all(&pass.dir);

    let mut out = Outcome::new(pass.fingerprint.clone());
    out.set("setup_s", median(&pass.setup_ns) / 1e9);
    out.set("epoch_publish_ms_p50", median(&pass.publish_ns) / 1e6);
    out.set("epoch_publish_ms_p90", quantile(&pass.publish_ns, 0.9) / 1e6);
    out.set(
        "reports_per_s",
        pass.warm_reports as f64 / (pass.publish_ns.iter().sum::<f64>() / 1e9),
    );
    out.set("query_us_p50", pass.reads.latency_us(0.5));
    out.set("query_us_p99", pass.reads.latency_us(0.99));
    out.set("recover_s", interquartile_mean(&recover_ns) / 1e9);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("window_tv", mean(&pass.tv));
    out.set("final_w2", pass.w2);
    out.set("range_relerr", mean(&pass.reads.relerr));
    let n = pass.publish_ns.len();
    out.note(format!(
        "samples: {n} warm epochs, {} queries, {} set-ups, {} reopens; publish mean \
         {:.3} ms over the first 200 epochs, {:.3} ms over the last 200; p99 {:.3} ms; tree holds {} epochs",
        pass.reads.sent,
        pass.setup_ns.len(),
        recover_ns.len(),
        mean(&pass.publish_ns[..n.min(200)]) / 1e6,
        mean(&pass.publish_ns[n.saturating_sub(200)..]) / 1e6,
        quantile(&pass.publish_ns, 0.99) / 1e6,
        pass.tree_epochs,
    ));
    out.tally = pass.tally;
    Ok(out)
}

/// Per-epoch measurements of the traced assembly (ns).
#[derive(Default)]
struct Epochs {
    node_sum: Vec<f64>,
    node_skew: Vec<f64>,
    close: Vec<f64>,
    checkpoint: Vec<bool>,
    state: Vec<f64>,
    em: Vec<f64>,
    pyramid: Vec<f64>,
    publish: Vec<f64>,
    last_checkpoint_bytes: u64,
}

/// Total time (ns) the coordinator's registry has recorded under each
/// of `paths`.
fn span_totals<const N: usize>(coord: &Coordinator, paths: [&str; N]) -> [f64; N] {
    let spans = coord.estimator().obs().snapshot().spans;
    paths.map(|p| spans.iter().find(|s| s.path == p).map_or(0.0, |s| s.total_ns as f64))
}

/// A coordinator counter's current value.
fn coord_counter(coord: &Coordinator, name: &str) -> u64 {
    coord.estimator().obs().counter_value(name)
}

fn traced_run(ctx: &Ctx) -> Result<Outcome, CheckpointError> {
    let w = ctx.w;
    let base = untraced_pass(ctx, 1)?;
    drop(base.cluster);
    let _ = std::fs::remove_dir_all(&base.dir);
    let mut tally = base.tally;

    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let cfg = stream_config(ctx, ctx.nproc);
    let (ccfg, plan) = topology(ctx.seed);
    let gen = Generator::new(ctx.seed, grid.clone(), w.reports_per_epoch, ctx.gen_threads());
    let mut input = EpochInput::default();
    let (dir, store) = fresh_store(ctx, "traced")?;
    let mut coord = Coordinator::with_store(grid.clone(), cfg, ccfg, store, CHECKPOINT_EVERY)?;
    // The coordinator's registry already spans its state and EM calls on
    // a simulated clock; a wall clock makes those spans read real time
    // without changing anything the pipeline computes.
    coord.estimator().obs().set_clock(Arc::new(WallClock::new()));
    let mut nodes: Vec<AggregatorNode> = (0..NODES)
        .map(|k| {
            AggregatorNode::new(grid.clone(), &cfg.dam, cfg.policy, k, NODES, ccfg.partition_seed)
        })
        .collect();
    let mut transport = SimTransport::new(NODES, plan);
    let mut tracer = Tracer::new(ctx.clock);
    let mut ep = Epochs::default();
    let mut hashes = Vec::new();
    let mut em_iters = Vec::new();
    let (mut state_seen, mut em_seen) = (0.0, 0.0);
    for e in 0..w.epochs {
        gen.fill(e, &mut input);
        let id = e as u64;
        let bytes_before = coord_counter(&coord, "coord_checkpoint_bytes");
        let root = tracer.open("publish", id);
        let seed = StreamingEstimator::epoch_seed(cfg.seed, e);
        let planes = (0..NODES)
            .map(|k| {
                if transport.node_down(k, e) {
                    None
                } else {
                    Some(tracer.span("node", id, || nodes[k].ingest_epoch(e, seed, &input.points)))
                }
            })
            .collect();
        transport.begin_epoch(e, planes);
        let result = tracer.span("coord", id, || coord.close_epoch(&mut transport));
        tracer.close(root);
        let outcome = match result {
            Ok(o) => o,
            Err(err) => {
                tally.record(Err(format!("traced epoch {e}: {err}")));
                continue;
            }
        };
        let snap = &outcome.snapshot;
        tally.record(check_snapshot(snap, e + 1));
        hashes.push(snapshot_hash(snap));
        em_iters.push(snap.em_iters);
        // The pyramid is built inside the close; time the same call on
        // the same plane here, outside the publish span.
        let sw = Stopwatch::start(ctx.clock);
        drop(Pyramid::from_plane(snap.estimate.values(), w.d));
        ep.pyramid.push(sw.elapsed_ns() as f64);
        let [state_total, em_total] =
            span_totals(&coord, ["close_epoch/ingest_plane", "close_epoch/em_window"]);
        ep.state.push(state_total - state_seen);
        ep.em.push(em_total - em_seen);
        (state_seen, em_seen) = (state_total, em_total);
        let bytes = coord_counter(&coord, "coord_checkpoint_bytes") - bytes_before;
        ep.checkpoint.push(bytes > 0);
        if bytes > 0 {
            ep.last_checkpoint_bytes = bytes;
        }
    }
    for durs in tracer.durations_by_epoch("node").into_values() {
        let sum: f64 = durs.iter().sum();
        let max = durs.iter().copied().fold(0.0, f64::max);
        ep.node_sum.push(sum);
        ep.node_skew.push(max / (sum / durs.len() as f64));
    }
    ep.close = tracer.durations_by_epoch("coord").into_values().flatten().collect();
    ep.publish = tracer.durations_by_epoch("publish").into_values().flatten().collect();
    tally.check(hashes == base.hashes, || "traced snapshots differ from the untraced run's".into());
    let mut traced_fp = Fingerprint::new();
    traced_fp.read_stream(coord.estimator().obs());
    for key in ["em_iterations_total", "reports_seen", "coord_checkpoint_bytes", "coord_wal_bytes"]
    {
        let (a, b) = (base.fingerprint.get(key), traced_fp.get(key));
        tally.check(a == b, || format!("fingerprint {key}: untraced {a}, traced {b}"));
    }

    let reg = coord.estimator().obs();
    let warm = |v: &[f64]| v[1..].to_vec();
    let (node_sum, state, em, close) =
        (warm(&ep.node_sum), warm(&ep.state), warm(&ep.em), warm(&ep.close));
    let close_on = |ckpt: bool| -> Vec<f64> {
        ep.close
            .iter()
            .zip(&ep.checkpoint)
            .skip(1)
            .filter(|(_, &c)| c == ckpt)
            .map(|(&t, _)| t)
            .collect()
    };
    let (close_plain, close_ckpt) = (close_on(false), close_on(true));
    let coord_self: Vec<f64> =
        close.iter().zip(&state).zip(&em).map(|((c, s), m)| c - s - m).collect();
    let warm_iters: usize = em_iters[1..].iter().sum();
    let untraced_p50 = median(&base.publish_ns);
    let untraced_p90 = quantile(&base.publish_ns, 0.9);
    let traced_p50 = median(&warm(&ep.publish));
    let layer_sum = median(&node_sum) + median(&close);
    let reports = (w.reports_per_epoch * w.epochs) as f64;

    let mut out = Outcome::new(base.fingerprint.clone());
    out.set("shard.busy_ms", median(&node_sum) / 1e6);
    out.set("shard.ns_per_report", ep.node_sum.iter().sum::<f64>() / reports);
    out.set("shard.reports", reg.counter_value(names::REPORTS_SEEN) as f64);
    out.set("shard.quarantined", reg.counter_value(names::REPORTS_QUARANTINED) as f64);
    out.set("state.busy_us", median(&state) / 1e3);
    out.set("state.tree_epochs", coord.estimator().tree().len() as f64);
    out.set("em.busy_ms", median(&em) / 1e6);
    out.set("em.cold_ms", ep.em[0] / 1e6);
    out.set("em.iters", warm_iters as f64 / em.len() as f64);
    out.set("em.cold_iters", em_iters[0] as f64);
    out.set("em.ms_per_iter", em.iter().sum::<f64>() / 1e6 / warm_iters.max(1) as f64);
    out.set("em.reseeds", reg.counter_value(names::EM_RESEEDS) as f64);
    out.set("em.backend_fallbacks", reg.counter_value(names::BACKEND_FALLBACKS) as f64);
    out.set("em.backend_fft", reg.counter_value("em_backend_selected_fft") as f64);
    out.set("em.backend_conv", reg.counter_value("em_backend_selected_conv") as f64);
    out.set("pyramid.build_us", median(&ep.pyramid) / 1e3);
    out.set("pyramid.nodes", base.fingerprint.get("pyramid_nodes") as f64);
    out.set("service.glue_us", (untraced_p50 - layer_sum) / 1e3);
    let ranges = base.reads.per_kind[1].max(1) as f64;
    crate::set_query_layers(&mut out, &base.reads, base.cover_nodes as f64 / ranges);
    out.set("node.busy_ms", median(&node_sum) / 1e6);
    out.set("node.skew", mean(&ep.node_skew));
    out.set("coord.close_ms", median(&close_plain) / 1e6);
    out.set("coord.close_ckpt_ms", median(&close_ckpt) / 1e6);
    out.set("coord.self_ms", median(&coord_self) / 1e6);
    out.set("coord.polls", coord_counter(&coord, "coord_polls") as f64);
    out.set("coord.retries", coord_counter(&coord, "coord_retries") as f64);
    out.set("coord.checkpoint_bytes", ep.last_checkpoint_bytes as f64);
    out.set("coord.wal_bytes", coord_counter(&coord, "coord_wal_bytes") as f64 / w.epochs as f64);
    out.set("obs.trace_overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50);

    let share = |ns: f64| 100.0 * ns / untraced_p50;
    out.note(format!(
        "attribution of untraced epoch_publish_ms_p50 = {:.3} ms: nodes {:.1}%, coordinator close {:.1}% \
         (state {:.2}%, em {:.1}%, coordinator self {:.1}%), glue {:.1}%; traced publish p50 {:.3} ms",
        untraced_p50 / 1e6,
        share(median(&node_sum)),
        share(median(&close)),
        share(median(&state)),
        share(median(&em)),
        share(median(&coord_self)),
        share(untraced_p50 - layer_sum),
        traced_p50 / 1e6,
    ));
    out.note(format!(
        "untraced epoch_publish_ms_p90 = {:.3} ms; close p50 on checkpoint epochs {:.3} ms ({} epochs), on \
         other epochs {:.3} ms; nodes p50 {:.3} ms; last checkpoint {} bytes",
        untraced_p90 / 1e6,
        median(&close_ckpt) / 1e6,
        close_ckpt.len(),
        median(&close_plain) / 1e6,
        median(&node_sum) / 1e6,
        ep.last_checkpoint_bytes,
    ));
    drop(coord);
    let _ = std::fs::remove_dir_all(&dir);
    out.trace_json = Some(tracer.to_json());
    out.tally = tally;
    Ok(out)
}

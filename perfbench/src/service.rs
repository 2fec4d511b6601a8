//! The single-node workloads (`serve-d64`, `ingest-d20`): a
//! `QueryService` fed epoch by epoch, and the traced run that
//! re-assembles the same publish path from each layer's public calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use dam_core::Pyramid;
use dam_geo::{BoundingBox, Grid2D};
use dam_obs::{Plane, Registry, Stopwatch};
use dam_stream::health::names;
use dam_stream::{QueryService, Snapshot, StreamingEstimator};

use crate::queries::{closed_loop, open_loop, QueryLog, QueryMix, TruthBoard};
use crate::scenario::{EpochInput, Generator, TrueDistribution, TruthWindow};
use crate::stats::{
    check_snapshot, interquartile_mean, mean, median, quantile, snapshot_hash, Tally,
};
use crate::trace::Tracer;
use crate::{final_w2, heatmap_sides, pyramid_nodes, stream_config, Ctx, Fingerprint, Outcome};

/// Closed-loop queries sent after the open-loop sender stops: a fixed
/// query set, so its range-cover count is a deterministic fingerprint.
const FINGERPRINT_QUERIES: usize = 20_000;
/// Service rebuilds per run in the recovery measurement.
const RECOVER_REPS: usize = 7;

/// What one untraced pass over the stream measured.
struct Pass {
    setup_ns: Vec<f64>,
    /// Publish time of every warm epoch (ns).
    publish_ns: Vec<f64>,
    warm_reports: u64,
    /// Snapshot hashes of the scored epochs, in order.
    hashes: Vec<u64>,
    tv: Vec<f64>,
    w2: f64,
    fingerprint: Fingerprint,
    /// The queries the metrics describe: the open-loop sender's where
    /// there is one, else the closed-loop reads between epochs.
    queries: QueryLog,
    cover_nodes_mean: f64,
    /// Peak resident memory when the scored epochs ended (MB).
    peak_rss_mb: f64,
    /// Epochs ingested (scored plus timing-only).
    epochs: usize,
    tally: Tally,
}

/// Runs a single-node workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let threads = if ctx.w.single_thread { 1 } else { ctx.nproc };
    if ctx.trace {
        traced_run(ctx, threads)
    } else {
        untraced_run(ctx, threads)
    }
}

fn untraced_run(ctx: &Ctx, threads: usize) -> Outcome {
    let mut pass = untraced_pass(ctx, threads, crate::SETUP_REPS, true);
    let recover_ns = recover(ctx, threads, pass.epochs, &mut pass.tally);
    let mut out = Outcome::new(pass.fingerprint.clone());
    let q = &pass.queries;
    out.set("setup_s", median(&pass.setup_ns) / 1e9);
    out.set("epoch_publish_ms_p50", median(&pass.publish_ns) / 1e6);
    out.set("epoch_publish_ms_p90", quantile(&pass.publish_ns, 0.9) / 1e6);
    out.set(
        "reports_per_s",
        pass.warm_reports as f64 / (pass.publish_ns.iter().sum::<f64>() / 1e9),
    );
    out.set("query_us_p50", q.latency_us(0.5));
    out.set("query_us_p99", q.latency_us(0.99));
    out.set("recover_s", interquartile_mean(&recover_ns) / 1e9);
    out.set("peak_rss_mb", pass.peak_rss_mb);
    out.set("window_tv", mean(&pass.tv));
    out.set("final_w2", pass.w2);
    out.set("range_relerr", mean(&q.relerr));
    out.note(format!(
        "samples: {} warm epochs, {} queries ({} scored ranges), {} set-ups, {} rebuilds",
        pass.publish_ns.len(),
        q.sent,
        q.relerr.len(),
        pass.setup_ns.len(),
        recover_ns.len()
    ));
    out.tally = pass.tally;
    out
}

/// Set-up, repeated: `setup_reps` constructions; the last one ingests
/// epoch 0 (`input`) and is returned live.
fn set_up(
    ctx: &Ctx,
    threads: usize,
    setup_reps: usize,
    input: &EpochInput,
    tally: &mut Tally,
) -> (QueryService, Vec<f64>) {
    let grid = Grid2D::new(BoundingBox::unit(), ctx.w.d);
    let cfg = stream_config(ctx, threads);
    let mut setup_ns = Vec::new();
    let mut live = None;
    for _ in 0..setup_reps {
        drop(live.take());
        let sw = Stopwatch::start(ctx.clock);
        live = Some(QueryService::new(grid.clone(), cfg));
        setup_ns.push(sw.elapsed_ns() as f64);
    }
    let svc = live.expect("at least one set-up");
    svc.ingest_epoch(&input.points);
    tally.record(check_snapshot(&svc.snapshot(), 1));
    (svc, setup_ns)
}

/// One untraced pass: set-up, the scored epochs, and — with `extend` —
/// timing-only epochs until `ctx.seconds` of stream have run. Queries
/// run beside ingest (open loop) or between epochs (closed loop), as the
/// workload says.
fn untraced_pass(ctx: &Ctx, threads: usize, setup_reps: usize, extend: bool) -> Pass {
    let w = ctx.w;
    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let gen = Generator::new(ctx.seed, grid.clone(), w.reports_per_epoch, ctx.gen_threads());
    let mut input = EpochInput::default();
    let mut truth = TruthWindow::new(w.d, w.window);
    let mut tally = Tally::default();
    gen.fill(0, &mut input);
    truth.push(&input.counts);
    let (svc, setup_ns) = set_up(ctx, threads, setup_reps, &input, &mut tally);
    let first_truth = Arc::new(truth.distribution());

    let first = svc.snapshot();
    let mut hashes = vec![snapshot_hash(&first)];
    let mut tv = vec![first_truth.tv(first.estimate.values())];
    let sides = heatmap_sides(&first.pyramid);
    let mut reads = QueryLog::default();
    let mut read_mix = QueryMix::new(ctx.seed, 2, w.d, sides.clone());
    closed_loop(&svc, ctx.clock, w.reads_per_epoch, &mut read_mix, &first_truth, &mut reads);

    let board = TruthBoard::default();
    board.post(1, first_truth);
    let stop = AtomicBool::new(false);
    let mut publish_ns = Vec::new();
    let mut warm_reports = 0u64;
    let mut scored_end: Option<(Arc<Snapshot>, Arc<TrueDistribution>)> = None;
    let mut fingerprint = Fingerprint::new();
    let mut epochs = 1;
    let mut peak_rss_mb = f64::NAN;
    let sent_alongside = std::thread::scope(|s| {
        let sender = w.query_rate.map(|rate| {
            let mix = QueryMix::new(ctx.seed, 1, w.d, sides.clone());
            let (svc, board, stop) = (&svc, &board, &stop);
            s.spawn(move || open_loop(svc, ctx.clock, rate, mix, board, stop))
        });
        let stream = Stopwatch::start(ctx.clock);
        loop {
            let e = epochs;
            let scored = e < w.epochs;
            let timing_only = extend && stream.elapsed_secs() < ctx.seconds;
            if !(scored || timing_only) {
                break;
            }
            gen.fill(e, &mut input);
            truth.push(&input.counts);
            let dist = Arc::new(truth.distribution());
            if w.query_rate.is_some() {
                board.post(e + 1, Arc::clone(&dist));
            }
            let sw = Stopwatch::start(ctx.clock);
            svc.ingest_epoch(&input.points);
            let ns = sw.elapsed_ns() as f64;
            epochs += 1;
            let snap = svc.snapshot();
            tally.record(check_snapshot(&snap, e + 1));
            if snap.warm {
                publish_ns.push(ns);
                warm_reports += input.points.len() as u64;
            }
            if scored {
                closed_loop(&svc, ctx.clock, w.reads_per_epoch, &mut read_mix, &dist, &mut reads);
                hashes.push(snapshot_hash(&snap));
                tv.push(dist.tv(snap.estimate.values()));
                if e + 1 == w.epochs {
                    // Read before timing-only epochs grow the retained history.
                    peak_rss_mb = crate::peak_rss_mb();
                    fingerprint.read_stream(svc.obs());
                    scored_end = Some((Arc::clone(&snap), dist));
                }
            }
        }
        stop.store(true, Ordering::Release);
        sender.map(|h| h.join().expect("query sender panicked"))
    });
    let (last_snap, last_truth) = scored_end.expect("at least one scored epoch");

    // The range-cover count of a fixed query set: the between-epoch reads
    // where they run, else a closed-loop set once the sender stopped.
    let covered = svc.obs().histogram("range_cover_nodes", Plane::Deterministic);
    if sent_alongside.is_some() {
        let before = covered.sum();
        let mut mix = QueryMix::new(ctx.seed, 3, w.d, sides);
        let final_truth = Arc::new(truth.distribution());
        closed_loop(&svc, ctx.clock, FINGERPRINT_QUERIES, &mut mix, &final_truth, &mut reads);
        fingerprint.set("range_cover_nodes", covered.sum() - before);
    } else {
        fingerprint.set("range_cover_nodes", covered.sum());
    }
    let cover_nodes_mean = covered.sum() as f64 / covered.count().max(1) as f64;
    fingerprint.set("pyramid_nodes", pyramid_nodes(&last_snap.pyramid));

    // Every query went through the service's instrumented calls.
    let sent = |kind: usize| {
        reads.per_kind[kind] + sent_alongside.as_ref().map_or(0, |l| l.per_kind[kind])
    };
    for (kind, counter) in
        ["service_queries_point", "service_queries_range", "service_queries_heatmap"]
            .into_iter()
            .enumerate()
    {
        let counted = svc.obs().counter_value(counter);
        tally
            .check(counted == sent(kind), || format!("{counter} = {counted}, sent {}", sent(kind)));
    }
    for log in sent_alongside.iter().chain([&reads]) {
        tally.attempted += log.sent;
        tally.failed += log.failed;
        tally.notes.extend(log.notes.iter().take(4).cloned());
    }
    let w2 = final_w2(&grid, &last_snap, &last_truth, ctx.nproc, &mut tally);
    Pass {
        setup_ns,
        publish_ns,
        warm_reports,
        hashes,
        tv,
        w2,
        fingerprint,
        queries: sent_alongside.unwrap_or(reads),
        cover_nodes_mean,
        peak_rss_mb,
        epochs,
        tally,
    }
}

/// A crashed single-node service has no store: it comes back by being
/// rebuilt and re-fed its last `window` epochs. Each repeat times the
/// construction plus those publishes (generation excluded) until the
/// rebuilt window is served, on a different window of the stream.
fn recover(ctx: &Ctx, threads: usize, ingested: usize, tally: &mut Tally) -> Vec<f64> {
    let w = ctx.w;
    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let cfg = stream_config(ctx, threads);
    let gen = Generator::new(ctx.seed, grid.clone(), w.reports_per_epoch, ctx.gen_threads());
    let mut input = EpochInput::default();
    (0..RECOVER_REPS)
        .map(|rep| {
            let end = ingested.saturating_sub(rep * w.window).max(w.window);
            let sw = Stopwatch::start(ctx.clock);
            let svc = QueryService::new(grid.clone(), cfg);
            let mut ns = sw.elapsed_ns() as f64;
            for e in end - w.window..end {
                gen.fill(e, &mut input);
                let sw = Stopwatch::start(ctx.clock);
                svc.ingest_epoch(&input.points);
                ns += sw.elapsed_ns() as f64;
            }
            tally.record(check_snapshot(&svc.snapshot(), w.window));
            ns
        })
        .collect()
}

/// What the traced re-assembly measured.
struct TracedPass {
    hashes: Vec<u64>,
    em_iters: Vec<usize>,
    tree_epochs: usize,
    pyramid_nodes: u64,
    fingerprint: Fingerprint,
    registry: Registry,
    spans_json: String,
    /// Per-epoch self times (ns) by layer, plus the publish root span.
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per-epoch duration of the whole publish (ns).
    publish_ns: Vec<f64>,
    reports: u64,
}

/// The traced publish path: the calls `QueryService::ingest_epoch`
/// makes, in its order, each inside a span recorded here.
fn traced_pass(ctx: &Ctx, threads: usize, tally: &mut Tally) -> TracedPass {
    let w = ctx.w;
    let grid = Grid2D::new(BoundingBox::unit(), w.d);
    let cfg = stream_config(ctx, threads);
    let gen = Generator::new(ctx.seed, grid.clone(), w.reports_per_epoch, ctx.gen_threads());
    let mut input = EpochInput::default();
    let mut est = StreamingEstimator::new(grid, cfg);
    let latest: RwLock<Option<Arc<Snapshot>>> = RwLock::new(None);
    let mut tracer = Tracer::new(ctx.clock);
    let mut scratch = Vec::new();
    let (mut hashes, mut em_iters) = (Vec::new(), Vec::new());
    let mut reports = 0u64;
    let mut nodes = 0;
    for e in 0..w.epochs {
        gen.fill(e, &mut input);
        let id = e as u64;
        let root = tracer.open("publish", id);
        let seed = StreamingEstimator::epoch_seed(cfg.seed, e);
        let summary = tracer.span("shard", id, || {
            est.client().report_batch_validated_in(
                &input.points,
                seed,
                cfg.dam.threads,
                cfg.policy,
                &mut scratch,
            )
        });
        tracer.span("state", id, || est.ingest_epoch_plane(&scratch, &summary));
        let win = tracer.span("em", id, || est.estimate_window());
        let pyramid =
            tracer.span("pyramid", id, || Pyramid::from_plane(win.histogram.values(), w.d));
        let snap = Arc::new(Snapshot {
            epoch: est.epochs(),
            pyramid,
            estimate: win.histogram,
            em_iters: win.em_iters,
            warm: win.warm,
            health: win.health,
        });
        *latest.write().expect("snapshot lock poisoned") = Some(Arc::clone(&snap));
        tracer.close(root);
        reports += input.points.len() as u64;
        tally.record(check_snapshot(&snap, e + 1));
        hashes.push(snapshot_hash(&snap));
        em_iters.push(snap.em_iters);
        nodes = pyramid_nodes(&snap.pyramid);
    }
    let mut fingerprint = Fingerprint::new();
    fingerprint.read_stream(est.obs());
    let layers = ["shard", "state", "em", "pyramid", "publish"]
        .into_iter()
        .map(|name| (name, tracer.self_by_epoch(name).into_values().collect()))
        .collect();
    TracedPass {
        hashes,
        em_iters,
        tree_epochs: est.tree().len(),
        pyramid_nodes: nodes,
        fingerprint,
        registry: est.obs().clone(),
        spans_json: tracer.to_json(),
        layers,
        publish_ns: tracer.durations_by_epoch("publish").into_values().flatten().collect(),
        reports,
    }
}

fn traced_run(ctx: &Ctx, threads: usize) -> Outcome {
    let mut base = untraced_pass(ctx, threads, 1, false);
    let mut tally = std::mem::take(&mut base.tally);
    let traced = traced_pass(ctx, threads, &mut tally);
    tally.check(traced.hashes == base.hashes, || {
        "traced snapshots differ from the untraced run's".into()
    });
    for key in ["em_iterations_total", "reports_seen"] {
        let (a, b) = (base.fingerprint.get(key), traced.fingerprint.get(key));
        tally.check(a == b, || format!("fingerprint {key}: untraced {a}, traced {b}"));
    }
    if !ctx.w.single_thread && ctx.nproc > 1 {
        // Neither the work nor the snapshots may depend on the thread count.
        let mut one = untraced_pass(ctx, 1, 1, false);
        tally.check(one.hashes == base.hashes, || "snapshots differ at 1 thread".into());
        tally.check(one.fingerprint == base.fingerprint, || {
            format!(
                "fingerprint at 1 thread {:?} != at {threads} {:?}",
                one.fingerprint, base.fingerprint
            )
        });
        tally.absorb(std::mem::take(&mut one.tally));
    }

    let warm = |name: &str| -> Vec<f64> { traced.layers[name][1..].to_vec() };
    let (shard, state, em, pyr) = (warm("shard"), warm("state"), warm("em"), warm("pyramid"));
    let warm_iters: usize = traced.em_iters[1..].iter().sum();
    let untraced_p50 = median(&base.publish_ns);
    let traced_p50 = median(&traced.publish_ns[1..]);
    let layer_sum = median(&shard) + median(&state) + median(&em) + median(&pyr);
    let reg = &traced.registry;

    let mut out = Outcome::new(base.fingerprint.clone());
    out.set("shard.busy_ms", median(&shard) / 1e6);
    out.set(
        "shard.ns_per_report",
        traced.layers["shard"].iter().sum::<f64>() / traced.reports as f64,
    );
    out.set("shard.reports", reg.counter_value(names::REPORTS_SEEN) as f64);
    out.set("shard.quarantined", reg.counter_value(names::REPORTS_QUARANTINED) as f64);
    out.set("state.busy_us", median(&state) / 1e3);
    out.set("state.tree_epochs", traced.tree_epochs as f64);
    out.set("em.busy_ms", median(&em) / 1e6);
    out.set("em.cold_ms", traced.layers["em"][0] / 1e6);
    out.set("em.iters", warm_iters as f64 / em.len() as f64);
    out.set("em.cold_iters", traced.em_iters[0] as f64);
    out.set("em.ms_per_iter", em.iter().sum::<f64>() / 1e6 / warm_iters.max(1) as f64);
    out.set("em.reseeds", reg.counter_value(names::EM_RESEEDS) as f64);
    out.set("em.backend_fallbacks", reg.counter_value(names::BACKEND_FALLBACKS) as f64);
    out.set("em.backend_fft", reg.counter_value("em_backend_selected_fft") as f64);
    out.set("em.backend_conv", reg.counter_value("em_backend_selected_conv") as f64);
    out.set("pyramid.build_us", median(&pyr) / 1e3);
    out.set("pyramid.nodes", traced.pyramid_nodes as f64);
    out.set("service.glue_us", (untraced_p50 - layer_sum) / 1e3);
    crate::set_query_layers(&mut out, &base.queries, base.cover_nodes_mean);
    crate::set_cluster_layers_absent(&mut out);
    out.set("obs.trace_overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50);

    let share = |ns: f64| 100.0 * ns / untraced_p50;
    out.note(format!(
        "attribution of untraced epoch_publish_ms_p50 = {:.3} ms: shard {:.1}%, state {:.2}%, em {:.1}%, \
         pyramid {:.2}%, glue {:.1}% (traced publish p50 {:.3} ms, of which outside the layers {:.1} us)",
        untraced_p50 / 1e6,
        share(median(&shard)),
        share(median(&state)),
        share(median(&em)),
        share(median(&pyr)),
        share(untraced_p50 - layer_sum),
        traced_p50 / 1e6,
        median(&traced.layers["publish"][1..]) / 1e3,
    ));
    out.trace_json = Some(traced.spans_json);
    out.tally = tally;
    out
}

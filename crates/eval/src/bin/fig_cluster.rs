//! Fault-tolerant multi-node aggregation: the distributed face of the
//! streaming pipeline.
//!
//! K aggregator nodes (K ∈ {1, 4, 8}) each ingest their shard partition
//! of the same moving two-foci stream `fig_stream` uses; a coordinator
//! collects their epoch planes under the deterministic retry/backoff
//! schedule, closes windows on quorum, and publishes warm-started window
//! estimates. Per epoch and K the table reports arrived-node coverage
//! and TV/W₂ against a **single-node reference** pipeline fed the exact
//! same epochs (plus TV against the true sliding-window histogram) —
//! with no faults injected, every row's `tv_ref` is 0.0000: K merged
//! partitions are bit-identical to the single node. (`w2_ref` never
//! reaches 0: the grid-separable solver is entropically regularized and
//! scores a self-cost floor even on identical inputs — the printed
//! `w2_ref floor` line is its zero point.) `--inject
//! "seed=7,crash=0.05,delay=0.2,delaymax=2,dup=0.1,corrupt=0.02"` turns
//! the run into a cluster chaos experiment driven by a
//! [`dam_fault::NodeFaultPlan`]; a [`dam_stream::PipelineHealth`] footer
//! per K shows what the coordinator rode out.
//!
//! Two hard checks run after the sweep (both assert, so the CI smoke
//! fails loudly if either regresses):
//!
//! * **Crash recovery** — a K=4 coordinator with a checkpoint store is
//!   killed cold mid-stream, recovered from checkpoint + WAL, and run to
//!   the end: every post-recovery estimate must be bit-identical to the
//!   uninterrupted run's, and every checkpoint written after the window
//!   fills must be the same size (read from the `coord_checkpoint_bytes`
//!   deltas) — persisted state is bounded by the window, not the stream.
//! * **Quorum degradation** — one of eight nodes is forced dark for a
//!   full window: every close must still make quorum, the degradation
//!   must be visible (`nodes_missed`, `partial_window`), and the mean
//!   truth-TV over the degraded window must stay within 2× of the
//!   all-nodes steady state.

use dam_cluster::{CheckpointStore, Cluster, ClusterConfig};
use dam_core::DamConfig;
use dam_data::synthetic::standard_normal;
use dam_eval::report::fmt4;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_fault::NodeFaultPlan;
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Histogram2D, Point};
use dam_stream::{StreamConfig, StreamingEstimator};
use dam_transport::metrics::w2;
use dam_transport::W2Solver;
use rand::Rng;

const D: u32 = 20;
const EPS: f64 = 3.5;
const BACKGROUND: f64 = 0.1;
const DRIFT_PER_EPOCH: f64 = 0.03;
const NODE_COUNTS: [usize; 3] = [1, 4, 8];

/// The fig_stream scenario: two foci sliding in opposite directions.
fn epoch_points(n: usize, u: f64, rng: &mut impl Rng) -> Vec<Point> {
    let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < BACKGROUND {
                return Point::new(rng.gen(), rng.gen());
            }
            let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
            Point::new(
                (cx + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
                (cy + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

fn stream_config(ctx: &EvalContext, window: usize) -> StreamConfig {
    let dam = DamConfig::dam(EPS).with_threads(ctx.threads);
    StreamConfig::new(dam, window, ctx.seed ^ 0x0C10_57E2)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let plan = args
        .inject
        .as_deref()
        .map(|spec| NodeFaultPlan::parse(spec).unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_else(|| NodeFaultPlan::clean(ctx.seed));
    let epochs = args.epochs.unwrap_or(if args.fast { 8 } else { 20 });
    let window = args.window.unwrap_or(if args.fast { 4 } else { 6 }).min(epochs);
    let per_epoch = (args.users.unwrap_or(20_000 * epochs) / epochs).max(1);
    let grid = Grid2D::new(BoundingBox::unit(), D);
    let w2_ctx = if args.w2_solver == W2Solver::Auto {
        let mut grid_ctx = ctx.clone();
        grid_ctx.w2_solver = W2Solver::Grid;
        grid_ctx
    } else {
        ctx.clone()
    };
    let w2_method = w2_ctx.w2_method();

    // Shared stream: every cluster size sees identical epochs.
    let epoch_data: Vec<Vec<Point>> = (0..epochs)
        .map(|e| {
            let u = (e as f64 * DRIFT_PER_EPOCH).min(1.0);
            epoch_points(per_epoch, u, &mut derived(ctx.seed, 0xC105_7E00 + e as u64))
        })
        .collect();
    let truths: Vec<Histogram2D> = (0..epochs)
        .map(|e| {
            let lo = (e + 1).saturating_sub(window);
            let pts: Vec<Point> =
                epoch_data[lo..=e].iter().flat_map(|p| p.iter().copied()).collect();
            Histogram2D::from_points(grid.clone(), &pts).normalized()
        })
        .collect();

    // Single-node reference: the plain streaming estimator, no faults.
    let reference: Vec<Histogram2D> = {
        let mut single = StreamingEstimator::new(grid.clone(), stream_config(&ctx, window));
        (0..epochs)
            .map(|e| {
                single.ingest_epoch(&epoch_data[e]);
                single.estimate_window().histogram
            })
            .collect()
    };

    let mut report = Report::new(
        &format!(
            "Multi-node aggregation (d={D}, eps={EPS}, {per_epoch} users/epoch, \
             {epochs} epochs, window {window}, plan {})",
            plan.spec()
        ),
        &["epoch", "K", "arrived", "missed", "tv_ref", "w2_ref", "tv_truth"],
    );
    let mut footers = Vec::new();
    // Registry per K, kept after each cluster is dropped (the registry is
    // a cheap shared handle) so --metrics-out can export all of them.
    let mut registries: Vec<(String, dam_obs::Registry)> = Vec::new();
    for &k in &NODE_COUNTS {
        let mut cluster =
            Cluster::new(grid.clone(), stream_config(&ctx, window), ClusterConfig::new(k), plan);
        for e in 0..epochs {
            let out = cluster.ingest_epoch(&epoch_data[e]).expect("no store attached");
            let est = &out.snapshot.estimate;
            let tv_ref = est.tv_distance(&reference[e]);
            let w2_ref = w2(est, &reference[e], w2_method).expect("w2");
            let tv_truth = est.tv_distance(&truths[e]);
            if plan.is_clean() {
                // No faults: the K partitions must merge bit-identically
                // to the single node, all the way through EM.
                assert_eq!(
                    bits(est.values()),
                    bits(reference[e].values()),
                    "K={k} epoch {e}: clean cluster diverged from the single-node reference"
                );
            }
            report.push_row(vec![
                e.to_string(),
                k.to_string(),
                out.arrived.to_string(),
                if out.missed { "yes".into() } else { "no".into() },
                fmt4(tv_ref),
                fmt4(w2_ref),
                fmt4(tv_truth),
            ]);
        }
        footers.push(dam_eval::obs::health_footer(
            &format!("K={k}"),
            &cluster.coordinator().snapshot().health,
        ));
        registries.push((format!("K={k}"), cluster.coordinator().estimator().obs().clone()));
    }
    println!("{}", report.render());
    // The grid-separable W₂ solver is entropically regularized: identical
    // histograms score its self-cost, not 0. Print the floor so w2_ref
    // reads as distance *above* it (tv_ref has no such floor).
    let w2_floor = w2(&reference[epochs - 1], &reference[epochs - 1], w2_method).expect("w2");
    println!("w2_ref floor: {w2_floor:.4} (grid-Sinkhorn self-cost of identical histograms)");
    for footer in &footers {
        println!("{footer}");
    }

    // ---- hard check 1: crash recovery is bit-identical -----------------
    {
        let k = 4;
        let kill_at = (epochs / 2).max(1);
        let dir =
            std::env::temp_dir().join(format!("dam-fig-cluster-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ClusterConfig::new(k);
        let uninterrupted: Vec<Vec<u64>> = {
            let mut c = Cluster::new(grid.clone(), stream_config(&ctx, window), cfg, plan);
            (0..epochs)
                .map(|e| bits(c.ingest_epoch(&epoch_data[e]).unwrap().snapshot.estimate.values()))
                .collect()
        };
        // Bytes of each checkpoint written once the window is full, on
        // both sides of the crash.
        let mut full_window_checkpoints = Vec::new();
        let mut close = |cluster: &mut Cluster, e: usize| {
            let written = |c: &Cluster| {
                c.coordinator().estimator().obs().counter_value("coord_checkpoint_bytes")
            };
            let before = written(cluster);
            let out = cluster.ingest_epoch(&epoch_data[e]).expect("epoch close");
            let delta = written(cluster) - before;
            if delta > 0 && e + 1 >= window {
                full_window_checkpoints.push(delta);
            }
            out
        };
        {
            let store = CheckpointStore::new(&dir).expect("scratch dir");
            let mut doomed =
                Cluster::with_store(grid.clone(), stream_config(&ctx, window), cfg, plan, store, 2)
                    .expect("fresh store");
            for e in 0..kill_at {
                close(&mut doomed, e);
            }
            // Killed cold here: dropped with a WAL tail past the last
            // checkpoint, no shutdown path.
        }
        let store = CheckpointStore::new(&dir).expect("scratch dir");
        let mut revived =
            Cluster::with_store(grid.clone(), stream_config(&ctx, window), cfg, plan, store, 2)
                .expect("recovery");
        assert_eq!(revived.coordinator().next_epoch(), kill_at, "recovery lost epochs");
        for e in kill_at..epochs {
            let out = close(&mut revived, e);
            assert_eq!(
                bits(out.snapshot.estimate.values()),
                uninterrupted[e],
                "epoch {e}: post-recovery estimate diverged from the uninterrupted run"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            full_window_checkpoints.len() >= 2,
            "too few full-window checkpoints to compare: {full_window_checkpoints:?}"
        );
        assert!(
            full_window_checkpoints.iter().all(|&b| b == full_window_checkpoints[0]),
            "checkpoint size grows with the stream: {full_window_checkpoints:?} bytes"
        );
        println!(
            "recovery check: K={k} coordinator killed after epoch {kill_at}, recovered from \
             checkpoint + WAL; all {} post-recovery estimates bit-identical; {} full-window \
             checkpoints all {} bytes",
            epochs - kill_at,
            full_window_checkpoints.len(),
            full_window_checkpoints[0]
        );
    }

    // ---- hard check 2: quorum degradation stays graceful ----------------
    {
        let k = 8;
        let mut cluster = Cluster::new(
            grid.clone(),
            stream_config(&ctx, window),
            ClusterConfig::new(k),
            NodeFaultPlan::clean(ctx.seed),
        );
        // Steady state first (full coverage), then one node dark for a
        // full window.
        let steady_end = epochs.saturating_sub(window).max(window);
        let mut steady_tv = 0.0;
        let mut steady_n = 0usize;
        for e in 0..steady_end {
            let out = cluster.ingest_epoch(&epoch_data[e]).unwrap();
            assert_eq!(out.arrived, k);
            if e + 1 >= window {
                steady_tv += out.snapshot.estimate.tv_distance(&truths[e]);
                steady_n += 1;
            }
        }
        cluster.force_outage(3, true);
        let mut degraded_tv = 0.0;
        let mut degraded_n = 0usize;
        for e in steady_end..epochs {
            let out = cluster.ingest_epoch(&epoch_data[e]).unwrap();
            assert_eq!(out.arrived, k - 1, "epoch {e} must close on {} of {k} nodes", k - 1);
            assert!(!out.missed, "7 of 8 nodes is comfortably above quorum");
            assert!(out.snapshot.health.partial_window, "degradation must be flagged");
            degraded_tv += out.snapshot.estimate.tv_distance(&truths[e]);
            degraded_n += 1;
        }
        let health = cluster.coordinator().snapshot().health;
        assert_eq!(health.nodes_missed, degraded_n, "one missing node per degraded epoch");
        let steady_mean = steady_tv / steady_n.max(1) as f64;
        let degraded_mean = degraded_tv / degraded_n.max(1) as f64;
        assert!(
            degraded_mean <= 2.0 * steady_mean,
            "quorum degradation not graceful: degraded tv {degraded_mean:.4} > 2x steady \
             {steady_mean:.4}"
        );
        println!(
            "quorum check: 1 of {k} nodes dark for {degraded_n} epochs — mean truth-TV \
             {degraded_mean:.4} vs {steady_mean:.4} all-nodes steady state ({:.2}x, bound 2x), \
             nodes_missed={}, partial_window flagged",
            degraded_mean / steady_mean.max(f64::MIN_POSITIVE),
            health.nodes_missed
        );
    }

    if let Some(path) = &args.metrics_out {
        let sections: Vec<(&str, &dam_obs::Registry)> =
            registries.iter().map(|(label, reg)| (label.as_str(), reg)).collect();
        dam_eval::obs::write_metrics(path, &sections).expect("write metrics");
        println!("metrics: {}", path.display());
    }
    let path = report.write_csv(&args.out, "fig_cluster").expect("write csv");
    println!("csv: {}", path.display());
}

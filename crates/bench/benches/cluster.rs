//! Multi-node aggregation benchmarks: what a distributed deployment
//! pays over the single-node streaming pipeline.
//!
//! * **Partitioned ingest** — all K nodes ingest one epoch of the same
//!   batch, each restricted to its shard partition (criterion,
//!   ns/report summed over the K nodes: the work *splits*, so the total
//!   should stay flat as K grows);
//! * **Plane merge** — the coordinator-side close: sanitize K node
//!   planes and sum them into the merged epoch plane (ns per close);
//! * **Checkpoint** — encode+write and read+decode of a full
//!   window-depth checkpoint, plus the end-to-end recovery cost
//!   (checkpoint restore + WAL replay + snapshot republish through the
//!   warm EM chain);
//! * **Long stream** — checkpoint bytes and recovery time at T = window
//!   and T = 96 epochs: a checkpoint holds only the window's planes, so
//!   both stay flat as the stream grows.
//!
//! Emits `BENCH_cluster.json` at the repo root so later PRs can regress
//! against the recorded trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::bench_grid;
use dam_cluster::{AggregatorNode, CheckpointStore, Cluster, ClusterConfig};
use dam_core::validate::{sanitize_counts, IngestPolicy};
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::derived;
use dam_geo::Point;
use dam_stream::StreamConfig;
use rand::Rng;
use std::hint::black_box;

const D: u32 = 20;
const EPS: f64 = 3.5;
const WINDOW: usize = 6;
const POINTS_PER_EPOCH: usize = 20_000;
const NODE_COUNTS: [usize; 3] = [1, 4, 8];
const PARTITION_SEED: u64 = 17;
/// Stream length of the long-stream row (T ≫ window).
const LONG_STREAM: usize = 96;

/// Moving two-foci epoch (the fig_cluster scenario at bench scale).
fn epoch_points(n: usize, epoch: usize) -> Vec<Point> {
    let u = (epoch as f64 * 0.03).min(1.0);
    let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
    let mut rng = derived(0xC105BE7C + epoch as u64, 11);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                return Point::new(rng.gen(), rng.gen());
            }
            let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
            Point::new(
                (cx + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                (cy + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(DamConfig::dam(EPS), WINDOW, 0xC105_0022)
}

/// Builds a store holding a real checkpoint at epoch `epochs` (a
/// multiple of the window) plus one WAL entry past it — the recovery
/// shape a mid-stream crash leaves behind.
fn seeded_store(dir: &std::path::Path, epochs: usize) -> CheckpointStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::new(dir).expect("scratch dir");
    let mut cluster = Cluster::with_store(
        bench_grid(D),
        stream_config(),
        ClusterConfig::new(4),
        NodeFaultPlan::clean(1),
        store.clone(),
        WINDOW,
    )
    .expect("fresh store");
    for e in 0..epochs + 1 {
        cluster.ingest_epoch(&epoch_points(POINTS_PER_EPOCH, e)).expect("epoch");
    }
    store
}

/// Recovery wall time, measured manually (each recovery replays the WAL
/// through EM, too slow and stateful for a criterion inner loop).
fn measure_recovery_ns(store: &CheckpointStore) -> f64 {
    const REPS: usize = 5;
    let mut total = 0.0;
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let revived = Cluster::with_store(
            bench_grid(D),
            stream_config(),
            ClusterConfig::new(4),
            NodeFaultPlan::clean(1),
            store.clone(),
            WINDOW,
        )
        .expect("recovery");
        total += t0.elapsed().as_nanos() as f64;
        black_box(revived.coordinator().next_epoch());
    }
    total / REPS as f64
}

fn bench_cluster(c: &mut Criterion) {
    // Partitioned ingest: all K nodes process the same epoch batch.
    {
        let mut group = c.benchmark_group("cluster_ingest");
        group.sample_size(10);
        let points = epoch_points(POINTS_PER_EPOCH, 3);
        let dam = DamConfig::dam(EPS);
        for &k in &NODE_COUNTS {
            let mut nodes: Vec<AggregatorNode> = (0..k)
                .map(|n| {
                    AggregatorNode::new(
                        bench_grid(D),
                        &dam,
                        IngestPolicy::Clamp,
                        n,
                        k,
                        PARTITION_SEED,
                    )
                })
                .collect();
            group.bench_with_input(BenchmarkId::new("epoch", k), &k, |bench, _| {
                let mut epoch = 0usize;
                bench.iter(|| {
                    epoch += 1;
                    let mut seen = 0u64;
                    for node in nodes.iter_mut() {
                        seen += node.ingest_epoch(epoch, 0xBE7C, &points).summary.seen;
                    }
                    black_box(seen)
                });
            });
        }
        group.finish();
    }

    // Coordinator-side merge: sanitize + sum K planes into one.
    {
        let mut group = c.benchmark_group("cluster_merge");
        group.sample_size(10);
        let dam = DamConfig::dam(EPS);
        let points = epoch_points(POINTS_PER_EPOCH, 3);
        for &k in &NODE_COUNTS {
            let planes: Vec<Vec<f64>> = (0..k)
                .map(|n| {
                    let mut agg = AggregatorNode::new(
                        bench_grid(D),
                        &dam,
                        IngestPolicy::Clamp,
                        n,
                        k,
                        PARTITION_SEED,
                    );
                    agg.ingest_epoch(0, 0xBE7C, &points).counts
                })
                .collect();
            let n_cells = planes[0].len();
            let mut merged = vec![0.0f64; n_cells];
            let mut scratch = planes.clone();
            group.bench_with_input(BenchmarkId::new("close", k), &k, |bench, _| {
                bench.iter(|| {
                    merged.fill(0.0);
                    for (slot, plane) in scratch.iter_mut().zip(&planes) {
                        slot.copy_from_slice(plane);
                        sanitize_counts(slot);
                        for (acc, &v) in merged.iter_mut().zip(slot.iter()) {
                            *acc += v;
                        }
                    }
                    black_box(merged[0])
                });
            });
        }
        group.finish();
    }

    // Checkpoint encode/write and read/decode over a real state.
    let dir = std::env::temp_dir().join(format!("dam-bench-cluster-{}", std::process::id()));
    let store = seeded_store(&dir, WINDOW);
    let state = store.read_checkpoint().expect("read").expect("checkpoint written");
    {
        let write_dir = dir.join("write-scratch");
        let write_store = CheckpointStore::new(&write_dir).expect("scratch dir");
        let mut group = c.benchmark_group("checkpoint");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("write", WINDOW), &WINDOW, |bench, _| {
            bench.iter(|| write_store.write_checkpoint(black_box(&state)).expect("write"));
        });
        group.bench_with_input(BenchmarkId::new("read", WINDOW), &WINDOW, |bench, _| {
            bench.iter(|| black_box(store.read_checkpoint().expect("read")));
        });
        group.finish();
    }
    let recover_ns = measure_recovery_ns(&store);

    // The same recovery shape after a stream many windows long.
    let long_dir = dir.join("long");
    let long_store = seeded_store(&long_dir, LONG_STREAM);
    let ckpt_bytes =
        |s: &CheckpointStore| std::fs::metadata(s.checkpoint_path()).expect("checkpoint").len();
    let long_stream = [
        (WINDOW, ckpt_bytes(&store), recover_ns),
        (LONG_STREAM, ckpt_bytes(&long_store), measure_recovery_ns(&long_store)),
    ];

    emit_bench_json(c, &state, recover_ns, &long_stream);
    let _ = std::fs::remove_dir_all(&dir);
}

fn emit_bench_json(
    c: &Criterion,
    state: &dam_cluster::CheckpointState,
    recover_ns: f64,
    long_stream: &[(usize, u64, f64)],
) {
    let median = |name: String| -> Option<f64> {
        c.results().iter().find(|(n, _)| n == &name).map(|&(_, ns)| ns)
    };
    let mut rows = String::new();
    for (i, &k) in NODE_COUNTS.iter().enumerate() {
        let (Some(ingest), Some(merge)) = (
            median(format!("cluster_ingest/epoch/{k}")),
            median(format!("cluster_merge/close/{k}")),
        ) else {
            eprintln!("cluster results missing; not writing BENCH_cluster.json");
            return;
        };
        rows += &format!(
            "    {{\"nodes\": {k}, \"ingest_ns_per_report\": {:.2}, \
             \"merge_close_ns\": {merge:.0}}}{}\n",
            ingest / POINTS_PER_EPOCH as f64,
            if i + 1 < NODE_COUNTS.len() { "," } else { "" },
        );
    }
    let (Some(write), Some(read)) =
        (median(format!("checkpoint/write/{WINDOW}")), median(format!("checkpoint/read/{WINDOW}")))
    else {
        eprintln!("checkpoint results missing; not writing BENCH_cluster.json");
        return;
    };
    let long_rows = long_stream
        .iter()
        .map(|(epochs, bytes, ns)| {
            format!("    {{\"epochs\": {epochs}, \"checkpoint_bytes\": {bytes}, \"recover_ns\": {ns:.0}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"d\": {D},\n  \"eps\": {EPS},\n  \
         \"window\": {WINDOW},\n  \"threads\": {threads},\n  \
         \"points_per_epoch\": {POINTS_PER_EPOCH},\n  \
         \"merge\": [\n{rows}  ],\n  \
         \"checkpoint\": {{\"planes\": {}, \"cells\": {}, \"write_ns\": {write:.0}, \
         \"read_ns\": {read:.0}, \"recover_ns\": {recover_ns:.0}}},\n  \
         \"long_stream\": [\n{long_rows}\n  ]\n}}\n",
        state.planes.len(),
        state.n_cells,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (partitioned ingest flat in K, checkpoint costs in ns)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);

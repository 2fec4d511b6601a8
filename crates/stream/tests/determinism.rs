//! Determinism suite for the streaming subsystem: ingestion, window
//! counts, history-tree queries and window estimates must be **bit-identical**
//! for any thread count, in both the serial and the row-parallel plane
//! arithmetic regimes — the same contract the one-shot sharded pipeline
//! already honours.

use dam_core::tuning::PARALLEL_WORK_THRESHOLD;
use dam_core::DamConfig;
use dam_fo::em::EmParams;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{CountTree, StreamConfig, StreamingEstimator};

/// Deterministic per-epoch point clouds spanning more than one report
/// shard, drifting so consecutive epochs differ.
fn epoch_points(epoch: usize, n: usize) -> Vec<Point> {
    let cx = 0.2 + 0.6 * (epoch as f64 / 8.0).fract();
    (0..n)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0x5EED) as f64 / u64::MAX as f64;
            Point::new((cx + 0.15 * (a - 0.5)).clamp(0.0, 1.0), (0.3 + 0.3 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn streaming_run_is_bit_identical_for_any_thread_count() {
    // Full vertical slice: sharded ingest over several epochs (each epoch
    // spans > 1 shard), sliding-window counts, the retained window planes
    // and warm-started estimates — every artefact compared bit for bit
    // against the single-threaded reference.
    let run = |threads: Option<usize>| {
        let dam = DamConfig {
            em: EmParams { max_iters: 60, rel_tol: 1e-7, gain_tol: 0.0 },
            ..DamConfig::dam(3.0)
        }
        .with_threads(threads);
        let grid = Grid2D::new(BoundingBox::unit(), 6);
        let mut s = StreamingEstimator::new(grid, StreamConfig::new(dam, 3, 99));
        let mut estimates = Vec::new();
        for e in 0..5 {
            s.ingest_epoch(&epoch_points(e, 20_000));
            estimates.extend_from_slice(s.estimate_window().histogram.values());
        }
        let mut artefacts = bits(s.window_counts());
        for plane in s.tree().planes() {
            artefacts.extend(bits(plane));
        }
        artefacts.extend(bits(&estimates));
        artefacts
    };
    let reference = run(Some(1));
    for threads in [Some(2), Some(8), None] {
        assert_eq!(reference, run(threads), "streaming artefacts diverged at threads {threads:?}");
    }
}

#[test]
fn parallel_merge_regime_is_bit_identical() {
    // Planes at the measured work threshold engage the row-parallel merge
    // and query paths; chunk boundaries are thread-count independent, so
    // the bits must still match the serial reference.
    let n_cells = PARALLEL_WORK_THRESHOLD;
    let build = |threads: Option<usize>| {
        let mut tree = CountTree::new(n_cells, threads);
        assert!(tree.merge_is_parallel(), "test shape must engage the parallel path");
        let mut plane = vec![0.0f64; n_cells];
        for e in 0..5u64 {
            for (c, slot) in plane.iter_mut().enumerate() {
                *slot = (splitmix64(e << 32 | c as u64) % 17) as f64;
            }
            tree.append(&plane);
        }
        let mut artefacts = bits(&tree.prefix(5));
        artefacts.extend(bits(&tree.window(1, 5)));
        artefacts
    };
    let reference = build(Some(1));
    for threads in [Some(2), None] {
        assert_eq!(reference, build(threads), "tree queries diverged at threads {threads:?}");
    }
}

#[test]
fn serial_merge_regime_is_the_default_at_paper_scale() {
    // At paper-scale grids the planes are far below the measured parallel
    // break-even: the serial path (trivially deterministic) is what runs.
    let tree = CountTree::exact(128 * 128);
    assert!(!tree.merge_is_parallel());
}

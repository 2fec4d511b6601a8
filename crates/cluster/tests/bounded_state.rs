//! Crash-recovery state is bounded by the window, not the stream.
//!
//! A checkpoint holds the epoch ring's `min(epochs, window)` planes plus
//! an explicit epoch count, so once the window fills every checkpoint
//! writes the same number of bytes however long the stream has run, and
//! recovery refills a window-sized ring. These tests run a stream many
//! windows long (window 3, a checkpoint every 4 epochs, 40 epochs) and
//! pin that, plus bit-identical recovery from a kill point deep into the
//! stream and the structured errors for state this build cannot resume.

use std::fs;
use std::path::PathBuf;

use dam_cluster::checkpoint::FORMAT_VERSION;
use dam_cluster::{CheckpointError, CheckpointStore, Cluster, ClusterConfig};
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{PipelineHealth, Snapshot, StreamConfig};

const EPOCHS: usize = 40;
const WINDOW: usize = 3;
const CHECKPOINT_EVERY: usize = 4;
const NODES: usize = 3;
/// Bytes of every checkpoint once the window is full: a 191-byte fixed
/// part (header, counters, health, stats, snapshot flags, length fields,
/// checksum), 3 coverage entries, the 36-cell warm estimate and 3 window
/// planes of 64 cells (d = 6 plus the kernel's output border):
/// 191 + 3·8 + 36·8 + 3·64·8.
const CHECKPOINT_BYTES: u64 = 2_039;

/// Drifting per-epoch point cloud spanning more than one report shard.
fn epoch_points(epoch: usize) -> Vec<Point> {
    let cx = 0.2 + 0.6 * (epoch as f64 / 10.0).fract();
    (0..17_000)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0xB0DE) as f64 / u64::MAX as f64;
            Point::new((cx + 0.2 * (a - 0.5)).clamp(0.0, 1.0), (0.3 + 0.4 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn grid() -> Grid2D {
    Grid2D::new(BoundingBox::unit(), 6)
}

fn stream_config(window: usize) -> StreamConfig {
    StreamConfig::new(DamConfig::dam(3.0).with_threads(Some(1)), window, 4040)
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig::with_quorum(NODES, 2)
}

/// Crashes, delays, duplicates and corruption, so the health record and
/// coverage queue carry real faults through every checkpoint.
fn fault_plan() -> NodeFaultPlan {
    NodeFaultPlan::parse("seed=5,crash=0.1,delay=0.3,delaymax=2,dup=0.2,corrupt=0.2").unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dam-cluster-bounded-{}-{tag}", std::process::id()))
}

fn open(dir: &PathBuf, window: usize) -> Result<Cluster, CheckpointError> {
    let store = CheckpointStore::new(dir).unwrap();
    Cluster::with_store(
        grid(),
        stream_config(window),
        cluster_config(),
        fault_plan(),
        store,
        CHECKPOINT_EVERY,
    )
}

/// Everything a snapshot publishes, as comparable bits.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    epoch: usize,
    estimate: Vec<u64>,
    pyramid: Vec<u64>,
    em_iters: usize,
    warm: bool,
    health: PipelineHealth,
}

fn fingerprint(s: &Snapshot) -> Fingerprint {
    let mut pyramid = Vec::new();
    for level in s.pyramid.levels() {
        pyramid.extend(level.values().iter().map(|v| v.to_bits()));
    }
    Fingerprint {
        epoch: s.epoch,
        estimate: s.estimate.values().iter().map(|v| v.to_bits()).collect(),
        pyramid,
        em_iters: s.em_iters,
        warm: s.warm,
        health: s.health,
    }
}

/// The uncrashed run with no store: one fingerprint per closed epoch.
fn reference_run() -> Vec<Fingerprint> {
    let mut cluster = Cluster::new(grid(), stream_config(WINDOW), cluster_config(), fault_plan());
    (0..EPOCHS)
        .map(|e| fingerprint(&cluster.ingest_epoch(&epoch_points(e)).unwrap().snapshot))
        .collect()
}

fn checkpoint_bytes(cluster: &Cluster) -> u64 {
    cluster.coordinator().estimator().obs().counter_value("coord_checkpoint_bytes")
}

#[test]
fn checkpoint_bytes_stop_growing_once_the_window_fills() {
    let reference = reference_run();
    let dir = scratch_dir("bytes");
    let _ = fs::remove_dir_all(&dir);
    let mut cluster = open(&dir, WINDOW).unwrap();
    let mut deltas = Vec::new();
    for e in 0..EPOCHS {
        let before = checkpoint_bytes(&cluster);
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(fingerprint(&out.snapshot), reference[e], "persistence changed epoch {e}");
        let delta = checkpoint_bytes(&cluster) - before;
        if (e + 1) % CHECKPOINT_EVERY == 0 {
            deltas.push(delta);
        } else {
            assert_eq!(delta, 0, "epoch {e} wrote a checkpoint off the cadence");
        }
        assert_eq!(cluster.coordinator().estimator().tree().len(), (e + 1).min(WINDOW));
    }
    // Ten checkpoints, epochs 4 through 40, every one past the window:
    // the first and the last write exactly the same bytes.
    assert_eq!(deltas, vec![CHECKPOINT_BYTES; EPOCHS / CHECKPOINT_EVERY]);
    let on_disk = fs::metadata(CheckpointStore::new(&dir).unwrap().checkpoint_path()).unwrap();
    assert_eq!(on_disk.len(), CHECKPOINT_BYTES);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_deep_into_the_stream_is_bit_identical() {
    let reference = reference_run();
    // Kill points past epoch 24 with WAL entries pending behind the last
    // checkpoint (epochs 24 and 28).
    for kill in [26, 31] {
        let dir = scratch_dir(&format!("k{kill}"));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut doomed = open(&dir, WINDOW).unwrap();
            for e in 0..kill {
                doomed.ingest_epoch(&epoch_points(e)).unwrap();
            }
        }
        let pending = CheckpointStore::new(&dir).unwrap().read_wal().unwrap().len();
        assert_eq!(pending, kill % CHECKPOINT_EVERY, "kill {kill}: WAL tail");
        let mut revived = open(&dir, WINDOW).unwrap();
        let coord = revived.coordinator();
        assert_eq!(coord.next_epoch(), kill);
        assert_eq!(coord.estimator().tree().len(), WINDOW, "recovery refills one window");
        assert_eq!(fingerprint(&coord.snapshot()), reference[kill - 1], "kill {kill}: republish");
        for e in kill..EPOCHS {
            let out = revived.ingest_epoch(&epoch_points(e)).unwrap();
            assert_eq!(fingerprint(&out.snapshot), reference[e], "kill {kill}: epoch {e}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// FNV-1a, restated so the crafted fixture does not lean on the
/// implementation under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn version_one_files_are_version_mismatches() {
    assert_eq!(FORMAT_VERSION, 2);
    let dir = scratch_dir("v1");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    // A v1 checkpoint header (magic, version 1, n_cells, n_planes) with a
    // valid checksum: the version check is what must trip.
    let mut v1 = b"DAMCKPT\0".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&4u64.to_le_bytes());
    v1.extend_from_slice(&0u64.to_le_bytes());
    let sum = fnv1a(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    fs::write(store.checkpoint_path(), &v1).unwrap();
    assert!(matches!(
        store.read_checkpoint(),
        Err(CheckpointError::VersionMismatch { found: 1, expected: 2 })
    ));
    let mut wal = b"DAMWAL\0\0".to_vec();
    wal.extend_from_slice(&1u32.to_le_bytes());
    wal.extend_from_slice(&4u64.to_le_bytes());
    fs::write(store.wal_path(), &wal).unwrap();
    assert!(matches!(
        store.read_wal(),
        Err(CheckpointError::VersionMismatch { found: 1, expected: 2 })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopening_under_a_different_window_is_corrupt() {
    let dir = scratch_dir("window");
    let _ = fs::remove_dir_all(&dir);
    {
        let mut cluster = open(&dir, WINDOW).unwrap();
        for e in 0..2 * CHECKPOINT_EVERY {
            cluster.ingest_epoch(&epoch_points(e)).unwrap();
        }
    }
    // The checkpoint holds 3 planes; a window of 2 or 5 over 8 epochs
    // would hold 2 or 5, so neither pipeline can resume from it.
    for window in [WINDOW - 1, WINDOW + 2] {
        match open(&dir, window) {
            Err(CheckpointError::Corrupt { detail }) => {
                assert!(detail.contains("3 planes"), "window {window}: {detail}");
            }
            Err(other) => panic!("window {window}: expected Corrupt, got {other}"),
            Ok(_) => panic!("window {window}: a window-{WINDOW} checkpoint was accepted"),
        }
    }
    // The store itself is intact: the original window still resumes.
    assert_eq!(open(&dir, WINDOW).unwrap().coordinator().next_epoch(), 2 * CHECKPOINT_EVERY);
    let _ = fs::remove_dir_all(&dir);
}

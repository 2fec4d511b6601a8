//! Cluster behavior under faults — dedup, delay/backoff, quorum
//! degradation — plus the checkpoint/WAL format contract (satellite:
//! round-trips for empty/partial/full windows, structured errors for
//! version mismatches and truncated files, never a panic).

use std::fs;
use std::path::PathBuf;

use dam_cluster::{
    CheckpointError, CheckpointState, CheckpointStore, Cluster, ClusterConfig, CoordStats, WalEntry,
};
use dam_core::validate::IngestSummary;
use dam_core::DamConfig;
use dam_fault::NodeFaultPlan;
use dam_geo::rng::splitmix64;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_stream::{PipelineHealth, StreamConfig, StreamingEstimator};

fn epoch_points(epoch: usize) -> Vec<Point> {
    let cx = 0.3 + 0.4 * (epoch as f64 / 5.0).fract();
    (0..18_000)
        .map(|i| {
            let a = splitmix64((epoch as u64) << 32 | i as u64) as f64 / u64::MAX as f64;
            let b = splitmix64((epoch as u64) << 32 | (i as u64) ^ 0x77) as f64 / u64::MAX as f64;
            Point::new((cx + 0.2 * (a - 0.5)).clamp(0.0, 1.0), (0.2 + 0.5 * b).clamp(0.0, 1.0))
        })
        .collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig::new(DamConfig::dam(3.0).with_threads(Some(2)), 3, 515)
}

fn est_bits(cluster_out: &dam_cluster::EpochOutcome) -> Vec<u64> {
    cluster_out.snapshot.estimate.values().iter().map(|v| v.to_bits()).collect()
}

// ---- behavior under faults ----------------------------------------------

#[test]
fn clean_cluster_is_bit_identical_to_the_single_node_stream() {
    // K=3 with no faults must publish exactly what a single-node
    // streaming estimator publishes for the same epochs — the end-to-end
    // face of the mergeability property.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster =
        Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), NodeFaultPlan::clean(1));
    let mut single = StreamingEstimator::new(grid, stream_config());
    for e in 0..4 {
        let pts = epoch_points(e);
        let out = cluster.ingest_epoch(&pts).unwrap();
        single.ingest_epoch(&pts);
        let win = single.estimate_window();
        let single_bits: Vec<u64> = win.histogram.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(est_bits(&out), single_bits, "epoch {e}: cluster != single-node");
        assert_eq!(out.snapshot.health, win.health, "epoch {e}: health diverged");
        assert_eq!(out.arrived, 3);
        assert!(!out.missed);
    }
    assert!(cluster.coordinator().snapshot().health.is_clean());
}

#[test]
fn duplicates_are_dropped_without_changing_estimates() {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let run = |plan: NodeFaultPlan| {
        let mut cluster = Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), plan);
        let estimates: Vec<Vec<u64>> =
            (0..4).map(|e| est_bits(&cluster.ingest_epoch(&epoch_points(e)).unwrap())).collect();
        (estimates, *cluster.coordinator().stats())
    };
    let (clean, clean_stats) = run(NodeFaultPlan::clean(1));
    let (duped, dup_stats) = run(NodeFaultPlan::parse("seed=3,dup=1.0").unwrap());
    assert_eq!(clean, duped, "duplicate deliveries must not change estimates");
    assert_eq!(clean_stats.dup_dropped, 0);
    assert!(
        dup_stats.dup_dropped >= 3 * 4,
        "every plane was duplicated; expected >= 12 drops, got {}",
        dup_stats.dup_dropped
    );
}

#[test]
fn delays_within_the_backoff_budget_cost_retries_not_coverage() {
    // delaymax=3 fits inside the default backoff schedule (polls at
    // +0, +1, +3, +7 ticks), so every plane still arrives — the close is
    // full-coverage and the estimates are bit-identical to a clean run;
    // only the retry counter shows the waiting.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let run = |plan: NodeFaultPlan| {
        let mut cluster = Cluster::new(grid.clone(), stream_config(), ClusterConfig::new(3), plan);
        let outs: Vec<_> =
            (0..3).map(|e| cluster.ingest_epoch(&epoch_points(e)).unwrap()).collect();
        let stats = *cluster.coordinator().stats();
        (outs.iter().map(est_bits).collect::<Vec<_>>(), outs, stats)
    };
    let (clean, _, _) = run(NodeFaultPlan::clean(1));
    let (delayed, outs, stats) = run(NodeFaultPlan::parse("seed=8,delay=1.0,delaymax=3").unwrap());
    assert_eq!(clean, delayed, "delays must not change estimates");
    assert!(outs.iter().all(|o| o.arrived == 3 && !o.missed), "no coverage lost");
    assert!(stats.retries > 0, "delays must cost retries");
}

#[test]
fn forced_outage_degrades_gracefully_and_recovers() {
    // One of four nodes dark for a full window: every close still makes
    // quorum, the missing mass is rescaled back in, and the degradation
    // is visible (nodes_missed, partial_window) until the outage leaves
    // the window — then the health flag clears.
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid.clone(),
        stream_config(),
        ClusterConfig::with_quorum(4, 3),
        NodeFaultPlan::clean(1),
    );
    for e in 0..3 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 4);
        if e == 2 {
            // The window just filled with full-coverage epochs.
            assert!(!out.snapshot.health.partial_window);
        }
    }
    cluster.force_outage(2, true);
    for e in 3..6 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 3, "epoch {e} must close on 3 of 4 nodes");
        assert!(!out.missed);
        assert!(out.snapshot.health.partial_window, "degradation must be visible");
        let mass: f64 = out.snapshot.estimate.values().iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "estimate must stay normalized, mass {mass}");
        assert!(out.snapshot.estimate.values().iter().all(|v| v.is_finite()));
    }
    assert_eq!(cluster.coordinator().snapshot().health.nodes_missed, 3);
    cluster.force_outage(2, false);
    for e in 6..9 {
        let out = cluster.ingest_epoch(&epoch_points(e)).unwrap();
        assert_eq!(out.arrived, 4);
        if e == 8 {
            // The under-covered epochs have slid out of the window.
            assert!(!out.snapshot.health.partial_window, "flag must clear after recovery");
        }
    }
}

#[test]
fn below_quorum_close_is_recorded_missed_not_fabricated() {
    let grid = Grid2D::new(BoundingBox::unit(), 6);
    let mut cluster = Cluster::new(
        grid.clone(),
        stream_config(),
        ClusterConfig::with_quorum(4, 3),
        NodeFaultPlan::clean(1),
    );
    cluster.ingest_epoch(&epoch_points(0)).unwrap();
    cluster.force_outage(0, true);
    cluster.force_outage(1, true);
    let out = cluster.ingest_epoch(&epoch_points(1)).unwrap();
    assert!(out.missed, "2 of 4 nodes is below quorum 3");
    assert_eq!(out.arrived, 2);
    let health = out.snapshot.health;
    assert_eq!(health.epochs_missed, 1);
    assert_eq!(health.nodes_missed, 2);
    assert!(health.partial_window);
    assert!(out.snapshot.estimate.values().iter().all(|v| v.is_finite()));
}

// ---- checkpoint & WAL format (satellite) --------------------------------

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dam-cluster-fmt-{}-{tag}", std::process::id()))
}

/// FNV-1a, restated independently so the fixture-crafting below cannot
/// drift with the implementation under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn state(planes: Vec<Vec<f64>>, warm: Option<Vec<f64>>) -> CheckpointState {
    let epochs = planes.len();
    CheckpointState {
        n_cells: 4,
        epochs,
        planes,
        reports: 100 * epochs as u64,
        clock: 7 * epochs as u64,
        health: PipelineHealth {
            ingest: IngestSummary { seen: 100 * epochs as u64, quarantined: 3, clamped: 5 },
            epochs_ingested: epochs,
            epochs_missed: 0,
            sanitized_cells: 2,
            em_reseeds: 0,
            degenerate_windows: 0,
            backend_fallbacks: 1,
            nodes_missed: 4,
            partial_window: epochs > 0,
        },
        stats: CoordStats { epochs_closed: epochs as u64, dup_dropped: 6, retries: 9 },
        coverage: (0..epochs).map(|e| 3 - e % 2).collect(),
        warm,
        snapshot_em_iters: 11,
        snapshot_warm: epochs > 1,
    }
}

#[test]
fn checkpoint_round_trips_empty_partial_and_full_windows() {
    let cases = [
        ("empty", state(vec![], None)),
        ("partial", state(vec![vec![1.0, 2.0, 3.0, 4.0]; 2], Some(vec![0.1, 0.2, 0.3, 0.4]))),
        ("full", state(vec![vec![5.0, 0.0, 7.0, 9.0]; 4], Some(vec![0.25; 4]))),
    ];
    for (tag, original) in cases {
        let dir = scratch(&format!("rt-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        store.write_checkpoint(&original).unwrap();
        let back = store.read_checkpoint().unwrap().expect("checkpoint was just written");
        assert_eq!(back, original, "{tag}: round-trip must be lossless");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn missing_checkpoint_reads_as_none_not_an_error() {
    let dir = scratch("none");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    assert!(store.read_checkpoint().unwrap().is_none());
    assert!(store.read_wal().unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_version_mismatch_is_a_structured_error() {
    let dir = scratch("ver");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.write_checkpoint(&state(vec![vec![1.0; 4]], Some(vec![0.25; 4]))).unwrap();
    // Rewrite the version field (bytes 8..12) and re-seal the checksum so
    // the version check — not the integrity check — is what trips.
    let mut bytes = fs::read(store.checkpoint_path()).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let payload_len = bytes.len() - 8;
    let sum = fnv1a(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
    fs::write(store.checkpoint_path(), &bytes).unwrap();
    match store.read_checkpoint() {
        Err(CheckpointError::VersionMismatch { found: 99, expected }) => {
            assert_eq!(expected, dam_cluster::checkpoint::FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_a_structured_error() {
    let dir = scratch("trunc");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.write_checkpoint(&state(vec![vec![1.0; 4]; 3], Some(vec![0.25; 4]))).unwrap();
    let bytes = fs::read(store.checkpoint_path()).unwrap();

    // Cut mid-structure but re-seal the checksum: the reader must report
    // Truncated, not a checksum failure and never a panic.
    let cut = bytes.len() - 8 - 5;
    let mut crafted = bytes[..cut].to_vec();
    crafted.extend_from_slice(&fnv1a(&bytes[..cut]).to_le_bytes());
    fs::write(store.checkpoint_path(), &crafted).unwrap();
    assert!(
        matches!(store.read_checkpoint(), Err(CheckpointError::Truncated { .. })),
        "sealed truncation must read as Truncated"
    );

    // A blunt tail-chop fails the integrity check instead — also
    // structured, also no panic.
    fs::write(store.checkpoint_path(), &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        store.read_checkpoint(),
        Err(CheckpointError::ChecksumMismatch { .. }) | Err(CheckpointError::Truncated { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_bad_magic_is_a_structured_error() {
    let dir = scratch("magic");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    fs::write(store.checkpoint_path(), b"NOTACKPTxxxxxxxxxxxxxxxxxxxx").unwrap();
    assert!(matches!(
        store.read_checkpoint(),
        Err(CheckpointError::BadMagic { kind: "checkpoint" })
    ));
    let _ = fs::remove_dir_all(&dir);
}

fn wal_entry(epoch: u64) -> WalEntry {
    WalEntry {
        epoch,
        missed: epoch % 3 == 2,
        arrived: 3 - (epoch % 2) as usize,
        nodes_missed_delta: (epoch % 2) as usize,
        sanitized_delta: 1,
        dup_delta: epoch,
        retries_delta: 2,
        clock_after: 10 * (epoch + 1),
        summary: IngestSummary { seen: 50, quarantined: 1, clamped: 2 },
        plane: vec![epoch as f64, 1.0, 2.0, 3.0],
    }
}

#[test]
fn wal_round_trips_and_checkpoint_truncates_it() {
    let dir = scratch("wal-rt");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    let entries: Vec<WalEntry> = (0..3).map(wal_entry).collect();
    for e in &entries {
        store.append_wal(e).unwrap();
    }
    assert_eq!(store.read_wal().unwrap(), entries, "append order must be read order");
    // A checkpoint makes the WAL redundant and removes it.
    store.write_checkpoint(&state(vec![vec![1.0; 4]], None)).unwrap();
    assert!(store.read_wal().unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_wal_is_a_structured_error() {
    let dir = scratch("wal-trunc");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    store.append_wal(&wal_entry(1)).unwrap();
    let bytes = fs::read(store.wal_path()).unwrap();
    fs::write(store.wal_path(), &bytes[..bytes.len() - 10]).unwrap();
    assert!(
        matches!(store.read_wal(), Err(CheckpointError::Truncated { .. })),
        "a torn tail entry must read as Truncated"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_version_mismatch_is_a_structured_error() {
    let dir = scratch("wal-ver");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    let mut bytes = fs::read(store.wal_path()).unwrap();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    fs::write(store.wal_path(), &bytes).unwrap();
    assert!(matches!(
        store.read_wal(),
        Err(CheckpointError::VersionMismatch { found: 7, expected: _ })
    ));
    let _ = fs::remove_dir_all(&dir);
}

/// Seals `bytes[..len - 8]` with a fresh checksum, so a crafted field —
/// not the integrity check — is what the reader meets.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let sum = fnv1a(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn flipped_wal_header_length_bits_are_structured_errors() {
    // The WAL header is not checksummed, so its `n_cells` (bytes 12..20)
    // reaches the decoder as-is: every single-bit flip, up to a length
    // no allocator could serve, must read as an error — never a panic or
    // an allocation abort.
    let dir = scratch("wal-flip");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.append_wal(&wal_entry(0)).unwrap();
    store.append_wal(&wal_entry(1)).unwrap();
    let clean = fs::read(store.wal_path()).unwrap();
    for bit in 0..64 {
        let mut bytes = clean.clone();
        bytes[12 + bit / 8] ^= 1 << (bit % 8);
        fs::write(store.wal_path(), &bytes).unwrap();
        assert!(store.read_wal().is_err(), "wal n_cells bit {bit} flip was accepted");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_checkpoint_length_bits_are_structured_errors() {
    // A checkpoint whose length fields were damaged before sealing passes
    // the checksum; each field must still be bounded by the bytes that
    // follow it. Layout (v2): magic 8, version 4, n_cells 8, epochs 8,
    // n_planes 8, reports 8, clock 8, health 81, stats 24, coverage.len
    // 8 + 8 per entry, snapshot_em_iters 8, snapshot_warm 1, warm flag 1,
    // warm.len 8, ...
    let original = state(vec![vec![1.0, 2.0, 3.0, 4.0]; 3], Some(vec![0.25; 4]));
    let n_cells_at = 12;
    let n_planes_at = 28;
    let coverage_len_at = 157;
    let warm_len_at = coverage_len_at + 8 + 8 * original.coverage.len() + 10;
    let dir = scratch("ckpt-flip");
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    store.write_checkpoint(&original).unwrap();
    let clean = fs::read(store.checkpoint_path()).unwrap();
    let field = |at: usize| u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
    assert_eq!(field(n_cells_at), 4, "layout drifted: n_cells");
    assert_eq!(field(n_planes_at), 3, "layout drifted: n_planes");
    assert_eq!(field(coverage_len_at), 3, "layout drifted: coverage.len");
    assert_eq!(field(warm_len_at), 4, "layout drifted: warm.len");
    for (name, at) in [
        ("n_cells", n_cells_at),
        ("n_planes", n_planes_at),
        ("coverage.len", coverage_len_at),
        ("warm.len", warm_len_at),
    ] {
        for bit in 0..64 {
            let mut bytes = clean.clone();
            bytes[at + bit / 8] ^= 1 << (bit % 8);
            reseal(&mut bytes);
            fs::write(store.checkpoint_path(), &bytes).unwrap();
            assert!(store.read_checkpoint().is_err(), "{name} bit {bit} flip was accepted");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

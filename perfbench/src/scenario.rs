//! The three workloads and their seeded input generator.
//!
//! Every workload streams the fig_stream / fig_service two-foci
//! scenario: two Gaussian foci (σ = 0.05) sliding in opposite directions
//! across the unit square over a uniform 10% background. The drift here
//! is smooth and periodic (period [`DRIFT_PERIOD`] epochs), so a stream
//! of any length keeps moving without the cyclic jump a saw-tooth would
//! put into the window estimate.
//!
//! Epoch `e`'s points come from chunked streams keyed by
//! `(seed, e, chunk)`, so the inputs depend on the seed alone, never on
//! how many threads generate them.

use dam_data::synthetic::standard_normal;
use dam_geo::rng::keyed;
use dam_geo::{Grid2D, Point};
use rand::Rng;

/// Share of each epoch's reports drawn from the uniform background.
const BACKGROUND: f64 = 0.1;
/// Epochs per full back-and-forth sweep of the foci.
const DRIFT_PERIOD: f64 = 64.0;
/// Points per generator stream.
const CHUNK: usize = 1 << 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists: which layer it stresses.
    pub why: &'static str,
    /// Grid cells per side.
    pub d: u32,
    /// Privacy budget ε.
    pub eps: f64,
    /// Sliding-window length in epochs.
    pub window: usize,
    /// Reports per epoch.
    pub reports_per_epoch: usize,
    /// Epochs whose snapshots enter the accuracy metrics and the work
    /// fingerprint (a run may add timing-only epochs after them).
    pub epochs: usize,
    /// Report-pipeline threads: one, or every available core.
    pub single_thread: bool,
    /// Open-loop query rate sent by a second thread while epochs ingest
    /// (queries/s).
    pub query_rate: Option<f64>,
    /// Closed-loop queries the writer sends after each publish, between
    /// epochs (used where no queries run alongside ingest).
    pub reads_per_epoch: usize,
    /// Runs as a K-node `Cluster` with checkpoint/WAL instead of a
    /// single-node `QueryService`.
    pub cluster: bool,
}

/// The benchmark's workloads. The `why` lines are also in
/// `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-d64",
        why: "FFT EM is ~95% of publish work; the only workload with queries sent alongside ingest (open loop, 2000/s), and the single-threaded baseline",
        d: 64,
        eps: 3.5,
        window: 6,
        reports_per_epoch: 200_000,
        epochs: 100,
        single_thread: true,
        query_rate: Some(2000.0),
        reads_per_epoch: 0,
        cluster: false,
    },
    Workload {
        name: "ingest-d20",
        why: "sampling and shard merge are ~85% of publish on the parallel pool; the only stencil-EM workload, so an FFT change should not move it",
        d: 20,
        eps: 5.0,
        window: 6,
        reports_per_epoch: 2_000_000,
        epochs: 100,
        single_thread: false,
        query_rate: None,
        reads_per_epoch: 200,
        cluster: false,
    },
    Workload {
        name: "cluster-long",
        why: "K=4 cluster with checkpoint/WAL over 1000 epochs: the only workload whose state grows with stream length, and the only one with crash recovery",
        d: 20,
        eps: 3.5,
        window: 6,
        reports_per_epoch: 200_000,
        epochs: 1000,
        single_thread: false,
        query_rate: None,
        reads_per_epoch: 20,
        cluster: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated epoch: the points handed to the program and their
/// exact per-cell counts (the ground truth the accuracy metrics use).
#[derive(Debug, Default)]
pub struct EpochInput {
    /// Reports, in generation order.
    pub points: Vec<Point>,
    /// True points per grid cell (row-major, `iy * d + ix`).
    pub counts: Vec<u64>,
}

/// The seeded generator of a workload's epochs.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    grid: Grid2D,
    n: usize,
    threads: usize,
}

impl Generator {
    /// A generator of `n` points per epoch on `grid`, fanning out over
    /// `threads` workers.
    pub fn new(seed: u64, grid: Grid2D, n: usize, threads: usize) -> Self {
        Self { seed, grid, n, threads: threads.max(1) }
    }

    /// Regenerates epoch `epoch` into `out`, reusing its buffers.
    pub fn fill(&self, epoch: usize, out: &mut EpochInput) {
        let phase = 2.0 * std::f64::consts::PI * epoch as f64 / DRIFT_PERIOD;
        let u = 0.5 - 0.5 * phase.cos();
        let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
        out.points.resize(self.n, Point::new(0.0, 0.0));
        let cells = self.grid.n_cells();
        let mut jobs: Vec<Vec<(usize, &mut [Point])>> =
            (0..self.threads).map(|_| Vec::new()).collect();
        for (c, chunk) in out.points.chunks_mut(CHUNK).enumerate() {
            jobs[c % self.threads].push((c, chunk));
        }
        let (seed, grid) = (self.seed, &self.grid);
        let partials: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    s.spawn(move || {
                        let mut counts = vec![0u64; cells];
                        for (c, chunk) in job {
                            let mut rng = keyed(seed, epoch as u64, c as u64);
                            for p in chunk.iter_mut() {
                                *p = draw(&mut rng, &foci);
                                counts[grid.flat(grid.cell_of(*p))] += 1;
                            }
                        }
                        counts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
        });
        out.counts.clear();
        out.counts.resize(cells, 0);
        for part in partials {
            for (acc, v) in out.counts.iter_mut().zip(part) {
                *acc += v;
            }
        }
    }
}

/// One report location: a focus draw or the uniform background.
fn draw(rng: &mut impl Rng, foci: &[(f64, f64); 2]) -> Point {
    if rng.gen::<f64>() < BACKGROUND {
        return Point::new(rng.gen(), rng.gen());
    }
    let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
    Point::new(
        (cx + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
        (cy + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
    )
}

/// The true sliding window: the last `window` epochs' cell counts.
#[derive(Debug)]
pub struct TruthWindow {
    d: u32,
    window: usize,
    epochs: std::collections::VecDeque<Vec<u64>>,
}

impl TruthWindow {
    /// An empty window over a `d × d` grid.
    pub fn new(d: u32, window: usize) -> Self {
        Self { d, window, epochs: Default::default() }
    }

    /// Slides the window over one more epoch's counts.
    pub fn push(&mut self, counts: &[u64]) {
        if self.epochs.len() == self.window {
            self.epochs.pop_front();
        }
        self.epochs.push_back(counts.to_vec());
    }

    /// The normalized window histogram with its range-sum table.
    pub fn distribution(&self) -> TrueDistribution {
        let n = (self.d * self.d) as usize;
        let mut sum = vec![0u64; n];
        for e in &self.epochs {
            for (acc, v) in sum.iter_mut().zip(e) {
                *acc += v;
            }
        }
        let total = sum.iter().sum::<u64>().max(1) as f64;
        TrueDistribution::new(self.d, sum.iter().map(|&c| c as f64 / total).collect())
    }
}

/// A true window distribution plus a 2-D prefix-sum table, so any
/// range's true mass is four reads.
#[derive(Debug, Clone)]
pub struct TrueDistribution {
    d: u32,
    /// Normalized cell masses (row-major).
    pub values: Vec<f64>,
    prefix: Vec<f64>,
}

impl TrueDistribution {
    fn new(d: u32, values: Vec<f64>) -> Self {
        let w = d as usize + 1;
        let mut prefix = vec![0.0; w * w];
        for y in 0..d as usize {
            for x in 0..d as usize {
                prefix[(y + 1) * w + x + 1] =
                    values[y * d as usize + x] + prefix[y * w + x + 1] + prefix[(y + 1) * w + x]
                        - prefix[y * w + x];
            }
        }
        Self { d, values, prefix }
    }

    /// True mass of the inclusive cell rectangle.
    pub fn range(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> f64 {
        let w = self.d as usize + 1;
        let (x0, y0, x1, y1) = (x0 as usize, y0 as usize, x1 as usize + 1, y1 as usize + 1);
        self.prefix[y1 * w + x1] - self.prefix[y0 * w + x1] - self.prefix[y1 * w + x0]
            + self.prefix[y0 * w + x0]
    }

    /// Total-variation distance to an estimate on the same grid.
    pub fn tv(&self, estimate: &[f64]) -> f64 {
        0.5 * self.values.iter().zip(estimate).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }
}

//! Query workload: the range / point / heatmap mix, the open-loop
//! sender that runs beside ingest, and the closed-loop burst that runs
//! after a stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use dam_cluster::Coordinator;
use dam_geo::rng::keyed;
use dam_obs::{Clock, Stopwatch, WallClock};
use dam_range::{random_queries, RangeQuery};
use dam_stream::QueryService;
use rand::rngs::StdRng;
use rand::Rng;

use crate::scenario::TrueDistribution;
use crate::stats::{band_quantile, MASS_TOL};

/// Range selectivities (side as a share of the grid side), as in
/// fig_service.
const SELECTIVITIES: [f64; 3] = [0.125, 0.25, 0.5];
/// Truth floor of the relative range error, as in fig_service.
const TRUTH_FLOOR: f64 = 1e-3;
/// Longest single sleep of the open-loop sender, so it notices `stop`.
const MAX_NAP_NS: u64 = 1_000_000;

/// One query of the mix.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    /// One cell's mass.
    Point(u32, u32),
    /// An inclusive cell rectangle's mass.
    Range(RangeQuery),
    /// The `side × side` aggregate plane.
    Heatmap(u32),
}

/// The seeded query mix: 80% range at selectivities {1/8, 1/4, 1/2},
/// 15% point, 5% heatmap at a pyramid level of at most 16 × 16.
#[derive(Debug)]
pub struct QueryMix {
    rng: StdRng,
    d: u32,
    sides: Vec<u32>,
}

impl QueryMix {
    /// The mix over a `d × d` grid, heatmaps at `sides`, keyed by
    /// `(seed, stream)`.
    pub fn new(seed: u64, stream: u64, d: u32, sides: Vec<u32>) -> Self {
        assert!(!sides.is_empty(), "at least one heatmap level");
        Self { rng: keyed(seed, 0x9E_0000, stream), d, sides }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let r: f64 = self.rng.gen();
        if r < 0.80 {
            let sel = SELECTIVITIES[self.rng.gen_range(0..SELECTIVITIES.len())];
            Query::Range(random_queries(self.d, 1, sel, &mut self.rng)[0])
        } else if r < 0.95 {
            Query::Point(self.rng.gen_range(0..self.d), self.rng.gen_range(0..self.d))
        } else {
            Query::Heatmap(self.sides[self.rng.gen_range(0..self.sides.len())])
        }
    }
}

/// A serving surface the benchmark queries.
pub trait Serve: Sync {
    /// Point query.
    fn point(&self, x: u32, y: u32) -> f64;
    /// Range query.
    fn range(&self, q: &RangeQuery) -> f64;
    /// Heatmap query.
    fn heatmap(&self, side: u32) -> Option<Vec<f64>>;
    /// Epoch of the snapshot queries currently read.
    fn epoch(&self) -> usize;
}

impl Serve for QueryService {
    fn point(&self, x: u32, y: u32) -> f64 {
        QueryService::point(self, x, y)
    }
    fn range(&self, q: &RangeQuery) -> f64 {
        QueryService::range(self, q.x0, q.y0, q.x1, q.y1)
    }
    fn heatmap(&self, side: u32) -> Option<Vec<f64>> {
        QueryService::heatmap(self, side)
    }
    fn epoch(&self) -> usize {
        QueryService::epoch(self)
    }
}

/// The cluster's serving surface: the coordinator's published snapshot
/// (the cluster has no `QueryService`), read per call exactly as
/// `QueryService` does, with the range-cover node count kept here.
pub struct CoordinatorReads<'a> {
    coord: &'a Coordinator,
    /// Pyramid nodes read by range covers so far.
    pub cover_nodes: AtomicU64,
}

impl<'a> CoordinatorReads<'a> {
    /// Reads through `coord`.
    pub fn new(coord: &'a Coordinator) -> Self {
        Self { coord, cover_nodes: AtomicU64::new(0) }
    }
}

impl Serve for CoordinatorReads<'_> {
    fn point(&self, x: u32, y: u32) -> f64 {
        self.coord.snapshot().pyramid.cell(x, y)
    }
    fn range(&self, q: &RangeQuery) -> f64 {
        let (v, nodes) = self.coord.snapshot().pyramid.range_sum_counted(q.x0, q.y0, q.x1, q.y1);
        self.cover_nodes.fetch_add(nodes as u64, Ordering::Relaxed);
        v
    }
    fn heatmap(&self, side: u32) -> Option<Vec<f64>> {
        self.coord.snapshot().pyramid.level_for_side(side).map(|lv| lv.values().to_vec())
    }
    fn epoch(&self) -> usize {
        self.coord.snapshot().epoch
    }
}

/// The true windows of the latest published epochs: posted by the
/// writer before it publishes, read by the query sender to score
/// answers.
#[derive(Debug, Default)]
pub struct TruthBoard(RwLock<VecDeque<(usize, Arc<TrueDistribution>)>>);

impl TruthBoard {
    /// Epochs kept (a query reads the newest snapshot or the one before).
    const KEEP: usize = 4;

    /// Posts the true window of snapshot epoch `epoch`.
    pub fn post(&self, epoch: usize, truth: Arc<TrueDistribution>) {
        let mut board = self.0.write().expect("truth board poisoned");
        if board.len() == Self::KEEP {
            board.pop_front();
        }
        board.push_back((epoch, truth));
    }

    /// The true window of snapshot epoch `epoch`, if still posted.
    pub fn get(&self, epoch: usize) -> Option<Arc<TrueDistribution>> {
        let board = self.0.read().expect("truth board poisoned");
        board.iter().find(|(e, _)| *e == epoch).map(|(_, t)| Arc::clone(t))
    }
}

/// What a query run observed.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Call-to-return latency (ns) per kind: point, range, heatmap.
    pub latency_ns: [Vec<f64>; 3],
    /// How late each query was sent against its due time (ns).
    pub late_ns: Vec<f64>,
    /// Relative error of range answers scored against their epoch.
    pub relerr: Vec<f64>,
    /// Queries sent.
    pub sent: u64,
    /// Queries due by the schedule (equals `sent` for a closed loop).
    pub due: u64,
    /// Queries sent per kind: point, range, heatmap.
    pub per_kind: [u64; 3],
    /// Queries with no, a non-finite or an out-of-range answer.
    pub failed: u64,
    /// The first failure reasons.
    pub notes: Vec<String>,
}

impl QueryLog {
    /// All latencies (ns), every kind.
    pub fn all_latency_ns(&self) -> Vec<f64> {
        self.latency_ns.iter().flatten().copied().collect()
    }

    /// The band-smoothed `q`-quantile of all latencies, in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        band_quantile(&self.all_latency_ns(), q) / 1e3
    }

    /// Sends one query, timing the call alone, and scores the answer
    /// against `truth` when the serving epoch did not move during it.
    fn send(
        &mut self,
        serve: &dyn Serve,
        clock: &WallClock,
        query: Query,
        truth: impl Fn(usize) -> Option<Arc<TrueDistribution>>,
    ) {
        let before = serve.epoch();
        let sw = Stopwatch::start(clock);
        let (kind, answer) = match query {
            Query::Point(x, y) => (0, Ok(serve.point(x, y))),
            Query::Range(q) => (1, Ok(serve.range(&q))),
            Query::Heatmap(side) => (2, Err(serve.heatmap(side))),
        };
        let ns = sw.elapsed_ns() as f64;
        self.latency_ns[kind].push(ns);
        self.per_kind[kind] += 1;
        self.sent += 1;
        let verdict = match answer {
            Ok(v) if !(v.is_finite() && (-MASS_TOL..=1.0 + MASS_TOL).contains(&v)) => {
                Err(format!("{query:?} answered {v}"))
            }
            Ok(v) => {
                if let (Query::Range(q), true) = (query, serve.epoch() == before) {
                    if let Some(t) = truth(before) {
                        let exact = t.range(q.x0, q.y0, q.x1, q.y1);
                        self.relerr.push((v - exact).abs() / exact.max(TRUTH_FLOOR));
                    }
                }
                Ok(())
            }
            Err(None) => Err(format!("{query:?} answered None")),
            Err(Some(plane)) => {
                let mass: f64 = plane.iter().sum();
                if plane.iter().all(|v| v.is_finite()) && (mass - 1.0).abs() <= MASS_TOL {
                    Ok(())
                } else {
                    Err(format!("{query:?} heatmap mass {mass}"))
                }
            }
        };
        if let Err(why) = verdict {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }
}

/// Sends the mix open-loop at `rate` queries/s until `stop` is set:
/// query `k` is due `k / rate` seconds after the start whether or not
/// earlier ones returned. Each query is timed from call to return; how
/// late the sender ran against the schedule is kept separately.
pub fn open_loop(
    serve: &dyn Serve,
    clock: &WallClock,
    rate: f64,
    mut mix: QueryMix,
    board: &TruthBoard,
    stop: &AtomicBool,
) -> QueryLog {
    let interval = 1e9 / rate;
    let mut log = QueryLog::default();
    let start = clock.now_ns();
    let truth = |e: usize| board.get(e);
    'send: for k in 0u64.. {
        let due = start + (k as f64 * interval) as u64;
        loop {
            if stop.load(Ordering::Acquire) {
                break 'send;
            }
            let now = clock.now_ns();
            if now >= due {
                log.late_ns.push((now - due) as f64);
                break;
            }
            std::thread::sleep(std::time::Duration::from_nanos((due - now).min(MAX_NAP_NS)));
        }
        log.send(serve, clock, mix.next_query(), truth);
    }
    log.due = ((clock.now_ns() - start) as f64 / interval) as u64 + 1;
    log
}

/// Sends `n` queries of the mix back to back into `log`, scoring range
/// answers against `truth`. Nothing is due ahead of time in a closed
/// loop, so no query is late.
pub fn closed_loop(
    serve: &dyn Serve,
    clock: &WallClock,
    n: usize,
    mix: &mut QueryMix,
    truth: &Arc<TrueDistribution>,
    log: &mut QueryLog,
) {
    for _ in 0..n {
        log.send(serve, clock, mix.next_query(), |_| Some(Arc::clone(truth)));
        log.late_ns.push(0.0);
    }
    log.due += n as u64;
}

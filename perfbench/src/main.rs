//! End-to-end pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-d64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives the production path through public APIs — validated reports
//! in, sliding-window EM, pyramid, snapshot swap, queries out — as a
//! single-node `QueryService` (`serve-d64`, `ingest-d20`) or a K = 4
//! `Cluster` with checkpoint/WAL (`cluster-long`). Inputs come from
//! `--seed` alone. Every publish and every answer is checked. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it re-runs the publish path with a span around each layer's call and
//! prints the per-layer metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A run whose
//! outputs fail a check prints that line and exits 1.
//!
//! Each run also writes `.bench_out/<workload>-seed<seed>-trace<t>.json`
//! with its provenance, metrics, work fingerprint and (traced) spans.

mod cluster;
mod queries;
mod scenario;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use dam_core::{DamConfig, Pyramid};
use dam_geo::rng::splitmix64;
use dam_geo::{Grid2D, Histogram2D};
use dam_obs::{Registry, WallClock};
use dam_stream::health::names;
use dam_stream::{Snapshot, StreamConfig};
use dam_transport::{SinkhornParams, W2Solver};

use crate::queries::QueryLog;
use crate::scenario::{TrueDistribution, Workload};
use crate::stats::{band_quantile, quantile, Tally};

/// Constructions per run; their median is `setup_s`.
pub const SETUP_REPS: usize = 41;
/// A seed kept out of tuning, for checking a later claim on fresh inputs.
pub const HELD_OUT_SEED: u64 = 0x5EED_4E1D;
/// Directory (under the working directory) for result files and stores.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("epoch_publish_ms_p50", "ms"),
    ("epoch_publish_ms_p90", "ms"),
    ("reports_per_s", "1/s"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
    ("window_tv", "fraction"),
    ("final_w2", "cells"),
    ("range_relerr", "fraction"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 42] = [
    ("shard.busy_ms", "ms"),
    ("shard.ns_per_report", "ns"),
    ("shard.reports", "count"),
    ("shard.quarantined", "count"),
    ("state.busy_us", "us"),
    ("state.tree_epochs", "count"),
    ("em.busy_ms", "ms"),
    ("em.cold_ms", "ms"),
    ("em.iters", "count"),
    ("em.cold_iters", "count"),
    ("em.ms_per_iter", "ms"),
    ("em.reseeds", "count"),
    ("em.backend_fallbacks", "count"),
    ("em.backend_fft", "count"),
    ("em.backend_conv", "count"),
    ("pyramid.build_us", "us"),
    ("pyramid.nodes", "count"),
    ("service.glue_us", "us"),
    ("query.point_us", "us"),
    ("query.range_us", "us"),
    ("query.heatmap_us", "us"),
    ("query.cover_nodes", "count"),
    ("query.count", "count"),
    ("query.failed", "count"),
    ("gen.late_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.due", "count"),
    ("node.busy_ms", "ms"),
    ("node.skew", "ratio"),
    ("coord.close_ms", "ms"),
    ("coord.close_ckpt_ms", "ms"),
    ("coord.self_ms", "ms"),
    ("coord.polls", "count"),
    ("coord.retries", "count"),
    ("coord.checkpoint_bytes", "bytes"),
    ("coord.wal_bytes", "bytes"),
    ("obs.trace_overhead_pct", "%"),
    ("fp.em_iterations_total", "count"),
    ("fp.coord_checkpoint_bytes", "bytes"),
    ("fp.coord_wal_bytes", "bytes"),
    ("fp.range_cover_nodes", "count"),
    ("fp.reports_seen", "count"),
];

/// The work fingerprint: deterministic counts from the program's own
/// registry, identical across runs of one seed and across thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(BTreeMap<&'static str, u64>);

impl Fingerprint {
    /// An empty fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the stream- and coordinator-side counters of a pipeline
    /// registry.
    pub fn read_stream(&mut self, reg: &Registry) {
        self.set("em_iterations_total", reg.counter_value("em_iterations_total"));
        self.set("reports_seen", reg.counter_value(names::REPORTS_SEEN));
        self.set("coord_checkpoint_bytes", reg.counter_value("coord_checkpoint_bytes"));
        self.set("coord_wal_bytes", reg.counter_value("coord_wal_bytes"));
    }

    /// Sets one count.
    pub fn set(&mut self, key: &'static str, v: u64) {
        self.0.insert(key, v);
    }

    /// One count, 0 if absent.
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// The counts as a JSON object.
    fn to_json(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Everything one run hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The run's work fingerprint.
    pub fingerprint: Fingerprint,
    /// The traced run's spans, as JSON.
    pub trace_json: Option<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The run stopped before measuring (it prints no metrics).
    pub incomplete: bool,
}

impl Outcome {
    /// An empty outcome carrying `fingerprint`.
    pub fn new(fingerprint: Fingerprint) -> Self {
        Self {
            values: BTreeMap::new(),
            tally: Tally::default(),
            fingerprint,
            trace_json: None,
            notes: Vec::new(),
            incomplete: false,
        }
    }

    /// Sets one metric (the name must be a declared metric).
    pub fn set(&mut self, name: &str, v: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(key, v);
    }

    /// Adds a log line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// What every workload runner reads.
pub struct Ctx<'a> {
    /// The workload.
    pub w: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured stream duration.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Available cores.
    pub nproc: usize,
    /// The one wall clock every timing reads.
    pub clock: &'a WallClock,
    /// Result files and stores go here.
    pub out_dir: PathBuf,
}

impl Ctx<'_> {
    /// Input-generator threads: one beside a single-threaded pipeline
    /// (the query sender has the other core), every core otherwise.
    pub fn gen_threads(&self) -> usize {
        if self.w.single_thread {
            1
        } else {
            self.nproc
        }
    }
}

/// The workload's stream configuration at `threads` report threads;
/// the stream seed derives from the input seed.
pub fn stream_config(ctx: &Ctx, threads: usize) -> StreamConfig {
    let dam = DamConfig::dam(ctx.w.eps).with_threads(Some(threads));
    StreamConfig::new(dam, ctx.w.window, splitmix64(ctx.seed ^ 0x5E4F_1CE5_0000_0011))
}

/// Heatmap sides queried: pyramid levels of at most 16 × 16.
pub fn heatmap_sides(pyramid: &Pyramid) -> Vec<u32> {
    pyramid.levels().iter().map(|l| l.side()).filter(|&s| s <= 16).collect()
}

/// Nodes in a pyramid, all levels.
pub fn pyramid_nodes(pyramid: &Pyramid) -> u64 {
    pyramid.levels().iter().map(|l| l.values().len() as u64).sum()
}

/// W₂ (cells) between a snapshot and the true window, via the
/// grid-separable solver; a solver error fails the check.
pub fn final_w2(
    grid: &Grid2D,
    snap: &Snapshot,
    truth: &TrueDistribution,
    threads: usize,
    tally: &mut Tally,
) -> f64 {
    let params = SinkhornParams { threads: Some(threads), ..SinkhornParams::default() };
    let truth = Histogram2D::from_values(grid.clone(), truth.values.clone());
    match dam_transport::metrics::w2(&snap.estimate, &truth, W2Solver::Grid.method(0, params)) {
        Ok(v) if v.is_finite() => {
            tally.record(Ok(()));
            v
        }
        other => {
            tally.record(Err(format!("final W2: {other:?}")));
            f64::NAN
        }
    }
}

/// The query-layer metrics from a query log.
pub fn set_query_layers(out: &mut Outcome, log: &QueryLog, cover_nodes_mean: f64) {
    let p50_us = |kind: usize| band_quantile(&log.latency_ns[kind], 0.5) / 1e3;
    out.set("query.point_us", p50_us(0));
    out.set("query.range_us", p50_us(1));
    out.set("query.heatmap_us", p50_us(2));
    out.set("query.cover_nodes", cover_nodes_mean);
    out.set("query.count", log.sent as f64);
    out.set("query.failed", log.failed as f64);
    out.set("gen.late_ms", quantile(&log.late_ns, 0.99) / 1e6);
    out.set("gen.sent", log.sent as f64);
    out.set("gen.due", log.due as f64);
}

/// The cluster-layer metrics of a single-node workload: it has no
/// nodes and no coordinator, so every one is 0.
pub fn set_cluster_layers_absent(out: &mut Outcome) {
    for name in [
        "node.busy_ms",
        "node.skew",
        "coord.close_ms",
        "coord.close_ckpt_ms",
        "coord.self_ms",
        "coord.polls",
        "coord.retries",
        "coord.checkpoint_bytes",
        "coord.wal_bytes",
    ] {
        out.set(name, 0.0);
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        /// `ru_utime`, `ru_stime` (two `timeval`s), then 14 `long`s.
        words: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { words: [0; 18] };
    // SAFETY: `usage` is a live, writable buffer of the size and layout
    // of `struct rusage` on 64-bit Linux; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    // `ru_maxrss` (the fifth word) is in KiB on Linux.
    usage.words[4] as f64 * 1024.0 / 1e6
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    let names: Vec<&str> = scenario::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    scenario::workload(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as JSON (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let clock = WallClock::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let w = args.workload;
    let ctx = Ctx {
        w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        clock: &clock,
        out_dir,
    };
    let threads = if w.single_thread { 1 } else { nproc };
    let provenance = format!(
        "{{\"workload\":{},\"why\":{},\"seed\":{},\"held_out_seed\":{},\"trace\":{},\"nproc\":{nproc},\
         \"threads\":{threads},\"d\":{},\"eps\":{},\"window\":{},\"reports_per_epoch\":{},\"epochs\":{},\
         \"seconds\":{},\"commit\":{},\"rustc\":{}}}",
        json_str(w.name),
        json_str(w.why),
        args.seed,
        HELD_OUT_SEED,
        u8::from(args.trace),
        w.d,
        w.eps,
        w.window,
        w.reports_per_epoch,
        w.epochs,
        args.seconds,
        json_str(&git_commit()),
        json_str(env!("PERFBENCH_RUSTC")),
    );
    println!("provenance {provenance}");

    let mut outcome = if w.cluster { cluster::run(&ctx) } else { service::run(&ctx) };
    if args.trace {
        for (key, name) in [
            ("em_iterations_total", "fp.em_iterations_total"),
            ("coord_checkpoint_bytes", "fp.coord_checkpoint_bytes"),
            ("coord_wal_bytes", "fp.coord_wal_bytes"),
            ("range_cover_nodes", "fp.range_cover_nodes"),
            ("reports_seen", "fp.reports_seen"),
        ] {
            let v = outcome.fingerprint.get(key);
            outcome.set(name, v as f64);
        }
    }

    for line in &outcome.notes {
        println!("{line}");
    }
    let fp = outcome.fingerprint.to_json();
    println!("fingerprint {fp}");
    for why in &outcome.tally.notes {
        println!("FAILED {why}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let Some(v) = outcome.values.get(name) else {
            if !outcome.incomplete {
                panic!("metric {name} was not measured");
            }
            continue;
        };
        println!("{name} = {v} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        ));
    }
    let correct = outcome.tally.failed == 0 && !outcome.incomplete;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    );

    let file = ctx.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let mut record =
        format!("{{\"provenance\":{provenance},\"fingerprint\":{fp},\"result\":{result}");
    if let Some(spans) = &outcome.trace_json {
        let _ = write!(record, ",\"spans\":{spans}");
    }
    record.push_str("}\n");
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

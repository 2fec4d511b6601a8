//! # dam-stream — continual-observation spatial estimation
//!
//! Every other pipeline in the workspace is one-shot: collect reports,
//! run EM, print a figure. This crate is the **streaming** layer the
//! paper's motivating workloads (POI heatmaps, epidemic tracking) really
//! need — timestamped reports arrive in *epochs* and a sliding-window
//! estimate is available at all times:
//!
//! * [`ring`] — the **epoch ring buffer** ([`ring::EpochRing`]): the
//!   last W epoch planes with the sliding-window sum maintained
//!   incrementally and exactly (whole-number counts), slots reused in
//!   place. It is the estimator's only history, so retained state,
//!   checkpoints and recovery are bounded by the window;
//! * [`tree`] — a standalone binary-tree **continual counting** index
//!   over count planes (Chan–Shi–Song dyadic intervals): any prefix or
//!   window of a full epoch history costs O(log T) plane reads
//!   ([`tree::CountTree`]). Nothing on the estimation path keeps one;
//! * [`estimator`] — the [`estimator::StreamingEstimator`] facade wrapping
//!   `dam_core::DamConfig`: epochs ingest through the deterministic
//!   sharded report pipeline (bit-identical for any thread count), each
//!   window's EM **warm-starts** from the previous window's estimate via
//!   a long-lived operator + workspace, converging in a few iterations in
//!   steady state instead of a cold run's hundreds. All SAM variants and
//!   EM backends ride it unchanged;
//! * [`service`] — the serve-while-ingesting [`service::QueryService`]:
//!   one writer ingests epochs while any number of query threads answer
//!   point/range/heatmap queries from an immutable epoch-versioned
//!   snapshot (window estimate + its `dam_core::Pyramid` + health),
//!   swapped atomically at each window close — answers are bit-identical
//!   for any thread count and any ingest/query interleaving.
//!
//! `cargo run --release -p dam-eval --bin fig_stream` drives the
//! moving-foci evaluation; `cargo bench -p dam-bench --bench streaming`
//! regenerates `BENCH_stream.json` (ingest throughput, warm-vs-cold EM
//! iteration ratio, O(log T) window-query scaling).

#![forbid(unsafe_code)]

pub mod estimator;
pub mod health;
pub mod ring;
pub mod service;
pub mod tree;

pub use estimator::{StreamConfig, StreamingEstimator, WindowEstimate};
pub use health::{PipelineHealth, StreamError};
pub use ring::EpochRing;
pub use service::{QueryService, Snapshot};
pub use tree::CountTree;

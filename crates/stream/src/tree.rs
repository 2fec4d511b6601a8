//! Binary-tree continual counting over epoch count planes.
//!
//! The continual-observation model (Chan–Shi–Song; Dwork et al.) releases
//! a running count at every time step. The classic construction organises
//! the stream into **dyadic intervals**: epoch `t` closes one tree node
//! per trailing one-bit of `t + 1`, every prefix `[0, t)` decomposes into
//! `popcount(t) ≤ ⌈log₂ T⌉ + 1` closed nodes, and a sliding window
//! `[t₀, t₁)` is the difference of two prefixes. [`CountTree`] lifts the
//! construction from scalars to whole **count planes** (one `f64` per
//! output-grid cell), so any window or prefix of the report stream costs
//! O(log T) plane reads instead of an O(T) rescan — the property the
//! `streaming` bench pins against a naive per-epoch accumulator.
//!
//! Every epoch plane is already private (each report went through the
//! local randomizer), so node sums are plain post-processing and queries
//! are *exact* sums of the ingested planes: the tree is purely a
//! query-cost structure. It keeps every epoch, so it is a standalone
//! history index — the streaming estimator retains only its
//! [`crate::EpochRing`] window.
//!
//! Node merges and query accumulation run row-parallel on the persistent
//! worker pool once the work crosses the measured
//! [`dam_core::tuning::PARALLEL_WORK_THRESHOLD`]; chunk boundaries are a
//! pure function of the plane size, so output bits are identical for any
//! thread count (the determinism suite covers both regimes).

use crate::health::StreamError;
use dam_core::tuning::PARALLEL_WORK_THRESHOLD;
use rayon::prelude::*;

/// Fixed row-chunk size for parallel plane arithmetic. A pure function of
/// nothing — chunk boundaries never depend on the thread count, which is
/// what keeps parallel merges bit-identical to the serial reference.
const PLANE_CHUNK: usize = 16_384;

/// A dyadic forest of count planes supporting O(log T) prefix and window
/// sums over an append-only epoch stream.
#[derive(Debug, Clone)]
pub struct CountTree {
    n_cells: usize,
    threads: Option<usize>,
    /// `levels[l][k]` sums epochs `[k·2ˡ, (k+1)·2ˡ)` exactly.
    levels: Vec<Vec<Vec<f64>>>,
}

impl CountTree {
    /// A tree over planes of `n_cells` cells with plane arithmetic on up
    /// to `threads` workers.
    pub fn new(n_cells: usize, threads: Option<usize>) -> Self {
        assert!(n_cells > 0, "planes must have at least one cell");
        Self { n_cells, threads, levels: Vec::new() }
    }

    /// A tree with plane arithmetic on the whole pool.
    pub fn exact(n_cells: usize) -> Self {
        Self::new(n_cells, None)
    }

    /// Number of epochs ingested so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True before the first epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cells per plane.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Nodes a prefix query `[0, t)` reads: `popcount(t)`.
    #[inline]
    pub fn prefix_nodes(t: usize) -> usize {
        t.count_ones() as usize
    }

    /// Whether plane merges run on the worker pool for this plane size.
    #[inline]
    pub fn merge_is_parallel(&self) -> bool {
        self.n_cells >= PARALLEL_WORK_THRESHOLD
    }

    /// Ingests epoch `len()`'s count plane, closing every dyadic node the
    /// new epoch completes (amortised one merge per epoch).
    pub fn append(&mut self, plane: &[f64]) {
        assert_eq!(plane.len(), self.n_cells, "plane does not match tree width");
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(plane.to_vec());
        // Epoch index just written; trailing one-bits close parent nodes.
        let mut idx = self.levels[0].len() - 1;
        let mut level = 0usize;
        while idx % 2 == 1 {
            let merged = {
                let nodes = &self.levels[level];
                self.merge_pair(&nodes[idx - 1], &nodes[idx])
            };
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[level + 1].push(merged);
            level += 1;
            idx /= 2;
        }
    }

    /// Writes the prefix sum `[0, t)` into `out`.
    ///
    /// Panics on out-of-range `t` — the right contract for in-process
    /// callers whose bounds are their own invariants. Callers whose `t`
    /// crosses a trust boundary use [`CountTree::try_prefix_into`].
    pub fn prefix_into(&self, t: usize, out: &mut [f64]) {
        // lint: allow(no-panic-in-lib, panicking on caller bounds bugs is this wrapper's documented contract; try_prefix_into is the structured-error form)
        self.try_prefix_into(t, out).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`CountTree::prefix_into`] returning a structured
    /// [`StreamError`] instead of panicking when `t` exceeds the epochs
    /// ingested — for queries arriving from outside the process.
    pub fn try_prefix_into(&self, t: usize, out: &mut [f64]) -> Result<(), StreamError> {
        if t > self.len() {
            return Err(StreamError::PastStreamHead { t, len: self.len() });
        }
        assert_eq!(out.len(), self.n_cells, "output does not match tree width");
        out.fill(0.0);
        self.accumulate_prefix(t, 1.0, out);
        Ok(())
    }

    /// Writes the window sum `[t0, t1)` into `out` as the difference of
    /// two prefixes. Nodes shared by both decompositions cancel exactly
    /// (whole-number planes, integer arithmetic).
    ///
    /// Panics on reversed or out-of-range bounds; see
    /// [`CountTree::try_window_into`] for the structured-error form.
    pub fn window_into(&self, t0: usize, t1: usize, out: &mut [f64]) {
        // lint: allow(no-panic-in-lib, panicking on caller bounds bugs is this wrapper's documented contract; try_window_into is the structured-error form)
        self.try_window_into(t0, t1, out).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`CountTree::window_into`] returning a structured [`StreamError`]
    /// on reversed bounds or a window past the stream head.
    pub fn try_window_into(
        &self,
        t0: usize,
        t1: usize,
        out: &mut [f64],
    ) -> Result<(), StreamError> {
        if t0 > t1 {
            return Err(StreamError::ReversedWindow { t0, t1 });
        }
        self.try_prefix_into(t1, out)?;
        self.accumulate_prefix(t0, -1.0, out);
        Ok(())
    }

    /// The window `[t0, t1)` clamped to the epochs actually ingested,
    /// plus whether clamping truncated it. The well-defined answer for
    /// under-filled streams: asking for the last `W` epochs of a stream
    /// only `3 < W` epochs old returns the 3-epoch partial window and
    /// `true`, rather than panicking or inventing zeros. Reversed bounds
    /// still error — there is no sensible reading of `[5, 2)`.
    pub fn window_clamped(&self, t0: usize, t1: usize) -> Result<(Vec<f64>, bool), StreamError> {
        if t0 > t1 {
            return Err(StreamError::ReversedWindow { t0, t1 });
        }
        let head = self.len();
        let (c0, c1) = (t0.min(head), t1.min(head));
        let mut out = vec![0.0; self.n_cells];
        self.try_window_into(c0, c1, &mut out)?;
        Ok((out, (c0, c1) != (t0, t1)))
    }

    /// [`CountTree::prefix_into`], allocating.
    pub fn prefix(&self, t: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cells];
        self.prefix_into(t, &mut out);
        out
    }

    /// [`CountTree::window_into`], allocating.
    pub fn window(&self, t0: usize, t1: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cells];
        self.window_into(t0, t1, &mut out);
        out
    }

    /// Adds `sign ×` every node of the dyadic decomposition of `[0, t)`
    /// onto `out`.
    fn accumulate_prefix(&self, t: usize, sign: f64, out: &mut [f64]) {
        debug_assert!(t <= self.len());
        let mut pos = 0usize;
        for level in (0..usize::BITS - t.leading_zeros()).rev() {
            if (t >> level) & 1 == 0 {
                continue;
            }
            let k = pos >> level;
            self.add_plane(&self.levels[level as usize][k], sign, out);
            pos += 1 << level;
        }
        debug_assert_eq!(pos, t);
    }

    /// `out[i] += sign · plane[i]`, row-parallel above the measured work
    /// threshold (fixed chunk boundaries keep it bit-identical).
    fn add_plane(&self, plane: &[f64], sign: f64, out: &mut [f64]) {
        if self.merge_is_parallel() {
            out.par_chunks_mut(PLANE_CHUNK).with_threads(self.threads).enumerate().for_each(
                |(c, chunk)| {
                    let src = &plane[c * PLANE_CHUNK..c * PLANE_CHUNK + chunk.len()];
                    for (acc, &v) in chunk.iter_mut().zip(src) {
                        *acc += sign * v;
                    }
                },
            );
        } else {
            for (acc, &v) in out.iter_mut().zip(plane) {
                *acc += sign * v;
            }
        }
    }

    /// Sums a closed node pair into a fresh parent plane.
    fn merge_pair(&self, left: &[f64], right: &[f64]) -> Vec<f64> {
        let mut parent = vec![0.0; self.n_cells];
        if self.merge_is_parallel() {
            parent.par_chunks_mut(PLANE_CHUNK).with_threads(self.threads).enumerate().for_each(
                |(c, chunk)| {
                    let base = c * PLANE_CHUNK;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = left[base + i] + right[base + i];
                    }
                },
            );
        } else {
            for (i, slot) in parent.iter_mut().enumerate() {
                *slot = left[i] + right[i];
            }
        }
        parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_plane(epoch: usize, n_cells: usize) -> Vec<f64> {
        (0..n_cells).map(|c| ((epoch * 31 + c * 7) % 11) as f64).collect()
    }

    fn naive_window(planes: &[Vec<f64>], t0: usize, t1: usize, n_cells: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_cells];
        for plane in &planes[t0..t1] {
            for (a, &v) in acc.iter_mut().zip(plane) {
                *a += v;
            }
        }
        acc
    }

    #[test]
    fn exact_prefixes_match_naive_sums() {
        let n_cells = 9;
        let mut tree = CountTree::exact(n_cells);
        let planes: Vec<Vec<f64>> = (0..13).map(|e| epoch_plane(e, n_cells)).collect();
        for plane in &planes {
            tree.append(plane);
        }
        for t in 0..=13 {
            assert_eq!(tree.prefix(t), naive_window(&planes, 0, t, n_cells), "prefix {t}");
        }
    }

    #[test]
    fn exact_windows_match_naive_sums() {
        let n_cells = 5;
        let mut tree = CountTree::exact(n_cells);
        let planes: Vec<Vec<f64>> = (0..11).map(|e| epoch_plane(e, n_cells)).collect();
        for plane in &planes {
            tree.append(plane);
        }
        for t0 in 0..=11 {
            for t1 in t0..=11 {
                assert_eq!(
                    tree.window(t0, t1),
                    naive_window(&planes, t0, t1, n_cells),
                    "window [{t0}, {t1})"
                );
            }
        }
    }

    #[test]
    fn prefix_node_count_is_popcount() {
        assert_eq!(CountTree::prefix_nodes(0), 0);
        assert_eq!(CountTree::prefix_nodes(8), 1);
        assert_eq!(CountTree::prefix_nodes(7), 3);
        assert_eq!(CountTree::prefix_nodes(1023), 10);
        // The O(log T) claim: any prefix of a T-epoch stream touches at
        // most ⌊log₂ T⌋ + 1 nodes.
        for t in 1..=4096usize {
            assert!(CountTree::prefix_nodes(t) <= t.ilog2() as usize + 1);
        }
    }

    #[test]
    #[should_panic(expected = "past the stream head")]
    fn prefix_past_head_is_rejected() {
        let tree = CountTree::exact(4);
        tree.prefix(1);
    }

    #[test]
    fn try_queries_return_structured_errors() {
        let n_cells = 4;
        let mut tree = CountTree::exact(n_cells);
        for e in 0..3 {
            tree.append(&epoch_plane(e, n_cells));
        }
        let mut out = vec![0.0; n_cells];
        assert_eq!(
            tree.try_prefix_into(5, &mut out),
            Err(StreamError::PastStreamHead { t: 5, len: 3 })
        );
        assert_eq!(
            tree.try_window_into(2, 1, &mut out),
            Err(StreamError::ReversedWindow { t0: 2, t1: 1 })
        );
        assert_eq!(
            tree.try_window_into(1, 9, &mut out),
            Err(StreamError::PastStreamHead { t: 9, len: 3 })
        );
        // The Ok path matches the panicking API exactly.
        tree.try_window_into(1, 3, &mut out).unwrap();
        assert_eq!(out, tree.window(1, 3));
    }

    #[test]
    fn clamped_window_truncates_to_the_stream_head() {
        let n_cells = 5;
        let mut tree = CountTree::exact(n_cells);
        let planes: Vec<Vec<f64>> = (0..3).map(|e| epoch_plane(e, n_cells)).collect();
        for plane in &planes {
            tree.append(plane);
        }
        // A window wholly inside the stream is exact and not partial.
        let (full, partial) = tree.window_clamped(0, 3).unwrap();
        assert!(!partial);
        assert_eq!(full, naive_window(&planes, 0, 3, n_cells));
        // Asking for the last 5 epochs of a 3-epoch stream: the held
        // suffix comes back, flagged partial.
        let (clipped, partial) = tree.window_clamped(1, 5).unwrap();
        assert!(partial);
        assert_eq!(clipped, naive_window(&planes, 1, 3, n_cells));
        // A window entirely beyond the head degenerates to empty+partial.
        let (empty, partial) = tree.window_clamped(7, 9).unwrap();
        assert!(partial);
        assert!(empty.iter().all(|&v| v == 0.0));
        // Reversed bounds still have no sensible clamped reading.
        assert_eq!(tree.window_clamped(2, 1), Err(StreamError::ReversedWindow { t0: 2, t1: 1 }));
    }
}

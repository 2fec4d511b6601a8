//! Fixed-capacity ring of epoch count planes with an incrementally
//! maintained sliding-window sum.
//!
//! The streaming estimator's hot path touches exactly one plane per
//! epoch: the new epoch's counts are added to the running window sum and
//! the evicted epoch's counts subtracted — O(n_cells) per epoch instead
//! of the O(W·n_cells) rescan. Because every plane holds whole-number
//! report counts, the add/subtract arithmetic is exact (f64 represents
//! integers up to 2⁵³), so the incremental sum is **bit-identical** to
//! recomputing the window from scratch — pinned by
//! [`EpochRing::recompute_into`] in the tests.
//!
//! Evicted slots are overwritten in place, so a steady-state stream
//! allocates nothing here.

/// Ring of the most recent `window` epoch planes plus their running sum.
#[derive(Debug, Clone)]
pub struct EpochRing {
    planes: Vec<Vec<f64>>,
    n_cells: usize,
    window: usize,
    /// Next slot to (over)write.
    head: usize,
    /// Planes currently held (saturates at `window`).
    len: usize,
    /// Exact sum of the held planes.
    window_counts: Vec<f64>,
}

impl EpochRing {
    /// An empty ring holding up to `window` planes of `n_cells` cells.
    pub fn new(n_cells: usize, window: usize) -> Self {
        assert!(window > 0, "window must hold at least one epoch");
        assert!(n_cells > 0, "planes must have at least one cell");
        Self {
            planes: Vec::with_capacity(window),
            n_cells,
            window,
            head: 0,
            len: 0,
            window_counts: vec![0.0; n_cells],
        }
    }

    /// Window capacity in epochs.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Planes currently held (`min(epochs ingested, window)`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first epoch.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The running sum over the held planes (the sliding-window counts).
    #[inline]
    pub fn window_counts(&self) -> &[f64] {
        &self.window_counts
    }

    /// Pushes epoch counts, evicting the oldest plane once full. Updates
    /// the running window sum incrementally (exact for whole-number
    /// counts).
    pub fn push(&mut self, plane: &[f64]) {
        assert_eq!(plane.len(), self.n_cells, "plane does not match ring width");
        if self.planes.len() < self.window {
            self.planes.push(plane.to_vec());
            for (acc, &v) in self.window_counts.iter_mut().zip(plane) {
                *acc += v;
            }
        } else {
            let slot = &mut self.planes[self.head];
            for ((acc, old), &new) in self.window_counts.iter_mut().zip(slot.iter_mut()).zip(plane)
            {
                *acc += new - *old;
                *old = new;
            }
        }
        self.head = (self.head + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
    }

    /// The held planes in epoch order, oldest first — what a checkpoint
    /// persists. Pushing them into a fresh ring rebuilds the same window
    /// sum bit for bit (whole-number counts).
    pub fn planes(&self) -> impl Iterator<Item = &[f64]> + '_ {
        let start = if self.len < self.window { 0 } else { self.head };
        (0..self.len).map(move |i| self.planes[(start + i) % self.window].as_slice())
    }

    /// Recomputes the window sum from the held planes in epoch order
    /// (oldest first) — the O(W) reference the incremental sum must match
    /// bit-for-bit.
    pub fn recompute_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_cells, "output does not match ring width");
        out.fill(0.0);
        for plane in self.planes() {
            for (acc, &v) in out.iter_mut().zip(plane) {
                *acc += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(epoch: usize, n_cells: usize) -> Vec<f64> {
        (0..n_cells).map(|c| ((epoch * 13 + c * 3) % 7) as f64).collect()
    }

    #[test]
    fn incremental_sum_matches_recompute_bit_for_bit() {
        let n_cells = 12;
        let mut ring = EpochRing::new(n_cells, 4);
        let mut reference = vec![0.0; n_cells];
        for e in 0..11 {
            ring.push(&plane(e, n_cells));
            ring.recompute_into(&mut reference);
            let bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            let inc: Vec<u64> = ring.window_counts().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, inc, "epoch {e}");
        }
    }

    #[test]
    fn eviction_drops_exactly_the_oldest_epoch() {
        let n_cells = 3;
        let mut ring = EpochRing::new(n_cells, 2);
        ring.push(&[1.0, 0.0, 0.0]);
        ring.push(&[0.0, 2.0, 0.0]);
        ring.push(&[0.0, 0.0, 4.0]);
        assert_eq!(ring.window_counts(), &[0.0, 2.0, 4.0]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn slots_are_reused_without_reallocating() {
        let n_cells = 8;
        let mut ring = EpochRing::new(n_cells, 3);
        for e in 0..3 {
            ring.push(&plane(e, n_cells));
        }
        let ptrs: Vec<*const f64> = ring.planes.iter().map(|p| p.as_ptr()).collect();
        for e in 3..9 {
            ring.push(&plane(e, n_cells));
        }
        let after: Vec<*const f64> = ring.planes.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(ptrs, after, "steady-state pushes must reuse the evicted slots");
    }

    #[test]
    fn refilled_ring_matches_the_incremental_one_bit_for_bit() {
        let n_cells = 6;
        let mut ring = EpochRing::new(n_cells, 3);
        for e in 0..10 {
            ring.push(&plane(e, n_cells));
        }
        let held: Vec<&[f64]> = ring.planes().collect();
        let want: Vec<Vec<f64>> = (7..10).map(|e| plane(e, n_cells)).collect();
        assert_eq!(held, want.iter().map(Vec::as_slice).collect::<Vec<_>>(), "oldest first");
        let mut refilled = EpochRing::new(n_cells, 3);
        for p in held {
            refilled.push(p);
        }
        let bits =
            |r: &EpochRing| r.window_counts().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&refilled), bits(&ring));
    }

    #[test]
    fn partial_window_sums_all_held_planes() {
        let n_cells = 4;
        let mut ring = EpochRing::new(n_cells, 5);
        ring.push(&[1.0; 4]);
        ring.push(&[2.0; 4]);
        assert_eq!(ring.window_counts(), &[3.0; 4]);
        assert_eq!(ring.len(), 2);
    }
}

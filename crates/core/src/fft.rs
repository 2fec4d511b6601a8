//! In-repo iterative real 2-D FFT, fused into one circular convolution
//! per EM primitive — the engine behind the spectral EM backend
//! ([`crate::conv::FftChannel`]).
//!
//! # Algorithm
//!
//! [`Fft2d`] is a fixed-size plan for power-of-two side `n`: twiddle and
//! bit-reversal tables are computed once at construction and shared by
//! every call, so per-call work is pure butterflies. The complex 1-D
//! kernel is an in-place iterative radix-2 Cooley–Tukey
//! (decimation-in-time: bit-reverse permute, then `log₂ n` butterfly
//! stages). Complex values are `[f64; 2]` (`[re, im]`); callers keep
//! their scratch as plain `f64` planes (an [`dam_fo::em::EmWorkspace`])
//! and the plan views them with `as_chunks_mut::<2>()`. Each stage reads
//! its twiddles from a flat per-stage table (forward and conjugated
//! inverse tables are both precomputed), so the butterfly loop is a
//! plain zip over `lo`/`hi` halves with no direction branch and no index
//! arithmetic.
//!
//! # Why a *real* FFT halves the work
//!
//! Every signal in the EM pipeline (estimate, weights, kernel stencil) is
//! real, so its spectrum is Hermitian: `S[-k] = conj(S[k])`. The row pass
//! exploits this twice. First, a length-`n` real transform is computed as
//! one length-`n/2` *complex* transform of the even/odd interleaving
//! (`z[j] = x[2j] + i·x[2j+1]`) plus an O(n) untangling step — half the
//! butterflies of a padded complex transform. Second, only the
//! `n/2 + 1` non-redundant row frequencies are kept, so the column pass
//! runs `n/2 + 1` length-`n` transforms instead of `n`.
//!
//! # One fused convolution, three sweeps
//!
//! The EM primitives never need a spectrum for its own sake: each one is
//! "transform, multiply by the cached kernel spectrum, transform back,
//! read a corner". [`Fft2d::convolve`] does exactly that in three sweeps
//! over two scratch planes:
//!
//! 1. **Row FFTs, pruned to the rows that hold data.** The source is a
//!    `src_d`-wide field zero-padded onto the `n × n` grid; only its
//!    rows (`d` for the E-step, `d + 2b̂` for the adjoint) are
//!    transformed. Every padding row has the same spectrum — the real FFT
//!    of a zero row — which the plan computes once and the column sweep
//!    copies in.
//! 2. **One column sweep, in place per column:** forward FFT → product
//!    with the kernel spectrum (conjugated for the adjoint: correlation
//!    theorem) → inverse FFT. The row spectra are stored row-major
//!    (`rows × (n/2 + 1)`) and the column planes transposed
//!    (`(n/2 + 1) × n`), so the column gather and the inverse-row gather
//!    are the only strided accesses.
//! 3. **Inverse row FFTs over only the rows read back** (`d + 2b̂` for the
//!    E-step, `d` for the adjoint). The inverses are unscaled; the caller
//!    multiplies by [`Fft2d::scale`] (`2/n²`) while it reads the rows out,
//!    so there is no separate scale pass.
//!
//! # Padding scheme
//!
//! Convolutions are evaluated circularly on a `next_pow2(d + 2b̂)` grid.
//! The EM primitives need *linear* convolution values on `[0, d + 2b̂)`
//! per axis (E-step) or `[0, d)` shifted by the kernel anchor (M-step,
//! evaluated through the conjugate spectrum); in both cases the linear
//! support fits inside the padded period, so the circular wrap never
//! contaminates the cells that are read back — equivalence with the
//! stencil operator is exact up to roundoff (tested to ≤ 1e-12).
//!
//! # Why the result is bit-identical to a forward/inverse pair
//!
//! The fused path performs, per output value, the same floating-point
//! operations in the same order as a full forward 2-D transform, a
//! separate spectrum product, a full inverse and a scale pass would:
//! the radix-2 DIT stage order and the twiddle values are unchanged
//! (the per-stage tables are gathered from the same `e^{-2πik/n}` values
//! and the inverse table is their exact negated-imaginary copy), a
//! pruned padding row contributes the bit-exact spectrum a transformed
//! zero row would, and the skipped output rows are never read. Fusing
//! and pruning only remove passes and rows whose results were discarded.
//!
//! # Parallelism and determinism
//!
//! All three sweeps are row-parallel on the persistent worker pool
//! (`rayon::par_chunks_mut`), gated on [`crate::tuning`]'s measured
//! work threshold: serial through n = 64, parallel from n = 128 up. On a
//! 2-vCPU host a serial n = 128 EM publishes faster (d = 64, b̂ = 14:
//! 46 ms against 59 ms per epoch in the pipeline benchmark's `serve-d64`
//! workload), but it leaves the second vCPU idle during a publish that
//! is mostly EM, and the queries served beside ingest then run slower
//! (call-to-return p50 1.3–1.4 µs → 1.5–1.7 µs, p99 4.3–4.5 µs →
//! 5.0–6.6 µs). Query latency is the service's user-facing number, so
//! the gate stays where it is. Each row's and column's arithmetic is independent of which worker runs
//! it and of the thread count, so results are **bit-identical for any
//! `--threads` value** (asserted by the determinism suite).

use crate::tuning::{next_pow2, PARALLEL_WORK_THRESHOLD};
use rayon::prelude::*;

/// One complex value, `[re, im]`.
type C64 = [f64; 2];

/// Precomputed tables for one in-place complex FFT size.
#[derive(Debug, Clone)]
struct CfftPlan {
    /// Bit-reversal transpositions `(i, rev(i))` with `i < rev(i)`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles stage by stage: the stage with half-length `h`
    /// reads `fwd[h - 1..2h - 1]`, i.e. `e^{-2πi·j/(2h)}` for `j < h`.
    fwd: Vec<C64>,
    /// Conjugates of `fwd` (the unscaled inverse transform).
    inv: Vec<C64>,
}

impl CfftPlan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let swaps = (0..n as u32)
            .map(|i| (i, if bits == 0 { 0 } else { i.reverse_bits() >> (32 - bits) }))
            .filter(|&(i, j)| i < j)
            .collect();
        let tw: Vec<C64> = (0..n / 2)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                [angle.cos(), angle.sin()]
            })
            .collect();
        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            fwd.extend((0..half).map(|j| tw[j * step]));
            half *= 2;
        }
        let inv = fwd.iter().map(|&[re, im]| [re, -im]).collect();
        Self { swaps, fwd, inv }
    }

    /// In-place forward complex FFT.
    fn forward(&self, data: &mut [C64]) {
        self.transform(data, &self.fwd);
    }

    /// In-place inverse complex FFT, **unscaled** — callers fold the
    /// `1/n` factors into their readout exactly once.
    fn inverse(&self, data: &mut [C64]) {
        self.transform(data, &self.inv);
    }

    fn transform(&self, data: &mut [C64], tw: &[C64]) {
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let mut half = 1;
        while half < data.len() {
            let stage = &tw[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let tr = w[0] * b[0] - w[1] * b[1];
                    let ti = w[0] * b[1] + w[1] * b[0];
                    *b = [a[0] - tr, a[1] - ti];
                    *a = [a[0] + tr, a[1] + ti];
                }
            }
            half *= 2;
        }
    }
}

/// Which kernel-spectrum product [`Fft2d::convolve`] applies between the
/// forward and inverse column transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Product {
    /// `S ⊙ K`: circular convolution with the kernel (the E-step).
    Convolve,
    /// `S ⊙ conj(K)`: circular correlation with the kernel (the
    /// adjoint's M-step direction).
    Correlate,
}

/// A reusable plan for real 2-D FFTs and fused circular convolutions on
/// an `n × n` power-of-two grid.
///
/// Spectra use the *transposed half-spectrum* layout: `half + 1` rows
/// (row-frequency index `kx ∈ [0, n/2]`), each holding `n` complex
/// values over the column-frequency index, so every column transform is
/// a contiguous slice.
#[derive(Debug, Clone)]
pub struct Fft2d {
    n: usize,
    half: usize,
    /// Column-pass complex FFT (size `n`).
    cols: CfftPlan,
    /// Row-pass complex FFT (size `n/2`, the real-FFT split).
    rows: CfftPlan,
    /// Untangle twiddles `e^{-2πik/n}` for `k ∈ [0, n/2]`.
    unt: Vec<C64>,
    /// Real FFT of an all-zero row: the spectrum of every padding row.
    zero_row: Vec<C64>,
    /// Row-parallel sweeps only when a sweep clears the measured
    /// pool-handoff threshold.
    parallel: bool,
}

impl Fft2d {
    /// Plans transforms for the smallest power-of-two grid with side
    /// ≥ `min_side` (at least 2).
    pub fn new(min_side: usize) -> Self {
        let n = next_pow2(min_side);
        let half = n / 2;
        let unt = (0..=half)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                [angle.cos(), angle.sin()]
            })
            .collect();
        // Gate on the *calibrated* per-primitive cost in stencil-MAC
        // units (butterflies are ~4× a contiguous MAC), so the FFT
        // engages the pool at exactly the work level the stencil does:
        // serial through n = 64, parallel from n = 128 up — the whole
        // regime `EmBackend::Auto` routes here.
        let parallel = crate::tuning::fft_equivalent_flops(n) >= PARALLEL_WORK_THRESHOLD;
        let mut plan = Self {
            n,
            half,
            cols: CfftPlan::new(n),
            rows: CfftPlan::new(half),
            unt,
            zero_row: Vec::new(),
            parallel,
        };
        let mut zero_row = vec![[0.0; 2]; half + 1];
        plan.rfft_row(&[], &mut zero_row);
        plan.zero_row = zero_row;
        plan
    }

    /// Padded grid side.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the sweeps hand rows to the persistent worker pool
    /// (results are bit-identical either way; exposed so tests can pin
    /// which path they exercise).
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Floats in the row-spectrum scratch plane of [`Self::convolve`]
    /// (`n` rows × `half + 1` complex).
    #[inline]
    pub fn scratch_len(&self) -> usize {
        self.n * (self.half + 1) * 2
    }

    /// Floats in a transposed half-spectrum (`half + 1` rows × `n`
    /// complex).
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        (self.half + 1) * self.n * 2
    }

    /// Factor the unscaled rows of [`Self::convolve`] carry: the column
    /// and row inverses leave `n·(n/2)`, so readouts multiply by `2/n²`.
    #[inline]
    pub fn scale(&self) -> f64 {
        2.0 / (self.n * self.n) as f64
    }

    /// Applies `f(index, chunk)` to every `chunk_len`-chunk of `buf`, in
    /// parallel when the plan is large enough to pay for it.
    fn sweep(&self, buf: &mut [C64], chunk_len: usize, f: impl Fn(usize, &mut [C64]) + Sync) {
        if self.parallel {
            buf.par_chunks_mut(chunk_len).enumerate().for_each(|(i, chunk)| f(i, chunk));
        } else {
            for (i, chunk) in buf.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
        }
    }

    /// Real FFT of one row: `src` holds at most `n` reals (the rest of
    /// the row is zero padding); `dst` receives `half + 1` frequencies.
    fn rfft_row(&self, src: &[f64], dst: &mut [C64]) {
        let (n, h) = (self.n, self.half);
        debug_assert!(src.len() <= n);
        debug_assert_eq!(dst.len(), h + 1);
        // Even/odd interleave is exactly the memory layout of the padded
        // row reinterpreted as h complex numbers.
        let flat = dst.as_flattened_mut();
        flat[..src.len()].copy_from_slice(src);
        flat[src.len()..n].fill(0.0);
        self.rows.forward(&mut dst[..h]);
        // Untangle Z (length h) into the real spectrum X (length h + 1):
        // X[k] = A - i·w·B with A = (Z[k] + conj(Z[h-k]))/2,
        // B = (Z[k] - conj(Z[h-k]))/2, w = e^{-2πik/n}; Z[h] ≡ Z[0].
        let [z0r, z0i] = dst[0];
        dst[0] = [z0r + z0i, 0.0];
        dst[h] = [z0r - z0i, 0.0];
        for k in 1..=h / 2 {
            let j = h - k;
            let ([zkr, zki], [zjr, zji]) = (dst[k], dst[j]);
            let (ar, ai) = ((zkr + zjr) / 2.0, (zki - zji) / 2.0);
            let (br, bi) = ((zkr - zjr) / 2.0, (zki + zji) / 2.0);
            let [wr, wi] = self.unt[k];
            let (twr, twi) = (wr * br - wi * bi, wr * bi + wi * br);
            dst[k] = [ar + twi, ai - twr];
            // X[h-k] follows from the same pair with conjugated roles.
            let (wjr, wji) = (-wr, wi); // w' = e^{-2πi(h-k)/n} = -conj(w)
            let (bjr, bji) = (-br, bi); // B' = -conj(B)
            let (tjr, tji) = (wjr * bjr - wji * bji, wjr * bji + wji * bjr);
            dst[j] = [ar + tji, -ai - tjr];
        }
    }

    /// Inverse of [`Self::rfft_row`], in place and unscaled by design:
    /// `row` holds `half + 1` frequencies on entry; on return
    /// `row[..half]`, read as `n` floats, holds the real row carrying an
    /// extra factor `n/2`.
    fn irfft_row_unscaled(&self, row: &mut [C64]) {
        let h = self.half;
        debug_assert_eq!(row.len(), h + 1);
        // Retangle X (length h + 1) back into Z (length h), inverting the
        // forward split: with A = (X[k] + conj(X[h-k]))/2 and
        // D = (X[k] - conj(X[h-k]))/2,
        //   Z[k]   = A + i·conj(w)·D          (w = e^{-2πik/n}),
        //   Z[h-k] = conj(A) - conj(i·conj(w)·D).
        let ([x0r, x0i], [xhr, xhi]) = (row[0], row[h]);
        // k = 0: w = 1, so Z[0] = A + i·D directly.
        let (ar, ai) = ((x0r + xhr) / 2.0, (x0i - xhi) / 2.0);
        let (dr, di) = ((x0r - xhr) / 2.0, (x0i + xhi) / 2.0);
        row[0] = [ar - di, ai + dr];
        for k in 1..=h / 2 {
            let j = h - k;
            let ([xkr, xki], [xjr, xji]) = (row[k], row[j]);
            let (ar, ai) = ((xkr + xjr) / 2.0, (xki - xji) / 2.0);
            let (dr, di) = ((xkr - xjr) / 2.0, (xki + xji) / 2.0);
            let [wr, wi] = self.unt[k];
            // c = conj(w)·D; then i·c = (-c.im, c.re).
            let (cr, ci) = (wr * dr + wi * di, wr * di - wi * dr);
            row[k] = [ar - ci, ai + cr];
            if j != k {
                row[j] = [ar + ci, cr - ai];
            }
        }
        self.rows.inverse(&mut row[..h]);
    }

    /// Sweeps 1 and 2: row FFTs of the `src_d`-wide field `src` (its
    /// rows only) into `rowspec`, then one column sweep that forward-
    /// transforms every column of `spec` and hands it to `then`.
    fn forward_then(
        &self,
        src: &[f64],
        src_d: usize,
        rowspec: &mut [C64],
        spec: &mut [C64],
        then: impl Fn(usize, &mut [C64]) + Sync,
    ) {
        let (n, h1) = (self.n, self.half + 1);
        let rows_in = src.len() / src_d;
        debug_assert!(src_d <= n && rows_in <= n && src.len() == rows_in * src_d);
        let rowspec = &mut rowspec[..rows_in * h1];
        self.sweep(rowspec, h1, |y, row| self.rfft_row(&src[y * src_d..(y + 1) * src_d], row));
        let rowspec = &*rowspec;
        self.sweep(spec, n, |kx, col| {
            let (data, padding) = col.split_at_mut(rows_in);
            for (c, row) in data.iter_mut().zip(rowspec.chunks_exact(h1)) {
                *c = row[kx];
            }
            padding.fill(self.zero_row[kx]);
            self.cols.forward(col);
            then(kx, col);
        });
    }

    /// Forward real 2-D FFT of the `src_d`-wide field `src`, zero-padded
    /// onto the `n × n` grid: returns its transposed half-spectrum
    /// (`(half + 1) · n` complex values). Allocates its scratch; meant
    /// for one-off transforms such as a kernel at channel construction.
    pub fn spectrum(&self, src: &[f64], src_d: usize) -> Vec<[f64; 2]> {
        let mut rowspec = vec![[0.0; 2]; self.scratch_len() / 2];
        let mut spec = vec![[0.0; 2]; self.spectrum_len() / 2];
        self.forward_then(src, src_d, &mut rowspec, &mut spec, |_, _| {});
        spec
    }

    /// Fused circular convolution (or correlation) of the `src_d`-wide
    /// field `src`, zero-padded onto the `n × n` grid, with the kernel
    /// whose [`Self::spectrum`] is `kspec`.
    ///
    /// Returns the first `rows_out` rows of the circular result, each
    /// `n` reals long and **unscaled**: multiply by [`Self::scale`] while
    /// reading them out. The two scratch planes — `scratch`
    /// ([`Self::scratch_len`] floats) and `spec` ([`Self::spectrum_len`]
    /// floats) — are overwritten; the rows borrow `scratch`.
    pub fn convolve<'s>(
        &self,
        src: &[f64],
        src_d: usize,
        kspec: &[[f64; 2]],
        product: Product,
        rows_out: usize,
        [scratch, spec]: [&'s mut [f64]; 2],
    ) -> impl Iterator<Item = &'s [f64]> + 's {
        let (n, h1) = (self.n, self.half + 1);
        debug_assert_eq!(scratch.len(), self.scratch_len());
        debug_assert_eq!(spec.len(), self.spectrum_len());
        debug_assert_eq!(kspec.len(), h1 * n);
        debug_assert!(rows_out <= n);
        let mul: fn(&mut [C64], &[C64]) = match product {
            Product::Convolve => spectrum_mul,
            Product::Correlate => spectrum_mul_conj,
        };
        let rowspec = scratch.as_chunks_mut::<2>().0;
        let spec = spec.as_chunks_mut::<2>().0;
        self.forward_then(src, src_d, rowspec, spec, |kx, col| {
            mul(col, &kspec[kx * n..(kx + 1) * n]);
            self.cols.inverse(col);
        });
        // Sweep 3: gather each read-back row's half-spectrum and invert
        // the row transform in place.
        let spec = &*spec;
        self.sweep(&mut rowspec[..rows_out * h1], h1, |y, row| {
            for (x, col) in row.iter_mut().zip(spec.chunks_exact(n)) {
                *x = col[y];
            }
            self.irfft_row_unscaled(row);
        });
        scratch[..rows_out * 2 * h1].chunks_exact(2 * h1).map(move |row| &row[..n])
    }
}

/// Pointwise spectrum product `a ⊙ b` into `a` (convolution theorem).
fn spectrum_mul(a: &mut [C64], b: &[C64]) {
    for (pa, pb) in a.iter_mut().zip(b) {
        let [ar, ai] = *pa;
        *pa = [ar * pb[0] - ai * pb[1], ar * pb[1] + ai * pb[0]];
    }
}

/// Pointwise spectrum product `a ⊙ conj(b)` into `a` (correlation
/// theorem).
fn spectrum_mul_conj(a: &mut [C64], b: &[C64]) {
    for (pa, pb) in a.iter_mut().zip(b) {
        let [ar, ai] = *pa;
        *pa = [ar * pb[0] + ai * pb[1], ai * pb[0] - ar * pb[1]];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_grid(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n * n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
    }

    /// Direct O(n⁴) 2-D DFT for cross-checking, returning the transposed
    /// half-spectrum layout.
    fn dft2_reference(src: &[f64], n: usize) -> Vec<[f64; 2]> {
        let h = n / 2;
        let mut spec = vec![[0.0; 2]; (h + 1) * n];
        for kx in 0..=h {
            for ky in 0..n {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for y in 0..n {
                    for x in 0..n {
                        let angle =
                            -2.0 * std::f64::consts::PI * ((kx * x) as f64 + (ky * y) as f64)
                                / n as f64;
                        re += src[y * n + x] * angle.cos();
                        im += src[y * n + x] * angle.sin();
                    }
                }
                spec[kx * n + ky] = [re, im];
            }
        }
        spec
    }

    /// Runs the fused convolution of a full `n × n` grid and returns all
    /// `n` rows, scaled.
    fn run_convolve(plan: &Fft2d, src: &[f64], kspec: &[[f64; 2]], product: Product) -> Vec<f64> {
        let n = plan.n();
        let mut scratch = vec![0.0; plan.scratch_len()];
        let mut spec = vec![0.0; plan.spectrum_len()];
        let scale = plan.scale();
        plan.convolve(src, n, kspec, product, n, [&mut scratch, &mut spec])
            .flat_map(|row| row.iter().map(move |&v| v * scale))
            .collect()
    }

    #[test]
    fn forward_matches_direct_dft() {
        for n in [2usize, 4, 8, 16] {
            let plan = Fft2d::new(n);
            assert_eq!(plan.n(), n);
            let src = random_grid(n, 7 + n as u64);
            let spec = plan.spectrum(&src, n);
            let want = dft2_reference(&src, n);
            for (i, (a, b)) in spec.iter().zip(&want).enumerate() {
                for c in 0..2 {
                    assert!(
                        (a[c] - b[c]).abs() < 1e-9 * (n * n) as f64,
                        "n {n} slot {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_spectrum_matches_direct_dft_of_padded_field() {
        // A 5 × 3-row field on the 8 × 8 grid: the padding rows come from
        // the cached zero-row spectrum, the padding columns from the
        // row-pass zero fill.
        let n = 8;
        let plan = Fft2d::new(n);
        let field = random_grid(5, 17);
        let field = &field[..5 * 3];
        let mut padded = vec![0.0; n * n];
        for (y, row) in field.chunks_exact(5).enumerate() {
            padded[y * n..y * n + 5].copy_from_slice(row);
        }
        let got = plan.spectrum(field, 5);
        assert_eq!(got, plan.spectrum(&padded, n), "pruning must not move a bit");
        for (i, (a, b)) in got.iter().zip(&dft2_reference(&padded, n)).enumerate() {
            assert!((a[0] - b[0]).abs() < 1e-9 && (a[1] - b[1]).abs() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        // Forward and inverse through a unit-impulse kernel (an all-ones
        // spectrum) must give the source back.
        for n in [2usize, 4, 8, 32, 64, 128] {
            let plan = Fft2d::new(n);
            let mut impulse = vec![0.0; n * n];
            impulse[0] = 1.0;
            let kspec = plan.spectrum(&impulse, n);
            let src = random_grid(n, 40 + n as u64);
            for product in [Product::Convolve, Product::Correlate] {
                let back = run_convolve(&plan, &src, &kspec, product);
                for (i, (a, b)) in back.iter().zip(&src).enumerate() {
                    assert!((a - b).abs() < 1e-12, "n {n} {product:?} cell {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn spectrum_product_is_circular_convolution() {
        let n = 8;
        let plan = Fft2d::new(n);
        let a = random_grid(n, 1);
        let b = random_grid(n, 2);
        // Direct circular convolution.
        let mut want = vec![0.0f64; n * n];
        for y in 0..n {
            for x in 0..n {
                let mut s = 0.0;
                for v in 0..n {
                    for u in 0..n {
                        s += a[v * n + u] * b[((y + n - v) % n) * n + (x + n - u) % n];
                    }
                }
                want[y * n + x] = s;
            }
        }
        let got = run_convolve(&plan, &a, &plan.spectrum(&b, n), Product::Convolve);
        for i in 0..n * n {
            assert!((got[i] - want[i]).abs() < 1e-10, "cell {i}: {} vs {}", got[i], want[i]);
        }
    }

    #[test]
    fn conjugate_product_is_circular_correlation() {
        let n = 8;
        let plan = Fft2d::new(n);
        let w = random_grid(n, 3);
        let k = random_grid(n, 4);
        // corr[t] = Σ_s k[s]·w[(t+s) mod n] per axis.
        let mut want = vec![0.0f64; n * n];
        for ty in 0..n {
            for tx in 0..n {
                let mut s = 0.0;
                for sy in 0..n {
                    for sx in 0..n {
                        s += k[sy * n + sx] * w[((ty + sy) % n) * n + (tx + sx) % n];
                    }
                }
                want[ty * n + tx] = s;
            }
        }
        let got = run_convolve(&plan, &w, &plan.spectrum(&k, n), Product::Correlate);
        for i in 0..n * n {
            assert!((got[i] - want[i]).abs() < 1e-10, "cell {i}: {} vs {}", got[i], want[i]);
        }
    }

    #[test]
    fn rows_out_prunes_without_changing_the_rows_kept() {
        let n = 16;
        let plan = Fft2d::new(n);
        let src = random_grid(n, 9);
        let kspec = plan.spectrum(&random_grid(n, 10), n);
        let mut scratch = vec![0.0; plan.scratch_len()];
        let mut spec = vec![0.0; plan.spectrum_len()];
        let full: Vec<Vec<f64>> = plan
            .convolve(&src, n, &kspec, Product::Convolve, n, [&mut scratch, &mut spec])
            .map(<[f64]>::to_vec)
            .collect();
        let pruned: Vec<Vec<f64>> = plan
            .convolve(&src, n, &kspec, Product::Convolve, 5, [&mut scratch, &mut spec])
            .map(<[f64]>::to_vec)
            .collect();
        assert_eq!(pruned.len(), 5);
        assert_eq!(pruned[..], full[..5]);
    }

    #[test]
    fn non_pow2_request_rounds_up() {
        let plan = Fft2d::new(23);
        assert_eq!(plan.n(), 32);
        let plan = Fft2d::new(1);
        assert_eq!(plan.n(), 2, "real split needs an even length");
    }
}

//! Order statistics, snapshot hashing and the output checks.

use dam_geo::rng::splitmix64;
use dam_stream::Snapshot;

/// Largest tolerated distance of a snapshot's total mass from 1, and of
/// a pyramid node from the sum of its children.
pub const MASS_TOL: f64 = 1e-9;

/// The `q`-quantile (nearest rank) of unsorted samples; 0 for none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A smoothed `q`-quantile: the mean of the samples ranked within one
/// percentile band around `q` (at least one sample). Latencies near the
/// clock's resolution keep their spread instead of snapping to a few
/// nanosecond values.
pub fn band_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = (((q - 0.005) * n).floor().max(0.0) as usize).min(v.len() - 1);
    let hi = (((q + 0.005) * n).ceil() as usize).clamp(lo + 1, v.len());
    mean(&v[lo..hi])
}

/// The mean of the middle half of the samples (ranks n/4 to 3n/4).
/// Steadier than the median when the samples fall into two modes whose
/// shares vary from run to run, and still blind to outliers.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    mean(&v[n / 4..(3 * n).div_ceil(4)])
}

/// The median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Folds the exact bits of `values` into `h`.
pub fn hash_values(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        h = splitmix64(h ^ v.to_bits());
    }
    h
}

/// A hash of a snapshot's estimate and every pyramid level, bit-exact.
pub fn snapshot_hash(snap: &Snapshot) -> u64 {
    let mut h = hash_values(snap.epoch as u64, snap.estimate.values());
    for level in snap.pyramid.levels() {
        h = hash_values(h, level.values());
    }
    h
}

/// The per-publish output checks: the epoch advanced by one, the
/// estimate is finite and sums to 1, and the pyramid is consistent.
pub fn check_snapshot(snap: &Snapshot, expect_epoch: usize) -> Result<(), String> {
    if snap.epoch != expect_epoch {
        return Err(format!("snapshot epoch {} after publish {expect_epoch}", snap.epoch));
    }
    let values = snap.estimate.values();
    if let Some(i) = values.iter().position(|v| !v.is_finite()) {
        return Err(format!("epoch {expect_epoch}: non-finite estimate cell {i}"));
    }
    let total: f64 = values.iter().sum();
    if (total - 1.0).abs() > MASS_TOL {
        return Err(format!("epoch {expect_epoch}: estimate sums to {total}"));
    }
    let gap = snap.pyramid.max_inconsistency();
    if gap.is_nan() || gap > MASS_TOL {
        return Err(format!("epoch {expect_epoch}: pyramid inconsistency {gap}"));
    }
    Ok(())
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: epochs, queries, recoveries, run checks.
    pub attempted: u64,
    /// Operations that returned an error, no or a non-finite answer, or
    /// failed an output check.
    pub failed: u64,
    /// The first failure reasons, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts one operation that passes iff `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(why()) });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(why);
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(note);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let w: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(band_quantile(&w, 0.5), 499.5);
        assert_eq!(band_quantile(&[7.0], 0.99), 7.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 100.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "bad".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, vec!["bad".to_string()]);
    }
}

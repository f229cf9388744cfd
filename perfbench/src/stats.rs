//! Sample statistics: medians, trimmed means, quartiles and the
//! tail-percentile rule.
//!
//! A tail percentile is reported only where at least [`TAIL_MIN_BEYOND`]
//! samples lie beyond it, so that a p99 never rests on one or two
//! outliers. [`tail`] picks the highest candidate percentile that meets
//! the rule and says so with the sample count.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Value at quantile `q` in `0..=1` of an ascending slice, by linear
/// interpolation between closest ranks. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Ascending copy of `xs` (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5).unwrap_or(0.0)
}

/// Share of the samples [`trimmed_mean`] drops at each end.
pub const TRIM: f64 = 0.1;

/// Mean of `xs` without its lowest and highest [`TRIM`] share; 0 when
/// empty. On a shared host the samples of one run fall into fast and slow
/// spells: a median jumps between the two as their mix shifts from run to
/// run, while this moves with the mix, and still ignores rare stalls.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let cut = (s.len() as f64 * TRIM) as usize;
    let kept = &s[cut..s.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// A tail percentile that meets the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest candidate percentile (99.9, 99, 95, 90) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, or `None` when
/// the sample is too small for any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&pct| tail_at(xs, pct))
}

/// The percentile named by `pct` if the rule allows reporting it.
pub fn tail_at(xs: &[f64], pct: f64) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    // Nearest rank in integer per-mille, so 95% of 200 is exactly 190.
    let permille = (pct * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000);
    let beyond = n.checked_sub(rank)?;
    (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
        pct,
        value: s[rank - 1],
        beyond,
    })
}

//! Small statistics toolkit: running moments, empirical CDFs, histograms,
//! and interval estimators.
//!
//! The paper reports almost everything as CDFs (Fig. 7, 9, 10) or
//! min/mean/std tables (Table 1, Table 2); these types back those reports.
//! The interval estimators ([`wilson_interval`] for proportions,
//! [`bootstrap_mean_interval`] for continuous metrics) back the adaptive
//! Monte-Carlo engine in `hb_testbed::montecarlo`: statistical claims
//! (BER ≈ 0.5, attack success ≈ 0) are asserted as "the confidence
//! interval excludes the forbidden region", not as point estimates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// z-score of the two-sided 95% confidence level.
pub const Z_95: f64 = 1.959963984540054;

/// z-score of the two-sided 99% confidence level.
pub const Z_99: f64 = 2.5758293035489004;

/// Wilson score interval for a binomial proportion: returns `(lo, hi)`
/// bounds on the true success probability given `successes` out of
/// `trials` at z-score `z` (e.g. [`Z_95`]).
///
/// Unlike the naive Wald interval, Wilson stays inside `[0, 1]`, never
/// collapses to zero width at `p̂ ∈ {0, 1}`, and always contains the point
/// estimate `successes / trials` — the properties the proptests in
/// `crates/dsp/tests/proptests.rs` pin. With `trials == 0` the interval
/// is the uninformative `(0, 1)`.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(successes <= trials, "more successes than trials");
    assert!(z > 0.0, "z-score must be positive");
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Percentile-bootstrap confidence interval for the mean of `samples`:
/// draws `resamples` with-replacement resamples using an RNG derived from
/// `seed` (fully deterministic), and returns the `(alpha/2, 1-alpha/2)`
/// quantiles of the resampled means. `alpha = 0.05` gives a 95% interval.
///
/// Returns `(mean, mean)` for fewer than 2 samples (no spread to
/// estimate) and the resampled quantiles otherwise; the interval always
/// stays within `[min, max]` of the samples by construction. A NaN sample
/// never panics: the means are ordered by [`f64::total_cmp`], which puts
/// NaNs at the ends of the order.
pub fn bootstrap_mean_interval(
    samples: &[f64],
    resamples: usize,
    alpha: f64,
    seed: u64,
) -> (f64, f64) {
    assert!(resamples > 0, "need at least one bootstrap resample");
    assert!((0.0..1.0).contains(&alpha), "alpha must be in [0, 1)");
    let n = samples.len();
    if n < 2 {
        let m = samples.first().copied().unwrap_or(0.0);
        return (m, m);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += samples[rng.gen_range(0..n)];
            }
            acc / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    let pick = |q: f64| -> f64 {
        let idx = ((q * means.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(means.len() - 1);
        means[idx]
    };
    (pick(alpha / 2.0), pick(1.0 - alpha / 2.0))
}

/// Incremental mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// An empirical cumulative distribution function over recorded samples.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in \[0,1\] (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Returns `(x, P(X<=x))` points suitable for plotting, one per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Renders a compact ASCII CDF plot (for experiment reports).
    pub fn ascii_plot(&self, width: usize, label: &str) -> String {
        if self.sorted.is_empty() {
            return format!("{label}: (no data)\n");
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{label}: n={} min={:.4} median={:.4} mean={:.4} max={:.4}\n",
            self.len(),
            self.min(),
            self.median(),
            self.mean(),
            self.max()
        ));
        let levels = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        for &q in &levels {
            let x = self.quantile(q);
            let bar = "#".repeat(((q * width as f64) as usize).max(1));
            out.push_str(&format!(
                "  P{:<3} {:>12.4} |{}\n",
                (q * 100.0) as u32,
                x,
                bar
            ));
        }
        out
    }
}

/// A fixed-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Center x-value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn cdf_eval_and_quantiles() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(10.0), 1.0);
        assert_eq!(c.quantile(0.25), 1.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.median(), 2.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
    }

    #[test]
    fn cdf_drops_nan() {
        let c = Cdf::from_samples(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cdf_points_monotone() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0]);
        let pts = c.points();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0] {
            h.push(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.out_of_range(), (1, 1));
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wilson_known_values() {
        // 50/100 at 95%: the textbook interval is roughly (0.404, 0.596).
        let (lo, hi) = wilson_interval(50, 100, Z_95);
        assert!((lo - 0.4038).abs() < 1e-3, "lo {lo}");
        assert!((hi - 0.5962).abs() < 1e-3, "hi {hi}");
        // Zero successes: lo pins to 0, hi is z²/(n+z²).
        let (lo0, hi0) = wilson_interval(0, 20, Z_95);
        assert_eq!(lo0, 0.0);
        assert!((hi0 - Z_95 * Z_95 / (20.0 + Z_95 * Z_95)).abs() < 1e-12);
        // All successes mirrors it.
        let (lo1, hi1) = wilson_interval(20, 20, Z_95);
        assert_eq!(hi1, 1.0);
        assert!((lo1 - (1.0 - hi0)).abs() < 1e-12);
    }

    #[test]
    fn wilson_empty_is_uninformative() {
        assert_eq!(wilson_interval(0, 0, Z_95), (0.0, 1.0));
    }

    #[test]
    fn wilson_wider_at_higher_confidence() {
        let (lo95, hi95) = wilson_interval(30, 80, Z_95);
        let (lo99, hi99) = wilson_interval(30, 80, Z_99);
        assert!(lo99 < lo95 && hi99 > hi95);
    }

    #[test]
    fn bootstrap_interval_brackets_the_mean() {
        let samples: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let (lo, hi) = bootstrap_mean_interval(&samples, 500, 0.05, 99);
        assert!(lo <= mean && mean <= hi, "({lo}, {hi}) vs mean {mean}");
        assert!(lo >= 0.0 && hi <= 6.0, "interval within sample range");
    }

    #[test]
    fn bootstrap_is_deterministic_in_the_seed() {
        let samples: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let a = bootstrap_mean_interval(&samples, 200, 0.05, 7);
        let b = bootstrap_mean_interval(&samples, 200, 0.05, 7);
        assert_eq!(a, b);
        let c = bootstrap_mean_interval(&samples, 200, 0.05, 8);
        assert_ne!(a, c, "different seeds should resample differently");
    }

    #[test]
    fn bootstrap_degenerate_inputs() {
        assert_eq!(bootstrap_mean_interval(&[], 100, 0.05, 1), (0.0, 0.0));
        assert_eq!(bootstrap_mean_interval(&[3.5], 100, 0.05, 1), (3.5, 3.5));
    }

    #[test]
    fn ascii_plot_contains_label() {
        let c = Cdf::from_samples((0..100).map(|i| i as f64).collect());
        let plot = c.ascii_plot(40, "test-metric");
        assert!(plot.contains("test-metric"));
        assert!(plot.contains("P50"));
    }
}
